"""Span tracer that times deltaspec's layers from outside the package.

``Tracer.install`` replaces the public functions of each deltaspec module
(and the two public methods ``OperatorMatrix.solve`` and
``ResolventReport.singular_values``) with wrappers that record a span:
its layer name, start, end and the span that caused it. Every module
namespace holding a reference to a wrapped function is patched, because
deltaspec modules import each other's functions by name. Dense LAPACK
calls in ``scipy.linalg`` on N x N matrices (N a node count) are counted
and timed as ``lapack.*``; they are counters, not spans, so they do not
reduce the self time of the layer that made them. Calls made outside any
span (the benchmark's own checks) are not counted.

``Tracer.metrics`` turns the spans into the per-layer metrics named in
``BENCHMARK.json``: self time (a span's duration minus the time covered by its
direct child spans) summed per layer, plus call and work counts.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import Counter, defaultdict

# span name -> (module, attribute) pairs wrapped under that name
SPANS = {
    "elliptic.assemble": [("elliptic", "assemble_neumann"),
                          ("elliptic", "assemble_robin")],
    "elliptic.inverse_power": [("elliptic", "inverse_power")],
    "elliptic.solve": [("elliptic", "OperatorMatrix.solve")],
    "measures.build": [("measures", "segment_measure"),
                       ("measures", "ifs_measure"),
                       ("measures", "boundary_measure"),
                       ("measures", "union_measure")],
    "birman_schwinger.restriction": [("birman_schwinger", "restriction_matrix")],
    "birman_schwinger.bs_operator": [("birman_schwinger", "bs_operator")],
    "birman_schwinger.bs_atom_gram": [("birman_schwinger", "bs_atom_gram")],
    "birman_schwinger.positivity_margin": [("birman_schwinger",
                                            "positivity_margin")],
    "resolvents.resolvent_difference": [("resolvents", "resolvent_difference")],
    "resolvents.two_weight_difference": [("resolvents",
                                          "two_weight_difference")],
    "resolvents.power_difference": [("resolvents", "power_difference")],
    "resolvents.singular_values": [("resolvents",
                                    "ResolventReport.singular_values")],
    "spectra.spectrum": [("spectra", "spectrum")],
    "spectra.fit": [("spectra", "fit_power_law"),
                    ("spectra", "log_periodic_residual"),
                    ("spectra", "weyl_prediction")],
    "io.write": [("io", "write_singular_values"), ("io", "write_counting"),
                 ("io", "write_json"), ("io", "write_measure")],
    "cli.run_config": [("cli", "run_config")],
}
LAPACK = ("cho_factor", "cholesky", "eigh", "eigvalsh", "svdvals")
REPORTS = ("resolvents.resolvent_difference", "resolvents.two_weight_difference",
           "resolvents.power_difference")

def _resolve(module, dotted):
    owner = module
    parts = dotted.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


class Tracer:
    """In-memory spans and counters for one process; see the module doc."""

    def __init__(self):
        self.node_counts: set[int] = set()
        self._patches: list[tuple[object, str, object]] = []
        self._stack: list[list] = []
        self.reset()

    def reset(self):
        """Drop recorded spans and counters (node counts are kept)."""
        self.spans: list[tuple[int, int, str, float, float]] = []
        self._next_id = 0
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.work: Counter = Counter()
        self.lapack_calls = 0
        self.lapack_s = 0.0

    # ------------------------------------------------------------- spans

    def _span(self, name, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._next_id += 1
            frame = [self._next_id, 0.0]
            parent = self._stack[-1] if self._stack else None
            self._stack.append(frame)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
                dur = t1 - t0
                if parent is not None:
                    parent[1] += dur
                self.spans.append((frame[0], 0 if parent is None else parent[0],
                                   name, t0, t1))
                self.self_s[name] += dur - frame[1]
                self.calls[name] += 1
            if after is not None:
                after(args, kwargs, out, frame)
            return out
        return wrapper

    def _after_assemble(self, args, kwargs, out, frame):
        self.node_counts.add(out.size)

    def _after_solve(self, args, kwargs, out, frame):
        rhs = args[1] if len(args) > 1 else kwargs["rhs"]
        self.work["elliptic.solve_columns"] += rhs.shape[1] if rhs.ndim == 2 else 1

    def _after_write(self, args, kwargs, out, frame):
        path = args[1] if len(args) > 1 else kwargs["path"]
        size = os.path.getsize(path)
        if os.fspath(out) != os.fspath(path):  # write_measure's sidecar
            size += os.path.getsize(out)
        self.work["io.bytes_written"] += size

    def _after_run_config(self, args, kwargs, out, frame):
        # a run answered from the run cache returns before any child span
        if frame[1] > 0.0:
            self.work["cli.runs_computed"] += 1

    def _lapack(self, fn):
        @functools.wraps(fn)
        def wrapper(a, *args, **kwargs):
            shape = getattr(a, "shape", ())
            if (not self._stack or len(shape) != 2 or shape[0] != shape[1]
                    or shape[0] not in self.node_counts):
                return fn(a, *args, **kwargs)
            t0 = time.perf_counter()
            try:
                return fn(a, *args, **kwargs)
            finally:
                self.lapack_s += time.perf_counter() - t0
                self.lapack_calls += 1
        return wrapper

    # ------------------------------------------------------------ install

    def install(self):
        """Wrap every public function listed in SPANS and the LAPACK calls."""
        import scipy.linalg

        import deltaspec.cli  # noqa: F401  (loads every module)

        after = {
            "elliptic.assemble": self._after_assemble,
            "elliptic.solve": self._after_solve,
            "io.write": self._after_write,
            "cli.run_config": self._after_run_config,
        }
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == "deltaspec"
                                         or key.startswith("deltaspec."))]
        for name, targets in SPANS.items():
            for mod_name, attr in targets:
                owner, leaf = _resolve(sys.modules[f"deltaspec.{mod_name}"],
                                       attr)
                original = getattr(owner, leaf)
                wrapped = self._span(name, original, after.get(name))
                if "." in attr:  # a method: patch the class only
                    self._patch(owner, leaf, wrapped)
                    continue
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, key, wrapped)
        for name in LAPACK:
            self._patch(scipy.linalg, name, self._lapack(getattr(scipy.linalg,
                                                                 name)))
        return self

    def _patch(self, owner, key, value):
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self):
        for owner, key, value in reversed(self._patches):
            setattr(owner, key, value)
        self._patches.clear()

    # ------------------------------------------------------------ results

    def metrics(self) -> dict[str, float]:
        """Per-layer totals since the last reset, keyed as in BENCHMARK.json."""
        s, c = self.self_s, self.calls
        return {
            "elliptic.assemble_s": s["elliptic.assemble"],
            "elliptic.assemble_calls": c["elliptic.assemble"],
            "elliptic.inverse_power_s": s["elliptic.inverse_power"],
            "elliptic.inverse_power_calls": c["elliptic.inverse_power"],
            "elliptic.solve_s": s["elliptic.solve"],
            "elliptic.solve_columns": self.work["elliptic.solve_columns"],
            "measures.build_s": s["measures.build"],
            "birman_schwinger.restriction_s": s["birman_schwinger.restriction"],
            "birman_schwinger.bs_operator_s": s["birman_schwinger.bs_operator"],
            "birman_schwinger.bs_operator_calls":
                c["birman_schwinger.bs_operator"],
            "birman_schwinger.bs_atom_gram_s":
                s["birman_schwinger.bs_atom_gram"],
            "birman_schwinger.positivity_margin_s":
                s["birman_schwinger.positivity_margin"],
            "birman_schwinger.positivity_margin_calls":
                c["birman_schwinger.positivity_margin"],
            "resolvents.resolvent_difference_s":
                s["resolvents.resolvent_difference"],
            "resolvents.two_weight_difference_s":
                s["resolvents.two_weight_difference"],
            "resolvents.power_difference_s": s["resolvents.power_difference"],
            "resolvents.reports": sum(c[name] for name in REPORTS),
            "resolvents.singular_values_s": s["resolvents.singular_values"],
            "spectra.spectrum_s": s["spectra.spectrum"],
            "spectra.spectrum_calls": c["spectra.spectrum"],
            "spectra.fit_s": s["spectra.fit"],
            "io.write_s": s["io.write"],
            "io.bytes_written": self.work["io.bytes_written"],
            "cli.run_config_self_s": s["cli.run_config"],
            "cli.runs_computed": self.work["cli.runs_computed"],
            "lapack.nxn_factorizations": self.lapack_calls,
            "lapack.nxn_factor_s": self.lapack_s,
        }

    def dump(self, path):
        """Write the metrics and the raw spans (id, parent, name, start, end).

        Span ids start at 1; parent 0 marks a span with no traced caller.
        """
        with open(path, "w") as fh:
            json.dump({"metrics": self.metrics(), "spans": self.spans}, fh)
