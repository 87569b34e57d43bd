"""identity-draws worker: the criterion-1 loop through deltaspec's library API.

    python3 perfbench/draws.py --seed S --seconds T --trace 0|1 --out FILE
    python3 perfbench/draws.py --setup-only --out FILE

Set-up (timed as ``setup_s``) imports deltaspec, assembles a fixed 1D
operator (512 nodes, a 48-atom segment) and a fixed 2D operator (33 x 33,
a 32-atom segment), and takes both inverse powers the identity paths use,
so the eigendecomposition of A is paid once. A round is four draws: a
nonnegative and a signed weight pair on each operator. Each draw builds
an admissible pair V1 >= V2 and calls ``resolvent_difference``,
``two_weight_difference`` and ``power_difference`` with m = 2 and m = 3.
Only the library calls are timed; the checks run between them.

With ``--trace 1`` rounds alternate untraced and traced, so the traced
run reports the tracing overhead next to the per-layer metrics.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

import numpy as np  # noqa: E402

import deltaspec as ds  # noqa: E402

import checks  # noqa: E402
from reference import measure_reference  # noqa: E402
from tracer import Tracer  # noqa: E402

MARGIN_THRESHOLD = 0.1
DRAWS_PER_ROUND = 4
# two rounds give a median in every run; in a traced run, one of each kind
MIN_ROUNDS = 2
OPERATORS = (
    # (label, bbox, shape, segment endpoints, atoms)
    ("1d", [[0.0, 1.0]], (512,), [[0.2], [0.8]], 48),
    ("2d", [[0.0, 1.0], [0.0, 1.0]], (33, 33), [[0.2, 0.45], [0.8, 0.45]], 32),
)
LIBRARY_ERRORS = (ds.PositivityError, ds.NumericalError, ds.ValidationError)


class Clock:
    """Wall and CPU seconds summed over the timed library calls."""

    def __init__(self):
        self.wall = 0.0
        self.cpu = 0.0

    def call(self, fn, *args):
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            return fn(*args)
        finally:
            self.wall += time.perf_counter() - w0
            self.cpu += time.process_time() - c0


def setup():
    ops = []
    for label, bbox, shape, ends, atoms in OPERATORS:
        grid = ds.Grid(np.array(bbox), shape)
        coeffs = ds.CoefficientField.isotropic(1.0, len(shape), t=1.0)
        a = ds.assemble_neumann(grid, coeffs)
        gam = ds.restriction_matrix(grid, ds.segment_measure(np.array(ends),
                                                             atoms))
        ds.inverse_power(a, 0.5)
        ds.inverse_power(a, 1.0)
        ops.append((label, a, gam))
    return ops


def draw(clock, a, gam, key, signed, cross_check):
    """One admissible pair and its four reports; returns problems found."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(key)))
    measure = gam.measure
    v2 = rng.standard_normal(measure.count)
    bump = 0.5 * np.abs(rng.standard_normal(measure.count))
    if not signed:
        v2 = np.abs(v2)
    t2 = clock.call(ds.bs_operator, a, gam, ds.Perturbation(measure, v2))
    if signed:
        # shrink V2 when 1 + T2 is too close to singular; T2 is rebuilt
        # either way so every signed draw does the same calls
        margin = clock.call(ds.positivity_margin, t2)
        if margin <= MARGIN_THRESHOLD:
            v2 = 0.9 * (1.0 - MARGIN_THRESHOLD) / (1.0 - margin) * v2
        t2 = clock.call(ds.bs_operator, a, gam, ds.Perturbation(measure, v2))
    t1 = clock.call(ds.bs_operator, a, gam, ds.Perturbation(measure, v2 + bump))

    where = f"{'signed' if signed else 'nonneg'} draw {key}"
    problems = []
    calls = (
        ("rd", ds.resolvent_difference, (a, t1)),
        ("tw", ds.two_weight_difference, (a, t1, t2)),
        ("pd2", ds.power_difference, (a, t1, 2)),
        ("pd3", ds.power_difference, (a, t1, 3)),
    )
    for name, fn, args in calls:
        rep = clock.call(fn, *args)
        tag = f"{where} {name}"
        problems += checks.check_residual(rep.residual, tag)
        problems += checks.check_residual(
            checks.path_residual(rep.terms.values(), rep.difference), tag)
        if name == "tw" or (name == "rd" and not signed):
            problems += checks.check_psd(rep.difference, tag)
        if name == "rd" and cross_check:
            problems += checks.check_inverse(a.matrix, t1.coupling.toarray(),
                                             rep.difference, tag)
        del rep
    return problems


def run_round(ops, seed, index):
    clock = Clock()
    problems, failed = [], 0
    for d, ((label, a, gam), signed) in enumerate(
            (op, signed) for op in ops for signed in (False, True)):
        key = [seed, index, d]
        try:
            problems += draw(clock, a, gam, key, signed,
                             cross_check=(label == "1d" and signed))
        except LIBRARY_ERRORS as exc:
            failed += 1
            print(f"draw {key} failed: {exc}", file=sys.stderr)
    return clock, problems, failed


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    ops = setup()
    result = {"setup_s": time.perf_counter() - T_START}
    if not args.setup_only:
        tracer = Tracer()
        tracer.node_counts.update(a.size for _, a, _ in ops)
        rounds, traces, problems, failed = [], [], [], 0
        start = time.perf_counter()
        last = 0.0
        while (len(rounds) < MIN_ROUNDS
               or time.perf_counter() - start + last <= args.seconds):
            traced = bool(args.trace) and len(rounds) % 2 == 1
            t0 = time.perf_counter()
            ref = measure_reference()
            if traced:
                tracer.install()
            try:
                clock, found, n_failed = run_round(ops, args.seed, len(rounds))
            finally:
                tracer.uninstall()
            last = time.perf_counter() - t0
            rounds.append({"wall": clock.wall, "cpu": clock.cpu,
                           "traced": traced, "failed": n_failed, "ref": ref})
            if traced:
                traces.append({"metrics": tracer.metrics(),
                               "spans": tracer.spans})
                tracer.reset()
            problems += found
            failed += n_failed
        result.update(rounds=rounds, traces=traces, problems=problems,
                      attempted=DRAWS_PER_ROUND * len(rounds), failed=failed)
    result["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
