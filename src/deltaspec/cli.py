"""Declarative experiment runner.

A JSON config describes a grid, an operator, a measure, weight vectors,
and a task list. ``run`` checks the config and builds the run's inputs
in one pass, so an input error exits 2 before any output is written; it
then executes the tasks and writes CSV/JSON artifacts under a directory
named by the run key (the config hash, extended by the bytes of any
weight file). ``sweep`` repeats a run over one scalar config field,
``verify`` executes built-in invariant suites, ``export`` re-emits a
manifest's summaries as CSV or JSON. The sweep's ``summary.csv`` holds
the CSV rows ``export`` writes for each run, the axis value in front.

Config schema (version 1)::

    {
      "schema_version": 1,
      "seed": 0,
      "domain":   {"bbox": [[0.0, 1.0]], "shape": [256]},
      "operator": {"coefficients": 1.0, "t": 1.0},
      "measure":  {"kind": "segment", "start": [0.25], "end": [0.75],
                   "count": 64},
      "weights":  {"V1": {"kind": "constant", "value": 1.0}},
      "tasks":    ["resolvent_diff", {"name": "power_diff", "m": 2}],
      "analysis": {"window": [5, 25]}
    }

Every key's rule, its range included, is stated once, in the table of
its section (``CONFIG``, ``DOMAIN``, ``OPERATOR``, ``MAP``, ``WEIGHTS``,
``ANALYSIS``) or of its kind (``MEASURE_KINDS`` and ``WEIGHT_KINDS`` by
``kind``, ``TASKS`` by ``name``); a key outside its table is an error.
The noise floor and the positivity margin are not options: a resolvent
task's floor is ``FLOOR_FACTOR / t^m``, and every task but
``robin_diff`` holds its weights to the margin threshold
``MARGIN_DEFAULT``. A file weight's atoms must be the measure's atoms.
All randomness derives from the single seed through counter-based
generators, so a fixed config yields byte-identical numeric CSVs. The
output root is ``$DELTASPEC_OUT`` or ``./runs``; ``--out`` overrides
both.

Exit codes: 0 success, 2 validation failure, 3 positivity failure after
the capped t-raises, 4 numerical failure, 1 failed verify suite.
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import hashlib
import json
import math
import os
import sys
import time
from collections import namedtuple
from pathlib import Path

import numpy as np

from . import __version__
from .birman_schwinger import (
    bs_operator,
    positivity_margin,
    restriction_matrix,
)
from .elliptic import (
    CoefficientField,
    Grid,
    _admit,
    assemble_neumann,
    lebesgue_measure,
)
from .errors import NumericalError, PositivityError, ValidationError
from .io import (
    FLOAT_FMT,
    fit_to_dict,
    read_json,
    read_measure,
    write_counting,
    write_json,
    write_measure,
    write_singular_values,
)
from .measures import (
    DiscreteMeasure,
    Similitude,
    boundary_measure,
    ifs_measure,
    segment_measure,
    union_measure,
)
from .resolvents import (
    power_difference,
    resolvent_difference,
    two_weight_difference,
)
from .spectra import (
    FLOOR_FACTOR,
    fit_power_law,
    kyfan_check,
    log_periodic_residual,
    spectrum,
    weyl_prediction,
)
from .weights import Perturbation

__all__ = ["main", "config_hash", "run_config", "sweep_config"]

SCHEMA_VERSION = 1
OUT_ENV_VAR = "DELTASPEC_OUT"
MAX_T_RAISES = 3


# ---------------------------------------------------------------- config
#
# One table per config section, and one per measure kind, weight kind and
# task (``TASKS``, with the task functions below), states each key's rule
# once: a type (str, bool, list or dict), or a number rule (int or float,
# with the allowed shapes, () being a bare number, listed or given by a
# function of the grid, and optionally a closed range lo, hi that every
# entry keeps). A section is a (required, optional) pair of such tables,
# which ``_section`` checks; the builders below read only checked values.


def _is_numeric(value, integer):
    if isinstance(value, list):
        return all(_is_numeric(v, integer) for v in value)
    if isinstance(value, bool) or not isinstance(value, int if integer
                                                 else (int, float)):
        return False
    if integer:
        # exact at any size: a huge grid shape meets the size rule, which
        # counts in Python integers, and every other integer its range
        return True
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        return False


def _point(grid):
    # one entry per axis; a bare number also names the one axis of 1D
    dim = grid.ambient_dim
    return [(dim,), ()] if dim == 1 else [(dim,)]


NUMBER, INTEGER, POINT = (float, [()]), (int, [()]), (float, _point)
CONFIG = ({"schema_version": (int, [()], SCHEMA_VERSION, SCHEMA_VERSION),
           "domain": dict, "operator": dict, "measure": dict, "tasks": list},
          {"weights": dict, "analysis": dict, "seed": (int, [()], 0, math.inf)})
# Grid checks that ``shape`` has one entry per axis of ``bbox``
DOMAIN = ({"bbox": (float, [(1, 2), (2, 2), (3, 2), (2,), (4,), (6,)]),
           "shape": (int, [(), (1,), (2,), (3,)])}, {})
OPERATOR = ({}, {"t": NUMBER, "coefficients": (float, lambda g: [
    (), (g.ambient_dim,) * 2, (g.size,) + (g.ambient_dim,) * 2])})
MAP = ({"ratio": NUMBER, "translation": POINT}, {"rotation": NUMBER})
MEASURE_KINDS = {
    "ifs": ({"maps": list, "depth": INTEGER}, {}),
    "segment": ({"start": POINT, "end": POINT, "count": INTEGER}, {}),
    "boundary": ({}, {}),
    "lebesgue": ({}, {}),
    "union": ({"parts": list}, {}),
}
WEIGHTS = ({}, {"V1": dict, "V2": dict})
WEIGHT_KINDS = {
    "constant": ({"value": NUMBER}, {}),
    "step": ({"inside": NUMBER, "box": (float, lambda g: [
        (g.ambient_dim, 2), (2 * g.ambient_dim,)])}, {"outside": NUMBER}),
    "random": ({}, {"scale": NUMBER, "nonneg": bool}),
    "file": ({"path": str}, {}),
}
ANALYSIS = ({}, {"window": (int, [(2,)], 1, math.inf)})
_TYPE_TEXT = {str: "a string", bool: "true or false", list: "a list",
              dict: "an object"}


def _breach(value, rule, grid):
    # what ``rule`` asks of a value it rejects; None for a value it allows
    if isinstance(rule, type):
        return None if isinstance(value, rule) else _TYPE_TEXT[rule]
    numeric, shapes, lo, hi = (*rule, -math.inf, math.inf)[:4]
    shapes = shapes(grid) if callable(shapes) else shapes
    integer = numeric is int
    shape = None
    if _is_numeric(value, integer):
        try:
            shape = np.shape(value)
        except ValueError:  # ragged nesting
            pass
    if shape in shapes and lo <= np.min(value) and np.max(value) <= hi:
        return None
    kind = "integer" if integer else "number"
    texts = [f"shape {a}" if a else f"one {kind}" for a in shapes]
    span = "" if (lo, hi) == (-math.inf, math.inf) else f" in [{lo}, {hi}]"
    return f"finite {kind}s{span}, {' or '.join(texts)}"


def _section(obj, where, required, optional, grid=None):
    """Check ``obj`` against a section's (required, optional) tables: an
    object with no key outside them, whose required keys are all present
    and whose every value keeps its key's rule. ``grid`` gives the shapes
    that depend on it; the first breach raises, naming its key's path, so
    a malformed value fails here instead of deep inside the numerics."""
    if not isinstance(obj, dict):
        raise ValidationError(f"{where} must be an object")
    unknown = sorted(set(obj) - set(required) - set(optional))
    if unknown:
        raise ValidationError(f"unknown key(s) {unknown} in {where}")
    for key, rule in {**required, **optional}.items():
        if key in obj or key in required:
            breach = _breach(obj.get(key), rule, grid)
            if breach:
                got = f"got {obj[key]!r}" if key in obj else "it is missing"
                raise ValidationError(f"{where}.{key} must be {breach}; {got}")


def _kind(spec, where, kinds, key="kind"):
    """The (required, optional) pair of the kind ``spec`` names under
    ``key``, with ``key`` itself required: the last two entries of the
    kind's row in ``kinds``."""
    kind = spec.get(key) if isinstance(spec, dict) else None
    if not isinstance(kind, str) or kind not in kinds:
        raise ValidationError(f"{where} must be an object with a {key}, one "
                              f"of {', '.join(kinds)}")
    required, optional = kinds[kind][-2:]
    return {key: str, **required}, optional


def _grid(spec) -> Grid:
    _section(spec, "domain", *DOMAIN)
    return Grid(np.asarray(spec["bbox"], dtype=float), spec["shape"])


def _coeffs(spec, grid) -> CoefficientField:
    # the symbol of A at the configured t; a field has one tensor per node
    _section(spec, "operator", *OPERATOR, grid)
    arr = np.asarray(spec.get("coefficients", 1.0), dtype=float)
    t_value = float(spec.get("t", 1.0))
    if arr.ndim == 0:
        return CoefficientField.isotropic(float(arr), grid.ambient_dim,
                                          t=t_value)
    return CoefficientField(arr, t=t_value)


def _similitude(spec, where, grid) -> Similitude:
    _section(spec, where, *MAP, grid)
    rot = np.eye(grid.ambient_dim)
    if "rotation" in spec:
        if grid.ambient_dim != 2:
            raise ValidationError("map rotation angles only apply in 2D")
        ang = float(spec["rotation"])
        rot = np.array([[math.cos(ang), -math.sin(ang)],
                        [math.sin(ang), math.cos(ang)]])
    return Similitude(ratio=float(spec["ratio"]), rotation=rot,
                      translation=np.atleast_1d(spec["translation"]))


def _measure(spec, where, grid) -> DiscreteMeasure:
    _section(spec, where, *_kind(spec, where, MEASURE_KINDS), grid)
    kind = spec["kind"]
    if kind == "ifs":
        if not spec["maps"]:
            raise ValidationError(f"{where}.maps must be a nonempty list")
        maps = [_similitude(m, f"{where}.maps[{i}]", grid)
                for i, m in enumerate(spec["maps"])]
        return ifs_measure(maps, spec["depth"])
    if kind == "segment":
        # in 1D either end may be a bare number or a one-entry list
        ends = np.array([np.ravel(spec[key]) for key in ("start", "end")],
                        dtype=float)
        return segment_measure(ends, spec["count"])
    if kind == "boundary":
        return boundary_measure(grid)
    if kind == "lebesgue":
        return lebesgue_measure(grid)
    parts = spec["parts"]  # a union
    if len(parts) != 2:
        raise ValidationError(f"{where}.parts must list exactly 2 specs")
    return union_measure(*(_measure(part, f"{where}.parts[{i}]", grid)
                           for i, part in enumerate(parts)))


def _weight_file(spec, base_dir) -> Path:
    path = Path(base_dir) / spec["path"]
    if not path.is_file():
        raise ValidationError(f"weight file {path} not found")
    return path


def _weight(spec, where, measure, grid, stream, base_dir) -> Perturbation:
    # stream = (seed, child): a random weight draws from child ``child`` of
    # the seed's SeedSequence through a counter-based Philox generator,
    # built here so that numpy.random is imported only for such a weight
    _section(spec, where, *_kind(spec, where, WEIGHT_KINDS), grid)
    kind = spec["kind"]
    if kind == "constant":
        return Perturbation.constant(measure, float(spec["value"]))
    if kind == "step":
        box = np.asarray(spec["box"], dtype=float).reshape(-1, 2)
        inside = np.all((measure.atoms >= box[:, 0])
                        & (measure.atoms <= box[:, 1]), axis=1)
        return Perturbation(measure, np.where(
            inside, float(spec["inside"]), float(spec.get("outside", 0.0))))
    if kind == "random":
        seed, child = stream
        rng = np.random.Generator(np.random.Philox(
            np.random.SeedSequence(seed, spawn_key=(child,))))
        vals = rng.standard_normal(measure.count) * float(spec.get("scale", 1.0))
        return Perturbation(measure,
                            np.abs(vals) if spec.get("nonneg") else vals)
    atoms, _, values = read_measure(_weight_file(spec, base_dir))  # a file
    if values is None:
        raise ValidationError(f"{spec['path']} has no V column")
    # the values belong to the file's atoms, so those must be the
    # measure's atoms, each coordinate to 1e-12 of the bbox span
    span = grid.bbox[:, 1] - grid.bbox[:, 0]
    if (atoms.shape != measure.atoms.shape or np.any(
            np.abs(atoms - measure.atoms) > 1e-12 * span)):
        raise ValidationError(
            f"the {len(atoms)} atoms of {spec['path']} are not the "
            f"{measure.count} atoms of the measure")
    return Perturbation(measure, values)


def _task(entry, where) -> dict:
    # a bare name is a task with no options
    entry = {"name": entry} if isinstance(entry, str) else entry
    _section(entry, where, *_kind(entry, where, TASKS, "name"))
    return entry


def _weyl(measure, coeffs, gamma, weights) -> dict:
    # weyl_check's predicted order and counting coefficient, from inputs
    # alone. The symbol of A at the atoms: a per-node field is interpolated
    # through gamma; an anisotropic one fails here, since it needs normals
    d = measure.nominal_dim
    theta = d / (d - measure.ambient_dim + 4.0)
    tensors = coeffs.tensors
    if tensors.ndim == 3:
        n_dim = tensors.shape[-1]
        tensors = gamma.apply(tensors.reshape(len(tensors), -1)
                              ).reshape(measure.count, n_dim, n_dim)
    return {"theta_predicted": theta, "weyl_coefficient": weyl_prediction(
        measure, weights["V1"], weights["V2"], theta, coeffs=tensors)}


def validate_config(cfg, base_dir=".") -> dict:
    """Check a config and build the inputs of its run: everything that
    does not depend on the shift t. Raises ValidationError on any problem,
    unknown keys included; ``base_dir`` anchors ``file`` weight paths."""
    _section(cfg, "config", *CONFIG)
    seed = cfg.get("seed", 0)
    grid = _grid(cfg["domain"])
    coeffs = _coeffs(cfg["operator"], grid)
    measure = _measure(cfg["measure"], "measure", grid)
    gamma = restriction_matrix(grid, measure)

    weights = cfg.get("weights", {})
    _section(weights, "weights", *WEIGHTS)
    # one stream per weight, V1 the seed's child 0 and V2 its child 1;
    # V1 is zero when absent
    built = {key: _weight(spec, f"weights.{key}", measure, grid,
                          (seed, ("V1", "V2").index(key)), base_dir)
             for key, spec in {"V1": {"kind": "constant", "value": 0.0},
                               **weights}.items()}

    tasks = cfg["tasks"]
    if not tasks:
        raise ValidationError("tasks must be a nonempty list")
    entries = [_task(entry, f"tasks[{i}]") for i, entry in enumerate(tasks)]
    names = [entry["name"] for entry in entries]
    # the weights whose A + C some task factors
    factored = set().union(*(TASKS[name].factors for name in names))
    for name in names:
        if "V2" in TASKS[name].factors and "V2" not in built:
            raise ValidationError(f"{name} needs weights.V2")
    # the grid admitted the most factors and bands a run keeps; the run
    # keeps those of A and its A + C, and adds its atom side
    _admit(grid, measure.count, max(map(_power, entries)), len(factored))

    # null asks for the default, as an absent key does
    given = {key: value for key, value in cfg.get("analysis", {}).items()
             if value is not None or key not in ANALYSIS[1]}
    _section(given, "analysis", *ANALYSIS)
    # a window no spectrum admits; (1, 2) stands in when none is given
    first, last = given.get("window", (1, 2))
    if last <= first:
        raise ValidationError(
            f"analysis.window [{first}, {last}] must have first < last")

    return {
        "grid": grid, "coeffs": coeffs, "measure": measure, "gamma": gamma,
        "weights": built, "tasks": entries, "analysis": given,
        "weyl": (_weyl(measure, coeffs, gamma, built)
                 if "weyl_check" in names else None),
    }


def config_hash(cfg, base_dir=".") -> str:
    """Run key: the sha256 of the canonical config JSON, extended by the
    sha256 of each ``file`` weight's bytes (paths relative to ``base_dir``),
    so an edited weight file gets a fresh run. A config without file
    weights hashes its JSON alone. Only the weights section is checked:
    elsewhere a sweep's base config may hold a placeholder."""
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(canon.encode())
    weights = cfg.get("weights", {})
    _section(weights, "weights", *WEIGHTS)
    for key in sorted(weights):
        spec, where = weights[key], f"weights.{key}"
        rules = _kind(spec, where, WEIGHT_KINDS)
        if spec["kind"] == "file":  # whose rules need no grid
            _section(spec, where, *rules)
            data = _weight_file(spec, base_dir).read_bytes()
            digest.update(hashlib.sha256(data).digest())
    return digest.hexdigest()[:12]


# ---------------------------------------------------------------- tasks


def _write_spectrum(mat, out_dir, analysis, floor, terms=None):
    """Write a task's spectrum artifacts; return (summary, outputs, spectrum).

    ``mat`` is the small symmetric core carrying the task's nonzero
    spectrum (the r x r core of a resolvent report, the atom-side core of
    the Birman-Schwinger operator); ``rank_bound`` in the summary is its
    size, the most values the spectrum can keep.

    ``terms`` maps labels to the descending singular values of expansion
    terms, each written as ``singulars_<label>.csv``. ``floor`` is the
    task's noise floor: the resolvent tasks anchor it to the scale of the
    unperturbed inverse (1/t^m at constant coefficients), so a difference
    that is pure rounding noise yields an empty spectrum rather than a fit
    to noise; ``None`` keeps the norm-relative floor of :func:`spectrum`.
    ``analysis`` acts the same for every task: the spectrum is fitted
    once, on the explicit window if one is set. The caller adds its own
    summary keys and ``_execute`` writes ``summary.json``.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    sp_rep = spectrum(mat, floor=floor)
    outputs = {
        "singulars": str(write_singular_values(
            sp_rep.singulars, out_dir / "singulars.csv")),
        "counting": str(write_counting(sp_rep.counting, out_dir / "counting.csv")),
    }
    for label, values in (terms or {}).items():
        outputs[f"singulars_{label}"] = str(write_singular_values(
            values, out_dir / f"singulars_{label}.csv"))
    # the default window may find no power law (null fit), but explicit
    # analysis requests are strict: a fit that cannot be produced on the
    # requested window is an error, not a silent skip
    window = analysis.get("window")
    try:
        fit = fit_power_law(sp_rep.singulars, floor=sp_rep.floor,
                            window=window)
    except (NumericalError, ValidationError):
        if window is not None:
            raise
        fit = None
    summary = {
        "fit": fit_to_dict(fit),
        "floor": sp_rep.floor,
        "values_kept": int(sp_rep.singulars.size),
        "rank_bound": int(mat.shape[0]),
    }
    return summary, outputs, sp_rep


def _write_report(rep, out_dir, ctx, power=1, with_terms=True):
    # the difference of a ResolventReport, its term spectra and its residual
    terms = {label: rep.singular_values(label)
             for label in rep.term_cores} if with_terms else None
    summary, outputs, _ = _write_spectrum(
        rep.core, out_dir, ctx["analysis"],
        FLOOR_FACTOR / ctx["coeffs"].t ** power, terms)
    summary["residual"] = rep.residual
    return summary, outputs


def _task_resolvent_diff(ctx, entry, out_dir):
    rep = resolvent_difference(ctx["a"], ctx["T"]["V1"])
    summary, outputs = _write_report(rep, out_dir, ctx)
    summary["margin"] = positivity_margin(ctx["T"]["V1"])
    return summary, outputs


def _task_two_weight_diff(ctx, entry, out_dir):
    rep = two_weight_difference(ctx["a"], ctx["T"]["V1"], ctx["T"]["V2"])
    return _write_report(rep, out_dir, ctx)


def _power(entry) -> int:
    # the largest inverse power a task takes: m for power_diff, else 1
    return entry.get("m", 2) if entry["name"] == "power_diff" else 1


def _task_power_diff(ctx, entry, out_dir):
    m = _power(entry)
    rep = power_difference(ctx["a"], ctx["T"]["V1"], m)
    summary, outputs = _write_report(rep, out_dir, ctx, power=m)
    summary["m"] = m
    return summary, outputs


def _task_krein_feller(ctx, entry, out_dir):
    summary, outputs, sp_rep = _write_spectrum(ctx["T"]["V1"].core, out_dir,
                                               ctx["analysis"], None)
    counting_fit = None
    log_periodic = None
    try:
        counting_fit = fit_power_law(
            counting=sp_rep.counting[:, [0, 3]], floor=sp_rep.floor)
        lp = log_periodic_residual(
            sp_rep.counting[:, 0], sp_rep.counting[:, 3], counting_fit.theta)
        log_periodic = {"period": lp.period, "maxmin_ratio": lp.maxmin_ratio}
    except NumericalError:
        pass
    summary["counting_fit"] = fit_to_dict(counting_fit)
    summary["log_periodic"] = log_periodic
    return summary, outputs


def _task_robin_diff(ctx, entry, out_dir):
    # the Robin realizations are A + Ci, Ci the couplings of V1 and V2 on
    # the boundary measure: the two-weight difference with the weights
    # swapped, (A + C1)^(-1) - (A + C2)^(-1), without its term spectra.
    # A Robin density is admissible when A + Ci is positive definite, so
    # no margin threshold applies: only the banded factor of A + Ci can
    # raise PositivityError
    rep = two_weight_difference(ctx["a"], ctx["T"]["V2"], ctx["T"]["V1"],
                                margin_threshold=-np.inf)
    return _write_report(rep, out_dir, ctx, with_terms=False)


def _task_weyl_check(ctx, entry, out_dir):
    summary, outputs = _task_two_weight_diff(ctx, entry, out_dir)
    summary.update(ctx["weyl"])
    fit = summary["fit"]
    if fit is not None:
        summary["coeff_ratio"] = {
            key: fit["coeff"] / val if val else None
            for key, val in ctx["weyl"]["weyl_coefficient"].items()
        }
    return summary, outputs


# the task table, keyed by ``name``: each task's function, the weights
# whose A + C it factors (a task that factors V2's needs V2), and the
# (required, optional) tables of its options
Task = namedtuple("Task", "run factors required optional")
TASKS = {
    "resolvent_diff": Task(_task_resolvent_diff, ("V1",), {}, {}),
    "two_weight_diff": Task(_task_two_weight_diff, ("V1", "V2"), {}, {}),
    "power_diff": Task(_task_power_diff, ("V1",), {},
                       {"m": (int, [()], 2, 4)}),
    "krein_feller": Task(_task_krein_feller, (), {}, {}),
    "robin_diff": Task(_task_robin_diff, ("V1", "V2"), {}, {}),
    "weyl_check": Task(_task_weyl_check, ("V1", "V2"), {}, {}),
}
TASK_NAMES = tuple(TASKS)


# ---------------------------------------------------------------- run


def _execute(inputs, out_dir, t_value, a=None):
    """Run the tasks at shift t; return the manifest's task entries. Each
    weight gets one Birman-Schwinger operator, which every task shares.
    ``a`` is the assembled operator at this t, when the caller has it."""
    coeffs = dataclasses.replace(inputs["coeffs"], t=t_value)
    if a is None:
        a = assemble_neumann(inputs["grid"], coeffs)
    ctx = dict(inputs, coeffs=coeffs, a=a, T={
        key: bs_operator(a, inputs["gamma"], p)
        for key, p in inputs["weights"].items()})

    task_entries = []
    counts = {}
    for entry in inputs["tasks"]:
        name = entry["name"]
        counts[name] = counts.get(name, 0) + 1
        dir_name = name if counts[name] == 1 else f"{name}_{counts[name]}"
        task_dir = out_dir / dir_name
        summary, outputs = TASKS[name].run(ctx, entry, task_dir)
        outputs["summary"] = str(write_json(summary, task_dir / "summary.json"))
        task_entries.append({
            "name": name,
            "params": {k: v for k, v in entry.items() if k != "name"},
            "outputs": {k: str(Path(v).relative_to(out_dir))
                        for k, v in outputs.items()},
            "summary": summary,
        })
    return task_entries


def run_config(cfg, out_root, force=False, base_dir=".", inputs=None,
               a=None) -> tuple[dict, Path]:
    """Build the inputs, execute, and write a manifest; returns (manifest,
    out_dir). Input errors raise before the run key or any output exists.

    ``base_dir`` anchors relative file paths inside the config; the bytes
    of those files enter the run key, the directory itself does not.
    ``inputs`` are those :func:`validate_config` built from ``cfg``, when
    the caller already has them, and ``a`` the operator they assemble at
    the config's t. Re-running an already completed config is a no-op
    unless ``force``; positivity failures double t up to 3 times, each
    raise logged, and each retry assembles its own operator.
    """
    if inputs is None:
        inputs = validate_config(cfg, base_dir)
    digest = config_hash(cfg, base_dir)
    out_root = Path(out_root)
    out_dir = out_root / digest
    manifest_path = out_dir / "manifest.json"
    if not force:
        try:
            manifest = read_json(manifest_path, "manifest")
        except ValidationError:  # missing or unreadable: no completed run
            manifest = {}
        if manifest.get("config_hash") == digest:
            print(f"run {digest} already complete at {out_dir}; use --force "
                  "to recompute")
            return manifest, out_dir
    out_dir.mkdir(parents=True, exist_ok=True)
    shared = {}
    for key, p in inputs["weights"].items():
        stem = "measure" if key == "V1" else "measure_v2"
        sidecar = write_measure(inputs["measure"], out_dir / f"{stem}.csv",
                                perturbation=p)
        shared[f"{stem}_csv"] = f"{stem}.csv"
        shared[f"{stem}_sidecar"] = sidecar.name

    t_value = inputs["coeffs"].t
    t_raises = []
    for attempt in range(MAX_T_RAISES + 1):
        try:
            task_entries = _execute(inputs, out_dir, t_value,
                                    a if attempt == 0 else None)
            break
        except PositivityError as exc:
            if attempt == MAX_T_RAISES:
                raise PositivityError(
                    f"still indefinite after {MAX_T_RAISES} t-doublings "
                    f"(t = {t_value:g}): {exc}"
                ) from exc
            t_raises.append({"from": t_value, "to": 2.0 * t_value,
                             "reason": str(exc)})
            print(f"positivity failure at t = {t_value:g}; retrying with "
                  f"t = {2 * t_value:g}", file=sys.stderr)
            t_value *= 2.0

    manifest = {
        "schema_version": SCHEMA_VERSION,
        "config_hash": digest,
        "tool_version": __version__,
        "created": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
        "config": cfg,
        "t_effective": t_value,
        "t_raises": t_raises,
        "shared_outputs": shared,
        "tasks": task_entries,
    }
    write_json(manifest, manifest_path)
    print(f"run {digest} complete: {len(task_entries)} task(s) under {out_dir}")
    return manifest, out_dir


def _set_axis(cfg, axis, value):
    """Set a dotted config path; broadcasting scalars over list targets."""
    parts = axis.split(".")
    node = cfg
    for i, p in enumerate(parts):
        try:
            key = int(p) if isinstance(node, list) else p
            if i == len(parts) - 1:
                old = node[key]
            else:
                node = node[key]
        except (KeyError, IndexError, TypeError, ValueError):
            raise ValidationError(f"axis {axis!r}: no config entry {p!r}")
    if isinstance(old, list) and not isinstance(value, list):
        node[key] = [value] * len(old)
    else:
        node[key] = value


def sweep_config(cfg, axis, values, out_root, force=False, base_dir="."):
    """Run the config once per axis value; write the sweep's summary.csv.

    The summary holds the rows ``export --format csv`` writes for each
    run's manifest, one per task in manifest order, each led by the axis
    value. Every value's config is checked, and its inputs built, before
    the first run, and so is the base config, whose key names the sweep
    directory: an input error anywhere in the sweep writes nothing. Runs
    whose ``domain`` and ``operator`` equal those of the run before share
    its assembled A (and so its factor, and the atom side A keeps for an
    equal restriction, whatever the weights)."""
    variants = []
    for value in values:
        variant = copy.deepcopy(cfg)
        _set_axis(variant, axis, value)
        variants.append((variant, validate_config(variant, base_dir)))
    sweep_dir = Path(out_root) / (
        f"sweep-{config_hash(cfg, base_dir)}-{axis.replace('.', '_')}")
    manifests = []
    lines = [f"axis_value,{EXPORT_HEADER}"]
    a = last_cfg = None
    for value, (variant, inputs) in zip(values, variants):
        if last_cfg is None or any(variant[key] != last_cfg[key]
                                   for key in ("domain", "operator")):
            a = assemble_neumann(inputs["grid"], inputs["coeffs"])
        last_cfg = variant
        manifest, _ = run_config(variant, out_root, force=force,
                                 base_dir=base_dir, inputs=inputs, a=a)
        manifests.append(manifest)
        lines += [f"{value},{row}" for row in _export_rows(
            manifest, f"{axis} = {value}: ")]

    sweep_dir.mkdir(parents=True, exist_ok=True)
    out_csv = sweep_dir / "summary.csv"
    out_csv.write_text("\n".join(lines) + "\n")
    print(f"sweep over {axis}: {len(values)} runs, summary at {out_csv}")
    return manifests


# ---------------------------------------------------------------- verify


def _suite_identities():
    checks = []
    grid = Grid(np.array([[0.0, 1.0]]), (64,))
    coeffs = CoefficientField.isotropic(1.0, 1, t=1.0)
    a = assemble_neumann(grid, coeffs)
    m = segment_measure(np.array([[0.25], [0.75]]), 40)
    gamma = restriction_matrix(grid, m)
    rng = np.random.Generator(np.random.Philox(1234))

    # signed standard normal weights; on this seed the margins of 1 + T
    # are 0.91 and 0.99 here and 0.82 in 2D, and each report checks them
    t1, t2 = (bs_operator(a, gamma, Perturbation(m, rng.standard_normal(
        m.count))) for _ in range(2))
    rep = resolvent_difference(a, t1)
    checks.append(("resolvent_diff residual", rep.residual <= 1e-8,
                   f"{rep.residual:.3e}"))
    rep = two_weight_difference(a, t1, t2)
    checks.append(("two_weight_diff residual", rep.residual <= 1e-8,
                   f"{rep.residual:.3e}"))
    for m_pow in (2, 3):
        rep = power_difference(a, t1, m_pow)
        checks.append((f"power_diff m={m_pow} residual",
                       rep.residual <= 1e-8, f"{rep.residual:.3e}"))

    grid2 = Grid(np.array([[0.0, 1.0], [0.0, 1.0]]), (12, 12))
    coeffs2 = CoefficientField.isotropic(1.0, 2, t=1.0)
    a2 = assemble_neumann(grid2, coeffs2)
    seg = segment_measure(np.array([[0.2, 0.5], [0.8, 0.5]]), 24)
    gamma2 = restriction_matrix(grid2, seg)
    t2d = bs_operator(a2, gamma2, Perturbation(seg, rng.standard_normal(
        seg.count)))
    rep = resolvent_difference(a2, t2d)
    checks.append(("2d resolvent_diff residual", rep.residual <= 1e-8,
                   f"{rep.residual:.3e}"))
    return checks


def _suite_kyfan():
    rng = np.random.default_rng(7)
    b1 = rng.standard_normal((30, 30))
    b2 = rng.standard_normal((30, 30))
    rep = kyfan_check(b1 + b1.T, b2 + b2.T, trials=25, seed=7)
    return [(
        "counting inequalities",
        rep.violations == 0,
        f"{rep.checks} checks, {rep.violations} violations, "
        f"worst slack {rep.worst_gap:g}",
    )]


_SUITE_FNS = {
    "identities": _suite_identities,
    "kyfan": _suite_kyfan,
}


def run_verify(suite: str) -> int:
    if suite not in _SUITE_FNS:
        raise ValidationError(
            f"unknown suite {suite!r}; choose one of {', '.join(_SUITE_FNS)}"
        )
    checks = _SUITE_FNS[suite]()
    failed = 0
    for name, ok, detail in checks:
        print(f"{'PASS' if ok else 'FAIL'} {suite}/{name}: {detail}")
        failed += 0 if ok else 1
    print(f"{suite}: {len(checks) - failed}/{len(checks)} checks passed")
    return 0 if failed == 0 else 1


# ---------------------------------------------------------------- export


EXPORT_HEADER = "task,theta_hat,coeff_hat,r_squared,residual"


def _export_number(value, where) -> str:
    if value is None:
        return ""
    if isinstance(value, float) or _is_numeric(value, integer=False):
        return FLOAT_FMT % value
    raise ValidationError(f"{where} must be a number or null")


def _export_row(entry, where) -> str:
    # one manifest task entry as a csv row, its task cell carrying the
    # power of a power_diff as ``power_diff(m=3)``; any other shape exits 2
    if not isinstance(entry, dict):
        raise ValidationError(f"{where} must be an object")
    name = entry.get("name", "")
    params = entry.get("params", {})
    summary = entry.get("summary", {})
    if not isinstance(name, str):
        raise ValidationError(f"{where}.name must be a string")
    if not isinstance(params, dict):
        raise ValidationError(f"{where}.params must be an object")
    if "m" in params:
        if not _is_numeric(params["m"], integer=True):
            raise ValidationError(f"{where}.params.m must be an integer")
        name = f"{name}(m={params['m']})"
    if not isinstance(summary, dict):
        raise ValidationError(f"{where}.summary must be an object")
    fit = summary.get("fit") or {}
    if not isinstance(fit, dict):
        raise ValidationError(f"{where}.summary.fit must be an object or null")
    cells = [name] + [
        _export_number(fit.get(key), f"{where}.summary.fit.{key}")
        for key in ("theta", "coeff", "r_squared")]
    cells.append(_export_number(summary.get("residual"),
                                f"{where}.summary.residual"))
    return ",".join(cells)


def _export_rows(manifest, where="") -> list[str]:
    """A manifest's task entries as csv rows under EXPORT_HEADER, one per
    task in manifest order; error messages start with ``where``."""
    tasks = manifest.get("tasks", [])
    if not isinstance(tasks, list):
        raise ValidationError(f"{where}manifest tasks must be a list")
    return [_export_row(entry, f"{where}tasks[{i}]")
            for i, entry in enumerate(tasks)]


def run_export(manifest_path: str, fmt: str) -> int:
    manifest = read_json(manifest_path, "manifest")
    if fmt == "json":
        json.dump(manifest, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
        return 0
    # csv: every row is checked before the first line is printed
    rows = _export_rows(manifest)
    print(EXPORT_HEADER)
    for row in rows:
        print(row)
    return 0


# ---------------------------------------------------------------- main


def _out_root(args) -> Path:
    """``--out``, else ``$DELTASPEC_OUT``, else ./runs; a root that is or
    lies under something other than a directory is an input error."""
    root = Path(args.out if args.out is not None
                else os.environ.get(OUT_ENV_VAR, "runs"))
    there = next(p for p in (root, *root.parents) if p.exists())
    if not there.is_dir():
        raise ValidationError(f"output root {root}: {there} is not a "
                              "directory")
    return root


def _cmd_run(args) -> int:
    cfg = read_json(args.config, "config")  # run_config checks it
    base_dir = str(Path(args.config).resolve().parent)
    run_config(cfg, _out_root(args), force=args.force, base_dir=base_dir)
    return 0


def _parse_value(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def _cmd_sweep(args) -> int:
    cfg = read_json(args.config, "config")  # sweep_config checks each value
    base_dir = str(Path(args.config).resolve().parent)
    values = [_parse_value(v) for v in args.values.split(",") if v != ""]
    if not values:
        raise ValidationError("--values must list at least one value")
    sweep_config(cfg, args.axis, values, _out_root(args), force=args.force,
                 base_dir=base_dir)
    return 0


def _cmd_verify(args) -> int:
    return run_verify(args.suite)


def _cmd_export(args) -> int:
    return run_export(args.manifest, args.format)


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="deltaspec",
        description="spectral experiments on measure-perturbed elliptic operators",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a config's task list")
    p_run.add_argument("config")
    p_run.add_argument("--force", action="store_true",
                       help="recompute even if outputs exist")
    p_run.add_argument("--out", default=None,
                       help=f"output root (default ${OUT_ENV_VAR} or ./runs)")
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="run a config over one axis")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--axis", required=True,
                         help="dotted config path, e.g. domain.shape")
    p_sweep.add_argument("--values", required=True,
                         help="comma-separated values")
    p_sweep.add_argument("--force", action="store_true")
    p_sweep.add_argument("--out", default=None)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_verify = sub.add_parser("verify", help="run a built-in invariant suite")
    p_verify.add_argument("suite", help=f"one of: {', '.join(_SUITE_FNS)}")
    p_verify.set_defaults(func=_cmd_verify)

    p_export = sub.add_parser("export", help="re-emit a manifest's summaries")
    p_export.add_argument("manifest")
    p_export.add_argument("--format", choices=["csv", "json"], default="csv")
    p_export.set_defaults(func=_cmd_export)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PositivityError as exc:
        print(f"positivity error: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
