"""Declarative experiment runner.

A JSON config describes a grid, an operator, a measure, weight vectors,
and a task list; ``run`` executes the tasks and writes CSV/JSON artifacts
under a directory named by the run key (the config hash, extended by the
bytes of any weight file). ``sweep`` repeats a run over
one scalar config field, ``verify`` executes built-in invariant suites,
``export`` re-emits a manifest's summaries as CSV or JSON.

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
      "analysis": {"floor": null, "window": null, "head_drop": 0.1,
                   "margin": 0.05}
    }

Measure kinds: ifs | segment | boundary | lebesgue | union. Weight kinds:
constant | step | random | file. Unknown keys anywhere are errors. All
randomness derives from the single seed through counter-based generators,
so a fixed config yields byte-identical numeric CSVs. The output root is
``$DELTASPEC_OUT`` or ``./runs``; ``--out`` overrides both.

Exit codes: 0 success, 2 validation failure, 3 positivity failure after
the capped t-raises, 4 numerical failure, 1 failed verify suite.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .birman_schwinger import (
    MARGIN_DEFAULT,
    bs_atom_gram,
    bs_operator,
    positivity_margin,
    restriction_matrix,
)
from .elliptic import (
    CoefficientField,
    Grid,
    assemble_neumann,
    lebesgue_measure,
)
from .errors import NumericalError, PositivityError, ValidationError
from .io import (
    fit_to_dict,
    read_json,
    write_counting,
    write_json,
    write_measure,
    write_singular_values,
)
from .measures import (
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

__all__ = ["main", "config_hash", "load_config", "run_config", "sweep_config"]

SCHEMA_VERSION = 1
OUT_ENV_VAR = "DELTASPEC_OUT"
MAX_T_RAISES = 3
TASK_NAMES = (
    "resolvent_diff",
    "two_weight_diff",
    "power_diff",
    "krein_feller",
    "robin_diff",
    "weyl_check",
)


# ---------------------------------------------------------------- config


def _check_keys(obj, where, required, optional=()):
    if not isinstance(obj, dict):
        raise ValidationError(f"{where} must be an object")
    unknown = sorted(set(obj) - set(required) - set(optional))
    if unknown:
        raise ValidationError(f"unknown key(s) {unknown} in {where}")
    missing = sorted(set(required) - set(obj))
    if missing:
        raise ValidationError(f"missing key(s) {missing} in {where}")


def _is_numeric(value, integer):
    if isinstance(value, list):
        return all(_is_numeric(v, integer) for v in value)
    if isinstance(value, bool) or not isinstance(value, int if integer
                                                 else (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        return False


SCALAR = [()]  # the allowed shapes of a bare number


def _fits(shape, allowed):
    # None in an allowed shape matches any length
    return any(len(shape) == len(a) and all(w in (None, n)
                                            for w, n in zip(a, shape))
               for a in allowed)


def _check_numbers(obj, where, shapes, integers=()):
    # each key present must hold finite numbers (integers where listed)
    # nested to one of its allowed shapes, () being a bare number, so a
    # malformed value fails here instead of deep inside the numerics
    for key, allowed in shapes.items():
        if key not in obj:
            continue
        value = obj[key]
        kind = "integer" if key in integers else "number"
        shape = None
        if _is_numeric(value, key in integers):
            try:
                shape = np.shape(value)
            except ValueError:  # ragged nesting
                pass
        if shape is None or not _fits(shape, allowed):
            texts = [f"shape {a}".replace("None", "n") if a else f"one {kind}"
                     for a in allowed]
            raise ValidationError(
                f"{where}.{key} must be finite {kind}s, "
                f"{' or '.join(texts)}; got {value!r}")


def _validate_measure_spec(spec, where, point):
    _check_keys(spec, where, ["kind"], [
        "maps", "depth", "start", "end", "count", "parts", "atom_cap",
    ])
    _check_numbers(spec, where, {
        "start": point, "end": point, "count": SCALAR, "depth": SCALAR,
        "atom_cap": SCALAR,
    }, integers=["count", "depth", "atom_cap"])
    kind = spec["kind"]
    if kind == "ifs":
        _check_keys(spec, where, ["kind", "maps", "depth"], ["atom_cap"])
        maps = spec["maps"]
        if not isinstance(maps, list) or not maps:
            raise ValidationError(f"{where}.maps must be a nonempty list")
        for i, m in enumerate(maps):
            _check_keys(m, f"{where}.maps[{i}]", ["ratio", "translation"],
                        ["rotation"])
            _check_numbers(m, f"{where}.maps[{i}]", {
                "ratio": SCALAR, "translation": point, "rotation": SCALAR})
    elif kind == "segment":
        _check_keys(spec, where, ["kind", "start", "end", "count"])
    elif kind in ("boundary", "lebesgue"):
        _check_keys(spec, where, ["kind"])
    elif kind == "union":
        _check_keys(spec, where, ["kind", "parts"])
        parts = spec["parts"]
        if not isinstance(parts, list) or len(parts) != 2:
            raise ValidationError(f"{where}.parts must list exactly 2 specs")
        for i, part in enumerate(parts):
            _validate_measure_spec(part, f"{where}.parts[{i}]", point)
    else:
        raise ValidationError(f"unknown measure kind {kind!r} in {where}")


def _validate_weight_spec(spec, where, dim):
    _check_keys(spec, where, ["kind"], [
        "value", "box", "inside", "outside", "scale", "nonneg", "path",
    ])
    _check_numbers(spec, where, {
        "value": SCALAR, "box": [(dim, 2), (2 * dim,)], "inside": SCALAR,
        "outside": SCALAR, "scale": SCALAR,
    })
    kind = spec["kind"]
    if kind == "constant":
        _check_keys(spec, where, ["kind", "value"])
    elif kind == "step":
        _check_keys(spec, where, ["kind", "box", "inside"], ["outside"])
    elif kind == "random":
        _check_keys(spec, where, ["kind"], ["scale", "nonneg"])
        if not isinstance(spec.get("nonneg", False), bool):
            raise ValidationError(f"{where}.nonneg must be true or false")
    elif kind == "file":
        _check_keys(spec, where, ["kind", "path"])
        if not isinstance(spec["path"], str):
            raise ValidationError(f"{where}.path must be a string")
    else:
        raise ValidationError(f"unknown weight kind {kind!r} in {where}")


def _validate_task_spec(entry, where):
    if isinstance(entry, str):
        entry = {"name": entry}
    _check_keys(entry, where, ["name"], ["m"])
    name = entry["name"]
    if name not in TASK_NAMES:
        raise ValidationError(f"unknown task {name!r} in {where}")
    if name == "power_diff":
        m = entry.get("m", 2)
        if not isinstance(m, int) or not 2 <= m <= 4:
            raise ValidationError(f"{where}: power_diff m must be 2, 3, or 4")
    elif "m" in entry:
        raise ValidationError(f"{where}: key 'm' only applies to power_diff")
    return entry


def validate_config(cfg) -> None:
    """Raise ValidationError on any structural problem; no silent defaults
    for unknown keys."""
    _check_keys(cfg, "config",
                ["schema_version", "domain", "operator", "measure", "tasks"],
                ["weights", "analysis", "seed"])
    if cfg["schema_version"] != SCHEMA_VERSION:
        raise ValidationError(
            f"unsupported schema_version {cfg['schema_version']!r}; "
            f"this tool reads version {SCHEMA_VERSION}"
        )
    _check_keys(cfg["domain"], "domain", ["bbox", "shape"])
    _check_numbers(cfg["domain"], "domain",
                   {"bbox": [(1, 2), (2, 2), (2,), (4,)]})
    dim = np.size(cfg["domain"]["bbox"]) // 2
    # one entry per axis; a bare number also names the one axis of 1D
    point = [(dim,), ()] if dim == 1 else [(dim,)]
    _check_numbers(cfg["domain"], "domain", {"shape": point},
                   integers=["shape"])
    _check_keys(cfg["operator"], "operator", [], ["coefficients", "t"])
    _check_numbers(cfg["operator"], "operator", {
        "coefficients": SCALAR + [(dim, dim), (None, dim, dim)],
        "t": SCALAR,
    })
    _validate_measure_spec(cfg["measure"], "measure", point)
    weights = cfg.get("weights", {})
    _check_keys(weights, "weights", [], ["V1", "V2"])
    for key, spec in weights.items():
        _validate_weight_spec(spec, f"weights.{key}", dim)
    tasks = cfg["tasks"]
    if not isinstance(tasks, list) or not tasks:
        raise ValidationError("tasks must be a nonempty list")
    for i, entry in enumerate(tasks):
        _validate_task_spec(entry, f"tasks[{i}]")
    analysis = cfg.get("analysis", {})
    _check_keys(analysis, "analysis", [],
                ["floor", "window", "head_drop", "margin"])
    # null asks for the default, as an absent key does
    given = {k: v for k, v in analysis.items() if v is not None}
    _check_numbers(given, "analysis", {"floor": SCALAR, "window": [(2,)],
                                       "head_drop": SCALAR, "margin": SCALAR},
                   integers=["window"])
    if not 0 <= given.get("head_drop", 0) < 1:
        raise ValidationError("analysis.head_drop must lie in [0, 1)")
    if given.get("floor", 0) < 0:
        raise ValidationError("analysis.floor must be nonnegative")
    seed = cfg.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise ValidationError("seed must be a nonnegative integer")


def load_config(path) -> dict:
    cfg = read_json(path, "config")
    validate_config(cfg)
    return cfg


def _weight_file(spec, base_dir) -> Path:
    path = Path(base_dir) / spec["path"]
    if not path.is_file():
        raise ValidationError(f"weight file {path} not found")
    return path


def config_hash(cfg, base_dir=".") -> str:
    """Run key: the sha256 of the canonical config JSON, extended by the
    sha256 of each ``file`` weight's bytes (paths relative to ``base_dir``),
    so an edited weight file gets a fresh run. A config without file
    weights hashes its JSON alone."""
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(canon.encode())
    weights = cfg.get("weights", {})
    for key in sorted(weights):
        if weights[key]["kind"] == "file":
            data = _weight_file(weights[key], base_dir).read_bytes()
            digest.update(hashlib.sha256(data).digest())
    return digest.hexdigest()[:12]


# ---------------------------------------------------------------- builders


def _build_grid(spec) -> Grid:
    return Grid(np.asarray(spec["bbox"], dtype=float), spec["shape"])


def _build_coeffs(spec, dim, t_value) -> CoefficientField:
    raw = spec.get("coefficients", 1.0)
    arr = np.asarray(raw, dtype=float)
    if arr.ndim == 0:
        return CoefficientField.isotropic(float(arr), dim, t=t_value)
    return CoefficientField(arr, t=t_value)


def _build_similitude(m_spec, dim):
    rot = np.eye(dim)
    if "rotation" in m_spec:
        if dim != 2:
            raise ValidationError("map rotation angles only apply in 2D")
        ang = float(m_spec["rotation"])
        rot = np.array([[math.cos(ang), -math.sin(ang)],
                        [math.sin(ang), math.cos(ang)]])
    return Similitude(ratio=float(m_spec["ratio"]), rotation=rot,
                      translation=np.atleast_1d(m_spec["translation"]))


def _build_measure(spec, grid):
    kind = spec["kind"]
    if kind == "ifs":
        dim = grid.ambient_dim
        maps = [_build_similitude(ms, dim) for ms in spec["maps"]]
        cap = spec.get("atom_cap")
        if cap is None:
            return ifs_measure(maps, int(spec["depth"]))
        return ifs_measure(maps, int(spec["depth"]), atom_cap=int(cap))
    if kind == "segment":
        # in 1D either end may be a bare number or a one-entry list
        ends = np.array([np.ravel(spec[key]) for key in ("start", "end")],
                        dtype=float)
        return segment_measure(ends, int(spec["count"]))
    if kind == "boundary":
        return boundary_measure(grid)
    if kind == "lebesgue":
        return lebesgue_measure(grid)
    if kind == "union":
        parts = [_build_measure(p, grid) for p in spec["parts"]]
        return union_measure(parts[0], parts[1])
    raise ValidationError(f"unknown measure kind {kind!r}")


def _build_weight(spec, measure, rng, base_dir):
    kind = spec["kind"]
    if kind == "constant":
        return Perturbation.constant(measure, float(spec["value"]))
    if kind == "step":
        box = np.asarray(spec["box"], dtype=float).reshape(-1, 2)
        if box.shape[0] != measure.ambient_dim:
            raise ValidationError("step box dimension does not match measure")
        inside = np.all(
            (measure.atoms >= box[:, 0]) & (measure.atoms <= box[:, 1]), axis=1
        )
        vals = np.where(inside, float(spec["inside"]),
                        float(spec.get("outside", 0.0)))
        return Perturbation(measure, vals)
    if kind == "random":
        vals = rng.standard_normal(measure.count) * float(spec.get("scale", 1.0))
        if spec.get("nonneg", False):
            vals = np.abs(vals)
        return Perturbation(measure, vals)
    if kind == "file":
        from .io import read_measure
        m_file, p_file = read_measure(_weight_file(spec, base_dir))
        if p_file is None:
            raise ValidationError(f"{spec['path']} has no V column")
        if m_file.count != measure.count:
            raise ValidationError(
                f"{spec['path']} carries {m_file.count} values for "
                f"{measure.count} atoms"
            )
        return Perturbation(measure, p_file.values)
    raise ValidationError(f"unknown weight kind {kind!r}")


# ---------------------------------------------------------------- tasks


def _write_spectrum(mat, out_dir, analysis, default_floor, terms=None):
    """Write a task's spectrum artifacts; return (summary, outputs, spectrum).

    ``mat`` is the small symmetric core carrying the task's nonzero
    spectrum (the r x r core of a resolvent report, the atom-side core of
    the Birman-Schwinger operator); ``rank_bound`` in the summary is its
    size, the most values the spectrum can keep.

    ``terms`` maps labels to the descending singular values of expansion
    terms, each written as ``singulars_<label>.csv``. ``default_floor`` is
    the task's noise floor: the resolvent tasks anchor it to the scale of
    the unperturbed inverse (1/t^m at constant coefficients), so a
    difference that is pure rounding noise yields an empty spectrum rather
    than a fit to noise; ``None`` keeps the norm-relative floor of
    :func:`spectrum`. ``analysis`` acts the same for every task: an
    explicit floor wins, an explicit window or head_drop refits. The caller
    adds its own summary keys and ``_execute`` writes ``summary.json``.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    floor = analysis.get("floor")
    sp_rep = spectrum(mat, floor=default_floor if floor is None else floor)
    outputs = {
        "singulars": str(write_singular_values(
            sp_rep.singulars, out_dir / "singulars.csv")),
        "counting": str(write_counting(sp_rep.counting, out_dir / "counting.csv")),
    }
    for label, values in (terms or {}).items():
        outputs[f"singulars_{label}"] = str(write_singular_values(
            values, out_dir / f"singulars_{label}.csv"))
    # explicit analysis requests are strict: a fit that cannot be produced
    # on the requested window is a numerical failure, not a silent skip
    window = analysis.get("window")
    head = analysis.get("head_drop")
    if window is not None:
        fit = fit_power_law(sp_rep.singulars, floor=sp_rep.floor,
                            window=tuple(window))
    elif head is not None:
        fit = fit_power_law(sp_rep.singulars, floor=sp_rep.floor,
                            head_drop=float(head))
    else:
        fit = sp_rep.fit
    summary = {
        "fit": fit_to_dict(fit),
        "floor": sp_rep.floor,
        "values_kept": int(sp_rep.singulars.size),
        "rank_bound": int(mat.shape[0]),
    }
    return summary, outputs, sp_rep


def _inverse_scale_floor(ctx, power=1):
    return FLOOR_FACTOR / ctx["coeffs"].t ** power


def _write_report(rep, out_dir, ctx, power=1, with_terms=True):
    # the difference of a ResolventReport, its term spectra and its residual
    terms = {label: rep.singular_values(label)
             for label in rep.term_cores} if with_terms else None
    summary, outputs, _ = _write_spectrum(
        rep.core, out_dir, ctx["analysis"], _inverse_scale_floor(ctx, power),
        terms)
    summary["residual"] = rep.residual
    return summary, outputs


def _task_resolvent_diff(ctx, entry, out_dir):
    t_op = bs_operator(ctx["a"], ctx["gamma"], ctx["V1"])
    rep = resolvent_difference(ctx["a"], t_op, ctx["margin"])
    summary, outputs = _write_report(rep, out_dir, ctx)
    summary["margin"] = positivity_margin(t_op)
    return summary, outputs


def _task_two_weight_diff(ctx, entry, out_dir):
    if ctx["V2"] is None:
        raise ValidationError(f"{entry['name']} needs weights.V2")
    t1 = bs_operator(ctx["a"], ctx["gamma"], ctx["V1"])
    t2 = bs_operator(ctx["a"], ctx["gamma"], ctx["V2"])
    rep = two_weight_difference(ctx["a"], t1, t2, ctx["margin"])
    return _write_report(rep, out_dir, ctx)


def _task_power_diff(ctx, entry, out_dir):
    m = int(entry.get("m", 2))
    t_op = bs_operator(ctx["a"], ctx["gamma"], ctx["V1"])
    rep = power_difference(ctx["a"], t_op, m, ctx["margin"])
    summary, outputs = _write_report(rep, out_dir, ctx, power=m)
    summary["m"] = m
    return summary, outputs


def _task_krein_feller(ctx, entry, out_dir):
    mat = bs_atom_gram(ctx["a"], ctx["gamma"], ctx["V1"])
    summary, outputs, sp_rep = _write_spectrum(mat, out_dir, ctx["analysis"],
                                               None)
    counting_fit = None
    log_periodic = None
    if sp_rep.counting.shape[0] >= 30:
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
    if ctx["V2"] is None:
        raise ValidationError("robin_diff needs weights.V2")
    t1, t2 = (bs_operator(ctx["a"], ctx["gamma"], ctx[key])
              for key in ("V1", "V2"))
    rep = two_weight_difference(ctx["a"], t2, t1, margin_threshold=-np.inf)
    return _write_report(rep, out_dir, ctx, with_terms=False)


def _task_weyl_check(ctx, entry, out_dir):
    if ctx["V2"] is None:  # checked before the prediction reads it
        raise ValidationError(f"{entry['name']} needs weights.V2")
    m = ctx["measure"]
    d = m.nominal_dim
    theta = d / (d - m.ambient_dim + 4.0)
    # the symbol of A at the atoms: a per-node field is interpolated
    # through gamma; an anisotropic one fails here, since it needs normals
    tensors = ctx["coeffs"].tensors
    if tensors.ndim == 3:
        n_dim = tensors.shape[-1]
        tensors = (ctx["gamma"].matrix @ tensors.reshape(len(tensors), -1)
                   ).reshape(m.count, n_dim, n_dim)
    # the fit is over singular values, which count both signs of V1 - V2
    sides = [weyl_prediction(m, ctx["V1"], ctx["V2"], theta, coeffs=tensors,
                             side=side)
             for side in "+-"]
    summary, outputs = _task_two_weight_diff(ctx, entry, out_dir)
    coeff = {key: sides[0].coefficient_both[key] + sides[1].coefficient_both[key]
             for key in sides[0].coefficient_both}
    summary["theta_predicted"] = theta
    summary["weyl_coefficient"] = coeff
    fit = summary["fit"]
    if fit is not None:
        summary["coeff_ratio"] = {
            key: fit["coeff"] / val if val else None
            for key, val in coeff.items()
        }
    return summary, outputs


_TASK_FNS = {
    "resolvent_diff": _task_resolvent_diff,
    "two_weight_diff": _task_two_weight_diff,
    "power_diff": _task_power_diff,
    "krein_feller": _task_krein_feller,
    "robin_diff": _task_robin_diff,
    "weyl_check": _task_weyl_check,
}


# ---------------------------------------------------------------- run


def _execute(cfg, out_dir, t_value, base_dir):
    grid = _build_grid(cfg["domain"])
    coeffs = _build_coeffs(cfg["operator"], grid.ambient_dim, t_value)
    a = assemble_neumann(grid, coeffs)
    measure = _build_measure(cfg["measure"], grid)
    gamma = restriction_matrix(grid, measure)

    seed = cfg.get("seed", 0)
    ss = np.random.SeedSequence(seed)
    ss_v1, ss_v2, _ = ss.spawn(3)
    weights_spec = cfg.get("weights", {})
    v1_spec = weights_spec.get("V1", {"kind": "constant", "value": 0.0})
    v1 = _build_weight(v1_spec, measure,
                       np.random.Generator(np.random.Philox(ss_v1)), base_dir)
    v2 = None
    if "V2" in weights_spec:
        v2 = _build_weight(weights_spec["V2"], measure,
                           np.random.Generator(np.random.Philox(ss_v2)), base_dir)

    analysis = {k: v for k, v in cfg.get("analysis", {}).items()
                if v is not None}
    margin = float(analysis.get("margin", MARGIN_DEFAULT))
    ctx = {
        "grid": grid, "coeffs": coeffs, "a": a, "measure": measure,
        "gamma": gamma, "V1": v1, "V2": v2, "analysis": analysis,
        "margin": margin,
    }

    shared = {"measure_csv": str(out_dir / "measure.csv")}
    shared["measure_sidecar"] = str(write_measure(
        measure, out_dir / "measure.csv", perturbation=v1))
    if v2 is not None:
        shared["measure_v2_csv"] = str(out_dir / "measure_v2.csv")
        shared["measure_v2_sidecar"] = str(write_measure(
            measure, out_dir / "measure_v2.csv", perturbation=v2))

    def relativize(paths):
        return {k: str(Path(v).relative_to(out_dir)) for k, v in paths.items()}

    task_entries = []
    counts = {}
    for raw in cfg["tasks"]:
        entry = {"name": raw} if isinstance(raw, str) else dict(raw)
        name = entry["name"]
        counts[name] = counts.get(name, 0) + 1
        dir_name = name if counts[name] == 1 else f"{name}_{counts[name]}"
        task_dir = out_dir / dir_name
        summary, outputs = _TASK_FNS[name](ctx, entry, task_dir)
        outputs["summary"] = str(write_json(summary, task_dir / "summary.json"))
        task_entries.append({
            "name": name,
            "params": {k: v for k, v in entry.items() if k != "name"},
            "outputs": relativize(outputs),
            "summary": summary,
        })
    return task_entries, relativize(shared)


def run_config(cfg, out_root, force=False, base_dir=".") -> tuple[dict, Path]:
    """Validate, execute, and write a manifest; returns (manifest, out_dir).

    ``base_dir`` anchors relative file paths inside the config; the bytes
    of those files enter the run key, the directory itself does not.
    Re-running an already completed config is a no-op unless ``force``;
    positivity failures double t up to 3 times, each raise logged.
    """
    validate_config(cfg)
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

    t_value = float(cfg["operator"].get("t", 1.0))
    t_raises = []
    for attempt in range(MAX_T_RAISES + 1):
        try:
            task_entries, shared = _execute(cfg, out_dir, t_value, base_dir)
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
    for p in parts[:-1]:
        key = int(p) if isinstance(node, list) else p
        try:
            node = node[key]
        except (KeyError, IndexError, TypeError):
            raise ValidationError(f"axis {axis!r}: no config entry {p!r}")
    last = int(parts[-1]) if isinstance(node, list) else parts[-1]
    try:
        old = node[last]
    except (KeyError, IndexError, TypeError):
        raise ValidationError(f"axis {axis!r}: no config entry {parts[-1]!r}")
    if isinstance(old, list) and not isinstance(value, list):
        node[last] = [value] * len(old)
    else:
        node[last] = value


def _first_fit(manifest):
    for entry in manifest["tasks"]:
        fit = entry["summary"].get("fit")
        if fit:
            return fit
    return None


def sweep_config(cfg, axis, values, out_root, force=False, base_dir="."):
    """Run the config once per axis value; write a combined summary CSV."""
    manifests = []
    rows = []
    for value in values:
        variant = copy.deepcopy(cfg)
        _set_axis(variant, axis, value)
        validate_config(variant)
        manifest, _ = run_config(variant, out_root, force=force,
                                 base_dir=base_dir)
        manifests.append(manifest)
        fit = _first_fit(manifest)
        rows.append((value, fit))

    sweep_dir = Path(out_root) / (
        f"sweep-{config_hash(cfg, base_dir)}-{axis.replace('.', '_')}")
    sweep_dir.mkdir(parents=True, exist_ok=True)
    lines = ["axis_value,theta_hat,coeff_hat,r_squared"]
    for value, fit in rows:
        if fit is None:
            lines.append(f"{value},,,")
        else:
            lines.append("%s,%.17g,%.17g,%.17g" % (
                value, fit["theta"], fit["coeff"], fit["r_squared"]))
    out_csv = sweep_dir / "summary.csv"
    out_csv.write_text("\n".join(lines) + "\n")
    print(f"sweep over {axis}: {len(values)} runs, summary at {out_csv}")
    return manifests


# ---------------------------------------------------------------- verify


def _admissible_random(a, gamma, rng, threshold=0.1):
    # draw a signed weight and shrink it until 1 + T stays positive with slack
    vals = rng.standard_normal(gamma.measure.count)
    p = Perturbation(gamma.measure, vals)
    t_op = bs_operator(a, gamma, p)
    margin = positivity_margin(t_op)
    if margin <= threshold:
        lam_min = margin - 1.0
        c = 0.9 * (1.0 - threshold) / (-lam_min)
        p = Perturbation(gamma.measure, c * vals)
        t_op = bs_operator(a, gamma, p)
    return p, t_op


def _suite_identities():
    checks = []
    grid = Grid(np.array([[0.0, 1.0]]), (64,))
    coeffs = CoefficientField.isotropic(1.0, 1, t=1.0)
    a = assemble_neumann(grid, coeffs)
    m = segment_measure(np.array([[0.25], [0.75]]), 40)
    gamma = restriction_matrix(grid, m)
    rng = np.random.Generator(np.random.Philox(1234))

    _, t1 = _admissible_random(a, gamma, rng)
    _, t2 = _admissible_random(a, gamma, rng)
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
    _, t2d = _admissible_random(a2, gamma2, rng)
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


def _export_number(value, where) -> str:
    if value is None:
        return ""
    if isinstance(value, float) or _is_numeric(value, integer=True):
        return "%.17g" % value
    raise ValidationError(f"{where} must be a number or null")


def _export_row(entry, where) -> str:
    # one manifest task entry as a csv row; any other shape exits 2
    if not isinstance(entry, dict):
        raise ValidationError(f"{where} must be an object")
    name = entry.get("name", "")
    summary = entry.get("summary", {})
    if not isinstance(name, str):
        raise ValidationError(f"{where}.name must be a string")
    if not isinstance(summary, dict):
        raise ValidationError(f"{where}.summary must be an object")
    fit = summary.get("fit") or {}
    if not isinstance(fit, dict):
        raise ValidationError(f"{where}.summary.fit must be an object or null")
    cells = [name] + [_export_number(fit.get(key), f"{where}.summary.fit.{key}")
                      for key in ("theta", "coeff", "r_squared")]
    cells.append(_export_number(summary.get("residual"),
                                f"{where}.summary.residual"))
    return ",".join(cells)


def run_export(manifest_path: str, fmt: str) -> int:
    manifest = read_json(manifest_path, "manifest")
    if fmt == "json":
        json.dump(manifest, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
        return 0
    # csv: one row per task with the headline fit numbers, all checked
    # before the first line is printed
    tasks = manifest.get("tasks", [])
    if not isinstance(tasks, list):
        raise ValidationError("manifest tasks must be a list")
    rows = [_export_row(entry, f"tasks[{i}]") for i, entry in enumerate(tasks)]
    print("task,theta_hat,coeff_hat,r_squared,residual")
    for row in rows:
        print(row)
    return 0


# ---------------------------------------------------------------- main


def _out_root(args) -> Path:
    if args.out is not None:
        return Path(args.out)
    return Path(os.environ.get(OUT_ENV_VAR, "runs"))


def _cmd_run(args) -> int:
    cfg = load_config(args.config)
    base_dir = str(Path(args.config).resolve().parent)
    run_config(cfg, _out_root(args), force=args.force, base_dir=base_dir)
    return 0


def _parse_value(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def _cmd_sweep(args) -> int:
    cfg = load_config(args.config)
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
