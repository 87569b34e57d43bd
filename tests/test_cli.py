"""End-to-end checks of the config runner: exit codes, manifests, determinism."""

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from test_io import MALFORMED, malform_measure

import deltaspec
from deltaspec import birman_schwinger, cli, elliptic, resolvents, spectra
from deltaspec.cli import TASK_NAMES, _set_axis, config_hash, main
from deltaspec.errors import ValidationError
from deltaspec.io import write_measure
from deltaspec.measures import ATOM_CAP_DEFAULT, segment_measure
from deltaspec.weights import Perturbation


def base_config(**overrides):
    cfg = {
        "schema_version": 1,
        "seed": 3,
        "domain": {"bbox": [[0.0, 1.0]], "shape": [48]},
        "operator": {"coefficients": 1.0, "t": 1.0},
        "measure": {"kind": "segment", "start": [0.25], "end": [0.75],
                    "count": 24},
        "weights": {"V1": {"kind": "constant", "value": 1.0}},
        "tasks": ["resolvent_diff"],
    }
    cfg.update(overrides)
    return cfg


def box_config(**overrides):
    # a 12 x 12 box with its boundary measure, on which every task runs
    cfg = base_config(
        domain={"bbox": [[0.0, 1.0], [0.0, 1.0]], "shape": [12, 12]},
        measure={"kind": "boundary"},
        weights={"V1": {"kind": "constant", "value": 2.0},
                 "V2": {"kind": "constant", "value": 1.0}},
    )
    cfg.update(overrides)
    return cfg


def box3d_config(**overrides):
    # a 4 x 4 x 3 box with its boundary measure
    cfg = box_config(
        domain={"bbox": [[0.0, 1.0], [0.0, 0.9], [0.0, 0.8]],
                "shape": [4, 4, 3]})
    cfg.update(overrides)
    return cfg


def write_config(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def run_manifest(tmp_path, cfg, name="cfg.json"):
    path = write_config(tmp_path, cfg, name)
    out = tmp_path / "runs"
    assert main(["run", str(path), "--out", str(out)]) == 0
    run_dir = out / config_hash(cfg)
    return json.loads((run_dir / "manifest.json").read_text()), run_dir


def test_run_writes_manifest_and_artifacts(tmp_path, capsys):
    cfg = base_config()
    path = write_config(tmp_path, cfg)
    out = tmp_path / "runs"
    assert main(["run", str(path), "--out", str(out)]) == 0
    run_dir = out / config_hash(cfg)
    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert manifest["config_hash"] == config_hash(cfg)
    assert manifest["config"] == cfg
    assert manifest["t_effective"] == 1.0
    assert (run_dir / "measure.csv").exists()
    assert (run_dir / "resolvent_diff" / "singulars.csv").exists()
    assert (run_dir / "resolvent_diff" / "counting.csv").exists()
    summary = manifest["tasks"][0]["summary"]
    assert summary["residual"] <= 1e-8
    assert "complete" in capsys.readouterr().out


def test_run_skips_finished_then_force_recomputes(tmp_path, capsys):
    path = write_config(tmp_path, base_config())
    out = tmp_path / "runs"
    main(["run", str(path), "--out", str(out)])
    before = (out / config_hash(base_config()) / "manifest.json").read_bytes()
    capsys.readouterr()
    assert main(["run", str(path), "--out", str(out)]) == 0
    assert "already complete" in capsys.readouterr().out
    after = (out / config_hash(base_config()) / "manifest.json").read_bytes()
    assert after == before
    assert main(["run", str(path), "--out", str(out), "--force"]) == 0
    assert "complete" in capsys.readouterr().out


def test_numeric_outputs_identical_across_roots(tmp_path):
    cfg = base_config(
        weights={"V1": {"kind": "random", "scale": 0.5, "nonneg": True}})
    path = write_config(tmp_path, cfg)
    for sub in ("one", "two"):
        assert main(["run", str(path), "--out", str(tmp_path / sub)]) == 0
    rel = Path(config_hash(cfg))
    for name in ("measure.csv", "resolvent_diff/singulars.csv",
                 "resolvent_diff/counting.csv"):
        b1 = (tmp_path / "one" / rel / name).read_bytes()
        b2 = (tmp_path / "two" / rel / name).read_bytes()
        assert b1 == b2, name


def test_manifest_lists_every_artifact_exactly_once(tmp_path):
    cfg = base_config(
        weights={"V1": {"kind": "constant", "value": 1.0},
                 "V2": {"kind": "constant", "value": 0.5}},
        tasks=["resolvent_diff", "two_weight_diff",
               {"name": "power_diff", "m": 2}],
    )
    path = write_config(tmp_path, cfg)
    out = tmp_path / "runs"
    assert main(["run", str(path), "--out", str(out)]) == 0
    run_dir = out / config_hash(cfg)
    manifest = json.loads((run_dir / "manifest.json").read_text())
    refs = list(manifest["shared_outputs"].values())
    for entry in manifest["tasks"]:
        refs.extend(entry["outputs"].values())
    assert len(refs) == len(set(refs))
    on_disk = {
        str(p.relative_to(run_dir))
        for p in run_dir.rglob("*") if p.is_file()
    } - {"manifest.json"}
    assert set(refs) == on_disk


def test_unknown_config_key_exits_2(tmp_path, capsys):
    cfg = base_config()
    cfg["extra"] = 1
    path = write_config(tmp_path, cfg)
    assert main(["run", str(path), "--out", str(tmp_path / "runs")]) == 2
    assert "unknown key" in capsys.readouterr().err


def test_missing_and_malformed_config_exit_2(tmp_path, capsys):
    assert main(["run", str(tmp_path / "absent.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["run", str(bad)]) == 2
    assert "not valid JSON" in capsys.readouterr().err


SEGMENT_1D = {"kind": "segment", "start": [0.25], "end": [0.75], "count": 24}


@pytest.mark.parametrize("overrides", [
    {"domain": {"bbox": [[0.0, 1.0]], "shape": ["abc"]}},
    {"measure": dict(SEGMENT_1D, count="x")},
    {"operator": {"coefficients": 1.0, "t": float("nan")}},
    {"seed": -1},
    {"measure": {"kind": "ifs", "maps": 3, "depth": 2}},
    {"weights": {"V1": {"kind": "file", "path": 5}}},
    {"domain": {"bbox": [[0, 1, 2]], "shape": [48]}},
    {"measure": dict(SEGMENT_1D, start=[0.25, 0.5])},
    {"operator": {"coefficients": [[1.0, 0.0], [0.0]], "t": 1.0}},
    {"analysis": {"window": 5}},
    {"analysis": {"margin": [0.1]}},
    {"analysis": {"head_drop": [0.1]}},
    {"analysis": {"floor": [0.1]}},
    {"weights": {"V1": {"kind": "step", "box": [0, 1, 2], "inside": 1.0}}},
    {"measure": dict(SEGMENT_1D, count=ATOM_CAP_DEFAULT + 1)},
    {"weights": {"V1": {"kind": "file", "path": "absent.csv"}}},
    {"measure": dict(SEGMENT_1D, count=10**400)},
    {"measure": {"kind": "ifs", "depth": 10**9,
                 "maps": [{"ratio": 0.5, "translation": [0.5]}]}},
    {"analysis": {"head_drop": 1.0}},
    {"analysis": {"head_drop": -0.5}},
    {"analysis": {"floor": -1.0}},
    {"domain": {"bbox": [[0.0, 1.0], [0.0, 1.0]], "shape": [12, 12]},
     "measure": {"kind": "boundary"}, "tasks": ["weyl_check"]},
    {"weights": {"V1": {"kind": "random", "nonneg": "false"}}},
    {"domain": {"bbox": [[0.0, 1.0]] * 4, "shape": [3, 3, 3, 3]}},
    {"measure": {"kind": "ifs", "depth": 14, "atom_cap": 16384, "maps": [
        {"ratio": 0.25, "translation": [0.0]},
        {"ratio": 0.25, "translation": [0.75]}]}},
    {"analysis": {"window": [5, 25], "head_drop": 0.5}},
    {"analysis": {"window": [25, 5]}},
    {"analysis": {"window": [0, 10]}},
    {"analysis": {"window": [5, 5]}},
    {"measure": {"kind": "cube"}},
    {"weights": {"V1": {"kind": "gaussian"}}},
    {"tasks": ["eigen_diff"]},
    {"tasks": [{"name": "power_diff", "m": 5}]},
    {"tasks": [{"name": "resolvent_diff", "m": 2}]},
    {"tasks": []},
    {"measure": {"kind": "union", "parts": [SEGMENT_1D]}},
    {"measure": {"kind": "ifs", "depth": 2, "maps": [
        {"ratio": 0.5, "translation": [0.0], "rotation": 0.3},
        {"ratio": 0.5, "translation": [0.5]}]}},
    {"schema_version": True},
    {"schema_version": 1.0},
    {"schema_version": 2},
    {"measure": {"kind": "ifs", "maps": [], "depth": 2}},
], ids=["shape", "count", "t", "negative_seed", "maps", "path", "bbox",
        "start", "ragged_coefficients", "window", "margin", "head_drop",
        "floor", "box", "segment_atom_cap", "missing_weight_file",
        "huge_integer", "one_map_ifs_depth", "head_drop_one",
        "head_drop_negative", "negative_floor", "weyl_check_without_v2",
        "nonneg_string", "bbox_4d", "atom_cap", "window_and_head_drop",
        "window_reversed", "window_from_zero", "window_one_point",
        "measure_kind", "weight_kind", "task_name", "power_diff_m5",
        "m_on_resolvent_diff", "no_tasks", "union_one_part", "rotation_1d",
        "schema_true", "schema_float", "schema_2", "ifs_no_maps"])
def test_malformed_config_value_exits_2(tmp_path, capsys, overrides):
    path = write_config(tmp_path, base_config(**overrides))
    out = tmp_path / "runs"
    assert main(["run", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("overrides", [
    {"measure": dict(SEGMENT_1D, depth=2)},
    {"weights": {"V1": {"kind": "constant", "value": 1.0, "scale": 2.0}}},
    {"weights": {"V1": {"kind": "file", "path": "w.csv", "value": 1.0}}},
], ids=["segment_depth", "constant_scale", "file_value"])
def test_key_of_another_kind_is_unknown(tmp_path, capsys, overrides):
    # each kind takes its own keys only, not those of the other kinds
    seg = segment_measure(np.array([[0.25], [0.75]]), 24)
    write_measure(seg, tmp_path / "w.csv", Perturbation.constant(seg, 1.0))
    path = write_config(tmp_path, base_config(**overrides))
    assert main(["run", str(path), "--out", str(tmp_path / "runs")]) == 2
    assert "unknown key" in capsys.readouterr().err


SEGMENT_2D = {"kind": "segment", "start": [0.1, 0.2], "end": [1.5, 0.2],
              "count": 12}
TWO_WEIGHTS = {"V1": {"kind": "constant", "value": 2.0},
               "V2": {"kind": "constant", "value": 1.0}}


@pytest.mark.parametrize("overrides", [
    {"domain": {"bbox": [[0.0, 1.0]], "shape": [6000]}},
    {"measure": dict(SEGMENT_1D, end=[1.5])},
    {"operator": {"coefficients": [[[1.0]]] * 10, "t": 1.0}},
    {"tasks": ["resolvent_diff", "two_weight_diff"]},
    {"weights": TWO_WEIGHTS, "tasks": ["resolvent_diff", "weyl_check"]},
    {"domain": {"bbox": [[0.0, 1.6], [0.0, 0.4]], "shape": [17, 5]},
     "operator": {"coefficients": [[2.0, 0.0], [0.0, 0.5]], "t": 1.0},
     "measure": SEGMENT_2D, "weights": TWO_WEIGHTS,
     "tasks": ["resolvent_diff", "weyl_check"]},
    {"weights": {"V1": {"kind": "file", "path": "elsewhere.csv"}}},
], ids=["node_cap", "atom_outside_bbox", "coefficient_count",
        "v2_for_second_task", "weyl_check_1d", "weyl_check_anisotropic",
        "file_atoms_elsewhere"])
def test_input_error_exits_2_before_any_output(tmp_path, capsys, overrides):
    # errors that only building the inputs finds are still found before
    # the run directory exists or any task computes
    seg = segment_measure(np.array([[0.1], [0.9]]), 24)
    write_measure(seg, tmp_path / "elsewhere.csv",
                  Perturbation.constant(seg, 1.0))
    path = write_config(tmp_path, base_config(**overrides))
    out = tmp_path / "runs"
    assert main(["run", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists() or not any(out.iterdir())


DUST_2D = {"kind": "ifs", "depth": 4, "maps": [
    {"ratio": 0.25, "translation": [x, y]}
    for x in (0.525, 0.825) for y in (0.3, 0.525)]}


@pytest.mark.parametrize("overrides", [
    {"domain": {"bbox": [[0.0, 1.0]], "shape": [256]},
     "measure": {"kind": "lebesgue"}},
    {"domain": {"bbox": [[0.0, 1.6], [0.0, 0.8]], "shape": [33, 17]},
     "measure": {"kind": "union", "parts": [
         {"kind": "segment", "start": [0.3, 0.2], "end": [1.3, 0.2],
          "count": 32}, DUST_2D]}},
    {"domain": {"bbox": [[0.0, 1.0], [0.0, 1.0]], "shape": [17, 17]},
     "measure": {"kind": "ifs", "depth": 5, "maps": [
         {"ratio": 0.5, "translation": [0.3, 0.2], "rotation": 0.5},
         {"ratio": 0.5, "translation": [0.5, 0.45]}]}},
], ids=["lebesgue", "union", "ifs_rotation"])
def test_measure_kinds_run_every_task(tmp_path, overrides):
    tasks = ["resolvent_diff", {"name": "power_diff", "m": 2}, "krein_feller"]
    manifest, run_dir = run_manifest(tmp_path,
                                     base_config(tasks=tasks, **overrides))
    assert [entry["name"] for entry in manifest["tasks"]] == [
        "resolvent_diff", "power_diff", "krein_feller"]
    for entry in manifest["tasks"]:
        for key in ("singulars", "counting", "summary"):
            assert (run_dir / entry["outputs"][key]).is_file()
        assert entry["summary"]["values_kept"] > 0


def test_tasks_share_one_operator_per_weight(tmp_path, monkeypatch):
    # patched in both modules, so an operator built inside bs_atom_gram
    # counts as well
    calls = []
    original = birman_schwinger.bs_operator

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(cli, "bs_operator", counting)
    monkeypatch.setattr(birman_schwinger, "bs_operator", counting)
    run_manifest(tmp_path, base_config(
        tasks=["resolvent_diff", {"name": "power_diff", "m": 2},
               "krein_feller"]))
    assert len(calls) == 1


def test_segment_end_may_be_a_bare_number_in_1d(tmp_path):
    # a 1D point is one number or a one-entry list, each end on its own
    _, listed = run_manifest(tmp_path, base_config())
    _, mixed = run_manifest(tmp_path, base_config(
        measure=dict(SEGMENT_1D, start=0.25)), name="mixed.json")
    assert ((mixed / "measure.csv").read_bytes()
            == (listed / "measure.csv").read_bytes())


@pytest.mark.parametrize("command, text", [
    ("run", None),
    ("export", "{not json"),
    ("export", "[1, 2]"),
], ids=["run_directory", "export_not_json", "export_not_object"])
def test_unreadable_json_input_exits_2(tmp_path, capsys, command, text):
    # a directory, or a file that holds no JSON object
    path = tmp_path / "input.json"
    if text is None:
        path.mkdir()
    else:
        path.write_text(text)
    assert main([command, str(path)]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_truncated_cached_manifest_is_recomputed(tmp_path, capsys):
    path = write_config(tmp_path, base_config())
    out = tmp_path / "runs"
    assert main(["run", str(path), "--out", str(out)]) == 0
    manifest_path = out / config_hash(base_config()) / "manifest.json"
    text = manifest_path.read_text()
    manifest_path.write_text(text[:len(text) // 2])
    capsys.readouterr()
    assert main(["run", str(path), "--out", str(out)]) == 0
    assert "already complete" not in capsys.readouterr().out
    assert json.loads(manifest_path.read_text())["config"] == base_config()


def test_null_analysis_values_mean_the_default(tmp_path):
    cfg = base_config(analysis={"window": None})
    manifest, _ = run_manifest(tmp_path, cfg)
    default, _ = run_manifest(tmp_path, base_config(), name="default.json")
    assert manifest["tasks"][0]["summary"] == default["tasks"][0]["summary"]


@pytest.mark.parametrize("key, value", [("floor", 1e-3), ("margin", 0.1)])
def test_floor_and_margin_are_not_options(tmp_path, capsys, key, value):
    # the floor and the margin threshold are fixed: setting either, even
    # to a value in range, is an unknown key
    path = write_config(tmp_path, base_config(analysis={key: value}))
    assert main(["run", str(path), "--out", str(tmp_path / "runs")]) == 2
    assert "unknown key" in capsys.readouterr().err


@pytest.mark.parametrize("task", ["resolvent_diff", "two_weight_diff",
                                  {"name": "power_diff", "m": 2},
                                  "robin_diff"],
                         ids=["resolvent_diff", "two_weight_diff",
                              "power_diff", "robin_diff"])
@pytest.mark.parametrize("value", [1e308, 1e200])
@pytest.mark.filterwarnings("error")
def test_overflowing_report_exits_4(tmp_path, capsys, value, task):
    # 1e308 overflows the cores to inf and nan, 1e200 only the residual's
    # norms; neither may end in a traceback, a numpy warning (an error
    # here, since pytest would otherwise keep it off stderr) or an
    # Infinity in JSON: the error line is all that is printed
    cfg = base_config(
        domain={"bbox": [[0.0, 1.0]], "shape": [64]},
        measure=dict(SEGMENT_1D, count=32),
        weights={"V1": {"kind": "constant", "value": value},
                 "V2": {"kind": "constant", "value": 1.0}},
        tasks=[task])
    path = write_config(tmp_path, cfg)
    out = tmp_path / "runs"
    assert main(["run", str(path), "--out", str(out)]) == 4
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("numerical error:"), err
    assert not list(out.glob("*/manifest.json"))


def test_hopeless_positivity_exits_3(tmp_path, capsys):
    cfg = base_config(weights={"V1": {"kind": "constant", "value": -1e7}})
    path = write_config(tmp_path, cfg)
    assert main(["run", str(path), "--out", str(tmp_path / "runs")]) == 3
    err = capsys.readouterr().err
    assert "retrying with t" in err
    assert "still indefinite" in err


def test_unreachable_fit_request_exits_4(tmp_path):
    # 24 atoms leave far fewer usable values than a fit needs, and an
    # explicit analysis request must fail loudly instead of fitting nothing
    cfg = base_config(analysis={"window": [1, 10]})
    path = write_config(tmp_path, cfg)
    assert main(["run", str(path), "--out", str(tmp_path / "runs")]) == 4


def test_zero_weight_yields_null_fit(tmp_path):
    cfg = base_config(weights={"V1": {"kind": "constant", "value": 0.0}})
    path = write_config(tmp_path, cfg)
    out = tmp_path / "runs"
    assert main(["run", str(path), "--out", str(out)]) == 0
    summary = json.loads(
        (out / config_hash(cfg) / "resolvent_diff" / "summary.json").read_text())
    assert summary["fit"] is None
    assert summary["values_kept"] == 0
    assert summary["residual"] <= 1e-12


def test_summary_on_disk_equals_manifest_for_every_task(tmp_path):
    manifest, run_dir = run_manifest(tmp_path, box_config(tasks=list(TASK_NAMES)))
    assert [entry["name"] for entry in manifest["tasks"]] == list(TASK_NAMES)
    for entry in manifest["tasks"]:
        on_disk = json.loads((run_dir / entry["outputs"]["summary"]).read_text())
        assert on_disk == entry["summary"], entry["name"]
    summaries = {entry["name"]: entry["summary"] for entry in manifest["tasks"]}
    # nonnegative V1: T >= 0 and k < N, so the smallest eigenvalue is 0
    assert summaries["resolvent_diff"]["margin"] == pytest.approx(1.0)
    assert summaries["power_diff"]["m"] == 2
    for name, summary in summaries.items():
        assert summary["values_kept"] <= summary["rank_bound"], name


@pytest.mark.parametrize("task", TASK_NAMES)
def test_explicit_window_is_the_fitted_window(tmp_path, task):
    cfg = box_config(tasks=[task], analysis={"window": [5, 25]})
    manifest, _ = run_manifest(tmp_path, cfg)
    assert manifest["tasks"][0]["summary"]["fit"]["window"] == [5, 25]


@pytest.mark.parametrize("analysis", [None, {"window": [5, 25]}])
def test_each_spectrum_is_fitted_once(tmp_path, monkeypatch, analysis):
    # two_weight_diff fits its spectrum, krein_feller its spectrum and its
    # counting samples: 3 fits, whether or not the window is explicit
    cfg = base_config(
        domain={"bbox": [[0.0, 1.6], [0.0, 0.4]], "shape": [57, 15]},
        measure={"kind": "segment", "start": [0.3, 0.2], "end": [1.3, 0.2],
                 "count": 64},
        weights={"V1": {"kind": "constant", "value": 2.0},
                 "V2": {"kind": "constant", "value": 1.0}},
        tasks=["two_weight_diff", "krein_feller"])
    if analysis is not None:
        cfg["analysis"] = analysis
    calls = []
    original = spectra.fit_power_law

    def counting(*args, **kwargs):
        calls.append(kwargs)
        return original(*args, **kwargs)

    monkeypatch.setattr(spectra, "fit_power_law", counting)
    monkeypatch.setattr(cli, "fit_power_law", counting)
    manifest, _ = run_manifest(tmp_path, cfg)
    assert len(calls) == 3
    if analysis is not None:
        for entry in manifest["tasks"]:
            assert entry["summary"]["fit"]["window"] == [5, 25]


@pytest.mark.parametrize("task", TASK_NAMES)
def test_out_of_range_window_exits_2(tmp_path, capsys, task):
    cfg = box_config(tasks=[task], analysis={"window": [5, 100000]})
    path = write_config(tmp_path, cfg)
    assert main(["run", str(path), "--out", str(tmp_path / "runs")]) == 2
    assert "out of range" in capsys.readouterr().err


def test_robin_diff_matches_dense_inverses_and_reports_residual(tmp_path):
    # the two Robin realizations are the Neumann matrix plus the diagonal
    # w V / h^2 on the boundary nodes; invert both with numpy
    cfg = box_config(tasks=["robin_diff"])
    manifest, run_dir = run_manifest(tmp_path, cfg)
    assert manifest["tasks"][0]["summary"]["residual"] <= 1e-10
    grid = deltaspec.Grid(np.array(cfg["domain"]["bbox"]), (12, 12))
    neumann = deltaspec.assemble_neumann(
        grid, deltaspec.CoefficientField.isotropic(1.0, 2)).matrix
    bnd = deltaspec.boundary_measure(grid)
    nodes = np.argmin(
        ((bnd.atoms[:, None, :] - grid.nodes()[None, :, :]) ** 2).sum(axis=2),
        axis=1)
    inverses = []
    for key in ("V1", "V2"):
        mat = neumann.copy()
        mat[nodes, nodes] += (bnd.weights * cfg["weights"][key]["value"]
                              / grid.cell_volume)
        inverses.append(np.linalg.inv(mat))
    want = np.sort(np.abs(np.linalg.eigvalsh(inverses[0] - inverses[1])))[::-1]
    got = np.loadtxt(run_dir / "robin_diff" / "singulars.csv", delimiter=",",
                     skiprows=1)[:, 1]
    assert got.size == bnd.count
    assert np.allclose(got, want[:got.size], rtol=1e-9, atol=1e-12 * want[0])


def test_robin_diff_admits_signed_density_below_margin_threshold(tmp_path):
    # a Robin density is admissible while A + C is positive definite: a
    # positivity margin of 0.03, below the 0.05 threshold of the other
    # tasks, runs at its own t, and a negative margin doubles t
    grid = deltaspec.Grid(np.array([[0.0, 1.0], [0.0, 1.0]]), (12, 12))
    a = deltaspec.assemble_neumann(
        grid, deltaspec.CoefficientField.isotropic(1.0, 2))
    bnd = deltaspec.boundary_measure(grid)
    gam = deltaspec.restriction_matrix(grid, bnd)

    def margin(value):
        return deltaspec.positivity_margin(deltaspec.bs_operator(
            a, gam, Perturbation.constant(bnd, value)))

    top = 1.0 - margin(-1.0)  # the largest eigenvalue of T at V = 1
    for target, raises in ((0.03, 0), (-0.5, 1)):
        value = -(1.0 - target) / top
        assert margin(value) == pytest.approx(target, abs=1e-9)
        cfg = box_config(tasks=["robin_diff"],
                         weights={"V1": {"kind": "constant", "value": value},
                                  "V2": {"kind": "constant", "value": 1.0}})
        (tmp_path / str(raises)).mkdir()
        manifest, _ = run_manifest(tmp_path / str(raises), cfg)
        assert len(manifest["t_raises"]) == raises
        assert manifest["tasks"][0]["summary"]["residual"] <= 1e-10


def test_3d_box_boundary_runs_robin_diff_and_weyl_check(tmp_path):
    # the surface measure of a box in R^3 (d = 2) through the CLI; the
    # coefficient ratio is pre-asymptotic at this size and is not checked
    cfg = box3d_config(
        domain={"bbox": [[0.0, 1.0], [0.0, 0.9], [0.0, 0.8]],
                "shape": [9, 8, 7]},
        tasks=["robin_diff", "weyl_check"])
    manifest, _ = run_manifest(tmp_path, cfg)
    robin, weyl = (entry["summary"] for entry in manifest["tasks"])
    assert robin["residual"] <= 1e-10
    assert weyl["residual"] <= 1e-10
    assert weyl["theta_predicted"] == pytest.approx(2.0 / 3.0)
    # (V1 - V2)^theta times the surface area times the isotropic N = 3
    # density (1/4)^theta / (4 pi)
    area = 2.0 * (0.9 + 0.72 + 0.8)
    assert weyl["weyl_coefficient"]["without"] == pytest.approx(
        area * 0.25 ** (2.0 / 3.0) / (4.0 * math.pi), rel=1e-9)


def test_weyl_check_predicts_from_both_signs(tmp_path):
    # singular values count both signs of V1 - V2, so swapping the weights
    # changes neither the fit nor the prediction; for a gap of 1 on a
    # segment of length 1.4 the Laplacian prediction is 1.4 (1/4)^theta / pi
    summaries = []
    for v1, v2 in ((2.0, 1.0), (1.0, 2.0)):
        cfg = base_config(
            domain={"bbox": [[0.0, 1.6], [0.0, 0.4]], "shape": [41, 11]},
            measure={"kind": "segment", "start": [0.1, 0.2],
                     "end": [1.5, 0.2], "count": 48},
            weights={"V1": {"kind": "constant", "value": v1},
                     "V2": {"kind": "constant", "value": v2}},
            tasks=["weyl_check"],
        )
        manifest, _ = run_manifest(tmp_path, cfg, name=f"cfg_{v1}.json")
        summaries.append(manifest["tasks"][0]["summary"])
    first, swapped = summaries
    theta = first["theta_predicted"]
    assert theta == pytest.approx(1.0 / 3.0)
    assert first["weyl_coefficient"] == swapped["weyl_coefficient"]
    assert first["weyl_coefficient"]["without"] == pytest.approx(
        1.4 * 0.25 ** theta / math.pi, rel=1e-9)
    for key, ratio in first["coeff_ratio"].items():
        assert ratio is not None
        assert swapped["coeff_ratio"][key] == pytest.approx(ratio, rel=1e-6)


def test_weyl_check_predicts_from_the_operator_symbol(tmp_path, capsys):
    # the symbol c Id scales the fiber integral by c^(-2), so the predicted
    # coefficient by c^(-2 theta); a per-node field reaches the atoms
    # through the restriction, and an anisotropic symbol needs normals
    cfg = base_config(
        domain={"bbox": [[0.0, 1.6], [0.0, 0.4]], "shape": [41, 11]},
        measure={"kind": "segment", "start": [0.1, 0.2], "end": [1.5, 0.2],
                 "count": 48},
        weights={"V1": {"kind": "constant", "value": 2.0},
                 "V2": {"kind": "constant", "value": 1.0}},
        tasks=["weyl_check"],
    )
    per_node = np.broadcast_to(2.0 * np.eye(2), (41 * 11, 2, 2)).tolist()
    coeffs = {}
    for label, value in (("1", 1.0), ("2", 2.0), ("field", per_node)):
        cfg["operator"] = {"coefficients": value, "t": 1.0}
        manifest, _ = run_manifest(tmp_path, cfg, name=f"cfg_{label}.json")
        coeffs[label] = manifest["tasks"][0]["summary"]["weyl_coefficient"]
    for key, val in coeffs["1"].items():
        assert coeffs["2"][key] == pytest.approx(2.0 ** (-2.0 / 3.0) * val,
                                                 rel=1e-12)
        assert coeffs["field"][key] == pytest.approx(coeffs["2"][key],
                                                     rel=1e-12)
    cfg["operator"] = {"coefficients": [[2.0, 0.0], [0.0, 0.5]], "t": 1.0}
    path = write_config(tmp_path, cfg, name="cfg_aniso.json")
    assert main(["run", str(path), "--out", str(tmp_path / "runs")]) == 2
    assert "normals" in capsys.readouterr().err


def test_file_weight_resolves_relative_to_config(tmp_path):
    seg = segment_measure(np.array([[0.25], [0.75]]), 24)
    vals = np.linspace(0.1, 1.0, 24)
    write_measure(seg, tmp_path / "v.csv", Perturbation(seg, vals))
    cfg = base_config(weights={"V1": {"kind": "file", "path": "v.csv"}})
    path = write_config(tmp_path, cfg)
    out = tmp_path / "runs"
    assert main(["run", str(path), "--out", str(out)]) == 0
    written = (out / config_hash(cfg, tmp_path) / "measure.csv").read_text()
    assert written.splitlines()[0].endswith(",V")


def test_weight_file_without_its_sidecar_runs(tmp_path):
    # a weight file is read as the CSV alone: the sidecar that run writes
    # beside measure.csv may be left out, and the run is the same
    seg = segment_measure(np.array([[0.25], [0.75]]), 24)
    write_measure(seg, tmp_path / "v.csv", Perturbation(
        seg, np.linspace(0.1, 1.0, 24)))
    cfg = base_config(weights={"V1": {"kind": "file", "path": "v.csv"}})
    path = write_config(tmp_path, cfg)

    def measure_csv(out):
        assert main(["run", str(path), "--out", str(out)]) == 0
        return (out / config_hash(cfg, tmp_path) / "measure.csv").read_bytes()

    with_sidecar = measure_csv(tmp_path / "with")
    (tmp_path / "v.json").unlink()
    assert measure_csv(tmp_path / "without") == with_sidecar


def test_non_number_weight_cell_exits_2(tmp_path, capsys):
    seg = segment_measure(np.array([[0.25], [0.75]]), 24)
    write_measure(seg, tmp_path / "v.csv", Perturbation.constant(seg, 1.0))
    lines = (tmp_path / "v.csv").read_text().splitlines()
    lines[3] = lines[3].rsplit(",", 1)[0] + ",abc"
    (tmp_path / "v.csv").write_text("\n".join(lines) + "\n")
    cfg = base_config(weights={"V1": {"kind": "file", "path": "v.csv"}})
    path = write_config(tmp_path, cfg)
    assert main(["run", str(path), "--out", str(tmp_path / "runs")]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_weight_file_without_v_column_exits_2_before_any_output(tmp_path,
                                                               capsys):
    seg = segment_measure(np.array([[0.25], [0.75]]), 24)
    write_measure(seg, tmp_path / "v.csv")
    cfg = base_config(weights={"V1": {"kind": "file", "path": "v.csv"}})
    path = write_config(tmp_path, cfg)
    out = tmp_path / "runs"
    assert main(["run", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: v.csv has no V column\n"
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("case", MALFORMED)
def test_malformed_weight_file_exits_2_before_any_output(tmp_path, capsys,
                                                         case):
    seg = segment_measure(np.array([[0.25], [0.75]]), 24)
    write_measure(seg, tmp_path / "v.csv", Perturbation.constant(seg, 1.0))
    malform_measure(tmp_path / "v.csv", case)
    cfg = base_config(weights={"V1": {"kind": "file", "path": "v.csv"}})
    path = write_config(tmp_path, cfg)
    out = tmp_path / "runs"
    assert main(["run", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists() or not any(out.iterdir())


def test_rewritten_weight_file_is_recomputed(tmp_path, capsys):
    # the bytes of a file weight are part of the run key, so editing the
    # file gives a fresh run instead of the cached answer for the old values
    seg = segment_measure(np.array([[0.25], [0.75]]), 24)
    cfg = base_config(weights={"V1": {"kind": "file", "path": "v.csv"}})
    path = write_config(tmp_path, cfg)
    out = tmp_path / "runs"
    for value in (1.0, 5.0):
        write_measure(seg, tmp_path / "v.csv", Perturbation.constant(seg, value))
        capsys.readouterr()
        assert main(["run", str(path), "--out", str(out)]) == 0
        assert "already complete" not in capsys.readouterr().out
    latest = out / config_hash(cfg, tmp_path)
    first, = (p.parent for p in out.glob("*/manifest.json")
              if p.parent != latest)
    name = "resolvent_diff/singulars.csv"
    assert (first / name).read_text() != (latest / name).read_text()


def test_sweep_writes_combined_summary(tmp_path):
    cfg = base_config()
    path = write_config(tmp_path, cfg)
    out = tmp_path / "runs"
    rc = main(["sweep", str(path), "--axis", "weights.V1.value",
               "--values", "0.5,1.0", "--out", str(out)])
    assert rc == 0
    sweep_csv = out / f"sweep-{config_hash(cfg)}-weights_V1_value" / "summary.csv"
    lines = sweep_csv.read_text().splitlines()
    assert lines[0] == "axis_value,task,theta_hat,coeff_hat,r_squared,residual"
    assert len(lines) == 3
    assert lines[1].startswith("0.5,")
    assert len(list(out.glob("*/manifest.json"))) == 2


def test_sweep_summary_holds_exports_rows_for_every_task(tmp_path, capsys):
    # one row per value and task, in manifest order: resolvent_diff does
    # not read V2, so its rows agree across values, and two_weight_diff's
    # do not
    cfg = base_config(
        domain={"bbox": [[0.0, 1.6], [0.0, 0.4]], "shape": [57, 15]},
        measure={"kind": "segment", "start": [0.3, 0.2], "end": [1.3, 0.2],
                 "count": 64},
        weights={"V1": {"kind": "constant", "value": 3.0},
                 "V2": {"kind": "constant", "value": 1.0}},
        tasks=["resolvent_diff", "two_weight_diff"])
    path = write_config(tmp_path, cfg)
    out = tmp_path / "runs"
    assert main(["sweep", str(path), "--axis", "weights.V2.value",
                 "--values", "1,2", "--out", str(out)]) == 0
    sweep_dir = out / f"sweep-{config_hash(cfg)}-weights_V2_value"
    lines = (sweep_dir / "summary.csv").read_text().splitlines()
    assert lines[0] == "axis_value,task,theta_hat,coeff_hat,r_squared,residual"
    rows = [line.split(",") for line in lines[1:]]
    assert [row[:2] for row in rows] == [
        ["1", "resolvent_diff"], ["1", "two_weight_diff"],
        ["2", "resolvent_diff"], ["2", "two_weight_diff"]]
    assert all(cell != "" for row in rows for cell in row)
    assert rows[0][2:] == rows[2][2:]
    assert rows[1][2:] != rows[3][2:]
    # each value's rows are the ones export writes for its run
    for value in (1, 2):
        variant = json.loads(json.dumps(cfg))
        variant["weights"]["V2"]["value"] = value
        capsys.readouterr()
        assert main(["export", str(out / config_hash(variant)
                                   / "manifest.json")]) == 0
        exported = capsys.readouterr().out.splitlines()
        assert exported[0] == lines[0].split(",", 1)[1]
        assert [f"{value},{row}" for row in exported[1:]] == [
            line for line in lines[1:] if line.startswith(f"{value},")]


def test_set_axis_broadcasts_scalars_over_lists():
    cfg = base_config()
    _set_axis(cfg, "domain.shape", 96)
    assert cfg["domain"]["shape"] == [96]
    _set_axis(cfg, "weights.V1.value", 2.5)
    assert cfg["weights"]["V1"]["value"] == 2.5
    with pytest.raises(ValidationError):
        _set_axis(cfg, "domain.missing.deep", 1)


@pytest.mark.parametrize("axis", ["tasks.x", "tasks.x.name",
                                  "domain.shape.x", "tasks.7"])
def test_sweep_axis_not_in_config_exits_2(tmp_path, capsys, axis):
    path = write_config(tmp_path, base_config())
    out = tmp_path / "runs"
    assert main(["sweep", str(path), "--axis", axis, "--values", "1",
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists() or not any(out.iterdir())


def test_sweep_checks_every_value_before_the_first_run(tmp_path, capsys):
    path = write_config(tmp_path, base_config())
    out = tmp_path / "runs"
    assert main(["sweep", str(path), "--axis", "weights.V1.value",
                 "--values", "0.5,abc", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("weights, axis, values, message", [
    ({"V1": {"kind": "file", "path": "missing.csv"}}, "weights.V1.path",
     '"w.csv"', "missing.csv"),
    (7, "weights", "{}", "weights must be an object"),
    ({"V1": {}}, "weights", "{}", "weights.V1 must be an object"),
    ({"V1": {"kind": "file", "path": 0}}, "weights.V1.path", '"w.csv"',
     "weights.V1.path must be a string"),
    ({"V1": {"kind": "file"}}, "weights", "{}",
     "weights.V1.path must be a string"),
    ({"V1": {"kind": "constant", "value": 1.0}}, "weights.V1.value", ",",
     "--values must list at least one value"),
], ids=["missing_file", "weights_not_object", "weight_without_kind",
        "path_not_string", "file_without_path", "no_values"])
def test_sweep_checks_the_base_config_before_the_first_run(
        tmp_path, capsys, weights, axis, values, message):
    # the base config names the sweep directory: a weights section its
    # key cannot read exits 2 before the run of the one valid value is
    # written, even where the swept value replaces the malformed entry
    seg = segment_measure(np.array([[0.25], [0.75]]), 24)
    write_measure(seg, tmp_path / "w.csv", Perturbation.constant(seg, 1.0))
    path = write_config(tmp_path, base_config(weights=weights))
    out = tmp_path / "runs"
    assert main(["sweep", str(path), "--axis", axis, "--values", values,
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize("root", ["--out", "--out-sub", "env"])
def test_output_root_that_is_a_file_exits_2(tmp_path, capsys, monkeypatch,
                                            command, root):
    path = write_config(tmp_path, base_config())
    afile = tmp_path / "afile"
    afile.write_text("not a directory\n")
    argv = [command, str(path)]
    if command == "sweep":
        argv += ["--axis", "weights.V1.value", "--values", "0.5,1.0"]
    if root == "env":
        monkeypatch.setenv(cli.OUT_ENV_VAR, str(afile))
    else:
        argv += ["--out", str(afile / "sub" if root == "--out-sub" else afile)]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: output root")
    assert afile.read_text() == "not a directory\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["afile", "cfg.json"]


def test_sweep_builds_each_run_once(tmp_path, monkeypatch):
    calls = []
    original = cli.validate_config

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, "validate_config", counting)
    path = write_config(tmp_path, base_config())
    assert main(["sweep", str(path), "--axis", "weights.V1.value",
                 "--values", "0.5,1.0,2.0", "--out",
                 str(tmp_path / "runs")]) == 0
    assert len(calls) == 3


def _counting(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


def _run_files(run_dir):
    # every output of a run but the manifest, which carries a timestamp
    return {str(p.relative_to(run_dir)): p.read_bytes()
            for p in sorted(run_dir.rglob("*"))
            if p.is_file() and p.name != "manifest.json"}


@pytest.mark.parametrize("axis, values, operators, sides", [
    ("weights.V1.scale", "0.3,0.6", 1, 1),
    ("seed", "1,2", 1, 1),
    ("measure.count", "20,24", 1, 2),
    ("operator.t", "1.0,2.0", 2, 2),
])
def test_sweep_shares_the_operator_while_domain_and_operator_hold(
        tmp_path, monkeypatch, axis, values, operators, sides):
    # runs with the domain and operator of the run before reuse its A and
    # its factor, and with its measure also its restriction and atom side;
    # every output equals that of the run made on its own
    cfg = base_config(weights={"V1": {"kind": "random", "scale": 0.5}},
                      tasks=["resolvent_diff", {"name": "power_diff", "m": 3},
                             {"name": "power_diff", "m": 2}])
    alone = []
    for value in values.split(","):
        variant = json.loads(json.dumps(cfg))
        _set_axis(variant, axis, json.loads(value))
        alone.append(run_manifest(tmp_path, variant, "alone.json")[1])
    assembled = _counting(monkeypatch, cli, "assemble_neumann")
    factored = _counting(monkeypatch, elliptic, "_block_ldl")
    built = _counting(monkeypatch, birman_schwinger._AtomSide, "__init__")
    path = write_config(tmp_path, cfg)
    out = tmp_path / "sweep"
    assert main(["sweep", str(path), "--axis", axis, "--values", values,
                 "--out", str(out)]) == 0
    assert len(assembled) == operators
    assert len(factored) == operators + 2  # A, and A + C1 per run
    assert len(built) == sides
    for run_dir in alone:
        assert _run_files(out / run_dir.name) == _run_files(run_dir)


def test_sweep_shares_one_side_across_equal_restrictions(tmp_path,
                                                        monkeypatch):
    # each run of a seed sweep builds its own restriction; the operator's
    # atom side is keyed by the restriction's content, so one side serves
    cfg = base_config(weights={"V1": {"kind": "random", "scale": 0.5}},
                      tasks=["resolvent_diff", {"name": "power_diff"}])
    built = _counting(monkeypatch, birman_schwinger._AtomSide, "__init__")
    restrictions = []
    original = cli.bs_operator

    def recording(a, gamma, p):
        restrictions.append(gamma)
        return original(a, gamma, p)

    monkeypatch.setattr(cli, "bs_operator", recording)
    path = write_config(tmp_path, cfg)
    assert main(["sweep", str(path), "--axis", "seed", "--values", "1,2",
                 "--out", str(tmp_path / "sweep")]) == 0
    assert len(built) == 1
    assert len(restrictions) == 2
    assert restrictions[0] is not restrictions[1]


def test_weights_on_different_supports_share_one_side(tmp_path, monkeypatch):
    # a step V1 on 39 of 64 atoms against a constant V2: every task reads
    # the one side of the restriction, which covers all atoms
    cfg = base_config(
        domain={"bbox": [[0.0, 1.0]], "shape": [256]},
        measure={"kind": "segment", "start": [0.25], "end": [0.75],
                 "count": 64},
        weights={"V1": {"kind": "step", "box": [[0.3, 0.6]], "inside": 1.5},
                 "V2": {"kind": "constant", "value": 1.0}},
        tasks=["resolvent_diff", "two_weight_diff",
               {"name": "power_diff", "m": 2}, "two_weight_diff"])
    built = _counting(monkeypatch, birman_schwinger._AtomSide, "__init__")
    manifest, _ = run_manifest(tmp_path, cfg)
    assert len(manifest["tasks"]) == 4
    assert len(built) == 1


def test_krein_feller_run_solves_gamma_once_and_takes_no_qr(tmp_path,
                                                           monkeypatch):
    # the Birman-Schwinger core needs R'R = G = gamma X: one solve of the
    # k columns of gamma' for X, and no QR of an N x k array
    cfg = base_config(weights={"V1": {"kind": "random", "scale": 0.5}},
                      tasks=["krein_feller"])
    columns = []
    solve = elliptic.OperatorMatrix.solve

    def counting(self, rhs, **kwargs):
        columns.append(np.shape(rhs)[1:])
        return solve(self, rhs, **kwargs)

    monkeypatch.setattr(elliptic.OperatorMatrix, "solve", counting)
    qr = _counting(monkeypatch, np.linalg, "qr")
    run_manifest(tmp_path, cfg)
    assert columns == [(cfg["measure"]["count"],)]
    assert qr == []


def test_difference_run_solves_each_product_once(tmp_path, monkeypatch):
    # a fresh run of every difference of one weight pair on the 57 x 15
    # segment makes 16 solves: X, the growth of the basis to m = 3 (2),
    # A's products per power (1 + 2 + 3), and one sweep of m solves per
    # weight and power (A + C1 at m = 1, 2, 3 and A + C2 at m = 1:
    # 1 + 2 + 3 + 1), in which the basis rides with gamma' for ceil(m / 2)
    # solves; the power differences' identity paths solve nothing, and
    # rd's sweep of A + C1 is the one tw reads. With 64 atoms and Krylov
    # blocks 37 wide (r = 37, 74, 111 for m = 1, 2, 3) that is 1474
    # columns
    cfg = base_config(
        seed=7,
        domain={"bbox": [[0.0, 1.6], [0.0, 0.4]], "shape": [57, 15]},
        measure={"kind": "segment", "start": [0.3, 0.2], "end": [1.3, 0.2],
                 "count": 64},
        weights={"V1": {"kind": "random", "scale": 0.5},
                 "V2": {"kind": "constant", "value": 1.0}},
        tasks=["resolvent_diff", "two_weight_diff",
               {"name": "power_diff", "m": 2},
               {"name": "power_diff", "m": 3}])
    columns = []
    solve = elliptic.OperatorMatrix.solve

    def counting(self, rhs, **kwargs):
        columns.append(np.shape(rhs)[1])
        return solve(self, rhs, **kwargs)

    monkeypatch.setattr(elliptic.OperatorMatrix, "solve", counting)
    manifest, _ = run_manifest(tmp_path, cfg)
    assert len(manifest["tasks"]) == 4
    assert (len(columns), sum(columns)) == (16, 1474)


def test_sweep_t_doubling_retry_assembles_its_own_operator(tmp_path,
                                                          monkeypatch):
    # V1 = -2 fails the margin at t = 1 and passes at t = 2; the next run,
    # V1 = 1 at t = 1, still shares the sweep's first A
    cfg = base_config(tasks=["resolvent_diff", {"name": "power_diff"}])
    alone = run_manifest(tmp_path, base_config(
        weights={"V1": {"kind": "constant", "value": 1.0}},
        tasks=cfg["tasks"]), "alone.json")[1]
    assembled = _counting(monkeypatch, cli, "assemble_neumann")
    path = write_config(tmp_path, cfg)
    out = tmp_path / "sweep"
    assert main(["sweep", str(path), "--axis", "weights.V1.value",
                 "--values=-2.0,1.0", "--out", str(out)]) == 0
    assert len(assembled) == 2
    manifests = [json.loads(p.read_text()) for p in out.glob("*/manifest.json")]
    manifests = {m["config"]["weights"]["V1"]["value"]: m for m in manifests}
    assert manifests[-2.0]["t_effective"] == 2.0
    assert manifests[1.0]["t_effective"] == 1.0
    assert _run_files(out / alone.name) == _run_files(alone)


def test_config_hash_ignores_key_order():
    cfg = base_config()
    shuffled = json.loads(json.dumps(dict(reversed(list(cfg.items())))))
    assert config_hash(cfg) == config_hash(shuffled)
    cfg2 = base_config(seed=4)
    assert config_hash(cfg) != config_hash(cfg2)


def test_export_formats(tmp_path, capsys):
    cfg = base_config()
    path = write_config(tmp_path, cfg)
    out = tmp_path / "runs"
    main(["run", str(path), "--out", str(out)])
    manifest_path = out / config_hash(cfg) / "manifest.json"
    capsys.readouterr()

    assert main(["export", str(manifest_path), "--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "task,theta_hat,coeff_hat,r_squared,residual"
    assert lines[1].startswith("resolvent_diff,")

    assert main(["export", str(manifest_path), "--format", "json"]) == 0
    dumped = json.loads(capsys.readouterr().out)
    assert dumped == json.loads(manifest_path.read_text())

    assert main(["export", str(tmp_path / "nope.json")]) == 2


@pytest.mark.parametrize("manifest", [
    {"tasks": 5},
    {"tasks": [1]},
    {"tasks": [{"summary": 3}]},
    {"tasks": [{"name": 7, "summary": {}}]},
    {"tasks": [{"summary": {"fit": [1.0]}}]},
    {"tasks": [{"summary": {"fit": {"theta": "0.5"}}}]},
    {"tasks": [{"summary": {"residual": 10 ** 400}}]},
    {"tasks": [{"name": "power_diff", "params": [3], "summary": {}}]},
    {"tasks": [{"name": "power_diff", "params": {"m": 2.5}, "summary": {}}]},
], ids=["tasks_not_list", "task_not_object", "summary_not_object",
        "name_not_string", "fit_not_object", "theta_not_number",
        "residual_huge_integer", "params_not_object", "m_not_integer"])
def test_export_malformed_manifest_exits_2(tmp_path, capsys, manifest):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    assert main(["export", str(path), "--format", "csv"]) == 2
    out, err = capsys.readouterr()
    assert err.startswith("error:")
    assert out == ""  # nothing is printed before the manifest is checked


def test_export_tells_powers_apart(tmp_path, capsys):
    # two power_diff tasks export two rows, each task cell with its m
    cfg = base_config(tasks=[{"name": "power_diff", "m": 2},
                             {"name": "power_diff", "m": 3}])
    path = write_config(tmp_path, cfg)
    out = tmp_path / "runs"
    assert main(["run", str(path), "--out", str(out)]) == 0
    capsys.readouterr()
    manifest_path = out / config_hash(cfg) / "manifest.json"
    assert main(["export", str(manifest_path), "--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3
    assert lines[1].startswith("power_diff(m=2),")
    assert lines[2].startswith("power_diff(m=3),")
    assert lines[1] != lines[2]


def cantor_config(**overrides):
    cfg = base_config(
        domain={"bbox": [[0.0, 1.0]], "shape": [256]},
        measure={"kind": "ifs", "depth": 5, "maps": [
            {"ratio": 1.0 / 3.0, "translation": [0.0]},
            {"ratio": 1.0 / 3.0, "translation": [2.0 / 3.0]}]},
    )
    cfg.update(overrides)
    return cfg


# SciPy subpackages no run path may load; pytest itself has loaded them,
# so each run is made in a fresh interpreter
UNUSED_SCIPY = ("scipy.signal", "scipy.optimize", "scipy.stats",
                "scipy.spatial")


@pytest.mark.parametrize("task", TASK_NAMES)
def test_run_loads_only_linalg_and_sparse_from_scipy(tmp_path, task):
    cfg = (cantor_config if task == "krein_feller" else box_config)(
        tasks=[task])
    path = write_config(tmp_path, cfg)
    script = (
        "import json, sys\n"
        "from deltaspec.cli import main\n"
        f"code = main(['run', {str(path)!r}, '--out', "
        f"{str(tmp_path / 'runs')!r}])\n"
        f"print(json.dumps([code, [m for m in {UNUSED_SCIPY!r} "
        "if m in sys.modules]]))\n")
    src_root = str(Path(deltaspec.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src_root, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=120, cwd=tmp_path, env=env)
    assert proc.returncode == 0, proc.stderr
    code, loaded = json.loads(proc.stdout.splitlines()[-1])
    assert code == 0, proc.stderr
    assert loaded == []
    if task == "krein_feller":  # the periodogram and the Moran root ran
        manifest = json.loads(
            (tmp_path / "runs" / config_hash(cfg) / "manifest.json")
            .read_text())
        assert manifest["tasks"][0]["summary"]["log_periodic"] is not None


def test_run_path_loads_no_scipy(tmp_path):
    # one fresh interpreter: the import, then one run of each task
    paths = [str(write_config(tmp_path, (
        cantor_config if task == "krein_feller" else box_config)(
            tasks=[task]), name=f"{task}.json")) for task in TASK_NAMES]
    script = (
        "import json, sys\n"
        "from deltaspec.cli import main\n"
        "def loaded():\n"
        "    return sorted(m for m in sys.modules\n"
        "                  if m == 'scipy' or m.startswith('scipy.'))\n"
        "after_import = loaded()\n"
        f"codes = [main(['run', p, '--out', {str(tmp_path / 'runs')!r}])\n"
        f"         for p in {paths!r}]\n"
        "print(json.dumps([after_import, codes, loaded()]))\n")
    src_root = str(Path(deltaspec.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src_root, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=120, cwd=tmp_path, env=env)
    assert proc.returncode == 0, proc.stderr
    after_import, codes, after_runs = json.loads(proc.stdout.splitlines()[-1])
    assert codes == [0] * len(TASK_NAMES), proc.stderr
    assert after_import == []
    assert after_runs == []


def test_constant_weights_leave_numpy_random_unloaded(tmp_path):
    # only a random weight builds a Philox stream: a run of constant
    # weights in a fresh interpreter never imports numpy.random, and a
    # run with a random V1 after it does
    cfgs = [base_config(tasks=["resolvent_diff", {"name": "power_diff"}]),
            base_config(weights={"V1": {"kind": "random", "scale": 0.5}})]
    script = (
        "import json, sys\n"
        "from deltaspec.cli import run_config\n"
        "loaded = []\n"
        f"for cfg in {cfgs!r}:\n"
        f"    run_config(cfg, {str(tmp_path / 'runs')!r})\n"
        "    loaded.append('numpy.random' in sys.modules)\n"
        "print(json.dumps(loaded))\n")
    src_root = str(Path(deltaspec.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src_root, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=120, cwd=tmp_path, env=env)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [False, True]


# Values a mutated config key may take. Every integer is small or beyond
# the float range, so no mutation asks for a huge grid or atom count.
FUZZ_NUMBERS = st.one_of(
    st.integers(-3, 16), st.floats(-1e3, 1e3),
    st.sampled_from([0.0, 1e-300, 1e300, -1e300, 10 ** 400]))
# config keys, so an added key is sometimes one the schema knows
FUZZ_KEYS = ["analysis", "weights", "V2", "window", "head_drop", "floor",
             "margin", "scale", "nonneg", "outside", "m", "atom_cap", "kind",
             "value", "extra"]
FUZZ_VALUES = st.recursive(
    st.one_of(
        st.none(), st.booleans(), FUZZ_NUMBERS,
        st.sampled_from([math.inf, -math.inf, math.nan]),
        st.text(max_size=4), st.sampled_from(TASK_NAMES),
        st.sampled_from(["constant", "random", "step", "ifs", "segment"]),
    ),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.sampled_from(FUZZ_KEYS), inner, max_size=3)),
    max_leaves=6,
)


def _config_paths(obj, prefix=()):
    yield prefix
    items = (obj.items() if isinstance(obj, dict)
             else enumerate(obj) if isinstance(obj, list) else ())
    for key, value in items:
        yield from _config_paths(value, prefix + (key,))


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


@st.composite
def mutated_configs(draw):
    make = draw(st.sampled_from([base_config, box_config, cantor_config,
                                 box3d_config]))
    cfg = make(tasks=draw(st.lists(st.sampled_from(TASK_NAMES), min_size=1,
                                   max_size=2)))
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_config_paths(cfg))[1:]))
        parent = cfg
        for key in path[:-1]:
            parent = parent[key]
        op = draw(st.sampled_from(["drop", "retype", "renumber", "add_key"]))
        if op == "add_key" and isinstance(parent, dict):
            parent[draw(st.sampled_from(FUZZ_KEYS))] = draw(FUZZ_VALUES)
        elif op == "drop":
            del parent[path[-1]]
        elif op == "renumber" and _is_number(parent[path[-1]]):
            parent[path[-1]] = draw(FUZZ_NUMBERS)  # out-of-range numbers
        else:
            parent[path[-1]] = draw(FUZZ_VALUES)
    return cfg


@given(cfg=mutated_configs())
@settings(max_examples=60, deadline=5000, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_mutated_configs_exit_cleanly(cfg):
    # any config ends in exit 0, 2, 3 or 4 with a message, never an
    # exception out of main
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(cfg))
        err = StringIO()
        with redirect_stdout(StringIO()), redirect_stderr(err):
            code = main(["run", str(path), "--out", str(Path(tmp) / "runs")])
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in err.getvalue()
    if code:
        assert err.getvalue().strip()


@pytest.mark.parametrize("suite", ["identities", "kyfan"])
def test_verify_suites_pass(suite, capsys):
    assert main(["verify", suite]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    assert "FAIL" not in out


def test_verify_unknown_suite_exits_2(capsys):
    assert main(["verify", "nope"]) == 2
    assert "unknown suite" in capsys.readouterr().err


def test_console_script_smoke(tmp_path):
    # Run the declared [project.scripts] target the way a pip-generated
    # wrapper does, so the check needs no install; an installed script on
    # PATH is run as well.
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        entry = tomllib.load(fh)["project"]["scripts"]["deltaspec"]
    module, _, attr = entry.partition(":")
    wrapper = f"import sys; from {module} import {attr}; sys.exit({attr}())"
    src_root = str(Path(deltaspec.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src_root, os.environ.get("PYTHONPATH")])))
    commands = [[sys.executable, "-c", wrapper]]
    exe = shutil.which("deltaspec")
    if exe is not None:
        commands.append([exe])
    for cmd in commands:
        proc = subprocess.run(cmd + ["verify", "kyfan"], capture_output=True,
                              text=True, timeout=120, cwd=tmp_path, env=env)
        assert proc.returncode == 0, proc.stderr
        assert "checks passed" in proc.stdout
        # a nonzero code from main must reach the process exit status
        proc = subprocess.run(cmd + ["verify", "nope"], capture_output=True,
                              text=True, timeout=120, cwd=tmp_path, env=env)
        assert proc.returncode == 2, proc.stderr
