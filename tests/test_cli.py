"""End-to-end checks of the config runner: exit codes, manifests, determinism."""

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import deltaspec
from deltaspec.cli import TASK_NAMES, _set_axis, config_hash, main
from deltaspec.errors import ValidationError
from deltaspec.io import write_measure
from deltaspec.measures import segment_measure
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
    cfg = base_config(analysis={"head_drop": 0.1})
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
    assert summaries["resolvent_diff"]["margin"] is None  # nonnegative V1
    assert summaries["power_diff"]["m"] == 2


@pytest.mark.parametrize("task", TASK_NAMES)
def test_explicit_window_is_the_fitted_window(tmp_path, task):
    cfg = box_config(tasks=[task], analysis={"window": [5, 25]})
    manifest, _ = run_manifest(tmp_path, cfg)
    assert manifest["tasks"][0]["summary"]["fit"]["window"] == [5, 25]


@pytest.mark.parametrize("task", TASK_NAMES)
def test_out_of_range_window_exits_2(tmp_path, capsys, task):
    cfg = box_config(tasks=[task], analysis={"window": [5, 100000]})
    path = write_config(tmp_path, cfg)
    assert main(["run", str(path), "--out", str(tmp_path / "runs")]) == 2
    assert "out of range" in capsys.readouterr().err


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


def test_file_weight_resolves_relative_to_config(tmp_path):
    seg = segment_measure(np.array([[0.25], [0.75]]), 24)
    vals = np.linspace(0.1, 1.0, 24)
    write_measure(seg, tmp_path / "v.csv", Perturbation(seg, vals))
    cfg = base_config(weights={"V1": {"kind": "file", "path": "v.csv"}})
    path = write_config(tmp_path, cfg)
    out = tmp_path / "runs"
    assert main(["run", str(path), "--out", str(out)]) == 0
    written = (out / config_hash(cfg) / "measure.csv").read_text()
    assert written.splitlines()[0].endswith(",V")


def test_sweep_writes_combined_summary(tmp_path):
    cfg = base_config()
    path = write_config(tmp_path, cfg)
    out = tmp_path / "runs"
    rc = main(["sweep", str(path), "--axis", "weights.V1.value",
               "--values", "0.5,1.0", "--out", str(out)])
    assert rc == 0
    sweep_csv = out / f"sweep-{config_hash(cfg)}-weights_V1_value" / "summary.csv"
    lines = sweep_csv.read_text().splitlines()
    assert lines[0] == "axis_value,theta_hat,coeff_hat,r_squared"
    assert len(lines) == 3
    assert lines[1].startswith("0.5,")
    assert len(list(out.glob("*/manifest.json"))) == 2


def test_set_axis_broadcasts_scalars_over_lists():
    cfg = base_config()
    _set_axis(cfg, "domain.shape", 96)
    assert cfg["domain"]["shape"] == [96]
    _set_axis(cfg, "weights.V1.value", 2.5)
    assert cfg["weights"]["V1"]["value"] == 2.5
    with pytest.raises(ValidationError):
        _set_axis(cfg, "domain.missing.deep", 1)


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


@pytest.mark.parametrize(
    "suite", ["identities", "kyfan", "norms", "measures", "oracles"])
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
        proc = subprocess.run(cmd + ["verify", "norms"], capture_output=True,
                              text=True, timeout=120, cwd=tmp_path, env=env)
        assert proc.returncode == 0, proc.stderr
        assert "checks passed" in proc.stdout
        # a nonzero code from main must reach the process exit status
        proc = subprocess.run(cmd + ["verify", "nope"], capture_output=True,
                              text=True, timeout=120, cwd=tmp_path, env=env)
        assert proc.returncode == 2, proc.stderr
