"""deltaspec benchmark: four paper workloads, timed end to end.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the program is taken from ``src/``
of the checkout this file sits in. One process drives one workload at a
time and pins the BLAS threads to the number of usable cores.

Workloads (see README.md for sizes and why each was chosen):

* ``segment2d-weyl``, ``cantor-kf``, ``robin2d``: one repetition is one
  ``deltaspec`` CLI invocation in a fresh interpreter writing to a fresh
  output root, so every repetition computes.
* ``identity-draws``: rounds of seeded weight draws through the library
  API, run by ``draws.py`` in a worker process.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` repetitions alternate untraced
and traced (``tracer.py``) and it carries the per-layer metrics and the
tracing overhead. Metric names and units come from ``BENCHMARK.json``.
Every repetition and set-up sample is preceded by the reference job of
``reference.py``, and times are reported at its nominal host speed.
Outputs are checked against independent computations (``checks.py``);
a wrong output sets ``correct`` to false, and an invocation that fails or
is answered from the run cache counts as a failed operation.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
PY = sys.executable

CLI_SETUP_SAMPLES = 3
DRAWS_SETUP_SAMPLES = 3
MIN_REPS = 3

# perfbench/ is on sys.path as the directory of the script being run
import checks  # noqa: E402
from reference import measure_reference, scale  # noqa: E402

# ----------------------------------------------------------- workloads

SEGMENT_ATOMS = 64
SEGMENT_GAPS = (2.0, 3.0)  # V1 values against V2 = 1
SEGMENT_WINDOW = (8, 32)  # decay regime of the 57 x 15 spectrum
SEGMENT_SLOPE_TOL = 0.45
ROBIN_WINDOW = (20, 80)  # past the boundary-layer head, before the tail
ROBIN_SLOPE_TOL = 0.5
CANTOR_DEPTH = 8
CANTOR_THETA_TOL = 0.02
LOG_PERIODIC_MAX = 3.0
RATIO_TOL = 0.10


def segment_config(seed):
    return {
        "schema_version": 1,
        "seed": seed,
        "domain": {"bbox": [[0.0, 1.6], [0.0, 0.4]], "shape": [57, 15]},
        "operator": {"coefficients": 1.0, "t": 1.0},
        "measure": {"kind": "segment", "start": [0.3, 0.2], "end": [1.3, 0.2],
                    "count": SEGMENT_ATOMS},
        "weights": {"V1": {"kind": "constant", "value": SEGMENT_GAPS[0]},
                    "V2": {"kind": "constant", "value": 1.0}},
        "tasks": ["two_weight_diff"],
    }


def cantor_config(seed):
    third = 1.0 / 3.0
    return {
        "schema_version": 1,
        "seed": seed,
        "domain": {"bbox": [[0.0, 1.0]], "shape": [4096]},
        "operator": {"coefficients": 1.0, "t": 1.0},
        "measure": {"kind": "ifs", "depth": CANTOR_DEPTH, "maps": [
            {"ratio": third, "translation": [0.0]},
            {"ratio": third, "translation": [2.0 * third]},
        ]},
        "weights": {"V1": {"kind": "constant", "value": 1.0}},
        "tasks": ["krein_feller"],
    }


def robin_config(seed):
    return {
        "schema_version": 1,
        "seed": seed,
        "domain": {"bbox": [[0.0, 1.0], [0.0, 1.0]], "shape": [41, 41]},
        "operator": {"coefficients": 1.0, "t": 1.0},
        "measure": {"kind": "boundary"},
        "weights": {"V1": {"kind": "constant", "value": 1.0},
                    "V2": {"kind": "constant", "value": 3.0}},
        "tasks": ["robin_diff"],
    }


def _task(manifest_path):
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    task = manifest["tasks"][0]
    run_dir = Path(manifest_path).parent

    def out(key):
        return run_dir / task["outputs"][key]
    return manifest, task["summary"], out


def check_segment(manifest_paths):
    problems = []
    if len(manifest_paths) != len(SEGMENT_GAPS):
        return [f"sweep wrote {len(manifest_paths)} runs, expected "
                f"{len(SEGMENT_GAPS)}"]
    theta = checks.theta_resolvent(d=1.0, n_dim=2)
    coeffs = {}
    for path in manifest_paths:
        manifest, summary, out = _task(path)
        v1 = manifest["config"]["weights"]["V1"]["value"]
        where = f"segment2d-weyl V1={v1}"
        values = checks.read_singulars(out("singulars"))
        problems += checks.check_residual(summary["residual"], where)
        problems += checks.check_manifest_fit(values, summary["fit"], where)
        problems += checks.check_kept(values.size, SEGMENT_ATOMS, where)
        problems += checks.check_no_negatives(
            checks.read_counting(out("counting")), where)
        if values.size < SEGMENT_WINDOW[1]:
            problems.append(f"{where}: {values.size} values, too few for the "
                            f"window {SEGMENT_WINDOW}")
            continue
        slope, coeffs[v1] = checks.refit(values, SEGMENT_WINDOW)
        problems += checks.check_slope(slope, -1.0 / theta, SEGMENT_SLOPE_TOL,
                                       where)
    if len(coeffs) == len(SEGMENT_GAPS):
        lo, hi = (coeffs[v] for v in SEGMENT_GAPS)
        # Weyl coefficients scale as (V1 - V2)^theta
        target = ((SEGMENT_GAPS[1] - 1.0) / (SEGMENT_GAPS[0] - 1.0)) ** theta
        if abs(hi / lo - target) > RATIO_TOL * target:
            problems.append(f"segment2d-weyl: coefficient ratio {hi / lo:.4f}, "
                            f"want {target:.4f} +- {RATIO_TOL:.0%}")
    return problems


def check_cantor(manifest_paths):
    (path,) = manifest_paths
    _, summary, out = _task(path)
    where = "cantor-kf"
    counting = checks.read_counting(out("counting"))
    fit = summary["counting_fit"]
    if fit is None:
        return [f"{where}: the manifest has no counting fit"]
    theta = checks.counting_theta(counting, summary["floor"], fit["window"])
    want = checks.theta_birman_schwinger(checks.cantor_dimension(), n_dim=1)
    problems = []
    if abs(theta - fit["theta"]) > checks.SLOPE_MATCH:
        problems.append(f"{where}: manifest theta {fit['theta']:.6f}, refit "
                        f"{theta:.6f}")
    if abs(theta - want) > CANTOR_THETA_TOL:
        problems.append(f"{where}: counting theta {theta:.4f}, want "
                        f"{want:.4f} +- {CANTOR_THETA_TOL}")
    ratio = checks.log_periodic_maxmin(counting, theta)
    if not ratio < LOG_PERIODIC_MAX:
        problems.append(f"{where}: log-periodic max/min {ratio:.2f}")
    atoms = checks.count_rows(Path(path).parent / "measure.csv")
    problems += checks.check_kept(summary["values_kept"], atoms, where)
    problems += checks.check_no_negatives(counting, where)
    return problems


def check_robin(manifest_paths):
    (path,) = manifest_paths
    _, summary, out = _task(path)
    where = "robin2d"
    values = checks.read_singulars(out("singulars"))
    theta = checks.theta_resolvent(d=1.0, n_dim=2)
    problems = checks.check_manifest_fit(values, summary["fit"], where)
    if values.size < ROBIN_WINDOW[1]:
        return problems + [f"{where}: {values.size} values, too few for the "
                           f"window {ROBIN_WINDOW}"]
    slope, _ = checks.refit(values, ROBIN_WINDOW)
    problems += checks.check_slope(slope, -1.0 / theta, ROBIN_SLOPE_TOL, where)
    atoms = checks.count_rows(Path(path).parent / "measure.csv")
    problems += checks.check_kept(values.size, atoms, where)
    problems += checks.check_no_negatives(checks.read_counting(out("counting")),
                                          where)
    return problems


CLI_WORKLOADS = {
    # name: (config builder, CLI arguments after the config path, checker)
    "segment2d-weyl": (segment_config,
                       ["sweep", "--axis", "weights.V1.value", "--values",
                        ",".join(f"{v:g}" for v in SEGMENT_GAPS)],
                       check_segment),
    "cantor-kf": (cantor_config, ["run"], check_cantor),
    "robin2d": (robin_config, ["run"], check_robin),
}
WORKLOADS = tuple(CLI_WORKLOADS) + ("identity-draws",)

# ------------------------------------------------------------ processes


def child_env():
    env = dict(os.environ)
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


def measure(cmd, log_path, env):
    """Run a child to completion: (wall s, CPU s, peak RSS MB, exit code)."""
    with open(log_path, "w") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT,
                                env=env, cwd=ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    cpu = usage.ru_utime + usage.ru_stime
    return wall, cpu, usage.ru_maxrss / 1024.0, proc.returncode


def tail(path, lines=20):
    text = Path(path).read_text(errors="replace").splitlines()
    return "\n".join(text[-lines:])


# ------------------------------------------------------------ runners


def run_cli(name, args, work):
    build, cli_args, check = CLI_WORKLOADS[name]
    env = child_env()
    config = work / "config.json"
    config.write_text(json.dumps(build(args.seed), indent=2))

    reps, traces, problems = [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    last = 0.0
    while len(reps) < MIN_REPS or time.perf_counter() - start + last <= args.seconds:
        i = len(reps)
        t0 = time.perf_counter()
        ref = measure_reference(env)
        traced = bool(args.trace) and i % 2 == 1
        out_root = work / f"rep{i}"
        trace_path = work / f"trace{i}.json"
        argv = [cli_args[0], str(config), *cli_args[1:], "--out", str(out_root)]
        cmd = ([PY, str(HERE / "cli_traced.py"), str(trace_path), *argv]
               if traced else [PY, "-m", "deltaspec.cli", *argv])
        log = work / f"rep{i}.log"
        started = time.time()
        wall, cpu, rss, code = measure(cmd, log, env)
        attempted += 1
        manifests = sorted(out_root.glob("*/manifest.json"))
        stale = [] if code else checks.check_fresh(log.read_text(), manifests,
                                                   started)
        ok = not (code or stale)
        if not ok:
            failed += 1
            print(f"{name} rep {i}: failed (exit {code}) {stale}\n{tail(log)}",
                  file=sys.stderr)
        else:
            try:
                problems += check(manifests)
            except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
                problems.append(f"{name} rep {i}: unreadable output: {exc!r}")
        if traced and trace_path.is_file():
            with open(trace_path) as fh:
                traces.append(json.load(fh))
        reps.append({"wall": wall, "cpu": cpu, "rss": rss, "traced": traced,
                     "ok": ok, "ref": ref})
        print(f"{name} rep {i}: {wall:.3f} s wall, {cpu:.3f} s cpu, "
              f"{rss:.0f} MB, reference {ref[0]:.3f} s"
              f"{' (traced)' if traced else ''}", file=sys.stderr)
        shutil.rmtree(out_root, ignore_errors=True)
        last = time.perf_counter() - t0
    # set-up: a fresh interpreter importing deltaspec.cli, measured after
    # the repetitions so the bytecode cache is warm
    importer = [PY, "-c", "import deltaspec.cli"]
    setup = []
    for _ in range(CLI_SETUP_SAMPLES):
        ref = measure_reference(env)
        wall, _, _, code = measure(importer, work / "setup.log", env)
        if code != 0:
            raise SystemExit(f"importing deltaspec.cli failed:\n"
                             f"{tail(work / 'setup.log')}")
        setup.append(scale(wall, 0.0, ref)[0])
    return {"setup": setup, "reps": reps, "traces": traces,
            "problems": problems, "attempted": attempted, "failed": failed}


def run_draws(args, work):
    env = child_env()
    worker = [PY, str(HERE / "draws.py")]
    setup = []
    for i in range(DRAWS_SETUP_SAMPLES - 1):
        out = work / f"setup{i}.json"
        ref = measure_reference(env)
        *_, code = measure(worker + ["--setup-only", "--out", str(out)],
                           work / "setup.log", env)
        if code != 0:
            raise SystemExit(f"draws set-up failed:\n{tail(work / 'setup.log')}")
        setup.append(scale(json.loads(out.read_text())["setup_s"], 0.0, ref)[0])
    out = work / "draws.json"
    cmd = worker + ["--seed", str(args.seed), "--seconds", str(args.seconds),
                    "--trace", str(args.trace), "--out", str(out)]
    ref = measure_reference(env)
    _, _, rss, code = measure(cmd, work / "draws.log", env)
    if code != 0:
        raise SystemExit(f"draws worker failed:\n{tail(work / 'draws.log')}")
    result = json.loads(out.read_text())
    setup.append(scale(result["setup_s"], 0.0, ref)[0])
    for i, r in enumerate(result["rounds"]):
        print(f"identity-draws round {i}: {r['wall']:.3f} s wall, "
              f"{r['cpu']:.3f} s cpu, reference {r['ref'][0]:.3f} s"
              f"{' (traced)' if r['traced'] else ''}", file=sys.stderr)
    reps = [dict(r, rss=rss, ok=not r["failed"]) for r in result["rounds"]]
    return {"setup": setup, "reps": reps, "traces": result["traces"],
            "problems": result["problems"], "attempted": result["attempted"],
            "failed": result["failed"]}


# ------------------------------------------------------------ metrics


def end_to_end(res):
    reps = [scale(r["wall"], r["cpu"], r["ref"])
            for r in res["reps"] if r["ok"] and not r["traced"]]
    return {
        "wall_s": statistics.median(wall for wall, _ in reps),
        "cpu_s": statistics.median(cpu for _, cpu in reps),
        "peak_rss_mb": statistics.median(r["rss"] for r in res["reps"]
                                         if r["ok"] and not r["traced"]),
        "setup_s": statistics.median(res["setup"]),
    }


def per_layer(res, names):
    traced = res["traces"]
    out = {}
    for name in names:
        if name == "trace.overhead_s":
            walls = [[scale(r["wall"], r["cpu"], r["ref"])[0]
                      for r in res["reps"] if r["ok"] and r["traced"] == t]
                     for t in (True, False)]
            out[name] = statistics.median(walls[0]) - statistics.median(walls[1])
            continue
        if name == "host.ref_wall_s":
            out[name] = statistics.median(r["ref"][0] for r in res["reps"])
            continue
        value = statistics.fmean(t["metrics"][name] for t in traced)
        out[name] = int(value) if float(value).is_integer() and \
            not name.endswith("_s") else value
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run unwinds through measure(), which stops its child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (SRC / "deltaspec" / "cli.py").is_file():
        print(f"error: no deltaspec sources at {SRC}; run from a deltaspec "
              "checkout", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = bench["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in section}

    failures = checks.self_test()
    if failures:
        print("error: checks self-test failed: " + "; ".join(failures),
              file=sys.stderr)
        return 1

    work = OUT / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        if args.workload in CLI_WORKLOADS:
            res = run_cli(args.workload, args, work)
        else:
            res = run_draws(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    kinds = {r["traced"] for r in res["reps"] if r["ok"]}
    if kinds != ({False, True} if args.trace else {False}) or (
            args.trace and not res["traces"]):
        print("error: no repetition succeeded that the metrics need",
              file=sys.stderr)
        return 1
    if args.trace:
        values = per_layer(res, units)
        trace_file = OUT / f"trace-{args.workload}.json"
        trace_file.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed, "metrics": values,
            "repetitions": [t["spans"] for t in res["traces"]],
        }))
    else:
        values = end_to_end(res)
    for line in res["problems"]:
        print(f"CHECK FAILED {line}", file=sys.stderr)
    if any(not math.isfinite(v) for v in values.values()):
        print("error: a metric is not finite", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": not res["problems"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
