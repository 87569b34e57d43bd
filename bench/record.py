"""Record one point of the deltaspec performance trajectory as BENCH_<n>.json.

    python3 bench/record.py

Run from a deltaspec checkout. For each of the four workloads of
``perfbench/run.py`` the script runs ``--trace 0`` (end-to-end metrics)
and ``--trace 1`` (per-layer metrics and counters), each at seed 1 for
15 s, and keeps the JSON line each run prints. It then runs the tier-1
suite (the command in ROADMAP.md) and reads the wall time of every
acceptance criterion from its ``[criterion N]`` verdict lines. The file
also holds a machine fingerprint (cores, BLAS name, version and threads,
numpy and scipy versions), the line counts of ``src/``: physical
lines, and code lines, which leave out blank lines, comment-only lines
and module, class and function docstrings, so that deleting comments or
docstrings does not read as less code, and ``config_keys``, the number
of keys the config schema in ``deltaspec/cli.py`` names.

``factor`` times the banded factor through the public API, in this
process: for each operator of ``FACTOR_CASES`` (unit boxes, t = 1; the
Robin case with V = 1 on the box boundary) it builds a fresh
``OperatorMatrix`` on the assembled band and solves one fixed 64-column
right-hand side twice. ``first_solve_s`` (factor plus sweeps) and
``second_solve_s`` (sweeps only) are medians over ``FACTOR_REPEATS``
operators.

``size_rule`` checks the size rule against runs: for ``weyl_check`` on
criterion 3's segment (n - 1 atoms, V 3 against 1 on [0, 1.6]^2) at each
n of ``SIZE_RULE_SIDES`` it records the bytes ``held_bytes`` predicts,
the tracemalloc peak of a CLI run in a child process, and the peak RSS
(``ru_maxrss``) of a second, untraced child.

The output is ``BENCH_<n>.json`` at the root of the checkout, n one more
than the highest existing file. When an earlier file exists the script
prints each metric next to its previous value; it reports the change and
does not gate on it.
"""

from __future__ import annotations

import ast
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("segment2d-weyl", "identity-draws", "cantor-kf", "robin2d")
SEED = 1
SECONDS = 15.0
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors"]
# pytest -q prints a verdict line after the progress dots of its file
VERDICT = re.compile(r"\[criterion (\d+)\] (PASS|FAIL) \((.*)\)$", re.M)
ELAPSED = re.compile(r"(\d+(?:\.\d+)?)s$")
FACTOR_CASES = ("1d-512", "1d-4096", "33x33", "57x15", "robin-41x41")
FACTOR_REPEATS = 21
FACTOR_COLUMNS = 64
SIZE_RULE_SIDES = (65, 129, 257)
# runs the CLI on the config given as JSON, tracemalloc on if asked, and
# prints the run's exit code, traced peak and peak RSS as a JSON line
SIZE_CHILD = """
import json, resource, sys, tempfile, tracemalloc
from deltaspec.cli import main
cfg, traced = json.loads(sys.argv[1]), sys.argv[2] == "1"
with tempfile.TemporaryDirectory() as tmp:
    with open(tmp + "/cfg.json", "w") as fh:
        json.dump(cfg, fh)
    if traced:
        tracemalloc.start()
    code = main(["run", tmp + "/cfg.json", "--out", tmp + "/runs"])
    peak = tracemalloc.get_traced_memory()[1] if traced else None
rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
print(json.dumps({"code": code, "peak": peak, "rss": rss}))
"""


def fingerprint() -> dict:
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    # perfbench/run.py pins the BLAS threads of its children to the cores
    # it may use; the build's own ceiling is in the OpenBLAS configuration
    ceiling = re.search(r"MAX_THREADS=(\d+)", blas.get("openblas configuration",
                                                         ""))
    return {
        "nproc": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "blas": {
            "name": blas.get("name"),
            "version": blas.get("version"),
            "threads": len(os.sched_getaffinity(0)),
            "max_threads": int(ceiling.group(1)) if ceiling else None,
        },
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": sys.version.split()[0],
    }


def code_lines(text: str) -> int:
    """Lines that are not blank, not comment-only and not inside a module,
    class or function docstring."""
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    return sum(1 for i, line in enumerate(text.splitlines(), 1)
               if i not in docstrings and line.strip()
               and not line.lstrip().startswith("#"))


def src_lines() -> dict:
    files = sorted((ROOT / "src").rglob("*.py"))
    texts = {str(f.relative_to(ROOT)): f.read_text() for f in files}
    counts = {name: len(text.splitlines()) for name, text in texts.items()}
    code = {name: code_lines(text) for name, text in texts.items()}
    return {"total": sum(counts.values()), "files": counts,
            "code_total": sum(code.values()), "code_files": code}


def _rule_pair(row) -> bool:
    # a config table row ends in its (required, optional) key tables
    return (isinstance(row, tuple) and len(row) >= 2
            and all(isinstance(table, dict) for table in row[-2:]))


def config_keys() -> int:
    """Keys the config schema names, read from ``deltaspec.cli``'s tables:
    every key of each section's (required, optional) pair and of each
    kind's, plus the key (``kind`` or ``name``) that picks a kind."""
    from deltaspec import cli

    count = 0
    for name, table in vars(cli).items():
        if not name.isupper():
            continue
        if _rule_pair(table) and len(table) == 2:  # a section
            count += len(table[0]) + len(table[1])
        elif (isinstance(table, dict) and table
              and all(_rule_pair(row) for row in table.values())):
            count += 1 + sum(len(row[-2]) + len(row[-1])
                             for row in table.values())
    return count


def _factor_operator(name: str):
    import numpy as np
    from deltaspec import (CoefficientField, Grid, Perturbation,
                           assemble_neumann, assemble_robin, boundary_measure)

    sizes = name.removeprefix("1d-").removeprefix("robin-").split("x")
    shape = tuple(int(n) for n in sizes)
    grid = Grid(np.array([[0.0, 1.0]] * len(shape)), shape)
    coeffs = CoefficientField.isotropic(1.0, len(shape))
    if name.startswith("robin-"):
        return assemble_robin(grid, coeffs, Perturbation.constant(
            boundary_measure(grid), 1.0))
    return assemble_neumann(grid, coeffs)


def factor_timings() -> dict:
    """Median seconds of a fresh operator's first solve (factor plus
    sweeps) and second solve (sweeps only) of one 64-column right-hand
    side, per case of ``FACTOR_CASES``."""
    import numpy as np
    from deltaspec import OperatorMatrix

    out = {}
    for name in FACTOR_CASES:
        band = _factor_operator(name).band
        rhs = np.random.Generator(np.random.Philox(SEED)).standard_normal(
            (band.shape[1], FACTOR_COLUMNS))
        first, second = [], []
        for _ in range(FACTOR_REPEATS):
            op = OperatorMatrix(band)
            t0 = time.perf_counter()
            op.solve(rhs)
            t1 = time.perf_counter()
            op.solve(rhs)
            first.append(t1 - t0)
            second.append(time.perf_counter() - t1)
        out[name] = {"first_solve_s": statistics.median(first),
                     "second_solve_s": statistics.median(second)}
    return out


def _segment_config(n: int) -> dict:
    return {"schema_version": 1, "seed": SEED,
            "domain": {"bbox": [[0.0, 1.6], [0.0, 1.6]], "shape": [n, n]},
            "operator": {"coefficients": 1.0, "t": 1.0},
            "measure": {"kind": "segment", "start": [0.3, 0.8],
                        "end": [1.3, 0.8], "count": n - 1},
            "weights": {"V1": {"kind": "constant", "value": 3.0},
                        "V2": {"kind": "constant", "value": 1.0}},
            "tasks": ["weyl_check"]}


def _src_env() -> dict:
    # the environment with this checkout's src/ first on PYTHONPATH
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(ROOT / "src") + (os.pathsep + old if old else "")
    return env


def _size_child(cfg: dict, traced: bool) -> dict:
    proc = subprocess.run([sys.executable, "-c", SIZE_CHILD, json.dumps(cfg),
                           str(int(traced))], env=_src_env(),
                          capture_output=True, text=True, check=False)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode or result["code"]:
        raise SystemExit(f"size rule run exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    return result


def size_rule() -> dict:
    """Predicted bytes, tracemalloc peak and peak RSS of the segment's
    ``weyl_check`` run at each n of ``SIZE_RULE_SIDES``."""
    from deltaspec.cli import validate_config
    from deltaspec.elliptic import held_bytes

    out = {}
    for n in SIZE_RULE_SIDES:
        cfg = _segment_config(n)
        inputs = validate_config(cfg)
        out[f"{n}x{n}"] = {
            "predicted_bytes": held_bytes(inputs["grid"],
                                          inputs["measure"].count),
            "traced_peak_bytes": _size_child(cfg, True)["peak"],
            "maxrss_bytes": _size_child(cfg, False)["rss"]}
    return out


def run_workload(name: str, trace: int) -> dict:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
           name, "--seed", str(SEED), "--seconds", str(SECONDS), "--trace",
           str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def criteria(log: str) -> dict:
    out = {}
    for num, verdict, detail in VERDICT.findall(log):
        found = ELAPSED.search(detail)
        out[num] = {"verdict": verdict, "detail": detail,
                    "elapsed_s": float(found.group(1)) if found else None}
    return out


def tier1_log() -> tuple[str, float]:
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *TIER1], cwd=ROOT, env=_src_env(),
                          capture_output=True, text=True, check=False)
    return proc.stdout + proc.stderr, time.perf_counter() - t0


def previous(root: Path) -> tuple[int, Path | None]:
    found = sorted((int(m.group(1)), p) for p in root.glob("BENCH_*.json")
                   if (m := re.fullmatch(r"BENCH_(\d+)\.json", p.name)))
    return (found[-1][0], found[-1][1]) if found else (0, None)


def report_change(old: dict, new: dict) -> None:
    for name, runs in new["workloads"].items():
        for mode, result in runs.items():
            before = old.get("workloads", {}).get(name, {}).get(mode)
            if before is None:
                continue
            for metric, value in result["metrics"].items():
                was = before["metrics"].get(metric, {}).get("value")
                print(f"{name} {mode} {metric}: {was} -> {value['value']}")
    for num, crit in new["criteria"].items():
        was = old.get("criteria", {}).get(num, {}).get("elapsed_s")
        print(f"criterion {num} elapsed: {was} -> {crit['elapsed_s']}")
    for name, times in new["factor"].items():
        for key, value in times.items():
            was = old.get("factor", {}).get(name, {}).get(key)
            print(f"factor {name} {key}: {was} -> {value}")
    for name, sizes in new["size_rule"].items():
        for key, value in sizes.items():
            was = old.get("size_rule", {}).get(name, {}).get(key)
            print(f"size rule {name} {key}: {was} -> {value}")
    for key, name in (("total", "lines"), ("code_total", "code lines")):
        print(f"src {name}: {old.get('src_lines', {}).get(key)} -> "
              f"{new['src_lines'][key]}")
    print(f"config keys: {old.get('config_keys')} -> {new['config_keys']}")


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    record = {"created": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
              "machine": fingerprint(), "src_lines": src_lines(),
              "config_keys": config_keys(), "factor": factor_timings(),
              "size_rule": size_rule(),
              "seed": SEED, "seconds": SECONDS, "workloads": {}}
    for name in WORKLOADS:
        record["workloads"][name] = {
            f"trace{trace}": run_workload(name, trace) for trace in (0, 1)}
        print(f"{name}: done", file=sys.stderr)
    log, tier1_s = tier1_log()
    record["criteria"] = criteria(log)
    record["tier1_wall_s"] = tier1_s
    summary = re.findall(r"^=*\s*(\d+ (?:passed|failed).*?)\s*=*$", log, re.M)
    record["tier1_summary"] = summary[-1] if summary else None

    n, last = previous(ROOT)
    out = ROOT / f"BENCH_{n + 1}.json"
    out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    if last is not None:
        report_change(json.loads(last.read_text()), record)
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
