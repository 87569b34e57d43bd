"""Independent checks of deltaspec's outputs, and their self-tests.

Every check returns a list of problems (empty when the output is right).
The checks recompute what they can outside the program: slopes are refitted
by least squares on the exported CSVs, the Moran dimension of the Cantor
set is log 2 / log 3 in closed form, decay orders come from the paper's
theta = d / (d - N + 4) (resolvent differences) and d / (d - N + 2)
(the Birman-Schwinger operator), and resolvent differences are rebuilt
with ``numpy.linalg.inv``. They use numpy only, so a traced run never
counts them as work of the program.

``python3 perfbench/checks.py`` runs the self-tests: tiny inputs on which
each check must accept the right answer and reject a wrong one (a slope
off by 0.5, a flipped sign, a run answered from the run cache).
"""

from __future__ import annotations

import json
import math
import os
import re
import sys
from pathlib import Path

import numpy as np

RESIDUAL_TOL = 1e-8
PSD_TOL = -1e-10
SLOPE_MATCH = 1e-6  # manifest fit against the refit on its own window


def theta_resolvent(d: float, n_dim: int) -> float:
    """Counting exponent of a resolvent difference, d / (d - N + 4)."""
    return d / (d - n_dim + 4.0)


def theta_birman_schwinger(d: float, n_dim: int) -> float:
    """Counting exponent of the Birman-Schwinger operator, d / (d - N + 2)."""
    return d / (d - n_dim + 2.0)


def cantor_dimension() -> float:
    """Moran dimension of the middle-thirds Cantor set, log 2 / log 3."""
    return math.log(2.0) / math.log(3.0)


# ------------------------------------------------------------------ files


def read_singulars(path) -> np.ndarray:
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return data[:, 1]


def read_counting(path) -> np.ndarray:
    """Rows (lambda, n_plus, n_minus, n)."""
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def count_rows(path) -> int:
    with open(path) as fh:
        return sum(1 for line in fh) - 1


# ------------------------------------------------------------------ fits


def refit(values: np.ndarray, window) -> tuple[float, float]:
    """Least-squares (slope, coeff) of log s_j against log j on a window.

    ``window`` is a 1-based inclusive index range; coeff follows the model
    s_j = (coeff / j)^(1/theta) with slope -1/theta.
    """
    lo, hi = int(window[0]), int(window[1])
    j = np.arange(lo, hi + 1, dtype=float)
    slope, intercept = np.polyfit(np.log(j), np.log(values[lo - 1:hi]), 1)
    return float(slope), float(math.exp(-intercept / slope))


def counting_theta(counting: np.ndarray, floor: float, window) -> float:
    """Counting exponent refitted on the samples a counting fit uses.

    Samples with lambda > 100 x floor and n >= 1, largest lambda first;
    ``window`` indexes that list (1-based, inclusive).
    """
    lam, n = counting[:, 0], counting[:, 3]
    keep = (lam > 100.0 * floor) & (n >= 1)
    lam, n = lam[keep], n[keep]
    order = np.argsort(lam)[::-1]
    lam, n = lam[order], n[order]
    lo, hi = int(window[0]) - 1, int(window[1])
    slope = np.polyfit(np.log(lam[lo:hi]), np.log(n[lo:hi]), 1)[0]
    return float(-slope)


def log_periodic_maxmin(counting: np.ndarray, theta: float) -> float:
    """max/min of n(lambda) lambda^theta over the central two decades."""
    lam, n = counting[:, 0], counting[:, 3]
    keep = (lam > 0) & (n > 0)
    x, y = np.log(lam[keep]), n[keep] * lam[keep] ** theta
    mid = 0.5 * (x.max() + x.min())
    win = np.abs(x - mid) <= math.log(10.0)
    return float(y[win].max() / y[win].min())


def check_manifest_fit(values: np.ndarray, fit, where: str) -> list[str]:
    """The manifest's fit must be the least-squares fit on its own window."""
    if fit is None:
        return [f"{where}: the manifest has no fit"]
    slope, _ = refit(values, fit["window"])
    if abs(slope - fit["slope"]) > SLOPE_MATCH * max(1.0, abs(slope)):
        return [f"{where}: manifest slope {fit['slope']:.6f}, refit on its "
                f"window {fit['window']} gives {slope:.6f}"]
    return []


def check_slope(slope: float, want: float, tol: float, where: str) -> list[str]:
    if abs(slope - want) > tol:
        return [f"{where}: slope {slope:.4f} outside {want:.3f} +- {tol}"]
    return []


def check_no_negatives(counting: np.ndarray, where: str) -> list[str]:
    n_minus = int(counting[:, 2].max(initial=0))
    return [f"{where}: n_minus is {n_minus}, expected 0"] if n_minus else []


def check_kept(kept: int, bound: int, where: str) -> list[str]:
    if kept > bound:
        return [f"{where}: values_kept {kept} exceeds the rank bound {bound}"]
    return []


# ------------------------------------------------------------------ runs


_COMPLETE = re.compile(r"^run ([0-9a-f]+) complete:", re.M)


def check_fresh(stdout: str, manifest_paths, started: float) -> list[str]:
    """Every manifest was written by this invocation, none came from cache.

    The CLI prints ``run <hash> complete:`` after computing and
    ``run <hash> already complete`` when it hands back a stored manifest.
    """
    problems = []
    if "already complete" in stdout:
        problems.append("a run was answered from the run cache")
    computed = set(_COMPLETE.findall(stdout))
    for path in manifest_paths:
        path = Path(path)
        if not path.is_file():
            problems.append(f"{path.name}: missing")
            continue
        with open(path) as fh:
            digest = json.load(fh).get("config_hash")
        if digest not in computed:
            problems.append(f"run {digest} has no 'complete' line")
        if os.stat(path).st_mtime < started - 1.0:
            problems.append(f"run {digest}: manifest predates this invocation")
    return problems


# --------------------------------------------------------------- matrices


def path_residual(terms, difference: np.ndarray) -> float:
    """Relative Frobenius gap between the summed terms and the difference."""
    expansion = sum(terms)
    return float(np.linalg.norm(expansion - difference)
                 / np.linalg.norm(difference))


def check_psd(mat: np.ndarray, where: str) -> list[str]:
    """Smallest eigenvalue over the spectral norm must be >= PSD_TOL."""
    eig = np.linalg.eigvalsh(mat)
    floor = float(eig.min() / np.abs(eig).max())
    if floor < PSD_TOL:
        return [f"{where}: min eig / norm {floor:.2e} below {PSD_TOL:g}"]
    return []


def check_residual(value: float, where: str) -> list[str]:
    if not value <= RESIDUAL_TOL:
        return [f"{where}: path residual {value:.2e} above {RESIDUAL_TOL:g}"]
    return []


def check_inverse(a_mat, coupling, difference, where: str) -> list[str]:
    """inv(A) - inv(A + C) must match a reported difference to 1e-8."""
    want = np.linalg.inv(a_mat) - np.linalg.inv(a_mat + coupling)
    gap = float(np.linalg.norm(difference - want) / np.linalg.norm(want))
    if not gap <= RESIDUAL_TOL:
        return [f"{where}: numpy.linalg.inv cross-check gap {gap:.2e}"]
    return []


# -------------------------------------------------------------- self-test


def self_test() -> list[str]:
    """Run every check on tiny inputs; return the checks that misbehaved."""
    bad = []

    def expect(name, problems, ok):
        if bool(problems) == ok:
            bad.append(f"{name}: {'rejected' if ok else 'accepted'} "
                       f"{'a right' if ok else 'a wrong'} answer")

    j = np.arange(1, 41, dtype=float)
    s = (0.5 / j) ** 3.0  # slope -3, coeff 0.5
    slope, coeff = refit(s, (5, 30))
    expect("refit slope", check_slope(slope, -3.0, 1e-9, "t"), True)
    expect("refit slope off by 0.5",
           check_slope(slope - 0.5, -3.0, 0.45, "t"), False)
    if abs(coeff - 0.5) > 1e-9:
        bad.append(f"refit coeff {coeff} != 0.5")
    fit = {"slope": -3.0, "window": [4, 40]}
    expect("manifest fit", check_manifest_fit(s, fit, "t"), True)
    expect("manifest fit off by 0.5",
           check_manifest_fit(s, dict(fit, slope=-2.5), "t"), False)

    lam = np.geomspace(1.0, 1e-4, 60)
    n = 2.0 * lam ** -0.4
    counting = np.column_stack([lam, n, np.zeros_like(n), n])
    theta = counting_theta(counting, 0.0, (5, 60))
    if abs(theta - 0.4) > 1e-9:
        bad.append(f"counting theta {theta} != 0.4")
    if not log_periodic_maxmin(counting, 0.4) < 1.1:
        bad.append("log-periodic max/min of a pure power law is not ~1")
    expect("no negatives", check_no_negatives(counting, "t"), True)
    flipped = counting.copy()
    flipped[:, 2] = flipped[:, 3]
    expect("negatives from a flipped sign", check_no_negatives(flipped, "t"),
           False)

    rng = np.random.default_rng(0)
    b = rng.standard_normal((6, 6))
    a_mat = b @ b.T + 6.0 * np.eye(6)
    g = rng.standard_normal((6, 2))
    coupling = g @ g.T
    diff = np.linalg.inv(a_mat) - np.linalg.inv(a_mat + coupling)
    expect("psd", check_psd(diff, "t"), True)
    expect("psd of a flipped sign", check_psd(-diff, "t"), False)
    expect("inverse cross-check", check_inverse(a_mat, coupling, diff, "t"),
           True)
    expect("inverse cross-check of a flipped sign",
           check_inverse(a_mat, coupling, -diff, "t"), False)
    terms = [np.linalg.inv(a_mat), -np.linalg.inv(a_mat + coupling)]
    expect("residual", check_residual(path_residual(terms, diff), "t"), True)
    expect("residual of a flipped term",
           check_residual(path_residual([terms[0], -terms[1]], diff), "t"),
           False)

    import tempfile
    import time
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "manifest.json"
        path.write_text(json.dumps({"config_hash": "abc123"}))
        now = time.time()
        fresh = "run abc123 complete: 1 task(s) under x\n"
        cached = ("run abc123 already complete at x; use --force to "
                  "recompute\n")
        expect("fresh run", check_fresh(fresh, [path], now), True)
        expect("cached run", check_fresh(cached, [path], now), False)
        os.utime(path, (now - 60.0, now - 60.0))
        expect("stale manifest", check_fresh(fresh, [path], now), False)
    return bad


if __name__ == "__main__":
    failures = self_test()
    for line in failures:
        print(f"FAIL {line}")
    print(f"checks self-test: {'FAIL' if failures else 'ok'}")
    sys.exit(1 if failures else 0)
