"""Acceptance gate: nine numbered criteria over the whole library.

Each test prints one "[criterion N] PASS/FAIL (...)" verdict line through
capsys.disabled() so the verdicts stay visible in captured pytest runs.
The heavy fixtures (identity-suite draws, the 65x65 segment setup) are
module-scoped and shared between the criteria that reuse them.
"""

import math
import time

import numpy as np
import pytest

from deltaspec import (
    CoefficientField,
    Grid,
    Perturbation,
    Similitude,
    assemble_neumann,
    assemble_robin,
    boundary_measure,
    bs_atom_gram,
    bs_operator,
    fit_power_law,
    ifs_measure,
    kyfan_check,
    lebesgue_measure,
    log_periodic_residual,
    lp_theta_norm,
    positivity_margin,
    power_difference,
    resolvent_difference,
    restriction_matrix,
    segment_measure,
    solve_moran_dimension,
    spectrum,
    two_weight_difference,
    weyl_density,
)

MARGIN_THRESHOLD = 0.1


def _verdict(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def _operator_1d(n):
    grid = Grid(np.array([[0.0, 1.0]]), (n,))
    coeffs = CoefficientField.isotropic(1.0, 1, t=1.0)
    return grid, assemble_neumann(grid, coeffs)


def _draw_pair(a, gam, seed, nonneg):
    """One admissible (V1, V2) pair with V1 >= V2; V2 >= 0 when asked."""
    rng = np.random.Generator(np.random.Philox(seed))
    k = gam.measure.count
    v2 = rng.standard_normal(k)
    if nonneg:
        v2 = np.abs(v2)
    t2 = bs_operator(a, gam, Perturbation(gam.measure, v2))
    margin = positivity_margin(t2)
    if margin <= MARGIN_THRESHOLD:
        c = 0.9 * (1.0 - MARGIN_THRESHOLD) / (1.0 - margin)
        v2 = c * v2
        t2 = bs_operator(a, gam, Perturbation(gam.measure, v2))
    v1 = v2 + 0.5 * np.abs(rng.standard_normal(k))
    t1 = bs_operator(a, gam, Perturbation(gam.measure, v1))
    return t1, t2, nonneg


def _path_residual(rep):
    # both N x N matrices are formed on the report's basis, so the report's
    # own residual adds the check that the basis spans the difference
    return max(np.linalg.norm(rep.expansion() - rep.difference)
               / np.linalg.norm(rep.difference), rep.residual)


def _psd_floor(mat):
    eigs = np.linalg.eigvalsh(mat)
    return eigs.min() / np.abs(eigs).max()


@pytest.fixture(scope="module")
def identity_draws():
    """100 seeded 1D draws plus 20 seeded 2D draws, shared by 1 and 9."""
    t0 = time.monotonic()
    worst = {"rd": 0.0, "tw": 0.0, "pd2": 0.0, "pd3": 0.0}
    psd = {"rd": 0.0, "tw": 0.0}
    nonneg_count = 0

    def consume(a, gam, seed, nonneg):
        nonlocal nonneg_count
        t1, t2, nonneg = _draw_pair(a, gam, seed, nonneg)
        rd = resolvent_difference(a, t1)
        tw = two_weight_difference(a, t1, t2)
        pd2 = power_difference(a, t1, 2)
        pd3 = power_difference(a, t1, 3)
        worst["rd"] = max(worst["rd"], _path_residual(rd))
        worst["tw"] = max(worst["tw"], _path_residual(tw))
        worst["pd2"] = max(worst["pd2"], _path_residual(pd2))
        worst["pd3"] = max(worst["pd3"], _path_residual(pd3))
        if nonneg:
            nonneg_count += 1
            psd["rd"] = min(psd["rd"], _psd_floor(rd.difference))
        psd["tw"] = min(psd["tw"], _psd_floor(tw.difference))

    grid, a = _operator_1d(512)
    m = segment_measure(np.array([[0.2], [0.8]]), 48)
    gam = restriction_matrix(grid, m)
    for i in range(100):
        consume(a, gam, 1000 + i, i % 2 == 0)

    grid2 = Grid(np.array([[0.0, 1.0], [0.0, 1.0]]), (33, 33))
    a2 = assemble_neumann(grid2, CoefficientField.isotropic(1.0, 2, t=1.0))
    m2 = segment_measure(np.array([[0.2, 0.45], [0.8, 0.45]]), 32)
    gam2 = restriction_matrix(grid2, m2)
    for i in range(20):
        consume(a2, gam2, 2000 + i, i % 2 == 0)

    return {
        "worst": worst,
        "psd": psd,
        "draws": 120,
        "nonneg": nonneg_count,
        "elapsed": time.monotonic() - t0,
    }


@pytest.fixture(scope="module")
def big2d():
    """65x65 operator with a 64-atom interior segment, shared by 3 and 6."""
    grid = Grid(np.array([[0.0, 1.6], [0.0, 1.6]]), (65, 65))
    a = assemble_neumann(grid, CoefficientField.isotropic(1.0, 2, t=1.0))
    seg = segment_measure(np.array([[0.3, 0.8], [1.3, 0.8]]), 64)
    gam = restriction_matrix(grid, seg)
    return a, seg, gam


def test_criterion_1_identity_suite(identity_draws, capsys):
    worst = identity_draws["worst"]
    top = max(worst.values())
    ok = top <= 1e-8 and identity_draws["elapsed"] <= 300.0
    detail = (
        "worst path residual %.2e over %d draws "
        "(rd %.1e, tw %.1e, pd2 %.1e, pd3 %.1e), %.0fs"
        % (top, identity_draws["draws"], worst["rd"], worst["tw"],
           worst["pd2"], worst["pd3"], identity_draws["elapsed"])
    )
    assert _verdict(capsys, 1, ok, detail), detail


def test_criterion_2_schrodinger_order(capsys):
    t0 = time.monotonic()
    grid, a = _operator_1d(2048)
    m = lebesgue_measure(grid)
    gam = restriction_matrix(grid, m)
    x = m.atoms[:, 0]

    def ramp(s):
        s = np.clip(s, 0.0, 1.0)
        out = np.zeros_like(s)
        mid = (s > 0) & (s < 1)
        f = np.exp(-1.0 / s[mid])
        g = np.exp(-1.0 / (1.0 - s[mid]))
        out[mid] = f / (f + g)
        out[s >= 1.0] = 1.0
        return out

    v = ramp((x - 0.05) / 0.15) * ramp((0.95 - x) / 0.15)
    rep = resolvent_difference(a, bs_operator(a, gam, Perturbation(m, v)))
    sp = spectrum(rep.difference, floor=1e-11)
    fit = fit_power_law(sp.singulars, floor=sp.floor)
    elapsed = time.monotonic() - t0
    ok = (abs(fit.slope + 4.0) <= 0.4 and fit.r_squared >= 0.98
          and elapsed <= 600.0)
    detail = "slope %.3f (want -4 +- 0.4), R^2 %.4f, window %s, %.0fs" % (
        fit.slope, fit.r_squared, fit.window, elapsed)
    assert _verdict(capsys, 2, ok, detail), detail


def test_criterion_3_segment_order_and_coefficient(big2d, capsys):
    t0 = time.monotonic()
    a, seg, gam = big2d
    t_lo = bs_operator(a, gam, Perturbation.constant(seg, 1.0))
    fits = []
    for hi in (2.0, 3.0):
        t_hi = bs_operator(a, gam, Perturbation.constant(seg, hi))
        rep = two_weight_difference(a, t_hi, t_lo)
        fits.append(fit_power_law(rep.singular_values(), floor=1e-11))
        del rep
    ratio = fits[1].coeff / fits[0].coeff
    target = 2.0 ** (1.0 / 3.0)
    elapsed = time.monotonic() - t0
    ok = (all(abs(f.slope + 3.0) <= 0.45 for f in fits)
          and abs(ratio - target) <= 0.1 * target
          and elapsed <= 900.0)
    detail = (
        "slopes %.3f / %.3f (want -3 +- 0.45), coeff ratio %.4f "
        "(want %.4f +- 10%%), %.0fs"
        % (fits[0].slope, fits[1].slope, ratio, target, elapsed)
    )
    assert _verdict(capsys, 3, ok, detail), detail


def test_criterion_4_robin_order(capsys):
    t0 = time.monotonic()
    grid = Grid(np.array([[0.0, 1.0], [0.0, 1.0]]), (65, 65))
    coeffs = CoefficientField.isotropic(1.0, 2, t=1.0)
    bnd = boundary_measure(grid)
    a1 = assemble_robin(grid, coeffs, Perturbation.constant(bnd, 1.0))
    a2 = assemble_robin(grid, coeffs, Perturbation.constant(bnd, 3.0))
    eye = np.eye(grid.size)
    diff = a1.solve(eye) - a2.solve(eye)
    diff = 0.5 * (diff + diff.T)
    sv = spectrum(diff, floor=0.0).singulars
    # the head of the boundary spectrum is preasymptotic; the structural
    # decay regime sits past roughly the boundary atom count
    fit = fit_power_law(sv, floor=0.0, window=(40, 130))
    elapsed = time.monotonic() - t0
    ok = abs(fit.slope + 3.0) <= 0.5 and elapsed <= 900.0
    detail = "slope %.3f (want -3 +- 0.5), R^2 %.4f, %.0fs" % (
        fit.slope, fit.r_squared, elapsed)
    assert _verdict(capsys, 4, ok, detail), detail


def test_criterion_5_fractal_counting_exponent(capsys):
    t0 = time.monotonic()
    grid, a = _operator_1d(4096)
    third = 1.0 / 3.0
    maps = [
        Similitude(third, np.eye(1), np.zeros(1)),
        Similitude(third, np.eye(1), np.array([2.0 / 3.0])),
    ]
    cantor = ifs_measure(maps, depth=8)
    gam = restriction_matrix(grid, cantor)
    mat = bs_atom_gram(a, gam, Perturbation.constant(cantor, 1.0))
    sp = spectrum(mat)
    cfit = fit_power_law(counting=sp.counting[:, [0, 3]], floor=sp.floor)
    lp = log_periodic_residual(sp.counting[:, 0], sp.counting[:, 3],
                               cfit.theta)
    elapsed = time.monotonic() - t0
    ok = (0.367 <= cfit.theta <= 0.407 and lp.maxmin_ratio < 3.0
          and elapsed <= 600.0)
    detail = (
        "theta %.5f (want [0.367, 0.407]), max/min of n(l)l^theta %.2f "
        "(want < 3), %.0fs" % (cfit.theta, lp.maxmin_ratio, elapsed)
    )
    assert _verdict(capsys, 5, ok, detail), detail


def test_criterion_6_power_gaps(big2d, capsys):
    a, seg, gam = big2d
    t_op = bs_operator(a, gam, Perturbation.constant(seg, 1.0))
    # per-order fit windows sit on the local-slope plateau of each
    # spectrum: higher orders reach their decay regime at different depths
    # and hit the numerical floor earlier
    rd = resolvent_difference(a, t_op)
    fit1 = fit_power_law(rd.singular_values(), floor=0.0, window=(6, 30))
    del rd
    term_fits = {}
    fits = [fit1]
    for m, win in ((2, (16, 40)), (3, (5, 21))):
        rep = power_difference(a, t_op, m)
        fits.append(fit_power_law(rep.singular_values(), floor=0.0,
                                  window=win))
        term_fits[m] = tuple(
            fit_power_law(rep.singular_values(lbl), floor=0.0,
                          window=(4, 20))
            for lbl in ("H2", "H3")
        )
        del rep
    orders = [-f.slope for f in fits]
    gaps = [orders[1] - orders[0], orders[2] - orders[1]]
    # the segment has regularity dimension 1, so each extra inverse power
    # should add about 2 to the decay exponent
    gaps_ok = all(abs(g - 2.0) <= 0.6 for g in gaps)
    h_ok = all(term_fits[m][1].slope < term_fits[m][0].slope
               for m in (2, 3))
    ok = orders[0] < orders[1] < orders[2] and gaps_ok and h_ok
    detail = (
        "exponents %.2f / %.2f / %.2f for m = 1, 2, 3; gaps %.2f, %.2f "
        "(want 2 +- 0.6); H3 vs H2 slopes m2 %.2f < %.2f, m3 %.2f < %.2f"
        % (orders[0], orders[1], orders[2], gaps[0], gaps[1],
           term_fits[2][1].slope, term_fits[2][0].slope,
           term_fits[3][1].slope, term_fits[3][0].slope)
    )
    assert _verdict(capsys, 6, ok, detail), detail


def test_criterion_7_kyfan_suite(capsys):
    t0 = time.monotonic()
    rng = np.random.Generator(np.random.Philox(2026))
    b1 = rng.standard_normal((30, 30))
    b2 = rng.standard_normal((30, 30))
    rep = kyfan_check(b1 + b1.T, b2 + b2.T, trials=100, seed=11)
    elapsed = time.monotonic() - t0
    ok = rep.violations == 0 and rep.checks > 0 and elapsed <= 60.0
    detail = "%d violations over %d checks (101 pairs), %.0fs" % (
        rep.violations, rep.checks, elapsed)
    assert _verdict(capsys, 7, ok, detail), detail


def test_criterion_8_closed_form_oracles(capsys):
    n = 64
    grid, a = _operator_1d(n)
    k = np.arange(n)
    want = 1.0 + (2.0 * n**2) * (1.0 - np.cos(k * np.pi / n))
    err_spec = np.abs(np.sort(a.eigenvalues) - np.sort(want)) / want.max()
    d_spec = err_spec.max()

    m = segment_measure(np.array([[0.0], [1.0]]), 50)
    got_lux = lp_theta_norm(Perturbation.constant(m, 1.0), 1.0)
    d_lux = abs(got_lux - 1.0 / (math.e - 1.0))

    got_moran = solve_moran_dimension([1.0 / 3.0, 1.0 / 3.0])
    d_moran = abs(got_moran - math.log(2.0) / math.log(3.0))

    got_weyl = weyl_density(np.eye(2), np.array([0.0, 1.0]), 1.0 / 3.0)
    d_weyl = abs(got_weyl - 4.0 ** (-1.0 / 3.0) / np.pi)

    ok = (d_spec <= 1e-10 and d_lux <= 1e-9 and d_moran <= 1e-10
          and d_weyl <= 1e-8)
    detail = (
        "spectrum %.1e (tol 1e-10), luxemburg %.1e (tol 1e-9), "
        "moran %.1e (tol 1e-10), weyl %.1e (tol 1e-8)"
        % (d_spec, d_lux, d_moran, d_weyl)
    )
    assert _verdict(capsys, 8, ok, detail), detail


def test_criterion_9_sign_positivity(identity_draws, capsys):
    psd = identity_draws["psd"]
    ok = psd["rd"] >= -1e-10 and psd["tw"] >= -1e-10
    detail = (
        "min eigenvalue / spectral norm: %.1e on %d nonneg-V draws, "
        "%.1e on %d ordered pairs (tol -1e-10)"
        % (psd["rd"], identity_draws["nonneg"], psd["tw"],
           identity_draws["draws"])
    )
    assert _verdict(capsys, 9, ok, detail), detail
