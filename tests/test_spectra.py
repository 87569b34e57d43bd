"""Power-law fitting, counting inequalities, and symbol-density oracles."""

import math

import numpy as np
import pytest
import scipy.linalg as sla

from deltaspec import (
    NumericalError,
    Perturbation,
    ValidationError,
    boundary_measure,
    fit_power_law,
    kyfan_check,
    lebesgue_measure,
    log_periodic_residual,
    segment_measure,
    spectrum,
    weyl_density,
    weyl_prediction,
)
from deltaspec import Grid
from deltaspec.spectra import _lomb_scargle


def _exact_sv(theta, coeff, count):
    j = np.arange(1, count + 1, dtype=float)
    return (coeff / j) ** (1.0 / theta)


def test_fit_recovers_exact_singular_power_law():
    fit = fit_power_law(values=_exact_sv(0.35, 2.7, 200))
    assert fit.kind == "singular_values"
    assert fit.theta == pytest.approx(0.35, rel=1e-9)
    assert fit.coeff == pytest.approx(2.7, rel=1e-9)
    assert fit.slope == pytest.approx(-1.0 / 0.35, rel=1e-9)
    assert fit.r_squared > 1.0 - 1e-12


def test_fit_recovers_exact_counting_law():
    lam = np.geomspace(1e-4, 1.0, 80)
    n = 2.0 * lam**-0.4
    fit = fit_power_law(counting=np.column_stack([lam, n]))
    assert fit.kind == "counting"
    assert fit.theta == pytest.approx(0.4, rel=1e-9)
    assert fit.coeff == pytest.approx(2.0, rel=1e-9)
    assert fit.slope == pytest.approx(-0.4, rel=1e-9)


def test_fit_window_override_selects_regime():
    j = np.arange(1, 121, dtype=float)
    s = np.where(j <= 40, j**-2.0, 40.0**3.0 * j**-5.0)
    head = fit_power_law(values=s, window=(2, 35))
    tail = fit_power_law(values=s, window=(50, 120))
    assert head.slope == pytest.approx(-2.0, rel=1e-6)
    assert tail.slope == pytest.approx(-5.0, rel=1e-6)
    assert head.window == (2, 35)


def test_fit_floor_drops_noise_tail():
    clean = _exact_sv(0.35, 2.7, 100)
    noisy = np.concatenate([clean, np.full(60, 1e-13)])
    fit_clean = fit_power_law(values=clean)
    fit_noisy = fit_power_law(values=noisy, floor=1e-12)
    assert fit_noisy.theta == pytest.approx(fit_clean.theta, rel=1e-12)
    assert fit_noisy.window == fit_clean.window


def test_fit_input_validation():
    good = _exact_sv(0.5, 1.0, 50)
    with pytest.raises(ValidationError):
        fit_power_law()
    with pytest.raises(ValidationError):
        fit_power_law(values=good, counting=np.ones((50, 2)))
    with pytest.raises(ValidationError):
        fit_power_law(values=good[::-1])
    with pytest.raises(ValidationError):
        fit_power_law(values=good, window=(40, 80))
    with pytest.raises(NumericalError):
        fit_power_law(values=good[:20])
    with pytest.raises(NumericalError):
        fit_power_law(values=np.ones(40))


def test_spectrum_sign_split_and_counting():
    k = np.diag([3.0, 1.0, -2.0, 1e-15])
    rep = spectrum(k)
    assert np.allclose(rep.singulars, [3.0, 2.0, 1.0])
    assert rep.counting.shape[1] == 4
    lam, n_plus, n_minus, n = rep.counting.T
    # the grid runs from the smallest magnitude to the largest, and each
    # count is strict: a value equal to lambda is not above it
    assert (lam[0], lam[-1]) == (1.0, 3.0)
    assert np.array_equal(n_plus, (lam < 3.0).astype(int) + (lam < 1.0))
    assert np.array_equal(n_minus, lam < 2.0)
    assert np.array_equal(n, n_plus + n_minus)
    assert (n_plus[0], n_minus[0], n_plus[-1], n_minus[-1]) == (1, 1, 0, 0)
    assert np.any((lam > 1.0) & (lam < 2.0)) and np.any(lam > 2.0)


def test_spectrum_rejects_nonsymmetric():
    with pytest.raises(ValidationError, match="symmetric"):
        spectrum(np.triu(np.ones((5, 5)), 1) + np.eye(5))


def test_counting_matches_loop_reference():
    # the counting columns equal direct counts, exact ties included (the
    # ends of the lambda grid sit on singular values)
    rng = np.random.Generator(np.random.Philox(5))
    b = rng.standard_normal((12, 12))
    for k in (b + b.T, np.diag([2.0, 2.0, -2.0, 1.0, -1.0, 0.5])):
        rep = spectrum(k)
        eig = np.linalg.eigvalsh(k)
        pos, neg = eig[eig > rep.floor], -eig[eig < -rep.floor]
        for col, vals in ((1, pos), (2, neg), (3, np.concatenate([pos, neg]))):
            want = [np.count_nonzero(vals > lam) for lam in rep.counting[:, 0]]
            assert np.array_equal(rep.counting[:, col], want)


def test_spectrum_rejects_nonsquare():
    with pytest.raises(ValidationError):
        spectrum(np.ones((3, 4)))


def test_counting_scales_with_the_matrix():
    rng = np.random.Generator(np.random.Philox(23))
    b = rng.standard_normal((40, 40))
    k = b + b.T
    c = 3.7
    rep1 = spectrum(k)
    repc = spectrum(c * k)
    # the lambda grid scales with the matrix and every count stays put
    assert np.allclose(repc.counting[:, 0], c * rep1.counting[:, 0],
                       rtol=1e-12, atol=0.0)
    assert np.array_equal(repc.counting[:, 1:], rep1.counting[:, 1:])
    assert rep1.counting[:, 1].max() > 0 and rep1.counting[:, 2].max() > 0


def test_kyfan_random_pairs_hold():
    rng = np.random.Generator(np.random.Philox(41))
    b1 = rng.standard_normal((20, 20))
    b2 = rng.standard_normal((20, 20))
    rep = kyfan_check(b1 + b1.T, b2 + b2.T, trials=10, seed=7)
    assert rep.violations == 0
    assert rep.checks > 0
    assert rep.worst_gap >= 0.0


def _kyfan_loop_reference(k1, k2, trials, grid_points, seed):
    # counts each (l1, l2) pair one at a time, as a direct transcription
    # of the two inequalities
    def singulars(mat):
        scale = np.abs(mat).max()
        if scale > 0 and np.abs(mat - mat.T).max() <= 1e-12 * scale:
            return np.abs(sla.eigvalsh(mat))
        return sla.svdvals(mat)

    def grid(sv):
        lo, hi = sv[sv > 0].min(), sv.max()
        return [0.5 * lo] if lo == hi else np.geomspace(lo, hi, grid_points)

    def count(sv, lam):
        return int(np.count_nonzero(sv > lam * (1.0 + 1e-12)))

    rng = np.random.default_rng(seed)
    pairs = [(k1, k2)]
    for _ in range(trials):
        b1 = rng.standard_normal(k1.shape)
        b2 = rng.standard_normal(k1.shape)
        pairs.append((b1 + b1.T, b2 + b2.T))
    violations, checks, worst = 0, 0, np.inf
    for m1, m2 in pairs:
        s1, s2 = singulars(m1), singulars(m2)
        s_sum, s_prod = singulars(m1 + m2), singulars(m1 @ m2)
        for l1 in grid(s1):
            for l2 in grid(s2):
                bound = count(s1, l1) + count(s2, l2)
                for n in (count(s_sum, l1 + l2), count(s_prod, l1 * l2)):
                    checks += 1
                    worst = min(worst, bound - n)
                    violations += n > bound
    return violations, checks, float(worst)


def test_kyfan_matches_loop_reference():
    rng = np.random.Generator(np.random.Philox(43))
    b1 = rng.standard_normal((10, 10))
    b2 = rng.standard_normal((10, 10))
    for k1, k2 in ((b1 + b1.T, b2 + b2.T), (b1, b2), (np.eye(10), np.eye(10))):
        rep = kyfan_check(k1, k2, trials=3, grid_points=7, seed=2)
        got = (rep.violations, rep.checks, rep.worst_gap)
        assert got == _kyfan_loop_reference(k1, k2, 3, 7, 2)


def test_kyfan_zero_factor_skipped():
    z = np.zeros((8, 8))
    rep = kyfan_check(z, np.eye(8), trials=0)
    assert rep.checks == 0
    assert rep.violations == 0
    with pytest.raises(ValidationError):
        kyfan_check(np.eye(4), np.eye(5))


def test_log_periodic_synthetic_oscillation():
    p0 = 1.5
    d = 0.4
    lam = np.geomspace(1e-3, 1.0, 240)
    counts = lam**-d * (2.0 + np.cos(2.0 * np.pi * np.log(lam) / p0))
    rep = log_periodic_residual(lam, counts, d)
    assert rep.period == pytest.approx(p0, rel=0.05)
    assert rep.maxmin_ratio == pytest.approx(3.0, rel=0.15)
    assert abs(rep.residual.mean()) < 1e-10 * np.abs(rep.residual).max()


def test_lomb_scargle_matches_scipy():
    from scipy.signal import lombscargle

    rng = np.random.default_rng(3)
    for i in range(60):
        n = int(rng.integers(30, 300))
        if i % 2:
            x = np.sort(rng.uniform(-12.0, 2.0, n))
        else:  # the log of a geometric counting grid, as in the CLI
            x = np.log(np.geomspace(10.0 ** rng.uniform(-9, -3), 1.0, n))
        y = rng.standard_normal(n) + 3.0 * np.sin(x / rng.uniform(0.2, 1.0))
        y = (y - y.mean()) * 10.0 ** rng.uniform(-3, 3)
        span = x.max() - x.min()
        freqs = 2.0 * np.pi / np.linspace(span / 10.0, span, 400)
        want = lombscargle(x, y, freqs)
        got = _lomb_scargle(x, y, freqs)
        np.testing.assert_allclose(got, want, rtol=1e-12,
                                   atol=1e-12 * want.max())
        assert np.argmax(got) == np.argmax(want)


def test_log_periodic_needs_two_decades():
    lam = np.geomspace(0.1, 1.0, 100)
    with pytest.raises(NumericalError):
        log_periodic_residual(lam, lam**-0.4, 0.4)


def test_weyl_density_laplacian_2d_closed_form():
    omega = weyl_density(np.eye(2), np.array([0.0, 1.0]), 1.0 / 3.0)
    assert abs(omega - 0.25 ** (1.0 / 3.0) / np.pi) < 1e-12


def test_weyl_density_laplacian_3d_closed_form():
    # direction-free fiber integral: omega = (1/4)^theta / (4 pi)
    for normal in ([0.0, 0.0, 1.0], [1.0, 1.0, 1.0]):
        omega = weyl_density(np.eye(3), np.array(normal), 0.5)
        assert abs(omega - 1.0 / (8.0 * np.pi)) < 1e-10


def test_weyl_density_anisotropic_2d_hand_formula():
    a, b = 2.0, 0.5
    r = b / (4.0 * (a * b) ** 1.5)
    theta = 1.0 / 3.0
    omega = weyl_density(np.diag([a, b]), np.array([0.0, 1.0]), theta)
    assert abs(omega - r**theta / np.pi) < 1e-12


def test_weyl_density_symbol_homogeneity():
    rng = np.random.Generator(np.random.Philox(3))
    b = rng.standard_normal((2, 2))
    a_mat = b @ b.T + 2.0 * np.eye(2)
    nu = np.array([0.6, -0.8])
    for theta in (0.25, 1.0 / 3.0, 0.5):
        base = weyl_density(a_mat, nu, theta)
        scaled = weyl_density(5.0 * a_mat, nu, theta)
        assert scaled == pytest.approx(5.0 ** (-2.0 * theta) * base, rel=1e-12)


def test_weyl_density_quadrature_converged():
    a_mat = np.diag([1.0, 2.0, 4.0])
    nu = np.array([1.0, 1.0, 1.0]) / math.sqrt(3.0)
    w64 = weyl_density(a_mat, nu, 0.4, quadrature_points=64)
    w256 = weyl_density(a_mat, nu, 0.4, quadrature_points=256)
    assert w64 == pytest.approx(w256, rel=1e-9)


def test_weyl_density_validation():
    with pytest.raises(ValidationError):
        weyl_density(np.eye(2), np.zeros(2), 0.5)
    with pytest.raises(ValidationError):
        weyl_density(-np.eye(2), np.array([1.0, 0.0]), 0.5)
    with pytest.raises(ValidationError):
        weyl_density(np.eye(2), np.array([1.0, 0.0]), 0.0)
    with pytest.raises(ValidationError):
        weyl_density(np.eye(4), np.ones(4), 0.5)


def test_weyl_prediction_constant_weight_segment():
    theta = 1.0 / 3.0
    seg = segment_measure(np.array([[0.1, 0.5], [0.9, 0.5]]), 32)
    p1 = Perturbation.constant(seg, 0.0)
    p2 = Perturbation.constant(seg, 2.0)
    pred = weyl_prediction(seg, p1, p2, theta)
    omega = 0.25**theta / np.pi
    expected = omega * 2.0**theta * seg.weights.sum()
    assert pred["without"] == pytest.approx(expected, rel=1e-12)
    assert pred["with_2pi_d"] == pytest.approx(
        expected / (2.0 * np.pi), rel=1e-12
    )


def test_weyl_prediction_sides():
    # singular values count both signs of V1 - V2, so a mixed-sign gap
    # enters through its magnitude and swapping the weights changes nothing
    theta = 0.5
    seg = segment_measure(np.array([[0.0, 0.0], [1.0, 0.0]]), 8)
    p1 = Perturbation(seg, np.array([1.0, -0.5, 2.0, 0.4, 0.3, -1.2, 0.7, 1.5]))
    p2 = Perturbation.constant(seg, 0.4)
    pred = weyl_prediction(seg, p1, p2, theta)
    omega = 0.25**theta / np.pi
    expected = float(seg.weights @ (omega * np.abs(p2.values - p1.values)
                                    ** theta))
    assert pred["without"] == pytest.approx(expected, rel=1e-12)
    assert pred["with_2pi_d"] == pytest.approx(
        expected / (2.0 * np.pi), rel=1e-12)
    assert weyl_prediction(seg, p2, p1, theta) == pred


def _per_atom_prediction(m, p1, p2, theta, tensors, normals):
    # the prediction with one weyl_density call per atom
    omega = np.array([weyl_density(tensors[i], normals[i], theta)
                      for i in range(m.count)])
    base = float(m.weights @ (omega * np.abs(p2.values - p1.values)
                              ** theta))
    return {"without": base,
            "with_2pi_d": base * (2.0 * np.pi) ** (-m.nominal_dim)}


def test_weyl_prediction_takes_one_density_per_distinct_pair(monkeypatch):
    # the 17^3 box boundary (1538 atoms) under a constant symbol needs one
    # density; a 2D box boundary under an anisotropic tensor, with the
    # outer normal of each side and a diagonal one at each corner, needs one
    # per distinct normal. Both equal the per-atom loop bit for bit
    import deltaspec.spectra as spectra

    calls = []
    monkeypatch.setattr(spectra, "weyl_density",
                        lambda *args: calls.append(1) or weyl_density(*args))

    box = boundary_measure(Grid(np.array([[0.0, 1.0]] * 3), (17, 17, 17)))
    assert box.count == 1538
    p1 = Perturbation.constant(box, 1.0)
    p2 = Perturbation(box, 1.0 + np.linspace(0.5, 2.0, box.count))
    want = _per_atom_prediction(box, p1, p2, 2.0 / 3.0,
                                [np.eye(3)] * box.count,
                                [np.eye(3)[0]] * box.count)
    assert weyl_prediction(box, p1, p2, 2.0 / 3.0) == want
    assert len(calls) == 1

    square = boundary_measure(Grid(np.array([[0.0, 1.6], [0.0, 1.0]]),
                                   (9, 7)))
    x, y = square.atoms.T
    normals = np.column_stack([(x > 1.5).astype(float) - (x < 0.1),
                               (y > 0.9).astype(float) - (y < 0.1)])
    tensor = np.array([[2.0, 0.3], [0.3, 0.5]])
    p1 = Perturbation.constant(square, 3.0)
    p2 = Perturbation(square, np.linspace(0.0, 1.0, square.count))
    want = _per_atom_prediction(square, p1, p2, 0.5,
                                [tensor] * square.count, normals)
    calls.clear()
    assert weyl_prediction(square, p1, p2, 0.5, coeffs=tensor,
                           normals=normals) == want
    assert len(calls) == len(np.unique(normals, axis=0)) == 8


def test_weyl_prediction_requires_hypersurface():
    g = Grid(np.array([[0.0, 1.0], [0.0, 1.0]]), (5, 5))
    full = lebesgue_measure(g)
    p = Perturbation.constant(full, 1.0)
    with pytest.raises(ValidationError):
        weyl_prediction(full, p, p, 0.5)


def test_weyl_prediction_anisotropic_needs_normals():
    seg = segment_measure(np.array([[0.0, 0.0], [1.0, 0.0]]), 6)
    p1 = Perturbation.constant(seg, 0.0)
    p2 = Perturbation.constant(seg, 1.0)
    tensor = np.diag([2.0, 0.5])
    with pytest.raises(ValidationError):
        weyl_prediction(seg, p1, p2, 0.5, coeffs=tensor)
    normals = np.tile([0.0, 1.0], (6, 1))
    pred = weyl_prediction(seg, p1, p2, 0.5, coeffs=tensor, normals=normals)
    r = 0.5 / (4.0 * 1.0**1.5)
    assert pred["without"] == pytest.approx(
        math.sqrt(r) / np.pi * seg.weights.sum(), rel=1e-12
    )
