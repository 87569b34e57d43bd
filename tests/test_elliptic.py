"""Grid assembly against closed-form Neumann spectra and Robin updates."""

import math
import tracemalloc

import numpy as np
import pytest

from deltaspec import (
    CoefficientField,
    Grid,
    Perturbation,
    PositivityError,
    Similitude,
    ValidationError,
    assemble_neumann,
    assemble_robin,
    boundary_measure,
    inverse_power,
    restriction_matrix,
)
from deltaspec import birman_schwinger, elliptic


def _grid1d(n, length=1.0):
    return Grid(np.array([[0.0, length]]), (n,))


def _stencil_eigs(n, h, t, a=1.0):
    k = np.arange(n)
    return t + a * (2.0 / h**2) * (1.0 - np.cos(k * np.pi / n))


def test_neumann_1d_closed_form_spectrum():
    n, t = 64, 0.7
    g = _grid1d(n)
    a = assemble_neumann(g, CoefficientField.isotropic(1.0, 1, t=t))
    expected = np.sort(_stencil_eigs(n, g.spacing[0], t))
    got = np.sort(a.eigenvalues)
    scale = expected[-1]
    assert np.max(np.abs(got - expected)) / scale < 1e-13


def test_neumann_1d_constant_coefficient_scales():
    n, t, c = 48, 0.3, 2.5
    g = _grid1d(n)
    a = assemble_neumann(g, CoefficientField.isotropic(c, 1, t=t))
    expected = np.sort(_stencil_eigs(n, g.spacing[0], t, a=c))
    got = np.sort(a.eigenvalues)
    assert np.max(np.abs(got - expected)) / expected[-1] < 1e-13


def test_neumann_1d_cosine_eigenvectors():
    n, t = 32, 1.0
    g = _grid1d(n)
    a = assemble_neumann(g, CoefficientField.isotropic(1.0, 1, t=t))
    h = g.spacing[0]
    lam = _stencil_eigs(n, h, t)
    i = np.arange(n)
    for k in (1, 3, 7):
        v = np.cos(k * np.pi * (i + 0.5) / n)
        r = a.matrix @ v - lam[k] * v
        assert np.linalg.norm(r) / (lam[k] * np.linalg.norm(v)) < 1e-12


def test_neumann_constant_mode():
    g = _grid1d(64)
    t = 0.9
    a = assemble_neumann(g, CoefficientField.isotropic(1.0, 1, t=t))
    ones = np.ones(g.size)
    err = np.max(np.abs(a.matrix @ ones - t * ones))
    assert err < 1e-11 * (2.0 / g.spacing[0] ** 2)


def test_neumann_2d_tensor_sum_spectrum():
    t = 0.5
    g = Grid(np.array([[0.0, 1.0], [0.0, 2.0]]), (6, 5))
    a = assemble_neumann(g, CoefficientField.isotropic(1.0, 2, t=t))
    ex = _stencil_eigs(6, g.spacing[0], 0.0)
    ey = _stencil_eigs(5, g.spacing[1], 0.0)
    expected = np.sort((t + ex[:, None] + ey[None, :]).ravel())
    got = np.sort(a.eigenvalues)
    assert np.max(np.abs(got - expected)) / expected[-1] < 1e-13


def test_neumann_2d_anisotropic_diagonal():
    t = 0.2
    g = Grid(np.array([[0.0, 1.0], [0.0, 1.0]]), (7, 7))
    coeffs = CoefficientField(np.diag([2.0, 0.5]), t=t)
    a = assemble_neumann(g, coeffs)
    ex = _stencil_eigs(7, g.spacing[0], 0.0, a=2.0)
    ey = _stencil_eigs(7, g.spacing[1], 0.0, a=0.5)
    expected = np.sort((t + ex[:, None] + ey[None, :]).ravel())
    got = np.sort(a.eigenvalues)
    assert np.max(np.abs(got - expected)) / expected[-1] < 1e-13


def test_neumann_cross_terms_symmetric_elliptic():
    g = Grid(np.array([[0.0, 1.0], [0.0, 1.0]]), (9, 9))
    tensor = np.array([[1.0, 0.3], [0.3, 1.0]])
    coeffs = CoefficientField(np.broadcast_to(tensor, (2, 2)).copy(), t=1.0)
    a = assemble_neumann(g, coeffs)
    assert np.max(np.abs(a.matrix - a.matrix.T)) < 1e-14 * np.abs(a.matrix).max()
    assert a.eigenvalues.min() > 0


def test_continuum_convergence_is_second_order():
    # first nonconstant mode of -u'' on (0,1) with Neumann ends: pi^2
    t = 1.0
    errs = []
    for n in (64, 128, 256):
        g = _grid1d(n)
        a = assemble_neumann(g, CoefficientField.isotropic(1.0, 1, t=t))
        lam1 = np.sort(a.eigenvalues)[1]
        errs.append(abs(lam1 - (t + np.pi**2)))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.05)
    assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.05)


def test_robin_zero_density_is_neumann():
    g = Grid(np.array([[0.0, 1.0], [0.0, 1.0]]), (8, 8))
    coeffs = CoefficientField.isotropic(1.0, 2, t=1.0)
    b = boundary_measure(g)
    a_n = assemble_neumann(g, coeffs)
    a_r = assemble_robin(g, coeffs, Perturbation.constant(b, 0.0))
    assert np.array_equal(a_r.matrix, a_n.matrix)


def test_robin_update_is_boundary_diagonal():
    g = Grid(np.array([[0.0, 1.0], [0.0, 1.5]]), (8, 6))
    coeffs = CoefficientField.isotropic(1.0, 2, t=1.0)
    bnd = boundary_measure(g)
    beta = 2.25
    a_n = assemble_neumann(g, coeffs)
    a_r = assemble_robin(g, coeffs, Perturbation.constant(bnd, beta))
    diff = a_r.matrix - a_n.matrix
    off = diff - np.diag(np.diag(diff))
    assert np.max(np.abs(off)) == 0.0
    # diagonal bump per boundary node is (atom weight * beta) / cell volume
    expected = np.zeros(g.size)
    nodes = g.nodes()
    for atom, w in zip(bnd.atoms, bnd.weights):
        idx = int(np.argmin(np.sum((nodes - atom) ** 2, axis=1)))
        expected[idx] += w * beta / g.cell_volume
    assert np.allclose(np.diag(diff), expected, rtol=1e-12, atol=1e-12)


def test_robin_negative_density_can_fail_positivity():
    g = _grid1d(16)
    coeffs = CoefficientField.isotropic(1.0, 1, t=1.0)
    bnd = boundary_measure(g)
    with pytest.raises(PositivityError):
        assemble_robin(g, coeffs, Perturbation.constant(bnd, -1e6))


def test_inverse_power_consistency():
    g = _grid1d(40)
    a = assemble_neumann(g, CoefficientField.isotropic(1.0, 1, t=2.0))
    inv = inverse_power(a, 1.0)
    direct = a.solve(np.eye(g.size))
    assert np.max(np.abs(inv - direct)) / np.abs(direct).max() < 1e-12
    half = inverse_power(a, 0.5)
    assert np.max(np.abs(half @ half - inv)) / np.abs(inv).max() < 1e-11
    for power in (inv, half):
        assert np.array_equal(power, power.T)
    with pytest.raises(ValidationError):
        inverse_power(a, -0.5)


def test_grid_geometry():
    g = Grid(np.array([[0.0, 2.0], [1.0, 2.0]]), (4, 5))
    assert g.size == 20
    assert np.allclose(g.spacing, [0.5, 0.2])
    assert g.cell_volume == pytest.approx(0.1)
    x = g.axis_nodes(0)
    assert np.allclose(x, [0.25, 0.75, 1.25, 1.75])
    assert g.nodes().shape == (20, 2)
    hull = g.nodes()
    assert hull[:, 0].min() == pytest.approx(0.25)
    assert hull[:, 1].max() == pytest.approx(1.9)


def test_grid_size_rule():
    # a grid is built when its factors and bands fit the byte bound: 257^2
    # and 33^3 are, 40^3, 41^3 and 513^2 are not, and neither is a shape
    # whose node count wraps around in int64 or overflows a float
    for shape in [(257, 257), (33, 33, 33), (90, 90), (6000,)]:
        g = Grid(np.array([[0.0, 1.0]] * len(shape)), shape)
        assert elliptic.held_bytes(g) <= elliptic.HELD_BYTES_BOUND
    for shape in [(40, 40, 40), (41, 41, 41), (513, 513), (2**32, 2**32),
                  (10**400,)]:
        with pytest.raises(ValidationError, match=r"would hold [\d,.e+]+ "
                           r"bytes .* at most 6,000,000,000 are allowed"):
            Grid(np.array([[0.0, 1.0]] * len(shape)), shape)


def test_held_bytes_counts_factors_bands_and_atom_side():
    # 3 factors of 16 nb b^2 bytes and 5 bands of 8 (S + 1) N bytes, S the
    # sum of the strides; the atom side adds N-row arrays and cores of
    # width r = min(m k, N)
    g = Grid(np.array([[0.0, 1.0]] * 2), (65, 65))
    n, s, b, nb = 65 * 65, 66, 66, 65
    base = 3 * 16 * nb * b * b + 5 * 8 * (s + 1) * n
    assert elliptic.held_bytes(g) == base
    for k, m, r in [(64, 1, 64), (64, 3, 192), (5000, 1, n), (64, 100, n)]:
        assert elliptic.held_bytes(g, k, m) == base + 8 * r * (
            birman_schwinger.ROW_ARRAYS * n
            + birman_schwinger.CORE_ARRAYS * r)


UNIT, EYE2 = [[0.0, 1.0]], np.eye(2)


@pytest.mark.parametrize("build, message", [
    (lambda: Grid(np.array(UNIT * 4), (3, 3, 3, 3)), "1D, 2D and 3D"),
    (lambda: Grid(np.array(UNIT * 2), (4,)), "disagree"),
    (lambda: Grid(np.array(UNIT * 2), (4, 2)), "at least 3 nodes"),
    (lambda: Grid(np.array([[0.0, 1.0], [0.5, 0.5]]), (4, 4)),
     "upper bounds"),
    (lambda: CoefficientField(np.ones((2, 3))), "square"),
    (lambda: CoefficientField(np.array([[1.0, 0.5], [0.0, 1.0]])),
     "symmetric"),
    (lambda: CoefficientField(np.diag([1.0, -1.0])), "not elliptic"),
    (lambda: CoefficientField(EYE2, t=0.0), "shift t"),
    (lambda: CoefficientField(EYE2, t=float("nan")), "shift t"),
    (lambda: Similitude(1.0, EYE2, np.zeros(2)), "ratio"),
    (lambda: Similitude(0.0, EYE2, np.zeros(2)), "ratio"),
    (lambda: Similitude(0.5, np.array([[1.0, 0.1], [0.0, 1.0]]),
                        np.zeros(2)), "not orthogonal"),
], ids=["grid_4d", "shape_bbox_lengths", "two_nodes", "bbox_hi_at_lo",
        "tensor_not_square", "tensor_not_symmetric", "tensor_not_elliptic",
        "t_zero", "t_nan", "ratio_one", "ratio_zero", "rotation_skewed"])
def test_constructors_reject_malformed_input(build, message):
    with pytest.raises(ValidationError, match=message):
        build()


def test_solve_matches_dense_solver():
    g = _grid1d(25)
    a = assemble_neumann(g, CoefficientField.isotropic(1.0, 1, t=1.5))
    rng = np.random.Generator(np.random.Philox(11))
    rhs = rng.standard_normal((25, 3))
    x = a.solve(rhs)
    x_ref = np.linalg.solve(a.matrix, rhs)
    assert np.max(np.abs(x - x_ref)) < 1e-10 * np.abs(x_ref).max()


def _box(shape, tensor=1.0, t=1.0):
    g = Grid(np.array([[0.0, 1.0]] * len(shape)), shape)
    coeffs = (CoefficientField.isotropic(tensor, len(shape), t=t)
              if np.ndim(tensor) == 0 else CoefficientField(tensor, t=t))
    return g, coeffs


ANISOTROPIC_3D = np.array([[1.5, 0.3, 0.2], [0.3, 1.0, 0.1], [0.2, 0.1, 2.0]])


def _factor_case(name):
    if name.startswith("1d"):
        g, coeffs = _box((int(name[3:]),))
        return assemble_neumann(g, coeffs)
    if name == "robin-41x41":
        g, coeffs = _box((41, 41))
        return assemble_robin(g, coeffs,
                              Perturbation.constant(boundary_measure(g), 1.0))
    if name == "anisotropic-20x13":
        g, coeffs = _box((20, 13), np.array([[1.0, 0.4], [0.4, 2.0]]))
        return assemble_neumann(g, coeffs)
    if name == "anisotropic-7x6x5":
        g, coeffs = _box((7, 6, 5), ANISOTROPIC_3D)
        a = assemble_neumann(g, coeffs)
        assert a.band.shape[0] == 6 * 5 + 5 + 1  # band n2 n3 + n3
        return a
    n1, n2 = (int(s) for s in name.split("x"))
    g, coeffs = _box((n1, n2))
    return assemble_neumann(g, coeffs)


@pytest.mark.parametrize("name", ["1d-512", "1d-4096", "1d-100", "33x33",
                                  "57x15", "robin-41x41", "anisotropic-20x13",
                                  "anisotropic-7x6x5"])
def test_block_factor_matches_lapack_banded(name):
    # the block LDL' solves as LAPACK's banded Cholesky does, both through
    # a factor of the same A; 1d-100 is not a multiple of the block size 16
    sla = pytest.importorskip("scipy.linalg")

    a = _factor_case(name)
    lapack = sla.cholesky_banded(a.band, lower=True)
    rng = np.random.Generator(np.random.Philox(5))
    rhs = rng.standard_normal((a.size, 7))
    # both are backward stable, so they agree to a small multiple of eps
    # times the condition number; every case has smallest eigenvalue
    # >= t = 1, and twice the largest column sum of the band bounds ||A||
    tol = 1e-16 * 2 * np.abs(a.band).sum(axis=0).max()
    got = a.solve(rhs)
    want = sla.cho_solve_banded((lapack, True), rhs)
    assert np.max(np.abs(got - want)) <= tol * np.max(np.abs(want))
    # a vector right-hand side keeps its shape
    assert a.solve(rhs[:, 0]).shape == (a.size,)
    assert np.allclose(a.solve(rhs[:, 0]), a.solve(rhs)[:, 0], rtol=0,
                       atol=1e-14 * np.max(np.abs(a.solve(rhs))))


def _padded_solve(a, rhs):
    # the two sweeps over a zero-padded copy of the right-hand side cut
    # into full blocks
    inv, low = a._factor
    nb, b = inv.shape[:2]
    y = np.zeros((nb * b, rhs.reshape(a.size, -1).shape[1]))
    y[:a.size] = rhs.reshape(a.size, -1)
    y = y.reshape(nb, b, -1)
    for i in range(1, nb):
        y[i] -= low[i - 1] @ y[i - 1]
    for i in range(nb - 1, -1, -1):
        z = inv[i] @ y[i]
        if i < nb - 1:
            z -= low[i].T @ y[i + 1]
        y[i] = z
    return y.reshape(nb * b, -1)[:a.size].reshape(rhs.shape)


@pytest.mark.parametrize("name, tail", [("robin-41x41", 1), ("57x15", 7)])
def test_solve_pads_only_a_short_last_block_and_can_overwrite(name, tail):
    # blocks of 42 over 1681 rows and of 16 over 855 leave a last block of
    # 1 and 7 rows: the solve has the bits of the padded sweeps, leaves
    # rhs as it was, and with overwrite=True returns rhs itself holding
    # the same bits, a column slice (as a sweep passes Z[:, r:]) included
    a = _factor_case(name)
    assert a.size % a._factor[0].shape[1] == tail
    wide = np.random.Generator(np.random.Philox(8)).standard_normal(
        (a.size, 12))
    for part in (np.s_[:, :], np.s_[:, 5:], np.s_[:, 0]):
        rhs = wide[part].copy()
        want = _padded_solve(a, rhs)
        assert a.solve(rhs).tobytes() == want.tobytes()
        assert np.array_equal(rhs, wide[part])
        work = wide.copy()
        view = work[part] if rhs.ndim == 2 else rhs  # a contiguous vector
        got = a.solve(view, overwrite=True)
        assert np.shares_memory(got, view)
        assert got.tobytes() == view.tobytes() == want.tobytes()
        work[part] = wide[part]
        assert np.array_equal(work, wide)  # nothing outside the view moved


def _blocks_scattering_every_entry(band):
    # the block split as first written: every (offset, column) pair inside
    # the matrix is scattered, the zero band rows included
    width, n = band.shape
    b = max(width - 1, 16)
    nb = -(-n // b)
    diag = np.zeros((nb, b, b))
    sub = np.zeros((nb - 1, b, b))
    offset, col = np.nonzero(np.arange(width)[:, None] + np.arange(n) < n)
    vals = band[offset, col]
    (bi, ri), (bj, cj) = divmod(col + offset, b), divmod(col, b)
    same = bi == bj
    diag[bj[same], ri[same], cj[same]] = vals[same]
    diag[bj[same], cj[same], ri[same]] = vals[same]
    sub[bj[~same], ri[~same], cj[~same]] = vals[~same]
    pad = np.arange(n, nb * b)
    diag[pad // b, pad % b, pad % b] = 1.0
    return diag, sub


@pytest.mark.parametrize("name", ["1d-512", "1d-4096", "1d-100", "33x33",
                                  "41x41", "57x15", "robin-41x41",
                                  "anisotropic-20x13", "anisotropic-7x6x5"])
def test_blocks_scatter_only_nonzero_band_rows_to_the_same_bytes(name):
    band = _factor_case(name).band
    for got, want in zip(elliptic._blocks(band),
                         _blocks_scattering_every_entry(band)):
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_arrays_behind_kept_solves_are_read_only():
    # an operator keeps its factor and an atom-side slot keyed to a
    # restriction, so none of the arrays they come from can change in place
    g, coeffs = _box((9, 7))
    a = assemble_neumann(g, coeffs)
    gam = restriction_matrix(g, boundary_measure(g))
    for arr in (a.band, a.plus(np.ones((1, a.size))).band, gam.cols,
                gam.vals):
        with pytest.raises(ValueError):
            arr[0, 0] = 1
        with pytest.raises(ValueError):
            arr += 1


def _centered(n, h):
    # centered first differences, one-sided at the two ends
    mat = np.zeros((n, n))
    mat[0, :2] = [-1.0 / h, 1.0 / h]
    mat[-1, -2:] = [-1.0 / h, 1.0 / h]
    for i in range(1, n - 1):
        mat[i, i - 1], mat[i, i + 1] = -0.5 / h, 0.5 / h
    return mat


def test_anisotropic_assembly_matches_sparse_products():
    # the cross terms G0' diag(a01) G1 + G1' diag(a01) G0 of centered first
    # differences (one-sided at the ends), built with SciPy's sparse kron
    sp = pytest.importorskip("scipy.sparse")
    shape = (9, 7)
    g = Grid(np.array([[0.0, 1.0], [0.0, 1.5]]), shape)
    rng = np.random.Generator(np.random.Philox(2))
    a01 = 0.3 * rng.uniform(-1.0, 1.0, g.size)
    tensors = np.zeros((g.size, 2, 2))
    tensors[:, 0, 0], tensors[:, 1, 1] = 2.0, 1.5
    tensors[:, 0, 1] = tensors[:, 1, 0] = a01
    a = assemble_neumann(g, CoefficientField(tensors, t=0.5))

    def edges(n, h):
        return (np.eye(n, k=1) - np.eye(n))[:-1] / h

    h = g.spacing
    eye = [np.eye(n) for n in shape]
    g0 = sp.kron(_centered(shape[0], h[0]), eye[1])
    g1 = sp.kron(eye[0], _centered(shape[1], h[1]))
    d0 = sp.kron(edges(shape[0], h[0]), eye[1])
    d1 = sp.kron(eye[0], edges(shape[1], h[1]))
    want = (d0.T @ sp.diags(np.full(d0.shape[0], 2.0)) @ d0
            + d1.T @ sp.diags(np.full(d1.shape[0], 1.5)) @ d1
            + g0.T @ sp.diags(a01) @ g1 + g1.T @ sp.diags(a01) @ g0
            + 0.5 * sp.identity(g.size)).toarray()
    assert a.band.shape[0] == shape[1] + 2  # band n2 + 1
    assert np.max(np.abs(a.matrix - want)) <= 1e-13 * np.abs(want).max()


def test_3d_cross_terms_match_kron_products():
    # every axis pair i < j adds G_i' diag(a_ij) G_j + its transpose, G_i
    # the centered differences along axis i, with per-node coefficients
    shape = (6, 5, 4)
    g = Grid(np.array([[0.0, 1.0], [0.0, 0.9], [0.0, 0.8]]), shape)
    rng = np.random.Generator(np.random.Philox(3))
    tensors = np.zeros((g.size, 3, 3))
    tensors[:] = np.diag([2.0, 1.5, 1.8])
    plain = assemble_neumann(g, CoefficientField(tensors, t=0.5))
    want = np.zeros((g.size, g.size))
    for i in range(3):
        for j in range(i + 1, 3):
            a_ij = 0.3 * rng.uniform(-1.0, 1.0, g.size)
            tensors[:, i, j] = tensors[:, j, i] = a_ij
            diffs = []
            for axis in (i, j):
                factors = [np.eye(n) for n in shape]
                factors[axis] = _centered(shape[axis], g.spacing[axis])
                diffs.append(np.kron(np.kron(factors[0], factors[1]),
                                     factors[2]))
            cross = diffs[0].T @ (a_ij[:, None] * diffs[1])
            want += cross + cross.T
    a = assemble_neumann(g, CoefficientField(tensors, t=0.5))
    assert a.band.shape[0] == 5 * 4 + 4 + 1  # band n2 n3 + n3
    got = a.matrix - plain.matrix
    assert np.max(np.abs(got - want)) <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("tensor", [1.7, ANISOTROPIC_3D],
                         ids=["isotropic", "anisotropic"])
def test_3d_constant_mode(tensor):
    # A 1 = t 1 in 3D too: every difference of a constant vanishes
    g, coeffs = _box((9, 8, 7), tensor, t=0.7)
    a = assemble_neumann(g, coeffs)
    ones = np.ones(g.size)
    err = np.max(np.abs(a.matrix @ ones - 0.7))
    assert err <= 1e-13 * np.abs(a.band).max()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("where", ["everywhere", "last node", "middle block",
                                   "huge middle node", "overflow", "nan",
                                   "singular", "singular 32x32",
                                   "singular 33x33"])
def test_indefinite_matrix_raises_positivity_error(where):
    # the failing pivot is in the first block, in the padded last one or in
    # a middle one; a -1e300 coupling of nodes 47 and 48, across the border
    # of blocks 2 and 3, overflows the next pivot; a NaN leaves every
    # Cholesky factorization silent, so only the finiteness check sees it;
    # A - t 1 has the constant vector in its kernel. On 32 x 32 and
    # 33 x 33 rounding leaves its last pivot slightly positive, and only
    # the pivot floor refuses it. None of them warns
    g, coeffs = _box((32, 32) if "32x32" in where
                     else (33, 33) if "33x33" in where else (100,))
    a = assemble_neumann(g, coeffs)
    shift = np.zeros((2, a.size))
    if where == "everywhere":
        shift[0] = -5.0
    elif where == "last node":
        shift[0, -1] = -1e6
    elif where == "middle block":
        shift[0, 50] = -1e6
    elif where == "huge middle node":
        shift[0, 50] = -1e300
    elif where == "overflow":
        shift[1, 47] = -1e300
    elif where == "nan":
        shift[0, 50] = np.nan
    else:
        shift[0] = -coeffs.t
    with pytest.raises(PositivityError, match="not positive definite"):
        a.plus(shift).solve(np.ones(a.size))


@pytest.mark.parametrize("shape", [(65, 65), (17, 17, 17)],
                         ids=["65x65", "17x17x17"])
def test_factor_peak_memory_stays_near_its_own_size(shape):
    # the blocks are factored where _blocks puts them, and the positivity
    # check holds only a small chunk of them at a time: tracemalloc's peak
    # over building the factor stays within 1.25 x its 16 nb b^2 bytes
    g, coeffs = _box(shape)
    a = assemble_neumann(g, coeffs)
    tracemalloc.start()
    try:
        inv, _ = a._factor
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    nb, b = inv.shape[:2]
    assert b == math.prod(shape[1:])
    assert peak <= 1.25 * 16 * nb * b * b
