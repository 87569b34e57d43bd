"""Restriction interpolation and sandwich-operator spectral identities."""

import tracemalloc

import numpy as np
import pytest

from deltaspec import (
    CoefficientField,
    DiscreteMeasure,
    Grid,
    Perturbation,
    ValidationError,
    assemble_neumann,
    bs_atom_gram,
    bs_operator,
    boundary_measure,
    positivity_margin,
    restriction_matrix,
    segment_measure,
)
from deltaspec import birman_schwinger


def _setup_1d(n=32, t=1.0):
    g = Grid(np.array([[0.0, 1.0]]), (n,))
    a = assemble_neumann(g, CoefficientField.isotropic(1.0, 1, t=t))
    return g, a


def _point_measure(x, weight=0.7):
    return DiscreteMeasure(np.array([x]), np.array([weight]), nominal_dim=0.0)


def test_restriction_rows_partition_of_unity():
    g, _ = _setup_1d(16)
    m = segment_measure(np.array([[0.11], [0.93]]), 25)
    gam = restriction_matrix(g, m)
    sums = gam.adjoint().sum(axis=0)
    assert np.allclose(sums, 1.0, atol=1e-14)


def test_restriction_exact_on_linear_functions():
    g = Grid(np.array([[0.0, 1.0], [0.0, 2.0]]), (12, 9))
    m = segment_measure(np.array([[0.2, 0.3], [0.8, 1.6]]), 30)
    gam = restriction_matrix(g, m)
    nodes = g.nodes()
    f = 2.0 * nodes[:, 0] - 0.5 * nodes[:, 1] + 3.0
    at_atoms = 2.0 * m.atoms[:, 0] - 0.5 * m.atoms[:, 1] + 3.0
    assert np.allclose(gam.apply(f), at_atoms, atol=1e-12)
    assert np.allclose(gam.adjoint().T @ f, at_atoms, atol=1e-12)


def test_restriction_atom_on_node_is_basis_row():
    # a point on a node of a 1D grid, and the 41 x 41 box boundary, whose
    # atom coordinates miss their nodes by rounding error on some axes
    g1, _ = _setup_1d(10)
    g2 = Grid(np.array([[0.0, 1.0], [0.0, 1.0]]), (41, 41))
    for g, m in ((g1, _point_measure([g1.axis_nodes(0)[3]])),
                 (g2, boundary_measure(g2))):
        gam = restriction_matrix(g, m)
        nearest = np.argmin(
            ((m.atoms[:, None, :] - g.nodes()[None, :, :]) ** 2).sum(axis=2),
            axis=1)
        expected = np.zeros((m.count, g.size))
        expected[np.arange(m.count), nearest] = 1.0
        assert np.array_equal(gam.adjoint().T, expected)


def test_restriction_rejects_outside_atoms():
    g, _ = _setup_1d(10)
    with pytest.raises(ValidationError):
        restriction_matrix(g, _point_measure([1.7]))


def test_rank_one_eigenvalue_oracle():
    # single atom: T has one nonzero eigenvalue  alpha * u' A^{-1} u
    g, a = _setup_1d(32, t=1.3)
    w, c = 0.7, 2.4
    m = _point_measure([0.41], weight=w)
    gam = restriction_matrix(g, m)
    t_op = bs_operator(a, gam, Perturbation.constant(m, c))
    eig = np.linalg.eigvalsh(t_op.matrix)
    u = gam.adjoint()[:, 0]
    alpha = w * c / g.cell_volume
    lam_oracle = alpha * float(u @ a.solve(u))
    assert abs(eig[-1] - lam_oracle) / lam_oracle < 1e-12
    assert np.max(np.abs(eig[:-1])) < 1e-12 * lam_oracle


def test_sign_carries_into_spectrum():
    g, a = _setup_1d(24)
    m = _point_measure([0.3], weight=1.0)
    gam = restriction_matrix(g, m)
    t_pos = bs_operator(a, gam, Perturbation.constant(m, 2.0))
    t_neg = bs_operator(a, gam, Perturbation.constant(m, -2.0))
    assert np.allclose(t_neg.matrix, -t_pos.matrix, atol=1e-14)
    margin_pos = positivity_margin(t_pos)
    margin_neg = positivity_margin(t_neg)
    lam = np.linalg.eigvalsh(t_pos.matrix)[-1]
    assert margin_pos == pytest.approx(1.0, abs=1e-12)
    assert margin_neg == pytest.approx(1.0 - lam, rel=1e-10)


def test_positivity_margin_is_computed_once_per_operator(monkeypatch):
    g, a = _setup_1d(24)
    m = _point_measure([0.3], weight=1.0)
    t_op = bs_operator(a, restriction_matrix(g, m),
                       Perturbation.constant(m, -2.0))
    calls = []
    eigvalsh = birman_schwinger.np.linalg.eigvalsh

    def counting_eigvalsh(*args, **kwargs):
        calls.append(1)
        return eigvalsh(*args, **kwargs)

    monkeypatch.setattr(birman_schwinger.np.linalg, "eigvalsh",
                        counting_eigvalsh)
    first = positivity_margin(t_op)
    assert positivity_margin(t_op) == first
    assert len(calls) == 1


def test_coupling_symmetric_and_psd_for_nonneg_v():
    g, a = _setup_1d(20)
    m = segment_measure(np.array([[0.2], [0.9]]), 15)
    gam = restriction_matrix(g, m)
    rng = np.random.Generator(np.random.Philox(5))
    p = Perturbation(m, np.abs(rng.standard_normal(15)))
    t_op = bs_operator(a, gam, p)
    assert np.allclose(t_op.matrix, t_op.matrix.T, atol=1e-14)
    assert np.linalg.eigvalsh(t_op.matrix).min() > -1e-13


def test_atom_gram_matches_sandwich_spectrum():
    g, a = _setup_1d(64, t=0.9)
    m = segment_measure(np.array([[0.1], [0.7]]), 18)
    gam = restriction_matrix(g, m)
    rng = np.random.Generator(np.random.Philox(13))
    p = Perturbation(m, np.abs(rng.standard_normal(18)))
    gram = bs_atom_gram(a, gam, p)
    t_eig = np.sort(np.linalg.eigvalsh(bs_operator(a, gam, p).matrix))[::-1]
    g_eig = np.sort(np.linalg.eigvalsh(gram))[::-1]
    assert np.allclose(g_eig, t_eig[:18], rtol=1e-10, atol=1e-13)


def test_atom_gram_carries_signed_spectrum():
    # the core serves either sign: its eigenvalues are the nonzero ones of
    # T, and its smallest one gives the positivity margin
    g, a = _setup_1d(40)
    m = segment_measure(np.array([[0.2], [0.8]]), 12)
    gam = restriction_matrix(g, m)
    rng = np.random.Generator(np.random.Philox(17))
    p = Perturbation(m, 2.0 * rng.standard_normal(12))
    gram = bs_atom_gram(a, gam, p)
    assert gram.shape == (12, 12)
    t_op = bs_operator(a, gam, p)
    t_eig = np.linalg.eigvalsh(t_op.matrix)
    nonzero = t_eig[np.abs(t_eig) > 1e-10 * np.abs(t_eig).max()]
    assert np.allclose(np.linalg.eigvalsh(gram), nonzero, rtol=1e-10,
                       atol=1e-13 * np.abs(t_eig).max())
    assert positivity_margin(t_op) == pytest.approx(1.0 + t_eig.min(),
                                                    rel=1e-10)


def test_grid_measure_dimension_mismatch():
    g, _ = _setup_1d(12)
    m2 = segment_measure(np.array([[0.1, 0.1], [0.5, 0.5]]), 6)
    with pytest.raises(ValidationError):
        restriction_matrix(g, m2)


@pytest.mark.parametrize("ends, atoms", [
    ([[0.1, 0.1], [0.3, 0.9]], 16),  # as many atoms, elsewhere
    ([[0.2, 0.5], [0.8, 0.5]], 15),  # fewer atoms on the same segment
], ids=["other_atoms", "other_count"])
def test_weight_on_another_measure_is_rejected(ends, atoms):
    # a weight's values belong to the atoms of its own measure: on a
    # restriction to other atoms they would land where they were not drawn
    g = Grid(np.array([[0.0, 1.0], [0.0, 1.0]]), (20, 20))
    a = assemble_neumann(g, CoefficientField.isotropic(1.0, 2, t=1.0))
    gam = restriction_matrix(
        g, segment_measure(np.array([[0.2, 0.5], [0.8, 0.5]]), 16))
    other = segment_measure(np.array(ends), atoms)
    with pytest.raises(ValidationError):
        bs_operator(a, gam, Perturbation.constant(other, 1.0))
    # a measure with the restriction's atoms is accepted
    same = DiscreteMeasure(gam.measure.atoms.copy(), gam.measure.weights,
                           nominal_dim=1.0)
    assert bs_operator(a, gam, Perturbation.constant(same, 1.0)).band.any()


# ------------------------------------------------ the operator's atom side

ATOM_SIDE_CASES = {
    # name: (bbox, shape, segment endpoints, atoms); "1d-nodes" has more
    # atoms than nodes, so its core is N x N
    "1d": ([[0.0, 1.0]], (64,), [[0.1], [0.7]], 18),
    "1d-nodes": ([[0.0, 1.0]], (24,), [[0.2], [0.8]], 32),
    "2d": ([[0.0, 1.0], [0.0, 1.0]], (17, 17), [[0.2, 0.45], [0.8, 0.45]],
           24),
    "3d": ([[0.0, 1.0], [0.0, 0.9], [0.0, 0.8]], (8, 7, 6),
           [[0.2, 0.3, 0.4], [0.8, 0.6, 0.5]], 20),
}


def _side_setup(case):
    bbox, shape, ends, atoms = ATOM_SIDE_CASES[case]
    g = Grid(np.array(bbox), shape)
    a = assemble_neumann(g, CoefficientField.isotropic(1.0, len(shape), t=1.0))
    m = segment_measure(np.array(ends), atoms)
    return a, restriction_matrix(g, m), m


def _signed(m, seed):
    rng = np.random.Generator(np.random.Philox(seed))
    return Perturbation(m, 2.0 * rng.standard_normal(m.count))


def _reference_core(t_op):
    # the per-weight formula: G = gamma A^-1 gamma' (A^-1 itself when the
    # nodes serve as atoms), its eigendecomposition G = U W U' and
    # R = (U W^1/2)' (times gamma' for the node basis), largest eigenvalue
    # first, with the full density
    a, gam = t_op.operator, t_op.restriction
    nodes = len(gam.cols) >= a.size
    x = a.solve(np.eye(a.size) if nodes else gam.apply(np.eye(a.size)).T)
    g = x if nodes else gam.apply(x)
    w, u = np.linalg.eigh(0.5 * (g + g.T))
    r = (u * np.sqrt(np.clip(w, 0.0, None)))[:, ::-1]
    r = (gam.apply(r) if nodes else r).T
    core = (r * t_op.density) @ r.T
    return 0.5 * (core + core.T)


def _reference_margin(t_op):
    core = _reference_core(t_op)
    w_min = float(np.linalg.eigvalsh(core)[0])
    if core.shape[0] < t_op.size:
        w_min = min(w_min, 0.0)
    return 1.0 + w_min


@pytest.mark.parametrize("case", sorted(ATOM_SIDE_CASES))
def test_core_and_margin_match_the_per_weight_formula(case):
    # a weight nonzero on every atom, and one that is zero on every third
    # atom: the core covers every atom, its zeros are zeros of D, and both
    # give the bytes of the reference
    a, gam, m = _side_setup(case)
    values = _signed(m, 3).values
    for weight in (values, values * (np.arange(m.count) % 3 != 0)):
        t_op = bs_operator(a, gam, Perturbation(m, weight))
        core, margin = t_op.core, positivity_margin(t_op)
        assert core.shape == (min(a.size, m.count),) * 2
        assert core.tobytes() == _reference_core(t_op).tobytes()
        assert margin == _reference_margin(t_op)


def test_weights_on_one_support_take_one_eigendecomposition_of_g(
        monkeypatch):
    # R depends on A and the atoms only: several signed weights, on every
    # atom and on different supports, their margins and the reports after
    # them take one k x k eigendecomposition, that of G
    from deltaspec import power_difference, resolvent_difference

    a, gam, m = _side_setup("2d")
    side = birman_schwinger._atom_side_of(a, gam)
    calls = []
    eigh = np.linalg.eigh

    def counting(x, *args, **kwargs):
        # the Krylov blocks' Gram matrices are k x k too; count G alone
        if x is side.__dict__.get("g"):
            calls.append(1)
        return eigh(x, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    atom = np.arange(m.count)
    supports = (atom >= 0, atom >= 0, atom >= 0, atom % 3 != 0,
                atom < m.count // 2)
    t_ops = [bs_operator(a, gam, Perturbation(
        m, 0.3 * _signed(m, s).values * keep))
        for s, keep in zip((7, 8, 9, 10, 11), supports)]
    for t_op in t_ops:
        positivity_margin(t_op)
        resolvent_difference(a, t_op)
        power_difference(a, t_op, 2)
    assert len(calls) == 1


def _oracle_spectrum(a, gam, density):
    # the dense path the factor used to take: A = L L' by numpy's Cholesky,
    # Y = L^-1 gamma' = Q_Y R (thin QR) and the eigenvalues of R D R'
    y = np.linalg.solve(np.linalg.cholesky(a.matrix), gam.adjoint())
    r = np.linalg.qr(y, mode="r")
    core = (r * density) @ r.T
    return np.linalg.eigvalsh(0.5 * (core + core.T))


def _shared_cell_setup():
    # 1D, 32 nodes, 12 atoms: atoms 3 and 4 coincide, and atoms 7, 8 and 9
    # lie in one cell, so gamma has dependent rows and G is singular
    g = Grid(np.array([[0.0, 1.0]]), (32,))
    a = assemble_neumann(g, CoefficientField.isotropic(1.0, 1, t=1.0))
    x = np.linspace(0.1, 0.9, 12)
    x[4] = x[3]
    x[7:10] = [0.59, 0.595, 0.6]
    m = DiscreteMeasure(x[:, None], np.full(12, 0.8 / 12), nominal_dim=1.0)
    return a, restriction_matrix(g, m), m


@pytest.mark.parametrize("case", sorted(ATOM_SIDE_CASES) + ["shared-cell"])
def test_core_spectrum_matches_the_dense_qr_oracle(case):
    # signed weights, on every atom and zero on every third atom: the
    # eigenvalues of R D R' agree with the dense QR path to 1e-12 of the
    # largest one, also where G is singular
    a, gam, m = (_shared_cell_setup() if case == "shared-cell"
                 else _side_setup(case))
    if case == "shared-cell":
        g = gam.apply(a.solve(gam.adjoint()))
        assert np.linalg.matrix_rank(g) == m.count - 2
    values = _signed(m, 5).values
    for weight in (values, values * (np.arange(m.count) % 3 != 0)):
        t_op = bs_operator(a, gam, Perturbation(m, weight))
        want = _oracle_spectrum(a, gam, t_op.density)
        got = np.linalg.eigvalsh(t_op.core)
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("case", sorted(ATOM_SIDE_CASES))
def test_core_on_a_warm_side_equals_a_cold_one(case):
    # a side that reports have filled (X, G, the Krylov blocks)
    # and R built after them, against the core on a fresh A
    from deltaspec import power_difference

    a, gam, m = _side_setup(case)
    power_difference(a, bs_operator(a, gam, Perturbation.constant(m, 1.0)), 3)
    warm = bs_operator(a, gam, _signed(m, 11))
    a_cold, gam_cold, _ = _side_setup(case)
    cold = bs_operator(a_cold, gam_cold, _signed(m, 11))
    assert warm.core.tobytes() == cold.core.tobytes()
    assert positivity_margin(warm) == positivity_margin(cold)


# ----------------------------------------- orthonormalizing a Krylov block


@pytest.mark.parametrize("floor, width", [(1e-8, 120), (1e-11, 120),
                                          (1e-13, 115), (1e-15, 100),
                                          (1e-17, 89)])
def test_orthonormal_block_keeps_the_directions_of_the_block_svd(floor,
                                                                 width):
    # 1000 x 120 blocks with singular values graded from 1 down to the
    # floor, which straddles RANK_TOL: the helper keeps as many directions
    # as the SVD of the block would, orthonormal, and spans the block as
    # well as the SVD's kept left vectors do
    rng = np.random.Generator(np.random.Philox(0))
    u = np.linalg.qr(rng.standard_normal((1000, 120)))[0]
    v = np.linalg.qr(rng.standard_normal((120, 120)))[0]
    block = (u * np.logspace(0, np.log10(floor), 120)) @ v.T
    scale = float(np.sqrt((block * block).sum(axis=0)).max())
    got = birman_schwinger._orthonormal_block(block, np.zeros((1000, 0)))
    svd_u, s, _ = np.linalg.svd(block, full_matrices=False)
    want = svd_u[:, s > birman_schwinger.RANK_TOL * scale]
    assert got.shape == want.shape == (1000, width)
    assert np.abs(got.T @ got - np.eye(width)).max() <= 1e-13

    def outside(basis):
        return np.linalg.norm(block - basis @ (basis.T @ block))

    assert outside(got) <= 10 * outside(want)


def test_orthonormal_block_takes_a_weak_cluster_in_a_second_pass(
        monkeypatch):
    # 1000 x 60 block with 30 singular values in [0.5, 1] and 30 in
    # [1e-9, 2e-9]: one Gram matrix cannot resolve the weak cluster (its
    # eigenvalues sit near the rounding of the strong ones), so a second
    # pass on the deflated block keeps it; every direction is kept,
    # orthonormal, and the block is spanned as by the SVD's left vectors
    rng = np.random.Generator(np.random.Philox(1))
    u = np.linalg.qr(rng.standard_normal((1000, 60)))[0]
    v = np.linalg.qr(rng.standard_normal((60, 60)))[0]
    s = np.concatenate([np.linspace(1.0, 0.5, 30),
                        np.linspace(2e-9, 1e-9, 30)])
    block = (u * s) @ v.T
    grams, eigh = [], np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh",
                        lambda x: grams.append(x.shape) or eigh(x))
    got = birman_schwinger._orthonormal_block(block, np.zeros((1000, 0)))
    assert grams == [(60, 60)] * 2
    assert got.shape == (1000, 60)
    assert np.abs(got.T @ got - np.eye(60)).max() <= 1e-13
    svd_u = np.linalg.svd(block, full_matrices=False)[0]

    def outside(basis):
        return np.linalg.norm(block - basis @ (basis.T @ block))

    assert outside(got) <= 10 * outside(svd_u)


def test_orthonormal_block_of_duplicated_columns_has_the_rank_as_width():
    # X = A^-1 gamma' of atoms that share nodes (atoms 3 and 4 coincide,
    # 7, 8 and 9 lie in one cell) has rank k - 2, and X beside itself has
    # the same rank: each block's width is that rank, and X is not written
    a, gam, m = _shared_cell_setup()
    x = birman_schwinger._atom_side_of(a, gam).x
    before = x.copy()
    for block in (x, np.hstack([x, x])):
        got = birman_schwinger._orthonormal_block(block, np.zeros((32, 0)))
        assert got.shape == (32, m.count - 2)
        assert np.abs(got.T @ got - np.eye(m.count - 2)).max() <= 1e-13
        assert np.linalg.norm(block - got @ (got.T @ block)) <= (
            1e-12 * np.linalg.norm(block))
    assert x.tobytes() == before.tobytes()


def test_krylov_basis_takes_no_qr_and_no_svd(monkeypatch):
    # the robin2d box (41 x 41): the blocks of m = 3 are orthonormalized
    # from their Gram matrices alone
    g = Grid(np.array([[0.0, 1.0], [0.0, 1.0]]), (41, 41))
    a = assemble_neumann(g, CoefficientField.isotropic(1.0, 2, t=1.0))
    side = birman_schwinger._atom_side_of(
        a, restriction_matrix(g, boundary_measure(g)))

    def refused(*args, **kwargs):
        raise AssertionError("a QR or an SVD was taken")

    monkeypatch.setattr(np.linalg, "qr", refused)
    monkeypatch.setattr(np.linalg, "svd", refused)
    assert side.basis(3).shape == (a.size, 160 + 152 + 144)


def test_basis_grows_its_blocks_in_one_array():
    # the segment2d-weyl segment (57 x 15, 64 atoms) with X built: basis(3)
    # allocates its 111 columns once, and beside them holds one block's
    # working set (the solved block, its kept directions and one product);
    # its traced peak is 2.05 basis sizes, and 2.37 when each block copied
    # the basis so far and was projected on a copy of its own
    g = Grid(np.array([[0.0, 1.6], [0.0, 0.4]]), (57, 15))
    m = segment_measure(np.array([[0.3, 0.2], [1.3, 0.2]]), 64)
    a = assemble_neumann(g, CoefficientField.isotropic(1.0, 2, t=1.0))
    side = birman_schwinger._atom_side_of(a, restriction_matrix(g, m))
    side.x
    tracemalloc.start()
    try:
        q = side.basis(3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert q.shape == (a.size, 111)
    assert peak <= 2.2 * q.nbytes


@pytest.mark.parametrize("case", ["box", "segment"])
def test_krylov_blocks_keep_their_widths_and_are_orthonormal(case):
    # the robin2d box boundary (41 x 41) and the segment2d-weyl segment
    # (57 x 15, 64 atoms) at m = 3: each block is orthonormal and
    # orthogonal to the earlier ones
    if case == "box":
        g = Grid(np.array([[0.0, 1.0], [0.0, 1.0]]), (41, 41))
        m, widths = boundary_measure(g), [160, 152, 144]
    else:
        g = Grid(np.array([[0.0, 1.6], [0.0, 0.4]]), (57, 15))
        m = segment_measure(np.array([[0.3, 0.2], [1.3, 0.2]]), 64)
        widths = [37, 37, 37]
    a = assemble_neumann(g, CoefficientField.isotropic(1.0, 2, t=1.0))
    side = birman_schwinger._atom_side_of(a, restriction_matrix(g, m))
    q = side.basis(3)
    assert side._widths == widths
    assert np.abs(q.T @ q - np.eye(q.shape[1])).max() <= 1e-13


def test_warm_basis_calls_copy_no_basis(monkeypatch):
    # the segment2d-weyl segment with m = 3 built: A's sweeps of lower
    # powers read read-only views of the kept blocks, no N x r copies
    g = Grid(np.array([[0.0, 1.6], [0.0, 0.4]]), (57, 15))
    m = segment_measure(np.array([[0.3, 0.2], [1.3, 0.2]]), 64)
    a = assemble_neumann(g, CoefficientField.isotropic(1.0, 2, t=1.0))
    side = birman_schwinger._atom_side_of(a, restriction_matrix(g, m))
    side.basis(3)
    handed, basis = [], side.basis
    monkeypatch.setattr(side, "basis",
                        lambda m: handed.append(basis(m)) or handed[-1])
    for power in (1, 2):
        side.sweep(None, power)
    assert {q.shape[1] for q in handed} == {37, 74}
    for q in handed:
        assert np.shares_memory(q, side._blocks) and not q.flags.writeable


@pytest.mark.parametrize("n", [63, 64, 65, 1089])
def test_in_place_symmetrizer_gives_the_bytes_of_sym(n):
    # row blocks of ceil(n / 32) rows, over square sizes around a power
    # of two and the node count of a 33 x 33 grid
    x = np.random.Generator(np.random.Philox(n)).standard_normal((n, n))
    want = birman_schwinger._sym(x)
    got = birman_schwinger._sym_inplace(x)
    assert got is x
    assert got.tobytes() == want.tobytes()
