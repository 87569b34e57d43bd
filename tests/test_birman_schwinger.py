"""Restriction interpolation and sandwich-operator spectral identities."""

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
