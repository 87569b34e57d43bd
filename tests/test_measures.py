"""Measure constructors, Moran dimension, Ahlfors regularity estimates."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deltaspec import (
    DiscreteMeasure,
    Grid,
    Similitude,
    ValidationError,
    boundary_measure,
    estimate_ahlfors_constants,
    ifs_measure,
    lebesgue_measure,
    segment_measure,
    solve_moran_dimension,
    union_measure,
)
from deltaspec import measures
from deltaspec.errors import NumericalError

LOG2_OVER_LOG3 = math.log(2.0) / math.log(3.0)


def _cantor_maps(rho=1.0 / 3.0):
    eye = np.eye(1)
    return [
        Similitude(rho, eye, np.array([0.0])),
        Similitude(rho, eye, np.array([1.0 - rho])),
    ]


def _cantor(depth):
    return ifs_measure(_cantor_maps(), depth)


def test_moran_two_thirds():
    d = solve_moran_dimension([1.0 / 3.0, 1.0 / 3.0])
    assert abs(d - LOG2_OVER_LOG3) < 1e-12


def test_moran_golden_ratio_oracle():
    # 0.5^d + 0.25^d = 1 has the closed-form solution d = log2(phi)
    d = solve_moran_dimension([0.5, 0.25])
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    assert abs(d - math.log(phi) / math.log(2.0)) < 1e-12


def test_moran_single_ratio_is_zero():
    assert solve_moran_dimension([0.5]) == 0.0


@pytest.mark.parametrize("bad", [[1.0, 0.5], [0.0, 0.5], [-0.2, 0.5], []])
def test_moran_rejects_inadmissible_ratios(bad):
    with pytest.raises(ValidationError):
        solve_moran_dimension(bad)


@given(
    rho=st.floats(min_value=0.05, max_value=0.49),
    m=st.integers(min_value=2, max_value=6),
)
@settings(max_examples=40, deadline=None)
def test_moran_equal_ratios_closed_form(rho, m):
    d = solve_moran_dimension([rho] * m)
    assert abs(d - math.log(m) / math.log(1.0 / rho)) < 1e-10
    assert abs(sum(rho**d for _ in range(m)) - 1.0) < 1e-10


def test_cantor_measure_basics():
    m = _cantor(8)
    assert m.count == 256
    assert abs(m.weights.sum() - 1.0) < 1e-12
    assert abs(m.nominal_dim - LOG2_OVER_LOG3) < 1e-12
    assert m.atoms.min() >= 0.0
    assert m.atoms.max() <= 1.0


def test_cantor_branch_masses():
    # the word structure puts exactly half the mass in each third
    m = _cantor(7)
    left = m.atoms[:, 0] < 1.0 / 3.0
    assert abs(m.weights[left].sum() - 0.5) < 1e-13
    far_left = m.atoms[:, 0] < 1.0 / 9.0
    assert abs(m.weights[far_left].sum() - 0.25) < 1e-13


def test_ifs_atom_cap():
    with pytest.raises(ValidationError):
        ifs_measure(_cantor_maps(), depth=13)


def test_ifs_rotation_2d():
    rot = np.array([[0.0, -1.0], [1.0, 0.0]])
    maps = [
        Similitude(0.5, np.eye(2), np.array([0.0, 0.0])),
        Similitude(0.5, rot, np.array([0.5, 0.0])),
    ]
    m = ifs_measure(maps, depth=5)
    assert m.count == 32
    assert abs(m.weights.sum() - 1.0) < 1e-12
    assert m.ambient_dim == 2


def test_segment_mass_is_length():
    seg = segment_measure(np.array([[0.1, 0.2], [0.7, 1.0]]), 37)
    length = math.hypot(0.6, 0.8)
    assert abs(seg.weights.sum() - length) < 1e-14
    assert seg.count == 37
    assert seg.nominal_dim == 1.0


def test_segment_atoms_inside_and_even():
    seg = segment_measure(np.array([[0.0], [1.0]]), 10)
    gaps = np.diff(seg.atoms[:, 0])
    assert np.allclose(gaps, 0.1, atol=1e-15)
    assert seg.atoms[0, 0] == pytest.approx(0.05)
    assert seg.atoms[-1, 0] == pytest.approx(0.95)


def test_segment_rejects_degenerate():
    with pytest.raises(ValidationError):
        segment_measure(np.array([[0.3, 0.3], [0.3, 0.3]]), 8)
    with pytest.raises(ValidationError):
        segment_measure(np.array([[0.0], [1.0]]), 1)


def test_boundary_measure_2d_perimeter():
    g = Grid(np.array([[0.0, 2.0], [0.0, 1.0]]), (16, 8))
    b = boundary_measure(g)
    assert abs(b.weights.sum() - 6.0) < 1e-12
    assert b.nominal_dim == 1.0


def test_boundary_measure_1d_endpoints():
    g = Grid(np.array([[0.0, 1.0]]), (32,))
    b = boundary_measure(g)
    assert b.count == 2
    assert abs(b.weights.sum() - 2.0) < 1e-15
    assert b.nominal_dim == 0.0


def _boundary_reference(g):
    # the per-dimension construction: the two end nodes in 1D, a loop over
    # every node in 2D
    if g.ambient_dim == 1:
        nodes = g.axis_nodes(0)
        return np.array([[nodes[0]], [nodes[-1]]]), np.array([1.0, 1.0])
    (nx, ny), (hx, hy) = g.shape, g.spacing
    xs, ys = g.axis_nodes(0), g.axis_nodes(1)
    pts, wts = [], []
    for ix in range(nx):
        for iy in range(ny):
            w = 0.0
            if iy == 0 or iy == ny - 1:
                w += hx
            if ix == 0 or ix == nx - 1:
                w += hy
            if w > 0.0:
                pts.append((xs[ix], ys[iy]))
                wts.append(w)
    return np.array(pts), np.array(wts)


@pytest.mark.parametrize("bbox, shape", [
    ([[0.0, 1.0], [0.0, 1.0]], (41, 41)),
    ([[0.0, 1.9], [0.3, 1.6]], (19, 13)),
    ([[-0.5, 2.0]], (37,)),
], ids=["41x41", "19x13", "1d"])
def test_boundary_measure_equals_per_dimension_reference(bbox, shape):
    g = Grid(np.array(bbox), shape)
    b = boundary_measure(g)
    atoms, weights = _boundary_reference(g)
    assert np.array_equal(b.atoms, atoms)
    assert np.array_equal(b.weights, weights)
    assert b.nominal_dim == len(shape) - 1
    assert b.label == f"boundary({len(shape)}d)"


def test_boundary_measure_3d_surface_area():
    a, b, c = 1.0, 0.9, 0.8
    g = Grid(np.array([[0.0, a], [0.0, b], [0.0, c]]), (9, 8, 7))
    bnd = boundary_measure(g)
    assert bnd.count == 9 * 8 * 7 - 7 * 6 * 5
    assert abs(bnd.weights.sum() - 2.0 * (a * b + b * c + c * a)) < 1e-12
    assert bnd.nominal_dim == 2.0
    # a corner node owns three outer faces
    corner = g.cell_volume * (1.0 / g.spacing).sum()
    assert bnd.weights[0] == pytest.approx(corner)


def test_lebesgue_measure_volume():
    g = Grid(np.array([[0.0, 1.5], [0.0, 2.0]]), (6, 8))
    m = lebesgue_measure(g)
    assert m.count == g.size
    assert abs(m.weights.sum() - 3.0) < 1e-12
    assert m.nominal_dim == 2.0


def test_union_measure_adds():
    a = segment_measure(np.array([[0.0, 0.0], [1.0, 0.0]]), 12)
    b = segment_measure(np.array([[0.0, 1.0], [1.0, 1.0]]), 20)
    u = union_measure(a, b)
    assert u.count == 32
    assert abs(u.weights.sum() - (a.weights.sum() + b.weights.sum())) < 1e-14


def test_moran_root_is_exact_to_the_last_bit():
    # f(d) <= 0 and f is positive one ulp below d, so every IFS weight is
    # as exact as the root can be
    rng = np.random.default_rng(2024)
    sets = [[1.0 / 3.0, 1.0 / 3.0], [0.5, 0.25]]
    for _ in range(400):
        m = int(rng.integers(2, 9))
        sets.append(list(rng.uniform(0.01, 0.99, m)))
        sets.append([float(rng.uniform(0.01, 1.0 / m))] * m)
    for rho in sets:
        d = solve_moran_dimension(rho)

        def f(x):
            return np.sum(np.asarray(rho) ** x) - 1.0

        assert f(d) <= 0.0 < f(np.nextafter(d, 0.0)), rho


def test_bisect_failures_are_numerical_errors():
    with pytest.raises(NumericalError, match="does not bracket"):
        measures._bisect(lambda x: x * x + 1.0, -1.0, 1.0)
    with pytest.raises(NumericalError, match="does not bracket"):
        measures._bisect(lambda x: x - 0.5, 0.0, 1.0)  # increasing f
    with pytest.raises(NumericalError, match="does not bracket"):
        measures._bisect(lambda x: math.nan, 0.0, 1.0)
    with pytest.raises(NumericalError, match="NaN"):
        measures._bisect(lambda x: 1.0 - x if x in (0.0, 2.0) else math.nan,
                         0.0, 2.0)


def test_min_spacing_is_the_nearest_neighbour_distance():
    rng = np.random.default_rng(5)
    for k, n_dim in ((2, 1), (700, 2), (1100, 1)):  # one and several chunks
        atoms = rng.uniform(0.0, 1.0, (k, n_dim))
        d = np.sqrt(((atoms[:, None, :] - atoms[None, :, :]) ** 2).sum(axis=2))
        diam = d.max()
        np.fill_diagonal(d, np.inf)
        spacing, diameter = measures._spacing_and_diameter(atoms)
        assert spacing == pytest.approx(d.min(), rel=1e-12)
        assert diameter == pytest.approx(diam, rel=1e-12)
    dup = np.vstack([atoms, atoms[600:601]])  # a repeated atom is spacing 0
    assert measures._spacing_and_diameter(dup)[0] == 0.0
    assert measures._spacing_and_diameter(atoms[:1]) == (0.0, 0.0)


def test_union_rejects_dimension_mismatch():
    a = segment_measure(np.array([[0.0], [1.0]]), 8)
    b = segment_measure(np.array([[0.0, 0.0], [1.0, 1.0]]), 8)
    with pytest.raises(ValidationError):
        union_measure(a, b)


def test_ahlfors_segment_brackets():
    seg = segment_measure(np.array([[0.0, 0.0], [1.0, 0.0]]), 200)
    rep = estimate_ahlfors_constants(seg, 1.0)
    # mu(B(x,r)) / r for a unit-density line is ~1 at the ends, ~2 inside
    assert 0.5 <= rep.lower_const <= 1.5
    assert 1.5 <= rep.upper_const <= 2.5
    assert rep.lower_const <= rep.upper_const


def test_ahlfors_cantor_bounded_ratio():
    m = _cantor(8)
    rep = estimate_ahlfors_constants(m, LOG2_OVER_LOG3)
    assert rep.lower_const > 0.05
    assert rep.upper_const < 20.0
    assert rep.upper_const / rep.lower_const < 40.0


def test_ahlfors_rejects_bad_radii():
    seg = segment_measure(np.array([[0.0], [1.0]]), 50)
    with pytest.raises(ValidationError):
        estimate_ahlfors_constants(seg, 1.0, radii=[1e-9])
    with pytest.raises(ValidationError):
        estimate_ahlfors_constants(seg, 1.0, radii=[5.0])


def test_measure_validation():
    with pytest.raises(ValidationError):
        DiscreteMeasure(np.zeros((3, 1)), np.array([1.0, -0.5, 0.2]), 1.0)
    with pytest.raises(ValidationError):
        DiscreteMeasure(np.zeros((3, 1)), np.array([1.0, 1.0]), 1.0)
