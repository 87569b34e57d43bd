"""Perturbation weights and the L_(theta) norm family."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from deltaspec import (
    Perturbation,
    ValidationError,
    lp_theta_norm,
    segment_measure,
)
from deltaspec import DiscreteMeasure, weights


def _unit_mass_measure(count=50):
    return segment_measure(np.array([[0.0], [1.0]]), count)


def test_luxemburg_constant_one_closed_form():
    m = _unit_mass_measure()
    p = Perturbation.constant(m, 1.0)
    assert abs(lp_theta_norm(p, 1.0) - 1.0 / (math.e - 1.0)) < 1e-10


def test_luxemburg_constant_general_value():
    # for constant |V| = c on a mass-1 measure the norm is c / (e - 1)
    m = _unit_mass_measure(31)
    p = Perturbation.constant(m, -4.5)
    assert abs(lp_theta_norm(p, 1.0) - 4.5 / (math.e - 1.0)) < 1e-9


def test_luxemburg_scalar_equation_oracle():
    m = _unit_mass_measure(2)
    p = Perturbation(m, np.array([3.0, 0.0]))

    def psi(s):
        return (1.0 + s) * math.log1p(s) - s

    s_star = brentq(lambda s: 0.5 * psi(s) - 1.0, 1e-6, 1e6, rtol=1e-13)
    assert abs(lp_theta_norm(p, 1.0) - 3.0 / s_star) < 1e-9


def test_luxemburg_is_feasible_infimum():
    m = _unit_mass_measure(17)
    rng = np.random.Generator(np.random.Philox(7))
    p = Perturbation(m, rng.standard_normal(17) * 3.0)
    lam = lp_theta_norm(p, 1.0)
    w, v = m.weights, np.abs(p.values)

    def g(x):
        return float(w @ ((1.0 + v / x) * np.log1p(v / x) - v / x))

    assert g(lam) <= 1.0 + 1e-12
    assert g(lam * (1.0 - 1e-6)) > 1.0


def test_luxemburg_norm_is_exact_to_the_last_bit():
    # the norm is feasible and one ulp below it g > 1
    rng = np.random.default_rng(11)
    for _ in range(200):
        k = int(rng.integers(1, 40))
        w = rng.uniform(0.0, 2.0, k) * 10.0 ** rng.uniform(-3, 3)
        w[0] += 1e-3
        m = DiscreteMeasure(rng.uniform(0.0, 1.0, (k, 1)), w, 0.0)
        p = Perturbation(m, rng.standard_normal(k)
                         * 10.0 ** rng.uniform(-6, 6))
        lam = lp_theta_norm(p, 1.0)
        v = np.abs(p.values)

        def g(x):
            return float(w @ weights._psi(v / x))

        assert g(lam) <= 1.0 < g(np.nextafter(lam, 0.0))


def test_theta_above_one_power_mean():
    m = _unit_mass_measure(4)
    p = Perturbation(m, np.array([1.0, -2.0, 3.0, 0.0]))
    expected = (0.25 * (1.0 + 4.0 + 9.0)) ** 0.5
    assert abs(lp_theta_norm(p, 2.0) - expected) < 1e-12


def test_theta_below_one_is_l1():
    m = _unit_mass_measure(4)
    p = Perturbation(m, np.array([1.0, -2.0, 3.0, 0.0]))
    assert abs(lp_theta_norm(p, 0.4) - 0.25 * 6.0) < 1e-12


def test_zero_weight_norm_zero():
    p = Perturbation.constant(_unit_mass_measure(9), 0.0)
    for theta in (0.5, 1.0, 2.0):
        assert lp_theta_norm(p, theta) == 0.0
    with pytest.raises(ValidationError):
        lp_theta_norm(p, -1.0)


@given(
    c=st.floats(min_value=1e-3, max_value=1e3),
    theta=st.sampled_from([0.5, 1.0, 2.0, 3.0]),
    seed=st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=60, deadline=None)
def test_norm_absolute_homogeneity(c, theta, seed):
    m = _unit_mass_measure(13)
    rng = np.random.Generator(np.random.Philox(seed))
    vals = rng.standard_normal(13)
    base = lp_theta_norm(Perturbation(m, vals), theta)
    scaled = lp_theta_norm(Perturbation(m, c * vals), theta)
    assert scaled == pytest.approx(c * base, rel=1e-8, abs=1e-12)


def test_perturbation_scalar_broadcast_and_views():
    m = _unit_mass_measure(5)
    p = Perturbation(m, np.array([4.0]))
    assert p.values.shape == (5,)


def test_perturbation_validation():
    m = _unit_mass_measure(5)
    with pytest.raises(ValidationError):
        Perturbation(m, np.ones(4))
    with pytest.raises(ValidationError):
        Perturbation(m, np.array([1.0, 2.0, np.nan, 0.0, 1.0]))
