"""Exact inverse-perturbation identities checked matrix against matrix."""

import gc
import itertools
import json
import tracemalloc
import weakref
from collections import Counter

import numpy as np
import pytest

from deltaspec import (
    CoefficientField,
    DiscreteMeasure,
    Grid,
    Perturbation,
    PositivityError,
    Similitude,
    ValidationError,
    assemble_neumann,
    boundary_measure,
    bs_operator,
    ifs_measure,
    inverse_power,
    lebesgue_measure,
    perturbed_inverse,
    positivity_margin,
    power_difference,
    resolvent_difference,
    restriction_matrix,
    segment_measure,
    two_weight_difference,
)
from deltaspec import birman_schwinger, elliptic, resolvents
from deltaspec.cli import config_hash, main
from deltaspec.io import read_measure


def _setup(n=64, t=1.0):
    g = Grid(np.array([[0.0, 1.0]]), (n,))
    a = assemble_neumann(g, CoefficientField.isotropic(1.0, 1, t=t))
    m = segment_measure(np.array([[0.2], [0.8]]), 40)
    gam = restriction_matrix(g, m)
    return g, a, m, gam


def _signed_perturbation(m, seed, scale=0.8):
    rng = np.random.Generator(np.random.Philox(seed))
    return Perturbation(m, scale * rng.standard_normal(m.count))


def test_sherman_morrison_rank_one_oracle():
    # independent closed form for a single-atom coupling
    g = Grid(np.array([[0.0, 1.0]]), (32,))
    a = assemble_neumann(g, CoefficientField.isotropic(1.0, 1, t=1.2))
    m = DiscreteMeasure(np.array([[0.37]]), np.array([0.5]), nominal_dim=0.0)
    gam = restriction_matrix(g, m)
    t_op = bs_operator(a, gam, Perturbation.constant(m, 3.1))
    got = perturbed_inverse(a, t_op)
    u = gam.adjoint()[:, 0]
    alpha = 0.5 * 3.1 / g.cell_volume
    ainv_u = a.solve(u)
    denom = 1.0 + alpha * float(u @ ainv_u)
    expected = a.solve(np.eye(32)) - (alpha / denom) * np.outer(ainv_u, ainv_u)
    assert np.max(np.abs(got - expected)) / np.abs(expected).max() < 1e-11


def test_perturbed_inverse_solves_perturbed_system():
    g, a, m, gam = _setup(48)
    p = _signed_perturbation(m, 21)
    t_op = bs_operator(a, gam, p)
    inv = perturbed_inverse(a, t_op)
    coupling = t_op.coupling.toarray()
    residual = (a.matrix + coupling) @ inv - np.eye(48)
    assert np.max(np.abs(residual)) < 1e-10


def test_resolvent_difference_paths_agree():
    g, a, m, gam = _setup()
    t_op = bs_operator(a, gam, _signed_perturbation(m, 2))
    rep = resolvent_difference(a, t_op)
    assert rep.residual < 1e-10
    assert set(rep.terms) == {"R1", "R2"}
    # entrywise agreement floats at machine noise relative to |A^{-1}|, not
    # relative to the (much smaller) difference itself
    assert np.max(np.abs(rep.expansion() - rep.difference)) < 1e-12


def test_resolvent_difference_direct_path_definition():
    g, a, m, gam = _setup(40)
    t_op = bs_operator(a, gam, _signed_perturbation(m, 31))
    rep = resolvent_difference(a, t_op)
    direct = a.solve(np.eye(40)) - perturbed_inverse(a, t_op)
    assert np.max(np.abs(rep.difference - direct)) < 1e-13


def test_two_weight_difference_identity_and_order():
    g, a, m, gam = _setup()
    p2 = _signed_perturbation(m, 7, scale=0.5)
    p1 = Perturbation(m, p2.values + 0.9)
    t1 = bs_operator(a, gam, p1)
    t2 = bs_operator(a, gam, p2)
    rep = two_weight_difference(a, t1, t2)
    assert rep.residual < 1e-10
    assert set(rep.terms) == {"main", "Z1", "Z2"}
    direct = perturbed_inverse(a, t2) - perturbed_inverse(a, t1)
    assert np.max(np.abs(rep.difference - direct)) < 1e-13
    # V1 >= V2 makes the difference positive semidefinite
    w = np.linalg.eigvalsh(rep.difference)
    assert w.min() >= -1e-12 * w.max()


def test_two_weight_zero_second_weight_reduces():
    g, a, m, gam = _setup(56)
    p1 = _signed_perturbation(m, 15)
    t1 = bs_operator(a, gam, p1)
    t0 = bs_operator(a, gam, Perturbation.constant(m, 0.0))
    tw = two_weight_difference(a, t1, t0)
    rd = resolvent_difference(a, t1)
    assert np.max(np.abs(tw.difference - rd.difference)) \
        < 1e-12 * np.abs(rd.difference).max()


def test_power_difference_rejects_m_out_of_range():
    g, a, m, gam = _setup(32)
    t_op = bs_operator(a, gam, _signed_perturbation(m, 4))
    for bad in (1, 5, 0, 2.5, float("nan"), float("inf"), -float("inf"),
                None):
        with pytest.raises(ValidationError):
            power_difference(a, t_op, bad)


@pytest.mark.parametrize("m_pow", [2, 3])
def test_power_difference_paths_agree(m_pow):
    g, a, m, gam = _setup()
    t_op = bs_operator(a, gam, _signed_perturbation(m, 8))
    rep = power_difference(a, t_op, m_pow)
    assert rep.residual < 1e-10
    assert set(rep.terms) == {"H2", "H3", "H4"}
    assert np.max(np.abs(rep.expansion() - rep.difference)) \
        < 1e-11 * np.abs(rep.difference).max()


def test_power_difference_m2_closed_form_terms():
    # recombine the expansion by hand from B, W, W': (B - W + W')^m - B^m
    # word by word, each word filed by its count of plain W factors. m = 3
    # is the first power whose H3 needs X' B X, not only X' X
    g, a, m, gam = _setup(40)
    t_op = bs_operator(a, gam, _signed_perturbation(m, 12))
    b = a.solve(np.eye(40))
    root = inverse_power(a, 0.5)
    w_mat = root @ t_op.matrix @ root
    t_m = t_op.matrix
    inner = t_m @ np.linalg.solve(np.eye(40) + t_m, t_m)
    factors = {"B": b, "W": -w_mat, "P": root @ inner @ root}
    for power in (2, 3):
        rep = power_difference(a, t_op, power)
        want = {"H2": 0.0, "H3": 0.0, "H4": 0.0}
        for word in itertools.product("BWP", repeat=power):
            if word == ("B",) * power:
                continue
            n_w = word.count("W")
            label = f"H{n_w + 1}" if "P" not in word and n_w <= 2 else "H4"
            want[label] = want[label] + np.linalg.multi_dot(
                [factors[c] for c in word])
        scale = np.abs(rep.difference).max()
        for label, term in want.items():
            assert np.max(np.abs(rep.terms[label] - term)) < 1e-12 * scale


def test_nonnegative_v_orders_the_differences():
    g, a, m, gam = _setup()
    rng = np.random.Generator(np.random.Philox(19))
    p = Perturbation(m, np.abs(rng.standard_normal(m.count)))
    t_op = bs_operator(a, gam, p)
    w = np.linalg.eigvalsh(resolvent_difference(a, t_op).difference)
    assert w.min() >= -1e-12 * w.max()
    # squaring is not operator monotone, so the m = 2 difference can have
    # eigenvalues of both signs; the trace ordering still must hold
    pd = power_difference(a, t_op, 2)
    assert np.trace(pd.difference) < 0.0


def test_margin_guard_raises():
    g, a, m, gam = _setup(32)
    p = Perturbation.constant(m, -1e5)
    t_op = bs_operator(a, gam, p)
    with pytest.raises(PositivityError):
        resolvent_difference(a, t_op)
    with pytest.raises(PositivityError):
        power_difference(a, t_op, 2)


def test_reports_reject_weights_built_on_another_operator():
    # the weight's margin and A + C come from a at t = 1; a report against
    # the t = 5 operator would mix the two
    g, a, m, gam = _setup(128)
    a5 = assemble_neumann(g, CoefficientField.isotropic(1.0, 1, t=5.0))
    t1, t2 = (bs_operator(a, gam, Perturbation.constant(m, v))
              for v in (1.0, 0.5))
    for report in (lambda: resolvent_difference(a5, t1),
                   lambda: two_weight_difference(a5, t1, t2),
                   lambda: power_difference(a5, t1, 2),
                   lambda: perturbed_inverse(a5, t1)):
        with pytest.raises(ValidationError, match="another A"):
            report()


def test_margin_is_computed_only_where_it_can_fail(tmp_path, monkeypatch):
    # robin_diff passes threshold -inf, which no margin can fail: no
    # eigensolve. The same signed weight against a finite threshold is
    # checked once, and still raises below it
    calls = []

    def counting(t_op):
        calls.append(t_op)
        return birman_schwinger.positivity_margin(t_op)

    monkeypatch.setattr(resolvents, "positivity_margin", counting)
    g = Grid(np.array([[0.0, 1.0], [0.0, 1.0]]), (12, 12))
    a = assemble_neumann(g, CoefficientField.isotropic(1.0, 2, t=1.0))
    bnd = boundary_measure(g)
    gam = restriction_matrix(g, bnd)
    t1 = bs_operator(a, gam, _signed_perturbation(bnd, 4, scale=0.5))
    t2 = bs_operator(a, gam, Perturbation.constant(bnd, 3.0))
    two_weight_difference(a, t2, t1, margin_threshold=-np.inf)
    assert calls == []
    two_weight_difference(a, t2, t1)
    assert calls == [t1]
    margin = birman_schwinger.positivity_margin(t1)
    with pytest.raises(PositivityError):
        two_weight_difference(a, t2, t1, margin_threshold=margin + 1e-3)

    cfg = {
        "schema_version": 1, "seed": 4,
        "domain": {"bbox": [[0.0, 1.0], [0.0, 1.0]], "shape": [12, 12]},
        "operator": {"coefficients": 1.0, "t": 1.0},
        "measure": {"kind": "boundary"},
        "weights": {"V1": {"kind": "random", "scale": 0.5},
                    "V2": {"kind": "constant", "value": 3.0}},
        "tasks": ["robin_diff"],
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    calls.clear()
    assert main(["run", str(path), "--out", str(tmp_path / "runs")]) == 0
    assert calls == []


def test_singular_values_labels():
    g, a, m, gam = _setup(48)
    t_op = bs_operator(a, gam, _signed_perturbation(m, 3))
    rep = power_difference(a, t_op, 2)
    sv = rep.singular_values()
    assert sv[0] >= sv[-1] >= 0.0
    for label in ("H2", "H3", "H4"):
        assert rep.singular_values(label).shape == (48,)
    with pytest.raises(KeyError):
        rep.singular_values("H9")


# ------------------------------------------------ atom-side against dense

CROSS_CASES = {
    # name: (bbox, shape, segment endpoints, atoms); "1d-nodes" has more
    # atoms than nodes and so uses the node basis, the others a Krylov basis
    "1d": ([[0.0, 1.0]], (128,), [[0.2], [0.8]], 16),
    "1d-nodes": ([[0.0, 1.0]], (24,), [[0.2], [0.8]], 32),
    "2d": ([[0.0, 1.0], [0.0, 1.0]], (17, 17), [[0.2, 0.45], [0.8, 0.45]], 24),
}


def _cross_weights(a, gam, signed, seed):
    # an admissible pair V1 >= V2 on the restriction's measure
    m = gam.measure
    rng = np.random.Generator(np.random.Philox(seed))
    v2 = rng.standard_normal(m.count)
    v2 = 0.4 * v2 if signed else np.abs(v2)
    v1 = v2 + 0.5 * np.abs(rng.standard_normal(m.count))
    return tuple(bs_operator(a, gam, Perturbation(m, v)) for v in (v1, v2))


def _cross_setup(case, signed):
    bbox, shape, ends, atoms = CROSS_CASES[case]
    g = Grid(np.array(bbox), shape)
    a = assemble_neumann(g, CoefficientField.isotropic(1.0, len(shape), t=1.0))
    gam = restriction_matrix(g, segment_measure(np.array(ends), atoms))
    return (a, *_cross_weights(a, gam, signed, 41 + len(shape)))


def _assert_kept_agree(got, want_matrix, floor=1e-11):
    # the values above the floor, in norm-relative terms: both paths carry
    # rounding of the size of the inverses, far below the kept values' head
    want = np.sort(np.abs(np.linalg.eigvalsh(want_matrix)))[::-1]
    kept = want[want > floor]
    assert np.count_nonzero(got > floor) == kept.size
    assert np.max(np.abs(got[:kept.size] - kept)) <= 1e-10 * kept[0]


@pytest.mark.parametrize("signed", [False, True], ids=["nonneg", "signed"])
@pytest.mark.parametrize("case", sorted(CROSS_CASES))
def test_engine_matches_dense_inverses(case, signed):
    a, t1, t2 = _cross_setup(case, signed)
    inv = np.linalg.inv
    a_inv = inv(a.matrix)
    for oracle in ("identity", "numpy"):
        p1, p2 = (perturbed_inverse(a, t_op) if oracle == "identity"
                  else inv(a.matrix + t_op.coupling.toarray())
                  for t_op in (t1, t2))
        _assert_kept_agree(resolvent_difference(a, t1).singular_values(),
                           a_inv - p1)
        _assert_kept_agree(
            two_weight_difference(a, t1, t2).singular_values(), p2 - p1)
        for m_pow in (2, 3):
            _assert_kept_agree(
                power_difference(a, t1, m_pow).singular_values(),
                np.linalg.matrix_power(p1, m_pow)
                - np.linalg.matrix_power(a_inv, m_pow))


def test_3d_reports_match_dense_inverses():
    # a d = 2 IFS patch (4 maps of ratio 1/2) in the plane z = 0.45 of an
    # anisotropic 3D operator, against numpy's inverses of the N x N
    # matrices
    g = Grid(np.array([[0.0, 1.0], [0.0, 0.9], [0.0, 0.8]]), (9, 8, 7))
    tensor = np.array([[1.5, 0.3, 0.2], [0.3, 1.0, 0.1], [0.2, 0.1, 2.0]])
    a = assemble_neumann(g, CoefficientField(tensor, t=1.0))
    maps = [Similitude(0.5, np.eye(3), np.array([x, y, 0.225]))
            for x in (0.125, 0.375) for y in (0.125, 0.375)]
    m = ifs_measure(maps, 3)
    assert m.count == 64 and m.nominal_dim == pytest.approx(2.0)
    gam = restriction_matrix(g, m)
    rng = np.random.Generator(np.random.Philox(43))
    v2 = 0.4 * rng.standard_normal(m.count)
    v1 = v2 + 0.5 * np.abs(rng.standard_normal(m.count))
    t1, t2 = (bs_operator(a, gam, Perturbation(m, v)) for v in (v1, v2))
    inv = np.linalg.inv
    a_inv = inv(a.matrix)
    p1, p2 = (inv(a.matrix + t_op.coupling.toarray()) for t_op in (t1, t2))
    for rep, want in ((resolvent_difference(a, t1), a_inv - p1),
                      (two_weight_difference(a, t1, t2), p2 - p1),
                      (power_difference(a, t1, 2), p1 @ p1 - a_inv @ a_inv)):
        assert rep.residual <= 1e-10
        err = np.max(np.abs(rep.difference - want))
        assert err <= 1e-10 * np.max(np.abs(want))


def _exhausted_setup():
    # 24 atoms over most of 48 nodes: the blocks of m = 4 are 24, 22 and 2
    # wide and fill every node, so the fourth is empty and the basis stops
    g = Grid(np.array([[0.0, 1.0]]), (48,))
    a = assemble_neumann(g, CoefficientField.isotropic(1.0, 1, t=1.0))
    m = segment_measure(np.array([[0.05], [0.95]]), 24)
    return a, restriction_matrix(g, m), m


def test_power_difference_on_an_exhausted_krylov_span():
    a, gam, m = _exhausted_setup()
    t_op = bs_operator(a, gam, Perturbation.constant(m, 1.0))
    rep = power_difference(a, t_op, 4)
    assert birman_schwinger._atom_side_of(a, gam)._widths == [24, 22, 2]
    assert rep.basis.shape == (48, 48)
    assert rep.residual <= 1e-12
    want = (np.linalg.matrix_power(perturbed_inverse(a, t_op), 4)
            - np.linalg.matrix_power(inverse_power(a, 1.0), 4))
    for got in (rep.difference, rep.expansion()):
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))


def test_an_exhausted_krylov_span_is_not_solved_again(monkeypatch):
    # m = 4 solves with A for X, the two blocks after it (the third fills
    # every node, so no fourth is solved) and the three solves of A's
    # chain after X; later basis calls solve nothing, and a second
    # weight's m = 4 report solves only with its A + C
    solved = _solves_by_operator(monkeypatch)
    a, gam, m = _exhausted_setup()
    power_difference(a, bs_operator(a, gam, Perturbation.constant(m, 1.0)), 4)
    assert sum(op is a for op in solved) == 6
    solved.clear()
    side = birman_schwinger._atom_side_of(a, gam)
    for power in (4, 5):
        assert side.basis(power).shape == (48, 48)
    assert not solved
    t_op = bs_operator(a, gam, Perturbation.constant(m, 2.0))
    power_difference(a, t_op, 4)
    assert solved and all(op is t_op.perturbed for op in solved)


def _peak_doubles(fn):
    # the peak of the memory traced while fn runs, in doubles; numpy
    # reports its array buffers to tracemalloc
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 8
    finally:
        tracemalloc.stop()


def test_dense_requests_form_one_n_by_n_array_at_a_time():
    # the difference, each term and the expansion are each one N x N
    # product symmetrized in place (the N x r factor and the row block of
    # the symmetrizer are small), and terms forms a term only when it is
    # read, so summing them holds the running sum, one term and their sum
    a, t1, t2 = _cross_setup("2d", signed=True)
    rep = two_weight_difference(a, t1, t2)
    n2 = a.size ** 2
    assert _peak_doubles(lambda: rep.difference) <= 1.1 * n2
    for label in rep.terms:
        assert _peak_doubles(lambda: rep.terms[label]) <= 1.1 * n2, label
    assert _peak_doubles(rep.expansion) <= 1.1 * n2
    assert _peak_doubles(lambda: sum(rep.terms.values())) <= 3 * n2
    with pytest.raises(TypeError):
        rep.terms["main"] = rep.difference


def test_reports_factor_each_operator_once(monkeypatch):
    # every report on the same weights shares one factor of A and one of
    # each A + C, kept on the weight's operator
    calls = []
    original = elliptic._block_ldl

    def counting(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(elliptic, "_block_ldl", counting)
    for signed in (False, True):
        calls.clear()
        a, t1, t2 = _cross_setup("2d", signed)
        resolvent_difference(a, t1)
        two_weight_difference(a, t1, t2)
        power_difference(a, t1, 2)
        power_difference(a, t1, 3)
        resolvent_difference(a, t2)
        assert len(calls) == 3  # A, A + C1, A + C2


def _solves_by_operator(monkeypatch):
    # the operator of every OperatorMatrix.solve call, in call order
    solved = []
    original = elliptic.OperatorMatrix.solve

    def recording(self, rhs, **kwargs):
        solved.append(self)
        return original(self, rhs, **kwargs)

    monkeypatch.setattr(elliptic.OperatorMatrix, "solve", recording)
    return solved


@pytest.mark.parametrize("case", sorted(CROSS_CASES))
def test_a_second_draw_solves_only_with_its_weights(monkeypatch, case):
    # the first draw on A fills A's atom side with its sweep per power
    # and each weight's operator with its A + C sweep per power; in the
    # second draw no report solves with A (pd m runs its identity path on
    # the atoms), pd m makes the m solves of gamma' of its sweep of
    # A + C1, and tw solves only with A + C2, since rd's sweep of A + C1
    # at m = 1 is kept on the weight
    solved = _solves_by_operator(monkeypatch)
    a, *first = _cross_setup(case, signed=True)
    _four_reports(a, *first, order=("rd", "tw", "pd2", "pd3"))
    t1, t2 = _cross_weights(a, first[0].restriction, True, seed=46)
    names = {id(a): "A", id(t1.perturbed): "A + C1",
             id(t2.perturbed): "A + C2"}
    want = {"rd": {"A + C1": 1}, "tw": {"A + C2": 1},
            "pd2": {"A + C1": 2}, "pd3": {"A + C1": 3}}
    for name in ("rd", "tw", "pd2", "pd3"):
        solved.clear()
        _four_reports(a, t1, t2, order=(name,))
        assert Counter(names[id(op)] for op in solved) == want[name], name


@pytest.mark.parametrize("m", [2, 3, 4])
@pytest.mark.parametrize("case", sorted(CROSS_CASES))
def test_power_identity_path_on_the_atoms_matches_the_telescoping(case, m):
    # the identity core power_difference reads off A's kept products on
    # the atoms, against the N-sized telescoping with solves: U_0 = Q,
    # U_(i+1) = B U_i - X M gamma B U_i, and the core
    # - sum_i (gamma B U_i)' M gamma B^(m-i) Q
    a, t1, _ = _cross_setup(case, signed=True)
    rep = power_difference(a, t1, m)
    side, (s,) = resolvents._atom_side(a, -np.inf, t1)
    q = side.basis(m)
    mm = resolvents._woodbury(side.g, s)
    x = a.solve(side.adjoint())
    powers = [q]
    for _ in range(m):
        powers.append(a.solve(powers[-1]))
    want, u = np.zeros((q.shape[1],) * 2), q
    for i in range(m):
        bu = a.solve(u)
        f = side.gamma(bu)
        want -= f.T @ mm @ side.gamma(powers[m - i])
        u = bu - x @ (mm @ f)
    got = sum(rep.term_cores.values())
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def _chain(op, q, adjoint, m):
    # Q' op^(-j) gamma' for j = 1..m, each solve from the last
    y, chain = adjoint, []
    for _ in range(m):
        y = op.solve(y)
        chain.append(q.T @ y)
    return chain


@pytest.mark.parametrize("m", [1, 3])
@pytest.mark.parametrize("case", ["1d", "2d"])
def test_direct_core_joins_the_chains_of_gamma(case, m):
    # the direct core, bit for bit, from the second resolvent identity:
    # sum_j (Q'Y^P_j) (D_M - D_P) (Q'Y^M_(m+1-j))' with Y_j = (A + C)^(-j)
    # gamma' solved from gamma' alone; m = 1 is the two-weight report (P =
    # A + C2, M = A + C1), m = 3 the power report (P = A + C1, M = A, whose
    # chain, kept on its atom side, is solved the same way)
    a, t1, t2 = _cross_setup(case, signed=True)
    if m == 1:
        rep = two_weight_difference(a, t1, t2)
        plus, minus, ds = t2, t1, t1.density - t2.density
    else:
        rep = power_difference(a, t1, m)
        plus, minus, ds = t1, None, 0.0 - t1.density
    q, adjoint = rep.basis, t1.restriction.adjoint()
    side = birman_schwinger._atom_side_of(a, t1.restriction)
    chains = {t_op: _chain(a if t_op is None else t_op.perturbed, q,
                            adjoint, m)
              for t_op in (plus, minus)}
    for t_op, chain in chains.items():  # the chains kept on their owners
        kept = (side if t_op is None else t_op)._sweeps[m][0]
        assert len(kept) == m
        assert all(map(np.array_equal, kept, chain))
    left, right = chains[plus], chains[minus]
    core = sum((left[j] * ds) @ right[m - 1 - j].T for j in range(m))
    assert np.array_equal(rep.core, birman_schwinger._sym(core))


@pytest.mark.parametrize("scale", [1.0, 1.0 + 1e-6], ids=["exact", "off"])
@pytest.mark.parametrize("case", ["1d", "2d"])
def test_residual_sees_a_perturbed_coupling_band(monkeypatch, case, scale):
    # the direct path reads each A + C from its assembled band and the
    # identity path from the atom densities alone: a band off by a relative
    # 1e-6 shows in every report's residual, which stays at rounding when
    # the band is right
    band = birman_schwinger.coupling_band
    monkeypatch.setattr(birman_schwinger, "coupling_band",
                        lambda g, p: scale * band(g, p))
    for name, rep in _four_reports(*_cross_setup(case, True)).items():
        if scale == 1.0:
            assert rep.residual <= 1e-12, name
        else:
            assert rep.residual > 1e-8, name


def test_node_basis_difference_solves_the_identity_once(monkeypatch):
    # with the nodes as atoms Q = 1, X = A^(-1) is the only solve with A
    # and is itself A's chain at m = 1: no second solve and no product
    # 1' A^(-1)
    solved = _solves_by_operator(monkeypatch)
    a, t1, _ = _cross_setup("1d-nodes", signed=True)
    rep = resolvent_difference(a, t1)
    assert rep.basis.shape == (a.size, a.size)
    assert solved == [a, t1.perturbed]
    side = a._atom_side
    assert side.sweep(None, 1)[0][0] is side.x
    assert solved == [a, t1.perturbed]



def test_node_basis_power_reads_a_prefix_of_the_longest_chain(monkeypatch):
    # with the nodes as atoms nothing is projected, so the chains of m = 2
    # are the first two of m = 4: after pd4, pd2 solves nothing, gives the
    # bytes of a cold pd2, and A and A + C1 each keep one chain, of m = 4
    solved = _solves_by_operator(monkeypatch)
    a, t1, t2 = _cross_setup("1d-nodes", signed=True)
    power_difference(a, t1, 4)
    solved.clear()
    rep = power_difference(a, t1, 2)
    assert not solved
    _assert_same_bytes(rep, _four_reports(*_cross_setup("1d-nodes", True),
                                          order=("pd2",))["pd2"])
    for owner in (a._atom_side, t1):
        assert list(owner._sweeps) == [4]

def _four_reports(a, t1, t2, order=("rd", "tw", "pd3", "pd2")):
    calls = {"rd": lambda: resolvent_difference(a, t1),
             "tw": lambda: two_weight_difference(a, t1, t2),
             "pd2": lambda: power_difference(a, t1, 2),
             "pd3": lambda: power_difference(a, t1, 3)}
    return {name: calls[name]() for name in order}


def _assert_same_bytes(got, want):
    assert got.basis.tobytes() == want.basis.tobytes()
    assert got.core.tobytes() == want.core.tobytes()
    assert got.term_cores.keys() == want.term_cores.keys()
    for label, core in want.term_cores.items():
        assert got.term_cores[label].tobytes() == core.tobytes()
    assert got.residual == want.residual


@pytest.mark.parametrize("signed", [False, True], ids=["nonneg", "signed"])
@pytest.mark.parametrize("case", sorted(CROSS_CASES))
def test_reports_on_a_warm_operator_equal_cold_ones(case, signed):
    # each report on an A that has served the others (m = 3 before m = 2,
    # so the m = 2 basis is a prefix of a grown one) against the same
    # report on a fresh A: the kept atom side changes no bit
    warm = _four_reports(*_cross_setup(case, signed))
    warm_again = _four_reports(*_cross_setup(case, signed),
                               order=("pd2", "rd", "pd3", "tw"))
    for name, rep in warm.items():
        cold = _four_reports(*_cross_setup(case, signed), order=(name,))
        _assert_same_bytes(rep, cold[name])
        _assert_same_bytes(warm_again[name], cold[name])


def test_atom_side_is_replaced_on_another_support_or_restriction():
    # after a full-support report, a weight that is zero on some atoms
    # keeps the side (it covers every atom of the restriction), and a
    # weight on a second restriction with as many atoms misses it and
    # replaces it; each gives the report of a fresh A
    a, t1, _ = _cross_setup("2d", signed=True)
    resolvent_difference(a, t1)
    kept = a._atom_side
    g, m = t1.restriction.grid, t1.restriction.measure
    other = segment_measure(np.array([[0.3, 0.6], [0.7, 0.3]]), m.count)
    rng = np.random.Generator(np.random.Philox(44))
    cases = [
        (t1.restriction, Perturbation(
            m, t1.perturbation.values * (np.arange(m.count) % 3 != 0)), True),
        (restriction_matrix(g, other),
         Perturbation(other, 0.4 * rng.standard_normal(other.count)), False),
    ]
    for gam, p, same in cases:
        fresh = _cross_setup("2d", signed=True)[0]
        t_op, fresh_op = bs_operator(a, gam, p), bs_operator(fresh, gam, p)
        for report in (resolvent_difference,
                       lambda a, t: power_difference(a, t, 3),
                       lambda a, t: power_difference(a, t, 2)):
            _assert_same_bytes(report(a, t_op), report(fresh, fresh_op))
        assert (a._atom_side is kept) == same
        if not same:
            assert a._atom_side.restriction is gam
        kept = a._atom_side
    # back on the first weight: replaced again, with the same bits
    _assert_same_bytes(resolvent_difference(a, t1),
                       resolvent_difference(*_cross_setup("2d", True)[:2]))
    assert a._atom_side is not kept


def test_a_restriction_built_twice_is_one_restriction():
    # two restriction_matrix calls on one grid and measure give one map:
    # the two-weight report from them equals, bit for bit, the report from
    # one shared restriction; weights on another measure are still refused
    g = Grid(np.array([[0.0, 1.0]]), (64,))
    coeffs = CoefficientField.isotropic(1.0, 1, t=1.0)
    m = segment_measure(np.array([[0.2], [0.8]]), 20)
    p1, p2 = _signed_perturbation(m, 5), _signed_perturbation(m, 6)
    a = assemble_neumann(g, coeffs)
    gam = restriction_matrix(g, m)
    shared = two_weight_difference(a, bs_operator(a, gam, p1),
                                   bs_operator(a, gam, p2))
    a = assemble_neumann(g, coeffs)
    twice = two_weight_difference(
        a, bs_operator(a, restriction_matrix(g, m), p1),
        bs_operator(a, restriction_matrix(g, m), p2))
    _assert_same_bytes(twice, shared)
    other = segment_measure(np.array([[0.3], [0.7]]), 20)
    with pytest.raises(ValidationError, match="different restrictions"):
        two_weight_difference(a, bs_operator(a, gam, p1), bs_operator(
            a, restriction_matrix(g, other), Perturbation.constant(other, 1.0)))


def test_the_atom_side_never_keeps_its_operator_alive():
    # the side lives in A's slot and reaches A by a weak reference, so with
    # the cyclic collector off A and its side (X, Q and A's products) are
    # freed as soon as the last name of A, its weights and reports goes
    g = Grid(np.array([[0.0, 1.0], [0.0, 1.0]]), (20, 20))
    m = segment_measure(np.array([[0.2, 0.5], [0.8, 0.5]]), 16)
    gam = restriction_matrix(g, m)
    enabled = gc.isenabled()
    gc.disable()
    try:
        a = assemble_neumann(g, CoefficientField.isotropic(1.0, 2, t=1.0))
        t1 = bs_operator(a, gam, _signed_perturbation(m, 61, scale=0.3))
        t2 = bs_operator(a, gam, Perturbation.constant(m, 1.0))
        reports = [resolvent_difference(a, t1),
                   two_weight_difference(a, t1, t2),
                   power_difference(a, t1, 3)]
        margin, core = positivity_margin(t1), t1.core
        a_ref, side_ref = weakref.ref(a), weakref.ref(a._atom_side)
        del a, t1, t2, reports, margin, core
        assert a_ref() is None
        assert side_ref() is None
    finally:
        if enabled:
            gc.enable()


def test_lebesgue_weight_with_zeros_takes_the_node_basis():
    # the basis follows the measure: 48 atoms on 48 nodes take the node
    # basis, also for a weight that vanishes on every fifth atom
    g = Grid(np.array([[0.0, 1.0]]), (48,))
    a = assemble_neumann(g, CoefficientField.isotropic(1.0, 1, t=1.0))
    m = lebesgue_measure(g)
    values = _signed_perturbation(m, 45, scale=0.3).values
    t_op = bs_operator(a, restriction_matrix(g, m), Perturbation(
        m, values * (np.arange(m.count) % 5 != 0)))
    rep = resolvent_difference(a, t_op)
    assert rep.basis.shape == (48, 48)
    inv = np.linalg.inv
    want = inv(a.matrix) - inv(a.matrix + t_op.coupling.toarray())
    assert np.max(np.abs(rep.difference - want)) <= 1e-10 * np.abs(want).max()


def test_residual_catches_a_short_basis(monkeypatch):
    # a basis that misses one direction of the difference's range: the two
    # cores on it may still agree, so the basis check must flag it. The
    # dropped column is the weakest direction of range(gamma'), the first
    # Krylov block (the whole basis at m = 1). Dropping the last column at
    # m = 2 or 3 instead loses under 1e-8 of the difference, and the
    # residual rightly stays that small.
    a, t1, t2 = _cross_setup("1d", signed=True)
    full = birman_schwinger._AtomSide.basis

    def short(side, m):
        return np.delete(full(side, m), full(side, 1).shape[1] - 1, axis=1)

    monkeypatch.setattr(birman_schwinger._AtomSide, "basis", short)
    reports = {
        "resolvent_difference": resolvent_difference(a, t1),
        "two_weight_difference": two_weight_difference(a, t1, t2),
        "power_difference m=2": power_difference(a, t1, 2),
        "power_difference m=3": power_difference(a, t1, 3),
    }
    for name, rep in reports.items():
        assert rep.residual > 1e-6, name


@pytest.mark.parametrize("v1", [{"kind": "constant", "value": 1.0},
                                {"kind": "random", "scale": 0.5}],
                         ids=["nonneg", "signed"])
def test_robin_diff_matches_dense_inverses(tmp_path, v1):
    cfg = {
        "schema_version": 1, "seed": 5,
        "domain": {"bbox": [[0.0, 1.0], [0.0, 1.0]], "shape": [17, 17]},
        "operator": {"coefficients": 1.0, "t": 1.0},
        "measure": {"kind": "boundary"},
        "weights": {"V1": v1, "V2": {"kind": "constant", "value": 3.0}},
        "tasks": ["robin_diff"],
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["run", str(path), "--out", str(tmp_path / "runs")]) == 0
    run_dir = tmp_path / "runs" / config_hash(cfg)
    g = Grid(np.array(cfg["domain"]["bbox"]), (17, 17))
    a = assemble_neumann(g, CoefficientField.isotropic(1.0, 2, t=1.0))
    bnd = boundary_measure(g)
    gam = restriction_matrix(g, bnd)
    _, _, v1_values = read_measure(run_dir / "measure.csv")
    t1, t2 = (bs_operator(a, gam, Perturbation(bnd, vals))
              for vals in (v1_values, np.full(bnd.count, 3.0)))
    got = np.loadtxt(run_dir / "robin_diff" / "singulars.csv", delimiter=",",
                     skiprows=1)[:, 1]
    for inv1, inv2 in (
            (perturbed_inverse(a, t1), perturbed_inverse(a, t2)),
            (np.linalg.inv(a.matrix + t1.coupling.toarray()),
             np.linalg.inv(a.matrix + t2.coupling.toarray()))):
        _assert_kept_agree(got, inv1 - inv2)


def test_cli_two_weight_diff_takes_no_inverse_power(tmp_path, monkeypatch):
    calls = []
    original = elliptic.inverse_power

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for module in (elliptic, birman_schwinger, resolvents):
        monkeypatch.setattr(module, "inverse_power", counting)
    bbox, shape, ends, atoms = CROSS_CASES["2d"]
    cfg = {
        "schema_version": 1, "seed": 0,
        "domain": {"bbox": bbox, "shape": list(shape)},
        "operator": {"coefficients": 1.0, "t": 1.0},
        "measure": {"kind": "segment", "start": ends[0], "end": ends[1],
                    "count": atoms},
        "weights": {"V1": {"kind": "constant", "value": 2.0},
                    "V2": {"kind": "random", "scale": 0.3}},
        "tasks": ["two_weight_diff"],
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["run", str(path), "--out", str(tmp_path / "runs")]) == 0
    assert calls == []
