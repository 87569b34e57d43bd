"""Resolvent differences from a banded factor of A and a small core.

Let gamma restrict grid functions to the atoms of a measure, D be a
weight's atom density (zero where the weight vanishes), C = gamma' D gamma,
X = A^(-1) gamma' and G = gamma X. The Woodbury identity

    A^(-1) - (A + C)^(-1) = X M X',    M = D (1 + G D)^(-1),

holds at matrix level, and every difference this module reports, powers
included, has its range in span{A^(-j) gamma' : j <= m}, of dimension at
most m rank(gamma). Each report builds an orthonormal basis Q of that span
(block Arnoldi: a banded solve with A alternating with projection off the
blocks so far and orthonormalization of the new block B from its k x k
Gram matrix B'B, in passes that each resolve down to 1.5e-6 of their
largest singular value: the directions above RANK_TOL = 1e-12 of the
block's largest column norm are kept, so the span leaves out only B's
part below that and rounding of about eps |B|) and evaluates the
difference two ways, as r x r cores on Q:

* the identity path, through the Woodbury cores and their expansion into
  labeled terms;
* the direct path, ``Q' P^(-m) Q - Q' M^(-m) Q`` with P and M each A or
  an assembled A + C_i, factored on its own, which uses no Woodbury
  algebra; Q' (A + C_i)^(-m) Q is Z_(m-h)' Z_h with Z_j = (A + C_i)^(-j) Q
  and h = ceil(m / 2), so a sweep solves Q h times (m times when Q spans
  every node).

``resolvent_difference`` is the two-weight difference against the zero
weight, whose side is A itself, and ``power_difference`` telescopes its
identity path; all three hand their identity-path core and terms to
``_report``, the one place that factors an A + C_i, forms the direct core
and takes the residual. Both cores live on Q, so their disagreement equals
that of the N x N matrices only if Q spans the difference's range. That
span is also span{(A + C_i)^(-j) gamma' : j <= m}, which ``_report`` checks
from the banded factor of each A + C_i alone: ``residual`` is the larger of
the relative Frobenius disagreement of the two cores and the relative part
of those columns outside Q. Reported spectra come from the cores; the N x N
``difference``, ``terms`` and ``expansion()`` are formed only when asked
for. When there are at least as many atoms as nodes (Lebesgue measure has
k = N) an atom-side G would be no smaller than N x N, and the nodes serve
as atoms: gamma = 1, D is the N x N coupling C itself, and Q is the node
basis. Every solve goes through the block LDL' factor of
:class:`~deltaspec.elliptic.OperatorMatrix`; each A + C_i is factored once
per weight and kept on its operator, so reports that share a weight share
that factor, and next to it, per power m, the core and gap of its sweep, so a
second report on the same weight and power solves nothing with it. No
report eigendecomposes A.

Everything a report needs of A on the atoms (X, G, Q, Q'X and A's
products per power, and every choice on the node basis) comes from A's
atom side, which :mod:`deltaspec.birman_schwinger` owns; this module
handles the weights, their cores and the residual.

``perturbed_inverse`` keeps the dense identity
``(A + C)^(-1) = A^(-1/2) (1 + T)^(-1) A^(-1/2)`` as the small-N oracle.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .birman_schwinger import (
    MARGIN_DEFAULT,
    BSOperator,
    _atom_side_of,
    _same_restriction,
    _sym,
    _sym_inplace,
    positivity_margin,
)
from .elliptic import OperatorMatrix, inverse_power
from .errors import NumericalError, PositivityError, ValidationError
from .spectra import FLOOR_FACTOR

__all__ = [
    "ResolventReport",
    "perturbed_inverse",
    "power_difference",
    "resolvent_difference",
    "two_weight_difference",
]

def _embed(basis: np.ndarray, core: np.ndarray) -> np.ndarray:
    return _sym_inplace((basis @ core) @ basis.T)


class _Terms(Mapping):
    """Read-only map of labels to N x N terms, each formed when read."""

    def __init__(self, basis: np.ndarray, cores: dict[str, np.ndarray]):
        self._basis, self._cores = basis, cores

    def __getitem__(self, label: str) -> np.ndarray:
        return _embed(self._basis, self._cores[label])

    def __iter__(self):
        return iter(self._cores)

    def __len__(self) -> int:
        return len(self._cores)


@dataclass(eq=False)
class ResolventReport:
    """A difference of (powers of) inverses with its labeled decomposition.

    ``basis`` is the orthonormal N x r matrix Q spanning the difference;
    ``core`` is the direct-path difference on it (the difference is
    ``Q core Q'``); ``term_cores`` map labels to signed cores summing to
    the identity-path core; ``residual`` is the larger of the relative
    Frobenius distance between the two paths and the relative part of the
    difference's range outside Q. ``difference`` and ``terms`` give the
    same matrices at size N x N, and ``expansion()`` the identity-path sum;
    each such request forms one N x N array and no second one.
    """

    basis: np.ndarray
    core: np.ndarray
    term_cores: dict[str, np.ndarray]
    residual: float

    @cached_property
    def difference(self) -> np.ndarray:
        """The direct-path difference as an N x N matrix."""
        return _embed(self.basis, self.core)

    @property
    def terms(self) -> Mapping[str, np.ndarray]:
        """The signed terms as N x N matrices: a read-only mapping that
        forms a term each time it is read and keeps none, so
        ``sum(rep.terms.values())`` holds one term at a time."""
        return _Terms(self.basis, self.term_cores)

    def expansion(self) -> np.ndarray:
        """Sum of the labeled terms (the identity-path evaluation)."""
        return _embed(self.basis, sum(self.term_cores.values()))

    def singular_values(self, label: str = "difference") -> np.ndarray:
        """Descending singular values of one labeled term (or the difference).

        All N of them: the eigenvalue magnitudes of the symmetric r x r
        core, then N - r exact zeros for the directions outside the basis.
        """
        core = self.core if label == "difference" else self.term_cores[label]
        sv = np.zeros(self.basis.shape[0])
        sv[:len(core)] = np.sort(np.abs(np.linalg.eigvalsh(core)))[::-1]
        return sv


def _require_margin(a: OperatorMatrix, t_op: BSOperator, threshold: float
                    ) -> None:
    # the weight's margin and its A + C come from its own operator, which
    # must be a; nonnegative weights make T PSD, margin >= 1, and no
    # margin is at or below -inf: nothing to check
    if t_op.operator is not a:
        raise ValidationError(
            "the weight's Birman-Schwinger operator is built on another A")
    if threshold == -np.inf or np.all(t_op.perturbation.values >= 0):
        return
    margin = positivity_margin(t_op)
    if margin <= threshold:
        raise PositivityError(
            f"positivity margin {margin:g} at or below threshold {threshold:g}"
        )


def _atom_side(a: OperatorMatrix, margin_threshold: float,
               *t_ops: BSOperator):
    """The atom side of the weights' restriction on A and the coupling
    cores S_i, C_i = gamma' S_i gamma.

    Every weight must be built on ``a``, pass the margin threshold and
    live on one restriction (equal ``cols`` and ``vals``; two built from
    one grid and measure are one), whose side on ``a`` is read (see
    :mod:`deltaspec.birman_schwinger`).
    """
    for t_op in t_ops:
        _require_margin(a, t_op, margin_threshold)
    restriction = t_ops[0].restriction
    if not all(_same_restriction(t_op.restriction, restriction)
               for t_op in t_ops):
        raise ValidationError("the weights live on different restrictions")
    side = _atom_side_of(a, restriction)
    return side, [side.coupling_core(t_op) for t_op in t_ops]


def _woodbury(g: np.ndarray, s: np.ndarray) -> np.ndarray:
    """M = S (1 + G S)^(-1) = (1 + S G)^(-1) S; no factor of the possibly
    singular G is taken."""
    return _sym(np.linalg.solve(np.eye(len(s)) + s @ g, s))


def _sweep(op, q, side, m):
    """``Q' op^(-m) Q`` and the largest relative part of op^(-j) gamma',
    1 <= j <= m, outside Q (0 when Q spans every node).

    With Z_j = op^(-j) Q and h = ceil(m / 2) the core is Z_(m-h)' Z_h: Q
    rides with gamma' for h solves and gamma' goes on alone to j = m. For
    m = 1 that is Q' op^(-1) Q from one solve of [Q, gamma']. A Q that
    spans every node (the node basis among them) has no gamma' to carry:
    it takes m solves of Q and one product with Q' (none for the node
    basis, where Q = 1).
    """
    r = q.shape[1]
    if r == q.shape[0]:
        y = q
        for j in range(m):
            y = op.solve(y, overwrite=j > 0)
        return side.on_basis(q, y), 0.0
    h, gap, c = (m + 1) // 2, 0.0, r
    # [Q, gamma'] in one array, each solve written over its input
    y = side.adjoint(left=q)
    for j in range(1, m + 1):
        if j == h:
            # Z_(m-h) is Q for m = 1, this solve's input for odd m (its Q
            # part copied before the solve overwrites it) and its output
            # for even m
            left = q if m == 1 else y[:, :r].copy() if m % 2 else None
        y = op.solve(y, overwrite=True)
        if j == h:
            left = y[:, :r] if left is None else left
            core, y, c = left.T @ y[:, :r], y[:, r:], 0
        norm = float(np.linalg.norm(y[:, c:]))
        if norm > 0:
            outside = q @ (q.T @ y[:, c:])
            outside -= y[:, c:]  # in place: minus the part outside Q
            gap = max(gap, float(np.linalg.norm(outside)) / norm)
    return core, gap


def _report(side, m, plus, minus, identity, terms) -> ResolventReport:
    """The direct path, the residual and the report of one difference.

    The direct core is ``Q' P^(-m) Q - Q' M^(-m) Q`` on the side's basis
    Q of power m, where ``plus`` and ``minus`` name P and M: the weight
    whose A + C is factored (once per weight, kept on its operator as
    ``perturbed``), or None for A itself, whose core the side keeps. Each
    weight's core and gap come from one sweep per power, kept on its
    operator, so a second report on the weight and power solves nothing.
    ``residual`` is the larger of the relative Frobenius disagreement of
    the identity-path core ``identity`` with the direct core, and, for
    each A + C, the relative part of
    span{(A + C)^(-j) gamma' : j <= m} outside Q (none for the node basis).
    NumericalError when a core or the residual is not finite, as when the
    weight is so large that the cores or their norms overflow; the callers
    run the identity path and this function with overflow and invalid
    values silenced, so that error is all such a report prints.
    """
    q, cores, gap = side.basis(m), [], 0.0
    for t_op in (plus, minus):
        if t_op is None:
            cores.append(side.powers(m)[1])
            continue
        if m not in t_op._sweeps:
            t_op._sweeps[m] = _sweep(t_op.perturbed, q, side, m)
        core, op_gap = t_op._sweeps[m]
        cores.append(core)
        gap = max(gap, op_gap)
    direct = cores[0] - cores[1]
    # the inverses' norm scale: when both paths sit at or below the noise
    # floor of spectra at that scale the difference is zero and they agree
    ambient = float(np.linalg.norm(cores[0]) + np.linalg.norm(cores[1]))
    scale = float(np.linalg.norm(direct))
    if max(scale, float(np.linalg.norm(identity))) <= FLOOR_FACTOR * ambient:
        disagreement = 0.0
    else:
        disagreement = float(np.linalg.norm(identity - direct))
        disagreement /= scale if scale > 0 else 1.0
    residual = max(disagreement, gap)
    if not (np.isfinite(residual) and all(
            np.isfinite(core).all() for core in (direct, *terms.values()))):
        raise NumericalError(
            f"a core or the residual ({residual}) of the difference is not "
            "finite")
    return ResolventReport(
        basis=q,
        core=_sym(direct),
        term_cores={label: _sym(core) for label, core in terms.items()},
        residual=residual,
    )


def perturbed_inverse(
    a: OperatorMatrix,
    t_op: BSOperator,
    margin_threshold: float = MARGIN_DEFAULT,
) -> np.ndarray:
    """Evaluate (A + C)^(-1) densely as ``A^(-1/2) (1 + T)^(-1) A^(-1/2)``.

    This is the small-N oracle: it eigendecomposes A and factors the dense
    1 + T.
    """
    _require_margin(a, t_op, margin_threshold)
    # with 1 + T = L L' and Y = L^(-1) A^(-1/2), the product is Y'Y
    y = np.linalg.solve(np.linalg.cholesky(np.eye(t_op.size) + t_op.matrix),
                        inverse_power(a, 0.5))
    return _sym_inplace(y.T @ y)


def _two_weight(a, t1, t2, margin_threshold, labels=("main", "Z1", "Z2")
                ) -> ResolventReport:
    # (A + C2)^(-1) - (A + C1)^(-1) as main - Z1 + Z2 (see
    # two_weight_difference); t2 None is the zero weight, whose coupling
    # core and Z2 vanish and whose side of the difference is A itself
    t_ops = (t1,) if t2 is None else (t1, t2)
    side, cores = _atom_side(a, margin_threshold, *t_ops)
    with np.errstate(over="ignore", invalid="ignore"):  # see _report
        p, g = side.qx(1), side.g
        main = cores[0] - cores[1] if t2 is not None else cores[0]
        z = [p @ (_woodbury(g, s) @ g @ s) @ p.T for s in cores]
        terms = dict(zip(labels, [p @ main @ p.T, -z[0]] + z[1:]))
        return _report(side, 1, t2, t1, sum(terms.values()), terms)


def resolvent_difference(
    a: OperatorMatrix,
    t_op: BSOperator,
    margin_threshold: float = MARGIN_DEFAULT,
) -> ResolventReport:
    """Difference of inverses ``A^(-1) - (A + C)^(-1)`` both ways.

    This is the two-weight difference against the zero weight. The
    identity path is ``X M X'``, expanded into the leading term
    R1 = X D X' = A^(-1) C A^(-1) minus the correction
    R2 = X (M G D) X' = A^(-1/2) T (1+T)^(-1) T A^(-1/2); the direct path
    factors the assembled A + C. Nonnegative V makes the difference
    positive semidefinite.
    """
    return _two_weight(a, t_op, None, margin_threshold, labels=("R1", "R2"))


def two_weight_difference(
    a: OperatorMatrix,
    t1: BSOperator,
    t2: BSOperator,
    margin_threshold: float = MARGIN_DEFAULT,
) -> ResolventReport:
    """Difference of the two perturbed inverses, expansion against direct.

    The identity path is ``X (M1 - M2) X'`` on the atoms, expanded
    as ``main - Z1 + Z2`` with main = X (D1 - D2) X' =
    A^(-1/2) (T1 - T2) A^(-1/2) and Zi = X (Mi G Di) X' =
    A^(-1/2) Ti (1 + Ti)^(-1) Ti A^(-1/2). It equals
    ``(A + C2)^(-1) - (A + C1)^(-1)``, which the direct path computes from
    banded factors of both assembled matrices; in particular V1 >= V2
    pointwise makes the result positive semidefinite, and T2 = 0 reduces
    it to :func:`resolvent_difference` of T1.
    """
    return _two_weight(a, t1, t2, margin_threshold)


def power_difference(
    a: OperatorMatrix,
    t_op: BSOperator,
    m: int,
    margin_threshold: float = MARGIN_DEFAULT,
) -> ResolventReport:
    """Difference of inverse powers ``(A + C)^(-m) - A^(-m)``, grouped.

    With B = A^(-1), W = A^(-1/2) T A^(-1/2) = X D X' and the resolvent
    written as B - W + W' (W' carries the (1+T)^(-1) correction), expanding
    the m-th power and grouping by the number of plain W factors gives

        H2 = - sum_{i+j=m-1} B^i W B^j        (one W),
        H3 = + sum_{i+j+k=m-2} B^i W B^j W B^k  (two W),
        H4 = everything else,

    where H4 is the identity-path difference minus H2 and H3. The identity
    path telescopes, with E = X M X':
    ``(B - E)^m - B^m = - sum_i (B - E)^i E B^(m-1-i)``, and runs on the
    atoms from A's kept products gamma B^j Q and Q'X, with no solve. The
    direct path applies the banded factor of A + C to the basis
    ceil(m / 2) times (see ``_sweep``).
    """
    if not (2 <= int(m) <= 4) or m != int(m):
        raise ValidationError("power m must be an integer in [2, 4]")
    m = int(m)
    side, (s,) = _atom_side(a, margin_threshold, t_op)
    mm = _woodbury(side.g, s)

    # the atom side's p[j] = gamma B^j Q for j = 1..m, Q' B^m Q and
    # px[j] = gamma B^j X for j < m: Q' B^i W B^j Q = p[i+1]' D p[j+1]
    p, bm, px = side.powers(m)
    p, px = [None, *p], [None, *px]

    with np.errstate(over="ignore", invalid="ignore"):  # see _report
        h2 = -sum(p[i + 1].T @ s @ p[m - i] for i in range(m))
        h3 = np.zeros_like(bm)
        for i in range(m - 1):
            for j in range(m - 1 - i):
                k = m - 2 - i - j
                h3 += p[i + 1].T @ s @ px[j + 1] @ s @ p[k + 1]

        # with U_i = (B - E)^i Q, Q' (B - E)^i X = f_i' for f_i =
        # gamma B U_i = g_i(1), where g_i(l) = gamma B^l U_i. As X'U_i =
        # f_i, g_0(l) = p[l] and g_(i+1)(l) = g_i(l+1) - gamma B^l X M f_i:
        # k x r arrays on the atoms, with no solve
        d_id = np.zeros_like(bm)
        g = p[1:]  # g[l - 1] = g_i(l) for l = 1..m - i
        for i in range(m):
            mf = mm @ g[0]
            d_id -= mf.T @ p[m - i]
            g = [g[l] - px[l] @ mf for l in range(1, m - i)]
        terms = {"H2": h2, "H3": h3, "H4": d_id - h2 - h3}
        return _report(side, m, t_op, None, d_id, terms)
