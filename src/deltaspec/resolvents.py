"""Exact perturbation identities for inverses and their powers.

With the Birman-Schwinger sandwich T = A^(-1/2) C A^(-1/2) the perturbed
matrix factors as ``A + C = A^(1/2) (1 + T) A^(1/2)``, so

    (A + C)^(-1) = A^(-1/2) (1 + T)^(-1) A^(-1/2)

holds at matrix level. Every report in this module evaluates a difference
two ways: through that identity (and its expansions) and through direct
dense inversion of the assembled ``A + C``, and records the relative
Frobenius disagreement of the two paths as ``residual``. The ``difference``
field always stores the direct-path matrix and the labeled ``terms`` carry
their signs, so they sum to the identity-path evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from .birman_schwinger import BSOperator, MARGIN_DEFAULT, positivity_margin
from .elliptic import OperatorMatrix, inverse_power
from .errors import PositivityError, ValidationError

__all__ = [
    "ResolventReport",
    "perturbed_inverse",
    "power_difference",
    "resolvent_difference",
    "two_weight_difference",
]


@dataclass(eq=False)
class ResolventReport:
    """A difference of (powers of) inverses with its labeled decomposition.

    ``difference`` is the direct-path matrix; ``terms`` map labels to signed
    matrices summing to the identity-path evaluation; ``residual`` is the
    relative Frobenius distance between the two paths.
    """

    difference: np.ndarray
    terms: dict[str, np.ndarray]
    residual: float
    _sv_cache: dict = field(default_factory=dict, repr=False)

    def expansion(self) -> np.ndarray:
        """Sum of the labeled terms (the identity-path evaluation)."""
        out = None
        for mat in self.terms.values():
            out = mat.copy() if out is None else out + mat
        return out

    def singular_values(self, label: str = "difference") -> np.ndarray:
        """Descending singular values of one labeled term (or the difference).

        Symmetric inputs use their eigenvalue magnitudes; results are cached.
        """
        if label not in self._sv_cache:
            mat = self.difference if label == "difference" else self.terms[label]
            sv = np.sort(np.abs(sla.eigvalsh(mat)))[::-1]
            self._sv_cache[label] = sv
        return self._sv_cache[label]


def _relative_residual(a: np.ndarray, b: np.ndarray, ambient: float = 0.0
                       ) -> float:
    # ``ambient`` is the norm scale of the inverses entering the difference;
    # when both paths sit at or below its rounding floor the difference is
    # numerically zero and the paths agree to working precision.
    gap = float(np.linalg.norm(a - b))
    scale = float(np.linalg.norm(b))
    if max(scale, float(np.linalg.norm(a))) <= 1e-11 * ambient:
        return 0.0
    return gap / scale if scale > 0 else gap


def _require_margin(t_op: BSOperator, threshold: float) -> None:
    # nonnegative weights make T PSD, margin >= 1: nothing to check
    if np.all(t_op.perturbation.values >= 0):
        return
    margin = positivity_margin(t_op)
    if margin <= threshold:
        raise PositivityError(
            f"positivity margin {margin:g} at or below threshold {threshold:g}"
        )


def _sym(x: np.ndarray) -> np.ndarray:
    return 0.5 * (x + x.T)


def _identity_setup(a: OperatorMatrix, threshold: float, *t_ops: BSOperator
                    ) -> tuple[np.ndarray, list]:
    """Shared start of every identity path.

    Checks that each T has a positivity margin above ``threshold``; returns
    A^(-1/2) and the Cholesky factor of each 1 + T.
    """
    for t_op in t_ops:
        _require_margin(t_op, threshold)
    chos = [sla.cho_factor(np.eye(t_op.size) + t_op.matrix, lower=True)
            for t_op in t_ops]
    return inverse_power(a, 0.5), chos


def _direct_inverse(a: OperatorMatrix, coupling: sp.spmatrix) -> np.ndarray:
    """(A + C)^(-1) by dense Cholesky of the assembled matrix, unsymmetrized."""
    mat = a.matrix + coupling.toarray()
    try:
        cho = sla.cho_factor(mat, lower=True)
    except np.linalg.LinAlgError as exc:
        raise PositivityError("assembled A + C is not positive definite") from exc
    return sla.cho_solve(cho, np.eye(a.size))


def perturbed_inverse(
    a: OperatorMatrix,
    t_op: BSOperator,
    margin_threshold: float = MARGIN_DEFAULT,
) -> np.ndarray:
    """Evaluate (A + C)^(-1) as ``A^(-1/2) (1 + T)^(-1) A^(-1/2)``."""
    a_half, (cho,) = _identity_setup(a, margin_threshold, t_op)
    return _sym(a_half @ sla.cho_solve(cho, a_half))


def resolvent_difference(
    a: OperatorMatrix,
    t_op: BSOperator,
    margin_threshold: float = MARGIN_DEFAULT,
) -> ResolventReport:
    """Difference of inverses ``A^(-1) - (A + C)^(-1)`` both ways.

    The identity path expands into the leading term
    R1 = A^(-1/2) T A^(-1/2) (algebraically equal to A^(-1) C A^(-1))
    minus the correction R2 = A^(-1/2) T (1+T)^(-1) T A^(-1/2); the direct
    path inverts the assembled matrix. Nonnegative V makes the difference
    positive semidefinite.
    """
    a_half, (cho,) = _identity_setup(a, margin_threshold, t_op)
    tt = t_op.matrix
    r1 = a_half @ tt @ a_half
    r2 = a_half @ _sym(tt @ sla.cho_solve(cho, tt)) @ a_half
    b_inv = inverse_power(a, 1.0)
    direct = b_inv - _sym(_direct_inverse(a, t_op.coupling))
    residual = _relative_residual(r1 - r2, direct,
                                  ambient=float(np.linalg.norm(b_inv)))
    return ResolventReport(
        difference=direct,
        terms={"R1": _sym(r1), "R2": -_sym(r2)},
        residual=residual,
    )


def two_weight_difference(
    a: OperatorMatrix,
    t1: BSOperator,
    t2: BSOperator,
    margin_threshold: float = MARGIN_DEFAULT,
) -> ResolventReport:
    """Difference of the two perturbed inverses, expansion against direct.

    The expansion is ``A^(-1/2) (T1 - T2) A^(-1/2) - Z1 + Z2`` with
    ``Zi = A^(-1/2) Ti (1 + Ti)^(-1) Ti A^(-1/2)``. It equals
    ``(A + C2)^(-1) - (A + C1)^(-1)``, which the direct path computes by
    dense inversion; in particular V1 >= V2 pointwise makes the result
    positive semidefinite, and T2 = 0 reduces it to
    :func:`resolvent_difference` of T1 exactly.
    """
    a_half, chos = _identity_setup(a, margin_threshold, t1, t2)
    main = a_half @ (t1.matrix - t2.matrix) @ a_half
    zs = []
    for t_op, cho in zip((t1, t2), chos):
        tt = t_op.matrix
        core = tt @ sla.cho_solve(cho, tt)
        zs.append(_sym(a_half @ _sym(core) @ a_half))
    d2 = _sym(_direct_inverse(a, t2.coupling))
    d1 = _sym(_direct_inverse(a, t1.coupling))
    direct = d2 - d1
    expansion = main - zs[0] + zs[1]
    ambient = float(np.linalg.norm(d1) + np.linalg.norm(d2))
    residual = _relative_residual(expansion, direct, ambient=ambient)
    return ResolventReport(
        difference=direct,
        terms={"main": _sym(main), "Z1": -zs[0], "Z2": zs[1]},
        residual=residual,
    )


def power_difference(
    a: OperatorMatrix,
    t_op: BSOperator,
    m: int,
    margin_threshold: float = MARGIN_DEFAULT,
) -> ResolventReport:
    """Difference of inverse powers ``(A + C)^(-m) - A^(-m)``, grouped.

    With B = A^(-1), W = A^(-1/2) T A^(-1/2) and the resolvent written as
    B - W + W' (W' carries the (1+T)^(-1) correction), expanding the m-th
    power and grouping by the number of plain W factors gives

        H2 = - sum_{i+j=m-1} B^i W B^j        (one W),
        H3 = + sum_{i+j+k=m-2} B^i W B^j W B^k  (two W),
        H4 = everything else,

    where H4 is computed as the identity-path difference minus H2 and H3
    rather than by enumerating the remaining words. The direct path takes
    the m-th matrix power of the dense inverse of A + C.
    """
    if not (2 <= int(m) <= 4) or m != int(m):
        raise ValidationError("power m must be an integer in [2, 4]")
    m = int(m)
    a_half, (cho,) = _identity_setup(a, margin_threshold, t_op)
    w = _sym(a_half @ t_op.matrix @ a_half)
    p_id = _sym(a_half @ sla.cho_solve(cho, a_half))
    del cho

    b = inverse_power(a, 1.0)
    b_pow = [None, b]  # index = power; B^0 matmuls are skipped
    for _ in range(2, m):
        b_pow.append(b_pow[-1] @ b)

    def left_mul(i, mat):
        return mat if i == 0 else b_pow[i] @ mat

    wb = [w] + [w @ b_pow[j] for j in range(1, m)]  # wb[j] = W B^j

    h2 = np.zeros_like(b)
    for i in range(m):
        j = m - 1 - i
        h2 -= left_mul(i, wb[j])
    h3 = np.zeros_like(b)
    for i in range(m - 1):
        for j in range(m - 1 - i):
            k = m - 2 - i - j
            h3 += left_mul(i, wb[j] @ wb[k])

    del wb
    bm = b_pow[-1] @ b
    del b_pow
    pm = p_id.copy()
    for _ in range(m - 1):
        pm = pm @ p_id
    d_id = pm - bm
    del pm, p_id
    h4 = d_id - h2 - h3

    ambient = float(np.linalg.norm(bm))
    av_inv = _sym(_direct_inverse(a, t_op.coupling))
    dm = av_inv.copy()
    for _ in range(m - 1):
        dm = dm @ av_inv
    del av_inv
    direct = dm - bm
    del dm, bm

    residual = _relative_residual(d_id, direct, ambient=ambient)
    return ResolventReport(
        difference=_sym(direct),
        terms={"H2": _sym(h2), "H3": _sym(h3), "H4": _sym(h4)},
        residual=residual,
    )
