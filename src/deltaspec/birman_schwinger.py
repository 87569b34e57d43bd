"""Restriction of grid functions to measure atoms and the sandwiched couplings.

``restriction_matrix`` builds the multilinear interpolation gamma from grid
nodes to atoms as per-atom corner indices and weights, and
``coupling_band`` the coupling ``C = gamma' D gamma`` in lower band storage,
with ``D = diag(w V / h^N)`` from ``atom_density``, the one place the
``h^N`` mass factor enters. Every perturbation in the package is such a
coupling; a Robin condition is the coupling of the box boundary measure.
``bs_operator`` bundles A, gamma and D into the Birman-Schwinger operator
``T = A^(-1/2) C A^(-1/2)``, whose spectrum decides the positivity of the
perturbed form (``positivity_margin``, the smallest eigenvalue of 1 + T).
T is never needed as an N x N matrix: ``BSOperator.core`` is the
atoms-by-atoms core carrying its nonzero spectrum, built from the
eigendecomposition of G = gamma A^(-1) gamma', and ``bs_atom_gram``
returns it for a weight. The dense sandwich is formed only when
``BSOperator.matrix`` is read, as the oracle of the tests.

This module owns the one path from A to the atoms: the atom-side slot an
``OperatorMatrix`` keeps. The slot holds what depends on A and the atoms
of one restriction but not on the weights: X = A^(-1) gamma',
G = gamma X, the factor R of the core (R'R = G) and the orthonormal
Krylov basis of the resolvent reports, each built on first use. It
covers every atom of the restriction; a weight enters only through D, so
its zeros are zero entries of D and every weight on the measure reads
the same side. The slot is keyed by the restriction's
content (``cols`` and ``vals``), and a lookup with another key replaces
it. It is instance state, not a global cache: it lives and dies with its
operator and needs no invalidation, since ``band`` and the
restriction's arrays are read-only.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .elliptic import (
    Grid,
    OperatorMatrix,
    dense_from_band,
    inverse_power,
    lower_band,
)
from .errors import ValidationError
from .measures import DiscreteMeasure
from .weights import Perturbation

__all__ = [
    "BSOperator",
    "RestrictionMatrix",
    "bs_atom_gram",
    "bs_operator",
    "positivity_margin",
    "restriction_matrix",
]

MARGIN_DEFAULT = 0.05
# Krylov directions below this fraction of their block's scale are taken as
# numerically dependent; keeping a spurious one would only add a zero value
RANK_TOL = 1e-12


def _sym(x: np.ndarray) -> np.ndarray:
    return 0.5 * (x + x.T)


@dataclass(eq=False)
class RestrictionMatrix:
    """Interpolation rows mapping grid functions to atom values.

    Row i (atom i) has the weight ``vals[i, c]`` at node ``cols[i, c]``, one
    entry per corner c of the atom's cell (2^N of them, at distinct nodes).
    Rows are a partition of unity, so the restriction is exact on
    multilinear functions. ``cols`` and ``vals`` are read-only: the
    atom side an operator keeps is keyed by their content.
    """

    cols: np.ndarray
    vals: np.ndarray
    grid: Grid
    measure: DiscreteMeasure

    def __post_init__(self):
        self.cols.setflags(write=False)
        self.vals.setflags(write=False)

    def apply(self, f: np.ndarray) -> np.ndarray:
        """gamma f: the values of the grid function(s) f at the atoms."""
        out = 0.0
        for c in range(self.cols.shape[1]):
            w = self.vals[:, c].reshape((-1,) + (1,) * (np.ndim(f) - 1))
            out = out + w * f[self.cols[:, c]]
        return out

    def adjoint(self) -> np.ndarray:
        """Dense gamma' (N x atoms)."""
        k = len(self.cols)
        out = np.zeros((self.grid.size, k))
        out[self.cols, np.arange(k)[:, None]] = self.vals
        return out


@dataclass(eq=False)
class BSOperator:
    """The coupling C = gamma' D gamma of a weight, seen from A.

    Carries A, the restriction gamma and the atom density D, plus ``band``,
    C in lower band storage. The atom-side core, the margin, the factored
    A + C (``perturbed``, shared by every report on this weight) and the
    dense sandwich T = A^(-1/2) C A^(-1/2) (``matrix``) are each built on
    first use; ``coupling`` gives C as a SciPy CSR matrix for callers
    outside the package.
    """

    operator: OperatorMatrix
    restriction: RestrictionMatrix
    perturbation: Perturbation
    density: np.ndarray
    band: np.ndarray
    _core: np.ndarray | None = field(default=None, init=False, repr=False)
    _margin: float | None = field(default=None, init=False, repr=False)
    _perturbed: OperatorMatrix | None = field(default=None, init=False,
                                              repr=False)
    _matrix: np.ndarray | None = field(default=None, init=False, repr=False)

    @property
    def size(self) -> int:
        return self.operator.size

    @property
    def core(self) -> np.ndarray:
        """Atom-side core with the nonzero spectrum of T (see bs_atom_gram).

        For any R with R'R = G = gamma A^(-1) gamma', the nonzero
        spectrum of T = A^(-1/2) gamma' D gamma A^(-1/2) is that of
        D G = D R'R, hence that of R D R'. R comes from the operator's
        atom side, which takes it from the eigendecomposition of G
        (min(N, k) square, k the atoms) and shares it with every weight
        on this restriction; no factor of G is taken, so G may be
        singular, as when two atoms share their interpolation nodes.
        Atoms where the weight vanishes are zero entries of D.
        """
        if self._core is None:
            r = _atom_side_of(self.operator, self.restriction).r(self.operator)
            self._core = _sym((r * self.density) @ r.T)
        return self._core

    @property
    def perturbed(self) -> OperatorMatrix:
        """A + C, built on first use; its factor is computed once, on the
        first solve."""
        if self._perturbed is None:
            self._perturbed = self.operator.plus(self.band)
        return self._perturbed

    @property
    def coupling(self):
        """C as a ``scipy.sparse`` CSR matrix, built on each access."""
        import scipy.sparse as sp

        return sp.csr_matrix(dense_from_band(self.band))

    @property
    def matrix(self) -> np.ndarray:
        """Dense sandwich T = A^(-1/2) C A^(-1/2), built on first access.

        Assembled from the atom-side factor ``A^(-1/2) gamma'`` scaled by
        the signed density, which keeps the Gram symmetry exact.
        """
        if self._matrix is None:
            x = inverse_power(self.operator, 0.5) @ self.restriction.adjoint()
            self._matrix = _sym((x * self.density) @ x.T)
        return self._matrix


def _orthonormal_block(block: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the part of ``block`` (N x k) outside the
    orthonormal columns of ``q``, keeping the directions above RANK_TOL
    of the block's scale (its largest column norm).

    The block is projected twice off ``q``. The singular values s and
    right vectors V come from the k x k triangular factor R of a QR of
    the block (no N x k orthogonal factor is formed), and the kept left
    vectors are ``block V / s``. Column i is off by about eps |block| /
    s_i, so each kept component s_i u_i is reproduced to eps |block|, as
    by an SVD of the block itself, and the columns are orthonormal to
    about 1e-3 at worst. They are projected off ``q`` once more (a weak
    direction carries back about eps/s of it) and one Cholesky QR pass,
    ``U L'^(-1)`` with L L' = U'U, makes them orthonormal. The order is s
    descending, so the last column is the block's weakest direction.
    """
    scale = float(np.sqrt((block * block).sum(axis=0)).max())
    if q.shape[1]:
        for _ in range(2):
            block = block - q @ (q.T @ block)
    _, s, vt = np.linalg.svd(np.linalg.qr(block, mode="r"))
    keep = s > RANK_TOL * scale
    u = block @ (vt[keep].T / s[keep])
    if q.shape[1]:
        u = u - q @ (q.T @ u)
    return u @ np.linalg.inv(np.linalg.cholesky(u.T @ u)).T


class _AtomSide:
    """What the reports need of A on the atoms of one restriction.

    ``x(a)`` is X = A^(-1) gamma', ``g(a)`` is G = gamma X, ``r(a)`` is
    a factor R'R = G on the atoms from the
    eigendecomposition of ``g(a)``, and ``basis(a, m)`` is the
    orthonormal basis Q of span{A^(-j) gamma' : j <= m}. Each is built on
    first use, from the A passed in, which is the operator keeping this
    side. With at least as many atoms as nodes, G would be no smaller
    than N x N, and the nodes serve as atoms instead: gamma = 1, so
    ``g(a)`` is A^(-1), and Q = 1 (the node basis); R is still a factor
    of G on the atoms, N x k.
    """

    def __init__(self, restriction: RestrictionMatrix, size: int):
        self.restriction = restriction
        self.nodes = len(restriction.cols) >= size
        self._blocks = np.zeros((size, 0))
        self._widths: list[int] = []
        self._x = None
        self._g = None
        self._r = None

    def adjoint(self) -> np.ndarray:
        """gamma', formed on each call (the node basis: the identity)."""
        if self.nodes:
            return np.eye(self.restriction.grid.size)
        return self.restriction.adjoint()

    def gamma(self, f: np.ndarray) -> np.ndarray:
        """gamma f (f itself for the node basis)."""
        return f if self.nodes else self.restriction.apply(f)

    def x(self, a: OperatorMatrix) -> np.ndarray:
        """X = A^(-1) gamma'."""
        if self._x is None:
            self._x = a.solve(self.adjoint())
        return self._x

    def g(self, a: OperatorMatrix) -> np.ndarray:
        if self._g is None:
            self._g = _sym(self.gamma(self.x(a)))
        return self._g

    def r(self, a: OperatorMatrix) -> np.ndarray:
        """R'R = G from G = U W U': R = (U W^(1/2))', times gamma' for
        the node basis, with rounding's negative eigenvalues clipped to 0.
        Rows run from the largest eigenvalue down, so the core R D R' is
        graded large-first, which keeps its small eigenvalues to relative
        accuracy (1.7e-10 of a dense QR factor's on 4096 nodes and 256
        Cantor atoms; 2.6e-9 in ascending order).
        """
        if self._r is None:
            w, u = np.linalg.eigh(self.g(a))
            r = (u * np.sqrt(np.clip(w, 0.0, None)))[:, ::-1]
            self._r = (self.restriction.apply(r) if self.nodes else r).T
        return self._r

    def basis(self, a: OperatorMatrix, m: int) -> np.ndarray:
        """Orthonormal basis of span{A^(1-j) X : 1 <= j <= m} by block
        Arnoldi; the identity for the node basis.

        The first block is X, and each further one is A^(-1) applied to the
        last, orthonormalized off the basis so far by
        :func:`_orthonormal_block`, which keeps the directions above
        RANK_TOL of the block's scale. The blocks are kept, so the basis
        for m is the first columns of the basis for m + 1. The basis of
        every block built is read-only and handed out as it is; a shorter
        one is copied.
        """
        if self.nodes:
            return np.eye(a.size)
        while len(self._widths) < m:
            q = self._blocks
            block = (a.solve(q[:, q.shape[1] - self._widths[-1]:])
                     if self._widths else self.x(a))
            block = _orthonormal_block(block, q)
            if block.shape[1] == 0:  # the span is exhausted
                break
            self._blocks = np.hstack([q, block])
            self._blocks.setflags(write=False)
            self._widths.append(block.shape[1])
        r = sum(self._widths[:m])
        q = self._blocks
        return q if r == q.shape[1] else q[:, :r].copy()


def _atom_side_of(a: OperatorMatrix, restriction: RestrictionMatrix
                  ) -> _AtomSide:
    """``a``'s atom side for the restriction.

    The side in ``a``'s slot serves when its restriction has the same
    ``cols`` and ``vals``; otherwise a new, empty side replaces it.
    """
    side = a._atom_side
    if (side is None
            or not np.array_equal(side.restriction.cols, restriction.cols)
            or not np.array_equal(side.restriction.vals, restriction.vals)):
        a._atom_side = None  # the old side is freed before the new is built
        side = a._atom_side = _AtomSide(restriction, a.size)
    return side


def restriction_matrix(grid: Grid, m: DiscreteMeasure) -> RestrictionMatrix:
    """Multilinear interpolation rows for each atom of the measure.

    Atoms must lie inside the grid bbox. Atoms in the half-cell margin
    between the outermost nodes and the box boundary use clamped
    interpolation (constant extension), which keeps every row a partition
    of unity. Along each axis an atom within 1e-9 cell widths of a node is
    snapped onto it, so an atom on a node gets an exact 0/1 row even when
    its coordinates carry rounding error.
    """
    atoms = m.atoms
    if atoms.shape[1] != grid.ambient_dim:
        raise ValidationError("measure and grid ambient dimensions differ")
    h = grid.spacing
    tol = 1e-12
    for axis in range(grid.ambient_dim):
        lo, hi = grid.bbox[axis]
        span = hi - lo
        if np.any(atoms[:, axis] < lo - tol * span) or np.any(
                atoms[:, axis] > hi + tol * span):
            raise ValidationError("atom outside the grid bounding box")

    # per-axis index pairs and barycentric weights, clamped to the node hull
    axis_idx = []
    axis_wts = []
    for axis in range(grid.ambient_dim):
        n = grid.shape[axis]
        u = (atoms[:, axis] - grid.bbox[axis, 0]) / h[axis] - 0.5
        near = np.rint(u)
        u = np.where(np.abs(u - near) <= 1e-9, near, u)
        i0 = np.clip(np.floor(u).astype(int), 0, n - 2)
        frac = np.clip(u - i0, 0.0, 1.0)
        axis_idx.append(np.column_stack([i0, i0 + 1]))
        axis_wts.append(np.column_stack([1.0 - frac, frac]))

    # one entry per atom and cell corner: the product of the axis weights
    # at the corner's node, flattened in the grid's C order (so the corners
    # of a row are in ascending node order)
    axes = range(grid.ambient_dim)
    corners = list(itertools.product((0, 1), repeat=grid.ambient_dim))
    cols = np.column_stack([
        np.ravel_multi_index([axis_idx[i][:, c[i]] for i in axes], grid.shape)
        for c in corners])
    vals = np.column_stack([np.prod([axis_wts[i][:, c[i]] for i in axes],
                                    axis=0) for c in corners])
    return RestrictionMatrix(cols=cols, vals=vals, grid=grid, measure=m)


def atom_density(g: RestrictionMatrix, p: Perturbation) -> np.ndarray:
    """Diagonal D = w V / h^N of the coupling, one entry per atom."""
    return p.measure.weights * p.values / g.grid.cell_volume


def coupling_band(g: RestrictionMatrix, p: Perturbation) -> np.ndarray:
    """C = gamma' D gamma in lower band storage, D from :func:`atom_density`:
    each atom adds D w_p w_q at the node pair of its corners p, q."""
    if p.measure is not g.measure and p.measure.count != g.measure.count:
        raise ValidationError("perturbation and restriction measures differ")
    k, corners = g.cols.shape
    vals = ((g.vals * atom_density(g, p)[:, None])[:, :, None]
            * g.vals[:, None, :])
    return lower_band(np.repeat(g.cols, corners, axis=1).ravel(),
                      np.tile(g.cols, (1, corners)).ravel(), vals.ravel(),
                      g.grid.size)


def bs_operator(
    a: OperatorMatrix,
    g: RestrictionMatrix,
    p: Perturbation,
) -> BSOperator:
    """Birman-Schwinger operator T = A^(-1/2) C A^(-1/2) of the weight p.

    Nothing of size N x N is formed here; see :class:`BSOperator`.
    """
    if a.size != g.grid.size:
        raise ValidationError("operator and restriction grids differ in size")
    return BSOperator(operator=a, restriction=g, perturbation=p,
                      density=atom_density(g, p), band=coupling_band(g, p))


def bs_atom_gram(
    a: OperatorMatrix,
    g: RestrictionMatrix,
    p: Perturbation,
) -> np.ndarray:
    """Atom-side core with the same nonzero spectrum as T, for either sign.

    The core is ``R D R'`` with D = diag(w V / h^N) from
    :func:`atom_density`, zero where the weight vanishes, and R'R = G =
    gamma A^(-1) gamma' on every atom, R = (U W^(1/2))' from the
    eigendecomposition G = U W U'. It is min(N, k) square, k the atom
    count; T has its eigenvalues plus N - k zeros when k < N. It needs
    one factorization of A, k solves and a k x k eigendecomposition, no
    eigendecomposition of A, which is what makes the fractal counting
    experiments cheap on fine grids; G and R are kept on A's atom side,
    so every weight on the restriction and every report share them.
    """
    return bs_operator(a, g, p).core


def positivity_margin(t_op: BSOperator) -> float:
    """Smallest eigenvalue of 1 + T; the form is usable only if positive.

    This is a diagnostic: experiments should proceed only when the margin
    exceeds their configured threshold (0.05 by default downstream).
    Nonnegative weights always give T >= 0 and hence a margin >= 1. The
    margin is the smallest eigenvalue of the atom-side core (one
    eigensolve of size min(N, k), k the atom count), with the zero
    eigenvalues T has beyond the core when k < N;
    it is computed once per operator and kept on it.
    """
    if t_op._margin is None:
        core = t_op.core
        w_min = float(np.linalg.eigvalsh(core)[0])
        if core.shape[0] < t_op.size:
            w_min = min(w_min, 0.0)
        t_op._margin = 1.0 + w_min
    return t_op._margin
