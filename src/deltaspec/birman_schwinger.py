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

This module owns the one path from A to the atoms: the atom side
(``_AtomSide``) in the one slot an ``OperatorMatrix`` keeps for it. The
side holds what depends on A and the atoms of one restriction but not on
the weights: X = A^(-1) gamma', G = gamma X, the factor R of the core
(R'R = G), the orthonormal Krylov basis Q of the resolvent reports and,
per power, A's sweep, each built on first use; its ``sweep`` forms the
chain of every operator, A's and each weight's A + C, and it makes every
choice that depends on whether the nodes serve as atoms. It covers every
atom of the restriction; a weight enters only through D, so its zeros
are zero entries of D and every weight on the measure reads the same
side: the margin checks, reports and cores on one A and one measure
build these once, and once they are built a report solves only with its
A + C. The slot is keyed by the restriction's content (``cols`` and
``vals``), and a lookup with another key replaces it. It is instance
state, not a global cache: the side reaches A by a weak reference, so it
is freed with its operator, and it needs no invalidation, since ``band``
and the restriction's arrays are read-only.
"""

from __future__ import annotations

import itertools
import weakref
from dataclasses import dataclass, field
from functools import cached_property

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
# The weakest direction one Gram matrix B'B resolves, as a fraction of the
# block's largest singular value: B'B carries rounding of about eps s_top^2,
# so at GRAM_RESOLUTION s_top a direction has s^2 to a relative 1e-4 (eps /
# GRAM_RESOLUTION^2) and its left vector B v / s is orthogonal to the others
# to about that, which one Cholesky QR pass takes to eps; weaker directions
# wait for the Gram of what is left once the resolved ones are taken out
GRAM_RESOLUTION = 1e2 * np.sqrt(np.finfo(float).eps)


def _sym(x: np.ndarray) -> np.ndarray:
    return 0.5 * (x + x.T)


def _sym_inplace(x: np.ndarray) -> np.ndarray:
    """``_sym(x)`` written over the square ``x``, bit for bit, and returned.

    A row block at a time, 1/32 of the rows: the block's entries from the
    diagonal on and the mirror column block take 0.5 * (x' + x) (the same
    sum, as addition commutes) in one temporary of the block's size, and
    no entry is read after it is written, so an N x N result needs no
    second N x N array (numpy's ufunc buffer, at most 8192 values, adds
    about one more block on small x).
    """
    n = len(x)
    rows = -(-n // 32)
    for i in range(0, n, rows):
        block = x[i:, i:i + rows].T.copy()
        block += x[i:i + rows, i:]
        block *= 0.5
        x[i:i + rows, i:] = block
        x[i:, i:i + rows] = block.T
        del block  # freed before the next block is formed
    return x


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
    outside the package. Next to ``perturbed``, the resolvent reports
    keep per power m the sweep of A + C on the basis Q of that m (see
    ``_AtomSide.sweep``), so a second report on this weight and power
    solves nothing with A + C.
    """

    operator: OperatorMatrix
    restriction: RestrictionMatrix
    perturbation: Perturbation
    density: np.ndarray
    band: np.ndarray
    _sweeps: dict[int, tuple] = field(default_factory=dict, init=False,
                                      repr=False)

    @property
    def size(self) -> int:
        return self.operator.size

    @cached_property
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
        r = _atom_side_of(self.operator, self.restriction).r
        return _sym((r * self.density) @ r.T)

    @cached_property
    def margin(self) -> float:
        """Smallest eigenvalue of 1 + T (see :func:`positivity_margin`):
        the smallest of the core's, with the zeros T has beyond the core
        when it is smaller than N."""
        w_min = float(np.linalg.eigvalsh(self.core)[0])
        if self.core.shape[0] < self.size:
            w_min = min(w_min, 0.0)
        return 1.0 + w_min

    @cached_property
    def perturbed(self) -> OperatorMatrix:
        """A + C, built on first use; its factor is computed once, on the
        first solve."""
        return self.operator.plus(self.band)

    @property
    def coupling(self):
        """C as a ``scipy.sparse`` CSR matrix, built on each access."""
        import scipy.sparse as sp

        return sp.csr_matrix(dense_from_band(self.band))

    @cached_property
    def matrix(self) -> np.ndarray:
        """Dense sandwich T = A^(-1/2) C A^(-1/2), built on first access.

        Assembled from the atom-side factor ``A^(-1/2) gamma'`` scaled by
        the signed density, which keeps the Gram symmetry exact.
        """
        x = inverse_power(self.operator, 0.5) @ self.restriction.adjoint()
        return _sym_inplace((x * self.density) @ x.T)


def _orthonormal_block(block: np.ndarray, q: np.ndarray,
                       overwrite: bool = False) -> np.ndarray:
    """Orthonormal basis of the part of ``block`` (N x k) outside the
    orthonormal columns of ``q``: the directions whose singular value
    exceeds RANK_TOL of the block's scale (its largest column norm),
    strongest first.

    No QR or SVD of the block is formed. The block B is projected twice
    off ``q`` and taken apart in Gram passes. A pass takes the k x k
    eigendecomposition B'B = V s^2 V' and keeps the directions with s
    above RANK_TOL of the scale and above GRAM_RESOLUTION of the pass's
    largest s, where s^2 is resolved to a relative 1e-4 and the left
    vectors ``B V / s`` are orthonormal to about that. They are projected
    off ``q`` and the earlier passes once (a weak direction carries back
    about eps |B| / s of them), and one Cholesky QR pass, ``U L'^(-1)``
    with L L' = U'U, makes them orthonormal to rounding. If the pass left
    directions it could not resolve, B is deflated twice, B - U U'B, and
    the next pass reads what remains. The passes stop at one that keeps
    every direction or none, or whose cut is RANK_TOL of the scale
    itself, so that it resolved every direction down to it; each keeps
    at least its strongest direction, so they end. The part of the block
    the result leaves out is its directions below RANK_TOL of the scale
    plus rounding of about eps |block|, as for an SVD of the block.
    ``block`` is written over when ``overwrite`` is set; otherwise it is
    copied before it is first written.
    """
    scale = float(np.sqrt((block * block).sum(axis=0)).max())
    floor = RANK_TOL * scale
    passes: list[np.ndarray] = []
    out = q  # the columns to take out of the block, twice, before a pass
    while True:
        if out.shape[1]:
            if not overwrite:
                block, overwrite = block.copy(), True
            for _ in range(2):
                block -= out @ (out.T @ block)
        w, v = np.linalg.eigh(block.T @ block)
        s = np.sqrt(np.clip(w[::-1], 0.0, None))
        cut = max(floor, GRAM_RESOLUTION * s[0])
        keep = s > cut
        if not keep.any():
            break
        u = block @ (v[:, ::-1][:, keep] / s[keep])
        for p in ([q] if q.shape[1] else []) + passes:
            u -= p @ (p.T @ u)
        out = u @ np.linalg.inv(np.linalg.cholesky(u.T @ u)).T
        passes.append(out)
        if keep.all() or cut == floor:
            break
    if len(passes) == 1:
        return passes[0]
    return np.hstack(passes) if passes else np.zeros((len(block), 0))


# What a report holds on the atom side at its peak, counted for the size
# rule of ``elliptic.held_bytes``, with k atoms, power m and r = min(m k, N)
# the widest basis. Arrays of N rows and at most r columns: X, the basis Q,
# and in ``_AtomSide.sweep`` the chain's Y = op^(-j) gamma' (k columns,
# each solve written over the last) and its part outside Q, four in all.
# Cores of at most r x r: G, the Woodbury cores and their temporaries, the
# kept sweeps of A and of each A + C, the terms and the report's cores; a
# weight's coupling core on the atoms is a vector. Their number grows with
# m. The tracemalloc peaks of every report of a run (rd, tw and power_diff
# up to m, each dropped after its spectrum) above the factors, on 1D to 3D
# grids with m = 1 to 4, needed at most 23.4 of them next to the four N-row
# arrays: a 2D segment at m = 1, where r = k; the node basis, where r = N
# and the N-row arrays are N x N too, needs 23.1 at m = 4. 24 covers both.
ROW_ARRAYS = 4
CORE_ARRAYS = 24


class _AtomSide:
    """What the reports need of A on the atoms of one restriction.

    ``x`` is X = A^(-1) gamma', ``g`` is G = gamma X, ``r`` is a factor
    R'R = G on the atoms from the eigendecomposition of ``g``,
    ``basis(m)`` is the orthonormal basis Q of span{A^(-j) gamma' :
    j <= m}, and ``sweep(t_op, m)`` is the chain on that Q of A (kept
    here, per m) or of a weight's A + C (kept on its operator). Each is
    built on first use. The side lives in its operator's slot, so it
    holds A by a weak reference: a strong one would make a cycle, and
    X and Q (N x k each) would then wait for the cyclic garbage
    collector after the last other reference to A goes. With at least
    as many atoms as nodes, G would be no smaller than N x N, and the
    nodes serve as atoms instead: gamma = 1, so ``g`` is A^(-1), and
    Q = 1 (the node basis); R is still a factor of G on the atoms,
    N x k. Every branch on the node basis lives in this class.
    """

    def __init__(self, a: OperatorMatrix, restriction: RestrictionMatrix):
        self._a = weakref.ref(a)
        self.restriction = restriction
        self.nodes = len(restriction.cols) >= a.size
        self._blocks = np.zeros((a.size, 0))
        self._widths: list[int] = []
        self._spent = False
        self._sweeps: dict[int, tuple] = {}

    def adjoint(self) -> np.ndarray:
        """gamma', formed on each call (the identity for the node basis,
        each node its own atom)."""
        n = self.restriction.grid.size
        cols, vals = self.restriction.cols, self.restriction.vals
        if self.nodes:
            cols, vals = np.arange(n)[:, None], np.ones((n, 1))
        out = np.zeros((n, len(cols)))
        out[cols, np.arange(len(cols))[:, None]] = vals
        return out

    def gamma(self, f: np.ndarray) -> np.ndarray:
        """gamma f (f itself for the node basis)."""
        return f if self.nodes else self.restriction.apply(f)

    def coupling_core(self, t_op: BSOperator) -> np.ndarray:
        """The weight's S with C = gamma' S gamma: the vector D of the
        diagonal S on the atoms, the dense C itself for the node basis
        (see ``resolvents._times``)."""
        if self.nodes:
            return dense_from_band(t_op.band)
        return t_op.density

    @cached_property
    def x(self) -> np.ndarray:
        """X = A^(-1) gamma', solved over the gamma' it is formed from."""
        return self._a().solve(self.adjoint(), overwrite=True)

    @cached_property
    def g(self) -> np.ndarray:
        # symmetrized on a copy: for the node basis gamma X is X itself
        return _sym_inplace(self.gamma(self.x).copy())

    @cached_property
    def r(self) -> np.ndarray:
        """R'R = G from G = U W U': R = (U W^(1/2))', times gamma' for
        the node basis, with rounding's negative eigenvalues clipped to 0.
        Rows run from the largest eigenvalue down, so the core R D R' is
        graded large-first, which keeps its small eigenvalues to relative
        accuracy (1.7e-10 of a dense QR factor's on 4096 nodes and 256
        Cantor atoms; 2.6e-9 in ascending order).
        """
        w, u = np.linalg.eigh(self.g)
        r = (u * np.sqrt(np.clip(w, 0.0, None)))[:, ::-1]
        return (self.restriction.apply(r) if self.nodes else r).T

    def basis(self, m: int) -> np.ndarray:
        """Orthonormal basis of span{A^(1-j) X : 1 <= j <= m} by block
        Arnoldi; the identity for the node basis.

        The first block is X, and each further one is A^(-1) applied to the
        last, orthonormalized off the basis so far by
        :func:`_orthonormal_block`, which keeps the directions above
        RANK_TOL of the block's scale. The blocks are kept in one array,
        so the basis for m is the first columns of the basis for m + 1,
        handed out as a read-only view. A call that adds blocks grows the
        array once, by room for its blocks at the width of its first (a
        block has at most the width of the one it is solved from). The
        span is exhausted when a block comes out empty or the basis spans
        every node; that is kept, so no later call solves again.
        """
        if self.nodes:
            return np.eye(self.restriction.grid.size)
        while len(self._widths) < m and not self._spent:
            r = sum(self._widths)
            q = self._blocks[:, :r]
            if self._widths:
                block = _orthonormal_block(
                    self._a().solve(q[:, r - self._widths[-1]:]), q,
                    overwrite=True)
            else:
                block = _orthonormal_block(self.x, q)
            width = block.shape[1]
            self._spent = width == 0 or r + width == len(q)
            if not width:
                break
            if r + width > self._blocks.shape[1]:
                grown = np.empty((len(q), r + (m - len(self._widths)) * width))
                grown[:, :r] = q
                self._blocks = grown
            self._blocks[:, r:r + width] = block
            self._widths.append(width)
            del block  # freed before the next block is solved
        q = self._blocks[:, :sum(self._widths[:m])]
        q.setflags(write=False)
        return q

    def sweep(self, t_op: BSOperator | None, m: int):
        """The chain of A (``t_op`` None) or of the weight's A + C on the
        basis Q = ``basis(m)``, with Y_j = op^(-j) gamma': the list of
        Q'Y_j for 1 <= j <= m (r x k), A's list of gamma Y_j for
        2 <= j <= m (k x k; the identity path of ``power_difference``
        reads them as gamma A^(1-j) X, and an A + C has none), and the
        span gap, the largest relative part of a Y_j outside Q (0 for A,
        whose Q is built from its own chain, and on the node basis).

        A's Y_1 is X, with no solve; an A + C solves gamma' first. Each
        further Y is solved from the last, over it where it is not kept:
        X is, and on the node basis, where Q = gamma' = 1, each Y_j is
        itself its Q'Y_j and gamma Y_j. A sweep is kept per m on its
        owner, A's on this side and a weight's on its operator, so a
        second report on the operator and power solves nothing. On the
        node basis nothing is projected, so the sweep of m is the first
        entries of any longer one, bit for bit, and only the longest is
        kept. At its peak the sweep holds Y and its part outside Q, two
        of the N-row arrays ``ROW_ARRAYS`` counts.
        """
        kept = (self if t_op is None else t_op)._sweeps
        longest = max(kept, default=0)
        if self.nodes and longest >= m:
            chain, images, gap = kept[longest]
            return chain[:m], images[:m - 1], gap
        if m in kept:
            return kept[m]
        q = self.basis(m)
        if t_op is None:
            op, y = self._a(), self.x
        else:
            op = t_op.perturbed
            y = op.solve(self.adjoint(), overwrite=True)
        chain, images, gap = [], [], 0.0
        for j in range(m):
            if j:
                y = op.solve(y, overwrite=not (self.nodes or y is self.x))
                if t_op is None:
                    images.append(self.gamma(y))
            chain.append(y if self.nodes else q.T @ y)
            if t_op is None or self.nodes:
                continue
            norm = float(np.linalg.norm(y))
            if norm > 0:
                outside = q @ chain[-1]
                outside -= y  # in place: minus the part outside Q
                gap = max(gap, float(np.linalg.norm(outside)) / norm)
                del outside  # freed before the next one is formed
        if self.nodes:
            kept.clear()
        kept[m] = chain, images, gap
        return kept[m]


def _same_restriction(g1: RestrictionMatrix, g2: RestrictionMatrix) -> bool:
    """Whether two restrictions are one map: the same ``cols`` and
    ``vals``, as when both were built from one grid and measure."""
    return g1 is g2 or (np.array_equal(g1.cols, g2.cols)
                        and np.array_equal(g1.vals, g2.vals))


def _atom_side_of(a: OperatorMatrix, restriction: RestrictionMatrix
                  ) -> _AtomSide:
    """``a``'s atom side for the restriction.

    The side in ``a``'s slot serves when its restriction is the same map
    (:func:`_same_restriction`); otherwise a new, empty side replaces it.
    """
    side = a._atom_side
    if side is None or not _same_restriction(side.restriction, restriction):
        a._atom_side = None  # the old side is freed before the new is built
        side = a._atom_side = _AtomSide(a, restriction)
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
    if p.measure is not g.measure and not np.array_equal(p.measure.atoms,
                                                         g.measure.atoms):
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
    it is computed once per operator and kept on it as ``margin``.
    """
    return t_op.margin
