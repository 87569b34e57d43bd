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
atoms-by-atoms core carrying its nonzero spectrum, built from the Cholesky
factor of A, and ``bs_atom_gram`` returns it for a weight. The dense
sandwich is formed only when ``BSOperator.matrix`` is read, as the oracle
of the tests.
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


@dataclass(eq=False)
class RestrictionMatrix:
    """Interpolation rows mapping grid functions to atom values.

    Row i (atom i) has the weight ``vals[i, c]`` at node ``cols[i, c]``, one
    entry per corner c of the atom's cell (2^N of them, at distinct nodes).
    Rows are a partition of unity, so the restriction is exact on
    multilinear functions. ``cols`` and ``vals`` are read-only: the
    atom-side solves an operator keeps are keyed to this instance.
    """

    cols: np.ndarray
    vals: np.ndarray
    grid: Grid
    measure: DiscreteMeasure

    def __post_init__(self):
        self.cols.setflags(write=False)
        self.vals.setflags(write=False)

    def apply(self, f: np.ndarray, keep=slice(None)) -> np.ndarray:
        """gamma f: the values of the grid function(s) f at the kept atoms."""
        cols, vals = self.cols[keep], self.vals[keep]
        out = 0.0
        for c in range(cols.shape[1]):
            w = vals[:, c].reshape((-1,) + (1,) * (np.ndim(f) - 1))
            out = out + w * f[cols[:, c]]
        return out

    def adjoint(self, keep=slice(None)) -> np.ndarray:
        """Dense gamma' (N x atoms) of the kept atoms."""
        cols, vals = self.cols[keep], self.vals[keep]
        out = np.zeros((self.grid.size, len(cols)))
        out[cols, np.arange(len(cols))[:, None]] = vals
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

        With A = L L' (Cholesky) and Y = L^(-1) gamma' = Q_Y R (thin QR), T
        is orthogonally similar to L^(-1) C L^(-T) = Q_Y (R D R') Q_Y'.
        R D R' is min(N, k) square and needs no factor of
        G = gamma A^(-1) gamma' = R'R, which is singular whenever two atoms
        share their interpolation nodes.
        """
        if self._core is None:
            y = self.operator.solve_lower(self.restriction.adjoint())
            r = np.linalg.qr(y, mode="r")
            core = (r * self.density) @ r.T
            self._core = 0.5 * (core + core.T)
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
            mat = (x * self.density) @ x.T
            self._matrix = 0.5 * (mat + mat.T)
        return self._matrix


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
    :func:`atom_density` and R the triangular factor of a thin QR of
    ``L^(-1) gamma'``, A = L L' the Cholesky factor of A. It is
    min(N, k) square, k the atom count; T has its eigenvalues plus N - k
    zeros when k < N. It needs one factorization of A and k triangular
    solves, no eigendecomposition of A, which is what makes the fractal
    counting experiments cheap on fine grids.
    """
    return bs_operator(a, g, p).core


def positivity_margin(t_op: BSOperator) -> float:
    """Smallest eigenvalue of 1 + T; the form is usable only if positive.

    This is a diagnostic: experiments should proceed only when the margin
    exceeds their configured threshold (0.05 by default downstream).
    Nonnegative weights always give T >= 0 and hence a margin >= 1. The
    margin is the smallest eigenvalue of the atom-side core (one
    eigensolve of size min(N, k)), with the zero eigenvalues T has beyond
    the core when k < N; it is computed once per operator and kept on it.
    """
    if t_op._margin is None:
        core = t_op.core
        w_min = float(np.linalg.eigvalsh(core)[0])
        if core.shape[0] < t_op.size:
            w_min = min(w_min, 0.0)
        t_op._margin = 1.0 + w_min
    return t_op._margin
