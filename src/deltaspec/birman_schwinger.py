"""Restriction of grid functions to measure atoms and the sandwiched couplings.

``restriction_matrix`` builds the multilinear interpolation gamma from grid
nodes to atoms, and ``coupling_matrix`` the coupling
``C = gamma' D gamma`` with ``D = diag(w V / h^N)`` from ``atom_density``,
the one place the ``h^N`` mass factor enters. Every perturbation in the
package is such a coupling; a Robin condition is the coupling of the box
boundary measure. ``bs_operator`` bundles A, gamma and D into the
Birman-Schwinger operator ``T = A^(-1/2) C A^(-1/2)``, whose spectrum
decides the positivity of the perturbed form (``positivity_margin``, the
smallest eigenvalue of 1 + T). T is never needed as an N x N matrix:
``BSOperator.core`` is the atoms-by-atoms core carrying its nonzero
spectrum, built from one banded factor of A, and ``bs_atom_gram`` returns
it for a weight. The dense sandwich is formed only when
``BSOperator.matrix`` is read, as the oracle of the tests.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from .elliptic import Grid, OperatorMatrix, inverse_power
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
    """Sparse interpolation rows mapping grid functions to atom values.

    Rows are a partition of unity (each sums to 1) supported on at most
    2^N nodes, so the restriction is exact on multilinear functions.
    """

    matrix: sp.csr_matrix
    grid: Grid
    measure: DiscreteMeasure


@dataclass(eq=False)
class BSOperator:
    """The coupling C = gamma' D gamma of a weight, seen from A.

    Carries A, the restriction gamma and the atom density D; ``coupling``
    is the sparse C = gamma' diag(w V) gamma / h^N, kept for the direct
    paths in :mod:`deltaspec.resolvents`. The dense sandwich
    T = A^(-1/2) C A^(-1/2) is built only when ``matrix`` is read.
    """

    operator: OperatorMatrix
    restriction: RestrictionMatrix
    perturbation: Perturbation
    density: np.ndarray
    coupling: sp.csr_matrix
    # the atom-side core, the smallest eigenvalue of 1 + T and the dense
    # sandwich, each filled in on first use
    _core: np.ndarray | None = field(default=None, init=False, repr=False)
    _margin: float | None = field(default=None, init=False, repr=False)
    _matrix: np.ndarray | None = field(default=None, init=False, repr=False)

    @property
    def size(self) -> int:
        return self.operator.size

    @property
    def core(self) -> np.ndarray:
        """Atom-side core with the nonzero spectrum of T (see bs_atom_gram).

        With A = L L' (banded) and Y = L^(-1) gamma' = Q_Y R (thin QR), T
        is orthogonally similar to L^(-1) C L^(-T) = Q_Y (R D R') Q_Y'.
        R D R' is min(N, k) square and needs no factor of
        G = gamma A^(-1) gamma' = R'R, which is singular whenever two atoms
        share their interpolation nodes.
        """
        if self._core is None:
            y = self.operator.solve_lower(self.restriction.matrix.T.toarray())
            r = np.linalg.qr(y, mode="r")
            core = (r * self.density) @ r.T
            self._core = 0.5 * (core + core.T)
        return self._core

    @property
    def matrix(self) -> np.ndarray:
        """Dense sandwich T = A^(-1/2) C A^(-1/2), built on first access.

        Assembled from the atom-side factor ``A^(-1/2) gamma'`` scaled by
        the signed density, which keeps the Gram symmetry exact.
        """
        if self._matrix is None:
            x = inverse_power(self.operator, 0.5) \
                @ self.restriction.matrix.T.toarray()
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
    # at the corner's node, flattened in the grid's C order
    k = atoms.shape[0]
    axes = range(grid.ambient_dim)
    corners = list(itertools.product((0, 1), repeat=grid.ambient_dim))
    cols = [np.ravel_multi_index([axis_idx[i][:, c[i]] for i in axes],
                                 grid.shape) for c in corners]
    vals = [np.prod([axis_wts[i][:, c[i]] for i in axes], axis=0)
            for c in corners]
    mat = sp.csr_matrix(
        (np.concatenate(vals),
         (np.tile(np.arange(k), len(corners)), np.concatenate(cols))),
        shape=(k, grid.size),
    )
    mat.sum_duplicates()
    return RestrictionMatrix(matrix=mat, grid=grid, measure=m)


def atom_density(g: RestrictionMatrix, p: Perturbation) -> np.ndarray:
    """Diagonal D = w V / h^N of the coupling, one entry per atom."""
    return p.measure.weights * p.values / g.grid.cell_volume


def coupling_matrix(g: RestrictionMatrix, p: Perturbation) -> sp.csr_matrix:
    """Sparse C = gamma' D gamma with D from :func:`atom_density`."""
    if p.measure is not g.measure and p.measure.count != g.measure.count:
        raise ValidationError("perturbation and restriction measures differ")
    return (g.matrix.T @ sp.diags(atom_density(g, p)) @ g.matrix).tocsr()


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
    c = coupling_matrix(g, p)
    return BSOperator(operator=a, restriction=g, perturbation=p,
                      density=atom_density(g, p), coupling=c)


def bs_atom_gram(
    a: OperatorMatrix,
    g: RestrictionMatrix,
    p: Perturbation,
) -> np.ndarray:
    """Atom-side core with the same nonzero spectrum as T, for either sign.

    The core is ``R D R'`` with D = diag(w V / h^N) from
    :func:`atom_density` and R the triangular factor of a thin QR of
    ``L^(-1) gamma'``, A = L L' the banded Cholesky factor of A. It is
    min(N, k) square, k the atom count; T has its eigenvalues plus N - k
    zeros when k < N. It needs one banded factorization and k triangular
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
        w_min = float(sla.eigh(core, eigvals_only=True,
                               subset_by_index=[0, 0])[0])
        if core.shape[0] < t_op.size:
            w_min = min(w_min, 0.0)
        t_op._margin = 1.0 + w_min
    return t_op._margin
