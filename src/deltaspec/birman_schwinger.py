"""Restriction of grid functions to measure atoms and the sandwiched couplings.

``restriction_matrix`` builds the multilinear interpolation gamma from grid
nodes to atoms, and ``coupling_matrix`` the coupling
``C = gamma' D gamma`` with ``D = diag(w V / h^N)`` from ``atom_density``,
the one place the ``h^N`` mass factor enters. Every perturbation in the
package is such a coupling; a Robin condition is the coupling of the box
boundary measure. ``bs_operator`` forms the symmetric sandwich
``T = A^(-1/2) C A^(-1/2)`` whose spectrum decides both the positivity of
the perturbed form (through ``positivity_margin``, the smallest eigenvalue
of 1 + T) and the exact inverse identity evaluated in
:mod:`deltaspec.resolvents`. ``bs_atom_gram`` is the atom-side Gram matrix
carrying the same nonzero spectrum without any eigendecomposition of A.
"""

from __future__ import annotations

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
    """Symmetric sandwich T = A^(-1/2) C A^(-1/2) with C the measure coupling.

    ``coupling`` keeps the sparse C = gamma' diag(w V) gamma / h^N around for
    the independent direct-inversion paths in :mod:`deltaspec.resolvents`.
    """

    matrix: np.ndarray
    coupling: sp.csr_matrix
    perturbation: Perturbation
    grid: Grid
    # smallest eigenvalue of 1 + T, filled in by the first positivity_margin
    _margin: float | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        scale = np.abs(self.matrix).max()
        if scale > 0 and np.abs(self.matrix - self.matrix.T).max() > 1e-12 * scale:
            raise ValidationError("sandwich matrix lost symmetry")

    @property
    def size(self) -> int:
        return self.matrix.shape[0]


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

    k = atoms.shape[0]
    rows, cols, vals = [], [], []
    if grid.ambient_dim == 1:
        for a in range(2):
            rows.append(np.arange(k))
            cols.append(axis_idx[0][:, a])
            vals.append(axis_wts[0][:, a])
    else:
        ny = grid.shape[1]
        for a in range(2):
            for b in range(2):
                rows.append(np.arange(k))
                cols.append(axis_idx[0][:, a] * ny + axis_idx[1][:, b])
                vals.append(axis_wts[0][:, a] * axis_wts[1][:, b])
    mat = sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
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
    """Sandwich T = A^(-1/2) C A^(-1/2), the coupling seen from the form
    domain.

    Algebraically the matrix equals ``(F gamma A^(-1/2))' U (F gamma
    A^(-1/2))`` with F = |V|^(1/2), U = sgn V; it is assembled from the
    atom-side factor to keep the Gram symmetry exact.
    """
    if a.size != g.grid.size:
        raise ValidationError("operator and restriction grids differ in size")
    # X = A^(-1/2) gamma' scaled by the signed measure density
    x = inverse_power(a, 0.5) @ g.matrix.T.toarray()
    mat = (x * atom_density(g, p)) @ x.T
    mat = 0.5 * (mat + mat.T)
    c = coupling_matrix(g, p)
    return BSOperator(matrix=mat, coupling=c, perturbation=p, grid=g.grid)


def bs_atom_gram(
    a: OperatorMatrix,
    g: RestrictionMatrix,
    p: Perturbation,
) -> np.ndarray:
    """Atom-side Gram matrix with the same nonzero spectrum as T.

    For nonnegative V the sandwich T = A^(-1/2) C A^(-1/2) shares its
    nonzero eigenvalues with ``D^(1/2) gamma A^(-1) gamma' D^(1/2)`` where
    D = diag(w V / h^N) from :func:`atom_density`. That matrix is
    atoms-by-atoms and needs only linear solves with A, no
    eigendecomposition, which is what makes the fractal counting
    experiments cheap on fine grids.
    """
    if np.any(p.values < 0):
        raise ValidationError("bs_atom_gram requires a nonnegative weight")
    gt = g.matrix.T.toarray()
    sol = a.solve(gt)
    root = np.sqrt(atom_density(g, p))
    gram = (gt.T @ sol) * root[:, None] * root[None, :]
    return 0.5 * (gram + gram.T)


def positivity_margin(t_op: BSOperator) -> float:
    """Smallest eigenvalue of 1 + T; the form is usable only if positive.

    This is a diagnostic: experiments should proceed only when the margin
    exceeds their configured threshold (0.05 by default downstream).
    Nonnegative weights always give T >= 0 and hence a margin >= 1, so
    callers on that fast path may skip the eigenvalue work entirely. The
    margin is computed once per operator and kept on it.
    """
    if t_op._margin is None:
        w_min = float(sla.eigh(t_op.matrix, eigvals_only=True,
                               subset_by_index=[0, 0])[0])
        t_op._margin = 1.0 + w_min
    return t_op._margin
