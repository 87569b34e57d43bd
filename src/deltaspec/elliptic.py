"""Finite-difference discretization of second-order elliptic forms on a box.

The grid is cell-centered: n nodes per axis sit at ``x0 + (i + 1/2) h`` with
``h = L / n``, so the midpoint quadrature weight is uniformly ``h^N`` and the
stiffness matrix is symmetric with respect to the plain Euclidean inner
product. All operators in the package live in that convention; the single
place the ``h^N`` mass factor reappears is the measure-coupling matrix
(see :mod:`deltaspec.birman_schwinger`).

For the 1D unit interval with unit coefficient the Neumann matrix has the
closed-form spectrum ``t + (2/h^2) (1 - cos(k pi / n))`` with eigenvectors
``cos(k pi (i + 1/2) / n)``, which anchors the oracle tests, and the low
eigenvalues converge to ``t + (k pi)^2`` at rate O(h^2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
from scipy.linalg.lapack import dtbtrs

from .errors import NumericalError, PositivityError, ValidationError
from .measures import DiscreteMeasure

if TYPE_CHECKING:
    from .weights import Perturbation

__all__ = [
    "NODE_CAP_DEFAULT",
    "CoefficientField",
    "Grid",
    "OperatorMatrix",
    "assemble_neumann",
    "assemble_robin",
    "inverse_power",
    "lebesgue_measure",
]

NODE_CAP_DEFAULT = 5000
_ELLIPTICITY_FLOOR = 1e-8


@dataclass(eq=False)
class Grid:
    """Cell-centered box grid in one or two dimensions.

    ``shape`` counts nodes (= cells) per axis; nodes are flattened in C
    order, the second axis fastest.
    """

    bbox: np.ndarray
    shape: tuple[int, ...]

    def __post_init__(self):
        bbox = np.asarray(self.bbox, dtype=float).reshape(-1, 2)
        shape = tuple(int(s) for s in np.atleast_1d(self.shape))
        if bbox.shape[0] not in (1, 2):
            raise ValidationError("only 1D and 2D grids are supported")
        if len(shape) != bbox.shape[0]:
            raise ValidationError("shape and bbox dimensions disagree")
        if any(s < 3 for s in shape):
            raise ValidationError("need at least 3 nodes per axis")
        if np.any(bbox[:, 1] <= bbox[:, 0]):
            raise ValidationError("bbox upper bounds must exceed lower bounds")
        size = math.prod(shape)  # Python ints: no wraparound on huge shapes
        if size > NODE_CAP_DEFAULT:
            raise ValidationError(
                f"{size} nodes exceeds the node cap {NODE_CAP_DEFAULT}"
            )
        self.bbox = bbox
        self.shape = shape

    @property
    def ambient_dim(self) -> int:
        return self.bbox.shape[0]

    @property
    def size(self) -> int:
        return int(np.prod(self.shape))

    @property
    def spacing(self) -> np.ndarray:
        lengths = self.bbox[:, 1] - self.bbox[:, 0]
        return lengths / np.array(self.shape, dtype=float)

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.spacing))

    def axis_nodes(self, axis: int) -> np.ndarray:
        lo = self.bbox[axis, 0]
        h = self.spacing[axis]
        return lo + (np.arange(self.shape[axis]) + 0.5) * h

    def nodes(self) -> np.ndarray:
        """All node coordinates, shape (size, N), C-order flattening."""
        axes = [self.axis_nodes(i) for i in range(self.ambient_dim)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=1)


@dataclass(eq=False)
class CoefficientField:
    """Symmetric positive-definite coefficient tensor per node, plus shift t.

    ``tensors`` is either a single (N, N) matrix applied everywhere or a
    per-node array of shape (size, N, N). The smallest tensor eigenvalue must
    stay above a fixed ellipticity floor.
    """

    tensors: np.ndarray
    t: float = 1.0

    def __post_init__(self):
        a = np.asarray(self.tensors, dtype=float)
        if a.ndim == 0:
            a = a[None, None] * np.eye(1)
        if a.ndim != 2 and a.ndim != 3:
            raise ValidationError("tensors must be (N,N) or (size,N,N)")
        if a.shape[-1] != a.shape[-2]:
            raise ValidationError("coefficient tensors must be square")
        if not np.allclose(a, np.swapaxes(a, -1, -2), atol=1e-12):
            raise ValidationError("coefficient tensors must be symmetric")
        eig = np.linalg.eigvalsh(a)
        if eig.min() < _ELLIPTICITY_FLOOR:
            raise ValidationError(
                f"coefficient not elliptic: min eigenvalue {eig.min():g}"
            )
        if not np.isfinite(self.t) or self.t <= 0:
            raise ValidationError("shift t must be positive and finite")
        self.tensors = a

    @classmethod
    def isotropic(cls, value: float | np.ndarray, dim: int, t: float = 1.0
                  ) -> "CoefficientField":
        """Scalar coefficient a(X) Id, constant or per node."""
        v = np.asarray(value, dtype=float)
        eye = np.eye(dim)
        if v.ndim == 0:
            return cls(float(v) * eye, t=t)
        return cls(v[:, None, None] * eye, t=t)

    @property
    def dim(self) -> int:
        return self.tensors.shape[-1]

    def at_nodes(self, size: int) -> np.ndarray:
        """Per-node tensors broadcast to shape (size, N, N)."""
        if self.tensors.ndim == 2:
            return np.broadcast_to(self.tensors, (size,) + self.tensors.shape)
        if self.tensors.shape[0] != size:
            raise ValidationError(
                f"coefficient field has {self.tensors.shape[0]} nodes, grid has {size}"
            )
        return self.tensors


class OperatorMatrix:
    """Symmetric positive-definite operator with cached factorizations.

    The matrix is kept sparse. Every linear solve goes through its banded
    Cholesky factor, computed on first use; a matrix that is not positive
    definite raises :class:`PositivityError` there. The dense ``matrix``
    and its full eigendecomposition (used for fractional inverse powers,
    the small-N oracle) are built only when first asked for. Instances are
    immutable afterwards.
    """

    def __init__(self, matrix):
        mat = sp.csr_matrix(matrix, dtype=float)
        scale = abs(mat).max()
        if scale == 0:
            raise ValidationError("operator matrix is zero")
        if abs(mat - mat.T).max() > 1e-12 * scale:
            raise ValidationError("operator matrix is not symmetric (rel 1e-12)")
        self.sparse = (0.5 * (mat + mat.T)).tocsr()
        self._factor = None
        self._dense = None
        self._eig = None

    @property
    def size(self) -> int:
        return self.sparse.shape[0]

    @property
    def matrix(self) -> np.ndarray:
        """The dense matrix, built on first access."""
        if self._dense is None:
            self._dense = self.sparse.toarray()
        return self._dense

    def _cholesky(self) -> np.ndarray:
        # lower factor L (A = L L') in LAPACK lower band storage
        if self._factor is None:
            lower = sp.tril(self.sparse).tocoo()
            offset = lower.row - lower.col
            band = np.zeros((int(offset.max(initial=0)) + 1, self.size))
            band[offset, lower.col] = lower.data
            try:
                self._factor = sla.cholesky_banded(band, lower=True)
            except np.linalg.LinAlgError as exc:
                raise PositivityError(
                    "operator matrix is not positive definite"
                ) from exc
        return self._factor

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve A x = rhs through the cached banded Cholesky factor."""
        return sla.cho_solve_banded((self._cholesky(), True), rhs)

    def solve_lower(self, rhs: np.ndarray) -> np.ndarray:
        """Apply L^(-1) for the banded factor A = L L' (one triangular solve)."""
        x, info = dtbtrs(self._cholesky(), rhs, uplo="L")
        if info != 0:
            raise NumericalError(f"banded triangular solve failed (info {info})")
        return x

    @property
    def eigenvalues(self) -> np.ndarray:
        return self._eigh()[0]

    def _eigh(self):
        if self._eig is None:
            w, q = sla.eigh(self.matrix)
            if w[0] <= 0:
                raise PositivityError(
                    f"operator matrix has min eigenvalue {w[0]:g} <= 0"
                )
            self._eig = (w, q)
        return self._eig


def _edge_difference(n: int, h: float) -> sp.csr_matrix:
    # forward difference over the n-1 interior edges, scaled by 1/h
    data = np.repeat([[-1.0, 1.0]], n - 1, axis=0).ravel() / h
    rows = np.repeat(np.arange(n - 1), 2)
    cols = np.ravel(np.column_stack([np.arange(n - 1), np.arange(1, n)]))
    return sp.csr_matrix((data, (rows, cols)), shape=(n - 1, n))


def _centered_difference(n: int, h: float) -> sp.csr_matrix:
    # centered first derivative at nodes, one-sided at the ends so the
    # constant vector stays exactly in the kernel
    mat = sp.lil_matrix((n, n))
    for i in range(n):
        if i == 0:
            mat[i, 0], mat[i, 1] = -1.0 / h, 1.0 / h
        elif i == n - 1:
            mat[i, n - 2], mat[i, n - 1] = -1.0 / h, 1.0 / h
        else:
            mat[i, i - 1], mat[i, i + 1] = -0.5 / h, 0.5 / h
    return mat.tocsr()


def _axis_edge_average(values: np.ndarray, shape: tuple[int, ...], axis: int
                       ) -> np.ndarray:
    # average node values onto the edges of one axis
    grid_vals = values.reshape(shape)
    sl_lo = [slice(None)] * len(shape)
    sl_hi = [slice(None)] * len(shape)
    sl_lo[axis] = slice(0, shape[axis] - 1)
    sl_hi[axis] = slice(1, shape[axis])
    return 0.5 * (grid_vals[tuple(sl_lo)] + grid_vals[tuple(sl_hi)]).ravel()


def assemble_neumann(grid: Grid, coeffs: CoefficientField) -> OperatorMatrix:
    """Assemble the Neumann realization of the elliptic form.

    The diagonal part of the tensor uses edge-difference Gram terms
    (coefficients averaged onto edges), which reproduces the classical
    second-difference matrix for constant scalar coefficients; off-diagonal
    entries couple centered first differences. The constant vector is an
    eigenvector with eigenvalue exactly t for constant coefficients.
    """
    if coeffs.dim != grid.ambient_dim:
        raise ValidationError("coefficient dimension does not match the grid")
    size = grid.size
    tensors = coeffs.at_nodes(size)
    n_dim = grid.ambient_dim
    h = grid.spacing

    stiff = sp.csr_matrix((size, size))
    eyes = [sp.identity(s, format="csr") for s in grid.shape]

    def along_axis(op_1d, axis):
        parts = [eyes[i] for i in range(n_dim)]
        parts[axis] = op_1d
        out = parts[0]
        for p in parts[1:]:
            out = sp.kron(out, p, format="csr")
        return out

    for axis in range(n_dim):
        d_op = along_axis(_edge_difference(grid.shape[axis], h[axis]), axis)
        a_edges = _axis_edge_average(tensors[:, axis, axis], grid.shape, axis)
        stiff = stiff + d_op.T @ sp.diags(a_edges) @ d_op

    if n_dim == 2 and np.any(tensors[:, 0, 1] != 0.0):
        g_ops = [
            along_axis(_centered_difference(grid.shape[axis], h[axis]), axis)
            for axis in range(2)
        ]
        cross = sp.diags(tensors[:, 0, 1])
        stiff = stiff + g_ops[0].T @ cross @ g_ops[1] \
            + g_ops[1].T @ cross @ g_ops[0]

    mat = stiff + coeffs.t * sp.identity(size, format="csr")
    return OperatorMatrix(mat)


def assemble_robin(
    grid: Grid,
    coeffs: CoefficientField,
    boundary_p: "Perturbation",
) -> OperatorMatrix:
    """Neumann matrix plus the boundary-measure coupling of density V.

    The update is the measure coupling ``gamma' diag(w V) gamma / h^N`` of
    :func:`deltaspec.birman_schwinger.coupling_matrix`; on the boundary
    measure of the grid each atom sits on a node, so it is diagonal, and
    for V == 0 the result is bit-identical to :func:`assemble_neumann`.
    The matrix is factored once here, and :meth:`OperatorMatrix.solve`
    reuses that factor. Densities that push the smallest eigenvalue to
    zero or below raise :class:`PositivityError`; the caller should raise
    t and retry.
    """
    # imported here: birman_schwinger builds on this module
    from .birman_schwinger import coupling_matrix, restriction_matrix

    gamma = restriction_matrix(grid, boundary_p.measure)
    mat = assemble_neumann(grid, coeffs).sparse \
        + coupling_matrix(gamma, boundary_p)
    robin = OperatorMatrix(mat)
    robin._cholesky()
    return robin


def inverse_power(a: OperatorMatrix, s: float) -> np.ndarray:
    """Spectral inverse power A^(-s), formed on each call from the cached
    eigendecomposition."""
    if s <= 0:
        raise ValidationError("inverse power exponent must be positive")
    w, q = a._eigh()
    out = (q * w ** (-float(s))) @ q.T
    return 0.5 * (out + out.T)


def lebesgue_measure(grid: Grid) -> DiscreteMeasure:
    """Lebesgue measure sampled at the grid nodes (midpoint rule).

    Every node carries weight ``h^N``, so the mass is exactly the box
    volume and ``nominal_dim`` equals the ambient dimension.
    """
    atoms = grid.nodes()
    wts = np.full(grid.size, grid.cell_volume)
    return DiscreteMeasure(
        atoms, wts, nominal_dim=float(grid.ambient_dim),
        label="lebesgue", bbox=grid.bbox.copy(),
    )
