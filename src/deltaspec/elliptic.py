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

Operators are assembled from numpy index and value arrays straight into
lower band storage and factored by a block LDL' in numpy
(:class:`OperatorMatrix`); nothing here needs SciPy.

A run is admitted by the bytes it will hold, not by its node count:
:func:`held_bytes` bounds the dense arrays of a run on a grid with k atoms
and inverse powers up to m, and no :class:`Grid` is built whose factors
and bands alone exceed ``HELD_BYTES_BOUND``; the config runner applies the
same rule again once the atoms and powers are known.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from .errors import PositivityError, ValidationError
from .measures import DiscreteMeasure

if TYPE_CHECKING:
    from .weights import Perturbation

__all__ = [
    "HELD_BYTES_BOUND",
    "CoefficientField",
    "Grid",
    "OperatorMatrix",
    "assemble_neumann",
    "assemble_robin",
    "held_bytes",
    "inverse_power",
    "lebesgue_measure",
]

# The most bytes of dense arrays a run may hold (see held_bytes): three
# quarters of the 8 GB, 2-core reference host, which leaves the rest to the
# interpreter, numpy's temporaries outside the count and the system. The
# rule bounds what a run holds at its peak, so no further margin is taken
HELD_BYTES_BOUND = 6 * 10**9
_ELLIPTICITY_FLOOR = 1e-8
# the positivity check's Cholesky chunk: a bound on the memory it adds
_CHECK_BYTES = 1 << 18


@dataclass(eq=False)
class Grid:
    """Cell-centered box grid in one, two or three dimensions.

    ``shape`` counts nodes (= cells) per axis; nodes are flattened in C
    order, the last axis fastest. A grid whose operators' factors and
    bands alone would hold more than ``HELD_BYTES_BOUND`` bytes (see
    :func:`held_bytes`) raises :class:`ValidationError`: 257 x 257 and
    33 x 33 x 33 are built, 40 x 40 x 40 and 513 x 513 are not.
    """

    bbox: np.ndarray
    shape: tuple[int, ...]

    def __post_init__(self):
        bbox = np.asarray(self.bbox, dtype=float).reshape(-1, 2)
        shape = tuple(int(s) for s in np.atleast_1d(self.shape))
        if bbox.shape[0] not in (1, 2, 3):
            raise ValidationError("only 1D, 2D and 3D grids are supported")
        if len(shape) != bbox.shape[0]:
            raise ValidationError("shape and bbox dimensions disagree")
        if any(s < 3 for s in shape):
            raise ValidationError("need at least 3 nodes per axis")
        if np.any(bbox[:, 1] <= bbox[:, 0]):
            raise ValidationError("bbox upper bounds must exceed lower bounds")
        self.bbox = bbox
        self.shape = shape
        _admit(self)

    @property
    def ambient_dim(self) -> int:
        return self.bbox.shape[0]

    @property
    def size(self) -> int:
        return math.prod(self.shape)

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


def held_bytes(grid: Grid, atoms: int = 0, power: int = 1) -> int:
    """Bound on the bytes of dense arrays a run on ``grid`` holds at once,
    with ``atoms`` atoms and inverse powers up to ``power``; Python
    integers throughout, so no shape wraps around or overflows.

    With N nodes, S the sum of the axis strides (no operator on the grid
    is wider: not A with its cross terms, not a measure's coupling, whose
    atoms reach the far corner of their cell) and b = ``_block_size(S)``,
    a run keeps the block LDL' factor of A and of each weight's A + C,
    16 ceil(N / b) b^2 bytes each, and five bands of at most S + 1 rows,
    8 (S + 1) N bytes each: A, the two couplings C and the two A + C.
    With atoms, the atom side adds what a report holds at its peak,
    ``ROW_ARRAYS`` arrays of N rows and ``CORE_ARRAYS`` cores, all at most
    r = min(power * atoms, N) wide (counted next to
    ``birman_schwinger._AtomSide``).
    """
    n = math.prod(grid.shape)
    stride = sum(math.prod(grid.shape[axis + 1:])
                 for axis in range(len(grid.shape)))
    b = _block_size(stride)
    held = 3 * 16 * -(-n // b) * b * b + 5 * 8 * (stride + 1) * n
    if atoms:
        # imported here: birman_schwinger builds on this module
        from .birman_schwinger import CORE_ARRAYS, ROW_ARRAYS

        r = min(power * atoms, n)
        held += 8 * r * (ROW_ARRAYS * n + CORE_ARRAYS * r)
    return held


def _admit(grid: Grid, atoms: int = 0, power: int = 1) -> None:
    """Raise ValidationError when a run on ``grid`` with ``atoms`` atoms
    and powers up to ``power`` would hold more than ``HELD_BYTES_BOUND``
    bytes by :func:`held_bytes`."""
    held = held_bytes(grid, atoms, power)
    if held > HELD_BYTES_BOUND:
        what = f", {atoms} atoms and powers up to {power}" if atoms else ""
        raise ValidationError(
            f"a run on {_count(grid.size)} nodes{what} would hold "
            f"{_count(held)} bytes of dense arrays; at most "
            f"{_count(HELD_BYTES_BOUND)} are allowed")


def _count(value: int) -> str:
    if value < 10**18:
        return f"{value:,}"
    # Decimal prints integers of any size, where str() and float() stop
    from decimal import Decimal

    return format(Decimal(value), ".3e")


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
    def isotropic(cls, value: float, dim: int, t: float = 1.0
                  ) -> "CoefficientField":
        """Constant scalar coefficient ``value * Id`` in dimension ``dim``."""
        return cls(float(value) * np.eye(dim), t=t)

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
    """Symmetric positive-definite banded operator, factored on first use.

    The matrix is kept in lower band storage, ``band[d, j] = A[j + d, j]``.
    Every linear solve goes through its factor A = L D L', computed on the
    first solve by a block LDL' of the block-tridiagonal form (blocks of
    ``_block_size`` of the half-bandwidth) and kept: the inverse of each
    pivot block and each multiplier block, 16 nb b^2 bytes for nb blocks
    of size b. A matrix that is not positive definite raises
    :class:`PositivityError` there, from one check over the pivots, and
    the next solve tries again. The dense ``matrix`` and its full
    eigendecomposition (used for fractional inverse powers, the small-N
    oracle) are likewise each built on first use and kept; the
    decomposition does not read ``matrix``, so taking inverse powers keeps
    no dense copy of A. Besides these the instance keeps one atom-side
    slot, which :mod:`deltaspec.birman_schwinger` owns and describes.
    ``band`` is read-only, so nothing kept can go stale.
    """

    def __init__(self, band: np.ndarray):
        band = np.asarray(band, dtype=float)
        if not np.any(band):
            raise ValidationError("operator matrix is zero")
        band.setflags(write=False)
        self.band = band
        self._atom_side = None

    @property
    def size(self) -> int:
        return self.band.shape[1]

    @cached_property
    def matrix(self) -> np.ndarray:
        """The dense matrix, built on first access."""
        return dense_from_band(self.band)

    def plus(self, band: np.ndarray) -> "OperatorMatrix":
        """The operator with a symmetric banded update added (lower band
        storage, any width)."""
        return OperatorMatrix(_add_bands(self.band, band))

    @cached_property
    def _factor(self):
        # (inverse pivot blocks S_i^(-1), multipliers W_i) of A = L D L'
        return _block_ldl(*_blocks(self.band))

    def solve(self, rhs: np.ndarray, overwrite: bool = False) -> np.ndarray:
        """Solve A x = rhs through the kept block LDL' factor.

        The sweeps run over the full blocks of rows as views of one array:
        a row-major copy of ``rhs``, or with ``overwrite=True`` ``rhs``
        itself when it is a float array with contiguous rows (column
        slices included), whose values the solution then replaces and
        which is returned. Only a last block shorter than the block size
        goes through one zero-padded scratch block, so that every product
        has the shape of a full block's, and the solution has the same
        bits either way.
        """
        inv, low = self._factor
        b = inv.shape[1]
        x = np.asarray(rhs, dtype=float)
        if not overwrite or x.strides[-1] != x.itemsize:
            x = np.array(x, order="C")
        y = x.reshape(self.size, math.prod(x.shape[1:]))
        blocks = [y[i:i + b] for i in range(0, self.size, b)]
        tail = len(blocks[-1])
        if tail < b:
            blocks[-1] = np.zeros((b, y.shape[1]))
            blocks[-1][:tail] = y[-tail:]
        # forward sweep with L: z_i = y_i - W_(i-1) z_(i-1)
        for i in range(1, len(blocks)):
            blocks[i] -= low[i - 1] @ blocks[i - 1]
        # backward sweep with D L': x_i = S_i^(-1) z_i - W_i' x_(i+1)
        for i in range(len(blocks) - 1, -1, -1):
            z = inv[i] @ blocks[i]
            if i < len(blocks) - 1:
                z -= low[i].T @ blocks[i + 1]
            blocks[i][...] = z
        if tail < b:
            y[-tail:] = blocks[-1][:tail]
        return y.reshape(x.shape)

    @property
    def eigenvalues(self) -> np.ndarray:
        return self._eigh[0]

    @cached_property
    def _eigh(self):
        # from its own dense copy, freed once decomposed, so that the
        # operator does not keep ``matrix`` beside the eigenvectors
        w, q = np.linalg.eigh(dense_from_band(self.band))
        if w[0] <= 0:
            raise PositivityError(
                f"operator matrix has min eigenvalue {w[0]:g} <= 0"
            )
        return w, q


def dense_from_band(band: np.ndarray) -> np.ndarray:
    """The dense symmetric matrix of a lower band storage array."""
    n = band.shape[1]
    out = np.zeros((n, n))
    for d in range(min(len(band), n)):
        j = np.arange(n - d)
        out[j + d, j] = band[d, :n - d]
        out[j, j + d] = band[d, :n - d]
    return out


def lower_band(rows, cols, vals, size: int) -> np.ndarray:
    """Lower band storage of the symmetric N x N matrix with entries
    ``vals`` at (``rows``, ``cols``), duplicates summed; both (i, j) and
    (j, i) must be listed, and only the lower one is read."""
    lower = rows >= cols
    offset = rows[lower] - cols[lower]
    width = int(offset.max(initial=0)) + 1
    flat = np.bincount(offset * size + cols[lower], weights=vals[lower],
                       minlength=width * size)
    return flat.reshape(width, size)


def _add_bands(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = np.zeros((max(len(a), len(b)), a.shape[1]))
    out[:len(a)] += a
    out[:len(b)] += b
    return out


def _block_size(halfwidth: int) -> int:
    """The block size of the factor of a matrix of this half-bandwidth: at
    least the half-bandwidth, so the blocks are tridiagonal, and at least
    16, so that small bands still make blocks worth a BLAS call."""
    return max(halfwidth, 16)


def _blocks(band: np.ndarray):
    """Diagonal blocks A_ii and subdiagonal blocks A_(i+1,i) of the banded
    matrix, block size ``_block_size`` of its half-bandwidth, so the
    matrix is block tridiagonal; the last block is padded with the
    identity."""
    width, n = band.shape
    b = _block_size(width - 1)
    nb = -(-n // b)
    diag = np.zeros((nb, b, b))
    sub = np.zeros((nb - 1, b, b))
    # only the nonzero band rows are scattered (a grid Laplacian has one
    # per axis and the diagonal); the blocks start at zero elsewhere
    for offset in np.flatnonzero(np.any(band[:n], axis=1)):
        col = np.arange(n - offset)
        vals = band[offset, :n - offset]
        (bi, ri), (bj, cj) = divmod(col + offset, b), divmod(col, b)
        same = bi == bj
        diag[bj[same], ri[same], cj[same]] = vals[same]
        diag[bj[same], cj[same], ri[same]] = vals[same]
        sub[bj[~same], ri[~same], cj[~same]] = vals[~same]
    pad = np.arange(n, nb * b)
    diag[pad // b, pad % b, pad % b] = 1.0
    return diag, sub


def _block_ldl(diag: np.ndarray, sub: np.ndarray):
    """Block LDL' of a block-tridiagonal SPD matrix A, in place.

    With pivots S_0 = A_00 and S_(i+1) = A_(i+1,i+1) - W_i A_(i+1,i)',
    W_i = A_(i+1,i) S_i^(-1), A = L D L' for D = diag(S_i) and L the unit
    block-bidiagonal matrix with subdiagonal blocks W_i. Overwrites each
    diagonal block A_ii with S_i^(-1) and each subdiagonal block
    A_(i+1,i) with W_i, and returns the two arrays. The matrix is
    positive definite iff every S_i^(-1) is: one Cholesky factorization
    over stacked blocks checks that after the sweep, ``_CHECK_BYTES`` (or
    one block) at a time. A failed check, an exactly singular pivot or a
    non-finite result raises :class:`PositivityError`, and so does a pivot
    below rounding.

    The pivot floor: an entry of S_i comes from inner products of length
    at most b, the block size, so it carries an error of about
    b eps sqrt(a_jj a_kk), a_jj the diagonal of A at its row and column,
    as in the componentwise error analysis of Cholesky (Demmel, LAPACK
    Working Note 14, 1989). A pivot whose scaled form H_i =
    diag(a)^(-1/2) S_i diag(a)^(-1/2) has an eigenvalue below b eps is
    singular within that error. With L_i the check's Cholesky factor of
    S_i^(-1), trace(H_i^(-1)) = sum_j a_jj |row j of L_i|^2 bounds the
    largest eigenvalue of H_i^(-1), and a pivot is refused when it
    exceeds 1 / (b eps). Scaling by the diagonal, not by ||A||, keeps a
    weight of 1e200 on a few nodes factorable. A singular A - t 1 on a
    32 x 32 grid leaves a last pivot that rounding makes slightly
    positive, with trace(H^(-1)) 6.6e15 against 1.4e14, where A itself
    gives 214 (1.7e5 on 4096 nodes in 1D).
    """
    # the diagonal of A, row by row, before the sweep overwrites it
    scale = np.diagonal(diag, axis1=1, axis2=2).copy()
    ceiling = 1.0 / (diag.shape[1] * np.finfo(float).eps)
    try:
        # overflow past an indefinite pivot is reported by the check
        with np.errstate(over="ignore", invalid="ignore"):
            for i in range(len(diag)):
                diag[i] = np.linalg.inv(diag[i])
                if i < len(sub):
                    w = sub[i] @ diag[i]
                    diag[i + 1] -= w @ sub[i].T
                    sub[i] = w
            step = max(1, _CHECK_BYTES // diag[0].nbytes)
            for i in range(0, len(diag), step):
                if not np.isfinite(diag[i:i + step]).all():
                    raise np.linalg.LinAlgError("non-finite pivot inverse")
                low = np.linalg.cholesky(diag[i:i + step])
                traces = np.einsum("ijk,ijk,ij->i", low, low,
                                   scale[i:i + step])
                if traces.max() > ceiling:
                    raise np.linalg.LinAlgError("pivot below rounding")
    except np.linalg.LinAlgError as exc:
        raise PositivityError(
            "operator matrix is not positive definite"
        ) from exc
    return diag, sub


def _centered_difference(shape: tuple[int, ...], h: float, axis: int):
    # centered first derivative along one axis: row p is -step at lo[p] and
    # +step at hi[p], one-sided at the ends so the constant vector stays
    # exactly in the kernel
    n, stride = shape[axis], math.prod(shape[axis + 1:])
    p = np.arange(math.prod(shape))
    k = (p // stride) % n
    lo = np.where(k == 0, p, p - stride)
    hi = np.where(k == n - 1, p, p + stride)
    step = np.where((k == 0) | (k == n - 1), 1.0, 0.5) / h
    return lo, hi, step


def assemble_neumann(grid: Grid, coeffs: CoefficientField) -> OperatorMatrix:
    """Assemble the Neumann realization of the elliptic form.

    The diagonal part of the tensor uses edge-difference Gram terms
    (coefficients averaged onto edges), which reproduces the classical
    second-difference matrix for constant scalar coefficients, with
    bandwidth the stride of the first axis (n_2 in 2D, n_2 n_3 in 3D).
    Each pair of axes i < j whose off-diagonal entry is nonzero somewhere
    couples centered first differences along i and j, which widens the
    band to the sum of their strides (n_2 + 1 in 2D). The constant vector
    is an eigenvector with eigenvalue exactly t for constant coefficients.
    """
    if coeffs.dim != grid.ambient_dim:
        raise ValidationError("coefficient dimension does not match the grid")
    size = grid.size
    tensors = coeffs.at_nodes(size)
    shape = grid.shape
    h = grid.spacing
    index = np.arange(size).reshape(shape)

    axes = range(grid.ambient_dim)
    band = np.zeros((math.prod(shape[1:]) + 1, size))
    for axis in axes:
        # edge Gram term: each edge (lo, lo + stride) adds a/h^2 to both
        # diagonal entries and -a/h^2 to the one off the diagonal
        stride = math.prod(shape[axis + 1:])
        lo = np.take(index, range(shape[axis] - 1), axis=axis).ravel()
        coef = tensors[:, axis, axis]
        inv_h = 1.0 / h[axis]
        w = inv_h * (0.5 * (coef[lo] + coef[lo + stride])) * inv_h
        diag = np.zeros(size)
        diag[lo] += w
        diag[lo + stride] += w
        band[0] += diag
        band[stride, lo] -= w

    pairs = [(i, j) for i, j in itertools.combinations(axes, 2)
             if np.any(tensors[:, i, j] != 0.0)]
    if pairs:
        # G_i' diag(a_ij) G_j + its transpose, G_i the centered differences
        diffs = [_centered_difference(shape, h[i], i) for i in axes]
        rows, cols, vals = [], [], []
        for i, j in pairs:
            (lo_i, hi_i, s_i), (lo_j, hi_j, s_j) = diffs[i], diffs[j]
            for r, vr in ((lo_i, -s_i), (hi_i, s_i)):
                for c, vc in ((lo_j, -s_j), (hi_j, s_j)):
                    v = vr * tensors[:, i, j] * vc
                    rows += [r, c]
                    cols += [c, r]
                    vals += [v, v]
        band = _add_bands(band, lower_band(np.concatenate(rows),
                                           np.concatenate(cols),
                                           np.concatenate(vals), size))

    band[0] += coeffs.t
    return OperatorMatrix(band)


def assemble_robin(
    grid: Grid,
    coeffs: CoefficientField,
    boundary_p: "Perturbation",
) -> OperatorMatrix:
    """Neumann matrix plus the boundary-measure coupling of density V.

    This is A + C of the weight's Birman-Schwinger operator (``perturbed``
    of :func:`deltaspec.birman_schwinger.bs_operator`), C the measure
    coupling ``gamma' diag(w V) gamma / h^N``; on the boundary measure of
    the grid each atom sits on a node, so C is diagonal, and for V == 0
    the result is bit-identical to :func:`assemble_neumann`. The matrix
    is factored once here, and :meth:`OperatorMatrix.solve` reuses that
    factor. Densities that push the smallest eigenvalue to
    zero or below raise :class:`PositivityError`; the caller should raise
    t and retry.
    """
    # imported here: birman_schwinger builds on this module
    from .birman_schwinger import bs_operator, restriction_matrix

    robin = bs_operator(assemble_neumann(grid, coeffs),
                        restriction_matrix(grid, boundary_p.measure),
                        boundary_p).perturbed
    robin._factor  # factored here, kept for every solve
    return robin


def inverse_power(a: OperatorMatrix, s: float) -> np.ndarray:
    """Spectral inverse power A^(-s) = F F', F = Q W^(-s/2), formed on each
    call from the cached eigendecomposition A = Q W Q'; ``f @ f.T`` is one
    symmetric rank-k product, so the result is exactly symmetric."""
    if s <= 0:
        raise ValidationError("inverse power exponent must be positive")
    w, q = a._eigh
    f = q * w ** (-0.5 * float(s))
    return f @ f.T


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
