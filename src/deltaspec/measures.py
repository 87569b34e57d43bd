"""Discrete approximations of Ahlfors-regular measures.

A measure is stored as a finite list of atoms with explicit quadrature
weights (mass units), so integrals against it are plain weighted sums.
Constructors cover self-similar measures of iterated function systems,
segments, box-boundary surface measures, Lebesgue measure on a grid
(see :func:`deltaspec.elliptic.lebesgue_measure`), and unions.
``estimate_ahlfors_constants`` probes the two-sided regularity bounds
``A- * r^d <= mu(B(x, r)) <= A+ * r^d`` by brute-force ball counting.
``solve_moran_dimension`` finds the dimension of a self-similar measure
by bisection to the last bit; :func:`deltaspec.weights.lp_theta_norm`
takes its Luxemburg root from the same bisection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from .errors import NumericalError, ValidationError

if TYPE_CHECKING:
    from .elliptic import Grid

__all__ = [
    "ATOM_CAP_DEFAULT",
    "AhlforsReport",
    "DiscreteMeasure",
    "Similitude",
    "boundary_measure",
    "estimate_ahlfors_constants",
    "ifs_measure",
    "segment_measure",
    "solve_moran_dimension",
    "union_measure",
]

ATOM_CAP_DEFAULT = 5000


@dataclass(frozen=True, eq=False)
class Similitude:
    """Contraction ``x -> ratio * (rotation @ x) + translation``.

    Parameters
    ----------
    ratio : float
        Contraction ratio, strictly inside (0, 1).
    rotation : array_like
        Orthogonal N x N matrix (checked to 1e-12).
    translation : array_like
        Offset point in R^N.
    """

    ratio: float
    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        tr = np.atleast_1d(np.asarray(self.translation, dtype=float))
        rot = np.atleast_2d(np.asarray(self.rotation, dtype=float))
        if not (0.0 < self.ratio < 1.0):
            raise ValidationError(f"ratio must lie in (0, 1), got {self.ratio}")
        if rot.shape != (tr.size, tr.size):
            raise ValidationError(
                f"rotation shape {rot.shape} does not match translation dim {tr.size}"
            )
        if not np.allclose(rot @ rot.T, np.eye(tr.size), atol=1e-12):
            raise ValidationError("rotation matrix is not orthogonal (tol 1e-12)")
        object.__setattr__(self, "rotation", rot)
        object.__setattr__(self, "translation", tr)

    @property
    def dim(self) -> int:
        return self.translation.size

    def apply(self, points: np.ndarray) -> np.ndarray:
        """Apply the map to an array of points with shape (k, N)."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return self.ratio * pts @ self.rotation.T + self.translation

    def fixed_point(self) -> np.ndarray:
        """Unique fixed point of the contraction."""
        n = self.dim
        return np.linalg.solve(np.eye(n) - self.ratio * self.rotation, self.translation)


@dataclass(eq=False)
class DiscreteMeasure:
    """Atoms plus quadrature weights approximating a measure on R^N.

    ``nominal_dim`` is the regularity dimension d the construction aims at;
    it is declared, not estimated (use ``estimate_ahlfors_constants`` for
    diagnostics). ``bbox`` is the declared bounding box, rows (min, max) per
    axis, which every atom must lie in; if omitted it stays ``None`` and
    no box is checked or recorded.
    """

    atoms: np.ndarray
    weights: np.ndarray
    nominal_dim: float
    label: str = ""
    bbox: np.ndarray | None = None

    def __post_init__(self):
        atoms = np.atleast_2d(np.asarray(self.atoms, dtype=float))
        weights = np.atleast_1d(np.asarray(self.weights, dtype=float))
        if atoms.shape[0] != weights.size:
            raise ValidationError(
                f"{atoms.shape[0]} atoms but {weights.size} weights"
            )
        if atoms.shape[0] < 1:
            raise ValidationError("measure needs at least one atom")
        if not np.all(np.isfinite(atoms)) or not np.all(np.isfinite(weights)):
            raise ValidationError("atoms and weights must be finite")
        if np.any(weights < 0):
            raise ValidationError("weights must be nonnegative")
        if weights.sum() <= 0:
            raise ValidationError("total mass must be positive")
        if not (0.0 <= self.nominal_dim <= atoms.shape[1]):
            # dim 0 is the degenerate but supported case of a point pair
            # (1D box boundary); anything outside [0, N] is a mistake.
            raise ValidationError(
                f"nominal_dim {self.nominal_dim} outside [0, {atoms.shape[1]}]"
            )
        self.atoms = atoms
        self.weights = weights
        if self.bbox is not None:
            bbox = np.asarray(self.bbox, dtype=float)
            if bbox.size != 2 * atoms.shape[1]:
                raise ValidationError(
                    f"bbox needs a (min, max) pair for each of the "
                    f"{atoms.shape[1]} axes, got {bbox.size} numbers")
            bbox = bbox.reshape(atoms.shape[1], 2)
            tol = 1e-12 * max(1.0, np.abs(bbox).max())
            inside = (atoms >= bbox[:, 0] - tol) & (atoms <= bbox[:, 1] + tol)
            if not inside.all():
                raise ValidationError("atoms fall outside the declared bounding box")
            self.bbox = bbox

    @property
    def ambient_dim(self) -> int:
        return self.atoms.shape[1]

    @property
    def count(self) -> int:
        return self.atoms.shape[0]


@dataclass(eq=False)
class AhlforsReport:
    """Empirical regularity constants from ball counting.

    ``upper_const`` and ``lower_const`` are the max and min over all sampled
    centers and radii of ``mu(B(x, r)) / r^d``.
    """

    lower_const: float
    upper_const: float


def _bisect(f: Callable[[float], float], lo: float, hi: float) -> float:
    """Root of a decreasing f, to the last bit.

    Needs f(lo) > 0 >= f(hi). Halves the bracket until lo and hi are
    adjacent floats and returns hi, where f <= 0 < f(lo). NumericalError
    when the bracket does not straddle the root or f gives a NaN.
    """
    if not f(lo) > 0.0 >= f(hi):
        raise NumericalError(
            f"bisect: [{lo!r}, {hi!r}] does not bracket a root")
    while lo < (mid := lo + (hi - lo) / 2) < hi:
        f_mid = f(mid)
        if math.isnan(f_mid):
            raise NumericalError(f"bisect: f({mid!r}) is NaN")
        lo, hi = (mid, hi) if f_mid > 0.0 else (lo, mid)
    return hi


def solve_moran_dimension(ratios: Sequence[float]) -> float:
    """Solve ``sum(rho_j ** d) == 1`` for d >= 0.

    The left side is strictly decreasing in d, so the root is unique.
    For m equal ratios rho the solution is ``log m / log(1/rho)``.
    A single map gives the degenerate answer d = 0 (one-point attractor).
    """
    rho = np.asarray(list(ratios), dtype=float)
    if rho.size == 0:
        raise ValidationError("need at least one contraction ratio")
    if np.any(rho <= 0) or np.any(rho >= 1):
        raise ValidationError("contraction ratios must lie in (0, 1)")
    if rho.size == 1:
        return 0.0

    def f(d):
        return np.sum(rho ** d) - 1.0

    # f(0) = m - 1 > 0, and f(d) <= m rho_max^d - 1, which is rho_max - 1
    # < 0 one past the root d0 = log m / log(1/rho_max) of the right side
    hi = np.log(rho.size) / np.log(1.0 / rho.max()) + 1.0
    d = _bisect(f, 0.0, hi)
    assert abs(f(d)) <= 1e-12
    return float(d)


def ifs_measure(maps: Sequence[Similitude], depth: int) -> DiscreteMeasure:
    """Self-similar measure of an IFS, sampled at word depth ``depth``.

    Atoms are all depth-fold compositions applied to the fixed point of the
    first map; the word (j_1 .. j_k) carries weight ``prod rho_{j_i} ** d``
    with d from :func:`solve_moran_dimension`, so the total mass is exactly
    1 up to rounding. The open set condition is assumed, not checked. At
    most ``ATOM_CAP_DEFAULT`` atoms, and a depth of at most 13, its bit
    length, whatever the number of maps.
    """
    maps = list(maps)
    if not maps:
        raise ValidationError("need at least one similitude")
    if depth < 0:
        raise ValidationError("depth must be >= 0")
    dims = {s.dim for s in maps}
    if len(dims) > 1:
        raise ValidationError("similitudes act on different ambient dimensions")
    # two or more maps reach the atom cap by this depth; one map repeats its
    # fixed point, so a deeper word adds nothing but a longer loop
    max_depth = ATOM_CAP_DEFAULT.bit_length()
    if depth > max_depth:
        raise ValidationError(
            f"depth {depth} exceeds {max_depth}, the bit length of the atom "
            f"cap {ATOM_CAP_DEFAULT}")
    n_atoms = len(maps) ** depth
    if n_atoms > ATOM_CAP_DEFAULT:
        raise ValidationError(
            f"{len(maps)}^{depth} = {n_atoms} atoms exceeds cap "
            f"{ATOM_CAP_DEFAULT}")
    d = solve_moran_dimension([s.ratio for s in maps])
    pts = maps[0].fixed_point()[None, :]
    wts = np.array([1.0])
    for _ in range(depth):
        pts = np.vstack([s.apply(pts) for s in maps])
        wts = np.concatenate([(s.ratio ** d) * wts for s in maps])
    return DiscreteMeasure(
        pts, wts, nominal_dim=d, label=f"ifs(m={len(maps)}, depth={depth})"
    )


def segment_measure(endpoints: np.ndarray, count: int) -> DiscreteMeasure:
    """Midpoint-rule measure of a straight segment.

    Weights sum to the segment length exactly; ``nominal_dim`` is 1. At
    most ``ATOM_CAP_DEFAULT`` atoms, as for :func:`ifs_measure`.
    """
    if count > ATOM_CAP_DEFAULT:
        raise ValidationError(
            f"{count} segment atoms exceeds cap {ATOM_CAP_DEFAULT}")
    ends = np.asarray(endpoints, dtype=float).reshape(2, -1)
    a, b = ends[0], ends[1]
    length = float(np.linalg.norm(b - a))
    if length == 0.0:
        raise ValidationError("segment endpoints coincide")
    if count < 2:
        raise ValidationError("need at least 2 atoms on a segment")
    s = (np.arange(count) + 0.5) / count
    pts = a[None, :] + s[:, None] * (b - a)[None, :]
    wts = np.full(count, length / count)
    return DiscreteMeasure(pts, wts, nominal_dim=1.0, label=f"segment(count={count})")


def boundary_measure(grid: "Grid") -> DiscreteMeasure:
    """Surface measure of the grid's box boundary.

    Atoms sit at the nodes that are first or last along some axis. Each
    atom carries the total area of its cell's outer faces: one face
    normal to axis i has the product of the other axes' spacings as its
    area, so an edge node of a 2D grid carries h and a corner node, which
    owns two outer faces, 2h. The mass equals the surface area of the box
    exactly, and ``nominal_dim`` is N - 1; in 1D the boundary is the two
    end nodes with weight 1 each.
    """
    n_dim = grid.ambient_dim
    index = np.indices(grid.shape).reshape(n_dim, -1).T
    # outer[p, i]: node p owns an outer face normal to axis i
    outer = (index == 0) | (index == np.array(grid.shape) - 1)
    face = np.array([np.prod(np.delete(grid.spacing, i))
                     for i in range(n_dim)])
    on = outer.any(axis=1)
    return DiscreteMeasure(
        grid.nodes()[on], outer[on] @ face, nominal_dim=float(n_dim - 1),
        label=f"boundary({n_dim}d)", bbox=grid.bbox.copy(),
    )


def union_measure(m1: DiscreteMeasure, m2: DiscreteMeasure) -> DiscreteMeasure:
    """Sum of two measures: atom lists concatenate, masses add.

    ``nominal_dim`` is the max of the two; both are recorded in the label.
    """
    if m1.ambient_dim != m2.ambient_dim:
        raise ValidationError(
            f"ambient dimensions differ: {m1.ambient_dim} vs {m2.ambient_dim}"
        )
    label = (
        f"union({m1.label}[d={m1.nominal_dim:g}], {m2.label}[d={m2.nominal_dim:g}])"
    )
    return DiscreteMeasure(
        np.vstack([m1.atoms, m2.atoms]),
        np.concatenate([m1.weights, m2.weights]),
        nominal_dim=max(m1.nominal_dim, m2.nominal_dim),
        label=label,
    )


def _spacing_and_diameter(atoms: np.ndarray) -> tuple[float, float]:
    # exact nearest-neighbour spacing and max pairwise distance in one
    # pass, chunked to keep memory flat; the self distances are masked by
    # index for the spacing, so duplicate atoms still give 0
    nearest, farthest = np.inf, 0.0
    for lo in range(0, atoms.shape[0], 512):
        chunk = atoms[lo:lo + 512]
        d2 = ((chunk[:, None, :] - atoms[None, :, :]) ** 2).sum(axis=2)
        farthest = max(farthest, float(d2.max()))
        rows = np.arange(chunk.shape[0])
        d2[rows, lo + rows] = np.inf
        nearest = min(nearest, float(d2.min()))
    spacing = float(np.sqrt(nearest)) if atoms.shape[0] > 1 else 0.0
    return spacing, float(np.sqrt(farthest))


def estimate_ahlfors_constants(
    m: DiscreteMeasure,
    d: float,
    radii: Sequence[float] | None = None,
) -> AhlforsReport:
    """Brute-force the regularity constants ``mu(B(x, r)) / r^d``.

    Balls are closed and include the center atom; every atom serves as a
    center. Radii must lie in ``(h_min, diam]`` where h_min is the finest
    inter-atom spacing, below which the discrete measure is atomic and the
    ratio degenerates. Default radii run geometrically (factor 1/2) from the
    diameter down to ``4 * h_min``.
    """
    if d <= 0:
        raise ValidationError("regularity dimension d must be positive")
    atoms, weights = m.atoms, m.weights
    h_min, diam = _spacing_and_diameter(atoms)
    if radii is None:
        rs = []
        r = diam
        while r > 4.0 * h_min and r > 0:
            rs.append(r)
            r /= 2.0
        if not rs:
            raise ValidationError(
                "no admissible default radii: measure too coarse (diam <= 4 h_min)"
            )
        radii_arr = np.array(rs)
    else:
        radii_arr = np.asarray(list(radii), dtype=float)
        if radii_arr.size == 0:
            raise ValidationError("empty radii list")
        if np.any(radii_arr <= h_min):
            raise ValidationError(
                f"radius below the resolution floor h_min = {h_min:g}"
            )
        if np.any(radii_arr > diam * (1 + 1e-12)):
            raise ValidationError(f"radius above the support diameter {diam:g}")

    upper = -np.inf
    lower = np.inf
    # closed balls, small relative slack so boundary atoms are counted
    r_eff = radii_arr * (1.0 + 1e-12)
    for lo in range(0, atoms.shape[0], 256):
        chunk = atoms[lo:lo + 256]
        dist = np.sqrt(((chunk[:, None, :] - atoms[None, :, :]) ** 2).sum(axis=2))
        for r, re in zip(radii_arr, r_eff):
            ratios = ((dist <= re) @ weights) / r ** d
            upper = max(upper, float(ratios.max()))
            lower = min(lower, float(ratios.min()))
    return AhlforsReport(lower_const=lower, upper_const=upper)
