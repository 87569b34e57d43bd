"""Spectral extraction, counting functions, power-law fits, Weyl densities.

The counting function n_+(lambda, K) counts eigenvalues above lambda,
n_-(lambda, K) those below -lambda; their sum is the singular-value
counting for symmetric K. The Weyl prediction counts both signs the same
way: each atom enters with the magnitude of its gap |V2 - V1|. Decay
orders come from log-log least squares over a window that drops the
preasymptotic head (top 10% of indices by default) and the noise tail
(anything within 100x of the floor). All asymptotic quantities are
reported as finite-sample fits with explicit windows, never as limits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError
from .measures import DiscreteMeasure
from .weights import Perturbation

__all__ = [
    "FLOOR_FACTOR",
    "KyFanReport",
    "LogPeriodicReport",
    "PowerLawFit",
    "SpectrumReport",
    "fit_power_law",
    "kyfan_check",
    "log_periodic_residual",
    "spectrum",
    "weyl_density",
    "weyl_prediction",
]

FLOOR_FACTOR = 1e-11
HEAD_DROP = 0.10
TAIL_FLOOR_MULTIPLE = 100.0
MIN_USABLE = 30


@dataclass(eq=False)
class PowerLawFit:
    """Least-squares power law with its window and goodness of fit.

    For singular values the model is ``s_j = (coeff / j)^(1/theta)``
    (log-log slope -1/theta); for counting samples it is
    ``n(lambda) = coeff * lambda^(-theta)`` (slope -theta). ``window`` is
    the (first, last) 1-based index range of the points actually fitted.
    """

    theta: float
    coeff: float
    window: tuple[int, int]
    r_squared: float
    kind: str = "singular_values"

    @property
    def slope(self) -> float:
        if self.kind == "singular_values":
            return -1.0 / self.theta
        return -self.theta


@dataclass(eq=False)
class SpectrumReport:
    """Singular values, counting samples and the noise floor; no fit,
    which :func:`fit_power_law` makes once per spectrum."""

    singulars: np.ndarray
    counting: np.ndarray  # columns: lambda, n_plus, n_minus, n
    floor: float


@dataclass(eq=False)
class KyFanReport:
    violations: int
    checks: int
    worst_gap: float  # most negative slack seen (>= 0 means all satisfied)


@dataclass(eq=False)
class LogPeriodicReport:
    """Rescaled counting residual against log(lambda).

    ``residual`` samples ``n(lambda) lambda^d - mean`` at the kept
    lambdas; ``period`` is the dominant period in log(lambda) from a
    Lomb-Scargle scan; ``maxmin_ratio`` is max/min of
    ``n(lambda) lambda^d`` over the central two decades.
    """

    residual: np.ndarray
    period: float
    maxmin_ratio: float


def _counting_grid(values: np.ndarray, num: int = 160) -> np.ndarray:
    lo, hi = values.min(), values.max()
    if lo <= 0 or hi <= 0:
        raise NumericalError("counting grid needs positive magnitudes")
    if lo == hi:
        return np.array([lo * 0.5])
    return np.geomspace(lo, hi, num)


def spectrum(k: np.ndarray, floor: float | None = None) -> SpectrumReport:
    """Spectral extraction of a symmetric matrix: no fitting.

    The matrix is eigendecomposed; one that is not symmetric (to 1e-10 of
    its largest entry) raises ValidationError. Magnitudes at or below the
    floor (default ``1e-11 * ||K||``) are discarded as numerical noise.
    Counting samples live on a log-spaced lambda grid. The caller fits the
    singular values once with :func:`fit_power_law`, at ``floor``.
    """
    k = np.asarray(k, dtype=float)
    if k.ndim != 2 or k.shape[0] != k.shape[1]:
        raise ValidationError("spectrum expects a square matrix")
    if np.abs(k - k.T).max(initial=0.0) > 1e-10 * np.abs(k).max(initial=0.0):
        raise ValidationError("spectrum expects a symmetric matrix")
    eig = np.linalg.eigvalsh(0.5 * (k + k.T))
    norm = np.abs(eig).max() if eig.size else 0.0
    lvl = FLOOR_FACTOR * norm if floor is None else floor
    pos = np.sort(eig[eig > lvl])[::-1]
    neg = np.sort(-eig[eig < -lvl])[::-1]  # magnitudes, descending
    sing = np.sort(np.concatenate([pos, neg]))[::-1]

    if sing.size:
        grid = _counting_grid(sing)
        # each list is descending: the count above lam is a search position
        counting = np.column_stack(
            [grid] + [np.searchsorted(-v, -grid) for v in (pos, neg, sing)])
    else:
        counting = np.zeros((0, 4))
    return SpectrumReport(singulars=sing, counting=counting, floor=lvl)


def _loglog_fit(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    lx, ly = np.log(x), np.log(y)
    slope, intercept = np.polyfit(lx, ly, 1)
    pred = slope * lx + intercept
    ss_res = float(np.sum((ly - pred) ** 2))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(slope), float(intercept), r2


def _fit_window(total: int, window) -> tuple[int, int]:
    # 0-based slice bounds: the explicit 1-based inclusive window, or all
    # points past the HEAD_DROP fraction; either must lie within the
    # usable points and hold at least 2 of them
    if window is None:
        lo, hi = int(math.floor(HEAD_DROP * total)), total
    else:
        lo, hi = int(window[0]) - 1, int(window[1])
    if lo < 0 or hi > total or hi - lo < 2:
        raise ValidationError(
            f"fit window ({lo + 1}, {hi}) out of range (1..{total})")
    return lo, hi


def fit_power_law(
    values: np.ndarray | None = None,
    counting: np.ndarray | None = None,
    floor: float = 0.0,
    window: tuple[int, int] | None = None,
) -> PowerLawFit:
    """Fit a decay order on descending singular values or counting samples.

    Exactly one of ``values`` (descending positive s_j) or ``counting``
    (rows (lambda, n)) must be given. Either becomes one head-first
    series: (j, s_j), or (lambda, n) by descending lambda. The automatic
    window drops the first ``HEAD_DROP`` fraction of usable points
    (preasymptotic head) and everything within ``100 x floor`` of the
    noise level; ``window`` overrides it with a 1-based inclusive index
    range into the usable points. Requires at least 30 usable points, and
    a window of either kind holding at least 2 of them (else
    ``ValidationError``).
    """
    if (values is None) == (counting is None):
        raise ValidationError("pass exactly one of values= or counting=")

    if values is not None:
        kind, usable, name = ("singular_values", "values above the floor",
                              "singular values")
        y = np.asarray(values, dtype=float)
        if np.any(np.diff(y) > 1e-12 * max(1.0, y.max(initial=0.0))):
            raise ValidationError("singular values must be sorted descending")
        y = y[(y > TAIL_FLOOR_MULTIPLE * floor) & (y > 0)]
        x = np.arange(1, y.size + 1, dtype=float)
    else:
        kind, usable, name = "counting", "counting samples", "counting samples"
        samples = np.asarray(counting, dtype=float)
        if samples.ndim != 2 or samples.shape[1] < 2:
            raise ValidationError("counting samples must be rows (lambda, n)")
        lam, n = samples[:, 0], samples[:, 1]
        keep = (lam > TAIL_FLOOR_MULTIPLE * floor) & (n >= 1)
        order = np.argsort(lam[keep])[::-1]  # descending lambda: head first
        x, y = lam[keep][order], n[keep][order]

    total = x.size
    if total < MIN_USABLE:
        raise NumericalError(
            f"only {total} usable {usable}; need {MIN_USABLE}")
    lo, hi = _fit_window(total, window)
    slope, intercept, r2 = _loglog_fit(x[lo:hi], y[lo:hi])
    if slope >= 0:
        raise NumericalError(f"{name} do not decay; no power law")
    if kind == "singular_values":  # s_j = (coeff / j)^(1/theta)
        theta, coeff = -1.0 / slope, math.exp(-intercept / slope)
    else:  # n(lambda) = coeff lambda^(-theta)
        theta, coeff = -slope, math.exp(intercept)
    return PowerLawFit(theta=theta, coeff=coeff, window=(lo + 1, hi),
                       r_squared=r2, kind=kind)


def _ascending_singulars(mat: np.ndarray) -> np.ndarray:
    scale = np.abs(mat).max()
    if scale > 0 and np.abs(mat - mat.T).max() <= 1e-12 * scale:
        return np.sort(np.abs(np.linalg.eigvalsh(mat)))
    return np.sort(np.linalg.svd(mat, compute_uv=False))


def _count_above(ascending: np.ndarray, lam: np.ndarray) -> np.ndarray:
    # strict comparison with a hair of slack so exact ties never overcount
    return ascending.size - np.searchsorted(ascending, lam * (1.0 + 1e-12),
                                            "right")


def kyfan_check(
    k1: np.ndarray,
    k2: np.ndarray,
    trials: int = 100,
    grid_points: int = 12,
    seed: int = 0,
) -> KyFanReport:
    """Singular-value counting inequalities for sums and products.

    Checks ``n(l1 + l2, K1 + K2) <= n(l1, K1) + n(l2, K2)`` and the
    multiplicative version ``n(l1 l2, K1 K2) <= n(l1, K1) + n(l2, K2)``
    on a log-spaced grid of (l1, l2) pairs for the given matrices and for
    ``trials`` seeded random symmetric pairs of the same size. Both are
    theorems, so the returned violation count must be zero.
    """
    k1 = np.asarray(k1, dtype=float)
    k2 = np.asarray(k2, dtype=float)
    if k1.shape != k2.shape or k1.ndim != 2:
        raise ValidationError("kyfan_check needs two square matrices, same size")
    rng = np.random.default_rng(seed)
    size = k1.shape[0]

    pairs = [(k1, k2)]
    for _ in range(trials):
        b1 = rng.standard_normal((size, size))
        b2 = rng.standard_normal((size, size))
        pairs.append((b1 + b1.T, b2 + b2.T))

    violations = 0
    checks = 0
    worst = np.inf
    for m1, m2 in pairs:
        s1 = _ascending_singulars(m1)
        s2 = _ascending_singulars(m2)
        if s1.max(initial=0.0) == 0 or s2.max(initial=0.0) == 0:
            continue  # zero factor: bounds hold trivially
        s_sum = _ascending_singulars(m1 + m2)
        s_prod = _ascending_singulars(m1 @ m2)
        lam1 = _counting_grid(s1[s1 > 0], grid_points)[:, None]
        lam2 = _counting_grid(s2[s2 > 0], grid_points)[None, :]
        bound = _count_above(s1, lam1) + _count_above(s2, lam2)
        n_sum = _count_above(s_sum, lam1 + lam2)
        n_prod = _count_above(s_prod, lam1 * lam2)
        checks += 2 * bound.size
        worst = min(worst, (bound - n_sum).min(), (bound - n_prod).min())
        violations += int(np.count_nonzero(n_sum > bound)
                          + np.count_nonzero(n_prod > bound))
    return KyFanReport(violations=violations, checks=checks,
                       worst_gap=float(worst))


def _lomb_scargle(x: np.ndarray, y: np.ndarray,
                  freqs: np.ndarray) -> np.ndarray:
    """Lomb-Scargle power of the zero-mean series y(x) at angular ``freqs``.

    ``[(y.c)^2 / CC + (y.s)^2 / SS] / (2 n)`` with c = cos(w (x - tau)),
    s = sin(w (x - tau)), the phase tan(2 w tau) = sum sin(2 w x) /
    sum cos(2 w x), CC = mean(c^2) and SS = 1 - CC, both kept above
    machine epsilon where every phase is aligned. This is the normalisation
    and the guard of SciPy's ``lombscargle``.
    """
    wx = np.outer(freqs, x)
    wt = wx - 0.5 * np.arctan2(np.sin(2.0 * wx).sum(axis=1),
                               np.cos(2.0 * wx).sum(axis=1))[:, None]
    c, s = np.cos(wt), np.sin(wt)
    eps = np.finfo(float).epsneg
    cc = (c * c).mean(axis=1)
    ss = np.maximum(1.0 - cc, eps)
    cc = np.maximum(cc, eps)
    return ((c @ y) ** 2 / cc + (s @ y) ** 2 / ss) / (2 * x.size)


def log_periodic_residual(
    lam: np.ndarray,
    counts: np.ndarray,
    d: float,
) -> LogPeriodicReport:
    """Residual of the rescaled counting function against log(lambda).

    ``counts[i]`` is n(lambda[i]); the fitted order d rescales them to
    ``n(lambda) lambda^d``, whose mean-removed series is scanned for a
    dominant period with the Lomb-Scargle periodogram of
    :func:`_lomb_scargle` (robust to nonuniform log spacing) over 400 trial
    periods. Requires at least two decades of lambda with 10+ samples per
    decade.
    """
    lam = np.asarray(lam, dtype=float)
    counts = np.asarray(counts, dtype=float)
    keep = (lam > 0) & (counts > 0)
    lam, counts = lam[keep], counts[keep]
    if lam.size < 2:
        raise NumericalError("not enough counting samples")
    x = np.log(lam)
    span_decades = (x.max() - x.min()) / math.log(10.0)
    if span_decades < 2.0 or lam.size / max(span_decades, 1e-9) < 10.0:
        raise NumericalError(
            "need at least two decades with 10+ samples per decade"
        )
    y = counts * lam ** d
    resid = y - y.mean()

    # periods between a tenth of the span and the full span
    span = x.max() - x.min()
    periods = np.linspace(span / 10.0, span, 400)
    freqs = 2.0 * np.pi / periods
    power = _lomb_scargle(x, resid - resid.mean(), freqs)
    period = float(periods[int(np.argmax(power))])

    mid = 0.5 * (x.max() + x.min())
    half_window = math.log(10.0)  # two decades total
    in_win = (x >= mid - half_window) & (x <= mid + half_window)
    y_win = y[in_win]
    if y_win.size == 0 or y_win.min() <= 0:
        raise NumericalError("rescaled counting not positive on the window")
    ratio = float(y_win.max() / y_win.min())
    return LogPeriodicReport(residual=resid, period=period, maxmin_ratio=ratio)


def _r_fiber(a_mat: np.ndarray, xi: np.ndarray, nu: np.ndarray) -> float:
    # (2 pi)^(-1) integral over y of (quadratic symbol at xi + y nu)^(-2),
    # in closed form alpha / (4 (alpha gamma - beta^2)^(3/2))
    alpha = float(nu @ a_mat @ nu)
    beta = float(xi @ a_mat @ nu)
    gamma = float(xi @ a_mat @ xi)
    disc = alpha * gamma - beta * beta
    if disc <= 0:
        raise ValidationError("degenerate symbol: fiber discriminant <= 0")
    return alpha / (4.0 * disc ** 1.5)


def weyl_density(
    a_mat: np.ndarray,
    normal: np.ndarray,
    theta: float,
    quadrature_points: int = 64,
) -> float:
    """Asymptotic density ``omega(X)`` of a point on a hypersurface.

    ``a_mat`` is the (N, N) symbol tensor at the point and ``normal`` the
    Euclidean unit normal of the surface. The fiber integral
    ``r(X, xi') = (2 pi)^(-1) int a(X; xi' + y nu)^(-2) dy`` has the closed
    form ``alpha / (4 (alpha gamma - beta^2)^(3/2))``. The tangent unit
    sphere S is sampled at points xi' with one quadrature step: the two
    points +-tau with step 1 for N = 2, and ``quadrature_points`` equally
    spaced points of a circle with step 2 pi / ``quadrature_points`` for
    N = 3 (the trapezoid rule, spectrally accurate), and

        omega = (1 / (d (2 pi)^d)) * int_{S} r(X, xi')^theta dsigma(xi')

    with d = N - 1. For the 2D Laplacian this gives ``(1/4)^theta / pi``.
    """
    a_mat = np.asarray(a_mat, dtype=float)
    nu = np.asarray(normal, dtype=float)
    n_dim = nu.size
    if a_mat.shape != (n_dim, n_dim):
        raise ValidationError("symbol tensor and normal dimensions differ")
    if theta <= 0:
        raise ValidationError("theta must be positive")
    norm = np.linalg.norm(nu)
    if norm == 0:
        raise ValidationError("normal vector is zero")
    nu = nu / norm
    if np.linalg.eigvalsh(0.5 * (a_mat + a_mat.T)).min() <= 0:
        raise ValidationError("degenerate symbol: tensor not positive definite")

    d = n_dim - 1
    if n_dim == 2:
        tau = np.array([-nu[1], nu[0]])
        points, step = [tau, -tau], 1.0
    elif n_dim == 3:
        # orthonormal tangent frame
        ref = np.array([1.0, 0.0, 0.0])
        if abs(nu @ ref) > 0.9:
            ref = np.array([0.0, 1.0, 0.0])
        e1 = ref - (ref @ nu) * nu
        e1 /= np.linalg.norm(e1)
        e2 = np.cross(nu, e1)
        phis = 2.0 * np.pi * np.arange(quadrature_points) / quadrature_points
        points = [math.cos(phi) * e1 + math.sin(phi) * e2 for phi in phis]
        step = 2.0 * np.pi / quadrature_points
    else:
        raise ValidationError("weyl_density supports N = 2 or N = 3 only")
    acc = 0.0
    for xi in points:
        acc += _r_fiber(a_mat, xi, nu) ** theta
    return acc * step / (d * (2.0 * np.pi) ** d)


def weyl_prediction(
    m: DiscreteMeasure,
    p1: Perturbation,
    p2: Perturbation,
    theta: float,
    coeffs: np.ndarray | None = None,
    normals: np.ndarray | None = None,
) -> dict[str, float]:
    """Predicted counting coefficient ``sum_k w_k omega(X_k) |V2 - V1|^theta``.

    The singular values of the difference of the two resolvents count
    both signs of V1 - V2, so every atom enters with the magnitude of its
    gap. The measure must be a hypersurface (``nominal_dim == N - 1``).
    With no ``coeffs`` the symbol is the Laplacian, for which the fiber
    integral is direction-free and no normals are needed; anisotropic
    symbols require per-atom ``normals``. ``coeffs`` is one (N, N) tensor
    or one per atom. The result holds the coefficient under both prefactor
    conventions, ``"without"`` and ``"with_2pi_d"`` (times ``(2 pi)^(-d)``);
    acceptance binds only to orders and ratios.
    """
    n_dim = m.ambient_dim
    if abs(m.nominal_dim - (n_dim - 1)) > 1e-12:
        raise ValidationError(
            "weyl_prediction needs a hypersurface measure (nominal_dim = N - 1)"
        )

    k = m.count
    if coeffs is None:
        tensors = np.broadcast_to(np.eye(n_dim), (k, n_dim, n_dim))
        iso = True
    else:
        tensors = np.asarray(coeffs, dtype=float)
        if tensors.ndim == 2:
            tensors = np.broadcast_to(tensors, (k, n_dim, n_dim))
        off = tensors - tensors[..., 0, 0][:, None, None] * np.eye(n_dim)
        iso = np.abs(off).max() <= 1e-14
    if normals is None:
        if not iso:
            raise ValidationError("anisotropic symbols need per-atom normals")
        # any unit direction works for an isotropic fiber integral
        normals = np.broadcast_to(np.eye(n_dim)[0], (k, n_dim))
    else:
        normals = np.asarray(normals, dtype=float).reshape(k, n_dim)

    # one density per distinct (tensor, normal) pair, scattered back
    pairs = np.concatenate([tensors.reshape(k, -1), normals], axis=1)
    _, first, inverse = np.unique(pairs, axis=0, return_index=True,
                                  return_inverse=True)
    omega = np.array([
        weyl_density(tensors[i], normals[i], theta) for i in first
    ])[inverse.ravel()]
    gap = np.abs(p2.values - p1.values)
    base = float(m.weights @ (omega * gap ** theta))
    return {
        "without": base,
        "with_2pi_d": base * (2.0 * np.pi) ** (-m.nominal_dim),
    }
