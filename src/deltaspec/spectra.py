"""Spectral extraction, counting functions, power-law fits, Weyl densities.

The counting function n_+(lambda, K) counts eigenvalues above lambda,
n_-(lambda, K) those below -lambda; their sum is the singular-value
counting for symmetric K. Decay orders come from log-log least squares
over a window that drops the preasymptotic head (top 10% of indices by
default) and the noise tail (anything within 100x of the floor). All
asymptotic quantities are reported as finite-sample fits with explicit
windows, never as limits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.signal

from .errors import NumericalError, ValidationError
from .measures import DiscreteMeasure
from .weights import Perturbation

__all__ = [
    "FLOOR_FACTOR",
    "KyFanReport",
    "LogPeriodicReport",
    "PowerLawFit",
    "SpectrumReport",
    "WeylPrediction",
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
    """Eigenvalue lists, counting samples, and the default decay fit."""

    positives: np.ndarray
    negatives: np.ndarray
    singulars: np.ndarray
    counting: np.ndarray  # columns: lambda, n_plus, n_minus, n
    fit: PowerLawFit | None
    floor: float

    def n_plus(self, lam: float) -> int:
        return int(np.searchsorted(-self.positives, -lam, side="left"))

    def n_minus(self, lam: float) -> int:
        return int(np.searchsorted(-self.negatives, -lam, side="left"))


@dataclass(eq=False)
class KyFanReport:
    violations: int
    checks: int
    worst_gap: float  # most negative slack seen (>= 0 means all satisfied)


@dataclass(eq=False)
class LogPeriodicReport:
    """Rescaled counting residual against log(lambda).

    ``log_lambda`` and ``residual`` sample ``n(lambda) lambda^d - mean``;
    ``period`` is the dominant period in log(lambda) from a Lomb-Scargle
    scan; ``maxmin_ratio`` is max/min of ``n(lambda) lambda^d`` over the
    central two decades.
    """

    log_lambda: np.ndarray
    residual: np.ndarray
    period: float
    maxmin_ratio: float


@dataclass(eq=False)
class WeylPrediction:
    """Predicted asymptotic coefficient from atomwise symbol densities.

    ``coefficient_both`` records the value with and without the extra
    ``(2 pi)^(-d)`` prefactor; acceptance binds only to orders and ratios,
    so both conventions are carried.
    """

    omega_values: np.ndarray
    theta: float
    predicted_coefficient: float
    prefactor_convention: str
    coefficient_both: dict[str, float]


def _counting_grid(values: np.ndarray, num: int = 160) -> np.ndarray:
    lo, hi = values.min(), values.max()
    if lo <= 0 or hi <= 0:
        raise NumericalError("counting grid needs positive magnitudes")
    if lo == hi:
        return np.array([lo * 0.5])
    return np.geomspace(lo, hi, num)


def spectrum(k: np.ndarray, floor: float | None = None) -> SpectrumReport:
    """Full spectral report of a matrix.

    Symmetric inputs are eigendecomposed; anything else is routed to the
    singular-value path (positives/negatives stay empty). Magnitudes at or
    below the floor (default ``1e-11 * ||K||``) are discarded as numerical
    noise. Counting samples live on a log-spaced lambda grid.
    """
    k = np.asarray(k, dtype=float)
    if k.ndim != 2 or k.shape[0] != k.shape[1]:
        raise ValidationError("spectrum expects a square matrix")
    scale = np.abs(k).max()
    symmetric = scale == 0 or np.abs(k - k.T).max() <= 1e-10 * scale
    if symmetric:
        eig = sla.eigvalsh(0.5 * (k + k.T))
        norm = np.abs(eig).max() if eig.size else 0.0
        lvl = FLOOR_FACTOR * norm if floor is None else floor
        pos = np.sort(eig[eig > lvl])[::-1]
        neg = np.sort(-eig[eig < -lvl])[::-1]  # magnitudes, descending
        sing = np.sort(np.concatenate([pos, neg]))[::-1]
    else:
        sv = sla.svdvals(k)
        norm = sv.max() if sv.size else 0.0
        lvl = FLOOR_FACTOR * norm if floor is None else floor
        pos = np.array([])
        neg = np.array([])
        sing = sv[sv > lvl]

    if sing.size:
        grid = _counting_grid(sing)
        # each list is descending: the count above lam is a search position
        counting = np.column_stack(
            [grid] + [np.searchsorted(-v, -grid) for v in (pos, neg, sing)])
    else:
        counting = np.zeros((0, 4))

    try:
        fit = fit_power_law(sing, floor=lvl)
    except (NumericalError, ValidationError):
        fit = None
    return SpectrumReport(
        positives=pos, negatives=neg, singulars=sing, counting=counting,
        fit=fit, floor=lvl,
    )


def _loglog_fit(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    lx, ly = np.log(x), np.log(y)
    slope, intercept = np.polyfit(lx, ly, 1)
    pred = slope * lx + intercept
    ss_res = float(np.sum((ly - pred) ** 2))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(slope), float(intercept), r2


def fit_power_law(
    values: np.ndarray | None = None,
    counting: np.ndarray | None = None,
    floor: float = 0.0,
    window: tuple[int, int] | None = None,
    head_drop: float = HEAD_DROP,
) -> PowerLawFit:
    """Fit a decay order on descending singular values or counting samples.

    Exactly one of ``values`` (descending positive s_j) or ``counting``
    (rows (lambda, n)) must be given. The automatic window drops the first
    ``head_drop`` fraction of usable points (preasymptotic head) and
    everything within ``100 x floor`` of the noise level; ``window``
    overrides it with a 1-based inclusive index range into the usable
    points. Requires at least 30 usable values.
    """
    if (values is None) == (counting is None):
        raise ValidationError("pass exactly one of values= or counting=")

    if values is not None:
        s = np.asarray(values, dtype=float)
        if np.any(np.diff(s) > 1e-12 * max(1.0, s.max(initial=0.0))):
            raise ValidationError("singular values must be sorted descending")
        keep = s > TAIL_FLOOR_MULTIPLE * floor
        s = s[keep & (s > 0)]
        total = s.size
        if total < MIN_USABLE:
            raise NumericalError(
                f"only {total} usable values above the floor; need {MIN_USABLE}"
            )
        j = np.arange(1, total + 1, dtype=float)
        if window is None:
            lo = int(math.floor(head_drop * total))
            hi = total
        else:
            lo, hi = int(window[0]) - 1, int(window[1])
            if lo < 0 or hi > total or hi - lo < 2:
                raise ValidationError(f"window {window} out of range (1..{total})")
        slope, intercept, r2 = _loglog_fit(j[lo:hi], s[lo:hi])
        if slope >= 0:
            raise NumericalError("singular values do not decay; no power law")
        theta = -1.0 / slope
        coeff = math.exp(-intercept / slope)
        return PowerLawFit(theta=theta, coeff=coeff, window=(lo + 1, hi),
                           r_squared=r2, kind="singular_values")

    samples = np.asarray(counting, dtype=float)
    if samples.ndim != 2 or samples.shape[1] < 2:
        raise ValidationError("counting samples must be rows (lambda, n)")
    lam, n = samples[:, 0], samples[:, 1]
    keep = (lam > TAIL_FLOOR_MULTIPLE * floor) & (n >= 1)
    lam, n = lam[keep], n[keep]
    order = np.argsort(lam)[::-1]  # descending lambda: head first
    lam, n = lam[order], n[order]
    total = lam.size
    if total < MIN_USABLE:
        raise NumericalError(
            f"only {total} usable counting samples; need {MIN_USABLE}"
        )
    if window is None:
        lo = int(math.floor(head_drop * total))
        hi = total
    else:
        lo, hi = int(window[0]) - 1, int(window[1])
        if lo < 0 or hi > total or hi - lo < 2:
            raise ValidationError(f"window {window} out of range (1..{total})")
    slope, intercept, r2 = _loglog_fit(lam[lo:hi], n[lo:hi])
    if slope >= 0:
        raise NumericalError("counting samples do not decay; no power law")
    return PowerLawFit(theta=-slope, coeff=math.exp(intercept),
                       window=(lo + 1, hi), r_squared=r2, kind="counting")


def _ascending_singulars(mat: np.ndarray) -> np.ndarray:
    scale = np.abs(mat).max()
    if scale > 0 and np.abs(mat - mat.T).max() <= 1e-12 * scale:
        return np.sort(np.abs(sla.eigvalsh(mat)))
    return np.sort(sla.svdvals(mat))


def _count_above(ascending: np.ndarray, lam: np.ndarray) -> np.ndarray:
    # strict comparison with a hair of slack so exact ties never overcount
    return ascending.size - np.searchsorted(ascending, lam * (1.0 + 1e-12),
                                            side="right")


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


def log_periodic_residual(
    lam: np.ndarray,
    counts: np.ndarray,
    d: float,
) -> LogPeriodicReport:
    """Residual of the rescaled counting function against log(lambda).

    ``counts[i]`` is n(lambda[i]); the fitted order d rescales them to
    ``n(lambda) lambda^d``, whose mean-removed series is scanned for a
    dominant period with Lomb-Scargle (robust to nonuniform log spacing).
    Requires at least two decades of lambda with 10+ samples per decade.
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
    power = scipy.signal.lombscargle(x, resid - resid.mean(), freqs)
    period = float(periods[int(np.argmax(power))])

    mid = 0.5 * (x.max() + x.min())
    half_window = math.log(10.0)  # two decades total
    in_win = (x >= mid - half_window) & (x <= mid + half_window)
    y_win = y[in_win]
    if y_win.size == 0 or y_win.min() <= 0:
        raise NumericalError("rescaled counting not positive on the window")
    ratio = float(y_win.max() / y_win.min())
    return LogPeriodicReport(log_lambda=x, residual=resid, period=period,
                             maxmin_ratio=ratio)


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
    form ``alpha / (4 (alpha gamma - beta^2)^(3/2))``; the tangent unit
    sphere is two points for N = 2 and a circle (trapezoid rule,
    spectrally accurate) for N = 3, and

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
        vals = [_r_fiber(a_mat, tau, nu), _r_fiber(a_mat, -tau, nu)]
        sphere_integral = sum(v ** theta for v in vals)
    elif n_dim == 3:
        # orthonormal tangent frame
        ref = np.array([1.0, 0.0, 0.0])
        if abs(nu @ ref) > 0.9:
            ref = np.array([0.0, 1.0, 0.0])
        e1 = ref - (ref @ nu) * nu
        e1 /= np.linalg.norm(e1)
        e2 = np.cross(nu, e1)
        phis = 2.0 * np.pi * np.arange(quadrature_points) / quadrature_points
        acc = 0.0
        for phi in phis:
            xi = math.cos(phi) * e1 + math.sin(phi) * e2
            acc += _r_fiber(a_mat, xi, nu) ** theta
        sphere_integral = acc * (2.0 * np.pi / quadrature_points)
    else:
        raise ValidationError("weyl_density supports N = 2 or N = 3 only")
    return sphere_integral / (d * (2.0 * np.pi) ** d)


def weyl_prediction(
    m: DiscreteMeasure,
    p1: Perturbation,
    p2: Perturbation,
    theta: float,
    convention: str = "without",
    coeffs: np.ndarray | None = None,
    normals: np.ndarray | None = None,
    side: str = "+",
) -> WeylPrediction:
    """Predicted counting coefficient ``sum_k w_k omega(X_k) ((V2-V1)_pm)^theta``.

    The measure must be a hypersurface (``nominal_dim == N - 1``). With no
    ``coeffs`` the symbol is the Laplacian, for which the fiber integral is
    direction-free and no normals are needed; anisotropic symbols require
    per-atom ``normals``. Both prefactor conventions are computed and
    recorded; ``convention`` picks which one lands in
    ``predicted_coefficient``.
    """
    n_dim = m.ambient_dim
    if abs(m.nominal_dim - (n_dim - 1)) > 1e-12:
        raise ValidationError(
            "weyl_prediction needs a hypersurface measure (nominal_dim = N - 1)"
        )
    if convention not in ("without", "with_2pi_d"):
        raise ValidationError(f"unknown prefactor convention {convention!r}")
    if side not in ("+", "-"):
        raise ValidationError("side must be '+' or '-'")

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

    omega = np.array([
        weyl_density(tensors[i], normals[i], theta) for i in range(k)
    ])
    diff = p2.values - p1.values
    part = np.maximum(diff, 0.0) if side == "+" else np.maximum(-diff, 0.0)
    base = float(m.weights @ (omega * part ** theta))
    d = m.nominal_dim
    both = {
        "without": base,
        "with_2pi_d": base * (2.0 * np.pi) ** (-d),
    }
    return WeylPrediction(
        omega_values=omega, theta=theta,
        predicted_coefficient=both[convention],
        prefactor_convention=convention, coefficient_both=both,
    )
