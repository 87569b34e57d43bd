"""Weight functions on a measure's atoms and the L_(theta) norm family.

A :class:`Perturbation` is a real value V_k per atom. ``lp_theta_norm``
evaluates the norm family that controls the spectral estimates: the plain
L_theta norm for theta > 1, the L_1 norm for theta < 1, and the
Orlicz/Luxemburg norm with Psi(s) = (1+s) log(1+s) - s in the borderline
case theta = 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .measures import DiscreteMeasure, _bisect

__all__ = [
    "Perturbation",
    "lp_theta_norm",
]


@dataclass(eq=False)
class Perturbation:
    """A weight function V sampled on the atoms of a measure."""

    measure: DiscreteMeasure
    values: np.ndarray

    def __post_init__(self):
        vals = np.atleast_1d(np.asarray(self.values, dtype=float))
        if vals.size == 1 and self.measure.count > 1:
            vals = np.full(self.measure.count, vals[0])
        if vals.size != self.measure.count:
            raise ValidationError(
                f"{vals.size} values for {self.measure.count} atoms"
            )
        if not np.all(np.isfinite(vals)):
            raise ValidationError("weight values must be finite")
        self.values = vals

    @classmethod
    def constant(cls, measure: DiscreteMeasure, value: float) -> "Perturbation":
        return cls(measure, np.full(measure.count, float(value)))


def _psi(s: np.ndarray) -> np.ndarray:
    # Orlicz function (1+s) log(1+s) - s, increasing and convex on [0, inf)
    return (1.0 + s) * np.log1p(s) - s


def lp_theta_norm(p: Perturbation, theta: float) -> float:
    """Norm of V in the L_(theta) family of the underlying measure.

    theta > 1 gives ``(sum w |V|^theta)^(1/theta)``; theta < 1 falls back to
    the L_1 norm; theta == 1 is the Luxemburg norm
    ``inf{lam > 0 : sum w Psi(|V|/lam) <= 1}``, found by bisection to the
    last bit: the result is feasible and the float below it is not.
    """
    if theta <= 0:
        raise ValidationError("theta must be positive")
    w = p.measure.weights
    v = np.abs(p.values)
    if not np.any(v > 0):
        return 0.0
    if theta > 1.0:
        return float((w @ v ** theta) ** (1.0 / theta))
    if theta < 1.0:
        return float(w @ v)

    # Luxemburg case. g(lam) = sum w Psi(|V|/lam) decreases from +inf to 0.
    def g(lam):
        return float(w @ _psi(v / lam))

    hi = max(float(w @ v), v.max() * 1e-8)
    while g(hi) > 1.0:
        hi *= 2.0
    lo = hi
    while g(lo) <= 1.0:
        lo /= 2.0
        if lo < 1e-300:
            break
    return _bisect(lambda x: g(x) - 1.0, lo, hi)
