"""CSV and JSON serialization with bit-exact float round-trips.

Floats are written with 17 significant digits ("%.17g"), which is enough
for float64 to survive a write/read cycle unchanged. Measures are written
as a CSV (columns x_1..x_N, weight, optionally V) with a JSON sidecar
carrying {label, nominal_dim, bbox} for the reader of a run; reading one
back takes the CSV alone. Spectra export as (j, s_j) and counting tables
as (lambda, n_plus, n_minus, n). All writers emit "\n" line endings and
sorted JSON keys so identical inputs yield identical bytes.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import ValidationError
from .measures import DiscreteMeasure
from .spectra import PowerLawFit
from .weights import Perturbation

__all__ = [
    "FLOAT_FMT",
    "fit_to_dict",
    "read_json",
    "read_measure",
    "write_counting",
    "write_json",
    "write_measure",
    "write_singular_values",
]

FLOAT_FMT = "%.17g"


def _fmt(x: float) -> str:
    return FLOAT_FMT % x


def write_measure(
    m: DiscreteMeasure,
    path: str | Path,
    perturbation: Perturbation | None = None,
) -> Path:
    """Write atoms and weights to CSV plus a JSON sidecar.

    With a perturbation the values go into an extra trailing column ``V``.
    Returns the sidecar path.
    """
    path = Path(path)
    n = m.ambient_dim
    header = [f"x_{i + 1}" for i in range(n)] + ["weight"]
    cols = [m.atoms[:, i] for i in range(n)] + [m.weights]
    if perturbation is not None:
        if perturbation.values.size != m.count:
            raise ValidationError("perturbation length does not match the measure")
        header.append("V")
        cols.append(perturbation.values)
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in zip(*cols):
            fh.write(",".join(_fmt(v) for v in row) + "\n")
    sidecar = {
        "label": m.label,
        "nominal_dim": m.nominal_dim,
        "bbox": None if m.bbox is None else m.bbox.tolist(),
    }
    return write_json(sidecar, path.with_suffix(".json"))


def read_measure(path: str | Path
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Read a measure CSV back: its atoms (k x N), weights and V column
    (None when there is none). Only the CSV is read, not the sidecar
    ``write_measure`` writes beside it; every cell must be a finite
    number."""
    path = Path(path)
    try:
        with open(path) as fh:
            header = fh.readline().strip().split(",")
            rows = [line.strip().split(",") for line in fh if line.strip()]
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path} is not a text CSV: {exc}") from exc
    has_v = header and header[-1] == "V"
    coord_cols = [h for h in header if h.startswith("x_")]
    n = len(coord_cols)
    expected = [f"x_{i + 1}" for i in range(n)] + ["weight"] + (["V"] if has_v else [])
    if header != expected:
        raise ValidationError(f"unexpected measure CSV header {header}")
    try:
        data = np.array([[float(v) for v in row] for row in rows])
    except ValueError as exc:
        raise ValidationError(f"{path}: {exc}") from exc
    if data.ndim != 2 or data.shape[1] != len(header):
        raise ValidationError("ragged measure CSV")
    if not np.all(np.isfinite(data)):
        raise ValidationError(f"{path}: cells must be finite numbers")
    return data[:, :n], data[:, n], data[:, n + 1] if has_v else None


def write_singular_values(values: np.ndarray, path: str | Path) -> Path:
    """Write descending singular values as rows (j, s_j)."""
    path = Path(path)
    values = np.asarray(values, dtype=float)
    with open(path, "w") as fh:
        fh.write("j,s_j\n")
        for j, s in enumerate(values, start=1):
            fh.write(f"{j},{_fmt(s)}\n")
    return path


def write_counting(counting: np.ndarray, path: str | Path) -> Path:
    """Write counting samples as rows (lambda, n_plus, n_minus, n)."""
    path = Path(path)
    counting = np.asarray(counting, dtype=float)
    if counting.ndim != 2 or counting.shape[1] != 4:
        raise ValidationError("counting table must have 4 columns")
    with open(path, "w") as fh:
        fh.write("lambda,n_plus,n_minus,n\n")
        for lam, n_p, n_m, n_s in counting:
            fh.write(f"{_fmt(lam)},{int(n_p)},{int(n_m)},{int(n_s)}\n")
    return path


def fit_to_dict(fit: PowerLawFit | None) -> dict | None:
    if fit is None:
        return None
    return {
        "theta": fit.theta,
        "coeff": fit.coeff,
        "window": list(fit.window),
        "r_squared": fit.r_squared,
        "kind": fit.kind,
        "slope": fit.slope,
    }


def read_json(path: str | Path, what: str) -> dict:
    """Read the JSON object in a file; ``what`` names the file in errors.

    A path that is missing or not a regular file, text that is not JSON
    and JSON that is not an object all raise :class:`ValidationError`.
    """
    path = Path(path)
    if not path.is_file():
        state = "is not a regular file" if path.exists() else "not found"
        raise ValidationError(f"{what} {path} {state}")
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except ValueError as exc:  # undecodable bytes as well as bad JSON
        raise ValidationError(f"{what} {path} is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ValidationError(f"{what} {path} does not hold a JSON object")
    return obj


def write_json(obj, path: str | Path) -> Path:
    """Deterministic JSON: sorted keys, two-space indent, trailing newline."""
    path = Path(path)
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path
