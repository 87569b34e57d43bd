"""Round-trip and determinism checks for the CSV/JSON writers."""

import json

import numpy as np
import pytest

from deltaspec import (
    Perturbation,
    Similitude,
    ValidationError,
    fit_power_law,
    ifs_measure,
)
from deltaspec.io import (
    fit_to_dict,
    read_measure,
    write_counting,
    write_json,
    write_measure,
    write_singular_values,
)


def _cantor(depth):
    eye = np.eye(1)
    maps = [
        Similitude(1.0 / 3.0, eye, np.array([0.0])),
        Similitude(1.0 / 3.0, eye, np.array([2.0 / 3.0])),
    ]
    return ifs_measure(maps, depth)


def test_measure_round_trip_is_bit_exact(tmp_path):
    m = _cantor(5)
    rng = np.random.Generator(np.random.Philox(5))
    p = Perturbation(m, rng.uniform(-1.0, 1.0, m.count))
    path = tmp_path / "cantor.csv"
    sidecar = write_measure(m, path, perturbation=p)
    assert sidecar == tmp_path / "cantor.json"
    assert json.loads(sidecar.read_text())["nominal_dim"] == m.nominal_dim

    atoms, weights, values = read_measure(path)
    assert np.array_equal(atoms, m.atoms)
    assert np.array_equal(weights, m.weights)
    assert np.array_equal(values, p.values)


def test_read_measure_without_perturbation(tmp_path):
    m = _cantor(3)
    path = tmp_path / "plain.csv"
    write_measure(m, path)
    atoms, _, values = read_measure(path)
    assert values is None
    assert len(atoms) == m.count


def test_read_measure_rejects_mangled_header(tmp_path):
    m = _cantor(3)
    path = tmp_path / "m.csv"
    write_measure(m, path)
    lines = path.read_text().splitlines()
    lines[0] = "a,b"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValidationError):
        read_measure(path)


def malform_measure(csv_path, case):
    """Break a measure CSV written by write_measure in one way."""
    if case == "bom":
        csv_path.write_bytes(b"\xff\xfe" + csv_path.read_bytes())
    elif case == "nan_atom":
        lines = csv_path.read_text().splitlines()
        lines[1] = "nan," + lines[1].split(",", 1)[1]
        csv_path.write_text("\n".join(lines) + "\n")


MALFORMED = ["bom", "nan_atom"]


@pytest.mark.parametrize("case", MALFORMED)
def test_read_measure_rejects_malformed_files(tmp_path, case):
    m = _cantor(3)
    path = tmp_path / "m.csv"
    write_measure(m, path, Perturbation.constant(m, 1.0))
    malform_measure(path, case)
    with pytest.raises(ValidationError):
        read_measure(path)


def test_write_measure_rejects_length_mismatch(tmp_path):
    m = _cantor(3)
    other = _cantor(4)
    p = Perturbation(other, np.ones(other.count))
    with pytest.raises(ValidationError):
        write_measure(m, tmp_path / "bad.csv", perturbation=p)


def test_singular_value_table_format(tmp_path):
    path = write_singular_values(np.array([0.5, 0.25]), tmp_path / "s.csv")
    assert path.read_text() == "j,s_j\n1,0.5\n2,0.25\n"


def test_counting_table_format(tmp_path):
    table = np.array([[0.1, 3, 1, 4], [0.2, 2, 0, 2]])
    path = write_counting(table, tmp_path / "c.csv")
    lines = path.read_text().splitlines()
    assert lines[0] == "lambda,n_plus,n_minus,n"
    assert lines[1].endswith(",3,1,4")
    with pytest.raises(ValidationError):
        write_counting(np.ones((3, 3)), tmp_path / "bad.csv")


def test_fit_to_dict_round_trip():
    assert fit_to_dict(None) is None
    j = np.arange(1, 101, dtype=float)
    fit = fit_power_law(values=(2.0 / j) ** 2.5)
    d = fit_to_dict(fit)
    assert d["theta"] == pytest.approx(0.4, rel=1e-9)
    assert d["kind"] == "singular_values"
    assert d["window"] == list(fit.window)


def test_write_json_is_deterministic(tmp_path):
    obj = {"b": 2, "a": [1.5, None], "c": {"y": "x"}}
    p1 = write_json(obj, tmp_path / "one.json")
    p2 = write_json(dict(reversed(obj.items())), tmp_path / "two.json")
    assert p1.read_bytes() == p2.read_bytes()
    assert p1.read_text().endswith("\n")
