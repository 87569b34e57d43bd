"""The names the benchmark under perfbench/ wraps and reads still exist.

``perfbench/tracer.py`` wraps the layers listed in its ``SPANS`` table and
``perfbench/draws.py`` drives the library API directly. A name deleted
from deltaspec would otherwise surface only when a benchmark run fails in
``Tracer.install`` or in a draw.
"""

import importlib
import re
from pathlib import Path

import numpy as np
import scipy.linalg

import deltaspec as ds
import deltaspec.cli  # noqa: F401  (loads every module, as Tracer.install does)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _perfbench(monkeypatch, name):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module(name)


def test_every_span_target_resolves_to_a_callable(monkeypatch):
    tracer = _perfbench(monkeypatch, "tracer")
    broken = []
    for name, targets in tracer.SPANS.items():
        for mod_name, attr in targets:
            module = importlib.import_module(f"deltaspec.{mod_name}")
            try:
                owner, leaf = tracer._resolve(module, attr)
                target = getattr(owner, leaf)
            except AttributeError:
                target = None
            if not callable(target):
                broken.append(f"{name}: deltaspec.{mod_name}.{attr}")
    assert broken == []
    assert all(callable(getattr(scipy.linalg, name, None))
               for name in tracer.LAPACK)


def test_names_the_draws_worker_reads_exist(monkeypatch):
    # every ds.<name>[.<attr>] in the worker's source, then one draw of each
    # kind on a tiny operator, which reads the report, operator and
    # restriction members the worker checks
    draws = _perfbench(monkeypatch, "draws")
    source = (PERFBENCH / "draws.py").read_text()
    dotted = sorted(set(re.findall(r"\bds\.([\w.]+\w)", source)))
    assert "CoefficientField.isotropic" in dotted
    missing = []
    for name in dotted:
        owner = ds
        for part in name.split("."):
            owner = getattr(owner, part, None)
        if owner is None:
            missing.append(name)
    assert missing == []

    grid = ds.Grid(np.array([[0.0, 1.0]]), (40,))
    a = ds.assemble_neumann(grid, ds.CoefficientField.isotropic(1.0, 1, t=1.0))
    gam = ds.restriction_matrix(
        grid, ds.segment_measure(np.array([[0.2], [0.8]]), 8))
    for signed in (False, True):
        problems = draws.draw(draws.Clock(), a, gam, [0, 0, int(signed)],
                              signed, cross_check=signed)
        assert problems == []
