"""Every library name the benchmark in ``perfbench/`` relies on still exists.

``perfbench/traced.py`` wraps the functions in its ``SPANS`` table, plus
``NCSeries.coefficient``, and ``perfbench/workloads.py`` imports library
names to build its inputs and checks.  A rename or deletion under
``src/`` would otherwise only show when the benchmark runs.
"""

import importlib
import importlib.util
from pathlib import Path

from mubar.magnus import NCSeries

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_traced_spans_resolve():
    spec = importlib.util.spec_from_file_location("traced", PERFBENCH / "traced.py")
    traced = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(traced)
    assert traced.SPANS
    for module, attr in traced.SPANS:
        assert callable(getattr(importlib.import_module(module), attr)), (module, attr)
    assert callable(NCSeries.coefficient)


def test_workloads_imports_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    assert set(workloads.BUILDERS) == {"diagram", "brackets", "sweep"}
