"""Every library name the benchmark in ``perfbench/`` relies on still exists.

``perfbench/traced.py`` wraps the functions in its ``SPANS`` table, plus
``NCSeries.coefficient``, and reads counts off their arguments and
results through ``MEASURES``; ``perfbench/workloads.py`` imports library
names to build its inputs and checks.  A rename, deletion or signature
change under ``src/`` would otherwise only show when the benchmark runs.
"""

import importlib
import importlib.util
from pathlib import Path

from mubar.corpus import borromean_braid, borromean_pd
from mubar.links import artin_longitudes, longitudes_mod_q
from mubar.magnus import NCSeries, magnus_expand
from mubar.words import parse_word

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _traced():
    spec = importlib.util.spec_from_file_location("traced", PERFBENCH / "traced.py")
    traced = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(traced)
    return traced


def test_traced_spans_resolve():
    traced = _traced()
    assert traced.SPANS
    for module, attr in traced.SPANS:
        assert callable(getattr(importlib.import_module(module), attr)), (module, attr)
    assert callable(NCSeries.coefficient)


def test_workloads_imports_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    assert set(workloads.BUILDERS) == {"diagram", "brackets", "sweep"}


def test_traced_measures_on_real_calls():
    measures = _traced().MEASURES
    word = parse_word("x1 x2 x1^-1 x2^-1 x3^2")
    q = 4
    counts = measures["magnus.magnus_expand"]((word, q), magnus_expand(word, q))
    assert counts == {"expand_letters": len(word)}
    braid = borromean_braid()
    system = artin_longitudes(braid, q)
    counts = measures["links.artin_longitudes"]((braid, q), system)
    assert counts == {"longitude_letters": sum(len(w) for w in system.longitudes)}
    pd = borromean_pd()
    system = longitudes_mod_q(pd, q)
    counts = measures["links.longitudes_mod_q"]((pd, q), system)
    assert counts == {"longitude_letters": sum(len(w) for w in system.longitudes)}
