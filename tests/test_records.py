"""Records built by ``frozen_record`` against frozen-dataclass twins.

The ten record classes were frozen dataclasses.  Each is compared with
a twin made by ``dataclasses.make_dataclass(..., frozen=True)`` with the
same fields and defaults, on instances taken from the corpus and from
one call of each verb's library function.  A separate check runs the
CLI in a fresh interpreter and asserts that start-up never imports
``dataclasses`` or ``inspect``.
"""

import dataclasses
import json
import os
import subprocess
import sys
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mubar import corpus
from mubar.brackets import LinkingExpr, massey_sum
from mubar.links import Crossing, PDCode, PureBraidWord, artin_longitudes, longitudes_mod_q
from mubar.milnor import LongitudeSystem, MuValue, mu_bar
from mubar.mutation import MutantReport, MutativePairReport, mutant_mu, mutative_pair_report
from mubar.surgery import LcqReport, lcq_is_free
from mubar.words import Word, generator

from link_generators import borromean_system

SRC = Path(__file__).resolve().parent.parent / "src"

# (name, default) per field, in declaration order; MISSING = required
REQUIRED = dataclasses.MISSING
FIELDS = {
    Word: [("letters", ())],
    Crossing: [("arcs", REQUIRED), ("sign", REQUIRED)],
    PDCode: [("m", REQUIRED), ("components", REQUIRED), ("crossings", REQUIRED)],
    PureBraidWord: [("strands", REQUIRED), ("letters", REQUIRED)],
    LongitudeSystem: [("m", REQUIRED), ("depth", REQUIRED), ("longitudes", REQUIRED)],
    MuValue: [("mu", REQUIRED), ("delta", REQUIRED), ("residue", REQUIRED)],
    MutantReport: [
        ("index", REQUIRED),
        ("mutation", REQUIRED),
        ("mu_alpha", REQUIRED),
        ("mu_beta_transformed", REQUIRED),
        ("modulus", REQUIRED),
        ("residue", REQUIRED),
        ("mu_composite", REQUIRED),
        ("congruent", REQUIRED),
    ],
    LcqReport: [
        ("q", REQUIRED),
        ("free", REQUIRED),
        ("witness_index", REQUIRED),
        ("witness_relator", REQUIRED),
    ],
    MutativePairReport: [
        ("q", REQUIRED),
        ("mutation", REQUIRED),
        ("found", REQUIRED),
        ("detectors", ()),
        ("ribbon_sum", None),
        ("mutant", None),
        ("witnesses", ()),
    ],
    LinkingExpr: [("terms", REQUIRED)],
}


def _twin_class(cls, name=None):
    spec = [
        (n, object) if d is REQUIRED else (n, object, dataclasses.field(default=d))
        for n, d in FIELDS[cls]
    ]
    return dataclasses.make_dataclass(name or cls.__name__, spec, frozen=True)


TWINS = {cls: _twin_class(cls) for cls in FIELDS}
# a second frozen dataclass with the same fields, for cross-class equality
OTHERS = {cls: _twin_class(cls, cls.__name__ + "Other") for cls in FIELDS}


def _values(record):
    # records and twins both list their fields in __annotations__
    return [getattr(record, n) for n in type(record).__annotations__]


def _samples():
    l6 = corpus.milnor_l6_system()
    borromean = longitudes_mod_q(corpus.borromean_pd(), 4)
    hopf = artin_longitudes(corpus.hopf_braid(), 3)
    pds = [corpus.unlink_pd(), corpus.hopf_pd(), corpus.borromean_pd()]
    return {
        Word: [Word(), generator(1), generator(1, -1), *l6.longitudes, *borromean.longitudes],
        Crossing: [x for pd in pds for x in pd.crossings],
        PDCode: pds,
        PureBraidWord: [corpus.hopf_braid(), corpus.borromean_braid()],
        LongitudeSystem: [l6, l6.truncate(6), borromean, hopf, borromean_system()],
        MuValue: [mu_bar(borromean, (1, 2, 3)), mu_bar(hopf, (1, 2)), mu_bar(l6, (1, 1, 2, 2))],
        MutantReport: [
            mutant_mu(l6, l6, index, "F") for index in [(1, 2), (1, 1, 2, 2), (1, 1, 2, 1, 2, 2)]
        ],
        LcqReport: [lcq_is_free(borromean, 2), lcq_is_free(borromean, 3), lcq_is_free(hopf, 3)],
        MutativePairReport: [mutative_pair_report(l6, 6, "F"), mutative_pair_report(hopf, 2, "F")],
        LinkingExpr: [massey_sum((1, 2)), massey_sum((1, 2, 2, 1, 2, 2)), massey_sum((1, 2, 1, 2))],
    }


SAMPLES = _samples()


def test_field_tables_match_the_classes():
    for cls, fields in FIELDS.items():
        assert tuple(cls.__annotations__) == tuple(n for n, _ in fields), cls


@pytest.mark.parametrize("cls", list(FIELDS), ids=lambda c: c.__name__)
def test_equality_and_hash_agree_with_twin(cls):
    twin, other = TWINS[cls], OTHERS[cls]
    records = SAMPLES[cls]
    assert len(records) >= 2
    # a second copy of each sample, built again from its field values
    copies = [cls(*_values(r)) for r in records]
    for a, b in product(records, records + copies):
        ta, tb = twin(*_values(a)), twin(*_values(b))
        assert (a == b) == (ta == tb)
        assert (a != b) == (ta != tb)
        if a == b:
            assert hash(a) == hash(b)
    for r in records:
        t = twin(*_values(r))
        assert hash(r) == hash(t)
        # another class with equal fields is never equal, either way round
        o = other(*_values(r))
        assert (r == t, t == r, r != t) == (t == o, o == t, t != o) == (False, False, True)


@pytest.mark.parametrize("cls", [c for c in FIELDS if c is not Word], ids=lambda c: c.__name__)
def test_repr_agrees_with_twin(cls):
    for r in SAMPLES[cls]:
        assert repr(r) == repr(TWINS[cls](*_values(r)))


def test_word_keeps_its_own_repr():
    assert repr(Word(((1, 1), (2, -1)))) == "Word('x1 x2^-1')"


@pytest.mark.parametrize("cls", list(FIELDS), ids=lambda c: c.__name__)
def test_fields_are_frozen(cls):
    for r in SAMPLES[cls]:
        t = TWINS[cls](*_values(r))
        for n, _ in FIELDS[cls]:
            for obj in (r, t):
                with pytest.raises(AttributeError):
                    setattr(obj, n, None)
                with pytest.raises(AttributeError):
                    delattr(obj, n)
        with pytest.raises(AttributeError):
            r.extra = 1
        assert _values(r) == _values(cls(*_values(r)))


@pytest.mark.parametrize("cls", list(FIELDS), ids=lambda c: c.__name__)
def test_keyword_construction_and_defaults(cls):
    twin = TWINS[cls]
    for r in SAMPLES[cls]:
        kwargs = dict(zip((n for n, _ in FIELDS[cls]), _values(r)))
        assert cls(**kwargs) == r
        assert twin(**kwargs) == twin(*_values(r))
        # positional prefix, keyword rest
        assert cls(_values(r)[0], **dict(list(kwargs.items())[1:])) == r
    required = [n for n, d in FIELDS[cls] if d is REQUIRED]
    defaults = {n: d for n, d in FIELDS[cls] if d is not REQUIRED}
    sample = dict(zip((n for n, _ in FIELDS[cls]), _values(SAMPLES[cls][0])))
    if required:
        # only the required fields given: every default matches the twin's
        minimal = {n: sample[n] for n in required}
        assert _values(cls(**minimal)) == _values(twin(**minimal))
        assert _values(cls(**minimal))[len(required):] == list(defaults.values())
    else:
        assert _values(cls()) == _values(twin())


@pytest.mark.parametrize("cls", list(FIELDS), ids=lambda c: c.__name__)
def test_missing_or_unknown_argument_is_type_error(cls):
    twin = TWINS[cls]
    sample = dict(zip((n for n, _ in FIELDS[cls]), _values(SAMPLES[cls][0])))
    for n, d in FIELDS[cls]:
        if d is REQUIRED:
            partial = {k: v for k, v in sample.items() if k != n}
            for make in (cls, twin):
                with pytest.raises(TypeError):
                    make(**partial)
    for make in (cls, twin):
        with pytest.raises(TypeError):
            make(**sample, no_such_field=1)
        with pytest.raises(TypeError):
            make(*sample.values(), None)
        first = next(iter(sample))
        with pytest.raises(TypeError):
            make(sample[first], **sample)


def test_post_init_checks_still_run():
    with pytest.raises(ValueError, match="4 arc labels"):
        Crossing((1, 2, 3), 1)
    with pytest.raises(ValueError, match="not 0-framed"):
        LongitudeSystem(1, 3, (generator(1),))
    # the private expansion cache is set past the frozen fields
    assert SAMPLES[LongitudeSystem][0]._expansions is not None


_letters = st.lists(st.tuples(st.integers(1, 3), st.sampled_from((1, -1))), max_size=8)


@given(_letters, _letters)
def test_word_equality_and_hash_agree_with_twin(u, v):
    a, b = Word(tuple(u)), Word(tuple(v))
    ta, tb = TWINS[Word](a.letters), TWINS[Word](b.letters)
    assert (a == b) == (ta == tb) and (a != b) == (ta != tb)
    assert hash(a) == hash(ta) and hash(b) == hash(tb)


GUARD = """
import json, sys
before = set(sys.modules)
import mubar.cli
after_import = set(sys.modules)
mubar.cli.main(["corpus-install", sys.argv[1]])
mubar.cli.main(["mu", "--link", sys.argv[1] + "/hopf.json", "--index", "12"])
heavy = ("dataclasses", "inspect")
print(json.dumps([
    [m for m in heavy if m in after_import - before],
    [m for m in heavy if m in set(sys.modules) - before],
]))
"""


def test_startup_imports_neither_dataclasses_nor_inspect(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", GUARD, str(tmp_path)],
        capture_output=True, text=True, env=env, check=True,
    )
    *_, last = proc.stdout.splitlines()
    assert json.loads(last) == [[], []]
    assert '"mu": 1' in proc.stdout
