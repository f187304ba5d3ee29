import gc
import importlib
import json
import os
import random
import re
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mubar import cli
from mubar.cli import main
from mubar.corpus import corpus_files, hopf_pd
from mubar.errors import shown

DATA = Path(__file__).parent / "data"
README = Path(__file__).parent.parent / "README.md"
SRC = str(Path(__file__).resolve().parent.parent / "src")
# stdout of each README example in both formats, recorded before the
# relabelling and mutant refactors; any change here is a contract change
README_EXAMPLES = json.loads((DATA / "readme_examples.json").read_text())
# stdout of massey-sum on the brackets workload's seed-1 indices and three
# more, recorded before canonicalize re-associated the bracket; it pins the
# canonical representatives and their signs
MASSEY_SUM_STDOUT = json.loads((DATA / "massey_sum_stdout.json").read_text())


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def corpus_dir(tmp_path, capsys):
    code, out, _ = run(capsys, "corpus-install", str(tmp_path))
    assert code == 0
    return tmp_path


class TestBasicVerbs:
    def test_mu_hopf(self, corpus_dir, capsys):
        code, out, _ = run(capsys, "mu", "--link", str(corpus_dir / "hopf.json"), "--index", "12")
        assert code == 0
        assert json.loads(out) == {"index": "12", "mu": 1}

    def test_identity_token_inside_a_longitude(self, tmp_path, capsys):
        # an e among a word's tokens is skipped, so this is the Hopf system
        path = tmp_path / "hopf.json"
        path.write_text(json.dumps({"m": 2, "depth": 3, "longitudes": ["e x2", "x1 e"]}))
        code, out, _ = run(capsys, "mu", "--link", str(path), "--index", "12")
        assert (code, json.loads(out)) == (0, {"index": "12", "mu": 1})

    def test_mu_braid_input(self, corpus_dir, capsys):
        code, out, _ = run(capsys, "mu", "--link", str(corpus_dir / "borromean.braid"), "--index", "123")
        assert code == 0
        assert json.loads(out)["mu"] in (1, -1)

    def test_delta_and_mu_bar(self, corpus_dir, capsys):
        code, out, _ = run(capsys, "delta", "--link", str(corpus_dir / "borromean.json"), "--index", "123")
        assert code == 0
        assert json.loads(out) == {"index": "123", "delta": 0}
        code, out, _ = run(capsys, "mu-bar", "--link", str(corpus_dir / "hopf.json"), "--index", "12")
        assert json.loads(out) == {"index": "12", "mu": 1, "delta": 0, "residue": 1}

    def test_vanish_up_to(self, corpus_dir, capsys):
        code, out, _ = run(
            capsys, "vanish-up-to", "--link", str(corpus_dir / "borromean.json"), "--weight", "2"
        )
        assert json.loads(out)["all_vanish"] is True
        code, out, _ = run(
            capsys, "vanish-up-to", "--link", str(corpus_dir / "borromean.json"), "--weight", "3"
        )
        assert json.loads(out)["all_vanish"] is False

    def test_component_out_of_range_exit_3(self, corpus_dir, capsys):
        code, _, err = run(capsys, "mu", "--link", str(corpus_dir / "hopf.json"), "--index", "123")
        assert code == 3
        assert "precondition" in err

    def test_weight_exceeds_file_depth_exit_3(self, corpus_dir, capsys):
        code, _, err = run(
            capsys, "mu", "--link", str(corpus_dir / "l6.json"), "--index", "11222212"
        )
        assert code == 3

    def test_system_file_input(self, corpus_dir, capsys):
        code, out, _ = run(
            capsys, "mu", "--link", str(corpus_dir / "l6.json"), "--index", "112222"
        )
        assert code == 0
        assert json.loads(out)["mu"] == -1


class TestMutationVerbs:
    def test_mutate_report(self, corpus_dir, capsys):
        code, out, _ = run(
            capsys,
            "mutate-report",
            "--alpha", str(corpus_dir / "hopf.json"),
            "--beta", str(corpus_dir / "hopf.json"),
            "--index", "12",
        )
        assert code == 0
        data = json.loads(out)
        assert data["residue"] == 2 and data["congruent"] is True

    def test_mutant_type(self, corpus_dir, capsys):
        code, out, _ = run(
            capsys,
            "mutate-report",
            "--alpha", str(corpus_dir / "hopf.json"),
            "--beta", str(corpus_dir / "hopf.json"),
            "--index", "12",
            "--type", "F",
        )
        data = json.loads(out)
        assert data["mutation"] == "F"
        assert data["congruent"] is True

    def test_find_detector(self, corpus_dir, capsys):
        code, out, _ = run(
            capsys,
            "find-detector",
            "--alpha", str(corpus_dir / "l6.json"),
            "--weight", "6",
            "--type", "F",
        )
        assert code == 0
        assert "112222" in json.loads(out)["detectors"]

    @pytest.mark.parametrize("weight", ["-3", "0", "1"])
    @pytest.mark.parametrize(
        "verb, flag", [("find-detector", "--weight"), ("lcq", "--q")]
    )
    def test_weight_below_two_exit_3(self, corpus_dir, capsys, verb, flag, weight):
        link = "--alpha" if verb == "find-detector" else "--mutant-of"
        code, out, err = run(
            capsys, verb, link, str(corpus_dir / "l6.json"), flag, weight,
            "--type", "F",
        )
        assert (code, out) == (3, "")
        assert err == "mubar: precondition violated: weight must be at least 2\n"


class TestMasseyVerb:
    def test_expansion_and_value(self, corpus_dir, capsys):
        code, out, _ = run(
            capsys,
            "massey-sum",
            "--index", "122121222",
            "--values", str(corpus_dir / "star.json"),
        )
        assert code == 0
        data = json.loads(out)
        assert data["value"] == -20
        assert data["terms"] == [
            {"coeff": -20, "linking": "lk(yyxy,(yxy,xy))"},
            {"coeff": -20, "linking": "lk(yyxy,yxyxy)"},
            {"coeff": -20, "linking": "lk(yyxy,yyxxy)"},
        ]

    def test_equal_ends_exit_3(self, capsys):
        code, _, err = run(capsys, "massey-sum", "--index", "121")
        assert code == 3

    @pytest.mark.parametrize(
        "key",
        [
            "lk(xyxyxy,yxyxyxy)",
            "lk(x,%sy)" % ("xy" * 3000),
            "lk(%sy%s,y)" % ("(x," * 1500, ")" * 1500),
        ],
        ids=["weight-13", "weight-6002", "nested-1500"],
    )
    def test_values_key_beyond_weight_cap_exit_3(self, tmp_path, capsys, key):
        values = tmp_path / "heavy.json"
        values.write_text(json.dumps({key: 1}))
        code, out, err = run(
            capsys, "massey-sum", "--index", "122121222", "--values", str(values)
        )
        assert code == 3
        assert out == ""
        assert "WEIGHT_CAP = 12" in err


    def test_values_key_with_excess_parentheses_exit_2(self, tmp_path, capsys):
        values = tmp_path / "deep.json"
        values.write_text(json.dumps({"lk(" + "(" * 1200 + "x,y)": 1}))
        code, out, err = run(
            capsys, "massey-sum", "--index", "122121222", "--values", str(values)
        )
        assert code == 2
        assert out == ""
        assert "parse error" in err

    @pytest.mark.parametrize("text", ["1.5", "true", "1e400"], ids=["fraction", "bool", "overflow"])
    def test_values_not_integers_exit_2(self, tmp_path, capsys, text):
        values = tmp_path / "values.json"
        values.write_text('{"lk(x,y)": %s}' % text)
        code, out, err = run(capsys, "massey-sum", "--index", "12", "--values", str(values))
        assert (code, out) == (2, "")
        assert err.startswith("mubar: parse error: linking value for lk(x,y) is not an integer: ")

    def test_bad_value_on_degenerate_key_exit_2(self, tmp_path, capsys):
        values = tmp_path / "values.json"
        values.write_text(json.dumps({"lk(xy,y)": "a"}))
        code, out, err = run(capsys, "massey-sum", "--index", "122", "--values", str(values))
        assert (code, out) == (2, "")
        assert err == "mubar: parse error: linking value for lk(xy,y) is not an integer: 'a'\n"


class TestLcqVerb:
    def test_plain(self, corpus_dir, capsys):
        code, out, _ = run(capsys, "lcq", "--link", str(corpus_dir / "borromean.json"), "--q", "2")
        assert json.loads(out)["free"] is True
        code, out, _ = run(capsys, "lcq", "--link", str(corpus_dir / "borromean.json"), "--q", "3")
        data = json.loads(out)
        assert data["free"] is False and data["witness"] == "123"

    def test_mutant_of(self, corpus_dir, capsys):
        code, out, _ = run(
            capsys,
            "lcq",
            "--mutant-of", str(corpus_dir / "l6.json"),
            "--type", "F",
            "--q", "6",
        )
        assert code == 0
        data = json.loads(out)
        assert data["ribbon_sum"]["free"] is True
        assert data["mutant"]["free"] is False

    def test_pair_with_a_free_mutant_is_not_found(self, capsys):
        # comm8.json is no link's system: its 84 R detectors leave the
        # mutant's quotient free, so the pair does not separate
        code, out, _ = run(
            capsys, "lcq", "--mutant-of", str(DATA / "comm8.json"), "--type", "R", "--q", "8"
        )
        assert code == 0
        assert out == (DATA / "lcq_mutant_comm8_R_q8.json").read_text()
        data = json.loads(out)
        assert (data["found"], data["mutant"]["free"], len(data["detectors"])) == (
            False, True, 84
        )

    @pytest.mark.parametrize(
        "longitudes, witness",
        [
            (["e"] * 3000, None),
            ([f"x{i + 1}" if i % 2 else f"x{i - 1}" for i in range(1, 3001)], "12"),
        ],
        ids=["trivial", "paired"],
    )
    def test_many_components_weight_two(self, tmp_path, capsys, longitudes, witness):
        # weight 2 reads each longitude's degree-1 level whole instead of
        # m^2 coefficients one at a time
        path = tmp_path / "wide.json"
        path.write_text(json.dumps({"m": 3000, "depth": 2, "longitudes": longitudes}))
        start = time.process_time()
        code, out, err = run(capsys, "lcq", "--link", str(path), "--q", "2")
        assert time.process_time() - start < 2
        assert (code, err) == (0, "")
        assert json.loads(out)["witness"] == witness

    def test_usage_errors(self, corpus_dir, capsys):
        code, _, err = run(capsys, "lcq", "--q", "2")
        assert code == 1
        code, _, err = run(
            capsys, "lcq", "--mutant-of", str(corpus_dir / "l6.json"), "--q", "6"
        )
        assert code == 1
        code, out, err = run(
            capsys, "lcq", "--link", str(corpus_dir / "borromean.json"), "--q", "3",
            "--type", "F",
        )
        assert (code, out, err) == (1, "", "mubar: error: --type needs --mutant-of\n")


class TestErrorsAndFormats:
    def test_bad_usage_exit_1(self, capsys):
        assert run(capsys, "no-such-verb")[0] == 1
        assert run(capsys, "mu", "--index", "12")[0] == 1

    def test_unparsable_file_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run(capsys, "mu", "--link", str(bad), "--index", "12")
        assert code == 2
        assert "parse error" in err

    @pytest.mark.parametrize(
        "m, longitudes",
        [
            (2, ["x2", 5]),
            (2, ["x2", None]),
            (2, ["x2", ["x1"]]),
            (2, None),
            (1, "e"),
        ],
        ids=["int", "null", "list", "null-field", "string-field"],
    )
    def test_longitudes_not_a_list_of_words_exit_2(
        self, tmp_path, capsys, m, longitudes
    ):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"m": m, "depth": 3, "longitudes": longitudes}))
        code, out, err = run(capsys, "mu", "--link", str(path), "--index", "11")
        assert (code, out) == (2, "")
        assert err == f"mubar: parse error: {path}: longitudes must be a list of words\n"

    def test_inconsistent_pd_exit_2(self, tmp_path, capsys):
        # passes load_pd and the component walks, but its linking
        # numbers come out asymmetric
        pd = tmp_path / "asymmetric.json"
        pd.write_text(json.dumps({
            "m": 2,
            "components": [[1, 2, 3], [4, 5, 6]],
            "crossings": [
                {"arcs": [6, 5, 4, 6], "sign": -1},
                {"arcs": [2, 4, 3, 5], "sign": -1},
                {"arcs": [3, 1, 1, 2], "sign": 1},
            ],
        }))
        code, out, err = run(capsys, "mu", "--link", str(pd), "--index", "12")
        assert code == 2
        assert out == ""
        assert "parse error" in err

    @pytest.mark.parametrize("text", ["1.5", "true", "1e400"], ids=["fraction", "bool", "overflow"])
    @pytest.mark.parametrize(
        "is_pd, place, what",
        [
            (False, ("m",), "{path}: m"),
            (False, ("depth",), "{path}: depth"),
            (True, ("m",), "malformed PD code: m"),
            (True, ("crossings", 0, "sign"), "malformed PD code: sign of crossing 0"),
            (True, ("components", 0, 1), "malformed PD code: arc of component 1"),
            (True, ("crossings", 1, "arcs", 2), "malformed PD code: arc of crossing 1"),
        ],
        ids=["system-m", "system-depth", "pd-m", "pd-sign", "pd-component-arc", "pd-crossing-arc"],
    )
    def test_link_file_integers_are_strict_exit_2(
        self, tmp_path, capsys, is_pd, place, what, text
    ):
        # int() would read 1.5 as 1 and true as 1, and a crossing arc
        # true used to match arc 1 without any conversion
        data = hopf_pd().to_json() if is_pd else {"m": 2, "depth": 3, "longitudes": ["x2", "x1"]}
        target = data
        for key in place[:-1]:
            target = target[key]
        target[place[-1]] = "@"
        path = tmp_path / "link.json"
        path.write_text(json.dumps(data).replace('"@"', text))
        code, out, err = run(capsys, "mu", "--link", str(path), "--index", "12")
        assert (code, out) == (2, "")
        assert err.startswith(f"mubar: parse error: {what.format(path=path)} is not an integer: ")

    @pytest.mark.parametrize(
        "name, text",
        [
            ("system.json", json.dumps(
                {"m": 2, "depth": 3, "longitudes": ["x1^1000000000000", "e"]}
            )),
            ("huge.braid", "2; A12^1000000000000"),
        ],
        ids=["word", "braid"],
    )
    def test_exponent_over_letter_budget_exit_3(self, tmp_path, capsys, name, text):
        path = tmp_path / name
        path.write_text(text)
        code, out, err = run(capsys, "mu", "--link", str(path), "--index", "12")
        assert code == 3
        assert out == ""
        assert "LETTER_BUDGET = 100000" in err

    def test_system_depth_over_term_budget_exit_3(self, tmp_path, capsys):
        # The depth of a longitude system is the expansion's degree bound.
        path = tmp_path / "deep.json"
        path.write_text(json.dumps(
            {"m": 2, "depth": 100_000_000, "longitudes": ["e", "x2 x1 x2^-1 x1^-1"]}
        ))
        code, out, err = run(capsys, "mu", "--link", str(path), "--index", "12")
        assert code == 3
        assert out == ""
        assert "TERM_BUDGET = 1048576" in err

    def test_many_components_over_term_budget_exit_3(self, tmp_path, capsys):
        # The linking-symmetry check runs first and reads each longitude
        # once, so 20,000 components reach the budget without a pass per
        # pair of components.
        path = tmp_path / "wide.json"
        path.write_text(json.dumps({"m": 20_000, "depth": 3, "longitudes": ["e"] * 20_000}))
        start = time.process_time()
        code, out, err = run(capsys, "mu", "--link", str(path), "--index", "12")
        assert time.process_time() - start < 10
        assert (code, out) == (3, "")
        assert "TERM_BUDGET = 1048576" in err

    @pytest.mark.parametrize(
        "name, text",
        [
            ("hopf_pd.json", json.dumps(hopf_pd().to_json())),
            ("hopf.braid", "2; A12"),
        ],
        ids=["pd", "braid"],
    )
    def test_depth_option_over_term_budget_exit_3(self, tmp_path, capsys, name, text):
        # Refused before any rewriting, so depth 30 answers at once.
        path = tmp_path / name
        path.write_text(text)
        code, out, err = run(
            capsys, "mu", "--link", str(path), "--index", "12", "--depth", "30"
        )
        assert code == 3
        assert out == ""
        assert "TERM_BUDGET = 1048576" in err

    def test_missing_file_exit_2(self, capsys):
        code, _, _ = run(capsys, "mu", "--link", "/nonexistent.json", "--index", "12")
        assert code == 2

    def test_deterministic_json(self, corpus_dir, capsys):
        args = ("massey-sum", "--index", "1221222")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2

    def test_text_format(self, corpus_dir, capsys):
        code, out, _ = run(
            capsys, "--format", "text", "mu", "--link", str(corpus_dir / "hopf.json"), "--index", "12"
        )
        assert code == 0
        assert "mu: 1" in out
        assert "{" not in out


def _pd_text(**fields) -> str:
    return json.dumps({**hopf_pd().to_json(), **fields})


_HOPF_CROSSINGS = hopf_pd().to_json()["crossings"]
_MU = ("mu", "--index", "12", "--link")
_MASSEY = ("massey-sum", "--index", "12", "--values")

# name -> (argv before the file, file text or None for no file, exit
# code, stderr line with {path} for the file, or None for success); no
# other test reaches these input checks
INPUT_CHECKS = {
    "empty": (_MU, "", 2, "parse error: {path}: empty input"),
    "neither": (
        _MU, json.dumps({"m": 2, "depth": 3}), 2,
        "parse error: {path}: JSON is neither a longitude system nor a PD code",
    ),
    "system-m0": (
        _MU, json.dumps({"m": 0, "depth": 3, "longitudes": []}), 2,
        "parse error: {path}: component count must be positive",
    ),
    "system-depth1": (
        _MU, json.dumps({"m": 2, "depth": 1, "longitudes": ["x2", "x1"]}), 2,
        "parse error: {path}: depth must be at least 2",
    ),
    "system-one-longitude": (
        _MU, json.dumps({"m": 2, "depth": 3, "longitudes": ["x2"]}), 2,
        "parse error: {path}: expected 2 longitudes, got 1",
    ),
    "system-not-framed": (
        _MU, json.dumps({"m": 2, "depth": 3, "longitudes": ["x1", "e"]}), 2,
        "parse error: {path}: longitude 1 is not 0-framed: exponent sum of x1 is 1",
    ),
    "pd-sign2": (
        _MU, _pd_text(crossings=[{"arcs": [1, 3, 2, 4], "sign": 2}, _HOPF_CROSSINGS[1]]), 2,
        "parse error: malformed PD code: crossing sign must be +-1, got 2",
    ),
    "pd-m3": (
        _MU, _pd_text(m=3), 2, "parse error: malformed PD code: m=3 but 2 components given",
    ),
    "pd-empty-component": (
        _MU, _pd_text(m=3, components=[[1, 2], [3, 4], []]), 2,
        "parse error: malformed PD code: empty component",
    ),
    "pd-crossing-not-consumed": (
        _MU, _pd_text(crossings=_HOPF_CROSSINGS + _HOPF_CROSSINGS[:1]), 2,
        "parse error: crossing(s) [2] not consumed by any component walk",
    ),
    "braid-no-strands": (_MU, "0;", 2, "parse error: strand count must be positive"),
    "braid-bad-count": (_MU, "x; A12", 2, "parse error: bad strand count 'x'"),
    "braid-bad-generator": (
        _MU, "3; A14", 2, "parse error: bad pure braid generator A1,4",
    ),
    "depth-below-required": (
        ("mu", "--index", "112", "--depth", "2", "--link"), _pd_text(), 3,
        "precondition violated: --depth 2 is below the required 3",
    ),
    "values-not-json": (
        _MASSEY, "{not json", 2,
        "parse error: {path}: Expecting property name enclosed in double quotes: "
        "line 1 column 2 (char 1)",
    ),
    "values-key-unbalanced": (
        _MASSEY, json.dumps({"xy)": 1}), 2, "parse error: unexpected ')' at position 2",
    ),
    "values-key-with-space": (_MASSEY, json.dumps({"x y": 1}), 0, None),
    "values-key-weight-1": (
        _MASSEY, json.dumps({"x ": 1}), 2, "parse error: linking 'x ' has weight 1",
    ),
    "values-key-weight-1-long": (
        _MASSEY, json.dumps({"x" + " " * 100_000: 1}), 2,
        f"parse error: linking 'x{' ' * 38}... (100003 characters) has weight 1",
    ),
    "massey-equal-ends": (
        ("massey-sum", "--index", "121"), None, 3,
        "precondition violated: first and last entries of 121 must differ",
    ),
    "massey-equal-ends-commas": (
        ("massey-sum", "--index", "1,10,1"), None, 3,
        "precondition violated: first and last entries of 1,10,1 must differ",
    ),
    "massey-weight-1": (
        ("massey-sum", "--index", "1"), None, 3,
        "precondition violated: massey_sum needs weight >= 2",
    ),
    "massey-letter-13": (
        ("massey-sum", "--index", "1,13"), None, 3,
        "precondition violated: index entries must lie in 1..12 to render as letters",
    ),
}


class TestInputChecks:
    @pytest.mark.parametrize("name", list(INPUT_CHECKS))
    def test_exit_code_and_message(self, tmp_path, capsys, name):
        argv, text, code, message = INPUT_CHECKS[name]
        path = tmp_path / "input"
        if text is not None:
            path.write_text(text)
            argv = (*argv, str(path))
        got, out, err = run(capsys, *argv)
        assert got == code
        if message is None:
            assert json.loads(out)["value"] == 1
            assert err == ""
        else:
            assert out == ""
            assert err == "mubar: " + message.format(path=path) + "\n"

    @pytest.mark.parametrize("argv", [_MU, _MASSEY], ids=["link", "values"])
    @pytest.mark.parametrize(
        "content, reason",
        [
            (b"\xff", "'utf-8' codec can't decode byte 0xff in position 0"),
            (b'{"m": ' + b"[" * 100_000, "maximum recursion depth exceeded"),
            (b'{"m": ' + b"1" * 5000 + b"}", "Exceeds the limit (4300 digits)"),
        ],
        ids=["not-utf8", "nested-100000", "int-5000-digits"],
    )
    def test_unreadable_file_exit_2(self, tmp_path, capsys, argv, content, reason):
        path = tmp_path / "input"
        path.write_bytes(content)
        code, out, err = run(capsys, *argv, str(path))
        assert (code, out) == (2, "")
        assert err.startswith(f"mubar: parse error: {path}: {reason}")
        assert err.count("\n") == 1 and err.endswith("\n")


    @pytest.mark.parametrize(
        "text, named",
        [
            (json.dumps({"m": "x" * 1_000_000, "depth": 3, "longitudes": ["e", "e"]}),
             ": m is not an integer: 'xxx"),
            (json.dumps({"m": 2, "depth": 3, "longitudes": ["x1" * 500_000, "e"]}),
             "bad word token 'x1x1"),
            ("2; " + "A" * 1_000_000, "bad braid token 'AAA"),
        ],
        ids=["strict-int", "word-token", "braid-token"],
    )
    def test_oversized_value_is_cut(self, tmp_path, capsys, text, named):
        path = tmp_path / "input"
        path.write_text(text)
        code, out, err = run(capsys, *_MU, str(path))
        assert (code, out) == (2, "")
        assert err.count("\n") == 1 and err.endswith("\n")
        assert len(err.encode()) < 200
        assert named in err
        assert "... (1000002 characters)" in err
        if "token" in named:
            assert err.endswith(" (position 0)\n")

    def test_oversized_index_is_cut(self, capsys):
        code, out, err = run(capsys, "mu", "--link", "unread.json", "--index", "1a" * 50_000)
        assert (code, out) == (2, "")
        assert err == "mubar: parse error: bad index '1a1a1a1a1a1a1a1a1a1a1a1a1a1a1a1a1a1a1a1... (100002 characters)\n"


_BIG = "9" * 4000
_CUT = "9" * 40 + "... (4000 characters)"
_SYSTEM = json.dumps({"m": 2, "depth": 3, "longitudes": ["x2", "x1"]})
_TERMS = "has more than TERM_BUDGET = 1048576 terms"

# name -> (argv before the file, file text, exit code, stderr line with
# {path} for the file): an integer of 4,000 digits in the input is quoted
# through errors.shown
OVERSIZED_INTEGERS = {
    "generator": (
        _MU, json.dumps({"m": 2, "depth": 3, "longitudes": [f"x{_BIG}", "e"]}), 2,
        f"parse error: {{path}}: longitude 1 uses generator x{_CUT} beyond m=2",
    ),
    "exponent": (
        _MU, json.dumps({"m": 2, "depth": 3, "longitudes": [f"x2^{_BIG}", "e"]}), 3,
        f"precondition violated: input expands to {_CUT} letters, over "
        "LETTER_BUDGET = 100000",
    ),
    "system-m": (
        _MU, _SYSTEM.replace('"m": 2', f'"m": {_BIG}'), 2,
        f"parse error: {{path}}: expected {_CUT} longitudes, got 2",
    ),
    "pd-m": (
        _MU, _pd_text(m=int(_BIG)), 2,
        f"parse error: malformed PD code: m={_CUT} but 2 components given",
    ),
    "system-depth": (
        _MU, _SYSTEM.replace('"depth": 3', f'"depth": {_BIG}'), 3,
        f"precondition violated: a series of degree bound {_CUT} in 2 variables {_TERMS}",
    ),
    "pd-sign": (
        _MU, _pd_text(crossings=[{"arcs": [1, 3, 2, 4], "sign": int(_BIG)}, _HOPF_CROSSINGS[1]]),
        2, f"parse error: malformed PD code: crossing sign must be +-1, got {_CUT}",
    ),
    "pd-crossing-arc": (
        _MU, _pd_text(crossings=[{"arcs": [int(_BIG), 3, 2, 4], "sign": 1}, _HOPF_CROSSINGS[1]]),
        2, f"parse error: malformed PD code: crossing 0 uses unknown arc {_CUT}",
    ),
    "pd-arc-twice": (
        _MU, _pd_text(components=[[1, 2, int(_BIG)], [3, 4, int(_BIG)]]), 2,
        f"parse error: malformed PD code: arc {_CUT} listed twice in components",
    ),
    "pd-component-arc": (
        _MU, _pd_text(components=[[1, 2, int(_BIG)], [3, 4]]), 2,
        f"parse error: no unused crossing joins arcs 2 -> {_CUT}",
    ),
    "pd-single-arc": (
        _MU,
        _pd_text(
            components=[[int(_BIG)], [1, 2, 3, 4]],
            crossings=[{"arcs": [int(_BIG), 3, 2, 4], "sign": 1}, _HOPF_CROSSINGS[1]],
        ),
        2,
        f"parse error: single-arc component uses arc {_CUT} at a crossing "
        f"({_BIG[:39]}... (4011 characters)",
    ),
    "braid-generator": (
        _MU, f"2; A1,{_BIG}", 2, f"parse error: bad pure braid generator A1,{_CUT}",
    ),
    "braid-exponent-digits": (
        _MU, "2; A12^" + "9" * 5000, 2,
        "parse error: bad braid token 'A12^" + "9" * 35 + "... (5006 characters) "
        "(position 0): integer too long",
    ),
    "braid-strand-digits": (
        _MU, "2; A" + "1" * 5000 + ",2", 2,
        "parse error: bad braid token 'A" + "1" * 38 + "... (5005 characters) "
        "(position 0): integer too long",
    ),
    "braid-strands": (
        _MU, f"{_BIG}; A12", 3,
        f"precondition violated: a series of degree bound 2 in {_CUT} variables {_TERMS}",
    ),
    "index": (
        ("mu", "--index", f"1,{_BIG}", "--link"), _SYSTEM, 3,
        f"precondition violated: index entry {_CUT} out of range for a 2-component link",
    ),
    "weight": (
        ("vanish-up-to", "--weight", _BIG, "--link"), _SYSTEM, 3,
        f"precondition violated: weight {_CUT} exceeds validity (depth 3 allows "
        "weights up to 3)",
    ),
    "q": (
        ("lcq", "--q", _BIG, "--link"), _SYSTEM, 3,
        f"precondition violated: weight {_CUT} exceeds validity (depth 3 allows "
        "weights up to 3)",
    ),
    "massey-equal-ends": (
        ("massey-sum", "--index", f"1,{_BIG},1", "--values"), "{}", 3,
        f"precondition violated: first and last entries of '1,{_BIG[:37]}... "
        "(4006 characters) must differ",
    ),
    "depth-option": (
        ("mu", "--index", "12", "--depth", f"-{_BIG}", "--link"), _SYSTEM, 3,
        f"precondition violated: --depth -{_BIG[:39]}... (4001 characters) is below "
        "the required 2",
    ),
}


class TestOversizedIntegers:
    @pytest.mark.parametrize("name", list(OVERSIZED_INTEGERS))
    def test_quoted_value_is_cut(self, tmp_path, capsys, name):
        argv, text, code, message = OVERSIZED_INTEGERS[name]
        path = tmp_path / "input"
        path.write_text(text)
        got, out, err = run(capsys, *argv, str(path))
        assert (got, out) == (code, "")
        assert err == "mubar: " + message.format(path=path) + "\n"
        assert len(err.encode()) < 200


# every verb that reads a link file, then massey-sum reading values
_READERS = (
    ("mu", "--index", "12", "--link"),
    ("mu-bar", "--index", "112", "--link"),
    ("lcq", "--q", "3", "--link"),
    ("vanish-up-to", "--weight", "3", "--link"),
    ("massey-sum", "--index", "122121222", "--values"),
)
_CORPUS = {name: text.encode() for name, text in corpus_files().items()}
# (position, byte): replace the byte there, or insert it when the
# position is past the end of the file; byte -1 deletes
_EDITS = st.lists(
    st.tuples(st.integers(0, 400), st.integers(-1, 255)), min_size=1, max_size=4
)


def _mutate(data: bytes, edits) -> bytes:
    out = bytearray(data)
    for pos, byte in edits:
        if byte < 0:
            del out[pos % len(out) : pos % len(out) + 1]
        elif pos < len(out):
            out[pos] = byte
        else:
            out.insert(pos % (len(out) + 1), byte)
    return bytes(out)


class TestMutatedFiles:
    @settings(
        derandomize=True,
        deadline=None,
        max_examples=150,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(st.sampled_from(sorted(_CORPUS)), _EDITS)
    def test_readers_exit_0_2_or_3(self, tmp_path, name, edits):
        # the file is rewritten for every example
        path = tmp_path / name
        path.write_bytes(_mutate(_CORPUS[name], edits))
        for argv in _READERS:
            with redirect_stdout(StringIO()), redirect_stderr(StringIO()):
                code = main([*argv, str(path)])
            assert code in (0, 2, 3), (argv, path.read_bytes())


class TestDepthHandling:
    @pytest.mark.parametrize("name", ["l6.json", "hopf.json", "borromean.braid"])
    @pytest.mark.parametrize(
        "argv",
        [("lcq", "--q", "1"), ("vanish-up-to", "--weight", "0")],
        ids=["lcq", "vanish"],
    )
    def test_explicit_depth_below_two_exit_3(self, corpus_dir, capsys, name, argv):
        verb, *rest = argv
        code, out, err = run(
            capsys, verb, "--link", str(corpus_dir / name), *rest, "--depth", "1"
        )
        assert code == 3
        assert out == ""
        assert "depth must be at least 2" in err

    @pytest.mark.parametrize("name", ["l6.json", "hopf.json", "hopf.braid"])
    def test_degenerate_weights_without_depth(self, corpus_dir, capsys, name):
        # the verbs' own checks answer, whatever the input format
        link = str(corpus_dir / name)
        code, out, err = run(capsys, "lcq", "--link", link, "--q", "1")
        assert code == 3
        assert out == ""
        assert "q must be at least 2" in err
        code, out, _ = run(capsys, "vanish-up-to", "--link", link, "--weight", "0")
        assert code == 0
        assert json.loads(out) == {"all_vanish": True, "weight": 0}

    @pytest.mark.parametrize("verb", ["mu", "mu-bar"])
    def test_weight_equal_to_depth_answers(self, corpus_dir, capsys, verb):
        # mu of weight w is a degree w - 1 coefficient, fixed mod F_w
        link = str(corpus_dir / "hopf.json")
        code, out, err = run(capsys, verb, "--link", link, "--index", "12", "--depth", "2")
        assert (code, err) == (0, "")
        assert json.loads(out)["mu"] == 1
        # a depth-7 longitude-system file answers weight 7
        link = str(corpus_dir / "l6.json")
        code, out, err = run(capsys, "vanish-up-to", "--link", link, "--weight", "7")
        assert (code, err) == (0, "")
        assert json.loads(out) == {"all_vanish": False, "weight": 7}

    def test_weight_20_on_two_components_answers(self, tmp_path, capsys):
        # TERM_BUDGET admits depth 20 on two components, and SUBINDEX_BUDGET
        # the 35,416 rotated subindices of (12)^10
        path = tmp_path / "deep.json"
        path.write_text(json.dumps(
            {"m": 2, "depth": 20, "longitudes": ["x2 x1 x2^-1 x1^-1", "x1 x2 x1^-1 x2^-1"]}
        ))
        code, out, err = run(capsys, "mu-bar", "--link", str(path), "--index", "12" * 10)
        assert (code, err) == (0, "")
        report = json.loads(out)
        assert (report["index"], report["delta"], report["residue"]) == ("12" * 10, 1, 0)

    @pytest.mark.parametrize(
        "argv, weight",
        [
            (("mu", "--link", "borromean.json", "--index", "123"), 3),
            (("mu-bar", "--link", "hopf.json", "--index", "1122"), 4),
            (("delta", "--link", "hopf.braid", "--index", "1122"), 4),
            (("mu-bar", "--link", "borromean.braid", "--index", "1213"), 4),
            (("mu", "--link", "hopf.json", "--index", "12"), 2),
            (("lcq", "--link", "borromean.json", "--q", "3"), 3),
            (("vanish-up-to", "--link", "borromean.json", "--weight", "3"), 3),
            (("find-detector", "--alpha", "l6.json", "--weight", "6", "--type", "F"), 6),
            (("lcq", "--mutant-of", "l6.json", "--type", "F", "--q", "6"), 6),
            (
                (
                    "mutate-report", "--alpha", "l6.json", "--beta", "hopf.json",
                    "--index", "1122", "--type", "R",
                ),
                4,
            ),
        ],
        ids=lambda v: "-".join(a for a in v if a[0] != "-") if isinstance(v, tuple) else f"w{v}",
    )
    def test_depth_option_changes_no_answer(self, corpus_dir, capsys, argv, weight):
        # a weight-w answer is fixed mod F_w, so any --depth >= w prints
        # what the verb prints at its own depth, w
        argv = [str(corpus_dir / a) if "." in a else a for a in argv]
        expected = run(capsys, *argv)
        assert expected[0] == 0
        for depth in (weight, weight + 1, weight + 2):
            assert run(capsys, *argv, "--depth", str(depth)) == expected

    def test_depth_option_truncates_system_file(self, corpus_dir, capsys):
        code, out, _ = run(
            capsys, "mu-bar", "--link", str(corpus_dir / "l6.json"),
            "--index", "1122", "--depth", "5",
        )
        assert code == 0
        assert json.loads(out) == {"delta": 0, "index": "1122", "mu": 0, "residue": 0}

    def test_mutate_report_shares_the_shallower_depth(self, corpus_dir, tmp_path, capsys):
        alpha = tmp_path / "depth4.json"
        alpha.write_text(json.dumps(
            {"m": 2, "depth": 4, "longitudes": ["x2 x1 x2 x1^-1", "x1 x1"]}
        ))
        code, out, _ = run(
            capsys, "mutate-report", "--alpha", str(alpha),
            "--beta", str(corpus_dir / "hopf.json"), "--index", "12", "--depth", "6",
        )
        assert code == 0
        assert json.loads(out) == {
            "congruent": True,
            "index": "12",
            "modulus": 0,
            "mu_alpha": 2,
            "mu_beta_transformed": 1,
            "mu_composite": 3,
            "mutation": None,
            "residue": 3,
        }

    def test_mutate_report_expands_at_the_shallower_depth(
        self, tmp_path, capsys, monkeypatch
    ):
        import mubar.milnor

        bounds = []
        expand = mubar.milnor.magnus_expand

        def recording(w, q):
            bounds.append(q)
            return expand(w, q)

        monkeypatch.setattr(mubar.milnor, "magnus_expand", recording)
        shallow = tmp_path / "depth4.json"
        shallow.write_text(json.dumps(
            {"m": 2, "depth": 4, "longitudes": ["x2 x1 x2 x1^-1", "x1 x1"]}
        ))
        # a 10,000-letter longitude: past WORK_BUDGET if expanded at 20
        deep = tmp_path / "depth20.json"
        deep.write_text(json.dumps(
            {"m": 2, "depth": 20, "longitudes": ["x2 x1 x2^-1 x1^-1 " * 2500, "e"]}
        ))
        for alpha, beta in ((shallow, deep), (deep, shallow)):
            code, out, _ = run(
                capsys, "mutate-report", "--alpha", str(alpha), "--beta", str(beta),
                "--index", "1122", "--depth", "20",
            )
            assert code == 0
            assert json.loads(out)["congruent"] is True
        assert set(bounds) == {4}

    def test_deep_system_file_expanded_at_verb_depth(self, tmp_path, capsys, monkeypatch):
        import mubar.milnor

        bounds = []
        expand = mubar.milnor.magnus_expand

        def recording(w, q):
            bounds.append(q)
            return expand(w, q)

        monkeypatch.setattr(mubar.milnor, "magnus_expand", recording)
        path = tmp_path / "deep.json"
        path.write_text(json.dumps(
            {"m": 2, "depth": 20, "longitudes": ["e", "x2 x1 x2^-1 x1^-1"]}
        ))
        code, out, _ = run(capsys, "mu", "--link", str(path), "--index", "12")
        assert code == 0
        assert json.loads(out) == {"index": "12", "mu": 0}
        assert bounds == [2]

    def test_text_report_with_nested_lists(self, corpus_dir, capsys):
        code, out, _ = run(
            capsys, "--format", "text", "lcq", "--mutant-of", str(corpus_dir / "l6.json"),
            "--type", "FR", "--q", "6",
        )
        assert code == 0
        assert out == (DATA / "lcq_mutant_l6_FR_q6.txt").read_text()


class TestWorkBudget:
    def test_long_longitude_at_depth_13_exit_3(self, tmp_path, capsys):
        # 80,000 letters against the 797,161 terms of m = 3 at depth 13
        path = tmp_path / "long.json"
        path.write_text(json.dumps({
            "m": 3,
            "depth": 13,
            "longitudes": ["x2^20000 x3^20000 x2^-20000 x3^-20000", "e", "e"],
        }))
        code, out, err = run(
            capsys, "mu", "--link", str(path), "--index", "232323232321"
        )
        assert code == 3
        assert out == ""
        assert "WORK_BUDGET = 10000000000" in err

    def test_borromean_pd_at_depth_11_exit_3(self, corpus_dir, capsys):
        # nine rewriting rounds: 185,262 arc letters by 88,573 terms
        code, out, err = run(
            capsys, "mu-bar", "--link", str(corpus_dir / "borromean.json"),
            "--index", "123", "--depth", "11",
        )
        assert (code, out) == (3, "")
        assert "185262 letters" in err and "WORK_BUDGET = 10000000000" in err

    def test_borromean_pd_at_depth_13_exit_3(self, corpus_dir, capsys):
        code, out, err = run(
            capsys, "mu-bar", "--link", str(corpus_dir / "borromean.json"),
            "--index", "123", "--depth", "13",
        )
        assert code == 3
        assert out == ""
        assert "WORK_BUDGET = 10000000000" in err


class TestSubindexBudget:
    @pytest.mark.parametrize("verb", ["mu-bar", "delta"])
    @pytest.mark.parametrize("weight", [400, 1000])
    def test_one_component_long_index_exit_3(self, tmp_path, capsys, verb, weight):
        # TERM_BUDGET admits depth 1,000 on one component; the rotations
        # of 1^k copy about k^3 / 3 letters, and the closure stops once
        # they pass the budget
        path = tmp_path / "one.json"
        path.write_text(json.dumps({"m": 1, "depth": 1000, "longitudes": ["e"]}))
        start = time.process_time()
        code, out, err = run(capsys, verb, "--link", str(path), "--index", "1" * weight)
        assert time.process_time() - start < 0.5
        assert (code, out) == (3, "")
        assert err == (
            f"mubar: precondition violated: the cyclic subindices of an index of "
            f"weight {weight} have more than SUBINDEX_BUDGET = 10000000 letters\n"
        )

    def test_readme_names_the_budget(self):
        text = README.read_text()
        assert "`mubar.milnor.SUBINDEX_BUDGET` = 10,000,000" in text
        # every cap the exit-code paragraph names, at its live value
        named = re.findall(r"`mubar\.(\w+)\.(\w+)` = ([\d,^]*\d)", text)
        assert sorted((module, name) for module, name, _ in named) == [
            ("brackets", "WEIGHT_CAP"),
            ("links", "STRAND_LETTER_BUDGET"),
            ("magnus", "SYSTEM_TERM_BUDGET"),
            ("magnus", "TERM_BUDGET"),
            ("magnus", "WORK_BUDGET"),
            ("milnor", "SUBINDEX_BUDGET"),
            ("words", "LETTER_BUDGET"),
        ]
        for module, name, value in named:
            base, _, power = value.replace(",", "").partition("^")
            live = getattr(importlib.import_module(f"mubar.{module}"), name)
            assert int(base) ** int(power or 1) == live, name


def _loaded_at_import(*names) -> str:
    # -S skips site, which on some hosts loads these through .pth hooks
    probe = f"import sys, mubar.cli; print(sorted({set(names)!r} & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run(
        [sys.executable, "-S", "-c", probe], env=env, capture_output=True, text=True
    )
    assert (done.returncode, done.stderr) == (0, "")
    return done.stdout


class TestStartup:
    def test_import_loads_neither_typing_nor_pathlib(self):
        assert _loaded_at_import("typing", "pathlib") == "[]\n"

    def test_import_does_not_load_random(self):
        # corpus names random.Random in annotations only
        assert _loaded_at_import("random") == "[]\n"


class TestPathsAsPathlibSpellsThem:
    # reads and corpus-install name files as pathlib normalizes the
    # argument ("./a" as "a", "a/" as "a"); stderr and the written list
    # are part of the contract.  An empty path is no file, as for open().
    @pytest.mark.parametrize(
        "arg, shown",
        [("./nope.json", "nope.json"), ("nope.json", "nope.json"), ("sub//nope.json", "sub/nope.json")],
    )
    def test_missing_file_message(self, tmp_path, monkeypatch, capsys, arg, shown):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        message = f"mubar: [Errno 2] No such file or directory: {shown!r}\n"
        assert run(capsys, "mu", "--link", arg, "--index", "12") == (2, "", message)
        code, out, err = run(capsys, "massey-sum", "--index", "12", "--values", arg)
        assert (code, out, err) == (2, "", message)

    def test_directory_and_trailing_slash(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        (tmp_path / "star.json").write_text('{"lk(x,y)": 2}')
        for arg, shown in (("sub/", "sub"), ("./sub", "sub")):
            code, out, err = run(capsys, "massey-sum", "--index", "12", "--values", arg)
            assert (code, out, err) == (2, "", f"mubar: [Errno 21] Is a directory: {shown!r}\n")
        code, out, err = run(capsys, "massey-sum", "--index", "12", "--values", "")
        assert (code, out, err) == (2, "", "mubar: [Errno 2] No such file or directory: ''\n")
        code, out, err = run(capsys, "massey-sum", "--index", "12", "--values", "star.json/")
        assert (code, err) == (0, "")
        assert json.loads(out)["value"] == 2

    def test_empty_path_is_no_file(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        message = "mubar: [Errno 2] No such file or directory: ''\n"
        assert run(capsys, "mu", "--link", "", "--index", "12") == (2, "", message)
        assert run(capsys, "corpus-install", "") == (2, "", message)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("arg, shown", [("./dir", "dir"), ("dir/", "dir"), ("./a//b/", "a/b")])
    def test_corpus_install_written(self, tmp_path, monkeypatch, capsys, arg, shown):
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, "corpus-install", arg)
        assert (code, err) == (0, "")
        written = json.loads(out)["written"]
        assert written and all(w.startswith(shown + "/") for w in written)
        assert all((tmp_path / w).is_file() for w in written)


# "{c}" stands for the corpus directory
ORACLE_ARGV = [
    ["mu", "--link", "{c}/hopf.json", "--index", "12"],
    ["delta", "--link", "{c}/hopf.json", "--index", "1122"],
    ["mu-bar", "--link", "{c}/borromean.json", "--index", "123"],
    ["vanish-up-to", "--link", "{c}/borromean.json", "--weight", "2"],
    ["mutate-report", "--alpha", "{c}/hopf.json", "--beta", "{c}/hopf.json", "--index", "12", "--type", "F"],
    ["find-detector", "--alpha", "{c}/l6.json", "--weight", "6", "--type", "F"],
    ["massey-sum", "--index", "122121222", "--values", "{c}/star.json"],
    ["lcq", "--link", "{c}/borromean.json", "--q", "3"],
    ["corpus-install", "{c}/again"],
    *([verb, "-h"] for verb in ("mu", "delta", "mu-bar", "vanish-up-to", "mutate-report",
                                "find-detector", "massey-sum", "lcq", "corpus-install")),
    ["--format=text", "mu", "--link", "{c}/hopf.json", "--index", "12"],
    ["--form", "text", "mu", "--link", "{c}/hopf.json", "--index", "12"],
    ["--format", "xml", "mu", "--link", "{c}/hopf.json", "--index", "12"],
    ["mu", "--link", "{c}/hopf.json", "--index", "12", "extra"],
    ["mu", "--link", "{c}/hopf.json"],
    ["lcq", "--link", "{c}/borromean.json", "--q", "three"],
    ["lcq", "--mutant-of", "{c}/l6.json", "--type", "Q", "--q", "6"],
]


class TestOneVerbParser:
    @pytest.mark.parametrize("argv", ORACLE_ARGV, ids=[" ".join(a) for a in ORACLE_ARGV])
    def test_same_as_full_parser(self, corpus_dir, capsys, monkeypatch, argv):
        argv = [a.replace("{c}", str(corpus_dir)) for a in argv]
        if argv[0] != "--form":  # abbreviations take the full parser
            assert cli._invoked_verb(argv) in cli._VERB_NAMES
        one_verb = run(capsys, *argv)
        monkeypatch.setattr(cli, "_invoked_verb", lambda argv: None)
        assert run(capsys, *argv) == one_verb


def _module_run(argv, **kwargs):
    """``python -m mubar.cli ARGV`` with this checkout's sources."""
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, "-m", "mubar.cli", *argv], env=env, **kwargs)


class TestEntry:
    @pytest.mark.parametrize(
        "argv, code",
        [
            (["mu", "--link", "{c}/hopf.json", "--index", "12"], 0),
            (["mu", "--link", "{c}/hopf.json"], 1),
            (["mu", "--link", "{c}/none.json", "--index", "12"], 2),
            (["mu", "--link", "{c}/hopf.json", "--index", "123"], 3),
        ],
    )
    def test_module_run_is_main(self, corpus_dir, capsys, argv, code):
        argv = [a.replace("{c}", str(corpus_dir)) for a in argv]
        in_process = run(capsys, *argv)
        assert in_process[0] == code
        assert gc.get_freeze_count() == 0  # only the process entry freezes
        done = _module_run(argv, capture_output=True, text=True)
        assert (done.returncode, done.stdout, done.stderr) == in_process

    def test_closed_stdout_exits_1_without_traceback(self, corpus_dir):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            argv = ["mu", "--link", str(corpus_dir / "hopf.json"), "--index", "12"]
            done = _module_run(argv, stdout=write_end, stderr=subprocess.PIPE)
        finally:
            os.close(write_end)
        assert (done.returncode, done.stderr) == (1, b"")


def readme_commands() -> list[list[str]]:
    """argv of every ``mubar`` line in the README's CLI block, bar the install."""
    block = README.read_text().split("```sh\nmubar corpus-install", 1)[1]
    block = block.split("```", 1)[0].replace("\\\n", " ")
    commands = []
    for line in block.splitlines():
        words = line.split("#", 1)[0].split()
        if words and words[0] == "mubar":
            commands.append(words[1:])
    return commands


class TestReadmeExamples:
    def test_recorded_examples_are_the_readme_ones(self):
        assert readme_commands() == [e["argv"] for e in README_EXAMPLES]

    @pytest.mark.parametrize("fmt", ["json", "text"])
    @pytest.mark.parametrize(
        "example",
        README_EXAMPLES,
        ids=[" ".join(e["argv"]).replace("/tmp/corpus/", "") for e in README_EXAMPLES],
    )
    def test_stdout_unchanged(self, corpus_dir, capsys, example, fmt):
        argv = [a.replace("/tmp/corpus", str(corpus_dir)) for a in example["argv"]]
        code, out, err = run(capsys, "--format", fmt, *argv)
        assert (code, err) == (0, "")
        assert out == example[fmt]


class TestMasseySumStdout:
    @pytest.mark.parametrize("index", list(MASSEY_SUM_STDOUT))
    def test_stdout_unchanged(self, capsys, index):
        code, out, err = run(capsys, "massey-sum", "--index", index)
        assert (code, err) == (0, "")
        assert out == MASSEY_SUM_STDOUT[index]


def _commutator_braid_text(rng: random.Random, strands: int, count: int) -> str:
    # count left-normed commutators [a, b, c] of random generators A_ij^+-1,
    # ten letters each
    pairs = [(i, j) for i in range(1, strands + 1) for j in range(i + 1, strands + 1)]
    letters = []
    for _ in range(count):
        word = []
        for _ in range(3):
            g = (*rng.choice(pairs), rng.choice((1, -1)))
            if word:
                inv = [(i, j, -e) for i, j, e in reversed(word)]
                word = inv + [(g[0], g[1], -g[2])] + word + [g]
            else:
                word = [g]
        letters += word
    tokens = [f"A{i}{j}" + ("" if e == 1 else "^-1") for i, j, e in letters]
    return f"{strands}; " + " ".join(tokens) + "\n"


class TestStrandLetterBudget:
    @pytest.mark.parametrize(
        "text, named",
        [
            ("20000; " + " ".join(["A12 A12^-1"] * 100) + "\n", "20000 strands by 200 letters"),
            ("300; " + " ".join(["A12 A12^-1"] * 5000) + "\n", "300 strands by 10000 letters"),
        ],
        ids=["20000-strands", "10000-letters"],
    )
    def test_wide_or_long_braid_exit_3(self, tmp_path, capsys, text, named):
        # composed letter by letter, these took 18 s and 11 s
        path = tmp_path / "wide.braid"
        path.write_text(text)
        start = time.process_time()
        code, out, err = run(capsys, "lcq", "--link", str(path), "--q", "2")
        assert time.process_time() - start < 1
        assert (code, out) == (3, "")
        assert err == (
            f"mubar: precondition violated: {named} is more than "
            "STRAND_LETTER_BUDGET = 1000000 for the Artin route\n"
        )


class TestSystemTermBudget:
    def test_wide_longitudes_exit_3(self, tmp_path, capsys):
        # each of 12,000 longitudes would expand in 12,000 variables: about
        # 144 million terms, 1.15 GB, where one series is within TERM_BUDGET
        m = 12_000
        longitudes = ["e", *[f"x{m} x1 x{m}^-1 x1^-1"] * (m - 2), "e"]
        path = tmp_path / "wide.json"
        path.write_text(json.dumps({"m": m, "depth": 2, "longitudes": longitudes}))
        start = time.process_time()
        code, out, err = run(capsys, "lcq", "--link", str(path), "--q", "2")
        assert time.process_time() - start < 1
        assert (code, out) == (3, "")
        assert err == (
            "mubar: precondition violated: 12000 series of degree bound 2 hold "
            "143988002 terms, more than SYSTEM_TERM_BUDGET = 8388608\n"
        )

    def test_pd_route_exit_3(self, corpus_dir, capsys, monkeypatch):
        # a refusal past the budget, not a malformed PD code (exit 2)
        monkeypatch.setattr("mubar.magnus.SYSTEM_TERM_BUDGET", 4)
        code, out, err = run(capsys, "mu", "--link", str(corpus_dir / "hopf.json"), "--index", "12")
        assert (code, out) == (3, "")
        assert err == (
            "mubar: precondition violated: 2 series of degree bound 2 hold "
            "5 terms, more than SYSTEM_TERM_BUDGET = 4\n"
        )


_LONG = "x" * 100_000


class TestLongArgv:
    # argparse quotes an offending value whole; the parser cuts it as
    # errors.shown does
    @pytest.mark.parametrize(
        "argv, quoted",
        [
            (["--format", _LONG, "mu", "--link", "a", "--index", "12"], _LONG),
            ([_LONG], _LONG),
            (["lcq", "--link", "a", "--q", "2", "--type", _LONG], _LONG),
            (["lcq", "--link", "a", "--q", "9" * 5000], "9" * 5000),
        ],
        ids=["format", "verb", "lcq-type", "lcq-q"],
    )
    def test_quoted_value_is_cut(self, capsys, argv, quoted):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert len(err.encode()) < 400
        assert f": {shown(quoted)}" in err

    # argparse joins unrecognized arguments unquoted; each one is cut
    @pytest.mark.parametrize("extra", [[_LONG], ["--", _LONG]], ids=["extra", "after-dashes"])
    def test_unrecognized_argument_is_cut(self, capsys, extra):
        code, out, err = run(capsys, "mu", "--link", "a", "--index", "12", *extra)
        assert (code, out) == (1, "")
        assert len(err.encode()) < 400
        assert "unrecognized arguments: " in err
        assert err.endswith(f"{shown(_LONG, is_repr=True)}\n")


class TestArtinLetterBudget:
    def test_commutator_braid_exit_3(self, tmp_path, capsys):
        # Artin images of this 100-letter braid in Gamma_3(P_4) pass
        # 100,000 letters at its 27th letter and grow exponentially after
        text = _commutator_braid_text(random.Random(2), 4, 10)
        assert len(text.split()) == 101
        path = tmp_path / "gamma3.braid"
        path.write_text(text)
        code, out, err = run(capsys, "lcq", "--link", str(path), "--q", "3")
        assert code == 3
        assert out == ""
        assert "LETTER_BUDGET = 100000" in err
