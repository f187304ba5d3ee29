"""Command-line interface.

Every verb is a thin shell over one library operation and emits a JSON
report on stdout (sorted keys, canonical term orders, so identical
invocations are byte-identical); ``--format text`` renders the same
report as indented key/value lines.  Exit codes: 0 success, 1 bad
usage, 2 unparsable input file (including one that is not UTF-8 or
nests JSON too deeply), 3 violated precondition.

Link inputs may be longitude-system JSON ({m, depth, longitudes}),
PD-code JSON ({m, components, crossings}) or braid text (``n; A12
...``), which is read as the PD code of its closure, so diagrams and
braids share one rewriting pipeline; each is read at the depth the
requested computation needs,
which is its weight (Milnor's bound, see mubar.milnor), never below
depth 2, unless ``--depth`` overrides it, and a deeper longitude-system
file is truncated to that depth.

Start-up and exit cost more than most verbs, so ``main`` builds the
parser of the invoked verb alone, and the process entry (``python -m
mubar.cli`` and the ``mubar`` script) freezes the garbage collector once
``main`` returns: the interpreter's exit then skips its final passes
over every object start-up allocated.  ``main`` never freezes, since
tests call it in-process.  The verbs' modules stay imported at module level: ``import
mubar.cli`` loads every module a verb uses, which the benchmark's tracer
relies on, and per-verb imports would save only a millisecond or two.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import re
import sys

from . import corpus
from .brackets import evaluate_detailed, massey_sum
from .errors import ParseError, PreconditionError, shown, strict_int
from .links import braid_closure_pd, load_pd, longitudes_mod_q, parse_braid
from .magnus import check_term_budget
from .milnor import (
    LongitudeSystem,
    all_vanish_up_to,
    delta,
    format_index,
    mu,
    mu_bar,
    parse_index,
)
from .mutation import MUTATION_TYPES, find_detector, mutant_mu, mutative_pair_report
from .surgery import lcq_is_free
from .words import parse_word

class UsageError(Exception):
    """Usage problems detected after argparse (still exit code 1)."""


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the contract reserves 2 for
    # input-file parse errors and uses 1 for bad usage.  It quotes an
    # offending value whole, as the repr of a string, and shown() cuts it.
    _quoted = re.compile(r"""'(?:[^'\\]|\\.)*'|"(?:[^"\\]|\\.)*\"""")

    def parse_args(self, args=None, namespace=None):
        # argparse joins unrecognized arguments unquoted; cut each one
        args, extras = self.parse_known_args(args, namespace)
        if extras:
            self.error("unrecognized arguments: " + " ".join(
                shown(a, is_repr=True) for a in extras
            ))
        return args

    def error(self, message):
        self.print_usage(sys.stderr)
        message = self._quoted.sub(lambda q: shown(q[0], is_repr=True), message)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _read_text(path: str) -> str:
    """The UTF-8 text of a file, read and reported as pathlib.Path would.

    pathlib costs start-up time, so only a failed open falls back to it:
    it opens the normalized path ("./a" as "a", "a/" as "a"), and its
    outcome and error message name that path.  An empty path is no file,
    not the working directory that pathlib reads it as.  Bytes that are
    not UTF-8 are a ParseError naming ``path``, whatever the locale.
    """
    try:
        try:
            with open(path, encoding="utf-8") as f:
                return f.read()
        except OSError:
            if not path:
                raise
            from pathlib import Path

            return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def load_system(path: str, depth: int) -> LongitudeSystem:
    """Read a longitude system from any of the three input formats."""
    text = _read_text(path)
    stripped = text.lstrip()
    if not stripped:
        raise ParseError(f"{path}: empty input")
    if stripped.startswith("{"):
        try:
            data = json.loads(text)
        except (ValueError, RecursionError) as exc:
            # malformed JSON, nesting past the recursion limit, or an
            # integer longer than int() converts
            raise ParseError(f"{path}: {exc}") from exc
        if "longitudes" in data:
            words = data["longitudes"]
            if not isinstance(words, list) or not all(
                isinstance(w, str) for w in words
            ):
                raise ParseError(f"{path}: longitudes must be a list of words")
            try:
                system = LongitudeSystem(
                    m=strict_int(data["m"], f"{path}: m"),
                    depth=strict_int(data["depth"], f"{path}: depth"),
                    longitudes=tuple(parse_word(w) for w in words),
                )
            except (KeyError, TypeError, ValueError) as exc:
                if isinstance(exc, (ParseError, PreconditionError)):
                    raise
                raise ParseError(f"{path}: {exc}") from exc
            return system
        if "crossings" in data:
            return longitudes_mod_q(load_pd(data), depth)
        raise ParseError(
            f"{path}: JSON is neither a longitude system nor a PD code"
        )
    braid = parse_braid(text)
    # the depth's own bound first, as for the other formats, then the
    # closure's size before it is built
    check_term_budget(braid.strands, depth)
    return longitudes_mod_q(braid_closure_pd(braid), depth)


def _load(path: str, args, minimum: int) -> LongitudeSystem:
    """Load at ``--depth`` (never below ``minimum``), else at max(minimum, 2).

    The floor of 2 lets a degenerate weight (lcq --q 1, vanish-up-to
    --weight 0) meet the verb's own check in every format.  A deeper
    longitude-system file is truncated to the depth, so its words are
    expanded no deeper than the verb reads them.
    """
    depth = max(minimum, 2) if args.depth is None else args.depth
    if depth < minimum:
        raise PreconditionError(
            f"--depth {shown(depth)} is below the required {shown(minimum)}"
        )
    system = load_system(path, depth)
    if depth < system.depth:
        system = system.truncate(depth)
    return system


def cmd_mu(args) -> dict:
    index = parse_index(args.index)
    system = _load(args.link, args, len(index))
    return {
        "index": format_index(index),
        "mu": mu(system, index),
    }


def cmd_delta(args) -> dict:
    index = parse_index(args.index)
    system = _load(args.link, args, len(index))
    return {
        "index": format_index(index),
        "delta": delta(system, index),
    }


def cmd_mu_bar(args) -> dict:
    index = parse_index(args.index)
    system = _load(args.link, args, len(index))
    value = mu_bar(system, index)
    return {
        "index": format_index(index),
        "mu": value.mu,
        "delta": value.delta,
        "residue": value.residue,
    }


def cmd_vanish_up_to(args) -> dict:
    system = _load(args.link, args, args.weight)
    return {
        "weight": args.weight,
        "all_vanish": all_vanish_up_to(system, args.weight),
    }


def cmd_mutate_report(args) -> dict:
    index = parse_index(args.index)
    alpha = _load(args.alpha, args, len(index))
    beta = _load(args.beta, args, len(index))
    return mutant_mu(alpha, beta, index, args.type).to_json()


def cmd_find_detector(args) -> dict:
    alpha = _load(args.alpha, args, args.weight)
    detectors = find_detector(alpha, args.weight, args.type)
    return {
        "weight": args.weight,
        "mutation": args.type,
        "detectors": [format_index(d) for d in detectors],
    }


def cmd_massey_sum(args) -> dict:
    index = parse_index(args.index)
    expr = massey_sum(index)
    out = {
        "index": format_index(index),
        "terms": expr.to_json(),
    }
    if args.values is not None:
        text = _read_text(args.values)
        try:
            values = json.loads(text)
        except (ValueError, RecursionError) as exc:
            raise ParseError(f"{args.values}: {exc}") from exc
        total, missing = evaluate_detailed(expr, values)
        out["value"] = total
        out["defaulted_to_zero"] = missing
        # the numeric reading presumes the link admits a surface system
        # of this weight; that hypothesis is the caller's to assert
        out["assumes_surface_system_of_weight"] = len(index)
    return out


def cmd_lcq(args) -> dict:
    if (args.link is None) == (args.mutant_of is None):
        raise UsageError(
            "exactly one of --link and --mutant-of is required"
        )
    if args.mutant_of is not None:
        if args.type is None:
            raise UsageError("--mutant-of needs --type")
        alpha = _load(args.mutant_of, args, args.q)
        return mutative_pair_report(alpha, args.q, args.type).to_json()
    if args.type is not None:
        raise UsageError("--type needs --mutant-of")
    system = _load(args.link, args, args.q)
    return lcq_is_free(system, args.q).to_json()


def cmd_corpus_install(args) -> dict:
    return {"written": corpus.corpus_install(args.directory)}


def _render_text(data, indent: int = 0) -> list[str]:
    pad = "  " * indent
    lines: list[str] = []
    if isinstance(data, dict):
        for key in sorted(data):
            value = data[key]
            if isinstance(value, (dict, list)):
                lines.append(f"{pad}{key}:")
                lines.extend(_render_text(value, indent + 1))
            else:
                lines.append(f"{pad}{key}: {value}")
    else:
        for item in data:
            if isinstance(item, (dict, list)):
                lines.extend(_render_text(item, indent + 1))
                lines.append("")
            else:
                lines.append(f"{pad}- {item}")
        while lines and lines[-1] == "":
            lines.pop()
    return lines


def emit(report: dict, fmt: str):
    if fmt == "json":
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print("\n".join(_render_text(report)))


def _arg(*flags, **kwargs):
    return flags, kwargs


_DEPTH = _arg("--depth", type=int)
_LINK_AND_INDEX = (
    _arg("--link", required=True, help="system/PD/braid file"),
    _arg("--index", required=True, help="index sequence, e.g. 1122"),
    _arg("--depth", type=int, help="expansion depth override"),
)
_MUTATION_TYPE = _arg("--type", choices=MUTATION_TYPES)

# (name, help, handler, arguments) of every verb, in help order
VERBS = (
    ("mu", "Milnor mu of one index", cmd_mu, _LINK_AND_INDEX),
    ("delta", "indeterminacy of one index", cmd_delta, _LINK_AND_INDEX),
    ("mu-bar", "mu, Delta and the residue", cmd_mu_bar, _LINK_AND_INDEX),
    ("vanish-up-to", "do all residues of weight <= q vanish", cmd_vanish_up_to, (
        _arg("--link", required=True),
        _arg("--weight", type=int, required=True),
        _DEPTH,
    )),
    ("mutate-report", "connected-sum / mutant congruence report", cmd_mutate_report, (
        _arg("--alpha", required=True),
        _arg("--beta", required=True),
        _arg("--index", required=True),
        _MUTATION_TYPE,
        _DEPTH,
    )),
    ("find-detector", "indices with mu(I) != mu(I^tau)", cmd_find_detector, (
        _arg("--alpha", required=True),
        _arg("--weight", type=int, required=True),
        _arg("--type", choices=MUTATION_TYPES, required=True),
        _DEPTH,
    )),
    ("massey-sum", "bracket expansion of mu-bar(I)", cmd_massey_sum, (
        _arg("--index", required=True),
        _arg("--values", help="JSON file of minimal-linking values"),
    )),
    ("lcq", "free-nilpotence of the surgery group quotient", cmd_lcq, (
        _arg("--link"),
        _arg("--q", type=int, required=True),
        _arg("--mutant-of", dest="mutant_of", help="alpha file for the mutative pair"),
        _MUTATION_TYPE,
        _DEPTH,
    )),
    ("corpus-install", "write the bundled corpus files", cmd_corpus_install, (
        _arg("directory"),
    )),
)
_VERB_NAMES = frozenset(name for name, *_ in VERBS)
# what argparse shows for the subparsers when all verbs are its choices
_VERB_METAVAR = "{" + ",".join(name for name, *_ in VERBS) + "}"


def build_parser(verb: str | None = None) -> _Parser:
    """The parser of every verb, or of ``verb`` alone.

    A one-verb parser pins the subparsers' metavar to the full list, so
    its top-level usage line (shown on a bad ``--format`` or an extra
    argument) is the full parser's.
    """
    parser = _Parser(
        prog="mubar",
        description="Milnor mu-bar invariants, mutation calculus and "
        "minimal linkings",
    )
    parser.add_argument(
        "--format", choices=("json", "text"), default="json",
        help="output format (text is derived from the JSON report)",
    )
    if verb is None:
        sub = parser.add_subparsers(dest="verb", required=True)
    else:
        sub = parser.add_subparsers(dest="verb", required=True, metavar=_VERB_METAVAR)
    for name, help_text, func, arguments in VERBS:
        if verb is None or name == verb:
            p = sub.add_parser(name, help=help_text)
            for flags, kwargs in arguments:
                p.add_argument(*flags, **kwargs)
            p.set_defaults(func=func)
    return parser


def _invoked_verb(argv: list[str]) -> str | None:
    """The verb of ``VERB ...`` or ``--format F VERB ...``, else None.

    Only these argv get a one-verb parser; any other (help before the
    verb, no verb, an unknown one) needs the full parser's messages.
    """
    if argv[:1] == ["--format"]:
        argv = argv[2:]
    elif argv[:1] and argv[0].startswith("--format="):
        argv = argv[1:]
    return argv[0] if argv and argv[0] in _VERB_NAMES else None


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser(_invoked_verb(argv))
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        report = args.func(args)
    except UsageError as exc:
        print(f"mubar: error: {exc}", file=sys.stderr)
        return 1
    except ParseError as exc:
        print(f"mubar: parse error: {exc}", file=sys.stderr)
        return 2
    except PreconditionError as exc:
        print(f"mubar: precondition violated: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"mubar: {exc}", file=sys.stderr)
        return 2
    emit(report, args.format)
    return 0


def entry() -> int:
    """Run ``main()`` as the ``mubar`` script or ``python -m mubar.cli``.

    A reader that closed stdout early (``mubar ... | head -1``) ends the
    process with exit 1 and no traceback.  The collector is frozen before
    the process exits, so it skips its final passes over everything
    start-up allocated; ``main`` itself never freezes.
    """
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the pattern of the signal module's note on SIGPIPE: the
        # interpreter's own flush at exit must not fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        code = 1
    gc.freeze()
    return code


if __name__ == "__main__":
    raise SystemExit(entry())
