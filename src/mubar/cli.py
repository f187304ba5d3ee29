"""Command-line interface.

Every verb is a thin shell over one library operation and emits a JSON
report on stdout (sorted keys, canonical term orders, so identical
invocations are byte-identical); ``--format text`` renders the same
report as indented key/value lines.  Exit codes: 0 success, 1 bad
usage, 2 unparsable input file, 3 violated precondition.

Link inputs may be longitude-system JSON ({m, depth, longitudes}),
PD-code JSON ({m, components, crossings}) or braid text (``n; A12
...``); each is read at the depth the requested computation needs
unless ``--depth`` overrides it, and a deeper longitude-system file is
truncated to that depth.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import corpus
from .brackets import evaluate_detailed, massey_sum
from .errors import ParseError, PreconditionError, strict_int
from .links import artin_longitudes, load_pd, longitudes_mod_q, parse_braid
from .milnor import (
    LongitudeSystem,
    all_vanish_up_to,
    delta,
    format_index,
    mu,
    mu_bar,
    parse_index,
)
from .mutation import MUTATION_TYPES, find_detector, mutant_mu
from .surgery import lcq_is_free, mutative_pair_report
from .words import parse_word

class UsageError(Exception):
    """Usage problems detected after argparse (still exit code 1)."""


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the contract reserves 2 for
    # input-file parse errors and uses 1 for bad usage.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _read_text(path: str) -> str:
    """The text of a file, read and reported as pathlib.Path would.

    pathlib costs start-up time, so only a failed open falls back to it:
    it opens the normalized path ("./a" as "a", "a/" as "a", "" as "."),
    and its outcome and error message name that path.
    """
    try:
        with open(path) as f:
            return f.read()
    except OSError:
        from pathlib import Path

        return Path(path).read_text()


def load_system(path: str, depth: int) -> LongitudeSystem:
    """Read a longitude system from any of the three input formats."""
    text = _read_text(path)
    stripped = text.lstrip()
    if not stripped:
        raise ParseError(f"{path}: empty input")
    if stripped.startswith("{"):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
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
    return artin_longitudes(parse_braid(text), depth)


def _load(path: str, args, minimum: int) -> LongitudeSystem:
    """Load at ``--depth`` (never below ``minimum``) or else at ``minimum``.

    A deeper longitude-system file is truncated to that depth, so its
    words are expanded no deeper than the verb reads them.
    """
    depth = minimum if args.depth is None else args.depth
    if depth < minimum:
        raise PreconditionError(f"--depth {depth} is below the required {minimum}")
    system = load_system(path, depth)
    if depth < system.depth:
        # A minimum below 2 (lcq --q 1, vanish-up-to --weight 0) is left
        # to the verb's own check; only an explicit --depth is refused.
        system = system.truncate(max(depth, 2) if args.depth is None else depth)
    return system


def cmd_mu(args) -> dict:
    index = parse_index(args.index)
    system = _load(args.link, args, len(index) + 1)
    return {
        "index": format_index(index),
        "mu": mu(system, index),
    }


def cmd_delta(args) -> dict:
    index = parse_index(args.index)
    system = _load(args.link, args, len(index) + 1)
    return {
        "index": format_index(index),
        "delta": delta(system, index),
    }


def cmd_mu_bar(args) -> dict:
    index = parse_index(args.index)
    system = _load(args.link, args, len(index) + 1)
    value = mu_bar(system, index)
    return {
        "index": format_index(index),
        "mu": value.mu,
        "delta": value.delta,
        "residue": value.residue,
    }


def cmd_vanish_up_to(args) -> dict:
    system = _load(args.link, args, args.weight + 1)
    return {
        "weight": args.weight,
        "all_vanish": all_vanish_up_to(system, args.weight),
    }


def cmd_mutate_report(args) -> dict:
    index = parse_index(args.index)
    alpha = _load(args.alpha, args, len(index) + 1)
    beta = _load(args.beta, args, len(index) + 1)
    if alpha.depth != beta.depth:
        shared = min(alpha.depth, beta.depth)
        alpha, beta = alpha.truncate(shared), beta.truncate(shared)
    return mutant_mu(alpha, beta, index, args.type).to_json()


def cmd_find_detector(args) -> dict:
    alpha = _load(args.alpha, args, args.weight + 1)
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
        try:
            values = json.loads(_read_text(args.values))
        except json.JSONDecodeError as exc:
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
        alpha = _load(args.mutant_of, args, args.q + 1)
        return mutative_pair_report(alpha, args.q, args.type).to_json()
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
    elif isinstance(data, list):
        for item in data:
            if isinstance(item, (dict, list)):
                lines.extend(_render_text(item, indent + 1))
                lines.append("")
            else:
                lines.append(f"{pad}- {item}")
        while lines and lines[-1] == "":
            lines.pop()
    else:
        lines.append(f"{pad}{data}")
    return lines


def emit(report: dict, fmt: str):
    if fmt == "json":
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print("\n".join(_render_text(report)))


def build_parser() -> _Parser:
    parser = _Parser(
        prog="mubar",
        description="Milnor mu-bar invariants, mutation calculus and "
        "minimal linkings",
    )
    parser.add_argument(
        "--format", choices=("json", "text"), default="json",
        help="output format (text is derived from the JSON report)",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_link_verb(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--link", required=True, help="system/PD/braid file")
        p.add_argument("--index", required=True, help="index sequence, e.g. 1122")
        p.add_argument("--depth", type=int, help="expansion depth override")
        p.set_defaults(func=func)
        return p

    add_link_verb("mu", cmd_mu, "Milnor mu of one index")
    add_link_verb("delta", cmd_delta, "indeterminacy of one index")
    add_link_verb("mu-bar", cmd_mu_bar, "mu, Delta and the residue")

    p = sub.add_parser("vanish-up-to", help="do all residues of weight <= q vanish")
    p.add_argument("--link", required=True)
    p.add_argument("--weight", type=int, required=True)
    p.add_argument("--depth", type=int)
    p.set_defaults(func=cmd_vanish_up_to)

    p = sub.add_parser("mutate-report", help="connected-sum / mutant congruence report")
    p.add_argument("--alpha", required=True)
    p.add_argument("--beta", required=True)
    p.add_argument("--index", required=True)
    p.add_argument("--type", choices=MUTATION_TYPES)
    p.add_argument("--depth", type=int)
    p.set_defaults(func=cmd_mutate_report)

    p = sub.add_parser("find-detector", help="indices with mu(I) != mu(I^tau)")
    p.add_argument("--alpha", required=True)
    p.add_argument("--weight", type=int, required=True)
    p.add_argument("--type", choices=MUTATION_TYPES, required=True)
    p.add_argument("--depth", type=int)
    p.set_defaults(func=cmd_find_detector)

    p = sub.add_parser("massey-sum", help="bracket expansion of mu-bar(I)")
    p.add_argument("--index", required=True)
    p.add_argument("--values", help="JSON file of minimal-linking values")
    p.set_defaults(func=cmd_massey_sum)

    p = sub.add_parser("lcq", help="free-nilpotence of the surgery group quotient")
    p.add_argument("--link")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--mutant-of", dest="mutant_of", help="alpha file for the mutative pair")
    p.add_argument("--type", choices=MUTATION_TYPES)
    p.add_argument("--depth", type=int)
    p.set_defaults(func=cmd_lcq)

    p = sub.add_parser("corpus-install", help="write the bundled corpus files")
    p.add_argument("directory")
    p.set_defaults(func=cmd_corpus_install)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
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


if __name__ == "__main__":
    raise SystemExit(main())
