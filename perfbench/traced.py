"""Run one mubar CLI invocation with spans recorded at module boundaries.

    python perfbench/traced.py SPANS_FILE VERB [ARGS...]

Before the verb runs, every function in SPANS is replaced, in each mubar
module that holds a reference to it, by a wrapper recording
``[name, start, end, depth]`` where depth counts the enclosing wrapped
calls.  ``NCSeries.coefficient`` is only counted, since the residue scans
call it millions of times.  Spans and counts stay in memory and are
written to SPANS_FILE as JSON when the verb returns.  None of the wrapped
functions calls itself, so a span never encloses one of its own name.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

SPANS = (
    ("mubar.words", "parse_word"),
    ("mubar.links", "longitudes_mod_q"),
    ("mubar.links", "artin_longitudes"),
    ("mubar.magnus", "magnus_expand"),
    ("mubar.magnus", "lcs_depth"),
    ("mubar.milnor", "mu_bar"),
    ("mubar.milnor", "all_vanish_up_to"),
    ("mubar.surgery", "lcq_is_free"),
    ("mubar.mutation", "find_detector"),
    ("mubar.brackets", "canonicalize"),
    ("mubar.brackets", "parenthesizations"),
    ("mubar.brackets", "massey_sum"),
    ("mubar.brackets", "evaluate_detailed"),
    ("mubar.cli", "load_system"),
    ("mubar.cli", "emit"),
    ("mubar.corpus", "corpus_install"),
)


def _letters(args, result) -> dict:
    return {"longitude_letters": sum(len(w) for w in result.longitudes)}


# Counts taken from a wrapped call's arguments and result.
MEASURES = {
    "links.longitudes_mod_q": _letters,
    "links.artin_longitudes": _letters,
    "magnus.magnus_expand": lambda args, result: {"expand_letters": len(args[0])},
}


def install(spans: list, counts: dict) -> None:
    """Wrap every SPANS function and count coefficient reads."""
    import mubar.cli  # noqa: F401  (imports every module the verbs use)
    from mubar.magnus import NCSeries

    stack: list[str] = []
    modules = [m for n, m in sys.modules.items() if n == "mubar" or n.startswith("mubar.")]

    def wrap(name, fn):
        measure = MEASURES.get(name)

        def traced(*args, **kwargs):
            start = perf_counter()
            depth = len(stack)
            stack.append(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans.append([name, start, perf_counter(), depth])
            if measure is not None:
                for key, n in measure(args, result).items():
                    counts[key] = counts.get(key, 0) + n
            return result

        return traced

    for modname, attr in SPANS:
        original = getattr(sys.modules[modname], attr)
        wrapped = wrap(f"{modname.split('.')[1]}.{attr}", original)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)

    reads = [0]
    plain_read = NCSeries.coefficient

    def coefficient(self, mono):
        reads[0] += 1
        return plain_read(self, mono)

    NCSeries.coefficient = coefficient
    counts["coefficient_reads"] = reads


def main() -> int:
    path, argv = sys.argv[1], sys.argv[2:]
    spans: list = []
    counts: dict = {}
    install(spans, counts)
    import mubar.cli

    try:
        return mubar.cli.main(argv)
    finally:
        sys.stdout.flush()
        counts["coefficient_reads"] = counts["coefficient_reads"][0]
        with open(path, "w") as f:
            json.dump({"spans": spans, "counts": counts}, f)


if __name__ == "__main__":
    raise SystemExit(main())
