"""Self-test of the benchmark, on its sub-second operations only.

    python3 perfbench/selftest.py

Checks that the same seed writes byte-identical inputs, that every cheap
operation of every workload passes its checks at this commit, and that
corrupted outputs (a flipped residue, a residue off by one, a wrong -20)
are counted as failed.
"""

from __future__ import annotations

import shutil
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from mubar.corpus import corpus_install  # noqa: E402

WORK = HERE / "work" / "selftest"


def setUpModule():
    WORK.mkdir(parents=True, exist_ok=True)


def inputs(workload: str, seed: int, name: str):
    directory = WORK / name
    shutil.rmtree(directory, ignore_errors=True)
    corpus_install(directory)
    return directory, workloads.build(workload, seed, directory)


def contents(directory: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def corrupt(finished, key: str, change):
    """The same round with one operation's output altered by ``change``."""
    out = []
    for op, done, result in finished:
        if op.key == key:
            result = dict(result)
            change(result)
        out.append((op, done, result))
    return out


class SeededInputs(unittest.TestCase):
    def test_same_seed_writes_identical_inputs(self):
        for workload in workloads.BUILDERS:
            first, _ = inputs(workload, 7, "a")
            second, _ = inputs(workload, 7, "b")
            other, _ = inputs(workload, 8, "c")
            self.assertEqual(contents(first), contents(second), workload)
            self.assertNotEqual(contents(first), contents(other), workload)


class Checks(unittest.TestCase):
    def run_ops(self, workload: str, keys=None):
        _, ops = inputs(workload, 3, workload)
        picked = [op for op in ops if (op.cheap if keys is None else op.key in keys)]
        return run.run_round(picked, WORK, None)

    def test_cheap_operations_pass(self):
        for workload in workloads.BUILDERS:
            failed, wrong, problems = run.judge(self.run_ops(workload))
            self.assertEqual((failed, wrong), (0, 0), problems)

    def test_wrong_residues_fail(self):
        finished = self.run_ops("diagram", {"bor-mubar-d6", "closure_a-mubar-d6", "closure_a-mubar-d7"})
        self.assertEqual(run.judge(finished)[:2], (0, 0))

        def flip(out):
            out["residue"] = -out["residue"]

        def bump(out):
            out["residue"] += 1

        def other_mu(out):
            out["mu"] += 1

        for key, change in (("bor-mubar-d6", flip), ("closure_a-mubar-d6", bump), ("closure_a-mubar-d7", other_mu)):
            self.assertEqual(run.judge(corrupt(finished, key, change))[:2], (1, 1), key)

    def test_wrong_star_value_fails(self):
        finished = self.run_ops("brackets", {"star"})
        self.assertEqual(run.judge(finished)[:2], (0, 0))

        def off(out):
            out["value"] = -21

        self.assertEqual(run.judge(corrupt(finished, "star", off))[:2], (1, 1))

    def test_failed_process_counts(self):
        finished = run.run_round([workloads.Op("bad", ["mu", "--link", "missing.json", "--index", "12"], None)], WORK, None)
        self.assertEqual(run.judge(finished), (1, 0, ["bad: exit 2"]))


if __name__ == "__main__":
    try:
        unittest.main()
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
