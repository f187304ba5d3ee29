"""Benchmark of the mubar CLI verbs, one process per operation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each operation is one
``python -m mubar.cli ...`` process with ``PYTHONPATH=src``, timed by
the CPU time (user + system) the child used from spawn to exit, read with
its peak RSS from the child's ``wait4`` rusage.  One
client runs one operation at a time (a closed loop).  A run executes
whole rounds of the workload's fixed operation list, stopping at the
round boundary nearest to ``--seconds``, and checks every output (see
workloads.py).

Set-up (bundled corpus install, seeded inputs, one untimed warm-up
invocation) is done SETUPS times and the median of its CPU time, this
process's and its children's, reported as ``setup_s``.  CPU time, not
wall time, because on a shared host the wait for a core changes from
minute to minute and wall times of one code spread by a quarter.
With ``--trace 1`` every operation runs under traced.py instead, and the
per-layer metrics of LAYERS are reported per round.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  Each operation's median CPU and wall time go to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
HERE = ROOT / "perfbench"
SETUPS = 5
OP_TIMEOUT_S = 60

# per-layer metric -> (span, "total" time | "self" time | "calls" | count key)
LAYERS = {
    "links.rewrite_s": ("links.longitudes_mod_q", "total"),
    "links.artin_s": ("links.artin_longitudes", "total"),
    "links.longitude_letters": (None, "longitude_letters"),
    "magnus.expand_s": ("magnus.magnus_expand", "total"),
    "magnus.expand_calls": ("magnus.magnus_expand", "calls"),
    "magnus.expand_letters": (None, "expand_letters"),
    "magnus.lcs_depth_s": ("magnus.lcs_depth", "total"),
    "magnus.coefficient_reads": (None, "coefficient_reads"),
    "milnor.mu_bar_s": ("milnor.mu_bar", "total"),
    "milnor.vanish_s": ("milnor.all_vanish_up_to", "total"),
    "surgery.lcq_s": ("surgery.lcq_is_free", "self"),
    "mutation.find_detector_s": ("mutation.find_detector", "total"),
    "brackets.canonicalize_s": ("brackets.canonicalize", "total"),
    "brackets.canonicalize_calls": ("brackets.canonicalize", "calls"),
    "brackets.parenthesizations_s": ("brackets.parenthesizations", "total"),
    "brackets.massey_sum_s": ("brackets.massey_sum", "total"),
    "brackets.evaluate_s": ("brackets.evaluate_detailed", "total"),
    "words.parse_s": ("words.parse_word", "total"),
    "cli.load_s": ("cli.load_system", "self"),
    "cli.emit_s": ("cli.emit", "total"),
}


class Spawned(NamedTuple):
    """Outcome of one CLI process."""

    wall_s: float
    cpu_s: float
    rss_kb: int
    code: int
    timed_out: bool
    stdout: bytes


def spawn(argv: list[str], work: Path, trace_file: Path | None) -> Spawned:
    """Run one CLI invocation from the checkout root and wait for it."""
    if trace_file is None:
        cmd = [sys.executable, "-m", "mubar.cli", *argv]
    else:
        cmd = [sys.executable, str(HERE / "traced.py"), str(trace_file), *argv]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in ("src", env.get("PYTHONPATH")) if p)
    # Byte-code is cached as for a user, so the warm-up in set-up pays
    # the compilation after a checkout and the operations do not.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    out_path, err_path = work / "last.stdout", work / "last.stderr"
    timed_out = threading.Event()
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=out, stderr=err)

        def kill():
            timed_out.set()
            proc.kill()

        timer = threading.Timer(OP_TIMEOUT_S, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Spawned(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss, proc.returncode, timed_out.is_set(), out_path.read_bytes())


def cpu_time() -> float:
    """CPU seconds used by this process and its waited-for children."""
    me, kids = resource.getrusage(resource.RUSAGE_SELF), resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime


def set_up(workload: str, seed: int, work: Path, trace: bool):
    """Fresh inputs and a warm interpreter cache; returns (ops, install spans)."""
    import workloads

    shutil.rmtree(work, ignore_errors=True)
    inputs = work / "inputs"
    inputs.mkdir(parents=True)
    trace_file = work / "install.trace.json" if trace else None
    done = spawn(["corpus-install", str(inputs.relative_to(ROOT))], work, trace_file)
    if done.code != 0:
        raise RuntimeError(f"corpus-install exited {done.code}: {(work / 'last.stderr').read_text()}")
    ops = workloads.build(workload, seed, inputs.relative_to(ROOT))
    warm = spawn(["mu", "--link", str((inputs / "hopf.json").relative_to(ROOT)), "--index", "12"], work, None)
    if warm.code != 0:
        raise RuntimeError(f"warm-up exited {warm.code}")
    install = json.loads(trace_file.read_text())["spans"] if trace else []
    return ops, install


def layer_totals(trace: dict) -> dict:
    """Per-layer figures of one traced operation."""
    total, own, calls = defaultdict(float), defaultdict(float), defaultdict(int)
    children = defaultdict(float)  # depth -> time of finished spans not yet claimed
    for name, start, end, depth in trace["spans"]:  # in order of ending
        duration = end - start
        total[name] += duration
        own[name] += duration - children.pop(depth + 1, 0.0)
        children[depth] += duration
        calls[name] += 1
    out = {}
    for metric, (span, kind) in LAYERS.items():
        if kind == "total":
            out[metric] = total[span]
        elif kind == "self":
            out[metric] = own[span]
        elif kind == "calls":
            out[metric] = calls[span]
        else:
            out[metric] = trace["counts"].get(kind, 0)
    return out


def run_round(ops, work: Path, spans: Path | None) -> list:
    """Run every operation once; return (op, Spawned, parsed output or None)."""
    if spans is not None:
        spans.mkdir(parents=True)
    finished = []
    for op in ops:
        done = spawn(op.argv, work, None if spans is None else spans / f"{op.key}.json")
        out = None
        if done.code == 0 and not done.timed_out:
            try:
                out = json.loads(done.stdout)
            except ValueError:
                pass
        finished.append((op, done, out))
    return finished


def judge(finished) -> tuple[int, int, list[str]]:
    """Failed operations, wrong outputs among them, and what went wrong.

    An operation fails on a non-zero exit, a timeout, output that is not
    JSON, or a failed check; checks may compare with other operations of
    the same round.
    """
    outputs = {op.key: out for op, _, out in finished}
    failed, wrong, problems = 0, 0, []
    for op, done, out in finished:
        if out is None:
            failed += 1
            problems.append(f"{op.key}: exit {done.code}{' (timeout)' if done.timed_out else ''}")
            continue
        try:
            found = op.check(out, outputs)
        except Exception as exc:  # a malformed output must not end the run
            found = [f"check raised {exc!r}"]
        if found:
            failed += 1
            wrong += 1
            problems.extend(f"{op.key}: {p}" for p in found)
    return failed, wrong, problems


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    work = HERE / "work" / workload
    setups, installs = [], []
    for _ in range(SETUPS):
        start = cpu_time()
        ops, install = set_up(workload, seed, work, trace)
        setups.append(cpu_time() - start)
        installs.append(sum(e - s for name, s, e, _ in install if name == "corpus.corpus_install"))

    cpus, walls, rss, problems = defaultdict(list), defaultdict(list), [], []
    layers = defaultdict(int)
    attempted = failed = wrong_outputs = rounds = 0
    start = perf_counter()
    # Whole rounds, ending at the round boundary nearest to ``seconds``.
    while rounds == 0 or (perf_counter() - start) * (1 + 0.5 / rounds) < seconds:
        spans = work / "spans" / str(rounds) if trace else None
        finished = run_round(ops, work, spans)
        for op, done, _ in finished:
            cpus[op.key].append(done.cpu_s)
            walls[op.key].append(done.wall_s)
            rss.append(done.rss_kb)
            if trace and (spans / f"{op.key}.json").exists():
                for metric, value in layer_totals(json.loads((spans / f"{op.key}.json").read_text())).items():
                    layers[metric] += value
        round_failed, round_wrong, round_problems = judge(finished)
        attempted += len(finished)
        failed += round_failed
        wrong_outputs += round_wrong
        problems += round_problems
        rounds += 1

    every = [c for cs in cpus.values() for c in cs]
    # Every run is whole rounds of one mix, so the total over the run
    # weighs each operation as a round does.
    ops_per_s = (attempted - failed) / sum(every)
    for key, cs in cpus.items():
        print(f"{key:24s} cpu {statistics.median(cs):8.3f} s  wall {statistics.median(walls[key]):8.3f} s",
              file=sys.stderr)
    wall_s = sum(w for ws in walls.values() for w in ws)
    print(f"rounds {rounds}, ops/s {ops_per_s:.4f} (by wall time {(attempted - failed) / wall_s:.4f}), "
          f"setups {' '.join(f'{s:.3f}' for s in setups)}", file=sys.stderr)
    for p in problems[:20]:
        print(f"FAILED {p}", file=sys.stderr)

    if trace:
        metrics = {
            # counts are identical in every round, so they divide exactly
            m: layers[m] / rounds if m.endswith("_s") else int(layers[m]) // rounds
            for m in LAYERS
        }
        metrics["corpus.install_s"] = statistics.median(installs)
        units = {m: ("s" if m.endswith("_s") else "count") for m in metrics}
    else:
        metrics = {
            "ops_per_s": ops_per_s,
            "op_p50_s": statistics.median(every),
            "peak_rss_mb": max(rss) / 1024,
            "setup_s": statistics.median(setups),
        }
        units = {"ops_per_s": "1/s", "op_p50_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
    return {
        "correct": wrong_outputs == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "mubar" / "cli.py").is_file():
        print(f"no mubar sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    import workloads

    if args.workload not in workloads.BUILDERS:
        parser.error(f"--workload must be one of {', '.join(workloads.BUILDERS)}")
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
