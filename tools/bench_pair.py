"""Alternating benchmark runs of two commits, written as PAIRS_<A12>_<B12>.json.

    python3 tools/bench_pair.py A B [--pairs N] [--seeds S1,S2,...]
                                [--workload NAME ...] [--workdir DIR]

Run from anywhere inside a git checkout; A and B are any revisions git
names, and the file is written at the root of the checkout.  Pair i runs
``perfbench/run.py --trace 0`` once on A and once on B, back to back, on
seed i of ``--seeds`` (default 1001, 1002, ...), A first on odd pairs and
B first on even ones, for every workload of BENCHMARK.json (or those
named) in turn, with its ``run_seconds``.  Each run gets a fresh export of its commit
(``git archive``) in a temporary directory, deleted after the run, so no
run reads another's files or caches.

The file holds every run's result line (the JSON object ``run.py`` prints
last), or its exit code and the tail of its stderr, and per workload and
end-to-end metric of BENCHMARK.json: both sides' medians and quartiles,
the pairs in which B read lower (ties count for neither), A's
interquartile range over its median, and B's change against A's median
in the direction the metric counts as worse, over the metric's bound.
It also counts each side's failed and attempted instances, and states
under ``environment`` what ``bench_env.environment`` records (versions, C
library, CPU count, allocator and bytecode variables), which every run
inherits.  It states numbers and decides nothing.  The file is rewritten
after every run, so an interrupted session keeps the runs it finished.

Run length is the benchmark's, so a pair takes about two benchmark runs
per workload: about 40 minutes for ten pairs of four workloads on a
2-core machine.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_env import environment, git, result_line


def export(root: Path, sha: str, into: Path) -> Path:
    """A fresh copy of the files of commit ``sha`` in a new directory under ``into``."""
    out = Path(tempfile.mkdtemp(prefix=f"pair-{sha[:12]}-", dir=into))
    archive = subprocess.run(["git", "archive", sha], cwd=root, capture_output=True, check=True)
    subprocess.run(["tar", "-x", "-C", str(out)], input=archive.stdout, check=True)
    return out


def bench_run(root: Path, sha: str, workload: str, seed: int, seconds, into: Path) -> dict:
    copy = export(root, sha, into)
    try:
        done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                              cwd=copy, capture_output=True, text=True)
    finally:
        shutil.rmtree(copy, ignore_errors=True)
    run = {"commit": sha, "workload": workload, "seed": seed, "exit": done.returncode}
    if done.returncode == 0:
        run["result"] = result_line(done.stdout)
    else:
        run["stderr_tail"] = done.stderr[-2000:]
    return run


def schedule(a: str, b: str, seeds, workloads):
    """(pair, seed, workload, commit) of each run, in order: pair i on seed
    i, every workload in turn, its two runs back to back, A first on odd
    pairs."""
    for pair, seed in enumerate(seeds, start=1):
        for workload in workloads:
            for sha in (a, b) if pair % 2 else (b, a):
                yield pair, seed, workload, sha


def _quartiles(xs):
    """(Q1, median, Q3) of ``xs``, inclusive method; the quartiles are None
    for fewer than two values."""
    if len(xs) < 2:
        return None, statistics.median(xs), None
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def summarize(runs, bench: dict, a: str, b: str) -> dict:
    """Per workload and end-to-end metric of ``bench`` (BENCHMARK.json), the
    comparison of the runs of commit ``b`` against those of ``a``.  A pair
    is the two runs of one (workload, pair number); only pairs in which
    both runs exited 0 are compared."""
    out = {}
    for workload in dict.fromkeys(run["workload"] for run in runs):
        pairs: dict = {}
        for run in runs:
            if run["workload"] == workload and run["exit"] == 0:
                pairs.setdefault(run["pair"], {})[run["commit"]] = run["result"]
        both = [(p[a], p[b]) for _, p in sorted(pairs.items()) if a in p and b in p]
        metrics = {}
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            sign = 1 if metric["better"] == "lower" else -1
            if not both:
                metrics[name] = {"pairs": 0}
                continue
            xa = [ra["metrics"][name]["value"] for ra, _ in both]
            xb = [rb["metrics"][name]["value"] for _, rb in both]
            qa, qb = _quartiles(xa), _quartiles(xb)
            worse = sign * (qb[1] - qa[1]) / qa[1] if qa[1] else None
            metrics[name] = {
                "unit": metric["unit"],
                "better": metric["better"],
                "pairs": len(both),
                "a_median": qa[1],
                "b_median": qb[1],
                "a_quartiles": [qa[0], qa[2]],
                "b_quartiles": [qb[0], qb[2]],
                "b_lower_pairs": sum(vb < va for va, vb in zip(xa, xb)),
                "a_iqr_over_median": ((qa[2] - qa[0]) / qa[1]
                                      if qa[0] is not None and qa[1] else None),
                "b_worse_by": worse,
                "bound": bound,
                "b_worse_over_bound": None if worse is None else worse / bound,
            }
        sides = {}
        for side in (a, b):
            done = [run for run in runs if run["workload"] == workload and run["commit"] == side]
            ok = [run["result"] for run in done if run["exit"] == 0]
            sides[side] = {"runs": len(done), "exit_0": len(ok),
                           "correct": sum(bool(r.get("correct")) for r in ok),
                           "failed": sum(r.get("failed", 0) for r in ok),
                           "attempted": sum(r.get("attempted", 0) for r in ok)}
        out[workload] = {"sides": sides, "metrics": metrics}
    return out


def _seeds(text: str) -> list[int]:
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("a", help="the first commit (the parent, say)")
    ap.add_argument("b", help="the second commit (the change)")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seeds", type=_seeds, default=None,
                    help="comma-separated, one per pair (default 1001, 1002, ...)")
    ap.add_argument("--workload", action="append", default=None,
                    help="a workload of BENCHMARK.json; repeat for more (default all)")
    ap.add_argument("--workdir", default=None, help="where the exports go (default a temp dir)")
    args = ap.parse_args(argv)

    root = Path(git(Path.cwd(), "rev-parse", "--show-toplevel"))
    bench = json.loads((root / "BENCHMARK.json").read_text())
    a, b = (git(root, "rev-parse", "--verify", rev + "^{commit}") for rev in (args.a, args.b))
    seeds = args.seeds or [1001 + i for i in range(args.pairs)]
    if len(seeds) < args.pairs:
        ap.error(f"{args.pairs} pairs need {args.pairs} seeds, got {len(seeds)}")
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    unknown = set(workloads) - {w["name"] for w in bench["workloads"]}
    if unknown:
        ap.error(f"unknown workload {sorted(unknown)[0]!r}")
    out = root / f"PAIRS_{a[:12]}_{b[:12]}.json"
    record = {"a": a, "b": b, "pairs": args.pairs, "seeds": seeds[:args.pairs],
              "seconds": bench["run_seconds"], "trace": 0, "environment": environment(),
              "runs": []}
    into = Path(args.workdir or tempfile.mkdtemp(prefix="bench-pair-"))
    into.mkdir(parents=True, exist_ok=True)
    for pair, seed, workload, sha in schedule(a, b, seeds[:args.pairs], workloads):
        run = bench_run(root, sha, workload, seed, bench["run_seconds"], into)
        run["pair"] = pair
        record["runs"].append(run)
        record["summary"] = summarize(record["runs"], bench, a, b)
        out.write_text(json.dumps(record, indent=1) + "\n")
        print(f"{workload} pair {pair} {sha[:12]}: exit {run['exit']}", file=sys.stderr)
    if not args.workdir:
        shutil.rmtree(into, ignore_errors=True)
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
