"""Record one benchmark trajectory point as BENCH_<sha>.json.

    python3 tools/bench_record.py

Run from anywhere inside a git checkout; the file is written at the root
of the checkout.  For each workload of BENCHMARK.json it runs
``perfbench/run.py`` once untraced and once traced, on seed 1 and the
benchmark's ``run_seconds``, and keeps each run's result line (the JSON
object it prints last).  It then runs the tier-1 tests with
``--durations=0`` and keeps their wall time, the duration of every test
phase that pytest reports, and each acceptance criterion's time against
its budget, read from the ``PASS criterion`` lines of tests/test_acceptance.py.
The file also states the git commit (and any tracked file that differs
from it) and, under ``environment``, what ``bench_env.environment`` records:
the Python, numpy and C library versions, the CPU count and the allocator
and bytecode variables, since each of them moves the numbers.

The runs happen one after another, so the file takes the benchmark's full
time per run plus tier-1: about 13 minutes on a 2-core machine.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

from bench_env import environment, git, result_line

SEED = 1
CRITERION = re.compile(r"PASS criterion (\d+): .*\(([\d.]+)s < (\d+)s\)")
DURATION = re.compile(r"^([\d.]+)s (setup|call|teardown)\s+(\S+)$")


def bench_runs(root: Path, workloads, seconds) -> list[dict]:
    runs = []
    for name in workloads:
        for trace in (0, 1):
            cmd = [sys.executable, "perfbench/run.py", "--workload", name, "--seed",
                   str(SEED), "--seconds", str(seconds), "--trace", str(trace)]
            done = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
            run = {"workload": name, "seed": SEED, "seconds": seconds, "trace": trace,
                   "exit": done.returncode}
            if done.returncode == 0:
                run["result"] = result_line(done.stdout)
            else:
                run["stderr_tail"] = done.stderr[-2000:]
            runs.append(run)
            print(f"{name} trace={trace}: exit {done.returncode}", file=sys.stderr)
    return runs


def tier1(root: Path) -> dict:
    """Tier-1 as ROADMAP.md states it, with per-test durations and the
    printed acceptance budgets (``-rP`` shows the passing tests' output)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    cmd = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
           "--durations=0", "-rP", "-p", "no:cacheprovider"]
    start = time.perf_counter()
    done = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - start
    lines = done.stdout.splitlines()
    budgets = {}
    for num, elapsed, budget in CRITERION.findall(done.stdout):
        budgets[f"criterion_{num}"] = {"seconds": float(elapsed), "budget_s": float(budget),
                                       "margin_s": round(float(budget) - float(elapsed), 2)}
    durations = [{"seconds": float(m[1]), "phase": m[2], "test": m[3]}
                 for m in map(DURATION.match, lines) if m]
    return {"exit": done.returncode, "wall_s": round(wall, 2),
            "summary": lines[-1] if lines else "", "acceptance": budgets,
            "durations": durations}


def main() -> int:
    root = Path(git(Path.cwd(), "rev-parse", "--show-toplevel"))
    bench = json.loads((root / "BENCHMARK.json").read_text())
    sha = git(root, "rev-parse", "HEAD")
    record = {
        "git_sha": sha,
        "modified_tracked_files": git(root, "status", "--porcelain",
                                      "--untracked-files=no").splitlines(),
        "environment": environment(),
        "runs": bench_runs(root, [w["name"] for w in bench["workloads"]],
                           bench["run_seconds"]),
        "tier1": tier1(root),
    }
    out = root / f"BENCH_{sha[:12]}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
