"""matflock benchmark: one workload run, printed as one JSON line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from ``src``.
The run happens in one child process (see child.py): rounds of set-up
samples (a fresh interpreter importing matflock), the workload's CLI
sequence as ``python -m matflock.cli`` subprocesses with their exit codes
and JSON outputs checked, and a batch of instances.  With
``--trace 0`` the last line carries the end-to-end metrics, with
``--trace 1`` the per-layer ones.  Timings are scaled to the speed of the
machine the benchmark was defined on (see calib.py); the raw values are
kept in the details file.  Details (environment, every instance with its
size and latency, the predictions table) go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# One BLAS thread, below the nproc cap: with two, an idle BLAS worker spins
# after each call and the numpy steps ran up to three times slower whenever
# anything else used the second core.
BLAS_THREADS = 1
os.environ.update({var: str(BLAS_THREADS) for var in BLAS_VARS})   # before numpy loads

from calib import ELASTICITY, scaled, slowness  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

CHILD_TIMEOUT = 150.0
MIN_BATCHES = 2


def fail(message: str, code: int):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def git_sha():
    """The checked-out commit, read from .git without running git; None
    outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def stop_group(proc) -> None:
    """Kill a child started in its own session, with its subprocesses."""
    with contextlib.suppress(ProcessLookupError):
        os.killpg(proc.pid, signal.SIGKILL)
    proc.wait()


def run_child(cmd, env) -> None:
    """Run the workload child in its own process group, so that a child
    that has to be stopped takes its subprocesses with it."""
    proc = subprocess.Popen(cmd, env=env, stdout=sys.stderr, start_new_session=True)
    try:
        code = proc.wait(timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        stop_group(proc)
        fail("workload child timed out", 1)
    except BaseException:          # interrupted or terminated, see main
        stop_group(proc)
        raise
    if code != 0:
        fail(f"workload child exited with {code}", 1)


def tail(latencies):
    """The highest percentile with at least ten instances above it:
    (value, percentile, sample count)."""
    xs = sorted(latencies)
    k = max(len(xs) - 11, 0)
    return xs[k], 100.0 * (k + 1) / len(xs), len(xs)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # a terminated run unwinds like an interrupted one, stopping its child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}", 2)
    if not (SRC / "matflock" / "__init__.py").is_file():
        fail(f"no library source at {SRC}", 2)
    if args.seconds <= 0:
        fail("--seconds must be positive", 2)

    nproc = len(os.sched_getaffinity(0))
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    workdir = OUT / f"work-{tag}-{os.getpid()}"
    workdir.mkdir()
    # each workload's nominal round time was measured on a 2-core machine at
    # the commit that added the benchmark; with the run length it fixes the
    # number of rounds, so two commits measured with the same --seconds do
    # the same work on the same inputs
    batches = max(MIN_BATCHES, round(args.seconds / WORKLOADS[args.workload].round_seconds))
    child_out = workdir / "child.json"
    try:
        run_child([sys.executable, str(HERE / "child.py"), "--workload", args.workload,
                   "--seed", str(args.seed), "--workdir", str(workdir),
                   "--batches", str(batches), "--cap-seconds", str(4 * args.seconds),
                   "--trace", str(args.trace), "--out", str(child_out),
                   "--spans", str(OUT / f"spans-{tag}.tsv")], child_env())
        child = json.loads(child_out.read_text())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    calibration = child["calibration"]
    speed = 1 / statistics.median(slowness(cal) for cal in calibration) ** ELASTICITY
    failures, unexpected = child["failures"], child["unexpected"]
    untraced = [r for r in child["records"] if not r["traced"] and not r["probe"]]
    for r in untraced:
        r["scaled_ms"] = scaled(r["ms"], *r["cal"])
    tail_ms, tail_pct, tail_n = tail([r["scaled_ms"] for r in untraced])

    if args.trace:
        raw = dict(child["per_layer"])
        # in-process times come from the whole traced phase: one run-wide factor
        metrics = {k: {"value": m["value"] * speed if m["unit"] == "s" else m["value"],
                       "unit": m["unit"]} for k, m in raw.items()}
        imports = child["imports"]
        extra = {
            "setup.numpy_import_s": (statistics.median(t[0] for t in imports), "s"),
            "setup.matflock_import_s": (statistics.median(t[1] for t in imports), "s"),
            "trace_overhead_ratio": (child["trace_overhead_ratio"], "ratio"),
            "fail_ratio": (child["traced_fail_ratio"], "ratio"),
        }
        for k, (v, unit) in extra.items():
            raw[k] = metrics[k] = {"value": v, "unit": unit}
    else:
        raw = {
            "setup_s": {"value": statistics.median(s["seconds"] for s in child["setup_steps"]),
                        "unit": "s"},
            "wall_s": {"value": statistics.mean(child["batch_seconds"]), "unit": "s"},
            "instance_p50_ms": {"value": statistics.median(r["ms"] for r in untraced),
                                "unit": "ms"},
            "instance_tail_ms": {"value": tail([r["ms"] for r in untraced])[0], "unit": "ms"},
            "cli_s": {"value": statistics.median(sum(c["seconds"] for c in step)
                                                 for step in child["cli_steps"]),
                      "unit": "s"},
            "peak_rss_mb": {"value": child["peak_rss_mb"], "unit": "MiB"},
        }
        # set-up and CLI samples are taken in every round, from the start of
        # the run to its end, and scaled like instances
        metrics = {
            "setup_s": {"value": statistics.median(scaled(s["seconds"], *s["cal"])
                                                   for s in child["setup_steps"]),
                        "unit": "s"},
            "wall_s": {"value": statistics.mean(child["scaled_batch_seconds"]), "unit": "s"},
            "instance_p50_ms": {"value": statistics.median(r["scaled_ms"] for r in untraced),
                                "unit": "ms"},
            "instance_tail_ms": {"value": tail_ms, "unit": "ms"},
            "cli_s": {"value": statistics.median(sum(scaled(c["seconds"], *c["cal"])
                                                     for c in step)
                                                 for step in child["cli_steps"]),
                      "unit": "s"},
            "peak_rss_mb": raw["peak_rss_mb"],
        }

    report = {
        "env": dict(child["env"], git_sha=git_sha(), nproc=nproc,
                    blas_threads=BLAS_THREADS, seed=args.seed, seconds=args.seconds,
                    batches=child["batches"]),
        "workload": args.workload,
        "why": WORKLOADS[args.workload].why,
        "predictions": json.loads((HERE / "predictions.json").read_text()),
        "metrics": metrics,
        "raw_metrics": raw,
        "speed": {"factor": speed, "samples": len(calibration)},
        "tail": {"percentile": tail_pct, "samples": tail_n},
        "fail_ratio": {"failed": len(failures), "attempted": child["attempted"]},
        "failures": failures,
        "round_seconds": child["round_seconds"],
        "batch_seconds": child["batch_seconds"],
        "scaled_batch_seconds": child["scaled_batch_seconds"],
        "traced_batch_seconds": child["traced_batch_seconds"],
        "setup_steps": child["setup_steps"],
        "cli_steps": child["cli_steps"],
        "instances": child["records"],
    }
    (OUT / f"result-{tag}.json").write_text(json.dumps(report, indent=1))

    for name, m in metrics.items():
        print(f"{name:48s} {m['value']:>14.6g} {m['unit']}")
    print(f"timings at nominal machine speed; this machine ran at {speed:.3f} of it")
    if not args.trace:
        print(f"instance_tail_ms is the p{tail_pct:.1f} of {tail_n} instances")
    print(f"{len(failures)} of {child['attempted']} attempted failed"
          + (f", {len(unexpected)} outside the exactness probes" if unexpected else ""))
    for reason in sorted(set(failures)):
        print(f"  failure: {reason[:160]}")
    print(json.dumps({"correct": not unexpected, "attempted": child["attempted"],
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
