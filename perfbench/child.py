"""One workload run in its own process; started by run.py, not by hand.

It imports the library, warms up on inputs from a different seed, then runs
``--batches`` rounds.  A round times a few fresh interpreters importing
matflock (set-up), runs the workload's CLI sequence as ``python -m
matflock.cli`` subprocesses one at a time, and runs one batch of instances
one after another (a closed loop with one caller: no threads, no pool).
One more set-up and CLI step closes the run, so both are sampled from its
start to its end.  Each instance's pipeline is timed alone; its checks run
after the clock stops.  With tracing, the batches run traced, the CLI
sequence is replayed in-process under the tracer, and as many batches run
again with the library unwrapped as the base of the overhead ratio.  Results go
to the JSON file named by --out.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import re
import resource
import subprocess
import sys
import time
import traceback

from calib import calibrate, scaled
from tracer import Tracer
from workloads import WORKLOADS

# functions reported per layer as <name>.calls, .self_s and .errors
REPORTED = [
    "window.score_ids", "window.box_array", "window.iter_box_chunks",
    "flock.check_flock_axioms", "flock.extract_valuation", "flock.masks_at",
    "flock.window_ids",
    "algebraic.linearized_shift", "algebraic.linearized_tangent",
    "algebraic.frobenius_window", "algebraic.validate_frobenius_window",
    "algebraic._saturated_tangent", "algebraic.lindstrom_toric",
    "linalg.gf_rank", "linalg.gf_rref", "linalg.polymat_rank", "linalg.det_int",
    "linalg.rat_rref", "linalg.rat_kernel",
    "matroid.matroid_from_matrix",
    "valuation.optimal_masks", "valuation.check_valuation_axioms",
    "valuation.enumerate_leaders", "valuation.zero_dimensional_cells",
    "discrete_convex.check_lconvex", "discrete_convex.check_mconvex",
    "discrete_convex.fenchel_dual",
    "rigidity.dw_constraints", "rigidity.rigidity_certificate",
    "cli.main",
]
COUNTS = [
    "window.score_ids.points", "window.score_ids.wide_calls",
    "flock.check_flock_axioms.points", "flock.oracle_evals",
    "algebraic.lindstrom_toric.cache_hits", "valuation.enumerate_leaders.points",
    "discrete_convex.check_lconvex.pairs",
]
IMPORTS_PER_ROUND = 2       # set-up samples per round
IMPORTTIME_REPS = 9         # python -X importtime samples in a traced run
SPAN_FILE_LIMIT = 200_000   # spans written out; all of them feed the metrics


def time_import() -> float:
    """Wall seconds of a fresh interpreter running ``import matflock``."""
    t0 = time.perf_counter()
    # no timeout: with one, subprocess polls for the exit in steps up to 50 ms
    subprocess.run([sys.executable, "-c", "import matflock"], check=True)
    return time.perf_counter() - t0


def import_self_times():
    """Seconds of self time under numpy and under matflock, summed over
    their modules, from ``python -X importtime``."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import matflock"],
                          check=True, capture_output=True, text=True)
    sums = {"numpy": 0, "matflock": 0}
    for line in proc.stderr.splitlines():
        m = re.match(r"import time:\s+(\d+) \|\s+\d+ \|\s*(\S+)", line)
        if m:
            top = m.group(2).split(".")[0]
            if top in sums:
                sums[top] += int(m.group(1))
    return sums["numpy"] / 1e6, sums["matflock"] / 1e6


def run_cli(plan, failures: list, calibration: list) -> list:
    """One pass of the CLI sequence, checked.  Returns each call's wall
    seconds with the calibrations before and after it: a sequence lasts
    seconds, longer than the machine stays at one speed."""
    calls, outputs = [], []
    for call in plan:
        t0 = time.perf_counter()
        outputs.append(subprocess.run([sys.executable, "-m", "matflock.cli", *call["argv"]],
                                      capture_output=True, text=True))
        seconds = time.perf_counter() - t0
        calibration.append(calibrate())
        calls.append({"seconds": seconds, "cal": calibration[-2:]})
    for call, proc in zip(plan, outputs):
        what = call["argv"][0]
        if proc.returncode != 0:
            failures.append(f"cli {what}: exit {proc.returncode}")
            continue
        try:
            same = json.loads(proc.stdout) == call["expected"]
        except json.JSONDecodeError:
            same = False
        if not same:
            failures.append(f"cli {what}: output differs from the library")
    return calls


def run_instance(inst):
    """Time the pipeline alone, then check its output.  Returns
    (seconds, failure reason or None)."""
    t0 = time.perf_counter()
    try:
        out = inst.run()
    except Exception as exc:        # a raising pipeline is a failed instance
        return time.perf_counter() - t0, f"raised {type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - t0
    try:
        return seconds, inst.check(out)
    except Exception as exc:        # so is an output the checks cannot read
        return seconds, f"check raised {type(exc).__name__}: {exc}"


def per_layer(tracer, batch_stats, batch_counts):
    metrics = {}
    for name in REPORTED:
        stats = tracer.stats if name == "cli.main" else batch_stats
        calls, self_s, errors = stats.get(name, (0, 0.0, 0))
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.self_s"] = (self_s, "s")
        metrics[f"{name}.errors"] = (errors, "count")
    for key in COUNTS:
        metrics[key] = (batch_counts.get(key, 0), "count")
    calls = batch_stats.get("flock.masks_at", (0,))[0]
    evals = batch_counts.get("flock.oracle_evals", 0)
    metrics["flock.memo_hit_ratio"] = ((calls - evals) / calls if calls else 0.0, "ratio")
    rescue = batch_stats.get("algebraic._saturated_tangent", (0,))[0]
    metrics["algebraic.saturation_rescues"] = (rescue, "count")
    metrics["jsonio.load_s"] = (tracer.self_time("jsonio.load"), "s")
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def replay_cli(mf_cli, algebraic, plan, tracer, passes: int):
    """The CLI sequence in-process, traced, as many times as an untraced run
    runs it.  Each call starts from an empty toric cache, as a fresh CLI
    process would."""
    failures = []
    for _ in range(passes):
        for call in plan:
            algebraic._lindstrom_cache.clear()
            buf = io.StringIO()
            tracer.active = True
            try:
                with contextlib.redirect_stdout(buf), \
                        contextlib.redirect_stderr(io.StringIO()):
                    code = mf_cli.main(call["argv"])
            except SystemExit as exc:       # argparse rejects with an exit
                code = exc.code
            finally:
                tracer.active = False
            if code != 0:
                failures.append(f"replay {call['argv'][0]}: exit {code}")
            elif json.loads(buf.getvalue()) != call["expected"]:
                failures.append(f"replay {call['argv'][0]}: output differs from the library")
    return len(plan) * passes, failures


def write_plan(workload, mf, jsonio, workdir):
    """The CLI plan: input files and the library's own results, computed
    with tracing off.  Its inputs do not depend on --seed: with seeded inputs
    the work of the sequence, and with it cli_s, changed from seed to seed."""
    plan_src = workload.cli(mf, jsonio, random.Random(f"{workload.name}:cli"))
    files = {}
    for name, doc in plan_src.files.items():
        path = os.path.join(workdir, name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        files[name] = path
    return [{"argv": [files[a[1:-1]] if a.startswith("{") else a for a in c.argv],
             "expected": json.loads(json.dumps(c.expected))} for c in plan_src.calls]


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--batches", type=int, required=True)
    ap.add_argument("--cap-seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    ap.add_argument("--spans")
    args = ap.parse_args()

    import numpy
    import matflock as mf
    import matflock.cli as mf_cli
    from matflock import algebraic, jsonio

    workload = WORKLOADS[args.workload]()
    plan = write_plan(workload, mf, jsonio, args.workdir)
    if hasattr(workload, "count_rescues"):
        workload.count_rescues(algebraic)
    seen: set = set()
    for inst in workload.warmup(mf, random.Random(f"{args.seed}:{args.workload}:warmup"), seen):
        run_instance(inst)
    if not args.trace:
        # compiles the bytecode of the package and its CLI once, as an
        # install would
        subprocess.run([sys.executable, "-c", "import matflock.cli"], check=True)
    calibrate()                    # the first pass warms the reference work itself
    calibration = [calibrate()]    # one sample before, between and after steps

    tracer = Tracer(mf)
    rng = random.Random(f"{args.seed}:{args.workload}")
    records, failures, unexpected = [], [], []
    cli_failures: list = []
    setup_steps, cli_steps, imports = [], [], []
    batch_seconds = {False: [], True: []}      # raw and at nominal speed
    scaled_seconds = {False: [], True: []}
    attempted, failed = {False: 0, True: 0}, {False: 0, True: 0}
    start = time.perf_counter()

    def processes_step():
        """Set-up and CLI samples between batches (untraced runs only), each
        import and each CLI call between two calibrations like an instance."""
        for _ in range(IMPORTS_PER_ROUND):
            seconds = time_import()
            calibration.append(calibrate())
            setup_steps.append({"seconds": seconds, "cal": calibration[-2:]})
        cli_steps.append(run_cli(plan, cli_failures, calibration))

    def run_batch(traced: bool):
        total = total_scaled = 0.0
        for inst in workload.batch(mf, rng, seen):
            tracer.current_instance = len(records)
            tracer.active = traced
            seconds, reason = run_instance(inst)
            tracer.active = False
            calibration.append(calibrate())
            attempted[traced] += 1
            if reason:
                failed[traced] += 1
                failures.append(reason)
                if not inst.probe:
                    unexpected.append(reason)
            if not inst.probe:
                total += seconds
                total_scaled += scaled(seconds, *calibration[-2:])
            records.append({"batch": len(batch_seconds[traced]), "traced": traced,
                            "kind": inst.kind, "probe": inst.probe, "size": inst.size,
                            "ms": seconds * 1e3, "cal": calibration[-2:],
                            "failure": reason})
        batch_seconds[traced].append(total)
        scaled_seconds[traced].append(total_scaled)

    traced = bool(args.trace)
    if traced:
        imports = [import_self_times() for _ in range(IMPORTTIME_REPS)]
        tracer.install()
    round_seconds = []
    for b in range(args.batches):
        if b >= 2 and time.perf_counter() - start > args.cap_seconds:
            break                  # far slower than the recipe was sized for
        t0 = time.perf_counter()
        if not traced:
            processes_step()
        run_batch(traced)
        round_seconds.append(time.perf_counter() - t0)
    if not traced:
        processes_step()
    batch_stats = {k: tuple(v) for k, v in tracer.stats.items()}
    batch_counts = dict(tracer.counts)

    result = {"env": {"python": sys.version.split()[0], "numpy": numpy.__version__}}
    cli_calls = sum(len(step) for step in cli_steps)
    failures += cli_failures
    unexpected += cli_failures
    if traced:
        # the CLI sequence as often as an untraced run of as many batches
        done, replay_failures = replay_cli(mf_cli, algebraic, plan, tracer,
                                           len(batch_seconds[True]) + 1)
        failures += replay_failures
        unexpected += replay_failures
        # over the traced part alone, which has an untraced run's mix
        result["traced_fail_ratio"] = ((failed[True] + len(replay_failures))
                                       / (attempted[True] + done))
        result["per_layer"] = per_layer(tracer, batch_stats, batch_counts)
        tracer.uninstall()
        result["spans"] = len(tracer.name)
        result["spans_written"] = tracer.write_spans(args.spans, SPAN_FILE_LIMIT)
        # as many batches again with the library unwrapped: the base of the
        # overhead ratio (cells_convex alternates its batches' recipes)
        for _ in scaled_seconds[True]:
            run_batch(False)
        result["trace_overhead_ratio"] = sum(scaled_seconds[True]) / sum(scaled_seconds[False])
        cli_calls = done
    result.update({
        "batches": len(batch_seconds[traced]),
        "round_seconds": round_seconds,
        "batch_seconds": batch_seconds[False],
        "scaled_batch_seconds": scaled_seconds[False],
        "traced_batch_seconds": batch_seconds[True],
        "setup_steps": setup_steps,
        "cli_steps": cli_steps,
        "imports": imports,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "records": records,
        "calibration": calibration,
        "attempted": attempted[False] + attempted[True] + cli_calls,
        "failures": failures,
        "unexpected": unexpected,
    })
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
