"""The summary and schedule of tools/bench_pair.py, on canned result lines,
the environment that it and tools/bench_record.py record, and the library
names that the benchmark in perfbench/ binds to."""

import importlib
import importlib.util
import json
import platform
import sys
from pathlib import Path

import pytest

# the tools run as scripts, with tools/ as their first import path
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
import bench_env  # noqa: E402
import bench_pair  # noqa: E402
import bench_record  # noqa: E402

BENCH = {"end_to_end": [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
                        {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.1}]}


def _run(commit, pair, wall, rate, failed=0, workload="w"):
    return {"commit": commit, "workload": workload, "pair": pair, "seed": 1000 + pair,
            "exit": 0, "result": {"correct": True, "attempted": 10, "failed": failed,
                                  "metrics": {"wall_s": {"value": wall, "unit": "s"},
                                              "rate": {"value": rate, "unit": "1/s"}}}}


def test_summary_of_canned_pairs():
    runs = []
    for pair, (wa, wb) in enumerate([(1.0, 0.9), (1.2, 1.25), (1.1, 1.0), (1.3, 1.2)], start=1):
        runs += [_run("A", pair, wa, 2.0), _run("B", pair, wb, 1.5, failed=int(pair == 2))]
    # a pair whose B run failed is not compared, but its A run is counted
    runs += [_run("A", 5, 9.0, 9.0), {"commit": "B", "workload": "w", "pair": 5,
                                      "seed": 1005, "exit": 1, "stderr_tail": "boom"}]
    got = bench_pair.summarize(runs, BENCH, "A", "B")["w"]
    wall = got["metrics"]["wall_s"]
    assert wall["pairs"] == 4
    assert (wall["a_median"], wall["b_median"]) == pytest.approx((1.15, 1.1))
    assert wall["a_quartiles"] == pytest.approx([1.075, 1.225])
    assert wall["b_lower_pairs"] == 3
    assert wall["a_iqr_over_median"] == pytest.approx(0.15 / 1.15)
    assert wall["b_worse_by"] == pytest.approx(-0.05 / 1.15)
    assert wall["b_worse_over_bound"] == pytest.approx(-0.05 / 1.15 / 0.25)
    # a metric where higher is better is worse when it falls
    rate = got["metrics"]["rate"]
    assert rate["b_lower_pairs"] == 4
    assert rate["b_worse_by"] == pytest.approx(0.25)
    assert rate["b_worse_over_bound"] == pytest.approx(2.5)
    assert got["sides"] == {"A": {"runs": 5, "exit_0": 5, "correct": 5, "failed": 0,
                                  "attempted": 50},
                            "B": {"runs": 5, "exit_0": 4, "correct": 4, "failed": 1,
                                  "attempted": 40}}


def test_summary_without_a_complete_pair():
    got = bench_pair.summarize([_run("A", 1, 1.0, 1.0)], BENCH, "A", "B")["w"]
    assert got["metrics"] == {"wall_s": {"pairs": 0}, "rate": {"pairs": 0}}
    one = bench_pair.summarize([_run("A", 1, 1.0, 1.0), _run("B", 1, 2.0, 1.0)], BENCH, "A", "B")
    wall = one["w"]["metrics"]["wall_s"]
    assert wall["a_quartiles"] == [None, None] and wall["a_iqr_over_median"] is None
    assert wall["b_worse_by"] == pytest.approx(1.0)


def test_schedule_alternates_which_side_runs_first():
    got = list(bench_pair.schedule("A", "B", [7, 8, 9], ["u", "v"]))
    assert got == [(1, 7, "u", "A"), (1, 7, "u", "B"), (1, 7, "v", "A"), (1, 7, "v", "B"),
                   (2, 8, "u", "B"), (2, 8, "u", "A"), (2, 8, "v", "B"), (2, 8, "v", "A"),
                   (3, 9, "u", "A"), (3, 9, "u", "B"), (3, 9, "v", "A"), (3, 9, "v", "B")]


def test_result_line_is_the_last_nonempty_line():
    assert bench_pair.result_line('progress\n{"x": 1}\n{"correct": true}\n\n') == {"correct": True}


def test_environment_records_libc_and_allocator_variables():
    environ = {"MALLOC_TOP_PAD_": "16777216", "MALLOC_ARENA_MAX": "2", "GLIBC_TUNABLES":
               "glibc.malloc.trim_threshold=0", "PYTHONDONTWRITEBYTECODE": "1",
               "HOME": "/home/x", "XMALLOC_": "1", "malloc_check_": "1"}
    got = bench_env.environment(environ)
    assert got["variables"] == {"GLIBC_TUNABLES": "glibc.malloc.trim_threshold=0",
                                "MALLOC_ARENA_MAX": "2", "MALLOC_TOP_PAD_": "16777216",
                                "PYTHONDONTWRITEBYTECODE": "1"}
    assert got["libc"] == list(platform.libc_ver())
    assert got["python"] == platform.python_version()
    assert bench_env.environment({})["variables"] == {}
    assert json.loads(json.dumps(got)) == got


def test_both_tools_record_the_one_environment():
    # and share bench_env's one copy of each helper
    for name in ("environment", "git", "result_line"):
        assert getattr(bench_pair, name) is getattr(bench_env, name)
        assert getattr(bench_record, name) is getattr(bench_env, name)


def test_benchmark_bindings_resolve_in_the_library():
    # perfbench/tracer.py wraps each (module, attribute) of TRACED, and
    # perfbench/workloads.py wraps algebraic._saturated_tangent in every
    # run; a renamed library function fails here, not in perfbench/run.py
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", perfbench / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert len(tracer.TRACED) > 30
    bindings = [(module, attribute) for module, attribute, _ in tracer.TRACED]
    assert "algebraic._saturated_tangent" in (perfbench / "workloads.py").read_text()
    for module, attribute in [*bindings, ("algebraic", "_saturated_tangent")]:
        owner = importlib.import_module(f"matflock.{module}")
        for name in attribute.split("."):
            assert hasattr(owner, name), (module, attribute)
            owner = getattr(owner, name)
        assert callable(owner), (module, attribute)
