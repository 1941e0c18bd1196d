"""Serialization round trips and the command-line surface."""

import contextlib
import io
import itertools
import json
import os
import random
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import matflock as mf
from matflock import jsonio, svg
from matflock.cli import main
from matflock.discrete_convex import WindowFunction
from matflock.matroid import _COLD_QUADS, _WARM_QUADS, _exchange_faces

from conftest import example_param, random_valid_valuation, toric_example, u24_valuation


# ---------------------------------------------------------------------------
# serialization round trips

def test_matroid_round_trip():
    for M in (mf.uniform_matroid(2, 4), mf.fano_matroid(), mf.lazarson(2, "full")):
        assert jsonio.matroid_from_json(matroid := jsonio.matroid_to_json(M)) == M
        json.dumps(matroid)


def test_matrix_round_trip():
    from fractions import Fraction
    rows = ((1, Fraction(1, 2)), (Fraction(-3, 4), 0))
    doc = jsonio.matrix_to_json(rows)
    assert doc == {"rows": [[1, "1/2"], ["-3/4", 0]]}
    assert jsonio.matrix_from_json(doc) == rows


def test_matrix_rejects_floats():
    with pytest.raises(jsonio.InputError):
        jsonio.matrix_from_json({"rows": [[0.5]]})


def test_valuation_round_trip():
    nu = u24_valuation()
    doc = jsonio.valuation_to_json(nu)
    assert jsonio.valuation_from_json(doc) == nu
    # omitted bases default to infinity
    partial = {"ground": [1, 2, 3, 4], "d": 2,
               "values": [{"basis": [1, 2], "value": 0},
                          {"basis": [3, 4], "value": "inf"}]}
    got = jsonio.valuation_from_json(partial)
    assert got.value([1, 2]) == 0 and got.value([3, 4]) == mf.INF


def test_window_function_round_trip():
    f = WindowFunction(2, (-1, -1), (1, 1), {(0, 0): 3, (1, 1): -2})
    assert jsonio.window_function_from_json(jsonio.window_function_to_json(f)) == f


def test_toric_and_linearized_round_trip():
    rep = toric_example(2)
    assert jsonio.toric_from_json(jsonio.toric_to_json(rep)) == rep
    param = example_param(2, 2)
    assert jsonio.linearized_from_json(jsonio.linearized_to_json(param)) == param


def test_p_mismatch_rejected():
    with pytest.raises(jsonio.InputError):
        jsonio.toric_from_json(jsonio.toric_to_json(toric_example(2)), p_override=3)
    lin = jsonio.linearized_to_json(example_param(2, 2))
    with pytest.raises(jsonio.InputError):
        jsonio.linearized_from_json(lin, p_override=3)
    for read, doc in ((jsonio.toric_from_json, jsonio.toric_to_json(toric_example(2))),
                      (jsonio.linearized_from_json, lin)):
        with pytest.raises(jsonio.InputError):
            read({**doc, "p": "2"})
        with pytest.raises(jsonio.InputError, match="missing prime"):
            read({k: v for k, v in doc.items() if k != "p"})


def test_cli_bare_matrix_needs_p(tmp_path, capsys):
    # every toric reader takes a bare matrix {"rows": ...} with --p, or
    # naming its own p, and prints what it prints for the toric document of
    # that matrix
    rows = [[1, 0, 1, 1], [0, 1, 1, 2]]
    path = write(tmp_path, "A.json", {"rows": rows})
    named = write(tmp_path, "Ap.json", {"rows": rows, "p": 2})
    rep = write(tmp_path, "rep.json", jsonio.toric_to_json(toric_example(2)))
    for command in (["lindstrom-toric"], ["toric-matroid-at", "--alpha", "0,0,0,1"],
                    ["check-flock", "--radius", "1", "--from-toric"],
                    ["extract-valuation", "--from-toric"]):
        assert main([*command, path]) == 2
        assert "missing prime p" in capsys.readouterr().err
        assert main([*command, rep]) == 0
        want = capsys.readouterr().out
        assert main([*command, path, "--p", "2"]) == 0, command
        assert capsys.readouterr().out == want
        for args in ([named], [named, "--p", "2"]):
            assert main([*command, *args]) == 0, (command, args)
            assert capsys.readouterr().out == want
        assert main([*command, named, "--p", "3"]) == 2
        assert "p mismatch: file says 2, flag says 3" in capsys.readouterr().err
        for doc in (5, [[1, 0]], {"rows": [[1, "1/2"]]}):
            assert main([*command, write(tmp_path, "B.json", doc), "--p", "2"]) == 2
        capsys.readouterr()


def test_cli_toric_reader_names_the_toric_field(capsys):
    # a document with neither "A" nor "rows" (here a linearized one) is read
    # as a toric document, so the field it misses is the one a toric
    # document needs, not the bare matrix's
    param = str(Path(__file__).parent / "fixtures" / "paper_example_param.json")
    for command in (["lindstrom-toric"], ["toric-matroid-at", "--alpha", "0,0,0,0"],
                    ["check-flock", "--radius", "1", "--from-toric"]):
        assert main([*command, param]) == 2, command
        assert capsys.readouterr().err == "input error: missing field 'A'\n", command


def test_explicit_flock_from_json():
    doc = {"radius": 1, "entries": [
        {"alpha": [0, 0], "matroid": {"ground": [1, 2], "rank": 1,
                                      "bases": [[1], [2]]}},
        {"alpha": [1, 0], "matroid": {"ground": [1, 2], "rank": 1,
                                      "bases": [[1]]}},
    ]}
    flock = jsonio.explicit_flock_from_json(doc)
    assert sorted(flock.matroid_at((1, 0)).bases) == [(1,)]


# ---------------------------------------------------------------------------
# CLI

def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_cli_check_valuation(tmp_path, capsys):
    path = write(tmp_path, "v.json", jsonio.valuation_to_json(u24_valuation()))
    assert main(["check-valuation", path]) == 0
    assert json.loads(capsys.readouterr().out) == {"valid": True}


def test_cli_check_matroid_reports_violation_as_data(tmp_path, capsys):
    path = write(tmp_path, "m.json",
                 {"ground": [1, 2, 3, 4], "rank": 2, "bases": [[1, 2], [3, 4]]})
    assert main(["check-matroid", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["valid"] is False and out["kind"] == "B2"


def test_cli_lindstrom_toric(tmp_path, capsys):
    path = write(tmp_path, "A.json", {"rows": [[1, 0, 1, 1], [0, 1, 1, 2]]})
    assert main(["lindstrom-toric", "--p", "2", path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert {"basis": [1, 4], "value": 1} in doc["values"]
    assert jsonio.valuation_from_json(doc) == mf.lindstrom_toric(toric_example(2))


def test_cli_flock_from_linearized(tmp_path, capsys):
    path = write(tmp_path, "ex.json", jsonio.linearized_to_json(example_param(2, 2)))
    assert main(["flock-from-linearized", "--p", "2", path,
                 "--alpha", "0,-2,-2,0"]) == 0
    M = jsonio.matroid_from_json(json.loads(capsys.readouterr().out))
    assert M.parallel_pairs() == ((2, 3),)


def test_cli_extract_and_check_flock(tmp_path, capsys):
    vpath = write(tmp_path, "v.json", jsonio.valuation_to_json(u24_valuation()))
    assert main(["extract-valuation", "--from-valuation", vpath]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert jsonio.valuation_from_json(doc) == u24_valuation()
    assert main(["check-flock", "--from-valuation", vpath, "--radius", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["valid"] is True and doc["mf1"]["failed"] == 0


def test_cli_extract_cutoff_too_small_fails(tmp_path, capsys):
    nu = mf.Valuation.from_values([1, 2], 1, {(1,): 0, (2,): 3})
    vpath = write(tmp_path, "v.json", jsonio.valuation_to_json(nu))
    assert main(["extract-valuation", "--from-valuation", vpath, "--cutoff", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: round-trip mismatch")


def test_cli_extract_large_cutoff_in_bounded_time(tmp_path):
    # {3, 4} never becomes a basis: the walk toward it stops after spread + 1
    # steps, whatever the cutoff
    nu = mf.Valuation.from_values([1, 2, 3, 4], 2, {
        (1, 2): 3, (1, 3): 0, (1, 4): 0, (2, 3): 0, (2, 4): 0})
    path = write(tmp_path, "v.json", jsonio.valuation_to_json(nu))
    runs = [subprocess.run([sys.executable, "-m", "matflock.cli", "extract-valuation",
                            "--from-valuation", path, *extra],
                           capture_output=True, text=True, env=_cli_env(), timeout=30)
            for extra in ([], ["--cutoff", "1000000000"])]
    assert [done.returncode for done in runs] == [0, 0], runs[1].stderr
    assert runs[1].stdout == runs[0].stdout
    assert jsonio.valuation_from_json(json.loads(runs[0].stdout)) == nu.normalized()


def test_cli_extract_wide_spread_in_bounded_time_without_numpy(tmp_path):
    # walked point by point, {2} becomes a basis only after 2^60 steps
    nu = mf.Valuation([1, 2, 3], 1, {1: 0, 2: 2 ** 60 - 5, 4: 3})
    path = write(tmp_path, "v.json", jsonio.valuation_to_json(nu))
    done = subprocess.run([sys.executable, "-c", _NUMPY_PROBE, "extract-valuation",
                           "--from-valuation", path],
                          capture_output=True, text=True, env=_cli_env(), timeout=10)
    assert done.returncode == 0, done.stderr
    assert jsonio.valuation_from_json(json.loads(done.stdout)) == nu
    assert done.stderr.splitlines()[-1] == "numpy loaded: False"


def test_cli_rigidity_and_lazarson(capsys):
    assert main(["rigidity", "--name", "fano"]) == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "rigid"
    assert main(["rigidity", "--name", "uniform(2,4)"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] == "not_rigid" and "witness" in doc
    assert main(["lazarson", "--n", "2", "--variant", "minus"]) == 0
    M = jsonio.matroid_from_json(json.loads(capsys.readouterr().out))
    assert len(M.masks) == 29
    assert main(["lazarson-check", "--n", "4", "--p", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["divisible"] is True


def _cli_env():
    return dict(os.environ, PYTHONPATH=str(Path(mf.__file__).parents[1]))


def _run_cli(*args):
    return subprocess.run([sys.executable, "-m", "matflock.cli", *args],
                          capture_output=True, text=True, env=_cli_env(), timeout=10)


# runs the CLI as ``python -m matflock.cli`` does, then prints on stderr the
# sorted matflock submodules it loaded, which of the stdlib modules
# dataclasses and fractions it loaded, and whether numpy was imported at
# any point
_REPORT = """
import atexit, sys
def _report():
    print("matflock modules:", sorted(n for n in sys.modules if n.startswith("matflock.")),
          file=sys.stderr)
    print("stdlib loaded:", [n for n in ("dataclasses", "fractions") if n in sys.modules],
          file=sys.stderr)
    print("numpy loaded:", "numpy" in sys.modules, file=sys.stderr)
atexit.register(_report)
"""
_NUMPY_PROBE = _REPORT + """
import runpy
runpy.run_module("matflock.cli", run_name="__main__", alter_sys=True)
"""
# the same, run as the installed ``matflock`` console script runs it
_SCRIPT_PROBE = _REPORT + """
from matflock.__main__ import main
main()
"""


def _probe(*args, probe=_NUMPY_PROBE):
    """(numpy loaded, the matflock submodules loaded, which of dataclasses
    and fractions were loaded) by one CLI call."""
    done = subprocess.run([sys.executable, "-c", probe, *args],
                          capture_output=True, text=True, env=_cli_env(), timeout=10)
    assert done.returncode == 0, (args, done.stderr)
    modules, stdlib, numpy = done.stderr.splitlines()[-3:]
    assert modules.startswith("matflock modules: "), done.stderr
    assert stdlib.startswith("stdlib loaded: "), done.stderr
    return (numpy == "numpy loaded: True", modules[len("matflock modules: "):],
            stdlib[len("stdlib loaded: "):])


def _numpy_loaded(*args):
    return _probe(*args)[0]


def _modules(*names):
    return str([f"matflock.{name}" for name in sorted(names)])


def test_exact_commands_start_without_numpy(tmp_path):
    fixtures = Path(__file__).parent / "fixtures"
    matroid = str(fixtures / "uniform_2_4.json")
    nu = str(fixtures / "valuation_u24.json")
    mid = fixtures / "valuation_n7_d3.json"
    param = str(fixtures / "paper_example_param.json")
    point_fn = str(fixtures / "point_function_u24.json")
    rep = write(tmp_path, "rep.json", jsonio.toric_to_json(toric_example()))
    # 105 exchange quadruples: the numpy pass would check them were numpy
    # loaded, and a fresh process checks them without importing it
    values = jsonio.valuation_from_json(json.loads(mid.read_text())).finite
    quads = len(_exchange_faces(values, 7)) * 15
    assert _WARM_QUADS <= quads == 105 < _COLD_QUADS
    exact = [
        ("check-matroid", matroid),
        ("check-valuation", nu),
        ("check-valuation", str(mid)),
        ("support", nu),
        ("matroid-at", nu, "--alpha", "1,0,0,0"),
        ("g-value", nu, "--alpha", "1,0,0,0"),
        ("cells", nu, "--beta", "0,0,0,0"),
        ("lindstrom-toric", rep),
        ("toric-matroid-at", rep, "--alpha", "0,0,0,1"),
        ("extract-valuation", "--from-valuation", nu),
        ("extract-valuation", "--from-toric", rep),
        ("extract-valuation", "--from-linearized", param),
        ("flock-from-linearized", param, "--alpha", "0,-2,-2,0"),
        ("rigidity", "--name", "fano"),
        ("lazarson-check", "--n", "3", "--p", "3"),
        ("fenchel", point_fn, "--lo=-2,-2,-2,-2", "--hi", "2,2,2,2"),
    ]
    for args in exact:
        assert not _numpy_loaded(*args), args
    # the probe does see numpy where a box is scanned
    assert _numpy_loaded("check-flock", "--from-valuation", nu, "--radius", "1")
    # importing the CLI loads every module but the numpy-backed ones;
    # perfbench/tracer.py reads the traced modules from sys.modules right
    # after `import matflock.cli`, so a module loaded per command breaks it
    done = subprocess.run(
        [sys.executable, "-c", "import sys, matflock.cli; "
         "print(sorted(n for n in sys.modules if n == 'numpy' or n.startswith('matflock.')))"],
        capture_output=True, text=True, env=_cli_env(), timeout=10)
    assert done.returncode == 0, done.stderr
    assert done.stdout == str([f"matflock.{name}" for name in (
        "algebraic", "cli", "discrete_convex", "flock", "jsonio", "lattice", "linalg",
        "matroid", "rigidity", "valuation")]) + "\n"


def test_each_command_loads_only_its_modules():
    # run as a script, a command loads the modules its handler imports and
    # none of algebraic, flock, discrete_convex, rigidity and linalg beyond
    # them; of dataclasses and fractions it loads only fractions, and only
    # with linalg
    fixtures = Path(__file__).parent / "fixtures"
    nu = str(fixtures / "valuation_u24.json")
    point_fn = str(fixtures / "point_function_u24.json")
    toric = str(fixtures / "toric_wide.json")
    param = str(fixtures / "paper_example_param.json")
    base = ("jsonio", "lattice", "matroid", "valuation")
    expected = [
        (("check-valuation", nu), base),
        (("matroid-at", nu, "--alpha", "1,0,0,0"), base),
        (("cells", nu, "--beta", "0,0,0,0"), base),
        (("lindstrom-toric", toric), (*base, "algebraic", "linalg")),
        (("toric-matroid-at", toric, "--alpha", "1,0,0,0,0,0,0,0"),
         (*base, "algebraic", "linalg")),
        (("extract-valuation", "--from-valuation", nu), (*base, "flock")),
        (("extract-valuation", "--from-linearized", param),
         (*base, "algebraic", "flock", "linalg")),
        (("flock-from-linearized", param, "--alpha", "0,-2,-2,0"),
         (*base, "algebraic", "linalg")),
        (("fenchel", point_fn, "--lo=-2,-2,-2,-2", "--hi", "2,2,2,2"),
         (*base, "discrete_convex")),
        (("rigidity", "--name", "fano"), (*base, "linalg", "rigidity")),
    ]
    for args, names in expected:
        stdlib = str(["fractions"] if "linalg" in names else [])
        for probe, entry in ((_NUMPY_PROBE, ()), (_SCRIPT_PROBE, ("__main__",))):
            # the console script adds only its own entry module
            assert _probe(*args, probe=probe) == (False, _modules(*names, *entry), stdlib), args


def test_cli_large_prime_decided_in_bounded_time():
    # a subprocess, so that an unbounded primality test fails by timeout
    done = _run_cli("lazarson-check", "--n", "2", "--p", str(2 ** 61 - 1))
    assert done.returncode == 0
    assert json.loads(done.stdout)["divisible"] is False
    done = _run_cli("lazarson-check", "--n", "2", "--p", str(2 ** 89 - 1))
    assert done.returncode == 1                   # above the proven Miller-Rabin bound
    assert "not decided" in done.stderr


def test_cli_check_flock_sets_at_n8_in_bounded_time():
    # every nonempty set move over [-1, 1]^8 of a valuation with 70 bases:
    # 255 * 3^8 checks, on about 2700 distinct matroids
    path = Path(__file__).parent / "fixtures" / "valuation_n8_d4.json"
    done = subprocess.run([sys.executable, "-m", "matflock.cli", "check-flock",
                           "--from-valuation", str(path), "--radius", "1", "--sets"],
                          capture_output=True, text=True, env=_cli_env(), timeout=30)
    assert done.returncode == 0, done.stderr
    rep = json.loads(done.stdout)
    assert rep["valid"] is True and rep["sets"]["checked"] == 255 * 3 ** 8


# a 4 x 9 matrix on which a Smith-form saturation test never returned
HARD_TORIC_ROWS = [[-31, 18, -48, -29, -44, -50, -24, 48, 9],
                   [-5, 50, -4, 20, -46, 12, -27, -20, -49],
                   [-15, 5, -7, -44, 27, 19, -38, 7, -11],
                   [-17, -19, 36, 13, 3, 42, -17, -7, -45]]


def _hard_toric_minors():
    """The finite 2-adic minor valuations of HARD_TORIC_ROWS, one minor at a time."""
    vals = {B: mf.padic_minor_valuation(HARD_TORIC_ROWS, B, 2)
            for B in itertools.combinations(range(1, 10), 4)}
    return {B: v for B, v in vals.items() if v != mf.INF}


def test_cli_lindstrom_toric_saturation_in_bounded_time(tmp_path):
    path = write(tmp_path, "A.json", {"rows": HARD_TORIC_ROWS})
    done = _run_cli("lindstrom-toric", "--p", "2", path)
    assert done.returncode == 0
    got = {tuple(e["basis"]): e["value"] for e in json.loads(done.stdout)["values"]}
    assert got == _hard_toric_minors()


def test_cli_toric_matroid_at_in_bounded_time(tmp_path):
    path = write(tmp_path, "A.json", {"rows": HARD_TORIC_ROWS})
    done = _run_cli("toric-matroid-at", "--p", "2", "--alpha", "0,0,0,0,0,0,0,0,0", path)
    assert done.returncode == 0
    # at alpha = 0 the bases are the minors of least valuation, 0 when saturated
    want = {B for B, v in _hard_toric_minors().items() if v == 0}
    assert {tuple(B) for B in json.loads(done.stdout)["bases"]} == want


def test_cli_check_valuation_one_basis_wide_ground_in_bounded_time(tmp_path):
    # n = 20, d = 10: the exchange check visits only quadruples around the basis
    doc = {"ground": list(range(1, 21)), "d": 10,
           "values": [{"basis": list(range(1, 11)), "value": 0}]}
    done = _run_cli("check-valuation", write(tmp_path, "nu.json", doc))
    assert done.returncode == 0
    assert json.loads(done.stdout) == {"valid": True}


def test_cli_cells_and_leaders(tmp_path, capsys):
    vpath = write(tmp_path, "v.json", jsonio.valuation_to_json(u24_valuation()))
    assert main(["cells", vpath, "--beta", "0,0,0,0"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["matroid"]["bases"] == [[1, 3], [1, 4], [2, 3], [2, 4]]
    assert main(["leaders", vpath]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["complete"] is True
    assert [[0, 0, -1, -1], [0, 0, 1, 1]] == doc["zero_dimensional_cells"]


def test_cli_svg(tmp_path):
    vpath = write(tmp_path, "v.json", jsonio.valuation_to_json(u24_valuation()))
    out = tmp_path / "cells.svg"
    assert main(["--out", str(out), "cells", vpath, "--svg",
                 "--axes", "3,4", "--radius", "3"]) == 0
    text = out.read_text()
    assert text.startswith("<svg") and "<rect" in text
    import xml.dom.minidom
    xml.dom.minidom.parseString(text)


def test_cli_fenchel(tmp_path, capsys):
    f = mf.valuation_point_function(u24_valuation())
    path = write(tmp_path, "f.json", jsonio.window_function_to_json(f))
    assert main(["fenchel", path, "--lo=-2,-2,-2,-2", "--hi", "2,2,2,2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    got = jsonio.window_function_from_json(doc)
    assert got((0, 0, 0, 0)) == mf.g_value(u24_valuation(), (0, 0, 0, 0))


@pytest.mark.parametrize("option", ["--alpha", "--beta", "--lo", "--hi"])
def test_cli_vector_option_value_may_start_with_minus(tmp_path, capsys, option):
    # argparse takes a separate value that starts with "-" for a flag; the
    # value of a vector option is joined to it, so "--alpha -1,0" prints
    # what "--alpha=-1,0" prints
    vpath = write(tmp_path, "v.json", jsonio.valuation_to_json(u24_valuation()))
    fpath = write(tmp_path, "f.json", jsonio.window_function_to_json(
        mf.valuation_point_function(u24_valuation())))
    argv = {"--alpha": ["matroid-at", vpath, "--alpha", "-1,0,2,0"],
            "--beta": ["cells", vpath, "--beta", "-1,0,0,0"],
            "--lo": ["fenchel", fpath, "--lo", "-2,-2,-2,-2", "--hi", "2,2,2,2"],
            "--hi": ["fenchel", fpath, "--lo=-3,-3,-3,-3", "--hi", "-1,-1,-1,-1"]}[option]
    assert main(argv) == 0
    got = capsys.readouterr().out
    k = argv.index(option)
    assert main([*argv[:k], f"{option}={argv[k + 1]}", *argv[k + 2:]]) == 0
    assert capsys.readouterr().out == got
    if option == "--alpha":
        # the script reads sys.argv the same way
        toric = str(Path(__file__).parent / "fixtures" / "toric_wide.json")
        done = _run_cli("toric-matroid-at", toric, "--alpha", "-1,0,0,0,0,0,0,0")
        assert done.returncode == 0, done.stderr
        assert main(["toric-matroid-at", toric, "--alpha=-1,0,0,0,0,0,0,0"]) == 0
        assert capsys.readouterr().out == done.stdout


def test_cli_g_value_matroid_at_support(tmp_path, capsys):
    vpath = write(tmp_path, "v.json", jsonio.valuation_to_json(u24_valuation()))
    assert main(["g-value", vpath, "--alpha", "1,0,0,0"]) == 0
    assert json.loads(capsys.readouterr().out)["g"] == 1
    assert main(["matroid-at", vpath, "--alpha", "2,0,1,0"]) == 0
    assert json.loads(capsys.readouterr().out)["bases"] == [[1, 3]]
    assert main(["support", vpath]) == 0
    assert len(json.loads(capsys.readouterr().out)["bases"]) == 6


def test_cli_check_ff(tmp_path, capsys):
    path = write(tmp_path, "ex.json", jsonio.linearized_to_json(example_param(2, 1)))
    assert main(["check-ff", path, "--radius", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["valid"] is True


def test_cli_check_ff_prints_report_document(tmp_path, capsys):
    param = example_param(2, 2)
    path = write(tmp_path, "ex.json", jsonio.linearized_to_json(param))
    assert main(["check-ff", path, "--radius", "2"]) == 0
    doc = jsonio.frobenius_report_to_json(mf.check_frobenius_axioms(param, 2))
    assert capsys.readouterr().out == json.dumps(doc, indent=2) + "\n"
    assert doc["radius"] == 2 and doc["ff2"]["checked"] == 5 ** 4


def test_cli_empty_parametrization_exit_2(capsys):
    # no coordinates: every linearized command refuses the input itself
    path = str(Path(__file__).parent / "fixtures" / "malformed_linearized_no_coords.json")
    for argv in (["check-ff", path, "--radius", "1"],
                 ["flock-from-linearized", path, "--alpha", "0"],
                 ["extract-valuation", "--from-linearized", path],
                 ["check-flock", "--from-linearized", path]):
        assert main(argv) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == ("input error: bad linearized parametrization: "
                           "no coordinates: empty ground set\n"), argv


@pytest.mark.parametrize("name", ["malformed_linearized_p_float.json",
                                  "malformed_linearized_p_bool.json"])
def test_cli_prime_must_be_a_json_int(tmp_path, capsys, name):
    # "p": 2.0 and "p": true are refused as the wrong type, as the other
    # integer fields of a document are, not read as 2 or as "True is not prime"
    path = str(Path(__file__).parent / "fixtures" / name)
    p = json.loads(Path(path).read_text())["p"]
    toric = write(tmp_path, "t.json", {"p": p, "A": [[1, 0, 1], [0, 1, 1]]})
    for argv in (["check-ff", path, "--radius", "1"],
                 ["extract-valuation", "--from-linearized", path], ["lindstrom-toric", toric]):
        assert main(argv) == 2
        out = capsys.readouterr()
        assert out.out == "" and out.err == "input error: field 'p' has the wrong type\n", argv


def test_cli_null_prime_has_the_wrong_type(tmp_path, capsys):
    # a "p": null that is present is a field of the wrong type, with --p and
    # without it, not a missing prime
    toric = write(tmp_path, "t.json", {"p": None, "A": [[1, 0, 1, 1], [0, 1, 1, 2]]})
    param = write(tmp_path, "l.json",
                  {**jsonio.linearized_to_json(example_param(2, 2)), "p": None})
    for argv in (["lindstrom-toric", toric], ["check-ff", param, "--radius", "1"]):
        for flag in ([], ["--p", "2"]):
            assert main([*argv, *flag]) == 2
            out = capsys.readouterr()
            assert out.out == "" and out.err == "input error: field 'p' has the wrong type\n", \
                (argv, flag)


def test_cli_check_flock_explicit_table(tmp_path, capsys):
    nu = mf.Valuation.from_values([1, 2], 1, {(1,): 0, (2,): 0})
    entries = []
    for k in range(-3, 4):
        for l in range(-3, 4):
            entries.append({"alpha": [k, l],
                            "matroid": jsonio.matroid_to_json(mf.matroid_at(nu, (k, l)))})
    path = write(tmp_path, "table.json", {"radius": 3, "entries": entries})
    assert main(["check-flock", "--explicit", path, "--radius", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["valid"] is True


def test_cli_input_errors_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("not json")
    assert main(["check-valuation", str(bad)]) == 2
    assert main(["check-valuation", str(tmp_path / "missing.json")]) == 2
    vpath = write(tmp_path, "v.json", jsonio.valuation_to_json(u24_valuation()))
    assert main(["matroid-at", vpath, "--alpha", "1,2"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("content", [b'{"ground": ["\xe9"]}', b'{"d": ' + b"9" * 5000 + b"}"],
                         ids=["latin1", "5000_digits"])
def test_cli_undecodable_input_exit_2(tmp_path, capsys, content):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    assert main(["check-valuation", str(bad)]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith(f"input error: {bad} is not valid JSON: ")


def test_cli_deeply_nested_input_exit_2(tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000 + "]" * 200_000)
    assert main(["check-valuation", str(deep)]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err == f"input error: {deep} nests too deeply to read\n"


@pytest.mark.parametrize("target, reason", [("missing/dir/out.json", "No such file or directory"),
                                            (".", "Is a directory")])
def test_cli_unwritable_out_exit_2(tmp_path, capsys, target, reason):
    vpath = write(tmp_path, "v.json", jsonio.valuation_to_json(u24_valuation()))
    out_path = str(tmp_path / target)
    assert main(["--out", out_path, "check-valuation", vpath]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err == f"input error: cannot write {out_path}: {reason}\n"


def test_cli_domain_errors_exit_1(tmp_path, capsys):
    path = write(tmp_path, "A.json", {"rows": [[2, 0], [0, 2]]})
    assert main(["lindstrom-toric", "--p", "2", path]) == 2  # rejected at parse
    # unsaturated matrix embedded in a toric document also fails cleanly
    path2 = write(tmp_path, "t.json", {"p": 2, "A": [[2, 0], [0, 2]]})
    assert main(["lindstrom-toric", path2]) == 2
    capsys.readouterr()


def test_cli_check_flock_rejects_non_valuation(tmp_path, capsys):
    # M_0 of {12: 0, 34: 0} has bases {1,2} and {3,4}: not a matroid
    path = write(tmp_path, "v.json", {"ground": [1, 2, 3, 4], "d": 2, "values": [
        {"basis": [1, 2], "value": 0}, {"basis": [3, 4], "value": 0}]})
    assert main(["check-flock", "--from-valuation", path, "--radius", "1"]) == 1
    assert "V2" in capsys.readouterr().err


NON_VALUATION = {"ground": [1, 2, 3, 4], "d": 2, "values": [
    {"basis": [1, 2], "value": 0}, {"basis": [3, 4], "value": 0}]}


@pytest.mark.parametrize("command", [
    ["support"], ["matroid-at", "--alpha", "0,0,0,0"], ["g-value", "--alpha", "0,0,0,0"],
    ["cells"], ["leaders"],
], ids=lambda command: command[0])
def test_cli_valuation_commands_reject_non_valuation(tmp_path, capsys, command):
    # {12, 34} is not a matroid; no command may print it as one
    path = write(tmp_path, "v.json", NON_VALUATION)
    assert main([command[0], path, *command[1:]]) == 1
    out = capsys.readouterr()
    assert out.out == "" and "(V2)" in out.err


@pytest.mark.parametrize("doc", [
    {"ground": [1, 2, 3, 4], "rank": 2, "bases": [5]},
    {"ground": [1, 2, 3, 4], "rank": 2, "bases": [[1, [2]]]},
    {"ground": [1, 2], "rank": True, "bases": [[1], [2]]},
    {"ground": [True, False], "rank": 1, "bases": [[True]]},
], ids=["basis-not-a-list", "nested-label", "boolean-rank", "boolean-labels"])
def test_cli_check_matroid_malformed_input_exit_2(tmp_path, capsys, doc):
    assert main(["check-matroid", write(tmp_path, "m.json", doc)]) == 2
    out = capsys.readouterr()
    assert out.out == "" and "input error" in out.err


_U12 = {"ground": [1, 2], "rank": 1, "bases": [[1], [2]]}


def _point_function(lo=(0, 0), hi=(1, 1), x=(0, 0)):
    return {"n": 2, "lo": list(lo), "hi": list(hi), "values": [{"x": list(x), "v": 0}]}


_FENCHEL = ["fenchel", "--lo", "0,0", "--hi", "1,1"]


@pytest.mark.parametrize("command, doc", [
    (["extract-valuation", "--explicit"], "malformed_explicit_alpha.json"),
    (["extract-valuation", "--explicit"],
     {"entries": [{"alpha": [0.5, 0], "matroid": _U12}]}),
    (_FENCHEL, "malformed_point_function_x.json"),
    (_FENCHEL, _point_function(lo=(0.5, 0))),
    (_FENCHEL, _point_function(hi=(1, True))),
    (_FENCHEL, _point_function(x=(True, 0.9))),
], ids=["alpha-list", "alpha-float", "x-list", "lo-float", "hi-bool", "x-bool-float"])
def test_cli_non_integer_coordinates_exit_2(tmp_path, command, doc):
    # a coordinate that is not an int is refused, not hashed or truncated
    path = (str(Path(__file__).parent / "fixtures" / doc) if isinstance(doc, str)
            else write(tmp_path, "doc.json", doc))
    done = _run_cli(*command, path)
    assert done.returncode == 2, done.stderr
    assert done.stdout == "" and done.stderr.startswith("input error: ")
    assert "Traceback" not in done.stderr


# a valid window-function document, and the classes of malformed ones:
# each mutation breaks one rule of the loader
_WINDOW_DOC = {"n": 2, "lo": [0, -1], "hi": [2, 1], "values": [
    {"x": [0, 0], "v": 1}, {"x": [1, 1], "v": "inf"}, {"x": [2, -1], "v": -3}]}
_NOT_INT = st.one_of(st.booleans(), st.floats(), st.text(max_size=3),
                     st.lists(st.integers(-2, 2), max_size=2))


def _bad_coordinate(draw, doc):
    bad = draw(_NOT_INT)
    field = draw(st.sampled_from(["n", "lo", "hi", "x"]))
    if field == "n":
        doc["n"] = bad
    elif field == "x":
        draw(st.sampled_from(doc["values"]))["x"][draw(st.integers(0, 1))] = bad
    else:
        doc[field][draw(st.integers(0, 1))] = bad


def _bad_value(draw, doc):
    bad = draw(_NOT_INT.filter(lambda v: v != "inf"))
    draw(st.sampled_from(doc["values"]))["v"] = bad


def _bound_length(draw, doc):
    field = draw(st.sampled_from(["lo", "hi"]))
    if draw(st.booleans()):
        doc[field].append(0)
    else:
        doc[field].pop()


def _lo_above_hi(draw, doc):
    k = draw(st.integers(0, 1))
    doc["lo"][k] = doc["hi"][k] + draw(st.integers(1, 3))


def _outside(draw, doc):
    entry = draw(st.sampled_from(doc["values"]))
    kind = draw(st.sampled_from(["below", "above", "short", "long"]))
    k = draw(st.integers(0, 1))
    if kind == "below":
        entry["x"][k] = doc["lo"][k] - draw(st.integers(1, 3))
    elif kind == "above":
        entry["x"][k] = doc["hi"][k] + draw(st.integers(1, 3))
    elif kind == "short":
        entry["x"].pop()
    else:
        entry["x"].append(0)


def _repeated_x(draw, doc):
    entry = draw(st.sampled_from(doc["values"]))
    doc["values"].insert(draw(st.integers(0, 3)),
                         {"x": list(entry["x"]), "v": draw(st.sampled_from([0, 5, "inf"]))})


def _all_inf(draw, doc):
    for entry in doc["values"]:
        entry["v"] = "inf"


def _entry_not_dict(draw, doc):
    bad = draw(st.one_of(st.integers(), st.text(max_size=3), st.none(),
                         st.lists(st.integers(-2, 2), max_size=2)))
    doc["values"][draw(st.integers(0, 2))] = bad


def _values_not_list(draw, doc):
    doc["values"] = draw(st.one_of(st.integers(), st.text(max_size=3), st.none(),
                                   st.just({"x": [0, 0], "v": 1})))


_MALFORMED_WINDOW = {
    "coordinate": _bad_coordinate, "value": _bad_value, "bound-length": _bound_length,
    "lo-above-hi": _lo_above_hi, "outside": _outside, "repeated-x": _repeated_x,
    "all-inf": _all_inf, "entry-not-dict": _entry_not_dict,
    "values-not-list": _values_not_list,
}


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_window_function_loader_refuses_malformed_documents(data):
    # whatever the class, the loader refuses with InputError, never another
    # exception
    kind = data.draw(st.sampled_from(sorted(_MALFORMED_WINDOW)))
    doc = json.loads(json.dumps(_WINDOW_DOC))
    _MALFORMED_WINDOW[kind](data.draw, doc)
    doc = json.loads(json.dumps(doc))
    with pytest.raises(jsonio.InputError):
        jsonio.window_function_from_json(doc)


def test_window_function_loader_reads_the_valid_document():
    f = jsonio.window_function_from_json(_WINDOW_DOC)
    assert f == WindowFunction(2, (0, -1), (2, 1), {(0, 0): 1, (2, -1): -3})


@pytest.mark.parametrize("kind, doc", [
    ("coordinate", {**_WINDOW_DOC, "lo": [0, "0"]}),
    ("value", {**_WINDOW_DOC, "values": [{"x": [0, 0], "v": [1]}]}),
    ("bound-length", {**_WINDOW_DOC, "hi": [2, 1, 0]}),
    ("lo-above-hi", {**_WINDOW_DOC, "lo": [3, -1]}),
    ("outside", {**_WINDOW_DOC, "values": [{"x": [0, 2], "v": 1}]}),
    # an "inf" point is in the document too: it must lie in the box as well
    ("outside-inf", {**_WINDOW_DOC, "values": [{"x": [0, 0], "v": 1}, {"x": [5], "v": "inf"}]}),
    ("repeated-x", {**_WINDOW_DOC, "values": [{"x": [0, 0], "v": 1}, {"x": [0, 0], "v": 2}]}),
    ("all-inf", {**_WINDOW_DOC, "values": [{"x": [0, 0], "v": "inf"}]}),
    ("entry-not-dict", {**_WINDOW_DOC, "values": [[0, 0, 1]]}),
    ("values-not-list", {**_WINDOW_DOC, "values": {"x": [0, 0], "v": 1}}),
], ids=lambda v: v if isinstance(v, str) else "")
def test_cli_fenchel_malformed_window_exit_2(tmp_path, kind, doc):
    done = _run_cli("fenchel", write(tmp_path, "f.json", doc), "--lo", "0,0", "--hi", "1,1")
    assert done.returncode == 2, (kind, done.stderr)
    assert done.stdout == "" and done.stderr.startswith("input error: ")
    assert "Traceback" not in done.stderr


# every command that reads a toric or linearized document, by the kind it
# reads, with placeholders for the document's path and an alpha
_SOURCE_COMMANDS = [
    ("toric", ["lindstrom-toric", "{path}"]),
    ("toric", ["toric-matroid-at", "{path}", "--alpha={alpha}"]),
    ("toric", ["check-flock", "--from-toric", "{path}", "--radius", "1"]),
    ("toric", ["extract-valuation", "--from-toric", "{path}"]),
    ("linearized", ["flock-from-linearized", "{path}", "--alpha={alpha}"]),
    ("linearized", ["check-ff", "{path}", "--radius", "1"]),
    ("linearized", ["check-flock", "--from-linearized", "{path}", "--radius", "1"]),
    ("linearized", ["extract-valuation", "--from-linearized", "{path}"]),
]
# JSON values of every type, small enough for any field
_JUNK = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-3, 64), st.floats(-4, 4),
              st.text(max_size=3)),
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.sampled_from(["p", "A", "rows", "v", "k", "c"]),
                                            inner, max_size=3)),
    max_leaves=6)


@st.composite
def _source_calls(draw):
    """A source command, an alpha and a document: mostly a valid one of the
    kind the command reads (a toric matrix at most 4 x 6, an identity block
    and entries in [-4, 4] with columns shuffled, maybe bare with --p; or a
    parametrization with levels at most 64), and then, mostly, one value
    somewhere in it replaced by junk or dropped."""
    kind, argv = draw(st.sampled_from(_SOURCE_COMMANDS))
    if not draw(st.integers(0, 5)):
        kind = "toric" if kind == "linearized" else "linearized"
    p = draw(st.sampled_from([2, 3, 5, 2, 3, 5, 4, 1]))
    if kind == "linearized":
        m, n = draw(st.integers(1, 3)), draw(st.integers(1, 6))
        level = st.tuples(st.integers(0, m - 1), st.integers(0, 64))
        coords = [[{"v": v, "k": k, "c": draw(st.integers(1, max(p - 1, 1)))}
                   for v, k in draw(st.lists(level, min_size=1, max_size=3, unique=True))]
                  for _ in range(n)]
        doc = {"p": p, "params": ["x"] * m, "coords": coords}
    else:
        d = draw(st.integers(1, 4))
        n = draw(st.integers(d, 6))
        order = draw(st.permutations(range(n)))
        rows = [[int(i == j) for j in range(d)] + draw(st.lists(
            st.integers(-4, 4), min_size=n - d, max_size=n - d)) for i in range(d)]
        rows = [[row[j] for j in order] for row in rows]
        if draw(st.booleans()):
            doc = {"p": p, "A": rows}
        else:
            doc = {"rows": rows}
            if draw(st.integers(0, 3)):
                argv = [*argv, "--p", str(p)]
    alpha = ",".join(map(str, draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n)
                                   if draw(st.integers(0, 5)) else
                                   st.lists(st.integers(-2, 2), min_size=1, max_size=7))))
    node = doc
    while draw(st.integers(0, 2)):
        keys = list(node) if isinstance(node, dict) else range(len(node))
        if not keys:
            break
        key = draw(st.sampled_from(keys))
        if not isinstance(node[key], (dict, list)) or not draw(st.integers(0, 2)):
            if isinstance(node, dict) and draw(st.booleans()):
                del node[key]
            else:
                node[key] = draw(_JUNK)
            break
        node = node[key]
    return argv, alpha, doc


def assert_ends_in_an_exit_code(argv, doc, **fields):
    """``cli.main`` on ``argv`` formatted with the path of ``doc`` written
    as JSON (and ``fields``) exits 0 with JSON on stdout, or 1 or 2 with one
    ``error:`` or ``input error:`` line, and raises nothing."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        Path(path).write_text(json.dumps(doc))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([arg.format(path=path, **fields) for arg in argv])
    lines = err.getvalue().splitlines()
    assert code in (0, 1, 2)
    if code == 2:
        assert len(lines) == 1 and lines[0].startswith("input error: "), lines
    elif code == 1:
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
    else:
        assert lines == [] and json.loads(out.getvalue())


@settings(max_examples=200, deadline=None)
@given(_source_calls())
def test_cli_source_documents_end_in_an_exit_code(call):
    # whatever the document, every source command exits 0, 1 or 2 without
    # a traceback, and an input error is one line
    argv, alpha, doc = call
    assert_ends_in_an_exit_code(argv, doc, alpha=alpha)


_EXPLICIT_COMMANDS = [["check-flock", "--explicit", "{path}", "--radius", "1"],
                      ["check-flock", "--explicit", "{path}", "--radius", "1", "--sets"],
                      ["extract-valuation", "--explicit", "{path}"]]


@st.composite
def _explicit_calls(draw):
    """An explicit-table command and a document: mostly the table of a
    valid valuation's flock on [-1, 2]^n, n <= 3 (the box a radius-1 check
    reads), or on [-2, 3]^n (the box extraction verifies at radius 2), and
    then, mostly, one change: an entry of another rank or on
    another ground set, an alpha coordinate that is a bool, a float, a
    string or past 2^63, two entries' matroids swapped (a table that need
    not be a flock), an entry dropped, or a value replaced by junk."""
    argv = draw(st.sampled_from(_EXPLICIT_COMMANDS))
    n = draw(st.integers(1, 3))
    d = draw(st.integers(1, n))
    nu = random_valid_valuation(random.Random(draw(st.integers(0, 1 << 16))), n, d)
    pad = draw(st.integers(1, 2))
    entries = [{"alpha": list(alpha), "matroid": jsonio.matroid_to_json(mf.matroid_at(nu, alpha))}
               for alpha in itertools.product(range(-pad, pad + 2), repeat=n)]
    entry = draw(st.sampled_from(entries))
    change = draw(st.sampled_from(["none", "rank", "ground", "alpha", "swap", "drop", "junk"]))
    if change == "rank":
        entry["matroid"] = jsonio.matroid_to_json(mf.uniform_matroid(d % n + 1, n))
    elif change == "ground":
        entry["matroid"] = jsonio.matroid_to_json(mf.uniform_matroid(d, n + 1))
    elif change == "alpha":
        entry["alpha"][draw(st.integers(0, n - 1))] = draw(st.sampled_from(
            [True, False, 1.0, 0.5, "0", 1 << 63, -(1 << 70), 10 ** 30]))
    elif change == "swap":
        other = draw(st.sampled_from(entries))
        entry["matroid"], other["matroid"] = other["matroid"], entry["matroid"]
    elif change == "drop":
        entries.remove(entry)
    elif change == "junk":
        key = draw(st.sampled_from(["alpha", "matroid"]))
        node = entry if key == "alpha" else entry["matroid"]
        if key == "matroid":
            key = draw(st.sampled_from(["ground", "rank", "bases"]))
        node[key] = draw(_JUNK)
    return argv, {"entries": entries}


@settings(max_examples=200, deadline=None)
@given(_explicit_calls())
def test_cli_explicit_tables_end_in_an_exit_code(call):
    # mixed ranks and grounds, bool, float and huge alphas and tables that
    # are no flock: check-flock and extract-valuation on an explicit table
    # exit 0, 1 or 2 without a traceback, and an error is one line
    argv, doc = call
    assert_ends_in_an_exit_code(argv, doc)


# each mutated fixture's kind and an alpha of its length, and the commands
# that read each kind beyond the source documents, with placeholders for the
# document's path and the alpha
_FIXTURE_KINDS = {"toric_wide.json": ("toric", "0,0,0,1,0,0,0,-1"),
                  "paper_example_param.json": ("linearized", "0,-2,-2,0"),
                  "valuation_u24.json": ("valuation", "1,0,0,0"),
                  "explicit_n3_swapped.json": ("explicit", None)}
_KIND_COMMANDS = _SOURCE_COMMANDS + [
    ("valuation", ["check-valuation", "{path}"]),
    ("valuation", ["support", "{path}"]),
    ("valuation", ["matroid-at", "{path}", "--alpha={alpha}"]),
    ("valuation", ["g-value", "{path}", "--alpha={alpha}"]),
    ("valuation", ["cells", "{path}"]),
    ("valuation", ["leaders", "{path}"]),
    ("valuation", ["check-flock", "--from-valuation", "{path}", "--radius", "1"]),
    ("valuation", ["extract-valuation", "--from-valuation", "{path}"]),
    ("explicit", ["check-flock", "--explicit", "{path}", "--radius", "1"]),
    ("explicit", ["check-flock", "--explicit", "{path}", "--radius", "1", "--sets"]),
    ("explicit", ["extract-valuation", "--explicit", "{path}"]),
]


def _mutated(rng, doc):
    """``doc`` with one key or list item dropped, or its value replaced by a
    string, a float, a bool, a huge int or a nested list, at a random depth."""
    node = doc = json.loads(json.dumps(doc))
    while True:
        key = rng.choice(list(node) if isinstance(node, dict) else range(len(node)))
        if not (isinstance(node[key], (dict, list)) and node[key] and rng.random() < 0.6):
            break
        node = node[key]
    if rng.random() < 0.5:
        del node[key]
    else:
        node[key] = rng.choice(["x", 0.5, True, 10 ** 30, [[1]]])
    return doc


def test_cli_subprocess_mutated_fixtures_end_in_an_exit_code(tmp_path):
    # the CLI as a process, under a wall-clock bound: each of 24 mutated
    # fixtures, through every command that reads its kind, exits 0, 1 or 2
    # without a traceback, and an error is one line
    rng = random.Random(44)
    names = sorted(_FIXTURE_KINDS)
    for k in range(24):
        name = names[k % len(names)]
        kind, alpha = _FIXTURE_KINDS[name]
        doc = _mutated(rng, json.loads((Path(__file__).parent / "fixtures" / name).read_text()))
        path = write(tmp_path, f"doc{k}.json", doc)
        for argv in (argv for reads, argv in _KIND_COMMANDS if reads == kind):
            args = [arg.format(path=path, alpha=alpha) for arg in argv]
            done = subprocess.run([sys.executable, "-m", "matflock.cli", *args],
                                  capture_output=True, text=True, env=_cli_env(), timeout=30)
            lines = done.stderr.splitlines()
            assert done.returncode in (0, 1, 2) and "Traceback" not in done.stderr, (args, doc)
            if done.returncode:
                prefix = "input error: " if done.returncode == 2 else "error: "
                assert len(lines) == 1 and lines[0].startswith(prefix), (args, doc, lines)


@pytest.mark.parametrize("command", [["check-flock", "--radius", "1", "--explicit"],
                                     ["extract-valuation", "--explicit"]])
def test_cli_wrong_length_alpha_exit_2(command):
    # an alpha shorter than the ground set is an input error naming it, not a
    # lookup outside the window
    path = str(Path(__file__).parent / "fixtures" / "malformed_explicit_alpha_length.json")
    done = _run_cli(*command, path)
    assert done.returncode == 2, done.stderr
    assert done.stdout == "" and "Traceback" not in done.stderr
    assert done.stderr.startswith("input error: ") and "(0,) has length 1, expected 2" in done.stderr


def test_from_values_refuses_repeated_subset():
    # in any order of its elements, and whether either value is ∞
    for pairs in ([((1, 2), 0), ((2, 1), 5)], [((1, 2), 0), ((1, 2), mf.INF)],
                  [((2, 1), mf.INF), ((1, 2), 0)]):
        with pytest.raises(ValueError, match=r"subset \[1, 2\] listed twice"):
            mf.Valuation.from_values([1, 2, 3], 2, pairs)


@pytest.mark.parametrize("value", [2.5, True])
def test_from_values_refuses_non_int_values(value):
    # as the constructor does: no silent int() truncation of 2.5 or True
    pairs = [((1, 2), value), ((1, 3), 0), ((2, 3), 0)]
    with pytest.raises(ValueError, match=f"finite values must be ints, got {value!r}"):
        mf.Valuation.from_values([1, 2, 3], 2, pairs)


@pytest.mark.parametrize("command, doc, named", [
    (["check-valuation"], "malformed_valuation_repeated_basis.json",
     "subset [1, 2] listed twice"),
    (_FENCHEL, "malformed_point_function_repeated_x.json", "point x=[0, 0] listed twice"),
    (["check-flock", "--radius", "1", "--explicit"], "malformed_explicit_repeated_alpha.json",
     "alpha=[0, 0] listed twice"),
], ids=["basis", "x", "alpha"])
def test_cli_repeated_entry_exit_2(command, doc, named):
    # a second entry for the same basis, x or alpha is refused, not a silent
    # overwrite whose outcome depends on the order of the entries
    done = _run_cli(*command, str(Path(__file__).parent / "fixtures" / doc))
    assert done.returncode == 2, done.stderr
    assert done.stdout == "" and "Traceback" not in done.stderr
    assert done.stderr.startswith("input error: ") and named in done.stderr


@pytest.mark.parametrize("command, doc, prefix", [
    (["check-valuation"], "malformed_valuation_repeated_element.json",
     "bad valuation document: "),
    (["extract-valuation", "--from-valuation"], "malformed_valuation_repeated_element.json",
     "bad valuation document: "),
    (["check-matroid"], "malformed_matroid_repeated_element.json", ""),
    (["rigidity"], "malformed_matroid_repeated_element.json", "bad matroid document: "),
], ids=["check-valuation", "extract-valuation", "check-matroid", "rigidity"])
def test_cli_repeated_element_exit_2(command, doc, prefix):
    # a basis [1, 1, 2] is refused by every reader with one message, not
    # read as {1, 2}
    done = _run_cli(*command, str(Path(__file__).parent / "fixtures" / doc))
    assert done.returncode == 2, done.stderr
    assert done.stdout == ""
    assert done.stderr == f"input error: {prefix}subset [1, 1, 2] repeats an element\n"


def test_cli_check_matroid_label_of_other_type_exit_2(tmp_path):
    path = write(tmp_path, "m.json", {"ground": [1, 2, 3], "rank": 2, "bases": [[1, "x"]]})
    done = _run_cli("check-matroid", path)
    assert done.returncode == 2, done.stderr
    assert done.stdout == "" and done.stderr == "input error: unknown element 'x'\n"


@pytest.mark.parametrize("command, doc, message", [
    (["check-matroid"], {"ground": [1, 2, 3], "rank": 2, "bases": [[1, 2], [True, 3]]},
     "unknown element True"),
    (["check-matroid"], {"ground": [1, 2, 3], "rank": 2, "bases": [[1, 2], [1.0, 3]]},
     "unknown element 1.0"),
    (["check-valuation"], {"ground": [1, 2, 3], "d": 2,
                           "values": [{"basis": [1, 2], "value": 0},
                                      {"basis": [True, 3], "value": 0}]},
     "bad valuation document: unknown element True"),
], ids=["check-matroid-bool", "check-matroid-float", "check-valuation-bool"])
def test_cli_label_equal_to_a_ground_label_exit_2(tmp_path, command, doc, message):
    # true and 1.0 equal the label 1, but a ground of ints has no such label
    done = _run_cli(*command, write(tmp_path, "doc.json", doc))
    assert done.returncode == 2, done.stderr
    assert done.stdout == "" and done.stderr == f"input error: {message}\n"


def test_json_integer_fields_reject_booleans():
    with pytest.raises(jsonio.InputError):
        jsonio.valuation_from_json({"ground": [1, 2], "d": True, "values": []})
    with pytest.raises(jsonio.InputError):
        jsonio.window_function_from_json({"n": True, "lo": [0], "hi": [0], "values": []})


def test_cli_rigidity_rejects_non_matroid(tmp_path, capsys):
    path = write(tmp_path, "m.json",
                 {"ground": [1, 2, 3, 4], "rank": 2, "bases": [[1, 2], [3, 4]]})
    assert main(["rigidity", path]) == 1
    out = capsys.readouterr()
    assert out.out == "" and "(B2)" in out.err


def test_cli_fixture_is_a_matroid(capsys):
    # the fixture the installed-package CI job feeds to check-matroid
    path = Path(__file__).parent / "fixtures" / "uniform_2_4.json"
    assert main(["check-matroid", str(path)]) == 0
    assert json.loads(capsys.readouterr().out) == {"valid": True}


def test_cli_flock_fixtures_pass(capsys):
    # the fixtures the installed-package CI job feeds to check-flock and check-ff
    fixtures = Path(__file__).parent / "fixtures"
    assert jsonio.valuation_from_json(
        json.loads((fixtures / "valuation_u24.json").read_text())) == u24_valuation()
    param = jsonio.linearized_from_json(
        json.loads((fixtures / "paper_example_param.json").read_text()))
    assert param.coords == example_param(2, 2).coords
    assert main(["check-flock", "--from-valuation", str(fixtures / "valuation_u24.json"),
                 "--radius", "3", "--sets"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["valid"] is True and rep["mf2"]["checked"] == 7 ** 4
    assert main(["check-ff", str(fixtures / "paper_example_param.json"), "--radius", "1"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["valid"] is True and rep["ff2"]["checked"] == 3 ** 4


def test_cli_check_ff_negative_radius_exit_1(tmp_path, capsys):
    path = write(tmp_path, "ex.json", jsonio.linearized_to_json(example_param(2, 1)))
    assert main(["check-ff", path, "--radius", "-1"]) == 1
    assert capsys.readouterr().out == ""


def test_cli_check_ff_matches_golden_report(capsys):
    # a pinned report, so the CLI is not only compared with the library it
    # calls; the installed-package CI job diffs the console script against it
    fixtures = Path(__file__).parent / "fixtures"
    for param, radius, report in (("paper_example_param.json", 2, "paper_example_check_ff_r2.json"),
                                  ("linearized_p3_n5_param.json", 1,
                                   "linearized_p3_n5_check_ff_r1.json"),
                                  ("linearized_p2147483647_param.json", 1,
                                   "linearized_p2147483647_check_ff_r1.json")):
        assert main(["check-ff", str(fixtures / param), "--radius", str(radius)]) == 0
        assert capsys.readouterr().out == (fixtures / report).read_text()


def test_cli_check_flock_matches_golden_report(capsys):
    # a passing report with set-move counts; a violation on an explicit
    # table: the matroids of the valuation {12: 0, 13: 1, 23: 0} over
    # [-1, 2]^3 with the one at (0, 1, 0) swapped for the one at (1, 0, 0),
    # with and without set moves;
    # and the toric fixture's 70 bases, two words per argmax set and per
    # minor key, with and without set moves; and the paper's linearized
    # example, the flock half of the check-ff pipeline.  The
    # installed-package CI job diffs the console script against all six
    fixtures = Path(__file__).parent / "fixtures"
    for argv, report in ((["--from-valuation", "valuation_n5_d2.json", "--radius", "3", "--sets"],
                          "valuation_n5_d2_check_flock_r3_sets.json"),
                         (["--from-linearized", "paper_example_param.json", "--radius", "2"],
                          "paper_example_check_flock_r2.json"),
                         (["--explicit", "explicit_n3_swapped.json", "--radius", "1"],
                          "explicit_n3_swapped_check_flock_r1.json"),
                         (["--explicit", "explicit_n3_swapped.json", "--radius", "1", "--sets"],
                          "explicit_n3_swapped_check_flock_r1_sets.json"),
                         (["--from-toric", "toric_wide.json", "--radius", "1"],
                          "toric_wide_check_flock_r1.json"),
                         (["--from-toric", "toric_wide.json", "--radius", "1", "--sets"],
                          "toric_wide_check_flock_r1_sets.json")):
        argv[1] = str(fixtures / argv[1])
        assert main(["check-flock", *argv]) == 0
        assert capsys.readouterr().out == (fixtures / report).read_text()


def test_cli_extract_toric_matches_golden_report(capsys):
    # the valuation walked from the toric fixture, pinned; the
    # installed-package CI job diffs the console script against it
    fixtures = Path(__file__).parent / "fixtures"
    assert main(["extract-valuation", "--from-toric", str(fixtures / "toric_wide.json")]) == 0
    assert capsys.readouterr().out == (fixtures / "toric_wide_extracted.json").read_text()


@pytest.mark.parametrize("argv, report", [
    # the Lindström valuation is the valuation extraction recovers
    (["lindstrom-toric", "toric_wide.json"], "toric_wide_extracted.json"),
    (["toric-matroid-at", "toric_wide.json", "--alpha=1,0,0,2,0,-1,0,0"],
     "toric_wide_matroid_at.json"),
    (["flock-from-linearized", "linearized_p3_n5_param.json", "--alpha=0,0,-1,0,0"],
     "linearized_p3_n5_matroid_at.json"),
])
def test_cli_algebraic_commands_match_pinned_reports(capsys, argv, report):
    # pinned; the installed-package CI job diffs the console script against them
    fixtures = Path(__file__).parent / "fixtures"
    assert main([argv[0], str(fixtures / argv[1]), *argv[2:]]) == 0
    assert capsys.readouterr().out == (fixtures / report).read_text()


@pytest.mark.parametrize("source, doc, report", [
    ("--from-valuation", "valuation_n5_d2.json", "valuation_n5_d2_extracted.json"),
    ("--from-linearized", "linearized_p3_n5_param.json", "linearized_p3_n5_extracted.json"),
])
def test_cli_extract_matches_pinned_report(capsys, source, doc, report):
    # pinned; the installed-package CI job diffs the console script against them
    fixtures = Path(__file__).parent / "fixtures"
    assert main(["extract-valuation", source, str(fixtures / doc)]) == 0
    assert capsys.readouterr().out == (fixtures / report).read_text()


def test_cli_extract_toric_cutoff_1_matches_pinned_error(capsys):
    # at cutoff 1 the walked map fails (V2); the message names its witness
    fixtures = Path(__file__).parent / "fixtures"
    assert main(["extract-valuation", "--from-toric", str(fixtures / "toric_wide.json"),
                 "--cutoff", "1"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == (fixtures / "toric_wide_cutoff1_error.txt").read_text()


def test_cli_extract_explicit_verify_1_matches_pinned_error(capsys):
    # the swapped table fails the round trip on [-1, 1]^3; the message names
    # the lex-first alpha where M^nu_alpha and the table differ
    fixtures = Path(__file__).parent / "fixtures"
    assert main(["extract-valuation", "--explicit", str(fixtures / "explicit_n3_swapped.json"),
                 "--verify-radius", "1"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == (fixtures / "explicit_n3_swapped_verify1_error.txt").read_text()


def test_cli_rigidity_lazarson4_matches_pinned_report_in_bounded_time():
    # 266 bases and 4610 equations; the report was made by the dense
    # rational route, which took about 50 s
    fixtures = Path(__file__).parent / "fixtures"
    done = subprocess.run([sys.executable, "-m", "matflock.cli", "rigidity",
                           str(fixtures / "lazarson4.json")],
                          capture_output=True, text=True, env=_cli_env(), timeout=30)
    assert done.returncode == 0, done.stderr
    assert done.stdout == (fixtures / "lazarson4_rigidity.json").read_text()


@pytest.mark.parametrize("name", ["valuation_u24", "valuation_n5_d2", "valuation_n5_d2_parallel"])
def test_cli_leaders_matches_golden_report(tmp_path, exchange_walks, name):
    # pinned leader documents, vertices included; in valuation_n5_d2_parallel
    # elements 1 and 3 are parallel, so its support is not uniform.  The
    # scan, the vertex walk and the CLI's own check share one (V1)/(V2) walk
    fixtures = Path(__file__).parent / "fixtures"
    out = tmp_path / "leaders.json"
    assert main(["--out", str(out), "leaders", str(fixtures / f"{name}.json")]) == 0
    assert out.read_text() == (fixtures / f"{name}_leaders.json").read_text()
    assert len(exchange_walks) == 1


@pytest.mark.parametrize("name", ["fano", "nonfano"])
def test_cli_rigidity_matches_golden_report(capsys, name):
    # pinned verdicts: fano is rigid, nonfano's report carries its witness
    # and direction
    fixtures = Path(__file__).parent / "fixtures"
    assert main(["rigidity", "--name", name]) == 0
    assert capsys.readouterr().out == (fixtures / f"{name}_rigidity.json").read_text()


@pytest.mark.parametrize("command, doc, report", [
    ("check-matroid", "matroid_n4_three_term.json", "matroid_n4_three_term_check.json"),
    ("check-matroid", "matroid_n8_disconnected.json", "matroid_n8_disconnected_check.json"),
    ("check-valuation", "valuation_n6_disconnected.json", "valuation_n6_disconnected_check.json"),
])
def test_cli_exchange_witnesses_match_pinned_reports(capsys, command, doc, report):
    # a (B2) failure of the three-term rule, and (B2) and (V2) failures of
    # connectivity, the first with one closest pair across its components;
    # the installed-package CI job diffs the console script against them
    fixtures = Path(__file__).parent / "fixtures"
    assert main([command, str(fixtures / doc)]) == 0
    assert capsys.readouterr().out == (fixtures / report).read_text()


def test_cli_rigidity_of_disconnected_basis_family_matches_pinned_error(capsys):
    # the certificate refuses a basis family whose basis graph is not
    # connected, with check-matroid's witness
    fixtures = Path(__file__).parent / "fixtures"
    assert main(["rigidity", str(fixtures / "matroid_n8_disconnected.json")]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (fixtures / "matroid_n8_disconnected_rigidity_error.txt").read_text()


def test_cli_rigidity_rank_zero_is_rigid(tmp_path, capsys):
    # every valuation of a rank-0 matroid is a constant, so trivial
    path = write(tmp_path, "m.json", {"ground": [1, 2, 3], "rank": 0, "bases": [[]]})
    assert main(["rigidity", path]) == 0
    assert json.loads(capsys.readouterr().out) == {"verdict": "rigid"}


@pytest.mark.parametrize("name, n", [("point_function_u24", 4), ("point_function_n3_partial", 3)])
def test_cli_fenchel_matches_golden_report(capsys, name, n):
    # pinned duals on [-2, 2]^n; point_function_n3_partial has negative
    # coordinates and holes
    fixtures = Path(__file__).parent / "fixtures"
    assert main(["fenchel", str(fixtures / f"{name}.json"),
                 "--lo=" + ",".join(["-2"] * n), "--hi", ",".join(["2"] * n)]) == 0
    assert capsys.readouterr().out == (fixtures / f"{name}_fenchel_r2.json").read_text()


def test_cli_extract_negative_verify_radius_exit_1(tmp_path, capsys):
    nu = mf.Valuation.from_values([1, 2], 1, {(1,): 0, (2,): 1})
    entries = [{"alpha": [k, l], "matroid": jsonio.matroid_to_json(mf.matroid_at(nu, (k, l)))}
               for k in range(-3, 4) for l in range(-3, 4)]
    path = write(tmp_path, "table.json", {"radius": 3, "entries": entries})
    assert main(["extract-valuation", "--explicit", path, "--verify-radius", "-1"]) == 1
    out = capsys.readouterr()
    assert out.out == "" and out.err == "error: verify_radius must be nonnegative\n"


def test_cli_window_too_large_for_memory_exit_1(monkeypatch, capsys):
    # an oversized box ends in one error line and exit 1, not numpy's
    # traceback; the scoring raises as numpy would, so nothing large is
    # allocated.  The box scored at radius 6, [-6, 7]^8, has 14^8 = 1.5e9 points
    from matflock import window

    def out_of_memory(*args):
        raise MemoryError("Unable to allocate 6.1 GiB for an array")

    fixtures = Path(__file__).parent / "fixtures"
    monkeypatch.setattr(window, "score_box", out_of_memory)
    assert main(["cells", str(fixtures / "valuation_u24.json"), "--svg"]) == 1
    out = capsys.readouterr()
    assert out.out == "" and out.err == ("error: the window is too large for memory: "
                                         "Unable to allocate 6.1 GiB for an array\n")
    monkeypatch.setattr(window, "_box_sets", out_of_memory)
    assert main(["check-flock", "--from-valuation", str(fixtures / "valuation_n8_d4.json"),
                 "--radius", "6"]) == 1
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("error: the window is too large for memory")
    assert len(out.err.splitlines()) == 1


# runs the CLI under a 1 GiB cap on address space, so that a command that
# builds what its input asks for fails by memory or by timeout, not by
# exhausting the machine
_MEMORY_CAPPED = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from matflock.cli import main
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.parametrize("command", [
    ["check-ff", "{}", "--radius", "1"], ["flock-from-linearized", "{}", "--alpha", "0"],
    ["check-flock", "--from-linearized", "{}"], ["extract-valuation", "--from-linearized", "{}"],
], ids=lambda command: command[0])
def test_cli_huge_frobenius_level_refused_exit_1(command):
    # level 10^11 asks for 10^11 + 1 coefficients: refused before any is
    # stored, with one error line naming the level and the count
    path = str(Path(__file__).parent / "fixtures" / "linearized_huge_level.json")
    done = subprocess.run([sys.executable, "-c", _MEMORY_CAPPED,
                           *(path if arg == "{}" else arg for arg in command)],
                          capture_output=True, text=True, timeout=30,
                          env=dict(_cli_env(), OPENBLAS_NUM_THREADS="1"))
    assert done.returncode == 1, done.stderr
    assert done.stdout == ""
    assert done.stderr == ("error: Frobenius level 99999999999 needs 100000000000 polynomial "
                           "coefficients, more than the 65536 allowed\n")


@pytest.mark.parametrize("command", [["leaders"], ["check-flock", "--from-valuation"]])
def test_cli_radius_past_int64_scores_exit_1(command, capsys):
    # a box whose scores could leave int64 is refused before anything is
    # allocated: one error line and exit 1, not an OverflowError traceback
    fixture = str(Path(__file__).parent / "fixtures" / "valuation_u24.json")
    assert main([*command, fixture, "--radius", str(2 ** 62)]) == 1
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("error: the box from ")
    assert "too large to score" in out.err and len(out.err.splitlines()) == 1


def test_cli_two_flock_sources_exit_2(tmp_path, capsys):
    nu = str(Path(__file__).parent / "fixtures" / "valuation_u24.json")
    param = str(Path(__file__).parent / "fixtures" / "paper_example_param.json")
    for command in ("check-flock", "extract-valuation"):
        for extra in (["--explicit", nu], ["--from-linearized", param]):
            assert main([command, "--from-valuation", nu, *extra]) == 2
            out = capsys.readouterr()
            assert out.out == "" and "more than one flock source" in out.err


def test_cli_leaders_negative_radius_exit_1(tmp_path, capsys):
    path = write(tmp_path, "v.json", jsonio.valuation_to_json(u24_valuation()))
    assert main(["leaders", path, "--radius", "-1"]) == 1
    assert capsys.readouterr().out == ""


def test_cli_cells_svg_negative_radius_exit_1(capsys):
    path = str(Path(__file__).parent / "fixtures" / "valuation_u24.json")
    for radius in ("-1", "-3"):
        assert main(["cells", path, "--svg", "--radius", radius]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "radius must be nonnegative" in captured.err


@pytest.mark.parametrize("ground, axes, count", [
    ([1], [], 1), ([1, 2, 3], ["--axes", "1"], 1), ([1, 2, 3], ["--axes", "1,2,3"], 3)])
def test_cli_cells_svg_needs_two_axes_exit_2(tmp_path, capsys, ground, axes, count):
    nu = mf.Valuation.from_values(ground, 1, {(e,): 0 for e in ground})
    path = write(tmp_path, "v.json", jsonio.valuation_to_json(nu))
    assert main(["cells", path, "--svg", *axes]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"input error: an SVG slice needs exactly 2 axes, got {count}\n"
    labels = [int(a) for a in axes[1].split(",")] if axes else ground
    with pytest.raises(ValueError, match=f"^an SVG slice needs exactly 2 axes, got {count}$"):
        svg.render_cells_svg(nu, labels, 1)


def test_cli_cells_svg_repeated_axis_exit_2(capsys):
    path = str(Path(__file__).parent / "fixtures" / "valuation_u24.json")
    assert main(["cells", path, "--svg", "--axes", "1,1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "input error: axes must be two distinct elements\n"
    with pytest.raises(ValueError, match="^axes must be two distinct elements$"):
        svg.render_cells_svg(u24_valuation(), (1, 1), 1)


def test_svg_scores_once(monkeypatch):
    from matflock import window
    calls = []
    score_box = window.score_box
    monkeypatch.setattr(window, "score_box",
                        lambda *args: calls.append(args[2:]) or score_box(*args))
    monkeypatch.setattr(window, "score_ids", None)
    text = svg.render_cells_svg(u24_valuation(), (3, 4), 3)
    assert calls == [([0, 0, -3, -3], [0, 0, 3, 3])] and text.count("<circle ") == 2


def test_cli_svg_matches_pinned_slice(capsys):
    # axis 4 comes after axis 2 in the ground, so the scored box is transposed
    fixtures = Path(__file__).parent / "fixtures"
    assert main(["cells", str(fixtures / "valuation_u24.json"), "--svg",
                 "--axes", "4,2", "--radius", "3"]) == 0
    assert capsys.readouterr().out == (fixtures / "valuation_u24_cells_axes42_r3.svg").read_text()


def test_svg_colours_follow_matroid_at(rng):
    nus = [u24_valuation()] + [random_valid_valuation(rng, 4, 2) for _ in range(3)]
    for nu in nus:
        text = svg.render_cells_svg(nu, (nu.ground[1], nu.ground[3]), 3)
        cells = re.findall(r'fill="(#\w+)"[^>]*><title>alpha\[2\]=(-?\d+), '
                           r'alpha\[4\]=(-?\d+)', text)
        assert len(cells) == 7 * 7
        colour_of = {}
        for colour, x, y in cells:
            M = mf.matroid_at(nu, (0, int(x), 0, int(y)))
            assert colour_of.setdefault(M.masks, colour) == colour
        assert len(set(colour_of.values())) == len(colour_of)


def _old_svg_dots(nu, ax, ay, radius):
    """Slice cells as the earlier renderer chose them: every cell vertex
    from the default leader scan that lands in the slice."""
    n = len(nu.ground)
    return sorted(cell for cell in mf.zero_dimensional_cells(nu)
                  if all(cell[i] == 0 for i in range(n) if i not in (ax, ay))
                  and abs(cell[ax]) <= radius and abs(cell[ay]) <= radius)


def _svg_dots(text, nu, ax, ay, radius):
    """The slice points of the rendered dots, read back from the SVG."""
    n = len(nu.ground)
    found = []
    for cx, cy in re.findall(r'<circle cx="(\d+)" cy="(\d+)"', text):
        cell = [0] * n
        cell[ax] = (int(cx) - svg._PAD - svg._CELL // 2) // svg._CELL - radius
        cell[ay] = radius - (int(cy) - svg._PAD - svg._CELL // 2) // svg._CELL
        found.append(tuple(cell))
    return found


def test_svg_dots_match_leader_vertex_filter(rng):
    for _ in range(25):
        n = rng.choice([2, 3, 4])
        nu = random_valid_valuation(rng, n, rng.randint(1, n - 1), vmax=rng.randint(1, 4))
        ax, ay = rng.sample(range(n), 2)
        radius = rng.randint(1, 5)
        text = svg.render_cells_svg(nu, (nu.ground[ax], nu.ground[ay]), radius)
        assert _svg_dots(text, nu, ax, ay, radius) == _old_svg_dots(nu, ax, ay, radius)


def test_svg_never_scans_leaders(monkeypatch):
    from matflock import valuation

    def refuse(*args, **kwargs):
        raise AssertionError("render_cells_svg ran a leader scan")
    monkeypatch.setattr(valuation, "enumerate_leaders", refuse)
    nu = mf.Valuation.from_values([1, 2, 3, 4], 2, {
        (1, 2): 40, (3, 4): 40, (1, 3): 0, (1, 4): 0, (2, 3): 0, (2, 4): 0})
    text = svg.render_cells_svg(nu, (2, 3), 2)
    assert text.count("<rect ") == 1 + 5 * 5
