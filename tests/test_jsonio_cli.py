"""Serialization round trips and the command-line surface."""

import itertools
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import matflock as mf
from matflock import jsonio, svg
from matflock.cli import main
from matflock.discrete_convex import WindowFunction

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
    path = write(tmp_path, "A.json", {"rows": [[1, 0, 1, 1], [0, 1, 1, 2]]})
    assert main(["lindstrom-toric", path]) == 2
    assert "missing prime p" in capsys.readouterr().err
    assert main(["lindstrom-toric", "--p", "2", path]) == 0
    assert json.loads(capsys.readouterr().out) == \
        jsonio.valuation_to_json(mf.lindstrom_toric(toric_example(2)))
    for doc in (5, [[1, 0]], {"rows": [[1, "1/2"]]}):
        assert main(["lindstrom-toric", "--p", "2", write(tmp_path, "B.json", doc)]) == 2
    capsys.readouterr()


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


def _run_cli(*args):
    env = dict(os.environ, PYTHONPATH=str(Path(mf.__file__).parents[1]))
    return subprocess.run([sys.executable, "-m", "matflock.cli", *args],
                          capture_output=True, text=True, env=env, timeout=10)


def test_cli_large_prime_decided_in_bounded_time():
    # a subprocess, so that an unbounded primality test fails by timeout
    done = _run_cli("lazarson-check", "--n", "2", "--p", str(2 ** 61 - 1))
    assert done.returncode == 0
    assert json.loads(done.stdout)["divisible"] is False
    done = _run_cli("lazarson-check", "--n", "2", "--p", str(2 ** 89 - 1))
    assert done.returncode == 1                   # above the proven Miller-Rabin bound
    assert "not decided" in done.stderr


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


def test_cli_empty_parametrization_exit_1(tmp_path, capsys):
    # no coordinates: every linearized command refuses instead of checking nothing
    path = write(tmp_path, "empty.json", {"p": 2, "params": ["s"], "coords": []})
    for argv in (["check-ff", path, "--radius", "1"],
                 ["check-flock", "--from-linearized", path],
                 ["extract-valuation", "--from-linearized", path]):
        assert main(argv) == 1
        out = capsys.readouterr()
        assert out.out == "" and "empty ground set" in out.err


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


def test_cli_leaders_negative_radius_exit_1(tmp_path, capsys):
    path = write(tmp_path, "v.json", jsonio.valuation_to_json(u24_valuation()))
    assert main(["leaders", path, "--radius", "-1"]) == 1
    assert capsys.readouterr().out == ""


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
