"""The package namespace: lazy submodule loading and uncached name lookup."""

import argparse
import importlib
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import matflock as mf

# matflock.__all__ as it stood when the package imported every submodule
# eagerly: 73 exports plus the 8 submodule names that import bound
PINNED_ALL = [
    "AxiomCheck", "CellSystem", "CharacteristicCheck", "ConstraintSystem",
    "DegenerateParametrization", "ExtractionError", "FieldSpec", "FlockWindowReport",
    "FrobeniusFlockWindow", "GF", "INF", "LeaderScan", "LinearizedParam", "Matroid",
    "MatroidFlock", "QQ", "RigidityVerdict", "ToricRep", "TrivialityResult", "Valuation",
    "WindowFunction", "algebraic", "cell_inequalities", "central_bases",
    "check_basis_axioms", "check_flock_axioms", "check_frobenius_axioms", "check_lconvex",
    "check_mconvex", "check_valuation_axioms", "circuit_hyperplane_valuation",
    "constant_flock", "contract_element", "delete_element", "discrete_convex",
    "dual_valuation", "dw_constraints", "enumerate_leaders", "equivalence_shift",
    "explicit_flock", "extract_valuation", "fano_matroid", "fenchel_dual", "flock",
    "flock_from_linearized", "flock_from_toric", "flock_from_valuation",
    "frobenius_window", "g_M", "g_value", "generic_rank", "is_trivial", "lattice",
    "lazarson", "lazarson_char_check", "lazarson_matrix", "lconvex_is_minimizer",
    "linalg", "lindstrom_toric", "linearized_shift", "linearized_support_matroid",
    "linearized_tangent", "linearized_tangent_flock", "matroid", "matroid_at",
    "matroid_from_matrix", "named_matroid", "nonfano_matroid", "oracle_flock",
    "padic_minor_valuation", "rigidity", "rigidity_certificate", "saturate_lattice",
    "support_matroid", "tadic_valuation", "toric_matroid_at", "uniform_matroid",
    "validate_frobenius_window", "valuation", "valuation_point_function",
    "zero_dimensional_cells",
]
SUBMODULES = {"algebraic", "discrete_convex", "flock", "lattice", "linalg", "matroid",
              "rigidity", "valuation"}


def test_import_loads_no_submodule_and_no_numpy():
    env = dict(os.environ, PYTHONPATH=str(Path(mf.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", "import sys; before = set(sys.modules); import matflock; "
         "print(sorted(n for n in set(sys.modules) - before "
         "if n == 'numpy' or n.startswith(('numpy.', 'matflock.'))))"],
        capture_output=True, text=True, env=env, timeout=10)
    assert done.returncode == 0 and done.stdout == "[]\n", (done.stdout, done.stderr)


def test_all_is_pinned():
    assert len(PINNED_ALL) == 81
    assert mf.__all__ == PINNED_ALL
    assert mf.__version__ == "0.1.0"


def test_every_export_resolves_through_its_home_module():
    for name in PINNED_ALL:
        value = getattr(mf, name)
        if name in SUBMODULES:
            assert value is importlib.import_module(f"matflock.{name}"), name
            continue
        home = importlib.import_module(f"matflock.{mf._HOME[name]}")
        assert value is getattr(home, name), name
        # the table names the module that defines each class and function
        if inspect.isclass(value) or inspect.isfunction(value):
            assert value.__module__ == home.__name__, name


def test_star_import_binds_every_name():
    namespace = {}
    exec("from matflock import *", namespace)
    assert set(PINNED_ALL) <= set(namespace)
    assert namespace["extract_valuation"] is mf.flock.extract_valuation
    assert namespace["valuation"] is mf.valuation


def test_dir_lists_the_exports():
    listed = dir(mf)
    assert "__all__" in listed
    # the public names are the exports, plus any other submodule that the
    # import system bound once loaded (cli, jsonio, ...): no helper leaks out
    public = [name for name in listed if not name.startswith("_")
              and (name in PINNED_ALL or f"matflock.{name}" not in sys.modules)]
    assert public == PINNED_ALL


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="module 'matflock' has no attribute 'no_such_name'"):
        mf.no_such_name
    assert not hasattr(mf, "no_such_name")


def test_monkeypatch_on_home_module_is_seen_and_undone(monkeypatch):
    original = mf.flock.extract_valuation

    def stub(*args, **kwargs):
        return None

    monkeypatch.setattr(mf.flock, "extract_valuation", stub)
    assert mf.extract_valuation is stub
    monkeypatch.undo()
    assert mf.extract_valuation is original
    assert "extract_valuation" not in vars(mf)


def test_installed_cli_job_runs_every_subcommand():
    # the CI job that runs the installed console script runs each command at
    # least once: as `matflock <cmd>`, through probe.py, or as a refusal
    from matflock import cli
    workflow = (Path(__file__).parents[1] / ".github" / "workflows" / "tests.yml").read_text()
    job = re.search(r"^  installed-cli:\n(.*?)(?=^  \S|\Z)", workflow, re.M | re.S).group(1)
    (sub,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    missing = [cmd for cmd in sub.choices
               if not re.search(rf"(matflock|probe\.py \S+|expect_\w*error) {cmd}(\s|$)", job)]
    assert not missing, missing
