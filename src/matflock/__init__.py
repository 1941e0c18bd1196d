"""matflock: exact matroid flocks, valuations, and twist pipelines.

``import matflock`` loads no submodule.  Each public name is looked up in its
home submodule on every access (PEP 562), which imports that submodule the
first time.  Nothing is copied into this namespace, so ``matflock.X`` is
always ``matflock.<home>.X``, a monkeypatch on the home module included.
"""

import importlib as _importlib

# submodule -> the public names it exports through the package; linalg
# exports none, but its name was always in __all__
_EXPORTS = {
    "lattice": ("INF",),
    "linalg": (),
    "matroid": (
        "AxiomCheck", "FieldSpec", "GF", "Matroid", "QQ", "check_basis_axioms",
        "fano_matroid", "matroid_from_matrix", "named_matroid", "nonfano_matroid",
        "uniform_matroid",
    ),
    "valuation": (
        "CellSystem", "LeaderScan", "TrivialityResult", "Valuation",
        "cell_inequalities", "check_valuation_axioms", "circuit_hyperplane_valuation",
        "contract_element", "delete_element", "dual_valuation", "enumerate_leaders",
        "equivalence_shift", "g_value", "is_trivial", "matroid_at", "support_matroid",
        "zero_dimensional_cells",
    ),
    "discrete_convex": (
        "WindowFunction", "check_lconvex", "check_mconvex", "fenchel_dual",
        "lconvex_is_minimizer", "valuation_point_function",
    ),
    "flock": (
        "ExtractionError", "FlockWindowReport", "MatroidFlock", "check_flock_axioms",
        "constant_flock", "explicit_flock", "extract_valuation", "flock_from_valuation",
        "g_M", "oracle_flock",
    ),
    "algebraic": (
        "DegenerateParametrization", "FrobeniusFlockWindow", "LinearizedParam",
        "ToricRep", "check_frobenius_axioms", "flock_from_linearized", "flock_from_toric",
        "frobenius_window", "generic_rank", "lindstrom_toric", "linearized_shift",
        "linearized_support_matroid", "linearized_tangent", "linearized_tangent_flock",
        "padic_minor_valuation", "saturate_lattice", "tadic_valuation",
        "toric_matroid_at", "validate_frobenius_window",
    ),
    "rigidity": (
        "CharacteristicCheck", "ConstraintSystem", "RigidityVerdict", "central_bases",
        "dw_constraints", "lazarson", "lazarson_char_check", "lazarson_matrix",
        "rigidity_certificate",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_HOME])
__version__ = "0.1.0"


def __getattr__(name):
    if name in _EXPORTS:
        return _importlib.import_module(f"{__name__}.{name}")
    if name in _HOME:
        return getattr(_importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
