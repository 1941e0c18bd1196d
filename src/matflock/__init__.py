"""matflock: exact matroid flocks, valuations, and twist pipelines."""

from .lattice import INF
from .matroid import (
    AxiomCheck,
    FieldSpec,
    GF,
    Matroid,
    QQ,
    check_basis_axioms,
    fano_matroid,
    matroid_from_matrix,
    named_matroid,
    nonfano_matroid,
    uniform_matroid,
)
from .valuation import (
    CellSystem,
    LeaderScan,
    TrivialityResult,
    Valuation,
    cell_inequalities,
    check_valuation_axioms,
    circuit_hyperplane_valuation,
    contract_element,
    delete_element,
    dual_valuation,
    enumerate_leaders,
    equivalence_shift,
    g_value,
    is_trivial,
    matroid_at,
    support_matroid,
    zero_dimensional_cells,
)
from .discrete_convex import (
    WindowFunction,
    check_lconvex,
    check_mconvex,
    fenchel_dual,
    lconvex_is_minimizer,
    valuation_point_function,
)
from .flock import (
    ExtractionError,
    FlockWindowReport,
    MatroidFlock,
    check_flock_axioms,
    constant_flock,
    explicit_flock,
    extract_valuation,
    flock_from_valuation,
    g_M,
    oracle_flock,
)
from .algebraic import (
    DegenerateParametrization,
    FrobeniusFlockWindow,
    LinearizedParam,
    ToricRep,
    check_frobenius_axioms,
    flock_from_linearized,
    flock_from_toric,
    frobenius_window,
    generic_rank,
    lindstrom_toric,
    linearized_shift,
    linearized_support_matroid,
    linearized_tangent,
    linearized_tangent_flock,
    padic_minor_valuation,
    saturate_lattice,
    tadic_valuation,
    toric_matroid_at,
    validate_frobenius_window,
)
from .rigidity import (
    CharacteristicCheck,
    ConstraintSystem,
    RigidityVerdict,
    central_bases,
    dw_constraints,
    lazarson,
    lazarson_char_check,
    lazarson_matrix,
    rigidity_certificate,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
