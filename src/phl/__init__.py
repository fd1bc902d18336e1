"""Exact-rational models of hyperkahler-type cohomology and their
perverse-Hodge cubes, with mechanical verification of every stated bound,
symmetry and nilpotency criterion."""

from .filtration import (
    NilpotentOperator,
    NotNilpotentError,
    WeightFiltration,
    jordan_partition,
    verify_weight_axioms,
    weight_filtration,
)
from .linalg import (
    DimensionMismatch,
    MatrixQ,
    Subspace,
    image,
    join,
    kernel,
    meet,
)
from .models import (
    DistinguishedClasses,
    GradedAlgebraModel,
    ModelError,
    ModelSpec,
    QuadraticSpace,
    SpecError,
    build_model,
    lefschetz,
    validate,
)
from .perverse import (
    PerverseFiltration,
    PerverseHodgeCube,
    cube,
    diamond_and_betti,
    hodge_item1_comparison,
    perverse_filtration,
)
from .lie import (
    GradingOperator,
    Sl2CompletionError,
    lie_closure,
    membership,
    sl2_complete,
    so6_report,
)
from .checks import (
    SymmetryGroupSpec,
    bounds_check,
    commutator_nilpotency_check,
    octahedral_group,
    octahedral_symmetry_check,
    octahedron_conjecture_check,
    pf_symmetry_check,
    run_check_suite,
)
from .report import CheckReport, CheckResult

__version__ = "0.1.0"
