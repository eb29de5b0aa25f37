"""Exact-arithmetic lattice basis reduction driven by rhombicity.

The reduction alternates directional passes (pairwise division and
simplification) with hyperplanar passes (shearing each vector toward the
hyperplane spanned by the others) while the rhombicity of the metric tensor
strictly decreases.  An exact LLL implementation serves as baseline, and a
seeded benchmark harness measures both.  All arithmetic is arbitrary
precision; no floating point is used anywhere.
"""

from .bench import (ALGORITHMS, BatteryResult, BatteryVerificationError,
                    GenerationError, GeneratorSpec, MatrixRecord, generate,
                    run_battery)
from .cubifier import (AUTO_OPTIONS, CubifyOptions, MatrixClass,
                       ReductionReport, classify, cubify, default_options,
                       verify, verify_problems)
from .directional import (Variant, directional_reduction, lagrange_division,
                          simplification)
from .exact import (Basis, DegenerateHyperplaneError, DegenerateSublatticeError,
                    DimensionMismatchError, SingularBasisError, det, dot,
                    hyperplane_normal, lattice_equal, metric_tensor,
                    nearest_int, norm_sum, rhombicity, solve_in_sublattice)
from .hyperplanar import AcceptedShear, hyperplanar_pass
from .lll import GramSchmidtState, gram_schmidt, lll_reduce

__version__ = "0.1.0"

__all__ = [
    "ALGORITHMS", "AUTO_OPTIONS", "AcceptedShear", "Basis", "BatteryResult",
    "BatteryVerificationError", "CubifyOptions", "DegenerateHyperplaneError",
    "DegenerateSublatticeError", "DimensionMismatchError", "GenerationError",
    "GeneratorSpec", "GramSchmidtState", "MatrixClass", "MatrixRecord",
    "ReductionReport", "SingularBasisError", "Variant", "classify", "cubify",
    "default_options", "det", "directional_reduction", "dot", "generate",
    "gram_schmidt", "hyperplane_normal", "hyperplanar_pass",
    "lagrange_division", "lattice_equal", "lll_reduce", "metric_tensor",
    "nearest_int", "norm_sum", "rhombicity", "run_battery", "simplification",
    "solve_in_sublattice", "verify", "verify_problems",
]
