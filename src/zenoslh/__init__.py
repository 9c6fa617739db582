"""Strong-coupling (Zeno) limits of SLH open-quantum-system models.

Represent k-scaled SLH families on finite-dimensional Hilbert spaces,
decide whether a candidate subspace supports a closed limit dynamics,
compute the limit triple, and validate it through master equations,
stochastic trajectories, network composition, and linear-systems
stability analysis.
"""

__version__ = "0.1.0"

from .operators import (
    HilbertSpace,
    Operator,
    SubspaceIsometry,
    ZenoSplit,
    adjoint,
    basis_ketbra,
    block_split,
    complement_basis,
    fock_annihilator,
    identity,
    kernel_basis,
    pauli,
    tensor,
    zero,
)
from .slh import (
    SLHTriple,
    HeisenbergCoefficients,
    concatenation,
    heisenberg_coeffs,
    k_operator,
    lindbladian,
    passthrough,
    series_product,
)
from .elimination import (
    DecouplingViolation,
    EliminationResult,
    KExpansion,
    KernelViolation,
    ScaledSLHFamily,
    ScalingViolation,
    ZenofiabilityError,
    check_decoupling,
    check_kernel,
    check_scaling,
    expand_k,
    family_series_product,
    find_zeno_subspace,
    hat_operators,
    instantiate,
    kernel_alignment,
    zeno_eliminate,
)
from .master import (
    ConvergencePoint,
    DensityMatrix,
    EvolutionResult,
    StepSizeError,
    WorkerError,
    basis_state_density,
    convergence_harness,
    dissipator,
    ehrenfest_residual,
    evolve,
    evolve_piecewise,
    liouvillian_matrix,
    maximally_mixed,
    pure_state_density,
    trace_distance,
)
from .trajectories import (
    MeasurementRecord,
    SimConfig,
    TrajectoryResult,
    counting_step,
    ensemble_mean,
    homodyne_step,
    simulate,
    simulate_ensemble,
)
from .linear import (
    HurwitzReport,
    LinearMeanSystem,
    OscillatorModelCoeffs,
    SpectrumSplit,
    StabilityReport,
    build_full_family,
    full_spectrum,
    is_strictly_hurwitz,
    oscillator_limit,
    oscillator_split,
    slow_schur,
    stability_threshold,
)
from .modelfile import ModelDocument, ModelParseError, load_model, model_digest, parse_model
