"""qurel: uncertainty bounds on thermal two-qubit spin states.

A small numpy laboratory around one physical model (two exchange-coupled
qubits with a z-axis antisymmetric interaction, in thermal equilibrium)
and the uncertainty relations one can evaluate on it: the classic
product- and sum-form variance bounds, their measurement-assisted
refinement built from conditional variances, and the memory-assisted
entropic bound used for comparison.
"""

from .errors import (
    ArgumentError,
    ConvergenceError,
    DegenerateOperator,
    DegeneracyError,
    DimensionError,
    QurelError,
    RangeError,
    SubsystemError,
    UsageError,
    ValidationError,
)
from .linalg import (
    I2,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    is_hermitian,
    partial_trace,
)
from .measurements import (
    ConditionalStats,
    Observable,
    ProjectiveDecomposition,
    SequentialDecomposition,
    conditional_stats,
    sequential_decomposition,
    variance,
)
from .model import (
    ModelParams,
    T_MIN,
    closed_form_concurrence,
    closed_form_mixedness,
    hamiltonian,
    thermal_state,
)
from .relations import (
    MeasurementSetup,
    QcVurResult,
    QmEurResult,
    l_tra,
    qc_vur,
    qm_eur,
    schrodinger_bound,
    xz_control_setup,
)
from .states import (
    DensityOperator,
    concurrence_two_qubit,
    mixedness,
    von_neumann_entropy,
)
from .sweep import (
    CSV_HEADER,
    SingleValuedResult,
    SweepGrid,
    SweepRecord,
    check_single_valued,
    evaluate_point,
    figure_preset,
    match_mixedness,
    sweep_columns,
    sweep_csv,
)
