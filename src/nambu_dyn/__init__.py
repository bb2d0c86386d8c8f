"""nambu-dyn: hidden-Nambu dynamics of quantum expectation values.

Extended phase spaces of expectation values evolve under Nambu brackets
(Jacobian determinants) driven by a closed Hamiltonian F and induced
constraints G_c; classical Hamiltonian flow and grid-based quantum
propagation provide the reference dynamics.
"""

from .poly import (
    Poly,
    VarId,
    ValidationError,
    UnboundVariableError,
    parse_poly,
    format_poly,
    q,
    p,
    xvar,
)
from .state import Layout, classical_vars, x_vars
from .brackets import (
    BracketReport,
    DimensionMismatchError,
    check_fundamental_identity,
    check_jacobi,
    flow_divergence,
    nambu_bracket_poly,
    poisson_bracket_poly,
    sample_assignments,
)
from .multiplets import (
    MultipletDef,
    ConsistencyReport,
    MalformedMultipletError,
    UnliftableMonomialError,
    QUARTET_QP_Q2P2,
    TRIPLET_QQPP_QP,
    builtin_multiplets,
    lift_to_multiplet,
    verify_consistency,
)
from .closure import (
    ClosureMode,
    build_F,
    effective_potential,
    reduce_moment,
)
from .dynamics import (
    HamiltonianSet,
    NonFiniteStateError,
    Trajectory,
    compile_classical_field,
    compile_nambu_field,
    conserved_drift,
    integrate,
    rk4_integrate,
    symbolic_flow,
)
from .quantum import (
    Grid,
    WaveFunction,
    absorbing_mask,
    expect,
    init_gaussian,
    SplitOperatorPropagator,
)
from .scenarios import (
    ModelSpec,
    PacketSpec,
    compare,
    cubic_model,
    harmonic_model,
    hamiltonian_set,
    henon_heiles_model,
    init_nambu_from_packet,
    mode_energy_series,
    model_by_name,
    run_scenario,
)

__version__ = "0.1.0"
