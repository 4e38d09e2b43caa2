"""Lattice engine for two-parameter stochastic calculus on the Brownian sheet.

Simulates hyperbolic stochastic differential systems driven by the sheet and
verifies, by paired Monte Carlo against closed-form oracles, the
integration-by-parts formula on Wiener space, its Bismut variant, the
reversibility identity behind them, and the calculus rules and regularity
estimates the derivation rests on.
"""

from .errors import (
    ConfigurationError,
    DegenerateDataError,
    ModelError,
    NumericsError,
    ShapeError,
    SheetcalcError,
)
from .lattice import (
    CellIncrements,
    Channel,
    Grid,
    LineProcess,
    NoiseSpec,
    Stream,
    sample_boundary_bm,
)
from .sheet import (
    SheetField,
    build_sheet,
    solve_ou_hyperbolic,
)
from .stochcalc import (
    IntegralKind,
    check_mixed_annihilation,
    integral_two_param,
    integral_zeta1,
    integral_zeta2,
)
from .hyperbolic import (
    BlowupSummary,
    CoefficientSet,
    HyperbolicSolution,
    SystemBoundaries,
    blowup_monitor,
    solve_system,
)
from .malliavin import (
    MalliavinState,
    Payoff,
    VectorFieldSet,
    apply_L,
    fold_line,
)
from .models import (
    Model,
    model_from_config,
    payoff_from_config,
    polynomial_fields,
)
from .verify import (
    HolderReport,
    MCReport,
    run_bismut,
    run_carre_limit,
    run_holder_scan,
    run_ibp,
    run_reversibility,
)

__version__ = "0.1.0"
