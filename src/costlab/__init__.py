"""costlab: an exact-arithmetic laboratory for cost-function constructions.

The package builds staged complexity providers on a toy prefix-free machine,
evaluates cost functions against computable approximations with exact
rational ledgers, and runs the classical constructions (simple sets,
look-ahead transfers, diagonalizations, the complete model, the dual
construction) as bounded, replayable stage loops.
"""

from .core import (
    AdditiveCost,
    ApproximationTrace,
    CostFn,
    CostLedger,
    CostProps,
    EnumerationTrace,
    additive_cost,
    benign_witness,
    check_monotone,
    check_proper,
    cost_fn,
    cost_of_trace,
    geometric_cost,
    limit_estimate,
    obeys_at_horizon,
)
from .catalog import (
    LeftCEReal,
    SolovayCertificate,
    additive_from_real,
    additive_requests,
    cost_from_approx,
    cost_g,
    cost_k,
    cost_max,
    cost_omega,
    domination_grid_report,
    real_from_additive,
    rescale_to_unit,
    solovay_translate,
)
from .machine import (
    BaselineConfig,
    KProvider,
    PrefixMachine,
    RequestSet,
    baseline_provider,
    check_prefix_free,
    kc_add,
    kc_machine,
    register_requests,
)

__version__ = "0.1.0"
