"""Stochastic simulation of population models with dormancy.

Backward in time: exact Gillespie simulation of the dormancy coalescent on
marked partitions, with spontaneous and coordinated switching between the
active state and the seed bank.  Forward in time: Wright-Fisher models with
a strong seed bank and numerical integration of the two-frequency (jump)
diffusion they converge to.  The two directions meet in the moment duality,
which the verification suite checks against exact finite-state oracles
(first-step analysis and the matrix exponential of the sparse generator).
"""

from .blockcount import (
    BlockCountState,
    bc_transition_rates,
    blockcount_ensemble,
    coming_down_scan,
    duality_rhs,
    expected_branch_lengths_first_step,
    expected_tmrca_first_step,
    mrca_reachable,
    simulate_blockcount,
    tmrca_loglog_scan,
)
from .coalescent import (
    ACTIVE,
    DORMANT,
    Genealogy,
    GenealogyEvent,
    MarkedPartition,
    branch_lengths,
    mark_segments,
    partition_transition_rates,
    simulate_coalescent,
    tmrca,
)
from .diffusion import (
    DiffusionState,
    IntegratorSettings,
    Trajectory,
    batch_paths,
    boundary_hitting_stats,
    delay_residual,
    duality_lhs_grid,
    fixation_stats,
    integrate,
    martingale_drift,
)
from .forward_wf import (
    SimSwitching,
    WFConfig,
    WFState,
    WFTrajectory,
    run_trajectory,
    wf_ensemble,
    wf_step,
)
from .measures import (
    ModelParams,
    SwitchingMeasure,
    group_switch_rate,
    sample_location,
    small_jump_mass,
    total_flip_rate,
    total_mass,
)
from .mutation_stats import (
    Mutation,
    MutationSet,
    SiteFrequencySpectrum,
    drop_mutations,
    fay_wu_h,
    fu_li_d_numerator,
    segregating_sites,
    sfs,
    singletons,
    theta_pi,
)
from .streams import as_rng, substream

__version__ = "0.1.0"
