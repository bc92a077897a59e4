//! Detector configuration: the knobs of Algorithm 1 that
//! [`SessionBuilder`](crate::SessionBuilder) hands to the flow executor.

use htd_ipc::CheckerOptions;
use htd_rtl::SignalId;

/// Configuration of the detection flow.
#[derive(Clone, Debug, PartialEq)]
pub struct DetectorConfig {
    /// Options passed to the underlying property checker.
    pub checker: CheckerOptions,
    /// Additionally assume equality of all signals proven by *earlier*
    /// properties when checking a fanout property (default: `true`).
    ///
    /// This applies the re-verification fix of Sec. V-B, scenario (1)
    /// proactively: a fanout property may otherwise fail only because its
    /// antecedent does not mention a signal that another property has already
    /// proven equal.
    pub assume_previously_proven: bool,
    /// Benign-state waivers (Sec. V-B, scenario (2)): registers the
    /// verification engineer has inspected and disqualified as Trojan state
    /// (FSM phases, busy flags, round counters, …).  When a counterexample is
    /// fully explained by waived registers, the flow adds equality
    /// assumptions for them and re-verifies instead of reporting a Trojan.
    pub benign_state: Vec<SignalId>,
    /// Maximum number of spurious-counterexample resolution rounds per
    /// property.  Must be at least 1.
    pub max_resolution_iterations: usize,
    /// Safety bound on the number of fanout iterations (the loop is bounded
    /// by the structural depth of the design; this limit only guards against
    /// configuration errors).  Must be at least 1.
    pub max_flow_iterations: usize,
    /// Per-run resource budget (wall-clock deadline, solver-conflict
    /// ceiling), enforced *inside* the solver via the interrupt seam.  The
    /// default is unlimited — budgets are strictly opt-in, so existing flows
    /// and their reports are unchanged.  An exhausted budget surfaces as
    /// [`DetectError::BudgetExhausted`](crate::DetectError::BudgetExhausted).
    pub budget: htd_sat::SolveBudget,
}

impl Default for DetectorConfig {
    fn default() -> Self {
        DetectorConfig {
            checker: CheckerOptions::default(),
            assume_previously_proven: true,
            benign_state: Vec::new(),
            max_resolution_iterations: 16,
            max_flow_iterations: 4096,
            budget: htd_sat::SolveBudget::default(),
        }
    }
}
