//! Interval-property and counterexample data types.

use std::fmt;
use std::time::Duration;

use htd_rtl::SignalId;
use htd_sat::SolverStats;

/// A single-cycle 2-safety interval property over a design.
///
/// The property reads (cf. Figs. 4 and 5 of the paper):
///
/// ```text
/// assume:
///   at t:     inputs_instance1      = inputs_instance2          (always)
///   at t:     assume_equal_instance1 = assume_equal_instance2
/// prove:
///   at t + 1: prove_equal_instance1 = prove_equal_instance2
/// ```
///
/// The primary inputs are fed identically to both instances at every time
/// point (that is the miter of Fig. 2); `assume_equal` lists the additional
/// state/output signals assumed equal at time `t`, and `prove_equal` the
/// signals whose equality at `t + 1` is to be proven.  The *init property*
/// has an empty `assume_equal` set; *fanout property k* assumes
/// `fanouts_CCk` and proves `fanouts_CCk+1`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IntervalProperty {
    /// Human-readable property name (e.g. `init_property`,
    /// `fanout_property_3`).
    pub name: String,
    /// State/output signals assumed equal between the instances at time `t`.
    pub assume_equal: Vec<SignalId>,
    /// State/output signals to prove equal between the instances at `t + 1`.
    pub prove_equal: Vec<SignalId>,
}

impl IntervalProperty {
    /// Creates a property with the given name and signal sets.
    #[must_use]
    pub fn new(
        name: impl Into<String>,
        assume_equal: Vec<SignalId>,
        prove_equal: Vec<SignalId>,
    ) -> Self {
        IntervalProperty {
            name: name.into(),
            assume_equal,
            prove_equal,
        }
    }

    /// Returns a copy of this property with additional equality assumptions —
    /// the mechanism used to discharge spurious counterexamples (Sec. V-B of
    /// the paper).
    #[must_use]
    pub fn with_extra_assumptions(&self, extra: &[SignalId]) -> Self {
        let mut assume = self.assume_equal.clone();
        for &sig in extra {
            if !assume.contains(&sig) {
                assume.push(sig);
            }
        }
        IntervalProperty {
            name: self.name.clone(),
            assume_equal: assume,
            prove_equal: self.prove_equal.clone(),
        }
    }
}

/// The two instances' values of one signal in a counterexample.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SignalValuePair {
    /// The signal.
    pub signal: SignalId,
    /// Its name (copied out of the design for convenient reporting).
    pub name: String,
    /// Width in bits.
    pub width: u32,
    /// Value in instance 1.
    pub instance1: u128,
    /// Value in instance 2.
    pub instance2: u128,
}

impl SignalValuePair {
    /// `true` if the two instances disagree on this signal.
    #[must_use]
    pub fn differs(&self) -> bool {
        self.instance1 != self.instance2
    }
}

impl fmt::Display for SignalValuePair {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {:#x} (instance 1) vs {:#x} (instance 2)",
            self.name, self.instance1, self.instance2
        )
    }
}

/// A counterexample to an interval property: a symbolic starting state (plus
/// input values) under which the two instances diverge.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Counterexample {
    /// Name of the failing property.
    pub property: String,
    /// Time frame (relative to `t`) at which the divergence is observed; `1`
    /// for single-cycle properties, `k` for the aggregate trojan property.
    pub frame: usize,
    /// The prove-signals that differ at the failing frame.
    pub diffs: Vec<SignalValuePair>,
    /// The starting state (all registers) of both instances at time `t`.
    pub starting_state: Vec<SignalValuePair>,
    /// The shared input values per time frame (frame 0 is time `t`).
    pub inputs: Vec<Vec<(String, u128)>>,
}

impl Counterexample {
    /// Names of the diverging signals.
    #[must_use]
    pub fn diff_names(&self) -> Vec<&str> {
        self.diffs.iter().map(|d| d.name.as_str()).collect()
    }

    /// The registers whose starting-state values differ between the two
    /// instances — the candidates for trigger state inspected during
    /// counterexample analysis.
    #[must_use]
    pub fn differing_state(&self) -> Vec<&SignalValuePair> {
        self.starting_state.iter().filter(|s| s.differs()).collect()
    }
}

impl fmt::Display for Counterexample {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "counterexample for {} at t+{}:",
            self.property, self.frame
        )?;
        for d in &self.diffs {
            writeln!(f, "  differs  {d}")?;
        }
        for s in self.differing_state() {
            writeln!(f, "  state@t  {s}")?;
        }
        Ok(())
    }
}

/// Outcome of checking one interval property.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CheckOutcome {
    /// The property holds for every starting state and input sequence.
    Holds,
    /// The property fails; a counterexample is attached.
    Fails(Box<Counterexample>),
}

impl CheckOutcome {
    /// `true` if the property holds.
    #[must_use]
    pub fn holds(&self) -> bool {
        matches!(self, CheckOutcome::Holds)
    }

    /// The counterexample, if the property failed.
    #[must_use]
    pub fn counterexample(&self) -> Option<&Counterexample> {
        match self {
            CheckOutcome::Holds => None,
            CheckOutcome::Fails(cex) => Some(cex),
        }
    }
}

/// Work metrics for a single property check.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CheckStats {
    /// Total AIG nodes built for the encoding.
    pub aig_nodes: usize,
    /// AND gates among them.
    pub aig_ands: usize,
    /// Structural-hash hits while building the AIG (a measure of how much of
    /// the two instances collapsed onto shared logic).
    pub strash_hits: u64,
    /// CNF variables handed to the SAT solver.
    pub cnf_vars: usize,
    /// CNF clauses handed to the SAT solver.
    pub cnf_clauses: usize,
    /// SAT solver work counters.
    pub solver: SolverStats,
    /// Wall-clock time for encoding plus solving.
    pub duration: Duration,
}

impl CheckStats {
    /// Adds another check's work field by field: a level's spurious
    /// resolution rounds fold into the report of the round that is kept,
    /// so per-property stats sum to the flow's solver totals.
    pub fn accumulate(&mut self, other: &CheckStats) {
        // Exhaustive destructuring on purpose: a new field must decide how
        // it aggregates here, never be silently dropped.
        let CheckStats {
            aig_nodes,
            aig_ands,
            strash_hits,
            cnf_vars,
            cnf_clauses,
            solver,
            duration,
        } = *other;
        self.aig_nodes += aig_nodes;
        self.aig_ands += aig_ands;
        self.strash_hits += strash_hits;
        self.cnf_vars += cnf_vars;
        self.cnf_clauses += cnf_clauses;
        self.solver.accumulate(&solver);
        self.duration += duration;
    }
}

/// The result of one property check: outcome plus statistics.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PropertyReport {
    /// Name of the checked property.
    pub property: String,
    /// Whether it holds, or the counterexample.
    pub outcome: CheckOutcome,
    /// Work metrics.
    pub stats: CheckStats,
}

impl PropertyReport {
    /// `true` if the property holds.
    #[must_use]
    pub fn holds(&self) -> bool {
        self.outcome.holds()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sig(i: u32) -> SignalId {
        // SignalId's field is crate-private in htd-rtl; build via a design.
        let mut d = htd_rtl::Design::new("ids");
        let mut last = None;
        for k in 0..=i {
            last = Some(d.add_input(format!("s{k}"), 1).unwrap());
        }
        last.unwrap()
    }

    #[test]
    fn extra_assumptions_are_deduplicated() {
        let a = sig(0);
        let b = sig(1);
        let p = IntervalProperty::new("p", vec![a], vec![b]);
        let q = p.with_extra_assumptions(&[a, b, b]);
        assert_eq!(q.assume_equal, vec![a, b]);
        assert_eq!(q.prove_equal, vec![b]);
        assert_eq!(q.name, "p");
    }

    #[test]
    fn signal_value_pair_reports_difference() {
        let s = sig(0);
        let same = SignalValuePair {
            signal: s,
            name: "x".into(),
            width: 8,
            instance1: 3,
            instance2: 3,
        };
        let diff = SignalValuePair {
            signal: s,
            name: "x".into(),
            width: 8,
            instance1: 3,
            instance2: 4,
        };
        assert!(!same.differs());
        assert!(diff.differs());
        assert!(diff.to_string().contains("0x3"));
    }

    #[test]
    fn counterexample_accessors() {
        let s0 = sig(0);
        let s1 = sig(1);
        let cex = Counterexample {
            property: "init_property".into(),
            frame: 1,
            diffs: vec![SignalValuePair {
                signal: s1,
                name: "leak_reg".into(),
                width: 8,
                instance1: 0,
                instance2: 0xff,
            }],
            starting_state: vec![
                SignalValuePair {
                    signal: s0,
                    name: "trigger".into(),
                    width: 1,
                    instance1: 1,
                    instance2: 0,
                },
                SignalValuePair {
                    signal: s1,
                    name: "leak_reg".into(),
                    width: 8,
                    instance1: 5,
                    instance2: 5,
                },
            ],
            inputs: vec![vec![("pt".into(), 0x42)]],
        };
        assert_eq!(cex.diff_names(), vec!["leak_reg"]);
        assert_eq!(cex.differing_state().len(), 1);
        assert_eq!(cex.differing_state()[0].name, "trigger");
        let text = cex.to_string();
        assert!(text.contains("init_property"));
        assert!(text.contains("leak_reg"));
    }

    #[test]
    fn outcome_helpers() {
        assert!(CheckOutcome::Holds.holds());
        assert!(CheckOutcome::Holds.counterexample().is_none());
    }
}
