//! Portfolio racing across SAT backends.
//!
//! A [`PortfolioBackend`] is one logical [`SatBackend`] wrapping N member
//! backends (the bundled CDCL solver, IPASIR libraries, …).  Every mutation
//! — variables, clauses, decision masks — is mirrored into all members in
//! lockstep, so the members always hold the same formula; every
//! [`solve_under`](SatBackend::solve_under) query then runs on all members
//! *concurrently* and the race is decided by the first definitive answer,
//! with the losers cancelled mid-search through the same interrupt seam the
//! parallel property scheduler already uses for doomed tasks
//! ([`set_interrupt`](SatBackend::set_interrupt) /
//! `ipasir_set_terminate`).
//!
//! # Determinism
//!
//! The *verdict* of a query is backend-invariant (all members solve the
//! same formula), so either member may decide SAT vs UNSAT.  The *model* of
//! a SAT answer is not: different solvers find different satisfying
//! assignments, and the detection flow turns models into counterexamples
//! that appear verbatim in reports.  [`RacePolicy`] picks the trade-off:
//!
//! * [`DeterministicCex`](RacePolicy::DeterministicCex) (default): SAT
//!   models always come from the designated *primary* member (index 0).
//!   Racers are pure accelerators — a racer UNSAT cancels everyone
//!   (UNSAT has no model, so whoever proves it first settles the query);
//!   a racer SAT only stops the other racers while the primary runs to its
//!   own model.  Reports are byte-identical to running the primary alone.
//! * [`FastestCex`](RacePolicy::FastestCex) (opt-in): the first definitive
//!   answer wins wholesale, model included.  Minimum latency, but
//!   counterexample bits may differ between runs; compare reports under
//!   `DetectionReport::normalized()` with models scrubbed.
//!
//! Racing is merge-safe in the detection flow because every solve task runs
//! on a throwaway fork of a frozen snapshot and results merge in node
//! order: an externally-cancelled (doomed) task's answer is discarded by
//! the scheduler regardless of which member produced it.
//!
//! # Cost accounting
//!
//! The portfolio's [`stats`](SatBackend::stats) are the primary member's
//! counters plus the race telemetry aggregated over all members
//! (`race_solves` / `race_wins` / `race_cancels` / `race_wasted_conflicts`
//! / `race_cancel_latency_us` in
//! [`SolverStats`](crate::SolverStats)); per-member telemetry is available
//! via [`PortfolioBackend::race_stats`].  A solve [`SolveBudget`] tracker
//! is owned by the primary alone — racers poll its exhaustion latch through
//! their race predicate but never charge conflicts — so a portfolio drains
//! a conflict ceiling at the same rate as a plain primary run, and an
//! exhausted budget stops every member.
//!
//! [`SolveBudget`]: crate::SolveBudget

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::backend::{BackendError, BackendStats, SatBackend};
use crate::budget::BudgetTracker;
use crate::literal::{Lit, Var};
use crate::solver::SolveResult;

/// Sentinel for "no member has decided the race yet".
const NO_WINNER: usize = usize::MAX;

/// Which member's model a portfolio SAT answer exposes (see the
/// [module docs](self) for the full determinism discussion).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum RacePolicy {
    /// SAT models come from the primary member; racers only accelerate
    /// UNSAT answers.  Reports are byte-identical to the primary alone.
    #[default]
    DeterministicCex,
    /// The first definitive answer wins wholesale, model included.
    FastestCex,
}

impl RacePolicy {
    /// The CLI/env token for [`DeterministicCex`](Self::DeterministicCex).
    pub const DETERMINISTIC_CEX: &'static str = "deterministic-cex";
    /// The CLI/env token for [`FastestCex`](Self::FastestCex).
    pub const FASTEST_CEX: &'static str = "fastest-cex";
}

impl std::str::FromStr for RacePolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            Self::DETERMINISTIC_CEX => Ok(RacePolicy::DeterministicCex),
            Self::FASTEST_CEX => Ok(RacePolicy::FastestCex),
            other => Err(format!(
                "unknown race policy `{other}` (expected `{}` or `{}`)",
                Self::DETERMINISTIC_CEX,
                Self::FASTEST_CEX
            )),
        }
    }
}

impl std::fmt::Display for RacePolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            RacePolicy::DeterministicCex => Self::DETERMINISTIC_CEX,
            RacePolicy::FastestCex => Self::FASTEST_CEX,
        })
    }
}

/// Per-member race telemetry, indexed like the portfolio's member list
/// (0 = primary).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RaceStats {
    /// Races this member decided (its answer became the query's answer).
    pub wins: u64,
    /// Races in which this member was cancelled because another member
    /// answered first.
    pub cancels: u64,
    /// Conflicts this member spent on answers that were discarded — the
    /// duplicated work the portfolio pays for its latency wins.  Only
    /// members that report conflict counters contribute (external IPASIR
    /// libraries are black boxes and stay at zero).
    pub wasted_conflicts: u64,
    /// Total observed cancel→return latency in microseconds: time from
    /// raising this member's cancel flag to its `solve_under` returning,
    /// summed over all cancelled races.
    pub cancel_latency_us: u64,
}

/// The outcome of one member's leg of a race.
struct MemberOutcome {
    result: Result<SolveResult, BackendError>,
    cancelled: bool,
    latency_us: u64,
}

/// A first-answer-wins portfolio over N member [`SatBackend`]s.
///
/// See the [module docs](self) for the racing protocol, the determinism
/// policies and the cost accounting.
pub struct PortfolioBackend {
    /// Member backends; index 0 is the primary (model source under
    /// [`RacePolicy::DeterministicCex`]).
    members: Vec<Box<dyn SatBackend>>,
    policy: RacePolicy,
    /// The externally installed interrupt predicate (scheduler cancels);
    /// combined with the per-race cancel flags at solve time.
    interrupt: Option<Arc<dyn Fn() -> bool + Send + Sync>>,
    /// The job's budget tracker; owned by the primary, polled by racers.
    budget: Option<Arc<BudgetTracker>>,
    queries: u64,
    /// Index of the member whose model `model_value` reads (the winner of
    /// the last decided race).
    last_winner: usize,
    /// Races that reached a verdict.
    races: u64,
    /// Per-member telemetry, index-aligned with `members`.
    race: Vec<RaceStats>,
}

impl PortfolioBackend {
    /// Builds a portfolio over `members` (index 0 becomes the primary).
    ///
    /// # Errors
    ///
    /// Returns [`BackendError`] if `members` is empty, or if any member has
    /// already allocated variables or clauses — members must be mirrored
    /// from birth so they always hold the same formula.
    pub fn new(
        members: Vec<Box<dyn SatBackend>>,
        policy: RacePolicy,
    ) -> Result<PortfolioBackend, BackendError> {
        if members.is_empty() {
            return Err(BackendError::new(
                "a portfolio needs at least one member backend",
            ));
        }
        for member in &members {
            let stats = member.stats();
            if stats.vars != 0 || stats.clauses != 0 {
                return Err(BackendError::new(format!(
                    "portfolio member `{}` already holds a formula ({} vars, {} clauses); \
                     members must start empty so mirrored state stays identical",
                    member.name(),
                    stats.vars,
                    stats.clauses
                )));
            }
        }
        let race = vec![RaceStats::default(); members.len()];
        Ok(PortfolioBackend {
            members,
            policy,
            interrupt: None,
            budget: None,
            queries: 0,
            last_winner: 0,
            races: 0,
            race,
        })
    }

    /// The portfolio's determinism policy.
    #[must_use]
    pub fn policy(&self) -> RacePolicy {
        self.policy
    }

    /// Per-member race telemetry, index-aligned with the member list
    /// (0 = primary).
    #[must_use]
    pub fn race_stats(&self) -> &[RaceStats] {
        &self.race
    }

    /// Member names in race order (0 = primary).
    #[must_use]
    pub fn member_names(&self) -> Vec<String> {
        self.members.iter().map(|m| m.name()).collect()
    }
}

impl SatBackend for PortfolioBackend {
    fn name(&self) -> String {
        let members: Vec<String> = self.members.iter().map(|m| m.name()).collect();
        match self.policy {
            RacePolicy::DeterministicCex => format!("portfolio({})", members.join(" + ")),
            RacePolicy::FastestCex => {
                format!("portfolio({}; fastest-cex)", members.join(" + "))
            }
        }
    }

    fn new_var(&mut self) -> Var {
        let mut members = self.members.iter_mut();
        let var = members.next().expect("portfolio has members").new_var();
        for member in members {
            let mirrored = member.new_var();
            debug_assert_eq!(mirrored, var, "portfolio members allocate in lockstep");
        }
        var
    }

    fn add_clause(&mut self, lits: &[Lit]) -> bool {
        let mut accepted = true;
        for (i, member) in self.members.iter_mut().enumerate() {
            let result = member.add_clause(lits);
            // The primary's verdict is authoritative (external members may
            // not detect top-level conflicts eagerly).
            if i == 0 {
                accepted = result;
            }
        }
        accepted
    }

    fn solve_under(&mut self, assumptions: &[Lit]) -> Result<SolveResult, BackendError> {
        self.queries += 1;
        if self.members.len() == 1 {
            // Degenerate portfolio: plain delegation (the single member
            // already holds the interrupt and the budget via the set_*
            // fan-outs).
            self.last_winner = 0;
            return self.members[0].solve_under(assumptions);
        }

        let n = self.members.len();
        let ext = self.interrupt.clone();
        let budget = self.budget.clone();
        let policy = self.policy;

        // Arm every member with its race predicate: the member's own cancel
        // flag, the budget's exhaustion latch (racers only — the primary
        // owns the tracker and polls it internally), and the externally
        // installed scheduler cancel.
        let flags: Vec<Arc<AtomicBool>> =
            (0..n).map(|_| Arc::new(AtomicBool::new(false))).collect();
        for (i, member) in self.members.iter_mut().enumerate() {
            let flag = Arc::clone(&flags[i]);
            let ext = ext.clone();
            let budget = if i == 0 { None } else { budget.clone() };
            member.set_interrupt(Arc::new(move || {
                flag.load(Ordering::Relaxed)
                    || budget.as_deref().is_some_and(BudgetTracker::check)
                    || ext.as_ref().is_some_and(|check| check())
            }));
        }
        let conflicts_before: Vec<u64> = self
            .members
            .iter()
            .map(|m| m.stats().solver.conflicts)
            .collect();

        // Race state: the first racer to prove UNSAT (deterministic-cex) or
        // the first member to answer definitively (fastest-cex) wins by CAS;
        // cancel timestamps measure the cancel→return latency of the losers.
        let unsat_winner = AtomicUsize::new(NO_WINNER);
        let fastest_winner = AtomicUsize::new(NO_WINNER);
        let cancel_at: Vec<Mutex<Option<Instant>>> = (0..n).map(|_| Mutex::new(None)).collect();

        let cancel = |i: usize| {
            let mut slot = cancel_at[i].lock().expect("cancel timestamp lock");
            if slot.is_none() {
                *slot = Some(Instant::now());
            }
            drop(slot);
            flags[i].store(true, Ordering::Relaxed);
        };

        let run = |member: &mut Box<dyn SatBackend>, i: usize| -> MemberOutcome {
            let result = member.solve_under(assumptions);
            match (policy, &result) {
                // A racer proved UNSAT: there is no model to read, so the
                // first proof settles the query — everyone else, primary
                // included, is now wasted work.
                (RacePolicy::DeterministicCex, Ok(SolveResult::Unsat))
                    if i > 0
                        && unsat_winner
                            .compare_exchange(NO_WINNER, i, Ordering::SeqCst, Ordering::SeqCst)
                            .is_ok() =>
                {
                    for j in (0..n).filter(|&j| j != i) {
                        cancel(j);
                    }
                }
                (RacePolicy::DeterministicCex, Ok(SolveResult::Sat)) if i > 0 => {
                    // The verdict is SAT, so no racer can prove UNSAT any
                    // more; stop the other racers but leave the primary
                    // running — the deterministic model must come from it.
                    for j in (1..n).filter(|&j| j != i) {
                        cancel(j);
                    }
                }
                (RacePolicy::DeterministicCex, _) if i == 0 => {
                    // The primary settled (or was cancelled): racers are moot.
                    for j in 1..n {
                        cancel(j);
                    }
                }
                (RacePolicy::FastestCex, Ok(SolveResult::Sat | SolveResult::Unsat))
                    if fastest_winner
                        .compare_exchange(NO_WINNER, i, Ordering::SeqCst, Ordering::SeqCst)
                        .is_ok() =>
                {
                    for j in (0..n).filter(|&j| j != i) {
                        cancel(j);
                    }
                }
                _ => {}
            }
            let cancelled_at = *cancel_at[i].lock().expect("cancel timestamp lock");
            match cancelled_at {
                Some(at) => MemberOutcome {
                    result,
                    cancelled: true,
                    latency_us: u64::try_from(at.elapsed().as_micros()).unwrap_or(u64::MAX),
                },
                None => MemberOutcome {
                    result,
                    cancelled: false,
                    latency_us: 0,
                },
            }
        };

        // The primary solves on the calling thread; racers get scoped
        // threads.  The scope joins every member before returning, so no
        // member outlives the race.
        let (primary, racers) = self.members.split_at_mut(1);
        let run = &run;
        let (primary_outcome, racer_outcomes) = std::thread::scope(|scope| {
            let handles: Vec<_> = racers
                .iter_mut()
                .enumerate()
                .map(|(k, member)| scope.spawn(move || run(member, k + 1)))
                .collect();
            let primary_outcome = run(&mut primary[0], 0);
            let racer_outcomes: Vec<MemberOutcome> = handles
                .into_iter()
                .map(|handle| {
                    handle
                        .join()
                        .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
                })
                .collect();
            (primary_outcome, racer_outcomes)
        });
        let mut outcomes = Vec::with_capacity(n);
        outcomes.push(primary_outcome);
        outcomes.extend(racer_outcomes);

        let decision: Option<(usize, SolveResult)> = match policy {
            RacePolicy::DeterministicCex => match &outcomes[0].result {
                Ok(answer @ (SolveResult::Sat | SolveResult::Unsat)) => Some((0, *answer)),
                // The primary was cancelled (or failed): a racer's UNSAT
                // proof still decides the query.
                _ => {
                    let winner = unsat_winner.load(Ordering::SeqCst);
                    (winner != NO_WINNER).then_some((winner, SolveResult::Unsat))
                }
            },
            RacePolicy::FastestCex => {
                let winner = fastest_winner.load(Ordering::SeqCst);
                (winner != NO_WINNER).then(|| {
                    match &outcomes[winner].result {
                        Ok(answer) => (winner, *answer),
                        // The CAS only happens on a definitive Ok answer.
                        Err(_) => unreachable!("race winner posted a definitive answer"),
                    }
                })
            }
        };

        for (i, outcome) in outcomes.iter().enumerate() {
            if outcome.cancelled {
                self.race[i].cancels += 1;
                self.race[i].cancel_latency_us += outcome.latency_us;
            }
        }
        if let Some((winner, answer)) = decision {
            self.races += 1;
            self.race[winner].wins += 1;
            self.last_winner = winner;
            for i in (0..n).filter(|&i| i != winner) {
                self.race[i].wasted_conflicts +=
                    self.members[i].stats().solver.conflicts - conflicts_before[i];
            }
            return Ok(answer);
        }
        // No member reached a verdict: the race was interrupted from outside
        // (scheduler cancel or budget exhaustion) or the primary failed.
        outcomes.swap_remove(0).result
    }

    fn model_value(&self, var: Var) -> Option<bool> {
        self.members[self.last_winner].model_value(var)
    }

    fn stats(&self) -> BackendStats {
        let primary = self.members[0].stats();
        let mut solver = primary.solver;
        // `+=`, not `=`: a primary that is itself a portfolio (nested
        // racing) already carries race counters of its own.
        solver.race_solves += self.races;
        for (i, member) in self.race.iter().enumerate() {
            if i > 0 {
                solver.race_wins += member.wins;
            }
            solver.race_cancels += member.cancels;
            solver.race_wasted_conflicts += member.wasted_conflicts;
            solver.race_cancel_latency_us += member.cancel_latency_us;
        }
        BackendStats {
            vars: primary.vars,
            clauses: primary.clauses,
            queries: self.queries,
            solver,
        }
    }

    fn begin_new_query(&mut self) {
        for member in &mut self.members {
            member.begin_new_query();
        }
    }

    fn set_decision_var(&mut self, var: Var, eligible: bool) {
        for member in &mut self.members {
            member.set_decision_var(var, eligible);
        }
    }

    fn mask_all_decisions(&mut self) {
        for member in &mut self.members {
            member.mask_all_decisions();
        }
    }

    fn fork(&self) -> Option<Box<dyn SatBackend>> {
        let mut members = Vec::with_capacity(self.members.len());
        for member in &self.members {
            members.push(member.fork()?);
        }
        Some(Box::new(PortfolioBackend {
            members,
            policy: self.policy,
            interrupt: self.interrupt.clone(),
            budget: self.budget.clone(),
            queries: self.queries,
            last_winner: 0,
            races: self.races,
            race: self.race.clone(),
        }))
    }

    fn snapshot_bytes(&self) -> u64 {
        // A portfolio fork copies every member: the honest cost is the sum.
        self.members.iter().map(|m| m.snapshot_bytes()).sum()
    }

    fn watcher_bytes(&self) -> u64 {
        self.members.iter().map(|m| m.watcher_bytes()).sum()
    }

    fn collect_garbage(&mut self) -> u64 {
        let mut collected = 0;
        for (i, member) in self.members.iter_mut().enumerate() {
            let count = member.collect_garbage();
            // Report the primary's count so flow counters stay comparable
            // to a plain primary run (racers compact the same clauses).
            if i == 0 {
                collected = count;
            }
        }
        collected
    }

    fn set_gc_thresholds(&mut self, dead_fraction: f64, min_clauses: usize) {
        for member in &mut self.members {
            member.set_gc_thresholds(dead_fraction, min_clauses);
        }
    }

    fn set_interrupt(&mut self, check: Arc<dyn Fn() -> bool + Send + Sync>) {
        // Members receive a combined per-race predicate at solve time; the
        // degenerate single-member portfolio delegates solve_under directly,
        // so its member must hold the raw predicate too.
        if self.members.len() == 1 {
            self.members[0].set_interrupt(Arc::clone(&check));
        }
        self.interrupt = Some(check);
    }

    fn set_budget(&mut self, budget: Option<Arc<BudgetTracker>>) {
        // Only the primary owns the tracker (and charges conflicts to it);
        // racers poll the exhaustion latch through their race predicate, so
        // a portfolio drains a conflict ceiling at the same rate as a plain
        // primary run while an exhausted budget still stops every member.
        self.budget = budget.clone();
        let mut members = self.members.iter_mut();
        if let Some(primary) = members.next() {
            primary.set_budget(budget);
        }
        for racer in members {
            racer.set_budget(None);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::Solver;
    use std::time::Duration;

    fn builtin() -> Box<dyn SatBackend> {
        Box::new(Solver::new())
    }

    /// A member that answers nothing on its own: it mirrors the formula
    /// into an inner solver (so lockstep variable allocation holds) but
    /// `solve_under` stalls, ignoring its interrupt predicate for
    /// `ignore_for` before honouring it — a worst-case cancellation-latency
    /// fault.
    struct StallingBackend {
        inner: Solver,
        ignore_for: Duration,
        check: Option<Arc<dyn Fn() -> bool + Send + Sync>>,
    }

    impl StallingBackend {
        fn new(ignore_for: Duration) -> Self {
            StallingBackend {
                inner: Solver::new(),
                ignore_for,
                check: None,
            }
        }
    }

    impl SatBackend for StallingBackend {
        fn name(&self) -> String {
            "stalling".to_string()
        }

        fn new_var(&mut self) -> Var {
            self.inner.new_var()
        }

        fn add_clause(&mut self, lits: &[Lit]) -> bool {
            SatBackend::add_clause(&mut self.inner, lits)
        }

        fn solve_under(&mut self, _assumptions: &[Lit]) -> Result<SolveResult, BackendError> {
            let start = Instant::now();
            loop {
                std::thread::sleep(Duration::from_micros(200));
                if start.elapsed() >= self.ignore_for
                    && self.check.as_ref().is_some_and(|check| check())
                {
                    return Ok(SolveResult::Interrupted);
                }
                // Safety valve so a buggy test cannot hang the suite.
                if start.elapsed() > Duration::from_secs(10) {
                    return Ok(SolveResult::Interrupted);
                }
            }
        }

        fn model_value(&self, _var: Var) -> Option<bool> {
            None
        }

        fn stats(&self) -> BackendStats {
            SatBackend::stats(&self.inner)
        }

        fn set_interrupt(&mut self, check: Arc<dyn Fn() -> bool + Send + Sync>) {
            self.check = Some(check);
        }

        fn fork(&self) -> Option<Box<dyn SatBackend>> {
            None
        }
    }

    fn portfolio(members: Vec<Box<dyn SatBackend>>, policy: RacePolicy) -> PortfolioBackend {
        PortfolioBackend::new(members, policy).expect("portfolio builds")
    }

    #[test]
    fn two_builtin_members_agree_and_the_primary_keeps_the_model() {
        let mut p = portfolio(vec![builtin(), builtin()], RacePolicy::DeterministicCex);
        let a = p.new_var();
        let b = p.new_var();
        p.add_clause(&[Lit::pos(a), Lit::pos(b)]);
        p.add_clause(&[Lit::neg(a), Lit::pos(b)]);
        assert_eq!(p.solve_under(&[]).unwrap(), SolveResult::Sat);
        assert_eq!(p.model_value(b), Some(true));
        assert_eq!(p.solve_under(&[Lit::neg(b)]).unwrap(), SolveResult::Unsat);
        let stats = p.stats();
        assert_eq!(stats.queries, 2);
        assert_eq!(stats.solver.race_solves, 2);
        assert_eq!(
            stats.solver.race_solves,
            p.race_stats().iter().map(|m| m.wins).sum::<u64>(),
            "every decided race has exactly one winner"
        );
    }

    #[test]
    fn a_stalling_racer_is_cancelled_and_its_latency_is_recorded() {
        let stall = Duration::from_millis(30);
        let mut p = portfolio(
            vec![builtin(), Box::new(StallingBackend::new(stall))],
            RacePolicy::DeterministicCex,
        );
        let a = p.new_var();
        p.add_clause(&[Lit::pos(a)]);
        assert_eq!(p.solve_under(&[]).unwrap(), SolveResult::Sat);
        assert_eq!(p.model_value(a), Some(true), "model comes from the primary");
        let race = p.race_stats();
        assert_eq!(race[0].wins, 1);
        assert_eq!(race[1].cancels, 1, "the stalling racer was cancelled");
        assert!(
            race[1].cancel_latency_us >= 10_000,
            "the fault ignored the cancel for ~{}ms, got {}us",
            stall.as_millis(),
            race[1].cancel_latency_us
        );
        let stats = p.stats();
        assert_eq!(stats.solver.race_cancels, 1);
        assert_eq!(
            stats.solver.race_cancel_latency_us,
            race[1].cancel_latency_us
        );
        assert_eq!(stats.solver.race_wins, 0, "primary wins are not racer wins");
    }

    #[test]
    fn an_unsat_racer_cancels_a_stalling_primary() {
        let mut p = portfolio(
            vec![
                Box::new(StallingBackend::new(Duration::from_millis(1))),
                builtin(),
            ],
            RacePolicy::DeterministicCex,
        );
        let a = p.new_var();
        p.add_clause(&[Lit::pos(a)]);
        p.add_clause(&[Lit::neg(a)]);
        assert_eq!(p.solve_under(&[]).unwrap(), SolveResult::Unsat);
        let race = p.race_stats();
        assert_eq!(race[1].wins, 1, "the racer's UNSAT proof decided the race");
        assert_eq!(race[0].cancels, 1, "the primary was cancelled mid-stall");
        let stats = p.stats();
        assert_eq!(stats.solver.race_wins, 1);
        assert_eq!(stats.solver.race_solves, 1);
    }

    #[test]
    fn fastest_cex_takes_the_winners_model() {
        let mut p = portfolio(
            vec![
                Box::new(StallingBackend::new(Duration::from_millis(1))),
                builtin(),
            ],
            RacePolicy::FastestCex,
        );
        let a = p.new_var();
        p.add_clause(&[Lit::pos(a)]);
        assert_eq!(p.solve_under(&[]).unwrap(), SolveResult::Sat);
        assert_eq!(
            p.model_value(a),
            Some(true),
            "fastest-cex reads the racer's model (the primary never answered)"
        );
        assert_eq!(p.stats().solver.race_wins, 1);
    }

    #[test]
    fn an_exhausted_budget_stops_every_member() {
        let mut p = portfolio(vec![builtin(), builtin()], RacePolicy::DeterministicCex);
        let a = p.new_var();
        let b = p.new_var();
        p.add_clause(&[Lit::pos(a), Lit::pos(b)]);
        let cancel = Arc::new(AtomicBool::new(false));
        let tracker = Arc::new(BudgetTracker::start(
            crate::SolveBudget {
                deadline: Some(Duration::ZERO),
                conflict_ceiling: None,
            },
            Arc::clone(&cancel),
        ));
        p.set_budget(Some(tracker));
        assert_eq!(p.solve_under(&[]).unwrap(), SolveResult::Interrupted);
        assert!(
            cancel.load(Ordering::SeqCst),
            "the exhaustion latch tripped"
        );
        let stats = p.stats();
        assert_eq!(
            stats.solver.race_solves, 0,
            "an undecided race is not a solve"
        );
        // Fresh budget, same formula: the portfolio recovers.
        p.set_budget(None);
        assert_eq!(p.solve_under(&[]).unwrap(), SolveResult::Sat);
    }

    #[test]
    fn forks_mirror_every_member_and_carry_race_telemetry() {
        let mut p = portfolio(vec![builtin(), builtin()], RacePolicy::DeterministicCex);
        let a = p.new_var();
        let b = p.new_var();
        p.add_clause(&[Lit::pos(a), Lit::pos(b)]);
        assert_eq!(p.solve_under(&[]).unwrap(), SolveResult::Sat);
        assert!(p.snapshot_bytes() > 0);
        let mut fork = p.fork().expect("all members fork");
        assert_eq!(
            fork.stats().solver.race_solves,
            p.stats().solver.race_solves,
            "race telemetry carries over so per-task deltas stay monotone"
        );
        assert_eq!(fork.solve_under(&[Lit::neg(a)]).unwrap(), SolveResult::Sat);
        assert_eq!(fork.model_value(b), Some(true));
        // The fork is independent: its extra clause never reaches the parent.
        fork.add_clause(&[Lit::neg(b)]);
        assert_eq!(
            fork.solve_under(&[Lit::neg(a)]).unwrap(),
            SolveResult::Unsat
        );
        assert_eq!(p.solve_under(&[Lit::neg(a)]).unwrap(), SolveResult::Sat);
    }

    #[test]
    fn race_policies_parse_and_render_round_trip() {
        assert_eq!(
            "deterministic-cex".parse::<RacePolicy>().unwrap(),
            RacePolicy::DeterministicCex
        );
        assert_eq!(
            "fastest-cex".parse::<RacePolicy>().unwrap(),
            RacePolicy::FastestCex
        );
        assert!("fastest".parse::<RacePolicy>().is_err());
        assert_eq!(
            RacePolicy::DeterministicCex.to_string(),
            "deterministic-cex"
        );
        assert_eq!(RacePolicy::FastestCex.to_string(), "fastest-cex");
    }

    #[test]
    fn members_must_start_empty() {
        let mut dirty = Solver::new();
        dirty.new_var();
        let err = PortfolioBackend::new(
            vec![builtin(), Box::new(dirty)],
            RacePolicy::DeterministicCex,
        )
        .err()
        .expect("a pre-populated member is rejected");
        assert!(err.message.contains("must start empty"), "{}", err.message);
        assert!(
            PortfolioBackend::new(Vec::new(), RacePolicy::DeterministicCex).is_err(),
            "an empty portfolio is rejected"
        );
    }
}
