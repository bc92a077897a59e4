//! The incremental miter session: one bit-blast, many property queries.
//!
//! The one-shot [`PropertyChecker`](crate::PropertyChecker) rebuilds the AIG,
//! the CNF and the SAT solver for every single property.  The detection flow,
//! however, checks a *sequence* of closely related properties over the same
//! miter — init, one fanout property per structural level, plus
//! re-verification rounds — and [`MiterSession`] exploits that:
//!
//! * **One AIG, one backend.**  The session allocates the symbolic starting
//!   state and the shared input words once, lowers each property's cones into
//!   the same structurally-hashed AIG, and mirrors only the *new* nodes into
//!   one live [`SatBackend`] through the
//!   [`IncrementalEncoder`](crate::cnf::IncrementalEncoder).  Cones whose
//!   bindings repeat across properties strash onto existing nodes and cost no
//!   new clauses, and the solver's learnt clauses persist across the whole
//!   flow.
//! * **Antecedents as assumptions.**  Equality assumptions on combinational
//!   signals become solver *assumptions* instead of baked-in unit clauses, so
//!   the same encoding serves every antecedent the flow tries.
//! * **Per-signal miters behind activation literals.**  Each property is
//!   split into one sub-property per prove signal, and each sub-property's
//!   "this signal differs" miter is guarded by a fresh activation literal;
//!   once the next generation is prepared the literal is retired with a unit
//!   clause, permanently simplifying the clause away.
//!
//! Checking a property is three stages, which is what lets a scheduler solve
//! many generations concurrently: [`MiterSession::prepare_level`] lowers and
//! encodes it on the master (optionally freezing a snapshot),
//! [`PreparedLevel::solve_task`] or [`MiterSession::solve_task_inline`]
//! solves each sub-property on a fork, and [`MiterSession::merge_level`]
//! folds the outcomes into one [`PropertyReport`] deterministically.
//!
//! Register starting-state variables follow the same sharing discipline as
//! the one-shot checker (see
//! [`CheckerOptions::share_assumed_equal`](crate::CheckerOptions)): registers
//! assumed equal by the property under check are bound to one canonical
//! shared word in both instances, which lets structural hashing collapse the
//! identical cones — the property-checking cliff documented in the
//! `ablation_hashing` benchmark applies unchanged to the incremental path.

use crate::fxhash::{FxHashMap, FxHashSet};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use htd_rtl::{SignalId, SignalKind, ValidatedDesign};
use htd_sat::{BackendError, Lit, SatBackend, SolveResult, SolverStats, Var};

use crate::aig::{Aig, AigLit};
use crate::bitblast::{equal, BitVec, BlastContext};
use crate::checker::{driver_registers, CheckerOptions};
use crate::cnf::IncrementalEncoder;
use crate::property::{CheckOutcome, CheckStats, Counterexample, IntervalProperty, PropertyReport};

/// Counters describing a whole [`MiterSession`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Number of miter encodings built from scratch.  A session builds its
    /// encoding exactly once, at construction — this counter existing (and
    /// staying at 1) is the point of the session API, and the equivalence
    /// tests assert it.
    pub bit_blasts: u64,
    /// Properties checked so far.
    pub properties_checked: u64,
    /// AIG nodes mirrored into the backend so far (cumulative over all
    /// properties; nodes shared between properties are counted once).
    pub nodes_encoded: u64,
    /// SAT queries issued (trivially decided properties issue none).
    pub queries: u64,
    /// Prove signals discharged by the structural fast path: their cone
    /// reduced to shared variables, so equality held by construction with no
    /// lowering and no solver work.
    pub structurally_proved: u64,
    /// Number of binding epochs built: a new epoch starts whenever a property
    /// arrives with a different set of merged (assumed-equal) registers.
    /// Properties within one epoch share their lowering contexts, so word-
    /// level nodes common to several properties are bit-blasted once per
    /// epoch instead of once per property.
    pub epoch_rebinds: u64,
    /// Per-signal solve tasks whose generation was merged into a verdict
    /// (speculatively prepared generations that are discarded after an
    /// earlier failure do not count).
    pub parallel_tasks: u64,
    /// Tasks skipped because an earlier (lower-id) task had already produced
    /// the level's counterexample.
    pub tasks_skipped: u64,
    /// Frozen generation snapshots forked off the master by
    /// [`MiterSession::prepare_level`].  Unlike the per-task fork counters in
    /// flow reports, this counts the *master-side* clones, which depend on
    /// the schedule (inline schedules skip them entirely).
    pub snapshot_forks: u64,
    /// Bytes copied by those master-side snapshot forks — the arena-backed
    /// cost model: each clone is proportional to the master's live database
    /// size at the prepare boundary, not to its clause count.
    pub snapshot_bytes_cloned: u64,
}

/// An incremental property-checking session over one design's 2-safety miter.
///
/// Construct it with a design, checker options and a boxed [`SatBackend`];
/// then run every property of the flow through
/// [`prepare_level`](Self::prepare_level), one solve per task and
/// [`merge_level`](Self::merge_level).  All queries share one encoding; see
/// the [module docs](self) for how.
///
/// # Example
///
/// ```
/// use std::sync::atomic::{AtomicBool, AtomicUsize};
/// use std::sync::Arc;
///
/// use htd_ipc::{IntervalProperty, MiterSession};
/// use htd_rtl::Design;
/// use htd_sat::Solver;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut d = Design::new("latch");
/// let input = d.add_input("in", 8)?;
/// let r = d.add_register("r", 8, 0)?;
/// d.set_register_next(r, d.signal(input))?;
/// d.add_output("out", d.signal(r))?;
/// let design = d.validated()?;
///
/// let mut session = MiterSession::new(&design, Box::new(Solver::new()));
/// let init = IntervalProperty::new("init_property", vec![], vec![r]);
/// // Unfrozen: every task is solved on a fork of the unmutated master.
/// let prepared = session.prepare_level(&design, &init, false);
/// let doomed = Arc::new(AtomicUsize::new(usize::MAX));
/// let cancelled = Arc::new(AtomicBool::new(false));
/// let outcomes = (0..prepared.num_tasks())
///     .map(|i| Some(session.solve_task_inline(&prepared, i, &doomed, &cancelled)))
///     .collect();
/// assert!(session.merge_level(&design, &prepared, outcomes)?.holds());
/// assert_eq!(session.stats().bit_blasts, 1);
/// # Ok(())
/// # }
/// ```
pub struct MiterSession {
    aig: Aig,
    backend: Box<dyn SatBackend>,
    encoder: IncrementalEncoder,
    options: CheckerOptions,
    design_name: String,
    /// Shared input words for frames `t` and `t + 1`.
    inputs: Vec<FxHashMap<SignalId, BitVec>>,
    /// Per-instance starting-state words (used while a register is *not*
    /// assumed equal).
    split_regs: [FxHashMap<SignalId, BitVec>; 2],
    /// Canonical shared starting-state words (used by both instances while a
    /// register *is* assumed equal), allocated lazily.
    shared_regs: FxHashMap<SignalId, BitVec>,
    /// Register-only combinational support of each signal's driver, computed
    /// lazily and kept for the whole session (the structure never changes).
    support_cache: FxHashMap<SignalId, Vec<SignalId>>,
    /// The cross-property lowering cache: the bound contexts of the current
    /// binding epoch (keyed by the merged-register set).  Checks whose
    /// antecedent merges the same registers reuse these contexts, so shared
    /// word-level cones are lowered once per epoch, not once per property.
    epoch: Option<EpochCtx>,
    /// Activation literals of the most recently prepared generation, retired
    /// (as permanent unit clauses) when the *next* generation is prepared.
    /// Deferring the retirement keeps the master mutation stream a pure
    /// function of the prepare order, so pipelined and non-pipelined flows
    /// see byte-identical master states at every snapshot.
    pending_acts: Vec<Var>,
    stats: SessionStats,
}

/// One per-signal sub-property of a level check: prove that `sig`'s
/// next-cycle value is equal in both instances under the level's antecedent.
struct LevelTask {
    sig: SignalId,
    b1: BitVec,
    b2: BitVec,
    /// Activation literal guarding this sub-property's miter clause (`None`
    /// when the miter is structurally true and no guard clause exists).
    act: Option<Var>,
    /// Base antecedent assumptions plus this task's activation literal.
    assumptions: Vec<Lit>,
    /// Decision-eligible variables: the cone of the antecedent and the miter.
    cone: Vec<Var>,
}

/// A generation's frozen fork source.
enum Snapshot {
    /// No snapshot: taskless generation, a backend whose `fork` returned
    /// `None`, or an inline schedule that forks the unmutated master at
    /// solve time.
    None,
    /// Single-task generations: the sole task takes the snapshot and solves
    /// on it directly (no second clone).
    Exclusive(Mutex<Option<Box<dyn SatBackend>>>),
    /// Multi-task generations: workers clone an `Arc` handle under a brief
    /// lock and fork outside it, so snapshot clones do not serialise; the
    /// coordinator releases the handle once the generation merges, freeing
    /// the clause database as soon as the last in-flight task drops its
    /// reference.
    Shared(Mutex<Option<Arc<dyn SatBackend>>>),
}

impl Snapshot {
    fn is_some(&self) -> bool {
        match self {
            Snapshot::None => false,
            Snapshot::Exclusive(slot) => slot.lock().expect("no poisoned locks").is_some(),
            Snapshot::Shared(slot) => slot.lock().expect("no poisoned locks").is_some(),
        }
    }

    fn release(&self) {
        match self {
            Snapshot::None => {}
            Snapshot::Exclusive(slot) => drop(slot.lock().expect("no poisoned locks").take()),
            Snapshot::Shared(slot) => drop(slot.lock().expect("no poisoned locks").take()),
        }
    }
}

/// What one solve task produced, recorded by whichever worker ran it.
enum TaskResult {
    /// The sub-property holds; per-task solver work and query count.
    Unsat(SolverStats, u64),
    /// A counterexample was found on a forked shard (the shard is kept alive
    /// so its model can be read during reconstruction).
    Sat(SolverStats, u64, Box<dyn SatBackend>),
    /// Cancelled: a lower-id task had already failed, or the whole flow was
    /// cancelled behind an earlier generation's verdict.
    Skipped,
    /// The backend infrastructure failed.
    Error(BackendError),
}

/// The opaque outcome of one sub-property solve: produced by
/// [`PreparedLevel::solve_task`] or [`MiterSession::solve_task_inline`] and
/// consumed by [`MiterSession::merge_level`].
pub struct TaskOutcome(TaskResult);

impl TaskOutcome {
    /// `true` if this outcome ends its level (a counterexample or an
    /// infrastructure error): sequential drivers stop dispatching the
    /// remaining sub-properties of the generation.
    #[must_use]
    pub fn ends_level(&self) -> bool {
        matches!(self.0, TaskResult::Sat(..) | TaskResult::Error(..))
    }

    fn skipped() -> Self {
        TaskOutcome(TaskResult::Skipped)
    }

    /// An infrastructure-failure outcome carrying `message`.  Exposed so
    /// executors outside this crate (the parallel scheduler's panic
    /// isolation) can settle a task slot whose solve never returned — the
    /// merge then surfaces the message as a [`BackendError`] instead of
    /// deadlocking on a forever-missing result.
    #[must_use]
    pub fn internal_error(message: impl Into<String>) -> Self {
        TaskOutcome(TaskResult::Error(BackendError {
            message: message.into(),
        }))
    }
}

impl std::fmt::Debug for TaskOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match &self.0 {
            TaskResult::Unsat(..) => "TaskOutcome::Unsat",
            TaskResult::Sat(..) => "TaskOutcome::Sat",
            TaskResult::Skipped => "TaskOutcome::Skipped",
            TaskResult::Error(..) => "TaskOutcome::Error",
        })
    }
}

/// One prepared (lowered, Tseitin-encoded and snapshot-frozen) generation of
/// the flow graph: a fanout level's property — or one of its resolution
/// rounds — split into per-signal sub-property tasks.
///
/// A `PreparedLevel` is created on the master session by
/// [`MiterSession::prepare_level`], after which the master is free to encode
/// *later* generations: every task solves against the generation's own
/// frozen snapshot, so levels encode and solve pipelined.  Results are
/// position-keyed and merged deterministically by
/// [`MiterSession::merge_level`].
pub struct PreparedLevel {
    property_name: String,
    tasks: Vec<LevelTask>,
    /// The frozen master snapshot tasks fork from (`None` when the
    /// generation has no tasks, was prepared unfrozen, or the backend's
    /// `fork` returned `None`).  Single-task generations hold it exclusively
    /// and solve on it directly instead of paying for a second clone;
    /// multi-task generations share it so workers fork *outside* any lock.
    snapshot: Snapshot,
    /// This generation's epoch starting-state words, kept for counterexample
    /// reconstruction at merge time (the session's live epoch may already
    /// belong to a later generation).
    regs: [FxHashMap<SignalId, BitVec>; 2],
    start: Instant,
    structurally_proved: u64,
    /// Bytes the generation's frozen snapshot clone copied off the master
    /// (0 when no snapshot was taken: taskless generations, inline
    /// schedules).
    snapshot_bytes: u64,
    /// Master-side work bracketed over this generation's prepare: AIG and
    /// CNF growth plus any clause-GC the master ran before the snapshot.
    aig_nodes: usize,
    aig_ands: usize,
    strash_hits: u64,
    cnf_vars: usize,
    cnf_clauses: usize,
    master_solver: SolverStats,
}

impl std::fmt::Debug for PreparedLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PreparedLevel")
            .field("property", &self.property_name)
            .field("tasks", &self.tasks.len())
            .finish_non_exhaustive()
    }
}

impl PreparedLevel {
    /// The name of the property this generation checks.
    #[must_use]
    pub fn property_name(&self) -> &str {
        &self.property_name
    }

    /// Number of per-signal solve tasks (0 when the level discharged
    /// structurally or vacuously).
    #[must_use]
    pub fn num_tasks(&self) -> usize {
        self.tasks.len()
    }

    /// `true` if the generation carries a frozen snapshot, i.e. its tasks can
    /// be solved concurrently (and concurrently with other generations).
    #[must_use]
    pub fn has_snapshot(&self) -> bool {
        self.snapshot.is_some()
    }

    /// Bytes the generation's frozen snapshot clone copied off the master —
    /// the O(bytes) cost of freezing this generation (0 when no snapshot was
    /// taken).  Schedulers aggregate this into their pipeline counters.
    #[must_use]
    pub fn snapshot_bytes(&self) -> u64 {
        self.snapshot_bytes
    }

    /// Releases the generation's snapshot once its results are merged: the
    /// clause-database clone is freed as soon as no in-flight task still
    /// references it.  Idempotent.
    pub fn release_snapshot(&self) {
        self.snapshot.release();
    }

    /// Solves sub-property `index` on a fork of the generation's snapshot.
    ///
    /// `doomed` is the generation's shared lowest-failed-task id (initialise
    /// to `usize::MAX`): a task behind a lower-id failure is skipped, or
    /// cancelled mid-solve, because the deterministic merge can never consume
    /// its result.  `cancelled` aborts speculative work when an *earlier
    /// generation's* verdict has already ended the flow.
    ///
    /// Any worker thread may call this for any index; results are
    /// deterministic because every task solves from the same frozen snapshot.
    #[must_use]
    pub fn solve_task(
        &self,
        index: usize,
        doomed: &Arc<AtomicUsize>,
        cancelled: &Arc<AtomicBool>,
    ) -> TaskOutcome {
        if doomed.load(Ordering::SeqCst) < index || cancelled.load(Ordering::SeqCst) {
            return TaskOutcome::skipped();
        }
        let shard = match &self.snapshot {
            Snapshot::None => None,
            // Sole task of the generation: solve on the snapshot itself
            // instead of paying for a second clone.
            Snapshot::Exclusive(slot) => slot.lock().expect("no poisoned locks").take(),
            Snapshot::Shared(slot) => {
                // Clone the handle under the lock, fork outside it: clause
                // database clones never serialise the workers.
                let handle = slot.lock().expect("no poisoned locks").clone();
                handle.and_then(|master| master.fork())
            }
        };
        self.solve_on(shard, index, doomed, cancelled)
    }

    /// The shared solving core: masks, focuses and solves one task on an
    /// already-acquired shard.
    fn solve_on(
        &self,
        shard: Option<Box<dyn SatBackend>>,
        index: usize,
        doomed: &Arc<AtomicUsize>,
        cancelled: &Arc<AtomicBool>,
    ) -> TaskOutcome {
        let task = &self.tasks[index];
        let Some(mut shard) = shard else {
            doomed.fetch_min(index, Ordering::SeqCst);
            return TaskOutcome(TaskResult::Error(BackendError {
                message: "generation snapshot unavailable (the backend's fork() returned None)"
                    .to_string(),
            }));
        };
        // The byte cost of the fork that produced this shard.  It is folded
        // into the consumed task's work delta below — and it is schedule-
        // invariant: whether the shard forked off the frozen snapshot or
        // (on an inline schedule) straight off the unmutated master, the
        // cloned content is byte-identical, so reports stay identical across
        // the whole jobs x pipelining matrix.
        let fork_bytes = shard.snapshot_bytes();
        let fork_watcher_bytes = shard.watcher_bytes();
        shard.mask_all_decisions();
        for &v in &task.cone {
            shard.set_decision_var(v, true);
        }
        // Cancel mid-solve once a lower-id task has failed (or the flow
        // moved on): this task's result can no longer be consumed by the
        // deterministic merge.
        let doomed_check = Arc::clone(doomed);
        let cancelled_check = Arc::clone(cancelled);
        shard.set_interrupt(Arc::new(move || {
            doomed_check.load(Ordering::SeqCst) < index || cancelled_check.load(Ordering::SeqCst)
        }));
        let before = shard.stats();
        match shard.solve_under(&task.assumptions) {
            Err(e) => {
                doomed.fetch_min(index, Ordering::SeqCst);
                TaskOutcome(TaskResult::Error(e))
            }
            Ok(SolveResult::Interrupted) => TaskOutcome::skipped(),
            Ok(SolveResult::Unsat) => {
                let after = shard.stats();
                let mut delta = after.solver.delta_since(&before.solver);
                delta.fork_count += 1;
                delta.bytes_cloned += fork_bytes;
                delta.watcher_bytes_cloned += fork_watcher_bytes;
                TaskOutcome(TaskResult::Unsat(delta, after.queries - before.queries))
            }
            Ok(SolveResult::Sat) => {
                doomed.fetch_min(index, Ordering::SeqCst);
                let after = shard.stats();
                let mut delta = after.solver.delta_since(&before.solver);
                delta.fork_count += 1;
                delta.bytes_cloned += fork_bytes;
                delta.watcher_bytes_cloned += fork_watcher_bytes;
                TaskOutcome(TaskResult::Sat(
                    delta,
                    after.queries - before.queries,
                    shard,
                ))
            }
        }
    }
}

/// The lowering contexts of one binding epoch (one merged-register set).
#[derive(Clone)]
struct EpochCtx {
    /// Sorted merged-register set this epoch was built for.
    key: Vec<SignalId>,
    /// Frame-`t` contexts of the two instances.
    ctx_t: [BlastContext; 2],
    /// Frame-`t+1` contexts: `inputs[1]` plus the next-state words of only
    /// the registers the epoch's wire/output proofs have read so far.
    ctx_t1: [BlastContext; 2],
    /// Per-instance starting-state words under this epoch's sharing.
    regs: [FxHashMap<SignalId, BitVec>; 2],
}

impl std::fmt::Debug for MiterSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MiterSession")
            .field("design", &self.design_name)
            .field("backend", &self.backend.name())
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl MiterSession {
    /// Creates a session with default checker options.
    #[must_use]
    pub fn new(design: &ValidatedDesign, backend: Box<dyn SatBackend>) -> Self {
        Self::with_options(design, CheckerOptions::default(), backend)
    }

    /// Creates a session with explicit checker options.
    ///
    /// This is the session's single bit-blast: the shared input words and the
    /// per-instance starting-state words are allocated here, once.
    #[must_use]
    pub fn with_options(
        design: &ValidatedDesign,
        options: CheckerOptions,
        mut backend: Box<dyn SatBackend>,
    ) -> Self {
        backend.set_gc_thresholds(
            f64::from(options.gc_dead_pct) / 100.0,
            options.gc_min_clauses,
        );
        let d = design.design();
        let mut aig = Aig::new();
        let inputs: Vec<FxHashMap<SignalId, BitVec>> = (0..2)
            .map(|_| {
                d.inputs()
                    .into_iter()
                    .map(|s| (s, fresh_word(&mut aig, d.signal_width(s))))
                    .collect()
            })
            .collect();
        let mut split_regs: [FxHashMap<SignalId, BitVec>; 2] =
            [FxHashMap::default(), FxHashMap::default()];
        for r in d.registers() {
            let width = d.signal_width(r);
            split_regs[0].insert(r, fresh_word(&mut aig, width));
            split_regs[1].insert(r, fresh_word(&mut aig, width));
        }
        MiterSession {
            aig,
            backend,
            encoder: IncrementalEncoder::new(),
            options,
            design_name: d.name().to_string(),
            inputs,
            split_regs,
            shared_regs: FxHashMap::default(),
            support_cache: FxHashMap::default(),
            epoch: None,
            pending_acts: Vec::new(),
            stats: SessionStats {
                bit_blasts: 1,
                ..SessionStats::default()
            },
        }
    }

    /// The options in effect.
    #[must_use]
    pub fn options(&self) -> CheckerOptions {
        self.options
    }

    /// The backend's report name (`builtin-cdcl`, `dimacs:…`).
    #[must_use]
    pub fn backend_name(&self) -> String {
        self.backend.name()
    }

    /// The name of the design the session is bound to.
    #[must_use]
    pub fn design_name(&self) -> &str {
        &self.design_name
    }

    /// Bytes a fork of the session's master backend would copy — the
    /// O(bytes) cost model of the arena-backed clause store, used both for
    /// the per-generation snapshot accounting and as the eviction cost of a
    /// design-keyed session cache (0 for backends that cannot fork).
    #[must_use]
    pub fn snapshot_bytes(&self) -> u64 {
        self.backend.snapshot_bytes()
    }

    /// Estimated resident size of the whole session: the AIG footprint plus
    /// the backend's forkable snapshot bytes.  This is the honest eviction
    /// cost of a design-keyed **frozen master** cache: a pristine master has
    /// issued no queries, so [`snapshot_bytes`](Self::snapshot_bytes) alone
    /// reads near zero while the bit-blast product (the AIG and its
    /// structural hash) dominates its footprint.
    #[must_use]
    pub fn resident_bytes(&self) -> u64 {
        self.aig.resident_bytes() + self.backend.snapshot_bytes()
    }

    /// Forks the whole session: an O(bytes) clone of the encoding state (AIG,
    /// encoder maps, epoch contexts) plus a [`SatBackend::fork`] of the
    /// master solver.  Returns `None` when the backend cannot fork (process
    /// backends).
    ///
    /// The fork is a fully independent session over the same design: checks
    /// run on it never touch the parent.  The intended use is a **frozen
    /// master** cache — build a session (one bit-blast), never run it, and
    /// fork it once per request — so a returning design costs one arena copy
    /// instead of a re-encode.  Forking a session that has already run
    /// properties is also sound, but its learnt clauses and retired
    /// activation literals carry over, so reports from such a fork are not
    /// byte-identical to a fresh session's; fork pristine masters when
    /// report-identity matters.
    #[must_use]
    pub fn try_fork(&self) -> Option<MiterSession> {
        let backend = self.backend.fork()?;
        Some(MiterSession {
            aig: self.aig.clone(),
            backend,
            encoder: self.encoder.clone(),
            options: self.options,
            design_name: self.design_name.clone(),
            inputs: self.inputs.clone(),
            split_regs: self.split_regs.clone(),
            shared_regs: self.shared_regs.clone(),
            support_cache: self.support_cache.clone(),
            epoch: self.epoch.clone(),
            pending_acts: self.pending_acts.clone(),
            stats: self.stats,
        })
    }

    /// Session-level counters.
    #[must_use]
    pub fn stats(&self) -> SessionStats {
        SessionStats {
            // Queries solved on the master backend plus queries solved on
            // forked per-task solvers (accumulated in `self.stats.queries`).
            queries: self.backend.stats().queries + self.stats.queries,
            ..self.stats
        }
    }

    /// Lowers and encodes one generation of the flow graph — a fanout level's
    /// property (or a resolution round of one) — on the master backend and
    /// freezes it behind a forked snapshot.
    ///
    /// This is the master half of the pipelined level check: the prove
    /// consequent is partitioned into per-signal sub-properties ("one pending
    /// property per prove signal"), each guarded by its own activation
    /// literal, and the whole generation's cones are mirrored into the master
    /// once (sharing the binding epoch).  The returned [`PreparedLevel`] is
    /// self-contained: its tasks solve against the generation's frozen
    /// snapshot on any thread while the master moves on to encode *later*
    /// generations (epoch-scoped incremental re-lowering).
    ///
    /// Master hygiene runs at the prepare boundary, in a fixed order that is
    /// a pure function of the prepare sequence: first the previous
    /// generation's activation literals are retired (their miter clauses are
    /// permanently disabled), then the clause database is opportunistically
    /// compacted *before* the snapshot is taken, so worker shards clone an
    /// already-GC'd database (see [`CheckerOptions::gc_dead_pct`]).
    ///
    /// `freeze: false` skips the snapshot clone: the caller promises to
    /// solve this generation's tasks (via
    /// [`solve_task_inline`](Self::solve_task_inline)) before the master
    /// mutates again, which makes a master fork at solve time byte-identical
    /// to a fork of the omitted snapshot.  Sequential schedules use this to
    /// avoid paying for a clone nobody shares.
    ///
    /// # Panics
    ///
    /// Panics if `design` is not the session's design.
    pub fn prepare_level(
        &mut self,
        design: &ValidatedDesign,
        property: &IntervalProperty,
        freeze: bool,
    ) -> PreparedLevel {
        // htd-lint: allow(determinism): feeds PropertyReport.duration only, zeroed by the normalized rendering
        let start = Instant::now();
        let d = design.design();
        assert_eq!(d.name(), self.design_name, "session is bound to one design");
        let aig_nodes_before = self.aig.num_nodes();
        let aig_ands_before = self.aig.num_ands();
        let strash_before = self.aig.strash_hits();
        let backend_before = self.backend.stats();

        // Retire the previous generation's activation literals: deferred to
        // this point so the master mutation stream is deterministic whether
        // or not earlier generations have finished solving.
        let retired = self.flush_retired();

        let share = self.options.share_assumed_equal;
        let assume_regs: FxHashSet<SignalId> = property
            .assume_equal
            .iter()
            .copied()
            .filter(|s| d.signal_info(*s).kind().is_register())
            .collect();
        let mut epoch = self.take_epoch(design, &assume_regs);
        let assumption_aig = self.lower_assumptions(design, property, &assume_regs, &mut epoch);

        // Per-signal proof obligations in prove-list order — the sub-property
        // id order of the deterministic merge.
        let mut structurally_proved = 0u64;
        let mut specs: Vec<(SignalId, BitVec, BitVec, AigLit)> = Vec::new();
        for &sig in &property.prove_equal {
            if share && self.structurally_equal_next(design, sig, &assume_regs) {
                structurally_proved += 1;
                continue;
            }
            let Some((b1, b2)) = self.lower_prove_signal(design, &mut epoch, sig) else {
                continue;
            };
            let diff = equal(&mut self.aig, &b1, &b2).invert();
            if diff == AigLit::FALSE {
                // Equal by construction under this epoch's sharing.
                continue;
            }
            specs.push((sig, b1, b2, diff));
        }

        // A structurally unsatisfiable antecedent makes the whole level hold
        // vacuously; no signal to check makes it hold trivially.  Either way
        // the generation carries no tasks.
        let mut tasks: Vec<LevelTask> = Vec::new();
        if !assumption_aig.contains(&AigLit::FALSE) && !specs.is_empty() {
            // Mirror every cone this generation needs into the master, then
            // guard each sub-property's miter behind its own activation
            // literal.
            let mut roots: Vec<AigLit> = assumption_aig.clone();
            roots.extend(specs.iter().map(|s| s.3));
            let fresh = self
                .encoder
                .encode(self.backend.as_mut(), &self.aig, &roots);
            self.stats.nodes_encoded += fresh as u64;

            let base_assumptions: Vec<Lit> = assumption_aig
                .iter()
                .filter(|&&a| a != AigLit::TRUE)
                .map(|&a| self.encoder.lit(a))
                .collect();
            let assumption_roots: Vec<AigLit> = assumption_aig
                .iter()
                .copied()
                .filter(|a| !a.is_const())
                .collect();

            tasks.reserve(specs.len());
            for (sig, b1, b2, diff) in specs {
                let mut assumptions = base_assumptions.clone();
                let mut cone_roots = assumption_roots.clone();
                let act = if diff == AigLit::TRUE {
                    // The miter holds structurally for every assignment; the
                    // query only needs a model of the antecedent.
                    None
                } else {
                    cone_roots.push(diff);
                    let act = self.backend.new_var();
                    let miter_lit = self.encoder.lit(diff);
                    self.backend.add_clause(&[Lit::neg(act), miter_lit]);
                    assumptions.push(Lit::pos(act));
                    Some(act)
                };
                let mut cone: Vec<Var> = self
                    .encoder
                    .cone_vars(&self.aig, &cone_roots)
                    .into_iter()
                    .collect();
                cone.extend(act);
                tasks.push(LevelTask {
                    sig,
                    b1,
                    b2,
                    act,
                    assumptions,
                    cone,
                });
            }
        }

        if retired {
            // Something died since the last compaction: compact the master
            // before any freeze, so shards clone an already-GC'd clause
            // database.
            let _ = self.backend.collect_garbage();
        }
        let snapshot = if tasks.is_empty() || !freeze {
            // Taskless generation, or the caller promises to solve inline
            // before the master mutates again (tasks then fork straight off
            // the master via `solve_task_inline`, saving the snapshot clone).
            Snapshot::None
        } else if tasks.len() == 1 {
            match self.backend.fork() {
                Some(fork) => Snapshot::Exclusive(Mutex::new(Some(fork))),
                None => Snapshot::None,
            }
        } else {
            match self.backend.fork() {
                Some(fork) => Snapshot::Shared(Mutex::new(Some(Arc::from(fork)))),
                None => Snapshot::None,
            }
        };
        // Master-side fork accounting: with the arena-backed clause store a
        // snapshot clone costs O(bytes of live database), and these counters
        // make that visible per generation.  They stay out of the flow
        // report (which counts the schedule-invariant per-task forks
        // instead) because inline schedules legitimately skip the clone.
        // The byte computation itself only runs when a snapshot was taken —
        // for process backends it scans the clause list.
        let snapshot_bytes = if snapshot.is_some() {
            let bytes = self.backend.snapshot_bytes();
            self.stats.snapshot_forks += 1;
            self.stats.snapshot_bytes_cloned += bytes;
            bytes
        } else {
            0
        };
        self.pending_acts.extend(tasks.iter().filter_map(|t| t.act));

        let backend_after = self.backend.stats();
        let prepared = PreparedLevel {
            property_name: property.name.clone(),
            tasks,
            snapshot,
            regs: epoch.regs.clone(),
            start,
            structurally_proved,
            snapshot_bytes,
            aig_nodes: self.aig.num_nodes() - aig_nodes_before,
            aig_ands: self.aig.num_ands() - aig_ands_before,
            strash_hits: self.aig.strash_hits() - strash_before,
            cnf_vars: backend_after.vars - backend_before.vars,
            cnf_clauses: backend_after.clauses.saturating_sub(backend_before.clauses),
            master_solver: backend_after.solver.delta_since(&backend_before.solver),
        };
        self.epoch = Some(epoch);
        prepared
    }

    /// Solves sub-property `index` of a generation prepared with
    /// `freeze: false` on a fork taken straight off the master.  Sound only
    /// while the master has not mutated since that generation's
    /// [`prepare_level`](Self::prepare_level) — the fork then has exactly the
    /// content its frozen snapshot would have had, so results (and reports)
    /// are byte-identical to the frozen path.
    #[must_use]
    pub fn solve_task_inline(
        &self,
        prepared: &PreparedLevel,
        index: usize,
        doomed: &Arc<AtomicUsize>,
        cancelled: &Arc<AtomicBool>,
    ) -> TaskOutcome {
        if doomed.load(Ordering::SeqCst) < index || cancelled.load(Ordering::SeqCst) {
            return TaskOutcome::skipped();
        }
        prepared.solve_on(self.backend.fork(), index, doomed, cancelled)
    }

    /// Deterministically merges the outcomes of one prepared generation into
    /// its [`PropertyReport`]: scan in sub-property id order, first
    /// counterexample wins, and only the consumed prefix contributes
    /// statistics — the invariant that keeps flow reports identical for any
    /// worker count, pipelined or not.
    ///
    /// # Errors
    ///
    /// Returns [`BackendError`] if a consumed task reported an infrastructure
    /// failure (or produced no result at all).
    ///
    /// # Panics
    ///
    /// Panics if `design` is not the session's design.
    pub fn merge_level(
        &mut self,
        design: &ValidatedDesign,
        prepared: &PreparedLevel,
        outcomes: Vec<Option<TaskOutcome>>,
    ) -> Result<PropertyReport, BackendError> {
        let d = design.design();
        assert_eq!(d.name(), self.design_name, "session is bound to one design");
        self.stats.properties_checked += 1;
        self.stats.structurally_proved += prepared.structurally_proved;
        self.stats.parallel_tasks += prepared.tasks.len() as u64;
        if prepared.tasks.is_empty() {
            return Ok(self.prepared_report(prepared, CheckOutcome::Holds, SolverStats::default()));
        }

        let mut level_delta = SolverStats::default();
        let mut fork_queries = 0u64;
        let mut winner: Option<(usize, Box<dyn SatBackend>)> = None;
        let mut first_error: Option<BackendError> = None;
        let mut skipped = 0u64;
        for (i, outcome) in outcomes.into_iter().enumerate() {
            if winner.is_some() || first_error.is_some() {
                skipped += 1;
                continue;
            }
            match outcome.map(|o| o.0) {
                Some(TaskResult::Unsat(delta, queries)) => {
                    level_delta.accumulate(&delta);
                    fork_queries += queries;
                }
                Some(TaskResult::Sat(delta, queries, shard)) => {
                    level_delta.accumulate(&delta);
                    fork_queries += queries;
                    winner = Some((i, shard));
                }
                Some(TaskResult::Error(e)) => first_error = Some(e),
                Some(TaskResult::Skipped) | None => {
                    // A skipped task before any failure cannot happen (tasks
                    // are only skipped behind a lower-id failure); treat a
                    // lost result as an infrastructure error.
                    first_error = Some(BackendError {
                        message: format!("level sub-property {i} produced no result"),
                    });
                }
            }
        }
        self.stats.tasks_skipped += skipped;
        self.stats.queries += fork_queries;
        if let Some(e) = first_error {
            return Err(e);
        }

        // Reconstruct the counterexample (if any) from the model of the
        // winning task's solver.
        let outcome = match &winner {
            None => CheckOutcome::Holds,
            Some((i, shard)) => {
                let task = &prepared.tasks[*i];
                let prove_values = vec![(task.sig, task.b1.clone(), task.b2.clone())];
                CheckOutcome::Fails(Box::new(self.reconstruct_with(
                    shard.as_ref(),
                    d,
                    &prepared.property_name,
                    &prove_values,
                    &prepared.regs,
                )))
            }
        };
        Ok(self.prepared_report(prepared, outcome, level_delta))
    }

    /// Assembles the [`PropertyReport`] of one generation from its prepare
    /// bracket plus the accumulated per-task solver work.
    fn prepared_report(
        &self,
        prepared: &PreparedLevel,
        outcome: CheckOutcome,
        task_delta: SolverStats,
    ) -> PropertyReport {
        let mut solver = prepared.master_solver;
        solver.accumulate(&task_delta);
        PropertyReport {
            property: prepared.property_name.clone(),
            outcome,
            stats: CheckStats {
                aig_nodes: prepared.aig_nodes,
                aig_ands: prepared.aig_ands,
                strash_hits: prepared.strash_hits,
                cnf_vars: prepared.cnf_vars,
                cnf_clauses: prepared.cnf_clauses,
                solver,
                duration: prepared.start.elapsed(),
            },
        }
    }

    /// Retires the pending activation literals of the previously prepared
    /// generation: permanent unit clauses disable their miter clauses, which
    /// the next [`collect_garbage`](SatBackend::collect_garbage) can then
    /// physically drop.
    /// Returns `true` if any literal was retired (i.e. clauses may have
    /// died since the last garbage collection).
    fn flush_retired(&mut self) -> bool {
        let retired = !self.pending_acts.is_empty();
        for act in std::mem::take(&mut self.pending_acts) {
            self.backend.add_clause(&[Lit::neg(act)]);
        }
        retired
    }

    /// The master backend's cumulative counters (variables, clauses, queries
    /// and solver work including clause-GC).
    #[must_use]
    pub fn backend_stats(&self) -> htd_sat::BackendStats {
        self.backend.stats()
    }

    /// Attaches (or detaches, with `None`) a shared resource budget on the
    /// master backend.  Forks taken afterwards — the per-task shards of the
    /// pipelined executor — inherit the tracker, so the whole job charges
    /// one budget.  Install it on a run fork, never on a cached pristine
    /// master.
    pub fn set_budget(&mut self, budget: Option<std::sync::Arc<htd_sat::BudgetTracker>>) {
        self.backend.set_budget(budget);
    }

    /// Ends a level-flow: retires the final generation's activation literals
    /// and lets the backend compact the clauses that just died, so a reused
    /// session starts its next run with a clean database.  Returns the
    /// master's solver-work delta (clause-GC counters); callers must NOT
    /// fold it into a flow report — which literals are still pending depends
    /// on how far ahead the executor speculated, and reports are
    /// schedule-invariant.  Inspect [`backend_stats`](Self::backend_stats)
    /// for the cumulative picture instead.
    pub fn finish_level_flow(&mut self) -> SolverStats {
        let before = self.backend.stats();
        if self.flush_retired() {
            let _ = self.backend.collect_garbage();
        }
        self.backend.stats().solver.delta_since(&before.solver)
    }

    /// [`driver_registers`], cached for the session's lifetime.
    fn driver_reg_support(&mut self, design: &ValidatedDesign, sig: SignalId) -> Vec<SignalId> {
        if let Some(cached) = self.support_cache.get(&sig) {
            return cached.clone();
        }
        let regs = driver_registers(design, sig);
        self.support_cache.insert(sig, regs.clone());
        regs
    }

    /// `true` if the *next* value of register (or the *current* value of
    /// wire/output) `sig` is the same function of shared variables in both
    /// instances: every register its driver reads is bound to a shared word.
    fn driver_is_merged(
        &mut self,
        design: &ValidatedDesign,
        sig: SignalId,
        assume_regs: &FxHashSet<SignalId>,
    ) -> bool {
        self.driver_reg_support(design, sig)
            .iter()
            .all(|r| assume_regs.contains(r))
    }

    /// `true` if `sig`'s value one cycle after `t` is provably identical in
    /// both instances *by construction* under the current sharing: the whole
    /// cone reduces to shared variables, so no lowering and no SAT query is
    /// needed — the incremental flow's structural fast path.
    fn structurally_equal_next(
        &mut self,
        design: &ValidatedDesign,
        sig: SignalId,
        assume_regs: &FxHashSet<SignalId>,
    ) -> bool {
        let d = design.design();
        match d.signal_info(sig).kind() {
            SignalKind::Register { .. } => self.driver_is_merged(design, sig, assume_regs),
            SignalKind::Output | SignalKind::Wire => {
                // Value at t+1 = comb function of inputs@t+1 (shared) and the
                // next-state of the registers the driver reads.
                self.driver_reg_support(design, sig)
                    .iter()
                    .all(|&r| self.driver_is_merged(design, r, assume_regs))
            }
            SignalKind::Input => true,
        }
    }

    /// Returns the lowering contexts for the given merged-register set,
    /// reusing the cached epoch when the key matches (the cross-property
    /// lowering cache) and rebinding otherwise.
    fn take_epoch(
        &mut self,
        design: &ValidatedDesign,
        assume_regs: &FxHashSet<SignalId>,
    ) -> EpochCtx {
        let share = self.options.share_assumed_equal;
        let mut key: Vec<SignalId> = if share {
            assume_regs.iter().copied().collect()
        } else {
            Vec::new()
        };
        key.sort_unstable();
        if let Some(epoch) = self.epoch.take() {
            if epoch.key == key {
                return epoch;
            }
        }
        self.stats.epoch_rebinds += 1;
        let d = design.design();
        let mut ctx_t: [BlastContext; 2] = [BlastContext::new(), BlastContext::new()];
        let mut ctx_t1: [BlastContext; 2] = [BlastContext::new(), BlastContext::new()];
        for inst in 0..2 {
            for (s, bits) in &self.inputs[0] {
                ctx_t[inst].bind(*s, bits.clone());
            }
            for (s, bits) in &self.inputs[1] {
                ctx_t1[inst].bind(*s, bits.clone());
            }
        }
        let mut regs: [FxHashMap<SignalId, BitVec>; 2] =
            [FxHashMap::default(), FxHashMap::default()];
        for r in d.registers() {
            if share && assume_regs.contains(&r) {
                let width = d.signal_width(r);
                let aig = &mut self.aig;
                let bits = self
                    .shared_regs
                    .entry(r)
                    .or_insert_with(|| (0..width).map(|_| aig.new_input()).collect())
                    .clone();
                for inst in 0..2 {
                    ctx_t[inst].bind(r, bits.clone());
                    regs[inst].insert(r, bits.clone());
                }
            } else {
                for inst in 0..2 {
                    let bits = self.split_regs[inst][&r].clone();
                    ctx_t[inst].bind(r, bits.clone());
                    regs[inst].insert(r, bits);
                }
            }
        }
        EpochCtx {
            key,
            ctx_t,
            ctx_t1,
            regs,
        }
    }

    /// Lowers the antecedent equalities not already discharged by variable
    /// sharing into AIG literals (one per assumed signal).
    fn lower_assumptions(
        &mut self,
        design: &ValidatedDesign,
        property: &IntervalProperty,
        assume_regs: &FxHashSet<SignalId>,
        epoch: &mut EpochCtx,
    ) -> Vec<AigLit> {
        let d = design.design();
        let share = self.options.share_assumed_equal;
        let mut assumption_aig: Vec<AigLit> = Vec::new();
        for &sig in &property.assume_equal {
            let kind = d.signal_info(sig).kind();
            let merged = kind.is_register() && share;
            if merged || kind == SignalKind::Input {
                continue;
            }
            // A wire/output whose cone reduces to shared variables is equal
            // by construction; lowering it would only produce a constant.
            if share && self.driver_is_merged(design, sig, assume_regs) {
                continue;
            }
            let b1 = epoch.ctx_t[0].signal(d, &mut self.aig, sig);
            let b2 = epoch.ctx_t[1].signal(d, &mut self.aig, sig);
            assumption_aig.push(equal(&mut self.aig, &b1, &b2));
        }
        assumption_aig
    }

    /// Lowers one prove signal's next-cycle value in both instances.
    /// Registers are proved through their drivers at `t`; wires and outputs
    /// through the frame-`t+1` contexts, after binding the registers in
    /// their driver's support that no earlier proof of the epoch bound.
    /// Inputs are shared by construction — nothing to prove, `None`.
    fn lower_prove_signal(
        &mut self,
        design: &ValidatedDesign,
        epoch: &mut EpochCtx,
        sig: SignalId,
    ) -> Option<(BitVec, BitVec)> {
        let d = design.design();
        let info = d.signal_info(sig);
        match info.kind() {
            SignalKind::Register { .. } => {
                let next = info.driver().expect("validated design");
                let b1 = epoch.ctx_t[0].expr(d, &mut self.aig, next);
                let b2 = epoch.ctx_t[1].expr(d, &mut self.aig, next);
                Some((b1, b2))
            }
            SignalKind::Output | SignalKind::Wire => {
                let support = self.driver_reg_support(design, sig);
                let EpochCtx { ctx_t, ctx_t1, .. } = epoch;
                for inst in 0..2 {
                    ctx_t1[inst].bind_next_states(&mut ctx_t[inst], d, &mut self.aig, &support);
                }
                let b1 = ctx_t1[0].signal(d, &mut self.aig, sig);
                let b2 = ctx_t1[1].signal(d, &mut self.aig, sig);
                Some((b1, b2))
            }
            SignalKind::Input => None,
        }
    }

    /// Rebuilds a concrete counterexample from the given backend's model via
    /// the reconstruction shared with the one-shot checker.  The model source
    /// is a parameter because a parallel level check reads it from the forked
    /// per-task solver that found the counterexample.
    fn reconstruct_with(
        &self,
        model_source: &dyn SatBackend,
        d: &htd_rtl::Design,
        name: &str,
        prove_values: &[(SignalId, BitVec, BitVec)],
        regs: &[FxHashMap<SignalId, BitVec>; 2],
    ) -> Counterexample {
        let mut env: FxHashMap<u32, bool> = FxHashMap::default();
        for (&node, &var) in self.encoder.node_vars() {
            if self.aig.is_input(AigLit::positive(node)) {
                env.insert(node, model_source.model_value(var).unwrap_or(false));
            }
        }
        crate::checker::reconstruct_counterexample(
            d,
            &self.aig,
            &env,
            name,
            &[prove_values.to_vec()],
            &self.inputs,
            regs,
        )
    }
}

/// Allocates fresh AIG variables for one word.
fn fresh_word(aig: &mut Aig, width: u32) -> BitVec {
    (0..width).map(|_| aig.new_input()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checker::tests::output_beside_a_multiplier;
    use crate::PropertyChecker;
    use htd_rtl::Design;
    use htd_sat::{BackendStats, Solver};

    fn trojan_design() -> ValidatedDesign {
        let mut d = Design::new("tiny_trojan");
        let input = d.add_input("in", 1).unwrap();
        let trigger = d.add_register("trigger", 1, 0).unwrap();
        let data = d.add_register("data", 1, 0).unwrap();
        let trig_next = d.or(d.signal(trigger), d.signal(input)).unwrap();
        d.set_register_next(trigger, trig_next).unwrap();
        let payload = d.xor(d.signal(input), d.signal(trigger)).unwrap();
        d.set_register_next(data, payload).unwrap();
        d.add_output("out", d.signal(data)).unwrap();
        d.validated().unwrap()
    }

    fn pipeline() -> ValidatedDesign {
        let mut d = Design::new("pipeline");
        let input = d.add_input("in", 8).unwrap();
        let s1 = d.add_register("s1", 8, 0).unwrap();
        let s2 = d.add_register("s2", 8, 0).unwrap();
        d.set_register_next(s1, d.signal(input)).unwrap();
        d.set_register_next(s2, d.signal(s1)).unwrap();
        d.add_output("out", d.signal(s2)).unwrap();
        d.validated().unwrap()
    }

    /// The inline schedule: prepare unfrozen, solve every task on a fork of
    /// the unmutated master (tasks behind a failure skip), merge.
    fn check_inline(
        session: &mut MiterSession,
        design: &ValidatedDesign,
        property: &IntervalProperty,
    ) -> Result<PropertyReport, BackendError> {
        let prepared = session.prepare_level(design, property, false);
        let doomed = Arc::new(AtomicUsize::new(usize::MAX));
        let cancelled = Arc::new(AtomicBool::new(false));
        let outcomes = (0..prepared.num_tasks())
            .map(|i| Some(session.solve_task_inline(&prepared, i, &doomed, &cancelled)))
            .collect();
        session.merge_level(design, &prepared, outcomes)
    }

    /// The frozen schedule: prepare behind a snapshot, let `jobs` threads
    /// pull tasks off a shared counter, merge.
    fn check_frozen(
        session: &mut MiterSession,
        design: &ValidatedDesign,
        property: &IntervalProperty,
        jobs: usize,
    ) -> Result<PropertyReport, BackendError> {
        let prepared = session.prepare_level(design, property, true);
        let doomed = Arc::new(AtomicUsize::new(usize::MAX));
        let cancelled = Arc::new(AtomicBool::new(false));
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<TaskOutcome>>> = (0..prepared.num_tasks())
            .map(|_| Mutex::new(None))
            .collect();
        std::thread::scope(|scope| {
            for _ in 0..jobs {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::SeqCst);
                    let Some(slot) = slots.get(i) else { break };
                    *slot.lock().unwrap() = Some(prepared.solve_task(i, &doomed, &cancelled));
                });
            }
        });
        let outcomes = slots.into_iter().map(|s| s.into_inner().unwrap()).collect();
        session.merge_level(design, &prepared, outcomes)
    }

    fn without_duration(mut report: PropertyReport) -> PropertyReport {
        report.stats.duration = std::time::Duration::ZERO;
        report
    }

    #[test]
    fn session_and_legacy_checker_agree_on_a_trojan() {
        let design = trojan_design();
        let d = design.design();
        let data = d.require("data").unwrap();
        let property = IntervalProperty::new("init_property", vec![], vec![data]);

        let legacy = PropertyChecker::new(&design).check(&property);
        let mut session = MiterSession::new(&design, Box::new(Solver::new()));
        let incremental = check_inline(&mut session, &design, &property).unwrap();

        assert!(!legacy.holds());
        assert!(!incremental.holds());
        let cex = incremental.outcome.counterexample().unwrap();
        assert_eq!(cex.diff_names(), vec!["data"]);
    }

    #[test]
    fn session_checks_a_whole_flow_with_one_bit_blast() {
        let design = pipeline();
        let d = design.design();
        let s1 = d.require("s1").unwrap();
        let s2 = d.require("s2").unwrap();
        let out = d.require("out").unwrap();

        let mut session = MiterSession::new(&design, Box::new(Solver::new()));
        let properties = [
            IntervalProperty::new("init_property", vec![], vec![s1]),
            IntervalProperty::new("fanout_property_1", vec![s1], vec![s2]),
            IntervalProperty::new("fanout_property_2", vec![s1, s2], vec![out]),
        ];
        for property in &properties {
            let report = check_inline(&mut session, &design, property).unwrap();
            assert!(report.holds(), "{} should hold", property.name);
        }
        let stats = session.stats();
        assert_eq!(stats.bit_blasts, 1);
        assert_eq!(stats.properties_checked, 3);
    }

    #[test]
    fn re_checking_the_same_property_encodes_nothing_new() {
        let design = pipeline();
        let d = design.design();
        let s1 = d.require("s1").unwrap();
        let property = IntervalProperty::new("init_property", vec![], vec![s1]);

        let mut session = MiterSession::new(&design, Box::new(Solver::new()));
        check_inline(&mut session, &design, &property).unwrap();
        let encoded_once = session.stats().nodes_encoded;
        check_inline(&mut session, &design, &property).unwrap();
        assert_eq!(session.stats().nodes_encoded, encoded_once);
    }

    #[test]
    fn frozen_and_inline_schedules_agree_on_holding_and_failing_properties() {
        // Failing property on the trojan design.
        let design = trojan_design();
        let d = design.design();
        let data = d.require("data").unwrap();
        let trigger = d.require("trigger").unwrap();
        let failing = IntervalProperty::new("init_property", vec![], vec![trigger, data]);
        let mut inline = MiterSession::new(&design, Box::new(Solver::new()));
        let mut frozen = MiterSession::new(&design, Box::new(Solver::new()));
        let inline_report = check_inline(&mut inline, &design, &failing).unwrap();
        let frozen_report = check_frozen(&mut frozen, &design, &failing, 2).unwrap();
        assert!(!inline_report.holds());
        // First-counterexample-wins: the lowest-id failing prove signal.
        let cex = frozen_report.outcome.counterexample().unwrap();
        assert_eq!(cex.diff_names(), vec!["trigger"]);
        assert_eq!(
            without_duration(inline_report),
            without_duration(frozen_report)
        );

        // Holding properties on the clean pipeline.
        let design = pipeline();
        let d = design.design();
        let s1 = d.require("s1").unwrap();
        let s2 = d.require("s2").unwrap();
        let out = d.require("out").unwrap();
        let mut inline = MiterSession::new(&design, Box::new(Solver::new()));
        let mut frozen = MiterSession::new(&design, Box::new(Solver::new()));
        for property in [
            IntervalProperty::new("init_property", vec![], vec![s1]),
            IntervalProperty::new("fanout_property_1", vec![s1], vec![s2, out]),
        ] {
            let a = check_inline(&mut inline, &design, &property).unwrap();
            let b = check_frozen(&mut frozen, &design, &property, 2).unwrap();
            assert!(b.holds(), "{} should hold", property.name);
            assert_eq!(without_duration(a), without_duration(b));
        }
        assert_eq!(frozen.stats().bit_blasts, 1);
    }

    /// A fork of a pristine (never-run) master behaves exactly like a fresh
    /// session — same verdicts, same solver-work deltas, one inherited
    /// bit-blast — and runs independently of its parent.
    #[test]
    fn a_pristine_fork_checks_like_a_fresh_session() {
        let design = trojan_design();
        let d = design.design();
        let data = d.require("data").unwrap();
        let property = IntervalProperty::new("init_property", vec![], vec![data]);

        let master = MiterSession::new(&design, Box::new(Solver::new()));
        let mut forked = master.try_fork().expect("builtin backend forks");
        let mut fresh = MiterSession::new(&design, Box::new(Solver::new()));

        let from_fork = without_duration(check_inline(&mut forked, &design, &property).unwrap());
        let from_fresh = without_duration(check_inline(&mut fresh, &design, &property).unwrap());
        assert_eq!(from_fork, from_fresh);

        // The fork inherits the master's single bit-blast and never triggers
        // another; the master itself stayed pristine.
        assert_eq!(forked.stats().bit_blasts, 1);
        assert_eq!(master.stats().properties_checked, 0);

        // A second, later fork of the same untouched master is unaffected by
        // the first fork's run.
        let mut second = master.try_fork().expect("builtin backend forks");
        let again = without_duration(check_inline(&mut second, &design, &property).unwrap());
        assert_eq!(again, from_fresh);
    }

    #[test]
    fn frozen_solves_are_worker_count_invariant() {
        let design = trojan_design();
        let d = design.design();
        let trigger = d.require("trigger").unwrap();
        let data = d.require("data").unwrap();
        let property = IntervalProperty::new("init_property", vec![], vec![trigger, data]);
        let mut reports = Vec::new();
        for jobs in [1usize, 2, 4] {
            let mut session = MiterSession::new(&design, Box::new(Solver::new()));
            let report = check_frozen(&mut session, &design, &property, jobs).unwrap();
            reports.push(without_duration(report));
        }
        assert_eq!(reports[0], reports[1]);
        assert_eq!(reports[0], reports[2]);
    }

    #[test]
    fn properties_sharing_an_antecedent_share_one_binding_epoch() {
        let design = pipeline();
        let d = design.design();
        let s1 = d.require("s1").unwrap();
        let s2 = d.require("s2").unwrap();
        let out = d.require("out").unwrap();
        let mut session = MiterSession::new(&design, Box::new(Solver::new()));
        // Same antecedent twice: one epoch.
        let p1 = IntervalProperty::new("a", vec![s1], vec![s2]);
        let p2 = IntervalProperty::new("b", vec![s1], vec![out]);
        check_inline(&mut session, &design, &p1).unwrap();
        check_inline(&mut session, &design, &p2).unwrap();
        assert_eq!(session.stats().epoch_rebinds, 1);
        // A different antecedent rebinds.
        let p3 = IntervalProperty::new("c", vec![s1, s2], vec![out]);
        check_inline(&mut session, &design, &p3).unwrap();
        assert_eq!(session.stats().epoch_rebinds, 2);
    }

    #[test]
    fn unshared_options_still_give_the_same_verdicts() {
        let design = trojan_design();
        let d = design.design();
        let trigger = d.require("trigger").unwrap();
        let data = d.require("data").unwrap();
        for share in [true, false] {
            let options = CheckerOptions {
                share_assumed_equal: share,
                ..CheckerOptions::default()
            };
            let mut session = MiterSession::with_options(&design, options, Box::new(Solver::new()));
            let failing = IntervalProperty::new("init_property", vec![], vec![data]);
            assert!(!check_inline(&mut session, &design, &failing)
                .unwrap()
                .holds());
            // Assuming the trigger state equal discharges the divergence.
            let resolved = IntervalProperty::new("resolved", vec![trigger], vec![data]);
            assert!(check_inline(&mut session, &design, &resolved)
                .unwrap()
                .holds());
        }
    }

    /// The bundled solver behind a backend whose `fork` returns `None`, as an
    /// IPASIR library whose `init` fails would.
    struct NoFork(Solver);

    impl SatBackend for NoFork {
        fn name(&self) -> String {
            "no-fork".to_owned()
        }
        fn new_var(&mut self) -> Var {
            SatBackend::new_var(&mut self.0)
        }
        fn add_clause(&mut self, lits: &[Lit]) -> bool {
            SatBackend::add_clause(&mut self.0, lits)
        }
        fn solve_under(&mut self, assumptions: &[Lit]) -> Result<SolveResult, BackendError> {
            self.0.solve_under(assumptions)
        }
        fn model_value(&self, var: Var) -> Option<bool> {
            SatBackend::model_value(&self.0, var)
        }
        fn stats(&self) -> BackendStats {
            SatBackend::stats(&self.0)
        }
        fn fork(&self) -> Option<Box<dyn SatBackend>> {
            None
        }
    }

    #[test]
    fn an_output_proof_lowers_only_the_next_states_it_reads() {
        let nodes = |width| {
            let design = output_beside_a_multiplier(width);
            let out = design.design().require("out").unwrap();
            let property = IntervalProperty::new("init_property", vec![], vec![out]);
            let mut session = MiterSession::new(&design, Box::new(Solver::new()));
            // The report's `aig_nodes` is the prepared level's.
            let report = check_inline(&mut session, &design, &property).unwrap();
            assert!(!report.holds(), "`a` may start unequal");
            report.stats.aig_nodes
        };
        assert!(nodes(4) > 0);
        assert_eq!(nodes(4), nodes(32));
    }

    /// Two wires with different register supports, plus a register `d`
    /// neither reads.
    fn two_wires() -> ValidatedDesign {
        let mut d = Design::new("two_wires");
        let input = d.add_input("in", 4).unwrap();
        let [a, b, c, unread] =
            ["a", "b", "c", "d"].map(|name| d.add_register(name, 4, 0).unwrap());
        for r in [a, b, c] {
            let next = d.xor(d.signal(r), d.signal(input)).unwrap();
            d.set_register_next(r, next).unwrap();
        }
        let unread_next = d.mul(d.signal(unread), d.signal(unread)).unwrap();
        d.set_register_next(unread, unread_next).unwrap();
        let w1 = d.and(d.signal(a), d.signal(c)).unwrap();
        let w1 = d.add_wire("w1", w1).unwrap();
        let w2 = d.xor(d.signal(b), d.signal(c)).unwrap();
        let w2 = d.add_wire("w2", w2).unwrap();
        d.add_output("out1", d.signal(w1)).unwrap();
        d.add_output("out2", d.signal(w2)).unwrap();
        d.add_output("out_d", d.signal(unread)).unwrap();
        d.validated().unwrap()
    }

    #[test]
    fn a_second_wire_extends_the_epochs_next_frame_binding() {
        let design = two_wires();
        let d = design.design();
        let [a, b, c, unread, w1, w2] =
            ["a", "b", "c", "d", "w1", "w2"].map(|name| d.require(name).unwrap());
        // Unshared options: the antecedent becomes explicit constraints, so
        // the held property is lowered and solved, not proved structurally.
        let unshared = CheckerOptions {
            share_assumed_equal: false,
            ..CheckerOptions::default()
        };
        let cases = [
            (
                CheckerOptions::default(),
                IntervalProperty::new("init_property", vec![], vec![w1, w2]),
            ),
            (
                unshared,
                IntervalProperty::new("fanout_property_1", vec![a, b, c], vec![w1, w2]),
            ),
        ];
        for (options, property) in cases {
            let mut session = MiterSession::with_options(&design, options, Box::new(Solver::new()));
            let report = check_inline(&mut session, &design, &property).unwrap();
            let first = PropertyChecker::with_options(&design, options).check(&property);
            assert_eq!(report.holds(), first.holds(), "{}", property.name);
            let epoch = session.epoch.as_ref().expect("the level bound an epoch");
            for ctx in &epoch.ctx_t1 {
                for r in [a, b, c] {
                    assert!(
                        ctx.binding(r).is_some(),
                        "{}: read register unbound",
                        property.name
                    );
                }
                assert!(
                    ctx.binding(unread).is_none(),
                    "{}: unread register bound",
                    property.name
                );
            }
        }
    }

    /// A missing fork is a structured merge error on both the frozen and the
    /// inline path — never a panic, never a task slot left empty.
    #[test]
    fn a_backend_that_cannot_fork_fails_the_merge() {
        let design = trojan_design();
        let data = design.design().require("data").unwrap();
        let property = IntervalProperty::new("init_property", vec![], vec![data]);
        for frozen in [true, false] {
            let mut session = MiterSession::new(&design, Box::new(NoFork(Solver::new())));
            let result = if frozen {
                check_frozen(&mut session, &design, &property, 2)
            } else {
                check_inline(&mut session, &design, &property)
            };
            let err = result.expect_err("no shard to solve on");
            assert!(err.message.contains("fork"), "frozen={frozen}: {err}");
        }
    }
}
