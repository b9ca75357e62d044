//! Schedule-legality static analysis.
//!
//! The tuners in this workspace explore millions of candidate schedules;
//! a candidate that races on a reduction or mis-factors a loop extent
//! wastes a measurement at best and corrupts the search state at worst.
//! This crate provides a lint framework over tensor programs: each
//! [`ScheduleLint`] inspects one `(subgraph, sketch, schedule)` triple and
//! reports its findings to a [`LintSink`]; an [`Analyzer`] runs a registry
//! of lints and hands back either the structured [`Diagnostic`]s
//! ([`Analyzer::analyze`]) or only their counts ([`Analyzer::verdict`],
//! which formats nothing), so callers reject candidates carrying
//! [`Severity::Error`] findings *before* cost-model scoring or simulated
//! measurement.
//!
//! Severity policy: correctness lints (V001 tile factorization, V002
//! parallel-reduction race, V005 illegal compute-at, V006 non-finite
//! search value) are errors and reject candidates; performance-smell lints
//! (V003 cache over-subscription, V004 degenerate unroll) only warn and
//! are surfaced as counters. Every legal generator in the workspace
//! (`generate_sketches`, `Schedule::random`, `mutate`, `apply_action`,
//! `crossover`) produces error-free schedules by construction — the
//! workspace-level property tests assert exactly that.

use serde::{Deserialize, Serialize};

use std::cell::OnceCell;

use harl_tensor_ir::{FeaturePlan, Schedule, Sketch, Subgraph, Target, TileStats};
use harl_tensor_sim::Hardware;

pub mod lints;

pub use lints::{
    CacheFootprintLint, ComputeAtLint, DegenerateUnrollLint, ParallelReductionRaceLint,
    TileFactorizationLint,
};

/// How bad a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Severity {
    /// A performance smell: the schedule is legal but likely slow. Warned
    /// schedules still flow through search.
    Warn,
    /// A correctness violation: the schedule must not be measured.
    Error,
}

/// Stable identifiers of the built-in lints.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LintCode {
    /// V001 — tile factor list malformed: wrong shape, zero factor, or
    /// factor product ≠ iterator extent (subsumes `Schedule::validate`).
    TileFactorization,
    /// V002 — fused parallel outer band covers a reduction-carrying
    /// iterator without rfactor: concurrent read-modify-write race.
    ParallelReductionRace,
    /// V003 — tile working set over-subscribes the L1/L2 cache budget.
    CacheOverSubscription,
    /// V004 — auto-unroll depth at or above the innermost trip count.
    DegenerateUnroll,
    /// V005 — compute-at position out of range or fusing a consumer
    /// inside the anchor's reduction scope (reads partial accumulations).
    IllegalComputeAt,
    /// V006 — non-finite value (NaN/∞) in search state: PPO advantages,
    /// rewards, SW-UCB observations.
    NonFiniteValue,
    /// C001 — lock-order inversion: acquiring a lock class that the
    /// recorded acquisition graph already orders *before* a lock the
    /// thread currently holds (potential ABBA deadlock).
    LockOrderInversion,
    /// C002 — double lock: re-acquiring a lock instance (guaranteed
    /// deadlock with `std::sync::Mutex`) or nesting two locks of the same
    /// class on one thread.
    DoubleLock,
    /// C003 — long lock hold: a lock held across a blocking region (a
    /// `Measurer` call, a condvar wait with other locks held, or past
    /// 100 ms).
    LongLockHold,
    /// C004 — unprotected shared write: publishing through an atomic flag
    /// with `Ordering::Relaxed`.
    UnorderedSharedWrite,
    /// C005 — model-checker violation: a schedule of the real code under
    /// the schedule explorer (job queue, directory lock) that panics,
    /// deadlocks or livelocks — lost/duplicated items, two writers.
    ModelCheckViolation,
}

impl LintCode {
    /// The schedule lints, in `V001..` order.
    pub const SCHEDULE: [LintCode; 6] = [
        LintCode::TileFactorization,
        LintCode::ParallelReductionRace,
        LintCode::CacheOverSubscription,
        LintCode::DegenerateUnroll,
        LintCode::IllegalComputeAt,
        LintCode::NonFiniteValue,
    ];

    /// The concurrency lints, in `C001..` order (reported by `harl-check`).
    pub const CONCURRENCY: [LintCode; 5] = [
        LintCode::LockOrderInversion,
        LintCode::DoubleLock,
        LintCode::LongLockHold,
        LintCode::UnorderedSharedWrite,
        LintCode::ModelCheckViolation,
    ];

    /// Every built-in lint code: `V001..V006` then `C001..C005`.
    pub const ALL: [LintCode; 11] = [
        LintCode::TileFactorization,
        LintCode::ParallelReductionRace,
        LintCode::CacheOverSubscription,
        LintCode::DegenerateUnroll,
        LintCode::IllegalComputeAt,
        LintCode::NonFiniteValue,
        LintCode::LockOrderInversion,
        LintCode::DoubleLock,
        LintCode::LongLockHold,
        LintCode::UnorderedSharedWrite,
        LintCode::ModelCheckViolation,
    ];

    /// Number of built-in lint codes.
    pub const COUNT: usize = Self::ALL.len();

    /// Dense index of this code (for counter arrays).
    pub fn index(self) -> usize {
        match self {
            LintCode::TileFactorization => 0,
            LintCode::ParallelReductionRace => 1,
            LintCode::CacheOverSubscription => 2,
            LintCode::DegenerateUnroll => 3,
            LintCode::IllegalComputeAt => 4,
            LintCode::NonFiniteValue => 5,
            LintCode::LockOrderInversion => 6,
            LintCode::DoubleLock => 7,
            LintCode::LongLockHold => 8,
            LintCode::UnorderedSharedWrite => 9,
            LintCode::ModelCheckViolation => 10,
        }
    }

    /// The stable `Vxxx`/`Cxxx` identifier printed in diagnostics.
    pub fn code(self) -> &'static str {
        match self {
            LintCode::TileFactorization => "V001",
            LintCode::ParallelReductionRace => "V002",
            LintCode::CacheOverSubscription => "V003",
            LintCode::DegenerateUnroll => "V004",
            LintCode::IllegalComputeAt => "V005",
            LintCode::NonFiniteValue => "V006",
            LintCode::LockOrderInversion => "C001",
            LintCode::DoubleLock => "C002",
            LintCode::LongLockHold => "C003",
            LintCode::UnorderedSharedWrite => "C004",
            LintCode::ModelCheckViolation => "C005",
        }
    }

    /// Parses a stable identifier (`"V002"`, `"c004"`) back to its code.
    pub fn from_code(code: &str) -> Option<LintCode> {
        let code = code.trim().to_ascii_uppercase();
        Self::ALL.iter().copied().find(|c| c.code() == code)
    }

    /// Human-readable lint name.
    pub fn name(self) -> &'static str {
        match self {
            LintCode::TileFactorization => "tile-factorization",
            LintCode::ParallelReductionRace => "parallel-reduction-race",
            LintCode::CacheOverSubscription => "cache-over-subscription",
            LintCode::DegenerateUnroll => "degenerate-unroll",
            LintCode::IllegalComputeAt => "illegal-compute-at",
            LintCode::NonFiniteValue => "non-finite-value",
            LintCode::LockOrderInversion => "lock-order-inversion",
            LintCode::DoubleLock => "double-lock",
            LintCode::LongLockHold => "long-lock-hold",
            LintCode::UnorderedSharedWrite => "unprotected-shared-write",
            LintCode::ModelCheckViolation => "model-check-violation",
        }
    }

    /// The severity findings of this lint carry.
    pub fn severity(self) -> Severity {
        match self {
            LintCode::TileFactorization
            | LintCode::ParallelReductionRace
            | LintCode::IllegalComputeAt
            | LintCode::NonFiniteValue
            | LintCode::LockOrderInversion
            | LintCode::DoubleLock
            | LintCode::UnorderedSharedWrite
            | LintCode::ModelCheckViolation => Severity::Error,
            LintCode::CacheOverSubscription
            | LintCode::DegenerateUnroll
            | LintCode::LongLockHold => Severity::Warn,
        }
    }

    /// Multi-line `--explain` text: what the lint catches, why it matters,
    /// and how to fix a hit.
    pub fn explain(self) -> &'static str {
        match self {
            LintCode::TileFactorization => {
                "V001 tile-factorization (error)\n\
                 The tile factor list of an iterator is malformed: wrong number of\n\
                 levels, a zero factor, or factors whose product differs from the\n\
                 iterator extent. Such a schedule indexes out of bounds or drops\n\
                 iterations. Fix the generator producing the factors; legal\n\
                 generators sample factorizations of the exact extent."
            }
            LintCode::ParallelReductionRace => {
                "V002 parallel-reduction-race (error)\n\
                 The fused parallel outer band covers a reduction-carrying iterator\n\
                 without an rfactor step, so concurrent threads read-modify-write\n\
                 the same accumulator. Shrink the parallel fuse below the reduction\n\
                 boundary or introduce a privatized partial accumulator."
            }
            LintCode::CacheOverSubscription => {
                "V003 cache-over-subscription (warn)\n\
                 The working set of a tile level exceeds the cache budget of the\n\
                 level it is pinned to (L1/L2 or GPU shared memory). The schedule\n\
                 is legal but will thrash; prefer smaller inner tiles."
            }
            LintCode::DegenerateUnroll => {
                "V004 degenerate-unroll (warn)\n\
                 The auto-unroll depth is at or above the innermost trip count, so\n\
                 unrolling degenerates to straight-line bloat with no steady-state\n\
                 loop. Lower the unroll depth index."
            }
            LintCode::IllegalComputeAt => {
                "V005 illegal-compute-at (error)\n\
                 The compute-at position is outside the candidate list or fuses a\n\
                 consumer inside the anchor's reduction scope, where it would read\n\
                 partial accumulations. Clamp the position to the sketch's\n\
                 compute_at_candidates."
            }
            LintCode::NonFiniteValue => {
                "V006 non-finite-value (error)\n\
                 A NaN or infinity reached search state: a PPO reward/advantage, a\n\
                 bandit observation, or a schedule score. Non-finite values poison\n\
                 every later update; callers substitute a neutral value and count\n\
                 the finding. Check divisions by measured time or baselines."
            }
            LintCode::LockOrderInversion => {
                "C001 lock-order-inversion (error)\n\
                 A thread acquired lock class B while holding A, after some thread\n\
                 had acquired A while holding B (an ABBA cycle in the acquisition\n\
                 graph) — two threads can deadlock waiting on each other. Follow\n\
                 the documented hierarchy (DESIGN.md §11): acquire classes in one\n\
                 global order and release before calling into other subsystems."
            }
            LintCode::DoubleLock => {
                "C002 double-lock (error)\n\
                 A thread re-acquired a lock it already holds. std::sync::Mutex is\n\
                 not reentrant, so this deadlocks at runtime. Nesting two distinct\n\
                 locks of the same class is reported too: class-level nesting makes\n\
                 the acquisition order between instances unanalyzable. Restructure\n\
                 so the critical section is entered once."
            }
            LintCode::LongLockHold => {
                "C003 long-lock-hold (warn)\n\
                 A lock was held across a blocking region: a simulated-measurement\n\
                 (Measurer) call, a condvar wait with other locks held, or longer\n\
                 than 100 ms. Long holds serialize the serve workers and the store\n\
                 writers. Copy what you need out of the guard and drop it before\n\
                 blocking."
            }
            LintCode::UnorderedSharedWrite => {
                "C004 unprotected-shared-write (error)\n\
                 A cross-thread publish flag (an atomic declared AtomicRole::Flag)\n\
                 was accessed with Ordering::Relaxed. Relaxed flags reorder against\n\
                 the data they publish; use Acquire/Release (or SeqCst), or declare\n\
                 the atomic a Counter if it never publishes."
            }
            LintCode::ModelCheckViolation => {
                "C005 model-check-violation (error)\n\
                 The schedule explorer (harl_check::model, --cfg harl_check builds)\n\
                 found a schedule of the real code under test (the job queue, the\n\
                 directory-lock steal) that fails: a panic or failed assertion in\n\
                 any thread (a lost or duplicated job, two owners of one store\n\
                 directory), a deadlock, or a livelock. The reported schedule\n\
                 replays the failure deterministically (harl_check::model::replay)."
            }
        }
    }
}

/// The schedule component a diagnostic points at.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Component {
    /// The whole schedule (shape-level problems).
    Schedule,
    /// Tiled iterator `k`'s factor list.
    TiledIter(usize),
    /// The compute-at position.
    ComputeAt,
    /// The fused-parallel-loops count.
    ParallelFuse,
    /// The auto-unroll depth.
    Unroll,
    /// A scalar inside the search algorithm (reward, advantage, …).
    SearchValue,
    /// A synchronization primitive (mutex, condvar, atomic) — used by the
    /// `harl-check` concurrency lints (C001–C005).
    SyncPrimitive,
}

/// One lint finding.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Diagnostic {
    /// Which lint fired.
    pub code: LintCode,
    /// Error (reject) or Warn (count only).
    pub severity: Severity,
    /// The offending schedule component.
    pub component: Component,
    /// Human-readable explanation with the concrete numbers.
    pub message: String,
}

impl Diagnostic {
    /// Builds a diagnostic with the code's default severity.
    pub fn new(code: LintCode, component: Component, message: String) -> Self {
        Diagnostic {
            code,
            severity: code.severity(),
            component,
            message,
        }
    }
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let sev = match self.severity {
            Severity::Warn => "warning",
            Severity::Error => "error",
        };
        write!(
            f,
            "{sev}[{}:{}] {}",
            self.code.code(),
            self.code.name(),
            self.message
        )
    }
}

/// Cache capacities the footprint lint checks against, decoupled from the
/// simulator's full hardware model so the analyzer stays cheap to build.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct CacheBudget {
    /// Innermost cache level a depth-2 tile should fit (CPU L1 / GPU
    /// shared memory), bytes.
    pub l1_bytes: u64,
    /// Next level a depth-3 tile should fit (L2), bytes.
    pub l2_bytes: u64,
}

impl CacheBudget {
    /// Default budget for a target platform (matches the simulator's
    /// default hardware models).
    pub fn for_target(target: Target) -> Self {
        match target {
            Target::Cpu => CacheBudget {
                l1_bytes: 32 * 1024,
                l2_bytes: 1024 * 1024,
            },
            Target::Gpu => CacheBudget {
                l1_bytes: 100 * 1024,
                l2_bytes: 6 * 1024 * 1024,
            },
        }
    }
}

impl From<&Hardware> for CacheBudget {
    fn from(hw: &Hardware) -> Self {
        match hw {
            Hardware::Cpu(c) => CacheBudget {
                l1_bytes: c.l1_bytes,
                l2_bytes: c.l2_bytes,
            },
            Hardware::Gpu(g) => CacheBudget {
                l1_bytes: g.shared_mem_bytes,
                l2_bytes: g.l2_bytes,
            },
        }
    }
}

/// Everything a lint may inspect.
pub struct LintContext<'a> {
    /// The subgraph being scheduled.
    pub graph: &'a Subgraph,
    /// The sketch the schedule instantiates.
    pub sketch: &'a Sketch,
    /// The candidate schedule.
    pub schedule: &'a Schedule,
    /// Target platform.
    pub target: Target,
    /// Cache capacities for footprint checks.
    pub budget: CacheBudget,
    /// What feature extraction derived once for this (graph, sketch,
    /// target); the lints share its tile geometry.
    pub plan: &'a FeaturePlan,
    tile_stats: OnceCell<TileStats>,
}

impl LintContext<'_> {
    /// Tile geometry of the schedule, derived on first use and shared by
    /// the lints that judge it (V003, V004). Indexes the factor lists, so
    /// only lints that `requires_well_formed` may call it.
    pub fn tile_stats(&self) -> &TileStats {
        self.tile_stats
            .get_or_init(|| self.plan.tile_stats(self.schedule))
    }
}

/// What one schedule's lint run found, without the words: findings per
/// code and how many of them reject. All the search loops read.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Verdict {
    /// Findings per lint code, indexed by [`LintCode::index`].
    pub counts: [u32; LintCode::COUNT],
    /// Error-severity findings among them.
    pub errors: u32,
}

impl Verdict {
    /// True when the schedule must not be scored or measured.
    pub fn rejects(&self) -> bool {
        self.errors > 0
    }

    /// The verdict a list of diagnostics amounts to.
    pub fn of(diags: &[Diagnostic]) -> Self {
        let mut v = Verdict::default();
        for d in diags {
            v.count(d.code, d.severity);
        }
        v
    }

    fn count(&mut self, code: LintCode, severity: Severity) {
        self.counts[code.index()] += 1;
        self.errors += (severity == Severity::Error) as u32;
    }
}

/// Where lints report. Every finding is counted into the [`Verdict`]; its
/// message is built only when the caller asked for [`Diagnostic`]s, which
/// no search loop does.
pub struct LintSink<'a> {
    verdict: Verdict,
    diagnostics: Option<&'a mut Vec<Diagnostic>>,
}

impl LintSink<'_> {
    /// Reports one finding of `code`, at the code's severity.
    pub fn report(
        &mut self,
        code: LintCode,
        component: Component,
        message: impl FnOnce() -> String,
    ) {
        self.verdict.count(code, code.severity());
        if let Some(out) = &mut self.diagnostics {
            out.push(Diagnostic::new(code, component, message()));
        }
    }
}

/// One static check over a schedule.
pub trait ScheduleLint {
    /// The code this lint reports under.
    fn code(&self) -> LintCode;

    /// Whether this lint indexes into the tile factor lists and therefore
    /// must be skipped when V001 found the schedule malformed.
    fn requires_well_formed(&self) -> bool {
        true
    }

    /// Inspects the schedule, reporting any findings to `out`.
    fn check(&self, ctx: &LintContext<'_>, out: &mut LintSink<'_>);
}

/// A lint registry with the cache budget it checks against.
pub struct Analyzer {
    lints: Vec<Box<dyn ScheduleLint>>,
    budget: CacheBudget,
}

impl Analyzer {
    /// An analyzer with no lints registered.
    pub fn empty(budget: CacheBudget) -> Self {
        Analyzer {
            lints: Vec::new(),
            budget,
        }
    }

    /// An analyzer with every built-in schedule lint registered.
    pub fn with_default_lints(budget: CacheBudget) -> Self {
        let mut a = Analyzer::empty(budget);
        a.register(Box::new(TileFactorizationLint));
        a.register(Box::new(ParallelReductionRaceLint));
        a.register(Box::new(CacheFootprintLint));
        a.register(Box::new(DegenerateUnrollLint));
        a.register(Box::new(ComputeAtLint));
        a
    }

    /// Default lints with the budget derived from `hw`'s cache sizes.
    pub fn for_hardware(hw: &Hardware) -> Self {
        Self::with_default_lints(CacheBudget::from(hw))
    }

    /// Default lints with the default budget of `target`.
    pub fn for_target(target: Target) -> Self {
        Self::with_default_lints(CacheBudget::for_target(target))
    }

    /// Adds a lint to the registry (runs after the existing ones).
    pub fn register(&mut self, lint: Box<dyn ScheduleLint>) {
        self.lints.push(lint);
    }

    /// Codes of the registered lints, in run order.
    pub fn lint_codes(&self) -> Vec<LintCode> {
        self.lints.iter().map(|l| l.code()).collect()
    }

    /// The cache budget footprint lints check against.
    pub fn budget(&self) -> CacheBudget {
        self.budget
    }

    /// Runs every registered lint into `sink`. Lints that index the tile
    /// lists are skipped when the shape lint (V001) found the schedule
    /// malformed, so no caller panics on corrupt input.
    fn run(
        &self,
        graph: &Subgraph,
        sketch: &Sketch,
        plan: &FeaturePlan,
        schedule: &Schedule,
        diagnostics: Option<&mut Vec<Diagnostic>>,
    ) -> Verdict {
        let ctx = LintContext {
            graph,
            sketch,
            schedule,
            target: plan.target(),
            budget: self.budget,
            plan,
            tile_stats: OnceCell::new(),
        };
        let mut sink = LintSink {
            verdict: Verdict::default(),
            diagnostics,
        };
        let mut malformed = false;
        for lint in &self.lints {
            if malformed && lint.requires_well_formed() {
                continue;
            }
            let errors_before = sink.verdict.errors;
            lint.check(&ctx, &mut sink);
            if lint.code() == LintCode::TileFactorization && sink.verdict.errors > errors_before {
                malformed = true;
            }
        }
        sink.verdict
    }

    /// Counts what every registered lint finds in `schedule`, a schedule
    /// of `sketch` under its `plan`, building no message: the form search
    /// loops use, one call per candidate.
    pub fn verdict(
        &self,
        graph: &Subgraph,
        sketch: &Sketch,
        plan: &FeaturePlan,
        schedule: &Schedule,
    ) -> Verdict {
        self.run(graph, sketch, plan, schedule, None)
    }

    /// Runs every registered lint, returning all findings with their
    /// messages. One-shot: it builds the [`FeaturePlan`] the lints read.
    pub fn analyze(
        &self,
        graph: &Subgraph,
        sketch: &Sketch,
        target: Target,
        schedule: &Schedule,
    ) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        let plan = FeaturePlan::new(graph, sketch, target);
        self.run(graph, sketch, &plan, schedule, Some(&mut out));
        out
    }

    /// The first error-severity finding, if any.
    pub fn first_error(
        &self,
        graph: &Subgraph,
        sketch: &Sketch,
        target: Target,
        schedule: &Schedule,
    ) -> Option<Diagnostic> {
        let plan = FeaturePlan::new(graph, sketch, target);
        if !self.verdict(graph, sketch, &plan, schedule).rejects() {
            return None;
        }
        let mut out = Vec::new();
        self.run(graph, sketch, &plan, schedule, Some(&mut out));
        out.into_iter().find(|d| d.severity == Severity::Error)
    }

    /// True when the schedule carries no error-severity findings.
    pub fn is_legal(
        &self,
        graph: &Subgraph,
        sketch: &Sketch,
        target: Target,
        schedule: &Schedule,
    ) -> bool {
        let plan = FeaturePlan::new(graph, sketch, target);
        !self.verdict(graph, sketch, &plan, schedule).rejects()
    }
}

/// Checks a scalar search value for NaN/∞ — the V006 lint. Returns the
/// diagnostic when the value is non-finite; callers substitute a neutral
/// value and count the finding.
pub fn check_finite(what: &str, value: f64) -> Option<Diagnostic> {
    if value.is_finite() {
        None
    } else {
        Some(Diagnostic::new(
            LintCode::NonFiniteValue,
            Component::SearchValue,
            format!("{what} is {value} (non-finite); substituting a neutral value"),
        ))
    }
}

/// Per-lint finding counters, accumulated across a search run and
/// embedded in tuning reports.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LintStats {
    /// Findings per lint code, indexed by [`LintCode::index`].
    pub counts: [u64; LintCode::COUNT],
    /// Schedules run through the analyzer.
    pub checked: u64,
    /// Schedules rejected (carried at least one error finding).
    pub rejected: u64,
}

impl LintStats {
    /// Fresh, all-zero counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one schedule's verdict into the counters. Returns `true`
    /// when the schedule must be rejected (any error-severity finding).
    pub fn record(&mut self, verdict: &Verdict) -> bool {
        self.checked += 1;
        for (total, &n) in self.counts.iter_mut().zip(&verdict.counts) {
            *total += n as u64;
        }
        let reject = verdict.rejects();
        self.rejected += reject as u64;
        reject
    }

    /// Counts a single extra finding (used for V006 values checked
    /// outside the schedule analyzer).
    pub fn record_finding(&mut self, code: LintCode) {
        self.counts[code.index()] += 1;
    }

    /// Findings recorded under `code`.
    pub fn count(&self, code: LintCode) -> u64 {
        self.counts[code.index()]
    }

    /// Total findings across all codes.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Adds another counter set into this one.
    pub fn merge(&mut self, other: &LintStats) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.checked += other.checked;
        self.rejected += other.rejected;
    }

    /// `(code, name, findings)` rows for every lint, in `V001..` order.
    pub fn rows(&self) -> Vec<(&'static str, &'static str, u64)> {
        LintCode::ALL
            .iter()
            .map(|&c| (c.code(), c.name(), self.count(c)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harl_tensor_ir::{generate_sketches, workload};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn codes_are_stable_and_dense() {
        for (i, c) in LintCode::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
        for (i, c) in LintCode::SCHEDULE.iter().enumerate() {
            assert_eq!(c.code(), format!("V{:03}", i + 1));
        }
        for (i, c) in LintCode::CONCURRENCY.iter().enumerate() {
            assert_eq!(c.code(), format!("C{:03}", i + 1));
            assert_eq!(c.index(), LintCode::SCHEDULE.len() + i);
        }
        assert_eq!(LintCode::COUNT, 11);
    }

    #[test]
    fn from_code_round_trips_and_rejects_unknown() {
        for c in LintCode::ALL {
            assert_eq!(LintCode::from_code(c.code()), Some(c));
            assert_eq!(LintCode::from_code(&c.code().to_ascii_lowercase()), Some(c));
        }
        assert_eq!(LintCode::from_code("V999"), None);
        assert_eq!(LintCode::from_code("nonsense"), None);
    }

    #[test]
    fn every_code_has_explain_text_starting_with_its_id() {
        for c in LintCode::ALL {
            let text = c.explain();
            assert!(text.starts_with(c.code()), "{}: {text}", c.code());
            assert!(text.contains(c.name()), "{} missing name", c.code());
            assert!(text.len() > 80, "{} explain too short", c.code());
        }
    }

    #[test]
    fn concurrency_codes_severities() {
        use LintCode::*;
        for c in [
            LockOrderInversion,
            DoubleLock,
            UnorderedSharedWrite,
            ModelCheckViolation,
        ] {
            assert_eq!(c.severity(), Severity::Error, "{c:?}");
        }
        assert_eq!(LongLockHold.severity(), Severity::Warn);
    }

    #[test]
    fn default_registry_covers_all_schedule_lints() {
        let a = Analyzer::for_target(Target::Cpu);
        let codes = a.lint_codes();
        assert_eq!(codes.len(), 5, "five schedule lints; V006 is a value check");
        for c in [
            LintCode::TileFactorization,
            LintCode::ParallelReductionRace,
            LintCode::CacheOverSubscription,
            LintCode::DegenerateUnroll,
            LintCode::IllegalComputeAt,
        ] {
            assert!(codes.contains(&c), "{c:?} missing from default registry");
        }
    }

    #[test]
    fn random_schedules_are_error_free() {
        let a = Analyzer::for_target(Target::Cpu);
        let mut rng = StdRng::seed_from_u64(7);
        for g in [
            workload::gemm(256, 256, 256),
            workload::conv2d(1, 28, 28, 32, 64, 3, 1, 1),
            workload::softmax(512, 128),
        ] {
            for sk in generate_sketches(&g, Target::Cpu) {
                for _ in 0..40 {
                    let s = Schedule::random(&sk, Target::Cpu, &mut rng);
                    assert!(
                        a.is_legal(&g, &sk, Target::Cpu, &s),
                        "{:?}",
                        a.first_error(&g, &sk, Target::Cpu, &s)
                    );
                }
            }
        }
    }

    #[test]
    fn corrupt_schedule_does_not_panic_the_analyzer() {
        let a = Analyzer::for_target(Target::Cpu);
        let g = workload::gemm(64, 64, 64);
        let sk = &generate_sketches(&g, Target::Cpu)[0];
        let mut rng = StdRng::seed_from_u64(8);
        let mut s = Schedule::random(sk, Target::Cpu, &mut rng);
        s.tiles.pop();
        s.unroll_idx = 99;
        let diags = a.analyze(&g, sk, Target::Cpu, &s);
        assert!(diags.iter().any(|d| d.code == LintCode::TileFactorization));
        assert!(!a.is_legal(&g, sk, Target::Cpu, &s));
    }

    #[test]
    fn check_finite_flags_only_non_finite() {
        assert!(check_finite("reward", 1.5).is_none());
        assert!(check_finite("reward", 0.0).is_none());
        let d = check_finite("reward", f64::NAN).expect("NaN flagged");
        assert_eq!(d.code, LintCode::NonFiniteValue);
        assert_eq!(d.severity, Severity::Error);
        assert!(check_finite("reward", f64::INFINITY).is_some());
    }

    #[test]
    fn stats_count_and_merge() {
        let mut s = LintStats::new();
        let warn = Diagnostic::new(LintCode::DegenerateUnroll, Component::Unroll, "w".into());
        let err = Diagnostic::new(
            LintCode::ParallelReductionRace,
            Component::ParallelFuse,
            "e".into(),
        );
        assert!(!s.record(&Verdict::of(std::slice::from_ref(&warn))));
        assert!(s.record(&Verdict::of(&[warn, err])));
        assert_eq!(s.checked, 2);
        assert_eq!(s.rejected, 1);
        assert_eq!(s.count(LintCode::DegenerateUnroll), 2);
        let mut t = LintStats::new();
        t.record_finding(LintCode::NonFiniteValue);
        s.merge(&t);
        assert_eq!(s.count(LintCode::NonFiniteValue), 1);
        assert_eq!(s.total(), 4);
        assert_eq!(s.rows().len(), LintCode::COUNT);
    }

    #[test]
    fn diagnostics_render_with_code_and_name() {
        let d = Diagnostic::new(
            LintCode::TileFactorization,
            Component::TiledIter(2),
            "factors multiply to 12, extent is 16".into(),
        );
        let text = d.to_string();
        assert!(text.contains("V001"), "{text}");
        assert!(text.contains("tile-factorization"), "{text}");
        assert!(text.starts_with("error"), "{text}");
    }
}
