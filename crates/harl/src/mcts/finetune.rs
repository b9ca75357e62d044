//! Coordinate-descent fine-tuning and the standalone raindrop searcher.
//!
//! [`coordinate_descent`] walks one parameter axis at a time — tile
//! factorizations (moving one prime factor between levels), compute-at
//! position, parallel fuse count, unroll depth — measuring each
//! lint-valid neighbour and keeping only strictly-better ones. The best
//! schedule therefore never regresses: the routine is monotone by
//! construction, which `TuningSession::then_finetune` pins as an
//! invariant. The enumeration is fully deterministic (no RNG), so a
//! fine-tune pass never perturbs the driving tuner's RNG stream.

use std::collections::HashSet;

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use harl_gbt::CostModel;
use harl_store::MeasureRecord;
use harl_tensor_ir::factorization::move_smallest_factor;
use harl_tensor_ir::{Schedule, Sketch, Target};
use harl_tensor_sim::{ConfigError, TuneTrace, PRICES};
use harl_verify::LintStats;

use crate::search::{Lent, Picks, Proposer, SearchCore, Searcher};

/// Configuration of a fine-tune phase ([`coordinate_descent`]).
#[derive(Debug, Clone)]
pub struct FinetuneConfig {
    /// Hardware-measurement budget for the descent.
    pub max_trials: usize,
    /// Full sweeps over all axes before declaring convergence.
    pub max_sweeps: usize,
}

impl Default for FinetuneConfig {
    fn default() -> Self {
        FinetuneConfig {
            max_trials: 64,
            max_sweeps: 4,
        }
    }
}

impl FinetuneConfig {
    /// Checks every field without consuming the config.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.max_sweeps == 0 {
            return Err(ConfigError::new("finetune.max_sweeps", "must be positive"));
        }
        Ok(())
    }
}

/// What one [`coordinate_descent`] call did.
#[derive(Debug, Clone)]
pub struct DescentOutcome {
    /// Best measured noise-free time after the descent (`<=` the start).
    pub best_time: f64,
    /// The schedule achieving `best_time`.
    pub best_schedule: Schedule,
    /// Hardware measurements spent.
    pub trials: usize,
    /// Accepted (strictly improving) moves.
    pub moves: usize,
    /// Axis sweeps completed (including the final no-improvement one).
    pub sweeps: usize,
}

/// Number of descent axes for a schedule: one per tiled iterator plus
/// compute-at, parallel fuse, and unroll depth.
fn axis_count(s: &Schedule) -> usize {
    s.tiles.len() + 3
}

/// Deterministic neighbours of `s` along one axis, nearest-first.
fn axis_neighbors(sketch: &Sketch, target: Target, s: &Schedule, axis: usize) -> Vec<Schedule> {
    let mut out = Vec::new();
    if axis < s.tiles.len() {
        // move one prime factor between each pair of adjacent levels,
        // both directions
        let levels = s.tiles[axis].len();
        for from in 0..levels {
            for to in [from.checked_sub(1), Some(from + 1)].into_iter().flatten() {
                if to >= levels {
                    continue;
                }
                let mut next = s.clone();
                if move_smallest_factor(&mut next.tiles[axis], from, to) {
                    out.push(next);
                }
            }
        }
    } else if axis == s.tiles.len() {
        let n = sketch.compute_at_candidates.len();
        for cand in [s.compute_at.checked_sub(1), Some(s.compute_at + 1)]
            .into_iter()
            .flatten()
        {
            if cand < n {
                let mut next = s.clone();
                next.compute_at = cand;
                out.push(next);
            }
        }
    } else if axis == s.tiles.len() + 1 {
        let ns = sketch.num_spatial_iters().max(1);
        for cand in [s.parallel_fuse.checked_sub(1), Some(s.parallel_fuse + 1)]
            .into_iter()
            .flatten()
        {
            if (1..=ns).contains(&cand) {
                let mut next = s.clone();
                next.parallel_fuse = cand;
                out.push(next);
            }
        }
    } else {
        let depths = target.unroll_depths().len();
        for cand in [s.unroll_idx.checked_sub(1), Some(s.unroll_idx + 1)]
            .into_iter()
            .flatten()
        {
            if cand < depths {
                let mut next = s.clone();
                next.unroll_idx = cand;
                out.push(next);
            }
        }
    }
    out
}

/// Descends from `start` one parameter axis at a time, accepting only
/// strictly-better measured neighbours (first improvement per axis, then
/// on to the next axis; converged when a full sweep improves nothing).
///
/// `valid` is the lint gate (return `false` to reject a neighbour before
/// it reaches the measurer); `measure` must return the neighbour's
/// noise-free execution time and is charged one trial per call.
///
/// Monotone by construction: `best_time` of the outcome is never above
/// `start_time` (when `start_time` is not finite the start itself is
/// measured first, spending one trial of the budget).
pub fn coordinate_descent(
    cfg: &FinetuneConfig,
    sketch: &Sketch,
    target: Target,
    start: Schedule,
    start_time: f64,
    mut valid: impl FnMut(&Schedule) -> bool,
    mut measure: impl FnMut(&Schedule) -> f64,
) -> DescentOutcome {
    let mut out = DescentOutcome {
        best_time: start_time,
        best_schedule: start,
        trials: 0,
        moves: 0,
        sweeps: 0,
    };
    let mut tried: HashSet<u64> = HashSet::new();
    tried.insert(out.best_schedule.dedup_key());
    if !out.best_time.is_finite() {
        if cfg.max_trials == 0 {
            return out;
        }
        out.best_time = measure(&out.best_schedule);
        out.trials += 1;
    }
    'sweeps: for _ in 0..cfg.max_sweeps {
        out.sweeps += 1;
        let mut improved = false;
        for axis in 0..axis_count(&out.best_schedule) {
            for cand in axis_neighbors(sketch, target, &out.best_schedule, axis) {
                if out.trials >= cfg.max_trials {
                    break 'sweeps;
                }
                if !tried.insert(cand.dedup_key()) {
                    continue;
                }
                if cand.validate(sketch, target).is_err() || !valid(&cand) {
                    continue;
                }
                let t = measure(&cand);
                out.trials += 1;
                if t < out.best_time {
                    out.best_time = t;
                    out.best_schedule = cand;
                    out.moves += 1;
                    improved = true;
                    break; // first improvement: move on to the next axis
                }
            }
        }
        if !improved {
            break;
        }
    }
    out
}

/// Configuration of the standalone [`CdTuner`].
#[derive(Debug, Clone)]
pub struct CdConfig {
    /// Measurement budget per round (one restart per round).
    pub measure_per_round: usize,
    /// RNG seed (restart sampling only; the descent itself is RNG-free).
    pub seed: u64,
}

impl Default for CdConfig {
    fn default() -> Self {
        CdConfig {
            measure_per_round: 16,
            seed: 0xcd,
        }
    }
}

impl CdConfig {
    /// Checks every field without consuming the config.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.measure_per_round == 0 {
            return Err(ConfigError::new("cd.measure_per_round", "must be positive"));
        }
        Ok(())
    }
}

/// Axis sweeps per restart (a fine-tune phase takes
/// [`FinetuneConfig::max_sweeps`]).
const CD_MAX_SWEEPS: usize = 3;

/// Serializable snapshot of a [`CdTuner`]'s mutable search state (see
/// [`Proposer::State`]).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CdTunerState {
    /// Dedup keys of every schedule measured so far (sorted).
    pub seen: Vec<u64>,
    /// Queued restart points (warm-start bests, best last).
    pub pending_seeds: Vec<Schedule>,
    /// Restarts (rounds) completed.
    pub restarts: u64,
    /// Best noise-free execution time found.
    pub best_time: f64,
    /// The schedule achieving `best_time`.
    pub best_schedule: Option<Schedule>,
    /// Hardware measurements consumed.
    pub trials_used: u64,
    /// Best-so-far curve.
    pub trace: TuneTrace,
    /// Lint counters.
    pub lint_stats: LintStats,
    /// Raw xoshiro256** state of the restart RNG.
    pub rng: [u64; 4],
}

/// Multi-start coordinate descent as a searcher in its own right: every
/// round is one "raindrop" — a fresh (or warm-started) schedule descended
/// axis-by-axis on direct hardware measurements, no cost model at all.
/// Its fine-tune phase is one extra (deeper) descent from the global best
/// instead of a fresh restart.
pub type CdTuner<'m> = Searcher<'m, CdProposer>;

/// The raindrop proposer: where the next descent starts (a queued
/// warm-start seed of the core, or a random draw).
pub struct CdProposer {
    /// Restarts (rounds) completed.
    pub restarts: u64,
    cfg: CdConfig,
    rng: StdRng,
}

impl Proposer for CdProposer {
    const NAME: &'static str = "cd";
    type Config = CdConfig;
    type State = CdTunerState;

    fn validate(cfg: &CdConfig) -> Result<(), ConfigError> {
        cfg.validate()
    }

    fn new(core: &mut SearchCore<'_>, cfg: CdConfig) -> Self {
        let seed = cfg.seed ^ core.graph.name.len() as u64;
        CdProposer {
            restarts: 0,
            cfg,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// One restart (a `cd_round` span): pick a starting schedule (queued
    /// warm-start best or a fresh lint-valid random draw), measure it,
    /// then descend with the rest of the round budget.
    fn round(&mut self, core: &mut SearchCore<'_>, _: Lent<'_>, budget: usize) -> usize {
        let _round_span = core.tracer().span("cd_round");
        let k = budget.min(self.cfg.measure_per_round);
        let mut start = Picks::new(1);
        core.pick_seeds(&mut start);
        core.pick_random(&mut start, None, k, &mut self.rng);
        let Some(start) = start.schedules.pop() else {
            return 0;
        };

        let descend_cfg = FinetuneConfig {
            max_trials: k,
            max_sweeps: CD_MAX_SWEEPS,
        };
        let out = core.descend(&descend_cfg, start, f64::INFINITY);
        if out.trials == 0 {
            return 0;
        }
        self.restarts += 1;
        core.end_round(
            PRICES.cd_round_overhead + PRICES.sweep_overhead * out.sweeps as f64,
            out.trials as u64,
        );
        out.trials
    }

    fn checkpoint(&self, core: &SearchCore<'_>, _: Option<&CostModel>) -> CdTunerState {
        CdTunerState {
            seen: core.seen_sorted(),
            pending_seeds: core.seeds().to_vec(),
            restarts: self.restarts,
            best_time: core.best_time,
            best_schedule: core.best_schedule.clone(),
            trials_used: core.trials_used,
            trace: core.trace.clone(),
            lint_stats: core.lint_stats.clone(),
            rng: self.rng.state(),
        }
    }

    fn restore(&mut self, core: &mut SearchCore<'_>, state: CdTunerState) -> Option<CostModel> {
        core.restore(
            state.seen,
            state.pending_seeds,
            state.best_time,
            state.best_schedule,
            state.trials_used,
            state.trace,
            state.lint_stats,
        );
        self.restarts = state.restarts;
        self.rng = StdRng::from_state(state.rng);
        None
    }

    /// Queues the best matching prior schedules as restart points (best
    /// popped first); there is no cost model to pre-train.
    fn warm_start(&mut self, core: &mut SearchCore<'_>, usable: &[&MeasureRecord]) -> usize {
        core.queue_seeds(usable, self.cfg.measure_per_round);
        usable.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harl_tensor_ir::{generate_sketches, workload};
    use harl_tensor_sim::{Hardware, MeasureConfig, Measurer};

    #[test]
    fn descent_is_monotone_and_respects_budget() {
        let measurer = Measurer::new(Hardware::cpu(), MeasureConfig::default());
        let g = workload::gemm(256, 256, 256);
        let target = measurer.hardware().target();
        let sketches = generate_sketches(&g, target);
        let sk = &sketches[0];
        let mut rng = StdRng::seed_from_u64(7);
        let start = Schedule::random(sk, target, &mut rng);
        let start_time = measurer.true_time(&g, sk, &start);
        let cfg = FinetuneConfig {
            max_trials: 20,
            ..Default::default()
        };
        let out = coordinate_descent(
            &cfg,
            sk,
            target,
            start,
            start_time,
            |_| true,
            |s| {
                measurer.measure(&g, sk, s);
                measurer.true_time(&g, sk, s)
            },
        );
        assert!(out.best_time <= start_time, "descent regressed");
        assert!(out.trials <= 20);
        assert_eq!(measurer.trials(), out.trials as u64);
        assert!(out.sweeps >= 1);
        out.best_schedule.validate(sk, target).unwrap();
    }

    #[test]
    fn descent_from_random_starts_usually_improves() {
        let measurer = Measurer::new(Hardware::cpu(), MeasureConfig::default());
        let g = workload::gemm(512, 512, 512);
        let target = measurer.hardware().target();
        let sketches = generate_sketches(&g, target);
        let sk = &sketches[0];
        let mut rng = StdRng::seed_from_u64(11);
        let mut improved = 0;
        for _ in 0..8 {
            let start = Schedule::random(sk, target, &mut rng);
            let t0 = measurer.true_time(&g, sk, &start);
            let out = coordinate_descent(
                &FinetuneConfig::default(),
                sk,
                target,
                start,
                t0,
                |_| true,
                |s| measurer.true_time(&g, sk, s),
            );
            if out.best_time < t0 {
                improved += 1;
            }
        }
        assert!(improved >= 4, "descent improved only {improved}/8 starts");
    }

    #[test]
    fn cd_tuner_improves_and_tracks_trials() {
        let measurer = Measurer::new(Hardware::cpu(), MeasureConfig::default());
        let g = workload::gemm(256, 256, 256);
        let mut t = CdTuner::new(g, &measurer, CdConfig::default());
        t.tune(96);
        assert!(t.best_time.is_finite());
        assert!(t.best_schedule.is_some());
        let restarts = t.proposer().restarts;
        assert!(restarts >= 2, "only {restarts} restarts");
        assert_eq!(t.trials_used, measurer.trials());
        let times: Vec<f64> = t.trace.points.iter().map(|p| p.best_time).collect();
        assert!(times.windows(2).all(|w| w[1] <= w[0]));
    }

    #[test]
    fn cd_checkpoint_restore_resumes_bit_identically() {
        let g = workload::gemm(256, 256, 256);

        let m_ref = Measurer::new(Hardware::cpu(), MeasureConfig::default());
        let mut t_ref = CdTuner::new(g.clone(), &m_ref, CdConfig::default());
        for _ in 0..2 {
            t_ref.round(16);
        }
        let tuner_ckpt = serde_json::to_string(&t_ref.checkpoint_state()).unwrap();
        let measurer_ckpt = serde_json::to_string(&m_ref.state()).unwrap();
        for _ in 0..2 {
            t_ref.round(16);
        }

        let m2 = Measurer::new(Hardware::cpu(), MeasureConfig::default());
        m2.restore_state(&serde_json::from_str(&measurer_ckpt).unwrap());
        let mut t2 = CdTuner::new(g, &m2, CdConfig::default());
        t2.restore_state(serde_json::from_str(&tuner_ckpt).unwrap());
        for _ in 0..2 {
            t2.round(16);
        }

        assert_eq!(t2.best_time.to_bits(), t_ref.best_time.to_bits());
        assert_eq!(t2.trials_used, t_ref.trials_used);
        assert_eq!(m2.trials(), m_ref.trials());
    }

    #[test]
    fn cd_warm_start_queues_best_records() {
        let g = workload::gemm(256, 256, 256);
        let key = g.similarity_key();
        let m1 = Measurer::new(Hardware::cpu(), MeasureConfig::default());
        let mut cold = CdTuner::new(g.clone(), &m1, CdConfig::default());
        cold.tune(32);
        let best = cold.best_schedule.clone().unwrap();
        let records = vec![MeasureRecord {
            workload: cold.graph.name.clone(),
            similarity_key: key,
            sketch_id: best.sketch_id,
            schedule: best,
            time: cold.best_time,
            flops_per_sec: cold.graph.flops() / cold.best_time,
        }];

        let m2 = Measurer::new(Hardware::cpu(), MeasureConfig::default());
        let mut warm = CdTuner::new(g, &m2, CdConfig::default());
        assert_eq!(warm.warm_start(&records), 1);
        assert_eq!(warm.trials_used, 0);
        // first round descends from the queued prior best
        warm.round(8);
        assert!(warm.best_time <= records[0].time);
    }

    #[test]
    fn validate_names_the_bad_field() {
        let ft = FinetuneConfig::default;
        assert!(ft().validate().is_ok());
        #[rustfmt::skip]
        let bad = [
            ("finetune.max_sweeps", FinetuneConfig { max_sweeps: 0, ..ft() }),
        ];
        for (field, cfg) in bad {
            assert_eq!(cfg.validate().unwrap_err().field, field);
        }
        let cd = CdConfig::default;
        assert!(cd().validate().is_ok());
        #[rustfmt::skip]
        let bad = [
            ("cd.measure_per_round", CdConfig { measure_per_round: 0, ..cd() }),
        ];
        for (field, cfg) in bad {
            assert_eq!(cfg.validate().unwrap_err().field, field);
        }
    }
}
