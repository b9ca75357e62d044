//! One parameter-search episode — Algorithm 1, lines 3–19.
//!
//! `I` initial schedules are sampled from the selected sketch; each leads a
//! *schedule track*. At every step the actor proposes one sub-action per
//! modification type, the cost model scores the new states (the reward is
//! the relative predicted improvement), the critic's advantage feeds the
//! adaptive-stopping module, and the actor-critic trains from the replay
//! buffer every `T_rl` steps. All traversed schedules are collected for the
//! top-K selection phase.

use rand::rngs::StdRng;

use harl_gbt::{CostModel, ScoringPipeline};
use harl_nnet::PpoAgent;
use harl_obs::Tracer;
use harl_tensor_ir::{
    apply_action_in_place, compute_at_mask, parallel_mask, tile_action_mask_into, unroll_mask,
    Action, ActionSpace, FeaturePlan, Schedule, Sketch, StepDir, Subgraph,
};
use harl_verify::{check_finite, Analyzer, LintCode, LintStats};

use crate::adaptive::{critical_step_histogram, select_survivors, CriticalStep, TrackWindow};
use crate::config::{HarlConfig, MAX_WINDOWS};

/// The actor's heads, one per modification type (Appendix A.1): tiling,
/// compute-at, parallel loops, auto-unroll.
const HEADS: usize = 4;

/// Train the actor-critic every `T_rl` steps (Table 5: 2).
pub(crate) const TRAIN_INTERVAL: usize = 2;

/// One traversed schedule: an entry of Algorithm 1's heap `H`.
#[derive(Debug)]
pub struct Visit {
    /// The cost model's score.
    pub score: f64,
    /// Id of the schedule track that produced it.
    pub track: usize,
    state: VisitState,
}

/// What a [`Visit`] holds of its schedule. Seven of a track-step's eight
/// proposals lose and are never looked at again unless the top-K walk
/// reaches them, so they are kept as the recipe that rebuilds them.
#[derive(Debug)]
enum VisitState {
    /// An initial schedule or a step's winner: a track stood on it.
    Kept(Schedule),
    /// A proposal that lost its step: `action` applied to the kept schedule
    /// of `visited[parent]`.
    Lost { parent: usize, action: Action },
}

/// Everything an episode produces.
#[derive(Debug)]
pub struct EpisodeResult {
    /// All traversed schedules, in visit order.
    pub visited: Vec<Visit>,
    /// Per-track critical steps (position of the best-scored schedule).
    pub critical_steps: Vec<CriticalStep>,
    /// Steps executed before the episode ended.
    pub steps: usize,
    /// Lint findings over every candidate the episode considered;
    /// candidates with error findings were dropped before scoring.
    pub lint_stats: LintStats,
}

impl EpisodeResult {
    /// The schedule of `visited[i]`, a schedule of `sketch` (the episode's):
    /// the kept one, or a lost proposal rebuilt in `slot`.
    pub fn schedule<'a>(
        &'a self,
        i: usize,
        sketch: &Sketch,
        plan: &FeaturePlan,
        slot: &'a mut Schedule,
    ) -> &'a Schedule {
        match &self.visited[i].state {
            VisitState::Kept(s) => s,
            VisitState::Lost { parent, action } => {
                slot.clone_from(kept_at(&self.visited, *parent));
                apply_action_in_place(sketch, plan.target(), slot, action);
                slot
            }
        }
    }
}

/// The schedule a track stands on at `visited[at]`.
fn kept_at(visited: &[Visit], at: usize) -> &Schedule {
    match &visited[at].state {
        VisitState::Kept(s) => s,
        VisitState::Lost { .. } => unreachable!("tracks only stand on kept schedules"),
    }
}

/// One legal actor proposal awaiting batched scoring. The slots are
/// recycled from step to step, so proposing allocates nothing once they
/// have grown to a step's width.
struct Proposal {
    /// Which of its track's draws proposed it.
    draw: usize,
    action: Action,
    cand: Schedule,
}

/// A track's best-scored proposal of the step, awaiting the step's one
/// critic pass. Its action list is the winner's run of the step's
/// `winner_acts`, its masks the track's entry of the step's mask scratch.
struct Winner {
    /// Index into `tracks` (and the step's masks).
    track: usize,
    /// Index into the step's proposals (and `scores`).
    proposal: usize,
    logp: f32,
    reward: f32,
}

struct Track {
    id: usize,
    /// Warm-started from a measured elite (excluded from critical-step
    /// statistics: it starts at its peak by construction).
    seeded: bool,
    /// Index into `visited` of the track's current schedule.
    at: usize,
    features: Vec<f32>,
    score: f64,
    window: TrackWindow,
    best_score: f64,
    best_pos: usize,
}

/// Runs one episode of parameter modification on `sketch`, whose feature
/// plan on the search's target is `plan`.
///
/// `seeds` warm-start a fraction of the schedule tracks from previously
/// measured good schedules of the *same sketch* (exploitation); the rest
/// are sampled randomly from the sketch's parameter space (Algorithm 1,
/// line 5).
///
/// Scoring is batched through `pipeline`: every step first collects the
/// actor's legal proposals across all tracks (preserving the serial RNG
/// stream), then scores the whole candidate set in one pass (feature
/// cache and flattened GBT kernel), then applies results in the original
/// track order — so visited order, rewards, and PPO transitions are
/// identical to the seed's candidate-at-a-time loop at any thread count.
#[allow(clippy::too_many_arguments)]
pub fn run_episode(
    graph: &Subgraph,
    sketch: &Sketch,
    plan: &FeaturePlan,
    agent: &mut PpoAgent,
    cost: &CostModel,
    cfg: &HarlConfig,
    seeds: &[Schedule],
    analyzer: &Analyzer,
    pipeline: &mut ScoringPipeline,
    tracer: &Tracer,
    rng: &mut StdRng,
) -> EpisodeResult {
    let target = plan.target();
    let space = ActionSpace::of(sketch);
    let mut visited: Vec<Visit> = Vec::new();
    let mut critical: Vec<CriticalStep> = Vec::new();
    let mut lint_stats = LintStats::new();
    let mut scores: Vec<f64> = Vec::new();
    // counts the findings; true when `s` must not be scored
    let lint_rejects = |stats: &mut LintStats, s: &Schedule| {
        stats.record(&analyzer.verdict(graph, sketch, plan, s))
    };

    // --- initial schedule tracks (Algorithm 1, line 5) --------------------
    let n_seeded =
        ((cfg.tracks_per_round as f64 * cfg.elite_track_fraction) as usize).min(seeds.len());
    // `(schedule, seeded)`: a slot is seeded only while it holds the elite
    let initial: Vec<(Schedule, bool)> = (0..cfg.tracks_per_round)
        .map(|i| {
            let mut seeded = i < n_seeded;
            let mut s = if seeded {
                seeds[i].clone()
            } else {
                Schedule::random(sketch, target, rng)
            };
            // reject illegal starting points before they can seed a track
            let mut guard = 0;
            while lint_rejects(&mut lint_stats, &s) && guard < 8 {
                s = Schedule::random(sketch, target, rng);
                seeded = false;
                guard += 1;
            }
            (s, seeded)
        })
        .collect();
    pipeline.score(
        cost,
        &initial,
        |(s, _), buf| plan.extract_into(s, buf),
        &mut scores,
    );
    let mut tracks: Vec<Track> = initial
        .into_iter()
        .enumerate()
        .map(|(i, (s, seeded))| {
            let score = scores[i];
            visited.push(Visit {
                score,
                track: i,
                state: VisitState::Kept(s),
            });
            Track {
                id: i,
                seeded,
                at: i,
                features: pipeline.row(i).to_vec(),
                score,
                window: TrackWindow::default(),
                best_score: score,
                best_pos: 0,
            }
        })
        .collect();

    let mut step = 0usize;
    let max_steps = if cfg.adaptive_stopping {
        cfg.lambda * MAX_WINDOWS
    } else {
        cfg.fixed_length
    };

    // Step scratch, reused across steps: the four action masks of each
    // live track (the replay buffer copies a winner's out of them), the
    // batched policy input, and the proposal slots — the step's legal
    // proposals are `props[..n]` in track-major order, `prop_counts[k]` of
    // them belonging to track `k`.
    let mut step_masks: Vec<Vec<Vec<bool>>> = vec![vec![Vec::new(); HEADS]; tracks.len()];
    let mut flat_features: Vec<f32> = Vec::new();
    let mut props: Vec<Proposal> = Vec::new();
    let mut prop_counts: Vec<usize> = Vec::new();
    // ... and the step's winning proposals in track order with their
    // action lists end to end, their `(next, current)` feature rows for
    // the critic, and its answers.
    let mut winners: Vec<Winner> = Vec::new();
    let mut winner_acts: Vec<usize> = Vec::new();
    let mut value_pairs: Vec<f32> = Vec::new();
    let mut values: Vec<f32> = Vec::new();
    // ... and the adaptive-stopping window's survivor flags.
    let mut kept_set: Vec<bool> = Vec::new();
    // observation only: what the round's `episode_summary` event reports
    let mut proposed = 0usize;
    let mut legal = 0usize;
    let mut pruned: Vec<u64> = Vec::new();

    // Algorithm 1, line 6: while |S| ≥ p̂ (adaptive) / fixed length.
    while !tracks.is_empty() && step < max_steps {
        step += 1;

        // Phase A: the actor proposes several candidate modifications per
        // track (§3.2) — one batched policy forward across all live tracks,
        // then `action_samples` draws per track from the batched softmax.
        // `act_batch` consumes the RNG in track-major, then draw, then head
        // order, exactly like the per-track `act` loop it replaced, and its
        // logit rows are bit-equal to per-track forwards, so the stream —
        // and every downstream byte — is identical to the serial version.
        // Illegal candidates are dropped before cost-model scoring.
        let samples = cfg.action_samples.max(1);
        let act_span = tracer.span_with("ppo_act", &[("tracks", tracks.len().into())]);
        flat_features.clear();
        for (t, masks) in tracks.iter().zip(&mut step_masks) {
            let schedule = kept_at(&visited, t.at);
            tile_action_mask_into(sketch, schedule, &space, &mut masks[0]);
            for (mask, of_schedule) in masks[1..].iter_mut().zip([
                compute_at_mask(sketch, schedule),
                parallel_mask(sketch, schedule),
                unroll_mask(target, schedule),
            ]) {
                mask.clear();
                mask.extend_from_slice(&of_schedule);
            }
            flat_features.extend_from_slice(&t.features);
        }
        let live_masks = &step_masks[..tracks.len()];
        let draws = agent.act_batch(&flat_features, tracks.len(), live_masks, samples, rng);
        prop_counts.clear();
        let mut n = 0;
        for (t, track_draws) in tracks.iter().zip(draws.iter()) {
            let before = n;
            let current = kept_at(&visited, t.at);
            for (draw, (acts, _)) in track_draws.iter().enumerate() {
                let action = Action {
                    tile: acts[0],
                    compute_at: StepDir::from_index(acts[1]),
                    parallel: StepDir::from_index(acts[2]),
                    unroll: StepDir::from_index(acts[3]),
                };
                if n == props.len() {
                    props.push(Proposal {
                        draw,
                        action,
                        cand: Schedule::default(),
                    });
                }
                // slot `n` is reused by the next draw when this one is rejected
                let p = &mut props[n];
                (p.draw, p.action) = (draw, action);
                p.cand.clone_from(current);
                apply_action_in_place(sketch, target, &mut p.cand, &action);
                if !lint_rejects(&mut lint_stats, &p.cand) {
                    n += 1;
                }
            }
            prop_counts.push(n - before);
        }
        proposed += tracks.len() * samples;
        legal += n;
        drop(act_span);

        // Phase B: one batched scoring pass over every legal candidate of
        // this step, in the same track-major order.
        {
            let _score_span = tracer.span("score");
            pipeline.score(
                cost,
                &props[..n],
                |p, buf| plan.extract_into(&p.cand, buf),
                &mut scores,
            );
        }

        // Phase C: pick each track's best proposal and record the PPO
        // transition, in the original visit order. Every candidate enters
        // `visited` as the action that rebuilds it; a step's winner also
        // keeps its schedule, and its track remembers where it landed.
        let update_span = tracer.span("ppo_update");
        // proposal `g` of this step scored `scores[g]` and lands at
        // `visited[first + g]`
        let first = visited.len();
        let mut pending = props[..n].iter().enumerate();
        for (((k, t), &count), track_draws) in tracks
            .iter()
            .enumerate()
            .zip(&prop_counts)
            .zip(draws.iter())
        {
            // the cost model prunes all but the best-scored proposal
            let mut best: Option<(usize, &Proposal)> = None;
            for (g, p) in pending.by_ref().take(count) {
                visited.push(Visit {
                    score: scores[g],
                    track: t.id,
                    state: VisitState::Lost {
                        parent: t.at,
                        action: p.action,
                    },
                });
                if best.is_none_or(|b| scores[g] > scores[b.0]) {
                    best = Some((g, p));
                }
            }
            // every sampled action may have been rejected by the analyzer;
            // the track then stays put for this step
            let Some((g, p)) = best else {
                continue;
            };
            visited[first + g].state = VisitState::Kept(p.cand.clone());
            let (acts, logp) = &track_draws[p.draw];
            // reward: relative predicted improvement (line 9)
            let mut reward = ((scores[g] - t.score) / t.score.max(1e-9)) as f32;
            if check_finite("episode reward", reward as f64).is_some() {
                lint_stats.record_finding(LintCode::NonFiniteValue);
                reward = 0.0;
            }
            value_pairs.extend_from_slice(pipeline.row(g));
            value_pairs.extend_from_slice(&t.features);
            winner_acts.extend_from_slice(acts);
            winners.push(Winner {
                track: k,
                proposal: g,
                logp: *logp,
                reward,
            });
        }
        // record (S, M, S', R, Y) (lines 10–12). Nothing trains inside a
        // step, so one critic pass values the (S', S) pairs of every
        // winner — row for row the bits of a pass per track — and the
        // transitions enter the buffer in track order.
        values.clear();
        if !winners.is_empty() {
            values.extend_from_slice(agent.values(&value_pairs, 2 * winners.len()));
        }
        value_pairs.clear();
        for ((w, v), acts) in winners
            .drain(..)
            .zip(values.chunks_exact(2))
            .zip(winner_acts.chunks_exact(HEADS))
        {
            let t = &mut tracks[w.track];
            let g = w.proposal;
            let adv = agent.record_valued(
                &t.features,
                acts,
                w.logp,
                w.reward,
                v[0],
                v[1],
                &step_masks[w.track],
            );
            let mut adv = adv as f64;
            if check_finite("PPO advantage", adv).is_some() {
                lint_stats.record_finding(LintCode::NonFiniteValue);
                adv = 0.0;
            }
            t.window.push(adv);
            if scores[g] > t.best_score {
                t.best_score = scores[g];
                t.best_pos = step;
            }
            t.at = first + g;
            t.features.clear();
            t.features.extend_from_slice(pipeline.row(g));
            t.score = scores[g];
        }
        winner_acts.clear();
        drop(update_span);

        // Train actor + critic every T_rl steps (lines 14–17).
        if step.is_multiple_of(TRAIN_INTERVAL) {
            let _train_span = tracer.span("ppo_train");
            for _ in 0..cfg.train_epochs.max(1) {
                agent.train_step(rng);
            }
        }

        // Adaptive stopping every λ steps (line 11 / §5).
        if cfg.adaptive_stopping && step.is_multiple_of(cfg.lambda) {
            let advs: Vec<f64> = tracks.iter().map(|t| t.window.mean()).collect();
            let kept = select_survivors(&advs, cfg.rho);
            kept_set.clear();
            kept_set.resize(tracks.len(), false);
            for &k in &kept {
                kept_set[k] = true;
            }
            let mut survivors = Vec::with_capacity(kept.len());
            for (i, mut t) in tracks.drain(..).enumerate() {
                if kept_set[i] {
                    t.window.reset();
                    survivors.push(t);
                } else {
                    if !t.seeded {
                        critical.push(CriticalStep {
                            position: t.best_pos,
                            length: step,
                        });
                    }
                }
            }
            let dropped = kept_set.len() - survivors.len();
            pruned.push(dropped as u64);
            tracks = survivors;
            tracer.event(
                "adaptive_prune",
                &[
                    ("dropped", dropped.into()),
                    ("kept", tracks.len().into()),
                    ("step", step.into()),
                ],
            );
            if tracks.len() < cfg.min_tracks {
                break;
            }
        }
    }

    for t in tracks.iter().filter(|t| !t.seeded) {
        critical.push(CriticalStep {
            position: t.best_pos,
            length: step,
        });
    }

    if tracer.is_enabled() {
        let list = |counts: &[u64]| {
            let counts: Vec<String> = counts.iter().map(u64::to_string).collect();
            counts.join(",")
        };
        tracer.event(
            "episode_summary",
            &[
                ("steps", step.into()),
                ("proposals", proposed.into()),
                ("lint_rejected", (proposed - legal).into()),
                ("pruned_per_window", list(&pruned).into()),
                (
                    "critical_step_deciles",
                    list(&critical_step_histogram(&critical, 10)).into(),
                ),
            ],
        );
    }

    EpisodeResult {
        visited,
        critical_steps: critical,
        steps: step,
        lint_stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harl_gbt::GbtParams;
    use harl_nnet::PpoConfig;
    use harl_tensor_ir::{generate_sketches, workload, Target};
    use rand::SeedableRng;

    fn setup() -> (Subgraph, Sketch, FeaturePlan, PpoAgent, StdRng) {
        let g = workload::gemm(256, 256, 256);
        let sk = generate_sketches(&g, Target::Cpu)[0].clone();
        let plan = FeaturePlan::new(&g, &sk, Target::Cpu);
        let mut rng = StdRng::seed_from_u64(7);
        let space = ActionSpace::of(&sk);
        let agent = PpoAgent::new(
            harl_tensor_ir::FEATURE_DIM,
            &[space.tile_actions(), 3, 3, 3],
            PpoConfig {
                hidden: 32,
                ..Default::default()
            },
            &mut rng,
        );
        (g, sk, plan, agent, rng)
    }

    #[test]
    fn adaptive_episode_ends_below_min_tracks() {
        let (g, sk, plan, mut agent, mut rng) = setup();
        let cost = CostModel::new(GbtParams::default());
        let an = Analyzer::for_target(Target::Cpu);
        let cfg = HarlConfig {
            lambda: 3,
            tracks_per_round: 8,
            min_tracks: 4,
            ..HarlConfig::tiny()
        };
        let res = run_episode(
            &g,
            &sk,
            &plan,
            &mut agent,
            &cost,
            &cfg,
            &[],
            &an,
            &mut ScoringPipeline::default(),
            &Tracer::disabled(),
            &mut rng,
        );
        // 8 tracks, ρ=0.5: after window1 → 4 (≥ min, continue), window2 → 2 < 4 stop.
        assert_eq!(res.steps, 6);
        assert_eq!(
            res.critical_steps.len(),
            8,
            "every track gets a critical step"
        );
        // visited = 8 initial + (8*3 + 4*3) track-steps × action_samples; the
        // analyzer never rejects legally generated candidates
        assert_eq!(res.visited.len(), 8 + (8 * 3 + 4 * 3) * cfg.action_samples);
        assert_eq!(res.lint_stats.rejected, 0);
    }

    #[test]
    fn fixed_episode_runs_exact_length() {
        let (g, sk, plan, mut agent, mut rng) = setup();
        let cost = CostModel::new(GbtParams::default());
        let an = Analyzer::for_target(Target::Cpu);
        let cfg = HarlConfig {
            adaptive_stopping: false,
            fixed_length: 5,
            tracks_per_round: 6,
            ..HarlConfig::tiny()
        };
        let res = run_episode(
            &g,
            &sk,
            &plan,
            &mut agent,
            &cost,
            &cfg,
            &[],
            &an,
            &mut ScoringPipeline::default(),
            &Tracer::disabled(),
            &mut rng,
        );
        assert_eq!(res.steps, 5);
        assert_eq!(res.visited.len(), 6 + 6 * 5 * cfg.action_samples);
        assert!(res.critical_steps.iter().all(|c| c.length == 5));
        assert_eq!(res.lint_stats.rejected, 0);
    }

    #[test]
    fn visited_schedules_are_valid() {
        let (g, sk, plan, mut agent, mut rng) = setup();
        let cost = CostModel::new(GbtParams::default());
        let an = Analyzer::for_target(Target::Cpu);
        let cfg = HarlConfig::tiny();
        let res = run_episode(
            &g,
            &sk,
            &plan,
            &mut agent,
            &cost,
            &cfg,
            &[],
            &an,
            &mut ScoringPipeline::default(),
            &Tracer::disabled(),
            &mut rng,
        );
        let mut slot = Schedule::default();
        for (i, v) in res.visited.iter().enumerate() {
            assert!(v.score.is_finite());
            let s = res.schedule(i, &sk, &plan, &mut slot);
            s.validate(&sk, Target::Cpu)
                .expect("visited schedule valid");
            assert!(an.is_legal(&g, &sk, Target::Cpu, s));
        }
    }

    #[test]
    fn episode_trains_the_agent() {
        let (g, sk, plan, mut agent, mut rng) = setup();
        let cost = CostModel::new(GbtParams::default());
        let an = Analyzer::for_target(Target::Cpu);
        let cfg = HarlConfig::tiny();
        let before = agent.num_updates();
        run_episode(
            &g,
            &sk,
            &plan,
            &mut agent,
            &cost,
            &cfg,
            &[],
            &an,
            &mut ScoringPipeline::default(),
            &Tracer::disabled(),
            &mut rng,
        );
        assert!(agent.num_updates() > before);
    }

    /// A seeded slot whose elite the analyzer rejects holds a random
    /// schedule afterwards, and a random track counts in the critical-step
    /// statistics like any other.
    #[test]
    fn a_rejected_elite_leaves_a_random_track_that_counts() {
        let critical_steps_with = |elite: Schedule| {
            let (g, sk, plan, mut agent, mut rng) = setup();
            let res = run_episode(
                &g,
                &sk,
                &plan,
                &mut agent,
                &CostModel::new(GbtParams::default()),
                &HarlConfig::tiny(),
                &[elite],
                &Analyzer::for_target(Target::Cpu),
                &mut ScoringPipeline::default(),
                &Tracer::disabled(),
                &mut rng,
            );
            (res.critical_steps.len(), res.lint_stats.rejected)
        };
        let (_, sk, _, _, mut rng) = setup();
        let legal = Schedule::random(&sk, Target::Cpu, &mut rng);
        // GEMM has two spatial iterators: a band of three covers the reduction
        let racing = Schedule {
            parallel_fuse: 3,
            ..legal.clone()
        };
        let tracks = HarlConfig::tiny().tracks_per_round;
        assert_eq!(critical_steps_with(legal), (tracks - 1, 0));
        assert_eq!(critical_steps_with(racing), (tracks, 1));
    }

    /// Pins the whole episode — visit order and scores, every recorded
    /// transition (critic-computed advantages included) and the critical
    /// steps — to values recorded with the per-track `record` loop. The
    /// lint rejects a third of all schedules by fingerprint, so some
    /// track-steps lose both proposals and must neither record nor move.
    #[test]
    fn episode_matches_golden_digests() {
        use harl_verify::{Component, LintContext, LintSink, ScheduleLint};

        struct RejectThird;
        impl ScheduleLint for RejectThird {
            fn code(&self) -> LintCode {
                LintCode::ParallelReductionRace
            }
            fn requires_well_formed(&self) -> bool {
                false
            }
            fn check(&self, ctx: &LintContext<'_>, out: &mut LintSink<'_>) {
                if ctx.schedule.fingerprint().is_multiple_of(3) {
                    out.report(self.code(), Component::Schedule, || {
                        "rejected by test lint".into()
                    });
                }
            }
        }

        fn fnv(h: &mut u64, bytes: &[u8]) {
            for &b in bytes {
                *h = (*h ^ b as u64).wrapping_mul(0x100000001b3);
            }
        }

        let (g, sk, plan, mut agent, mut rng) = setup();
        // a trained cost model, so scores, rewards and winners differ
        let mut cost = CostModel::new(GbtParams {
            n_rounds: 8,
            ..Default::default()
        });
        cost.update_batch((0..64).map(|_| {
            let s = Schedule::random(&sk, Target::Cpu, &mut rng);
            let mut f = Vec::new();
            plan.extract_into(&s, &mut f);
            (f, 1e9 * (1 + s.fingerprint() % 97) as f64)
        }));
        let mut an = Analyzer::empty(harl_verify::CacheBudget::for_target(Target::Cpu));
        an.register(Box::new(RejectThird));
        let cfg = HarlConfig::tiny();
        let res = run_episode(
            &g,
            &sk,
            &plan,
            &mut agent,
            &cost,
            &cfg,
            &[],
            &an,
            &mut ScoringPipeline::default(),
            &Tracer::disabled(),
            &mut rng,
        );

        let mut visited = 0xcbf29ce484222325u64;
        let mut slot = Schedule::default();
        for (i, v) in res.visited.iter().enumerate() {
            let s = res.schedule(i, &sk, &plan, &mut slot);
            fnv(&mut visited, &v.score.to_bits().to_le_bytes());
            fnv(&mut visited, &s.fingerprint().to_le_bytes());
            fnv(&mut visited, &v.track.to_le_bytes());
        }
        // every field of every transition, oldest first, as bits rather
        // than as checkpoint text (whose layout may change)
        let mut buffer = 0xcbf29ce484222325u64;
        for i in 0..agent.buffer.len() {
            let t = agent.buffer.get(i);
            for v in &t.state {
                fnv(&mut buffer, &v.to_bits().to_le_bytes());
            }
            for &a in &t.actions {
                fnv(&mut buffer, &(a as u64).to_le_bytes());
            }
            for v in [t.logp, t.reward, t.advantage, t.value_target] {
                fnv(&mut buffer, &v.to_bits().to_le_bytes());
            }
            for mask in &t.masks {
                fnv(&mut buffer, &(mask.len() as u64).to_le_bytes());
                for &valid in mask {
                    fnv(&mut buffer, &[valid as u8]);
                }
            }
        }
        let critical: Vec<(usize, usize)> = res
            .critical_steps
            .iter()
            .map(|c| (c.position, c.length))
            .collect();

        assert_eq!(res.steps, 6);
        assert_eq!(res.lint_stats.rejected, 21);
        assert_eq!(res.visited.len(), 64);
        assert_eq!(
            visited, 0xedf24948579d6d4d,
            "visit order, scores or tracks moved"
        );
        // 36 track-steps, two of which lost both proposals to the lint
        assert_eq!(agent.buffer.len(), 34);
        assert_eq!(buffer, 0x1e4bbf6f5d3ac6e1, "replay buffer contents moved");
        assert_eq!(
            critical,
            [
                (0, 3),
                (3, 3),
                (0, 3),
                (0, 3),
                (2, 6),
                (1, 6),
                (1, 6),
                (2, 6)
            ]
        );
    }

    /// A lint that rejects everything: the episode must drop every candidate
    /// *before* scoring (only the initial tracks reach `visited`) and count
    /// the rejections instead of panicking.
    #[test]
    fn rejected_candidates_never_reach_the_cost_model() {
        use harl_verify::{Component, LintContext, LintSink, ScheduleLint};

        struct RejectAll;
        impl ScheduleLint for RejectAll {
            fn code(&self) -> LintCode {
                LintCode::ParallelReductionRace
            }
            fn requires_well_formed(&self) -> bool {
                false
            }
            fn check(&self, _ctx: &LintContext<'_>, out: &mut LintSink<'_>) {
                out.report(self.code(), Component::Schedule, || {
                    "rejected by test lint".into()
                });
            }
        }

        let (g, sk, plan, mut agent, mut rng) = setup();
        let cost = CostModel::new(GbtParams::default());
        let mut an = Analyzer::empty(harl_verify::CacheBudget::for_target(Target::Cpu));
        an.register(Box::new(RejectAll));
        let cfg = HarlConfig {
            adaptive_stopping: false,
            fixed_length: 3,
            tracks_per_round: 4,
            ..HarlConfig::tiny()
        };
        let res = run_episode(
            &g,
            &sk,
            &plan,
            &mut agent,
            &cost,
            &cfg,
            &[],
            &an,
            &mut ScoringPipeline::default(),
            &Tracer::disabled(),
            &mut rng,
        );
        // only the 4 initial tracks (kept after the resample guard gives up)
        // ever reach the heap; every proposed action was rejected pre-scoring
        assert_eq!(res.visited.len(), 4);
        assert!(res.lint_stats.rejected > 0);
        assert!(res.lint_stats.count(LintCode::ParallelReductionRace) > 0);
    }
}
