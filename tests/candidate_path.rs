//! The HARL step touches each proposal once: lints count instead of
//! formatting, features come off a per-sketch plan, schedule hashes fold
//! their zero bytes, and losing proposals stay recipes until the top-K walk
//! asks for them. Every one of those is bit-neutral; this file holds the
//! pre-change formulas as references and compares.

use harl_repro::gbt::{CostModel, ScoringPipeline};
use harl_repro::harl::{pick_top_k, run_episode};
use harl_repro::ir::{fnv_eat, ActionSpace, FeaturePlan, IterKind, FEATURE_DIM, MAX_LOOPS};
use harl_repro::mcts::{Picks, SearchCore};
use harl_repro::nnet::PpoAgent;
use harl_repro::obs::Tracer;
use harl_repro::prelude::*;
use harl_repro::verify::Verdict;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The operator suite (batch 1 and 16) and the ten BERT subgraphs.
fn workloads() -> Vec<Subgraph> {
    let mut all = Vec::new();
    for class in OperatorClass::ALL {
        all.extend(operator_suite(class, 1));
        all.extend(operator_suite(class, 16));
    }
    let bert = Network::Bert.subgraphs(1);
    assert_eq!(bert.len(), 10);
    all.extend(bert);
    all
}

// --- the feature formulas as they stood before the plan -------------------

fn log2p(x: f64) -> f32 {
    (x.max(0.0) + 1.0).log2() as f32
}

fn reference_working_set(s: &Schedule, graph: &Subgraph, sketch: &Sketch, depth: usize) -> u64 {
    let anchor = graph.anchor_stage();
    let extent_of = |iter_idx: usize| -> u64 {
        sketch
            .tiled_iters
            .iter()
            .enumerate()
            .find(|(_, t)| t.iter == iter_idx)
            .map(|(k, t)| s.inner_extent(k, t.levels.saturating_sub(depth)))
            .unwrap_or(1)
    };
    let mut bytes: u64 = anchor.inputs.iter().map(|a| a.tile_bytes(&extent_of)).sum();
    let out_tile: u64 = sketch
        .tiled_iters
        .iter()
        .enumerate()
        .filter(|(_, t)| t.kind == IterKind::Spatial)
        .map(|(k, t)| s.inner_extent(k, t.levels.saturating_sub(depth)))
        .product::<u64>()
        .max(1);
    bytes += out_tile * 4;
    bytes
}

fn reference_features(graph: &Subgraph, sketch: &Sketch, target: Target, s: &Schedule) -> Vec<f32> {
    use harl_simd::log2p_int;
    let mut f = vec![0.0f32; FEATURE_DIM];
    let anchor = graph.anchor_stage();
    for (slot, &factor) in s.tiles.iter().flatten().enumerate() {
        if slot < MAX_LOOPS {
            f[slot] = log2p_int(factor as u64);
        }
    }
    let spatial_outer = |take: usize| -> u64 {
        sketch
            .tiled_iters
            .iter()
            .enumerate()
            .filter(|(_, t)| t.kind == IterKind::Spatial)
            .take(take)
            .map(|(k, _)| s.tiles[k][0] as u64)
            .product()
    };
    let base = MAX_LOOPS;
    let flops = graph.flops();
    let bytes = (graph.input_bytes() + graph.output_bytes()) as f64;
    f[base] = log2p(flops);
    f[base + 1] = log2p_int(anchor.output_elems());
    f[base + 2] = log2p_int(anchor.reduction_elems());
    f[base + 3] = log2p(flops / bytes.max(1.0));
    let innermost_spatial = sketch
        .tiled_iters
        .iter()
        .enumerate()
        .rfind(|(_, t)| t.kind == IterKind::Spatial)
        .map(|(k, _)| *s.tiles[k].last().unwrap())
        .unwrap_or(1);
    f[base + 4] = log2p_int(innermost_spatial as u64);
    f[base + 5] = (innermost_spatial % 8 == 0) as u8 as f32;
    f[base + 6] = (innermost_spatial % 16 == 0) as u8 as f32;
    let rfactor_tasks = if sketch.rfactor {
        sketch
            .tiled_iters
            .iter()
            .enumerate()
            .filter(|(_, t)| t.kind == IterKind::Reduction)
            .map(|(k, _)| s.tiles[k][0] as u64)
            .product::<u64>()
            .max(1)
    } else {
        1
    };
    let tasks = spatial_outer(s.parallel_fuse).max(1) * rfactor_tasks;
    f[base + 7] = log2p_int(tasks);
    f[base + 8] = s.parallel_fuse as f32;
    f[base + 9] = log2p_int(target.unroll_depths()[s.unroll_idx] as u64);
    let body: u64 = s.tiles.iter().map(|t| *t.last().unwrap() as u64).product();
    f[base + 10] = log2p_int(body);
    f[base + 11] = s.compute_at as f32 / sketch.compute_at_candidates.len().max(1) as f32;
    f[base + 12] = sketch.fused_consumer.is_some() as u8 as f32;
    for depth in 1..=3 {
        f[base + 12 + depth] = log2p_int(reference_working_set(s, graph, sketch, depth));
    }
    f[base + 16] = sketch.cache_write as u8 as f32;
    f[base + 17] = sketch.rfactor as u8 as f32;
    f[base + 18] = sketch.inlined.len() as f32;
    f[base + 19] = (target == Target::Gpu) as u8 as f32;
    f[base + 20] = log2p(flops / tasks as f64);
    f[base + 21] = log2p_int(spatial_outer(usize::MAX));
    f[base + 22] = sketch.num_loops() as f32 / MAX_LOOPS as f32;
    f[base + 23] = log2p_int(anchor.inputs.len() as u64);
    f
}

fn bits(row: &[f32]) -> Vec<u32> {
    row.iter().map(|v| v.to_bits()).collect()
}

#[test]
fn the_feature_plan_reproduces_the_per_candidate_formulas_bit_for_bit() {
    let mut rng = StdRng::seed_from_u64(0xfea7);
    let mut row = vec![9.0f32; 3]; // stale, wrong-sized contents
    let mut compared = 0;
    for g in workloads() {
        for target in [Target::Cpu, Target::Gpu] {
            for sk in generate_sketches(&g, target) {
                let plan = FeaturePlan::new(&g, &sk, target);
                assert_eq!(plan.target(), target);
                for _ in 0..12 {
                    let s = Schedule::random(&sk, target, &mut rng);
                    let want = bits(&reference_features(&g, &sk, target, &s));
                    plan.extract_into(&s, &mut row);
                    assert_eq!(bits(&row), want, "{} / {} on {target:?}", g.name, sk.desc);
                    // the one-shot entry point is the same plan, built per call
                    let one_shot = harl_repro::ir::extract_features(&g, &sk, target, &s);
                    assert_eq!(bits(&one_shot), want);
                    // and the lints judge the geometry the features encode
                    let tile = plan.tile_stats(&s);
                    for depth in 1..=3 {
                        let ws = reference_working_set(&s, &g, &sk, depth);
                        assert_eq!(tile.working_set[depth - 1], ws);
                        assert_eq!(s.tile_working_set(&g, &sk, depth), ws);
                    }
                    assert_eq!(tile.body, s.inner_body_size());
                    compared += 1;
                }
            }
        }
    }
    assert!(compared > 3000, "only {compared} schedules compared");
}

// --- verdicts -------------------------------------------------------------

/// Per-code counts and the reject flag, folded by hand from diagnostics.
fn fold(diags: &[Diagnostic]) -> ([u32; LintCode::COUNT], bool) {
    let mut counts = [0u32; LintCode::COUNT];
    let mut reject = false;
    for d in diags {
        counts[d.code.index()] += 1;
        reject |= d.severity == Severity::Error;
    }
    (counts, reject)
}

/// `s` broken in one of the ways V001 exists to catch, or in a way only
/// the later lints see.
fn malformed(s: &Schedule, how: usize) -> Schedule {
    let mut m = s.clone();
    match how {
        0 => m.tiles[0].truncate(1),              // wrong level count
        1 => *m.tiles[0].last_mut().unwrap() = 0, // zero factor
        2 => m.tiles.clear(),                     // empty tile list
        3 => m.tiles[0].clear(),                  // an iterator without factors
        4 => m.tiles.push(vec![1, 1]),            // one iterator too many
        5 => m.tiles[0][0] = m.tiles[0][0].wrapping_mul(3).max(3), // wrong product
        6 => m.parallel_fuse = 64,                // V002: band over the reduction
        7 => m.compute_at = 99,                   // V005
        8 => m.unroll_idx = 99,                   // V001 shields V004's table lookup
        _ => m.parallel_fuse = 0,
    }
    m
}

#[test]
fn a_verdict_is_the_diagnostics_without_the_words() {
    let mut rng = StdRng::seed_from_u64(0x7e4d);
    let mut stats = LintStats::new();
    let (mut checked, mut rejected, mut warned) = (0u64, 0u64, 0u64);
    for g in workloads() {
        for target in [Target::Cpu, Target::Gpu] {
            let analyzer = Analyzer::for_target(target);
            for sk in generate_sketches(&g, target) {
                let plan = FeaturePlan::new(&g, &sk, target);
                let legal = Schedule::random(&sk, target, &mut rng);
                let cases =
                    std::iter::once(legal.clone()).chain((0..10).map(|h| malformed(&legal, h)));
                for (case, s) in cases.enumerate() {
                    let diags = analyzer.analyze(&g, &sk, target, &s);
                    let (counts, reject) = fold(&diags);
                    let verdict = analyzer.verdict(&g, &sk, &plan, &s);
                    assert_eq!(verdict.counts, counts, "case {case} of {}", sk.desc);
                    assert_eq!(verdict.rejects(), reject, "case {case} of {}", sk.desc);
                    assert_eq!(verdict, Verdict::of(&diags));
                    assert_eq!(analyzer.is_legal(&g, &sk, target, &s), !reject);
                    let first = analyzer.first_error(&g, &sk, target, &s);
                    assert_eq!(first.is_some(), reject);
                    if case == 0 {
                        assert!(!reject, "random schedules are legal: {diags:?}");
                    }
                    if counts[LintCode::TileFactorization.index()] > 0 {
                        // V001 shields the lints that index the factor lists
                        assert_eq!(counts[LintCode::CacheOverSubscription.index()], 0);
                        assert_eq!(counts[LintCode::DegenerateUnroll.index()], 0);
                    }
                    assert_eq!(stats.record(&verdict), reject);
                    checked += 1;
                    rejected += reject as u64;
                    warned += (counts[LintCode::CacheOverSubscription.index()]
                        + counts[LintCode::DegenerateUnroll.index()])
                        as u64;
                }
            }
        }
    }
    assert_eq!((stats.checked, stats.rejected), (checked, rejected));
    assert!(rejected > 0 && rejected < checked);
    assert!(warned > 0, "the warn lints must have fired somewhere");
}

// --- hashes ---------------------------------------------------------------

fn byte_loop(mut h: u64, v: u64) -> u64 {
    for b in v.to_le_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

#[test]
fn fnv_eat_is_the_byte_loop() {
    let mut rng = StdRng::seed_from_u64(0xf17);
    for len in 0..=8u32 {
        let mask = if len == 8 {
            u64::MAX
        } else {
            (1u64 << (8 * len)) - 1
        };
        for _ in 0..100_000 {
            let (h, v) = (rng.gen::<u64>(), rng.gen::<u64>() & mask);
            assert_eq!(fnv_eat(h, v), byte_loop(h, v), "h={h:#x} v={v:#x}");
        }
    }
    for v in [
        0,
        1,
        0xff,
        0x100,
        0xff00,
        u32::MAX as u64,
        1 << 56,
        u64::MAX,
    ] {
        assert_eq!(
            fnv_eat(0xcbf29ce484222325, v),
            byte_loop(0xcbf29ce484222325, v)
        );
    }
}

#[test]
fn schedule_keys_are_the_byte_loop_over_the_parameter_stream() {
    let reference = |s: &Schedule, mut h: u64| {
        h = byte_loop(h, s.sketch_id as u64);
        for &f in s.tiles.iter().flatten() {
            h = byte_loop(h, f as u64);
        }
        for v in [s.compute_at, s.parallel_fuse, s.unroll_idx] {
            h = byte_loop(h, v as u64);
        }
        h
    };
    let mut rng = StdRng::seed_from_u64(0x4e7);
    for g in workloads() {
        for sk in generate_sketches(&g, Target::Gpu) {
            let s = Schedule::random(&sk, Target::Gpu, &mut rng);
            assert_eq!(s.dedup_key(), reference(&s, 0xcbf29ce484222325));
            assert_eq!(
                s.fingerprint(),
                reference(&s, 0xcbf29ce484222325 ^ 0x5343_4f52_4500_0001)
            );
        }
    }
}

// --- lazily rebuilt visits ------------------------------------------------

#[test]
fn the_top_k_walk_picks_what_sorting_every_rebuilt_schedule_picked() {
    let cfg = HarlConfig::tiny();
    let measurer = Measurer::new(Hardware::cpu(), MeasureConfig::default());
    let mut core = SearchCore::new(harl_repro::ir::workload::gemm(256, 256, 256), &measurer);
    let mut rng = StdRng::seed_from_u64(7);
    let heads = [ActionSpace::of(&core.sketches[0]).tile_actions(), 3, 3, 3];
    let mut agent = PpoAgent::new(FEATURE_DIM, &heads, cfg.ppo.clone(), &mut rng);
    // a trained cost model, so scores differ and ranking means something
    let mut cost = CostModel::new(cfg.gbt.clone());
    cost.update_batch((0..64).map(|_| {
        let s = Schedule::random(&core.sketches[0], core.target(), &mut rng);
        (core.features(&s), 1e9 * (1 + s.fingerprint() % 97) as f64)
    }));
    let episode = run_episode(
        &core.graph,
        &core.sketches[0],
        &core.plans()[0],
        &mut agent,
        &cost,
        &cfg,
        &[],
        core.analyzer(),
        &mut ScoringPipeline::default(),
        &Tracer::disabled(),
        &mut rng,
    );
    assert!(episode.visited.len() > cfg.tracks_per_round * cfg.action_samples);

    let k = cfg.measure_per_round;
    let per_track_cap = (k / 8).max(2);
    // the walk as it was: every visit a schedule, the tuples sorted
    let eager = |core: &SearchCore<'_>| {
        let mut slot = Schedule::default();
        let mut scored: Vec<(f64, Schedule, usize)> = (0..episode.visited.len())
            .map(|i| {
                let s = episode.schedule(i, &core.sketches[0], &core.plans()[0], &mut slot);
                (
                    episode.visited[i].score,
                    s.clone(),
                    episode.visited[i].track,
                )
            })
            .collect();
        scored.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal));
        let mut track_counts = std::collections::HashMap::new();
        let mut picks = Picks::new(k);
        for pass in 0..2 {
            for (_, s, track) in &scored {
                if picks.is_full() {
                    break;
                }
                if pass == 0 && track_counts.get(track).copied().unwrap_or(0) >= per_track_cap {
                    continue;
                }
                if core.pick(&mut picks, s) {
                    *track_counts.entry(*track).or_insert(0) += 1;
                }
            }
        }
        picks.schedules
    };
    let lazy = |core: &SearchCore<'_>| {
        let mut picks = Picks::new(k);
        pick_top_k(core, &episode, 0, &mut picks, per_track_cap);
        picks.schedules
    };

    let first = lazy(&core);
    assert_eq!(first.len(), k);
    assert_eq!(first, eager(&core));
    // measured schedules are skipped: the second round's walk goes deeper
    for s in &first {
        core.measure(s);
    }
    let second = lazy(&core);
    assert_eq!(second, eager(&core));
    assert!(second.iter().all(|s| !first.contains(s)));
}

// --- the episode's window bound -------------------------------------------

#[test]
fn an_episode_that_eliminates_nobody_stops_after_the_window_bound() {
    // ρ = 0 drops no track at any elimination, so only the episode's cap
    // of 64 windows of λ steps each (`MAX_WINDOWS`) ends it
    let cfg = HarlConfig {
        rho: 0.0,
        ..HarlConfig::tiny()
    };
    assert!(cfg.validate().is_ok());
    let measurer = Measurer::new(Hardware::cpu(), MeasureConfig::default());
    let core = SearchCore::new(harl_repro::ir::workload::gemm(256, 256, 256), &measurer);
    let mut rng = StdRng::seed_from_u64(7);
    let heads = [ActionSpace::of(&core.sketches[0]).tile_actions(), 3, 3, 3];
    let mut agent = PpoAgent::new(FEATURE_DIM, &heads, cfg.ppo.clone(), &mut rng);
    let episode = run_episode(
        &core.graph,
        &core.sketches[0],
        &core.plans()[0],
        &mut agent,
        &CostModel::new(cfg.gbt.clone()),
        &cfg,
        &[],
        core.analyzer(),
        &mut ScoringPipeline::default(),
        &Tracer::disabled(),
        &mut rng,
    );
    assert_eq!(episode.steps, cfg.lambda * 64);
}
