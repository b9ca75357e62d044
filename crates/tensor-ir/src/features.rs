//! Schedule feature extraction.
//!
//! One fixed-length vector per (subgraph, sketch, schedule) triple, shared
//! by the XGBoost-style cost model (as in Ansor) and by the PPO networks as
//! the RL state observation. All magnitudes are log-compressed so trees and
//! MLPs both see well-scaled inputs.

use crate::schedule::{working_set_bytes, Schedule};
use crate::sketch::{Sketch, Target};
use crate::stage::{InputAccess, IterKind, Subgraph};

/// Maximum number of flattened tiled loops encoded positionally
/// (C3D on GPU needs 5*5 + 4*3 = 37).
pub const MAX_LOOPS: usize = 40;

/// Maximum number of tiled iterators of a sketch: each has at least two
/// levels, so more could not be encoded positionally either.
pub const MAX_TILED_ITERS: usize = MAX_LOOPS / 2;

/// Length of the feature vector.
pub const FEATURE_DIM: usize = MAX_LOOPS + 24;

fn log2p(x: f64) -> f32 {
    (x.max(0.0) + 1.0).log2() as f32
}

/// Integer-argument variant of [`log2p`], served from the exact lookup table
/// in `harl-simd`. For any `x: u64`, `(x as f64).max(0.0) == x as f64`, so
/// `log2p_int(x)` is bit-identical to `log2p(x as f64)` by construction
/// (the table entries are computed by the same scalar expression).
fn log2p_int(x: u64) -> f32 {
    harl_simd::log2p_int(x)
}

fn flag(on: bool) -> f32 {
    if on {
        1.0
    } else {
        0.0
    }
}

/// Extracts the feature vector for a schedule.
pub fn extract_features(
    graph: &Subgraph,
    sketch: &Sketch,
    target: Target,
    schedule: &Schedule,
) -> Vec<f32> {
    let mut f = Vec::new();
    extract_features_into(graph, sketch, target, schedule, &mut f);
    f
}

/// Extracts the feature vector into a caller-provided buffer (cleared and
/// resized to [`FEATURE_DIM`] first). One-shot: it builds the
/// [`FeaturePlan`] it extracts through, so a loop over many schedules of
/// one sketch should build the plan once instead.
pub fn extract_features_into(
    graph: &Subgraph,
    sketch: &Sketch,
    target: Target,
    schedule: &Schedule,
    f: &mut Vec<f32>,
) {
    FeaturePlan::new(graph, sketch, target).extract_into(schedule, f);
}

/// Tile geometry of one schedule: what the working-set and unroll
/// features are computed from, and what lints V003/V004 judge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileStats {
    /// Working-set bytes of the tiles keeping the deepest 1, 2 and 3
    /// levels of every iterator ([`Schedule::tile_working_set`]).
    pub working_set: [u64; 3],
    /// Size of the loop body auto-unroll sees
    /// ([`Schedule::inner_body_size`]).
    pub body: u64,
}

/// Everything about a (subgraph, sketch, target) triple that feature
/// extraction needs and no schedule changes, derived once: a search scores
/// hundreds of candidates of one sketch per measured trial. Owns its data,
/// so a searcher keeps one plan per sketch next to the sketches.
#[derive(Debug, Clone)]
pub struct FeaturePlan {
    target: Target,
    /// A feature row holding the eleven cells that depend on the triple
    /// alone; every other cell is overwritten per schedule.
    template: [f32; FEATURE_DIM],
    flops: f64,
    /// Compute-at candidate positions, at least 1: the divisor of the
    /// normalized position.
    compute_at_slots: f32,
    rfactor: bool,
    anchor_has_reduction: bool,
    /// The anchor's input accesses (names dropped).
    inputs: Vec<InputAccess>,
    /// Tiled iterator of each anchor iterator.
    tiled_of_iter: Vec<Option<usize>>,
    /// Spatial tiled iterators, in loop order.
    spatial: Vec<usize>,
    /// Reduction tiled iterators, in loop order.
    reduction: Vec<usize>,
}

impl FeaturePlan {
    /// The plan of `sketch`, a sketch of `graph` on `target`.
    pub fn new(graph: &Subgraph, sketch: &Sketch, target: Target) -> Self {
        assert!(
            sketch.tiled_iters.len() <= MAX_TILED_ITERS,
            "{} tiled iterators, MAX_TILED_ITERS = {MAX_TILED_ITERS}",
            sketch.tiled_iters.len()
        );
        let anchor = graph.anchor_stage();
        let flops = graph.flops();
        let bytes = (graph.input_bytes() + graph.output_bytes()) as f64;

        let mut template = [0.0; FEATURE_DIM];
        let base = MAX_LOOPS;
        template[base] = log2p(flops);
        template[base + 1] = log2p_int(anchor.output_elems());
        template[base + 2] = log2p_int(anchor.reduction_elems());
        template[base + 3] = log2p(flops / bytes.max(1.0)); // arithmetic intensity
        template[base + 12] = flag(sketch.fused_consumer.is_some());
        // structure flags
        template[base + 16] = flag(sketch.cache_write);
        template[base + 17] = flag(sketch.rfactor);
        template[base + 18] = sketch.inlined.len() as f32;
        template[base + 19] = flag(target == Target::Gpu);
        template[base + 22] = sketch.num_loops() as f32 / MAX_LOOPS as f32;
        template[base + 23] = log2p_int(anchor.inputs.len() as u64);

        FeaturePlan {
            target,
            template,
            flops,
            compute_at_slots: sketch.compute_at_candidates.len().max(1) as f32,
            rfactor: sketch.rfactor,
            anchor_has_reduction: anchor.reduction_elems() > 1,
            inputs: (anchor.inputs.iter())
                .map(|a| InputAccess {
                    name: String::new(),
                    dims: a.dims.clone(),
                    elem_bytes: a.elem_bytes,
                })
                .collect(),
            tiled_of_iter: (0..anchor.iters.len())
                .map(|i| sketch.tiled_iters.iter().position(|t| t.iter == i))
                .collect(),
            spatial: sketch.iters_of(IterKind::Spatial).collect(),
            reduction: sketch.iters_of(IterKind::Reduction).collect(),
        }
    }

    /// The target the plan was built for.
    pub fn target(&self) -> Target {
        self.target
    }

    /// Whether the anchor stage reduces over more than one element.
    pub fn anchor_has_reduction(&self) -> bool {
        self.anchor_has_reduction
    }

    /// Tile geometry of `schedule`, which must have the sketch's shape
    /// (lint V001).
    pub fn tile_stats(&self, schedule: &Schedule) -> TileStats {
        // `inner[k][d - 1]`: what `Schedule::inner_extent` gives for the
        // deepest `d` levels of tiled iterator `k` (all of them when it
        // has fewer), from one pass over each factor list
        let mut inner = [[1u64; 3]; MAX_TILED_ITERS];
        for (inner, factors) in inner.iter_mut().zip(&schedule.tiles) {
            let mut deepest_first = factors.iter().rev();
            let mut extent = 1u64;
            for cell in inner {
                extent *= deepest_first.next().map_or(1, |&f| f as u64);
                *cell = extent;
            }
        }
        TileStats {
            working_set: working_set_bytes(
                &self.inputs,
                |iter_idx| self.tiled_of_iter.get(iter_idx).copied().flatten(),
                |k| inner[k],
                self.spatial.iter().copied(),
            ),
            body: schedule.inner_body_size(),
        }
    }

    /// Extracts the feature vector of `schedule` into `f` (cleared and
    /// resized to [`FEATURE_DIM`] first), so hot scoring loops can reuse
    /// one allocation per candidate batch instead of allocating per
    /// candidate.
    pub fn extract_into(&self, schedule: &Schedule, f: &mut Vec<f32>) {
        f.clear();
        f.extend_from_slice(&self.template);

        // --- positional: log2 of every tile factor --------------------------
        let mut slot = 0;
        for tiles in &schedule.tiles {
            for &factor in tiles {
                if slot < MAX_LOOPS {
                    f[slot] = log2p_int(factor as u64);
                }
                slot += 1;
            }
        }
        // Factors past MAX_LOOPS are dropped on the floor above. The constant is
        // sized for the worst known sketch (C3D on GPU: 5*5 + 4*3 = 37 loops);
        // trip this in debug builds if a new workload silently outgrows it.
        debug_assert!(
            slot <= MAX_LOOPS,
            "schedule has {slot} flattened tile factors but MAX_LOOPS = {MAX_LOOPS}; \
             positional features past the limit are silently truncated"
        );

        let base = MAX_LOOPS;
        let spatial = || self.spatial.iter().copied();

        // vectorization-related: innermost factor of the innermost spatial iter
        let innermost_spatial = self.spatial.last().map_or(1, |&k| schedule.innermost(k));
        f[base + 4] = log2p_int(innermost_spatial as u64);
        f[base + 5] = flag(innermost_spatial.is_multiple_of(8));
        f[base + 6] = flag(innermost_spatial.is_multiple_of(16));

        // parallelism ([`Schedule::parallel_tasks`] × [`Schedule::rfactor_tasks`])
        let parallel = schedule.outer_product(spatial().take(schedule.parallel_fuse));
        let rfactor = if self.rfactor {
            schedule.outer_product(self.reduction.iter().copied())
        } else {
            1
        };
        let tasks = parallel.max(1) * rfactor.max(1);
        f[base + 7] = log2p_int(tasks);
        f[base + 8] = schedule.parallel_fuse as f32;

        // unroll
        let tile = self.tile_stats(schedule);
        f[base + 9] = log2p_int(schedule.unroll_depth(self.target) as u64);
        f[base + 10] = log2p_int(tile.body);

        // compute-at position (normalized)
        f[base + 11] = schedule.compute_at as f32 / self.compute_at_slots;

        // working sets at three tile depths
        for (cell, &bytes) in f[base + 13..base + 16].iter_mut().zip(&tile.working_set) {
            *cell = log2p_int(bytes);
        }

        // per-task grain (work per parallel task)
        f[base + 20] = log2p(self.flops / tasks as f64);
        // outermost tile factor product over all spatial iterators
        f[base + 21] = log2p_int(schedule.outer_product(spatial()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sketch::generate_sketches;
    use crate::workload::{conv2d, gemm};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn feature_dim_is_stable() {
        let mut rng = StdRng::seed_from_u64(21);
        for g in [gemm(1024, 1024, 1024), conv2d(1, 56, 56, 64, 64, 3, 1, 1)] {
            for t in [Target::Cpu, Target::Gpu] {
                for sk in generate_sketches(&g, t) {
                    let s = Schedule::random(&sk, t, &mut rng);
                    let f = extract_features(&g, &sk, t, &s);
                    assert_eq!(f.len(), FEATURE_DIM);
                    assert!(f.iter().all(|x| x.is_finite()));
                }
            }
        }
    }

    #[test]
    fn features_distinguish_schedules() {
        let g = gemm(1024, 512, 256);
        let sk = &generate_sketches(&g, Target::Cpu)[0];
        let mut rng = StdRng::seed_from_u64(22);
        let a = Schedule::random(sk, Target::Cpu, &mut rng);
        let mut b = a.clone();
        b.unroll_idx = (b.unroll_idx + 1) % Target::Cpu.unroll_depths().len();
        let fa = extract_features(&g, sk, Target::Cpu, &a);
        let fb = extract_features(&g, sk, Target::Cpu, &b);
        assert_ne!(fa, fb);
    }

    #[test]
    fn extract_into_reuses_buffer_and_matches_owned() {
        let g = gemm(1024, 512, 256);
        let sk = &generate_sketches(&g, Target::Cpu)[0];
        let mut rng = StdRng::seed_from_u64(29);
        let mut buf = vec![7.0f32; 3]; // stale, wrong-sized contents
        for _ in 0..10 {
            let s = Schedule::random(sk, Target::Cpu, &mut rng);
            extract_features_into(&g, sk, Target::Cpu, &s, &mut buf);
            assert_eq!(buf, extract_features(&g, sk, Target::Cpu, &s));
        }
    }

    #[test]
    fn max_loops_covers_c3d_gpu_worst_case() {
        // The deepest known sketch: C3D on GPU tiles 5 spatial iterators at
        // 5 levels and 4 reduction iterators at 3 levels = 37 flattened
        // factors. MAX_LOOPS must keep headroom over it, and extraction must
        // not trip the truncation debug_assert.
        use crate::workload::conv3d;
        let g = conv3d(1, 16, 56, 56, 64, 64, 3, 1, 1);
        let mut rng = StdRng::seed_from_u64(37);
        let mut worst = 0usize;
        for sk in generate_sketches(&g, Target::Gpu) {
            let s = Schedule::random(&sk, Target::Gpu, &mut rng);
            let slots: usize = s.tiles.iter().map(Vec::len).sum();
            worst = worst.max(slots);
            let f = extract_features(&g, &sk, Target::Gpu, &s);
            assert_eq!(f.len(), FEATURE_DIM);
        }
        assert_eq!(worst, 37, "C3D-GPU flattened loop count changed");
        assert!(worst <= MAX_LOOPS);
    }

    #[test]
    fn log2p_int_matches_float_log2p_bitwise() {
        for x in (0u64..5000).chain([u64::MAX / 2, u64::MAX]) {
            assert_eq!(
                log2p_int(x).to_bits(),
                log2p(x as f64).to_bits(),
                "log2p_int({x}) diverged from log2p"
            );
        }
    }

    #[test]
    fn deterministic_extraction() {
        let g = gemm(512, 512, 512);
        let sk = &generate_sketches(&g, Target::Cpu)[0];
        let mut rng = StdRng::seed_from_u64(23);
        let s = Schedule::random(sk, Target::Cpu, &mut rng);
        assert_eq!(
            extract_features(&g, sk, Target::Cpu, &s),
            extract_features(&g, sk, Target::Cpu, &s)
        );
    }
}
