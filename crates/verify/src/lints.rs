//! The built-in schedule lints (V001–V005).
//!
//! V006 (non-finite search values) lives in the crate root as
//! [`crate::check_finite`]: it guards scalars inside the search
//! algorithms, not schedule components, so it has no [`ScheduleLint`]
//! instance.

use harl_tensor_ir::{ComputeAt, IterKind};

use crate::{Component, LintCode, LintContext, LintSink, ScheduleLint};

/// V001 — the shape lint: tile factor lists must match the sketch's tiled
/// iterators level-for-level, contain no zero factor, and multiply to the
/// iterator extent; the parallel-fuse count and unroll index must be in
/// range. Subsumes `Schedule::validate` and runs first so later lints can
/// index the tile lists safely.
pub struct TileFactorizationLint;

impl ScheduleLint for TileFactorizationLint {
    fn code(&self) -> LintCode {
        LintCode::TileFactorization
    }

    fn requires_well_formed(&self) -> bool {
        false
    }

    fn check(&self, ctx: &LintContext<'_>, out: &mut LintSink<'_>) {
        let s = ctx.schedule;
        let sk = ctx.sketch;
        if s.tiles.len() != sk.tiled_iters.len() {
            out.report(self.code(), Component::Schedule, || {
                format!(
                    "tile list length {} != tiled iterator count {}",
                    s.tiles.len(),
                    sk.tiled_iters.len()
                )
            });
        }
        for (k, t) in sk.tiled_iters.iter().enumerate().take(s.tiles.len()) {
            let factors = &s.tiles[k];
            if factors.len() != t.levels {
                out.report(self.code(), Component::TiledIter(k), || {
                    format!(
                        "iterator {k} has {} levels, expected {}",
                        factors.len(),
                        t.levels
                    )
                });
                continue;
            }
            if factors.contains(&0) {
                out.report(self.code(), Component::TiledIter(k), || {
                    format!("iterator {k} has a zero tile factor")
                });
                continue;
            }
            let prod: u64 = factors.iter().map(|&f| f as u64).product();
            if prod != t.extent as u64 {
                out.report(self.code(), Component::TiledIter(k), || {
                    format!(
                        "iterator {k} factors multiply to {prod}, extent is {}",
                        t.extent
                    )
                });
            }
        }
        if s.parallel_fuse == 0 {
            out.report(self.code(), Component::ParallelFuse, || {
                "parallel_fuse is 0; at least one outer loop must remain".into()
            });
        }
        let n_unroll = ctx.target.unroll_depths().len();
        if s.unroll_idx >= n_unroll {
            out.report(self.code(), Component::Unroll, || {
                format!("unroll index {} out of range 0..{n_unroll}", s.unroll_idx)
            });
        }
    }
}

/// V002 — the race lint: the fused parallel outer band (the first
/// `parallel_fuse` tiled iterators, in order) must not cover a
/// reduction-carrying iterator. Concurrent tasks would read-modify-write
/// the same accumulator. The rfactor rule is the one legal escape: it
/// gives each parallel reduction chunk a private partial buffer.
pub struct ParallelReductionRaceLint;

impl ScheduleLint for ParallelReductionRaceLint {
    fn code(&self) -> LintCode {
        LintCode::ParallelReductionRace
    }

    fn requires_well_formed(&self) -> bool {
        false
    }

    fn check(&self, ctx: &LintContext<'_>, out: &mut LintSink<'_>) {
        let sk = ctx.sketch;
        let pf = ctx.schedule.parallel_fuse;
        let ns = sk.num_spatial_iters().max(1);
        let band = pf.min(sk.tiled_iters.len());
        let mut raced = false;
        for (k, t) in sk.tiled_iters.iter().enumerate().take(band) {
            if t.kind == IterKind::Reduction && !sk.rfactor {
                raced = true;
                out.report(self.code(), Component::TiledIter(k), || {
                    format!(
                        "fused parallel band of {pf} loops covers reduction iterator {k}: \
                         concurrent tasks race on the accumulator (no rfactor)"
                    )
                });
            }
        }
        if pf > ns && !raced {
            out.report(self.code(), Component::ParallelFuse, || {
                format!("parallel_fuse {pf} exceeds the {ns} fusable spatial iterator(s)")
            });
        }
    }
}

/// V003 — the footprint lint: a depth-2 tile should fit the innermost
/// cache (CPU L1 / GPU shared memory) and a depth-3 tile the L2. An
/// over-subscribed tile is legal but thrashes, so this lint only warns.
pub struct CacheFootprintLint;

impl ScheduleLint for CacheFootprintLint {
    fn code(&self) -> LintCode {
        LintCode::CacheOverSubscription
    }

    fn check(&self, ctx: &LintContext<'_>, out: &mut LintSink<'_>) {
        let [_, ws_l1, ws_l2] = ctx.tile_stats().working_set;
        if ws_l1 > ctx.budget.l1_bytes {
            out.report(self.code(), Component::Schedule, || {
                format!(
                    "depth-2 tile working set {ws_l1} B exceeds the {} B innermost-cache budget",
                    ctx.budget.l1_bytes
                )
            });
        }
        if ws_l2 > ctx.budget.l2_bytes {
            out.report(self.code(), Component::Schedule, || {
                format!(
                    "depth-3 tile working set {ws_l2} B exceeds the {} B L2 budget",
                    ctx.budget.l2_bytes
                )
            });
        }
    }
}

/// V004 — the unroll lint: an auto-unroll depth at or above the innermost
/// loop-body size fully unrolls the body and pads the instruction stream
/// for nothing; deeper settings only bloat compile time. Legal but
/// pointless, so this lint warns.
pub struct DegenerateUnrollLint;

impl ScheduleLint for DegenerateUnrollLint {
    fn code(&self) -> LintCode {
        LintCode::DegenerateUnroll
    }

    fn check(&self, ctx: &LintContext<'_>, out: &mut LintSink<'_>) {
        let depth = ctx.schedule.unroll_depth(ctx.target);
        let body = ctx.tile_stats().body.max(1);
        if depth > 0 && depth as u64 >= body {
            out.report(self.code(), Component::Unroll, || {
                format!("unroll depth {depth} ≥ innermost body size {body}: degenerate unroll")
            });
        }
    }
}

/// V005 — the fusion lint: the compute-at position must index a real
/// candidate, and fusing a stage at a tile level inside the anchor's
/// reduction scope is illegal — the fused consumer would read partial
/// accumulations. With the anchor carrying a reduction, the deepest legal
/// fusion level is `spatial_levels − 2` (the reduction loops nest inside
/// the level below it).
pub struct ComputeAtLint;

impl ScheduleLint for ComputeAtLint {
    fn code(&self) -> LintCode {
        LintCode::IllegalComputeAt
    }

    fn requires_well_formed(&self) -> bool {
        false
    }

    fn check(&self, ctx: &LintContext<'_>, out: &mut LintSink<'_>) {
        let sk = ctx.sketch;
        let ca = ctx.schedule.compute_at;
        let n = sk.compute_at_candidates.len();
        if n == 0 {
            if ca != 0 {
                out.report(self.code(), Component::ComputeAt, || {
                    format!("compute_at {ca} but the sketch has no candidate positions")
                });
            }
            return;
        }
        if ca >= n {
            out.report(self.code(), Component::ComputeAt, || {
                format!("compute_at index {ca} out of range 0..{n}")
            });
            return;
        }
        if let ComputeAt::TileLevel(level) = sk.compute_at_candidates[ca] {
            let sl = ctx.target.spatial_levels();
            let max = ctx.target.max_fuse_level(ctx.plan.anchor_has_reduction());
            if level == 0 || level >= sl {
                out.report(self.code(), Component::ComputeAt, || {
                    format!("compute-at tile level {level} outside the 1..{sl} tile structure")
                });
            } else if level > max {
                out.report(self.code(), Component::ComputeAt, || {
                    format!(
                        "fusion at tile level {level} crosses the reduction boundary \
                         (deepest legal level is {max}): the fused stage would read \
                         partial accumulations"
                    )
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Analyzer, CacheBudget, Diagnostic, Severity};
    use harl_tensor_ir::{generate_sketches, workload, Schedule, Target};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn analyzer() -> Analyzer {
        Analyzer::for_target(Target::Cpu)
    }

    fn gemm_setup() -> (
        harl_tensor_ir::Subgraph,
        Vec<harl_tensor_ir::Sketch>,
        StdRng,
    ) {
        let g = workload::gemm(256, 256, 256);
        let sk = generate_sketches(&g, Target::Cpu);
        (g, sk, StdRng::seed_from_u64(41))
    }

    fn findings_of(
        a: &Analyzer,
        g: &harl_tensor_ir::Subgraph,
        sk: &harl_tensor_ir::Sketch,
        s: &Schedule,
        code: LintCode,
    ) -> Vec<Diagnostic> {
        a.analyze(g, sk, Target::Cpu, s)
            .into_iter()
            .filter(|d| d.code == code)
            .collect()
    }

    #[test]
    fn v001_catches_zero_factor_and_bad_product() {
        let (g, sks, mut rng) = gemm_setup();
        let sk = &sks[0];
        let a = analyzer();

        let mut s = Schedule::random(sk, Target::Cpu, &mut rng);
        s.tiles[0][1] = 0;
        let f = findings_of(&a, &g, sk, &s, LintCode::TileFactorization);
        assert!(!f.is_empty() && f[0].severity == Severity::Error);
        assert!(f[0].message.contains("zero"), "{}", f[0].message);

        let mut s = Schedule::random(sk, Target::Cpu, &mut rng);
        s.tiles[1][0] *= 2;
        let f = findings_of(&a, &g, sk, &s, LintCode::TileFactorization);
        assert!(f.iter().any(|d| d.message.contains("extent")), "{f:?}");
        assert!(f
            .iter()
            .all(|d| matches!(d.component, Component::TiledIter(1))));
    }

    #[test]
    fn v001_catches_shape_and_index_range() {
        let (g, sks, mut rng) = gemm_setup();
        let sk = &sks[0];
        let a = analyzer();
        let mut s = Schedule::random(sk, Target::Cpu, &mut rng);
        s.tiles[2] = vec![256];
        s.parallel_fuse = 0;
        s.unroll_idx = 77;
        let f = findings_of(&a, &g, sk, &s, LintCode::TileFactorization);
        assert!(f.iter().any(|d| d.message.contains("levels")));
        assert!(f
            .iter()
            .any(|d| matches!(d.component, Component::ParallelFuse)));
        assert!(f.iter().any(|d| matches!(d.component, Component::Unroll)));
    }

    #[test]
    fn v002_flags_parallel_band_over_reduction() {
        let (g, sks, mut rng) = gemm_setup();
        // sketch 0: plain tile (no rfactor). gemm has 2 spatial + 1 reduction
        // iterators; parallel_fuse = 3 drags the reduction into the band.
        let sk = &sks[0];
        assert!(!sk.rfactor);
        let a = analyzer();
        let mut s = Schedule::random(sk, Target::Cpu, &mut rng);
        s.parallel_fuse = 3;
        let f = findings_of(&a, &g, sk, &s, LintCode::ParallelReductionRace);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].severity, Severity::Error);
        assert!(f[0].message.contains("race"), "{}", f[0].message);
    }

    #[test]
    fn v002_rfactor_escapes_the_race_but_not_the_range() {
        let (g, sks, mut rng) = gemm_setup();
        let sk = sks
            .iter()
            .find(|s| s.rfactor)
            .expect("gemm has an rfactor sketch");
        let a = analyzer();
        let mut s = Schedule::random(sk, Target::Cpu, &mut rng);
        s.parallel_fuse = 3;
        let f = findings_of(&a, &g, sk, &s, LintCode::ParallelReductionRace);
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("exceeds"), "{}", f[0].message);
        assert!(!f[0].message.contains("race"));
    }

    #[test]
    fn v003_warns_on_oversized_tiles() {
        let (g, sks, _) = gemm_setup();
        let sk = &sks[0];
        let a = analyzer();
        // keep everything in the innermost level: the depth-2 tile is the
        // whole 256x256x256 problem, far beyond any L1.
        let s = Schedule {
            sketch_id: sk.id,
            tiles: vec![vec![1, 1, 1, 256], vec![1, 1, 1, 256], vec![1, 256]],
            compute_at: 0,
            parallel_fuse: 1,
            unroll_idx: 0,
        };
        let f = findings_of(&a, &g, sk, &s, LintCode::CacheOverSubscription);
        assert!(!f.is_empty());
        assert!(f.iter().all(|d| d.severity == Severity::Warn), "{f:?}");
        // a tiny tile stays quiet
        let s2 = Schedule {
            sketch_id: sk.id,
            tiles: vec![vec![64, 4, 1, 1], vec![64, 2, 2, 1], vec![128, 2]],
            compute_at: 0,
            parallel_fuse: 1,
            unroll_idx: 0,
        };
        assert!(findings_of(&a, &g, sk, &s2, LintCode::CacheOverSubscription).is_empty());
    }

    #[test]
    fn v003_budget_comes_from_hardware() {
        let tight = Analyzer::with_default_lints(CacheBudget {
            l1_bytes: 64,
            l2_bytes: 128,
        });
        let (g, sks, mut rng) = gemm_setup();
        let sk = &sks[0];
        let s = Schedule::random(sk, Target::Cpu, &mut rng);
        // any real gemm tile busts a 64-byte L1
        let f = findings_of(&tight, &g, sk, &s, LintCode::CacheOverSubscription);
        assert!(!f.is_empty());
    }

    #[test]
    fn v004_warns_when_unroll_covers_the_body() {
        let (g, sks, _) = gemm_setup();
        let sk = &sks[0];
        let a = analyzer();
        // innermost body = 2*2*2 = 8 points; depth 16 ≥ 8 → degenerate
        let s = Schedule {
            sketch_id: sk.id,
            tiles: vec![vec![128, 1, 1, 2], vec![128, 1, 1, 2], vec![128, 2]],
            compute_at: 0,
            parallel_fuse: 1,
            unroll_idx: 1,
        };
        let f = findings_of(&a, &g, sk, &s, LintCode::DegenerateUnroll);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].severity, Severity::Warn);
        // depth 0 (no unroll) never fires
        let s0 = Schedule {
            unroll_idx: 0,
            ..s.clone()
        };
        assert!(findings_of(&a, &g, sk, &s0, LintCode::DegenerateUnroll).is_empty());
        // a big body absorbs depth 16
        let s_big = Schedule {
            tiles: vec![vec![8, 1, 1, 32], vec![8, 1, 1, 32], vec![8, 32]],
            unroll_idx: 1,
            ..s
        };
        assert!(findings_of(&a, &g, sk, &s_big, LintCode::DegenerateUnroll).is_empty());
    }

    #[test]
    fn v005_rejects_out_of_range_and_reduction_crossing() {
        let g = workload::conv2d_bn_relu(1, 14, 14, 32, 32, 3, 1, 1);
        let sks = generate_sketches(&g, Target::Cpu);
        let sk = sks
            .iter()
            .find(|s| {
                s.fused_consumer.is_some()
                    && s.compute_at_candidates
                        .iter()
                        .any(|c| matches!(c, harl_tensor_ir::ComputeAt::TileLevel(_)))
            })
            .expect("fused sketch");
        let a = analyzer();
        let mut rng = StdRng::seed_from_u64(43);
        let mut s = Schedule::random(sk, Target::Cpu, &mut rng);
        s.compute_at = sk.compute_at_candidates.len() + 3;
        let f = findings_of(&a, &g, sk, &s, LintCode::IllegalComputeAt);
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("out of range"));

        // forge a sketch whose candidate list reaches into the reduction
        // scope (generate_sketches no longer emits these)
        let mut deep = sk.clone();
        deep.compute_at_candidates = vec![harl_tensor_ir::ComputeAt::TileLevel(
            Target::Cpu.spatial_levels() - 1,
        )];
        let mut s = Schedule::random(&deep, Target::Cpu, &mut rng);
        s.compute_at = 0;
        let f = findings_of(&a, &g, &deep, &s, LintCode::IllegalComputeAt);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(
            f[0].message.contains("reduction boundary"),
            "{}",
            f[0].message
        );
        assert_eq!(f[0].severity, Severity::Error);
    }

    #[test]
    fn v005_allows_deep_fusion_without_reduction() {
        // an elementwise-anchored graph has no reduction: every tile level
        // up to spatial_levels-1 is legal.
        let g = workload::elementwise(256, 256, 2.0);
        let sks = generate_sketches(&g, Target::Cpu);
        let a = analyzer();
        let mut rng = StdRng::seed_from_u64(44);
        for sk in &sks {
            for ca in 0..sk.compute_at_candidates.len() {
                let mut s = Schedule::random(sk, Target::Cpu, &mut rng);
                s.compute_at = ca;
                assert!(
                    findings_of(&a, &g, sk, &s, LintCode::IllegalComputeAt).is_empty(),
                    "candidate {ca} of {:?}",
                    sk.desc
                );
            }
        }
    }

    #[test]
    fn generated_candidates_are_lint_clean_for_fused_reductions() {
        // the coordinated generate_sketches restriction: every emitted
        // compute-at candidate passes V005 even for reduction anchors
        let a = analyzer();
        for g in [
            workload::conv2d_bn_relu(1, 14, 14, 32, 32, 3, 1, 1),
            workload::gemm_epilogue(64, 64, 64, "relu", 1.0),
            workload::gemm(128, 128, 128),
        ] {
            let mut rng = StdRng::seed_from_u64(45);
            for sk in generate_sketches(&g, Target::Cpu) {
                for ca in 0..sk.compute_at_candidates.len() {
                    let mut s = Schedule::random(&sk, Target::Cpu, &mut rng);
                    s.compute_at = ca;
                    assert!(
                        findings_of(&a, &g, &sk, &s, LintCode::IllegalComputeAt).is_empty(),
                        "{} candidate {ca}",
                        sk.desc
                    );
                }
            }
        }
    }
}
