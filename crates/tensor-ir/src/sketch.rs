//! Sketch generation — the high-level program structures of Table 2
//! (rules adopted from Ansor).
//!
//! A sketch fixes *structure* (which stages are inlined, whether the
//! consumer is fused into the anchor's tiles, cache-write, rfactor, and the
//! multi-level tiling shape) while leaving all numeric parameters (tile
//! sizes, compute-at position, parallel fusion count, unroll depth) to the
//! low-level parameter search.

use serde::{Deserialize, Serialize};

use crate::stage::{IterKind, Subgraph};

/// Target platform. Determines the tiling structure ("SSRSRS" on CPU,
/// one extra spatial and reduction level on GPU, matching Ansor) and the
/// auto-unroll depth list from Appendix A.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Target {
    /// Multicore CPU (AVX-style SIMD; "SSRSRS" 4+2-level tiling).
    Cpu,
    /// SIMT GPU (one extra spatial and reduction tile level).
    Gpu,
}

impl Target {
    /// Number of tile levels for spatial iterators.
    pub fn spatial_levels(self) -> usize {
        match self {
            Target::Cpu => 4,
            Target::Gpu => 5,
        }
    }

    /// Number of tile levels for reduction iterators.
    pub fn reduction_levels(self) -> usize {
        match self {
            Target::Cpu => 2,
            Target::Gpu => 3,
        }
    }

    /// Auto-unroll depth list (Appendix A.1).
    pub fn unroll_depths(self) -> &'static [u32] {
        match self {
            Target::Cpu => &[0, 16, 64, 512],
            Target::Gpu => &[0, 16, 64, 512, 1024],
        }
    }

    /// Deepest tile level a fused / cache-write stage may be computed at.
    /// When the anchor carries a reduction, its reduction loops nest inside
    /// the second-innermost spatial level, so fusing deeper than
    /// `spatial_levels - 2` would place the stage inside the reduction
    /// scope where it reads partial accumulations.
    pub fn max_fuse_level(self, anchor_has_reduction: bool) -> usize {
        if anchor_has_reduction {
            self.spatial_levels() - 2
        } else {
            self.spatial_levels() - 1
        }
    }
}

/// One multi-level-tiled iterator of the anchor stage.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TiledIter {
    /// Index into the anchor stage's iterator list.
    pub iter: usize,
    /// Number of tile levels (= factor slots in the schedule).
    pub levels: usize,
    /// Spatial or reduction (copied from the anchor iterator).
    pub kind: IterKind,
    /// Loop extent (copied from the anchor iterator).
    pub extent: u32,
}

/// Where a fused stage may be computed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ComputeAt {
    /// Standalone loop nest (no fusion).
    Root,
    /// Inside the anchor's tile structure, after the given spatial tile
    /// level (1 = outermost tile boundary).
    TileLevel(usize),
}

/// A program sketch for one subgraph.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Sketch {
    /// Index of this sketch within the subgraph's sketch list.
    pub id: usize,
    /// Human-readable derivation, e.g. `"tile;fuse(relu);rfactor"`.
    pub desc: String,
    /// Multi-level tiling of the anchor stage (spatial iters first).
    pub tiled_iters: Vec<TiledIter>,
    /// Stages inlined into their consumers (Table 2 inline rule).
    pub inlined: Vec<usize>,
    /// Anchor consumer fused into the tile structure, if any.
    pub fused_consumer: Option<usize>,
    /// Cache-write rule applied (data reuse, no consumer).
    pub cache_write: bool,
    /// rfactor rule applied (reduction parallelism).
    pub rfactor: bool,
    /// Candidate compute-at positions for the fused / cache-write stage.
    /// Always non-empty; `[Root]` when nothing is fused.
    pub compute_at_candidates: Vec<ComputeAt>,
}

impl Sketch {
    /// Total number of tiled loops (the paper's `num_iters`): the flattened
    /// list over which the tiling modification's `(i, j)` pairs range.
    pub fn num_loops(&self) -> usize {
        self.tiled_iters.iter().map(|t| t.levels).sum()
    }

    /// Maps a flattened loop position to `(tiled_iter index, level)`.
    pub fn loop_position(&self, flat: usize) -> Option<(usize, usize)> {
        let mut off = 0;
        for (ti, t) in self.tiled_iters.iter().enumerate() {
            if flat < off + t.levels {
                return Some((ti, flat - off));
            }
            off += t.levels;
        }
        None
    }

    /// Indices of the tiled iterators of `kind`, in loop order.
    pub fn iters_of(&self, kind: IterKind) -> impl Iterator<Item = usize> + '_ {
        (0..self.tiled_iters.len()).filter(move |&k| self.tiled_iters[k].kind == kind)
    }

    /// Number of spatial tiled iterators (outer parallel candidates).
    pub fn num_spatial_iters(&self) -> usize {
        self.iters_of(IterKind::Spatial).count()
    }
}

/// Generates every sketch of `graph` for `target` by applying the rules of
/// Table 2 in derivation order. Returns at least one sketch for any valid
/// subgraph.
pub fn generate_sketches(graph: &Subgraph, target: Target) -> Vec<Sketch> {
    let anchor = graph.anchor_stage();
    let sl = target.spatial_levels();
    let rl = target.reduction_levels();

    // Multi-level tiling rule: spatial iterators get `sl` levels, reduction
    // iterators `rl` levels. Iterators of extent 1 still occupy slots so the
    // action space stays rectangular per sketch.
    let tiled_iters: Vec<TiledIter> = anchor
        .iters
        .iter()
        .enumerate()
        .map(|(i, iv)| TiledIter {
            iter: i,
            levels: if iv.kind == IterKind::Spatial { sl } else { rl },
            kind: iv.kind,
            extent: iv.extent,
        })
        .collect();

    // Inline rule: every inlinable elementwise stage is inlined (the "skip"
    // rule keeps non-inlinable stages out of this list).
    let inlined = graph.inlinable_stages();

    let consumers = graph.anchor_consumers();
    // A consumer that is itself inlined into a later stage is fused through
    // that stage; we fuse the last consumer in topological order.
    let fusable = consumers.iter().copied().max();

    let has_reduction = anchor.reduction_elems() > 1;
    // Fusion legality: stop at the reduction boundary so fused stages never
    // observe partial accumulations (lint V005 enforces the same rule).
    let tile_level_candidates: Vec<ComputeAt> = (1..=target.max_fuse_level(has_reduction))
        .map(ComputeAt::TileLevel)
        .collect();

    let mut sketches = Vec::new();
    let mut push = |desc: String,
                    fused: Option<usize>,
                    cache_write: bool,
                    rfactor: bool,
                    candidates: Vec<ComputeAt>| {
        let id = sketches.len();
        sketches.push(Sketch {
            id,
            desc,
            tiled_iters: tiled_iters.clone(),
            inlined: inlined.clone(),
            fused_consumer: fused,
            cache_write,
            rfactor,
            compute_at_candidates: if candidates.is_empty() {
                vec![ComputeAt::Root]
            } else {
                candidates
            },
        });
    };

    // rfactor rule precondition: enough reduction work to parallelize.
    let rfactor_ok = anchor.reduction_elems() >= 16;

    match fusable {
        Some(c) => {
            // Tile-and-fuse rule (data reuse + consumer).
            push(
                format!("tile;fuse({})", graph.stages[c].name),
                Some(c),
                false,
                false,
                tile_level_candidates.clone(),
            );
            // Unfused variant: consumer at root.
            push(
                "tile;consumer-at-root".into(),
                Some(c),
                false,
                false,
                vec![ComputeAt::Root],
            );
            if has_reduction && rfactor_ok {
                push(
                    format!("tile;fuse({});rfactor", graph.stages[c].name),
                    Some(c),
                    false,
                    true,
                    tile_level_candidates,
                );
            }
        }
        None => {
            // Plain multi-level tiling.
            push("tile".into(), None, false, false, vec![ComputeAt::Root]);
            // Cache-write rule (data reuse, no consumer): the cache stage
            // can be positioned at any tile level.
            if anchor.has_data_reuse() {
                push(
                    "tile;cache-write".into(),
                    None,
                    true,
                    false,
                    tile_level_candidates.clone(),
                );
            }
            if has_reduction && rfactor_ok {
                push(
                    "tile;rfactor".into(),
                    None,
                    false,
                    true,
                    vec![ComputeAt::Root],
                );
            }
        }
    }

    sketches
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{conv2d_bn_relu, elementwise, gemm, softmax};

    #[test]
    fn gemm_has_three_sketches_as_in_paper() {
        // §4.1: "For a matrix multiplication subgraph, the number of
        // sketches is 3."
        let g = gemm(1024, 1024, 1024);
        let sk = generate_sketches(&g, Target::Cpu);
        assert_eq!(sk.len(), 3);
        assert!(sk.iter().any(|s| s.cache_write));
        assert!(sk.iter().any(|s| s.rfactor));
    }

    #[test]
    fn gemm_cpu_num_loops_matches_footnote() {
        // 2 spatial iterators x 4 levels + 1 reduction x 2 levels = 10
        let g = gemm(1024, 1024, 1024);
        let sk = generate_sketches(&g, Target::Cpu);
        assert_eq!(sk[0].num_loops(), 10);
    }

    #[test]
    fn fused_subgraph_sketches() {
        let g = conv2d_bn_relu(1, 56, 56, 64, 64, 3, 1, 1);
        let sk = generate_sketches(&g, Target::Cpu);
        assert!(sk.len() >= 2);
        assert!(sk.iter().any(|s| s.fused_consumer.is_some()
            && s.compute_at_candidates
                .iter()
                .any(|c| matches!(c, ComputeAt::TileLevel(_)))));
    }

    #[test]
    fn elementwise_gets_single_tile_sketch() {
        let g = elementwise(128, 768, 4.0);
        let sk = generate_sketches(&g, Target::Cpu);
        assert!(!sk.is_empty());
        assert!(sk.iter().all(|s| !s.rfactor), "no reduction → no rfactor");
    }

    #[test]
    fn softmax_sketches_fuse_normalizer() {
        let g = softmax(1536, 128);
        let sk = generate_sketches(&g, Target::Cpu);
        assert!(sk.iter().any(|s| s.fused_consumer == Some(1)));
    }

    #[test]
    fn gpu_has_more_levels() {
        let g = gemm(512, 512, 512);
        let cpu = generate_sketches(&g, Target::Cpu);
        let gpu = generate_sketches(&g, Target::Gpu);
        assert!(gpu[0].num_loops() > cpu[0].num_loops());
        assert_eq!(gpu[0].num_loops(), 2 * 5 + 3);
    }

    #[test]
    fn fusion_candidates_stop_at_reduction_boundary() {
        let g = conv2d_bn_relu(1, 28, 28, 32, 32, 3, 1, 1);
        for target in [Target::Cpu, Target::Gpu] {
            let max = target.max_fuse_level(true);
            assert_eq!(max, target.spatial_levels() - 2);
            let mut saw_tile_level = false;
            for sk in generate_sketches(&g, target) {
                for c in &sk.compute_at_candidates {
                    if let ComputeAt::TileLevel(l) = c {
                        saw_tile_level = true;
                        assert!(
                            (1..=max).contains(l),
                            "candidate level {l} crosses the reduction boundary (max {max})"
                        );
                    }
                }
            }
            assert!(
                saw_tile_level,
                "fused sketches still offer tile-level candidates"
            );
        }
    }

    #[test]
    fn loop_position_roundtrip() {
        let g = gemm(256, 256, 256);
        let sk = &generate_sketches(&g, Target::Cpu)[0];
        let mut seen = Vec::new();
        for f in 0..sk.num_loops() {
            seen.push(sk.loop_position(f).expect("in range"));
        }
        assert_eq!(seen.len(), 10);
        assert!(sk.loop_position(sk.num_loops()).is_none());
        assert_eq!(seen[0], (0, 0));
        assert_eq!(seen[9], (2, 1));
    }
}
