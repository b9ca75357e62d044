//! Semantic execution of scheduled tensor programs.
//!
//! A schedule must never change *what* a tensor program computes — only how
//! fast. This module makes that checkable: [`visit_schedule_order`]
//! enumerates the anchor stage's iteration space in exactly the loop order
//! the schedule's multi-level tiling induces (level-major, spatial before
//! reduction within a level, matching [`crate::pretty`]), and the
//! executors run real arithmetic in that order so tiled results can be
//! compared against the canonical reference.
//!
//! Because tiling factorizations always multiply back to the iterator
//! extents (a [`Schedule`] invariant), every point must be visited exactly
//! once — the tests in this module and the workspace property tests verify
//! both that and numeric equality.

use crate::schedule::Schedule;
use crate::sketch::Sketch;
use crate::stage::{IterKind, Stage};

/// A minimal dense f32 tensor for semantic checks.
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    /// Dimension extents, outermost first.
    pub shape: Vec<usize>,
    /// Row-major element storage.
    pub data: Vec<f32>,
}

impl Tensor {
    /// An all-zero tensor of the given shape.
    pub fn zeros(shape: &[usize]) -> Self {
        let len = shape.iter().product();
        Tensor {
            shape: shape.to_vec(),
            data: vec![0.0; len],
        }
    }

    /// Filled with small deterministic integer-valued floats so that
    /// floating-point addition is exact and reassociation-safe in tests.
    pub fn iota_mod(shape: &[usize], modulus: u32) -> Self {
        let len: usize = shape.iter().product();
        let data = (0..len).map(|i| (i as u32 % modulus) as f32).collect();
        Tensor {
            shape: shape.to_vec(),
            data,
        }
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the tensor holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
}

/// Visits every point of the anchor's iteration space in the schedule's
/// loop order, calling `f` with the full per-iterator index vector.
///
/// The loop order is the one the pretty-printer renders: tile level 0 of
/// all iterators first (spatial before reduction), then level 1, and so
/// on. The index of iterator `k` is reconstructed from its per-level
/// counters as `Σ_level counter[k][level] · inner_extent(k, level+1)`.
pub fn visit_schedule_order(sketch: &Sketch, schedule: &Schedule, mut f: impl FnMut(&[u64])) {
    // Build the flattened loop list in execution order.
    let max_levels = sketch
        .tiled_iters
        .iter()
        .map(|t| t.levels)
        .max()
        .unwrap_or(0);
    let mut loops: Vec<(usize, usize, u64, u64)> = Vec::new(); // (iter k, level, trip, stride)
    for level in 0..max_levels {
        for pass in [IterKind::Spatial, IterKind::Reduction] {
            for (k, t) in sketch.tiled_iters.iter().enumerate() {
                if t.kind != pass || level >= t.levels {
                    continue;
                }
                let trip = schedule.tiles[k][level] as u64;
                let stride = schedule.inner_extent(k, level + 1);
                loops.push((k, level, trip, stride));
            }
        }
    }

    let n_iters = sketch.tiled_iters.len();
    let mut counters = vec![0u64; loops.len()];
    let mut index = vec![0u64; n_iters];
    if loops.is_empty() {
        f(&index);
        return;
    }

    // Odometer over the loop nest.
    'outer: loop {
        // compute index vector from counters
        for v in index.iter_mut() {
            *v = 0;
        }
        for (li, &(k, _, _, stride)) in loops.iter().enumerate() {
            index[k] += counters[li] * stride;
        }
        f(&index);

        // increment the innermost loop, with carry
        let mut li = loops.len();
        loop {
            if li == 0 {
                break 'outer;
            }
            li -= 1;
            counters[li] += 1;
            if counters[li] < loops[li].2 {
                break;
            }
            counters[li] = 0;
        }
    }
}

/// Reference GEMM: `C[m,n] = Σ_k A[m,k]·B[k,n]` in canonical loop order.
pub fn gemm_reference(m: usize, k: usize, n: usize, a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(a.len(), m * k);
    assert_eq!(b.len(), k * n);
    let mut c = Tensor::zeros(&[m, n]);
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for kk in 0..k {
                acc += a.data[i * k + kk] * b.data[kk * n + j];
            }
            c.data[i * n + j] = acc;
        }
    }
    c
}

/// GEMM executed in the *schedule's* loop order. The anchor must be a
/// plain GEMM stage (iterators `m, n, k`).
pub fn gemm_scheduled(
    sketch: &Sketch,
    schedule: &Schedule,
    m: usize,
    k: usize,
    n: usize,
    a: &Tensor,
    b: &Tensor,
) -> Tensor {
    assert_eq!(sketch.tiled_iters.len(), 3, "gemm has iterators m, n, k");
    let mut c = Tensor::zeros(&[m, n]);
    visit_schedule_order(sketch, schedule, |idx| {
        let (i, j, kk) = (idx[0] as usize, idx[1] as usize, idx[2] as usize);
        c.data[i * n + j] += a.data[i * k + kk] * b.data[kk * n + j];
    });
    c
}

/// Counts how many times each point of the iteration space is visited
/// (coverage check helper).
pub fn coverage_counts(sketch: &Sketch, schedule: &Schedule, stage: &Stage) -> Vec<u32> {
    let extents: Vec<u64> = stage.iters.iter().map(|i| i.extent as u64).collect();
    let total: u64 = extents.iter().product();
    let mut counts = vec![0u32; total as usize];
    visit_schedule_order(sketch, schedule, |idx| {
        // row-major flatten over the iterator extents
        let mut flat = 0u64;
        for (d, &v) in idx.iter().enumerate() {
            flat = flat * extents[d] + v;
        }
        counts[flat as usize] += 1;
    });
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sketch::{generate_sketches, Target};
    use crate::workload::gemm;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn every_point_visited_exactly_once() {
        let g = gemm(8, 4, 6);
        let mut rng = StdRng::seed_from_u64(1);
        for sk in generate_sketches(&g, Target::Cpu) {
            for _ in 0..10 {
                let s = Schedule::random(&sk, Target::Cpu, &mut rng);
                let counts = coverage_counts(&sk, &s, g.anchor_stage());
                assert!(
                    counts.iter().all(|&c| c == 1),
                    "sketch {} schedule {s:?} misses or repeats points",
                    sk.desc
                );
            }
        }
    }

    #[test]
    fn tiled_gemm_equals_reference() {
        let (m, k, n) = (8, 16, 12);
        let g = gemm(m as u32, k as u32, n as u32);
        let a = Tensor::iota_mod(&[m, k], 7);
        let b = Tensor::iota_mod(&[k, n], 5);
        let reference = gemm_reference(m, k, n, &a, &b);
        let mut rng = StdRng::seed_from_u64(2);
        for sk in generate_sketches(&g, Target::Cpu) {
            for _ in 0..8 {
                let s = Schedule::random(&sk, Target::Cpu, &mut rng);
                let tiled = gemm_scheduled(&sk, &s, m, k, n, &a, &b);
                assert_eq!(
                    tiled, reference,
                    "schedule changed GEMM semantics (sketch {})",
                    sk.desc
                );
            }
        }
    }

    #[test]
    fn tiled_gemm_equals_reference_on_gpu_tiling() {
        let (m, k, n) = (8, 8, 8);
        let g = gemm(8, 8, 8);
        let a = Tensor::iota_mod(&[m, k], 3);
        let b = Tensor::iota_mod(&[k, n], 4);
        let reference = gemm_reference(m, k, n, &a, &b);
        let mut rng = StdRng::seed_from_u64(3);
        let sk = &generate_sketches(&g, Target::Gpu)[0];
        for _ in 0..10 {
            let s = Schedule::random(sk, Target::Gpu, &mut rng);
            assert_eq!(gemm_scheduled(sk, &s, m, k, n, &a, &b), reference);
        }
    }

    #[test]
    fn visit_order_actually_changes_with_schedule() {
        // the visit *order* must depend on the tiling even though the
        // visited set doesn't
        let g = gemm(4, 4, 4);
        let sk = &generate_sketches(&g, Target::Cpu)[0];
        let row_major = Schedule {
            sketch_id: sk.id,
            tiles: vec![vec![4, 1, 1, 1], vec![4, 1, 1, 1], vec![4, 1]],
            compute_at: 0,
            parallel_fuse: 1,
            unroll_idx: 0,
        };
        let tiled = Schedule {
            sketch_id: sk.id,
            tiles: vec![vec![1, 1, 1, 4], vec![1, 1, 1, 4], vec![1, 4]],
            compute_at: 0,
            parallel_fuse: 1,
            unroll_idx: 0,
        };
        let collect = |s: &Schedule| {
            let mut v = Vec::new();
            visit_schedule_order(sk, s, |idx| v.push(idx.to_vec()));
            v
        };
        let a = collect(&row_major);
        let b = collect(&tiled);
        assert_eq!(a.len(), b.len());
        assert_ne!(a, b, "different tilings must induce different orders");
    }

    #[test]
    fn tensor_helpers() {
        let t = Tensor::zeros(&[2, 3]);
        assert_eq!(t.len(), 6);
        assert!(!t.is_empty());
        let u = Tensor::iota_mod(&[2, 2], 3);
        assert_eq!(u.data, vec![0.0, 1.0, 2.0, 0.0]);
    }
}
