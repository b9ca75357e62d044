//! Concrete schedules: the low-level parameter assignments of a sketch.
//!
//! A [`Schedule`] is the RL *state*: tile-size factorizations for every
//! tiled loop, the compute-at position of the fused stage, the number of
//! fused parallel outer loops, and the auto-unroll depth index. All search
//! algorithms (PPO, evolutionary, random) operate on this type.

use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::factorization::random_factorization;
use crate::sketch::{Sketch, Target};
use crate::stage::{InputAccess, IterKind, Subgraph};

/// A fully-specified tensor program candidate.
#[derive(Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct Schedule {
    /// Which sketch of the subgraph this schedule instantiates.
    pub sketch_id: usize,
    /// `tiles[k]` = per-level factors of tiled iterator `k`
    /// (`tiles[k].len() == sketch.tiled_iters[k].levels`,
    /// product == iterator extent). Index 0 is the outermost loop.
    pub tiles: Vec<Vec<u32>>,
    /// Index into `sketch.compute_at_candidates`.
    pub compute_at: usize,
    /// Number of fused outermost spatial loops executed in parallel
    /// (1 ..= number of spatial iterators).
    pub parallel_fuse: usize,
    /// Index into `target.unroll_depths()`.
    pub unroll_idx: usize,
}

impl Clone for Schedule {
    fn clone(&self) -> Self {
        Schedule {
            sketch_id: self.sketch_id,
            tiles: self.tiles.clone(),
            compute_at: self.compute_at,
            parallel_fuse: self.parallel_fuse,
            unroll_idx: self.unroll_idx,
        }
    }

    /// Overwrites `self` keeping its factor lists' allocations, so a
    /// recycled proposal slot costs no allocation per candidate.
    fn clone_from(&mut self, source: &Self) {
        self.sketch_id = source.sketch_id;
        self.tiles.clone_from(&source.tiles);
        self.compute_at = source.compute_at;
        self.parallel_fuse = source.parallel_fuse;
        self.unroll_idx = source.unroll_idx;
    }
}

/// The FNV-1a prime.
const FNV_PRIME: u64 = 0x100000001b3;

/// `FNV_PRIME^k` for `k = 0..=8` (wrapping).
const FNV_PRIME_POW: [u64; 9] = {
    let mut pow = [1u64; 9];
    let mut k = 1;
    while k < 9 {
        pow[k] = pow[k - 1].wrapping_mul(FNV_PRIME);
        k += 1;
    }
    pow
};

/// One FNV-1a step over the eight little-endian bytes of `v`. A zero byte
/// only multiplies by the prime, so the zero high bytes — seven of eight
/// for nearly every schedule parameter — fold into one multiply by
/// `FNV_PRIME^k`: the same `u64` as the byte loop, in two multiplies.
#[inline]
pub fn fnv_eat(mut h: u64, v: u64) -> u64 {
    let significant = 8 - v.leading_zeros() as usize / 8;
    for b in &v.to_le_bytes()[..significant] {
        h = (h ^ *b as u64).wrapping_mul(FNV_PRIME);
    }
    h.wrapping_mul(FNV_PRIME_POW[8 - significant])
}

impl Schedule {
    /// Samples a random schedule of `sketch` (the paper's "initial schedule
    /// sampled by randomly filling the sketch").
    pub fn random<R: Rng + ?Sized>(sketch: &Sketch, target: Target, rng: &mut R) -> Self {
        let tiles = sketch
            .tiled_iters
            .iter()
            .map(|t| random_factorization(t.extent, t.levels, rng))
            .collect();
        let num_spatial = sketch.num_spatial_iters().max(1);
        // A hand-built sketch may carry no compute-at candidates at all;
        // `gen_range(0..0)` panics, so pin the position to 0 in that case.
        let compute_at = if sketch.compute_at_candidates.is_empty() {
            0
        } else {
            rng.gen_range(0..sketch.compute_at_candidates.len())
        };
        Schedule {
            sketch_id: sketch.id,
            tiles,
            compute_at,
            parallel_fuse: rng.gen_range(1..=num_spatial),
            unroll_idx: rng.gen_range(0..target.unroll_depths().len()),
        }
    }

    /// Validates the invariants of this schedule against its sketch.
    pub fn validate(&self, sketch: &Sketch, target: Target) -> Result<(), String> {
        if self.tiles.len() != sketch.tiled_iters.len() {
            return Err(format!(
                "tile list length {} != tiled iterator count {}",
                self.tiles.len(),
                sketch.tiled_iters.len()
            ));
        }
        for (k, t) in sketch.tiled_iters.iter().enumerate() {
            if self.tiles[k].len() != t.levels {
                return Err(format!(
                    "iterator {k} has {} levels, expected {}",
                    self.tiles[k].len(),
                    t.levels
                ));
            }
            let prod: u64 = self.tiles[k].iter().map(|&f| f as u64).product();
            if prod != t.extent as u64 {
                return Err(format!(
                    "iterator {k} factors multiply to {prod}, extent is {}",
                    t.extent
                ));
            }
            if self.tiles[k].contains(&0) {
                return Err(format!("iterator {k} has a zero factor"));
            }
        }
        if sketch.compute_at_candidates.is_empty() {
            if self.compute_at != 0 {
                return Err(format!(
                    "compute_at index {} but the sketch has no candidates",
                    self.compute_at
                ));
            }
        } else if self.compute_at >= sketch.compute_at_candidates.len() {
            return Err(format!("compute_at index {} out of range", self.compute_at));
        }
        let ns = sketch.num_spatial_iters().max(1);
        if self.parallel_fuse == 0 || self.parallel_fuse > ns {
            return Err(format!(
                "parallel_fuse {} outside 1..={ns}",
                self.parallel_fuse
            ));
        }
        if self.unroll_idx >= target.unroll_depths().len() {
            return Err(format!("unroll index {} out of range", self.unroll_idx));
        }
        Ok(())
    }

    /// The *inner extent* below tile level `level` of tiled iterator `k`:
    /// the number of elements of that iterator processed by one iteration
    /// of the level-`level` loop (product of factors at deeper levels).
    pub fn inner_extent(&self, k: usize, level: usize) -> u64 {
        self.tiles[k][level.min(self.tiles[k].len())..]
            .iter()
            .map(|&f| f as u64)
            .product()
    }

    /// Innermost factor of tiled iterator `k` (vectorization candidate).
    pub fn innermost(&self, k: usize) -> u32 {
        *self.tiles[k]
            .last()
            .expect("tiled iterator has at least one level")
    }

    /// Product of the outermost factors of the tiled iterators `iters`.
    pub fn outer_product(&self, iters: impl IntoIterator<Item = usize>) -> u64 {
        iters.into_iter().map(|k| self.tiles[k][0] as u64).product()
    }

    /// Number of parallel tasks: the product of the outermost factors of
    /// the first `parallel_fuse` spatial iterators.
    pub fn parallel_tasks(&self, sketch: &Sketch) -> u64 {
        self.outer_product(sketch.iters_of(IterKind::Spatial).take(self.parallel_fuse))
            .max(1)
    }

    /// rfactor parallelism: when the sketch applies rfactor, the outermost
    /// reduction factor becomes an additional parallel dimension.
    pub fn rfactor_tasks(&self, sketch: &Sketch) -> u64 {
        if !sketch.rfactor {
            return 1;
        }
        self.outer_product(sketch.iters_of(IterKind::Reduction))
            .max(1)
    }

    /// Auto-unroll depth in statements.
    pub fn unroll_depth(&self, target: Target) -> u32 {
        target.unroll_depths()[self.unroll_idx]
    }

    /// Size of the loop body that gets unrolled: the product of the
    /// innermost factors across all tiled iterators.
    pub fn inner_body_size(&self) -> u64 {
        (0..self.tiles.len())
            .map(|k| self.innermost(k) as u64)
            .product()
    }

    /// Working-set size in bytes of the anchor stage's inputs for a tile
    /// that keeps the deepest `depth` levels of every iterator
    /// (`depth = 1` → register tile, `2` → L1-ish tile, `3` → L2-ish tile).
    pub fn tile_working_set(&self, graph: &Subgraph, sketch: &Sketch, depth: usize) -> u64 {
        let tile =
            |k: usize| [self.inner_extent(k, sketch.tiled_iters[k].levels.saturating_sub(depth))];
        let [bytes] = working_set_bytes(
            &graph.anchor_stage().inputs,
            |iter_idx| sketch.tiled_iters.iter().position(|t| t.iter == iter_idx),
            tile,
            sketch.iters_of(IterKind::Spatial),
        );
        bytes
    }

    /// FNV-1a over the parameter stream, from the offset basis `h`.
    fn param_hash(&self, mut h: u64) -> u64 {
        h = fnv_eat(h, self.sketch_id as u64);
        for t in &self.tiles {
            for &f in t {
                h = fnv_eat(h, f as u64);
            }
        }
        h = fnv_eat(h, self.compute_at as u64);
        h = fnv_eat(h, self.parallel_fuse as u64);
        fnv_eat(h, self.unroll_idx as u64)
    }

    /// A compact stable key for deduplication in search populations.
    pub fn dedup_key(&self) -> u64 {
        // collisions only cost a little duplicated search effort, never
        // correctness.
        self.param_hash(0xcbf29ce484222325)
    }

    /// A stable key for the feature cache of the batched scoring pipeline.
    ///
    /// Hashes the same parameter stream as [`Schedule::dedup_key`] but from
    /// a domain-separated seed, so population dedup and feature caching
    /// cannot share collision patterns. Features are a pure function of
    /// (graph, sketch, target, schedule); within one episode the first
    /// three are fixed, so this key alone identifies a feature vector.
    pub fn fingerprint(&self) -> u64 {
        // the offset basis perturbed by a scoring-domain tag ("SCORE")
        self.param_hash(0xcbf29ce484222325 ^ 0x5343_4f52_4500_0001)
    }
}

/// Bytes each of `N` tiles touches: the anchor's `inputs` sliced to the
/// tile plus the `f32` output tile. `tiled(i)` is the tiled iterator of
/// anchor iterator `i` (an untiled one has extent 1), `tile(k)` the tiles'
/// extents along tiled iterator `k`, `spatial` the tiled iterators indexing
/// the output.
pub(crate) fn working_set_bytes<const N: usize>(
    inputs: &[InputAccess],
    tiled: impl Fn(usize) -> Option<usize>,
    tile: impl Fn(usize) -> [u64; N],
    spatial: impl Iterator<Item = usize>,
) -> [u64; N] {
    let extents_of = |iter_idx: usize| tiled(iter_idx).map_or([1; N], &tile);
    let mut bytes = [0u64; N];
    for input in inputs {
        for (b, i) in bytes.iter_mut().zip(input.tiles_bytes(&extents_of)) {
            *b += i;
        }
    }
    let mut out_tile = [1u64; N];
    for k in spatial {
        for (o, e) in out_tile.iter_mut().zip(tile(k)) {
            *o *= e;
        }
    }
    for (b, o) in bytes.iter_mut().zip(out_tile) {
        *b += o.max(1) * 4;
    }
    bytes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sketch::generate_sketches;
    use crate::workload::gemm;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (Subgraph, Vec<Sketch>) {
        let g = gemm(1024, 512, 256);
        let sk = generate_sketches(&g, Target::Cpu);
        (g, sk)
    }

    #[test]
    fn random_schedules_are_valid() {
        let (_, sk) = setup();
        let mut rng = StdRng::seed_from_u64(1);
        for s in &sk {
            for _ in 0..50 {
                let sch = Schedule::random(s, Target::Cpu, &mut rng);
                sch.validate(s, Target::Cpu).expect("random schedule valid");
            }
        }
    }

    #[test]
    fn random_survives_empty_compute_at_candidates() {
        // regression: gen_range(0..0) used to panic on sketches without
        // compute-at candidates
        let (_, sk) = setup();
        let mut bare = sk[0].clone();
        bare.compute_at_candidates.clear();
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..20 {
            let sch = Schedule::random(&bare, Target::Cpu, &mut rng);
            assert_eq!(sch.compute_at, 0);
            sch.validate(&bare, Target::Cpu)
                .expect("valid without candidates");
        }
        // a non-zero position is still rejected against the bare sketch
        let mut sch = Schedule::random(&bare, Target::Cpu, &mut rng);
        sch.compute_at = 1;
        assert!(sch.validate(&bare, Target::Cpu).is_err());
    }

    #[test]
    fn inner_extent_is_monotone() {
        let (_, sk) = setup();
        let mut rng = StdRng::seed_from_u64(2);
        let sch = Schedule::random(&sk[0], Target::Cpu, &mut rng);
        for k in 0..sch.tiles.len() {
            for lvl in 1..sch.tiles[k].len() {
                assert!(sch.inner_extent(k, lvl - 1) >= sch.inner_extent(k, lvl));
            }
            assert_eq!(sch.inner_extent(k, 0), sk[0].tiled_iters[k].extent as u64);
        }
    }

    #[test]
    fn parallel_tasks_respects_fuse_count() {
        let (_, sk) = setup();
        let mut rng = StdRng::seed_from_u64(3);
        let mut sch = Schedule::random(&sk[0], Target::Cpu, &mut rng);
        sch.tiles[0][0] = 8;
        sch.tiles[0][1] = 1024 / 8;
        sch.tiles[0][2] = 1;
        sch.tiles[0][3] = 1;
        sch.tiles[1] = vec![4, 64, 1, 1];
        sch.parallel_fuse = 1;
        assert_eq!(sch.parallel_tasks(&sk[0]), 8);
        sch.parallel_fuse = 2;
        assert_eq!(sch.parallel_tasks(&sk[0]), 32);
    }

    #[test]
    fn working_set_shrinks_with_depth() {
        let (g, sk) = setup();
        let mut rng = StdRng::seed_from_u64(4);
        let sch = Schedule::random(&sk[0], Target::Cpu, &mut rng);
        let w1 = sch.tile_working_set(&g, &sk[0], 1);
        let w2 = sch.tile_working_set(&g, &sk[0], 2);
        let w3 = sch.tile_working_set(&g, &sk[0], 3);
        assert!(w1 <= w2 && w2 <= w3);
    }

    #[test]
    fn dedup_key_distinguishes() {
        let (_, sk) = setup();
        let mut rng = StdRng::seed_from_u64(5);
        let a = Schedule::random(&sk[0], Target::Cpu, &mut rng);
        let mut b = a.clone();
        assert_eq!(a.dedup_key(), b.dedup_key());
        b.unroll_idx = (b.unroll_idx + 1) % Target::Cpu.unroll_depths().len();
        assert_ne!(a.dedup_key(), b.dedup_key());
    }

    #[test]
    fn fingerprint_is_stable_and_domain_separated() {
        let (_, sk) = setup();
        let mut rng = StdRng::seed_from_u64(11);
        let a = Schedule::random(&sk[0], Target::Cpu, &mut rng);
        assert_eq!(a.fingerprint(), a.clone().fingerprint());
        // a different schedule gets a different cache key
        let mut b = a.clone();
        b.unroll_idx = (b.unroll_idx + 1) % Target::Cpu.unroll_depths().len();
        assert_ne!(a.fingerprint(), b.fingerprint());
        // domain separation from the population dedup key
        assert_ne!(a.fingerprint(), a.dedup_key());
    }

    #[test]
    fn rfactor_tasks_only_with_rfactor() {
        let (_, sk) = setup();
        let mut rng = StdRng::seed_from_u64(6);
        let plain = &sk[0];
        let rf = sk
            .iter()
            .find(|s| s.rfactor)
            .expect("gemm has rfactor sketch");
        let sch_plain = Schedule::random(plain, Target::Cpu, &mut rng);
        assert_eq!(sch_plain.rfactor_tasks(plain), 1);
        let mut sch_rf = Schedule::random(rf, Target::Cpu, &mut rng);
        // set outer reduction factor explicitly
        let red_k = rf
            .tiled_iters
            .iter()
            .position(|t| t.kind == IterKind::Reduction)
            .unwrap();
        sch_rf.tiles[red_k] = vec![4, 128];
        assert_eq!(sch_rf.rfactor_tasks(rf), 4);
    }
}
