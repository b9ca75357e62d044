//! The parameter-modification action space of Table 3.
//!
//! One RL step applies a *composite* action: one sub-action per
//! modification type (tiling, compute-at, parallel-loops, auto-unroll).
//! Every sub-action space contains a dummy ("stay") element, so the
//! modification-*type* selection is implicit in the actor's output, exactly
//! as §4.3 describes.

use serde::{Deserialize, Serialize};

use crate::factorization::move_smallest_factor;
use crate::schedule::Schedule;
use crate::sketch::{Sketch, Target};

/// Sub-action for the three `{-1, 0, +1}` modification types.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum StepDir {
    /// Move one position backward in the candidate list (−1).
    Down,
    /// Keep the current position (the dummy sub-action, 0).
    Stay,
    /// Move one position forward in the candidate list (+1).
    Up,
}

impl StepDir {
    /// Number of step directions (the head size of the ±1 modifications).
    pub const COUNT: usize = 3;

    /// Decodes a head output index (0/1/2) into a direction.
    pub fn from_index(i: usize) -> Self {
        match i {
            0 => StepDir::Down,
            1 => StepDir::Stay,
            _ => StepDir::Up,
        }
    }

    /// Encodes the direction back into its head output index.
    pub fn index(self) -> usize {
        match self {
            StepDir::Down => 0,
            StepDir::Stay => 1,
            StepDir::Up => 2,
        }
    }

    /// The signed candidate-list displacement of this direction.
    pub fn delta(self) -> i64 {
        match self {
            StepDir::Down => -1,
            StepDir::Stay => 0,
            StepDir::Up => 1,
        }
    }
}

/// A composite modification: one sub-action per modification type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Action {
    /// Tiling action index in `[0, num_loops^2]`; `num_loops^2` is the
    /// dummy. Index `a < n^2` decodes to `(i, j) = (a / n, a % n)`:
    /// move the smallest factor of flattened loop `i` to loop `j`.
    pub tile: usize,
    /// Compute-at position modification (Table 3 row 2).
    pub compute_at: StepDir,
    /// Parallel-loops modification (Table 3 row 3).
    pub parallel: StepDir,
    /// Auto-unroll modification (Table 3 row 4).
    pub unroll: StepDir,
}

impl Action {
    /// The all-dummy action (no modification).
    pub fn stay(space: &ActionSpace) -> Self {
        Action {
            tile: space.tile_dummy(),
            compute_at: StepDir::Stay,
            parallel: StepDir::Stay,
            unroll: StepDir::Stay,
        }
    }
}

/// Sizes of the per-head action spaces for one sketch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ActionSpace {
    /// Total tiled loops (`num_iters` in the paper).
    pub num_loops: usize,
}

impl ActionSpace {
    /// Builds the action space of a sketch.
    pub fn of(sketch: &Sketch) -> Self {
        ActionSpace {
            num_loops: sketch.num_loops(),
        }
    }

    /// Tile head size: `num_iters * num_iters + 1` (Appendix A.1).
    pub fn tile_actions(&self) -> usize {
        self.num_loops * self.num_loops + 1
    }

    /// Index of the tiling dummy action.
    pub fn tile_dummy(&self) -> usize {
        self.num_loops * self.num_loops
    }

    /// Decodes a tile action into a `(from, to)` flattened-loop pair;
    /// `None` for the dummy.
    pub fn decode_tile(&self, a: usize) -> Option<(usize, usize)> {
        if a >= self.tile_dummy() {
            None
        } else {
            Some((a / self.num_loops, a % self.num_loops))
        }
    }

    /// Encodes a `(from, to)` flattened-loop pair into a tile action index.
    pub fn encode_tile(&self, from: usize, to: usize) -> usize {
        from * self.num_loops + to
    }
}

/// Validity mask for the tile head given the current schedule: an action is
/// valid when it is the dummy, or `(i, j)` lie in the *same* tiled iterator
/// (moving factors across iterators would change loop extents), `i != j`,
/// and loop `i` currently has a factor > 1 to give away.
pub fn tile_action_mask(sketch: &Sketch, schedule: &Schedule, space: &ActionSpace) -> Vec<bool> {
    let mut mask = Vec::new();
    tile_action_mask_into(sketch, schedule, space, &mut mask);
    mask
}

/// [`tile_action_mask`] into a reused row (`mask` is cleared first).
pub fn tile_action_mask_into(
    sketch: &Sketch,
    schedule: &Schedule,
    space: &ActionSpace,
    mask: &mut Vec<bool>,
) {
    let n = space.num_loops;
    mask.clear();
    mask.resize(space.tile_actions(), false);
    mask[space.tile_dummy()] = true;
    for i in 0..n {
        let (ki, li) = match sketch.loop_position(i) {
            Some(p) => p,
            None => continue,
        };
        if schedule.tiles[ki][li] <= 1 {
            continue;
        }
        for j in 0..n {
            if i == j {
                continue;
            }
            if let Some((kj, _)) = sketch.loop_position(j) {
                if ki == kj {
                    mask[space.encode_tile(i, j)] = true;
                }
            }
        }
    }
}

/// Mask for the compute-at head.
pub fn compute_at_mask(sketch: &Sketch, schedule: &Schedule) -> [bool; 3] {
    let n = sketch.compute_at_candidates.len();
    [schedule.compute_at > 0, true, schedule.compute_at + 1 < n]
}

/// Mask for the parallel-loops head.
pub fn parallel_mask(sketch: &Sketch, schedule: &Schedule) -> [bool; 3] {
    let ns = sketch.num_spatial_iters().max(1);
    [
        schedule.parallel_fuse > 1,
        true,
        schedule.parallel_fuse < ns,
    ]
}

/// Mask for the auto-unroll head.
pub fn unroll_mask(target: Target, schedule: &Schedule) -> [bool; 3] {
    let n = target.unroll_depths().len();
    [schedule.unroll_idx > 0, true, schedule.unroll_idx + 1 < n]
}

/// Applies a composite action, producing the next state. Invalid
/// sub-actions silently act as the dummy (the paper's dummy semantics);
/// the result is always a valid schedule.
pub fn apply_action(
    sketch: &Sketch,
    target: Target,
    schedule: &Schedule,
    action: &Action,
) -> Schedule {
    let mut next = schedule.clone();
    apply_action_in_place(sketch, target, &mut next, action);
    next
}

/// [`apply_action`] on the schedule itself: `next.clone_from(current)`
/// into a recycled slot, then this, proposes a candidate without
/// allocating.
pub fn apply_action_in_place(
    sketch: &Sketch,
    target: Target,
    next: &mut Schedule,
    action: &Action,
) {
    let space = ActionSpace::of(sketch);

    if let Some((i, j)) = space.decode_tile(action.tile) {
        if let (Some((ki, li)), Some((kj, lj))) = (sketch.loop_position(i), sketch.loop_position(j))
        {
            if ki == kj {
                // move within the same iterator's factor list
                let tiles = &mut next.tiles[ki];
                move_smallest_factor(tiles, li, lj);
            }
        }
    }

    let ca = next.compute_at as i64 + action.compute_at.delta();
    if ca >= 0 && (ca as usize) < sketch.compute_at_candidates.len() {
        next.compute_at = ca as usize;
    }

    let ns = sketch.num_spatial_iters().max(1) as i64;
    let pf = next.parallel_fuse as i64 + action.parallel.delta();
    if pf >= 1 && pf <= ns {
        next.parallel_fuse = pf as usize;
    }

    let un = next.unroll_idx as i64 + action.unroll.delta();
    if un >= 0 && (un as usize) < target.unroll_depths().len() {
        next.unroll_idx = un as usize;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sketch::generate_sketches;
    use crate::workload::gemm;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn action_space_size_matches_paper() {
        let g = gemm(1024, 1024, 1024);
        let sk = &generate_sketches(&g, Target::Cpu)[0];
        let space = ActionSpace::of(sk);
        // num_iters = 10 → 10*10 + 1 = 101 tile actions
        assert_eq!(space.tile_actions(), 101);
        assert_eq!(space.decode_tile(space.tile_dummy()), None);
        assert_eq!(space.decode_tile(23), Some((2, 3)));
    }

    #[test]
    fn apply_preserves_validity() {
        let g = gemm(1024, 512, 256);
        let sketches = generate_sketches(&g, Target::Cpu);
        let mut rng = StdRng::seed_from_u64(11);
        for sk in &sketches {
            let space = ActionSpace::of(sk);
            let mut s = Schedule::random(sk, Target::Cpu, &mut rng);
            for _ in 0..200 {
                let a = Action {
                    tile: rng.gen_range(0..space.tile_actions()),
                    compute_at: StepDir::from_index(rng.gen_range(0..3)),
                    parallel: StepDir::from_index(rng.gen_range(0..3)),
                    unroll: StepDir::from_index(rng.gen_range(0..3)),
                };
                s = apply_action(sk, Target::Cpu, &s, &a);
                s.validate(sk, Target::Cpu)
                    .expect("action preserves validity");
            }
        }
    }

    #[test]
    fn dummy_action_is_identity() {
        let g = gemm(256, 256, 256);
        let sk = &generate_sketches(&g, Target::Cpu)[0];
        let space = ActionSpace::of(sk);
        let mut rng = StdRng::seed_from_u64(12);
        let s = Schedule::random(sk, Target::Cpu, &mut rng);
        let s2 = apply_action(sk, Target::Cpu, &s, &Action::stay(&space));
        assert_eq!(s, s2);
    }

    #[test]
    fn mask_marks_cross_iterator_moves_invalid() {
        let g = gemm(256, 256, 256);
        let sk = &generate_sketches(&g, Target::Cpu)[0];
        let space = ActionSpace::of(sk);
        let mut rng = StdRng::seed_from_u64(13);
        let s = Schedule::random(sk, Target::Cpu, &mut rng);
        let mask = tile_action_mask(sk, &s, &space);
        // loop 0 belongs to iterator m (levels 0..4), loop 4 to iterator n
        assert!(!mask[space.encode_tile(0, 4)]);
        assert!(mask[space.tile_dummy()]);
        // self-moves always invalid
        for i in 0..space.num_loops {
            assert!(!mask[space.encode_tile(i, i)]);
        }
    }

    #[test]
    fn masked_valid_actions_change_state() {
        let g = gemm(1024, 1024, 1024);
        let sk = &generate_sketches(&g, Target::Cpu)[0];
        let space = ActionSpace::of(sk);
        let mut rng = StdRng::seed_from_u64(14);
        let s = Schedule::random(sk, Target::Cpu, &mut rng);
        let mask = tile_action_mask(sk, &s, &space);
        for (a, &allowed) in mask.iter().enumerate().take(space.tile_actions()) {
            if a == space.tile_dummy() || !allowed {
                continue;
            }
            let next = apply_action(
                sk,
                Target::Cpu,
                &s,
                &Action {
                    tile: a,
                    compute_at: StepDir::Stay,
                    parallel: StepDir::Stay,
                    unroll: StepDir::Stay,
                },
            );
            assert_ne!(
                next.tiles, s.tiles,
                "valid tile action {a} must modify tiles"
            );
        }
    }

    #[test]
    fn step_masks_respect_bounds() {
        let g = gemm(256, 256, 256);
        let sketches = generate_sketches(&g, Target::Cpu);
        let sk = sketches.iter().find(|s| s.cache_write).unwrap();
        let mut rng = StdRng::seed_from_u64(15);
        let mut s = Schedule::random(sk, Target::Cpu, &mut rng);
        s.compute_at = 0;
        assert!(!compute_at_mask(sk, &s)[0]);
        s.parallel_fuse = 1;
        assert!(!parallel_mask(sk, &s)[0]);
        s.unroll_idx = Target::Cpu.unroll_depths().len() - 1;
        assert!(!unroll_mask(Target::Cpu, &s)[2]);
    }
}
