//! # harl-tensor-ir
//!
//! Tensor-program intermediate representation for the HARL reproduction:
//! compute DAGs ([`Subgraph`], [`Stage`]), sketch generation following
//! Ansor's rules (Table 2 of the paper), concrete [`Schedule`] states, the
//! modification-action space of Table 3, random mutations for evolutionary
//! baselines, and the shared feature extraction used by the cost model and
//! the RL agent.
//!
//! This crate substitutes for the TVM tensor IR: it exposes exactly the
//! schedule parameter space the search algorithms explore, without any code
//! generation (performance is produced by `harl-tensor-sim`).

pub mod action;
pub mod exec;
pub mod factorization;
pub mod features;
pub mod mutate;
pub mod pretty;
pub mod schedule;
pub mod sketch;
pub mod stage;
pub mod workload;

pub use action::{
    apply_action, apply_action_in_place, compute_at_mask, parallel_mask, tile_action_mask,
    tile_action_mask_into, unroll_mask, Action, ActionSpace, StepDir,
};
pub use exec::{visit_schedule_order, Tensor};
pub use features::{
    extract_features, extract_features_into, FeaturePlan, TileStats, FEATURE_DIM, MAX_LOOPS,
};
pub use mutate::{crossover, mutate, mutate_kind, MutationKind};
pub use pretty::render_program;
pub use schedule::{fnv_eat, Schedule};
pub use sketch::{generate_sketches, ComputeAt, Sketch, Target, TiledIter};
pub use stage::{AccessDim, InputAccess, IterKind, IterVar, Stage, StageKind, Subgraph};
