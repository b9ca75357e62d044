//! # harl-gbt
//!
//! From-scratch gradient-boosted regression trees (XGBoost-lite): exact
//! greedy splits with XGBoost's regularised gain, shrinkage, and an
//! on-line [`CostModel`] wrapper that plays the role of the paper's
//! sklearn-XGBoost cost model (reward function + top-K filter, retrained
//! from measurements during search).

pub mod booster;
pub mod cost_model;
mod queue;
pub mod scoring;
pub mod tree;

pub use booster::{Dataset, Gbt, GbtParams};
pub use cost_model::CostModel;
pub use scoring::{ScoreStats, ScoringPipeline};
pub use tree::{FlatTree, RegressionTree, TreeParams};
