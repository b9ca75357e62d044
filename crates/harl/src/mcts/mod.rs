//! The two searchers that round out the HARL algorithm zoo, both
//! [`Searcher`]s, so checkpoint/resume,
//! warm-start, serving and tracing come from the shell and all search
//! state serializes bit-identically for kill/resume:
//!
//! * [`MctsTuner`] — Monte-Carlo tree search (UCT) over
//!   schedule-modification trees, after ProTuner (arXiv 2005.13685).
//!   Nodes hold schedules, edges are single modifications from the
//!   Table 3 parameter space, rollouts are scored through the batched
//!   GBT [`harl_gbt::ScoringPipeline`], and the reward backed up each
//!   playout is the best normalized predicted throughput along the path
//!   (the min-latency surrogate).
//! * [`CdTuner`] + [`coordinate_descent`] — multi-start coordinate
//!   descent ("Explore as a Storm, Exploit as a Raindrop",
//!   arXiv 2406.20037): descend one parameter axis at a time (tile
//!   factors, compute-at, parallel granularity, unroll depth), keeping
//!   only strictly-better measured neighbours. The same descent, as
//!   [`SearchCore::finetune`], backs the `TuningSession::then_finetune`
//!   phase, which polishes any tuner's best schedule without ever
//!   regressing it.

mod finetune;
mod tuner;

// the shell's path before it moved to `crate::search` (`harl_repro::mcts::SearchCore`, …)
pub use crate::search::{Learner, Picks, Proposer, SearchCore, Searcher};
pub use finetune::{
    coordinate_descent, CdConfig, CdProposer, CdTuner, CdTunerState, DescentOutcome, FinetuneConfig,
};
pub use tuner::{MctsConfig, MctsNode, MctsProposer, MctsTuner, MctsTunerState};
