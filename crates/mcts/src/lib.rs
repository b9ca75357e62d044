//! The search core every searcher is built on, and the two searchers
//! that round out the HARL algorithm zoo:
//!
//! * [`SearchCore`] — the state Algorithm 1's outer loop shares across
//!   all five searchers (workload, sketches, measurer, analyzer, lint
//!   counters, measured set, best schedule, trials, trace) and its
//!   steps, written once: lint, measure, pick (queued seeds, ranked
//!   candidates, random fallback), end of round, warm-start record
//!   filtering, coordinate-descent fine-tuning, checkpoint restore. A
//!   searcher is a core plus a proposer. It lives here, beside the
//!   descent every searcher crate already reaches, until a PR that may
//!   touch manifests gives it a crate below the searchers.
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
//!
//! Both searchers conform to the `Tuner` trait in `harl-core` (the impls
//! live there, next to the HARL/Ansor/Flextensor ones) and therefore get
//! checkpoint/resume, warm-start, serving, and tracing for free. All
//! search state serializes bit-identically for kill/resume.

mod core;
mod finetune;
mod tuner;

pub use crate::core::{best_last_seeds, Picks, Proposer, SearchCore, Searcher};
pub use finetune::{
    coordinate_descent, CdConfig, CdConfigBuilder, CdProposer, CdTuner, CdTunerState,
    DescentOutcome, FinetuneConfig, FinetuneConfigBuilder,
};
pub use tuner::{MctsConfig, MctsConfigBuilder, MctsNode, MctsProposer, MctsTuner, MctsTunerState};
