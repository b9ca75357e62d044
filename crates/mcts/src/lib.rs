//! The search core and tuner shell every searcher is built on, and the
//! two searchers that round out the HARL algorithm zoo:
//!
//! * [`SearchCore`] — the state Algorithm 1's outer loop shares across
//!   all five searchers (workload, sketches, measurer, analyzer, lint
//!   counters, measured set, best schedule, trials, trace) and its
//!   steps, written once: lint, measure, pick (queued seeds, ranked
//!   candidates, random fallback), end of round, warm-start record
//!   filtering, coordinate-descent fine-tuning, checkpoint restore.
//! * [`Proposer`] and [`Searcher`] — the typed, per-searcher side of the
//!   tuner API. A `Proposer` is the propose step alone (its config, its
//!   state struct, one `round`, checkpoint/restore of its own fields,
//!   optional warm-start and wiring hooks); `Searcher<'m, P>` is a core
//!   plus a `P` and is the whole tuner shell, written once: budget guard,
//!   `tune` loop, fine-tune, warm-start prologue, checkpoint/restore,
//!   tracer and pool widths. Every `*Tuner` in the workspace is an alias
//!   of it (the alias, not an inherent `new`, because the orphan rule
//!   forbids inherent impls on a downstream alias). The erased,
//!   per-session side is the object-safe `Tuner` trait in `harl-core`,
//!   implemented there once for every `Searcher`. Both live here, beside
//!   the descent every searcher crate already reaches, until a PR that
//!   may touch manifests gives them a crate below the searchers.
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
//! Being `Searcher`s, both get checkpoint/resume, warm-start, serving and
//! tracing from the shell. All search state serializes bit-identically
//! for kill/resume.

mod core;
mod finetune;
mod tuner;

pub use crate::core::{best_last_seeds, Picks, Proposer, SearchCore, Searcher};
pub use finetune::{
    coordinate_descent, CdConfig, CdProposer, CdTuner, CdTunerState, DescentOutcome, FinetuneConfig,
};
pub use tuner::{MctsConfig, MctsNode, MctsProposer, MctsTuner, MctsTunerState};
