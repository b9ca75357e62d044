//! # harl-core
//!
//! The paper's system — a hierarchical, adaptive, RL-based auto-scheduler
//! for tensor programs — and the searchers it is compared with, all on
//! one search core ([`search`]).
//!
//! * **Subgraph selection** `π_t(n)` — non-stationary SW-UCB with the
//!   gradient estimate of Eq. 3 as reward ([`network::HarlNetworkTuner`],
//!   one [`network::NetworkTuner`] with Ansor's greedy baseline).
//! * **Sketch selection** `π_t^n(u)` — SW-UCB with the normalized maximal
//!   performance `X_t` as reward ([`tuner::HarlOperatorTuner`]).
//! * **Parameter modification** `π_t^{n,u}(s_t|s_{t-1})` — PPO actor-critic
//!   over the Table 3 action space ([`episode::run_episode`]).
//! * **Adaptive stopping** — track elimination every λ steps by critic
//!   advantage ([`adaptive`]).
//! * **Baselines** — Ansor and the Flextensor-like fixed-length tuner
//!   ([`ansor`]), MCTS and coordinate descent ([`mcts`]).
//!
//! The Table 5 hyper-parameters a caller varies live in
//! [`config::HarlConfig`], the rest are named constants (see its module
//! doc); the toggles (`adaptive_stopping`, `subgraph_mab`) and `mab_kind`
//! (`Uniform` for the sketch level's ablation) reproduce the paper's §6
//! ablations.

pub mod adaptive;
pub mod ansor;
pub mod bandit;
pub mod config;
pub mod episode;
pub mod mcts;
pub mod network;
pub mod search;
pub mod session;
pub mod tuner;

pub use adaptive::{critical_step_histogram, select_survivors, CriticalStep, TrackWindow};
pub use config::HarlConfig;
pub use episode::{run_episode, EpisodeResult, Visit};
pub use network::{AnsorNetworkTuner, HarlNetworkTuner, NetRound, NetworkTuner};
pub use session::{
    FinetuneOutcome, RunOutcome, SessionBuilder, SessionCheckpoint, SessionControl,
    SessionProgress, Tuner, TunerState, TuningSession, CHECKPOINT_VERSION,
};
pub use tuner::{pick_top_k, HarlOperatorTuner, HarlProposer, HarlTunerState, RoundLog};

pub use harl_par::ParallelismOpts;
