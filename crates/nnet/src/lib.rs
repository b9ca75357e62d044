//! # harl-nnet
//!
//! Minimal from-scratch neural network stack: dense layers with manual
//! backprop and Adam, tanh MLPs, a masked multi-head categorical policy,
//! and PPO with the paper's loss weights (Table 5). Substitutes for the
//! PyTorch PPO reference implementation the paper adopts.
//!
//! The public API is batch-major: networks are `&self`-shareable weight
//! holders, all per-pass state lives in caller-owned workspaces
//! ([`Workspace`], [`PolicyWorkspace`]), and the forward path runs through
//! the blocked GEMM in [`gemm`]. Every batched result is bit-identical to
//! its per-sample equivalent at any batch size and any pool width — the
//! summation-order argument lives in [`gemm`] and
//! [`layers::Linear::backward_batch`].

pub mod gemm;
pub mod layers;
pub mod mlp;
mod packed;
pub mod policy;
pub mod ppo;

pub use layers::{GradScratch, Linear, Weights};
pub use mlp::{masked_softmax, masked_softmax_into, Mlp, Workspace};
pub use policy::{sample_categorical, MultiHeadPolicy, PolicyWorkspace};
pub use ppo::{Draws, PpoAgent, PpoConfig, PpoHealth, ReplayBuffer, Transition};
