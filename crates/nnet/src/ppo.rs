//! Proximal Policy Optimization with a clipped surrogate objective.
//!
//! Follows the reference implementation the paper adopts (its reference \[4\],
//! PPO-PyTorch) with the paper's loss weights: clipped policy loss,
//! `w_MSE = 0.5` critic MSE, `w_entropy = 0.01` entropy bonus, one-step TD
//! advantage `A = r + γ V(s') − V(s)` (Eq. 6), actor lr `3e-4`, critic lr
//! `1e-3`, discount `γ = 0.9` (Table 5). Transitions are stored in a replay
//! buffer and trained in minibatches every `T_rl` steps (Algorithm 1).
//!
//! Both hot phases are batch-major: [`PpoAgent::act_batch`] runs one
//! matrix-matrix forward for every live schedule track of a step, and
//! [`PpoAgent::train_minibatch`] runs one batched forward/backward over
//! the whole minibatch with the gradient reduction parallelized on the
//! agent's `harl-par` pool ([`PpoAgent::set_threads`]); the softmax, the
//! log-probabilities and the ratios go through `harl-simd`'s lane `exp`
//! and `ln` a head at a time, never through the host's libm. Both are
//! bit-identical to their per-sample equivalents at any batch size and any
//! pool width — the same contract `tests/scoring_determinism.rs` pins for
//! scoring.

use std::collections::VecDeque;

use harl_obs::Tracer;
use harl_par::ThreadPool;
use harl_tensor_sim::ConfigError;
use rand::seq::SliceRandom;
use rand::Rng;
use serde::de::{self, DeError, Value};
use serde::ser::JsonWriter;
use serde::{Deserialize, Serialize};

use crate::mlp::{normalize, shift_logits, Mlp, Workspace};
use crate::packed;
use crate::policy::{sample_categorical, MultiHeadPolicy, PolicyWorkspace};

/// PPO hyper-parameters (defaults = Table 5).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PpoConfig {
    /// Actor learning rate (Table 5: 3e-4).
    pub lr_actor: f32,
    /// Critic learning rate (Table 5: 1e-3).
    pub lr_critic: f32,
    /// Discount factor γ (Table 5: 0.9).
    pub gamma: f32,
    /// PPO clip range ε.
    pub clip: f32,
    /// Entropy bonus weight (Table 5: 0.01).
    pub entropy_weight: f32,
    /// Critic MSE weight (Table 5: 0.5).
    pub value_weight: f32,
    /// Minibatch size per training step.
    pub minibatch: usize,
    /// Replay buffer capacity (0 = unbounded).
    pub buffer_capacity: usize,
    /// Hidden layer width of actor and critic.
    pub hidden: usize,
}

impl Default for PpoConfig {
    fn default() -> Self {
        PpoConfig {
            lr_actor: 3e-4,
            lr_critic: 1e-3,
            gamma: 0.9,
            clip: 0.2,
            entropy_weight: 0.01,
            value_weight: 0.5,
            minibatch: 64,
            buffer_capacity: 4096,
            hidden: 64,
        }
    }
}

impl PpoConfig {
    /// Fluent builder starting from [`PpoConfig::default`].
    pub fn builder() -> PpoConfigBuilder {
        PpoConfigBuilder {
            cfg: PpoConfig::default(),
        }
    }

    /// Rejects hyper-parameters that would panic or silently diverge deep
    /// inside training (a zero minibatch samples nothing forever, a zero
    /// hidden width collapses both networks, a non-finite learning rate
    /// poisons every weight on the first Adam step).
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.minibatch == 0 {
            return Err(ConfigError::new("ppo.minibatch", "must be at least 1"));
        }
        if self.hidden == 0 {
            return Err(ConfigError::new("ppo.hidden", "must be at least 1"));
        }
        if !self.lr_actor.is_finite() || self.lr_actor <= 0.0 {
            return Err(ConfigError::new(
                "ppo.lr_actor",
                format!(
                    "must be a finite positive learning rate, got {}",
                    self.lr_actor
                ),
            ));
        }
        if !self.lr_critic.is_finite() || self.lr_critic <= 0.0 {
            return Err(ConfigError::new(
                "ppo.lr_critic",
                format!(
                    "must be a finite positive learning rate, got {}",
                    self.lr_critic
                ),
            ));
        }
        if !self.gamma.is_finite() || !(0.0..=1.0).contains(&self.gamma) {
            return Err(ConfigError::new(
                "ppo.gamma",
                format!("discount must lie in [0, 1], got {}", self.gamma),
            ));
        }
        if !self.clip.is_finite() || self.clip <= 0.0 {
            return Err(ConfigError::new(
                "ppo.clip",
                format!("clip range must be finite and positive, got {}", self.clip),
            ));
        }
        if !self.entropy_weight.is_finite() || self.entropy_weight < 0.0 {
            return Err(ConfigError::new(
                "ppo.entropy_weight",
                format!(
                    "must be finite and non-negative, got {}",
                    self.entropy_weight
                ),
            ));
        }
        if !self.value_weight.is_finite() || self.value_weight < 0.0 {
            return Err(ConfigError::new(
                "ppo.value_weight",
                format!("must be finite and non-negative, got {}", self.value_weight),
            ));
        }
        Ok(())
    }
}

/// Builder for [`PpoConfig`]; `build` validates and returns the shared
/// [`ConfigError`] on rejection.
#[derive(Debug, Clone)]
pub struct PpoConfigBuilder {
    cfg: PpoConfig,
}

impl PpoConfigBuilder {
    /// Sets the actor learning rate.
    pub fn lr_actor(mut self, v: f32) -> Self {
        self.cfg.lr_actor = v;
        self
    }

    /// Sets the critic learning rate.
    pub fn lr_critic(mut self, v: f32) -> Self {
        self.cfg.lr_critic = v;
        self
    }

    /// Sets the discount factor γ.
    pub fn gamma(mut self, v: f32) -> Self {
        self.cfg.gamma = v;
        self
    }

    /// Sets the PPO clip range ε.
    pub fn clip(mut self, v: f32) -> Self {
        self.cfg.clip = v;
        self
    }

    /// Sets the entropy bonus weight.
    pub fn entropy_weight(mut self, v: f32) -> Self {
        self.cfg.entropy_weight = v;
        self
    }

    /// Sets the critic MSE weight.
    pub fn value_weight(mut self, v: f32) -> Self {
        self.cfg.value_weight = v;
        self
    }

    /// Sets the minibatch size.
    pub fn minibatch(mut self, v: usize) -> Self {
        self.cfg.minibatch = v;
        self
    }

    /// Sets the replay buffer capacity (0 = unbounded).
    pub fn buffer_capacity(mut self, v: usize) -> Self {
        self.cfg.buffer_capacity = v;
        self
    }

    /// Sets the hidden layer width of actor and critic.
    pub fn hidden(mut self, v: usize) -> Self {
        self.cfg.hidden = v;
        self
    }

    /// Validates and returns the config.
    pub fn build(self) -> Result<PpoConfig, ConfigError> {
        self.cfg.validate()?;
        Ok(self.cfg)
    }
}

/// One recorded `(S, M, S', R, Y)` tuple (Algorithm 1, line 12).
///
/// Serialized by hand, a full replay buffer being four fifths of a
/// checkpoint: every `f32` and every mask row is a [`crate::packed`]
/// string, `actions` stays an array of numbers.
#[derive(Debug, Clone)]
pub struct Transition {
    /// Feature vector of the state the action was taken in.
    pub state: Vec<f32>,
    /// One chosen index per head.
    pub actions: Vec<usize>,
    /// Behaviour-policy log-probability at collection time.
    pub logp: f32,
    /// Scalar reward of the transition.
    pub reward: f32,
    /// One-step TD advantage `Y` at collection time.
    pub advantage: f32,
    /// Critic target `r + γ V(s')`.
    pub value_target: f32,
    /// Per-head masks at the time of action (empty vec = all valid).
    pub masks: Vec<Vec<bool>>,
}

impl Serialize for Transition {
    fn serialize(&self, w: &mut JsonWriter) {
        w.begin_object();
        packed::write_f32s(w, "state", &self.state);
        w.key("actions");
        self.actions.serialize(w);
        packed::write_f32s(w, "logp", &[self.logp]);
        packed::write_f32s(w, "reward", &[self.reward]);
        packed::write_f32s(w, "advantage", &[self.advantage]);
        packed::write_f32s(w, "value_target", &[self.value_target]);
        packed::write_masks(w, "masks", &self.masks);
        w.end_object();
    }
}

impl<'de> Deserialize<'de> for Transition {
    fn deserialize_value(v: &Value) -> Result<Self, DeError> {
        Ok(Transition {
            state: packed::read_f32s(v, "state")?,
            actions: de::field(v, "actions")?,
            logp: packed::read_f32(v, "logp")?,
            reward: packed::read_f32(v, "reward")?,
            advantage: packed::read_f32(v, "advantage")?,
            value_target: packed::read_f32(v, "value_target")?,
            masks: packed::read_masks(v, "masks")?,
        })
    }
}

/// Bounded FIFO replay buffer with uniform minibatch sampling.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ReplayBuffer {
    items: VecDeque<Transition>,
    cap: usize,
}

impl ReplayBuffer {
    /// A buffer holding at most `cap` transitions (0 = unbounded).
    pub fn with_capacity(cap: usize) -> Self {
        ReplayBuffer {
            items: VecDeque::new(),
            cap,
        }
    }

    /// Appends a transition, evicting the oldest beyond capacity.
    pub fn push(&mut self, t: Transition) {
        self.items.push_back(t);
        while self.cap > 0 && self.items.len() > self.cap {
            self.items.pop_front();
        }
    }

    /// Number of stored transitions.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when no transitions are stored.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Samples the positions of up to `n` distinct transitions uniformly
    /// into `positions` (cleared first); [`ReplayBuffer::get`] resolves them.
    pub fn sample_into<R: Rng + ?Sized>(&self, n: usize, rng: &mut R, positions: &mut Vec<usize>) {
        positions.clear();
        positions.extend(0..self.items.len());
        positions.shuffle(rng);
        positions.truncate(n);
    }

    /// The transition at `position` (0 = oldest).
    pub fn get(&self, position: usize) -> &Transition {
        &self.items[position]
    }

    /// Drops all stored transitions.
    pub fn clear(&mut self) {
        self.items.clear();
    }
}

/// Reused rows of [`PpoAgent::act_batch`] and the PPO update: nothing here
/// outlives a call, it only keeps its allocations.
#[derive(Debug, Clone, Default)]
struct Scratch {
    /// Buffer positions of the sampled minibatch.
    sample: Vec<usize>,
    /// Batch-major states of the minibatch.
    x: Vec<f32>,
    /// Per-head batch-major softmax rows of the minibatch (or tracks).
    probs: Vec<Vec<f32>>,
    /// `ln` of each of those cells (`-inf` where `p` is masked to 0).
    ln_probs: Vec<Vec<f32>>,
    /// `−p·ln p` per cell of the head at hand, batch-major.
    entropy_terms: Vec<f32>,
    /// Per sample: `logp_new − logp_old`, then the probability ratio.
    ratios: Vec<f32>,
    /// Per sample: `dL/dlogp_new`.
    dlogp: Vec<f32>,
    /// Per-head batch-major logit gradients.
    grad_logits: Vec<Vec<f32>>,
    /// Critic output gradient, one per sample.
    grad_v: Vec<f32>,
    /// The draws of the last [`PpoAgent::act_batch`], row-major.
    draws: Vec<(Vec<usize>, f32)>,
}

/// The draws of one [`PpoAgent::act_batch`] call, borrowed from the
/// agent's reused buffer: `draws[b]` are row `b`'s `samples`
/// `(actions, logp)` pairs in draw order.
#[derive(Debug, Clone, Copy)]
pub struct Draws<'a> {
    flat: &'a [(Vec<usize>, f32)],
    samples: usize,
}

impl<'a> Draws<'a> {
    /// Each row's draws, in row order.
    pub fn iter(&self) -> impl Iterator<Item = &'a [(Vec<usize>, f32)]> {
        self.flat.chunks_exact(self.samples.max(1))
    }
}

impl std::ops::Index<usize> for Draws<'_> {
    type Output = [(Vec<usize>, f32)];

    fn index(&self, row: usize) -> &Self::Output {
        &self.flat[row * self.samples..(row + 1) * self.samples]
    }
}

/// How the learner looked over the updates since the last
/// [`PpoAgent::take_health`]: means over every sample of those updates'
/// minibatches. Observation only — nothing here feeds an update.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PpoHealth {
    /// Updates folded in.
    pub updates: u64,
    /// Minibatch samples folded in.
    pub samples: u64,
    /// Mean policy entropy (nats) of each action head.
    pub entropy_per_head: Vec<f64>,
    /// Share of samples whose probability ratio left `1 ± clip`.
    pub clip_fraction: f64,
    /// Mean of `logp_old − logp_new`, the first-order estimate of
    /// KL(π_old ‖ π_new).
    pub approx_kl: f64,
    /// Mean squared critic error `(V(s) − target)²`, before `value_weight`.
    pub value_loss: f64,
    /// Mean of the raw (un-normalised) advantages.
    pub adv_mean: f64,
    /// Their variance.
    pub adv_var: f64,
}

/// The running sums behind [`PpoHealth`].
#[derive(Debug, Clone, Default)]
struct HealthSums {
    updates: u64,
    samples: u64,
    entropy: Vec<f64>,
    clipped: u64,
    kl: f64,
    value_err_sq: f64,
    adv: f64,
    adv_sq: f64,
}

/// The actor-critic agent.
///
/// The networks are plain weights (`&self`-shareable, serde-stable); all
/// per-pass scratch lives in the agent's two workspaces and its reused
/// rows, and the gradient reduction pool plus tracer are runtime wiring a
/// checkpoint restore re-applies (`#[serde(skip)]`, like the scoring
/// pipeline's pool).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PpoAgent {
    /// The multi-head actor network π_θ.
    pub policy: MultiHeadPolicy,
    /// The value network V_πθ.
    pub critic: Mlp,
    /// Hyper-parameters.
    pub cfg: PpoConfig,
    /// Replay buffer of recorded transitions.
    pub buffer: ReplayBuffer,
    updates: u64,
    #[serde(skip)]
    ws_policy: PolicyWorkspace,
    #[serde(skip)]
    ws_critic: Workspace,
    #[serde(skip)]
    scratch: Scratch,
    #[serde(skip)]
    health: HealthSums,
    #[serde(skip)]
    pool: ThreadPool,
    #[serde(skip)]
    tracer: Tracer,
}

impl PpoAgent {
    /// Fresh agent with randomly initialized actor and critic.
    pub fn new<R: Rng + ?Sized>(
        state_dim: usize,
        head_sizes: &[usize],
        cfg: PpoConfig,
        rng: &mut R,
    ) -> Self {
        let policy = MultiHeadPolicy::new(state_dim, cfg.hidden, head_sizes, rng);
        let critic = Mlp::new(&[state_dim, cfg.hidden, cfg.hidden, 1], rng);
        let cap = cfg.buffer_capacity;
        PpoAgent {
            policy,
            critic,
            cfg,
            buffer: ReplayBuffer::with_capacity(cap),
            updates: 0,
            ws_policy: PolicyWorkspace::new(),
            ws_critic: Workspace::new(),
            scratch: Scratch::default(),
            health: HealthSums::default(),
            pool: ThreadPool::default(),
            tracer: Tracer::default(),
        }
    }

    /// Resizes the gradient-reduction pool (results are bit-identical at
    /// any width; this trades wall time only).
    pub fn set_threads(&mut self, threads: usize) {
        self.pool = ThreadPool::new(threads);
    }

    /// Width of the gradient-reduction pool.
    pub fn threads(&self) -> usize {
        self.pool.threads()
    }

    /// Attaches a tracer for the `ppo_act_batch` / `gemm` /
    /// `ppo_backward` spans.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Value estimate `V(s)`.
    pub fn value(&mut self, state: &[f32]) -> f32 {
        self.values(state, 1)[0]
    }

    /// Value estimates of `batch` row-major states in one critic pass;
    /// entry `i` is bit-equal to [`PpoAgent::value`] of row `i`.
    pub fn values(&mut self, states: &[f32], batch: usize) -> &[f32] {
        self.critic
            .forward_batch(states, batch, &mut self.ws_critic)
    }

    /// Samples actions for a single state; returns `(actions, logp)`.
    pub fn act<R: Rng + ?Sized>(
        &mut self,
        state: &[f32],
        masks: &[Vec<bool>],
        rng: &mut R,
    ) -> (Vec<usize>, f32) {
        self.policy.sample(state, masks, &mut self.ws_policy, rng)
    }

    /// Batched action sampling: one policy forward for `batch` states
    /// (row-major in `states`), then `samples` independent draws per row.
    ///
    /// Row `b` uses `masks[b]` for every draw; its softmax is computed
    /// once and reused, which is exactly what the per-sample loop did
    /// (the state, logits, and masks are constant across a row's draws).
    /// RNG consumption order is row-major, then draw, then head — the
    /// same stream the equivalent `act` loop would consume, so batching
    /// changes no downstream byte. The draws land in one buffer the agent
    /// reuses, valid until the next call.
    pub fn act_batch<R: Rng + ?Sized>(
        &mut self,
        states: &[f32],
        batch: usize,
        masks: &[Vec<Vec<bool>>],
        samples: usize,
        rng: &mut R,
    ) -> Draws<'_> {
        debug_assert_eq!(masks.len(), batch);
        let _span = self.tracer.span_with(
            "ppo_act_batch",
            &[("tracks", batch.into()), ("samples", samples.into())],
        );
        {
            let _gemm = self.tracer.span_with(
                "gemm",
                &[
                    ("batch", batch.into()),
                    ("backend", harl_simd::backend_name().into()),
                ],
            );
            self.policy
                .forward_batch(states, batch, &mut self.ws_policy);
        }
        let head_sizes = self.policy.head_sizes();
        let Scratch {
            probs,
            ln_probs,
            draws,
            ..
        } = &mut self.scratch;
        probs.resize(head_sizes.len(), Vec::new());
        ln_probs.resize(head_sizes.len(), Vec::new());
        for (h, (p, ln_p)) in probs.iter_mut().zip(ln_probs.iter_mut()).enumerate() {
            let mask_of = |b: usize| head_mask(&masks[b], h);
            softmax_rows(self.ws_policy.logits(h), head_sizes[h], mask_of, p, ln_p);
        }
        // every slot keeps its action list's allocation across calls
        draws.resize_with(batch * samples, Default::default);
        for (i, (actions, logp)) in draws.iter_mut().enumerate() {
            let b = i / samples;
            actions.clear();
            *logp = 0.0;
            for ((p, ln_p), &hs) in probs.iter().zip(ln_probs.iter()).zip(&head_sizes) {
                let row = b * hs..(b + 1) * hs;
                let a = sample_categorical(&p[row.clone()], rng);
                actions.push(a);
                *logp += ln_prob(&p[row.clone()], &ln_p[row], a);
            }
        }
        Draws {
            flat: draws,
            samples,
        }
    }

    /// One-step TD advantage (Eq. 6): `A = r + γ V(s') − V(s)`.
    pub fn advantage(&mut self, reward: f32, state: &[f32], next_state: &[f32]) -> f32 {
        reward + self.cfg.gamma * self.value(next_state) - self.value(state)
    }

    /// Records a transition, computing advantage and critic target (one
    /// batch-2 critic pass for both value estimates).
    pub fn record(
        &mut self,
        state: Vec<f32>,
        actions: Vec<usize>,
        logp: f32,
        reward: f32,
        next_state: &[f32],
        masks: Vec<Vec<bool>>,
    ) -> f32 {
        let mut x = Vec::with_capacity(next_state.len() + state.len());
        x.extend_from_slice(next_state);
        x.extend_from_slice(&state);
        let out = self.values(&x, 2);
        let (v_next, v) = (out[0], out[1]);
        self.record_valued(state, actions, logp, reward, v_next, v, masks)
    }

    /// [`PpoAgent::record`] for a caller that already holds
    /// `v_next = V(s′)` and `v = V(s)` — an episode step scores the
    /// `(s′, s)` pairs of all its tracks in one [`PpoAgent::values`] pass
    /// and then records them in track order. No update may run between
    /// that pass and this call, or the estimates are not the critic's.
    #[allow(clippy::too_many_arguments)]
    pub fn record_valued(
        &mut self,
        state: Vec<f32>,
        actions: Vec<usize>,
        logp: f32,
        reward: f32,
        v_next: f32,
        v: f32,
        masks: Vec<Vec<bool>>,
    ) -> f32 {
        let advantage = reward + self.cfg.gamma * v_next - v;
        let value_target = reward + self.cfg.gamma * v_next;
        self.buffer.push(Transition {
            state,
            actions,
            logp,
            reward,
            advantage,
            value_target,
            masks,
        });
        advantage
    }

    /// Number of gradient updates performed so far.
    pub fn num_updates(&self) -> u64 {
        self.updates
    }

    /// The learner's health over the updates since the last call (all
    /// zeros, no heads, when there were none); resets the running sums.
    pub fn take_health(&mut self) -> PpoHealth {
        let sums = std::mem::take(&mut self.health);
        let n = sums.samples.max(1) as f64;
        let adv_mean = sums.adv / n;
        PpoHealth {
            updates: sums.updates,
            samples: sums.samples,
            entropy_per_head: sums.entropy.iter().map(|e| e / n).collect(),
            clip_fraction: sums.clipped as f64 / n,
            approx_kl: sums.kl / n,
            value_loss: sums.value_err_sq / n,
            adv_mean,
            adv_var: (sums.adv_sq / n - adv_mean * adv_mean).max(0.0),
        }
    }

    /// One PPO update on a sampled minibatch (Algorithm 1, lines 14–17).
    /// Returns `(policy_loss, value_loss)` averaged over the batch, or
    /// `None` when the buffer is empty. Samples buffer positions and
    /// updates over references into the buffer, which steps out of the
    /// agent for the duration of the update.
    pub fn train_step<R: Rng + ?Sized>(&mut self, rng: &mut R) -> Option<(f32, f32)> {
        if self.buffer.is_empty() {
            return None;
        }
        let mut sample = std::mem::take(&mut self.scratch.sample);
        self.buffer
            .sample_into(self.cfg.minibatch, rng, &mut sample);
        let buffer = std::mem::take(&mut self.buffer);
        let losses = self.update(sample.len(), |s| buffer.get(sample[s]));
        self.buffer = buffer;
        self.scratch.sample = sample;
        Some(losses)
    }

    /// One PPO update on an explicit minibatch; see [`PpoAgent::train_step`]
    /// for the sampled one. An empty minibatch is no update: `(0.0, 0.0)`
    /// and not a weight, moment or counter moves.
    pub fn train_minibatch(&mut self, batch: &[Transition]) -> (f32, f32) {
        self.update(batch.len(), |s| &batch[s])
    }

    /// The PPO update over samples `at(0..n_samples)`: a single batched
    /// policy and critic forward, the per-sample surrogate-loss scalars in
    /// sample order, then one batched backward with the parameter
    /// reduction on the agent's pool.
    ///
    /// Summation-order inventory (why this is bit-equal to the serial
    /// per-sample loop): loss accumulators and logit gradients are
    /// computed per sample in ascending order from the batched logits
    /// (whose rows are bit-equal to per-sample forwards); `exp` and `ln`
    /// are elementwise, so taking them a head (or a minibatch of ratios)
    /// at a time changes no cell, and each row's softmax denominator and
    /// entropy stay ascending sums over that row; parameter
    /// gradients accumulate per cell in ascending sample order inside
    /// [`crate::layers::Linear::backward_batch`] regardless of pool
    /// width; and the policy-then-critic phase split is exact because the
    /// two networks share no accumulator.
    fn update<'a>(&mut self, n_samples: usize, at: impl Fn(usize) -> &'a Transition) -> (f32, f32) {
        if n_samples == 0 {
            // no sample, no gradient: an Adam step on zeros would still
            // move every weight by its momentum
            return (0.0, 0.0);
        }
        let n = n_samples as f32;
        let batch = || (0..n_samples).map(&at);
        self.policy.zero_grad();
        self.critic.zero_grad();
        let mut policy_loss_acc = 0.0f32;
        let mut value_loss_acc = 0.0f32;

        // advantage normalisation stabilises small batches
        let mean_a: f32 = batch().map(|t| t.advantage).sum::<f32>() / n;
        let var_a: f32 = batch().map(|t| (t.advantage - mean_a).powi(2)).sum::<f32>() / n;
        let std_a = var_a.sqrt().max(1e-6);

        let Scratch {
            x,
            probs,
            ln_probs,
            entropy_terms,
            ratios,
            dlogp,
            grad_logits,
            grad_v,
            ..
        } = &mut self.scratch;
        x.clear();
        for t in batch() {
            x.extend_from_slice(&t.state);
        }

        // --- actor: one batched forward, per-sample surrogate scalars ---
        {
            let _gemm = self.tracer.span_with(
                "gemm",
                &[
                    ("batch", n_samples.into()),
                    ("net", "policy".into()),
                    ("backend", harl_simd::backend_name().into()),
                ],
            );
            self.policy.forward_batch(x, n_samples, &mut self.ws_policy);
        }
        let head_sizes = self.policy.head_sizes();
        let chosen = |t: &Transition, h: usize| t.actions[h].min(head_sizes[h] - 1);
        probs.resize(head_sizes.len(), Vec::new());
        ln_probs.resize(head_sizes.len(), Vec::new());
        grad_logits.resize(head_sizes.len(), Vec::new());
        let health = &mut self.health;
        health.updates += 1;
        health.samples += n_samples as u64;
        health.entropy.resize(head_sizes.len(), 0.0);

        // every probability and logarithm of the minibatch: one `exp` and
        // one `ln` call per head, whole vectors even for a 3-wide head
        for (h, (p, ln_p)) in probs.iter_mut().zip(ln_probs.iter_mut()).enumerate() {
            let mask_of = |s: usize| head_mask(&at(s).masks, h);
            softmax_rows(self.ws_policy.logits(h), head_sizes[h], mask_of, p, ln_p);
        }
        // the ratios, through one `exp` call
        ratios.clear();
        for (s, t) in batch().enumerate() {
            let mut logp_new = 0.0f32;
            for (h, &hs) in head_sizes.iter().enumerate() {
                let row = s * hs..(s + 1) * hs;
                logp_new += ln_prob(&probs[h][row.clone()], &ln_probs[h][row], chosen(t, h));
            }
            let log_ratio = logp_new - t.logp;
            health.kl -= f64::from(log_ratio);
            ratios.push(log_ratio.clamp(-20.0, 20.0));
        }
        harl_simd::exp_inplace(ratios);
        let (clip_lo, clip_hi) = (1.0 - self.cfg.clip, 1.0 + self.cfg.clip);
        dlogp.clear();
        for (t, &ratio) in batch().zip(ratios.iter()) {
            let adv = (t.advantage - mean_a) / std_a;
            let surr1 = ratio * adv;
            let surr2 = ratio.clamp(clip_lo, clip_hi) * adv;
            let loss_pi = -surr1.min(surr2);
            policy_loss_acc += loss_pi;
            // dL/dlogp_new: −A·ratio when the unclipped branch is active
            dlogp.push(if surr1 <= surr2 { -adv * ratio } else { 0.0 });
            health.clipped += u64::from(!(clip_lo..=clip_hi).contains(&ratio));
            health.adv += f64::from(t.advantage);
            health.adv_sq += f64::from(t.advantage) * f64::from(t.advantage);
        }
        // entropy and logit gradients. Both passes are selects over whole
        // rows, so they run in vector lanes: a masked cell adds −0.0 to the
        // entropy (the identity of the sum, which stays one ascending chain
        // per row) and gets a +0.0 gradient; the chosen action's cell is
        // patched after its row's pass
        let entropy_weight = self.cfg.entropy_weight;
        for (h, &hs) in head_sizes.iter().enumerate() {
            let (p, ln_p) = (&probs[h], &ln_probs[h]);
            entropy_terms.clear();
            entropy_terms.extend(p.iter().zip(ln_p).map(
                |(&p, &ln_p)| {
                    if p > 0.0 {
                        -p * ln_p
                    } else {
                        -0.0
                    }
                },
            ));
            let grad = &mut grad_logits[h];
            grad.clear();
            grad.resize(n_samples * hs, 0.0);
            for (s, t) in batch().enumerate() {
                let row = s * hs..(s + 1) * hs;
                let entropy: f32 = entropy_terms[row.clone()].iter().sum();
                health.entropy[h] += f64::from(entropy);
                let dlogp = dlogp[s];
                let cell = |p: f32, ln_p: f32, onehot: f32| {
                    let d_logp = onehot - p;
                    let d_ent = -p * (ln_p + entropy);
                    dlogp * d_logp - entropy_weight * d_ent
                };
                let (p, ln_p, grad) = (&p[row.clone()], &ln_p[row.clone()], &mut grad[row]);
                for ((&p, &ln_p), slot) in p.iter().zip(ln_p).zip(grad.iter_mut()) {
                    *slot = if p > 0.0 { cell(p, ln_p, 0.0) } else { 0.0 };
                }
                let a = chosen(t, h);
                if p[a] > 0.0 {
                    grad[a] = cell(p[a], ln_p[a], 1.0);
                }
            }
        }

        // --- critic: one batched forward, per-sample MSE scalars --------
        let values = {
            let _gemm = self.tracer.span_with(
                "gemm",
                &[
                    ("batch", n_samples.into()),
                    ("net", "critic".into()),
                    ("backend", harl_simd::backend_name().into()),
                ],
            );
            self.critic.forward_batch(x, n_samples, &mut self.ws_critic)
        };
        grad_v.clear();
        for (t, &value) in batch().zip(values) {
            let err = value - t.value_target;
            value_loss_acc += self.cfg.value_weight * err * err;
            grad_v.push(2.0 * self.cfg.value_weight * err);
            health.value_err_sq += f64::from(err) * f64::from(err);
        }

        // --- batched backward, parameter reduction on the pool ----------
        {
            let _span = self.tracer.span_with(
                "ppo_backward",
                &[
                    ("minibatch", n_samples.into()),
                    ("threads", self.pool.threads().into()),
                ],
            );
            self.policy
                .backward_batch(grad_logits, &mut self.ws_policy, &self.pool);
            self.critic
                .backward_batch(grad_v, &mut self.ws_critic, &self.pool, None);
        }

        self.policy.adam_step(self.cfg.lr_actor, 1.0 / n);
        self.critic.adam_step(self.cfg.lr_critic, 1.0 / n);
        self.updates += 1;
        (policy_loss_acc / n, value_loss_acc / n)
    }
}

/// One head's softmax rows for a whole batch (`logits` is batch-major,
/// `width` cells a row, row `b` masked by `mask_of(b)`) into `p`, and their
/// logarithms into `ln_p`: one lane `exp` and one lane `ln` call, each row
/// bit-equal to [`crate::mlp::masked_softmax_into`] of that row.
fn softmax_rows<'m>(
    logits: &[f32],
    width: usize,
    mask_of: impl Fn(usize) -> Option<&'m [bool]>,
    p: &mut Vec<f32>,
    ln_p: &mut Vec<f32>,
) {
    p.clear();
    p.resize(logits.len(), 0.0);
    let rows = logits.chunks_exact(width).zip(p.chunks_exact_mut(width));
    for (b, (z, row)) in rows.enumerate() {
        shift_logits(z, mask_of(b), row);
    }
    harl_simd::exp_inplace(p);
    p.chunks_exact_mut(width).for_each(normalize);
    ln_p.clear();
    ln_p.extend_from_slice(p);
    harl_simd::ln_inplace(ln_p);
}

/// `ln(max(p[a], 1e-12))`, read from the row's logarithms.
fn ln_prob(p: &[f32], ln_p: &[f32], a: usize) -> f32 {
    const FLOOR: f32 = 1e-12;
    // a NaN probability takes the floor, as `f32::max` made it
    if p[a] >= FLOOR {
        ln_p[a]
    } else {
        harl_simd::ln_lane(FLOOR)
    }
}

/// Head `h`'s mask among a transition's (or track's) masks; a missing or
/// empty mask means "all valid".
fn head_mask(masks: &[Vec<bool>], h: usize) -> Option<&[bool]> {
    masks.get(h).filter(|m| !m.is_empty()).map(|m| m.as_slice())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A 1-D corridor MDP: state = position one-hot (length 5); action head
    /// of 3 = {left, stay, right}; reward = 1 when reaching the right end.
    fn corridor_state(pos: usize) -> Vec<f32> {
        let mut s = vec![0.0; 5];
        s[pos] = 1.0;
        s
    }

    #[test]
    fn serde_round_trip_trains_identically() {
        let mut rng = StdRng::seed_from_u64(31);
        let mut agent = PpoAgent::new(5, &[3], PpoConfig::default(), &mut rng);
        for pos in 0..4usize {
            let (actions, logp) = agent.act(&corridor_state(pos), &[], &mut rng);
            let reward = if pos == 3 { 1.0 } else { 0.0 };
            agent.record(
                corridor_state(pos),
                actions,
                logp,
                reward,
                &corridor_state(pos + 1),
                vec![],
            );
        }
        let text = serde_json::to_string(&agent).unwrap();
        let mut restored: PpoAgent = serde_json::from_str(&text).unwrap();
        assert_eq!(restored.buffer.len(), agent.buffer.len());
        assert_eq!(restored.num_updates(), agent.num_updates());
        // Same weights + same RNG => bit-identical training trajectory.
        let mut rng_a = StdRng::seed_from_u64(77);
        let mut rng_b = StdRng::seed_from_u64(77);
        for _ in 0..3 {
            let (pa, va) = agent.train_step(&mut rng_a).unwrap();
            let (pb, vb) = restored.train_step(&mut rng_b).unwrap();
            assert_eq!(pa.to_bits(), pb.to_bits());
            assert_eq!(va.to_bits(), vb.to_bits());
        }
        let s = corridor_state(2);
        assert_eq!(agent.value(&s).to_bits(), restored.value(&s).to_bits());
    }

    /// Critic values and policy logits of `agent` on a fixed probe batch.
    fn probe(agent: &mut PpoAgent) -> Vec<u32> {
        let x: Vec<f32> = (0..15).map(|i| (i as f32 * 0.19).cos()).collect();
        let mut bits: Vec<u32> = agent.values(&x, 3).iter().map(|v| v.to_bits()).collect();
        let mut ws = PolicyWorkspace::new();
        agent.policy.forward_batch(&x, 3, &mut ws);
        for h in 0..agent.policy.num_heads() {
            bits.extend(ws.logits(h).iter().map(|v| v.to_bits()));
        }
        bits
    }

    /// A copy whose layers hold no cached transpose: `#[serde(skip)]` drops
    /// them, so its first forward rebuilds each one from the weights.
    fn uncached(agent: &PpoAgent) -> PpoAgent {
        serde_json::from_str(&serde_json::to_string(agent).unwrap()).unwrap()
    }

    #[test]
    fn cached_transposes_are_never_stale() {
        // wherever weights change hands — Adam, clone, serde — a forward
        // through the live agent must equal one that transposes afresh
        let mut rng = StdRng::seed_from_u64(17);
        let mut agent = PpoAgent::new(5, &[7, 3], PpoConfig::default(), &mut rng);
        for pos in 0..4usize {
            let (actions, logp) = agent.act(&corridor_state(pos), &[], &mut rng);
            let next = corridor_state(pos + 1);
            agent.record(corridor_state(pos), actions, logp, 0.5, &next, vec![]);
        }
        let untrained = probe(&mut agent);
        for _ in 0..3 {
            agent.train_step(&mut rng).unwrap();
            assert_eq!(
                probe(&mut agent),
                probe(&mut uncached(&agent)),
                "after adam_step"
            );
        }
        let trained = probe(&mut agent);
        assert_ne!(trained, untrained);

        let mut twin = agent.clone();
        twin.train_step(&mut rng).unwrap();
        assert_eq!(
            probe(&mut twin),
            probe(&mut uncached(&twin)),
            "trained clone"
        );
        assert_eq!(
            probe(&mut agent),
            trained,
            "the original must not follow its clone"
        );

        let mut restored = uncached(&agent);
        assert_eq!(probe(&mut restored), trained, "serde round-trip");
        restored.train_step(&mut rng).unwrap();
        assert_eq!(
            probe(&mut restored),
            probe(&mut uncached(&restored)),
            "restored, then trained"
        );
    }

    #[test]
    fn act_batch_matches_serial_act_loop() {
        // one batched multi-draw call must consume the RNG and produce
        // actions exactly like the per-track, per-draw `act` loop
        let mut rng = StdRng::seed_from_u64(55);
        let mut a1 = PpoAgent::new(6, &[7, 3], PpoConfig::default(), &mut rng);
        let mut a2 = a1.clone();
        let states: Vec<f32> = (0..18).map(|i| (i as f32 * 0.23).sin()).collect();
        let masks: Vec<Vec<Vec<bool>>> = vec![
            vec![],
            vec![vec![true, false, true, true, false, true, true], vec![]],
            vec![vec![], vec![true, true, false]],
        ];
        let samples = 4;

        let mut rng_a = StdRng::seed_from_u64(91);
        let mut rng_b = StdRng::seed_from_u64(91);
        let batched = a1.act_batch(&states, 3, &masks, samples, &mut rng_a);
        assert_eq!(batched.iter().count(), 3);
        for (b, draws) in batched.iter().enumerate() {
            for (acts, logp) in draws {
                let (sa, sl) = a2.act(&states[b * 6..(b + 1) * 6], &masks[b], &mut rng_b);
                assert_eq!(*acts, sa, "track {b}");
                assert_eq!(logp.to_bits(), sl.to_bits(), "track {b}");
            }
        }
        // both agents must have drawn the same stream length
        assert_eq!(rng_a.gen::<u64>(), rng_b.gen::<u64>());
    }

    #[test]
    fn train_is_bit_identical_across_pool_widths() {
        let mut rng = StdRng::seed_from_u64(61);
        let mut reference = PpoAgent::new(5, &[3, 3], PpoConfig::default(), &mut rng);
        for pos in 0..4usize {
            let (actions, logp) = reference.act(&corridor_state(pos), &[], &mut rng);
            reference.record(
                corridor_state(pos),
                actions,
                logp,
                0.25,
                &corridor_state(pos + 1),
                vec![],
            );
        }
        let pristine = reference.clone();
        reference.set_threads(1);
        let mut rng_ref = StdRng::seed_from_u64(7);
        let losses_ref: Vec<(u32, u32)> = (0..3)
            .map(|_| {
                let (p, v) = reference.train_step(&mut rng_ref).unwrap();
                (p.to_bits(), v.to_bits())
            })
            .collect();
        let probe = corridor_state(2);
        let value_ref = reference.value(&probe).to_bits();

        for threads in [2, 3, 7] {
            let mut agent = pristine.clone();
            agent.set_threads(threads);
            let mut rng_t = StdRng::seed_from_u64(7);
            let losses: Vec<(u32, u32)> = (0..3)
                .map(|_| {
                    let (p, v) = agent.train_step(&mut rng_t).unwrap();
                    (p.to_bits(), v.to_bits())
                })
                .collect();
            assert_eq!(losses, losses_ref, "width {threads} losses diverged");
            assert_eq!(
                agent.value(&probe).to_bits(),
                value_ref,
                "width {threads} weights diverged"
            );
        }
    }

    #[test]
    fn ppo_config_builder_validates() {
        let cfg = PpoConfig::builder()
            .minibatch(16)
            .hidden(32)
            .lr_actor(1e-3)
            .build()
            .unwrap();
        assert_eq!((cfg.minibatch, cfg.hidden), (16, 32));

        let err = PpoConfig::builder().minibatch(0).build().unwrap_err();
        assert_eq!(err.field, "ppo.minibatch");
        let err = PpoConfig::builder().hidden(0).build().unwrap_err();
        assert_eq!(err.field, "ppo.hidden");
        let err = PpoConfig::builder().lr_actor(f32::NAN).build().unwrap_err();
        assert_eq!(err.field, "ppo.lr_actor");
        let err = PpoConfig::builder()
            .lr_critic(f32::INFINITY)
            .build()
            .unwrap_err();
        assert_eq!(err.field, "ppo.lr_critic");
        let err = PpoConfig::builder().gamma(1.5).build().unwrap_err();
        assert_eq!(err.field, "ppo.gamma");
        let err = PpoConfig::builder().clip(0.0).build().unwrap_err();
        assert_eq!(err.field, "ppo.clip");
    }

    #[test]
    fn ppo_learns_to_move_right() {
        let mut rng = StdRng::seed_from_u64(42);
        let cfg = PpoConfig {
            minibatch: 32,
            hidden: 24,
            lr_actor: 3e-3,
            lr_critic: 5e-3,
            buffer_capacity: 256,
            ..Default::default()
        };
        let mut agent = PpoAgent::new(5, &[3], cfg, &mut rng);

        for _episode in 0..1200 {
            let mut pos = 0usize;
            for _step in 0..8 {
                let s = corridor_state(pos);
                let (a, logp) = agent.act(&s, &[vec![]], &mut rng);
                let next = match a[0] {
                    0 => pos.saturating_sub(1),
                    1 => pos,
                    _ => (pos + 1).min(4),
                };
                let reward = if next == 4 { 1.0 } else { -0.05 };
                let ns = corridor_state(next);
                agent.record(s, a, logp, reward, &ns, vec![vec![]]);
                pos = next;
                if pos == 4 {
                    break;
                }
            }
            agent.train_step(&mut rng);
            agent.train_step(&mut rng);
        }

        // greedy policy should walk right from the start
        let mut ws = crate::policy::PolicyWorkspace::new();
        let mut pos = 0usize;
        for _ in 0..6 {
            let a = agent
                .policy
                .greedy(&corridor_state(pos), &[vec![]], &mut ws);
            pos = match a[0] {
                0 => pos.saturating_sub(1),
                1 => pos,
                _ => (pos + 1).min(4),
            };
        }
        assert_eq!(pos, 4, "trained agent should reach the goal greedily");
    }

    #[test]
    fn advantage_formula_matches_eq6() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut agent = PpoAgent::new(3, &[2], PpoConfig::default(), &mut rng);
        let s = vec![0.1, 0.2, 0.3];
        let ns = vec![0.3, 0.2, 0.1];
        let a = agent.advantage(0.5, &s, &ns);
        let manual = 0.5 + agent.cfg.gamma * agent.value(&ns) - agent.value(&s);
        assert!((a - manual).abs() < 1e-6);
    }

    #[test]
    fn replay_buffer_caps() {
        let mut buf = ReplayBuffer::with_capacity(4);
        for i in 0..10 {
            buf.push(Transition {
                state: vec![i as f32],
                actions: vec![0],
                logp: 0.0,
                reward: 0.0,
                advantage: 0.0,
                value_target: 0.0,
                masks: vec![],
            });
        }
        assert_eq!(buf.len(), 4);
    }

    /// An agent with `n` recorded corridor transitions.
    fn corridor_agent(heads: &[usize], n: usize, seed: u64) -> (PpoAgent, StdRng) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut agent = PpoAgent::new(5, heads, PpoConfig::default(), &mut rng);
        for i in 0..n {
            let pos = i % 4;
            let (actions, logp) = agent.act(&corridor_state(pos), &[], &mut rng);
            let reward = if pos == 3 { 1.0 } else { -0.05 };
            let next = corridor_state(pos + 1);
            agent.record(corridor_state(pos), actions, logp, reward, &next, vec![]);
        }
        (agent, rng)
    }

    #[test]
    fn an_empty_minibatch_trains_nothing() {
        // after real updates the Adam moments are non-zero: a step on an
        // all-zero gradient would still move every weight
        let (mut agent, mut rng) = corridor_agent(&[3, 3], 12, 23);
        for _ in 0..3 {
            agent.train_step(&mut rng).unwrap();
        }
        let policy: Vec<u64> = agent.policy.state_bits().collect();
        let critic: Vec<u64> = agent.critic.state_bits().collect();
        let updates = agent.num_updates();
        let probe = agent.value(&corridor_state(2)).to_bits();
        agent.take_health();
        assert_eq!(agent.train_minibatch(&[]), (0.0, 0.0));
        // (not `assert_eq!`: a failure would print every weight)
        assert!(agent.policy.state_bits().eq(policy), "policy state moved");
        assert!(agent.critic.state_bits().eq(critic), "critic state moved");
        assert_eq!(agent.num_updates(), updates);
        assert_eq!(agent.value(&corridor_state(2)).to_bits(), probe);
        assert_eq!(agent.take_health(), PpoHealth::default());
    }

    #[test]
    fn health_reports_the_updates_since_the_last_take_and_feeds_nothing() {
        let (mut watched, mut rng) = corridor_agent(&[3, 2], 40, 29);
        let mut unwatched = watched.clone();
        let mut rng_u = rng.clone();
        assert_eq!(watched.take_health(), PpoHealth::default());
        for round in 0..3 {
            for _ in 0..2 {
                let a = watched.train_step(&mut rng).unwrap();
                let b = unwatched.train_step(&mut rng_u).unwrap();
                assert_eq!(
                    (a.0.to_bits(), a.1.to_bits()),
                    (b.0.to_bits(), b.1.to_bits())
                );
            }
            let h = watched.take_health();
            assert_eq!((h.updates, h.samples), (2, 80), "round {round}");
            assert_eq!(h.entropy_per_head.len(), 2);
            for (e, actions) in h.entropy_per_head.iter().zip([3f64, 2.0]) {
                assert!(*e > 0.0 && *e <= actions.ln() + 1e-6, "entropy {e}");
            }
            assert!((0.0..=1.0).contains(&h.clip_fraction));
            assert!(h.approx_kl.is_finite() && h.value_loss >= 0.0 && h.adv_var >= 0.0);
            if round == 0 {
                // the first update starts from the behaviour policy itself
                assert!(h.approx_kl.abs() < 0.05, "kl {}", h.approx_kl);
            }
        }
        assert_eq!(watched.take_health().updates, 0, "take resets");
        let bits = |a: &PpoAgent| {
            a.policy
                .state_bits()
                .chain(a.critic.state_bits())
                .collect::<Vec<_>>()
        };
        assert_eq!(bits(&watched), bits(&unwatched));
    }

    #[test]
    fn train_on_empty_buffer_is_none() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut agent = PpoAgent::new(3, &[2], PpoConfig::default(), &mut rng);
        assert!(agent.train_step(&mut rng).is_none());
    }

    #[test]
    fn critic_regresses_to_targets() {
        let mut rng = StdRng::seed_from_u64(3);
        let cfg = PpoConfig {
            lr_critic: 5e-3,
            minibatch: 16,
            hidden: 16,
            ..Default::default()
        };
        let mut agent = PpoAgent::new(2, &[2], cfg, &mut rng);
        // fixed target: V([1,0]) → 1, V([0,1]) → -1 via rewards with γ≈0 path
        for _ in 0..400 {
            agent.buffer.clear();
            for _ in 0..16 {
                agent.buffer.push(Transition {
                    state: vec![1.0, 0.0],
                    actions: vec![0],
                    logp: -0.69,
                    reward: 1.0,
                    advantage: 0.0,
                    value_target: 1.0,
                    masks: vec![],
                });
                agent.buffer.push(Transition {
                    state: vec![0.0, 1.0],
                    actions: vec![1],
                    logp: -0.69,
                    reward: -1.0,
                    advantage: 0.0,
                    value_target: -1.0,
                    masks: vec![],
                });
            }
            agent.train_step(&mut rng);
        }
        assert!((agent.value(&[1.0, 0.0]) - 1.0).abs() < 0.25);
        assert!((agent.value(&[0.0, 1.0]) + 1.0).abs() < 0.25);
    }
}
