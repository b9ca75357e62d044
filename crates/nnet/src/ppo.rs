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
//! the whole minibatch; the softmax, the log-probabilities and the ratios
//! go through `harl-simd`'s lane `exp` and `ln` a head at a time, never
//! through the host's libm. Both are bit-identical to their per-sample
//! equivalents at any batch size, and both compute the policy's live
//! logit columns alone — those a mask the agent saw allowed — which is
//! bit-identical to computing every column (see [`PpoAgent::update`]).

use harl_obs::Tracer;
use harl_tensor_sim::ConfigError;
use rand::seq::SliceRandom;
use rand::Rng;
use serde::de::{self, DeError, Value};
use serde::ser::JsonWriter;
use serde::{Deserialize, Serialize};

use crate::mlp::{normalize, shift_logits, Mlp, Workspace};
use crate::packed;
use crate::policy::{draw_from_sums, head_mask, running_sums, MultiHeadPolicy, PolicyWorkspace};

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
        for (field, v) in [
            ("ppo.lr_actor", self.lr_actor),
            ("ppo.lr_critic", self.lr_critic),
            ("ppo.clip", self.clip),
        ] {
            if !v.is_finite() || v <= 0.0 {
                return Err(ConfigError::new(
                    field,
                    format!("must be finite and positive, got {v}"),
                ));
            }
        }
        if !(0.0..=1.0).contains(&self.gamma) {
            return Err(ConfigError::new(
                "ppo.gamma",
                format!("discount must lie in [0, 1], got {}", self.gamma),
            ));
        }
        for (field, v) in [
            ("ppo.entropy_weight", self.entropy_weight),
            ("ppo.value_weight", self.value_weight),
        ] {
            if !v.is_finite() || v < 0.0 {
                return Err(ConfigError::new(
                    field,
                    format!("must be finite and non-negative, got {v}"),
                ));
            }
        }
        Ok(())
    }

    /// Why a decoded config is not the one its agent was built from: the
    /// two values [`PpoAgent::new`] spends on construction — `hidden` and
    /// `buffer_capacity` — must be the decoded trunk's width and the
    /// decoded buffer's capacity.
    fn agrees_with(&self, policy: &MultiHeadPolicy, buffer: &ReplayBuffer) -> Result<(), String> {
        for (field, is, built_with) in [
            ("ppo.hidden", self.hidden, policy.hidden()),
            ("ppo.buffer_capacity", self.buffer_capacity, buffer.cap),
        ] {
            if is != built_with {
                return Err(format!(
                    "{field}: is {is}, the decoded agent was built with {built_with}"
                ));
            }
        }
        Ok(())
    }
}

/// One recorded `(S, M, S', R, Y)` tuple (Algorithm 1, line 12): the owned
/// form, for handing transitions to the [`ReplayBuffer`] and to
/// [`PpoAgent::train_minibatch`]. The buffer stores its rows as arrays,
/// not these.
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
    /// Per-head masks at the time of action; a missing or empty entry is
    /// all valid.
    pub masks: Vec<Vec<bool>>,
}

impl Transition {
    fn scalars(&self) -> [f32; 4] {
        [self.logp, self.reward, self.advantage, self.value_target]
    }
}

/// One row of the [`ReplayBuffer`], borrowed: what a minibatch gathers.
#[derive(Debug, Clone, Copy)]
struct Row<'a> {
    state: &'a [f32],
    actions: &'a [usize],
    /// `[logp, reward, advantage, value_target]`.
    scalars: [f32; 4],
    /// Whether each action was valid, laid out like a row of logits.
    valid: &'a [bool],
}

/// Writes the validity of every action under `masks` into `cells`, head
/// `h` at `offsets[h]..offsets[h + 1]`: its mask, or all `true` where
/// [`head_mask`] finds none.
fn fill_valid(masks: &[Vec<bool>], offsets: &[usize], cells: &mut [bool]) {
    for (h, at) in offsets.windows(2).enumerate() {
        let head = &mut cells[at[0]..at[1]];
        match head_mask(masks, h) {
            Some(mask) => head.copy_from_slice(mask),
            None => head.fill(true),
        }
    }
}

/// Bounded FIFO replay buffer with uniform minibatch sampling.
///
/// A ring of structure-of-arrays rows for an agent of one shape
/// (`state_dim` inputs, the heads' sizes): states, actions, the four
/// scalars and the validity cells each in one allocation that grows with
/// the rows recorded until the buffer is full, after which the oldest
/// row's slot is overwritten. A row's validity cells hold one `bool` per
/// action of every head, laid out like a row of logits, so a minibatch
/// gathers them with one copy. Serialized as those four arrays, oldest
/// row first.
#[derive(Debug, Clone)]
pub struct ReplayBuffer {
    cap: usize,
    state_dim: usize,
    /// Head `h`'s cells are `offsets[h]..offsets[h + 1]` of a row's; one
    /// entry more than there are heads.
    offsets: Vec<usize>,
    /// Slot of the oldest row. Rows are appended until the buffer is full,
    /// so this leaves 0 only once every slot exists.
    head: usize,
    /// Rows overwritten since the last [`ReplayBuffer::take_evicted`].
    evicted: u64,
    states: Vec<f32>,
    actions: Vec<usize>,
    /// `[logp, reward, advantage, value_target]` per row.
    scalars: Vec<[f32; 4]>,
    valid: Vec<bool>,
}

impl ReplayBuffer {
    /// A buffer holding at most `cap` transitions (0 = unbounded) of an
    /// agent with `state_dim` inputs and heads of `head_sizes` actions.
    pub fn new(cap: usize, state_dim: usize, head_sizes: &[usize]) -> Self {
        let mut offsets = vec![0];
        for &size in head_sizes {
            offsets.push(offsets.last().expect("starts at 0") + size);
        }
        ReplayBuffer {
            cap,
            state_dim,
            offsets,
            head: 0,
            evicted: 0,
            states: Vec::new(),
            actions: Vec::new(),
            scalars: Vec::new(),
            valid: Vec::new(),
        }
    }

    /// Where each head's cells sit in a row of validity cells — and of
    /// logits: head `h` at `offsets[h]..offsets[h + 1]`, the layout of
    /// [`MultiHeadPolicy::head_offsets`] for the agent the buffer belongs to.
    fn head_offsets(&self) -> &[usize] {
        &self.offsets
    }

    fn heads(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Validity cells per row.
    fn cells(&self) -> usize {
        *self.offsets.last().expect("starts at 0")
    }

    /// Appends a transition, evicting the oldest beyond capacity.
    ///
    /// # Panics
    /// If the transition does not have the buffer's shape: `state_dim`
    /// state values, one action per head and inside it, at most one mask
    /// per head, each empty or as long as its head.
    pub fn push(&mut self, t: Transition) {
        self.push_row(&t.state, &t.actions, t.scalars(), &t.masks);
    }

    fn push_row(
        &mut self,
        state: &[f32],
        actions: &[usize],
        scalars: [f32; 4],
        masks: &[Vec<bool>],
    ) {
        if let Err(misfit) = self.fit(state, actions, masks) {
            panic!("replay buffer: {misfit}");
        }
        let slot = if self.cap > 0 && self.len() == self.cap {
            self.evicted += 1;
            let oldest = self.head;
            self.head = (oldest + 1) % self.cap;
            oldest
        } else {
            let rows = self.len() + 1;
            self.states.resize(rows * self.state_dim, 0.0);
            self.actions.resize(rows * self.heads(), 0);
            self.scalars.push([0.0; 4]);
            self.valid.resize(rows * self.cells(), false);
            rows - 1
        };
        let (dim, heads, cells) = (self.state_dim, self.heads(), self.cells());
        self.states[slot * dim..][..dim].copy_from_slice(state);
        self.actions[slot * heads..][..heads].copy_from_slice(actions);
        self.scalars[slot] = scalars;
        fill_valid(
            masks,
            &self.offsets,
            &mut self.valid[slot * cells..][..cells],
        );
    }

    /// Why a transition of these fields cannot be stored here, naming the
    /// field; `Ok` if it can.
    fn fit(&self, state: &[f32], actions: &[usize], masks: &[Vec<bool>]) -> Result<(), String> {
        if state.len() != self.state_dim {
            return Err(format!(
                "field `state`: {} values, the agent takes {}",
                state.len(),
                self.state_dim
            ));
        }
        if actions.len() != self.heads() {
            return Err(format!(
                "field `actions`: {} actions, the agent has {} heads",
                actions.len(),
                self.heads()
            ));
        }
        if let Some(misfit) = self.outside_its_head(actions) {
            return Err(format!("field `actions`: {misfit}"));
        }
        if masks.len() > self.heads() {
            return Err(format!(
                "field `masks`: {} masks, the agent has {} heads",
                masks.len(),
                self.heads()
            ));
        }
        let sizes = self.offsets.windows(2).map(|at| at[1] - at[0]);
        for (h, (mask, size)) in masks.iter().zip(sizes).enumerate() {
            if !mask.is_empty() && mask.len() != size {
                return Err(format!(
                    "field `masks`: mask {h} has {} entries, its head {size} actions",
                    mask.len()
                ));
            }
        }
        Ok(())
    }

    /// The first of `actions` (one per head, row after row) that lies
    /// outside its head, described; `None` if every one is inside.
    fn outside_its_head(&self, actions: &[usize]) -> Option<String> {
        let sizes = self.offsets.windows(2).map(|at| at[1] - at[0]);
        let i = (actions.iter().zip(sizes.cycle())).position(|(&a, size)| a >= size)?;
        // a head exists: the zip yielded an action
        let h = i % self.heads();
        Some(format!(
            "action {} of head {h} in row {}, which has {}",
            actions[i],
            i / self.heads(),
            self.offsets[h + 1] - self.offsets[h]
        ))
    }

    /// Number of stored transitions.
    pub fn len(&self) -> usize {
        self.scalars.len()
    }

    /// True when no transitions are stored.
    pub fn is_empty(&self) -> bool {
        self.scalars.is_empty()
    }

    /// Samples the positions of up to `n` distinct transitions uniformly
    /// into `positions` (cleared first); [`ReplayBuffer::get`] resolves them.
    pub fn sample_into<R: Rng + ?Sized>(&self, n: usize, rng: &mut R, positions: &mut Vec<usize>) {
        positions.clear();
        positions.extend(0..self.len());
        positions.shuffle(rng);
        positions.truncate(n);
    }

    /// The row at `position` (0 = oldest).
    fn row(&self, position: usize) -> Row<'_> {
        assert!(position < self.len(), "replay buffer: no row {position}");
        // `head` is 0 until the buffer is full
        let slot = (self.head + position) % self.len();
        let (dim, heads, cells) = (self.state_dim, self.heads(), self.cells());
        Row {
            state: &self.states[slot * dim..][..dim],
            actions: &self.actions[slot * heads..][..heads],
            scalars: self.scalars[slot],
            valid: &self.valid[slot * cells..][..cells],
        }
    }

    /// The transition at `position` (0 = oldest), copied out of its row:
    /// one full mask per head.
    pub fn get(&self, position: usize) -> Transition {
        let row = self.row(position);
        let [logp, reward, advantage, value_target] = row.scalars;
        Transition {
            state: row.state.to_vec(),
            actions: row.actions.to_vec(),
            logp,
            reward,
            advantage,
            value_target,
            masks: (self.offsets.windows(2))
                .map(|at| row.valid[at[0]..at[1]].to_vec())
                .collect(),
        }
    }

    /// Drops all stored transitions.
    pub fn clear(&mut self) {
        self.head = 0;
        self.states.clear();
        self.actions.clear();
        self.scalars.clear();
        self.valid.clear();
    }

    /// Transitions overwritten by newer ones since the last call.
    fn take_evicted(&mut self) -> u64 {
        std::mem::take(&mut self.evicted)
    }

    /// `values`, `width` per row in slot order, as the two runs that hold
    /// them oldest row first.
    fn oldest_first<'a, T>(&self, values: &'a [T], width: usize) -> [&'a [T]; 2] {
        let (newer, older) = values.split_at(self.head * width);
        [older, newer]
    }

    /// Decodes what [`Serialize`] wrote into a buffer of the given shape,
    /// checking every array against it: a checkpoint whose rows the
    /// agent's networks cannot take is an error that names the field, not
    /// a panic in the next update.
    fn decode(v: &Value, state_dim: usize, head_sizes: &[usize]) -> Result<Self, DeError> {
        let mut buffer = ReplayBuffer::new(de::field(v, "cap")?, state_dim, head_sizes);
        let scalars = packed::read_f32s(v, "scalars")?;
        let rows = scalars.len() / 4;
        let misfit = |name: &str, e: String| DeError::new(format!("field `{name}`: {e}"));
        if scalars.len() % 4 != 0 {
            let e = format!("{} values, not 4 per row", scalars.len());
            return Err(misfit("scalars", e));
        }
        if buffer.cap > 0 && rows > buffer.cap {
            let e = format!("{rows} rows in a buffer of capacity {}", buffer.cap);
            return Err(misfit("cap", e));
        }
        let per_row = |name: &str, len: usize, width: usize| {
            if len == rows * width {
                return Ok(());
            }
            let e = format!("{len} values for {rows} rows of {width}");
            Err(misfit(name, e))
        };
        let states = packed::read_f32s(v, "states")?;
        per_row("states", states.len(), state_dim)?;
        let actions: Vec<usize> = de::field(v, "actions")?;
        per_row("actions", actions.len(), buffer.heads())?;
        if let Some(e) = buffer.outside_its_head(&actions) {
            return Err(misfit("actions", e));
        }
        let valid = packed::read_bits(v, "valid")?;
        per_row("valid", valid.len(), buffer.cells())?;
        buffer.states = states;
        buffer.actions = actions;
        buffer.scalars = (scalars.chunks_exact(4))
            .map(|s| [s[0], s[1], s[2], s[3]])
            .collect();
        buffer.valid = valid;
        Ok(buffer)
    }
}

impl Serialize for ReplayBuffer {
    fn serialize(&self, w: &mut JsonWriter) {
        let (dim, heads, cells) = (self.state_dim, self.heads(), self.cells());
        w.begin_object();
        w.key("states");
        w.unescaped_str(|out| {
            for run in self.oldest_first(&self.states, dim) {
                packed::push_f32s(out, run);
            }
        });
        w.key("actions");
        w.raw(|out| {
            out.push('[');
            let actions = self
                .oldest_first(&self.actions, heads)
                .into_iter()
                .flatten();
            for (i, &action) in actions.enumerate() {
                if i > 0 {
                    out.push(',');
                }
                packed::push_usize(out, action);
            }
            out.push(']');
        });
        w.key("scalars");
        w.unescaped_str(|out| {
            for run in self.oldest_first(&self.scalars, 1) {
                packed::push_f32s(out, run.as_flattened());
            }
        });
        w.key("valid");
        w.unescaped_str(|out| {
            for run in self.oldest_first(&self.valid, cells) {
                packed::push_bits(out, run);
            }
        });
        w.key("cap");
        self.cap.serialize(w);
        w.end_object();
    }
}

/// The minibatch of one update, gathered row by row into contiguous
/// arrays: the update reads nothing else of its transitions.
#[derive(Debug, Clone, Default)]
struct Minibatch {
    /// Batch-major states.
    x: Vec<f32>,
    /// Batch-major chosen actions, one per head.
    actions: Vec<usize>,
    logp: Vec<f32>,
    advantage: Vec<f32>,
    value_target: Vec<f32>,
    /// Batch-major validity of every action, laid out like a row of
    /// logits.
    valid: Vec<bool>,
}

impl Minibatch {
    fn clear(&mut self) {
        self.x.clear();
        self.actions.clear();
        self.logp.clear();
        self.advantage.clear();
        self.value_target.clear();
        self.valid.clear();
    }

    /// Appends a sample's arrays, all but its validity cells.
    fn push(&mut self, state: &[f32], actions: &[usize], scalars: [f32; 4]) {
        let [logp, _, advantage, value_target] = scalars;
        self.x.extend_from_slice(state);
        self.actions.extend_from_slice(actions);
        self.logp.push(logp);
        self.advantage.push(advantage);
        self.value_target.push(value_target);
    }

    /// Refills the arrays from replay-buffer rows.
    fn gather<'a>(&mut self, rows: impl Iterator<Item = Row<'a>>) {
        self.clear();
        for row in rows {
            self.push(row.state, row.actions, row.scalars);
            self.valid.extend_from_slice(row.valid);
        }
    }

    /// Refills the arrays from transitions of `buffer`'s shape.
    ///
    /// # Panics
    /// If one does not fit the buffer (see [`ReplayBuffer::push`]).
    fn gather_transitions(&mut self, batch: &[Transition], buffer: &ReplayBuffer) {
        self.clear();
        for t in batch {
            if let Err(misfit) = buffer.fit(&t.state, &t.actions, &t.masks) {
                panic!("minibatch: {misfit}");
            }
            self.push(&t.state, &t.actions, t.scalars());
            let first = self.valid.len();
            self.valid.resize(first + buffer.cells(), false);
            fill_valid(&t.masks, buffer.head_offsets(), &mut self.valid[first..]);
        }
    }

    fn len(&self) -> usize {
        self.logp.len()
    }
}

/// Reused rows of [`PpoAgent::act_batch`] and the PPO update: nothing here
/// outlives a call, it only keeps its allocations. Every per-action array
/// is batch-major and laid out like a row of the policy's live logits —
/// the heads side by side, each head's live columns in action order.
#[derive(Debug, Clone, Default)]
struct Scratch {
    /// Buffer positions of the sampled minibatch.
    sample: Vec<usize>,
    /// The minibatch itself.
    batch: Minibatch,
    /// The validity of each live column in each row.
    valid: Vec<bool>,
    /// Softmax rows of the minibatch (or tracks).
    probs: Vec<f32>,
    /// `ln` of each of those cells (`-inf` where `p` is masked to 0).
    ln_probs: Vec<f32>,
    /// The running sums of each head's cells of each track's row, which
    /// every draw of the track bisects.
    sums: Vec<f32>,
    /// `−p·ln p` per cell.
    entropy_terms: Vec<f32>,
    /// Per sample: `logp_new − logp_old`, then the probability ratio.
    ratios: Vec<f32>,
    /// Per sample: `dL/dlogp_new`.
    dlogp: Vec<f32>,
    /// Logit gradients.
    grad_logits: Vec<f32>,
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
    /// Transitions in the replay buffer now.
    pub buffer_len: u64,
    /// Transitions the buffer overwrote since the last take.
    pub evicted: u64,
    /// Mean, over the samples [`PpoAgent::train_step`] drew, of how many
    /// transitions were recorded after the sampled one before it was used:
    /// how far off-policy the minibatches are.
    pub sample_age_mean: f64,
    /// Actions of each head.
    pub head_sizes: Vec<u64>,
    /// Live columns of each head now: the logits the policy computes, those
    /// a mask it acted or trained on allowed (DESIGN §12).
    pub live_per_head: Vec<u64>,
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
    /// Samples drawn from the buffer, and the sum of their ages.
    drawn: u64,
    age: u64,
}

/// The actor-critic agent.
///
/// The networks are plain weights (`&self`-shareable, serde-stable); all
/// per-pass scratch lives in the agent's two workspaces and its reused
/// rows, and the tracer is runtime wiring a checkpoint restore re-applies
/// (`#[serde(skip)]`). Decoded by hand: the replay buffer's rows are
/// checked against the shapes of the networks decoded before it.
#[derive(Debug, Clone, Serialize)]
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
    tracer: Tracer,
}

impl<'de> Deserialize<'de> for PpoAgent {
    fn deserialize_value(v: &Value) -> Result<Self, DeError> {
        let policy: MultiHeadPolicy = de::field(v, "policy")?;
        let critic: Mlp = de::field(v, "critic")?;
        (policy.check_shapes())
            .and_then(|()| critic.check_shapes())
            .map_err(DeError::new)?;
        if (critic.in_dim(), critic.out_dim()) != (policy.state_dim(), 1) {
            return Err(DeError::new(format!(
                "the critic maps {} inputs to {} outputs, the policy takes {}",
                critic.in_dim(),
                critic.out_dim(),
                policy.state_dim()
            )));
        }
        let buffer = v
            .get("buffer")
            .ok_or_else(|| DeError::new("missing field `buffer`"))
            .and_then(|b| ReplayBuffer::decode(b, policy.state_dim(), &policy.head_sizes()))
            .map_err(|e| DeError::new(format!("field `buffer`: {}", e.0)))?;
        let cfg: PpoConfig = de::field(v, "cfg")?;
        (cfg.validate().map_err(|e| e.to_string()))
            .and_then(|()| cfg.agrees_with(&policy, &buffer))
            .map_err(|e| DeError::new(format!("field `cfg`: {e}")))?;
        let mut agent = PpoAgent {
            cfg,
            updates: de::field(v, "updates")?,
            policy,
            critic,
            buffer,
            ws_policy: PolicyWorkspace::new(),
            ws_critic: Workspace::new(),
            scratch: Scratch::default(),
            health: HealthSums::default(),
            tracer: Tracer::default(),
        };
        agent.track_live();
        Ok(agent)
    }
}

impl PpoAgent {
    /// Fresh agent with randomly initialized actor and critic.
    ///
    /// # Panics
    /// If `cfg` fails [`PpoConfig::validate`].
    pub fn new<R: Rng + ?Sized>(
        state_dim: usize,
        head_sizes: &[usize],
        cfg: PpoConfig,
        rng: &mut R,
    ) -> Self {
        cfg.validate().unwrap_or_else(|e| panic!("{e}"));
        let policy = MultiHeadPolicy::new(state_dim, cfg.hidden, head_sizes, rng);
        let critic = Mlp::new(&[state_dim, cfg.hidden, cfg.hidden, 1], rng);
        let buffer = ReplayBuffer::new(cfg.buffer_capacity, state_dim, head_sizes);
        let mut agent = PpoAgent {
            policy,
            critic,
            cfg,
            buffer,
            updates: 0,
            ws_policy: PolicyWorkspace::new(),
            ws_critic: Workspace::new(),
            scratch: Scratch::default(),
            health: HealthSums::default(),
            tracer: Tracer::default(),
        };
        agent.track_live();
        agent
    }

    /// Starts the policy's live columns over (they are not serialized):
    /// those whose Adam moments have moved, and every column a row of the
    /// replay buffer allows. A fresh agent has none.
    fn track_live(&mut self) {
        self.policy.track_live();
        let buffer = &self.buffer;
        let (all, cells) = (buffer.head_offsets(), buffer.cells());
        let row_mask = |b: usize, h: usize| Some(&buffer.valid[b * cells..][all[h]..all[h + 1]]);
        self.policy.widen(buffer.len(), row_mask);
    }

    /// Why the agent is not one [`PpoAgent::new`] builds for `state_dim`
    /// inputs and heads of `head_sizes` actions, if it is not. (A decoded
    /// agent's networks and replay buffer already fit each other.)
    pub fn check_shape(&self, state_dim: usize, head_sizes: &[usize]) -> Result<(), String> {
        let (dim, heads) = (self.policy.state_dim(), self.policy.head_sizes());
        if dim != state_dim || heads != head_sizes {
            return Err(format!(
                "the PPO agent maps {dim} inputs to heads of {heads:?} actions, \
                 the search builds one of {state_dim} inputs and {head_sizes:?}"
            ));
        }
        Ok(())
    }

    /// Accepted and ignored; the search runs on the caller's thread; removed
    /// with the benchmark re-baseline (ROADMAP item 7).
    pub fn set_threads(&mut self, _threads: usize) {}

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

    /// Samples actions for a single state; returns `(actions, logp)`: the
    /// one draw of an [`PpoAgent::act_batch`] of one row.
    pub fn act<R: Rng + ?Sized>(
        &mut self,
        state: &[f32],
        masks: &[Vec<bool>],
        rng: &mut R,
    ) -> (Vec<usize>, f32) {
        let mask_of = |_: usize, h: usize| head_mask(masks, h);
        self.policy.widen(1, mask_of);
        self.policy.forward_live(state, 1, &mut self.ws_policy);
        self.draw(1, mask_of, 1, rng)[0][0].clone()
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
        let mask_of = |b: usize, h: usize| head_mask(&masks[b], h);
        self.policy.widen(batch, mask_of);
        {
            let _gemm = self.tracer.span_with(
                "gemm",
                &[
                    ("batch", batch.into()),
                    ("backend", harl_simd::backend_name().into()),
                ],
            );
            self.policy.forward_live(states, batch, &mut self.ws_policy);
        }
        self.draw(batch, mask_of, samples, rng)
    }

    /// `samples` draws per row of the live forward just run over `rows`
    /// rows, row `b`'s head `h` masked by `mask_of(b, h)` (over every
    /// action of the head; all valid for none). Each head's running sums
    /// are taken once per row and bisected per draw, which picks what a
    /// scan of the running sum per draw picks — over every column too: a
    /// column left out holds `p = +0.0`, which no running sum notices.
    fn draw<'m, R: Rng + ?Sized>(
        &mut self,
        rows: usize,
        mask_of: impl Fn(usize, usize) -> Option<&'m [bool]>,
        samples: usize,
        rng: &mut R,
    ) -> Draws<'_> {
        let block = self.policy.block();
        let (offsets, columns) = (block.offsets(), block.columns());
        let Scratch {
            valid,
            probs,
            ln_probs,
            sums,
            draws,
            ..
        } = &mut self.scratch;
        block.select_masks(rows, mask_of, valid);
        let live_mask =
            |b: usize, h: usize| Some(&valid[b * columns..][offsets[h]..offsets[h + 1]]);
        let logits = self.ws_policy.all_logits();
        softmax_rows(logits, offsets, live_mask, probs, ln_probs);
        sums.resize(probs.len(), 0.0);
        let cells = |b: usize, at: &[usize]| b * columns + at[0]..b * columns + at[1];
        for b in 0..rows {
            for at in offsets.windows(2) {
                running_sums(&probs[cells(b, at)], &mut sums[cells(b, at)]);
            }
        }
        // every slot keeps its action list's allocation across calls
        draws.resize_with(rows * samples, Default::default);
        for (i, (actions, logp)) in draws.iter_mut().enumerate() {
            let b = i / samples;
            actions.clear();
            *logp = 0.0;
            for (h, at) in offsets.windows(2).enumerate() {
                let (p, row) = (&probs[cells(b, at)], cells(b, at));
                let position = draw_from_sums(p, &sums[row.clone()], rng.gen());
                actions.push(block.action(h, position));
                *logp += ln_prob(p, &ln_probs[row], position);
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
        self.record_valued(&state, &actions, logp, reward, v_next, v, &masks)
    }

    /// [`PpoAgent::record`] for a caller that already holds
    /// `v_next = V(s′)` and `v = V(s)` — an episode step scores the
    /// `(s′, s)` pairs of all its tracks in one [`PpoAgent::values`] pass
    /// and then records them in track order. No update may run between
    /// that pass and this call, or the estimates are not the critic's.
    /// Everything is borrowed: the row is copied into the replay buffer's
    /// own arrays, so the caller keeps (and reuses) its buffers.
    #[allow(clippy::too_many_arguments)]
    pub fn record_valued(
        &mut self,
        state: &[f32],
        actions: &[usize],
        logp: f32,
        reward: f32,
        v_next: f32,
        v: f32,
        masks: &[Vec<bool>],
    ) -> f32 {
        let advantage = reward + self.cfg.gamma * v_next - v;
        let value_target = reward + self.cfg.gamma * v_next;
        let scalars = [logp, reward, advantage, value_target];
        self.buffer.push_row(state, actions, scalars, masks);
        self.policy.widen(1, |_, h| head_mask(masks, h));
        advantage
    }

    /// Number of gradient updates performed so far.
    pub fn num_updates(&self) -> u64 {
        self.updates
    }

    /// The learner's health over the updates since the last call (all
    /// zeros, no heads, when there were none), with the replay buffer's
    /// length now; resets the running sums.
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
            buffer_len: self.buffer.len() as u64,
            evicted: self.buffer.take_evicted(),
            sample_age_mean: sums.age as f64 / sums.drawn.max(1) as f64,
            head_sizes: (self.policy.head_sizes().into_iter())
                .map(|size| size as u64)
                .collect(),
            live_per_head: (self.policy.live_per_head().into_iter())
                .map(|live| live as u64)
                .collect(),
        }
    }

    /// One PPO update on a sampled minibatch (Algorithm 1, lines 14–17).
    /// Returns `(policy_loss, value_loss)` averaged over the batch, or
    /// `None` when the buffer is empty. Samples buffer positions and
    /// gathers their rows out of the buffer's arrays.
    pub fn train_step<R: Rng + ?Sized>(&mut self, rng: &mut R) -> Option<(f32, f32)> {
        if self.buffer.is_empty() {
            return None;
        }
        let Scratch { sample, batch, .. } = &mut self.scratch;
        self.buffer.sample_into(self.cfg.minibatch, rng, sample);
        batch.gather(sample.iter().map(|&position| self.buffer.row(position)));
        // rows are oldest first: `len − 1 − position` pushes came after
        let newest = self.buffer.len() - 1;
        self.health.drawn += sample.len() as u64;
        self.health.age += sample.iter().map(|&p| (newest - p) as u64).sum::<u64>();
        Some(self.update())
    }

    /// One PPO update on an explicit minibatch; see [`PpoAgent::train_step`]
    /// for the sampled one. An empty minibatch is no update: `(0.0, 0.0)`
    /// and not a weight, moment or counter moves.
    ///
    /// # Panics
    /// If a transition does not have the agent's shape (see
    /// [`ReplayBuffer::push`]).
    pub fn train_minibatch(&mut self, batch: &[Transition]) -> (f32, f32) {
        self.scratch.batch.gather_transitions(batch, &self.buffer);
        self.update()
    }

    /// The PPO update over the gathered minibatch: a single batched
    /// policy and critic forward, the per-sample surrogate-loss scalars in
    /// sample order, then one batched backward.
    ///
    /// Summation-order inventory (why this is bit-equal to the serial
    /// per-sample loop): loss accumulators and logit gradients are
    /// computed per sample in ascending order from the batched logits
    /// (whose rows are bit-equal to per-sample forwards, one head's
    /// columns to that head's own GEMM); `exp` and `ln` are elementwise,
    /// so taking them a minibatch at a time changes no cell, and each
    /// head's softmax denominator and entropy stay ascending sums over
    /// that head's cells of the row; parameter
    /// gradients accumulate per cell in ascending sample order inside
    /// [`crate::layers::Linear::backward_batch`]; and the policy-then-critic phase split is exact because the
    /// two networks share no accumulator.
    ///
    /// Every array of the policy's side holds its live columns alone
    /// (DESIGN §12): the minibatch's masks make their allowed columns live
    /// first, so a column left out is masked in every row. Its `p` is
    /// `+0.0`, which the `-0.0`-seeded denominator of a head that keeps a
    /// live column never notices; its entropy term would be `-0.0`, which
    /// no sum notices; its logit gradient would be `+0.0`, leaving the
    /// `+0.0` of `dW`/`db` that `zero_grad` wrote and adding `±0.0` to
    /// `dX`'s `+0.0`-seeded chains, which are never `-0.0`; and with a
    /// `+0.0` gradient and moments Adam leaves its row alone. A chosen
    /// action outside the live columns reads `p = 0`, as a masked one
    /// does: the `ln` floor and no gradient.
    fn update(&mut self) -> (f32, f32) {
        let n_samples = self.scratch.batch.len();
        if n_samples == 0 {
            // no sample, no gradient: an Adam step on zeros would still
            // move every weight by its momentum
            return (0.0, 0.0);
        }
        let n = n_samples as f32;
        self.policy.zero_grad();
        self.critic.zero_grad();
        let mut policy_loss_acc = 0.0f32;
        let mut value_loss_acc = 0.0f32;

        // the buffer's row layout — every action of every head — from the
        // side the backward does not borrow
        let all = self.buffer.head_offsets();
        let Scratch {
            batch,
            valid,
            probs,
            ln_probs,
            entropy_terms,
            ratios,
            dlogp,
            grad_logits,
            grad_v,
            ..
        } = &mut self.scratch;
        let heads = all.len() - 1;
        let total = all[heads];
        let row_mask = |s: usize, h: usize| Some(&batch.valid[s * total..][all[h]..all[h + 1]]);
        self.policy.widen(n_samples, row_mask);

        // advantage normalisation stabilises small batches
        let mean_a: f32 = batch.advantage.iter().sum::<f32>() / n;
        let var_a: f32 = (batch.advantage.iter())
            .map(|a| (a - mean_a).powi(2))
            .sum::<f32>()
            / n;
        let std_a = var_a.sqrt().max(1e-6);

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
            self.policy
                .forward_live(&batch.x, n_samples, &mut self.ws_policy);
        }
        let block = self.policy.block();
        let (offsets, columns) = (block.offsets(), block.columns());
        let chosen = |s: usize, h: usize| {
            let a = batch.actions[s * heads + h].min(all[h + 1] - all[h] - 1);
            block.position(h, a)
        };
        let health = &mut self.health;
        health.updates += 1;
        health.samples += n_samples as u64;
        health.entropy.resize(heads, 0.0);

        // every probability and logarithm of the minibatch: one `exp` and
        // one `ln` call, whole vectors even for a 3-wide head
        block.select_masks(n_samples, row_mask, valid);
        let live_mask =
            |s: usize, h: usize| Some(&valid[s * columns..][offsets[h]..offsets[h + 1]]);
        let logits = self.ws_policy.all_logits();
        softmax_rows(logits, offsets, live_mask, probs, ln_probs);
        let cells = |s: usize, at: &[usize]| s * columns + at[0]..s * columns + at[1];
        // the ratios, through one `exp` call
        ratios.clear();
        for (s, &logp_old) in batch.logp.iter().enumerate() {
            let mut logp_new = 0.0f32;
            for (h, at) in offsets.windows(2).enumerate() {
                let row = cells(s, at);
                logp_new += ln_prob(&probs[row.clone()], &ln_probs[row], chosen(s, h));
            }
            let log_ratio = logp_new - logp_old;
            health.kl -= f64::from(log_ratio);
            ratios.push(log_ratio.clamp(-20.0, 20.0));
        }
        harl_simd::exp_inplace(ratios);
        let (clip_lo, clip_hi) = (1.0 - self.cfg.clip, 1.0 + self.cfg.clip);
        dlogp.clear();
        for (&advantage, &ratio) in batch.advantage.iter().zip(ratios.iter()) {
            let adv = (advantage - mean_a) / std_a;
            let surr1 = ratio * adv;
            let surr2 = ratio.clamp(clip_lo, clip_hi) * adv;
            let loss_pi = -surr1.min(surr2);
            policy_loss_acc += loss_pi;
            // dL/dlogp_new: −A·ratio when the unclipped branch is active
            dlogp.push(if surr1 <= surr2 { -adv * ratio } else { 0.0 });
            health.clipped += u64::from(!(clip_lo..=clip_hi).contains(&ratio));
            health.adv += f64::from(advantage);
            health.adv_sq += f64::from(advantage) * f64::from(advantage);
        }
        // entropy and logit gradients. Both passes are selects over whole
        // rows, so they run in vector lanes: a masked cell adds −0.0 to the
        // entropy (the identity of the sum, which stays one ascending chain
        // per head and row) and gets a +0.0 gradient; the chosen action's
        // cell is patched after its head's pass
        let entropy_weight = self.cfg.entropy_weight;
        entropy_terms.clear();
        entropy_terms.extend(probs.iter().zip(ln_probs.iter()).map(|(&p, &ln_p)| {
            if p > 0.0 {
                -p * ln_p
            } else {
                -0.0
            }
        }));
        grad_logits.clear();
        grad_logits.resize(n_samples * columns, 0.0);
        for (s, &dlogp) in dlogp.iter().enumerate() {
            for (h, at) in offsets.windows(2).enumerate() {
                let row = cells(s, at);
                let entropy: f32 = entropy_terms[row.clone()].iter().sum();
                health.entropy[h] += f64::from(entropy);
                let cell = |p: f32, ln_p: f32, onehot: f32| {
                    let d_logp = onehot - p;
                    let d_ent = -p * (ln_p + entropy);
                    dlogp * d_logp - entropy_weight * d_ent
                };
                let (p, ln_p) = (&probs[row.clone()], &ln_probs[row.clone()]);
                let grad = &mut grad_logits[row];
                for ((&p, &ln_p), slot) in p.iter().zip(ln_p).zip(grad.iter_mut()) {
                    *slot = if p > 0.0 { cell(p, ln_p, 0.0) } else { 0.0 };
                }
                if let Some(a) = chosen(s, h).filter(|&a| p[a] > 0.0) {
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
            self.critic
                .forward_batch(&batch.x, n_samples, &mut self.ws_critic)
        };
        grad_v.clear();
        for (&target, &value) in batch.value_target.iter().zip(values) {
            let err = value - target;
            value_loss_acc += self.cfg.value_weight * err * err;
            grad_v.push(2.0 * self.cfg.value_weight * err);
            health.value_err_sq += f64::from(err) * f64::from(err);
        }

        // --- batched backward ------------------------------------------
        {
            let _span = self
                .tracer
                .span_with("ppo_backward", &[("minibatch", n_samples.into())]);
            self.policy.backward_batch(grad_logits, &mut self.ws_policy);
            self.critic
                .backward_batch(grad_v, &mut self.ws_critic, None);
        }

        self.policy.adam_step(self.cfg.lr_actor, 1.0 / n);
        self.critic.adam_step(self.cfg.lr_critic, 1.0 / n);
        self.updates += 1;
        (policy_loss_acc / n, value_loss_acc / n)
    }
}

/// The softmax of every head of every row (`logits` is batch-major, a row
/// holding the heads side by side at `offsets`, head `h` of row `b` masked
/// by `mask_of(b, h)`) into `p`, and their logarithms into `ln_p`: one lane
/// `exp` and one lane `ln` call for the whole batch, each head's cells of
/// each row bit-equal to [`crate::mlp::masked_softmax_into`] of them. A row
/// of the live columns alone gives each of them the bits of the row of
/// every column, when every column left out is masked in the row and
/// every head keeps a column: a left-out cell's `exp` is the `+0.0` the
/// `-0.0`-seeded denominator takes no notice of once its head's first
/// kept cell, never `-0.0`, is added.
fn softmax_rows<'m>(
    logits: &[f32],
    offsets: &[usize],
    mask_of: impl Fn(usize, usize) -> Option<&'m [bool]>,
    p: &mut Vec<f32>,
    ln_p: &mut Vec<f32>,
) {
    let total = *offsets.last().expect("starts at 0");
    p.clear();
    p.resize(logits.len(), 0.0);
    if total == 0 {
        return;
    }
    let rows = logits.chunks_exact(total).zip(p.chunks_exact_mut(total));
    for (b, (z, row)) in rows.enumerate() {
        for (h, at) in offsets.windows(2).enumerate() {
            shift_logits(&z[at[0]..at[1]], mask_of(b, h), &mut row[at[0]..at[1]]);
        }
    }
    harl_simd::exp_inplace(p);
    for row in p.chunks_exact_mut(total) {
        for at in offsets.windows(2) {
            normalize(&mut row[at[0]..at[1]]);
        }
    }
    ln_p.clear();
    ln_p.extend_from_slice(p);
    harl_simd::ln_inplace(ln_p);
}

/// `ln(max(p[a], 1e-12))`, read from the row's logarithms; the floor for
/// an action whose column the row does not hold (`None`), whose `p` is 0.
fn ln_prob(p: &[f32], ln_p: &[f32], a: Option<usize>) -> f32 {
    const FLOOR: f32 = 1e-12;
    match a {
        // a NaN probability takes the floor, as `f32::max` made it
        Some(a) if p[a] >= FLOOR => ln_p[a],
        _ => harl_simd::ln_lane(FLOOR),
    }
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
    fn act_respects_masks() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut agent = PpoAgent::new(4, &[5, 3], PpoConfig::default(), &mut rng);
        let masks = vec![
            vec![false, false, true, false, false],
            vec![true, true, true],
        ];
        for _ in 0..50 {
            let (a, logp) = agent.act(&[0.1, 0.2, 0.3, 0.4], &masks, &mut rng);
            assert_eq!(a[0], 2, "masked sampling must pick the only valid action");
            assert!(logp.is_finite());
        }
    }

    #[test]
    fn ppo_config_validate_names_the_bad_field() {
        let base = PpoConfig::default;
        let ok = PpoConfig {
            minibatch: 16,
            hidden: 32,
            lr_actor: 1e-3,
            ..base()
        };
        assert!(ok.validate().is_ok());
        #[rustfmt::skip]
        let bad = [
            ("ppo.minibatch", PpoConfig { minibatch: 0, ..base() }),
            ("ppo.hidden", PpoConfig { hidden: 0, ..base() }),
            ("ppo.lr_actor", PpoConfig { lr_actor: f32::NAN, ..base() }),
            ("ppo.lr_critic", PpoConfig { lr_critic: f32::INFINITY, ..base() }),
            ("ppo.gamma", PpoConfig { gamma: 1.5, ..base() }),
            ("ppo.clip", PpoConfig { clip: 0.0, ..base() }),
        ];
        for (field, cfg) in bad {
            assert_eq!(cfg.validate().unwrap_err().field, field);
        }
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
        let mut buf = ReplayBuffer::new(4, 1, &[1]);
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
        assert_eq!(buf.take_evicted(), 6);
        let kept: Vec<f32> = (0..4).map(|i| buf.get(i).state[0]).collect();
        assert_eq!(kept, [6.0, 7.0, 8.0, 9.0], "oldest first");
    }

    /// The replay buffer this crate shipped before the ring, kept as its
    /// oracle: a deque of owned transitions.
    struct DequeBuffer {
        items: std::collections::VecDeque<Transition>,
        cap: usize,
    }

    impl DequeBuffer {
        fn push(&mut self, t: Transition) {
            self.items.push_back(t);
            while self.cap > 0 && self.items.len() > self.cap {
                self.items.pop_front();
            }
        }

        fn sample_into(&self, n: usize, rng: &mut StdRng, positions: &mut Vec<usize>) {
            positions.clear();
            positions.extend(0..self.items.len());
            positions.shuffle(rng);
            positions.truncate(n);
        }
    }

    /// A transition that fits `heads` after a `STATE_DIM`-wide state:
    /// short or full mask lists, empty and full entries.
    fn random_transition(rng: &mut StdRng, state_dim: usize, heads: &[usize]) -> Transition {
        let listed = rng.gen_range(0..=heads.len());
        Transition {
            state: (0..state_dim).map(|_| rng.gen_range(-1.0..1.0)).collect(),
            actions: heads.iter().map(|&n| rng.gen_range(0..n)).collect(),
            logp: rng.gen_range(-3.0..0.0),
            reward: rng.gen_range(-1.0..1.0),
            advantage: rng.gen_range(-1.0..1.0),
            value_target: rng.gen_range(-1.0..1.0),
            masks: heads[..listed]
                .iter()
                .map(|&n| {
                    if rng.gen_range(0..3) == 0 {
                        Vec::new()
                    } else {
                        (0..n).map(|_| rng.gen_range(0..3) != 0).collect()
                    }
                })
                .collect(),
        }
    }

    /// `t` with one full mask per head: a missing or empty entry all
    /// `true`, as the buffer stores it.
    fn normalized(t: &Transition, heads: &[usize]) -> Transition {
        let masks = (heads.iter().enumerate())
            .map(|(h, &n)| head_mask(&t.masks, h).map_or(vec![true; n], <[bool]>::to_vec))
            .collect();
        Transition { masks, ..t.clone() }
    }

    /// Every field of `t`, the floats as bits.
    fn fields(t: &Transition) -> (Vec<u32>, Vec<usize>, [u32; 4], Vec<Vec<bool>>) {
        let bits = t.state.iter().map(|v| v.to_bits()).collect();
        let scalars = t.scalars().map(f32::to_bits);
        (bits, t.actions.clone(), scalars, t.masks.clone())
    }

    #[test]
    fn the_ring_is_the_deque_it_replaced() {
        // random pushes through eviction and wrap-around, a `clear`, and
        // samples in between: the same rows in the same order, each with
        // one full mask per head, the same sampled positions from the same
        // RNG stream, and a decode of the ring's text is the same buffer
        const STATE_DIM: usize = 3;
        const HEADS: [usize; 3] = [5, 1, 3];
        for cap in [1usize, 2, 3, 4096, 0] {
            let mut rng = StdRng::seed_from_u64(900 + cap as u64);
            let mut ring = ReplayBuffer::new(cap, STATE_DIM, &HEADS);
            let mut deque = DequeBuffer {
                items: Default::default(),
                cap,
            };
            let (mut rng_r, mut rng_d) = (StdRng::seed_from_u64(5), StdRng::seed_from_u64(5));
            let (mut picked_r, mut picked_d) = (Vec::new(), Vec::new());
            let mut evicted = 0;
            for round in 0..40 {
                for _ in 0..rng.gen_range(0..9usize) {
                    let t = random_transition(&mut rng, STATE_DIM, &HEADS);
                    evicted += u64::from(cap > 0 && deque.items.len() == cap);
                    deque.push(t.clone());
                    ring.push(t);
                }
                if round == 17 {
                    ring.clear();
                    deque.items.clear();
                }
                assert_eq!(ring.len(), deque.items.len(), "cap {cap}, round {round}");
                assert_eq!(ring.is_empty(), deque.items.is_empty());
                let text = serde_json::to_string(&ring).unwrap();
                let back = ReplayBuffer::decode(&Value::parse(&text).unwrap(), STATE_DIM, &HEADS)
                    .expect("its own text decodes");
                assert_eq!(serde_json::to_string(&back).unwrap(), text, "cap {cap}");
                assert_eq!(back.len(), ring.len());
                for (i, want) in deque.items.iter().enumerate() {
                    let want = fields(&normalized(want, &HEADS));
                    assert_eq!(fields(&ring.get(i)), want, "cap {cap}, row {i}");
                    assert_eq!(fields(&back.get(i)), want, "cap {cap}, decoded row {i}");
                }
                ring.sample_into(4, &mut rng_r, &mut picked_r);
                deque.sample_into(4, &mut rng_d, &mut picked_d);
                assert_eq!(picked_r, picked_d, "cap {cap}, round {round}");
            }
            assert_eq!(ring.take_evicted(), evicted, "cap {cap}");
            assert_eq!(rng_r.gen::<u64>(), rng_d.gen::<u64>());
        }
    }

    #[test]
    fn the_ring_is_written_as_its_arrays_oldest_row_first() {
        // two heads of 2 and 1 actions; the third push overwrites the
        // first row's slot, so the oldest row sits in slot 1
        let mut ring = ReplayBuffer::new(2, 1, &[2, 1]);
        for (i, masks) in [vec![], vec![vec![false, true]], vec![vec![], vec![false]]]
            .into_iter()
            .enumerate()
        {
            ring.push(Transition {
                state: vec![i as f32],
                actions: vec![i % 2, 0],
                logp: 1.0,
                reward: -0.0,
                advantage: 0.0,
                value_target: 0.0,
                masks,
            });
        }
        let scalars = "0000803f000000800000000000000000";
        assert_eq!(
            serde_json::to_string(&ring).unwrap(),
            format!(
                r#"{{"states":"0000803f00000040","actions":[1,0,0,0],"scalars":"{scalars}{scalars}","valid":"011110","cap":2}}"#
            )
        );
    }

    #[test]
    fn a_minibatch_gathers_the_same_arrays_from_rows_and_from_transitions() {
        // short and empty mask lists gather the cells of their all-true form
        let mut rng = StdRng::seed_from_u64(41);
        let heads = [4usize, 3];
        let mut ring = ReplayBuffer::new(5, 6, &heads);
        let mut owned = std::collections::VecDeque::new();
        for i in 0..12 {
            let mut t = random_transition(&mut rng, 6, &heads);
            // the last rows: no list, then one empty entry
            if i >= 10 {
                t.masks = vec![Vec::new(); i - 10];
            }
            owned.push_back(t.clone());
            if owned.len() > 5 {
                owned.pop_front();
            }
            ring.push(t);
        }
        assert!(owned.iter().any(|t| t.masks.len() < heads.len()));
        assert!(owned.iter().flat_map(|t| &t.masks).any(Vec::is_empty));
        let owned = Vec::from(owned);
        let full: Vec<Transition> = owned.iter().map(|t| normalized(t, &heads)).collect();
        let mut from_rows = Minibatch::default();
        from_rows.gather((0..ring.len()).map(|position| ring.row(position)));
        assert_eq!(from_rows.len(), 5);
        for transitions in [&owned, &full] {
            let mut from_owned = Minibatch::default();
            from_owned.gather_transitions(transitions, &ring);
            let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
            for (a, b) in [
                (&from_rows.x, &from_owned.x),
                (&from_rows.logp, &from_owned.logp),
                (&from_rows.advantage, &from_owned.advantage),
                (&from_rows.value_target, &from_owned.value_target),
            ] {
                assert_eq!(bits(a), bits(b));
            }
            assert_eq!(from_rows.actions, from_owned.actions);
            assert_eq!(from_rows.valid, from_owned.valid);
        }
        let cells: Vec<bool> = full.iter().flat_map(|t| t.masks.concat()).collect();
        assert_eq!(from_rows.valid, cells);
    }

    #[test]
    fn rings_that_do_not_fit_the_agent_are_decode_errors() {
        // a checkpoint is outside input: every way the ring's arrays can
        // miss the networks' shapes is refused with the field named, where
        // it used to panic in the first update
        let (agent, _) = corridor_agent(&[3, 2], 6, 47);
        let good = serde_json::to_string(&agent).unwrap();
        assert!(serde_json::from_str::<PpoAgent>(&good).is_ok());
        // two rows of 5 state values, 2 actions and 3 + 2 validity cells
        let state = "0000803f".repeat(5);
        let scalars = "00000000".repeat(4);
        let ring = |states: &str, actions: &str, scalars: &str, valid: &str, cap: usize| {
            let at = good.find(r#""buffer":"#).unwrap();
            let end = good[at..].find(r#","updates""#).unwrap() + at;
            let capacity = format!(r#""buffer_capacity":{cap}"#);
            format!(
                r#"{}"buffer":{{"states":"{states}","actions":{actions},"scalars":"{scalars}","valid":"{valid}","cap":{cap}}}{}"#,
                good[..at].replace(r#""buffer_capacity":4096"#, &capacity),
                &good[end..]
            )
        };
        let (states, two_scalars) = (state.repeat(2), scalars.repeat(2));
        let ok = |cap| ring(&states, "[2,1,0,0]", &two_scalars, "1011111111", cap);
        let decoded = serde_json::from_str::<PpoAgent>(&ok(4)).unwrap();
        assert_eq!(decoded.buffer.len(), 2);
        let row = decoded.buffer.get(0);
        assert_eq!(
            (row.actions, row.masks),
            (vec![2, 1], vec![vec![true, false, true], vec![true; 2]])
        );
        for (what, text, reasons) in [
            (
                "a short state",
                ring(&states[8..], "[2,1,0,0]", &two_scalars, "1011111111", 4),
                ["`states`", "9 values for 2 rows of 5"],
            ),
            (
                "too few actions",
                ring(&states, "[2,1,0]", &two_scalars, "1011111111", 4),
                ["`actions`", "3 values for 2 rows of 2"],
            ),
            (
                "an action outside its head",
                ring(&states, "[2,1,0,2]", &two_scalars, "1011111111", 4),
                ["`actions`", "action 2 of head 1 in row 1, which has 2"],
            ),
            (
                "a scalar short",
                ring(&states, "[2,1,0,0]", &two_scalars[8..], "1011111111", 4),
                ["`scalars`", "7 values, not 4 per row"],
            ),
            (
                "a validity cell short",
                ring(&states, "[2,1,0,0]", &two_scalars, "101111111", 4),
                ["`valid`", "9 values for 2 rows of 5"],
            ),
            (
                "a validity digit that is not 0 or 1",
                ring(&states, "[2,1,0,0]", &two_scalars, "1021111111", 4),
                ["`valid`", "neither 0 nor 1"],
            ),
            (
                "more rows than the capacity",
                ok(1),
                ["`cap`", "2 rows in a buffer of capacity 1"],
            ),
        ] {
            let err = serde_json::from_str::<PpoAgent>(&text).unwrap_err();
            let msg = err.to_string();
            for reason in reasons {
                assert!(msg.contains(reason), "{what}: {msg}");
            }
            assert!(msg.contains("`buffer`"), "{what}: {msg}");
        }
        // a config the decoded networks and ring were not built with, or
        // that no agent is built with
        for (field, find, with) in [
            ("ppo.buffer_capacity", r#""cap":4096"#, r#""cap":8"#),
            ("ppo.hidden", r#""hidden":64"#, r#""hidden":32"#),
            ("ppo.minibatch", r#""minibatch":64"#, r#""minibatch":0"#),
            ("ppo.gamma", r#""gamma":0.9"#, r#""gamma":7"#),
        ] {
            assert!(good.contains(find), "{find}");
            let err = serde_json::from_str::<PpoAgent>(&good.replace(find, with)).unwrap_err();
            let msg = err.to_string();
            assert!(msg.contains("`cfg`") && msg.contains(field), "{msg}");
        }
        // an unbounded buffer takes any number of rows
        assert_eq!(
            serde_json::from_str::<PpoAgent>(&ok(0))
                .unwrap()
                .buffer
                .len(),
            2
        );
    }

    #[test]
    fn networks_that_do_not_fit_each_other_are_decode_errors() {
        let (agent, _) = corridor_agent(&[3], 1, 48);
        let good = serde_json::to_string(&agent).unwrap();
        // a critic over 4 inputs under a policy over 5
        let mut rng = StdRng::seed_from_u64(1);
        let narrow = serde_json::to_string(&Mlp::new(&[4, 8, 1], &mut rng)).unwrap();
        let critic_at = good.find(r#""critic":"#).unwrap() + r#""critic":"#.len();
        let critic_end = good.find(r#","cfg""#).unwrap();
        let swapped = format!("{}{narrow}{}", &good[..critic_at], &good[critic_end..]);
        let msg = serde_json::from_str::<PpoAgent>(&swapped)
            .unwrap_err()
            .to_string();
        assert!(msg.contains("critic"), "{msg}");
        let empty = format!(
            r#"{}{{"layers":[],"adam_t":0}}{}"#,
            &good[..critic_at],
            &good[critic_end..]
        );
        let msg = serde_json::from_str::<PpoAgent>(&empty)
            .unwrap_err()
            .to_string();
        assert!(msg.contains("without layers"), "{msg}");
    }

    #[test]
    fn health_reports_the_buffer_and_how_old_its_samples_were() {
        // capacity 8, minibatch 64: every update draws the whole buffer,
        // whose ages are 0…7
        let mut rng = StdRng::seed_from_u64(53);
        let cfg = PpoConfig {
            buffer_capacity: 8,
            ..Default::default()
        };
        let mut agent = PpoAgent::new(5, &[3], cfg, &mut rng);
        for i in 0..11usize {
            let (actions, logp) = agent.act(&corridor_state(i % 4), &[], &mut rng);
            let next = corridor_state(i % 4 + 1);
            agent.record(corridor_state(i % 4), actions, logp, 0.1, &next, vec![]);
        }
        agent.train_step(&mut rng).unwrap();
        agent.train_step(&mut rng).unwrap();
        let h = agent.take_health();
        assert_eq!((h.buffer_len, h.evicted, h.samples), (8, 3, 16));
        assert_eq!(h.sample_age_mean, 3.5);
        // explicit minibatches were never in the buffer: no age
        agent.train_minibatch(&[agent.buffer.get(0)]);
        let h = agent.take_health();
        assert_eq!((h.buffer_len, h.evicted, h.samples), (8, 0, 1));
        assert_eq!(h.sample_age_mean, 0.0);
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
        // the agent acted without masks: every column is live
        let idle = PpoHealth {
            buffer_len: 12,
            head_sizes: vec![3, 3],
            live_per_head: vec![3, 3],
            ..Default::default()
        };
        assert_eq!(agent.take_health(), idle);
    }

    #[test]
    fn health_reports_the_updates_since_the_last_take_and_feeds_nothing() {
        let (mut watched, mut rng) = corridor_agent(&[3, 2], 40, 29);
        let mut unwatched = watched.clone();
        let mut rng_u = rng.clone();
        let idle = PpoHealth {
            buffer_len: 40,
            head_sizes: vec![3, 2],
            live_per_head: vec![3, 2],
            ..Default::default()
        };
        assert_eq!(watched.take_health(), idle);
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
