//! Golden PPO update at paper shape, and the resumed tuner's transposes.
//!
//! The loss bits of six `train_step`s below were recorded with the
//! per-row `axpy` backward, the per-forward transposes and the cloned
//! minibatch that the GEMM backward replaced; the checksums of the trained
//! networks digest their bit patterns (`state_bits`, not their JSON) and
//! were recorded before the packed checkpoint layout. Any rewrite of the
//! update — kernel, summation order, scratch reuse, RNG draws of the
//! sampler — that moves a single bit fails here, at every pool width (and,
//! via `ci/test.sh`, under the forced-scalar backend). The second test kills and resumes a `HarlOperatorTuner` and
//! checks that the agent it keeps training forwards through transposes of
//! its current weights.

use harl_repro::ir::FEATURE_DIM;
use harl_repro::nnet::{PpoAgent, PpoConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

const HEADS: [usize; 4] = [101, 3, 3, 3];
/// More than one minibatch (64), so `train_step` really samples.
const TRANSITIONS: usize = 96;

const GOLDEN_LOSSES: [(u32, u32); 6] = [
    (858521600, 1040481569),
    (3159751064, 1035029635),
    (3168140768, 1033755750),
    (3173729628, 1032838544),
    (3177551428, 1033044342),
    (3179494288, 1033941420),
];
const GOLDEN_POLICY: u64 = 0xacc88b32b49c4c31;
const GOLDEN_CRITIC: u64 = 0xc71940a37fb96563;

fn state(i: usize) -> Vec<f32> {
    (0..FEATURE_DIM)
        .map(|k| ((i * 131 + k * 17) % 257) as f32 / 257.0 - 0.5)
        .collect()
}

/// Per-head masks with holes that move with `i`; every third transition
/// leaves the tiling head unmasked (empty = all valid).
fn masks(i: usize) -> Vec<Vec<bool>> {
    HEADS
        .iter()
        .enumerate()
        .map(|(h, &n)| {
            if h == 0 && i.is_multiple_of(3) {
                Vec::new()
            } else {
                (0..n)
                    .map(|a| !(a + i + h).is_multiple_of(4) || a == 1)
                    .collect()
            }
        })
        .collect()
}

/// FNV-1a over the little-endian bytes of each word.
fn fnv(words: impl Iterator<Item = u64>) -> u64 {
    words
        .flat_map(u64::to_le_bytes)
        .fold(0xcbf29ce484222325u64, |h, b| {
            (h ^ b as u64).wrapping_mul(0x100000001b3)
        })
}

/// (loss bits of six updates, policy checksum, critic checksum).
fn train(threads: usize) -> (Vec<(u32, u32)>, u64, u64) {
    let mut rng = StdRng::seed_from_u64(2022);
    let mut agent = PpoAgent::new(FEATURE_DIM, &HEADS, PpoConfig::default(), &mut rng);
    agent.set_threads(threads);
    for i in 0..TRANSITIONS {
        let (s, m) = (state(i), masks(i));
        let (actions, logp) = agent.act(&s, &m, &mut rng);
        let reward = ((i * 7) % 11) as f32 / 11.0 - 0.4;
        agent.record(s, actions, logp, reward, &state(i + 1), m);
    }
    let losses = (0..6)
        .map(|_| {
            let (p, v) = agent.train_step(&mut rng).expect("buffer is filled");
            (p.to_bits(), v.to_bits())
        })
        .collect();
    // weights, gradients, Adam moments and step counts, as bits: the
    // checksums do not depend on how a checkpoint spells them
    let policy = fnv(agent.policy.state_bits());
    let critic = fnv(agent.critic.state_bits());
    (losses, policy, critic)
}

#[test]
fn ppo_update_matches_golden_bits_at_every_pool_width() {
    for threads in [1, 2, 7] {
        let (losses, policy, critic) = train(threads);
        assert_eq!(losses, GOLDEN_LOSSES, "losses, width {threads}");
        assert_eq!(policy, GOLDEN_POLICY, "policy checksum, width {threads}");
        assert_eq!(critic, GOLDEN_CRITIC, "critic checksum, width {threads}");
    }
}

#[test]
fn resumed_tuner_forwards_through_fresh_transposes() {
    // Kill a stored HARL session, resume it (the agent comes back from
    // JSON without its cached weight transposes) and keep training: the
    // live agent's forward must equal that of a copy that transposes
    // afresh, and the whole run must land where an uninterrupted one does.
    use harl_repro::harl::HarlOperatorTuner;
    use harl_repro::nnet::PolicyWorkspace;
    use harl_repro::prelude::*;
    use std::sync::Arc;

    fn probe(agent: &mut PpoAgent) -> Vec<u32> {
        let x: Vec<f32> = (0..3).flat_map(state).collect();
        let mut bits: Vec<u32> = agent.values(&x, 3).iter().map(|v| v.to_bits()).collect();
        let mut ws = PolicyWorkspace::new();
        agent.policy.forward_batch(&x, 3, &mut ws);
        for h in 0..agent.policy.num_heads() {
            bits.extend(ws.logits(h).iter().map(|v| v.to_bits()));
        }
        bits
    }
    let run = |m: &Measurer, store: Option<Arc<RecordStore>>, trials: u64| {
        let graph = harl_repro::ir::workload::gemm(256, 256, 256);
        let mut t = HarlOperatorTuner::new(graph, m, HarlConfig::tiny());
        let resumed = {
            let mut s = TuningSession::builder()
                .launch(Box::new(&mut t), m, store)
                .unwrap();
            s.run(trials).unwrap();
            s.resumed()
            // no finish(): the checkpoint stays, as after a crash
        };
        (t.checkpoint_state(), resumed)
    };

    let m_ref = Measurer::new(Hardware::cpu(), MeasureConfig::default());
    let (uninterrupted, _) = run(&m_ref, None, 48);

    let dir = std::env::temp_dir().join(format!("harl-ppo-golden-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let m1 = Measurer::new(Hardware::cpu(), MeasureConfig::default());
    let (_, resumed) = run(&m1, Some(Arc::new(RecordStore::open(&dir).unwrap())), 24);
    assert!(!resumed);
    let m2 = Measurer::new(Hardware::cpu(), MeasureConfig::default());
    let (mut state, resumed) = run(&m2, Some(Arc::new(RecordStore::open(&dir).unwrap())), 24);
    assert!(resumed, "checkpoint must be picked up");
    let _ = std::fs::remove_dir_all(&dir);

    assert!(state.agent.num_updates() > 0);
    let agent_json = serde_json::to_string(&state.agent).unwrap();
    let mut uncached: PpoAgent = serde_json::from_str(&agent_json).unwrap();
    assert_eq!(probe(&mut state.agent), probe(&mut uncached));
    assert_eq!(
        agent_json,
        serde_json::to_string(&uninterrupted.agent).unwrap(),
        "kill → resume must train the same agent as the uninterrupted run"
    );
}
