//! Golden bits of the PPO minibatch path at the public `PpoAgent` boundary.
//!
//! `tests/ppo_golden.rs` pins six sampled updates at the paper's head
//! shape. This file pins what lies around them, recorded while the replay
//! buffer was a `VecDeque<Transition>`, the policy heads four `Linear`s run
//! as four GEMMs, and every backward staged `gyᵀ` and a `dW` partial:
//!
//! * the replay buffer — random pushes through eviction and wrap-around at
//!   capacities 1, 2, 3, 4096 and 0 (unbounded), with sampled updates in
//!   between: the buffer's length after each burst, the loss bits of every
//!   update (so the sampler's RNG stream) and the trained networks
//!   (`GOLDEN_RING`, recorded before the buffer kept one validity cell per
//!   action); and apart from them the buffer's serialized text, oldest row
//!   first, with a decode of it that writes the same text
//!   (`GOLDEN_RING_TEXT`, checkpoint version 7);
//! * the heads — `act_batch` draws and log-probabilities, then the losses
//!   and every network bit of explicit-minibatch updates, for batches
//!   1…65 and heads `[101, 3, 3, 3]`, `[1, 3]` and `[257]`, on every SIMD
//!   backend the host supports.
//!
//! Any other layout of the same arithmetic must reproduce these bits, in
//! debug and release builds (`ci/test.sh` runs this file in both, under
//! `HARL_SIMD=0` and under `HARL_SIMD=avx2`).

use harl_repro::nnet::{PpoAgent, PpoConfig, Transition};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const GOLDEN_RING: [(usize, u64); 5] = [
    (1, 0x2550d2df11c84bef),
    (2, 0xa85e5f4f34ff741f),
    (3, 0xc5afd7d281056484),
    (4096, 0x283cd02331bc42cd),
    (0, 0xbb1b6636bf81246d),
];
const GOLDEN_RING_TEXT: [(usize, u64); 5] = [
    (1, 0x73d06974c5a088d4),
    (2, 0x90656f7cd4b745e6),
    (3, 0x9f02ed39759a6a4b),
    (4096, 0x17f8a511dc578e12),
    (0, 0xc37232bd6effb5e4),
];
const GOLDEN_HEADS: [(&[usize], u64); 3] = [
    (&[101, 3, 3, 3], 0x43dffde322c90729),
    (&[1, 3], 0x922d6cacfb2024db),
    (&[257], 0xca25e4bd7c4e1050),
];

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn word(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }

    fn agent(&mut self, agent: &PpoAgent) {
        for w in agent.policy.state_bits().chain(agent.critic.state_bits()) {
            self.word(w);
        }
    }
}

/// A transition of an agent with `state_dim` inputs and `heads`: every
/// third has no mask list at all, the others a list whose entries are
/// empty (all valid) or full rows with holes; the chosen action is valid.
fn transition(rng: &mut StdRng, state_dim: usize, heads: &[usize]) -> Transition {
    let listed = rng.gen_range(0..3usize) != 0;
    let masks: Vec<Vec<bool>> = if listed {
        heads
            .iter()
            .map(|&n| {
                if rng.gen_range(0..2usize) == 0 {
                    Vec::new()
                } else {
                    (0..n).map(|_| rng.gen_range(0..4usize) != 0).collect()
                }
            })
            .collect()
    } else {
        Vec::new()
    };
    let actions = heads
        .iter()
        .enumerate()
        .map(|(h, &n)| {
            let a = rng.gen_range(0..n);
            match masks.get(h) {
                Some(m) if !m.is_empty() => {
                    m.iter()
                        .position(|&v| v)
                        .map_or(a, |first| if m[a] { a } else { first })
                }
                _ => a,
            }
        })
        .collect();
    Transition {
        state: (0..state_dim).map(|_| rng.gen_range(-1.0..1.0)).collect(),
        actions,
        logp: rng.gen_range(-3.0..-0.1),
        reward: rng.gen_range(-1.0..1.0),
        advantage: rng.gen_range(-1.0..1.0),
        value_target: rng.gen_range(-1.0..1.0),
        masks,
    }
}

/// Pushes and sampled updates of one capacity, digested, and apart from
/// them the buffer's texts.
fn ring_digests(cap: usize) -> (u64, u64) {
    const STATE_DIM: usize = 5;
    const HEADS: [usize; 2] = [4, 3];
    let mut rng = StdRng::seed_from_u64(0x72696e67 ^ cap as u64);
    let cfg = PpoConfig {
        buffer_capacity: cap,
        minibatch: 8,
        hidden: 8,
        ..Default::default()
    };
    let mut agent = PpoAgent::new(STATE_DIM, &HEADS, cfg, &mut rng);
    let (mut digest, mut texts) = (Fnv::new(), Fnv::new());
    // bursts long enough to wrap the small rings many times over
    for burst in 0..24 {
        for _ in 0..rng.gen_range(1..12usize) {
            agent.buffer.push(transition(&mut rng, STATE_DIM, &HEADS));
        }
        digest.word(agent.buffer.len() as u64);
        let text = serde_json::to_string(&agent).unwrap();
        let decoded: PpoAgent = serde_json::from_str(&text).unwrap();
        assert!(
            serde_json::to_string(&decoded).unwrap() == text,
            "cap {cap}"
        );
        texts.bytes(serde_json::to_string(&agent.buffer).unwrap().as_bytes());
        for _ in 0..2 {
            let (p, v) = agent.train_step(&mut rng).expect("buffer is not empty");
            digest.word(u64::from(p.to_bits()));
            digest.word(u64::from(v.to_bits()));
        }
        if burst == 11 {
            agent.buffer.clear();
            assert!(agent.train_step(&mut rng).is_none());
        }
    }
    digest.agent(&agent);
    (digest.0, texts.0)
}

#[test]
fn replay_buffer_text_sampling_and_updates_match_golden() {
    // compared whole, so a failure prints every capacity's digest
    let digests = GOLDEN_RING.map(|(cap, _)| (cap, ring_digests(cap)));
    let got = digests.map(|(cap, (updates, _))| (cap, updates));
    assert_eq!(got, GOLDEN_RING, "{got:#x?}");
    let got = digests.map(|(cap, (_, text))| (cap, text));
    assert_eq!(got, GOLDEN_RING_TEXT, "{got:#x?}");
}

/// Draws and explicit-minibatch updates of one head shape at batches
/// 1…65, digested.
fn heads_digest(heads: &[usize]) -> u64 {
    const STATE_DIM: usize = 11;
    let mut rng = StdRng::seed_from_u64(0x68656164 ^ heads.len() as u64 ^ (heads[0] as u64) << 8);
    let cfg = PpoConfig {
        hidden: 16,
        ..Default::default()
    };
    let mut agent = PpoAgent::new(STATE_DIM, heads, cfg, &mut rng);
    let mut digest = Fnv::new();
    for batch in 1..=65usize {
        let rows: Vec<Transition> = (0..batch)
            .map(|_| transition(&mut rng, STATE_DIM, heads))
            .collect();
        let states: Vec<f32> = rows.iter().flat_map(|t| t.state.iter().copied()).collect();
        let masks: Vec<Vec<Vec<bool>>> = rows.iter().map(|t| t.masks.clone()).collect();
        for draws in agent.act_batch(&states, batch, &masks, 2, &mut rng).iter() {
            for (actions, logp) in draws {
                for &a in actions {
                    digest.word(a as u64);
                }
                digest.word(u64::from(logp.to_bits()));
            }
        }
        let (p, v) = agent.train_minibatch(&rows);
        digest.word(u64::from(p.to_bits()));
        digest.word(u64::from(v.to_bits()));
        digest.agent(&agent);
    }
    digest.0
}

#[test]
fn fused_heads_draws_and_updates_match_golden_on_every_backend() {
    let backends: Vec<_> = harl_simd::Backend::ALL
        .into_iter()
        .filter(|b| b.is_supported())
        .collect();
    for backend in backends {
        // flipping the backend under a concurrently running test is
        // harmless: every backend produces the same bits
        let prev = harl_simd::force_backend(Some(backend));
        let got = GOLDEN_HEADS.map(|(heads, _)| (heads, heads_digest(heads)));
        harl_simd::force_backend(prev);
        assert_eq!(got, GOLDEN_HEADS, "{}: {got:#x?}", backend.name());
    }
}
