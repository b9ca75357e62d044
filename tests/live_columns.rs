//! The PPO agent computes its live logit columns alone: those a mask it
//! acted or trained on allowed, and those whose Adam moments have moved
//! (DESIGN §12). A column outside them is masked in every row that could
//! read it, so leaving it out must not move a bit. These tests run a
//! narrow agent — the one `PpoAgent::new` builds — beside a reference whose
//! columns were all made live before its first step (an `act_batch`
//! without masks, on a throwaway RNG) through the same calls, with masks
//! shaped like the tiling head's: a fixed set of never-valid columns, holes
//! that move from row to row, and a column that turns valid mid-run. Every
//! draw, loss, state bit and checkpoint text must agree.

use harl_repro::nnet::{PpoAgent, PpoConfig, Transition};
use rand::rngs::StdRng;
use rand::SeedableRng;

const DIM: usize = 12;
const ROWS: usize = 5;
const SAMPLES: usize = 3;
const STEPS: usize = 36;
/// The step from which each head's `late` column is valid.
const LATE: usize = 20;
/// The step at which the narrow agent is also checkpointed and resumed.
const RESUME: usize = 14;
/// From this step on, rows carry missing and empty mask entries, which
/// make their heads live whole.
const WHOLE: usize = 30;

/// The GEMM leg's heads, an odd pair, and one with a one-action head.
const GEOMETRIES: [&[usize]; 3] = [&[101, 3, 3, 3], &[43, 5], &[1, 7, 2]];

/// Whether action `a` of head `h` is one the masks never allow (before
/// `LATE`, for the `late` column): three in five of them.
fn never(h: usize, a: usize) -> bool {
    (a * 7 + h * 3) % 5 < 3
}

/// Head `h`'s column that turns valid at step `LATE`.
fn late(h: usize, size: usize) -> Option<usize> {
    (0..size).rev().find(|&a| never(h, a))
}

fn state(i: usize, b: usize) -> Vec<f32> {
    (0..DIM)
        .map(|k| ((i * 31 + b * 17 + k * 13) % 97) as f32 / 97.0 - 0.5)
        .collect()
}

/// Row `b`'s masks at step `i`: the fixed never-valid columns, holes that
/// move with `i` and `b`, a head that allows nothing now and then, and —
/// from `WHOLE` on — a missing or an empty entry.
fn masks(heads: &[usize], i: usize, b: usize) -> Vec<Vec<bool>> {
    let mut masks: Vec<Vec<bool>> = (heads.iter().enumerate())
        .map(|(h, &size)| {
            let open = |a: usize| !never(h, a) || (i >= LATE && late(h, size) == Some(a));
            (0..size)
                .map(|a| open(a) && !(a + i + b + h).is_multiple_of(4))
                .collect()
        })
        .collect();
    if b == 1 && i % 7 == 3 {
        let last = heads.len() - 1;
        masks[last].fill(false);
    }
    if i >= WHOLE && b == 2 {
        masks.pop();
    }
    if i >= WHOLE + 2 && b == 3 {
        masks[0].clear();
    }
    masks
}

/// Inputs of every head: the trunk's width.
fn hidden() -> usize {
    PpoConfig::default().hidden
}

fn bits(agent: &PpoAgent) -> Vec<u64> {
    (agent.policy.state_bits())
        .chain(agent.critic.state_bits())
        .collect()
}

fn text(agent: &PpoAgent) -> String {
    serde_json::to_string(agent).unwrap()
}

fn decode(text: &str) -> PpoAgent {
    serde_json::from_str(text).unwrap()
}

/// `agent` with every column live: an `act_batch` without masks, on an
/// RNG of its own, moves nothing else.
fn every_column_live(mut agent: PpoAgent) -> PpoAgent {
    let before = text(&agent);
    let mut rng = StdRng::seed_from_u64(0);
    agent.act_batch(&state(0, 0), 1, &[Vec::new()], 1, &mut rng);
    assert_eq!(text(&agent), before);
    let health = agent.take_health();
    assert_eq!(health.live_per_head, health.head_sizes);
    agent
}

/// The live columns of each head, read from the agent's health (taking
/// it moves no bit of the agent).
fn live(agent: &mut PpoAgent) -> Vec<u64> {
    agent.take_health().live_per_head
}

/// Runs every agent of `agents` through the same step `i`: one
/// `act_batch` of `ROWS` rows, a `record_valued` of each row's first draw
/// (row 0 every sixth step with a tiling action its own mask forbids),
/// and on every third step a `train_step`; every tenth step a
/// `train_minibatch` of rows out of the buffer. The first agent is the
/// reference: the others must draw, record and train its bits.
fn step(heads: &[usize], agents: &mut [(PpoAgent, StdRng)], i: usize) {
    let states: Vec<f32> = (0..ROWS).flat_map(|b| state(i, b)).collect();
    let row_masks: Vec<Vec<Vec<bool>>> = (0..ROWS).map(|b| masks(heads, i, b)).collect();
    let mut reference = None;
    for (n, (agent, rng)) in agents.iter_mut().enumerate() {
        let draws: Vec<(Vec<usize>, u32)> = agent
            .act_batch(&states, ROWS, &row_masks, SAMPLES, rng)
            .iter()
            .flatten()
            .map(|(actions, logp)| (actions.clone(), logp.to_bits()))
            .collect();
        let values: Vec<u32> = agent
            .values(&states, ROWS)
            .iter()
            .map(|v| v.to_bits())
            .collect();
        for b in 0..ROWS {
            let mut actions = draws[b * SAMPLES].0.clone();
            if b == 0 && i % 6 == 4 {
                actions[0] = (0..heads[0])
                    .find(|&a| never(0, a) && late(0, heads[0]) != Some(a))
                    .unwrap_or(0);
            }
            let logp = f32::from_bits(draws[b * SAMPLES].1);
            let reward = ((i * 5 + b * 3) % 7) as f32 / 7.0 - 0.3;
            let v = f32::from_bits(values[b]);
            let v_next = f32::from_bits(values[(b + 1) % ROWS]);
            let s = &states[b * DIM..(b + 1) * DIM];
            agent.record_valued(s, &actions, logp, reward, v_next, v, &row_masks[b]);
        }
        let mut losses = Vec::new();
        if i % 3 == 2 {
            let (p, v) = agent.train_step(rng).expect("the buffer holds rows");
            losses.push((p.to_bits(), v.to_bits()));
        }
        if i % 10 == 9 {
            let rows: Vec<Transition> = (0..agent.buffer.len())
                .step_by(3)
                .map(|k| agent.buffer.get(k))
                .collect();
            let (p, v) = agent.train_minibatch(&rows);
            losses.push((p.to_bits(), v.to_bits()));
        }
        let seen = (draws, values, losses);
        match &reference {
            None => reference = Some(seen),
            Some(want) => assert!(&seen == want, "{heads:?}, step {i}, agent {n}"),
        }
    }
}

#[test]
fn live_columns_train_the_bits_of_every_column() {
    for heads in GEOMETRIES {
        let cfg = PpoConfig {
            minibatch: 24,
            buffer_capacity: 64,
            ..PpoConfig::default()
        };
        let mut rng = StdRng::seed_from_u64(heads.len() as u64 * 97 + heads[0] as u64);
        let narrow = PpoAgent::new(DIM, heads, cfg, &mut rng);
        let reference = every_column_live(narrow.clone());
        let mut agents = vec![(reference, rng.clone()), (narrow, rng)];
        for i in 0..STEPS {
            if i == RESUME {
                // a killed and resumed copy: decode rebuilds the live set
                // from the ring's cells and the Adam moments
                let (agent, rng) = &mut agents[1];
                let resumed = (decode(&text(agent)), rng.clone());
                // (rows the ring evicted untrained may have left it)
                let (before, after) = (live(&mut agent.clone()), live(&mut resumed.0.clone()));
                assert!(after.iter().zip(&before).all(|(a, b)| a <= b), "{heads:?}");
                agents.push(resumed);
            }
            let before = live(&mut agents[1].0.clone())[0];
            step(heads, &mut agents, i);
            let after = live(&mut agents[1].0.clone())[0];
            if i == LATE && heads[0] > 1 {
                assert!(before < heads[0] as u64, "{heads:?}: head 0 is narrow");
                assert!(after > before, "{heads:?}: the late column turns live");
            }
        }
        let want = (bits(&agents[0].0), text(&agents[0].0));
        for (n, (agent, _)) in agents.iter().enumerate().skip(1) {
            assert!(bits(agent) == want.0, "{heads:?}: agent {n}'s state bits");
            assert!(
                text(agent) == want.1,
                "{heads:?}: agent {n}'s checkpoint text"
            );
        }
    }
}

/// `text` with cell `cell` of array `field` of head `head` of the policy
/// set to `value`.
fn with_cell(text: &str, head: usize, field: &str, cell: usize, value: f32) -> String {
    let key = format!(r#""{field}":""#);
    let mut at = text.find(r#""heads":["#).expect("a policy");
    for _ in 0..=head {
        at += text[at..].find(&key).expect("a head's array") + key.len();
    }
    let at = at + cell * 8;
    let hex: String = value
        .to_le_bytes()
        .iter()
        .map(|b| format!("{b:02x}"))
        .collect();
    format!("{}{hex}{}", &text[..at], &text[at + 8..])
}

#[test]
fn a_moved_moment_keeps_its_column_live_through_a_decode() {
    // column 5 of head 0 is allowed by no mask, before or after the
    // decode; a decoded agent whose moment of that column is −0.0 or
    // non-zero must count it live, or its Adam step would leave bits the
    // step of every column moves (−0.0 becomes +0.0, a moment decays)
    const HEADS: [usize; 2] = [11, 3];
    const DEAD: usize = 5;
    let masks = |i: usize| -> Vec<Vec<bool>> {
        vec![
            (0..11)
                .map(|a| a != DEAD && !(a + i).is_multiple_of(3))
                .collect(),
            vec![true; 3],
        ]
    };
    let run = |agent: &mut PpoAgent, rng: &mut StdRng, steps: std::ops::Range<usize>| {
        let mut losses = Vec::new();
        for i in steps {
            let (s, m) = (state(i, 0), masks(i));
            let (actions, logp) = agent.act(&s, &m, rng);
            agent.record(s, actions, logp, 0.25, &state(i + 1, 0), m);
            if i % 2 == 1 {
                let (p, v) = agent.train_step(rng).unwrap();
                losses.push((p.to_bits(), v.to_bits()));
            }
        }
        losses
    };
    let mut rng = StdRng::seed_from_u64(61);
    let mut agent = PpoAgent::new(DIM, &HEADS, PpoConfig::default(), &mut rng);
    run(&mut agent, &mut rng, 0..8);
    let plain = live(&mut decode(&text(&agent)))[0];
    assert!(plain < 11, "the dead column is not live");
    for value in [-0.0f32, 1e-3] {
        let edited = with_cell(&text(&agent), 0, "mw", DEAD * hidden(), value);
        assert_ne!(edited, text(&agent));
        let mut narrow = decode(&edited);
        assert_eq!(live(&mut narrow)[0], plain + 1, "moment {value:e}");
        let mut reference = every_column_live(decode(&edited));
        let (mut rng_n, mut rng_r) = (rng.clone(), rng.clone());
        let losses = run(&mut narrow, &mut rng_n, 8..20);
        assert_eq!(losses, run(&mut reference, &mut rng_r, 8..20), "{value:e}");
        assert!(bits(&narrow) == bits(&reference), "moment {value:e}");
        assert_eq!(text(&narrow), text(&reference), "moment {value:e}");
        // the step of every column moved that moment: its column trained
        assert_ne!(
            with_cell(&text(&narrow), 0, "mw", DEAD * hidden(), value),
            text(&narrow)
        );
    }
}

#[test]
fn a_nan_logit_draws_every_head_s_last_action_as_every_column_does() {
    // a NaN weight in a live column makes its head's every probability NaN
    // (the dead ones too, in the row of every column): each draw falls
    // through to the head's last action, which no mask here allows, so
    // the narrow agent must name a column it does not compute, and take
    // the ln floor for it
    const HEADS: [usize; 2] = [9, 3];
    let masks: Vec<Vec<Vec<bool>>> = (0..3)
        .map(|b| {
            let head = |n: usize| (0..n).map(|a| a + 1 < n && (a + b) % 2 == 0).collect();
            vec![head(9), head(3)]
        })
        .collect();
    let mut rng = StdRng::seed_from_u64(71);
    let agent = PpoAgent::new(DIM, &HEADS, PpoConfig::default(), &mut rng);
    let poisoned = with_cell(&text(&agent), 0, "w", 2 * hidden(), f32::NAN);
    let states: Vec<f32> = (0..3).flat_map(|b| state(1, b)).collect();
    let draw = |agent: &mut PpoAgent| {
        let mut rng = StdRng::seed_from_u64(72);
        let draws = agent.act_batch(&states, 3, &masks, 4, &mut rng);
        (draws.iter().flatten())
            .map(|(actions, logp)| (actions.clone(), logp.to_bits()))
            .collect::<Vec<_>>()
    };
    let mut narrow = decode(&poisoned);
    let got = draw(&mut narrow);
    assert!(live(&mut narrow)[0] < 9, "the last action is not live");
    assert_eq!(got, draw(&mut every_column_live(decode(&poisoned))));
    // rows 0 and 2 allow the poisoned column 2, row 1 does not
    let floor = (1e-12f32).ln();
    for (i, (actions, logp)) in got.iter().enumerate() {
        if i / 4 != 1 {
            assert_eq!(actions[0], 8, "draw {i}");
            assert!(f32::from_bits(*logp) <= floor, "draw {i}");
        }
    }
}
