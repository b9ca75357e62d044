//! Checkpoint load under damage: whatever bytes `checkpoint.json` holds,
//! resuming from it through `RecordStore` + `SessionBuilder::launch`
//! either fails with a structured `StoreError::Format` or yields a
//! session whose next round runs — and, when the bytes still spell the
//! checkpoint that was written, lands on the bits the undamaged file
//! leads to. It never panics.
//!
//! The inputs are a real version-3 HARL checkpoint (24 trials of the tiny
//! preset: trained networks, a part-filled replay buffer) under
//! truncations, bit flips, and the edits that make a replay-buffer row
//! miss the agent's shapes — a state one value short, an action list one
//! short or long, an action outside its head, a fifth mask, a mask one
//! entry short, more rows than the capacity. Those used to decode and then
//! index out of bounds in a worker's first update. Edits of the agent's
//! `cfg` (a zero minibatch, a negative learning rate, a width or a
//! capacity the decoded networks and ring do not have) used to resume
//! into a learner other than the one that was saved.

use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};

use harl_repro::harl::{HarlOperatorTuner, SessionCheckpoint};
use harl_repro::prelude::*;
use harl_repro::store::StoreError;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn temp_store(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("harl-ckfuzz-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn tuner(measurer: &Measurer) -> Box<dyn Tuner + '_> {
    let graph = harl_repro::ir::workload::gemm(256, 256, 256);
    Box::new(HarlOperatorTuner::new(graph, measurer, HarlConfig::tiny()))
}

/// What resuming from one `checkpoint.json` came to.
#[derive(Debug)]
enum Outcome {
    /// `launch` refused the file with this `StoreError::Format` message.
    Refused(String),
    /// The session resumed and ran one more round, reaching this state.
    Resumed(String),
}

/// A store directory of this process, reloaded once per input.
struct Harness {
    dir: PathBuf,
    store: Arc<RecordStore>,
}

impl Harness {
    fn new(tag: &str) -> Self {
        let dir = temp_store(tag);
        let store = Arc::new(RecordStore::open(&dir).unwrap());
        Harness { dir, store }
    }

    /// Puts `bytes` where the store keeps its checkpoint, resumes a fresh
    /// tuner from them and, if that works, runs one round.
    fn load(&self, bytes: &[u8]) -> Outcome {
        std::fs::write(self.dir.join("checkpoint.json"), bytes).unwrap();
        let measurer = Measurer::new(Hardware::cpu(), MeasureConfig::default());
        let launched =
            TuningSession::builder().launch(tuner(&measurer), &measurer, Some(self.store.clone()));
        match launched {
            Err(StoreError::Format(msg)) => {
                assert!(
                    msg.contains("checkpoint"),
                    "a refusal names what it refuses: {msg}"
                );
                Outcome::Refused(msg)
            }
            Err(other) => panic!("expected a format error, got {other}"),
            Ok(mut session) => {
                assert!(session.resumed());
                session.round(8).expect("the store is healthy");
                let state = serde_json::to_string(&session.tuner_state()).unwrap();
                Outcome::Resumed(format!("{state} after {} trials", measurer.trials()))
            }
        }
    }
}

impl Drop for Harness {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

struct Fixture {
    /// The checkpoint a killed 24-trial session left behind.
    good: String,
    /// Where one more round takes a session resumed from it.
    next_round: String,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let harness = Harness::new("fixture");
        let measurer = Measurer::new(Hardware::cpu(), MeasureConfig::default());
        let mut session = TuningSession::builder()
            .launch(tuner(&measurer), &measurer, Some(harness.store.clone()))
            .unwrap();
        session.run(24).unwrap();
        drop(session);
        let good = harness.store.load_checkpoint().unwrap().expect("killed");
        assert!(good.starts_with("{\"version\":3,"), "{}", &good[..40]);
        assert!(good.contains(r#""state":""#), "empty replay buffer");
        let Outcome::Resumed(next_round) = harness.load(good.as_bytes()) else {
            panic!("the undamaged checkpoint must resume");
        };
        Fixture { good, next_round }
    })
}

/// Checks one input against the oracle and returns what came of it.
fn check(harness: &Harness, bytes: &[u8]) -> Outcome {
    let fixture = fixture();
    let outcome = harness.load(bytes);
    if let Outcome::Resumed(state) = &outcome {
        // damage can leave a different checkpoint that is still one (a
        // flipped weight digit): then the round only has to run. Bytes
        // that still decode to what was written must lead where it led
        let same = std::str::from_utf8(bytes)
            .ok()
            .and_then(|text| serde_json::from_str::<SessionCheckpoint>(text).ok())
            .is_some_and(|ck| serde_json::to_string(&ck).unwrap() == fixture.good);
        if same {
            assert!(
                *state == fixture.next_round,
                "the same checkpoint resumed to other bits"
            );
        }
    }
    outcome
}

/// `text` with the first `find` after `from` replaced by `with`.
fn edit(text: &str, from: &str, find: &str, with: &str) -> String {
    let start = text.find(from).unwrap_or_else(|| panic!("no {from}"));
    let at = start
        + text[start..]
            .find(find)
            .unwrap_or_else(|| panic!("no {find}"));
    format!("{}{with}{}", &text[..at], &text[at + find.len()..])
}

#[test]
fn rows_that_miss_the_agents_shapes_are_refused_with_row_and_field() {
    let good = &fixture().good;
    let harness = Harness::new("shapes");
    // the first transition's fields, as the writer spelled them
    let items = good.find(r#""items":[{"#).expect("a replay buffer");
    let field = |name: &str, close: char| {
        let open = format!("\"{name}\":");
        let at = items + good[items..].find(&open).unwrap() + open.len();
        let len = good[at..].find(close).unwrap() + 1;
        good[at..at + len].to_string()
    };
    let (actions, masks) = (field("actions", ']'), field("masks", ']'));
    let first_action_end = actions.find(',').expect("four heads");
    let one_action_less = format!("[{}", &actions[first_action_end + 1..]);
    let one_action_more = format!("{},0]", &actions[..actions.len() - 1]);
    let far_action = format!("[4096{}", &actions[first_action_end..]);
    let fifth_mask = format!("{},\"\"]", &masks[..masks.len() - 1]);
    // the first full mask row, one entry short
    let short_mask = {
        let at = masks.find(['0', '1']).expect("a full mask");
        format!("{}{}", &masks[..at], &masks[at + 1..])
    };
    let from = r#""items":[{"#;
    let state = items + good[items..].find(r#""state":""#).unwrap() + r#""state":""#.len();
    let cases = [
        ("state", format!("{}{}", &good[..state], &good[state + 8..])),
        (
            "state",
            format!("{}0000803f{}", &good[..state], &good[state..]),
        ),
        ("actions", edit(good, from, &actions, &one_action_less)),
        ("actions", edit(good, from, &actions, &one_action_more)),
        ("actions", edit(good, from, &actions, &far_action)),
        ("masks", edit(good, from, &masks, &fifth_mask)),
        ("masks", edit(good, from, &masks, &short_mask)),
    ];
    for (named, text) in cases {
        match check(&harness, text.as_bytes()) {
            Outcome::Refused(msg) => {
                for part in ["bad checkpoint", "`buffer`", "transition 0", named] {
                    assert!(msg.contains(part), "`{named}` edit: {msg}");
                }
            }
            Outcome::Resumed(_) => panic!("a `{named}` edit was resumed"),
        }
    }
    // more rows than the capacity admits
    match check(
        &harness,
        edit(good, from, r#""cap":4096"#, r#""cap":3"#).as_bytes(),
    ) {
        Outcome::Refused(msg) => assert!(msg.contains("capacity 3"), "{msg}"),
        Outcome::Resumed(_) => panic!("an overfull buffer was resumed"),
    }
    // ... while whitespace between tokens is the same checkpoint
    let spaced = good.replacen(r#","actions":["#, " ,\n\"actions\" : [ ", 1);
    match check(&harness, spaced.as_bytes()) {
        Outcome::Resumed(state) => assert!(state == fixture().next_round),
        Outcome::Refused(msg) => panic!("whitespace was refused: {msg}"),
    }
}

#[test]
fn a_config_that_is_not_the_saved_learners_is_refused_by_field() {
    let good = &fixture().good;
    let harness = Harness::new("cfg");
    let cfg = r#""cfg":{"#;
    // values `PpoConfig::validate` refuses, then values that are fine by
    // themselves and disagree with the networks and the ring decoded
    // beside them (an unbounded ring of the same rows among them)
    let cases = [
        (
            "ppo.minibatch",
            cfg,
            r#""minibatch":64"#,
            r#""minibatch":0"#,
        ),
        ("ppo.lr_actor", cfg, r#""lr_actor":"#, r#""lr_actor":-"#),
        ("ppo.gamma", cfg, r#""gamma":0.9"#, r#""gamma":7"#),
        ("ppo.hidden", cfg, r#""hidden":32"#, r#""hidden":0"#),
        ("ppo.hidden", cfg, r#""hidden":32"#, r#""hidden":64"#),
        (
            "ppo.buffer_capacity",
            cfg,
            r#""buffer_capacity":4096"#,
            r#""buffer_capacity":8"#,
        ),
        (
            "ppo.buffer_capacity",
            r#""items":[{"#,
            r#""cap":4096"#,
            r#""cap":0"#,
        ),
    ];
    for (named, from, find, with) in cases {
        match check(&harness, edit(good, from, find, with).as_bytes()) {
            Outcome::Refused(msg) => {
                for part in ["bad checkpoint", "`cfg`", named] {
                    assert!(msg.contains(part), "{find} -> {with}: {msg}");
                }
            }
            Outcome::Resumed(_) => panic!("{find} -> {with} was resumed"),
        }
    }
}

#[test]
fn a_truncated_checkpoint_is_refused_wherever_it_is_cut() {
    let good = &fixture().good;
    let harness = Harness::new("cuts");
    let mut rng = StdRng::seed_from_u64(0x63757473);
    // the ends, and cuts spread over the networks and the buffer
    let mut cuts = vec![0, 1, good.len() - 2, good.len() - 1];
    cuts.extend((0..60).map(|_| rng.gen_range(0..good.len())));
    for cut in cuts {
        // a strict prefix of a JSON value is never that value
        if let Outcome::Resumed(_) = check(&harness, &good.as_bytes()[..cut]) {
            panic!("the first {cut} bytes were resumed");
        }
    }
}

/// An offset into `text`, half of the time outside its long hex strings
/// (which are nine tenths of it, and where a flipped digit is just another
/// weight): the structure a decoder walks is in the rest.
fn offset(rng: &mut StdRng, text: &str) -> usize {
    let at = rng.gen_range(0..text.len());
    if rng.gen_range(0..2u32) == 0 {
        return at;
    }
    let bytes = text.as_bytes();
    let structural = |i: usize| !bytes[i].is_ascii_hexdigit() || bytes[i - 1] == b':';
    (at.max(1)..text.len())
        .find(|&i| structural(i))
        .unwrap_or(at)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn bit_flipped_checkpoints_are_refused_or_resume(seed in any::<u64>(), flips in 1usize..4) {
        let good = &fixture().good;
        let harness = Harness::new("flips");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut bytes = good.clone().into_bytes();
        for _ in 0..flips {
            let at = offset(&mut rng, good);
            bytes[at] ^= 1u8 << rng.gen_range(0..8u32);
        }
        check(&harness, &bytes);
    }
}

#[test]
fn the_fixture_paths_exist() {
    // `Harness::load` writes the file `RecordStore` reads: if the store
    // ever renames it, every input above would silently load nothing
    let harness = Harness::new("paths");
    harness.store.save_checkpoint("{}").unwrap();
    assert!(Path::new(&harness.dir.join("checkpoint.json")).exists());
}
