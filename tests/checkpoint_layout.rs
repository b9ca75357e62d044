//! The checkpoint layout: packed agent fields (version 3 on) that
//! round-trip to the bit, resumes that land where an uninterrupted run
//! does, damaged or foreign files that fail with a reason instead of a
//! panic (a shared half whose model does not match its searcher, whose
//! model rows cannot be fitted, or whose elite pools, queued seeds or best
//! schedule do not fit the workload, and a HARL or Flextensor half whose
//! sketch bandit or PPO agent does not, included), and the size the packed
//! layout was introduced for.
//!
//! `ci/test.sh` reruns this file under `HARL_SIMD=0`; that the checkpoint
//! bytes are the same across backends is `tests/scoring_determinism.rs`'s
//! to compare.

use std::path::PathBuf;
use std::sync::Arc;

use harl_repro::gbt::{CostModel, GbtParams};
use harl_repro::harl::search::Snapshot;
use harl_repro::harl::{HarlOperatorTuner, HarlTunerState, SessionCheckpoint, CHECKPOINT_VERSION};
use harl_repro::ir::FEATURE_DIM;
use harl_repro::nnet::{Mlp, PpoAgent, PpoConfig, ReplayBuffer, Transition};
use harl_repro::prelude::*;
use harl_repro::store::StoreError;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn temp_store(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("harl-layout-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The two searchers whose state holds a `PpoAgent`.
const PPO_SEARCHERS: [&str; 2] = ["harl", "flextensor"];

fn tuner<'m>(which: &str, measurer: &'m Measurer) -> Box<dyn Tuner + 'm> {
    let graph = harl_repro::ir::workload::gemm(256, 256, 256);
    match which {
        "harl" => Box::new(HarlOperatorTuner::new(graph, measurer, HarlConfig::tiny())),
        "cd" => Box::new(CdTuner::new(graph, measurer, CdConfig::default())),
        _ => Box::new(FlextensorTuner::new(graph, measurer, Default::default())),
    }
}

/// One process lifetime on the store in `dir`: a fresh tuner resumes from
/// the store's checkpoint if there is one, runs each leg, and is dropped
/// without `finish` — killed. Returns the final tuner state as text and
/// the store's checkpoint after every leg.
fn lifetime(dir: &PathBuf, which: &str, legs: &[u64]) -> (String, Vec<String>) {
    let store = Arc::new(RecordStore::open(dir).unwrap());
    let measurer = Measurer::new(Hardware::cpu(), MeasureConfig::default());
    let mut session = TuningSession::builder()
        .launch(tuner(which, &measurer), &measurer, Some(store.clone()))
        .unwrap();
    let mut checkpoints = Vec::new();
    for &trials in legs {
        session.run(trials).unwrap();
        checkpoints.push(store.load_checkpoint().unwrap().expect("run checkpoints"));
    }
    let state = serde_json::to_string(&session.tuner_state()).unwrap();
    (state, checkpoints)
}

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

#[test]
fn packed_f32s_round_trip_bit_exactly() {
    // the classes a decimal array cannot carry (it spells them `null`),
    // the ones it rounds through a shortest-decimal search, and nothing
    let awkward = vec![
        f32::NAN,
        -f32::NAN,
        f32::from_bits(0x7f80_0001), // signalling NaN, smallest payload
        f32::from_bits(0xffc1_2345),
        f32::INFINITY,
        f32::NEG_INFINITY,
        -0.0,
        0.0,
        f32::from_bits(1), // smallest subnormal
        -f32::MIN_POSITIVE / 2.0,
        f32::MIN_POSITIVE,
        f32::MAX,
        0.1,
    ];
    // a replay-buffer row, through an agent whose state is those values
    let heads = [8, 4, 1];
    let mut agent = PpoAgent::new(
        awkward.len(),
        &heads,
        PpoConfig::default(),
        &mut StdRng::seed_from_u64(5),
    );
    let t = Transition {
        state: awkward.clone(),
        actions: vec![7, 0, 0],
        logp: f32::NEG_INFINITY,
        reward: f32::from_bits(0x7fc0_00aa),
        advantage: -0.0,
        value_target: f32::from_bits(3),
        masks: vec![vec![], vec![true, false, false, true], vec![false]],
    };
    agent.buffer.push(t.clone());
    let text = serde_json::to_string(&agent).unwrap();
    assert!(!text.contains("null"), "{text}");
    let back: PpoAgent = serde_json::from_str(&text).unwrap();
    let row = back.buffer.get(0);
    assert_eq!(bits(&row.state), bits(&t.state));
    assert_eq!(row.actions, t.actions);
    assert_eq!(
        bits(&[row.logp, row.reward, row.advantage, row.value_target]),
        bits(&[t.logp, t.reward, t.advantage, t.value_target])
    );
    // the empty entry comes back as its head's cells, all valid
    assert_eq!(
        row.masks,
        [vec![true; 8], vec![true, false, false, true], vec![false]]
    );
    assert_eq!(serde_json::to_string(&back).unwrap(), text);

    // fixed little-endian: 1.0 is 0x3f800000
    let mut one = ReplayBuffer::new(4096, 1, &[4]);
    one.push(Transition {
        state: vec![1.0],
        actions: vec![1],
        logp: 0.0,
        reward: 0.0,
        advantage: 0.0,
        value_target: 0.0,
        masks: vec![vec![false, true, true, false]],
    });
    let text = serde_json::to_string(&one).unwrap();
    assert!(
        text.starts_with(r#"{"states":"0000803f","actions":[1],"#),
        "{text}"
    );
    assert!(text.ends_with(r#""valid":"0110","cap":4096}"#), "{text}");

    // layers: weights, biases, gradients and moments, through an MLP
    let net = Mlp::new(&[5, 3, 2], &mut StdRng::seed_from_u64(9));
    let text = serde_json::to_string(&net).unwrap();
    let back: Mlp = serde_json::from_str(&text).unwrap();
    assert!(back.state_bits().eq(net.state_bits()));
    assert_eq!(serde_json::to_string(&back).unwrap(), text);
}

#[test]
fn checkpoints_reencode_to_the_same_text_and_resumes_match_uninterrupted_runs() {
    for which in PPO_SEARCHERS {
        let dir = temp_store(&format!("resume-{which}"));
        let (uninterrupted, _) = lifetime(&dir, which, &[40, 24, 24]);
        let _ = std::fs::remove_dir_all(&dir);

        let mut checkpoints = Vec::new();
        let mut resumed = String::new();
        for leg in [40, 24, 24] {
            let (state, written) = lifetime(&dir, which, &[leg]);
            checkpoints.extend(written);
            resumed = state;
        }
        let _ = std::fs::remove_dir_all(&dir);
        assert!(
            resumed == uninterrupted,
            "{which}: two kills and resumes changed the tuner state"
        );

        for (i, text) in checkpoints.iter().enumerate() {
            assert!(
                text.starts_with(&format!("{{\"version\":{CHECKPOINT_VERSION},")),
                "{which}: checkpoint {i} begins {:?}",
                &text[..text.len().min(40)]
            );
            assert!(
                !text.contains(r#""states":"""#),
                "{which}: empty replay buffer"
            );
            let decoded: SessionCheckpoint = serde_json::from_str(text).unwrap();
            assert!(
                serde_json::to_string(&decoded).unwrap() == *text,
                "{which}: checkpoint {i} re-encodes differently"
            );
        }
    }
}

/// The byte range of the string body that follows the first occurrence
/// of `open` (which ends in the opening quote) in `text`.
fn string_body(text: &str, open: &str) -> std::ops::Range<usize> {
    let start = text.find(open).unwrap_or_else(|| panic!("no {open}")) + open.len();
    let len = text[start..].find('"').expect("closing quote");
    start..start + len
}

#[test]
fn damaged_checkpoints_fail_with_a_reason_never_a_panic() {
    let dir = temp_store("damaged");
    let (_, checkpoints) = lifetime(&dir, "harl", &[24]);
    let good = &checkpoints[0];
    let weights = string_body(good, r#""w":""#);
    let state = string_body(good, r#""states":""#);
    let valid = string_body(good, r#""valid":""#);
    assert!(weights.len() > 64 && state.len() > 64);
    let lowercase = weights.start
        + good[weights.clone()]
            .find(|c: char| c.is_ascii_lowercase())
            .expect("some weight has a hex letter");

    let edit = |range: std::ops::Range<usize>, with: &str| {
        let mut text = good.clone();
        text.replace_range(range, with);
        text
    };
    // the shared half: a model where the searcher has none, none where
    // it has one
    let model = good.find(r#""cost_model":{"#).expect("a HARL model") + r#""cost_model":"#.len();
    let no_model = edit(model..good.find(r#","seen":["#).unwrap(), "null");
    let cd_dir = temp_store("damaged-cd");
    let (_, cd_checkpoints) = lifetime(&cd_dir, "cd", &[24]);
    let _ = std::fs::remove_dir_all(&cd_dir);
    let mut cd_with_model: SessionCheckpoint = serde_json::from_str(&cd_checkpoints[0]).unwrap();
    let TunerState::Cd(cd) = &mut cd_with_model.tuner else {
        panic!("a CD session checkpoints a CD state");
    };
    cd.cost_model = Some(CostModel::new(GbtParams::default()));
    let cd_with_model = serde_json::to_string(&cd_with_model).unwrap();
    // the shared half against the workload: HARL's GEMM has three sketches
    let harl_edit = |damage: &dyn Fn(&mut Snapshot<HarlTunerState>)| {
        let mut ck: SessionCheckpoint = serde_json::from_str(good).unwrap();
        let TunerState::Harl(state) = &mut ck.tuner else {
            panic!("a HARL session checkpoints a HARL state");
        };
        damage(state);
        serde_json::to_string(&ck).unwrap()
    };
    let unfit = |s: &Schedule| {
        let mut s = s.clone();
        s.tiles[0][0] += 1;
        s
    };
    let too_few_pools = harl_edit(&|s| {
        assert_eq!(s.elites.len(), 3);
        s.elites.pop();
    });
    let unfit_elite = harl_edit(&|s| {
        let pool = s.elites.iter_mut().find(|p| !p.is_empty()).unwrap();
        pool[0].1 = unfit(&pool[0].1);
    });
    let foreign_elite = harl_edit(&|s| {
        let (i, pool) = (s.elites.iter())
            .enumerate()
            .find(|(_, p)| !p.is_empty())
            .unwrap();
        let entry = pool[0].clone();
        s.elites[(i + 1) % 3].push(entry);
    });
    let unfit_seed = harl_edit(&|s| {
        let best = s.best_schedule.as_ref().unwrap();
        s.pending_seeds.push(unfit(best));
    });
    let unfit_best = harl_edit(&|s| {
        s.best_schedule = Some(unfit(s.best_schedule.as_ref().unwrap()));
    });
    // the cost model's rows, edited as text: the dataset's fields are
    // private; `first` is the first value of the array that follows `open`
    let model_edit = |open: &str, damage: &dyn Fn(&mut String, std::ops::Range<usize>)| {
        harl_edit(&|s| {
            let mut text = serde_json::to_string(&s.cost_model).unwrap();
            let start = text.find(open).unwrap_or_else(|| panic!("no {open}")) + open.len();
            let first = start..start + text[start..].find(',').expect("two values");
            damage(&mut text, first);
            s.cost_model = serde_json::from_str(&text).unwrap();
        })
    };
    let target_missing = model_edit(r#""targets":["#, &|text, first| {
        text.replace_range(first.start..first.end + 1, "")
    });
    let target_not_finite = model_edit(r#""targets":["#, &|text, first| {
        text.replace_range(first, "null")
    });
    let feature_not_finite = model_edit(r#""features":[["#, &|text, first| {
        text.replace_range(first, "null")
    });
    let row_too_wide = model_edit(r#""features":[["#, &|text, first| {
        text.insert_str(first.start, "0,")
    });
    // the proposer's own half against the workload: HARL's sketch bandit
    // and agent, Flextensor's agent
    let other_agent = |state_dim: usize, heads: &[usize]| {
        let cfg = HarlConfig::tiny().ppo;
        PpoAgent::new(state_dim, heads, cfg, &mut StdRng::seed_from_u64(3))
    };
    let extra_arm = harl_edit(&|s| {
        s.proposer.sketch_bandit = HarlConfig::tiny().mab_kind.build(4);
    });
    let wide_agent = harl_edit(&|s| {
        let heads = s.proposer.agent.policy.head_sizes();
        s.proposer.agent = other_agent(FEATURE_DIM + 1, &heads);
    });
    let mut harl_heads = match serde_json::from_str::<SessionCheckpoint>(good)
        .unwrap()
        .tuner
    {
        TunerState::Harl(s) => s.proposer.agent.policy.head_sizes(),
        _ => panic!("a HARL session checkpoints a HARL state"),
    };
    harl_heads[1] += 1;
    let wrong_heads = harl_edit(&|s| s.proposer.agent = other_agent(FEATURE_DIM, &harl_heads));
    let flex_dir = temp_store("damaged-flextensor");
    let (_, flex_checkpoints) = lifetime(&flex_dir, "flextensor", &[24]);
    let _ = std::fs::remove_dir_all(&flex_dir);
    let mut flex_wrong_heads: SessionCheckpoint =
        serde_json::from_str(&flex_checkpoints[0]).unwrap();
    let TunerState::Flextensor(flex) = &mut flex_wrong_heads.tuner else {
        panic!("a Flextensor session checkpoints a Flextensor state");
    };
    let mut flex_heads = flex.proposer.agent.policy.head_sizes();
    flex_heads[0] -= 1;
    flex.proposer.agent = other_agent(FEATURE_DIM, &flex_heads);
    let flex_wrong_heads = serde_json::to_string(&flex_wrong_heads).unwrap();
    let (harl_heads, flex_heads) = (
        format!("to heads of {harl_heads:?} actions"),
        format!("to heads of {flex_heads:?} actions"),
    );
    let cases: [(&str, &str, String, &str); 23] = [
        (
            "harl",
            "odd length",
            edit(weights.start..weights.start + 1, ""),
            "8 hex digits each",
        ),
        (
            "harl",
            "non-hex byte",
            edit(state.start + 3..state.start + 4, "g"),
            "not 8 lowercase hex digits",
        ),
        (
            "harl",
            "uppercase digit",
            edit(
                lowercase..lowercase + 1,
                &good[lowercase..lowercase + 1].to_ascii_uppercase(),
            ),
            "not 8 lowercase hex digits",
        ),
        (
            "harl",
            "one weight short of in_dim·out_dim",
            edit(weights.start..weights.start + 8, ""),
            "field `w`",
        ),
        (
            "harl",
            "one weight too many",
            edit(weights.start..weights.start, "0000803f"),
            "field `w`",
        ),
        (
            "harl",
            "truncated mid-string",
            good[..state.start + state.len() / 2].to_string(),
            "unterminated string",
        ),
        (
            "harl",
            "validity digit",
            edit(valid.start..valid.start + 1, "2"),
            "neither 0 nor 1",
        ),
        (
            "harl",
            "empty file",
            String::new(),
            "unexpected end of input",
        ),
        (
            "harl",
            "HARL state without a model",
            no_model,
            "lacks a cost model",
        ),
        (
            "cd",
            "CD state with a model",
            cd_with_model,
            "carries a cost model",
        ),
        (
            "harl",
            "one elite pool short",
            too_few_pools,
            "2 elite pools for 3 sketches",
        ),
        (
            "harl",
            "a pooled schedule invalid on its sketch",
            unfit_elite,
            "factors multiply to",
        ),
        (
            "harl",
            "a pooled schedule of another sketch",
            foreign_elite,
            "names sketch",
        ),
        (
            "harl",
            "a queued seed invalid on its sketch",
            unfit_seed,
            "queued seed 0 is not valid on its sketch",
        ),
        (
            "harl",
            "a best schedule invalid on its sketch",
            unfit_best,
            "the best schedule is not valid on its sketch",
        ),
        (
            "harl",
            "a cost model one target short",
            target_missing,
            "the cost model holds 24 feature rows for 23 targets",
        ),
        (
            "harl",
            "a cost-model target that is not finite",
            target_not_finite,
            "cost-model row 0 holds a non-finite value",
        ),
        (
            "harl",
            "a cost-model feature that is not finite",
            feature_not_finite,
            "cost-model row 0 holds a non-finite value",
        ),
        (
            "harl",
            "a cost-model row wider than the workload's features",
            row_too_wide,
            "cost-model row 0 has 65 features, not 64",
        ),
        (
            "harl",
            "a sketch bandit with an arm for a sketch the workload lacks",
            extra_arm,
            "a sketch bandit of 4 arms for 3 sketches",
        ),
        (
            "harl",
            "an agent over a wider state",
            wide_agent,
            "the PPO agent maps 65 inputs",
        ),
        (
            "harl",
            "an agent with another head",
            wrong_heads,
            &harl_heads,
        ),
        (
            "flextensor",
            "an agent with another head",
            flex_wrong_heads,
            &flex_heads,
        ),
    ];

    let store = Arc::new(RecordStore::open(&dir).unwrap());
    for (which, what, text, reason) in cases {
        store.save_checkpoint(&text).unwrap();
        let measurer = Measurer::new(Hardware::cpu(), MeasureConfig::default());
        let launched = TuningSession::builder().launch(
            tuner(which, &measurer),
            &measurer,
            Some(store.clone()),
        );
        match launched {
            Err(StoreError::Format(msg)) => {
                assert!(msg.contains("bad checkpoint"), "{what}: {msg}");
                assert!(msg.contains(reason), "{what}: {msg}");
            }
            Err(other) => panic!("{what}: expected a format error, got {other}"),
            Ok(_) => panic!("{what}: a damaged checkpoint was resumed"),
        }
    }

    // the undamaged text still resumes from the same store
    store.save_checkpoint(good).unwrap();
    let measurer = Measurer::new(Hardware::cpu(), MeasureConfig::default());
    let session = TuningSession::builder()
        .launch(tuner("harl", &measurer), &measurer, Some(store.clone()))
        .unwrap();
    assert!(session.resumed());
    drop(session);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A version-2 checkpoint as PR 13 wrote it, cut down to one tiny layer
/// per network and one transition: every `f32` array a JSON array, mask
/// rows arrays of booleans.
const V2_CHECKPOINT: &str = r#"{"version":2,"job_key":null,"rounds_done":1,"finetuned":false,"measurer":{"rng":[111540425790,600586833042,155727880996,938587283985],"trials":8,"sim_seconds":12},"tuner":{"Flextensor":{"agent":{"policy":{"trunk":{"layers":[{"in_dim":2,"out_dim":1,"w":[0.5,-0.25],"b":[0],"gw":[0,0],"gb":[0],"mw":[0,0],"vw":[0,0],"mb":[0],"vb":[0]}],"adam_t":0},"heads":[{"in_dim":1,"out_dim":2,"w":[0.125,-1],"b":[0,0],"gw":[0,0],"gb":[0,0],"mw":[0,0],"vw":[0,0],"mb":[0,0],"vb":[0,0]}],"adam_t":0},"critic":{"layers":[{"in_dim":2,"out_dim":1,"w":[0.75,0.0625],"b":[0],"gw":[0,0],"gb":[0],"mw":[0,0],"vw":[0,0],"mb":[0],"vb":[0]}],"adam_t":0},"cfg":{"lr_actor":0.0003,"lr_critic":0.001,"gamma":0.9,"clip":0.2,"entropy_weight":0.01,"value_weight":0.5,"minibatch":64,"buffer_capacity":4096,"hidden":64},"buffer":{"items":[{"state":[0.5,-1.5],"actions":[1],"logp":-0.6931472,"reward":0.25,"advantage":0.1,"value_target":0.3,"masks":[[true,false]]}],"cap":4096},"updates":0},"best_time":0.000007340955,"best_schedule":null,"critical_steps":[],"trials_used":8,"trace":{"points":[]},"lint_stats":{"counts":[0,0,0,0,0,0,0,0,0,0,0],"checked":8,"rejected":0},"rng":[985663314889,166517249146,478910344654,135432044260]}}}"#;

#[test]
fn a_version_2_checkpoint_is_rejected_by_its_version() {
    let dir = temp_store("v2");
    let store = Arc::new(RecordStore::open(&dir).unwrap());
    let launch = |text: &str| {
        store.save_checkpoint(text).unwrap();
        let measurer = Measurer::new(Hardware::cpu(), MeasureConfig::default());
        let launched = TuningSession::builder().launch(
            tuner("flextensor", &measurer),
            &measurer,
            Some(store.clone()),
        );
        match launched {
            Err(StoreError::Format(msg)) => msg,
            Err(other) => panic!("expected a format error, got {other}"),
            Ok(_) => panic!("a version-2 checkpoint was resumed"),
        }
    };
    let msg = launch(V2_CHECKPOINT);
    assert_eq!(
        msg,
        format!("unsupported checkpoint version 2 (supported: {CHECKPOINT_VERSION})")
    );
    // and the versions between it and this one the same way
    for old in 3..CHECKPOINT_VERSION {
        let msg =
            launch(&V2_CHECKPOINT.replacen("\"version\":2", &format!("\"version\":{old}"), 1));
        assert_eq!(
            msg,
            format!("unsupported checkpoint version {old} (supported: {CHECKPOINT_VERSION})")
        );
    }
    // the version check is what caught it: relabelled as the current
    // version the same payload fails on its layout instead
    let relabelled = V2_CHECKPOINT.replacen(
        "\"version\":2",
        &format!("\"version\":{CHECKPOINT_VERSION}"),
        1,
    );
    let msg = launch(&relabelled);
    assert!(
        msg.contains("bad checkpoint") && msg.contains("missing field `cost_model`"),
        "{msg}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    /// Numbers are formatted straight into the output; the bytes must be
    /// those `format!` produced when every scalar went through a `String`.
    #[test]
    fn scalar_tokens_are_byte_identical_to_display(word in any::<u64>()) {
        let as_f64 = f64::from_bits(word);
        let as_f32 = f32::from_bits(word as u32);
        let tokens = serde_json::to_string(&(word, word as i64, as_f64)).unwrap();
        let float = |finite: bool, text: String| if finite { text } else { "null".to_string() };
        prop_assert_eq!(
            tokens,
            format!("[{},{},{}]", word, word as i64, float(as_f64.is_finite(), format!("{as_f64}")))
        );
        prop_assert_eq!(
            serde_json::to_string(&[as_f32, as_f32 / 3.0]).unwrap(),
            format!(
                "[{},{}]",
                float(as_f32.is_finite(), format!("{as_f32}")),
                float((as_f32 / 3.0).is_finite(), format!("{}", as_f32 / 3.0))
            )
        );
        prop_assert_eq!(
            serde_json::to_string(&(word as u8, word as i8, word as i32)).unwrap(),
            format!("[{},{},{}]", word as u8, word as i8, word as i32)
        );
    }
}

#[test]
fn full_replay_buffer_checkpoint_fits_the_size_budget() {
    // the `served_jobs` cold job: 128 trials of GEMM-1024³ under `fast`
    // fill the 4096-slot replay buffer, the largest a checkpoint gets;
    // the decimal layout took 5.34 MB, the list of packed transitions
    // (version 6) 3 961 901 bytes, the ring's arrays (version 7) 3 544 147
    let measurer = Measurer::new(Hardware::cpu(), MeasureConfig::default());
    let graph = harl_repro::ir::workload::gemm(1024, 1024, 1024);
    let mut tuner = HarlOperatorTuner::new(graph, &measurer, HarlConfig::fast());
    tuner.tune(128);
    let state = tuner.checkpoint_state();
    assert_eq!(
        state.proposer.agent.buffer.len(),
        4096,
        "buffer is not full"
    );
    let bytes = serde_json::to_string(&TunerState::Harl(state))
        .unwrap()
        .len();
    assert!(bytes <= 3_600_000, "checkpoint is {bytes} bytes");
}
