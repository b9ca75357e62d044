//! The observability layer must be *observation only*: running with a
//! tracer attached has to leave every search-visible artifact — best
//! latency bits, the tuning trace, the checkpoint bytes — exactly as the
//! untraced run produces them, while still writing a structurally valid
//! span log. These tests pin that invariant for the HARL and Ansor tuners
//! end-to-end.
//!
//! The tracer is constructed directly (not via `HARL_TRACE`): mutating
//! process env in a multi-threaded test binary races with other tests.
//! CI's smoke stage covers the env path against the quickstart example.

use harl_repro::ansor::AnsorTuner;
use harl_repro::harl::HarlOperatorTuner;
use harl_repro::obs::Tracer;
use harl_repro::prelude::*;

fn gemm() -> Subgraph {
    harl_repro::ir::workload::gemm(256, 256, 256)
}

fn trace_path(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("harl-obs-{tag}-{}.jsonl", std::process::id()))
}

/// (best_time bits, trials, trace JSON, checkpoint JSON) of a HARL run,
/// optionally traced.
fn harl_run(tracer: Option<Tracer>, trials: u64) -> (u64, u64, String, String) {
    let m = Measurer::new(Hardware::cpu(), MeasureConfig::default());
    let mut t = HarlOperatorTuner::new(gemm(), &m, HarlConfig::tiny());
    if let Some(tr) = tracer {
        t.set_tracer(tr);
    }
    {
        let mut s = TuningSession::builder()
            .launch(Box::new(&mut t), &m, None)
            .unwrap();
        s.run(trials).unwrap();
    }
    (
        t.best_time.to_bits(),
        t.trials_used,
        serde_json::to_string(&t.trace).unwrap(),
        serde_json::to_string(&t.checkpoint_state()).unwrap(),
    )
}

fn ansor_run(tracer: Option<Tracer>, trials: u64) -> (u64, u64, String, String) {
    let m = Measurer::new(Hardware::cpu(), MeasureConfig::default());
    let mut t = AnsorTuner::new(gemm(), &m, AnsorConfig::default());
    if let Some(tr) = tracer {
        t.set_tracer(tr);
    }
    {
        let mut s = TuningSession::builder()
            .launch(Box::new(&mut t), &m, None)
            .unwrap();
        s.run(trials).unwrap();
    }
    (
        t.best_time.to_bits(),
        t.trials_used,
        serde_json::to_string(&t.trace).unwrap(),
        serde_json::to_string(&t.checkpoint_state()).unwrap(),
    )
}

/// Numeric field of one hand-rolled JSON trace line.
fn num_field(line: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\":");
    let i = line.find(&pat)? + pat.len();
    let rest = &line[i..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// String field of one hand-rolled JSON trace line (no escapes in names).
fn str_field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":\"");
    let i = line.find(&pat)? + pat.len();
    let rest = &line[i..];
    rest.split('"').next()
}

/// Structural checks on a written trace file: parseable lines, balanced
/// span_start/span_end, ids unique, timestamps monotone.
fn check_trace(path: &std::path::Path, expect_span: &str) {
    let text = std::fs::read_to_string(path).expect("trace file written");
    assert!(!text.is_empty(), "trace file is empty");
    let mut starts = 0u64;
    let mut ends = 0u64;
    let mut last_ts = 0u64;
    let mut ids = std::collections::HashSet::new();
    let mut names = std::collections::HashSet::new();
    for line in text.lines() {
        assert!(
            line.starts_with('{') && line.ends_with('}'),
            "malformed trace line: {line}"
        );
        let kind = str_field(line, "t").expect("record kind");
        let ts = num_field(line, "ts_us").expect("timestamp");
        assert!(ts >= last_ts, "timestamps must be monotone");
        last_ts = ts;
        match kind {
            "span_start" => {
                starts += 1;
                let id = num_field(line, "id").expect("span id");
                assert!(ids.insert(id), "span ids unique");
                names.insert(str_field(line, "name").unwrap().to_string());
            }
            "span_end" => ends += 1,
            "event" => {
                names.insert(str_field(line, "name").unwrap().to_string());
            }
            other => panic!("unknown record kind `{other}`"),
        }
    }
    assert_eq!(starts, ends, "every span must close");
    assert!(
        names.contains(expect_span),
        "trace must contain `{expect_span}`; saw {names:?}"
    );
}

#[test]
fn traced_harl_run_is_bit_identical_to_untraced() {
    let path = trace_path("harl");
    let _ = std::fs::remove_file(&path);
    let plain = harl_run(None, 48);
    let traced = {
        let tracer = Tracer::to_file(&path).expect("open trace file");
        harl_run(Some(tracer), 48)
    };
    assert_eq!(plain.0, traced.0, "best_time bits must match");
    assert_eq!(plain.1, traced.1, "trials must match");
    assert_eq!(plain.2, traced.2, "tuning trace must match");
    assert_eq!(plain.3, traced.3, "checkpoint bytes must match");
    check_trace(&path, "harl_round");
    check_episode_summaries(&path);
    let _ = std::fs::remove_file(&path);
}

/// Every `harl_round` carries one `episode_summary` event whose counts
/// agree with the spans around it: the proposals are the live tracks of
/// every `ppo_act` step times `action_samples`, the pruned tracks are the
/// `adaptive_prune` events', and no generated candidate is rejected.
fn check_episode_summaries(path: &std::path::Path) {
    let text = std::fs::read_to_string(path).unwrap();
    let named = |line: &str, kind: &str, name: &str| {
        str_field(line, "t") == Some(kind) && str_field(line, "name") == Some(name)
    };
    let list = |line: &str, key: &str| -> Vec<u64> {
        let field = str_field(line, key).unwrap_or_else(|| panic!("`{key}` in {line}"));
        (field.split(',').filter(|n| !n.is_empty()))
            .map(|n| n.parse().expect("a count"))
            .collect()
    };
    let samples = HarlConfig::tiny().action_samples as u64;
    let (mut rounds, mut summaries) = (0, 0);
    let (mut steps, mut live_tracks, mut pruned) = (0, 0, Vec::new());
    for line in text.lines() {
        if named(line, "span_start", "harl_round") {
            rounds += 1;
        } else if named(line, "span_start", "ppo_act") {
            steps += 1;
            live_tracks += num_field(line, "tracks").expect("tracks");
        } else if named(line, "event", "adaptive_prune") {
            pruned.push(num_field(line, "dropped").expect("dropped"));
        } else if named(line, "event", "episode_summary") {
            summaries += 1;
            assert_eq!(num_field(line, "steps"), Some(steps), "{line}");
            assert_eq!(num_field(line, "proposals"), Some(live_tracks * samples));
            assert_eq!(num_field(line, "lint_rejected"), Some(0));
            assert!(num_field(line, "cache_hits").expect("cache_hits") <= live_tracks * samples);
            assert_eq!(list(line, "pruned_per_window"), pruned);
            let deciles = list(line, "critical_step_deciles");
            assert_eq!(deciles.len(), 10);
            // one per track that did not start on a measured elite
            let cfg = HarlConfig::tiny();
            let tracks = cfg.tracks_per_round as u64;
            let seeded = (tracks as f64 * cfg.elite_track_fraction) as u64;
            let counted = deciles.iter().sum::<u64>();
            assert!((tracks - seeded..=tracks).contains(&counted), "{line}");
            (steps, live_tracks) = (0, 0);
            pruned.clear();
        }
    }
    assert!(rounds > 0);
    assert_eq!(summaries, rounds, "one summary per round");
}

#[test]
fn traced_ansor_run_is_bit_identical_to_untraced() {
    let path = trace_path("ansor");
    let _ = std::fs::remove_file(&path);
    let plain = ansor_run(None, 64);
    let traced = {
        let tracer = Tracer::to_file(&path).expect("open trace file");
        ansor_run(Some(tracer), 64)
    };
    assert_eq!(plain.0, traced.0, "best_time bits must match");
    assert_eq!(plain.1, traced.1, "trials must match");
    assert_eq!(plain.2, traced.2, "tuning trace must match");
    assert_eq!(plain.3, traced.3, "checkpoint bytes must match");
    check_trace(&path, "ansor_round");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn harl_trace_contains_episode_phases() {
    let path = trace_path("phases");
    let _ = std::fs::remove_file(&path);
    let tracer = Tracer::to_file(&path).expect("open trace file");
    harl_run(Some(tracer), 32);
    let text = std::fs::read_to_string(&path).unwrap();
    for phase in [
        "sketch_pick",
        "episode",
        "ppo_act",
        "score",
        "topk_select",
        "measure",
        "gbt_retrain",
    ] {
        assert!(
            text.contains(&format!("\"name\":\"{phase}\"")),
            "trace must contain phase `{phase}`"
        );
    }
    // pipeline events are parented under the episode's spans
    assert!(text.contains("\"name\":\"score_batch\""));
    let _ = std::fs::remove_file(&path);
}

/// Floating-point field of one trace line; `None` if absent or written
/// as `null` (the tracer's spelling of a non-finite value).
fn f64_field(line: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let i = line.find(&pat)? + pat.len();
    let rest = &line[i..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].parse().ok()
}

#[test]
fn every_harl_round_reports_ppo_health() {
    // the learner's health rides the trace, one event per round, and being
    // an event it cannot move a search bit: the bit-identity test above
    // runs with it in place
    let path = trace_path("health");
    let _ = std::fs::remove_file(&path);
    let tracer = Tracer::to_file(&path).expect("open trace file");
    harl_run(Some(tracer), 48);
    let text = std::fs::read_to_string(&path).unwrap();
    let named = |name: &str| {
        let pat = format!("\"name\":\"{name}\"");
        text.lines().filter(move |l| l.contains(&pat))
    };
    let rounds = named("harl_round").count();
    assert!(rounds > 0);
    assert_eq!(named("ppo_health").count(), rounds, "one event per round");
    let mut updates = 0;
    for line in named("ppo_health") {
        assert_eq!(str_field(line, "t"), Some("event"));
        for key in [
            "clip_fraction",
            "approx_kl",
            "value_loss",
            "adv_mean",
            "adv_var",
            "entropy_head0",
            "entropy_head3",
        ] {
            let v = f64_field(line, key).unwrap_or_else(|| panic!("`{key}` in {line}"));
            assert!(v.is_finite(), "`{key}` = {v}");
        }
        let clip = f64_field(line, "clip_fraction").unwrap();
        assert!((0.0..=1.0).contains(&clip), "clip_fraction {clip}");
        assert!(f64_field(line, "value_loss").unwrap() >= 0.0);
        assert!(f64_field(line, "adv_var").unwrap() >= 0.0);
        let n = num_field(line, "updates").expect("updates");
        let samples = num_field(line, "samples").expect("samples");
        assert_eq!(n == 0, samples == 0);
        // the replay buffer behind those samples: it only fills in a run
        // this short, and a sample is at most the whole buffer old
        let buffered = num_field(line, "buffer_len").expect("buffer_len");
        assert!(buffered > 0 && buffered <= 4096, "buffer_len {buffered}");
        assert_eq!(num_field(line, "evicted"), Some(0));
        let age = f64_field(line, "sample_age_mean").expect("sample_age_mean");
        assert!(
            (0.0..buffered as f64).contains(&age),
            "sample_age_mean {age}"
        );
        // a three-action head's entropy lies in [0, ln 3] (0 when the mask
        // leaves one action)
        let h = f64_field(line, "entropy_head1").unwrap();
        assert!((0.0..=3f64.ln() + 1e-6).contains(&h), "entropy {h}");
        updates += n;
    }
    assert!(updates > 0, "the run must have trained");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn global_metrics_render_after_a_run() {
    harl_run(None, 16);
    let dump = harl_repro::obs::global().render();
    for needle in [
        "harl_scoring_candidates_total",
        "harl_gbt_retrains_total",
        "harl_measure_trials_total",
    ] {
        assert!(dump.contains(needle), "metrics dump must contain {needle}");
    }
}
