//! Golden search results of all five searchers, recorded before the
//! shared search core was extracted: a cold run, then a warm-started and
//! fine-tuned run from the cold run's store. Below them, the network
//! allocation loop (HARL with and without the subgraph bandit, Ansor),
//! recorded before the two network tuners were folded into one. Any
//! refactor of the searchers must leave every number here — and with the
//! state digests, every bit of checkpointed search state — where it was.

use std::sync::Arc;

use harl_repro::gbt::CostModel;
use harl_repro::prelude::*;

mod common;

/// What one searcher's two legs must reproduce.
#[derive(Debug, PartialEq, Eq)]
struct Golden {
    /// FNV-1a of the tuner state after the cold `run(48)`, as the
    /// version-3 JSON layout spelled it (see [`v3_text`]).
    cold_state: u64,
    /// Same after the warm-started `run(32)` + `then_finetune`.
    warm_state: u64,
    /// FNV-1a of the tuner-state JSON after the cold leg, as written now
    /// (checkpoint version 7).
    cold_text: u64,
    /// Same after the warm leg.
    warm_text: u64,
    warm_records: usize,
    finetune_trials: u64,
    cold_best_bits: u64,
    warm_best_bits: u64,
    cold_sim_bits: u64,
    warm_sim_bits: u64,
}

fn fnv(text: &str) -> u64 {
    text.bytes().fold(0xcbf29ce484222325u64, |h, b| {
        (h ^ b as u64).wrapping_mul(0x100000001b3)
    })
}

/// `{"key":<json>,…}` of the named values, in the order given.
macro_rules! object {
    ($($key:ident: $value:expr),* $(,)?) => {{
        let fields: Vec<String> = vec![$(
            format!("\"{}\":{}", stringify!($key), serde_json::to_string(&$value).unwrap())
        ),*];
        format!("{{{}}}", fields.join(","))
    }};
}

/// Ansor's one elite pool as version 3 wrote it: the 32 best entries
/// across the per-sketch pools, ties ordered by sketch, then position.
fn merged_elites(pools: &[Vec<(f64, Schedule)>]) -> Vec<&(f64, Schedule)> {
    let mut all: Vec<&(f64, Schedule)> = pools.iter().flatten().collect();
    all.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
    all.truncate(32);
    all
}

/// `body` (an object) with `model` as its first key, spelled as version 3
/// spelled it: its booster refitted (see [`common::v5_cost_model_text`]),
/// or `null`.
fn with_model(model: &Option<CostModel>, body: String) -> String {
    let model = model
        .as_ref()
        .map_or("null".to_string(), common::v5_cost_model_text);
    format!("{{\"cost_model\":{model},{}", &body[1..])
}

/// The tuner state in the version-3 layout the `*_state` digests were
/// recorded on: one flat object per searcher, its keys in their old order
/// and the shared ones among them, rebuilt from the typed fields (the
/// elite pools, which HARL and Ansor kept in version 3, from the shared
/// ones; the cost model's booster by refitting its data).
fn v3_text(state: &TunerState) -> String {
    let (variant, body) = match state {
        TunerState::Harl(s) => {
            let p = &s.proposer;
            let body = object! {
                agent: common::V6Agent(&p.agent), sketch_bandit: p.sketch_bandit,
                seen: s.seen, elites: s.elites, pending_seeds: s.pending_seeds,
                best_time: s.best_time, best_schedule: s.best_schedule,
                trials_used: s.trials_used, trace: s.trace, critical_steps: p.critical_steps,
                rounds: p.rounds, lint_stats: s.lint_stats, rng: p.rng,
            };
            ("Harl", with_model(&s.cost_model, body))
        }
        TunerState::Ansor(s) => {
            let p = &s.proposer;
            let body = object! {
                seen: s.seen, elites: merged_elites(&s.elites),
                best_time: s.best_time, best_schedule: s.best_schedule,
                trials_used: s.trials_used, trace: s.trace, lint_stats: s.lint_stats,
                rng: p.rng,
            };
            ("Ansor", with_model(&s.cost_model, body))
        }
        TunerState::Flextensor(s) => {
            let p = &s.proposer;
            let body = object! {
                agent: common::V6Agent(&p.agent), best_time: s.best_time, best_schedule: s.best_schedule,
                critical_steps: p.critical_steps, trials_used: s.trials_used,
                trace: s.trace, lint_stats: s.lint_stats, rng: p.rng,
            };
            ("Flextensor", body)
        }
        TunerState::Mcts(s) => {
            let p = &s.proposer;
            let body = object! {
                nodes: p.nodes, roots: p.roots, seen: s.seen,
                pending_seeds: s.pending_seeds, warm_seeds: p.warm_seeds,
                reward_scale: p.reward_scale, best_time: s.best_time,
                best_schedule: s.best_schedule, trials_used: s.trials_used,
                trace: s.trace, lint_stats: s.lint_stats, rng: p.rng,
            };
            ("Mcts", with_model(&s.cost_model, body))
        }
        TunerState::Cd(s) => {
            let p = &s.proposer;
            let body = object! {
                seen: s.seen, pending_seeds: s.pending_seeds, restarts: p.restarts,
                best_time: s.best_time, best_schedule: s.best_schedule,
                trials_used: s.trials_used, trace: s.trace, lint_stats: s.lint_stats,
                rng: p.rng,
            };
            ("Cd", body)
        }
    };
    format!("{{\"{variant}\":{body}}}")
}

/// The digests of the session's tuner state: version-3 layout, then the
/// text written now.
fn state_digests(session: &TuningSession<'_>) -> (u64, u64) {
    let state = session.tuner_state();
    (
        fnv(&v3_text(&state)),
        fnv(&serde_json::to_string(&state).unwrap()),
    )
}

fn tuner<'m>(searcher: &str, m: &'m Measurer) -> Box<dyn Tuner + 'm> {
    let g = harl_repro::ir::workload::gemm(256, 256, 256);
    match searcher {
        "harl" => Box::new(HarlOperatorTuner::new(g, m, HarlConfig::tiny())),
        "ansor" => Box::new(AnsorTuner::new(g, m, AnsorConfig::default())),
        "flextensor" => Box::new(FlextensorTuner::new(g, m, Default::default())),
        "mcts" => Box::new(MctsTuner::new(g, m, MctsConfig::default())),
        "cd" => Box::new(CdTuner::new(g, m, CdConfig::default())),
        other => panic!("unknown searcher {other}"),
    }
}

fn run_both_legs(searcher: &str) -> Golden {
    let dir = std::env::temp_dir().join(format!(
        "harl-search-golden-{searcher}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);

    let m_cold = Measurer::new(Hardware::cpu(), MeasureConfig::default());
    let store = Arc::new(RecordStore::open(&dir).unwrap());
    let mut cold = TuningSession::builder()
        .launch(tuner(searcher, &m_cold), &m_cold, Some(store.clone()))
        .unwrap();
    cold.run(48).unwrap();
    let (cold_state, cold_text) = state_digests(&cold);
    let cold_best_bits = cold.best_latency().to_bits();
    cold.finish().unwrap();
    drop(store);

    let m_warm = Measurer::new(Hardware::cpu(), MeasureConfig::default());
    let store = Arc::new(RecordStore::open(&dir).unwrap());
    let mut warm = TuningSession::builder()
        .launch(tuner(searcher, &m_warm), &m_warm, Some(store))
        .unwrap();
    assert!(
        !warm.resumed(),
        "{searcher}: finish() clears the checkpoint"
    );
    let warm_records = warm.warm_records();
    warm.run(32).unwrap();
    let cfg = FinetuneConfig {
        max_trials: 24,
        ..Default::default()
    };
    let finetune_trials = warm.then_finetune(&cfg).unwrap().trials;
    let (warm_state, warm_text) = state_digests(&warm);
    let golden = Golden {
        cold_state,
        warm_state,
        cold_text,
        warm_text,
        warm_records,
        finetune_trials,
        cold_best_bits,
        warm_best_bits: warm.best_latency().to_bits(),
        cold_sim_bits: m_cold.sim_seconds().to_bits(),
        warm_sim_bits: m_warm.sim_seconds().to_bits(),
    };
    warm.finish().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    golden
}

fn check(searcher: &str, golden: Golden) {
    assert_eq!(
        run_both_legs(searcher),
        golden,
        "{searcher}: search results moved"
    );
}

#[test]
fn harl_matches_golden() {
    check(
        "harl",
        Golden {
            cold_state: 8434000507875368112,
            warm_state: 16603217682067428606,
            cold_text: 3396844436755016635,
            warm_text: 268167989239690723,
            warm_records: 48,
            finetune_trials: 20,
            cold_best_bits: 4540693562351473055,
            warm_best_bits: 4540618366911181751,
            cold_sim_bits: 4635678945442204221,
            warm_sim_bits: 4635867533676600361,
        },
    );
}

#[test]
fn ansor_matches_golden() {
    check(
        "ansor",
        Golden {
            cold_state: 17880452616377686579,
            warm_state: 2025425158932293958,
            cold_text: 2502101777391606236,
            warm_text: 10400256366847248222,
            warm_records: 48,
            finetune_trials: 24,
            cold_best_bits: 4540857462222645498,
            warm_best_bits: 4540167960060360661,
            cold_sim_bits: 4634943732803035988,
            warm_sim_bits: 4635893710849434452,
        },
    );
}

#[test]
fn flextensor_matches_golden() {
    check(
        "flextensor",
        Golden {
            cold_state: 14547903695931650898,
            warm_state: 16034392393894875052,
            cold_text: 2221919573402176789,
            warm_text: 841743074943701923,
            warm_records: 0,
            finetune_trials: 24,
            cold_best_bits: 4541015405465065526,
            warm_best_bits: 4540635938698118770,
            cold_sim_bits: 4634809187764168294,
            warm_sim_bits: 4635738055187313459,
        },
    );
}

#[test]
fn mcts_matches_golden() {
    check(
        "mcts",
        Golden {
            cold_state: 3562768788446349660,
            warm_state: 9301488877736406821,
            cold_text: 2886022808628841019,
            warm_text: 5689291960303711719,
            warm_records: 48,
            finetune_trials: 24,
            cold_best_bits: 4541409417537743652,
            warm_best_bits: 4541249687401405388,
            cold_sim_bits: 4634925718404526506,
            warm_sim_bits: 4635840512078836138,
        },
    );
}

#[test]
fn cd_matches_golden() {
    check(
        "cd",
        Golden {
            cold_state: 11721463622838020424,
            warm_state: 2660100204879998583,
            cold_text: 11867620242431386006,
            warm_text: 14533023461088343404,
            warm_records: 48,
            finetune_trials: 16,
            cold_best_bits: 4544223540062720621,
            warm_best_bits: 4543928199512927675,
            cold_sim_bits: 4635224363354816512,
            warm_sim_bits: 4635083625866461184,
        },
    );
}

/// What one network-tuning run must reproduce: the allocation loop above
/// the per-subgraph tuners, pinned bit by bit.
#[derive(Debug, PartialEq, Eq)]
struct NetGolden {
    /// Allocation decisions made.
    rounds: usize,
    /// FNV-1a over every `NetRound` (`task`, `trials_after`, `latency`
    /// bits), then every trace point (`trials`, `sim_seconds` bits,
    /// `best_time` bits).
    digest: u64,
    latency_bits: u64,
    sim_bits: u64,
}

fn fnv_words(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(0xcbf29ce484222325u64, |h, w| {
        w.to_le_bytes()
            .iter()
            .fold(h, |h, &b| (h ^ b as u64).wrapping_mul(0x100000001b3))
    })
}

fn net_graphs() -> Vec<Subgraph> {
    use harl_repro::ir::workload;
    vec![
        workload::gemm(128, 128, 128),
        workload::gemm(256, 256, 256),
        workload::softmax(512, 128),
    ]
}

/// Tunes `$nt` for 144 trials on `$m` and digests what the loop did. A
/// macro because the two network tuners need not be one type.
macro_rules! net_golden {
    ($nt:expr, $m:expr) => {{
        let mut nt = $nt;
        nt.tune(144);
        let rounds = nt
            .rounds
            .iter()
            .flat_map(|r| [r.task as u64, r.trials_after, r.latency.to_bits()]);
        let trace = nt
            .trace
            .points
            .iter()
            .flat_map(|p| [p.trials, p.sim_seconds.to_bits(), p.best_time.to_bits()]);
        NetGolden {
            rounds: nt.rounds.len(),
            digest: fnv_words(rounds.chain(trace)),
            latency_bits: nt.network_latency().to_bits(),
            sim_bits: $m.sim_seconds().to_bits(),
        }
    }};
}

fn harl_network(subgraph_mab: bool) -> NetGolden {
    let m = Measurer::new(Hardware::cpu(), MeasureConfig::default());
    let cfg = HarlConfig {
        subgraph_mab,
        ..HarlConfig::tiny()
    };
    net_golden!(HarlNetworkTuner::new(net_graphs(), &m, cfg), m)
}

#[test]
fn harl_network_with_subgraph_mab_matches_golden() {
    assert_eq!(
        harl_network(true),
        NetGolden {
            rounds: 18,
            digest: 1329298395977755521,
            latency_bits: 4543512974373931242,
            sim_bits: 4643171809322241883,
        }
    );
}

#[test]
fn harl_network_without_subgraph_mab_matches_golden() {
    assert_eq!(
        harl_network(false),
        NetGolden {
            rounds: 18,
            digest: 525807408547616717,
            latency_bits: 4543479239036064672,
            sim_bits: 4643171809322241883,
        }
    );
}

#[test]
fn ansor_network_matches_golden() {
    let m = Measurer::new(Hardware::cpu(), MeasureConfig::default());
    let cfg = AnsorConfig {
        measure_per_round: 16,
        evo: harl_repro::ansor::EvoConfig {
            population: 64,
            generations: 2,
        },
        ..Default::default()
    };
    assert_eq!(
        net_golden!(AnsorNetworkTuner::new(net_graphs(), &m, cfg), m),
        NetGolden {
            rounds: 9,
            digest: 1435409793717632684,
            latency_bits: 4543300690401644847,
            sim_bits: 4642457425831350238,
        }
    );
}
