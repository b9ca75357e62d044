//! In-process search legs: one tuner on one task (or the BERT subgraph
//! table) driven round by round from fresh state, no record store.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use harl_repro::gbt::{GbtParams, ScoreStats};
use harl_repro::harl::TunerState;
use harl_repro::obs::Tracer;
use harl_repro::prelude::*;
use harl_repro::serve::WorkloadSpec;

use crate::calib::Calibrator;
use harl_repro::sim::{MeasureEvent, RecordSink};

/// Width of every tuner's and job's thread pools, on every commit.
pub const THREADS: usize = 2;

/// The searcher a leg runs. Configurations are the program's own presets
/// with their committed seeds: the search is a chaotic function of its
/// seed (at these budgets the best latency moves by ±20 % between seeds),
/// so re-seeding it per run would drown every bound in search variance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Searcher {
    /// `HarlConfig::fast()`: 64 tracks, λ = 8, 16 measurements a round.
    HarlFast,
    /// `HarlConfig::paper()`: 128 tracks, λ = 20, 64 measurements a round.
    HarlPaper,
    /// `HarlNetworkTuner` with the `examples/tune_bert.rs` configuration.
    HarlNet,
    Ansor,
    Mcts,
}

/// The task a leg tunes.
#[derive(Debug, Clone, PartialEq)]
pub enum Task {
    /// The paper's flagship GEMM, 1024³.
    Gemm1024,
    /// First convolution of the Table 6 C2D class, batch 1.
    C2d0,
    /// The ten distinct BERT subgraphs, batch 1.
    Bert,
    /// An operator named the way the daemon's wire protocol names it.
    Spec(WorkloadSpec),
}

impl Task {
    pub fn graphs(&self) -> Vec<Subgraph> {
        match self {
            Task::Gemm1024 => vec![harl_repro::ir::workload::gemm(1024, 1024, 1024)],
            Task::C2d0 => vec![operator_suite(OperatorClass::C2d, 1).swap_remove(0)],
            Task::Bert => Network::Bert.subgraphs(1),
            Task::Spec(spec) => vec![spec.build()],
        }
    }
}

/// One leg of a search workload; `trials` and `target_ms` come from
/// `workloads.json`.
#[derive(Debug, Clone)]
pub struct Leg {
    pub name: String,
    pub searcher: Searcher,
    pub task: Task,
    pub trials: u64,
    pub target_ms: f64,
}

impl Leg {
    fn harl_config(&self) -> HarlConfig {
        match self.searcher {
            Searcher::HarlPaper => HarlConfig::paper(),
            Searcher::HarlNet => HarlConfig {
                measure_per_round: 16,
                ..HarlConfig::fast()
            },
            _ => HarlConfig::fast(),
        }
    }

    /// Measurements one round of this leg's searcher takes.
    pub fn round_size(&self) -> u64 {
        match self.searcher {
            Searcher::HarlFast | Searcher::HarlNet => 16,
            Searcher::HarlPaper | Searcher::Ansor | Searcher::Mcts => 64,
        }
    }

    /// Trials of a one-round-per-task run (set-up warm-up and `--smoke`).
    pub fn warmup_trials(&self) -> u64 {
        self.round_size() * self.task.graphs().len() as u64
    }

    /// Cost-model parameters of the leg's searcher, for the replay.
    pub fn gbt_params(&self) -> GbtParams {
        match self.searcher {
            Searcher::Ansor => AnsorConfig::default().gbt,
            Searcher::Mcts => MctsConfig::default().gbt,
            _ => self.harl_config().gbt,
        }
    }
}

/// What the benchmark attaches to a leg from outside the program.
#[derive(Default)]
pub struct Probe<'c> {
    /// Span tracer handed to the tuner through its public `set_tracer`.
    pub tracer: Tracer,
    /// Keep every measured schedule for the unit-cost replay.
    pub capture: bool,
    /// Sample the calibration kernel before the leg and after every round,
    /// off the clock (timed runs).
    pub calibrator: Option<&'c mut Calibrator>,
}

impl Probe<'_> {
    fn calibrate(&mut self, burst: bool) {
        match &mut self.calibrator {
            Some(cal) if burst => cal.burst(),
            Some(cal) => cal.sample(),
            None => {}
        }
    }
}

/// A measured schedule, by index into the leg's graphs.
pub type Captured = (usize, Schedule);

struct CaptureSink {
    names: Vec<String>,
    seen: Mutex<Vec<Captured>>,
}

impl RecordSink for CaptureSink {
    fn record(&self, ev: &MeasureEvent<'_>) {
        let graph = self.names.iter().position(|n| n == ev.workload);
        if let Some(graph) = graph {
            let mut seen = self.seen.lock().expect("capture sink poisoned");
            seen.push((graph, ev.schedule.clone()));
        }
    }
}

/// Everything one leg produced.
pub struct LegResult {
    pub trials: u64,
    /// Tuner construction (sketch generation included) plus all rounds.
    pub wall_s: f64,
    /// Best simulated latency, seconds (`Σ wₙ·gₙ` for the network leg).
    pub best_s: f64,
    pub sim_s: f64,
    pub trace: TuneTrace,
    pub round_ms: Vec<f64>,
    pub score: ScoreStats,
    pub lint: LintStats,
    /// Best schedule per graph, by index into `graphs`.
    pub bests: Vec<(usize, Schedule)>,
    pub graphs: Vec<Subgraph>,
    pub captured: Vec<Captured>,
}

impl LegResult {
    /// First trial at which the leg's target was reached; never reached
    /// counts as one past the budget.
    pub fn trials_to_target(&self, leg: &Leg) -> u64 {
        // the tolerance absorbs the decimal form of the committed target
        self.trace
            .first_reaching(leg.target_ms * (1.0 + 1e-7) / 1e3)
            .map_or(leg.trials + 1, |(t, _)| t)
    }

    /// Best-latency bits, trials used and an FNV-1a hash of the whole
    /// best-so-far curve: equal digests mean the same search happened.
    pub fn digest(&self) -> String {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |x: u64| {
            for b in x.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for p in &self.trace.points {
            eat(p.trials);
            eat(p.sim_seconds.to_bits());
            eat(p.best_time.to_bits());
        }
        format!("{:016x}:{}:{h:016x}", self.best_s.to_bits(), self.trials)
    }

    /// True when every best schedule passes the analyzer and the shape
    /// validation, and one exists for every graph.
    pub fn bests_are_legal(&self) -> bool {
        let analyzer = Analyzer::for_hardware(&Hardware::cpu());
        self.bests.len() == self.graphs.len()
            && self.bests.iter().all(|(g, s)| {
                let graph = &self.graphs[*g];
                let sketches = generate_sketches(graph, Target::Cpu);
                sketches.get(s.sketch_id).is_some_and(|sk| {
                    s.validate(sk, Target::Cpu).is_ok()
                        && analyzer.is_legal(graph, sk, Target::Cpu, s)
                })
            })
    }
}

fn state_summary(state: TunerState) -> (Option<Schedule>, LintStats) {
    match state {
        TunerState::Harl(s) => (s.best_schedule, s.lint_stats),
        TunerState::Ansor(s) => (s.best_schedule, s.lint_stats),
        TunerState::Mcts(s) => (s.best_schedule, s.lint_stats),
        TunerState::Flextensor(_) | TunerState::Cd(_) => (None, LintStats::new()),
    }
}

/// Calls `round(trials left)` until `trials` are used or a round uses none;
/// returns each round's milliseconds. The calibration kernel is sampled
/// after every round, outside the round's timer.
fn timed_rounds(trials: u64, probe: &mut Probe, mut round: impl FnMut(u64) -> u64) -> Vec<f64> {
    let mut round_ms = Vec::new();
    let mut used = 0;
    while used < trials {
        let t = Instant::now();
        let n = round(trials - used);
        if n == 0 {
            break;
        }
        round_ms.push(t.elapsed().as_secs_f64() * 1e3);
        used += n;
        probe.calibrate(false);
    }
    round_ms
}

/// Runs `leg` for `trials` measurements from fresh state.
pub fn run_leg(leg: &Leg, trials: u64, probe: &mut Probe) -> LegResult {
    let graphs = leg.task.graphs();
    let measurer = Measurer::new(Hardware::cpu(), MeasureConfig::default());
    let sink = probe.capture.then(|| {
        Arc::new(CaptureSink {
            names: graphs.iter().map(|g| g.name.clone()).collect(),
            seen: Mutex::new(Vec::new()),
        })
    });
    if let Some(sink) = &sink {
        measurer.set_sink(sink.clone());
    }
    let par = ParallelismOpts::uniform(THREADS);
    probe.calibrate(true);
    let t0 = Instant::now();
    let mut out = if leg.searcher == Searcher::HarlNet {
        let mut tuner = HarlNetworkTuner::new(graphs.clone(), &measurer, leg.harl_config());
        for t in &mut tuner.tuners {
            t.set_parallelism(par);
        }
        tuner.set_tracer(probe.tracer.clone());
        let built_s = t0.elapsed().as_secs_f64();
        let round_ms = timed_rounds(trials, probe, |left| tuner.round(left));
        let mut score = ScoreStats::default();
        let mut lint = LintStats::new();
        let mut bests = Vec::new();
        for (i, t) in tuner.tuners.iter().enumerate() {
            score.merge(t.score_stats());
            lint.merge(&t.lint_stats);
            bests.extend(t.best_schedule.clone().map(|s| (i, s)));
        }
        LegResult {
            trials: tuner.trials_used(),
            wall_s: built_s + round_ms.iter().sum::<f64>() / 1e3,
            best_s: tuner.network_latency(),
            sim_s: measurer.sim_seconds(),
            trace: tuner.trace.clone(),
            round_ms,
            score,
            lint,
            bests,
            graphs,
            captured: Vec::new(),
        }
    } else {
        let graph = graphs[0].clone();
        let mut tuner: Box<dyn Tuner + '_> = match leg.searcher {
            Searcher::Ansor => Box::new(AnsorTuner::new(graph, &measurer, AnsorConfig::default())),
            Searcher::Mcts => Box::new(MctsTuner::new(graph, &measurer, MctsConfig::default())),
            _ => Box::new(HarlOperatorTuner::new(graph, &measurer, leg.harl_config())),
        };
        tuner.set_tracer(probe.tracer.clone());
        let mut session = TuningSession::builder()
            .parallelism(par)
            .launch(tuner, &measurer, None)
            .expect("a session without a store cannot fail to launch");
        let built_s = t0.elapsed().as_secs_f64();
        let round_ms = timed_rounds(trials, probe, |left| {
            let used = session.round(left as usize);
            used.expect("no store, no store error") as u64
        });
        let (best, lint) = state_summary(session.tuner_state());
        LegResult {
            trials: session.trials_used(),
            wall_s: built_s + round_ms.iter().sum::<f64>() / 1e3,
            best_s: session.best_latency(),
            sim_s: measurer.sim_seconds(),
            trace: session.trace().cloned().unwrap_or_default(),
            round_ms,
            score: session.score_stats().copied().unwrap_or_default(),
            lint,
            bests: best.map(|s| (0, s)).into_iter().collect(),
            graphs,
            captured: Vec::new(),
        }
    };
    measurer.clear_sink();
    if let Some(sink) = sink {
        out.captured = std::mem::take(&mut *sink.seen.lock().expect("capture sink poisoned"));
    }
    out
}
