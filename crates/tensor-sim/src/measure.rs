//! The measurer: hardware-in-the-loop measurement with a simulated clock.
//!
//! The paper's "search time" metric is dominated by on-device measurements
//! (each schedule is built and run repeatedly for at least `r_min = 1 s`,
//! Table 5). The [`Measurer`] reproduces that accounting: every measurement
//! advances a *simulated* wall clock by the compile + run cost, applies
//! multiplicative noise to the analytical execution time, and counts
//! trials. Search algorithms compare against each other in simulated
//! seconds and trial counts, exactly the two x-axes used by the paper.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::sync::{Arc, Mutex};

use harl_tensor_ir::{Schedule, Sketch, Subgraph};

use crate::config::ConfigError;
use crate::hardware::Hardware;

/// Global count of measurement trials issued — the scarce resource every
/// tuner budgets against, so it belongs in every metrics dump.
fn trials_counter() -> &'static harl_obs::Counter {
    static CELL: std::sync::OnceLock<harl_obs::Counter> = std::sync::OnceLock::new();
    CELL.get_or_init(|| harl_obs::global().counter("harl_measure_trials_total"))
}

/// Configuration of the measurement process.
#[derive(Debug, Clone)]
pub struct MeasureConfig {
    /// Relative noise (std-dev of the multiplicative lognormal term).
    pub noise: f64,
    /// RNG seed for the noise stream.
    pub seed: u64,
}

impl Default for MeasureConfig {
    fn default() -> Self {
        MeasureConfig {
            noise: 0.02,
            seed: 0x4a11,
        }
    }
}

impl MeasureConfig {
    /// Checks every field against its constraint.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if !self.noise.is_finite() || self.noise < 0.0 {
            return Err(ConfigError::new(
                "measure.noise",
                format!("must be finite and >= 0, got {}", self.noise),
            ));
        }
        Ok(())
    }
}

/// One completed measurement.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// The measured schedule.
    pub schedule: Schedule,
    /// Measured (noisy) execution time, seconds.
    pub time: f64,
    /// Measured throughput, FLOP/s.
    pub flops_per_sec: f64,
}

/// One completed measurement, as seen by a [`RecordSink`].
///
/// Borrowed view to avoid cloning schedules on the measurement path when no
/// sink is attached.
#[derive(Debug)]
pub struct MeasureEvent<'a> {
    /// Name of the measured subgraph.
    pub workload: &'a str,
    /// [`Subgraph::similarity_key`] of the measured subgraph.
    pub similarity_key: u64,
    /// The measured schedule (its `sketch_id` identifies the sketch).
    pub schedule: &'a Schedule,
    /// Measured (noisy) execution time, seconds.
    pub time: f64,
    /// Measured throughput, FLOP/s.
    pub flops_per_sec: f64,
}

/// Receiver of completed measurements (e.g. a persistent record store).
///
/// Sinks observe measurements in deterministic input order; they must not
/// call back into the measurer.
pub trait RecordSink: Send + Sync {
    /// Called once per completed measurement.
    fn record(&self, ev: &MeasureEvent<'_>);
}

/// Snapshot of a measurer's mutable state (noise RNG, trial counter,
/// simulated clock) for checkpoint/resume.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MeasurerState {
    /// Raw xoshiro state of the noise RNG.
    pub rng: [u64; 4],
    /// Total measurements performed.
    pub trials: u64,
    /// Simulated seconds elapsed.
    pub sim_seconds: f64,
}

/// What the simulated search clock charges, in simulated seconds. A
/// measurement costs `max(r_min, t) + build_overhead` for an execution
/// time `t`; every other price reaches the clock through
/// [`Measurer::charge_search_time`]. HARL, Ansor and MCTS pay the same
/// round and evaluation prices because they read the same entries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClockPrices {
    /// Minimum seconds of repeated execution per measurement (`r_min`,
    /// Table 5).
    pub r_min: f64,
    /// Compile + RPC overhead per measurement.
    pub build_overhead: f64,
    /// Fixed overhead of one HARL, Ansor or MCTS round (cost-model
    /// retrain, bookkeeping).
    pub round_overhead: f64,
    /// One cost-model evaluation during a HARL episode, an Ansor
    /// evolution or an MCTS playout. Longer HARL episodes (larger λ,
    /// lower ρ) therefore cost proportionally more search time, which is
    /// what Tables 7–8 measure.
    pub eval_cost: f64,
    /// One step of a HARL episode (the actor-critic's share of it).
    pub ppo_step: f64,
    /// One training step of the Flextensor agent.
    pub flextensor_train_step: f64,
    /// Fixed overhead of one coordinate-descent restart.
    pub cd_round_overhead: f64,
    /// One coordinate-descent sweep, in a restart or a fine-tune phase.
    pub sweep_overhead: f64,
}

/// The prices of the simulated clock (see [`ClockPrices`]).
pub const PRICES: ClockPrices = ClockPrices {
    r_min: 1.0,
    build_overhead: 0.5,
    round_overhead: 2.0,
    eval_cost: 5e-4,
    ppo_step: 0.02,
    flextensor_train_step: 0.3,
    cd_round_overhead: 1.0,
    sweep_overhead: 0.5,
};

/// Measures schedules on a [`Hardware`] model while accounting simulated
/// search time. Thread-safe: batch measurement fans out across threads.
pub struct Measurer {
    hw: Hardware,
    cfg: MeasureConfig,
    state: Mutex<MeasureState>,
    sink: Mutex<Option<Arc<dyn RecordSink>>>,
}

struct MeasureState {
    rng: StdRng,
    trials: u64,
    sim_seconds: f64,
}

impl Measurer {
    /// Creates a measurer over a hardware model.
    ///
    /// # Panics
    /// If `cfg` fails [`MeasureConfig::validate`].
    pub fn new(hw: Hardware, cfg: MeasureConfig) -> Self {
        cfg.validate().unwrap_or_else(|e| panic!("{e}"));
        let seed = cfg.seed;
        Measurer {
            hw,
            cfg,
            state: Mutex::new(MeasureState {
                rng: StdRng::seed_from_u64(seed),
                trials: 0,
                sim_seconds: 0.0,
            }),
            sink: Mutex::new(None),
        }
    }

    /// Attaches a sink that observes every subsequent measurement.
    pub fn set_sink(&self, sink: Arc<dyn RecordSink>) {
        *self.sink.lock().expect("measurer sink mutex poisoned") = Some(sink);
    }

    /// Detaches the current sink, if any.
    pub fn clear_sink(&self) {
        *self.sink.lock().expect("measurer sink mutex poisoned") = None;
    }

    /// Snapshot of the mutable measurement state for checkpointing.
    pub fn state(&self) -> MeasurerState {
        let st = self.state.lock().expect("measurer mutex poisoned");
        MeasurerState {
            rng: st.rng.state(),
            trials: st.trials,
            sim_seconds: st.sim_seconds,
        }
    }

    /// Restores a [`Measurer::state`] snapshot: the noise stream, trial
    /// counter, and simulated clock continue exactly where the snapshot
    /// was taken.
    pub fn restore_state(&self, snapshot: &MeasurerState) {
        let mut st = self.state.lock().expect("measurer mutex poisoned");
        st.rng = StdRng::from_state(snapshot.rng);
        st.trials = snapshot.trials;
        st.sim_seconds = snapshot.sim_seconds;
    }

    /// The underlying hardware model.
    pub fn hardware(&self) -> &Hardware {
        &self.hw
    }

    /// Total measurements performed so far.
    pub fn trials(&self) -> u64 {
        self.state.lock().expect("measurer mutex poisoned").trials
    }

    /// Simulated seconds spent measuring so far.
    pub fn sim_seconds(&self) -> f64 {
        self.state
            .lock()
            .expect("measurer mutex poisoned")
            .sim_seconds
    }

    /// Charges non-measurement search time (e.g. RL training, evolution)
    /// to the simulated clock, priced from [`PRICES`].
    pub fn charge_search_time(&self, seconds: f64) {
        self.state
            .lock()
            .expect("measurer mutex poisoned")
            .sim_seconds += seconds;
    }

    /// Noise-free execution time (for evaluation/reporting only; search
    /// code must use [`Measurer::measure`]).
    pub fn true_time(&self, graph: &Subgraph, sketch: &Sketch, schedule: &Schedule) -> f64 {
        self.hw.execution_time(graph, sketch, schedule)
    }

    /// Measures one schedule: returns the noisy execution time and advances
    /// the simulated clock by the measurement cost.
    pub fn measure(&self, graph: &Subgraph, sketch: &Sketch, schedule: &Schedule) -> Measurement {
        let t = self.hw.execution_time(graph, sketch, schedule);
        let mut st = self.state.lock().expect("measurer mutex poisoned");
        let noisy = t * lognormal_factor(&mut st.rng, self.cfg.noise);
        st.trials += 1;
        // repeated execution until r_min seconds have elapsed, plus build
        st.sim_seconds += PRICES.r_min.max(t) + PRICES.build_overhead;
        drop(st);
        trials_counter().inc();
        let flops_per_sec = graph.flops() / noisy;
        self.notify_sink(graph, schedule, noisy, flops_per_sec);
        Measurement {
            schedule: schedule.clone(),
            time: noisy,
            flops_per_sec,
        }
    }

    /// Emits a completed measurement to the attached sink, if any.
    fn notify_sink(&self, graph: &Subgraph, schedule: &Schedule, time: f64, flops_per_sec: f64) {
        let sink = self.sink.lock().expect("measurer sink mutex poisoned");
        if let Some(sink) = sink.as_ref() {
            sink.record(&MeasureEvent {
                workload: &graph.name,
                similarity_key: graph.similarity_key(),
                schedule,
                time,
                flops_per_sec,
            });
        }
    }

    /// Measures a batch: noise and clock accounting in input order, exactly
    /// as that many [`measure`](Self::measure) calls would.
    pub fn measure_batch(
        &self,
        graph: &Subgraph,
        sketch: &Sketch,
        schedules: &[Schedule],
    ) -> Vec<Measurement> {
        let times = self.eval_batch(graph, sketch, schedules);
        let mut st = self.state.lock().expect("measurer mutex poisoned");
        let mut out = Vec::with_capacity(schedules.len());
        for (s, t) in schedules.iter().zip(times) {
            let noisy = t * lognormal_factor(&mut st.rng, self.cfg.noise);
            st.trials += 1;
            st.sim_seconds += PRICES.r_min.max(t) + PRICES.build_overhead;
            out.push(Measurement {
                schedule: s.clone(),
                time: noisy,
                flops_per_sec: graph.flops() / noisy,
            });
        }
        drop(st);
        trials_counter().add(out.len() as u64);
        for m in &out {
            self.notify_sink(graph, &m.schedule, m.time, m.flops_per_sec);
        }
        out
    }

    /// Noise-free batch evaluation without touching the clock (used by the
    /// search internals and tests): `true_time` of each schedule, in order.
    /// A plain map on the caller's thread — a round measures at most 64
    /// schedules at 0.7–1.9 µs each, less than a scoped spawn costs.
    pub fn eval_batch(
        &self,
        graph: &Subgraph,
        sketch: &Sketch,
        schedules: &[Schedule],
    ) -> Vec<f64> {
        schedules
            .iter()
            .map(|s| self.hw.execution_time(graph, sketch, s))
            .collect()
    }
}

/// Multiplicative lognormal noise factor with relative std-dev `sigma`.
fn lognormal_factor<R: Rng + ?Sized>(rng: &mut R, sigma: f64) -> f64 {
    if sigma <= 0.0 {
        return 1.0;
    }
    // Box-Muller
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen::<f64>();
    let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
    (sigma * z).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use harl_tensor_ir::{generate_sketches, workload, Target};

    fn setup() -> (Subgraph, Sketch, Vec<Schedule>) {
        let g = workload::gemm(512, 512, 512);
        let sk = generate_sketches(&g, Target::Cpu)[0].clone();
        let mut rng = StdRng::seed_from_u64(77);
        let scheds = (0..100)
            .map(|_| Schedule::random(&sk, Target::Cpu, &mut rng))
            .collect();
        (g, sk, scheds)
    }

    #[test]
    fn clock_advances_by_rmin_plus_overhead() {
        let (g, sk, scheds) = setup();
        let m = Measurer::new(Hardware::cpu(), MeasureConfig::default());
        m.measure(&g, &sk, &scheds[0]);
        assert_eq!(m.trials(), 1);
        // exec time ≪ 1 s, so cost = r_min + build_overhead = 1.5 s
        assert!((m.sim_seconds() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn batch_equals_sequential_accounting() {
        let (g, sk, scheds) = setup();
        let m = Measurer::new(Hardware::cpu(), MeasureConfig::default());
        let res = m.measure_batch(&g, &sk, &scheds);
        assert_eq!(res.len(), scheds.len());
        assert_eq!(m.trials(), scheds.len() as u64);
        assert!((m.sim_seconds() - 1.5 * scheds.len() as f64).abs() < 1e-6);
    }

    #[test]
    fn noise_is_bounded_and_centered() {
        let (g, sk, scheds) = setup();
        let m = Measurer::new(
            Hardware::cpu(),
            MeasureConfig {
                noise: 0.02,
                ..Default::default()
            },
        );
        let truth = m.true_time(&g, &sk, &scheds[0]);
        let samples: Vec<f64> = (0..500)
            .map(|_| m.measure(&g, &sk, &scheds[0]).time)
            .collect();
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        assert!(
            (mean / truth - 1.0).abs() < 0.01,
            "mean ratio {}",
            mean / truth
        );
        assert!(samples.iter().all(|&t| (t / truth - 1.0).abs() < 0.15));
    }

    #[test]
    fn zero_noise_is_exact() {
        let (g, sk, scheds) = setup();
        let m = Measurer::new(
            Hardware::cpu(),
            MeasureConfig {
                noise: 0.0,
                ..Default::default()
            },
        );
        let truth = m.true_time(&g, &sk, &scheds[3]);
        assert_eq!(m.measure(&g, &sk, &scheds[3]).time, truth);
    }

    #[test]
    fn batch_eval_is_true_time_per_schedule() {
        let (g, sk, scheds) = setup();
        let m = Measurer::new(Hardware::cpu(), MeasureConfig::default());
        let batch: Vec<u64> = m
            .eval_batch(&g, &sk, &scheds)
            .iter()
            .map(|t| t.to_bits())
            .collect();
        let each: Vec<u64> = scheds
            .iter()
            .map(|s| m.true_time(&g, &sk, s).to_bits())
            .collect();
        assert_eq!(batch, each);
        assert_eq!(m.trials(), 0, "evaluation leaves the clock alone");
    }

    #[test]
    fn validate_names_the_bad_field() {
        let base = MeasureConfig::default;
        assert!(base().validate().is_ok());
        #[rustfmt::skip]
        let bad = [
            ("measure.noise", MeasureConfig { noise: -0.1, ..base() }),
        ];
        for (field, cfg) in bad {
            assert_eq!(cfg.validate().unwrap_err().field, field);
        }
    }

    #[test]
    fn state_restore_replays_noise_stream() {
        let (g, sk, scheds) = setup();
        let m = Measurer::new(Hardware::cpu(), MeasureConfig::default());
        for s in &scheds[..10] {
            m.measure(&g, &sk, s);
        }
        let snap = m.state();
        let a: Vec<f64> = scheds[10..20]
            .iter()
            .map(|s| m.measure(&g, &sk, s).time)
            .collect();
        m.restore_state(&snap);
        assert_eq!(m.trials(), 10);
        let b: Vec<f64> = scheds[10..20]
            .iter()
            .map(|s| m.measure(&g, &sk, s).time)
            .collect();
        assert_eq!(a, b, "restored noise stream must be bit-identical");
        let text = serde_json::to_string(&snap).unwrap();
        let back: MeasurerState = serde_json::from_str(&text).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn sink_observes_measurements_in_order() {
        use std::sync::Mutex;

        struct Collect(Mutex<Vec<(u64, f64)>>);
        impl RecordSink for Collect {
            fn record(&self, ev: &MeasureEvent<'_>) {
                self.0.lock().unwrap().push((ev.similarity_key, ev.time));
            }
        }

        let (g, sk, scheds) = setup();
        let m = Measurer::new(Hardware::cpu(), MeasureConfig::default());
        let sink = Arc::new(Collect(Mutex::new(Vec::new())));
        m.set_sink(sink.clone());
        let r0 = m.measure(&g, &sk, &scheds[0]);
        let batch = m.measure_batch(&g, &sk, &scheds[1..4]);
        m.clear_sink();
        m.measure(&g, &sk, &scheds[4]);
        let seen = sink.0.lock().unwrap();
        assert_eq!(seen.len(), 4, "sink detached before the last measurement");
        assert_eq!(seen[0], (g.similarity_key(), r0.time));
        for (entry, m) in seen[1..].iter().zip(&batch) {
            assert_eq!(entry.1, m.time);
        }
    }

    #[test]
    fn flops_per_sec_consistent() {
        let (g, sk, scheds) = setup();
        let m = Measurer::new(
            Hardware::cpu(),
            MeasureConfig {
                noise: 0.0,
                ..Default::default()
            },
        );
        let r = m.measure(&g, &sk, &scheds[5]);
        assert!((r.flops_per_sec * r.time - g.flops()).abs() / g.flops() < 1e-9);
    }
}
