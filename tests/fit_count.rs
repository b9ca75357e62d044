//! How often a search fits its cost model, counted as `gbt_retrain` spans
//! on a private tracer. The model is fitted when a round is about to read
//! it, so no search pays for a fit after its last measurement: k cold
//! rounds fit k − 1 times (the first reads the empty model), a
//! warm-started search fits before each of its k rounds, and a resumed
//! one refits the restored rows at its first round.

use std::io::Write;
use std::sync::{Arc, Mutex};

use harl_repro::ansor::{AnsorTuner, EvoConfig};
use harl_repro::harl::HarlOperatorTuner;
use harl_repro::mcts::MctsTuner;
use harl_repro::obs::Tracer;
use harl_repro::prelude::*;

/// A trace sink the test reads back.
#[derive(Clone, Default)]
struct Sink(Arc<Mutex<Vec<u8>>>);

impl Write for Sink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// A tracer on `tuner`, and a counter of the fits it has seen so far.
fn count_fits(tuner: &mut dyn Tuner) -> impl Fn() -> usize {
    let sink = Sink::default();
    let tracer = Tracer::to_writer(Box::new(sink.clone()));
    tuner.set_tracer(tracer.clone());
    move || {
        tracer.flush();
        let text = String::from_utf8(sink.0.lock().unwrap().clone()).unwrap();
        (text.lines())
            .filter(|l| l.contains(r#""t":"span_start""#) && l.contains(r#""name":"gbt_retrain""#))
            .count()
    }
}

const SEARCHERS: [&str; 3] = ["harl", "ansor", "mcts"];

fn tuner<'m>(searcher: &str, m: &'m Measurer) -> Box<dyn Tuner + 'm> {
    let g = harl_repro::ir::workload::gemm(256, 256, 256);
    match searcher {
        "harl" => Box::new(HarlOperatorTuner::new(g, m, HarlConfig::tiny())),
        "ansor" => {
            let cfg = AnsorConfig {
                measure_per_round: 8,
                evo: EvoConfig {
                    population: 64,
                    generations: 2,
                },
                ..Default::default()
            };
            Box::new(AnsorTuner::new(g, m, cfg))
        }
        "mcts" => Box::new(MctsTuner::new(g, m, MctsConfig::default())),
        other => panic!("unknown searcher {other}"),
    }
}

/// Runs `k` rounds of 8 trials, each of which must measure something.
fn rounds(t: &mut dyn Tuner, k: usize) {
    for i in 0..k {
        assert!(t.round(8) > 0, "{}: round {i} measured nothing", t.name());
    }
}

const K: usize = 4;

#[test]
fn cold_rounds_fit_before_every_round_but_the_first() {
    for searcher in SEARCHERS {
        let m = Measurer::new(Hardware::cpu(), MeasureConfig::default());
        let mut t = tuner(searcher, &m);
        let fits = count_fits(&mut *t);
        t.round(8);
        assert_eq!(
            fits(),
            0,
            "{searcher}: the first round reads the empty model"
        );
        rounds(&mut *t, K - 1);
        assert_eq!(fits(), K - 1, "{searcher}: {K} cold rounds");
        let _ = t.checkpoint();
        assert_eq!(fits(), K - 1, "{searcher}: a checkpoint never fits");
    }
}

#[test]
fn a_warm_started_search_fits_before_each_round() {
    for searcher in SEARCHERS {
        let m = Measurer::new(Hardware::cpu(), MeasureConfig::default());
        let mut cold = tuner(searcher, &m);
        rounds(&mut *cold, K);
        let core = cold.core();
        let records: Vec<MeasureRecord> = (core.best_elites().into_iter())
            .map(|(time, s)| MeasureRecord {
                workload: core.graph.name.clone(),
                similarity_key: core.graph.similarity_key(),
                sketch_id: s.sketch_id,
                schedule: s.clone(),
                time: *time,
                flops_per_sec: core.graph.flops() / *time,
            })
            .collect();

        let m = Measurer::new(Hardware::cpu(), MeasureConfig::default());
        let mut warm = tuner(searcher, &m);
        let fits = count_fits(&mut *warm);
        assert!(warm.warm_start(&records) > 0);
        assert_eq!(fits(), 0, "{searcher}: the warm start only adds rows");
        rounds(&mut *warm, K);
        assert_eq!(fits(), K, "{searcher}: {K} warm rounds");
    }
}

#[test]
fn a_resumed_search_refits_at_its_first_round() {
    for searcher in SEARCHERS {
        let m = Measurer::new(Hardware::cpu(), MeasureConfig::default());
        let mut t = tuner(searcher, &m);
        rounds(&mut *t, 2);
        let (state, measurer) = (t.checkpoint(), m.state());

        let m = Measurer::new(Hardware::cpu(), MeasureConfig::default());
        m.restore_state(&measurer);
        let mut resumed = tuner(searcher, &m);
        let fits = count_fits(&mut *resumed);
        resumed.restore(state);
        assert_eq!(fits(), 0, "{searcher}: restoring only sets the rows");
        rounds(&mut *resumed, 1);
        assert_eq!(fits(), 1, "{searcher}: the first round after restore");
        rounds(&mut *resumed, K - 1);
        assert_eq!(fits(), K, "{searcher}: {K} resumed rounds");
    }
}
