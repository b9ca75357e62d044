//! Quickstart: tune one GEMM operator with HARL on the simulated CPU and
//! print what the auto-scheduler found.
//!
//! ```text
//! cargo run --release --example quickstart [-- [--store DIR] [--target-ms MS]]
//! ```
//!
//! `--store DIR` persists measurement records and the session checkpoint
//! there: a second run against the same directory warm-starts from the
//! first run's measurements (or resumes, if the first run was
//! interrupted). `--target-ms MS` additionally reports how many trials it
//! took to reach that latency — what the CI warm-start smoke test reads.
//! `HARL_TRACE=1` writes a span trace of the whole run to `trace.jsonl`
//! (`HARL_TRACE_FILE` overrides the path); summarize it with `harl-trace
//! trace.jsonl`. Tracing never changes the search.

use std::sync::Arc;

use harl_repro::cli;
use harl_repro::prelude::*;

fn main() {
    let args = cli::QUICKSTART.args();

    // 1. Pick a workload: the paper's flagship 1024x1024x1024 GEMM.
    let gemm = harl_repro::ir::workload::gemm(1024, 1024, 1024);
    println!("workload: {} ({:.2} GFLOPs)", gemm.name, gemm.flops() / 1e9);

    // 2. A measurer wraps the hardware model (here: the Xeon-6226R-like
    //    CPU) and accounts simulated search time like a real testbed.
    let measurer = Measurer::new(Hardware::cpu(), MeasureConfig::default());

    // 3. Show the sketches the Table-2 rules generate.
    let sketches = generate_sketches(&gemm, Target::Cpu);
    println!("sketches generated ({}):", sketches.len());
    for s in &sketches {
        println!("  #{}: {}", s.id, s.desc);
    }

    // 4. Tune through a session. `HarlConfig::paper()` is the full Table-5
    //    setup; `fast()` scales the track counts down so this example
    //    finishes in seconds. With a store attached, every measurement is
    //    persisted and the tuner warm-starts from prior runs.
    let store =
        (args.store).map(|dir| Arc::new(RecordStore::open(&dir).expect("open record store")));
    let tracer = harl_repro::obs::Tracer::from_env();
    let quickstart_span = tracer.span("quickstart");
    let mut tuner = HarlOperatorTuner::new(gemm.clone(), &measurer, HarlConfig::fast());
    tuner.set_tracer(tracer.clone());
    let mut session = TuningSession::builder()
        .job_key(format!("quickstart/{}", gemm.name))
        .launch(Box::new(&mut tuner), &measurer, store.clone())
        .expect("launch tuning session");
    if session.resumed() {
        println!(
            "session: resumed from checkpoint ({} trials already spent)",
            session.trials_used()
        );
    } else if let Some(store) = &store {
        println!(
            "session: warm_records={} (store had {} records)",
            session.warm_records(),
            store.len()
        );
    }
    session.run(160).expect("tuning session");
    session.finish().expect("finish session");
    drop(quickstart_span);
    if tracer.is_enabled() {
        println!("trace: written (summarize with `harl-trace`)");
    }

    // 5. Report.
    let best = tuner
        .best_schedule
        .as_ref()
        .expect("tuning found a schedule");
    let gflops = gemm.flops() / tuner.best_time / 1e9;
    println!("\nafter {} measurement trials:", tuner.trials_used);
    println!("  best execution time: {:.3} ms", tuner.best_time * 1e3);
    println!("  throughput:          {:.1} GFLOP/s", gflops);
    println!("  simulated search:    {:.0} s", measurer.sim_seconds());

    // machine-readable line for scripts (see ci/check.sh)
    let trials_to_best = tuner
        .trace
        .first_reaching(tuner.best_time)
        .map(|(t, _)| t as i64)
        .unwrap_or(-1);
    print!(
        "metrics: best_ms={:.9} trials={} trials_to_best={}",
        tuner.best_time * 1e3,
        tuner.trials_used,
        trials_to_best
    );
    if let Some(target) = args.target_ms {
        // tiny relative tolerance absorbs the decimal truncation of best_ms
        let to_target = tuner
            .trace
            .first_reaching(target * (1.0 + 1e-7) / 1e3)
            .map(|(t, _)| t as i64)
            .unwrap_or(-1);
        print!(" trials_to_target={to_target}");
    }
    println!();

    println!("\nbest schedule (sketch #{}):", best.sketch_id);
    for (k, tiles) in best.tiles.iter().enumerate() {
        let it = &sketches[best.sketch_id].tiled_iters[k];
        println!(
            "  iter {} ({:?}, extent {}): tile factors {:?}",
            k, it.kind, it.extent, tiles
        );
    }
    println!("  parallel outer loops: {}", best.parallel_fuse);
    println!("  auto-unroll depth:    {}", best.unroll_depth(Target::Cpu));

    // 6. The scheduled loop nest as a code generator would emit it.
    println!("\nscheduled loop nest:");
    print!(
        "{}",
        harl_repro::ir::render_program(&gemm, &sketches[best.sketch_id], Target::Cpu, best)
    );
}
