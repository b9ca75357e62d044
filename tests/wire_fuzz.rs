//! The daemon's trust boundary under hostile lines: whatever bytes arrive,
//! the request decode and the job-spec validation answer with a structured
//! error or a request the daemon can act on. They never panic, and a
//! `submit` that passes both describes a subgraph the searchers accept.

use harl_repro::serve::protocol::read_message;
use harl_repro::serve::{
    decode_request, ErrorCode, JobSpec, ParallelismOpts, Preset, Request, Response, ServeError,
    TunerKind, WorkloadSpec,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// What the daemon does with one line, short of running anything.
#[derive(Debug, PartialEq)]
enum Outcome {
    /// Answered with this code; a `BadRequest` also drops the connection.
    Refused(ErrorCode),
    /// Handed to the dispatcher.
    Accepted(Request),
}

fn feed(line: &str) -> Outcome {
    match decode_request(line) {
        Err(message) => {
            assert!(!message.is_empty());
            Outcome::Refused(ErrorCode::BadRequest)
        }
        Ok(Request::Submit(spec)) => match spec.validate() {
            Err(reason) => {
                assert!(!reason.is_empty());
                Outcome::Refused(ErrorCode::InvalidSpec)
            }
            Ok(()) => {
                // an accepted job must be one a worker can build and tune
                let graph = spec.workload.build();
                graph.validate().unwrap_or_else(|e| {
                    panic!("{spec:?} validated but builds a broken subgraph: {e}")
                });
                assert!(graph.flops().is_finite() && graph.flops() > 0.0);
                assert!(!spec.job_key().is_empty());
                Outcome::Accepted(Request::Submit(spec))
            }
        },
        Ok(request) => Outcome::Accepted(request),
    }
}

fn good_spec() -> JobSpec {
    JobSpec {
        workload: WorkloadSpec::Conv2d {
            batch: 1,
            height: 28,
            width: 28,
            ci: 32,
            co: 64,
            kernel: 3,
            stride: 1,
            pad: 0,
        },
        tuner: TunerKind::Harl,
        preset: Preset::Tiny,
        hardware: "cpu".into(),
        trials: 32,
        priority: 1,
        target_ms: Some(2.0),
        parallelism: Some(ParallelismOpts::uniform(2)),
        finetune: true,
    }
}

/// One of every request the protocol has.
fn valid_requests() -> Vec<Request> {
    vec![
        Request::Submit(good_spec()),
        Request::Submit(JobSpec {
            workload: WorkloadSpec::Gemm {
                m: 64,
                k: 64,
                n: 64,
            },
            tuner: TunerKind::Mcts,
            target_ms: None,
            parallelism: None,
            ..good_spec()
        }),
        Request::Status("j000001".into()),
        Request::Result("j000001".into()),
        Request::Cancel("j000002".into()),
        Request::List,
        Request::Metrics,
        Request::PoolSync { from: 42 },
        Request::Shutdown,
    ]
}

fn lines() -> Vec<String> {
    valid_requests()
        .iter()
        .map(|r| serde_json::to_string(r).unwrap())
        .collect()
}

#[test]
fn every_valid_request_line_is_accepted_as_itself() {
    for (request, line) in valid_requests().into_iter().zip(lines()) {
        assert_eq!(feed(&line), Outcome::Accepted(request));
        assert_eq!(
            feed(&format!("  {line}\r\n")),
            feed(&line),
            "framing whitespace"
        );
    }
    for blank in ["", " ", "\n", "\r\n\t"] {
        assert_eq!(feed(blank), Outcome::Refused(ErrorCode::BadRequest));
    }
}

#[test]
fn every_truncation_of_a_valid_line_is_refused_or_still_a_request() {
    for line in lines() {
        for cut in 0..line.len() {
            if !line.is_char_boundary(cut) {
                continue;
            }
            // a strict prefix of a JSON value is never that value
            if let Outcome::Accepted(r) = feed(&line[..cut]) {
                panic!("prefix `{}` decoded as {r:?}", &line[..cut]);
            }
        }
    }
}

fn pick<T: Copy>(rng: &mut StdRng, options: &[T]) -> T {
    options[rng.gen_range(0..options.len())]
}

/// A spec with one field pushed out of range.
fn out_of_range(rng: &mut StdRng) -> JobSpec {
    let mut spec = good_spec();
    let extreme = |rng: &mut StdRng| pick(rng, &[0, 1, 2, 1 << 20, u32::MAX - 1, u32::MAX]);
    match rng.gen_range(0..10u32) {
        0 => spec.trials = pick(rng, &[0, u64::MAX]),
        1 => spec.hardware = pick(rng, &["", "tpu", "cpu ", "\u{0}"]).to_string(),
        2 => spec.target_ms = Some(pick(rng, &[0.0, -1.0, f64::NAN, f64::INFINITY, 1e-300])),
        3 => {
            spec.parallelism = Some(ParallelismOpts {
                score_threads: pick(rng, &[0, 1, usize::MAX]),
                ppo_threads: pick(rng, &[0, 1, 1 << 20]),
            })
        }
        4 => spec.priority = pick(rng, &[i32::MIN, i32::MAX]),
        5 => {
            spec.workload = WorkloadSpec::Gemm {
                m: extreme(rng),
                k: extreme(rng),
                n: extreme(rng),
            }
        }
        6 => {
            spec.workload = WorkloadSpec::BatchGemm {
                b: extreme(rng),
                m: extreme(rng),
                k: 64,
                n: extreme(rng),
            }
        }
        7 => {
            spec.workload = WorkloadSpec::Softmax {
                rows: extreme(rng),
                cols: extreme(rng),
            }
        }
        _ => {
            spec.workload = WorkloadSpec::Conv2d {
                batch: pick(rng, &[0, 1, u32::MAX]),
                height: extreme(rng),
                width: 28,
                ci: 32,
                co: 64,
                kernel: extreme(rng),
                stride: extreme(rng),
                pad: extreme(rng),
            }
        }
    }
    spec
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn random_bytes_never_panic_the_decode(seed in any::<u64>(), len in 0usize..200) {
        let mut rng = StdRng::seed_from_u64(seed);
        let bytes: Vec<u8> = (0..len).map(|_| rng.gen_range(0..=255u32) as u8).collect();
        // the event loop hands `on_line` text: invalid UTF-8 is replaced
        feed(&String::from_utf8_lossy(&bytes));
        // JSON-shaped noise reaches deeper into the decoder than raw bytes
        let alphabet = br#"{}[]":,\ntruefalsnul0123456789.-eE+SubmitStatusListPoolSyncfrom"#;
        let noise: String = (0..len)
            .map(|_| alphabet[rng.gen_range(0..alphabet.len())] as char)
            .collect();
        feed(&noise);
    }

    #[test]
    fn bit_flipped_request_lines_never_panic(seed in any::<u64>(), flips in 1usize..4) {
        let mut rng = StdRng::seed_from_u64(seed);
        let lines = lines();
        let mut bytes = lines[rng.gen_range(0..lines.len())].clone().into_bytes();
        for _ in 0..flips {
            let at = rng.gen_range(0..bytes.len());
            bytes[at] ^= 1u8 << rng.gen_range(0..8u32);
        }
        feed(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn out_of_range_specs_are_refused_or_runnable(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let spec = out_of_range(&mut rng);
        let line = serde_json::to_string(&Request::Submit(spec)).unwrap();
        // `feed` builds every spec it accepts
        if let Outcome::Refused(code) = feed(&line) {
            // NaN and infinity have no JSON spelling: the line itself is bad
            prop_assert!(matches!(code, ErrorCode::InvalidSpec | ErrorCode::BadRequest));
        }
    }
}

#[test]
fn the_known_bad_specs_are_refused_as_invalid() {
    let refused = |spec: JobSpec| {
        let line = serde_json::to_string(&Request::Submit(spec)).unwrap();
        feed(&line) == Outcome::Refused(ErrorCode::InvalidSpec)
    };
    let conv = |kernel, stride, pad| WorkloadSpec::Conv2d {
        batch: 1,
        height: 28,
        width: 28,
        ci: 32,
        co: 64,
        kernel,
        stride,
        pad,
    };
    assert!(refused(JobSpec {
        trials: 0,
        ..good_spec()
    }));
    assert!(refused(JobSpec {
        hardware: "tpu".into(),
        ..good_spec()
    }));
    assert!(
        refused(JobSpec {
            workload: conv(3, 0, 1),
            ..good_spec()
        }),
        "stride 0"
    );
    assert!(
        refused(JobSpec {
            workload: conv(0, 1, 1),
            ..good_spec()
        }),
        "kernel 0"
    );
    assert!(
        refused(JobSpec {
            workload: conv(31, 1, 1),
            ..good_spec()
        }),
        "window past the input"
    );
    assert!(
        refused(JobSpec {
            workload: conv(3, 1, u32::MAX),
            ..good_spec()
        }),
        "pad overflow"
    );
    let gemm = |m, k, n| WorkloadSpec::Gemm { m, k, n };
    assert!(refused(JobSpec {
        workload: gemm(0, 8, 8),
        ..good_spec()
    }));
    assert!(refused(JobSpec {
        workload: gemm(u32::MAX, u32::MAX, u32::MAX),
        ..good_spec()
    }));
    assert!(
        !refused(JobSpec {
            workload: conv(3, 2, 0),
            ..good_spec()
        }),
        "pad 0 is a shape"
    );
    assert!(!refused(JobSpec {
        workload: gemm(4096, 4096, 4096),
        ..good_spec()
    }));
}

/// A reply line that never ends — a peer streaming a `metrics` text with
/// no newline — is refused once it passes the 16 MiB line cap, with an
/// error that does not repeat it.
#[test]
fn an_over_cap_reply_line_is_refused_with_a_short_message() {
    const CAP: usize = 16 << 20;
    let mut line = br#"{"Metrics":{"text":""#.to_vec();
    line.resize(CAP + 2, b'x');
    match read_message::<Response>(&mut std::io::Cursor::new(line)) {
        Err(ServeError::Protocol(message)) => {
            assert!(message.len() < 1024, "a {}-byte message", message.len())
        }
        other => panic!("an over-cap line came back as {other:?}"),
    }
}
