//! The harl-serve wire protocol: line-delimited JSON over TCP.
//!
//! Each request is one externally-tagged [`Request`] value on a single
//! line; the daemon answers with exactly one [`Response`] line. A
//! connection may carry any number of request/response pairs in sequence.
//! See DESIGN.md §8 for the full shapes, error codes, and backpressure
//! semantics.

use std::io::{BufRead, Read, Write};

use serde::{Deserialize, Serialize};

use crate::error::ServeError;
use crate::job::{JobOutcome, JobSpec, JobView};

/// A client request, one JSON line on the wire.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// Enqueue a tuning job.
    Submit(JobSpec),
    /// Report one job's live state.
    Status(String),
    /// Fetch a completed job's final metrics.
    Result(String),
    /// Cancel a queued or running job.
    Cancel(String),
    /// List every job the daemon knows about.
    List,
    /// Dump the daemon's metrics registry in Prometheus text format.
    Metrics,
    /// Federation pull: one page of this daemon's shared pool viewed as
    /// an append-only segment, starting at record offset `from`. The
    /// reply is a [`Response::PoolSegment`]; the puller advances its
    /// cursor by the page length until it reaches the reported total.
    PoolSync {
        /// Append-order record offset the puller has already merged.
        from: u64,
    },
    /// Checkpoint all in-flight jobs and stop the daemon.
    Shutdown,
}

/// Machine-readable error category in a [`Response::Error`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ErrorCode {
    /// The request line was not a valid [`Request`].
    BadRequest,
    /// A [`JobSpec`] failed validation.
    InvalidSpec,
    /// No job with the given id exists.
    UnknownJob,
    /// `result` was asked of a job that has not finished.
    NotFinished,
    /// The job aborted; the message holds its failure reason.
    JobFailed,
    /// The daemon is shutting down and accepts no new work.
    ShuttingDown,
    /// The daemon itself hit an internal error serving the request.
    Internal,
}

/// The daemon's reply, one JSON line on the wire.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Response {
    /// The job was accepted under this id.
    Submitted {
        /// Assigned job id.
        id: String,
    },
    /// Backpressure: the bounded queue is full; retry later.
    Busy {
        /// Jobs currently queued.
        queued: u64,
        /// The queue's capacity.
        capacity: u64,
    },
    /// One job's live state.
    Status(JobView),
    /// A completed job's final metrics.
    Outcome(JobOutcome),
    /// The cancel request was registered (takes effect at the job's next
    /// round boundary when it is already running).
    Cancelled {
        /// Cancelled job id.
        id: String,
    },
    /// Every known job, newest last.
    Jobs(Vec<JobView>),
    /// The metrics registry, Prometheus text exposition format.
    Metrics {
        /// The rendered dump.
        text: String,
    },
    /// One page of the shared pool (answer to [`Request::PoolSync`]).
    PoolSegment {
        /// Total records currently in this daemon's pool segment.
        total: u64,
        /// The page: records `[from, from + len)` in append order, at
        /// most the daemon's per-page cap (so one reply stays one
        /// bounded wire line).
        records: Vec<harl_store::MeasureRecord>,
    },
    /// Shutdown acknowledged; in-flight jobs are being checkpointed.
    ShuttingDown,
    /// The request failed.
    Error {
        /// Machine-readable category.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
}

impl Response {
    /// Convenience constructor for error replies.
    pub fn error(code: ErrorCode, message: impl Into<String>) -> Response {
        Response::Error {
            code,
            message: message.into(),
        }
    }
}

/// Decodes one request line as the daemon does. A line that is empty or
/// not a [`Request`] comes back as the message of the
/// [`ErrorCode::BadRequest`] reply the daemon sends before it hangs up
/// (framing is unrecoverable mid-line).
pub fn decode_request(line: &str) -> Result<Request, String> {
    let trimmed = line.trim();
    if trimmed.is_empty() {
        return Err("empty message line".into());
    }
    serde_json::from_str(trimmed).map_err(|e| bad_message(trimmed, e))
}

/// The error text of an undecodable line, quoting at most its first
/// [`QUOTED_BYTES`] bytes.
fn bad_message(line: &str, e: impl std::fmt::Display) -> String {
    let mut end = line.len().min(QUOTED_BYTES);
    while !line.is_char_boundary(end) {
        end -= 1;
    }
    let more = if end < line.len() { "…" } else { "" };
    format!("bad message `{}{more}`: {e}", &line[..end])
}

/// How much of a bad line an error message repeats.
const QUOTED_BYTES: usize = 120;

/// Writes one value as a single JSON line.
pub fn write_message<T: Serialize>(w: &mut impl Write, value: &T) -> Result<(), ServeError> {
    let line = serde_json::to_string(value).map_err(|e| ServeError::Protocol(e.to_string()))?;
    w.write_all(line.as_bytes())?;
    w.write_all(b"\n")?;
    w.flush()?;
    Ok(())
}

/// Reads one JSON line and decodes it. Returns `Ok(None)` on a clean EOF
/// before any bytes of a line. A line longer than
/// [`crate::net::MAX_LINE_BYTES`] (a full `pool_sync` page is far shorter)
/// is refused after reading one byte past the cap, so a peer that never
/// sends a newline cannot grow the reader's memory.
pub fn read_message<T: for<'de> Deserialize<'de>>(
    r: &mut impl BufRead,
) -> Result<Option<T>, ServeError> {
    let cap = crate::net::MAX_LINE_BYTES;
    let mut line = Vec::new();
    if r.take(cap as u64 + 1).read_until(b'\n', &mut line)? == 0 {
        return Ok(None);
    }
    if line.len() > cap && line.last() != Some(&b'\n') {
        return Err(ServeError::Protocol(format!(
            "message line over {cap} bytes"
        )));
    }
    let line = std::str::from_utf8(&line)
        .map_err(|_| ServeError::Protocol("message line is not UTF-8".into()))?;
    let trimmed = line.trim();
    if trimmed.is_empty() {
        return Err(ServeError::Protocol("empty message line".into()));
    }
    serde_json::from_str(trimmed)
        .map(Some)
        .map_err(|e| ServeError::Protocol(bad_message(trimmed, e)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{JobState, Preset, TunerKind, WorkloadSpec};

    #[test]
    fn requests_round_trip_the_wire() {
        let reqs = vec![
            Request::Submit(JobSpec {
                workload: WorkloadSpec::Gemm {
                    m: 64,
                    k: 64,
                    n: 64,
                },
                tuner: TunerKind::Harl,
                preset: Preset::Tiny,
                hardware: "cpu".into(),
                trials: 32,
                priority: 1,
                target_ms: Some(2.0),
                parallelism: Some(crate::ParallelismOpts::uniform(2)),
                finetune: true,
            }),
            Request::Status("j000001".into()),
            Request::Result("j000001".into()),
            Request::Cancel("j000002".into()),
            Request::List,
            Request::Metrics,
            Request::PoolSync { from: 42 },
            Request::Shutdown,
        ];
        let mut buf = Vec::new();
        for r in &reqs {
            write_message(&mut buf, r).unwrap();
        }
        assert_eq!(buf.iter().filter(|&&b| b == b'\n').count(), reqs.len());
        let mut cursor = std::io::Cursor::new(buf);
        for want in &reqs {
            let got: Request = read_message(&mut cursor).unwrap().unwrap();
            assert_eq!(&got, want);
        }
        assert!(read_message::<Request>(&mut cursor).unwrap().is_none());
    }

    #[test]
    fn responses_round_trip_the_wire() {
        let resps = vec![
            Response::Submitted {
                id: "j000001".into(),
            },
            Response::Busy {
                queued: 4,
                capacity: 4,
            },
            Response::Jobs(vec![JobView {
                id: "j000001".into(),
                state: JobState::Running,
                workload: "gemm:64x64x64".into(),
                tuner: "harl".into(),
                priority: 0,
                trials_total: 32,
                trials_used: 8,
                rounds_done: 1,
                best_latency_ms: 1.5,
                resumed: false,
                warm_records: 12,
                score_stats: Some(harl_gbt::ScoreStats {
                    batch_count: 3,
                    scored: 96,
                    cache_misses: 96,
                }),
                error: None,
            }]),
            Response::Metrics {
                text: "# TYPE x counter\nx 1\n".into(),
            },
            Response::PoolSegment {
                total: 3,
                records: Vec::new(),
            },
            Response::ShuttingDown,
            Response::error(ErrorCode::UnknownJob, "no job j000009"),
        ];
        let mut buf = Vec::new();
        for r in &resps {
            write_message(&mut buf, r).unwrap();
        }
        let mut cursor = std::io::Cursor::new(buf);
        for want in &resps {
            let got: Response = read_message(&mut cursor).unwrap().unwrap();
            assert_eq!(&got, want);
        }
    }

    #[test]
    fn a_status_reply_that_still_carries_threads_reads() {
        // daemons before the pools were removed sent the scoring pool's
        // width inside every job's `score_stats` (an unknown field, as are
        // the feature cache's counters that daemons sent before it went)
        let stats = harl_gbt::ScoreStats {
            batch_count: 3,
            scored: 96,
            cache_misses: 96,
        };
        let want = Response::Jobs(vec![JobView {
            id: "j000001".into(),
            state: JobState::Done,
            workload: "gemm:64x64x64".into(),
            tuner: "harl".into(),
            priority: 0,
            trials_total: 32,
            trials_used: 32,
            rounds_done: 4,
            best_latency_ms: 1.5,
            resumed: false,
            warm_records: 0,
            score_stats: Some(stats),
            error: None,
        }]);
        let mut buf = Vec::new();
        write_message(&mut buf, &want).unwrap();
        let line = String::from_utf8(buf).unwrap();
        let old = line.replace("\"cache_misses\":96", "\"cache_misses\":96,\"threads\":4");
        assert_ne!(old, line, "the reply carries the scoring counters");
        let got: Response = read_message(&mut std::io::Cursor::new(old))
            .unwrap()
            .unwrap();
        assert_eq!(got, want);
    }

    #[test]
    fn a_line_of_exactly_the_cap_is_decoded_not_refused_for_length() {
        let mut at_cap = vec![b'x'; crate::net::MAX_LINE_BYTES];
        at_cap.push(b'\n');
        match read_message::<Response>(&mut std::io::Cursor::new(at_cap)) {
            Err(ServeError::Protocol(m)) => {
                assert!(m.starts_with("bad message `xxx"), "{m}");
                assert!(m.len() < 2 * QUOTED_BYTES, "{} bytes", m.len());
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn garbage_line_is_a_protocol_error() {
        let mut cursor = std::io::Cursor::new(b"not json\n".to_vec());
        assert!(matches!(
            read_message::<Request>(&mut cursor),
            Err(ServeError::Protocol(_))
        ));
    }
}
