//! A small synchronous client for the harl-serve wire protocol.
//!
//! The client keeps one persistent connection and pipelines its
//! request/response line pairs over it. When the daemon goes away
//! mid-conversation (restart, network blip), idempotent requests
//! transparently reconnect with bounded exponential backoff and retry
//! until [`ClientConfig::retry_budget`] is spent — a `watch` in flight
//! across a daemon restart just keeps reporting. `submit` is the one
//! non-idempotent verb: it always runs on a freshly established
//! connection (connect failures retry, but once the request line is on
//! the wire it is never resent, so a job cannot be enqueued twice).

use std::io::BufReader;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

use harl_check::CMutex;

use crate::error::ServeError;
use crate::job::{JobOutcome, JobSpec, JobState, JobView};
use crate::protocol::{read_message, write_message, Request, Response};

/// First reconnect backoff of every [`ClientConfig`]; doubles per failed
/// attempt up to [`ClientConfig::backoff_max`].
const BACKOFF_BASE: Duration = Duration::from_millis(25);

/// Reconnect/timeout policy for a [`Client`].
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Per-attempt TCP connect timeout.
    pub connect_timeout: Duration,
    /// Per-request reply deadline (a hung daemon surfaces as an error
    /// instead of blocking the caller forever).
    pub read_timeout: Duration,
    /// Backoff ceiling; the first backoff is 25 ms.
    pub backoff_max: Duration,
    /// Total time one request may spend on reconnect+retry before its
    /// last error is surfaced. Zero disables retrying entirely.
    pub retry_budget: Duration,
}

impl Default for ClientConfig {
    fn default() -> ClientConfig {
        ClientConfig {
            connect_timeout: Duration::from_secs(2),
            read_timeout: Duration::from_secs(30),
            backoff_max: Duration::from_secs(1),
            retry_budget: Duration::from_secs(8),
        }
    }
}

impl ClientConfig {
    /// Policy for the federation puller: fail fast and let the next sync
    /// round retry, so one dead peer cannot stall the whole round.
    pub fn federation() -> ClientConfig {
        ClientConfig {
            connect_timeout: Duration::from_millis(500),
            read_timeout: Duration::from_secs(5),
            backoff_max: Duration::from_millis(200),
            retry_budget: Duration::from_millis(600),
        }
    }
}

struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

/// Client for one daemon address.
#[derive(Debug)]
pub struct Client {
    addr: String,
    cfg: ClientConfig,
    conn: CMutex<Option<Conn>>,
}

impl std::fmt::Debug for Conn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Conn")
    }
}

impl Clone for Client {
    /// Clones the address and policy; the connection itself is not
    /// shared — each clone dials on first use.
    fn clone(&self) -> Client {
        Client {
            addr: self.addr.clone(),
            cfg: self.cfg.clone(),
            conn: CMutex::new("serve.client", None),
        }
    }
}

impl Client {
    /// Creates a client for `addr` (e.g. `127.0.0.1:7431`) with the
    /// default reconnect policy.
    pub fn new(addr: impl Into<String>) -> Client {
        Client::with_config(addr, ClientConfig::default())
    }

    /// Creates a client with an explicit reconnect/timeout policy.
    pub fn with_config(addr: impl Into<String>, cfg: ClientConfig) -> Client {
        Client {
            addr: addr.into(),
            cfg,
            conn: CMutex::new("serve.client", None),
        }
    }

    fn dial(&self) -> Result<Conn, ServeError> {
        let mut last: Option<std::io::Error> = None;
        for sa in self.addr.as_str().to_socket_addrs()? {
            match TcpStream::connect_timeout(&sa, self.cfg.connect_timeout) {
                Ok(stream) => {
                    stream.set_read_timeout(Some(self.cfg.read_timeout))?;
                    let _ = stream.set_nodelay(true);
                    let writer = stream.try_clone()?;
                    return Ok(Conn {
                        reader: BufReader::new(stream),
                        writer,
                    });
                }
                Err(e) => last = Some(e),
            }
        }
        Err(ServeError::Io(last.unwrap_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!("`{}` resolves to no address", self.addr),
            )
        })))
    }

    /// Sleeps one backoff step if the deadline allows it; false means the
    /// budget is spent and the caller should surface its last error.
    fn step_backoff(&self, backoff: &mut Duration, deadline: Instant) -> bool {
        if Instant::now() + *backoff >= deadline {
            return false;
        }
        std::thread::sleep(*backoff);
        *backoff = (*backoff * 2).min(self.cfg.backoff_max);
        true
    }

    /// One request/reply exchange on an established connection. The error
    /// side means the connection is unusable and must be dropped.
    fn exchange(conn: &mut Conn, req: &Request) -> Result<Response, ServeError> {
        write_message(&mut conn.writer, req)?;
        read_message::<Response>(&mut conn.reader)?
            .ok_or_else(|| ServeError::Protocol("daemon closed the connection".into()))
    }

    /// Sends one request and reads its reply. Idempotent requests
    /// (everything but `Submit`) are retried across reconnects within
    /// the retry budget; `Submit` is only retried while connecting.
    pub fn request(&self, req: &Request) -> Result<Response, ServeError> {
        let resend = !matches!(req, Request::Submit(_));
        let deadline = Instant::now() + self.cfg.retry_budget;
        let mut backoff = BACKOFF_BASE;
        let mut guard = self.conn.lock().expect("client conn poisoned");
        if !resend {
            // fresh connection: a reply to a previous request can never
            // be mistaken for this one, and the daemon provably saw
            // nothing of the request before any connect-phase failure
            *guard = None;
        }
        loop {
            if guard.is_none() {
                match self.dial() {
                    Ok(c) => *guard = Some(c),
                    Err(e) => {
                        if self.step_backoff(&mut backoff, deadline) {
                            continue;
                        }
                        return Err(e);
                    }
                }
            }
            let conn = guard.as_mut().expect("connection just established");
            match Self::exchange(conn, req) {
                Ok(resp) => return Ok(resp),
                Err(e) => {
                    *guard = None;
                    if resend && self.step_backoff(&mut backoff, deadline) {
                        continue;
                    }
                    return Err(e);
                }
            }
        }
    }

    /// Submits a job, returning its assigned id. A `busy` reply surfaces
    /// as [`ServeError::Job`] naming the queue bound.
    pub fn submit(&self, spec: &JobSpec) -> Result<String, ServeError> {
        match self.request(&Request::Submit(spec.clone()))? {
            Response::Submitted { id } => Ok(id),
            Response::Busy { queued, capacity } => Err(ServeError::Job(format!(
                "daemon busy: {queued}/{capacity} jobs queued; retry later"
            ))),
            other => Err(unexpected(other)),
        }
    }

    /// One job's live state.
    pub fn status(&self, id: &str) -> Result<JobView, ServeError> {
        match self.request(&Request::Status(id.to_string()))? {
            Response::Status(view) => Ok(view),
            other => Err(unexpected(other)),
        }
    }

    /// A completed job's final metrics.
    pub fn result(&self, id: &str) -> Result<JobOutcome, ServeError> {
        match self.request(&Request::Result(id.to_string()))? {
            Response::Outcome(outcome) => Ok(outcome),
            other => Err(unexpected(other)),
        }
    }

    /// Requests cancellation of a queued or running job.
    pub fn cancel(&self, id: &str) -> Result<(), ServeError> {
        match self.request(&Request::Cancel(id.to_string()))? {
            Response::Cancelled { .. } => Ok(()),
            other => Err(unexpected(other)),
        }
    }

    /// Every job the daemon knows about.
    pub fn list(&self) -> Result<Vec<JobView>, ServeError> {
        match self.request(&Request::List)? {
            Response::Jobs(views) => Ok(views),
            other => Err(unexpected(other)),
        }
    }

    /// The daemon's metrics registry as a Prometheus text dump.
    pub fn metrics(&self) -> Result<String, ServeError> {
        match self.request(&Request::Metrics)? {
            Response::Metrics { text } => Ok(text),
            other => Err(unexpected(other)),
        }
    }

    /// One page of the daemon's shared pool starting at append offset
    /// `from`: `(total, records)` (the federation pull primitive).
    pub fn pool_sync(
        &self,
        from: u64,
    ) -> Result<(u64, Vec<harl_store::MeasureRecord>), ServeError> {
        match self.request(&Request::PoolSync { from })? {
            Response::PoolSegment { total, records } => Ok((total, records)),
            other => Err(unexpected(other)),
        }
    }

    /// Asks the daemon to checkpoint in-flight jobs and stop.
    pub fn shutdown(&self) -> Result<(), ServeError> {
        match self.request(&Request::Shutdown)? {
            Response::ShuttingDown => Ok(()),
            other => Err(unexpected(other)),
        }
    }

    /// Polls `status` until the job reaches a terminal state, then returns
    /// its outcome ([`ServeError::Job`] for cancelled/failed ends).
    /// `on_progress` sees every observed view, e.g. for live display.
    /// Because `status` rides the reconnect policy, a watch survives a
    /// daemon restart shorter than the retry budget.
    pub fn wait(
        &self,
        id: &str,
        poll: Duration,
        mut on_progress: impl FnMut(&JobView),
    ) -> Result<JobOutcome, ServeError> {
        loop {
            let view = self.status(id)?;
            on_progress(&view);
            match view.state {
                JobState::Done => return self.result(id),
                JobState::Cancelled => {
                    return Err(ServeError::Job(format!("job `{id}` was cancelled")))
                }
                JobState::Failed => {
                    return Err(ServeError::Job(
                        view.error.unwrap_or_else(|| format!("job `{id}` failed")),
                    ))
                }
                JobState::Queued | JobState::Running => std::thread::sleep(poll),
            }
        }
    }
}

fn unexpected(resp: Response) -> ServeError {
    match resp {
        Response::Error { code, message } => {
            ServeError::Job(format!("daemon error ({code:?}): {message}"))
        }
        other => ServeError::Protocol(format!("unexpected reply: {other:?}")),
    }
}
