//! # harl-net
//!
//! A dependency-free, mio-style nonblocking TCP event loop with
//! line-delimited framing. One thread multiplexes a listener plus any
//! number of connections: each tick accepts pending connects, pumps
//! nonblocking reads into per-connection buffers, hands every complete
//! line to a [`Service`], and drains the queued replies back out. Idle
//! connections cost nothing but their buffers — no thread, no wakeup —
//! which is what lets a daemon hold thousands of open `watch`/`status`
//! clients on a fixed-size thread count.
//!
//! The loop waits for readiness in `poll(2)`, declared here against the C
//! library std already links (the workspace is dependency-free): the
//! listener and every connection are polled, and only the ready ones are
//! pumped, so a request on an idle loop is served as soon as it arrives.
//! The wait times out every [`POLL_TIMEOUT`] to look at the stop flag
//! (see DESIGN.md §14 for the readiness state machine).
//!
//! Observability (all in the global [`harl_obs`] registry):
//! `harl_net_conns_total{event=accepted|closed|dropped}`,
//! `harl_net_connections` / `harl_net_idle_connections` gauges,
//! `harl_net_wakeups_total`, `harl_net_wakeup_interval_seconds`, and
//! `harl_net_dispatch_seconds` (per-line service latency).

use std::collections::BTreeMap;
use std::ffi::{c_int, c_short, c_ulong};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::time::{Duration, Instant};

/// Identity of one live connection, unique within an [`EventLoop`]'s
/// lifetime (monotonically assigned, never reused).
pub type Token = u64;

/// Reply channel handed to [`Service::on_line`]: the service pushes any
/// number of reply lines and may ask for the connection to be closed once
/// they have been flushed.
#[derive(Debug, Default)]
pub struct Outbox {
    lines: Vec<String>,
    close: bool,
}

impl Outbox {
    /// Queues one reply line (the trailing `\n` is added by the loop).
    pub fn line(&mut self, s: impl Into<String>) {
        self.lines.push(s.into());
    }

    /// Closes the connection after every queued reply has been written.
    pub fn close_after_flush(&mut self) {
        self.close = true;
    }
}

/// What an [`EventLoop`] serves: a callback per framed line.
///
/// All callbacks run on the loop thread, so they must not block on
/// long-running work — hand that to a worker pool and answer from shared
/// state (exactly how `harl-serve` dispatches tuning jobs).
pub trait Service {
    /// One complete line from connection `token`, without its trailing
    /// newline (a trailing `\r` is also stripped). Push replies into
    /// `out`.
    fn on_line(&mut self, token: Token, line: &str, out: &mut Outbox);

    /// A new connection was accepted.
    fn on_open(&mut self, _token: Token) {}

    /// A connection closed (EOF, error, or service-requested close).
    fn on_close(&mut self, _token: Token) {}
}

/// Event-loop tuning knobs.
#[derive(Debug, Clone)]
pub struct LoopConfig {
    /// A connection whose buffered partial line exceeds this is dropped
    /// (protocol abuse / runaway peer protection).
    pub max_line_bytes: usize,
}

/// Longest readiness wait: how late the loop may see its stop flag.
const POLL_TIMEOUT: Duration = Duration::from_millis(10);
/// A connection whose replies not yet taken by its peer exceed this is
/// neither read from nor dispatched until they drain: a client that writes
/// without reading cannot grow the daemon's memory without bound.
const MAX_UNSENT_BYTES: usize = 1 << 20;

/// The default line cap: [`LoopConfig::default`]'s `max_line_bytes`, and
/// the longest line a client of the protocol reads.
pub const MAX_LINE_BYTES: usize = 16 * 1024 * 1024;

impl Default for LoopConfig {
    fn default() -> LoopConfig {
        LoopConfig {
            max_line_bytes: MAX_LINE_BYTES,
        }
    }
}

/// `struct pollfd` of `<poll.h>`.
#[repr(C)]
struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

const POLLIN: c_short = 0x001;
const POLLOUT: c_short = 0x004;

extern "C" {
    fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
}

impl PollFd {
    fn new(fd: RawFd, events: c_short) -> PollFd {
        PollFd {
            fd,
            events,
            revents: 0,
        }
    }
}

/// Waits until one of `fds` is ready or `timeout` passes, and leaves
/// what happened in their `revents`. A failed wait (an interrupt, say)
/// marks every descriptor ready for what it asked: the pump then finds
/// out with nonblocking I/O, as a level-polled sweep would.
fn wait_ready(fds: &mut [PollFd], timeout: Duration) {
    let millis = c_int::try_from(timeout.as_millis()).unwrap_or(c_int::MAX);
    // SAFETY: `fds` is an exclusively borrowed array of `fds.len()`
    // initialised `struct pollfd`s, valid for the whole call.
    let ready = unsafe { poll(fds.as_mut_ptr(), fds.len() as c_ulong, millis) };
    if ready < 0 {
        for fd in fds.iter_mut() {
            fd.revents = fd.events;
        }
    }
}

/// Why a connection left the loop (feeds the `closed`/`dropped` counters).
enum Gone {
    /// Clean close: EOF or service-requested close-after-flush.
    Closed,
    /// Error close: I/O failure, oversized line, or torn final line.
    Dropped,
}

struct Conn {
    stream: TcpStream,
    rbuf: Vec<u8>,
    /// Scan cursor into `rbuf`: bytes before it contain no newline.
    scanned: usize,
    wbuf: Vec<u8>,
    /// Bytes of `wbuf` already written.
    wpos: usize,
    close_after_flush: bool,
    gone: Option<Gone>,
}

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            rbuf: Vec::new(),
            scanned: 0,
            wbuf: Vec::new(),
            wpos: 0,
            close_after_flush: false,
            gone: None,
        }
    }

    fn idle(&self) -> bool {
        self.rbuf.is_empty() && self.unsent() == 0
    }

    /// Queued reply bytes the peer has not taken yet.
    fn unsent(&self) -> usize {
        self.wbuf.len() - self.wpos
    }

    /// Nonblocking write of everything pending.
    fn flush(&mut self) {
        while self.wpos < self.wbuf.len() {
            match self.stream.write(&self.wbuf[self.wpos..]) {
                Ok(0) => {
                    self.gone = Some(Gone::Dropped);
                    break;
                }
                Ok(n) => self.wpos += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.gone = Some(Gone::Dropped);
                    break;
                }
            }
        }
        if self.wpos >= self.wbuf.len() {
            self.wbuf.clear();
            self.wpos = 0;
            if self.close_after_flush && self.gone.is_none() {
                self.gone = Some(Gone::Closed);
            }
        } else if self.wpos >= self.wbuf.len() / 2 {
            // a slow reader never empties the buffer: drop the written half
            self.wbuf.drain(..self.wpos);
            self.wpos = 0;
        }
    }
}

/// The event loop: one listener, N connections, one [`Service`].
pub struct EventLoop<S: Service> {
    listener: TcpListener,
    service: S,
    cfg: LoopConfig,
    conns: BTreeMap<Token, Conn>,
    next_token: Token,
    accepted: harl_obs::Counter,
    closed: harl_obs::Counter,
    dropped: harl_obs::Counter,
    active_gauge: harl_obs::Gauge,
    idle_gauge: harl_obs::Gauge,
    wakeups: harl_obs::Counter,
    wakeup_interval: harl_obs::Histogram,
    dispatch_seconds: harl_obs::Histogram,
}

impl<S: Service> EventLoop<S> {
    /// Wraps an already-bound listener (switched to nonblocking here).
    pub fn new(
        listener: TcpListener,
        service: S,
        cfg: LoopConfig,
    ) -> std::io::Result<EventLoop<S>> {
        listener.set_nonblocking(true)?;
        let reg = harl_obs::global();
        Ok(EventLoop {
            listener,
            service,
            cfg,
            conns: BTreeMap::new(),
            next_token: 1,
            accepted: reg.counter("harl_net_conns_total{event=\"accepted\"}"),
            closed: reg.counter("harl_net_conns_total{event=\"closed\"}"),
            dropped: reg.counter("harl_net_conns_total{event=\"dropped\"}"),
            active_gauge: reg.gauge("harl_net_connections"),
            idle_gauge: reg.gauge("harl_net_idle_connections"),
            wakeups: reg.counter("harl_net_wakeups_total"),
            wakeup_interval: reg.histogram(
                "harl_net_wakeup_interval_seconds",
                harl_obs::FINE_SECONDS_BOUNDS,
            ),
            dispatch_seconds: reg
                .histogram("harl_net_dispatch_seconds", harl_obs::FINE_SECONDS_BOUNDS),
        })
    }

    /// Connections currently registered.
    pub fn connections(&self) -> usize {
        self.conns.len()
    }

    /// Runs until `stop()` turns true, then flushes pending replies
    /// (briefly, best-effort) and drops every connection.
    pub fn run(&mut self, stop: impl Fn() -> bool) {
        let mut last_wake = Instant::now();
        let mut fds = Vec::new();
        let mut tokens = Vec::new();
        while !stop() {
            // the listener, then every connection: for input unless it is
            // backlogged (it is not read until its replies drain), for
            // output while it has replies its peer has not taken
            fds.clear();
            tokens.clear();
            fds.push(PollFd::new(self.listener.as_raw_fd(), POLLIN));
            for (&token, conn) in &self.conns {
                let mut events = 0;
                if conn.unsent() <= MAX_UNSENT_BYTES {
                    events |= POLLIN;
                }
                if conn.unsent() > 0 {
                    events |= POLLOUT;
                }
                fds.push(PollFd::new(conn.stream.as_raw_fd(), events));
                tokens.push(token);
            }
            wait_ready(&mut fds, POLL_TIMEOUT);

            self.wakeups.inc();
            let now = Instant::now();
            self.wakeup_interval
                .observe(now.duration_since(last_wake).as_secs_f64());
            last_wake = now;

            // hang-ups and errors come back whatever was asked for
            if fds[0].revents != 0 {
                self.accept_pending();
            }
            for (fd, &token) in fds[1..].iter().zip(&tokens) {
                if fd.revents != 0 {
                    self.pump(token);
                }
            }
            self.sweep();
        }
        // Shutdown: give queued replies (e.g. the `shutdown` ack) a short
        // grace window to reach their sockets before everything drops.
        let deadline = Instant::now() + Duration::from_millis(250);
        while Instant::now() < deadline {
            let pending =
                self.conns
                    .values_mut()
                    .filter(|c| c.gone.is_none())
                    .fold(false, |acc, c| {
                        c.flush();
                        acc || c.wpos < c.wbuf.len()
                    });
            self.sweep();
            if !pending {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Accepts every pending connect.
    fn accept_pending(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if stream.set_nonblocking(true).is_err() {
                        self.dropped.inc();
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    let token = self.next_token;
                    self.next_token += 1;
                    self.conns.insert(token, Conn::new(stream));
                    self.accepted.inc();
                    self.service.on_open(token);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
    }

    /// One ready connection's turn: flush pending writes, read what's
    /// there, dispatch complete lines.
    fn pump(&mut self, token: Token) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        conn.flush();
        if conn.gone.is_some() {
            return;
        }

        // nonblocking read sweep, until a whole line is buffered: not at all
        // while lines wait for dispatch (`scanned` stops short of the end
        // only then) or the peer is not taking its replies
        let mut eof = false;
        let mut chunk = [0u8; 16 * 1024];
        let mut line_ready = conn.scanned < conn.rbuf.len();
        while !line_ready && conn.unsent() <= MAX_UNSENT_BYTES {
            match conn.stream.read(&mut chunk) {
                Ok(0) => {
                    eof = true;
                    break;
                }
                Ok(n) => {
                    conn.rbuf.extend_from_slice(&chunk[..n]);
                    line_ready = chunk[..n].contains(&b'\n');
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    conn.gone = Some(Gone::Dropped);
                    return;
                }
            }
        }

        // frame + dispatch complete lines; `start` is where the next line
        // begins, and the dispatched prefix is drained once, below
        let mut start = 0;
        let mut backlog = false;
        while let Some(nl) = conn.rbuf[conn.scanned..].iter().position(|&b| b == b'\n') {
            if conn.unsent() > MAX_UNSENT_BYTES {
                backlog = true;
                break;
            }
            let end = conn.scanned + nl;
            let line = String::from_utf8_lossy(&conn.rbuf[start..end]);
            let line = line.trim_end_matches('\r');
            (start, conn.scanned) = (end + 1, end + 1);
            let started = Instant::now();
            let mut out = Outbox::default();
            self.service.on_line(token, line, &mut out);
            self.dispatch_seconds
                .observe(started.elapsed().as_secs_f64());
            for reply in out.lines {
                conn.wbuf.extend_from_slice(reply.as_bytes());
                conn.wbuf.push(b'\n');
            }
            if out.close {
                conn.close_after_flush = true;
                break;
            }
        }
        conn.rbuf.drain(..start);
        // lines left for later are rescanned then; the rest holds none
        conn.scanned = if backlog { 0 } else { conn.rbuf.len() };
        if !backlog && conn.rbuf.len() > self.cfg.max_line_bytes {
            conn.gone = Some(Gone::Dropped);
            return;
        }

        conn.flush();
        if conn.gone.is_none() && eof && !backlog {
            // a partial line at EOF is a torn frame, not a clean close
            conn.gone = Some(if conn.rbuf.is_empty() {
                Gone::Closed
            } else {
                Gone::Dropped
            });
        }
    }

    /// Removes finished connections and republishes the gauges.
    fn sweep(&mut self) {
        let gone: Vec<Token> = self
            .conns
            .iter()
            .filter(|(_, c)| c.gone.is_some())
            .map(|(&t, _)| t)
            .collect();
        for t in gone {
            if let Some(conn) = self.conns.remove(&t) {
                match conn.gone {
                    Some(Gone::Dropped) => self.dropped.inc(),
                    _ => self.closed.inc(),
                }
                self.service.on_close(t);
            }
        }
        self.active_gauge.set(self.conns.len() as f64);
        self.idle_gauge
            .set(self.conns.values().filter(|c| c.idle()).count() as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    /// Echoes `echo:<line>`; `close` asks for close-after-flush; `burst`
    /// answers with three lines.
    struct Echo;

    impl Service for Echo {
        fn on_line(&mut self, _token: Token, line: &str, out: &mut Outbox) {
            match line {
                "close" => {
                    out.line("bye");
                    out.close_after_flush();
                }
                "burst" => {
                    out.line("a");
                    out.line("b");
                    out.line("c");
                }
                other => out.line(format!("echo:{other}")),
            }
        }
    }

    fn spawn_echo() -> (
        std::net::SocketAddr,
        Arc<AtomicBool>,
        std::thread::JoinHandle<()>,
    ) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = stop.clone();
        let handle = std::thread::spawn(move || {
            let mut el = EventLoop::new(listener, Echo, LoopConfig::default()).unwrap();
            el.run(|| stop2.load(Ordering::SeqCst));
        });
        (addr, stop, handle)
    }

    fn finish(stop: Arc<AtomicBool>, handle: std::thread::JoinHandle<()>) {
        stop.store(true, Ordering::SeqCst);
        handle.join().unwrap();
    }

    #[test]
    fn echoes_lines_and_keeps_connection_open() {
        let (addr, stop, handle) = spawn_echo();
        let stream = TcpStream::connect(addr).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        for i in 0..5 {
            writeln!(writer, "msg{i}").unwrap();
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            assert_eq!(line, format!("echo:msg{i}\n"));
        }
        finish(stop, handle);
    }

    #[test]
    fn pipelined_and_split_writes_frame_correctly() {
        let (addr, stop, handle) = spawn_echo();
        let stream = TcpStream::connect(addr).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        // two whole lines in one write...
        writer.write_all(b"one\ntwo\n").unwrap();
        // ...and one line split across three writes with pauses
        for part in ["th", "re", "e\n"] {
            writer.write_all(part.as_bytes()).unwrap();
            writer.flush().unwrap();
            std::thread::sleep(Duration::from_millis(5));
        }
        for want in ["echo:one", "echo:two", "echo:three"] {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            assert_eq!(line.trim_end(), want);
        }
        finish(stop, handle);
    }

    #[test]
    fn multi_line_replies_arrive_in_order() {
        let (addr, stop, handle) = spawn_echo();
        let stream = TcpStream::connect(addr).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        writeln!(writer, "burst").unwrap();
        for want in ["a", "b", "c"] {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            assert_eq!(line.trim_end(), want);
        }
        finish(stop, handle);
    }

    #[test]
    fn close_after_flush_delivers_reply_then_eof() {
        let (addr, stop, handle) = spawn_echo();
        let stream = TcpStream::connect(addr).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        writeln!(writer, "close").unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert_eq!(line.trim_end(), "bye");
        line.clear();
        assert_eq!(reader.read_line(&mut line).unwrap(), 0, "EOF after close");
        finish(stop, handle);
    }

    #[test]
    fn many_concurrent_connections_multiplex_on_one_thread() {
        const CONNS: usize = 64;
        let (addr, stop, handle) = spawn_echo();
        let mut socks: Vec<(TcpStream, BufReader<TcpStream>)> = (0..CONNS)
            .map(|_| {
                let s = TcpStream::connect(addr).unwrap();
                let r = BufReader::new(s.try_clone().unwrap());
                (s, r)
            })
            .collect();
        // interleave: all write, then all read, twice
        for round in 0..2 {
            for (i, (w, _)) in socks.iter_mut().enumerate() {
                writeln!(w, "r{round}c{i}").unwrap();
            }
            for (i, (_, r)) in socks.iter_mut().enumerate() {
                let mut line = String::new();
                r.read_line(&mut line).unwrap();
                assert_eq!(line.trim_end(), format!("echo:r{round}c{i}"));
            }
        }
        finish(stop, handle);
    }

    #[test]
    fn oversized_line_drops_the_connection() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = stop.clone();
        let cfg = LoopConfig {
            max_line_bytes: 1024,
        };
        let handle = std::thread::spawn(move || {
            let mut el = EventLoop::new(listener, Echo, cfg).unwrap();
            el.run(|| stop2.load(Ordering::SeqCst));
        });
        let stream = TcpStream::connect(addr).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        // 4 KB with no newline: must exceed the 1 KB cap and get dropped
        let blob = vec![b'x'; 4096];
        let _ = writer.write_all(&blob);
        let mut line = String::new();
        assert_eq!(
            reader.read_line(&mut line).unwrap_or(0),
            0,
            "oversized sender must see the connection die"
        );
        // the loop itself survives and serves new connections
        let stream = TcpStream::connect(addr).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        writeln!(writer, "still-alive").unwrap();
        line.clear();
        reader.read_line(&mut line).unwrap();
        assert_eq!(line.trim_end(), "echo:still-alive");
        finish(stop, handle);
    }

    /// One `ping` round trip on a fresh connection, or the reason it failed
    /// to come back within `limit`.
    fn ping(addr: std::net::SocketAddr, limit: Duration) -> Result<Duration, String> {
        let started = Instant::now();
        let stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
        stream.set_read_timeout(Some(limit)).unwrap();
        let mut writer = stream.try_clone().unwrap();
        writeln!(writer, "ping").map_err(|e| e.to_string())?;
        let mut line = String::new();
        BufReader::new(stream)
            .read_line(&mut line)
            .map_err(|e| format!("no echo within {limit:?}: {e}"))?;
        assert_eq!(line, "echo:ping\n");
        Ok(started.elapsed())
    }

    #[test]
    fn a_pipelined_flood_does_not_stall_other_connections() {
        let (addr, stop, handle) = spawn_echo();
        let flood = TcpStream::connect(addr).unwrap();
        // the flooding client takes its replies, on a thread of its own
        let mut replies = flood.try_clone().unwrap();
        let sink = std::thread::spawn(move || {
            let mut chunk = [0u8; 64 * 1024];
            while replies.read(&mut chunk).is_ok_and(|n| n > 0) {}
        });
        // 2 MiB of one-byte lines, all handed to the kernel before the
        // probe connects: the loop is still framing them when it does
        (&flood).write_all(&b"x\n".repeat(1 << 20)).unwrap();
        let waited = ping(addr, Duration::from_secs(5));
        assert!(
            waited.is_ok(),
            "while 2 MiB of lines are framed: {waited:?}"
        );
        flood.shutdown(std::net::Shutdown::Both).unwrap();
        sink.join().unwrap();
        finish(stop, handle);
    }

    #[test]
    fn a_client_that_never_reads_is_stopped_by_backpressure() {
        let (addr, stop, handle) = spawn_echo();
        let hog = TcpStream::connect(addr).unwrap();
        hog.set_nonblocking(true).unwrap();
        // 64 KiB lines, so that framing costs nothing at any buffer size
        let mut line = vec![b'x'; 64 * 1024];
        *line.last_mut().unwrap() = b'\n';
        let (mut written, mut at) = (0usize, 0usize);
        let mut blocked_since = None;
        while written < 32 << 20 {
            match (&hog).write(&line[at..]) {
                Ok(n) => {
                    (written, at) = (written + n, (at + n) % line.len());
                    blocked_since = None;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    // a loop that keeps reading unblocks the writer again
                    // within a sweep; one that stopped reading does not
                    let since = *blocked_since.get_or_insert_with(Instant::now);
                    if since.elapsed() > Duration::from_secs(2) {
                        break;
                    }
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(e) => panic!("write failed after {written} bytes: {e}"),
            }
        }
        assert!(
            written < 32 << 20,
            "wrote {written} bytes without reading a reply and never saw WouldBlock last"
        );
        // the loop keeps serving new connections
        let waited = ping(addr, Duration::from_secs(5));
        assert!(waited.is_ok(), "with a blocked writer: {waited:?}");
        drop(hog);
        finish(stop, handle);
    }

    #[test]
    fn a_line_on_an_idle_loop_is_answered_without_a_back_off() {
        let (addr, stop, handle) = spawn_echo();
        let stream = TcpStream::connect(addr).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        let mut rtts: Vec<Duration> = (0..200)
            .map(|i| {
                // long enough for a loop that sleeps when idle to be asleep
                std::thread::sleep(Duration::from_millis(2));
                let started = Instant::now();
                // one write: pieces of a line would wait out Nagle's delay
                writer.write_all(format!("r{i}\n").as_bytes()).unwrap();
                let mut line = String::new();
                reader.read_line(&mut line).unwrap();
                assert_eq!(line, format!("echo:r{i}\n"));
                started.elapsed()
            })
            .collect();
        rtts.sort();
        let median = rtts[rtts.len() / 2];
        assert!(
            median < Duration::from_micros(500),
            "median round trip {median:?}"
        );
        finish(stop, handle);
    }

    #[test]
    fn stop_flag_exits_promptly() {
        let (addr, stop, handle) = spawn_echo();
        let _conn = TcpStream::connect(addr).unwrap();
        let t = Instant::now();
        finish(stop, handle);
        assert!(
            t.elapsed() < Duration::from_secs(2),
            "loop must exit promptly on stop"
        );
    }
}
