//! A client may send its request, shut down its write half and then read
//! the reply to the end (`printf 'req\n' | nc -N host port` does). The
//! event loop sees EOF long before a large reply has left its buffer; the
//! connection must stay open until every queued byte is written, and only
//! then close cleanly.

use std::io::{Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use harl_repro::obs;
use harl_repro::serve::net::{EventLoop, LoopConfig, Outbox, Service, Token};

/// Far more than the socket buffers of a loopback connection hold.
const REPLY_BYTES: usize = 32 << 20;

/// Answers every line with one `REPLY_BYTES`-long line of `x`.
struct Big;

impl Service for Big {
    fn on_line(&mut self, _token: Token, _line: &str, out: &mut Outbox) {
        out.line("x".repeat(REPLY_BYTES));
    }
}

#[test]
fn a_half_closed_client_receives_its_whole_reply() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let stop = Arc::new(AtomicBool::new(false));
    let server = {
        let stop = stop.clone();
        std::thread::spawn(move || {
            let mut el = EventLoop::new(listener, Big, LoopConfig::default()).unwrap();
            el.run(|| stop.load(Ordering::SeqCst));
        })
    };
    let closed = obs::global().counter("harl_net_conns_total{event=\"closed\"}");
    let closed_before = closed.get();

    let mut client = TcpStream::connect(addr).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    client.write_all(b"send\n").unwrap();
    client.shutdown(Shutdown::Write).unwrap();
    // a reader slower than the loop keeps the socket buffers full, so the
    // loop reads the EOF while part of the reply is still queued
    let mut reply = Vec::new();
    let mut chunk = vec![0u8; 64 << 10];
    loop {
        let n = client.read(&mut chunk).unwrap();
        if n == 0 {
            break;
        }
        reply.extend_from_slice(&chunk[..n]);
        std::thread::sleep(Duration::from_millis(1));
    }

    stop.store(true, Ordering::SeqCst);
    server.join().unwrap();
    assert_eq!(reply.len(), REPLY_BYTES + 1, "bytes received before EOF");
    assert!(reply[..REPLY_BYTES].iter().all(|&b| b == b'x'));
    assert_eq!(reply[REPLY_BYTES], b'\n');
    assert_eq!(closed.get(), closed_before + 1, "a clean close, not a drop");
}
