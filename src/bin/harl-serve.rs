//! The tuning daemon.
//!
//! ```text
//! harl-serve --root DIR [--addr HOST:PORT] [--workers N] [--queue-cap N]
//!            [--peer HOST:PORT]... [--sync-ms N]
//! ```
//!
//! Recovers and requeues any unfinished jobs found under the root, then
//! binds (`127.0.0.1:0` by default — the resolved address lands in
//! `<root>/serve.addr`) and serves until a `shutdown` request arrives.
//! Each `--peer` names another daemon whose record pool this one pulls
//! and merges into its own every `--sync-ms` milliseconds (federation).
//! The flags are read by [`harl_repro::cli::SERVE`].

use harl_repro::cli;
use harl_serve::Daemon;

fn main() {
    let cfg = cli::SERVE.args();

    let root_display = cfg.root.display().to_string();
    let daemon = match Daemon::start(cfg) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("error: starting daemon: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "harl-serve listening on {} (root {root_display})",
        daemon.addr()
    );
    daemon.wait();
    println!("harl-serve: shutdown complete");
}
