//! Pull-based pool federation: N daemons share one logical record pool.
//!
//! Each daemon exposes its shared pool as an append-only segment via the
//! `pool_sync` verb; a puller thread on every peer-configured daemon
//! pages through each peer's segment and merges the records into its own
//! pool. The merge is `append_unique` — dedup by record fingerprint — so
//! every pull is idempotent: re-pulling after a lost cursor, a crash
//! mid-sync, or syncing the same segment in both directions appends
//! nothing new. That single property carries all the failure handling;
//! cursors are a pure optimization and may be lost or reset freely.
//!
//! Per-peer cursors persist best-effort in `<root>/sync_cursors.txt`
//! (plain `offset addr` lines, rewritten via tmp+rename) so a restarted
//! daemon resumes pulling where it left off instead of re-paging
//! everything through the dedup filter.
//!
//! A cursor is an offset into the peer's append order, and it is safe to
//! keep only because that order is one order: the peer's `RecordStore`
//! writes each line and pushes its record under one mutex, so the
//! in-memory order `pool_sync` pages by is the order of the peer's
//! `records.jsonl`, which a restarted peer reads back. Were the two to
//! differ, a record appended concurrently could sit below a cursor after
//! the restart without ever having been served, and be skipped for good.

use std::collections::HashMap;
use std::fs;
use std::path::Path;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use crate::client::{Client, ClientConfig};
use crate::error::ServeError;
use crate::server::Shared;

/// Records per `pool_sync` reply page, keeping one reply one bounded
/// wire line (well under the event loop's line cap).
pub(crate) const SYNC_PAGE: usize = 256;

fn cursors_path(root: &Path) -> std::path::PathBuf {
    root.join("sync_cursors.txt")
}

fn load_cursors(root: &Path) -> HashMap<String, u64> {
    let mut cursors = HashMap::new();
    if let Ok(text) = fs::read_to_string(cursors_path(root)) {
        for line in text.lines() {
            if let Some((off, addr)) = line.split_once(' ') {
                if let Ok(off) = off.parse::<u64>() {
                    cursors.insert(addr.to_string(), off);
                }
            }
        }
    }
    cursors
}

fn save_cursors(root: &Path, cursors: &HashMap<String, u64>) {
    let mut lines: Vec<String> = cursors
        .iter()
        .map(|(addr, off)| format!("{off} {addr}"))
        .collect();
    lines.sort();
    let tmp = root.join("sync_cursors.txt.tmp");
    let body = lines.join("\n") + "\n";
    if fs::write(&tmp, body).is_ok() {
        let _ = fs::rename(&tmp, cursors_path(root));
    }
}

/// The puller thread: one sync round over every peer, then sleep, until
/// shutdown. Spawned only when [`crate::ServeConfig::peers`] is set.
pub(crate) fn sync_loop(shared: &Arc<Shared>) {
    let reg = harl_obs::global();
    let rounds = reg.counter("harl_serve_pool_sync_rounds_total");
    let pulled = reg.counter("harl_serve_pool_sync_records_total{event=\"pulled\"}");
    let merged = reg.counter("harl_serve_pool_sync_records_total{event=\"merged\"}");
    let errors = reg.counter("harl_serve_pool_sync_errors_total");

    let clients: Vec<(String, Client)> = shared
        .cfg
        .peers
        .iter()
        .map(|p| {
            (
                p.clone(),
                Client::with_config(p, ClientConfig::federation()),
            )
        })
        .collect();
    let mut cursors = load_cursors(&shared.cfg.root);

    while !shared.shutdown.load(Ordering::SeqCst) {
        let mut moved = false;
        for (peer, client) in &clients {
            if shared.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let cursor = cursors.entry(peer.clone()).or_insert(0);
            let before = *cursor;
            if let Err(_e) = sync_peer(shared, client, cursor, &pulled, &merged) {
                // a down peer is routine in a fleet: count it and let the
                // next round retry from the same cursor
                errors.inc();
            }
            moved |= *cursor != before;
        }
        rounds.inc();
        if moved {
            save_cursors(&shared.cfg.root, &cursors);
        }
        // sleep in slices so shutdown stays prompt
        let mut slept = Duration::ZERO;
        while slept < shared.cfg.sync_interval && !shared.shutdown.load(Ordering::SeqCst) {
            let step = (shared.cfg.sync_interval - slept).min(Duration::from_millis(25));
            std::thread::sleep(step);
            slept += step;
        }
    }
}

/// Pages one peer's segment from `cursor` to its reported total, merging
/// every record through the fingerprint filter.
fn sync_peer(
    shared: &Arc<Shared>,
    client: &Client,
    cursor: &mut u64,
    pulled: &harl_obs::Counter,
    merged: &harl_obs::Counter,
) -> Result<(), ServeError> {
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return Ok(());
        }
        let Some(pool) = shared.pool_handle() else {
            return Ok(());
        };
        let (total, records) = client.pool_sync(*cursor)?;
        if records.is_empty() {
            if *cursor > total {
                // the peer's segment shrank (crash-repair truncation):
                // restart from zero — dedup makes the re-pull a no-op
                *cursor = 0;
                continue;
            }
            return Ok(());
        }
        pulled.add(records.len() as u64);
        let page = records.len() as u64;
        for record in records {
            if pool.append_unique(record)? {
                merged.inc();
            }
        }
        *cursor += page;
        if *cursor >= total {
            return Ok(());
        }
    }
}
