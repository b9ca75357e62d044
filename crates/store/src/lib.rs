//! # harl-store
//!
//! Persistent tuning history: an append-only JSONL [`RecordStore`] of
//! measurement records plus a checkpoint file for interrupted runs.
//!
//! The paper's online cost-model retraining (Sec. 4) assumes the
//! measurement history survives the whole search; this crate makes it
//! survive the *process*. Records are keyed by
//! [`Subgraph::similarity_key`](harl_tensor_ir::Subgraph::similarity_key)
//! so a later run on a structurally similar workload (e.g. a repeated
//! transformer block) can warm-start its cost model and seed its search
//! from the best known schedules.
//!
//! ## On-disk format
//!
//! `<dir>/records.jsonl` — line 1 is a versioned header:
//!
//! ```json
//! {"format":"harl-store","version":1}
//! ```
//!
//! Every following line is one [`MeasureRecord`] as compact JSON. The file
//! is append-only; a torn final line (crash mid-write) is skipped on load.
//!
//! `<dir>/checkpoint.json` — the latest session checkpoint, written
//! atomically (temp file + rename). Content is opaque to this crate; the
//! session layer stores serialized tuner + measurer state there.
//!
//! ## Single-writer locking
//!
//! A store directory has exactly one writer at a time. [`RecordStore::open`]
//! takes an exclusive OS lock on `<dir>/lock` (`File::try_lock`: `flock`
//! on Linux) and fails with [`StoreError::Locked`] while another handle,
//! in this process or another, holds it. The lock lives as long as the
//! handle's open file, so the kernel drops it when the handle drops or the
//! process dies: a crashed writer leaves nothing to reclaim, and the lock
//! file's contents mean nothing. The lock exists so two buffered writers
//! can never interleave partial JSONL lines in the same file.
//!
//! Inside one handle, *appends* are safe from any number of threads. One
//! mutex guards the file writer, the record vector and the fingerprint
//! set, and an append writes its line and pushes its record under it, so
//! the in-memory order (what [`RecordStore::segment`] pages by offset) is
//! the file's order (what a reopen reads). Lock-free readers can use
//! [`read_records`].

use std::collections::HashSet;
use std::fs::{self, File, OpenOptions};
use std::io::{BufWriter, Write};
use std::ops::DerefMut;
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::OnceLock;

use harl_check::{AtomicRole, CAtomicU64, CMutex};
use harl_tensor_ir::Schedule;
use harl_tensor_sim::{MeasureEvent, RecordSink};
use serde::{Deserialize, Serialize};

/// Global store I/O metrics: append volume and checkpoint write cost.
fn store_metrics() -> &'static (harl_obs::Counter, harl_obs::Counter, harl_obs::Histogram) {
    static CELL: OnceLock<(harl_obs::Counter, harl_obs::Counter, harl_obs::Histogram)> =
        OnceLock::new();
    CELL.get_or_init(|| {
        let reg = harl_obs::global();
        (
            reg.counter("harl_store_records_appended_total"),
            reg.counter("harl_store_checkpoint_writes_total"),
            reg.histogram(
                "harl_store_checkpoint_write_seconds",
                harl_obs::SECONDS_BOUNDS,
            ),
        )
    })
}

/// Current on-disk format version (the `version` field of the header).
pub const FORMAT_VERSION: u32 = 1;

const RECORDS_FILE: &str = "records.jsonl";
const CHECKPOINT_FILE: &str = "checkpoint.json";
const LOCK_FILE: &str = "lock";

/// One persisted measurement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MeasureRecord {
    /// Name of the measured subgraph.
    pub workload: String,
    /// Similarity key of the subgraph (anchor iterator shape).
    pub similarity_key: u64,
    /// Sketch index the schedule instantiates.
    pub sketch_id: usize,
    /// Full schedule parameters.
    pub schedule: Schedule,
    /// Measured (noisy) execution time, seconds.
    pub time: f64,
    /// Measured throughput, FLOP/s.
    pub flops_per_sec: f64,
}

impl MeasureRecord {
    /// Stable content fingerprint used for dedup-append when merging
    /// pools across daemons (federation sync). Hashes the record's
    /// canonical compact-JSON serialization with FNV-1a, so two records
    /// are equal-by-fingerprint exactly when they serialize identically —
    /// including the measured time bits, which makes genuinely distinct
    /// measurements of the same schedule distinct records.
    pub fn fingerprint(&self) -> u64 {
        fnv1a(serde_json::to_string(self).unwrap_or_default().as_bytes())
    }
}

/// FNV-1a over a record's compact-JSON line: [`MeasureRecord::fingerprint`],
/// and what an append computes from the line it writes.
fn fnv1a(line: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in line {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[derive(Debug, Serialize, Deserialize)]
struct StoreHeader {
    format: String,
    version: u32,
}

/// Store I/O or format error.
#[derive(Debug)]
pub enum StoreError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// Malformed or incompatible store contents.
    Format(String),
    /// The directory is already owned by another live writer.
    Locked(String),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store I/O error: {e}"),
            StoreError::Format(m) => write!(f, "store format error: {m}"),
            StoreError::Locked(m) => write!(f, "store locked: {m}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// Takes the single-writer lock of the store in `dir`: an exclusive OS
/// lock on `<dir>/lock`, held while the returned file stays open. The
/// kernel releases it when the handle drops or its process dies, so a
/// crashed writer never leaves a lock behind. The file itself is never
/// removed: unlinking it would let a later opener lock a fresh inode while
/// an older handle still holds the old one.
fn lock_dir(dir: &Path) -> Result<File, StoreError> {
    let file = OpenOptions::new()
        .create(true)
        .truncate(false)
        .write(true)
        .open(dir.join(LOCK_FILE))?;
    match file.try_lock() {
        Ok(()) => Ok(file),
        Err(fs::TryLockError::WouldBlock) => Err(StoreError::Locked(format!(
            "{} is open for writing by another handle",
            dir.display()
        ))),
        Err(fs::TryLockError::Error(e)) => Err(e.into()),
    }
}

/// Parses a `records.jsonl` file: header check, then one record per line.
/// A line counts once its newline is on disk: what follows the last
/// newline is the torn tail of a crashed append (of the header's first
/// write, even) and is left out. Returns the records and the length of
/// the part that was parsed, which is where the next append belongs.
/// Bytes that are not text are damage like any other byte a decoder
/// refuses: a `Format` error, not an I/O one.
fn parse_records_file(path: &Path) -> Result<(Vec<MeasureRecord>, u64), StoreError> {
    let mut records = Vec::new();
    if !path.exists() {
        return Ok((records, 0));
    }
    let bytes = fs::read(path)?;
    let whole = bytes.iter().rposition(|&b| b == b'\n').map_or(0, |p| p + 1);
    let text = std::str::from_utf8(&bytes[..whole])
        .map_err(|e| StoreError::Format(format!("bad records file: {e}")))?;
    let mut lines = text.lines().enumerate();
    // no whole line: treated as new
    if let Some((_, first)) = lines.next() {
        let header: StoreHeader = serde_json::from_str(first)
            .map_err(|e| StoreError::Format(format!("bad header line: {e}")))?;
        if header.format != "harl-store" {
            return Err(StoreError::Format(format!(
                "not a harl-store file (format `{}`)",
                header.format
            )));
        }
        if header.version != FORMAT_VERSION {
            return Err(StoreError::Format(format!(
                "unsupported store version {} (supported: {})",
                header.version, FORMAT_VERSION
            )));
        }
        for (i, line) in lines {
            if line.trim().is_empty() {
                continue;
            }
            let record = serde_json::from_str(line)
                .map_err(|e| StoreError::Format(format!("bad record at line {}: {e}", i + 1)))?;
            records.push(record);
        }
    }
    Ok((records, whole as u64))
}

/// Loads a store directory's records without taking the writer lock.
///
/// Safe to call while another handle is appending: a partially written
/// final line is skipped exactly as [`RecordStore::open`] would after a
/// crash. Returns an empty vector for a missing or empty store.
pub fn read_records(dir: impl AsRef<Path>) -> Result<Vec<MeasureRecord>, StoreError> {
    parse_records_file(&dir.as_ref().join(RECORDS_FILE)).map(|(records, _)| records)
}

/// Append-only store of measurement records in a directory.
///
/// Thread-safe: implements [`RecordSink`], so it can be attached to a
/// `Measurer` shared across measurement threads. Write failures after a
/// successful open do not interrupt the search; they are counted in
/// [`RecordStore::dropped_writes`]. The handle owns the directory's
/// single-writer lock until it is dropped.
pub struct RecordStore {
    dir: PathBuf,
    log: CMutex<Log>,
    dropped: CAtomicU64,
    // Held open for its OS lock: see `lock_dir`.
    _lock: File,
}

/// What an append changes, under one mutex: the line goes to the file and
/// the record to the vector in the same critical section, so the vector's
/// order is the file's order (a `segment` offset means the same record
/// before and after a restart).
struct Log {
    writer: BufWriter<File>,
    records: Vec<MeasureRecord>,
    /// Fingerprints of every held record, maintained by both append
    /// paths so [`RecordStore::append_unique`] can dedup across them.
    fingerprints: HashSet<u64>,
}

impl RecordStore {
    /// Opens (or creates) the store in `dir`, loading all existing records
    /// and taking the directory's single-writer lock.
    ///
    /// Fails with [`StoreError::Locked`] while another handle (in this
    /// process or another) owns the directory; a crashed process holds
    /// nothing.
    pub fn open(dir: impl AsRef<Path>) -> Result<Self, StoreError> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        let lock = lock_dir(&dir)?;
        let path = dir.join(RECORDS_FILE);
        let (records, whole) = parse_records_file(&path)?;
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        // Crash repair: the torn tail the parse left out (kill -9
        // mid-append) must also be cut from the file — otherwise the next
        // record would be glued onto the torn bytes, corrupting *that*
        // line too.
        file.set_len(whole)?;
        let mut writer = BufWriter::new(file);
        if whole == 0 {
            let header = StoreHeader {
                format: "harl-store".to_string(),
                version: FORMAT_VERSION,
            };
            writeln!(writer, "{}", serde_json::to_string(&header)?)?;
            writer.flush()?;
        }
        let fingerprints = records.iter().map(MeasureRecord::fingerprint).collect();
        let log = Log {
            writer,
            records,
            fingerprints,
        };
        Ok(RecordStore {
            dir,
            log: CMutex::new("store.log", log),
            dropped: CAtomicU64::new(0, "store.dropped", AtomicRole::Counter),
            _lock: lock,
        })
    }

    /// The directory this store persists into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn log(&self) -> impl DerefMut<Target = Log> + '_ {
        self.log.lock().expect("record store poisoned")
    }

    /// Number of records currently held (loaded + appended).
    pub fn len(&self) -> usize {
        self.log().records.len()
    }

    /// True when the store holds no records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Clone of all records, in append order.
    pub fn snapshot(&self) -> Vec<MeasureRecord> {
        self.log().records.clone()
    }

    /// Clone of the records whose similarity key matches `key`.
    pub fn matching(&self, key: u64) -> Vec<MeasureRecord> {
        self.log()
            .records
            .iter()
            .filter(|r| r.similarity_key == key)
            .cloned()
            .collect()
    }

    /// Appends one record to disk and to the in-memory view.
    pub fn append(&self, record: MeasureRecord) -> Result<(), StoreError> {
        self.append_inner(record, false).map(|_| ())
    }

    /// Appends `record` unless an identical record (by
    /// [`MeasureRecord::fingerprint`]) is already held. Returns `true`
    /// when the record was actually appended. This is the federation
    /// merge primitive: replaying the same pool segment any number of
    /// times, in any direction, leaves the store's contents unchanged.
    pub fn append_unique(&self, record: MeasureRecord) -> Result<bool, StoreError> {
        self.append_inner(record, true)
    }

    /// Serializes `record` once, then under the one mutex records its
    /// fingerprint, writes the line and pushes the record. With `unique`,
    /// a record whose fingerprint is already held is skipped (`false`).
    fn append_inner(&self, record: MeasureRecord, unique: bool) -> Result<bool, StoreError> {
        let line = serde_json::to_string(&record)?;
        let fp = fnv1a(line.as_bytes());
        let mut log = self.log();
        let fresh = log.fingerprints.insert(fp);
        if unique && !fresh {
            return Ok(false);
        }
        if let Err(e) = writeln!(log.writer, "{line}").and_then(|()| log.writer.flush()) {
            // the record never landed: forget its fingerprint so a retry
            // (e.g. the next sync round) is not silently deduped away
            if fresh {
                log.fingerprints.remove(&fp);
            }
            return Err(e.into());
        }
        log.records.push(record);
        drop(log);
        store_metrics().0.inc();
        Ok(true)
    }

    /// One page of the store viewed as an append-only segment: up to
    /// `max` records starting at append-order offset `from`, plus the
    /// current total. Offsets past the end return an empty page. This is
    /// what the `pool_sync` wire verb serves: a puller advances its
    /// cursor by the page length until it reaches `total`.
    pub fn segment(&self, from: u64, max: usize) -> (u64, Vec<MeasureRecord>) {
        let log = self.log();
        let total = log.records.len() as u64;
        let start = (from.min(total)) as usize;
        let end = (start + max).min(log.records.len());
        (total, log.records[start..end].to_vec())
    }

    /// Records silently dropped because a disk append failed.
    pub fn dropped_writes(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Atomically writes a session checkpoint (opaque JSON payload).
    pub fn save_checkpoint(&self, json: &str) -> Result<(), StoreError> {
        let t = std::time::Instant::now();
        let tmp = self.dir.join(format!("{CHECKPOINT_FILE}.tmp"));
        fs::write(&tmp, json)?;
        fs::rename(&tmp, self.dir.join(CHECKPOINT_FILE))?;
        let (_, writes, seconds) = store_metrics();
        writes.inc();
        seconds.observe(t.elapsed().as_secs_f64());
        Ok(())
    }

    /// The latest session checkpoint, if one was written. Bytes that are
    /// not text are damage to the file's contents, like any other byte a
    /// decoder refuses: a `Format` error, not an I/O one.
    pub fn load_checkpoint(&self) -> Result<Option<String>, StoreError> {
        let path = self.dir.join(CHECKPOINT_FILE);
        if !path.exists() {
            return Ok(None);
        }
        String::from_utf8(fs::read(path)?)
            .map(Some)
            .map_err(|e| StoreError::Format(format!("bad checkpoint: {e}")))
    }

    /// Removes a previously written checkpoint (e.g. after a completed
    /// run), and the partial temp file of a write that was killed or
    /// failed before its rename.
    pub fn clear_checkpoint(&self) -> Result<(), StoreError> {
        for name in [CHECKPOINT_FILE, &format!("{CHECKPOINT_FILE}.tmp")] {
            match fs::remove_file(self.dir.join(name)) {
                Err(e) if e.kind() != std::io::ErrorKind::NotFound => return Err(e.into()),
                _ => {}
            }
        }
        Ok(())
    }
}

impl From<serde_json::Error> for StoreError {
    fn from(e: serde_json::Error) -> Self {
        StoreError::Format(e.to_string())
    }
}

impl RecordSink for RecordStore {
    fn record(&self, ev: &MeasureEvent<'_>) {
        let rec = MeasureRecord {
            workload: ev.workload.to_string(),
            similarity_key: ev.similarity_key,
            sketch_id: ev.schedule.sketch_id,
            schedule: ev.schedule.clone(),
            time: ev.time,
            flops_per_sec: ev.flops_per_sec,
        };
        if self.append(rec).is_err() {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// The best (lowest measured time) record per distinct schedule, sorted
/// ascending by time. Used to pick warm-start seeds.
pub fn best_records(records: &[MeasureRecord], limit: usize) -> Vec<MeasureRecord> {
    let mut sorted: Vec<&MeasureRecord> = records
        .iter()
        .filter(|r| r.time.is_finite() && r.time > 0.0)
        .collect();
    sorted.sort_by(|a, b| a.time.total_cmp(&b.time));
    let mut seen = std::collections::HashSet::new();
    let mut out = Vec::new();
    for r in sorted {
        if seen.insert(r.schedule.dedup_key()) {
            out.push(r.clone());
            if out.len() == limit {
                break;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use harl_tensor_ir::{generate_sketches, workload, Target};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    pub(super) fn sample_records(n: usize) -> Vec<MeasureRecord> {
        let g = workload::gemm(64, 64, 64);
        let sketches = generate_sketches(&g, Target::Cpu);
        let sk = &sketches[0];
        let mut rng = StdRng::seed_from_u64(11);
        let base = Schedule::random(sk, Target::Cpu, &mut rng);
        (0..n)
            .map(|i| {
                let mut s = base.clone();
                s.unroll_idx = i % 2;
                MeasureRecord {
                    workload: g.name.clone(),
                    similarity_key: g.similarity_key(),
                    sketch_id: s.sketch_id,
                    schedule: s,
                    time: 1e-3 * (n - i) as f64,
                    flops_per_sec: 1e9 * (i + 1) as f64,
                }
            })
            .collect()
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("harl-store-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn round_trip_identical_records() {
        let dir = tmp_dir("roundtrip");
        let recs = sample_records(5);
        {
            let store = RecordStore::open(&dir).unwrap();
            for r in &recs {
                store.append(r.clone()).unwrap();
            }
        }
        let reloaded = RecordStore::open(&dir).unwrap();
        assert_eq!(reloaded.snapshot(), recs);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn header_is_versioned_and_checked() {
        let dir = tmp_dir("header");
        {
            RecordStore::open(&dir).unwrap();
        }
        let path = dir.join("records.jsonl");
        let text = fs::read_to_string(&path).unwrap();
        assert!(text.starts_with("{\"format\":\"harl-store\",\"version\":1}"));
        fs::write(&path, "{\"format\":\"harl-store\",\"version\":99}\n").unwrap();
        assert!(matches!(
            RecordStore::open(&dir),
            Err(StoreError::Format(_))
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_final_line_is_skipped() {
        let dir = tmp_dir("torn");
        let recs = sample_records(3);
        {
            let store = RecordStore::open(&dir).unwrap();
            for r in &recs {
                store.append(r.clone()).unwrap();
            }
        }
        let path = dir.join("records.jsonl");
        let mut text = fs::read_to_string(&path).unwrap();
        text.truncate(text.len() - 10); // tear the last record mid-JSON
        fs::write(&path, &text).unwrap();
        let reloaded = RecordStore::open(&dir).unwrap();
        assert_eq!(reloaded.snapshot(), recs[..2].to_vec());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn matching_filters_by_key() {
        let dir = tmp_dir("matching");
        let store = RecordStore::open(&dir).unwrap();
        let mut recs = sample_records(4);
        recs[3].similarity_key = 0xdead;
        for r in &recs {
            store.append(r.clone()).unwrap();
        }
        assert_eq!(store.matching(recs[0].similarity_key).len(), 3);
        assert_eq!(store.matching(0xdead).len(), 1);
        assert_eq!(store.matching(0x1234).len(), 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_save_load_clear() {
        let dir = tmp_dir("ckpt");
        let store = RecordStore::open(&dir).unwrap();
        assert!(store.load_checkpoint().unwrap().is_none());
        store.save_checkpoint("{\"round\":3}").unwrap();
        assert_eq!(
            store.load_checkpoint().unwrap().as_deref(),
            Some("{\"round\":3}")
        );
        store.save_checkpoint("{\"round\":4}").unwrap();
        assert_eq!(
            store.load_checkpoint().unwrap().as_deref(),
            Some("{\"round\":4}")
        );
        store.clear_checkpoint().unwrap();
        assert!(store.load_checkpoint().unwrap().is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn clearing_removes_the_tmp_file_of_an_unfinished_write() {
        let dir = tmp_dir("ckpt-tmp");
        let store = RecordStore::open(&dir).unwrap();
        let tmp = dir.join("checkpoint.json.tmp");
        // a write killed before its rename, over an earlier checkpoint
        store.save_checkpoint("{\"round\":3}").unwrap();
        fs::write(&tmp, "{\"rou").unwrap();
        store.clear_checkpoint().unwrap();
        assert!(store.load_checkpoint().unwrap().is_none());
        assert!(!tmp.exists(), "the partial write outlived the job");
        // the tmp file alone, as a resumed job that never wrote leaves it
        fs::write(&tmp, "{").unwrap();
        store.clear_checkpoint().unwrap();
        assert!(!tmp.exists());
        // and nothing at all is no error
        store.clear_checkpoint().unwrap();
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn second_writer_is_rejected_while_locked() {
        let dir = tmp_dir("locked");
        let first = RecordStore::open(&dir).unwrap();
        assert!(matches!(
            RecordStore::open(&dir),
            Err(StoreError::Locked(_))
        ));
        drop(first);
        // the lock dies with the handle
        let again = RecordStore::open(&dir).unwrap();
        drop(again);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_lock_from_dead_process_is_stolen() {
        let dir = tmp_dir("stale");
        fs::create_dir_all(&dir).unwrap();
        // u32::MAX exceeds any real pid_max, so the holder is provably dead
        fs::write(dir.join("lock"), format!("{}\n", u32::MAX)).unwrap();
        let store = RecordStore::open(&dir).expect("stale lock must be reclaimed");
        drop(store);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn unreadable_lock_file_is_treated_as_stale() {
        let dir = tmp_dir("garbage-lock");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("lock"), "not a pid").unwrap();
        let store = RecordStore::open(&dir).unwrap();
        drop(store);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_appends_never_interleave_corrupt_lines() {
        use std::sync::Arc;

        const THREADS: usize = 8;
        const PER_THREAD: usize = 50;
        let dir = tmp_dir("stress");
        let recs = sample_records(2);
        {
            let store = Arc::new(RecordStore::open(&dir).unwrap());
            std::thread::scope(|scope| {
                for t in 0..THREADS {
                    let store = store.clone();
                    let rec = recs[t % recs.len()].clone();
                    let dir = &dir;
                    scope.spawn(move || {
                        for i in 0..PER_THREAD {
                            let mut r = rec.clone();
                            r.time = 1e-3 + (t * PER_THREAD + i) as f64 * 1e-6;
                            // a second handle can never race this append:
                            // opening one fails while the lock is held
                            assert!(matches!(RecordStore::open(dir), Err(StoreError::Locked(_))));
                            store.append(r).unwrap();
                        }
                    });
                }
            });
            assert_eq!(store.len(), THREADS * PER_THREAD);
            assert_eq!(store.dropped_writes(), 0);
        }
        // a reopen parses every line; any interleaved partial write would
        // surface as StoreError::Format
        let reloaded = RecordStore::open(&dir).unwrap();
        assert_eq!(reloaded.len(), THREADS * PER_THREAD);
        let lockfree = read_records(&dir).unwrap();
        assert_eq!(lockfree.len(), THREADS * PER_THREAD);
        drop(reloaded);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn read_records_is_lock_free_and_tolerates_missing_dir() {
        let dir = tmp_dir("readonly");
        assert!(read_records(&dir).unwrap().is_empty());
        let store = RecordStore::open(&dir).unwrap();
        for r in sample_records(3) {
            store.append(r).unwrap();
        }
        // store handle still alive and holding the lock
        assert_eq!(read_records(&dir).unwrap().len(), 3);
        drop(store);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn fingerprint_distinguishes_records_and_is_stable() {
        let recs = sample_records(3);
        assert_eq!(recs[0].fingerprint(), recs[0].clone().fingerprint());
        assert_ne!(recs[0].fingerprint(), recs[1].fingerprint());
        let mut tweaked = recs[0].clone();
        tweaked.time += 1e-9;
        assert_ne!(
            recs[0].fingerprint(),
            tweaked.fingerprint(),
            "distinct measured times are distinct records"
        );
    }

    #[test]
    fn append_unique_dedups_against_both_append_paths() {
        let dir = tmp_dir("unique");
        let recs = sample_records(3);
        {
            let store = RecordStore::open(&dir).unwrap();
            store.append(recs[0].clone()).unwrap();
            assert!(!store.append_unique(recs[0].clone()).unwrap());
            assert!(store.append_unique(recs[1].clone()).unwrap());
            assert!(!store.append_unique(recs[1].clone()).unwrap());
            assert_eq!(store.len(), 2);
        }
        // fingerprints are rebuilt from disk on reopen
        let store = RecordStore::open(&dir).unwrap();
        assert!(!store.append_unique(recs[0].clone()).unwrap());
        assert!(store.append_unique(recs[2].clone()).unwrap());
        assert_eq!(store.len(), 3);
        drop(store);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn segment_pages_through_append_order() {
        let dir = tmp_dir("segment");
        let store = RecordStore::open(&dir).unwrap();
        let recs = sample_records(5);
        for r in &recs {
            store.append(r.clone()).unwrap();
        }
        let (total, page) = store.segment(0, 2);
        assert_eq!(total, 5);
        assert_eq!(page, recs[0..2].to_vec());
        let (_, page) = store.segment(2, 2);
        assert_eq!(page, recs[2..4].to_vec());
        let (_, page) = store.segment(4, 2);
        assert_eq!(page, recs[4..5].to_vec());
        let (total, page) = store.segment(99, 2);
        assert_eq!((total, page.len()), (5, 0), "past-the-end page is empty");
        drop(store);
        let _ = fs::remove_dir_all(&dir);
    }

    /// Replays every record of `src` into `dst` with dedup-append, the
    /// way a federation pull merges a peer's pool segment.
    fn merge_all(src: &RecordStore, dst: &RecordStore) -> usize {
        let (total, _) = src.segment(0, 0);
        let mut cursor = 0u64;
        let mut appended = 0;
        while cursor < total {
            let (_, page) = src.segment(cursor, 2);
            cursor += page.len() as u64;
            for r in page {
                if dst.append_unique(r).unwrap() {
                    appended += 1;
                }
            }
        }
        appended
    }

    #[test]
    fn double_sync_in_either_direction_is_idempotent_and_bit_identical() {
        let dir_a = tmp_dir("fed-a");
        let dir_b = tmp_dir("fed-b");
        let recs = sample_records(6);
        let a = RecordStore::open(&dir_a).unwrap();
        let b = RecordStore::open(&dir_b).unwrap();
        for r in &recs[..4] {
            a.append(r.clone()).unwrap();
        }
        // b holds a disjoint tail plus one overlap with a
        b.append(recs[3].clone()).unwrap();
        for r in &recs[4..] {
            b.append(r.clone()).unwrap();
        }

        // first pass merges both directions; both converge to 6 records
        assert_eq!(merge_all(&a, &b), 3);
        assert_eq!(merge_all(&b, &a), 2);
        assert_eq!((a.len(), b.len()), (6, 6));
        let bytes_a = fs::read(dir_a.join("records.jsonl")).unwrap();
        let bytes_b = fs::read(dir_b.join("records.jsonl")).unwrap();

        // replaying the same segments again, in either order, appends
        // nothing and leaves both files bit-identical
        assert_eq!(merge_all(&a, &b), 0);
        assert_eq!(merge_all(&b, &a), 0);
        assert_eq!(merge_all(&b, &a), 0);
        assert_eq!(merge_all(&a, &b), 0);
        assert_eq!(fs::read(dir_a.join("records.jsonl")).unwrap(), bytes_a);
        assert_eq!(fs::read(dir_b.join("records.jsonl")).unwrap(), bytes_b);
        // both pools hold the same multiset (same order here: append order
        // is a's records then b's tail on both sides after the first pass)
        assert_eq!(a.snapshot().len(), 6);
        assert_eq!(b.snapshot().len(), 6);

        drop(a);
        drop(b);
        let _ = fs::remove_dir_all(&dir_a);
        let _ = fs::remove_dir_all(&dir_b);
    }

    #[test]
    fn torn_pool_after_crash_mid_sync_is_readable_and_resyncable() {
        let dir_a = tmp_dir("crash-a");
        let dir_b = tmp_dir("crash-b");
        let recs = sample_records(4);
        {
            let a = RecordStore::open(&dir_a).unwrap();
            for r in &recs {
                a.append(r.clone()).unwrap();
            }
            let b = RecordStore::open(&dir_b).unwrap();
            merge_all(&a, &b);
        }
        // simulate kill -9 mid-append on b: tear its last line
        let path_b = dir_b.join("records.jsonl");
        let mut text = fs::read_to_string(&path_b).unwrap();
        text.truncate(text.len() - 7);
        fs::write(&path_b, &text).unwrap();

        // both pools reopen cleanly; re-syncing repairs b bit-for-bit
        let a = RecordStore::open(&dir_a).unwrap();
        let b = RecordStore::open(&dir_b).unwrap();
        assert_eq!(b.len(), 3, "torn record dropped, rest intact");
        assert_eq!(merge_all(&a, &b), 1, "resync re-pulls only the torn one");
        assert_eq!(b.snapshot().len(), 4);
        // a second resync is a no-op: recovery converged
        assert_eq!(merge_all(&a, &b), 0);
        let reread = read_records(&dir_b).unwrap();
        assert_eq!(reread.len(), 4);
        drop(a);
        drop(b);
        let _ = fs::remove_dir_all(&dir_a);
        let _ = fs::remove_dir_all(&dir_b);
    }

    #[test]
    fn best_records_sorted_and_deduped() {
        let recs = sample_records(6);
        let best = best_records(&recs, 4);
        // sample_records reuses only two distinct schedules (unroll_idx 0/1)
        assert_eq!(best.len(), 2);
        assert!(best[0].time <= best[1].time);
    }
}

/// Appends under the schedule explorer (`--cfg harl_check` builds only):
/// the real `append`, every schedule up to two preemptions.
#[cfg(all(test, harl_check))]
mod explore {
    use super::*;
    use harl_check::model::{self, spawn};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    /// A fresh directory per run, removed when dropped (a failing run
    /// unwinds through it).
    struct RunDir(PathBuf);

    impl Drop for RunDir {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.0);
        }
    }

    /// Two threads append one record each through one handle; whatever
    /// the order, memory must hold the records in the file's order.
    fn two_appenders() {
        static RUNS: AtomicUsize = AtomicUsize::new(0);
        let n = RUNS.fetch_add(1, Ordering::Relaxed);
        let dir = RunDir(
            std::env::temp_dir().join(format!("harl-store-append-{}-{n}", std::process::id())),
        );
        let store = Arc::new(RecordStore::open(&dir.0).unwrap());
        let appenders: Vec<_> = tests::sample_records(2)
            .into_iter()
            .map(|r| {
                let store = store.clone();
                spawn(move || store.append(r).unwrap())
            })
            .collect();
        for a in appenders {
            a.join();
        }
        assert_eq!(
            store.snapshot(),
            read_records(&dir.0).unwrap(),
            "memory order differs from file order"
        );
    }

    #[test]
    fn two_appenders_leave_memory_in_file_order() {
        let started = std::time::Instant::now();
        let report = model::check("store.log/append-order", two_appenders);
        eprintln!("{report:?} in {:?}", started.elapsed());
        assert!(report.passed(), "{report:?}");
    }
}
