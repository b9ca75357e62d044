//! `records.jsonl` under damage: whatever bytes the file holds,
//! `read_records` and `RecordStore::open` either both fail with a
//! structured `StoreError::Format` (and release the directory lock) or
//! both yield the same records — and then the handle's next append is
//! read back intact, after exactly those records, by a reopen. Neither
//! ever panics.
//!
//! The inputs are the real file a 24-trial HARL session leaves behind,
//! under truncation at every byte class (inside the header, inside a
//! record, either side of a newline, after the final one), bit flips,
//! bytes that are not UTF-8, duplicated / reordered / oversized lines and
//! a header of another version. A cut file must open to a prefix of what
//! was written; shuffled lines to records that were written.

use std::path::PathBuf;
use std::sync::{Arc, OnceLock};

use harl_repro::harl::HarlOperatorTuner;
use harl_repro::prelude::*;
use harl_repro::store::{read_records, MeasureRecord, StoreError};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// What loading one `records.jsonl` came to.
#[derive(Debug)]
enum Outcome {
    /// Both loaders refused the file with this `StoreError::Format` message.
    Refused(String),
    /// Both loaders found these records.
    Opened(Vec<MeasureRecord>),
}

/// A store directory of this process, reloaded once per input.
struct Harness {
    dir: PathBuf,
}

impl Harness {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("harl-stfuzz-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        Harness { dir }
    }

    /// Puts `bytes` where the store keeps its records and checks the
    /// oracle on them.
    fn load(&self, bytes: &[u8]) -> Outcome {
        std::fs::write(self.dir.join("records.jsonl"), bytes).unwrap();
        let format = |e: StoreError| match e {
            StoreError::Format(msg) => msg,
            other => panic!("expected a format error, got {other}"),
        };
        let read = read_records(&self.dir).map_err(format);
        let opened = RecordStore::open(&self.dir).map_err(format);
        let (records, store) = match (read, opened) {
            (Err(read), Err(opened)) => {
                assert_eq!(read, opened, "the two loaders refuse differently");
                // a refusal lets go of the directory
                assert!(matches!(
                    RecordStore::open(&self.dir),
                    Err(StoreError::Format(_))
                ));
                return Outcome::Refused(opened);
            }
            (Ok(records), Ok(store)) => (records, store),
            (read, opened) => panic!(
                "read_records {:?}, open {:?}",
                read.map(|r| r.len()),
                opened.map(|s| s.len())
            ),
        };
        assert!(store.snapshot() == records, "open and read_records differ");
        let next = fixture().next.clone();
        store.append(next.clone()).expect("the disk is healthy");
        drop(store);
        let mut expected = records.clone();
        expected.push(next);
        let reopened = RecordStore::open(&self.dir).expect("an appended store reopens");
        assert!(
            reopened.snapshot() == expected,
            "a reopen found {} records after {} survivors and one append",
            reopened.len(),
            records.len()
        );
        Outcome::Opened(records)
    }
}

impl Drop for Harness {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

struct Fixture {
    /// `records.jsonl` as a 24-trial session wrote it.
    good: Vec<u8>,
    /// The records in it.
    records: Vec<MeasureRecord>,
    /// A record that is not in it, for the append.
    next: MeasureRecord,
}

impl Fixture {
    /// The file's lines, newline included; the header is `lines()[0]`.
    fn lines(&self) -> Vec<&[u8]> {
        self.good.split_inclusive(|&b| b == b'\n').collect()
    }
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let harness = Harness::new("fixture");
        let store = Arc::new(RecordStore::open(&harness.dir).unwrap());
        let measurer = Measurer::new(Hardware::cpu(), MeasureConfig::default());
        let graph = harl_repro::ir::workload::gemm(256, 256, 256);
        let tuner = HarlOperatorTuner::new(graph, &measurer, HarlConfig::tiny());
        let mut session = TuningSession::builder()
            .launch(Box::new(tuner), &measurer, Some(store.clone()))
            .unwrap();
        session.run(24).unwrap();
        drop(session);
        drop(store);
        let good = std::fs::read(harness.dir.join("records.jsonl")).unwrap();
        let mut records = read_records(&harness.dir).unwrap();
        assert!(records.len() >= 24, "{} records", records.len());
        assert_eq!(good.last(), Some(&b'\n'));
        let next = records.pop().expect("at least 24");
        let last_line = good[..good.len() - 1]
            .iter()
            .rposition(|&b| b == b'\n')
            .unwrap();
        Fixture {
            good: good[..=last_line].to_vec(),
            records,
            next,
        }
    })
}

fn refused(outcome: Outcome, what: &str) -> String {
    match outcome {
        Outcome::Refused(msg) => msg,
        Outcome::Opened(records) => panic!("{what} opened to {} records", records.len()),
    }
}

#[test]
fn a_cut_file_opens_to_the_records_written_whole() {
    let fixture = fixture();
    let harness = Harness::new("cuts");
    let good = &fixture.good;
    let header = fixture.lines()[0].len();
    // every cut of the header and of the bytes around a newline, the two
    // ends, and cuts spread over the records
    let mut cuts: Vec<usize> = (0..=header + 2).collect();
    for (at, _) in good.iter().enumerate().filter(|(_, &b)| b == b'\n') {
        cuts.extend([at - 1, at, at + 1, (at + 2).min(good.len())]);
    }
    let mut rng = StdRng::seed_from_u64(0x63757473);
    cuts.extend((0..60).map(|_| rng.gen_range(0..good.len())));
    cuts.push(good.len());
    for cut in cuts {
        // a line counts once its newline is on disk
        let whole = good[..cut].iter().filter(|&&b| b == b'\n').count();
        match harness.load(&good[..cut]) {
            Outcome::Opened(records) => assert!(
                records == fixture.records[..whole.saturating_sub(1)],
                "the first {cut} bytes ({whole} whole lines) opened to {} records",
                records.len()
            ),
            Outcome::Refused(msg) => panic!("the first {cut} bytes were refused: {msg}"),
        }
    }
}

#[test]
fn bytes_that_are_not_text_are_a_format_error() {
    let fixture = fixture();
    let harness = Harness::new("utf8");
    let good = &fixture.good;
    let header = fixture.lines()[0].len();
    // a lone continuation byte, a byte no UTF-8 text holds, and a lead
    // byte whose continuation is missing — in the header, in the first
    // record and in the last
    for at in [3, header + 20, good.len() - 20] {
        for bad in [&[0x80u8][..], &[0xff], &[0xc3, 0x28]] {
            let mut bytes = good.clone();
            bytes.splice(at..at + bad.len(), bad.iter().copied());
            let msg = refused(harness.load(&bytes), "a file that is not UTF-8");
            assert!(msg.contains("UTF-8") || msg.contains("utf-8"), "{msg}");
        }
    }
    // in a torn tail it is part of what the crash left, and goes with it
    let mut bytes = good.clone();
    bytes.extend_from_slice(b"{\"workload\":\"\xff");
    match harness.load(&bytes) {
        Outcome::Opened(records) => assert!(records == fixture.records),
        Outcome::Refused(msg) => panic!("a torn tail was refused: {msg}"),
    }
}

#[test]
fn shuffled_and_oversized_lines_open_to_written_records_or_are_refused() {
    let fixture = fixture();
    let harness = Harness::new("lines");
    let lines = fixture.lines();
    let (header, records) = (lines[0], &lines[1..]);
    let file = |lines: &[&[u8]]| lines.concat();
    let written = |outcome: Outcome, count: usize, what: &str| match outcome {
        Outcome::Opened(found) => {
            assert_eq!(found.len(), count, "{what}");
            assert!(
                found.iter().all(|r| fixture.records.contains(r)),
                "{what}: a record nobody wrote"
            );
        }
        Outcome::Refused(msg) => panic!("{what} was refused: {msg}"),
    };

    // a record twice, two records swapped, all of them backwards: still a
    // header and whole records
    let mut twice = lines.clone();
    twice.insert(3, lines[2]);
    written(
        harness.load(&file(&twice)),
        records.len() + 1,
        "a line twice",
    );
    let mut swapped = lines.clone();
    swapped.swap(1, records.len());
    written(
        harness.load(&file(&swapped)),
        records.len(),
        "two lines swapped",
    );
    let mut backwards = vec![header];
    backwards.extend(records.iter().rev());
    written(
        harness.load(&file(&backwards)),
        records.len(),
        "the records backwards",
    );

    // the header anywhere but first is not a record, and a record is not
    // a header
    let mut second_header = lines.clone();
    second_header.insert(2, header);
    let msg = refused(harness.load(&file(&second_header)), "a second header");
    assert!(msg.contains("line 3"), "{msg}");
    let mut header_last = records.to_vec();
    header_last.push(header);
    let msg = refused(harness.load(&file(&header_last)), "a record first");
    assert!(msg.contains("header"), "{msg}");

    // a megabyte on one line: of padding, of text that is no record, and
    // of brackets the parser must not recurse into
    let padded = [&records[0][..records[0].len() - 1], &[b' '; 1 << 20], b"\n"].concat();
    let mut long = lines.clone();
    long[1] = &padded;
    harness.load(&file(&long));
    for filler in [b'a', b'['] {
        let garbage = [&[filler; 1 << 20][..], b"\n"].concat();
        let mut long = lines.clone();
        long.insert(2, &garbage);
        let msg = refused(harness.load(&file(&long)), "a megabyte of filler");
        assert!(msg.contains("line 3"), "{}", &msg[..msg.len().min(200)]);
    }
}

#[test]
fn a_header_of_another_version_or_format_is_refused_by_name() {
    let fixture = fixture();
    let harness = Harness::new("header");
    let lines = fixture.lines();
    let header = std::str::from_utf8(lines[0]).unwrap();
    assert_eq!(header, "{\"format\":\"harl-store\",\"version\":1}\n");
    let cases = [
        ("version 2", header.replace(":1}", ":2}")),
        ("version 0", header.replace(":1}", ":0}")),
        ("header", header.replace(":1}", ":\"1\"}")),
        ("header", header.replace(":1}", ":-1}")),
        ("header", header.replace(":1}", ":4294967296}")),
        ("header", header.replace(",\"version\":1", "")),
        ("harl-stor`", header.replace("harl-store", "harl-stor")),
    ];
    for (named, first) in cases {
        let mut changed = lines.clone();
        changed[0] = first.as_bytes();
        let msg = refused(harness.load(&changed.concat()), &first);
        assert!(msg.contains(named), "{first}: {msg}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn bit_flipped_files_are_refused_or_open(seed in any::<u64>(), flips in 1usize..4) {
        let good = &fixture().good;
        let harness = Harness::new("flips");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut bytes = good.clone();
        for _ in 0..flips {
            let at = rng.gen_range(0..bytes.len());
            bytes[at] ^= 1u8 << rng.gen_range(0..8u32);
        }
        harness.load(&bytes);
    }
}
