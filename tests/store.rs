//! Integrity of the campaign result store, pinned at the root: opening a
//! store checksums and parses every line in place, and tier-1 runs only
//! root tests, so the store's damage handling is pinned here and not
//! only in `hygcn-dse`'s unit tests.
//!
//! * No single-bit flip of a record line loads a changed record: the
//!   line is quarantined (a flip that leaves it invalid UTF-8 too), or
//!   the flip left it meaning the same record.
//! * Legacy lines, escaped labels, duplicate keys, blank lines, a torn
//!   tail and a missing final newline load as they always have.
//! * `fsck` and `open` agree on which lines are valid.

use std::path::{Path, PathBuf};

use hygcn_suite::dse::store::{fsck, ResultStore, StoreRecord};
use hygcn_suite::dse::store_io::RealIo;

/// A fresh directory for one test.
fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("hygcn-store-integrity")
        .join(name);
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn rec(key: u64, label: &str) -> StoreRecord {
    StoreRecord {
        key,
        label: label.to_string(),
        graph_hash: 0x5EED_0000 + key,
        cycles: 1000 + key,
        time_s: 1.5e-6 * key as f64,
        energy_j: 2.25e-3,
        dram_bytes: 4096 * key,
        report_json: format!("{{\"cycles\": {},\"channels\": 8}}", 1000 + key),
    }
}

fn three() -> [StoreRecord; 3] {
    [
        rec(1, "IB@0.1/GCN"),
        rec(2, "CR@0.05/GIN/aggbuf-mb=4"),
        rec(3, "PB@0.5/GSC/t-row=28"),
    ]
}

/// The bytes of a store file holding `records`, appended in order.
fn store_bytes(dir: &Path, records: &[StoreRecord]) -> Vec<u8> {
    let path = dir.join("written.jsonl");
    std::fs::remove_file(&path).ok();
    let mut store = ResultStore::open(&path).unwrap();
    for r in records {
        store.append(r.clone()).unwrap();
    }
    std::fs::read(&path).unwrap()
}

/// Line numbers of the quarantined lines of an open store.
fn quarantined_lines(store: &ResultStore) -> Vec<usize> {
    store.quarantined().iter().map(|q| q.line_no).collect()
}

/// Flips every bit of the second of three record lines, one at a time.
/// Each flip leaves one of two outcomes, counted here and pinned: the
/// line is quarantined (a checksum mismatch, an unparseable line, or a
/// line no longer valid UTF-8); or the original record loads (a hex
/// digit of the crc changed case, which names the same value).
#[test]
fn no_single_bit_flip_of_a_record_line_loads_a_changed_record() {
    let dir = fresh_dir("flips");
    let records = three();
    let clean = store_bytes(&dir, &records);
    let newlines: Vec<usize> = (0..clean.len()).filter(|&i| clean[i] == b'\n').collect();
    assert_eq!(newlines.len(), 3);
    let line = newlines[0] + 1..newlines[1];
    let path = dir.join("flipped.jsonl");
    let (mut quarantined, mut original, mut not_utf8) = (0, 0, 0);
    for at in line.clone() {
        for bit in 0..8 {
            let mut bytes = clean.clone();
            bytes[at] ^= 1 << bit;
            std::fs::write(&path, &bytes).unwrap();
            let checked = fsck(&path, &RealIo);
            match ResultStore::open(&path) {
                Ok(store) => {
                    not_utf8 += usize::from(std::str::from_utf8(&bytes).is_err());
                    // Whatever loads is an original record, and the two
                    // untouched lines always load.
                    let loaded: Vec<&StoreRecord> = records
                        .iter()
                        .filter(|r| store.get(r.key).is_some())
                        .collect();
                    for r in &loaded {
                        assert_eq!(store.get(r.key), Some(*r), "byte {at} bit {bit}");
                    }
                    assert_eq!(store.len(), loaded.len(), "byte {at} bit {bit}");
                    assert!(store.get(1).is_some() && store.get(3).is_some());
                    // fsck and open agree on which lines are valid.
                    let report = checked.unwrap();
                    let flagged: Vec<usize> =
                        report.quarantined.iter().map(|q| q.line_no).collect();
                    assert_eq!(flagged, quarantined_lines(&store), "byte {at} bit {bit}");
                    assert_eq!(report.unique, store.len());
                    assert!(!report.torn_tail);
                    if store.get(2).is_some() {
                        assert!(flagged.is_empty(), "byte {at} bit {bit}");
                        original += 1;
                    } else {
                        assert!(!flagged.is_empty(), "byte {at} bit {bit}");
                        quarantined += 1;
                    }
                }
                Err(e) => panic!("byte {at} bit {bit}: {e}"),
            }
        }
    }
    // Every byte is ASCII, so each one's top-bit flip leaves the line
    // invalid UTF-8, and is quarantined like any other damage; the five
    // letters among the crc's hex digits change case.
    let letters = clean[line.end - 18..line.end - 2]
        .iter()
        .filter(|b| b.is_ascii_alphabetic())
        .count();
    assert_eq!(not_utf8, line.len());
    assert_eq!(original, letters);
    assert_eq!(quarantined, 8 * line.len() - letters);
    assert_eq!(letters, 5, "the pinned store's crc");
}

/// A legacy line (no `crc` field) loads unverified, an escaped label
/// round-trips, duplicate keys resolve last-write-wins and blank lines
/// are skipped, as the store has always read them.
#[test]
fn legacy_escaped_duplicate_and_blank_lines_load_as_before() {
    let dir = fresh_dir("shapes");
    let path = dir.join("store.jsonl");
    let [a, b, c] = three();
    let escaped = rec(4, "odd \"label\" with \\ and\na newline");
    let mut newer = b.clone();
    newer.cycles = 999;
    let legacy = rec(5, "legacy");
    let legacy_line = format!(
        "{{\"key\":\"{:016x}\",\"label\":\"{}\",\"graph\":\"{:016x}\",\"cycles\":{},\"time_s\":{:?},\"energy_j\":{:?},\"dram_bytes\":{},\"report\":{}}}",
        legacy.key,
        legacy.label,
        legacy.graph_hash,
        legacy.cycles,
        legacy.time_s,
        legacy.energy_j,
        legacy.dram_bytes,
        legacy.report_json,
    );
    let older = String::from_utf8(store_bytes(&dir, &[a.clone(), b.clone()])).unwrap();
    let later = String::from_utf8(store_bytes(
        &dir,
        &[c.clone(), escaped.clone(), newer.clone()],
    ))
    .unwrap();
    let content = format!("{older}\n   \n{legacy_line}\n\n{later}");
    std::fs::write(&path, &content).unwrap();

    let report = fsck(&path, &RealIo).unwrap();
    assert_eq!(
        (report.lines, report.valid, report.unique),
        (6, 6, 5),
        "blank lines are not counted"
    );
    assert_eq!((report.duplicates, report.checksummed), (1, 5));
    assert!(report.quarantined.is_empty() && !report.torn_tail);

    let store = ResultStore::open(&path).unwrap();
    assert_eq!(store.len(), 5);
    assert!(store.quarantined().is_empty());
    assert_eq!(store.get(1), Some(&a));
    assert_eq!(store.get(2), Some(&newer), "the later line wins");
    assert_eq!(store.get(3), Some(&c));
    assert_eq!(store.get(4), Some(&escaped));
    assert_eq!(store.get(5), Some(&legacy));
    // Opening a healthy store leaves its file as it was.
    assert_eq!(std::fs::read_to_string(&path).unwrap(), content);
    std::fs::remove_dir_all(&dir).ok();
}

/// A torn tail (a killed append: part of a line, no newline) is dropped
/// from the file on open, and a last record that lost only its newline
/// gets it back; both leave a file the next append cannot fuse onto. A
/// damaged line mid-file is quarantined, and fsck agrees.
#[test]
fn open_truncates_a_torn_tail_and_restores_a_final_newline() {
    let dir = fresh_dir("tails");
    let path = dir.join("store.jsonl");
    let records = three();
    let clean = store_bytes(&dir, &records);

    let torn_rec = store_bytes(&dir, &[rec(9, "torn")]);
    let mut torn = clean.clone();
    torn.extend_from_slice(&torn_rec[..40]);
    std::fs::write(&path, &torn).unwrap();
    let report = fsck(&path, &RealIo).unwrap();
    assert!(report.torn_tail && report.quarantined.is_empty());
    assert_eq!(report.valid, 3);
    let store = ResultStore::open(&path).unwrap();
    assert_eq!(store.len(), 3);
    assert!(
        store.quarantined().is_empty(),
        "a torn tail is expected damage"
    );
    assert_eq!(
        std::fs::read(&path).unwrap(),
        clean,
        "the torn bytes are gone"
    );

    std::fs::write(&path, &clean[..clean.len() - 1]).unwrap();
    let report = fsck(&path, &RealIo).unwrap();
    assert!(!report.torn_tail && report.is_clean());
    let store = ResultStore::open(&path).unwrap();
    assert_eq!(store.len(), 3);
    assert_eq!(std::fs::read(&path).unwrap(), clean, "the newline is back");

    // The torn record's bytes mid-file, newline-terminated, are a
    // damaged line, not a tail.
    let mut mixed = torn_rec[..40].to_vec();
    mixed.push(b'\n');
    mixed.extend_from_slice(&clean);
    std::fs::write(&path, &mixed).unwrap();
    let report = fsck(&path, &RealIo).unwrap();
    let store = ResultStore::open(&path).unwrap();
    assert_eq!(store.len(), 3);
    assert_eq!(quarantined_lines(&store), [1]);
    let flagged: Vec<usize> = report.quarantined.iter().map(|q| q.line_no).collect();
    assert_eq!(flagged, [1]);
    assert!(!report.torn_tail);
    std::fs::remove_dir_all(&dir).ok();
}
