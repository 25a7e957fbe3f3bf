//! The on-disk campaign result store — `campaign.jsonl`.
//!
//! One line per completed design point, appended as soon as the point
//! finishes (so a killed campaign loses at most the in-flight batch), and
//! keyed by the point's stable cache key. Opening the store reads all
//! lines, which is what makes campaigns resumable: points whose key is
//! already present are never simulated again. A run opens its store
//! once and keeps it: later lookups and appends go to the open store
//! (appends to its file too), so a figures run or a halving search
//! reads the file once, and a record another process appends
//! meanwhile is seen by the next open.
//!
//! One read loop, `scan`, serves [`ResultStore::open_with`], [`fsck`],
//! [`salvage`] and [`stats`]; the open then applies its two repairs
//! (truncating a torn tail, restoring a lost final newline). It
//! checksums every line's body where it lies, four lines' FNV-1a chains
//! in lockstep, and parses the fields in place, copying out only the
//! label and the report.
//!
//! Line shape (a strict subset of JSON, hand-emitted and hand-parsed so
//! the crate stays dependency-free):
//!
//! ```text
//! {"key":"<16 hex>","label":"...","graph":"<16 hex>","cycles":N,
//!  "time_s":F,"energy_j":F,"dram_bytes":N,"report":{...},"crc":"<16 hex>"}
//! ```
//!
//! `report` is [`hygcn_core::SimReport::to_json_compact`] verbatim — the
//! stored report of a point is bit-identical to what `hygcn simulate`
//! serializes for the same configuration and workload. `crc` is an
//! FNV-1a checksum of the record without it; legacy lines that predate
//! the field still load (unverified), so existing stores keep working
//! byte-for-byte with no cache invalidation.
//!
//! ## Failure model
//!
//! All file traffic flows through the [`crate::store_io::StoreIo`] seam,
//! which the durability tests replace with a fault injector. The store's
//! contract:
//!
//! * A **torn tail** (kill mid-append: partial last line, no trailing
//!   newline) is truncated away on open; only the in-flight record is
//!   lost.
//! * A damaged line **mid-file** (bit flip, checksum mismatch, partial
//!   overwrite) is *quarantined*, not fatal: the rest of the store loads
//!   and the affected point simply re-runs. [`fsck`] reports damage
//!   read-only; [`salvage`] rewrites the store canonically and sidelines
//!   damaged lines, byte for byte, to `<store>.quarantine`. A line that
//!   is not valid UTF-8 is damaged like any other.
//! * **Transient append errors** are retried with bounded exponential
//!   backoff ([`crate::store_io::RetryPolicy`]); any partial write is
//!   rolled back before the retry so records can never concatenate.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use crate::store_io::{default_sleeper, is_transient, RealIo, RetryPolicy, Sleeper, StoreIo};
use crate::DseError;

/// One completed design point as persisted in the store.
///
/// **Duplicate-key semantics:** the store is append-only, so a salvaged
/// or hand-compacted file may carry several lines with one key. Load
/// resolves these **last-write-wins** — the record appended latest (the
/// line furthest down the file) is the one served — making re-appended
/// records deterministic across open/salvage cycles.
#[derive(Debug, Clone, PartialEq)]
pub struct StoreRecord {
    /// The point's stable cache key.
    pub key: u64,
    /// Human-readable point label (provenance only; the key decides
    /// identity).
    pub label: String,
    /// Content hash of the built graph (provenance).
    pub graph_hash: u64,
    /// Simulated cycles.
    pub cycles: u64,
    /// Simulated seconds.
    pub time_s: f64,
    /// Total dynamic energy in joules.
    pub energy_j: f64,
    /// Total DRAM traffic in bytes.
    pub dram_bytes: u64,
    /// The full report, compact single-line JSON.
    pub report_json: String,
}

/// FNV-1a's offset basis and prime: the same family as the cache key
/// hash, kept local so the record checksum is self-contained.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a_step(h: u64, b: u8) -> u64 {
    (h ^ u64::from(b)).wrapping_mul(FNV_PRIME)
}

/// FNV-1a of `bytes`, continuing from `h`.
fn fnv1a_from(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| fnv1a_step(h, b))
}

/// The checksum stored in a record's `crc` field: FNV-1a of the record
/// line *without* the crc suffix (i.e. of the legacy line shape). It is
/// computed over `body`, the line up to its `,"crc":"` suffix, with the
/// object's closing brace, which the suffix replaced, folded in after.
fn body_checksum(body: &[u8]) -> u64 {
    fnv1a_step(fnv1a_from(FNV_OFFSET, body), b'}')
}

/// FNV-1a of four byte strings, their chains advanced in lockstep over
/// the shortest one's length and finished one by one. One chain waits on
/// each multiply's latency; four independent chains overlap theirs.
fn fnv1a_x4(a: &[u8], b: &[u8], c: &[u8], d: &[u8]) -> [u64; 4] {
    let common = a.len().min(b.len()).min(c.len()).min(d.len());
    let ((a, a_tail), (b, b_tail)) = (a.split_at(common), b.split_at(common));
    let ((c, c_tail), (d, d_tail)) = (c.split_at(common), d.split_at(common));
    let mut h = (FNV_OFFSET, FNV_OFFSET, FNV_OFFSET, FNV_OFFSET);
    for (((&w, &x), &y), &z) in a.iter().zip(b).zip(c).zip(d) {
        h = (
            fnv1a_step(h.0, w),
            fnv1a_step(h.1, x),
            fnv1a_step(h.2, y),
            fnv1a_step(h.3, z),
        );
    }
    [
        fnv1a_from(h.0, a_tail),
        fnv1a_from(h.1, b_tail),
        fnv1a_from(h.2, c_tail),
        fnv1a_from(h.3, d_tail),
    ]
}

/// `,"crc":"` + 16 hex digits + `"}`.
const CRC_TAIL: usize = 8 + 16 + 2;

/// A checksummed line's crc: the body it covers (the line up to the
/// suffix), the value stored in the line and the value computed.
struct Crc<'a> {
    body: &'a str,
    stored: u64,
    computed: u64,
}

/// Splits a checksummed line into its body and the stored crc; `None`
/// for legacy (checksum-less) lines.
fn split_crc(line: &str) -> Option<(&str, u64)> {
    let b = line.as_bytes();
    if b.len() < CRC_TAIL + 2 || !line.ends_with("\"}") {
        return None;
    }
    let cut = b.len() - CRC_TAIL;
    if b.get(cut..cut + 8) != Some(b",\"crc\":\"".as_slice()) {
        return None;
    }
    let hex = std::str::from_utf8(b.get(cut + 8..cut + 24)?).ok()?;
    let crc = u64::from_str_radix(hex, 16).ok()?;
    // `cut` lands on the ASCII `,` of the suffix, so it is a char
    // boundary.
    Some((line.get(..cut)?, crc))
}

/// Each line's [`Crc`] (`None` for a legacy line), the bodies
/// checksummed four at a time.
fn checksum_lines<'a>(lines: &[&'a str]) -> Vec<Option<Crc<'a>>> {
    let mut crcs: Vec<Option<Crc<'a>>> = lines
        .iter()
        .map(|line| {
            split_crc(line).map(|(body, stored)| Crc {
                body,
                stored,
                computed: 0,
            })
        })
        .collect();
    let mut pending: Vec<&mut Crc<'a>> = crcs.iter_mut().flatten().collect();
    let mut quads = pending.chunks_exact_mut(4);
    for quad in &mut quads {
        if let Ok([a, b, c, d]) = <&mut [_; 4]>::try_from(quad) {
            let sums = fnv1a_x4(
                a.body.as_bytes(),
                b.body.as_bytes(),
                c.body.as_bytes(),
                d.body.as_bytes(),
            );
            for (crc, h) in [a, b, c, d].into_iter().zip(sums) {
                crc.computed = fnv1a_step(h, b'}');
            }
        }
    }
    for crc in quads.into_remainder() {
        crc.computed = body_checksum(crc.body.as_bytes());
    }
    crcs
}

impl StoreRecord {
    /// The legacy (pre-checksum) line shape — what old stores hold, and
    /// the byte string the crc covers.
    fn legacy_body(&self) -> String {
        format!(
            "{{\"key\":\"{:016x}\",\"label\":\"{}\",\"graph\":\"{:016x}\",\"cycles\":{},\"time_s\":{:?},\"energy_j\":{:?},\"dram_bytes\":{},\"report\":{}}}",
            self.key,
            escape(&self.label),
            self.graph_hash,
            self.cycles,
            self.time_s,
            self.energy_j,
            self.dram_bytes,
            self.report_json,
        )
    }

    fn to_line(&self) -> String {
        let body = self.legacy_body();
        let trimmed = body.strip_suffix('}').unwrap_or(&body);
        let crc = body_checksum(trimmed.as_bytes());
        format!("{trimmed},\"crc\":\"{crc:016x}\"}}")
    }

    /// Parses a line, verifying its checksum when it carries one (`crc`,
    /// from [`checksum_lines`]); the flag says whether it did (legacy
    /// lines parse unverified).
    fn parse_checked(line: &str, crc: Option<Crc<'_>>) -> Result<(Self, bool), DseError> {
        match crc {
            Some(Crc {
                body,
                stored,
                computed,
            }) => {
                if computed != stored {
                    return Err(DseError::Store(format!(
                        "checksum mismatch (stored {stored:016x}, computed {computed:016x})"
                    )));
                }
                Ok((Self::parse_fields(body, true)?, true))
            }
            None => Ok((Self::parse_fields(line, false)?, false)),
        }
    }

    /// Parses a record's fields out of `text`: a whole legacy line, or,
    /// when `cut`, a checksummed line's body, read as if the closing
    /// brace its crc suffix replaced followed it. Fields are borrowed
    /// from `text`; only the label and the report are copied out.
    fn parse_fields(text: &str, cut: bool) -> Result<Self, DseError> {
        let bad = |what: &str| DseError::Store(what.to_string());
        let key = u64::from_str_radix(
            field_str(text, "\"key\":\"").ok_or_else(|| bad("missing key"))?,
            16,
        )
        .map_err(|_| bad("non-hex key"))?;
        let graph_hash = u64::from_str_radix(
            field_str(text, "\"graph\":\"").ok_or_else(|| bad("missing graph"))?,
            16,
        )
        .map_err(|_| bad("non-hex graph hash"))?;
        let label = unescape(field_str(text, "\"label\":\"").ok_or_else(|| bad("missing label"))?);
        let cycles = field_raw(text, "\"cycles\":", cut)
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| bad("missing cycles"))?;
        let time_s = field_raw(text, "\"time_s\":", cut)
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| bad("missing time_s"))?;
        let energy_j = field_raw(text, "\"energy_j\":", cut)
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| bad("missing energy_j"))?;
        let dram_bytes = field_raw(text, "\"dram_bytes\":", cut)
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| bad("missing dram_bytes"))?;
        // The report object runs to the record's final closing brace:
        // the end of a cut body, the last byte of a legacy line.
        let marker = "\"report\":";
        let at = text.find(marker).ok_or_else(|| bad("missing report"))? + marker.len();
        let report = if cut {
            text.get(at..)
        } else {
            text.get(at..text.len() - 1)
        }
        .ok_or_else(|| bad("malformed report object"))?;
        if !report.starts_with('{') || !report.ends_with('}') {
            return Err(bad("malformed report object"));
        }
        Ok(Self {
            key,
            label,
            graph_hash,
            cycles,
            time_s,
            energy_j,
            dram_bytes,
            report_json: report.to_string(),
        })
    }

    /// The backend id this record's report carries in its provenance;
    /// the cycle and seed reference paths store no provenance marker and
    /// share the `cycle` bucket.
    pub fn backend_id(&self) -> &str {
        let marker = "\"backend\": \"";
        if let Some(at) = self.report_json.find(marker) {
            if let Some(s) = self
                .report_json
                .get(at + marker.len()..)
                .and_then(|rest| rest.find('"').and_then(|end| rest.get(..end)))
            {
                return s;
            }
        }
        "cycle"
    }
}

/// Minimal escaping for labels (backslash, double quote, newline — a
/// raw newline would split the one-record-per-line format).
fn escape(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

fn unescape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.next() {
                Some('n') => out.push('\n'),
                Some(next) => out.push(next),
                None => {}
            }
        } else {
            out.push(c);
        }
    }
    out
}

/// Extracts the string field that follows `marker` (`"name":"`),
/// quote-aware for escapes, still escaped.
fn field_str<'a>(text: &'a str, marker: &str) -> Option<&'a str> {
    let rest = text.get(text.find(marker)? + marker.len()..)?;
    let mut end = 0;
    let bytes = rest.as_bytes();
    while let Some(&b) = bytes.get(end) {
        match b {
            b'\\' => end += 2,
            b'"' => return rest.get(..end),
            _ => end += 1,
        }
    }
    None
}

/// Extracts the bare scalar that follows `marker` (`"name":`), up to
/// `,` or `}`; in a `cut` body, also up to its end, where the closing
/// brace was.
fn field_raw<'a>(text: &'a str, marker: &str, cut: bool) -> Option<&'a str> {
    let rest = text.get(text.find(marker)? + marker.len()..)?;
    match rest.find([',', '}']) {
        Some(end) => rest.get(..end),
        None if cut => Some(rest),
        None => None,
    }
}

/// A damaged store line a tolerant open preserved instead of loading —
/// the line stays on disk untouched until [`salvage`] sidelines it.
#[derive(Debug, Clone, PartialEq)]
pub struct QuarantinedLine {
    /// 1-based line number in the store file.
    pub line_no: usize,
    /// The damaged line, verbatim.
    pub line: String,
    /// Why it failed to load.
    pub reason: String,
}

/// An append-only, keyed store of completed points; optionally backed by
/// a `campaign.jsonl` file reached through a [`StoreIo`] seam.
pub struct ResultStore {
    path: Option<PathBuf>,
    io: Arc<dyn StoreIo>,
    retry: RetryPolicy,
    sleeper: Sleeper,
    records: BTreeMap<u64, StoreRecord>,
    quarantined: Vec<QuarantinedLine>,
}

impl std::fmt::Debug for ResultStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResultStore")
            .field("path", &self.path)
            .field("io", &self.io)
            .field("retry", &self.retry)
            .field("records", &self.records.len())
            .field("quarantined", &self.quarantined.len())
            .finish()
    }
}

impl ResultStore {
    /// A store with no backing file (results live for this process only —
    /// what the legacy `sweep` alias uses).
    pub fn in_memory() -> Self {
        Self {
            path: None,
            io: Arc::new(RealIo),
            retry: RetryPolicy::default(),
            sleeper: default_sleeper(),
            records: BTreeMap::new(),
            quarantined: Vec::new(),
        }
    }

    /// Opens (or creates) a file-backed store over the real filesystem
    /// with the default retry policy. See [`Self::open_with`].
    pub fn open(path: impl AsRef<Path>) -> Result<Self, DseError> {
        Self::open_with(
            path,
            Arc::new(RealIo),
            RetryPolicy::default(),
            default_sleeper(),
        )
    }

    /// Opens (or creates) a file-backed store, loading every existing
    /// record through `io` in the scan [`fsck`] reports from, then
    /// repairing the file's tail. Each quarantined line counts once in
    /// the `quarantined_lines` counter per open.
    ///
    /// Damage tolerance:
    ///
    /// * A campaign killed mid-append leaves a *torn* final line — a
    ///   partial record with no trailing newline. That is exactly the
    ///   state the store exists to recover from, so an unparseable final
    ///   line in a file that does not end with `\n` is discarded (and
    ///   truncated away, so the next append cannot concatenate onto it);
    ///   the point it belonged to simply re-runs.
    /// * Any other damaged line (parse failure or checksum mismatch) is
    ///   **quarantined**: skipped, left on disk, reported via
    ///   [`Self::quarantined`]. The rest of the store loads normally.
    /// * Duplicate keys resolve last-write-wins (see [`StoreRecord`]).
    ///
    /// # Errors
    ///
    /// [`DseError::StoreIo`] when reading the file (or truncating a torn
    /// tail) fails, naming the operation and path.
    pub fn open_with(
        path: impl AsRef<Path>,
        io: Arc<dyn StoreIo>,
        retry: RetryPolicy,
        sleeper: Sleeper,
    ) -> Result<Self, DseError> {
        let _obs = hygcn_obs::span(hygcn_obs::Phase::StoreOpen);
        let path = path.as_ref().to_path_buf();
        let (records, quarantined) = match io
            .read(&path)
            .map_err(|e| DseError::store_io("open", &path, &e))?
        {
            None => (BTreeMap::new(), Vec::new()),
            Some(content) => {
                let scan = scan(&content);
                hygcn_obs::count(
                    hygcn_obs::Counter::QuarantinedLines,
                    scan.report.quarantined.len() as u64,
                );
                if let Some(torn) = scan.torn_line {
                    // Torn tail from a killed append: drop it on disk
                    // too, so future appends start clean.
                    let keep = (content.len() - torn.len()) as u64;
                    io.truncate(&path, keep)
                        .map_err(|e| DseError::store_io("truncate", &path, &e))?;
                } else if scan.unterminated {
                    // A kill that lost *only* the last record's trailing
                    // newline: the record is intact, but the terminator
                    // must be restored before any future append can
                    // concatenate onto it.
                    io.append(&path, b"\n")
                        .map_err(|e| DseError::store_io("repair", &path, &e))?;
                }
                (scan.records, scan.report.quarantined)
            }
        };
        Ok(Self {
            path: Some(path),
            io,
            retry,
            sleeper,
            records,
            quarantined,
        })
    }

    /// The backing file, if any.
    pub fn path(&self) -> Option<&Path> {
        self.path.as_deref()
    }

    /// Number of stored records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the store holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Looks up a completed point by key.
    pub fn get(&self, key: u64) -> Option<&StoreRecord> {
        self.records.get(&key)
    }

    /// Damaged lines the open pass skipped (empty for a healthy store).
    pub fn quarantined(&self) -> &[QuarantinedLine] {
        &self.quarantined
    }

    /// Inserts a record and appends it to the backing file immediately
    /// (streaming: a campaign killed mid-run keeps everything already
    /// appended). Re-inserting an existing key is a no-op.
    ///
    /// Transient write failures retry with the store's
    /// [`RetryPolicy`]; every failed attempt's partial bytes are rolled
    /// back first, so records can never concatenate. (After a hard kill
    /// the rollback fails too — the torn tail then heals on next open.)
    ///
    /// # Errors
    ///
    /// [`DseError::StoreIo`] once retries are exhausted (or immediately
    /// for permanent errors such as a full disk), naming the operation
    /// and path.
    pub fn append(&mut self, rec: StoreRecord) -> Result<(), DseError> {
        if self.records.contains_key(&rec.key) {
            return Ok(());
        }
        if let Some(path) = &self.path {
            let _obs = hygcn_obs::span(hygcn_obs::Phase::StoreAppend);
            let mut line = rec.to_line();
            line.push('\n');
            let mut attempt = 0u32;
            loop {
                attempt += 1;
                let pre = self
                    .io
                    .len(path)
                    .map_err(|e| DseError::store_io("append", path, &e))?;
                match self.io.append(path, line.as_bytes()) {
                    Ok(()) => break,
                    Err(e) => {
                        let _ = self.io.truncate(path, pre);
                        if is_transient(&e) && attempt < self.retry.max_attempts {
                            hygcn_obs::count(hygcn_obs::Counter::StoreRetries, 1);
                            (self.sleeper)(self.retry.delay(attempt));
                            continue;
                        }
                        return Err(DseError::store_io("append", path, &e));
                    }
                }
            }
        }
        self.records.insert(rec.key, rec);
        Ok(())
    }
}

/// What a read-only [`fsck`] scan found.
#[derive(Debug, Clone, PartialEq)]
pub struct FsckReport {
    /// File size in bytes (0 when absent).
    pub bytes: u64,
    /// Non-blank lines scanned.
    pub lines: usize,
    /// Lines that parsed (and, when checksummed, verified).
    pub valid: usize,
    /// Distinct keys among the valid lines.
    pub unique: usize,
    /// Valid lines superseded by a later line with the same key.
    pub duplicates: usize,
    /// Valid lines carrying a verified `crc` field.
    pub checksummed: usize,
    /// Whether the file ends in a torn (unparseable, newline-less) tail.
    pub torn_tail: bool,
    /// Damaged complete lines.
    pub quarantined: Vec<QuarantinedLine>,
}

impl FsckReport {
    /// Whether the store needs no repair.
    pub fn is_clean(&self) -> bool {
        self.quarantined.is_empty() && !self.torn_tail && self.duplicates == 0
    }
}

/// One read of a store's lines: what [`fsck`] reports, the records a
/// load keeps, and the two tail states [`ResultStore::open_with`]
/// repairs.
struct Scan<'a> {
    report: FsckReport,
    records: BTreeMap<u64, StoreRecord>,
    /// The quarantined lines' bytes, in file order.
    damaged: Vec<&'a [u8]>,
    /// The torn tail, when the file ends in one.
    torn_line: Option<&'a [u8]>,
    /// Whether the last line loaded but has no newline.
    unterminated: bool,
}

/// The lines of `content`, split as `str::lines` splits text, each one
/// that is not valid UTF-8 as an `Err` of its bytes. A valid stretch is
/// validated and split at string speed; only a line that holds an
/// invalid byte is searched byte by byte.
fn lines(content: &[u8]) -> Vec<Result<&str, &[u8]>> {
    let mut lines = Vec::new();
    let mut rest = content;
    while !rest.is_empty() {
        let valid = match std::str::from_utf8(rest) {
            Ok(text) => {
                lines.extend(text.lines().map(Ok));
                break;
            }
            Err(e) => e.valid_up_to(),
        };
        // The whole lines before the invalid byte are text.
        let (head, tail) = rest.split_at(valid);
        let start = head.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
        let (text, partial) = head.split_at(start);
        lines.extend(
            std::str::from_utf8(text)
                .unwrap_or_default()
                .lines()
                .map(Ok),
        );
        // The damaged line runs on to the next newline.
        let (end, next) = match tail.iter().position(|&b| b == b'\n') {
            Some(i) => tail.split_at(i),
            None => (tail, Default::default()),
        };
        let line = rest
            .get(start..start + partial.len() + end.len())
            .unwrap_or_default();
        lines.push(Err(match next.is_empty() {
            // An unterminated last line keeps its bytes, as
            // `str::lines` keeps them.
            true => line,
            false => line.strip_suffix(b"\r").unwrap_or(line),
        }));
        rest = next.get(1..).unwrap_or_default();
    }
    lines
}

fn scan(content: &[u8]) -> Scan<'_> {
    let lines = lines(content);
    let terminated = content.ends_with(b"\n");
    let mut report = FsckReport {
        bytes: content.len() as u64,
        lines: 0,
        valid: 0,
        unique: 0,
        duplicates: 0,
        checksummed: 0,
        torn_tail: false,
        quarantined: Vec::new(),
    };
    let mut records: BTreeMap<u64, StoreRecord> = BTreeMap::new();
    let (mut damaged, mut torn_line) = (Vec::new(), None);
    let mut unterminated = false;
    let texts: Vec<&str> = lines.iter().map(|line| line.unwrap_or_default()).collect();
    let crcs = checksum_lines(&texts);
    for (i, (&line, crc)) in lines.iter().zip(crcs).enumerate() {
        if line.is_ok_and(|text| text.trim().is_empty()) {
            continue;
        }
        report.lines += 1;
        let last = i + 1 == lines.len() && !terminated;
        let (bytes, parsed) = match line {
            Ok(text) => (text.as_bytes(), StoreRecord::parse_checked(text, crc)),
            Err(bytes) => (bytes, Err(DseError::Store("not valid UTF-8".into()))),
        };
        match parsed {
            Ok((rec, checksummed)) => {
                report.valid += 1;
                report.checksummed += usize::from(checksummed);
                if records.insert(rec.key, rec).is_some() {
                    report.duplicates += 1;
                }
                unterminated = last;
            }
            Err(_) if last => {
                report.torn_tail = true;
                torn_line = Some(bytes);
            }
            Err(e) => {
                damaged.push(bytes);
                report.quarantined.push(QuarantinedLine {
                    line_no: i + 1,
                    line: String::from_utf8_lossy(bytes).into_owned(),
                    reason: match e {
                        DseError::Store(m) => m,
                        other => other.to_string(),
                    },
                });
            }
        }
    }
    report.unique = records.len();
    Scan {
        report,
        records,
        damaged,
        torn_line,
        unterminated,
    }
}

/// Read-only integrity check of a store file: parses and checksums every
/// line without modifying anything (unlike [`ResultStore::open_with`],
/// which truncates a torn tail). An absent file scans as empty-and-clean.
///
/// # Errors
///
/// [`DseError::StoreIo`] when the file cannot be read.
pub fn fsck(path: &Path, io: &dyn StoreIo) -> Result<FsckReport, DseError> {
    let content = io
        .read(path)
        .map_err(|e| DseError::store_io("open", path, &e))?
        .unwrap_or_default();
    Ok(scan(&content).report)
}

/// What [`salvage`] did.
#[derive(Debug, Clone, PartialEq)]
pub struct SalvageReport {
    /// Records surviving into the rewritten store.
    pub kept: usize,
    /// Damaged lines sidelined to the quarantine file.
    pub dropped: usize,
    /// Duplicate lines collapsed (last-write-wins).
    pub deduplicated: usize,
    /// Where the damaged lines went, when there were any.
    pub quarantine_path: Option<PathBuf>,
}

/// Repairs a store in place: damaged lines (including a torn tail) are
/// appended to `<store>.quarantine`, and the store is rewritten
/// **canonically** — every surviving record checksummed, one line per
/// key in ascending key order. Canonical form makes salvage idempotent
/// (a second run is byte-identical) and a salvaged store deterministic
/// regardless of the append order that produced it. Record keys are
/// untouched, so cached campaigns resume exactly as before.
///
/// An absent file is left absent.
///
/// # Errors
///
/// [`DseError::StoreIo`] when reading, sidelining, or rewriting fails.
pub fn salvage(path: &Path, io: &dyn StoreIo) -> Result<SalvageReport, DseError> {
    let _obs = hygcn_obs::span(hygcn_obs::Phase::StoreCompact);
    let Some(content) = io
        .read(path)
        .map_err(|e| DseError::store_io("open", path, &e))?
    else {
        return Ok(SalvageReport {
            kept: 0,
            dropped: 0,
            deduplicated: 0,
            quarantine_path: None,
        });
    };
    let Scan {
        report,
        records,
        mut damaged,
        torn_line,
        ..
    } = scan(&content);

    damaged.extend(torn_line);
    let mut quarantine_path = None;
    if !damaged.is_empty() {
        let qpath = PathBuf::from(format!("{}.quarantine", path.display()));
        let mut bytes = Vec::new();
        for line in &damaged {
            bytes.extend_from_slice(line);
            bytes.push(b'\n');
        }
        io.append(&qpath, &bytes)
            .map_err(|e| DseError::store_io("append", &qpath, &e))?;
        quarantine_path = Some(qpath);
    }

    let mut canonical = String::new();
    for rec in records.values() {
        canonical.push_str(&rec.to_line());
        canonical.push('\n');
    }
    io.rewrite(path, canonical.as_bytes())
        .map_err(|e| DseError::store_io("rewrite", path, &e))?;
    Ok(SalvageReport {
        kept: records.len(),
        dropped: damaged.len(),
        deduplicated: report.duplicates,
        quarantine_path,
    })
}

/// Summary statistics for `hygcn store stats`.
#[derive(Debug, Clone, PartialEq)]
pub struct StoreStats {
    /// Loadable records (after last-write-wins dedup).
    pub records: usize,
    /// File size in bytes.
    pub bytes: u64,
    /// Records whose line carries a verified checksum.
    pub checksummed: usize,
    /// Damaged lines a tolerant open would skip.
    pub quarantined: usize,
    /// Whether the file ends in a torn tail.
    pub torn_tail: bool,
    /// Record counts per backend id (from report provenance; the cycle
    /// and seed paths store none and share the `cycle` bucket), sorted
    /// by id.
    pub per_backend: Vec<(String, usize)>,
}

/// Read-only store statistics: record/byte counts, per-backend record
/// counts, and damage tallies. An absent file reports all zeros.
///
/// # Errors
///
/// [`DseError::StoreIo`] when the file cannot be read.
pub fn stats(path: &Path, io: &dyn StoreIo) -> Result<StoreStats, DseError> {
    let content = io
        .read(path)
        .map_err(|e| DseError::store_io("open", path, &e))?
        .unwrap_or_default();
    let Scan {
        report, records, ..
    } = scan(&content);
    let mut per_backend: BTreeMap<String, usize> = BTreeMap::new();
    for rec in records.values() {
        *per_backend.entry(rec.backend_id().to_string()).or_insert(0) += 1;
    }
    Ok(StoreStats {
        records: records.len(),
        bytes: report.bytes,
        checksummed: report.checksummed,
        quarantined: report.quarantined.len(),
        torn_tail: report.torn_tail,
        per_backend: per_backend.into_iter().collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store_io::{Fault, FaultPlan, FaultyIo};
    use std::sync::Mutex;
    use std::time::Duration;

    fn rec(key: u64) -> StoreRecord {
        StoreRecord {
            key,
            label: "IB@0.1/GCN/aggbuf-mb=4".into(),
            graph_hash: 0xDEAD_BEEF,
            cycles: 123_456,
            time_s: 1.23456e-4,
            energy_j: 0.00789,
            dram_bytes: 987_654,
            report_json: "{\"cycles\": 123456,\"channels\": 8}".into(),
        }
    }

    /// Parses one line the way a scan does.
    fn parse(line: &str) -> Result<(StoreRecord, bool), DseError> {
        let crc = checksum_lines(&[line]).pop().flatten();
        StoreRecord::parse_checked(line, crc)
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("hygcn-dse-store-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(format!("{}.quarantine", path.display())).ok();
        path
    }

    /// A sleeper that records instead of sleeping — retry tests stay
    /// wall-clock-free.
    fn recording_sleeper() -> (Sleeper, Arc<Mutex<Vec<Duration>>>) {
        let log = Arc::new(Mutex::new(Vec::new()));
        let writer = log.clone();
        let sleeper: Sleeper = Arc::new(move |d| writer.lock().unwrap().push(d));
        (sleeper, log)
    }

    #[test]
    fn record_round_trips_through_its_line() {
        let r = rec(0xABCD);
        let line = r.to_line();
        assert!(!line.contains('\n'));
        // The line is checksummed, and the parser knows it.
        let (parsed, checksummed) = parse(&line).unwrap();
        assert_eq!(parsed, r);
        assert!(checksummed);
    }

    #[test]
    fn lockstep_checksums_equal_one_chain_per_line() {
        // Every count up to two full quads plus a remainder, with labels
        // of unequal lengths, so no quad's bodies are all one length.
        for n in 0..=9 {
            let lines: Vec<String> = (0..n)
                .map(|i| {
                    let mut r = rec(i as u64);
                    r.label = "x".repeat(i * 7 % 5);
                    r.to_line()
                })
                .collect();
            let lines: Vec<&str> = lines.iter().map(String::as_str).collect();
            for (line, crc) in lines.iter().zip(checksum_lines(&lines)) {
                let crc = crc.expect("a checksummed line");
                assert_eq!(crc.computed, crc.stored, "{n} lines: {line}");
                assert_eq!(crc.computed, body_checksum(crc.body.as_bytes()));
            }
        }
        let [e, ab, abc, abcd] = fnv1a_x4(b"", b"a", b"abc", b"abcd");
        assert_eq!(e, FNV_OFFSET);
        assert_eq!(
            [ab, abc, abcd],
            [b"a".as_slice(), b"abc", b"abcd"].map(|s| fnv1a_from(FNV_OFFSET, s))
        );
    }

    #[test]
    fn cut_bodies_parse_as_if_their_brace_followed() {
        // A checksummed body is read in place, without the closing brace
        // its crc suffix replaced: every prefix of a record must parse,
        // or fail with the same reason, as the prefix with the brace
        // appended would as a legacy line.
        let mut r = rec(0xABCD);
        r.label = "odd \"label\" \\".into();
        let legacy = r.legacy_body();
        let body = legacy.strip_suffix('}').unwrap();
        let reason = |parsed: Result<StoreRecord, DseError>| parsed.map_err(|e| e.to_string());
        for cut in (1..=body.len()).filter(|&c| body.is_char_boundary(c)) {
            let prefix = &body[..cut];
            assert_eq!(
                reason(StoreRecord::parse_fields(prefix, true)),
                reason(StoreRecord::parse_fields(&format!("{prefix}}}"), false)),
                "{prefix}"
            );
        }
        assert_eq!(StoreRecord::parse_fields(body, true).unwrap(), r);
    }

    #[test]
    fn legacy_checksum_less_lines_still_parse() {
        let r = rec(0xABCD);
        let legacy = r.legacy_body();
        let (parsed, checksummed) = parse(&legacy).unwrap();
        assert_eq!(parsed, r);
        assert!(!checksummed, "legacy lines load unverified");
    }

    #[test]
    fn flipped_bytes_fail_the_checksum() {
        let line = rec(7).to_line();
        // Flip one digit of the cycles field.
        let flipped = line.replacen("123456", "123457", 1);
        assert_ne!(line, flipped);
        match parse(&flipped) {
            Err(DseError::Store(m)) => assert!(m.contains("checksum mismatch"), "{m}"),
            other => panic!("expected checksum mismatch, got {other:?}"),
        }
    }

    #[test]
    fn labels_with_quotes_round_trip() {
        let mut r = rec(1);
        r.label = "odd \"label\" with \\ backslash".into();
        assert_eq!(parse(&r.to_line()).unwrap().0, r);
    }

    #[test]
    fn backend_id_comes_from_report_provenance() {
        let mut r = rec(1);
        assert_eq!(r.backend_id(), "cycle");
        r.report_json = "{\"cycles\": 5,\"backend\": \"analytical\"}".into();
        assert_eq!(r.backend_id(), "analytical");
    }

    #[test]
    fn file_store_persists_and_reloads() {
        let path = tmp("roundtrip.jsonl");
        {
            let mut store = ResultStore::open(&path).unwrap();
            assert!(store.is_empty());
            store.append(rec(1)).unwrap();
            store.append(rec(2)).unwrap();
            store.append(rec(1)).unwrap(); // duplicate: no-op
            assert_eq!(store.len(), 2);
        }
        let store = ResultStore::open(&path).unwrap();
        assert_eq!(store.len(), 2);
        assert_eq!(store.get(1).unwrap(), &rec(1));
        assert_eq!(store.get(3), None);
        assert!(store.quarantined().is_empty());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_final_newline_is_repaired_so_appends_cannot_fuse() {
        // A kill that lost only the record terminator: the record is
        // whole, so it must survive — and the reopened store must not
        // concatenate the next append onto the unterminated line.
        let path = tmp("no-terminator.jsonl");
        std::fs::write(&path, rec(1).to_line()).unwrap();
        {
            let mut store = ResultStore::open(&path).unwrap();
            assert_eq!(store.len(), 1);
            assert!(store.quarantined().is_empty());
            store.append(rec(2)).unwrap();
        }
        let reopened = ResultStore::open(&path).unwrap();
        assert_eq!(reopened.len(), 2);
        assert!(reopened.quarantined().is_empty());
        assert_eq!(reopened.get(1).unwrap(), &rec(1));
        assert_eq!(reopened.get(2).unwrap(), &rec(2));
        let content = std::fs::read_to_string(&path).unwrap();
        assert_eq!(content.lines().count(), 2);
        assert!(content.ends_with('\n'));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_lines_are_quarantined_not_fatal() {
        let path = tmp("corrupt.jsonl");
        std::fs::write(&path, format!("{{\"key\":\"zz\"}}\n{}\n", rec(4).to_line())).unwrap();
        let store = ResultStore::open(&path).unwrap();
        // The good record loads; the damaged line is preserved on disk
        // and reported.
        assert_eq!(store.len(), 1);
        assert_eq!(store.get(4).unwrap(), &rec(4));
        assert_eq!(store.quarantined().len(), 1);
        assert_eq!(store.quarantined()[0].line_no, 1);
        assert!(std::fs::read_to_string(&path)
            .unwrap()
            .contains("{\"key\":\"zz\"}"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn duplicate_keys_resolve_last_write_wins() {
        let path = tmp("dups.jsonl");
        let mut newer = rec(1);
        newer.cycles = 999;
        std::fs::write(
            &path,
            format!("{}\n{}\n", rec(1).to_line(), newer.to_line()),
        )
        .unwrap();
        let store = ResultStore::open(&path).unwrap();
        assert_eq!(store.len(), 1);
        assert_eq!(store.get(1).unwrap().cycles, 999, "the later line wins");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_final_line_is_discarded_and_truncated() {
        let path = tmp("torn.jsonl");
        // Two complete records plus a torn tail (a kill mid-append: no
        // trailing newline).
        let torn = &rec(3).to_line()[..40];
        std::fs::write(
            &path,
            format!("{}\n{}\n{torn}", rec(1).to_line(), rec(2).to_line()),
        )
        .unwrap();
        let mut store = ResultStore::open(&path).unwrap();
        assert_eq!(store.len(), 2);
        assert!(
            store.quarantined().is_empty(),
            "a torn tail is expected damage"
        );
        // The torn bytes are gone from disk, so a fresh append starts on
        // its own line and the file round-trips cleanly.
        store.append(rec(3)).unwrap();
        let reopened = ResultStore::open(&path).unwrap();
        assert_eq!(reopened.len(), 3);
        assert_eq!(reopened.get(3).unwrap(), &rec(3));
        // A torn line mid-file (followed by a newline) is quarantined,
        // not fatal: the records after it still load.
        std::fs::write(&path, format!("{torn}\n{}\n", rec(1).to_line())).unwrap();
        let mixed = ResultStore::open(&path).unwrap();
        assert_eq!(mixed.len(), 1);
        assert_eq!(mixed.quarantined().len(), 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn labels_with_newlines_round_trip() {
        let mut r = rec(9);
        r.label = "two\nlines".into();
        let line = r.to_line();
        assert!(!line.contains('\n'));
        assert_eq!(parse(&line).unwrap().0, r);
    }

    #[test]
    fn in_memory_store_never_touches_disk() {
        let mut store = ResultStore::in_memory();
        store.append(rec(7)).unwrap();
        assert_eq!(store.path(), None);
        assert_eq!(store.get(7).unwrap().cycles, 123_456);
    }

    #[test]
    fn append_retries_transient_faults_with_backoff() {
        let path = tmp("retry.jsonl");
        let io = Arc::new(FaultyIo::new(FaultPlan {
            faults: vec![
                Fault::TransientAppend { op: 0 },
                Fault::ShortAppend { op: 1, written: 10 },
            ],
        }));
        let (sleeper, slept) = recording_sleeper();
        let retry = RetryPolicy {
            max_attempts: 3,
            base_delay_ms: 10,
        };
        let mut store = ResultStore::open_with(&path, io, retry, sleeper).unwrap();
        // Attempt 1 fails transiently, attempt 2 tears 10 bytes (rolled
        // back), attempt 3 succeeds.
        store.append(rec(1)).unwrap();
        assert_eq!(
            slept.lock().unwrap().as_slice(),
            &[Duration::from_millis(10), Duration::from_millis(20)],
            "deterministic exponential backoff, no wall clock"
        );
        // The rollback kept the file clean: exactly one record, parseable.
        let reopened = ResultStore::open(&path).unwrap();
        assert_eq!(reopened.len(), 1);
        assert_eq!(reopened.get(1).unwrap(), &rec(1));
        assert!(reopened.quarantined().is_empty());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn permanent_append_errors_carry_path_and_operation() {
        let path = tmp("enospc.jsonl");
        let io = Arc::new(FaultyIo::new(FaultPlan {
            faults: vec![Fault::DiskFull { op: 0 }],
        }));
        let (sleeper, slept) = recording_sleeper();
        let mut store = ResultStore::open_with(&path, io, RetryPolicy::default(), sleeper).unwrap();
        match store.append(rec(1)) {
            Err(DseError::StoreIo {
                op,
                path: p,
                transient,
                error,
            }) => {
                assert_eq!(op, "append");
                assert!(p.contains("enospc.jsonl"), "{p}");
                assert!(!transient, "a full disk is not retryable");
                assert!(error.contains("no space left"), "{error}");
            }
            other => panic!("expected StoreIo error, got {other:?}"),
        }
        assert!(
            slept.lock().unwrap().is_empty(),
            "permanent errors never retry"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn fsck_reports_damage_without_modifying_the_file() {
        let path = tmp("fsck.jsonl");
        let mut newer = rec(1);
        newer.cycles = 999;
        let torn = &rec(5).to_line()[..30];
        let content = format!(
            "{}\n{}\nGARBAGE\n{}\n{torn}",
            rec(1).to_line(),
            rec(2).to_line(),
            newer.to_line()
        );
        std::fs::write(&path, &content).unwrap();
        let report = fsck(&path, &RealIo).unwrap();
        assert_eq!((report.lines, report.valid, report.unique), (5, 3, 2));
        assert_eq!(report.duplicates, 1);
        assert_eq!(report.checksummed, 3);
        assert_eq!(report.quarantined.len(), 1);
        assert_eq!(report.quarantined[0].line_no, 3);
        assert!(report.torn_tail);
        assert!(!report.is_clean());
        // Read-only: the file is byte-identical, torn tail included.
        assert_eq!(std::fs::read_to_string(&path).unwrap(), content);

        // A healthy store is clean; an absent one scans empty-and-clean.
        std::fs::write(&path, format!("{}\n", rec(1).to_line())).unwrap();
        assert!(fsck(&path, &RealIo).unwrap().is_clean());
        std::fs::remove_file(&path).ok();
        let absent = fsck(&path, &RealIo).unwrap();
        assert_eq!((absent.bytes, absent.lines), (0, 0));
        assert!(absent.is_clean());
    }

    #[test]
    fn lines_split_like_str_lines_and_keep_invalid_bytes() {
        let text = "a\r\nb\n\nc\r";
        let split: Vec<Result<&str, &[u8]>> = text.lines().map(Ok).collect();
        assert_eq!(lines(text.as_bytes()), split);
        let bytes = b"ok\nbad \xff line\r\nok again\n\xfe torn\r";
        assert_eq!(
            lines(bytes),
            [
                Ok("ok"),
                Err(&b"bad \xff line"[..]),
                Ok("ok again"),
                Err(&b"\xfe torn\r"[..]),
            ]
        );
        assert!(lines(b"").is_empty());
    }

    #[test]
    fn a_line_that_is_not_utf8_is_quarantined_and_sidelined_verbatim() {
        let path = tmp("not-utf8.jsonl");
        let mut bad = rec(2).to_line().into_bytes();
        bad[10] |= 0x80;
        let mut content = Vec::new();
        for line in [
            rec(1).to_line().into_bytes(),
            bad.clone(),
            rec(3).to_line().into_bytes(),
        ] {
            content.extend_from_slice(&line);
            content.push(b'\n');
        }
        std::fs::write(&path, &content).unwrap();
        let report = fsck(&path, &RealIo).unwrap();
        assert_eq!((report.lines, report.valid), (3, 2));
        assert_eq!(report.quarantined.len(), 1);
        assert_eq!(report.quarantined[0].line_no, 2);
        let store = ResultStore::open(&path).unwrap();
        assert_eq!(store.len(), 2);
        assert_eq!(store.quarantined().len(), 1);
        let salvaged = salvage(&path, &RealIo).unwrap();
        assert_eq!((salvaged.kept, salvaged.dropped), (2, 1));
        let qpath = salvaged.quarantine_path.unwrap();
        assert_eq!(std::fs::read(&qpath).unwrap(), [&bad[..], b"\n"].concat());

        // A torn tail that is not UTF-8 is truncated like any other.
        let mut torn = format!("{}\n", rec(1).to_line()).into_bytes();
        let keep = torn.len();
        torn.extend_from_slice(b"{\"key\": \xff");
        std::fs::write(&path, &torn).unwrap();
        assert!(fsck(&path, &RealIo).unwrap().torn_tail);
        assert_eq!(ResultStore::open(&path).unwrap().len(), 1);
        assert_eq!(std::fs::read(&path).unwrap().len(), keep);
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&qpath).ok();
    }

    #[test]
    fn salvage_sidelines_damage_and_rewrites_canonically() {
        let path = tmp("salvage.jsonl");
        let mut newer = rec(2);
        newer.cycles = 999;
        let torn = &rec(5).to_line()[..30];
        // Deliberately out of key order, with damage and a duplicate.
        std::fs::write(
            &path,
            format!(
                "{}\nBROKEN LINE\n{}\n{}\n{torn}",
                rec(2).to_line(),
                rec(1).to_line(),
                newer.to_line()
            ),
        )
        .unwrap();
        let report = salvage(&path, &RealIo).unwrap();
        assert_eq!(
            (report.kept, report.dropped, report.deduplicated),
            (2, 2, 1)
        );
        let qpath = report.quarantine_path.unwrap();
        let sidelined = std::fs::read_to_string(&qpath).unwrap();
        assert!(sidelined.contains("BROKEN LINE"));
        assert!(sidelined.contains(torn));

        // The rewritten store is canonical: key-ordered, checksummed,
        // fully loadable, last-write-wins applied.
        let healed = std::fs::read_to_string(&path).unwrap();
        assert_eq!(
            healed,
            format!("{}\n{}\n", rec(1).to_line(), newer.to_line())
        );
        let store = ResultStore::open(&path).unwrap();
        assert_eq!(store.len(), 2);
        assert_eq!(store.get(2).unwrap().cycles, 999);

        // Idempotent: a second salvage changes nothing and drops nothing.
        let again = salvage(&path, &RealIo).unwrap();
        assert_eq!((again.kept, again.dropped), (2, 0));
        assert_eq!(again.quarantine_path, None);
        assert_eq!(std::fs::read_to_string(&path).unwrap(), healed);
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&qpath).ok();
    }

    #[test]
    fn stats_count_records_bytes_and_backends() {
        let path = tmp("stats.jsonl");
        let mut analytical = rec(9);
        analytical.report_json = "{\"cycles\": 5,\"backend\": \"analytical\"}".into();
        let content = format!(
            "{}\n{}\n{}\nJUNK\n",
            rec(1).to_line(),
            rec(2).to_line(),
            analytical.to_line()
        );
        std::fs::write(&path, &content).unwrap();
        let s = stats(&path, &RealIo).unwrap();
        assert_eq!(s.records, 3);
        assert_eq!(s.bytes, content.len() as u64);
        assert_eq!(s.checksummed, 3);
        assert_eq!(s.quarantined, 1);
        assert!(!s.torn_tail);
        assert_eq!(
            s.per_backend,
            vec![("analytical".to_string(), 1), ("cycle".to_string(), 2)]
        );
        std::fs::remove_file(&path).ok();
    }
}
