//! The injectable I/O seam under [`crate::store::ResultStore`].
//!
//! Every byte the store reads or writes flows through a [`StoreIo`]
//! object. Production code uses [`RealIo`] (plain `std::fs`); the
//! durability test harness substitutes [`FaultyIo`], which wraps the
//! real implementation and injects faults — short/torn writes, transient
//! errors, a full disk, or a hard kill at an exact byte boundary —
//! according to a deterministic [`FaultPlan`]. Because the plan is data,
//! a crash-point sweep can enumerate *every* interesting failure point
//! and assert the store's recovery contract at each one, with no
//! wall-clock or process spawning involved.
//!
//! The seam must be behavior-preserving: a `FaultyIo` with an empty plan
//! is byte-for-byte identical to `RealIo` (a property test in the crate
//! pins this).

use std::io;
use std::path::Path;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

/// The file operations [`crate::store::ResultStore`] needs, as a seam.
///
/// `append` must be all-or-nothing *from the caller's perspective*: on
/// `Err` the implementation may have written a prefix of `bytes` (a torn
/// write — exactly what a real kill produces), and the store is
/// responsible for rolling that back (via [`StoreIo::truncate`]) or
/// recovering on the next open.
pub trait StoreIo: std::fmt::Debug + Send + Sync {
    /// Reads the whole file's bytes; `Ok(None)` when it does not exist.
    fn read(&self, path: &Path) -> io::Result<Option<Vec<u8>>>;
    /// Current file length in bytes; 0 when the file does not exist.
    fn len(&self, path: &Path) -> io::Result<u64>;
    /// Appends `bytes`, creating the file if needed.
    fn append(&self, path: &Path, bytes: &[u8]) -> io::Result<()>;
    /// Truncates the file to `len` bytes.
    fn truncate(&self, path: &Path, len: u64) -> io::Result<()>;
    /// Atomically replaces the file's contents (write-temp-then-rename).
    fn rewrite(&self, path: &Path, bytes: &[u8]) -> io::Result<()>;
}

/// The production [`StoreIo`]: plain `std::fs`.
#[derive(Debug, Clone, Copy, Default)]
pub struct RealIo;

impl StoreIo for RealIo {
    fn read(&self, path: &Path) -> io::Result<Option<Vec<u8>>> {
        match std::fs::read(path) {
            Ok(s) => Ok(Some(s)),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e),
        }
    }

    fn len(&self, path: &Path) -> io::Result<u64> {
        match std::fs::metadata(path) {
            Ok(m) => Ok(m.len()),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(0),
            Err(e) => Err(e),
        }
    }

    fn append(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        use std::io::Write;
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        file.write_all(bytes)?;
        file.flush()
    }

    fn truncate(&self, path: &Path, len: u64) -> io::Result<()> {
        std::fs::OpenOptions::new()
            .write(true)
            .open(path)?
            .set_len(len)
    }

    fn rewrite(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, bytes)?;
        std::fs::rename(&tmp, path)
    }
}

/// One injected fault. Append operations are numbered from 0 in the
/// order [`FaultyIo`] sees them; byte offsets count the cumulative
/// append stream (bytes successfully persisted by appends).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Append op `op` fails with a *transient* error
    /// (`ErrorKind::Interrupted`) after persisting nothing. A retrying
    /// caller succeeds on the next attempt.
    TransientAppend {
        /// 0-based append-operation index.
        op: usize,
    },
    /// Append op `op` persists only its first `written` bytes, then
    /// fails transiently — a torn write the caller must roll back.
    ShortAppend {
        /// 0-based append-operation index.
        op: usize,
        /// Bytes persisted before the failure.
        written: usize,
    },
    /// Append op `op` fails like a full disk: nothing persisted,
    /// permanent error (retrying cannot help).
    DiskFull {
        /// 0-based append-operation index.
        op: usize,
    },
    /// Hard process death once the cumulative append stream reaches
    /// `byte`: the crossing append persists exactly the bytes below the
    /// boundary, and every subsequent operation (including the rollback
    /// truncate) fails — the torn tail stays on disk, exactly as a real
    /// kill leaves it.
    KillAtByte {
        /// Cumulative appended-byte boundary at which the process dies.
        byte: u64,
    },
}

/// A deterministic fault schedule for [`FaultyIo`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultPlan {
    /// The faults to inject. Op-indexed faults fire when their append
    /// op comes up; [`Fault::KillAtByte`] fires when the append stream
    /// crosses its boundary.
    pub faults: Vec<Fault>,
}

impl FaultPlan {
    /// A plan injecting nothing (the differential-test baseline).
    pub fn none() -> Self {
        Self::default()
    }

    /// A single hard kill at cumulative append byte `byte`.
    pub fn kill_at_byte(byte: u64) -> Self {
        Self {
            faults: vec![Fault::KillAtByte { byte }],
        }
    }

    /// Parses the CLI `--fault-plan` grammar: comma-separated
    /// `kill-at-byte=N`, `transient-append=OP`, `short-append=OP:BYTES`,
    /// `disk-full=OP`.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut faults = Vec::new();
        for part in spec.split(',').filter(|p| !p.trim().is_empty()) {
            let (kind, value) = part
                .split_once('=')
                .ok_or_else(|| format!("fault '{part}' is not KIND=VALUE"))?;
            let bad = |what: &str| format!("fault '{part}': {what}");
            match kind.trim() {
                "kill-at-byte" => faults.push(Fault::KillAtByte {
                    byte: value.parse().map_err(|_| bad("bad byte offset"))?,
                }),
                "transient-append" => faults.push(Fault::TransientAppend {
                    op: value.parse().map_err(|_| bad("bad op index"))?,
                }),
                "disk-full" => faults.push(Fault::DiskFull {
                    op: value.parse().map_err(|_| bad("bad op index"))?,
                }),
                "short-append" => {
                    let (op, written) = value
                        .split_once(':')
                        .ok_or_else(|| bad("expected OP:BYTES"))?;
                    faults.push(Fault::ShortAppend {
                        op: op.parse().map_err(|_| bad("bad op index"))?,
                        written: written.parse().map_err(|_| bad("bad byte count"))?,
                    });
                }
                other => {
                    return Err(format!(
                        "unknown fault kind '{other}' (kill-at-byte/transient-append/\
                         short-append/disk-full)"
                    ))
                }
            }
        }
        Ok(Self { faults })
    }
}

#[derive(Debug, Default)]
struct FaultState {
    /// Append operations attempted so far.
    append_ops: usize,
    /// Bytes successfully persisted by appends so far.
    appended: u64,
    /// Set once a [`Fault::KillAtByte`] fires; everything fails after.
    killed: bool,
}

/// A [`StoreIo`] wrapping [`RealIo`] with deterministic fault injection.
///
/// With an empty [`FaultPlan`] this is behavior- and byte-identical to
/// [`RealIo`]. Thread-safe: the fault state sits behind a mutex, so the
/// op/byte accounting is exact even when campaigns append from worker
/// threads.
#[derive(Debug)]
pub struct FaultyIo {
    inner: RealIo,
    plan: FaultPlan,
    state: Mutex<FaultState>,
}

impl FaultyIo {
    /// A faulty seam executing `plan` over the real filesystem.
    pub fn new(plan: FaultPlan) -> Self {
        Self {
            inner: RealIo,
            plan,
            state: Mutex::new(FaultState::default()),
        }
    }

    /// Whether a [`Fault::KillAtByte`] has fired.
    pub fn is_killed(&self) -> bool {
        // Fault state is plain data — a panic mid-update cannot leave it
        // logically torn, so a poisoned lock is still readable.
        self.state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .killed
    }

    fn dead() -> io::Error {
        io::Error::other("fault injection: process killed")
    }

    fn check_alive(&self) -> io::Result<()> {
        if self.is_killed() {
            Err(Self::dead())
        } else {
            Ok(())
        }
    }
}

impl StoreIo for FaultyIo {
    fn read(&self, path: &Path) -> io::Result<Option<Vec<u8>>> {
        self.check_alive()?;
        self.inner.read(path)
    }

    fn len(&self, path: &Path) -> io::Result<u64> {
        self.check_alive()?;
        self.inner.len(path)
    }

    fn append(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        if state.killed {
            return Err(Self::dead());
        }
        let op = state.append_ops;
        state.append_ops += 1;

        // A kill boundary inside (or at the start of) this append wins
        // over op-indexed faults: the process is dead.
        for f in &self.plan.faults {
            if let Fault::KillAtByte { byte } = *f {
                if !state.killed && state.appended + bytes.len() as u64 > byte {
                    let partial = byte.saturating_sub(state.appended) as usize;
                    if partial > 0 {
                        // partial < bytes.len() by the boundary check
                        // above; fall back to the whole buffer if not.
                        self.inner
                            .append(path, bytes.get(..partial).unwrap_or(bytes))?;
                    }
                    state.appended += partial as u64;
                    state.killed = true;
                    return Err(io::Error::other(format!(
                        "fault injection: killed at append byte {byte}"
                    )));
                }
            }
        }
        for f in &self.plan.faults {
            match *f {
                Fault::TransientAppend { op: o } if o == op => {
                    return Err(io::Error::new(
                        io::ErrorKind::Interrupted,
                        format!("fault injection: transient failure on append op {op}"),
                    ));
                }
                Fault::ShortAppend { op: o, written } if o == op => {
                    let written = written.min(bytes.len());
                    self.inner
                        .append(path, bytes.get(..written).unwrap_or(bytes))?;
                    state.appended += written as u64;
                    return Err(io::Error::new(
                        io::ErrorKind::Interrupted,
                        format!(
                            "fault injection: short write on append op {op} \
                             ({written} of {} bytes)",
                            bytes.len()
                        ),
                    ));
                }
                Fault::DiskFull { op: o } if o == op => {
                    return Err(io::Error::other(format!(
                        "fault injection: no space left on device (append op {op})"
                    )));
                }
                _ => {}
            }
        }
        self.inner.append(path, bytes)?;
        state.appended += bytes.len() as u64;
        Ok(())
    }

    fn truncate(&self, path: &Path, len: u64) -> io::Result<()> {
        self.check_alive()?;
        self.inner.truncate(path, len)
    }

    fn rewrite(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.check_alive()?;
        self.inner.rewrite(path, bytes)
    }
}

/// Whether an I/O error is worth retrying: interruption and timeout
/// kinds are; a full disk, permission problems, and injected kills are
/// not.
pub fn is_transient(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::Interrupted | io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock
    )
}

/// Bounded retry-with-exponential-backoff, shared by store appends and
/// backend evaluations. Purely declarative — delays are executed through
/// an injectable [`Sleeper`], so tests assert the schedule without
/// consuming wall-clock time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts including the first (>= 1).
    pub max_attempts: u32,
    /// Backoff before attempt `n+1` is `base_delay_ms << (n-1)`.
    pub base_delay_ms: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 3,
            base_delay_ms: 10,
        }
    }
}

impl RetryPolicy {
    /// No retries: every failure is final on the first attempt.
    pub fn none() -> Self {
        Self {
            max_attempts: 1,
            base_delay_ms: 0,
        }
    }

    /// The backoff to sleep after failed attempt `attempt` (1-based).
    pub fn delay(&self, attempt: u32) -> Duration {
        let shift = attempt.saturating_sub(1).min(16);
        Duration::from_millis(self.base_delay_ms.saturating_mul(1u64 << shift))
    }
}

/// How retry delays are executed; tests inject a recorder instead of
/// [`std::thread::sleep`].
pub type Sleeper = Arc<dyn Fn(Duration) + Send + Sync>;

/// The production sleeper: [`std::thread::sleep`].
pub fn default_sleeper() -> Sleeper {
    Arc::new(std::thread::sleep)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("hygcn-store-io-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        std::fs::remove_file(&path).ok();
        path
    }

    #[test]
    fn real_io_reads_absent_files_as_none() {
        let path = tmp("absent.jsonl");
        assert_eq!(RealIo.read(&path).unwrap(), None);
        assert_eq!(RealIo.len(&path).unwrap(), 0);
    }

    #[test]
    fn real_io_append_truncate_rewrite_round_trip() {
        let path = tmp("real.jsonl");
        RealIo.append(&path, b"hello ").unwrap();
        RealIo.append(&path, b"world").unwrap();
        assert_eq!(RealIo.read(&path).unwrap().unwrap(), b"hello world");
        RealIo.truncate(&path, 5).unwrap();
        assert_eq!(RealIo.read(&path).unwrap().unwrap(), b"hello");
        RealIo.rewrite(&path, b"replaced").unwrap();
        assert_eq!(RealIo.read(&path).unwrap().unwrap(), b"replaced");
        assert_eq!(RealIo.len(&path).unwrap(), 8);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn kill_at_byte_tears_the_crossing_write_and_poisons_the_rest() {
        let path = tmp("kill.jsonl");
        let io = FaultyIo::new(FaultPlan::kill_at_byte(7));
        io.append(&path, b"12345").unwrap(); // 5 bytes, below the boundary
        let err = io.append(&path, b"67890").unwrap_err(); // crosses at 7
        assert!(err.to_string().contains("killed"), "{err}");
        assert!(io.is_killed());
        // Exactly the bytes below the boundary persisted; the rollback
        // truncate fails too (the process is "dead"), so the torn tail
        // stays — the state a real kill leaves.
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "1234567");
        assert!(io.truncate(&path, 5).is_err());
        assert!(io.append(&path, b"x").is_err());
        assert!(io.read(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn transient_and_short_appends_fail_with_retryable_kinds() {
        let path = tmp("transient.jsonl");
        let io = FaultyIo::new(FaultPlan {
            faults: vec![
                Fault::TransientAppend { op: 0 },
                Fault::ShortAppend { op: 1, written: 3 },
            ],
        });
        let e0 = io.append(&path, b"aaaa").unwrap_err();
        assert!(is_transient(&e0));
        assert_eq!(RealIo.len(&path).unwrap(), 0, "transient writes nothing");
        let e1 = io.append(&path, b"bbbb").unwrap_err();
        assert!(is_transient(&e1));
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "bbb");
        // Op 2 carries no fault: succeeds.
        RealIo.truncate(&path, 0).unwrap();
        io.append(&path, b"cccc").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "cccc");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn disk_full_is_permanent() {
        let path = tmp("enospc.jsonl");
        let io = FaultyIo::new(FaultPlan {
            faults: vec![Fault::DiskFull { op: 0 }],
        });
        let e = io.append(&path, b"data").unwrap_err();
        assert!(!is_transient(&e));
        assert!(e.to_string().contains("no space left"), "{e}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn fault_plan_parses_the_cli_grammar() {
        let plan = FaultPlan::parse("kill-at-byte=120,transient-append=2").unwrap();
        assert_eq!(
            plan.faults,
            vec![
                Fault::KillAtByte { byte: 120 },
                Fault::TransientAppend { op: 2 }
            ]
        );
        let plan = FaultPlan::parse("short-append=1:40,disk-full=0").unwrap();
        assert_eq!(
            plan.faults,
            vec![
                Fault::ShortAppend { op: 1, written: 40 },
                Fault::DiskFull { op: 0 }
            ]
        );
        assert!(FaultPlan::parse("").unwrap().faults.is_empty());
        assert!(FaultPlan::parse("melt-cpu=1").is_err());
        assert!(FaultPlan::parse("kill-at-byte=x").is_err());
        assert!(FaultPlan::parse("short-append=3").is_err());
    }

    #[test]
    fn retry_policy_backoff_doubles_and_saturates() {
        let p = RetryPolicy {
            max_attempts: 4,
            base_delay_ms: 10,
        };
        assert_eq!(p.delay(1), Duration::from_millis(10));
        assert_eq!(p.delay(2), Duration::from_millis(20));
        assert_eq!(p.delay(3), Duration::from_millis(40));
        // Huge attempt numbers must not overflow.
        assert_eq!(p.delay(200), Duration::from_millis(10 << 16));
        assert_eq!(RetryPolicy::none().max_attempts, 1);
    }
}
