//! Multi-process coordination for a shared cache directory, built on
//! [`crate::lease`]: the advisory journal lock, the writer-session
//! registry, and per-fingerprint execution claims.
//!
//! # Lock protocol
//!
//! The lock is a lease at `journal.lock` whose content names the holder
//! (`pid`, session `token`, `epoch`). Acquisition publishes it (fsynced
//! temp + atomic hard link), so it either succeeds outright or finds a
//! holder; release is the lease's token-checked drop.
//!
//! # Stale-lock recovery
//!
//! A holder that dies without releasing leaves the lock file behind. A
//! contender that finds the holder dead (or the content unparseable)
//! *steals* the lock by renaming it to a per-contender grave name:
//! exactly one rename succeeds, so exactly one contender performs the
//! takeover, and everyone — winner included — simply re-enters the
//! normal acquisition loop. A live holder is never stolen from;
//! contenders wait until [`LockConfig::timeout`] and then fail with
//! [`LockErrorKind::Timeout`].
//!
//! # Sessions and claims
//!
//! Cooperating journaled executions each hold a *session* lease —
//! `writers/<token>`, holding the PID — so a non-resume opener can tell
//! a live concurrent campaign from a dead cache, and `repro status` can
//! show who is active. While executing, a session *claims* each
//! fingerprint it is about to run (`claims/<fingerprint:016x>`, naming
//! the session's token), so concurrent processes partition the plan
//! dynamically with exactly-once execution: a claim lives exactly as
//! long as its session's lease, a fingerprint claimed by a live session
//! is waited on, not re-run, and a claim whose session died is simply
//! taken over. Claims are created and inspected only under the journal
//! lock, so they are plain writes.

use crate::lease::{self, Lease, LeaseRecord, NEVER_STALE};
use std::fmt;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// File name of the advisory lock inside a cache directory.
pub const LOCK_FILE: &str = "journal.lock";

/// Directory (inside the cache dir) holding one lease per live writer
/// session.
pub const WRITERS_DIR: &str = "writers";

/// Directory (inside the cache dir) holding one file per in-flight
/// execution claim.
pub const CLAIMS_DIR: &str = "claims";

/// Default patience for lock acquisition before giving up.
pub const DEFAULT_LOCK_TIMEOUT: Duration = Duration::from_secs(30);

/// How often a blocked contender re-examines the lock.
const LOCK_POLL: Duration = Duration::from_millis(5);

/// Why a lock operation failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockErrorKind {
    /// A live holder kept the lock past [`LockConfig::timeout`].
    Timeout,
    /// The underlying filesystem operation failed.
    Io,
}

/// A failed lock operation: what kind, where, and why.
#[derive(Debug, Clone)]
pub struct LockError {
    /// Timeout vs. I/O.
    pub kind: LockErrorKind,
    /// The lock file path.
    pub path: PathBuf,
    /// Human-readable cause (for a timeout, includes the holder).
    pub detail: String,
}

impl fmt::Display for LockError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let what = match self.kind {
            LockErrorKind::Timeout => "lock timeout",
            LockErrorKind::Io => "lock I/O failure",
        };
        write!(f, "{what} on {}: {}", self.path.display(), self.detail)
    }
}

impl std::error::Error for LockError {}

/// How to acquire the journal lock: where it lives, who we are, and how
/// long to wait for a live holder.
#[derive(Debug, Clone)]
pub struct LockConfig {
    /// The lock file path (`<cache>/journal.lock`).
    pub path: PathBuf,
    /// Unique session token written into the lock (release checks it, so
    /// a stolen lock is never removed by its previous owner).
    pub token: String,
    /// The code/config epoch, recorded for `repro status`.
    pub epoch: u64,
    /// How long to wait on a live holder before failing with
    /// [`LockErrorKind::Timeout`].
    pub timeout: Duration,
}

impl LockConfig {
    /// Lock configuration for the journal in `dir` held by session
    /// `token` under `epoch`, with the default timeout.
    pub fn for_dir(dir: &Path, token: &str, epoch: u64) -> LockConfig {
        LockConfig {
            path: dir.join(LOCK_FILE),
            token: token.to_string(),
            epoch,
            timeout: DEFAULT_LOCK_TIMEOUT,
        }
    }

    /// Builder-style timeout override.
    pub fn with_timeout(mut self, timeout: Duration) -> LockConfig {
        self.timeout = timeout;
        self
    }
}

/// Holding the journal lock: the lock lease itself. Dropping it
/// releases the lock (token-checked, so a guard that outlived a steal
/// is a no-op).
pub type LockGuard = Lease;

/// Acquire the journal lock described by `config`, waiting on a live
/// holder up to `config.timeout` and stealing from a dead one.
pub fn acquire(config: &LockConfig) -> Result<LockGuard, LockError> {
    let deadline = Instant::now() + config.timeout;
    let body = format!(
        "pid {}\ntoken {}\nepoch {:016x}\n",
        std::process::id(),
        config.token,
        config.epoch
    );
    let mut last_holder = String::new();
    loop {
        let published = Lease::publish(&config.path, &config.token, &body).map_err(|e| LockError {
            kind: LockErrorKind::Io,
            path: config.path.clone(),
            detail: e.to_string(),
        })?;
        if let Some(guard) = published {
            return Ok(guard);
        }
        // Held. A dead or unparseable holder is stolen; either way the
        // next pass retries the publish (someone else may beat us).
        let holder = LeaseRecord::read(&config.path);
        if lease::dead(holder.as_ref(), lease::unix_ms(), NEVER_STALE) {
            lease::steal(&config.path);
        } else if let Ok(content) = std::fs::read_to_string(&config.path) {
            last_holder = content.trim().replace('\n', ", ");
        }
        if Instant::now() >= deadline {
            return Err(LockError {
                kind: LockErrorKind::Timeout,
                path: config.path.clone(),
                detail: format!(
                    "held past the {:?} timeout by a live process ({last_holder})",
                    config.timeout
                ),
            });
        }
        std::thread::sleep(LOCK_POLL);
    }
}

/// Register `token` as a live writer session of the cache in `dir`. The
/// session lasts until the returned lease drops. Call under the journal
/// lock.
pub(crate) fn register_session(dir: &Path, token: &str) -> std::io::Result<Lease> {
    let writers = dir.join(WRITERS_DIR);
    std::fs::create_dir_all(&writers)?;
    let path = writers.join(token);
    Lease::publish(&path, token, &format!("pid {}\n", std::process::id()))?.ok_or_else(|| {
        std::io::Error::new(std::io::ErrorKind::AlreadyExists, "session token already registered")
    })
}

/// Every writer session on file in `dir`, live and stale, token order.
pub(crate) fn sessions(dir: &Path) -> Vec<(String, LeaseRecord)> {
    lease::list(&dir.join(WRITERS_DIR))
}

/// Count of live writer sessions in `dir` other than `token`.
pub(crate) fn live_sessions_except(dir: &Path, token: &str) -> usize {
    sessions(dir)
        .iter()
        .filter(|(name, record)| name != token && !record.is_dead(lease::unix_ms(), NEVER_STALE))
        .count()
}

/// Is the session named by a claim's token still live?
fn session_live(dir: &Path, token: Option<&str>) -> bool {
    let record = token.and_then(|t| LeaseRecord::read(&dir.join(WRITERS_DIR).join(t)));
    !lease::dead(record.as_ref(), lease::unix_ms(), NEVER_STALE)
}

/// Retire crash leftovers: journal-lock debris, dead writer sessions,
/// then every claim whose session is no longer live. Call under the
/// journal lock.
pub(crate) fn sweep_stale(dir: &Path) {
    lease::sweep_debris(dir);
    lease::sweep(&dir.join(WRITERS_DIR), |_, record| {
        record.is_dead(lease::unix_ms(), NEVER_STALE)
    });
    lease::sweep(&dir.join(CLAIMS_DIR), |_, claim| {
        !session_live(dir, claim.token.as_deref())
    });
}

fn claim_path(dir: &Path, fingerprint: u64) -> PathBuf {
    dir.join(CLAIMS_DIR).join(format!("{fingerprint:016x}"))
}

/// Record that session `token` is about to execute `fingerprint`
/// (claiming on top of a dead session's claim takes it over). Call
/// under the journal lock.
pub(crate) fn claim(dir: &Path, fingerprint: u64, token: &str) -> std::io::Result<()> {
    std::fs::create_dir_all(dir.join(CLAIMS_DIR))?;
    std::fs::write(
        claim_path(dir, fingerprint),
        format!("pid {}\ntoken {token}\n", std::process::id()),
    )
}

/// Drop the claim on `fingerprint` (commit or abandonment).
pub(crate) fn release_claim(dir: &Path, fingerprint: u64) {
    let _ = std::fs::remove_file(claim_path(dir, fingerprint));
}

/// Is `fingerprint` claimed by a live session other than `my_token`? A
/// claim whose session died is *not* live — the caller takes it over.
pub(crate) fn claimed_by_other(dir: &Path, fingerprint: u64, my_token: &str) -> bool {
    LeaseRecord::read(&claim_path(dir, fingerprint)).is_some_and(|claim| {
        claim.token.as_deref() != Some(my_token) && session_live(dir, claim.token.as_deref())
    })
}

/// In-flight claims on file in `dir` (live and stale) — `repro status`.
pub(crate) fn claim_count(dir: &Path) -> usize {
    lease::list(&dir.join(CLAIMS_DIR)).len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lease::fresh_token;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    fn fresh_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("interp-lock-test-{tag}-{}", fresh_token()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir
    }

    /// A PID far above any real pid_max, guaranteed dead.
    const DEAD_PID: u32 = 4_000_000_000;

    fn config(dir: &Path, token: &str) -> LockConfig {
        LockConfig::for_dir(dir, token, 7).with_timeout(Duration::from_secs(5))
    }

    fn holder(dir: &Path) -> Option<LeaseRecord> {
        LeaseRecord::read(&dir.join(LOCK_FILE))
    }

    #[test]
    fn acquire_release_round_trips() {
        let dir = fresh_dir("basic");
        let guard = acquire(&config(&dir, "a")).expect("acquire");
        let record = holder(&dir).expect("held");
        assert_eq!(record.pid, std::process::id());
        assert_eq!(record.token.as_deref(), Some("a"));
        assert!(record.pid_live);
        drop(guard);
        assert_eq!(holder(&dir), None, "release must remove the lock");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn live_holder_times_out_contender() {
        let dir = fresh_dir("timeout");
        let _held = acquire(&config(&dir, "holder")).expect("acquire");
        let contender = config(&dir, "contender").with_timeout(Duration::from_millis(50));
        let err = acquire(&contender).expect_err("must time out");
        assert_eq!(err.kind, LockErrorKind::Timeout);
        assert!(err.detail.contains("holder"), "{}", err.detail);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn contender_acquires_after_release() {
        let dir = fresh_dir("contend");
        let guard = acquire(&config(&dir, "first")).expect("acquire");
        let dir2 = dir.clone();
        let waiter = std::thread::spawn(move || acquire(&config(&dir2, "second")));
        std::thread::sleep(Duration::from_millis(40));
        drop(guard);
        let second = waiter.join().expect("join").expect("second acquire");
        drop(second);
        assert_eq!(holder(&dir), None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dead_holder_is_stolen() {
        let dir = fresh_dir("stale");
        std::fs::write(
            dir.join(LOCK_FILE),
            format!("pid {DEAD_PID}\ntoken ghost\nepoch 0000000000000007\n"),
        )
        .expect("plant stale lock");
        let started = Instant::now();
        let guard = acquire(&config(&dir, "taker")).expect("steal stale lock");
        assert!(
            started.elapsed() < Duration::from_secs(2),
            "takeover must not wait for the timeout"
        );
        drop(guard);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unparseable_lock_is_stolen() {
        let dir = fresh_dir("garbage");
        std::fs::write(dir.join(LOCK_FILE), b"not a lock file").expect("plant");
        let guard = acquire(&config(&dir, "taker")).expect("steal garbage lock");
        drop(guard);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn takeover_race_admits_one_holder_at_a_time() {
        let dir = fresh_dir("race");
        std::fs::write(
            dir.join(LOCK_FILE),
            format!("pid {DEAD_PID}\ntoken ghost\n"),
        )
        .expect("plant");
        let inside = Arc::new(AtomicBool::new(false));
        let mut handles = Vec::new();
        for i in 0..4 {
            let dir = dir.clone();
            let inside = Arc::clone(&inside);
            handles.push(std::thread::spawn(move || {
                let guard = acquire(&config(&dir, &format!("racer-{i}"))).expect("acquire");
                assert!(
                    !inside.swap(true, Ordering::SeqCst),
                    "two racers held the lock at once"
                );
                std::thread::sleep(Duration::from_millis(5));
                inside.store(false, Ordering::SeqCst);
                drop(guard);
            }));
        }
        for h in handles {
            h.join().expect("racer");
        }
        assert_eq!(holder(&dir), None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stolen_guard_does_not_remove_new_holder() {
        let dir = fresh_dir("stolen-guard");
        let cfg = config(&dir, "victim");
        let guard = acquire(&cfg).expect("acquire");
        // Simulate a steal: replace the lock with another session's.
        std::fs::write(
            dir.join(LOCK_FILE),
            format!("pid {}\ntoken thief\n", std::process::id()),
        )
        .expect("overwrite");
        drop(guard); // must NOT remove the thief's lock
        let thief = holder(&dir).expect("thief's lock vanished");
        assert_eq!(thief.token.as_deref(), Some("thief"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sessions_register_sweep_and_count() {
        let dir = fresh_dir("sessions");
        let alive = register_session(&dir, "alive-1").expect("register");
        // A stale session: a crashed writer's registration.
        std::fs::write(dir.join(WRITERS_DIR).join("stale-1"), format!("pid {DEAD_PID}\n"))
            .expect("stale");
        assert_eq!(sessions(&dir).len(), 2);
        assert_eq!(live_sessions_except(&dir, "alive-1"), 0);
        assert_eq!(live_sessions_except(&dir, "someone-else"), 1);
        sweep_stale(&dir);
        assert_eq!(sessions(&dir).len(), 1);
        drop(alive);
        assert!(sessions(&dir).is_empty(), "dropping the lease deregisters");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn claims_track_liveness_through_sessions() {
        let dir = fresh_dir("claims");
        let session = register_session(&dir, "worker").expect("register");
        claim(&dir, 0xABCD, "worker").expect("claim");
        assert!(claimed_by_other(&dir, 0xABCD, "other"));
        assert!(!claimed_by_other(&dir, 0xABCD, "worker"), "own claim is not an obstacle");
        assert_eq!(claim_count(&dir), 1);

        // Session ends: the claim goes stale and sweeps away.
        drop(session);
        assert!(!claimed_by_other(&dir, 0xABCD, "other"));
        sweep_stale(&dir);
        assert_eq!(claim_count(&dir), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
