//! The one lease primitive behind every piece of shared-cache
//! coordination: the journal lock, writer sessions, execution claims,
//! and serve-fleet membership.
//!
//! A *lease* is a small file whose existence is the claim and whose
//! `key value` lines name the holder (`pid`, `token`). It is owned by
//! its token and bounded in time by its holder's liveness — Gray &
//! Cheriton's leases (SOSP 1989), on a shared filesystem:
//!
//! * **publish** writes the body to an fsynced temp file and hard-links
//!   it into place. Link creation is atomic and fails if the path
//!   exists, so a file already there means "held", and no reader can
//!   ever observe a half-written lease.
//! * **drop** is token-checked: it removes the file only if it still
//!   carries our token, so a holder whose lease was taken over never
//!   removes its successor's.
//! * **read** parses `pid` / `token` and the optional heartbeat
//!   `unix_ms` from the `<name>.hb` companion file, if one exists.
//! * **judge** — [`LeaseRecord::is_dead`] — is a pure function of the
//!   record and the `now` it is given: a dead pid is dead, a heartbeat
//!   older than the staleness horizon is dead, and a live pid with no
//!   heartbeat yet is alive (still starting up).
//! * **sweep** lists a lease directory and retires its dead entries,
//!   together with temp-file debris that crashed publishers left behind.

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Suffix of a lease's heartbeat companion file.
const HEARTBEAT_SUFFIX: &str = ".hb";

/// Staleness horizon for leases that never heartbeat (the journal lock,
/// writer sessions): only a dead pid retires them.
pub const NEVER_STALE: Duration = Duration::MAX;

static COUNTER: AtomicU64 = AtomicU64::new(0);

/// A process-unique lease token: PID, a process-global counter, and a
/// sub-second clock component, so concurrent sessions *within* one
/// process (tests, `repro serve`) are distinct identities too.
pub fn fresh_token() -> String {
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.subsec_nanos());
    format!("{}-{n}-{nanos:08x}", std::process::id())
}

/// Milliseconds since the Unix epoch (0 if the clock is broken).
pub fn unix_ms() -> u128 {
    std::time::SystemTime::now()
        .duration_since(std::time::SystemTime::UNIX_EPOCH)
        .map_or(0, |d| d.as_millis())
}

/// Best-effort same-host liveness: a PID is alive if its procfs entry
/// exists. Our own PID is always alive; PID 0 never is. On platforms
/// without procfs this is conservative (assumes alive), so stale state
/// is only ever *kept*, never wrongly stolen.
fn pid_alive(pid: u32) -> bool {
    if pid == 0 {
        return false;
    }
    if pid == std::process::id() {
        return true;
    }
    if cfg!(target_os = "linux") {
        Path::new("/proc").join(pid.to_string()).exists()
    } else {
        true
    }
}

/// Parse `key value` lines — the one line-oriented metadata format every
/// lease, claim, heartbeat and serve marker file shares.
pub fn field<'a>(content: &'a str, key: &str) -> Option<&'a str> {
    content.lines().find_map(|line| {
        line.strip_prefix(key)
            .and_then(|rest| rest.strip_prefix(' '))
            .map(str::trim)
    })
}

/// The heartbeat companion of the lease at `path` (`<name>.hb`).
pub fn heartbeat_path(path: &Path) -> PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(HEARTBEAT_SUFFIX);
    path.with_file_name(name)
}

/// A per-publisher scratch name beside `path`: dot-prefixed (so lease
/// listings skip it) and tagged with our PID (so [`sweep`] can tell a
/// crashed publisher's debris from a live one's).
fn debris_path(path: &Path, kind: &str) -> PathBuf {
    let name = path.file_name().unwrap_or_default().to_string_lossy();
    path.with_file_name(format!(
        ".{name}.{kind}-{}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ))
}

/// One lease as read from disk.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LeaseRecord {
    /// The holder PID (0 if unparseable).
    pub pid: u32,
    /// The holder token, if the body carries a `token` line (a writer
    /// session's token is its file name instead).
    pub token: Option<String>,
    /// Whether the holder PID was alive when the record was read.
    pub pid_live: bool,
    /// Unix ms of the holder's last heartbeat, if it has one.
    pub heartbeat_ms: Option<u128>,
}

impl LeaseRecord {
    /// Parse a lease body, judging its PID's liveness now.
    fn parse(content: &str) -> LeaseRecord {
        let pid = field(content, "pid").and_then(|v| v.parse().ok()).unwrap_or(0);
        LeaseRecord {
            pid,
            token: field(content, "token").map(str::to_string),
            pid_live: pid_alive(pid),
            heartbeat_ms: None,
        }
    }

    /// Read the lease at `path` and its heartbeat companion, if any.
    /// `None` when no lease is on file.
    pub fn read(path: &Path) -> Option<LeaseRecord> {
        let bytes = std::fs::read(path).ok()?;
        let mut record = LeaseRecord::parse(&String::from_utf8_lossy(&bytes));
        record.heartbeat_ms = std::fs::read_to_string(heartbeat_path(path))
            .ok()
            .and_then(|hb| field(&hb, "unix_ms")?.parse().ok());
        Some(record)
    }

    /// Is this lease dead as of `now_ms` under the staleness horizon
    /// `stale_after`? A dead PID is dead; a heartbeat older than the
    /// horizon is dead (a wedged holder); a live PID with no heartbeat
    /// yet is alive.
    pub fn is_dead(&self, now_ms: u128, stale_after: Duration) -> bool {
        !self.pid_live
            || self
                .heartbeat_ms
                .is_some_and(|then| now_ms.saturating_sub(then) > stale_after.as_millis())
    }
}

/// Liveness of a lease that may be missing, or that borrows its life
/// from another (a claim lives exactly as long as its writer session):
/// a missing record is dead.
pub fn dead(record: Option<&LeaseRecord>, now_ms: u128, stale_after: Duration) -> bool {
    record.is_none_or(|r| r.is_dead(now_ms, stale_after))
}

/// Does the lease at `path` carry `token`? A body without a `token`
/// line is identified by its file name.
fn carries(path: &Path, token: &str) -> bool {
    let Ok(bytes) = std::fs::read(path) else {
        return false;
    };
    let content = String::from_utf8_lossy(&bytes);
    match field(&content, "token") {
        Some(holder) => holder == token,
        None => path.file_name().is_some_and(|name| name == token),
    }
}

/// A held lease. Dropping it retires the file (token-checked, so a
/// lease that was taken over is left to its new holder).
#[derive(Debug)]
pub struct Lease {
    path: PathBuf,
    token: String,
}

impl Lease {
    /// Publish `body` at `path` for `token`: fsynced temp, then an
    /// atomic hard link. `Ok(None)` when a lease is already on file.
    pub fn publish(path: &Path, token: &str, body: &str) -> std::io::Result<Option<Lease>> {
        let tmp = debris_path(path, "tmp");
        let written = std::fs::File::create(&tmp).and_then(|mut f| {
            f.write_all(body.as_bytes())?;
            f.sync_all()
        });
        let linked = written.and_then(|()| std::fs::hard_link(&tmp, path));
        let _ = std::fs::remove_file(&tmp);
        match linked {
            Ok(()) => Ok(Some(Lease { path: path.to_path_buf(), token: token.to_string() })),
            Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// Is the lease still on file under our token? False once a peer
    /// retired or took it over.
    pub fn held(&self) -> bool {
        carries(&self.path, &self.token)
    }

    /// This lease's heartbeat companion path.
    pub fn heartbeat_path(&self) -> PathBuf {
        heartbeat_path(&self.path)
    }
}

impl Drop for Lease {
    fn drop(&mut self) {
        if self.held() {
            let _ = std::fs::remove_file(&self.path);
        }
    }
}

/// Atomically retire the lease at `path` whatever it carries: rename it
/// to a per-stealer grave name — exactly one concurrent stealer's rename
/// succeeds — then delete the grave. Losers see `NotFound`.
pub fn steal(path: &Path) {
    let grave = debris_path(path, "stale");
    if std::fs::rename(path, &grave).is_ok() {
        let _ = std::fs::remove_file(&grave);
    }
}

/// Every lease in `dir`, sorted by file name, heartbeat companions
/// folded in. Dot-prefixed scratch files and `.hb` companions are not
/// leases. Read-only.
pub fn list(dir: &Path) -> Vec<(String, LeaseRecord)> {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return Vec::new();
    };
    let mut leases: Vec<(String, LeaseRecord)> = entries
        .flatten()
        .filter_map(|entry| {
            let name = entry.file_name().into_string().ok()?;
            if name.starts_with('.') || name.ends_with(HEARTBEAT_SUFFIX) {
                return None;
            }
            Some((name, LeaseRecord::read(&entry.path())?))
        })
        .collect();
    leases.sort_by(|a, b| a.0.cmp(&b.0));
    leases
}

/// Retire every lease in `dir` that `dead` judges dead (with its
/// heartbeat companion), and the debris of crashed publishers.
pub fn sweep(dir: &Path, dead: impl Fn(&str, &LeaseRecord) -> bool) {
    sweep_debris(dir);
    for (name, record) in list(dir) {
        if dead(&name, &record) {
            let path = dir.join(&name);
            let _ = std::fs::remove_file(heartbeat_path(&path));
            let _ = std::fs::remove_file(&path);
        }
    }
}

/// Remove publish temps and steal graves in `dir` whose owning process
/// is dead — debris from a crash between the steps of a publish or a
/// steal.
pub fn sweep_debris(dir: &Path) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let Ok(name) = entry.file_name().into_string() else {
            continue;
        };
        if !name.starts_with('.') {
            continue;
        }
        let Some((_, owner)) = name.rsplit_once(".tmp-").or_else(|| name.rsplit_once(".stale-"))
        else {
            continue;
        };
        let owner = owner.split('-').next().and_then(|pid| pid.parse::<u32>().ok());
        if owner.is_none_or(|pid| !pid_alive(pid)) {
            let _ = std::fs::remove_file(entry.path());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A PID far above any real pid_max, guaranteed dead.
    const DEAD_PID: u32 = 4_000_000_000;

    fn fresh_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("interp-lease-{tag}-{}", fresh_token()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir
    }

    #[test]
    fn liveness_table_pins_the_horizon() {
        let now: u128 = 1_000_000;
        let horizon = Duration::from_millis(500);
        let record = |pid_live: bool, heartbeat_ms: Option<u128>| LeaseRecord {
            pid: 7,
            token: Some("t".to_string()),
            pid_live,
            heartbeat_ms,
        };
        // (pid alive, heartbeat, dead?)
        let table: [(bool, Option<u128>, bool); 6] = [
            (true, None, false),             // starting up: alive
            (true, Some(now - 500), false),  // exactly at the horizon: alive
            (true, Some(now - 501), true),   // past the horizon: wedged
            (false, None, true),             // dead pid
            (false, Some(now - 500), true),  // dead pid, fresh heartbeat
            (false, Some(now - 501), true),  // dead pid, stale heartbeat
        ];
        for (pid_live, heartbeat, want) in table {
            let r = record(pid_live, heartbeat);
            assert_eq!(r.is_dead(now, horizon), want, "{r:?}");
            assert_eq!(dead(Some(&r), now, horizon), want, "{r:?}");
        }
        // A heartbeat from the future (clock skew) is fresh, not dead.
        assert!(!record(true, Some(now + 10)).is_dead(now, horizon));
        // Leases that never heartbeat live exactly as long as their pid.
        assert!(!record(true, None).is_dead(now, NEVER_STALE));
        assert!(record(false, None).is_dead(now, NEVER_STALE));
        // A deregistered session's claim: the session record is gone,
        // so the claim is dead whatever its own pid says.
        assert!(dead(None, now, NEVER_STALE));
    }

    #[test]
    fn publish_holds_the_path_and_drop_retires_it() {
        let dir = fresh_dir("publish");
        let path = dir.join("lease");
        let lease = Lease::publish(&path, "me", "pid 1\ntoken me\n")
            .expect("publish")
            .expect("free path");
        assert!(lease.held());
        assert!(
            Lease::publish(&path, "you", "pid 1\ntoken you\n").expect("publish").is_none(),
            "an existing lease must read as held"
        );
        let record = LeaseRecord::read(&path).expect("record");
        assert_eq!((record.pid, record.token.as_deref()), (1, Some("me")));
        assert_eq!(list(&dir).len(), 1, "no temp debris may remain");
        drop(lease);
        assert!(!path.exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn retire_is_token_checked() {
        let dir = fresh_dir("retire");
        let path = dir.join("lease");
        let lease = Lease::publish(&path, "victim", "pid 1\ntoken victim\n")
            .expect("publish")
            .expect("free path");
        // A successor took the lease over.
        std::fs::write(&path, "pid 1\ntoken thief\n").expect("overwrite");
        assert!(!lease.held());
        drop(lease);
        assert!(path.exists(), "the successor's lease must survive");
        // A body without a token line is identified by its file name.
        let session = dir.join("tok-1");
        std::fs::write(&session, "pid 1\n").expect("session");
        drop(Lease { path: session.clone(), token: "tok-2".to_string() });
        assert!(session.exists());
        drop(Lease { path: session.clone(), token: "tok-1".to_string() });
        assert!(!session.exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn read_folds_in_the_heartbeat_companion() {
        let dir = fresh_dir("heartbeat");
        let path = dir.join("member");
        std::fs::write(&path, format!("pid {}\ntoken member\n", std::process::id()))
            .expect("member");
        let record = LeaseRecord::read(&path).expect("record");
        assert!(record.pid_live);
        assert_eq!(record.heartbeat_ms, None);
        std::fs::write(heartbeat_path(&path), "pid 1\ntick 3\nunix_ms 42\n").expect("hb");
        assert_eq!(LeaseRecord::read(&path).expect("record").heartbeat_ms, Some(42));
        let garbage = dir.join("garbage");
        std::fs::write(&garbage, b"\xff not a lease").expect("garbage");
        let record = LeaseRecord::read(&garbage).expect("record");
        assert_eq!((record.pid, record.pid_live), (0, false));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sweep_retires_dead_leases_and_debris_only() {
        let dir = fresh_dir("sweep");
        let me = std::process::id();
        std::fs::write(dir.join("alive"), format!("pid {me}\n")).expect("alive");
        std::fs::write(dir.join("corpse"), format!("pid {DEAD_PID}\n")).expect("corpse");
        std::fs::write(dir.join("corpse.hb"), "unix_ms 1\n").expect("corpse hb");
        let dead_tmp = dir.join(format!(".lease.tmp-{DEAD_PID}-0"));
        let dead_grave = dir.join(format!(".lease.stale-{DEAD_PID}-1"));
        let live_tmp = dir.join(format!(".lease.tmp-{me}-2"));
        for debris in [&dead_tmp, &dead_grave, &live_tmp] {
            std::fs::write(debris, b"x").expect("debris");
        }
        let names: Vec<String> = list(&dir).into_iter().map(|(name, _)| name).collect();
        assert_eq!(names, ["alive", "corpse"], "scratch files and companions are not leases");
        sweep(&dir, |_, r| r.is_dead(unix_ms(), NEVER_STALE));
        assert!(!dir.join("corpse").exists());
        assert!(!dir.join("corpse.hb").exists(), "the companion goes with its lease");
        assert!(dir.join("alive").exists());
        assert!(!dead_tmp.exists() && !dead_grave.exists(), "dead owner's debris is swept");
        assert!(live_tmp.exists(), "a live publisher's temp survives");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn steal_retires_whatever_is_on_file() {
        let dir = fresh_dir("steal");
        let path = dir.join("lease");
        std::fs::write(&path, format!("pid {DEAD_PID}\ntoken ghost\n")).expect("plant");
        steal(&path);
        assert!(!path.exists());
        steal(&path); // a losing stealer sees NotFound and does nothing
        assert!(std::fs::read_dir(&dir).expect("dir").next().is_none(), "no grave remains");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
