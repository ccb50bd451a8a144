//! Serve-fleet membership: the registry that lets N `repro serve`
//! daemons share one cache.
//!
//! Each daemon holds one [`crate::lease`] under `serve/fleet/`, so
//! membership is crash-visible state on the shared filesystem:
//!
//! ```text
//! serve/fleet/<token>       pid <pid> / token <token>   (the member lease)
//! serve/fleet/<token>.hb    pid / tick / unix_ms / served / in-flight
//! serve/work/<token>/       requests this member has claimed
//! ```
//!
//! Every member claims inbox requests by atomic rename into its own
//! work directory, so two members can never admit the same request. A
//! member whose pid is dead, or whose heartbeat is older than the
//! configured staleness horizon, is *dead to the fleet*
//! ([`crate::lease::LeaseRecord::is_dead`]). Any live member retires a
//! dead member's lease and sweeps its claimed work back to the inbox
//! (exactly-once: the rename from the dead member's work dir succeeds
//! for one sweeper), so `kill -9` of any daemon mid-request loses
//! nothing.

use crate::journal::{io_err, JournalError};
use crate::lease::{self, fresh_token, Lease};
use crate::serve::scan_requests;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// The fleet member registry directory inside a cache dir.
pub const FLEET_DIR: &str = "serve/fleet";

/// How stale a live-pid member's heartbeat may grow before the fleet
/// treats it as dead (wedged) and re-adopts its claimed work.
pub const DEFAULT_MEMBER_STALE: Duration = Duration::from_secs(30);

/// One daemon's registered identity in the fleet: its member lease (with
/// the heartbeat companion) and its private work directory. Registration
/// is the constructor; `Drop` retires them.
#[derive(Debug)]
pub struct FleetMembership {
    /// This member's unique registry token.
    pub token: String,
    /// This member's private claimed-request directory.
    pub work_dir: PathBuf,
    lease: Lease,
}

impl FleetMembership {
    /// Register this process as a fleet member of `cache_dir`: publish
    /// the member lease, then create the member's work directory.
    pub fn register(cache_dir: &Path) -> Result<FleetMembership, JournalError> {
        let fleet_dir = cache_dir.join(FLEET_DIR);
        std::fs::create_dir_all(&fleet_dir).map_err(|e| io_err(&fleet_dir, "create-dir", e))?;
        loop {
            let token = fresh_token();
            let path = fleet_dir.join(&token);
            let body = format!("pid {}\ntoken {token}\n", std::process::id());
            // A token collision is all but impossible (pid + counter +
            // clock), but losing the race is not an error: take a fresh
            // identity and publish again.
            let Some(lease) =
                Lease::publish(&path, &token, &body).map_err(|e| io_err(&path, "write", e))?
            else {
                continue;
            };
            let work_dir = cache_dir.join(crate::serve::WORK_DIR).join(&token);
            std::fs::create_dir_all(&work_dir).map_err(|e| io_err(&work_dir, "create-dir", e))?;
            return Ok(FleetMembership { token, work_dir, lease });
        }
    }

    /// Is this member's registration still on disk? A peer that judged
    /// this member wedged (stale heartbeat) retires its lease and work
    /// dir; after that, every claim rename fails on the missing work dir
    /// and this process serves nothing until it re-registers under a
    /// fresh token.
    pub fn still_registered(&self) -> bool {
        self.work_dir.is_dir() && self.lease.held()
    }

    /// Spawn this member's background heartbeat writer: a thread that
    /// rewrites the heartbeat file every quarter of `stale_after` (and
    /// promptly after each [`HeartbeatPulse::record`]), so a scan loop
    /// busy executing a long batch keeps proving liveness instead of
    /// being judged wedged by its peers. Drop the pulse *before* the
    /// membership so it cannot recreate a retired heartbeat file.
    pub fn spawn_pulse(&self, stale_after: Duration) -> HeartbeatPulse {
        HeartbeatPulse::spawn(self.lease.heartbeat_path(), stale_after)
    }
}

impl Drop for FleetMembership {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(self.lease.heartbeat_path());
        // Empty on a clean exit; a non-empty dir (claimed work we never
        // finished) is deliberately left for the fleet to re-adopt once
        // the lease field retires our registration.
        let _ = std::fs::remove_dir(&self.work_dir);
    }
}

/// Counters the serve loop publishes for the heartbeat thread to write.
#[derive(Debug, Default)]
struct PulseState {
    tick: AtomicU64,
    served: AtomicU64,
    in_flight: AtomicU64,
    dirty: AtomicBool,
    stop: AtomicBool,
}

/// A member's background heartbeat writer
/// (see [`FleetMembership::spawn_pulse`]). Stopped and joined on drop.
#[derive(Debug)]
pub struct HeartbeatPulse {
    state: Arc<PulseState>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl HeartbeatPulse {
    fn spawn(hb_path: PathBuf, stale_after: Duration) -> HeartbeatPulse {
        let state = Arc::new(PulseState::default());
        let shared = Arc::clone(&state);
        let interval = (stale_after / 4).max(Duration::from_millis(20));
        // Sleep in short slices so counter updates land promptly and
        // drop joins fast, while full rewrites stay interval-paced.
        let slice = interval.min(Duration::from_millis(20));
        let handle = std::thread::spawn(move || {
            let mut since_rewrite = interval; // first pass writes immediately
            while !shared.stop.load(Ordering::Acquire) {
                if since_rewrite >= interval || shared.dirty.swap(false, Ordering::AcqRel) {
                    let _ = std::fs::write(
                        &hb_path,
                        format!(
                            "pid {}\ntick {}\nunix_ms {}\nserved {}\nin-flight {}\n",
                            std::process::id(),
                            shared.tick.load(Ordering::Relaxed),
                            lease::unix_ms(),
                            shared.served.load(Ordering::Relaxed),
                            shared.in_flight.load(Ordering::Relaxed),
                        ),
                    );
                    since_rewrite = Duration::ZERO;
                }
                std::thread::sleep(slice);
                since_rewrite += slice;
            }
        });
        HeartbeatPulse { state, handle: Some(handle) }
    }

    /// Publish fresh counters; the thread rewrites the heartbeat on its
    /// next slice (tens of milliseconds), not the next full interval.
    pub fn record(&self, tick: u64, served: u64, in_flight: usize) {
        self.state.tick.store(tick, Ordering::Relaxed);
        self.state.served.store(served, Ordering::Relaxed);
        self.state.in_flight.store(in_flight as u64, Ordering::Relaxed);
        self.state.dirty.store(true, Ordering::Release);
    }
}

impl Drop for HeartbeatPulse {
    fn drop(&mut self) {
        self.state.stop.store(true, Ordering::Release);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// One member's row in the fleet table, as read-only observers (and
/// other members) see it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FleetMemberInfo {
    /// The member's registry token.
    pub token: String,
    /// The pid recorded in the member file (0 if unparseable).
    pub pid: u32,
    /// Whether that pid is currently alive.
    pub pid_live: bool,
    /// Age of the member's last heartbeat in milliseconds, if any.
    pub heartbeat_age_ms: Option<u128>,
    /// Requests claimed into the member's work dir right now.
    pub in_flight: usize,
    /// Responses the member reported served in its last heartbeat.
    pub served: u64,
}

/// Snapshot every registered fleet member of `cache_dir`, sorted by
/// token. Read-only: safe for `repro status` while daemons run.
pub fn fleet_members(cache_dir: &Path) -> Vec<FleetMemberInfo> {
    let fleet_dir = cache_dir.join(FLEET_DIR);
    let now = lease::unix_ms();
    lease::list(&fleet_dir)
        .into_iter()
        .map(|(token, record)| {
            let served = std::fs::read_to_string(lease::heartbeat_path(&fleet_dir.join(&token)))
                .ok()
                .and_then(|hb| lease::field(&hb, "served")?.parse().ok())
                .unwrap_or(0);
            FleetMemberInfo {
                in_flight: scan_requests(&cache_dir.join(crate::serve::WORK_DIR).join(&token)).len(),
                pid: record.pid,
                pid_live: record.pid_live,
                heartbeat_age_ms: record.heartbeat_ms.map(|then| now.saturating_sub(then)),
                served,
                token,
            }
        })
        .collect()
}

/// Sweep every dead member of `cache_dir`'s fleet (excluding
/// `self_token`): retire its lease, then move the claimed requests of
/// every *unregistered* work dir back to the inbox for re-service.
/// Returns the number of orphaned requests re-adopted. Exactly-once by
/// construction — each orphan's rename into the inbox succeeds for at
/// most one sweeping member.
///
/// Unregistered work dirs are a dead member's (just retired) or one
/// that deregistered with claims still on disk (clean `Drop` or an
/// error-path exit). This never races a mid-registration member:
/// `register` publishes the lease *before* creating the work dir, so
/// any work dir whose lease is absent at this instant belongs to no one.
pub fn sweep_dead_members(
    cache_dir: &Path,
    stale_after: Duration,
    self_token: Option<&str>,
) -> usize {
    let fleet_dir = cache_dir.join(FLEET_DIR);
    let now = lease::unix_ms();
    lease::sweep(&fleet_dir, |token, record| {
        Some(token) != self_token && record.is_dead(now, stale_after)
    });
    let inbox = cache_dir.join(crate::serve::INBOX_DIR);
    let mut adopted = 0;
    let Ok(work_dirs) = std::fs::read_dir(cache_dir.join(crate::serve::WORK_DIR)) else {
        return 0;
    };
    for entry in work_dirs.flatten() {
        let Ok(token) = entry.file_name().into_string() else {
            continue;
        };
        if Some(token.as_str()) == self_token
            || !entry.path().is_dir()
            || fleet_dir.join(&token).exists()
        {
            continue; // ours, or registered (possibly mid-startup)
        }
        for (id, path) in scan_requests(&entry.path()) {
            if std::fs::rename(path, inbox.join(format!("{id}.req"))).is_ok() {
                adopted += 1;
            }
        }
        let _ = std::fs::remove_dir(entry.path());
    }
    adopted
}

/// The first live member of `cache_dir`'s fleet, if any — what
/// `--exclusive` startup and `serve --stop` drain-waiting check.
pub fn live_member(cache_dir: &Path) -> Option<FleetMemberInfo> {
    fleet_members(cache_dir).into_iter().find(|m| m.pid_live)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fresh_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "interp-fleet-{tag}-{}-{}",
            std::process::id(),
            fresh_token()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(dir.join(crate::serve::INBOX_DIR)).expect("mkdir");
        dir
    }

    #[test]
    fn register_and_drop_round_trip() {
        let dir = fresh_dir("register");
        let member = FleetMembership::register(&dir).expect("register");
        let members = fleet_members(&dir);
        assert_eq!(members.len(), 1);
        assert_eq!(members[0].token, member.token);
        assert_eq!(members[0].pid, std::process::id());
        assert!(members[0].pid_live);
        assert_eq!(members[0].heartbeat_age_ms, None, "no heartbeat before the pulse");
        drop(member);
        assert!(fleet_members(&dir).is_empty(), "drop must deregister");
        assert!(
            std::fs::read_dir(dir.join(crate::serve::WORK_DIR)).expect("work").next().is_none(),
            "drop must retire the empty work dir"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn pulse_heartbeats_in_the_background_and_stops_on_drop() {
        let dir = fresh_dir("pulse");
        let member = FleetMembership::register(&dir).expect("register");
        let pulse = member.spawn_pulse(Duration::from_millis(80));
        pulse.record(2, 9, 3);
        // The thread writes the recorded counters within a few slices,
        // with no call from the "scan loop" in between — exactly what a
        // member stuck executing a long batch needs.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        loop {
            let members = fleet_members(&dir);
            if members.len() == 1 && members[0].served == 9 {
                assert!(members[0].heartbeat_age_ms.is_some_and(|age| age < 5_000));
                break;
            }
            assert!(std::time::Instant::now() < deadline, "pulse never wrote: {members:?}");
            std::thread::sleep(Duration::from_millis(5));
        }
        drop(pulse);
        drop(member);
        assert!(fleet_members(&dir).is_empty(), "drop must deregister");
        assert!(
            std::fs::read_dir(dir.join(FLEET_DIR)).expect("fleet").next().is_none(),
            "drop must retire the heartbeat too"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn still_registered_detects_a_peer_sweep() {
        let dir = fresh_dir("retired");
        let member = FleetMembership::register(&dir).expect("register");
        assert!(member.still_registered());
        // What a peer's sweep does to a member it judged wedged.
        std::fs::remove_file(dir.join(FLEET_DIR).join(&member.token)).expect("retire");
        let _ = std::fs::remove_dir_all(&member.work_dir);
        assert!(!member.still_registered());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn two_members_coexist_with_distinct_work_dirs() {
        let dir = fresh_dir("pair");
        let a = FleetMembership::register(&dir).expect("a");
        let b = FleetMembership::register(&dir).expect("b");
        assert_ne!(a.token, b.token);
        assert_ne!(a.work_dir, b.work_dir);
        assert_eq!(fleet_members(&dir).len(), 2);
        drop(a);
        assert_eq!(fleet_members(&dir).len(), 1);
        drop(b);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dead_member_work_is_swept_back_to_the_inbox_exactly_once() {
        let dir = fresh_dir("sweep");
        let fleet_dir = dir.join(FLEET_DIR);
        std::fs::create_dir_all(&fleet_dir).expect("mkdir");
        // A corpse: dead pid, one claimed request, no heartbeat.
        std::fs::write(fleet_dir.join("corpse"), "pid 4000000000\ntoken corpse\n")
            .expect("member");
        let work = dir.join(crate::serve::WORK_DIR).join("corpse");
        std::fs::create_dir_all(&work).expect("mkdir");
        std::fs::write(work.join("lost.req"), b"payload\n").expect("plant");
        assert_eq!(sweep_dead_members(&dir, DEFAULT_MEMBER_STALE, None), 1);
        assert!(dir.join(crate::serve::INBOX_DIR).join("lost.req").exists());
        assert!(!work.exists(), "corpse work dir must be retired");
        assert!(fleet_members(&dir).is_empty(), "corpse member must be retired");
        // A second sweep finds nothing — exactly-once.
        assert_eq!(sweep_dead_members(&dir, DEFAULT_MEMBER_STALE, None), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn live_member_with_stale_heartbeat_is_dead_to_the_fleet() {
        let dir = fresh_dir("stale");
        let fleet_dir = dir.join(FLEET_DIR);
        std::fs::create_dir_all(&fleet_dir).expect("mkdir");
        let plant = || {
            // Our own (alive) pid.
            std::fs::write(
                fleet_dir.join("wedged"),
                format!("pid {}\ntoken wedged\n", std::process::id()),
            )
            .expect("member");
        };
        // A member that has not heartbeat *yet* is starting, not dead.
        plant();
        sweep_dead_members(&dir, Duration::from_millis(10), None);
        assert_eq!(fleet_members(&dir).len(), 1);
        // A heartbeat from the epoch: wedged, retired with its companion.
        std::fs::write(
            fleet_dir.join("wedged.hb"),
            format!("pid {}\ntick 1\nunix_ms 1\nserved 0\nin-flight 0\n", std::process::id()),
        )
        .expect("hb");
        assert!(fleet_members(&dir)[0].pid_live);
        sweep_dead_members(&dir, Duration::from_millis(10), None);
        assert!(fleet_members(&dir).is_empty(), "stale heartbeat");
        assert!(!fleet_dir.join("wedged.hb").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn self_token_is_never_swept() {
        let dir = fresh_dir("self");
        let fleet_dir = dir.join(FLEET_DIR);
        std::fs::create_dir_all(&fleet_dir).expect("mkdir");
        std::fs::write(fleet_dir.join("me"), "pid 4000000000\ntoken me\n").expect("member");
        // Even with a dead pid: self is excluded outright.
        assert_eq!(sweep_dead_members(&dir, Duration::ZERO, Some("me")), 0);
        assert_eq!(fleet_members(&dir).len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unregistered_work_dir_is_adopted() {
        let dir = fresh_dir("unregistered");
        // A member that exited through an error path: its member file
        // is gone (Drop deregistered it) but a claimed request is still
        // in its work dir — no registered member points at it.
        let work = dir.join(crate::serve::WORK_DIR).join("ghost");
        std::fs::create_dir_all(&work).expect("mkdir");
        std::fs::write(work.join("left-behind.req"), b"payload\n").expect("plant");
        assert_eq!(sweep_dead_members(&dir, DEFAULT_MEMBER_STALE, None), 1);
        assert!(dir.join(crate::serve::INBOX_DIR).join("left-behind.req").exists());
        assert!(!work.exists());
        // A *registered* live member's work dir is untouchable even
        // when empty of heartbeats.
        let member = FleetMembership::register(&dir).expect("register");
        std::fs::write(member.work_dir.join("claimed.req"), b"payload\n").expect("plant");
        assert_eq!(sweep_dead_members(&dir, DEFAULT_MEMBER_STALE, None), 0);
        assert!(member.work_dir.join("claimed.req").exists());
        let _ = std::fs::remove_file(member.work_dir.join("claimed.req"));
        drop(member);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
