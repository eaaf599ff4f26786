//! Single-flight bookkeeping: the in-flight job table that coalesces
//! concurrent identical submissions, the cancellation token shared
//! between the event loop and the worker executing a job, and the
//! canonicalization memo that keys repeat spec bytes without re-running
//! the normalization pipeline.
//!
//! All types here are plain data owned by the event-loop thread (the
//! token's atomic is the only cross-thread piece), so none of them
//! lock.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use crate::job::JobSpec;

/// Cooperative cancellation flag shared between the event loop and the
/// worker running (or about to run) a job. Workers check it at dequeue
/// time (a cancelled job is never executed) and again before the cache
/// insert (a job whose waiters all detached mid-run never populates the
/// cache).
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, uncancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Flags the job as cancelled.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// Whether the job has been cancelled.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }
}

/// One response destination attached to an in-flight job: the
/// connection that submitted it and the request id the frames carry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Waiter {
    /// Event-loop connection id.
    pub conn: usize,
    /// Request id chosen by the client.
    pub id: String,
}

#[derive(Debug)]
struct InflightEntry {
    /// Instance number of this execution. A key whose job is cancelled
    /// and immediately resubmitted gets a *new* entry with a new epoch;
    /// pool events from the aborted instance carry the old epoch and
    /// are discarded instead of completing the new entry.
    epoch: u64,
    waiters: Vec<Waiter>,
    token: CancelToken,
}

/// Outcome of [`InflightTable::join`].
#[derive(Debug)]
pub enum Joined {
    /// First submission of this key: the caller must dispatch the job
    /// to the pool under the returned epoch and token.
    First {
        /// Epoch to tag the dispatched job's events with.
        epoch: u64,
        /// Token to hand the worker for cooperative cancellation.
        token: CancelToken,
    },
    /// An identical job is already in flight; the waiter was attached
    /// to it and will receive the same done bytes.
    Coalesced,
}

/// Outcome of [`InflightTable::detach`].
#[derive(Debug)]
pub enum Detached {
    /// No in-flight job under this key/waiter (already completed, or
    /// never submitted).
    NotFound,
    /// The last waiter left; the entry was removed and the job's token
    /// is returned so the caller can cancel the execution.
    Orphaned(CancelToken),
    /// Other waiters remain; the job keeps running for them.
    Remaining,
}

/// The single-flight table: at most one execution per cache key. N
/// concurrent identical submissions attach N waiters to one entry, the
/// job runs once, and completion fans the same framed payload bytes out
/// to every waiter.
#[derive(Debug, Default)]
pub struct InflightTable {
    entries: HashMap<u64, InflightEntry>,
    next_epoch: u64,
}

impl InflightTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct jobs currently in flight.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing is in flight.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Attaches `waiter` to the in-flight job under `key`, creating the
    /// entry (→ [`Joined::First`]) when this is the first submission.
    pub fn join(&mut self, key: u64, waiter: Waiter) -> Joined {
        if let Some(entry) = self.entries.get_mut(&key) {
            entry.waiters.push(waiter);
            return Joined::Coalesced;
        }
        let epoch = self.next_epoch;
        self.next_epoch += 1;
        let token = CancelToken::new();
        self.entries
            .insert(key, InflightEntry { epoch, waiters: vec![waiter], token: token.clone() });
        Joined::First { epoch, token }
    }

    /// Rolls back a [`Joined::First`] whose dispatch to the pool failed
    /// (the entry is removed; the waiter gets an error frame instead).
    pub fn abandon(&mut self, key: u64) {
        self.entries.remove(&key);
    }

    /// Detaches one waiter (matched by connection and request id) from
    /// the job under `key`. The job keeps running while other waiters
    /// remain; the last detach orphans it and returns the token.
    pub fn detach(&mut self, key: u64, conn: usize, id: &str) -> Detached {
        let Some(entry) = self.entries.get_mut(&key) else { return Detached::NotFound };
        let Some(index) = entry.waiters.iter().position(|w| w.conn == conn && w.id == id) else {
            return Detached::NotFound;
        };
        entry.waiters.remove(index);
        if entry.waiters.is_empty() {
            let entry = self.entries.remove(&key).expect("entry just accessed");
            Detached::Orphaned(entry.token)
        } else {
            Detached::Remaining
        }
    }

    /// Detaches every waiter belonging to connection `conn` (client
    /// disconnect) and cancels jobs left without any waiter. Returns
    /// how many jobs were orphaned-and-cancelled.
    pub fn drop_conn(&mut self, conn: usize) -> usize {
        let mut cancelled = 0;
        self.entries.retain(|_, entry| {
            entry.waiters.retain(|w| w.conn != conn);
            if entry.waiters.is_empty() {
                entry.token.cancel();
                cancelled += 1;
                false
            } else {
                true
            }
        });
        cancelled
    }

    /// The waiters of `key` if the in-flight instance matches `epoch`
    /// (progress dispatch).
    pub fn waiters(&self, key: u64, epoch: u64) -> &[Waiter] {
        match self.entries.get(&key) {
            Some(entry) if entry.epoch == epoch => &entry.waiters,
            _ => &[],
        }
    }

    /// Completes the in-flight instance `(key, epoch)`, removing the
    /// entry and returning its waiters. `None` when the entry is gone
    /// (all waiters detached) or belongs to a newer epoch — the
    /// caller discards the stale completion.
    pub fn complete(&mut self, key: u64, epoch: u64) -> Option<Vec<Waiter>> {
        match self.entries.get(&key) {
            Some(entry) if entry.epoch == epoch => {
                Some(self.entries.remove(&key).expect("entry just accessed").waiters)
            }
            _ => None,
        }
    }
}

/// Fast-path canonicalization memo: serialized spec bytes → (cache key,
/// parsed spec). Canonicalization (normalize + canonical JSON + hash —
/// and for lint jobs an artifact-fingerprint walk) runs once per unique
/// spec text instead of once per request. Bounded by clearing on
/// overflow: the memo is a pure cache, so dropping it only costs the
/// next request a recomputation.
#[derive(Debug)]
pub struct KeyMemo {
    map: HashMap<String, (u64, JobSpec)>,
    cap: usize,
}

impl Default for KeyMemo {
    fn default() -> Self {
        KeyMemo::new(1024)
    }
}

impl KeyMemo {
    /// A memo holding at most `cap` distinct spec texts.
    pub fn new(cap: usize) -> Self {
        KeyMemo { map: HashMap::new(), cap: cap.max(1) }
    }

    /// The memoized key and spec for `spec_text`, if seen before.
    pub fn lookup(&self, spec_text: &str) -> Option<(u64, JobSpec)> {
        self.map.get(spec_text).copied()
    }

    /// Memoizes a freshly canonicalized spec.
    pub fn store(&mut self, spec_text: String, key: u64, spec: JobSpec) {
        if self.map.len() >= self.cap {
            self.map.clear();
        }
        self.map.insert(spec_text, (key, spec));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn waiter(conn: usize, id: &str) -> Waiter {
        Waiter { conn, id: id.to_owned() }
    }

    #[test]
    fn join_coalesces_and_complete_fans_out_in_order() {
        let mut table = InflightTable::new();
        let Joined::First { epoch, token } = table.join(7, waiter(1, "a")) else {
            panic!("first join dispatches")
        };
        assert!(matches!(table.join(7, waiter(2, "b")), Joined::Coalesced));
        assert!(matches!(table.join(7, waiter(1, "c")), Joined::Coalesced));
        assert_eq!(table.len(), 1);
        assert!(!token.is_cancelled());
        let fanned = table.complete(7, epoch).expect("epoch matches");
        assert_eq!(fanned, vec![waiter(1, "a"), waiter(2, "b"), waiter(1, "c")]);
        assert!(table.is_empty());
    }

    #[test]
    fn stale_epochs_never_complete_a_newer_instance() {
        let mut table = InflightTable::new();
        let Joined::First { epoch: old, token } = table.join(7, waiter(1, "a")) else {
            panic!("first join")
        };
        // Last waiter detaches: the job is orphaned and cancelled.
        let Detached::Orphaned(orphan) = table.detach(7, 1, "a") else { panic!("orphaned") };
        orphan.cancel();
        assert!(token.is_cancelled(), "token is shared with the worker");
        // Immediate resubmission starts a new instance under a new epoch.
        let Joined::First { epoch: new, .. } = table.join(7, waiter(2, "b")) else {
            panic!("new instance")
        };
        assert_ne!(old, new);
        assert!(table.complete(7, old).is_none(), "stale completion is discarded");
        assert_eq!(table.complete(7, new), Some(vec![waiter(2, "b")]));
    }

    #[test]
    fn detach_keeps_the_job_alive_for_other_waiters() {
        let mut table = InflightTable::new();
        let Joined::First { epoch, .. } = table.join(7, waiter(1, "a")) else { panic!() };
        table.join(7, waiter(2, "b"));
        assert!(matches!(table.detach(7, 1, "a"), Detached::Remaining));
        assert!(matches!(table.detach(7, 1, "a"), Detached::NotFound), "already detached");
        assert_eq!(table.waiters(7, epoch), &[waiter(2, "b")]);
        assert!(matches!(table.detach(7, 2, "b"), Detached::Orphaned(_)));
    }

    #[test]
    fn drop_conn_detaches_everywhere_and_cancels_orphans() {
        let mut table = InflightTable::new();
        let Joined::First { token: only, .. } = table.join(1, waiter(9, "a")) else { panic!() };
        let Joined::First { token: shared, .. } = table.join(2, waiter(9, "b")) else { panic!() };
        table.join(2, waiter(3, "c"));
        assert_eq!(table.drop_conn(9), 1, "only the waiterless job is cancelled");
        assert!(only.is_cancelled());
        assert!(!shared.is_cancelled(), "job 2 still has conn 3 waiting");
        assert_eq!(table.len(), 1);
    }

    #[test]
    fn memo_round_trips_and_clears_on_overflow() {
        use crate::job::{FuzzJob, ScenarioSpec};
        let spec = JobSpec::Fuzz(FuzzJob {
            scenario: ScenarioSpec::Keyless(Default::default()),
            iterations: 8,
            seed: 1,
            shards: 1,
        });
        let mut memo = KeyMemo::new(2);
        assert!(memo.lookup("a").is_none());
        memo.store("a".to_owned(), 11, spec);
        memo.store("b".to_owned(), 22, spec);
        assert_eq!(memo.lookup("a").map(|(k, _)| k), Some(11));
        // Overflow clears rather than evicts: the memo is a pure cache.
        memo.store("c".to_owned(), 33, spec);
        assert!(memo.lookup("a").is_none());
        assert_eq!(memo.lookup("c").map(|(k, _)| k), Some(33));
    }
}
