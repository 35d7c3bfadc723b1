//! The snapshot registry: who is reading as-of which commit LSN.
//!
//! A **commit LSN** is a position in the total order of published
//! commits (assigned under [`crate::Mvcc::commit`]'s publish lock).
//! The registry tracks two things:
//!
//! * `published` — the highest commit LSN whose versions are fully
//!   installed in the version pool. Because the publisher installs a
//!   commit's page versions *before* advancing `published`, any reader
//!   that captures `snap = published` is guaranteed to find, for every
//!   page, the newest version at or below `snap` — a transaction-
//!   consistent prefix of the commit history.
//! * the **active set** — one entry per open [`Snapshot`], keyed by its
//!   snapshot LSN. The minimum key is the **GC watermark**: versions
//!   older than the newest version at or below it can never be read
//!   again (every open snapshot sits at or above the watermark, and
//!   every future snapshot opens at `published`, which is higher still).
//!
//! The watermark is monotone: snapshots always open at the current
//! `published`, so the minimum of the active set never moves backwards,
//! and with the set empty the watermark is `published` itself. Both the
//! `published` read and the active-set insert in [`SnapshotRegistry::
//! begin`] happen under the same mutex that [`SnapshotRegistry::
//! watermark`] takes, so a concurrent GC sweep can never compute a
//! watermark above a snapshot that is mid-registration.

use rmdb_obs::{Counter, Gauge, Histogram, Registry};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Shared snapshot bookkeeping. Cheap handles: wrap in an [`Arc`] (the
/// [`crate::Mvcc`] facade does) so [`Snapshot`] guards can deregister
/// themselves on drop from any thread.
#[derive(Debug)]
pub struct SnapshotRegistry {
    /// Highest fully-installed commit LSN (see module docs).
    published: AtomicU64,
    /// Open snapshots: snapshot LSN → number of snapshots at that LSN.
    active: Mutex<BTreeMap<u64, u64>>,
    opened: Counter,
    open_gauge: Gauge,
    published_gauge: Gauge,
    /// Commit LSNs the snapshot ended behind `published` (staleness at
    /// close) — the bench's "snapshot age".
    age_lsn: Histogram,
    /// Wall-clock snapshot lifetime, µs.
    dwell_us: Histogram,
}

impl SnapshotRegistry {
    /// A fresh registry publishing its metrics into `obs`.
    pub fn new(obs: &Registry) -> Arc<SnapshotRegistry> {
        Arc::new(SnapshotRegistry {
            published: AtomicU64::new(0),
            active: Mutex::new(BTreeMap::new()),
            opened: obs.counter("mvcc.snapshots_opened"),
            open_gauge: obs.gauge("mvcc.snapshots_open"),
            published_gauge: obs.gauge("mvcc.published_lsn"),
            age_lsn: obs.histogram("mvcc.snapshot_age"),
            dwell_us: obs.histogram("mvcc.snapshot_us"),
        })
    }

    /// The highest published commit LSN.
    pub fn published(&self) -> u64 {
        self.published.load(Ordering::Acquire)
    }

    /// Advance `published` to `commit_lsn`. The caller (the single
    /// publisher) must have installed every version of that commit
    /// first; LSNs must be published in ascending order.
    pub fn publish(&self, commit_lsn: u64) {
        debug_assert!(
            commit_lsn > self.published.load(Ordering::Relaxed),
            "commit LSNs must be published in ascending order"
        );
        self.published.store(commit_lsn, Ordering::Release);
        self.published_gauge.set(commit_lsn);
    }

    /// Open a snapshot at the current `published` LSN. The returned
    /// guard pins the GC watermark at or below that LSN until dropped.
    pub fn begin(self: &Arc<Self>) -> Snapshot {
        let lsn = {
            let mut active = lock_ok(&self.active);
            // read `published` under the active-set mutex so a GC sweep
            // serialised against this mutex can never see a watermark
            // above a snapshot that is still registering
            let lsn = self.published.load(Ordering::Acquire);
            *active.entry(lsn).or_insert(0) += 1;
            self.open_gauge.set(Self::open_count_locked(&active));
            lsn
        };
        self.opened.inc();
        Snapshot {
            registry: Arc::clone(self),
            lsn,
            opened: Instant::now(),
        }
    }

    /// The GC watermark: the minimum open snapshot LSN, or `published`
    /// when no snapshot is open. Versions older than the newest version
    /// at or below the watermark are dead.
    pub fn watermark(&self) -> u64 {
        let active = lock_ok(&self.active);
        active
            .keys()
            .next()
            .copied()
            .unwrap_or_else(|| self.published.load(Ordering::Acquire))
    }

    /// Open snapshots right now.
    pub fn open_count(&self) -> u64 {
        Self::open_count_locked(&lock_ok(&self.active))
    }

    fn open_count_locked(active: &BTreeMap<u64, u64>) -> u64 {
        active.values().sum()
    }

    fn close(&self, lsn: u64, opened: Instant) {
        {
            let mut active = lock_ok(&self.active);
            if let Some(n) = active.get_mut(&lsn) {
                *n -= 1;
                if *n == 0 {
                    active.remove(&lsn);
                }
            }
            self.open_gauge.set(Self::open_count_locked(&active));
        }
        let published = self.published.load(Ordering::Acquire);
        self.age_lsn.record(published.saturating_sub(lsn));
        self.dwell_us
            .record(opened.elapsed().as_micros().min(u64::MAX as u128) as u64);
    }
}

/// An open snapshot: a pinned snapshot LSN. Dropping it deregisters the
/// snapshot, letting the GC watermark advance past it.
#[derive(Debug)]
pub struct Snapshot {
    registry: Arc<SnapshotRegistry>,
    lsn: u64,
    opened: Instant,
}

impl Snapshot {
    /// The snapshot LSN: this reader sees exactly the commits at or
    /// below it.
    pub fn lsn(&self) -> u64 {
        self.lsn
    }
}

impl Drop for Snapshot {
    fn drop(&mut self) {
        self.registry.close(self.lsn, self.opened);
    }
}

/// Poison-tolerant lock: the registry's map is consistent at every
/// store, so a panicking holder cannot leave it half-updated.
pub(crate) fn lock_ok<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshots_pin_the_watermark() {
        let obs = Registry::new();
        let reg = SnapshotRegistry::new(&obs);
        reg.publish(5);
        assert_eq!(reg.watermark(), 5, "no snapshots: watermark = published");
        let early = reg.begin();
        assert_eq!(early.lsn(), 5);
        reg.publish(9);
        let late = reg.begin();
        assert_eq!(late.lsn(), 9);
        assert_eq!(
            reg.watermark(),
            5,
            "oldest open snapshot pins the watermark"
        );
        drop(early);
        assert_eq!(reg.watermark(), 9);
        drop(late);
        assert_eq!(reg.watermark(), 9, "empty again: watermark = published");
        assert_eq!(reg.open_count(), 0);
    }

    #[test]
    fn watermark_is_monotone_under_churn() {
        let obs = Registry::new();
        let reg = SnapshotRegistry::new(&obs);
        let mut high = 0u64;
        let mut held: Vec<Snapshot> = Vec::new();
        for i in 1..200u64 {
            reg.publish(i);
            held.push(reg.begin());
            if i % 3 == 0 {
                held.remove(0);
            }
            let w = reg.watermark();
            assert!(w >= high, "watermark moved backwards: {w} < {high}");
            high = w;
        }
    }

    #[test]
    fn close_records_age_and_open_gauge_balances() {
        let obs = Registry::new();
        let reg = SnapshotRegistry::new(&obs);
        reg.publish(10);
        let s = reg.begin();
        reg.publish(17);
        drop(s);
        let snap = obs.snapshot();
        assert_eq!(snap.gauge("mvcc.snapshots_open"), Some(0));
        assert_eq!(snap.counter("mvcc.snapshots_opened"), Some(1));
        let age = snap.histogram("mvcc.snapshot_age").expect("age histogram");
        // closed 7 commit LSNs behind; the estimate is bucket-bounded
        assert_eq!(age.count, 1);
        assert!(age.max >= 7);
    }
}
