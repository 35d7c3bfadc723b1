//! # rmdb-mvcc — versioned buffer pool with lock-free snapshot reads
//!
//! The paper's differential-file architecture already contains the key
//! observation this crate generalizes: the base file `B` is a
//! stale-but-consistent snapshot that read-only transactions can consume
//! *without coordinating with writers*. MVCC turns that one implicit
//! snapshot into a continuum: every published commit produces a new
//! consistent as-of point, and each read-only transaction picks one at
//! begin and reads it without ever touching the page-level lock table or
//! waiting on the commit gate.
//!
//! Three pieces:
//!
//! * [`VersionPool`] — per page id, a small chain of `(commit_lsn,
//!   Arc<Page>)` entries in ascending order. Readers binary-search for
//!   the newest version at or below their snapshot LSN.
//! * [`SnapshotRegistry`] — tracks the highest *published* commit LSN
//!   and the set of open snapshots; their minimum is the **GC
//!   watermark** that bounds every chain.
//! * [`Mvcc`] — the facade the execution layer holds. Each committing
//!   worker calls [`Mvcc::commit`] with the page images of its durable
//!   commit; read-only transactions call
//!   [`Mvcc::begin_snapshot`] + [`Mvcc::read_at`]; a background sweeper
//!   calls [`Mvcc::gc`].
//!
//! ## The snapshot-consistency argument
//!
//! 1. Committing workers publish through [`Mvcc::commit`], which
//!    serializes them on one lock: assign the next commit LSN, install
//!    every page version, *then* advance `published`. So when a reader
//!    captures `snap = published`, every commit ≤ `snap` is fully
//!    installed — no torn commits inside a snapshot.
//! 2. Strict 2PL on the write side holds X locks until the committer has
//!    published, so two commits touching the same page are totally
//!    ordered — chains are ascending by construction.
//! 3. The GC watermark is the minimum open snapshot LSN (else
//!    `published`), and pruning keeps the newest version at or below the
//!    watermark. Every open snapshot sits at or above the watermark, so
//!    the version it would resolve to survives.
//!
//! "Lock-free" here is a statement about the *transaction-level*
//! machinery: snapshot reads take no page locks, join no lock-table
//! queues, and never wait for a log force. The per-page version chain
//! uses a short read-latch held only for an in-memory binary search —
//! never across I/O and never dependent on writer progress.

mod pool;
mod snapshot;

pub use pool::VersionPool;
pub use snapshot::{Snapshot, SnapshotRegistry};

use rmdb_obs::{EventKind, Registry};
use rmdb_storage::{Page, PageId};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// The MVCC facade: version pool + snapshot registry + commit-LSN
/// allocator, with one publish lock making commit publication atomic.
#[derive(Debug)]
pub struct Mvcc {
    pool: VersionPool,
    registry: Arc<SnapshotRegistry>,
    /// Last commit LSN handed out; the publish lock covers its advance.
    last_commit: AtomicU64,
    /// Serializes [`Mvcc::commit`]: LSN assignment, installs, and the
    /// publish store happen as one atomic step with respect to other
    /// committers — concurrent committing workers publish through it.
    publish_lock: Mutex<()>,
    obs: Registry,
}

impl Mvcc {
    /// An empty MVCC store covering page ids `0..data_pages`.
    pub fn new(data_pages: usize, obs: &Registry) -> Mvcc {
        Mvcc {
            pool: VersionPool::new(data_pages, obs),
            registry: SnapshotRegistry::new(obs),
            last_commit: AtomicU64::new(0),
            publish_lock: Mutex::new(()),
            obs: obs.clone(),
        }
    }

    /// Publish one durable commit: assign the next commit LSN, install
    /// `images` as that commit's page versions, advance `published`, and
    /// return the assigned LSN. Call this only once the commit's log
    /// records are durable (the committing worker calls it right after
    /// the force, before releasing the transaction's locks).
    ///
    /// An empty `images` slice still consumes an LSN and publishes it —
    /// harmless, and it keeps the caller simple.
    pub fn commit(&self, images: &[Arc<Page>]) -> u64 {
        let guard = self.publish_lock.lock().unwrap_or_else(|e| e.into_inner());
        let lsn = self.last_commit.load(Ordering::Relaxed) + 1;
        self.pool.install(lsn, images, self.registry.watermark());
        self.last_commit.store(lsn, Ordering::Relaxed);
        self.registry.publish(lsn);
        drop(guard);
        lsn
    }

    /// Open a snapshot at the current published LSN. The guard pins the
    /// GC watermark until dropped.
    pub fn begin_snapshot(&self) -> Snapshot {
        self.registry.begin()
    }

    /// The newest committed version of `page` visible to `snap`, or
    /// `None` when the page has no version that old (it reads as
    /// all-zero — see the [`VersionPool`] docs for why the data disk
    /// must *not* be consulted instead).
    pub fn read_at(&self, page: PageId, snap: &Snapshot) -> Option<Arc<Page>> {
        self.pool.read_at(page, snap.lsn())
    }

    /// Sweep every chain against the current GC watermark; returns the
    /// number of versions reclaimed and emits a
    /// [`EventKind::VersionsPruned`] event when that is non-zero.
    pub fn gc(&self) -> u64 {
        let watermark = self.registry.watermark();
        let reclaimed = self.pool.gc(watermark);
        if reclaimed > 0 {
            self.obs.emit(EventKind::VersionsPruned, 0, 0, 0, reclaimed);
        }
        reclaimed
    }

    /// The snapshot registry (for watermark/published introspection).
    pub fn registry(&self) -> &Arc<SnapshotRegistry> {
        &self.registry
    }

    /// The version pool (for chain introspection in tests and tools).
    pub fn pool(&self) -> &VersionPool {
        &self.pool
    }

    /// Highest published commit LSN.
    pub fn published(&self) -> u64 {
        self.registry.published()
    }

    /// Current GC watermark.
    pub fn watermark(&self) -> u64 {
        self.registry.watermark()
    }

    /// Live version entries across all chains.
    pub fn live_versions(&self) -> u64 {
        self.pool.live_versions()
    }

    /// Open snapshots right now.
    pub fn open_snapshots(&self) -> u64 {
        self.registry.open_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn page(id: u64, tag: u8) -> Arc<Page> {
        let mut p = Page::new(PageId(id));
        p.write_at(0, &[tag]);
        Arc::new(p)
    }

    #[test]
    fn snapshot_sees_prefix_of_commits_and_never_moves() {
        let obs = Registry::new();
        let mvcc = Mvcc::new(8, &obs);
        let l1 = mvcc.commit(&[page(0, 1), page(1, 1)]);
        assert_eq!(l1, 1);
        let snap = mvcc.begin_snapshot();
        let l2 = mvcc.commit(&[page(0, 2)]);
        assert_eq!(l2, 2);
        // the open snapshot still reads the pre-commit-2 world
        assert_eq!(mvcc.read_at(PageId(0), &snap).unwrap().payload()[0], 1);
        assert_eq!(mvcc.read_at(PageId(1), &snap).unwrap().payload()[0], 1);
        assert!(mvcc.read_at(PageId(2), &snap).is_none(), "never committed");
        // a fresh snapshot sees commit 2
        let snap2 = mvcc.begin_snapshot();
        assert_eq!(mvcc.read_at(PageId(0), &snap2).unwrap().payload()[0], 2);
    }

    #[test]
    fn gc_respects_open_snapshots_then_reclaims() {
        let obs = Registry::new();
        let mvcc = Mvcc::new(4, &obs);
        mvcc.commit(&[page(0, 1)]);
        let pinned = mvcc.begin_snapshot();
        mvcc.commit(&[page(0, 2)]);
        mvcc.commit(&[page(0, 3)]);
        assert_eq!(mvcc.gc(), 0, "pinned snapshot keeps every version alive");
        assert_eq!(mvcc.read_at(PageId(0), &pinned).unwrap().payload()[0], 1);
        drop(pinned);
        assert_eq!(
            mvcc.gc(),
            2,
            "watermark jumps to published; old versions die"
        );
        assert_eq!(mvcc.live_versions(), 1);
        let snap = obs.snapshot();
        assert_eq!(
            snap.counter("mvcc.versions_installed"),
            Some(snap.counter("mvcc.versions_pruned").unwrap_or(0) + mvcc.live_versions()),
            "conservation: installed == pruned + live"
        );
    }

    #[test]
    fn concurrent_readers_see_consistent_two_page_invariant() {
        // writers keep moving value between two pages so the sum is
        // invariant per commit; readers must never observe a torn pair
        let obs = Registry::new();
        let mvcc = Arc::new(Mvcc::new(2, &obs));
        let total: u8 = 100;
        let seed = |a: u8| vec![page(0, a), page(1, total - a)];
        mvcc.commit(&seed(50));
        let stop = Arc::new(AtomicU64::new(0));
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let mvcc = Arc::clone(&mvcc);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut checked = 0u64;
                    while stop.load(Ordering::Acquire) == 0 {
                        let snap = mvcc.begin_snapshot();
                        let a = mvcc.read_at(PageId(0), &snap).unwrap().payload()[0];
                        let b = mvcc.read_at(PageId(1), &snap).unwrap().payload()[0];
                        assert_eq!(a as u16 + b as u16, total as u16, "torn snapshot");
                        checked += 1;
                    }
                    checked
                })
            })
            .collect();
        for i in 0..2_000u64 {
            let a = (i % 99) as u8 + 1;
            mvcc.commit(&seed(a));
            if i % 64 == 0 {
                mvcc.gc();
            }
        }
        stop.store(1, Ordering::Release);
        let checked: u64 = readers.into_iter().map(|h| h.join().unwrap()).sum();
        assert!(checked > 0, "readers never got a snapshot in");
        mvcc.gc();
        assert_eq!(mvcc.live_versions(), 2, "quiesced: one version per page");
    }
}
