//! The recovery engine: crash restart and media recovery over the
//! distributed logs — without merging them.
//!
//! The paper's companion work (\[13\]) shows transaction and system failures
//! can be recovered without merging the per-log-processor logs into one
//! physical log. The key idea reconstructed here: updates to a single page
//! are totally ordered by the page-level locking scheduler, and every
//! fragment carries the page LSN it produces, so redo can process each
//! page's fragments in LSN order no matter which stream they came from —
//! there is never a need for a global inter-stream order.
//!
//! Every entry point runs the same undo/redo ("repeat history") engine:
//!
//! 1. **Analysis** (`analysis.rs`) — scan every stream independently; a
//!    transaction is a *winner* iff a commit record for it is durable on
//!    any stream (the commit protocol forced all its fragment streams
//!    first, so a durable commit implies durable fragments). With the
//!    checkpoint bound on, updates behind a stream's last complete fuzzy
//!    checkpoint pair are skipped: the checkpoint proved them home.
//! 2. **Redo** (`redo.rs`) — apply every retained `Update`, `Compensation`
//!    and command-logged op, per page in `new_lsn` order, skipping units
//!    already reflected (`page.lsn >= new_lsn`). Pages hash into K shards
//!    replayed by K worker threads. The redo phase is the engine's one
//!    seam ([`RedoPhase`]): rmdb-restart passes its transaction-DAG
//!    scheduler in.
//! 3. **Undo** — serial, in the coordinator: for each loser, apply
//!    before-images of its not-yet-compensated updates in reverse LSN
//!    order, appending compensation records (so recovery itself is
//!    crash-safe and idempotent), then an abort record. A page touched
//!    only behind the bound is read from the data disk.
//! 4. **Flush** — force the logs, then write the recovered pages home;
//!    optionally truncate each stream behind its bound.
//!
//! The entry points differ only in how they set up the [`Engine`]:
//!
//! * [`WalDb::recover`] — one worker, bound on, no truncation: a later
//!   media recovery from an older archive still needs the log;
//! * [`WalDb::recover_from_archive`] — bound off: a `CheckpointEnd` proves
//!   flushes to the destroyed data disk, not to the archive;
//! * `rmdb_restart::restart` — K workers, bound on, truncation and the
//!   redo scheduler as configured.
//!
//! The recovered state is **byte-identical for every worker count K**:
//! everything order-sensitive stays in the serial coordinator.

mod analysis;
mod redo;
mod report;

pub use redo::{
    apply_item, load_redo_page, page_sharded_redo, LogicalMeta, PageLoad, RedoBody, RedoItem,
    RedoOutcome,
};
pub use report::{PhaseTimings, RecoveryReport, ReplaySummary, RestartReport, WorkerStats};

use crate::db::{CrashImage, TxnId, WalConfig, WalDb, WalError};
use crate::manager::ParallelLogManager;
use crate::record::LogRecord;
use analysis::{analyze, harvest_doublewrite};
use rmdb_obs::{EventKind, Registry};
use rmdb_storage::{write_page_verified, Disk, Lsn, Page, PageId, StorageError, IO_RETRIES};
use std::collections::{btree_map::Entry, BTreeMap, HashMap};
use std::time::{Duration, Instant};

/// The redo phase: replay the per-page redo map (with the command-logged
/// transactions' metadata) against the data disk on K workers, returning
/// the rebuilt pages. [`page_sharded_redo`] is the default.
pub type RedoPhase = fn(
    &Disk,
    &HashMap<PageId, Page>,
    BTreeMap<PageId, Vec<RedoItem>>,
    &HashMap<TxnId, LogicalMeta>,
    usize,
) -> Result<RedoOutcome, StorageError>;

/// How one run of the engine is set up. Each entry point fixes these; none
/// of them is a configuration option.
#[derive(Clone, Copy)]
pub struct Engine {
    /// Redo worker threads (K ≥ 1).
    pub workers: usize,
    /// Skip redo behind each stream's last complete checkpoint pair.
    pub checkpoint_bound: bool,
    /// Durably truncate each stream behind its bound once the recovered
    /// state is home, so the next restart scans less.
    pub truncate_behind_bound: bool,
    /// The redo scheduler.
    pub redo: RedoPhase,
}

impl Engine {
    /// [`WalDb::recover`]: crash recovery that leaves the log intact.
    pub(crate) const CRASH: Engine = Engine {
        workers: 1,
        checkpoint_bound: true,
        truncate_behind_bound: false,
        redo: page_sharded_redo,
    };
    /// [`WalDb::recover_from_archive`]: replay every retained record.
    pub(crate) const MEDIA: Engine = Engine {
        checkpoint_bound: false,
        ..Engine::CRASH
    };
}

/// [`WalDb::recover`], publishing its accounting into `obs`; see [`run`].
pub fn recover_observed(
    image: CrashImage,
    cfg: WalConfig,
    obs: &Registry,
) -> Result<(WalDb, RecoveryReport), WalError> {
    let (db, report) = run(image, cfg, Engine::CRASH, obs)?;
    Ok((db, report.base))
}

/// Run the recovery engine over `image` as `engine` says; returns the
/// reopened engine and a [`RestartReport`].
///
/// Publishes into `obs` one `recovery.*` counter per report field,
/// per-phase histograms `recovery.{analysis,redo,undo,flush,total}_us`,
/// and one [`EventKind::RecoveryPhase`] event per phase (stream = phase
/// ordinal 0–3, payload = µs). Under the transaction-DAG scheduler it adds
/// the `replay.*` counters, per-worker `replay.worker_{nodes,busy_us}`
/// histograms and one [`EventKind::ReplayPhase`] event.
pub fn run(
    image: CrashImage,
    cfg: WalConfig,
    engine: Engine,
    obs: &Registry,
) -> Result<(WalDb, RestartReport), WalError> {
    let t_start = Instant::now();
    let workers = engine.workers.max(1);
    let CrashImage { mut data, logs } = image;
    // one pass over each log: reopen it and take its records
    let (mut log, scans) = ParallelLogManager::open_scanned(logs, cfg.policy, cfg.seed)?;

    // ---- Phase 1: analysis ----
    let a = analyze(&scans, engine.checkpoint_bound);
    let mut report = RestartReport {
        workers,
        records_skipped: a.records_skipped,
        checkpoints_found: a.checkpoints_found,
        bounded_streams: a.bounds.iter().flatten().count(),
        ..RestartReport::default()
    };
    let base = &mut report.base;
    base.streams_scanned = a.bounds.len();
    base.records_scanned = a.records_scanned;
    base.quarantined_log_pages = a.quarantined_log_pages;
    base.salvaged_records = a.salvaged_records;
    base.duplicate_fragments = a.duplicates;
    base.retried_ios = a.retried_ios;
    base.logical_commits = a.logical_commits;
    base.committed_txns = a.committed.iter().copied().collect();
    base.committed_txns.sort_unstable();
    let doublewrite = harvest_doublewrite(&data, &cfg, &mut base.retried_ios);
    report.timings.analysis = t_start.elapsed();
    phase_done(obs, 0, "recovery.analysis_us", report.timings.analysis);

    // ---- Phase 2: redo ----
    let t_redo = Instant::now();
    let out = (engine.redo)(&data, &doublewrite, a.redo, &a.logical, workers)?;
    let mut pages = out.pages;
    let mut quarantined = out.quarantined;
    let base = &mut report.base;
    base.redone_updates = out.redone;
    base.reexecuted_ops = out.reexecuted_ops;
    base.torn_pages_repaired += out.torn_repaired;
    base.quarantined_data_pages += quarantined.len() as u64;
    base.retried_ios += out.retried_ios;
    report.per_worker = out.per_worker;
    report.replay = out.replay;
    report.timings.redo = t_redo.elapsed();
    if let Some(r) = &report.replay {
        obs.counter("replay.dag_nodes").add(r.dag_nodes);
        obs.counter("replay.dag_edges").add(r.dag_edges);
        obs.counter("replay.txns_reexecuted").add(r.txns_reexecuted);
        obs.counter("replay.pages_installed").add(r.pages_installed);
        for w in &report.per_worker {
            obs.histogram("replay.worker_nodes").record(w.pages);
            obs.histogram("replay.worker_busy_us")
                .record(w.busy.as_micros() as u64);
        }
        let us = report.timings.redo.as_micros() as u64;
        obs.emit(EventKind::ReplayPhase, 0, workers as u64, r.dag_nodes, us);
    }
    phase_done(obs, 1, "recovery.redo_us", report.timings.redo);

    // ---- Phase 3: backward undo of losers (serial) ----
    let t_undo = Instant::now();
    let base = &mut report.base;
    let mut updates_by_txn = a.updates_by_txn;
    let mut losers: Vec<TxnId> = updates_by_txn
        .keys()
        .copied()
        .filter(|t| !a.committed.contains(t))
        .collect();
    losers.sort_unstable();

    let mut next_lsn = a.max_lsn + 1;
    for &loser in &losers {
        let mut cands = updates_by_txn.remove(&loser).expect("loser has updates");
        cands.retain(|c| !a.compensated.contains(&c.entry.new_lsn.0));
        cands.sort_by_key(|c| std::cmp::Reverse(c.entry.new_lsn));
        let mut last_stream = None;
        for cand in &cands {
            let entry = &cand.entry;
            if quarantined.contains(&entry.page) {
                // the page is unreadable either way; undoing onto a fresh
                // frame would invent contents for the untouched bytes
                continue;
            }
            if entry.offset as usize + entry.before.len() > rmdb_storage::PAYLOAD_SIZE {
                return Err(WalError::Storage(StorageError::Protocol(
                    "log fragment exceeds page payload",
                )));
            }
            // A candidate from behind the checkpoint bound may touch a page
            // the bounded redo map never loaded — fetch its current image
            // from the data disk rather than starting from a blank frame.
            let page = match pages.entry(entry.page) {
                Entry::Occupied(e) => e.into_mut(),
                Entry::Vacant(slot) => {
                    match load_redo_page(
                        &data,
                        &doublewrite,
                        entry.page,
                        false,
                        &mut base.retried_ios,
                    )? {
                        PageLoad::Ready(p, torn) => {
                            base.torn_pages_repaired += u64::from(torn);
                            slot.insert(p)
                        }
                        PageLoad::Quarantined => {
                            base.quarantined_data_pages += 1;
                            quarantined.insert(entry.page);
                            continue;
                        }
                    }
                }
            };
            let clr_lsn = Lsn(next_lsn);
            next_lsn += 1;
            entry.restore(page);
            page.lsn = clr_lsn;
            base.undone_updates += 1;
            log.append_to(cand.stream, &entry.compensation(loser, clr_lsn))?;
            last_stream = Some(cand.stream);
        }
        log.append_to(last_stream.unwrap_or(0), &LogRecord::Abort { txn: loser })?;
    }
    base.loser_txns = losers;
    report.timings.undo = t_undo.elapsed();
    phase_done(obs, 2, "recovery.undo_us", report.timings.undo);

    // ---- Phase 4: make it durable (log first, then data), then truncate
    // each stream behind its checkpoint bound ----
    let t_flush = Instant::now();
    log.force_all()?;
    for (id, page) in &pages {
        write_page_verified(&mut data, id.0, page, IO_RETRIES)?;
    }
    report.base.pages_written = pages.len() as u64;
    if engine.truncate_behind_bound {
        for (stream, bound) in a.bounds.iter().enumerate() {
            if let Some(frame) = bound {
                log.truncate_stream_to(stream, *frame)?;
                report.truncated_streams += 1;
            }
        }
    }
    report.timings.flush = t_flush.elapsed();
    report.timings.total = t_start.elapsed();
    phase_done(obs, 3, "recovery.flush_us", report.timings.flush);
    obs.histogram("recovery.total_us")
        .record(report.timings.total.as_micros() as u64);
    publish(obs, &report);

    let db = WalDb::from_parts(cfg, data, log, a.max_txn + 1, next_lsn);
    Ok((db, report))
}

/// Record a finished phase: its histogram and a
/// [`EventKind::RecoveryPhase`] event (stream = phase ordinal).
fn phase_done(obs: &Registry, ordinal: u64, histogram: &str, elapsed: Duration) {
    let us = elapsed.as_micros() as u64;
    obs.histogram(histogram).record(us);
    obs.emit(EventKind::RecoveryPhase, 0, ordinal, 0, us);
}

/// Publish the run's accounting as `recovery.*` counters.
fn publish(obs: &Registry, report: &RestartReport) {
    let b = &report.base;
    for (name, value) in [
        ("recovery.records_scanned", b.records_scanned as u64),
        ("recovery.records_skipped", report.records_skipped),
        ("recovery.redone_updates", b.redone_updates),
        ("recovery.undone_updates", b.undone_updates),
        ("recovery.pages_written", b.pages_written),
        ("recovery.torn_pages_repaired", b.torn_pages_repaired),
        ("recovery.quarantined_log_pages", b.quarantined_log_pages),
        ("recovery.quarantined_data_pages", b.quarantined_data_pages),
        ("recovery.salvaged_records", b.salvaged_records),
        ("recovery.retried_ios", b.retried_ios),
        ("recovery.duplicate_fragments", b.duplicate_fragments),
        ("recovery.logical_commits", b.logical_commits),
        ("recovery.reexecuted_ops", b.reexecuted_ops),
    ] {
        obs.counter(name).add(value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::{LogMode, WalDb};
    use crate::select::SelectionPolicy;

    fn cfg(streams: usize) -> WalConfig {
        WalConfig {
            data_pages: 32,
            pool_frames: 8,
            log_streams: streams,
            ..WalConfig::default()
        }
    }

    fn read_committed(db: &mut WalDb, page: u64, offset: usize, len: usize) -> Vec<u8> {
        let t = db.begin();
        let v = db.read(t, page, offset, len).unwrap();
        db.commit(t).unwrap();
        v
    }

    #[test]
    fn committed_txn_survives_crash() {
        let mut db = WalDb::new(cfg(3));
        let t = db.begin();
        db.write(t, 5, 0, b"durable").unwrap();
        db.commit(t).unwrap();
        let (mut db2, report) = WalDb::recover(db.crash_image(), cfg(3)).unwrap();
        assert_eq!(read_committed(&mut db2, 5, 0, 7), b"durable");
        assert_eq!(report.committed_txns.len(), 1);
        assert!(report.loser_txns.is_empty());
    }

    #[test]
    fn uncommitted_txn_disappears() {
        let mut db = WalDb::new(cfg(2));
        let t0 = db.begin();
        db.write(t0, 1, 0, b"base").unwrap();
        db.commit(t0).unwrap();
        let t = db.begin();
        db.write(t, 1, 0, b"junk").unwrap();
        // force the log so the loser's fragments are durable — recovery
        // must still roll them back
        let _ = t;
        let (mut db2, report) = WalDb::recover(db.crash_image(), cfg(2)).unwrap();
        assert_eq!(read_committed(&mut db2, 1, 0, 4), b"base");
        assert!(report.committed_txns.contains(&t0));
    }

    #[test]
    fn stolen_dirty_page_of_loser_is_undone() {
        // Tiny pool forces the loser's dirty page onto the data disk
        // (STEAL) before the crash; recovery must restore the base value.
        let mut db = WalDb::new(WalConfig {
            data_pages: 32,
            pool_frames: 2,
            log_streams: 2,
            ..WalConfig::default()
        });
        let setup = db.begin();
        db.write(setup, 0, 0, b"base0").unwrap();
        db.commit(setup).unwrap();
        db.checkpoint().unwrap();

        let loser = db.begin();
        db.write(loser, 0, 0, b"evil0").unwrap();
        db.write(loser, 1, 0, b"evil1").unwrap();
        db.write(loser, 2, 0, b"evil2").unwrap(); // evictions happen here
        let image = db.crash_image();
        // prove the steal actually happened: some "evil" page is on disk
        let stolen = (0..3).any(|p| {
            image
                .data
                .read_page(p)
                .map(|pg| pg.read_at(0, 4) == b"evil")
                .unwrap_or(false)
        });
        assert!(stolen, "test setup: a dirty loser page must reach disk");

        let (mut db2, report) = WalDb::recover(image, cfg(2)).unwrap();
        assert_eq!(read_committed(&mut db2, 0, 0, 5), b"base0");
        assert_eq!(read_committed(&mut db2, 1, 0, 5), vec![0u8; 5]);
        assert_eq!(report.loser_txns, vec![loser]);
        assert!(report.undone_updates >= 1);
    }

    #[test]
    fn fragments_scattered_across_streams_recover_without_merging() {
        let mut db = WalDb::new(WalConfig {
            data_pages: 32,
            pool_frames: 16,
            log_streams: 4,
            policy: SelectionPolicy::Cyclic,
            ..WalConfig::default()
        });
        let t = db.begin();
        for page in 0..8 {
            db.write_via(page as usize, t, page, 0, format!("pg{page:02}").as_bytes())
                .unwrap();
        }
        db.commit(t).unwrap();
        let (mut db2, report) = WalDb::recover(db.crash_image(), cfg(4)).unwrap();
        for page in 0..8 {
            assert_eq!(
                read_committed(&mut db2, page, 0, 4),
                format!("pg{page:02}").into_bytes()
            );
        }
        assert_eq!(report.streams_scanned, 4);
        assert_eq!(report.redone_updates, 8);
    }

    #[test]
    fn multiple_updates_same_page_redo_in_lsn_order() {
        let mut db = WalDb::new(cfg(3));
        let t = db.begin();
        db.write(t, 7, 0, b"v1").unwrap();
        db.write(t, 7, 0, b"v2").unwrap();
        db.write(t, 7, 1, b"X").unwrap(); // final: "vX"
        db.commit(t).unwrap();
        let (mut db2, _) = WalDb::recover(db.crash_image(), cfg(3)).unwrap();
        assert_eq!(read_committed(&mut db2, 7, 0, 2), b"vX");
    }

    #[test]
    fn aborted_txn_stays_aborted_after_crash() {
        let mut db = WalDb::new(cfg(2));
        let t0 = db.begin();
        db.write(t0, 3, 0, b"keep").unwrap();
        db.commit(t0).unwrap();
        let t = db.begin();
        db.write(t, 3, 0, b"drop").unwrap();
        db.abort(t).unwrap();
        let (mut db2, _) = WalDb::recover(db.crash_image(), cfg(2)).unwrap();
        assert_eq!(read_committed(&mut db2, 3, 0, 4), b"keep");
    }

    #[test]
    fn winner_and_loser_interleaved_on_different_pages() {
        let mut db = WalDb::new(cfg(3));
        let w = db.begin();
        let l = db.begin();
        db.write(w, 1, 0, b"winner").unwrap();
        db.write(l, 2, 0, b"loser!").unwrap();
        db.write(w, 3, 0, b"also-w").unwrap();
        db.commit(w).unwrap();
        // l never commits
        let (mut db2, report) = WalDb::recover(db.crash_image(), cfg(3)).unwrap();
        assert_eq!(read_committed(&mut db2, 1, 0, 6), b"winner");
        assert_eq!(read_committed(&mut db2, 2, 0, 6), vec![0u8; 6]);
        assert_eq!(read_committed(&mut db2, 3, 0, 6), b"also-w");
        assert_eq!(report.loser_txns, vec![l]);
    }

    #[test]
    fn sequential_winners_on_same_page() {
        let mut db = WalDb::new(cfg(2));
        for i in 0..5u8 {
            let t = db.begin();
            db.write(t, 4, i as usize, &[b'a' + i]).unwrap();
            db.commit(t).unwrap();
        }
        let (mut db2, _) = WalDb::recover(db.crash_image(), cfg(2)).unwrap();
        assert_eq!(read_committed(&mut db2, 4, 0, 5), b"abcde");
    }

    #[test]
    fn recovery_is_idempotent() {
        let mut db = WalDb::new(cfg(2));
        let t0 = db.begin();
        db.write(t0, 1, 0, b"base").unwrap();
        db.commit(t0).unwrap();
        let l = db.begin();
        db.write(l, 1, 0, b"lost").unwrap();
        // crash, recover, crash during/after recovery, recover again
        let (db2, _) = WalDb::recover(db.crash_image(), cfg(2)).unwrap();
        let (mut db3, report) = WalDb::recover(db2.crash_image(), cfg(2)).unwrap();
        assert_eq!(read_committed(&mut db3, 1, 0, 4), b"base");
        // second recovery must not undo again (compensations durable)
        assert_eq!(report.undone_updates, 0, "idempotent undo");
    }

    #[test]
    fn checkpoint_bounds_recovery_work() {
        let mut db = WalDb::new(cfg(2));
        for i in 0..10 {
            let t = db.begin();
            db.write(t, i, 0, b"bulk").unwrap();
            db.commit(t).unwrap();
        }
        db.checkpoint().unwrap();
        let t = db.begin();
        db.write(t, 11, 0, b"tail").unwrap();
        db.commit(t).unwrap();
        let (mut db2, report) = WalDb::recover(db.crash_image(), cfg(2)).unwrap();
        assert!(
            report.records_scanned <= 4,
            "checkpoint must truncate the scan, saw {}",
            report.records_scanned
        );
        assert_eq!(read_committed(&mut db2, 0, 0, 4), b"bulk");
        assert_eq!(read_committed(&mut db2, 11, 0, 4), b"tail");
    }

    #[test]
    fn physical_logging_recovers_identically() {
        let mk = || WalConfig {
            log_mode: LogMode::Physical,
            ..cfg(2)
        };
        let mut db = WalDb::new(mk());
        let t = db.begin();
        db.write(t, 1, 50, b"phys").unwrap();
        db.commit(t).unwrap();
        let l = db.begin();
        db.write(l, 1, 50, b"gone").unwrap();
        let (mut db2, _) = WalDb::recover(db.crash_image(), mk()).unwrap();
        assert_eq!(read_committed(&mut db2, 1, 50, 4), b"phys");
    }

    #[test]
    fn unforced_commit_tail_means_loser() {
        // A transaction whose commit record was appended but the home
        // stream never forced is a loser — verify via a hand-built image.
        let mut db = WalDb::new(cfg(1));
        let t0 = db.begin();
        db.write(t0, 1, 0, b"base").unwrap();
        db.commit(t0).unwrap();
        let t = db.begin();
        db.write(t, 1, 0, b"half").unwrap();
        // Simulate "commit in progress": a checkpoint makes the fragment
        // (and even the dirty page) durable, but no commit record exists
        // ⇒ the crash image has a durable update without a commit.
        db.checkpoint().unwrap();
        let image = db.crash_image();
        assert_eq!(image.data.read_page(1).unwrap().read_at(0, 4), b"half");
        let (mut db2, report) = WalDb::recover(image, cfg(1)).unwrap();
        assert_eq!(read_committed(&mut db2, 1, 0, 4), b"base");
        assert!(report.loser_txns.contains(&t));
    }

    #[test]
    fn torn_data_page_repaired_under_physical_logging() {
        let mk = || WalConfig {
            log_mode: LogMode::Physical,
            log_frames: 1 << 14,
            ..cfg(2)
        };
        let mut db = WalDb::new(mk());
        let t = db.begin();
        db.write(t, 4, 0, b"first").unwrap();
        db.write(t, 4, 100, b"second").unwrap();
        db.commit(t).unwrap();
        // force the page to disk so there is something to tear
        db.flush_all().unwrap();
        let mut image = db.crash_image();
        assert!(image.data.is_allocated(4));
        // tear the data page: half the frame is stale
        let mut fresh = image.data.read_page(4).unwrap();
        fresh.write_at(0, b"newer");
        fresh.write_at(3000, b"tail-change"); // beyond the cut point
        fresh.lsn = rmdb_storage::Lsn(999);
        image
            .data
            .write_partial(4, &fresh.to_frame(), 2000)
            .unwrap();
        assert!(image.data.read_page(4).is_err(), "page must be torn");

        let (mut db2, report) = WalDb::recover(image, mk()).unwrap();
        assert_eq!(report.torn_pages_repaired, 1);
        assert_eq!(read_committed(&mut db2, 4, 0, 5), b"first");
        assert_eq!(read_committed(&mut db2, 4, 100, 6), b"second");
    }

    #[test]
    fn torn_data_page_repaired_from_doublewrite_under_logical_logging() {
        // logical fragments cannot rebuild a page from nothing, but every
        // home write parks a verified image in the doublewrite buffer first
        let mut db = WalDb::new(cfg(2));
        let t = db.begin();
        db.write(t, 4, 0, b"data").unwrap();
        db.commit(t).unwrap();
        db.flush_all().unwrap();
        let mut image = db.crash_image();
        let page = image.data.read_page(4).unwrap();
        // make the frame actually differ across the cut so the checksum fails
        let mut other = page.clone();
        other.write_at(0, b"XXXX");
        other.write_at(3000, b"YYYY");
        image
            .data
            .write_partial(4, &other.to_frame(), 2000)
            .unwrap();
        assert!(image.data.read_page(4).is_err());
        let (mut db2, report) = WalDb::recover(image, cfg(2)).unwrap();
        assert_eq!(report.torn_pages_repaired, 1);
        assert_eq!(report.quarantined_data_pages, 0);
        assert_eq!(read_committed(&mut db2, 4, 0, 4), b"data");
    }

    #[test]
    fn torn_data_page_without_doublewrite_is_quarantined() {
        // with the doublewrite buffer disabled and only logical fragments,
        // a torn page cannot be rebuilt: recovery quarantines it (typed
        // error on read) instead of panicking or inventing contents
        let mk = || WalConfig {
            dw_slots: 0,
            ..cfg(2)
        };
        let mut db = WalDb::new(mk());
        let t = db.begin();
        db.write(t, 4, 0, b"gone").unwrap();
        db.write(t, 5, 0, b"fine").unwrap();
        db.commit(t).unwrap();
        db.flush_all().unwrap();
        let mut image = db.crash_image();
        let page = image.data.read_page(4).unwrap();
        let mut other = page.clone();
        other.write_at(0, b"XXXX");
        other.write_at(3000, b"YYYY");
        image
            .data
            .write_partial(4, &other.to_frame(), 2000)
            .unwrap();
        assert!(image.data.read_page(4).is_err());

        let (mut db2, report) = WalDb::recover(image, mk()).unwrap();
        assert_eq!(report.quarantined_data_pages, 1);
        assert_eq!(report.torn_pages_repaired, 0);
        // the quarantined page reads as a typed storage error, not a panic
        let q = db2.begin();
        assert!(matches!(
            db2.read(q, 4, 0, 4),
            Err(WalError::Storage(
                rmdb_storage::StorageError::Corrupt { .. }
            ))
        ));
        // untouched pages are unaffected
        assert_eq!(db2.read(q, 5, 0, 4).unwrap(), b"fine");
    }

    #[test]
    fn empty_image_recovers_to_empty_db() {
        let db = WalDb::new(cfg(2));
        let (mut db2, report) = WalDb::recover(db.crash_image(), cfg(2)).unwrap();
        assert_eq!(report.records_scanned, 0);
        assert_eq!(read_committed(&mut db2, 0, 0, 4), vec![0u8; 4]);
    }
}
