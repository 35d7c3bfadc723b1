//! Analysis over the distributed log streams, optionally checkpoint-bounded.
//!
//! Without the bound every stream is replayed from its truncation point —
//! what media recovery needs, since a checkpoint proves flushes to the
//! data disk that was lost, not to the archive copy. With it, any update
//! logged **before** a stream's last *complete*
//! `CheckpointBegin`/`CheckpointEnd` pair needs no redo — a durable
//! `CheckpointEnd` proves the fuzzy checkpoint's flush finished, so every
//! page dirtied before its `CheckpointBegin` reached the data disk through
//! a verified write.
//!
//! The bound is applied **per stream, independently**. After a crash in the
//! middle of a checkpoint, streams may disagree about which checkpoint is
//! their last complete one; that is fine, because the rule above is sound
//! for each stream on its own.
//!
//! Three kinds of information must still be gathered from the *entire*
//! scan, bound or no bound:
//!
//! * **commit/abort records** — a transaction's commit may sit behind one
//!   stream's bound while its fragments sit ahead of another's;
//! * **compensation provenance** (`undoes` LSNs) — so undo stays idempotent
//!   across repeated restarts;
//! * **LSN and transaction-id high-water marks** — the reopened engine must
//!   never reuse either.
//!
//! Undo candidates behind the bound are kept only for transactions named in
//! the bounding `CheckpointBegin`'s active list: a transaction absent from
//! that list had finished before the checkpoint instant, so it is either a
//! winner (commit record retained somewhere) or fully compensated (its
//! compensations precede the bound in the same stream and are therefore
//! durable and scanned).

use super::redo::{LogicalMeta, RedoBody, RedoItem};
use crate::db::{TxnId, WalConfig};
use crate::record::LogRecord;
use crate::stream::{IndexedRecord, ScanStats};
use crate::txnlog::UndoEntry;
use rmdb_storage::{read_page_counted, Disk, Page, PageId, IO_RETRIES};
use std::collections::{BTreeMap, HashMap, HashSet};

/// One not-yet-ruled-out undo unit of a potential loser, and the stream
/// its update was logged on (where its compensation goes).
pub(crate) struct UndoCand {
    pub entry: UndoEntry,
    pub stream: usize,
}

/// Everything the redo/undo phases need, plus the bound accounting.
#[derive(Default)]
pub(crate) struct Analysis {
    /// Per-page redo work, pages in deterministic order; items in stream
    /// append order (sorted by LSN before replay).
    pub redo: BTreeMap<PageId, Vec<RedoItem>>,
    /// Per-transaction undo candidates.
    pub updates_by_txn: HashMap<TxnId, Vec<UndoCand>>,
    /// Transactions with a durable commit record on any stream.
    pub committed: HashSet<TxnId>,
    /// Command-logged transactions whose record sits ahead of the bound:
    /// commit LSN (the DAG ordering key) and read set, for the
    /// dependency-aware scheduler.
    pub logical: HashMap<TxnId, LogicalMeta>,
    /// Command-logged (logical) commit records found anywhere in the scan.
    pub logical_commits: u64,
    /// `undoes` LSNs of every durable compensation record.
    pub compensated: HashSet<u64>,
    /// High-water marks for the reopened engine.
    pub max_lsn: u64,
    pub max_txn: TxnId,
    /// Per-stream record-aligned truncation frame: the nearest frame at or
    /// before the bounding `CheckpointBegin` whose first byte begins a
    /// record, computed here so truncation needs no second log pass.
    pub bounds: Vec<Option<u64>>,
    pub records_scanned: usize,
    pub records_skipped: u64,
    /// Rerouted duplicate update/compensation fragments (same globally
    /// unique `new_lsn` durable on two streams after a failover) analysed
    /// exactly once; the extra copies are counted here.
    pub duplicates: u64,
    pub checkpoints_found: u64,
    pub quarantined_log_pages: u64,
    pub salvaged_records: u64,
    pub retried_ios: u64,
}

/// Run analysis over the indexed scans of every stream; `bounded` applies
/// each stream's checkpoint bound.
pub(crate) fn analyze(scans: &[(Vec<IndexedRecord>, ScanStats)], bounded: bool) -> Analysis {
    let mut a = Analysis::default();
    // Cross-stream dedup of failover-rerouted fragments by their globally
    // unique `new_lsn`.
    let mut seen_lsns: HashSet<u64> = HashSet::new();
    for (stream_idx, (records, stats)) in scans.iter().enumerate() {
        a.quarantined_log_pages += stats.corrupt_pages;
        a.retried_ios += stats.retried_reads;
        if stats.corrupt_pages > 0 {
            a.salvaged_records += records.len() as u64;
        }

        // Locate this stream's last complete Begin/End pair. An End pairs
        // with the most recent Begin: the engine writes checkpoints
        // serially, and an End is only ever appended after that round's
        // Begin reached every stream, so within a stream the pairing is
        // unambiguous. An orphan End (its Begin truncated away or never
        // durable) bounds nothing.
        let mut open: Option<(usize, &Vec<TxnId>)> = None;
        let mut bound: Option<(usize, &Vec<TxnId>)> = None;
        for (i, ir) in records.iter().enumerate() {
            match &ir.rec {
                LogRecord::CheckpointBegin { active } => open = Some((i, active)),
                LogRecord::CheckpointEnd => {
                    if let Some(pair) = open.take() {
                        a.checkpoints_found += 1;
                        bound = Some(pair);
                    }
                }
                _ => {}
            }
        }
        let (bound_idx, active): (usize, HashSet<TxnId>) = match bound.filter(|_| bounded) {
            Some((bi, act)) => {
                // Truncation cut: records span log pages, so the Begin's own
                // frame may start mid-record; walk back to the nearest
                // record-aligned frame. records[0] always begins the first
                // scanned frame, so a bound implies such a frame exists.
                let cut = records[..=bi]
                    .iter()
                    .rev()
                    .find(|r| r.frame_start)
                    .map(|r| r.frame);
                a.bounds.push(cut);
                (bi, act.iter().copied().collect())
            }
            None => {
                a.bounds.push(None);
                (0, HashSet::new())
            }
        };

        for (i, ir) in records.iter().enumerate() {
            a.records_scanned += 1;
            if let Some(t) = ir.rec.txn() {
                a.max_txn = a.max_txn.max(t);
            }
            let behind = i < bound_idx;
            match &ir.rec {
                LogRecord::Update {
                    txn,
                    page,
                    new_lsn,
                    offset,
                    before,
                    after,
                    ..
                } => {
                    a.max_lsn = a.max_lsn.max(new_lsn.0);
                    if !seen_lsns.insert(new_lsn.0) {
                        a.duplicates += 1;
                        continue;
                    }
                    if behind {
                        a.records_skipped += 1;
                    } else {
                        a.redo.entry(*page).or_default().push(RedoItem {
                            new_lsn: *new_lsn,
                            txn: *txn,
                            body: RedoBody::Install {
                                offset: *offset,
                                data: after.clone(),
                            },
                        });
                    }
                    // behind the bound, only a transaction still in flight
                    // at the checkpoint instant may be a loser that needs
                    // the before-image
                    if !behind || active.contains(txn) {
                        a.updates_by_txn.entry(*txn).or_default().push(UndoCand {
                            entry: UndoEntry {
                                page: *page,
                                offset: *offset,
                                before: before.clone(),
                                new_lsn: *new_lsn,
                            },
                            stream: stream_idx,
                        });
                    }
                }
                LogRecord::Compensation {
                    txn,
                    page,
                    undoes,
                    new_lsn,
                    offset,
                    data,
                } => {
                    a.max_lsn = a.max_lsn.max(new_lsn.0);
                    a.compensated.insert(undoes.0);
                    if !seen_lsns.insert(new_lsn.0) {
                        a.duplicates += 1;
                    } else if behind {
                        a.records_skipped += 1;
                    } else {
                        a.redo.entry(*page).or_default().push(RedoItem {
                            new_lsn: *new_lsn,
                            txn: *txn,
                            body: RedoBody::Install {
                                offset: *offset,
                                data: data.clone(),
                            },
                        });
                    }
                }
                LogRecord::Commit { txn } => {
                    a.committed.insert(*txn);
                }
                LogRecord::Logical {
                    txn,
                    commit_lsn,
                    reads,
                    ops,
                    ..
                } => {
                    // The logical record IS the commit record; dedup whole
                    // records by their globally unique commit LSN.
                    a.max_lsn = a.max_lsn.max(commit_lsn.0);
                    for op in ops {
                        a.max_lsn = a.max_lsn.max(op.lsn().0);
                    }
                    if !seen_lsns.insert(commit_lsn.0) {
                        a.duplicates += 1;
                    } else {
                        a.committed.insert(*txn);
                        a.logical_commits += 1;
                        if behind {
                            // committed before the bounding CheckpointBegin,
                            // so its dirtied pages were in the fuzzy
                            // checkpoint's flush set: no redo needed
                            a.records_skipped += 1;
                        } else {
                            a.logical.insert(
                                *txn,
                                LogicalMeta {
                                    commit_lsn: commit_lsn.0,
                                    reads: reads.clone(),
                                },
                            );
                            for op in ops {
                                a.redo.entry(op.page()).or_default().push(RedoItem {
                                    new_lsn: op.lsn(),
                                    txn: *txn,
                                    body: RedoBody::Op(op.clone()),
                                });
                            }
                        }
                    }
                }
                LogRecord::Abort { .. }
                | LogRecord::CheckpointBegin { .. }
                | LogRecord::CheckpointEnd => {}
            }
        }
    }
    a
}

/// Harvest the doublewrite buffer: the latest valid full image per page,
/// used to rebuild home frames torn by the crash. A corrupt slot means the
/// crash hit the doublewrite write itself — the home frame is then still
/// intact, so the slot is simply ignored.
pub(crate) fn harvest_doublewrite(
    data: &Disk,
    cfg: &WalConfig,
    retried: &mut u64,
) -> HashMap<PageId, Page> {
    let mut doublewrite: HashMap<PageId, Page> = HashMap::new();
    for slot in cfg.data_pages..data.capacity() {
        if !data.is_allocated(slot) {
            continue;
        }
        if let Ok(p) = read_page_counted(data, slot, IO_RETRIES, retried) {
            match doublewrite.get(&p.id) {
                Some(have) if have.lsn >= p.lsn => {}
                _ => {
                    doublewrite.insert(p.id, p);
                }
            }
        }
    }
    doublewrite
}
