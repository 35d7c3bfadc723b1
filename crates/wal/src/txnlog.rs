//! The transaction write vocabulary both engines share: log fragments,
//! undo entries and their compensations, deferred command capture, the
//! adaptive logging decision and the doublewrite-protected home write.
//!
//! A query processor turns each page update into one *log fragment*
//! ([`fragment`]) plus the [`UndoEntry`] that reverses it. Under
//! [`LoggingPolicy::Command`]/[`Adaptive`](LoggingPolicy::Adaptive) a
//! transaction instead retains its fragments in a [`Capture`] next to the
//! matching [`LogicalOp`]s, pins each page it writes once, and decides at
//! commit ([`Capture::command_record`]) between one command record and a
//! [`spill`](Capture::spill) of the retained fragments.
//!
//! [`WalDb`](crate::WalDb) and rmdb-exec's `ExecDb` both build every
//! `Update`, `Compensation` and `Logical` record here; recovery's undo
//! builds its compensations through [`UndoEntry`] too. Locking, routing,
//! tickets, pin budgets and pool handling stay with each engine — this
//! module sees a pool only through [`Frames`].

use crate::db::{LogMode, LoggingPolicy, TxnId, WalConfig};
use crate::record::{LogRecord, LogicalOp, DECISION_COST, DECISION_FORCED};
use rmdb_storage::{
    write_page_verified, BufferPool, Disk, Lsn, Page, PageId, ShardedPool, StorageError, IO_RETRIES,
};
use std::collections::BTreeSet;

/// An undoable update: the before-image one write overwrote.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UndoEntry {
    /// Written page.
    pub page: PageId,
    /// Payload offset of `before` (0 for a physical fragment).
    pub offset: u32,
    /// Bytes the write overwrote.
    pub before: Vec<u8>,
    /// LSN of the update this entry undoes.
    pub new_lsn: Lsn,
}

impl UndoEntry {
    /// The compensation record that undoes this update at `clr_lsn`.
    pub fn compensation(&self, txn: TxnId, clr_lsn: Lsn) -> LogRecord {
        LogRecord::Compensation {
            txn,
            page: self.page,
            undoes: self.new_lsn,
            new_lsn: clr_lsn,
            offset: self.offset,
            data: self.before.clone(),
        }
    }

    /// Put the before-image back into `page`. The page LSN is the
    /// caller's: a compensated undo stamps the CLR's LSN, an in-memory
    /// revert of never-logged bytes leaves it alone.
    pub fn restore(&self, page: &mut Page) {
        page.write_at(self.offset as usize, &self.before);
    }
}

/// The fragment for writing `data` at `offset` of `page` (its pre-image)
/// as update `new_lsn`, and the undo entry that reverses it. A logical
/// fragment carries the changed byte range; a physical one the full
/// before and after payloads.
pub fn fragment(
    mode: LogMode,
    txn: TxnId,
    page: &Page,
    offset: usize,
    data: &[u8],
    new_lsn: Lsn,
) -> (LogRecord, UndoEntry) {
    let (frag_offset, before, after) = match mode {
        LogMode::Logical => (
            offset,
            page.read_at(offset, data.len()).to_vec(),
            data.to_vec(),
        ),
        LogMode::Physical => {
            let before = page.payload().to_vec();
            let mut after = before.clone();
            after[offset..offset + data.len()].copy_from_slice(data);
            (0, before, after)
        }
    };
    let rec = LogRecord::Update {
        txn,
        page: page.id,
        prev_lsn: page.lsn,
        new_lsn,
        offset: frag_offset as u32,
        before: before.clone(),
        after,
    };
    let undo = UndoEntry {
        page: page.id,
        offset: frag_offset as u32,
        before,
        new_lsn,
    };
    (rec, undo)
}

/// The command form of one write: [`LogicalOp::AddU64`] when the write
/// is an increment by `add_delta`, else a [`LogicalOp::Put`] of `data`.
pub fn logical_op(
    page: PageId,
    lsn: Lsn,
    offset: usize,
    data: &[u8],
    add_delta: Option<u64>,
) -> LogicalOp {
    let offset = offset as u32;
    match add_delta {
        Some(delta) => LogicalOp::AddU64 {
            page,
            lsn,
            offset,
            delta,
        },
        None => LogicalOp::Put {
            page,
            lsn,
            offset,
            data: data.to_vec(),
        },
    }
}

/// The adaptive cost rule: spill to fragments iff the command record
/// costs more than `threshold_pct`% of the fragment bytes it replaces.
pub fn spills(logical_bytes: usize, fragment_bytes: usize, threshold_pct: u32) -> bool {
    logical_bytes as u128 * 100 > u128::from(threshold_pct) * fragment_bytes as u128
}

/// The buffer a running transaction's pages live in.
pub trait Frames {
    /// Put `entry`'s before-image back into its page, if resident.
    fn restore(&mut self, entry: &UndoEntry);
    /// Drop one pin on `page`.
    fn unpin(&mut self, page: PageId);
}

impl Frames for BufferPool {
    fn restore(&mut self, entry: &UndoEntry) {
        if let Some(p) = self.get_mut(entry.page) {
            entry.restore(p);
        }
    }

    fn unpin(&mut self, page: PageId) {
        BufferPool::unpin(self, page);
    }
}

impl<M> Frames for &ShardedPool<M> {
    fn restore(&mut self, entry: &UndoEntry) {
        Frames::restore(&mut self.lock(entry.page).pool, entry);
    }

    fn unpin(&mut self, page: PageId) {
        self.lock(page).pool.unpin(page);
    }
}

/// Undo never-logged writes in memory — `undo` newest first, bytes only —
/// then drop one pin on each page in `pins`.
pub fn discard(frames: &mut impl Frames, undo: &[UndoEntry], pins: &[PageId]) {
    for entry in undo.iter().rev() {
        frames.restore(entry);
    }
    for &page in pins {
        frames.unpin(page);
    }
}

/// Deferred capture for a [`LoggingPolicy::Command`]/`Adaptive`
/// transaction: nothing is appended while it runs. It keeps the fragments
/// its writes *would* have appended (for a spill), the logical ops
/// mirroring them one to one (for the command record), the pages it read
/// and the pages it wrote. Each written page holds exactly one pool pin,
/// so STEAL can never put un-logged bytes on disk. The engine keeps the
/// transaction's undo chain, which grows in step with the capture.
#[derive(Debug, Default)]
pub struct Capture {
    /// `(qp, page, fragment)` per write, in write order.
    frags: Vec<(usize, PageId, LogRecord)>,
    /// Logical op per write, in write order — parallel to `frags`.
    ops: Vec<LogicalOp>,
    /// Distinct written pages in first-write order, each pinned once.
    pins: Vec<PageId>,
    /// Pages read under shared locks (the replay DAG's read edges).
    reads: BTreeSet<PageId>,
    /// Encoded size of `frags`: the physical side of the decision.
    frag_bytes: usize,
}

impl Capture {
    /// Whether nothing has been written (a read-only transaction).
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Pinned pages after a write to `page`: the pin budget check.
    pub fn pins_after(&self, page: PageId) -> usize {
        self.pins.len() + usize::from(!self.pins.contains(&page))
    }

    /// The pinned pages.
    pub fn pins(&self) -> &[PageId] {
        &self.pins
    }

    /// Encoded bytes the retained fragments would cost.
    pub fn frag_bytes(&self) -> usize {
        self.frag_bytes
    }

    /// Add `page` to the read set.
    pub fn note_read(&mut self, page: PageId) {
        self.reads.insert(page);
    }

    /// Retain one write: fragment `rec` (routed through query processor
    /// `qp` if it spills) and its command form `op`. Returns `true` on the
    /// first write to the page — the caller pins it then.
    pub fn push(&mut self, qp: usize, rec: LogRecord, op: LogicalOp) -> bool {
        let page = op.page();
        self.frag_bytes += rec.encoded_len();
        self.frags.push((qp, page, rec));
        self.ops.push(op);
        let first = !self.pins.contains(&page);
        if first {
            self.pins.push(page);
        }
        first
    }

    /// Forget every write from the `len`-th on (a savepoint rollback).
    /// Returns the pages no retained write touches any more: the caller
    /// reverts the matching undo tail and unpins them.
    pub fn truncate(&mut self, len: usize) -> Vec<PageId> {
        self.frags.truncate(len);
        self.ops.truncate(len);
        self.frag_bytes = self.frags.iter().map(|(_, _, r)| r.encoded_len()).sum();
        let still_written = |p: &&PageId| self.ops.iter().any(|op| op.page() == **p);
        let (kept, dropped) = self.pins.iter().partition(still_written);
        self.pins = kept;
        dropped
    }

    /// The adaptive decision, made at commit. `Some` is the transaction's
    /// one [`LogRecord::Logical`] record — its commit record — with the
    /// LSN `commit_lsn` allocates; `None` means spill: the policy keeps
    /// fragments, the cost rule ([`spills`]) prefers them, or nothing was
    /// written. The record carries which rule decided, so recovery needs
    /// no policy configuration.
    pub fn command_record(
        &self,
        txn: TxnId,
        policy: LoggingPolicy,
        commit_lsn: impl FnOnce() -> Lsn,
    ) -> Option<LogRecord> {
        let decision = match policy {
            _ if self.ops.is_empty() => return None,
            LoggingPolicy::Fragments => return None,
            LoggingPolicy::Command => DECISION_FORCED,
            LoggingPolicy::Adaptive { .. } => DECISION_COST,
        };
        let mut rec = LogRecord::Logical {
            txn,
            commit_lsn: Lsn(0), // fixed width: sized before it is allocated
            decision,
            reads: self.reads.iter().copied().collect(),
            ops: self.ops.clone(),
        };
        if let LoggingPolicy::Adaptive { threshold_pct } = policy {
            if spills(rec.encoded_len(), self.frag_bytes, threshold_pct) {
                return None;
            }
        }
        if let LogRecord::Logical {
            commit_lsn: lsn, ..
        } = &mut rec
        {
            *lsn = commit_lsn();
        }
        Some(rec)
    }

    /// Spill to fragments: hand each retained fragment to `append` as
    /// `(qp, page, fragment)`, in write order. If an append fails, the
    /// writes from that one on never reached a log: their entries are
    /// split off `undo` and reverted in memory, and the error returned.
    /// Every pin is dropped either way.
    pub fn spill<E>(
        self,
        frames: &mut impl Frames,
        undo: &mut Vec<UndoEntry>,
        mut append: impl FnMut(usize, PageId, LogRecord) -> Result<(), E>,
    ) -> Result<(), E> {
        debug_assert_eq!(undo.len(), self.frags.len(), "one undo entry per write");
        let pins = self.pins;
        let mut out = Ok(());
        let mut tail = Vec::new();
        for (i, (qp, page, rec)) in self.frags.into_iter().enumerate() {
            if let Err(e) = append(qp, page, rec) {
                tail = undo.split_off(i);
                out = Err(e);
                break;
            }
        }
        discard(frames, &tail, &pins);
        out
    }

    /// Abandon the capture: revert `undo` (this transaction's whole
    /// chain) in memory and drop every pin. Nothing was logged, so
    /// nothing is compensated.
    pub fn discard(self, frames: &mut impl Frames, undo: &[UndoEntry]) {
        discard(frames, undo, &self.pins);
    }
}

/// Write `page` home on the data disk: first a verified copy into the
/// next of `cfg.dw_slots` doublewrite slots after the data pages (so a
/// crash-torn home write is repairable even under logical logging), then
/// the verified home write itself.
pub fn write_home(
    disk: &mut Disk,
    cfg: &WalConfig,
    dw_cursor: &mut u64,
    page: &Page,
) -> Result<(), StorageError> {
    if cfg.dw_slots > 0 {
        let slot = cfg.data_pages + *dw_cursor % cfg.dw_slots;
        *dw_cursor += 1;
        write_page_verified(disk, slot, page, IO_RETRIES)?;
    }
    write_page_verified(disk, page.id.0, page, IO_RETRIES)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cost_rule_keeps_the_command_record_at_equality() {
        assert!(!spills(400, 400, 100));
        assert!(spills(401, 400, 100));
        // 50%: 200 of 400 bytes is on the line, 201 is over it
        assert!(!spills(200, 400, 50));
        assert!(spills(201, 400, 50));
    }

    fn capture_of(writes: &[(u64, &[u8])]) -> Capture {
        let mut c = Capture::default();
        for (i, &(page, data)) in writes.iter().enumerate() {
            let p = Page::new(PageId(page));
            let lsn = Lsn(i as u64 + 1);
            let (rec, _) = fragment(LogMode::Logical, 7, &p, 0, data, lsn);
            c.push(0, rec, logical_op(PageId(page), lsn, 0, data, None));
        }
        c
    }

    /// One `n`-byte write after reading 8 pages, and the encoded sizes of
    /// its command record and its fragment.
    fn sized(n: usize) -> (Capture, usize, usize) {
        let mut c = capture_of(&[(1, &vec![b'x'; n])]);
        for page in 10..18 {
            c.note_read(PageId(page));
        }
        let logical = c
            .command_record(7, LoggingPolicy::Command, || Lsn(9))
            .expect("the command policy keeps every writing transaction")
            .encoded_len();
        let frag = c.frag_bytes();
        (c, logical, frag)
    }

    #[test]
    fn adaptive_decision_keeps_at_equality_and_spills_one_byte_over() {
        // a fragment grows two bytes per data byte (before + after), the
        // command record one: some write size makes them exactly equal
        let n = (1..200)
            .find(|&n| sized(n).1 == sized(n).2)
            .expect("a write size where record and fragment tie");
        let adaptive = LoggingPolicy::Adaptive { threshold_pct: 100 };
        let (tie, _, _) = sized(n);
        assert!(matches!(
            tie.command_record(7, adaptive, || Lsn(9)),
            Some(LogRecord::Logical {
                commit_lsn: Lsn(9),
                decision: DECISION_COST,
                ..
            })
        ));
        let (over, logical, frag) = sized(n - 1);
        assert_eq!(logical, frag + 1);
        let spilled = over.command_record(7, adaptive, || unreachable!("a spill takes no LSN"));
        assert_eq!(spilled, None);
        assert_eq!(
            Capture::default().command_record(7, adaptive, || Lsn(9)),
            None
        );
    }

    #[test]
    fn one_pin_per_page_and_truncate_reports_dropped_pages() {
        let mut c = capture_of(&[(1, b"a"), (1, b"b"), (2, b"c")]);
        assert_eq!(c.pins(), vec![PageId(1), PageId(2)]);
        assert_eq!(c.pins_after(PageId(1)), 2);
        assert_eq!(c.pins_after(PageId(3)), 3);
        let full = c.frag_bytes();
        assert_eq!(c.truncate(1), vec![PageId(2)]);
        assert_eq!(c.pins(), vec![PageId(1)]);
        assert!(c.frag_bytes() < full);
    }

    #[test]
    fn spill_reverts_the_unappended_tail_and_unpins_every_page() {
        let mut pool = BufferPool::new(4, rmdb_storage::EvictPolicy::Lru);
        for page in [1, 2] {
            pool.insert(PageId(page), Page::new(PageId(page)), false)
                .unwrap();
        }
        let (mut c, mut undo) = (Capture::default(), Vec::new());
        for (i, page) in [1u64, 2, 1].into_iter().enumerate() {
            let id = PageId(page);
            let lsn = Lsn(i as u64 + 1);
            let data = [b'a' + i as u8];
            let (rec, entry) = fragment(LogMode::Logical, 7, pool.get(id).unwrap(), 0, &data, lsn);
            if c.push(0, rec, logical_op(id, lsn, 0, &data, None)) {
                pool.pin(id);
            }
            undo.push(entry);
            let p = pool.get_mut(id).unwrap();
            p.write_at(0, &data);
            p.lsn = lsn;
        }
        let mut appended = Vec::new();
        let r = c.spill(&mut pool, &mut undo, |_, page, _| {
            if appended.len() == 2 {
                return Err("log down");
            }
            appended.push(page);
            Ok(())
        });
        assert_eq!(r, Err("log down"));
        assert_eq!(appended, vec![PageId(1), PageId(2)]);
        assert_eq!(undo.len(), 2, "the logged prefix keeps its undo entries");
        // the third write (page 1, b'c') is reverted to the second's bytes
        assert_eq!(pool.get(PageId(1)).unwrap().read_at(0, 1), b"a");
        // every pin dropped: the pool can evict both pages again
        for page in 10..14 {
            pool.insert(PageId(page), Page::new(PageId(page)), false)
                .unwrap();
        }
    }
}
