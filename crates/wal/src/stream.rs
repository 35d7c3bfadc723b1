//! One log stream: a log processor's private log disk.
//!
//! Records are appended as a byte stream framed into 4 KB checksummed log
//! pages (records may span pages — physical fragments always do). Exactly
//! like the paper's log processor, a **full** log page is written to the
//! log disk immediately, while the current partial page stays in the log
//! processor's memory until a [`LogStream::force`] — so a crash loses
//! precisely the un-forced tail.
//!
//! Two subtleties make reopen after a crash sound:
//!
//! * a record spanning pages can be *cut* by the crash (its head pages
//!   durable, its tail lost). [`LogStream::open`] locates the end of the
//!   last complete record and rewrites the page containing it so the cut
//!   bytes are physically dropped — otherwise later appends would splice
//!   onto the dead prefix and desynchronize decoding;
//! * pages beyond the reopen frontier may hold *stale* content from before
//!   an earlier crash. Every page carries the stream's **epoch**
//!   (incremented on each reopen); a scan stops at the first page whose
//!   epoch decreases, which is exactly the stale frontier.
//!
//! Frame 0 of the log disk is a durable header holding the *truncation
//! point* (the first log page recovery must scan) and the current epoch.

use crate::record::LogRecord;
use rmdb_storage::fault::FaultHandle;
use rmdb_storage::{
    read_page_counted, read_page_retry, write_page_verified, Disk, MemDisk, Page, PageId,
    StorageError, IO_RETRIES, PAYLOAD_SIZE,
};

/// Per-page header inside the payload: `used: u32` + `epoch: u64`.
const PAGE_HDR: usize = 12;
/// Usable record bytes per log page.
pub const USABLE: usize = PAYLOAD_SIZE - PAGE_HDR;

/// Reserved page id marking the header frame.
const HEADER_ID: PageId = PageId(u64::MAX);

/// Salvage accounting from a [`LogStream::scan_with_stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanStats {
    /// Corrupt (torn) log pages quarantined; the scan stops at the first.
    pub corrupt_pages: u64,
    /// Transient read faults ridden through by bounded retry.
    pub retried_reads: u64,
}

/// One decoded record plus the log-disk frame holding its first byte.
///
/// The frame is what lets a checkpoint-bounded restart engine turn "skip
/// everything before this record" into a durable [`LogStream::truncate_to`]
/// of the stream's scan prefix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexedRecord {
    /// The decoded record.
    pub rec: LogRecord,
    /// Log-disk frame containing the record's first byte.
    pub frame: u64,
    /// Whether the record's first byte is the first data byte of `frame`,
    /// i.e. a scan starting at `frame` decodes from this record. Restart
    /// uses this to pick a record-aligned truncation frame from the scan
    /// it already did, instead of re-reading the log to find one.
    pub frame_start: bool,
}

/// A single sequential log on its own disk.
pub struct LogStream {
    disk: Disk,
    /// Next frame to write (header is frame 0; log pages start at 1).
    next_page: u64,
    /// Bytes appended but not yet on disk (current partial log page).
    buf: Vec<u8>,
    /// First log page recovery must scan (durable, in the header).
    start_page: u64,
    /// Reopen generation; stamped into every page written.
    epoch: u64,
    /// Total bytes ever appended (volatile position).
    appended: u64,
    /// Total bytes durably framed into written pages.
    durable: u64,
    /// Log pages written.
    pages_written: u64,
    /// Forces issued (commit/WAL-rule flushes).
    forces: u64,
}

impl LogStream {
    /// Create a fresh stream on an empty in-memory disk of `frames` frames.
    pub fn create(frames: u64) -> Self {
        LogStream::create_on(MemDisk::new(frames).into())
            .expect("fresh in-memory log disk has room for a header")
    }

    /// Create a fresh stream on an already-provisioned empty device — the
    /// backend-generic entry point (see [`rmdb_storage::BackendKind`]).
    pub fn create_on(disk: Disk) -> Result<Self, StorageError> {
        let mut s = LogStream {
            disk,
            next_page: 1,
            buf: Vec::new(),
            start_page: 1,
            epoch: 1,
            appended: 0,
            durable: 0,
            pages_written: 0,
            forces: 0,
        };
        s.write_header()?;
        Ok(s)
    }

    /// Re-open a stream from a (possibly crash-cut) log disk.
    ///
    /// Finds the valid prefix (see module docs), drops any record cut by
    /// the crash, rewrites the cut page, and bumps the epoch so stale
    /// pages beyond the frontier can never be mistaken for live ones.
    pub fn open(disk: impl Into<Disk>) -> Result<Self, StorageError> {
        LogStream::open_scanned(disk).map(|(stream, _, _)| stream)
    }

    /// [`LogStream::open`] that also returns what the reopened stream's
    /// [`LogStream::scan_indexed`] would, from the same single pass over
    /// the log pages: every durable record tagged with its frame, plus
    /// the pass's salvage stats (a corrupt page that ended the valid run,
    /// and every retried read). Recovery takes its records from here
    /// instead of reading each frame a second time.
    pub fn open_scanned(
        disk: impl Into<Disk>,
    ) -> Result<(Self, Vec<IndexedRecord>, ScanStats), StorageError> {
        let disk = disk.into();
        let (start_page, old_epoch) = match read_page_retry(&disk, 0, IO_RETRIES) {
            Ok(h) if h.id == HEADER_ID => (
                u64::from_le_bytes(h.read_at(0, 8).try_into().unwrap()),
                u64::from_le_bytes(h.read_at(8, 8).try_into().unwrap()),
            ),
            // No (or torn) header: a brand-new disk.
            _ => (1, 0),
        };
        // no epoch cap: every epoch in the run is below the new one
        let run = PageRun::read(&disk, start_page, u64::MAX);
        let (records, valid) = run.decode();

        let epoch = old_epoch.max(run.last_epoch) + 1;
        let mut s = LogStream {
            disk,
            next_page: start_page,
            buf: Vec::new(),
            start_page,
            epoch,
            appended: valid as u64,
            durable: valid as u64,
            pages_written: 0,
            forces: 0,
        };

        // rewrite/locate the frontier: keep whole pages fully inside the
        // valid prefix; the page containing the cut is rewritten shorter
        for (i, &(off, frame)) in run.extents.iter().enumerate() {
            let end = run.extents.get(i + 1).map_or(run.bytes.len(), |&(o, _)| o);
            if valid >= end {
                s.next_page = frame + 1;
                if valid == end {
                    break;
                }
            } else {
                // cut inside this page: rewrite it with only the valid bytes
                s.next_page = frame;
                s.write_log_page(&run.bytes[off..valid])?;
                break;
            }
        }
        s.write_header()?;
        Ok((s, records, run.stats))
    }

    /// Attach a fault injector to the underlying log disk.
    pub fn attach_faults(&mut self, handle: FaultHandle) {
        self.disk.attach_faults(handle);
    }

    /// Detach and return the disk's fault injector, if any.
    pub fn detach_faults(&mut self) -> Option<FaultHandle> {
        self.disk.detach_faults()
    }

    /// Surrender the underlying disk (fault injector still attached).
    /// Used by the failover layer's rejoin path, which re-validates the
    /// durable prefix via [`LogStream::open`] on a fresh stream.
    pub fn into_disk(self) -> Disk {
        self.disk
    }

    /// Cheap device-health probe through the fault injector: read the
    /// header frame and write it back. Fails while the device's permanent
    /// failure is tripped; succeeds once a fault-clear (or replacement)
    /// has revived both paths. Consumes one read and one write from the
    /// injector's operation budget.
    pub fn probe_device(&mut self) -> Result<(), StorageError> {
        let h = self.disk.read_page(0)?;
        self.disk.write_page(0, &h)?;
        Ok(())
    }

    fn write_header(&mut self) -> Result<(), StorageError> {
        let mut h = Page::new(HEADER_ID);
        h.write_at(0, &self.start_page.to_le_bytes());
        h.write_at(8, &self.epoch.to_le_bytes());
        write_page_verified(&mut self.disk, 0, &h, IO_RETRIES)
    }

    /// Write one log page, read-back verified: a silently lost or torn log
    /// page write would otherwise lose committed records that `force`
    /// already promised were durable.
    fn write_log_page(&mut self, data: &[u8]) -> Result<(), StorageError> {
        debug_assert!(data.len() <= USABLE);
        let mut p = Page::new(PageId(self.next_page));
        p.write_at(0, &(data.len() as u32).to_le_bytes());
        p.write_at(4, &self.epoch.to_le_bytes());
        p.write_at(PAGE_HDR, data);
        write_page_verified(&mut self.disk, self.next_page, &p, IO_RETRIES)?;
        self.next_page += 1;
        self.pages_written += 1;
        Ok(())
    }

    /// Append a record. Full log pages are written to disk immediately;
    /// the partial tail stays volatile until [`LogStream::force`].
    ///
    /// Returns the record's **end position** in the stream's byte order:
    /// the record is durable once [`LogStream::durable_position`] reaches
    /// this value.
    pub fn append(&mut self, rec: &LogRecord) -> Result<u64, StorageError> {
        rec.encode(&mut self.buf);
        self.appended = self.durable + self.buf.len() as u64;
        while self.buf.len() >= USABLE {
            // copy-then-drain: if the write fails (transient fault budget
            // exhausted, device offline) the bytes stay buffered, keeping
            // the volatile stream position consistent for a later retry
            let page: Vec<u8> = self.buf[..USABLE].to_vec();
            self.write_log_page(&page)?;
            self.buf.drain(..USABLE);
            self.durable += page.len() as u64;
        }
        Ok(self.appended)
    }

    /// Flush the partial log page and force the device, making every
    /// appended record durable (on a file backend this is the fdatasync).
    pub fn force(&mut self) -> Result<(), StorageError> {
        self.forces += 1;
        if !self.buf.is_empty() {
            let page = self.buf.clone();
            self.write_log_page(&page)?;
            self.buf.clear();
            self.durable += page.len() as u64;
        }
        self.disk.force()
    }

    /// Total bytes appended (durable or not).
    pub fn position(&self) -> u64 {
        self.appended
    }

    /// Bytes guaranteed on stable storage.
    pub fn durable_position(&self) -> u64 {
        self.durable
    }

    /// Whether the record ending at `pos` is on stable storage.
    pub fn is_durable(&self, pos: u64) -> bool {
        pos <= self.durable
    }

    /// Log pages written since creation/open.
    pub fn pages_written(&self) -> u64 {
        self.pages_written
    }

    /// Number of [`LogStream::force`] calls.
    pub fn forces(&self) -> u64 {
        self.forces
    }

    /// Read every durable record from the truncation point to the log end.
    ///
    /// A record cut by a crash is ignored, as are torn pages and stale
    /// pages from before the last reopen.
    pub fn scan(&self) -> Vec<LogRecord> {
        self.scan_with_stats().0
    }

    /// [`LogStream::scan`] plus salvage accounting: how many corrupt log
    /// pages were quarantined (the scan stops at the first, salvaging the
    /// decodable prefix) and how many transient read faults were retried.
    pub fn scan_with_stats(&self) -> (Vec<LogRecord>, ScanStats) {
        let (indexed, stats) = self.scan_indexed();
        (indexed.into_iter().map(|r| r.rec).collect(), stats)
    }

    /// [`LogStream::scan_with_stats`] with each record tagged by the frame
    /// holding its first byte — the input to checkpoint-bounded restart
    /// analysis (see [`IndexedRecord`]).
    pub fn scan_indexed(&self) -> (Vec<IndexedRecord>, ScanStats) {
        let run = PageRun::read(&self.disk, self.start_page, self.epoch);
        (run.decode().0, run.stats)
    }

    /// Advance the durable truncation point past everything written so far.
    ///
    /// The caller (checkpoint logic) must have ensured the truncated prefix
    /// is no longer needed: all its updates are on the data disk and no
    /// live transaction may need undo from it.
    pub fn truncate(&mut self) -> Result<(), StorageError> {
        self.force()?;
        self.start_page = self.next_page;
        // bump the epoch so anything beyond the new start is stale
        self.epoch += 1;
        self.write_header()
    }

    /// Advance the durable truncation point to `frame`, keeping everything
    /// from `frame` onwards scannable.
    ///
    /// Used by checkpoint-bounded restart: once recovery establishes that
    /// no record before the bounding checkpoint is needed, the stream's
    /// scan prefix can be dropped durably. Because records may span log
    /// pages, `frame` **must begin a record** — i.e. be the `frame` of an
    /// [`IndexedRecord`] whose `frame_start` is set — or the shortened
    /// scan would decode from mid-record garbage. The caller has this
    /// information from the scan it already did, which is what makes
    /// truncation a pure header write instead of a second pass over the
    /// log (debug builds re-verify alignment). Requests at or before the
    /// current truncation point are no-ops.
    pub fn truncate_to(&mut self, frame: u64) -> Result<(), StorageError> {
        let target = frame.min(self.next_page);
        if target <= self.start_page {
            return Ok(());
        }
        #[cfg(debug_assertions)]
        self.assert_record_aligned(target);
        self.start_page = target;
        self.write_header()
    }

    /// Debug-build guard for [`LogStream::truncate_to`]: re-derives record
    /// boundaries the expensive way and checks `target` begins one.
    #[cfg(debug_assertions)]
    fn assert_record_aligned(&self, target: u64) {
        let PageRun { extents, bytes, .. } = PageRun::read(&self.disk, self.start_page, self.epoch);
        let mut starts = std::collections::BTreeSet::new();
        let mut off = 0usize;
        loop {
            starts.insert(off);
            match LogRecord::peek_len(&bytes[off..]) {
                Some(len) => off += len,
                None => break,
            }
        }
        assert!(
            extents
                .iter()
                .any(|(off, f)| *f == target && starts.contains(off)),
            "truncate_to({target}): frame does not begin a record"
        );
    }

    /// Snapshot the log disk (crash image) — same backend as the stream.
    pub fn disk_snapshot(&self) -> Disk {
        self.disk.snapshot()
    }
}

/// The valid run of log pages from a scan start: the one page reader
/// behind [`LogStream::open_scanned`] and [`LogStream::scan_indexed`].
struct PageRun {
    /// Per-page `(offset of its first byte in bytes, frame)`.
    extents: Vec<(usize, u64)>,
    /// The run's record bytes, concatenated.
    bytes: Vec<u8>,
    /// Epoch of the run's last page (0 for an empty run).
    last_epoch: u64,
    stats: ScanStats,
}

impl PageRun {
    /// Read pages from `start` while they are allocated, decodable, carry
    /// their own frame id, and have non-decreasing epochs no greater than
    /// `max_epoch`. A corrupt (torn) page is the durability frontier: it
    /// is counted and ends the run, salvaging the decodable prefix before
    /// it; everything at and beyond it was in flight when the crash hit.
    fn read(disk: &Disk, start: u64, max_epoch: u64) -> Self {
        let mut run = PageRun {
            extents: Vec::new(),
            bytes: Vec::new(),
            last_epoch: 0,
            stats: ScanStats::default(),
        };
        let mut page = start;
        while page < disk.capacity() {
            match read_page_counted(disk, page, IO_RETRIES, &mut run.stats.retried_reads) {
                Ok(p) if p.id == PageId(page) => {
                    let used = u32::from_le_bytes(p.read_at(0, 4).try_into().unwrap()) as usize;
                    let epoch = u64::from_le_bytes(p.read_at(4, 8).try_into().unwrap());
                    if used > USABLE || epoch < run.last_epoch || epoch > max_epoch {
                        break; // stale frontier (or garbage)
                    }
                    run.last_epoch = epoch;
                    run.extents.push((run.bytes.len(), page));
                    run.bytes.extend_from_slice(p.read_at(PAGE_HDR, used));
                    page += 1;
                }
                Err(StorageError::Corrupt { .. }) => {
                    run.stats.corrupt_pages += 1;
                    break;
                }
                _ => break,
            }
        }
        run
    }

    /// Decode every complete record, tagged with its frame; also returns
    /// the end offset of the last one (the valid prefix length).
    fn decode(&self) -> (Vec<IndexedRecord>, usize) {
        let mut records = Vec::new();
        let mut cursor = self.bytes.as_slice();
        loop {
            let start = self.bytes.len() - cursor.len();
            let Some(rec) = LogRecord::decode(&mut cursor) else {
                return (records, start);
            };
            // extent covering `start`: the last one whose offset is ≤ start
            let i = self.extents.partition_point(|&(off, _)| off <= start);
            let (ext_off, frame) = self.extents[i - 1];
            records.push(IndexedRecord {
                rec,
                frame,
                frame_start: ext_off == start,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmdb_storage::Lsn;

    fn commit(txn: u64) -> LogRecord {
        LogRecord::Commit { txn }
    }

    fn big_update(txn: u64, len: usize) -> LogRecord {
        LogRecord::Update {
            txn,
            page: PageId(1),
            prev_lsn: Lsn(0),
            new_lsn: Lsn(txn),
            offset: 0,
            before: vec![0xAB; len],
            after: vec![0xCD; len],
        }
    }

    #[test]
    fn unforced_tail_is_lost() {
        let mut s = LogStream::create(64);
        s.append(&commit(1)).unwrap();
        s.force().unwrap();
        s.append(&commit(2)).unwrap(); // never forced

        let recovered = LogStream::open(s.disk_snapshot()).unwrap();
        assert_eq!(recovered.scan(), vec![commit(1)]);
    }

    #[test]
    fn force_makes_durable() {
        let mut s = LogStream::create(64);
        let pos = s.append(&commit(1)).unwrap();
        assert!(!s.is_durable(pos));
        s.force().unwrap();
        assert!(s.is_durable(pos));
        assert_eq!(s.scan(), vec![commit(1)]);
    }

    #[test]
    fn full_pages_flush_automatically() {
        let mut s = LogStream::create(64);
        // A record bigger than a log page spans pages; its full pages are
        // durable but the record is not until forced.
        let rec = big_update(1, 3 * USABLE / 2);
        let pos = s.append(&rec).unwrap();
        assert!(s.pages_written() >= 1);
        assert!(!s.is_durable(pos));
        s.force().unwrap();
        assert_eq!(s.scan(), vec![rec]);
    }

    #[test]
    fn record_spanning_pages_cut_by_crash_is_dropped() {
        let mut s = LogStream::create(64);
        s.append(&commit(9)).unwrap();
        s.force().unwrap();
        let rec = big_update(1, 2 * USABLE); // spans ≥2 pages
        s.append(&rec).unwrap(); // full pages flushed, tail not forced
        let recovered = LogStream::open(s.disk_snapshot()).unwrap();
        // only the commit survives; the cut update is ignored
        assert_eq!(recovered.scan(), vec![commit(9)]);
    }

    #[test]
    fn appends_after_cut_record_decode_cleanly() {
        // regression: the cut record's durable prefix must not splice onto
        // records appended after reopen
        let mut s = LogStream::create(64);
        s.append(&commit(9)).unwrap();
        s.force().unwrap();
        s.append(&big_update(1, 3 * USABLE)).unwrap(); // cut by the crash

        let mut s2 = LogStream::open(s.disk_snapshot()).unwrap();
        s2.append(&commit(10)).unwrap();
        s2.force().unwrap();
        assert_eq!(s2.scan(), vec![commit(9), commit(10)]);

        // and the same holds after a second crash
        let s3 = LogStream::open(s2.disk_snapshot()).unwrap();
        assert_eq!(s3.scan(), vec![commit(9), commit(10)]);
    }

    #[test]
    fn stale_pages_beyond_frontier_are_ignored() {
        // write far, crash losing the tail, write a little, crash again:
        // the recovery scan must stop at the new frontier and never read
        // the first incarnation's leftover pages
        let mut s = LogStream::create(64);
        for i in 0..40 {
            s.append(&big_update(i, USABLE / 2)).unwrap();
        }
        s.force().unwrap();
        let long_image = s.disk_snapshot();

        // crash back to a short prefix: reopen from an image cut earlier
        let mut short = LogStream::open(long_image).unwrap();
        // simulate that only the first 3 records were actually wanted:
        // truncate and start a new life
        short.truncate().unwrap();
        short.append(&commit(100)).unwrap();
        short.force().unwrap();
        let reopened = LogStream::open(short.disk_snapshot()).unwrap();
        assert_eq!(reopened.scan(), vec![commit(100)]);
    }

    #[test]
    fn interleaved_crash_append_cycles_converge() {
        // repeated cycles of append → crash (losing tails) must always
        // leave a decodable, strictly-growing record prefix
        let mut s = LogStream::create(256);
        let mut expected = Vec::new();
        for round in 0..10u64 {
            let rec = big_update(round, (round as usize * 531) % (2 * USABLE));
            s.append(&rec).unwrap();
            if round % 3 != 0 {
                s.force().unwrap();
                expected.push(rec);
            }
            // crash + reopen
            s = LogStream::open(s.disk_snapshot()).unwrap();
            assert_eq!(s.scan(), expected, "round {round}");
        }
    }

    #[test]
    fn open_scanned_matches_a_rescan_of_the_reopened_stream() {
        // clean tail, a record cut across pages, and a torn middle page:
        // the one-pass records and stats must equal a second full scan
        let mut s = LogStream::create(64);
        for i in 0..12 {
            s.append(&big_update(i, USABLE / 3)).unwrap();
        }
        s.force().unwrap();
        let clean = s.disk_snapshot();
        s.append(&big_update(99, 2 * USABLE)).unwrap(); // cut by the crash
        let cut = s.disk_snapshot();
        let mut torn = s.disk_snapshot();
        torn.write_partial(
            3,
            &[0xA5; rmdb_storage::FRAME_SIZE],
            rmdb_storage::FRAME_SIZE / 2,
        )
        .unwrap();
        for (name, disk) in [("clean", clean), ("cut", cut), ("torn", torn)] {
            let again = LogStream::open(disk.snapshot()).unwrap().scan_indexed();
            let (_, records, stats) = LogStream::open_scanned(disk).unwrap();
            assert_eq!((records, stats), again, "{name}");
        }
    }

    #[test]
    fn reopen_appends_after_existing_log() {
        let mut s = LogStream::create(64);
        s.append(&commit(1)).unwrap();
        s.force().unwrap();
        let mut s2 = LogStream::open(s.disk_snapshot()).unwrap();
        s2.append(&commit(2)).unwrap();
        s2.force().unwrap();
        assert_eq!(s2.scan(), vec![commit(1), commit(2)]);
    }

    #[test]
    fn truncate_drops_prefix() {
        let mut s = LogStream::create(64);
        s.append(&commit(1)).unwrap();
        s.truncate().unwrap();
        s.append(&commit(2)).unwrap();
        s.force().unwrap();
        assert_eq!(s.scan(), vec![commit(2)]);
        // truncation survives crash
        let recovered = LogStream::open(s.disk_snapshot()).unwrap();
        assert_eq!(recovered.scan(), vec![commit(2)]);
    }

    #[test]
    fn many_records_round_trip() {
        let mut s = LogStream::create(256);
        let recs: Vec<LogRecord> = (0..500).map(|i| big_update(i, (i % 97) as usize)).collect();
        for r in &recs {
            s.append(r).unwrap();
        }
        s.force().unwrap();
        assert_eq!(s.scan(), recs);
    }

    #[test]
    fn positions_are_monotone_and_track_durability() {
        let mut s = LogStream::create(64);
        let p1 = s.append(&commit(1)).unwrap();
        let p2 = s.append(&commit(2)).unwrap();
        assert!(p2 > p1);
        assert_eq!(s.position(), p2);
        assert_eq!(s.durable_position(), 0);
        s.force().unwrap();
        assert_eq!(s.durable_position(), p2);
    }

    #[test]
    fn log_full_surfaces_error() {
        let mut s = LogStream::create(3); // header + 2 pages
        let r = big_update(1, USABLE);
        let mut failed = false;
        for _ in 0..4 {
            if s.append(&r).is_err() {
                failed = true;
                break;
            }
        }
        assert!(failed, "filling the log must error, not panic");
    }

    #[test]
    fn force_on_empty_buffer_is_noop() {
        let mut s = LogStream::create(8);
        s.force().unwrap();
        s.force().unwrap();
        assert_eq!(s.pages_written(), 0);
        assert_eq!(s.forces(), 2);
    }
}
