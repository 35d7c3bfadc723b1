//! Sorted runs: building, reading, and the newest-wins merge.
//!
//! A run is a contiguous arena extent of frames, each frame one
//! strictly-decoded entry chunk, entries sorted by key with at most
//! one entry per key. Runs are immutable once installed: compaction
//! writes a *new* run and retires the inputs via the manifest, it
//! never rewrites in place.

use std::collections::BTreeMap;

use rmdb_storage::{
    read_page_counted, write_page_counted, Disk, Page, PageId, StorageError, IO_RETRIES,
    PAYLOAD_SIZE,
};

use super::codec::{self, LsmEntry, LsmOp};
use super::manifest::RunDesc;
use super::IoCounters;

/// Encode sorted `entries` into per-frame chunks. `None` if a single
/// entry overflows a frame.
pub(crate) fn build_chunks(entries: &[LsmEntry]) -> Option<Vec<Vec<u8>>> {
    codec::chunk_entries(entries, PAYLOAD_SIZE)
}

/// Write one run chunk to `addr` (verified).
pub(crate) fn write_chunk(
    disk: &mut Disk,
    ctrs: &mut IoCounters,
    addr: u64,
    chunk: &[u8],
) -> Result<(), StorageError> {
    let mut page = Page::new(PageId(addr));
    page.write_at(0, chunk);
    write_page_counted(disk, addr, &page, IO_RETRIES, &mut ctrs.write_retries)
}

/// Read a whole run back as its sorted entry list.
pub(crate) fn read_run(
    disk: &Disk,
    ctrs: &mut IoCounters,
    desc: &RunDesc,
) -> Result<Vec<LsmEntry>, StorageError> {
    let mut out = Vec::with_capacity(desc.entries as usize);
    for i in 0..desc.frames {
        let addr = desc.start + i;
        let page = read_page_counted(disk, addr, IO_RETRIES, &mut ctrs.read_retries)?;
        let chunk = codec::decode_chunk(page.payload()).ok_or(StorageError::Corrupt { addr })?;
        out.extend(chunk);
    }
    Ok(out)
}

/// Point lookup inside one sorted run.
pub(crate) fn lookup_run(
    disk: &Disk,
    ctrs: &mut IoCounters,
    desc: &RunDesc,
    key: u64,
) -> Result<Option<LsmEntry>, StorageError> {
    for i in 0..desc.frames {
        let addr = desc.start + i;
        let page = read_page_counted(disk, addr, IO_RETRIES, &mut ctrs.read_retries)?;
        let chunk = codec::decode_chunk(page.payload()).ok_or(StorageError::Corrupt { addr })?;
        if let Some(first) = chunk.first() {
            if first.key > key {
                return Ok(None);
            }
        }
        if let Ok(idx) = chunk.binary_search_by_key(&key, |e| e.key) {
            return Ok(Some(chunk[idx].clone()));
        }
        if chunk.last().is_some_and(|last| last.key > key) {
            return Ok(None);
        }
    }
    Ok(None)
}

/// Merge entry lists into one sorted run, newest (highest `seq`) entry
/// winning per key. With `drop_tombstones` (output is the deepest
/// occupied level, so nothing below could resurrect the key), winning
/// Delete entries are elided entirely.
pub(crate) fn merge_newest_wins(
    inputs: Vec<Vec<LsmEntry>>,
    drop_tombstones: bool,
) -> Vec<LsmEntry> {
    let mut best: BTreeMap<u64, LsmEntry> = BTreeMap::new();
    for entries in inputs {
        for e in entries {
            match best.get(&e.key) {
                Some(cur) if cur.seq >= e.seq => {}
                _ => {
                    best.insert(e.key, e);
                }
            }
        }
    }
    best.into_values()
        .filter(|e| !(drop_tombstones && matches!(e.op, LsmOp::Delete)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(seq: u64, key: u64, op: LsmOp) -> LsmEntry {
        LsmEntry {
            seq,
            txn: 0,
            key,
            op,
        }
    }

    #[test]
    fn merge_prefers_newest_seq() {
        let old = vec![e(1, 5, LsmOp::Put(vec![1])), e(2, 6, LsmOp::Put(vec![2]))];
        let new = vec![e(9, 5, LsmOp::Delete), e(3, 7, LsmOp::Put(vec![3]))];
        let merged = merge_newest_wins(vec![old.clone(), new.clone()], false);
        assert_eq!(
            merged,
            vec![
                e(9, 5, LsmOp::Delete),
                e(2, 6, LsmOp::Put(vec![2])),
                e(3, 7, LsmOp::Put(vec![3])),
            ]
        );
        let bottom = merge_newest_wins(vec![old, new], true);
        assert_eq!(
            bottom,
            vec![e(2, 6, LsmOp::Put(vec![2])), e(3, 7, LsmOp::Put(vec![3]))]
        );
    }

    #[test]
    fn merge_is_input_order_independent() {
        let a = vec![e(4, 1, LsmOp::Put(vec![4]))];
        let b = vec![e(8, 1, LsmOp::Put(vec![8]))];
        assert_eq!(
            merge_newest_wins(vec![a.clone(), b.clone()], false),
            merge_newest_wins(vec![b, a], false)
        );
    }
}
