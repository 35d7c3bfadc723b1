//! In-memory span tracing, recorded from the benchmark's own code around
//! each call it makes into a layer.
//!
//! A span has a name, a start and an end (ns since the tracer's epoch),
//! the span that caused it, and the id of the request it belongs to. One
//! thread builds a request's spans in a [`Request`] and hands it to the
//! [`Tracer`] when the request ends. The tracer folds every request into
//! per-span-name self-time totals (a span's duration minus the time its
//! children cover) and keeps the spans themselves, up to a cap, for
//! [`Tracer::write_tsv`] at the end of the run.

use crate::stats::ratio;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Spans kept for the trace file; self times cover every request.
const MAX_KEPT_SPANS: usize = 250_000;

/// Every span any workload records: one layer boundary each.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    Request,
    ExecQueue,
    ExecBody,
    ExecRead,
    ExecWrite,
    ExecRetry,
    ExecCommitPath,
    MvccSnapshotTxn,
    MvccSnapshotRead,
    WalTxn,
    WalCommit,
    RecoverySerial,
    RecoveryPageSharded,
    RecoveryTxnDag,
    RecoveryRead,
    LsmTxn,
    LsmWrite,
    LsmCommit,
    LsmMaintain,
    LsmGet,
    LsmRange,
    LsmRecover,
}

impl Layer {
    pub const ALL: [Layer; 22] = [
        Layer::Request,
        Layer::ExecQueue,
        Layer::ExecBody,
        Layer::ExecRead,
        Layer::ExecWrite,
        Layer::ExecRetry,
        Layer::ExecCommitPath,
        Layer::MvccSnapshotTxn,
        Layer::MvccSnapshotRead,
        Layer::WalTxn,
        Layer::WalCommit,
        Layer::RecoverySerial,
        Layer::RecoveryPageSharded,
        Layer::RecoveryTxnDag,
        Layer::RecoveryRead,
        Layer::LsmTxn,
        Layer::LsmWrite,
        Layer::LsmCommit,
        Layer::LsmMaintain,
        Layer::LsmGet,
        Layer::LsmRange,
        Layer::LsmRecover,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Layer::Request => "request",
            Layer::ExecQueue => "exec.queue",
            Layer::ExecBody => "exec.body",
            Layer::ExecRead => "exec.read",
            Layer::ExecWrite => "exec.write",
            Layer::ExecRetry => "exec.retry",
            Layer::ExecCommitPath => "exec.commit_path",
            Layer::MvccSnapshotTxn => "mvcc.snapshot_txn",
            Layer::MvccSnapshotRead => "mvcc.snapshot_read",
            Layer::WalTxn => "wal.txn",
            Layer::WalCommit => "wal.commit",
            Layer::RecoverySerial => "recovery.serial",
            Layer::RecoveryPageSharded => "recovery.page_sharded",
            Layer::RecoveryTxnDag => "recovery.txn_dag",
            Layer::RecoveryRead => "recovery.read",
            Layer::LsmTxn => "lsm.txn",
            Layer::LsmWrite => "lsm.write",
            Layer::LsmCommit => "lsm.commit",
            Layer::LsmMaintain => "lsm.maintain",
            Layer::LsmGet => "lsm.get",
            Layer::LsmRange => "lsm.range",
            Layer::LsmRecover => "lsm.recover",
        }
    }
}

#[derive(Clone, Copy)]
struct Span {
    layer: Layer,
    start_ns: u64,
    end_ns: u64,
    /// Index of the parent within the same request.
    parent: Option<usize>,
}

/// The spans of one request, built by one thread.
pub struct Request {
    id: u64,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Request {
    /// Record a finished span; returns its handle for use as a parent.
    pub fn span(
        &mut self,
        layer: Layer,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
    ) -> usize {
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            layer,
            start_ns: ns(start),
            end_ns: ns(end),
            parent,
        });
        self.spans.len() - 1
    }

    /// Move the end of a span opened before its children were known.
    pub fn end(&mut self, span: usize, end: Instant) {
        self.spans[span].end_ns = end.saturating_duration_since(self.epoch).as_nanos() as u64;
    }
}

#[derive(Default)]
struct Store {
    /// Kept spans with their request id and global parent index.
    kept: Vec<(u64, Span)>,
    /// Per layer: (total self ns, occurrences).
    self_ns: [(u64, u64); Layer::ALL.len()],
    spans_seen: u64,
}

pub struct Tracer {
    epoch: Instant,
    next_req: AtomicU64,
    store: Mutex<Store>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            next_req: AtomicU64::new(1),
            store: Mutex::new(Store::default()),
        }
    }

    pub fn request(&self) -> Request {
        Request {
            id: self.next_req.fetch_add(1, Ordering::Relaxed),
            epoch: self.epoch,
            spans: Vec::new(),
        }
    }

    pub fn finish(&self, req: Request) {
        let mut child_ns = vec![0u64; req.spans.len()];
        for s in &req.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns.saturating_sub(s.start_ns);
            }
        }
        let mut self_ns = [(0u64, 0u64); Layer::ALL.len()];
        for (s, covered) in req.spans.iter().zip(&child_ns) {
            let entry = &mut self_ns[s.layer as usize];
            entry.0 += s.end_ns.saturating_sub(s.start_ns).saturating_sub(*covered);
            entry.1 += 1;
        }
        let mut store = self.store.lock().expect("trace store poisoned");
        for (total, add) in store.self_ns.iter_mut().zip(self_ns) {
            total.0 += add.0;
            total.1 += add.1;
        }
        store.spans_seen += req.spans.len() as u64;
        if store.kept.len() + req.spans.len() <= MAX_KEPT_SPANS {
            let base = store.kept.len();
            store.kept.extend(req.spans.iter().map(|s| {
                let mut s = *s;
                s.parent = s.parent.map(|p| p + base);
                (req.id, s)
            }));
        }
    }

    /// Mean self time of each layer's spans, in µs (0 when the workload
    /// never recorded that span).
    pub fn self_us(&self) -> Vec<(&'static str, f64)> {
        let store = self.store.lock().expect("trace store poisoned");
        Layer::ALL
            .iter()
            .zip(store.self_ns)
            .map(|(layer, (ns, n))| (layer.name(), ratio(ns as f64, n as f64) / 1e3))
            .collect()
    }

    pub fn spans_seen(&self) -> u64 {
        self.store.lock().expect("trace store poisoned").spans_seen
    }

    /// Write the kept spans as tab-separated lines:
    /// `id req parent name start_ns end_ns` (`parent` is -1 for a root).
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        let store = self.store.lock().expect("trace store poisoned");
        let mut out = String::with_capacity(store.kept.len() * 48);
        out.push_str("id\treq\tparent\tname\tstart_ns\tend_ns\n");
        for (id, (req, s)) in store.kept.iter().enumerate() {
            let parent = s.parent.map_or(-1, |p| p as i64);
            writeln!(
                out,
                "{id}\t{req}\t{parent}\t{}\t{}\t{}",
                s.layer.name(),
                s.start_ns,
                s.end_ns
            )
            .expect("write to string");
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children() {
        let tracer = Tracer::new();
        let t0 = Instant::now();
        let at = |us| t0 + Duration::from_micros(us);
        let mut req = tracer.request();
        let root = req.span(Layer::Request, at(0), at(100), None);
        let body = req.span(Layer::ExecBody, at(10), at(60), Some(root));
        req.span(Layer::ExecRead, at(20), at(30), Some(body));
        tracer.finish(req);
        let self_us: BTreeMap<_, _> = tracer.self_us().into_iter().collect();
        assert_eq!(self_us["request"], 50.0);
        assert_eq!(self_us["exec.body"], 40.0);
        assert_eq!(self_us["exec.read"], 10.0);
        assert_eq!(self_us["exec.queue"], 0.0);
        assert_eq!(tracer.spans_seen(), 3);
    }
}
