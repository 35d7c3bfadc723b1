//! Measured (wall-clock) throughput of the real-thread pipeline,
//! reported in the same [`ExpTable`] shape as the simulated tables.
//!
//! The simulator predicts execution time per page from the paper's
//! device models; this module runs the actual concurrent engine
//! (`rmdb-exec`) and reports observed transactions per second, so the
//! reproduced tables can sit next to a measurement of the same
//! architecture executing for real. The modeled log-device service time
//! mirrors the paper's premise that a log force is never free.

use crate::experiments::{ExpRow, ExpTable};
use rmdb_exec::{ExecConfig, ExecDb, Executor};
use rmdb_wal::WalConfig;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const DATA_PAGES: u64 = 256;

/// One measured cell: low-contention single-write transactions driven
/// through the bounded worker pool for `secs` seconds.
fn measure_cell(workers: usize, streams: usize, secs: f64) -> f64 {
    let cfg = ExecConfig {
        wal: WalConfig {
            data_pages: DATA_PAGES,
            pool_frames: 320,
            log_streams: streams,
            log_frames: 1 << 18,
            seed: 1985,
            ..WalConfig::default()
        },
        force_delay_us: 500,
        ..ExecConfig::default()
    };
    let db = Arc::new(ExecDb::new(cfg));
    let pool = Executor::new(workers, workers * 2);
    let committed = Arc::new(AtomicU64::new(0));
    let pages_per_worker = DATA_PAGES / workers as u64;
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(secs);
    let mut i: u64 = 0;
    while Instant::now() < deadline {
        let qp = (i % workers as u64) as usize;
        let page = (qp as u64) * pages_per_worker + (i / workers as u64) % pages_per_worker;
        let db = Arc::clone(&db);
        let committed = Arc::clone(&committed);
        let val = i.to_le_bytes();
        pool.submit(move || {
            if db.run_txn(qp, |ctx| ctx.write(page, 0, &val)).is_ok() {
                committed.fetch_add(1, Ordering::Relaxed);
            }
        });
        i += 1;
    }
    pool.join();
    // quiesce the appenders and check the pipeline's double-entry books
    // before the cell is torn down: a measured rate from an engine whose
    // own accounting disagrees is not a measurement
    let _ = db.drain_appenders();
    let snap = db.metrics();
    debug_assert_eq!(
        snap.counter("txn.commits_acked"),
        snap.counter("group.completions"),
        "commit acks must match durable commit records"
    );
    committed.load(Ordering::Relaxed) as f64 / start.elapsed().as_secs_f64()
}

/// Measured txns/sec of the concurrent pipeline: worker count × number
/// of log processors, low contention, `secs_per_cell` seconds per cell.
pub fn measured_throughput(secs_per_cell: f64) -> ExpTable {
    let mut rows = Vec::new();
    for &workers in &[1usize, 2, 4] {
        let mut row = ExpRow::new(format!("{workers} worker(s)"));
        for &streams in &[1usize, 2, 4] {
            row.push(
                format!("txns/s @ {streams} log(s)"),
                measure_cell(workers, streams, secs_per_cell),
            );
        }
        rows.push(row);
    }
    ExpTable {
        id: "measured01",
        title: "Measured pipeline throughput (real threads, wall clock)",
        rows,
    }
}
