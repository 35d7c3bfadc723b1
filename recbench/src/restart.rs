//! The `restart` workload: a single-threaded `WalDb` builds a crash image
//! under adaptive logging, and that image is recovered three ways —
//! `WalDb::recover` (serial), `restart` K=2 page-sharded and `restart`
//! K=2 transaction-DAG — each timed over repetitions after one warm-up.
//!
//! The log: 90/10 hot-counter `add_u64` plus one 256-byte write per
//! transaction over 2048 pages, a 256-frame pool, a fuzzy checkpoint
//! every 2000 commits with a redo tail after the last, and one loser
//! held open from the start so no checkpoint can truncate the log.
//! Every recovered database is read back page by page against the
//! generator's model, and the three recovered data disks must match.

use crate::stats::{median_of, ratio, Samples};
use crate::trace::{Layer, Tracer};
use crate::{Outcome, Rng};
use rmdb_restart::{restart, RedoScheduler, RestartConfig, RestartReport};
use rmdb_storage::{Disk, PAYLOAD_SIZE};
use rmdb_wal::{CrashImage, LoggingPolicy, ParallelLogManager, TxnId, WalConfig, WalDb};
use std::sync::Arc;
use std::time::Instant;

const DATA_PAGES: u64 = 2048;
const HOT_PAGES: u64 = 16;
const LOSER_PAGE: u64 = DATA_PAGES - 1;
const CKPT_EVERY: u64 = 2_000;
/// Eight checkpoints, then half an interval of redo tail.
const TXNS: u64 = 8 * CKPT_EVERY + CKPT_EVERY / 2;
const BUILDS: usize = 3;
const MIN_REPS: usize = 3;
const WAYS: [Layer; 3] = [
    Layer::RecoverySerial,
    Layer::RecoveryPageSharded,
    Layer::RecoveryTxnDag,
];

fn config() -> WalConfig {
    WalConfig {
        data_pages: DATA_PAGES,
        pool_frames: 256,
        log_streams: 4,
        log_frames: 1 << 15,
        ckpt_every_commits: CKPT_EVERY,
        logging: LoggingPolicy::Adaptive { threshold_pct: 100 },
        ..WalConfig::default()
    }
}

/// An independent copy of a crash image (recovery consumes its input).
pub fn clone_image(image: &CrashImage) -> CrashImage {
    CrashImage {
        data: image.data.snapshot(),
        logs: image.logs.iter().map(Disk::snapshot).collect(),
    }
}

/// Open and scan a copy of the image's logs: (ms, records, log bytes).
pub fn scan_log(image: &CrashImage, cfg: &WalConfig) -> (f64, u64, u64) {
    let logs = image.logs.iter().map(Disk::snapshot).collect();
    let t0 = Instant::now();
    let log = ParallelLogManager::open(logs, cfg.policy, cfg.seed).expect("reopen log copy");
    let records: usize = log.scan_all_indexed().iter().map(|(r, _)| r.len()).sum();
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    let bytes = (0..log.n_streams()).map(|s| log.stream(s).position()).sum();
    (ms, records as u64, bytes)
}

/// `restart.*` metrics from a set of restart reports: phase times are
/// the medians (copied from the reports, not re-timed), counts come
/// from the last report.
pub fn restart_layer_metrics(out: &mut Outcome, reports: &[RestartReport]) {
    let Some(last) = reports.last() else { return };
    let phase = |f: fn(&RestartReport) -> std::time::Duration| {
        let ms: Vec<f64> = reports.iter().map(|r| f(r).as_secs_f64() * 1e3).collect();
        median_of(&ms)
    };
    out.set("restart.analysis_ms", phase(|r| r.timings.analysis));
    out.set("restart.redo_ms", phase(|r| r.timings.redo));
    out.set("restart.undo_ms", phase(|r| r.timings.undo));
    out.set("restart.flush_ms", phase(|r| r.timings.flush));
    out.set("restart.records_skipped", last.records_skipped as f64);
    out.set("restart.redone_updates", last.base.redone_updates as f64);
    out.set("restart.pages_written", last.base.pages_written as f64);
}

/// One build of the crash image, with the generator's model of every
/// committed page payload.
struct Built {
    image: CrashImage,
    model: Vec<Vec<u8>>,
    committed: Vec<TxnId>,
    log_bytes: u64,
    loop_s: f64,
}

fn build(
    seed: u64,
    tracer: Option<&Tracer>,
    txn_us: &mut Samples,
    commit_call_us: &mut Samples,
) -> Built {
    let mut db = WalDb::new(config());
    let mut model = vec![vec![0u8; PAYLOAD_SIZE]; DATA_PAGES as usize];
    let mut committed = Vec::new();
    let loser = db.begin();
    db.write(loser, LOSER_PAGE, 0, b"loser")
        .expect("loser write");
    let mut rng = Rng::new(seed);
    // every page but the hot ones and the loser's
    let cold = |rng: &mut Rng| HOT_PAGES + rng.below(DATA_PAGES - HOT_PAGES - 1);
    let t_loop = Instant::now();
    for _ in 0..TXNS {
        let t0 = Instant::now();
        let txn = db.begin();
        for _ in 0..3 {
            let page = if rng.below(10) < 9 {
                rng.below(HOT_PAGES)
            } else {
                cold(&mut rng)
            };
            let offset = rng.below(8) as usize * 8;
            let delta = 1 + rng.below(100);
            db.add_u64(txn, page, offset, delta).expect("counter bump");
            let slot = &mut model[page as usize][offset..offset + 8];
            let v = u64::from_le_bytes(slot.try_into().expect("8 bytes")).wrapping_add(delta);
            slot.copy_from_slice(&v.to_le_bytes());
        }
        let page = cold(&mut rng);
        let offset = rng.below(14) as usize * 256;
        let payload: Vec<u8> = (0..32).flat_map(|_| rng.next_u64().to_le_bytes()).collect();
        db.write(txn, page, offset, &payload)
            .expect("payload write");
        model[page as usize][offset..offset + 256].copy_from_slice(&payload);
        let c0 = Instant::now();
        db.commit(txn).expect("commit");
        let end = Instant::now();
        committed.push(txn);
        txn_us.push((end - t0).as_secs_f64() * 1e6);
        commit_call_us.push((end - c0).as_secs_f64() * 1e6);
        if let Some(tracer) = tracer {
            let mut req = tracer.request();
            let root = req.span(Layer::WalTxn, t0, end, None);
            req.span(Layer::WalCommit, c0, end, Some(root));
            tracer.finish(req);
        }
    }
    let loop_s = t_loop.elapsed().as_secs_f64();
    let log_bytes = (0..db.log().n_streams())
        .map(|s| db.log().stream(s).position())
        .sum();
    Built {
        image: db.crash_image(),
        model,
        committed,
        log_bytes,
        loop_s,
    }
}

/// Read every page of a recovered database and compare it to the
/// model, timing each read. Returns the number of mismatched pages.
fn verify(
    db: &mut WalDb,
    model: &[Vec<u8>],
    read_ns: &mut Samples,
    tracer: Option<&Tracer>,
) -> u64 {
    let txn = db.begin();
    let mut bad = 0;
    let mut req = tracer.map(Tracer::request);
    for (page, want) in model.iter().enumerate() {
        let t0 = Instant::now();
        let got = db.read(txn, page as u64, 0, PAYLOAD_SIZE);
        let t1 = Instant::now();
        read_ns.push((t1 - t0).as_secs_f64() * 1e9);
        if let Some(req) = req.as_mut() {
            req.span(Layer::RecoveryRead, t0, t1, None);
        }
        if got.as_deref().ok() != Some(want.as_slice()) {
            bad += 1;
        }
    }
    if let (Some(tracer), Some(req)) = (tracer, req) {
        tracer.finish(req);
    }
    if db.commit(txn).is_err() {
        bad += 1;
    }
    bad
}

/// The recovered data pages (doublewrite slots excluded), for the
/// byte-identity check across recovery paths.
fn data_pages(db: &WalDb) -> Vec<Option<Box<[u8; rmdb_storage::FRAME_SIZE]>>> {
    let data = db.crash_image().data;
    (0..DATA_PAGES)
        .map(|addr| {
            data.is_allocated(addr)
                .then(|| data.read_frame(addr).expect("read recovered frame"))
        })
        .collect()
}

pub fn run(seed: u64, seconds: f64, tracer: Option<Arc<Tracer>>) -> Outcome {
    let tracer = tracer.as_deref();
    let mut out = Outcome::default();

    let mut txn_us = Samples::default();
    let mut commit_call_us = Samples::default();
    let mut setup_s = Vec::new();
    let mut loop_s = Vec::new();
    let mut builds: Vec<Built> = Vec::new();
    for _ in 0..BUILDS {
        let t0 = Instant::now();
        let b = build(seed, tracer, &mut txn_us, &mut commit_call_us);
        setup_s.push(t0.elapsed().as_secs_f64());
        loop_s.push(b.loop_s);
        builds.push(b);
    }
    out.attempted += BUILDS as u64 * TXNS;
    let built = builds.pop().expect("at least one build");
    for other in &builds {
        out.check(
            other.log_bytes == built.log_bytes && other.committed == built.committed,
            || "two builds from the same seed wrote different logs".into(),
        );
    }
    drop(builds);
    out.set("setup_s", median_of(&setup_s));
    out.set("commit_tps", TXNS as f64 / median_of(&loop_s));
    out.set("commit_p50_us", txn_us.median());
    out.set("commit_p99_us", txn_us.pct(0.99));
    out.set("wal.commit_us_mean", commit_call_us.mean());
    out.set(
        "log_bytes_per_commit",
        ratio(built.log_bytes as f64, built.committed.len() as f64),
    );
    let (scan_ms, records, _) = scan_log(&built.image, &config());
    out.set("wal.scan_ms", scan_ms);
    out.set("wal.records_scanned", records as f64);

    let paged = RestartConfig {
        workers: 2,
        truncate_behind_bound: false,
        scheduler: RedoScheduler::PageSharded,
    };
    let dag = RestartConfig {
        scheduler: RedoScheduler::TxnDag,
        ..paged.clone()
    };
    let mut ms: [Vec<f64>; 3] = Default::default();
    let mut read_ns = Samples::default();
    let mut paged_reports = Vec::new();
    let mut dag_reports = Vec::new();
    let t_reps = Instant::now();
    // repetition 0 warms up and is not timed
    for rep in 0.. {
        if rep > MIN_REPS && t_reps.elapsed().as_secs_f64() >= seconds {
            break;
        }
        let mut recovered = Vec::new();
        for (way, &layer) in WAYS.iter().enumerate() {
            let name = layer.name();
            out.attempted += 1;
            let image = clone_image(&built.image);
            let t0 = Instant::now();
            let result = match way {
                0 => WalDb::recover(image, config()).map(|(db, r)| (db, r.committed_txns, None)),
                1 => restart(image, config(), &paged)
                    .map(|(db, r)| (db, r.base.committed_txns.clone(), Some(r))),
                _ => restart(image, config(), &dag)
                    .map(|(db, r)| (db, r.base.committed_txns.clone(), Some(r))),
            };
            let t1 = Instant::now();
            let (mut db, mut committed, report) = match result {
                Ok(r) => r,
                Err(e) => {
                    out.failed += 1;
                    out.check(false, || format!("{name} failed: {e:?}"));
                    continue;
                }
            };
            if let Some(tracer) = tracer {
                let mut req = tracer.request();
                req.span(layer, t0, t1, None);
                tracer.finish(req);
            }
            if rep > 0 {
                ms[way].push((t1 - t0).as_secs_f64() * 1e3);
                match (way, report) {
                    (1, Some(r)) => paged_reports.push(r),
                    (2, Some(r)) => dag_reports.push(r),
                    _ => {}
                }
            }
            committed.sort_unstable();
            out.check(committed == built.committed, || {
                format!(
                    "{name} recovered {} committed transactions, expected {}",
                    committed.len(),
                    built.committed.len()
                )
            });
            out.attempted += DATA_PAGES;
            let bad = verify(&mut db, &built.model, &mut read_ns, tracer);
            out.failed += bad;
            out.check(bad == 0, || {
                format!("{name}: {bad} pages differ from the model")
            });
            recovered.push(data_pages(&db));
        }
        out.check(recovered.windows(2).all(|w| w[0] == w[1]), || {
            "the three recoveries left different data disks".into()
        });
    }
    out.set("recover_ms", median_of(&ms[0]));
    out.set("restart_ms", median_of(&ms[1]));
    out.set("restart_dag_ms", median_of(&ms[2]));
    out.set("read_p50_ns", read_ns.median());
    out.set("read_p99_ns", read_ns.pct(0.99));

    restart_layer_metrics(&mut out, &paged_reports);
    if let Some(r) = dag_reports.last() {
        out.set("recovery.reexecuted_ops", r.base.reexecuted_ops as f64);
    }
    let replay: Vec<_> = dag_reports.iter().filter_map(|r| r.replay).collect();
    if let Some(last) = replay.last() {
        let work: Vec<f64> = replay.iter().map(|r| r.work_us as f64).collect();
        let span: Vec<f64> = replay.iter().map(|r| r.span_us as f64).collect();
        out.set("replay.work_us", median_of(&work));
        out.set("replay.span_us", median_of(&span));
        out.set("replay.dag_nodes", last.dag_nodes as f64);
        out.set("replay.dag_edges", last.dag_edges as f64);
    }
    out
}
