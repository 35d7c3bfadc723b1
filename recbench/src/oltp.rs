//! The two OLTP workloads over `ExecDb`: bank transfers and snapshot
//! sums of one 64-account branch, submitted by one generator thread into
//! a bounded `Executor` of 16 query-processor workers (a closed loop: the
//! generator blocks while the queue is full). Fragments logging on 4 log
//! streams, Mem backend, with the modeled 500 µs log force the
//! repository's benches use.
//!
//! The warm-up ends with a crash image taken while transfers are in
//! flight. After the measured window the run checks a final locked sum
//! and restarts that image K=2 page-sharded several times; every
//! recovered database must hold the seeded total.

use crate::restart::{clone_image, restart_layer_metrics, scan_log};
use crate::stats::{fullest, median_of, ratio, Samples, Sliced};
use crate::trace::{Layer, Tracer};
use crate::{Outcome, Rng};
use rmdb_exec::{ExecConfig, ExecCtx, ExecDb, ExecError, ExecStats, Executor};
use rmdb_obs::MetricsSnapshot;
use rmdb_restart::{restart, RedoScheduler, RestartConfig};
use rmdb_storage::BackendKind;
use rmdb_wal::{LoggingPolicy, WaitStats, WalConfig, WalDb};
use std::cell::{Cell, RefCell};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// One OLTP traffic mix.
struct Mix {
    accounts: u64,
    /// Submissions per thousand that are snapshot sums of one branch.
    read_per_mille: u64,
}

/// Accounts per branch. A transfer stays inside one branch, so every
/// branch's sum is conserved and each snapshot sum can be checked.
const BRANCH: u64 = 64;

const UNIFORM: Mix = Mix {
    accounts: 4096,
    read_per_mille: 100,
};

const HOT: Mix = Mix {
    accounts: 64,
    read_per_mille: 900,
};

/// Buffer-pool frames: a quarter of `UNIFORM`'s pages, all of `HOT`'s.
const POOL_FRAMES: usize = 1024;
const WORKERS: usize = 16;
/// Jobs waiting for a worker: one, so a finishing worker finds the next
/// job ready and latency measures service, not a deep queue.
const QUEUE: usize = 1;
const INITIAL: u64 = 1_000;
const FORCE_DELAY_US: u64 = 500;
/// Accounts seeded per set-up transaction.
const SEED_BATCH: u64 = 256;
const SETUPS: usize = 9;
/// Transfers submitted before the measured window opens. The crash image
/// the restarts recover is taken at that point, so its log holds the
/// same work whatever the host's speed.
const WARMUP_TRANSFERS: u64 = 8_000;
/// Seconds the restarts of the crash image are timed for, after one
/// untimed warm-up restart, and the fewest timed restarts.
const RESTART_S: f64 = 3.0;
const MIN_RESTARTS: usize = 5;
/// Seconds per slice of the measured window (see [`Sliced`]).
const SLICE_S: f64 = 0.25;
/// Share of the slices, those that completed the most transfers and
/// sums, whose samples give the end-to-end figures. A slice in which a
/// neighbour on the shared host takes a core away completes less and
/// falls out; a 20 s window keeps 8 slices, about 2000 sums on
/// `oltp-uniform`.
const QUIET_SHARE: f64 = 0.1;
/// One snapshot sum in this many gets a span per `SnapshotCtx::read`
/// in the traced pass; timing every read would double a 64-read sum.
const READ_SPAN_EVERY: u64 = 8;
/// Share of total commit latency the traced phases may leave
/// unattributed (the `run_txn` prologue before the first body).
const UNATTRIBUTED_TOLERANCE_PCT: f64 = 5.0;

pub fn run_uniform(seed: u64, seconds: f64, tracer: Option<Arc<Tracer>>) -> Outcome {
    run(&UNIFORM, seed, seconds, tracer)
}

pub fn run_hot(seed: u64, seconds: f64, tracer: Option<Arc<Tracer>>) -> Outcome {
    run(&HOT, seed, seconds, tracer)
}

fn wal_config(mix: &Mix) -> WalConfig {
    WalConfig {
        data_pages: mix.accounts,
        pool_frames: POOL_FRAMES,
        log_streams: 4,
        log_frames: 1 << 15,
        seed: 1985,
        logging: LoggingPolicy::Fragments,
        backend: BackendKind::Mem,
        ..WalConfig::default()
    }
}

fn setup(mix: &Mix) -> ExecDb {
    let db = ExecDb::new(ExecConfig {
        wal: wal_config(mix),
        pool_shards: 8,
        force_delay_us: FORCE_DELAY_US,
        ..ExecConfig::default()
    });
    for lo in (0..mix.accounts).step_by(SEED_BATCH as usize) {
        let hi = (lo + SEED_BATCH).min(mix.accounts);
        db.run_txn(0, |ctx| {
            for page in lo..hi {
                ctx.write(page, 0, &INITIAL.to_le_bytes())?;
            }
            Ok(())
        })
        .expect("seeding accounts");
    }
    db
}

#[derive(Clone, Copy)]
enum Op {
    Transfer {
        from: u64,
        to: u64,
        amount: u64,
    },
    /// Sum the branch whose first account is `first`.
    Sum {
        first: u64,
    },
}

/// Uniform over accounts: `from` is any account, `to` any other account
/// of its branch.
fn next_op(rng: &mut Rng, mix: &Mix) -> Op {
    if rng.below(1000) < mix.read_per_mille {
        return Op::Sum {
            first: rng.below(mix.accounts / BRANCH) * BRANCH,
        };
    }
    let from = rng.below(mix.accounts);
    let first = from - from % BRANCH;
    let to = first + (from % BRANCH + 1 + rng.below(BRANCH - 1)) % BRANCH;
    Op::Transfer {
        from,
        to,
        amount: 1 + rng.below(5),
    }
}

/// Where a transfer's latency went, measured from outside `run_txn`.
#[derive(Default)]
struct Phases {
    queue: Duration,
    body: Duration,
    retry: Duration,
    commit_path: Duration,
    /// `run_txn` prologue before the first body starts.
    unattributed: Duration,
    reads: Vec<Duration>,
    writes: Vec<Duration>,
}

struct Record {
    done: Instant,
    is_sum: bool,
    ok: bool,
    /// Transfers: submit to the return of `run_txn`. Sums: the
    /// `run_ro_txn` call.
    latency: Duration,
    /// Traced transfers only.
    phases: Option<Phases>,
    /// Traced sums only: each `SnapshotCtx::read`.
    snapshot_reads: Vec<Duration>,
}

/// One `ExecCtx` call inside a body attempt.
struct Step {
    layer: Layer,
    start: Instant,
    end: Instant,
    attempt: usize,
}

fn read_u64(bytes: Vec<u8>) -> u64 {
    u64::from_le_bytes(bytes.try_into().expect("8-byte balance"))
}

fn transfer_body(
    ctx: &mut ExecCtx<'_>,
    (from, to, amount): (u64, u64, u64),
    steps: Option<&RefCell<Vec<Step>>>,
    attempt: usize,
) -> Result<(), ExecError> {
    let mut step = |layer, f: &mut dyn FnMut(&mut ExecCtx<'_>) -> Result<Vec<u8>, ExecError>| {
        let start = Instant::now();
        let out = f(ctx);
        if let Some(steps) = steps {
            steps.borrow_mut().push(Step {
                layer,
                start,
                end: Instant::now(),
                attempt,
            });
        }
        out
    };
    let f = read_u64(step(Layer::ExecRead, &mut |c| c.read(from, 0, 8))?);
    let t = read_u64(step(Layer::ExecRead, &mut |c| c.read(to, 0, 8))?);
    let moved = amount.min(f);
    step(Layer::ExecWrite, &mut |c| {
        c.write(from, 0, &(f - moved).to_le_bytes())
            .map(|()| Vec::new())
    })?;
    step(Layer::ExecWrite, &mut |c| {
        c.write(to, 0, &(t + moved).to_le_bytes())
            .map(|()| Vec::new())
    })?;
    Ok(())
}

fn transfer(
    db: &ExecDb,
    qp: usize,
    args: (u64, u64, u64),
    submitted: Instant,
    tracer: Option<&Tracer>,
) -> Record {
    let started = Instant::now();
    let steps = RefCell::new(Vec::new());
    let bodies = RefCell::new(Vec::<(Instant, Instant)>::new());
    let result = db.run_txn(qp, |ctx| {
        let attempt = bodies.borrow().len();
        let start = Instant::now();
        let r = transfer_body(ctx, args, tracer.map(|_| &steps), attempt);
        bodies.borrow_mut().push((start, Instant::now()));
        r
    });
    let done = Instant::now();
    let mut record = Record {
        done,
        is_sum: false,
        ok: result.is_ok(),
        latency: done - submitted,
        phases: None,
        snapshot_reads: Vec::new(),
    };
    let (Some(tracer), true) = (tracer, record.ok) else {
        return record;
    };
    let bodies = bodies.into_inner();
    let steps = steps.into_inner();
    let mut req = tracer.request();
    let root = req.span(Layer::Request, submitted, done, None);
    req.span(Layer::ExecQueue, submitted, started, Some(root));
    let mut phases = Phases {
        queue: started - submitted,
        unattributed: bodies[0].0 - started,
        ..Phases::default()
    };
    for (i, &(start, end)) in bodies.iter().enumerate() {
        if i > 0 {
            let gap_from = bodies[i - 1].1;
            req.span(Layer::ExecRetry, gap_from, start, Some(root));
            phases.retry += start - gap_from;
        }
        let body = req.span(Layer::ExecBody, start, end, Some(root));
        phases.body += end - start;
        for s in steps.iter().filter(|s| s.attempt == i) {
            req.span(s.layer, s.start, s.end, Some(body));
            let d = s.end - s.start;
            if s.layer == Layer::ExecRead {
                phases.reads.push(d);
            } else {
                phases.writes.push(d);
            }
        }
    }
    let last_end = bodies.last().expect("a committed transfer ran its body").1;
    req.span(Layer::ExecCommitPath, last_end, done, Some(root));
    phases.commit_path = done - last_end;
    tracer.finish(req);
    record.phases = Some(phases);
    record
}

fn snapshot_sum(
    db: &ExecDb,
    qp: usize,
    first: u64,
    submitted: Instant,
    tracer: Option<&Tracer>,
    per_read: bool,
) -> Record {
    let started = Instant::now();
    let traced = tracer.is_some() && per_read;
    let mut reads: Vec<(Instant, Instant)> = Vec::new();
    let call = Instant::now();
    let sum = db.run_ro_txn(qp, |snap| {
        let mut sum = 0u64;
        for page in first..first + BRANCH {
            let t0 = traced.then(Instant::now);
            let balance = read_u64(snap.read(page, 0, 8)?);
            if let Some(t0) = t0 {
                reads.push((t0, Instant::now()));
            }
            sum += balance;
        }
        Ok(sum)
    });
    let done = Instant::now();
    let mut record = Record {
        done,
        is_sum: true,
        ok: sum.is_ok_and(|s| s == BRANCH * INITIAL),
        latency: done - call,
        phases: None,
        snapshot_reads: Vec::new(),
    };
    if let Some(tracer) = tracer {
        let mut req = tracer.request();
        let root = req.span(Layer::Request, submitted, done, None);
        req.span(Layer::ExecQueue, submitted, started, Some(root));
        let txn = req.span(Layer::MvccSnapshotTxn, call, done, Some(root));
        // empty unless this sum was sampled for per-read spans
        for &(t0, t1) in &reads {
            req.span(Layer::MvccSnapshotRead, t0, t1, Some(txn));
        }
        tracer.finish(req);
        record.snapshot_reads = reads.iter().map(|&(t0, t1)| t1 - t0).collect();
    }
    record
}

/// Counters read at the edges of the measured window.
struct Probe {
    stats: ExecStats,
    waits: WaitStats,
    metrics: MetricsSnapshot,
}

impl Probe {
    fn take(db: &ExecDb) -> Probe {
        Probe {
            metrics: db.metrics(),
            stats: db.stats(),
            waits: db.wait_stats(),
        }
    }

    fn counter(&self, prefix: &str) -> f64 {
        self.metrics.counter_family(prefix) as f64
    }

    fn gauge(&self, name: &str) -> f64 {
        self.metrics.gauge(name).unwrap_or(0) as f64
    }

    /// (sum, count) over every histogram whose name starts with `prefix`.
    fn hist(&self, prefix: &str) -> (f64, f64) {
        self.metrics
            .histograms
            .iter()
            .filter(|(k, _)| k.starts_with(prefix))
            .fold((0.0, 0.0), |(s, c), (_, h)| {
                (s + h.sum as f64, c + h.count as f64)
            })
    }
}

/// Exact mean of the histogram family's samples recorded between probes.
fn hist_mean(a: &Probe, b: &Probe, prefix: &str) -> f64 {
    let (s0, c0) = a.hist(prefix);
    let (s1, c1) = b.hist(prefix);
    ratio(s1 - s0, c1 - c0)
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn run(mix: &Mix, seed: u64, seconds: f64, tracer: Option<Arc<Tracer>>) -> Outcome {
    let mut out = Outcome::default();
    let expected = mix.accounts * INITIAL;

    let mut setup_s = Vec::new();
    let mut db = None;
    for _ in 0..SETUPS {
        drop(db.take());
        let t0 = Instant::now();
        db = Some(setup(mix));
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let db = Arc::new(db.expect("at least one set-up"));
    out.set("setup_s", median_of(&setup_s));
    let seed_txns = mix.accounts.div_ceil(SEED_BATCH);

    let records = Arc::new(Mutex::new(Vec::<Record>::new()));
    let executor = Executor::new(WORKERS, QUEUE);
    let mut rng = Rng::new(seed);
    let mut transfers = 0u64;
    let mut sums = 0u64;
    let mut image = None;
    let mut window: Option<(Instant, Instant, Probe)> = None;
    for i in 0u64.. {
        if window.as_ref().is_some_and(|w| Instant::now() >= w.1) {
            break;
        }
        let op = next_op(&mut rng, mix);
        let qp = (i % WORKERS as u64) as usize;
        let job_db = Arc::clone(&db);
        let (records, tracer) = (Arc::clone(&records), tracer.clone());
        let per_read = match op {
            Op::Transfer { .. } => {
                transfers += 1;
                false
            }
            Op::Sum { .. } => {
                sums += 1;
                sums % READ_SPAN_EVERY == 1
            }
        };
        let submitted = Instant::now();
        executor.submit(move || {
            let db = &job_db;
            let record = match op {
                Op::Transfer { from, to, amount } => {
                    transfer(db, qp, (from, to, amount), submitted, tracer.as_deref())
                }
                Op::Sum { first } => {
                    snapshot_sum(db, qp, first, submitted, tracer.as_deref(), per_read)
                }
            };
            records.lock().expect("record sink poisoned").push(record);
        });
        if image.is_none() && transfers == WARMUP_TRANSFERS {
            // a crash with transfers in flight: restart must undo them
            image = Some(db.crash_image().expect("mid-run crash image"));
            let start = Instant::now();
            window = Some((
                start,
                start + Duration::from_secs_f64(seconds),
                Probe::take(&db),
            ));
        }
    }
    let after = Probe::take(&db);
    executor.join();
    let (win_start, win_end, before) = window.expect("the window opened");
    let image = image.expect("taken when the window opened");
    let records = std::mem::take(&mut *records.lock().expect("record sink poisoned"));

    out.attempted = records.len() as u64;
    out.failed = records.iter().filter(|r| !r.ok).count() as u64;
    let bad_sums = records.iter().filter(|r| r.is_sum && !r.ok).count();
    out.check(bad_sums == 0, || {
        format!("{bad_sums} snapshot sums differ from {}", BRANCH * INITIAL)
    });

    let in_window: Vec<&Record> = records
        .iter()
        .filter(|r| r.ok && r.done >= win_start && r.done <= win_end)
        .collect();
    let slices = (seconds / SLICE_S).round().max(1.0) as usize;
    let mut commit_us = Sliced::new(slices);
    let mut read_ns = Sliced::new(slices);
    for r in &in_window {
        let slice = ((r.done - win_start).as_secs_f64() / SLICE_S) as usize;
        if r.is_sum {
            read_ns.push(slice, r.latency.as_secs_f64() * 1e9);
        } else {
            commit_us.push(slice, us(r.latency));
        }
    }
    let commits = in_window.iter().filter(|r| !r.is_sum).count() as f64;
    let ops: Vec<usize> = commit_us
        .counts()
        .into_iter()
        .zip(read_ns.counts())
        .map(|(c, r)| c + r)
        .collect();
    let quiet = fullest(&ops, QUIET_SHARE);
    let mut quiet_commit_us = commit_us.pooled(&quiet);
    let mut quiet_read_ns = read_ns.pooled(&quiet);
    out.set(
        "commit_tps",
        quiet_commit_us.len() as f64 / (quiet.len() as f64 * SLICE_S),
    );
    out.set("commit_p50_us", quiet_commit_us.median());
    out.set("commit_p99_us", quiet_commit_us.pct(0.99));
    out.set("read_p50_ns", quiet_read_ns.median());
    out.set("read_p99_ns", quiet_read_ns.pct(0.99));

    if tracer.is_some() {
        layer_metrics(&mut out, &in_window, &before, &after, commits);
    }
    let committed = seed_txns + records.iter().filter(|r| r.ok && !r.is_sum).count() as u64;
    drop(in_window);
    drop(records);

    // final locked sum, under S locks on every account
    let total = Cell::new(0u64);
    let locked = db.run_txn(0, |ctx| {
        let mut sum = 0;
        for page in 0..mix.accounts {
            sum += read_u64(ctx.read(page, 0, 8)?);
        }
        total.set(sum);
        Ok(())
    });
    out.attempted += 1;
    out.check(locked.is_ok() && total.get() == expected, || {
        format!(
            "final locked sum {} ({locked:?}) != {expected}",
            total.get()
        )
    });

    let (_, _, log_bytes) = scan_log(
        &db.crash_image().expect("final crash image"),
        &wal_config(mix),
    );
    drop(db);
    out.set(
        "log_bytes_per_commit",
        ratio(log_bytes as f64, committed as f64),
    );
    let (scan_ms, records_scanned, _) = scan_log(&image, &wal_config(mix));
    out.set("wal.scan_ms", scan_ms);
    out.set("wal.records_scanned", records_scanned as f64);

    let rcfg = RestartConfig {
        workers: 2,
        truncate_behind_bound: false,
        scheduler: RedoScheduler::PageSharded,
    };
    let mut restart_ms = Vec::new();
    let mut reports = Vec::new();
    let t_reps = Instant::now();
    // repetition 0 warms up and is not timed
    for rep in 0.. {
        if rep > MIN_RESTARTS && t_reps.elapsed().as_secs_f64() >= RESTART_S {
            break;
        }
        out.attempted += 1;
        let copy = clone_image(&image);
        let t0 = Instant::now();
        match restart(copy, wal_config(mix), &rcfg) {
            Ok((mut recovered, report)) => {
                let ms = t0.elapsed().as_secs_f64() * 1e3;
                let sum = recovered_sum(&mut recovered, mix.accounts);
                out.check(sum == Some(expected), || {
                    format!("restarted database sums to {sum:?}, expected {expected}")
                });
                if rep > 0 {
                    restart_ms.push(ms);
                    reports.push(report);
                }
            }
            Err(e) => {
                out.failed += 1;
                out.check(false, || format!("restart failed: {e:?}"));
            }
        }
    }
    out.set("restart_ms", median_of(&restart_ms));
    restart_layer_metrics(&mut out, &reports);
    out
}

fn recovered_sum(db: &mut WalDb, accounts: u64) -> Option<u64> {
    let txn = db.begin();
    let mut sum = 0;
    for page in 0..accounts {
        sum += read_u64(db.read(txn, page, 0, 8).ok()?);
    }
    db.commit(txn).ok()?;
    Some(sum)
}

/// Per-layer metrics of the traced pass: phase splits from the records,
/// layer counters from the probes, all per committed transfer.
fn layer_metrics(out: &mut Outcome, window: &[&Record], a: &Probe, b: &Probe, commits: f64) {
    let mut queue = Samples::default();
    let mut reads = Samples::default();
    let mut writes = Samples::default();
    let mut commit_path = Samples::default();
    let mut snapshot_reads = Samples::default();
    let (mut body, mut retry, mut latency, mut unattributed) = (0.0, 0.0, 0.0, 0.0);
    let mut accesses = 0.0;
    for r in window {
        for d in &r.snapshot_reads {
            snapshot_reads.push(d.as_secs_f64() * 1e9);
        }
        let Some(p) = &r.phases else { continue };
        queue.push(us(p.queue));
        commit_path.push(us(p.commit_path));
        accesses += (p.reads.len() + p.writes.len()) as f64;
        p.reads.iter().for_each(|&d| reads.push(us(d)));
        p.writes.iter().for_each(|&d| writes.push(us(d)));
        body += us(p.body);
        retry += us(p.retry);
        latency += us(r.latency);
        unattributed += us(p.unattributed);
    }
    out.set("exec.queue_p50_us", queue.median());
    out.set("exec.queue_p99_us", queue.pct(0.99));
    out.set("exec.read_p50_us", reads.median());
    out.set("exec.read_p99_us", reads.pct(0.99));
    out.set("exec.write_p50_us", writes.median());
    out.set("exec.write_p99_us", writes.pct(0.99));
    out.set("exec.body_us_per_commit", ratio(body, commits));
    out.set("exec.retry_us_per_commit", ratio(retry, commits));
    out.set("exec.commit_path_p50_us", commit_path.median());
    out.set("exec.commit_path_p99_us", commit_path.pct(0.99));
    let unattributed_pct = ratio(unattributed, latency) * 100.0;
    out.set("trace.unattributed_pct", unattributed_pct);
    out.check(unattributed_pct <= UNATTRIBUTED_TOLERANCE_PCT, || {
        format!(
            "queue+body+retry+commit_path leave {unattributed_pct:.2}% of commit latency \
             unattributed (tolerance {UNATTRIBUTED_TOLERANCE_PCT}%)"
        )
    });
    out.set("mvcc.snapshot_read_ns", snapshot_reads.median());

    let per_commit = |x: f64| ratio(x, commits);
    out.set(
        "exec.attempts_per_commit",
        per_commit((b.stats.attempts - a.stats.attempts) as f64),
    );
    out.set(
        "lock.waits_per_commit",
        per_commit((b.waits.waits_enqueued - a.waits.waits_enqueued) as f64),
    );
    out.set(
        "lock.deadlocks_per_commit",
        per_commit((b.waits.deadlocks_detected - a.waits.deadlocks_detected) as f64),
    );
    out.set("lock.max_wait_depth", b.waits.max_wait_depth as f64);
    out.set("group.batch_size_mean", hist_mean(a, b, "group.batch_size"));
    out.set("group.dwell_us_mean", hist_mean(a, b, "group.dwell_us"));
    out.set(
        "wal.forces_per_commit",
        per_commit(b.counter("wal.forces.s") - a.counter("wal.forces.s")),
    );
    out.set("wal.force_us_mean", hist_mean(a, b, "wal.force_us.s"));
    out.set(
        "wal.fragments_per_commit",
        per_commit(b.counter("wal.fragments_appended.s") - a.counter("wal.fragments_appended.s")),
    );
    out.set(
        "wal.eviction_forces_per_commit",
        per_commit((b.stats.wal_forces - a.stats.wal_forces) as f64),
    );
    // The pool is full after set-up, so every page load evicts once.
    let loads = b.gauge("pool.evictions") - a.gauge("pool.evictions");
    out.set("pool.hit_rate", 1.0 - ratio(loads, accesses));
    out.set(
        "pool.evictions_per_commit",
        per_commit(b.gauge("pool.evictions") - a.gauge("pool.evictions")),
    );
    out.set("mvcc.chain_len_mean", hist_mean(a, b, "mvcc.chain_len"));
    out.set("mvcc.versions_live", b.gauge("mvcc.versions_live"));
    out.set(
        "mvcc.pruned_per_commit",
        per_commit(b.counter("mvcc.versions_pruned") - a.counter("mvcc.versions_pruned")),
    );
}
