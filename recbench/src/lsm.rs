//! The `lsm` workload: one client on an `LsmStore` with foreground
//! `maintain()` after every 8 write transactions. A round preloads 16k
//! keys and runs a fixed mix: 70% write transactions (1–3 puts or
//! deletes, 64–256-byte values), 20% `get`, 10% `range` over 64 keys.
//! It then flushes, commits a fixed tail of writes (so every crash
//! leaves the same journal depth), crashes, and recovers several
//! copies of the image. Rounds run their own seeds until the run's time
//! is up; a last round replays the first, whose counts must repeat
//! exactly.
//!
//! Every `get` and `range` is checked against a model the generator
//! keeps, a final full scan must agree with the model under both scan
//! strategies, and every recovered store must equal the model.

use crate::stats::{median_of, ratio, Samples};
use crate::trace::{Layer, Request, Tracer};
use crate::{Outcome, Rng};
use rmdb_difffile::{LsmConfig, LsmStore, ScanStrategy};
use rmdb_storage::{BackendKind, FRAME_SIZE};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

const KEYS: u64 = 16_384;
const RANGE_KEYS: u64 = 64;
/// Operations per round after the preload.
const OPS: u64 = 2_000;
/// Foreground maintenance after every this many write transactions.
const MAINTAIN_EVERY: u64 = 8;
/// Keys per preload transaction.
const PRELOAD_BATCH: u64 = 16;
const MIN_ROUNDS: usize = 3;
/// Write transactions after a final flush, so every crash leaves the
/// same journal depth for recovery to replay.
const TAIL_TXNS: u64 = 192;
/// Recoveries per round, each from its own crash image of the same state.
const RECOVERIES: usize = 9;

fn config() -> LsmConfig {
    LsmConfig {
        journal_frames: 256,
        arena_frames: 8192,
        memtable_limit: 512,
        l0_limit: 4,
        level_base_frames: 64,
        fanout: 4,
        max_levels: 4,
        backend: BackendKind::Mem,
        background: false,
    }
}

fn value(rng: &mut Rng) -> Vec<u8> {
    let len = 64 + rng.below(193) as usize;
    (0..len).map(|_| rng.next_u64() as u8).collect()
}

type Model = BTreeMap<u64, Vec<u8>>;

/// Counts a round must repeat exactly under the same seed.
#[derive(Debug, PartialEq, Eq)]
struct Fingerprint {
    /// Write transactions of the mix and the crash tail.
    commits: u64,
    disk_writes: u64,
    user_bytes: u64,
    journal_frames: u64,
    run_frames: u64,
    flushes: u64,
    compactions: u64,
    levels_live: u64,
    l0_runs: u64,
}

#[derive(Default)]
struct Acc {
    setup_s: Vec<f64>,
    loop_s: f64,
    write_txns: u64,
    recover_ms: Vec<f64>,
    maintain_ms: Vec<f64>,
    space_amp: Vec<f64>,
    commit_us: Samples,
    get_ns: Samples,
    range_us: Samples,
    put_ns: Samples,
}

/// Time `f`, recording a span under `parent` when traced.
fn timed<T>(
    req: &mut Option<Request>,
    layer: Layer,
    parent: Option<usize>,
    f: impl FnOnce() -> T,
) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    let t1 = Instant::now();
    if let Some(req) = req.as_mut() {
        req.span(layer, t0, t1, parent);
    }
    (out, (t1 - t0).as_secs_f64())
}

fn round(seed: u64, tracer: Option<&Tracer>, out: &mut Outcome, acc: &mut Acc) -> Fingerprint {
    let mut rng = Rng::new(seed);
    let mut model = Model::new();
    let t_setup = Instant::now();
    let store = LsmStore::new(config()).expect("provision the store");
    for (i, lo) in (0..KEYS).step_by(PRELOAD_BATCH as usize).enumerate() {
        let txn = store.begin();
        for key in lo..lo + PRELOAD_BATCH {
            let v = value(&mut rng);
            store.put(txn, key, &v).expect("preload put");
            model.insert(key, v);
        }
        store.commit(txn).expect("preload commit");
        if i as u64 % MAINTAIN_EVERY == MAINTAIN_EVERY - 1 {
            store.maintain().expect("preload maintain");
        }
    }
    acc.setup_s.push(t_setup.elapsed().as_secs_f64());

    let s0 = store.stats();
    let writes0 = store.disk_writes();
    let mut write_txns = 0;
    let mut maintain_s = 0.0;
    let t_loop = Instant::now();
    for _ in 0..OPS {
        out.attempted += 1;
        let dice = rng.below(100);
        let mut req = tracer.map(Tracer::request);
        if dice < 70 {
            let t0 = Instant::now();
            let root = req.as_mut().map(|r| r.span(Layer::LsmTxn, t0, t0, None));
            let txn = store.begin();
            let mut ops = Vec::new();
            for _ in 0..1 + rng.below(3) {
                let key = rng.below(KEYS);
                let v = (rng.below(5) != 0).then(|| value(&mut rng));
                ops.push((key, v));
            }
            let mut failed = false;
            for (key, v) in &ops {
                let (r, s) = timed(&mut req, Layer::LsmWrite, root, || match v {
                    Some(v) => store.put(txn, *key, v),
                    None => store.delete(txn, *key),
                });
                acc.put_ns.push(s * 1e9);
                failed |= r.is_err();
            }
            let (r, _) = timed(&mut req, Layer::LsmCommit, root, || store.commit(txn));
            failed |= r.is_err();
            let t1 = Instant::now();
            acc.commit_us.push((t1 - t0).as_secs_f64() * 1e6);
            if let (Some(req), Some(root)) = (req.as_mut(), root) {
                req.end(root, t1);
            }
            write_txns += 1;
            // foreground maintenance: the client's own next operation
            if write_txns % MAINTAIN_EVERY == 0 {
                let (r, s) = timed(&mut req, Layer::LsmMaintain, None, || store.maintain());
                maintain_s += s;
                failed |= r.is_err();
            }
            if failed {
                out.failed += 1;
            } else {
                for (key, v) in ops {
                    match v {
                        Some(v) => model.insert(key, v),
                        None => model.remove(&key),
                    };
                }
            }
        } else if dice < 90 {
            let key = rng.below(KEYS);
            let (got, s) = timed(&mut req, Layer::LsmGet, None, || store.get(key));
            acc.get_ns.push(s * 1e9);
            if got.ok() != Some(model.get(&key).cloned()) {
                out.failed += 1;
                out.check(false, || format!("get({key}) disagrees with the model"));
            }
        } else {
            let lo = rng.below(KEYS - RANGE_KEYS);
            let hi = lo + RANGE_KEYS - 1;
            let (got, s) = timed(&mut req, Layer::LsmRange, None, || {
                store.range(lo, hi, ScanStrategy::Optimal)
            });
            acc.range_us.push(s * 1e6);
            let want: Vec<(u64, Vec<u8>)> =
                model.range(lo..=hi).map(|(k, v)| (*k, v.clone())).collect();
            if got.ok() != Some(want) {
                out.failed += 1;
                out.check(false, || {
                    format!("range({lo}, {hi}) disagrees with the model")
                });
            }
        }
        if let (Some(tracer), Some(req)) = (tracer, req) {
            tracer.finish(req);
        }
    }
    acc.loop_s += t_loop.elapsed().as_secs_f64();
    acc.write_txns += write_txns;
    acc.maintain_ms.push(maintain_s * 1e3);

    out.attempted += TAIL_TXNS;
    store.flush_now().expect("flush before the crash tail");
    for _ in 0..TAIL_TXNS {
        let txn = store.begin();
        let key = rng.below(KEYS);
        let v = value(&mut rng);
        let ok = store.put(txn, key, &v).and_then(|()| store.commit(txn));
        match ok {
            Ok(()) => {
                model.insert(key, v);
            }
            Err(e) => {
                out.failed += 1;
                out.check(false, || format!("tail write failed: {e:?}"));
            }
        }
    }

    let want: Vec<(u64, Vec<u8>)> = model.iter().map(|(k, v)| (*k, v.clone())).collect();
    for strategy in [ScanStrategy::Basic, ScanStrategy::Optimal] {
        out.attempted += 1;
        let ok = store.scan(strategy).ok().as_ref() == Some(&want);
        out.check(ok, || {
            format!("full {strategy:?} scan disagrees with the model")
        });
    }

    let s1 = store.stats();
    let manifest = store.manifest();
    let live_frames: u64 = manifest.l0.iter().map(|r| r.frames).sum::<u64>()
        + manifest
            .levels
            .iter()
            .flatten()
            .map(|r| r.frames)
            .sum::<u64>();
    let live_bytes: usize = model.values().map(Vec::len).sum();
    acc.space_amp.push(ratio(
        ((live_frames + store.journal_frames_used()) as usize * FRAME_SIZE) as f64,
        live_bytes as f64,
    ));
    let fingerprint = Fingerprint {
        commits: write_txns + TAIL_TXNS,
        disk_writes: store.disk_writes() - writes0,
        user_bytes: s1.user_bytes - s0.user_bytes,
        journal_frames: s1.journal_frames_written - s0.journal_frames_written,
        run_frames: s1.run_frames_written - s0.run_frames_written,
        flushes: s1.flushes - s0.flushes,
        compactions: s1.compactions - s0.compactions,
        levels_live: manifest.levels_live(),
        l0_runs: manifest.l0.len() as u64,
    };

    let images: Vec<_> = (0..RECOVERIES).map(|_| store.crash_image()).collect();
    drop(store);
    let mut recover_ms = Vec::new();
    for image in images {
        out.attempted += 1;
        let mut req = tracer.map(Tracer::request);
        let (recovered, s) = timed(&mut req, Layer::LsmRecover, None, || {
            LsmStore::recover(image, config())
        });
        if let (Some(tracer), Some(req)) = (tracer, req) {
            tracer.finish(req);
        }
        recover_ms.push(s * 1e3);
        match recovered {
            Ok((store, _)) => {
                let ok = store.scan(ScanStrategy::Optimal).ok().as_ref() == Some(&want);
                out.check(ok, || "the recovered store disagrees with the model".into());
            }
            Err(e) => {
                out.failed += 1;
                out.check(false, || format!("recovery failed: {e:?}"));
            }
        }
    }
    acc.recover_ms.push(median_of(&recover_ms));
    fingerprint
}

pub fn run(seed: u64, seconds: f64, tracer: Option<Arc<Tracer>>) -> Outcome {
    let tracer = tracer.as_deref();
    let mut out = Outcome::default();
    let mut acc = Acc::default();
    let t0 = Instant::now();
    // Each round runs its own seed so a run averages over several
    // store histories; a last round replays the first, whose counts
    // must repeat exactly.
    let round_seed = |r: u64| seed ^ r.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let first = round(round_seed(0), tracer, &mut out, &mut acc);
    let mut rounds = 1u64;
    while rounds < MIN_ROUNDS as u64 || t0.elapsed().as_secs_f64() < seconds {
        round(round_seed(rounds), tracer, &mut out, &mut acc);
        rounds += 1;
    }
    let again = round(round_seed(0), tracer, &mut out, &mut acc);
    out.check(again == first, || {
        format!("same seed, different counts: {first:?} then {again:?}")
    });
    let f = &first;
    let commits = f.commits as f64;
    out.set("setup_s", median_of(&acc.setup_s));
    out.set("commit_tps", acc.write_txns as f64 / acc.loop_s);
    out.set("commit_p50_us", acc.commit_us.median());
    out.set("commit_p99_us", acc.commit_us.pct(0.99));
    out.set("read_p50_ns", acc.get_ns.median());
    out.set("read_p99_ns", acc.get_ns.pct(0.99));
    out.set("restart_ms", median_of(&acc.recover_ms));
    out.set(
        "log_bytes_per_commit",
        ratio((f.journal_frames as usize * FRAME_SIZE) as f64, commits),
    );
    out.set(
        "write_amp",
        ratio(
            (f.disk_writes as usize * FRAME_SIZE) as f64,
            f.user_bytes as f64,
        ),
    );
    out.set("space_amp", median_of(&acc.space_amp));
    out.set("get_p50_ns", acc.get_ns.median());
    out.set("scan_p50_us", acc.range_us.median());
    out.set("lsm.put_ns_mean", acc.put_ns.mean());
    out.set("lsm.maintain_ms_total", median_of(&acc.maintain_ms));
    out.set(
        "lsm.journal_frames_per_commit",
        ratio(f.journal_frames as f64, commits),
    );
    out.set(
        "lsm.run_frames_per_commit",
        ratio(f.run_frames as f64, commits),
    );
    out.set("lsm.flushes", f.flushes as f64);
    out.set("lsm.compactions", f.compactions as f64);
    out.set("lsm.levels_live", f.levels_live as f64);
    out.set("lsm.l0_runs", f.l0_runs as f64);
    out
}
