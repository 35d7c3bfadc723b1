//! One benchmark for the recovery stack.
//!
//! ```text
//! rmdb-recbench --workload <oltp-uniform|oltp-hot|restart|lsm> --seed N --seconds S --trace 0|1
//! rmdb-recbench --write-benchmark-json PATH
//! ```
//!
//! With `--trace 0` one untraced run measures the end-to-end metrics.
//! With `--trace 1` the workload runs twice, untraced and then traced;
//! the traced run gives the per-layer metrics, and the two runs'
//! `commit_tps` give the tracing overhead. Either way the program checks
//! its results, prints one row with every metric it computed, and ends
//! with one JSON line `{"correct", "attempted", "failed", "metrics"}`.
//! It exits 1 when a correctness check fails. See `README.md`.

mod lsm;
mod oltp;
mod restart;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Arc;
use trace::Tracer;

/// Seconds one run measures; written into `BENCHMARK.json`.
const RUN_SECONDS: u64 = 20;

struct Workload {
    name: &'static str,
    why: &'static str,
    run: fn(u64, f64, Option<Arc<Tracer>>) -> Outcome,
}

const WORKLOADS: &[Workload] = &[
    Workload {
        name: "oltp-uniform",
        why: "Transfers over 4096 pages, pool holds 1/4: the commit path dominates. group.*, wal.*, exec.commit_path_* move commit_p50_us/commit_tps; pool.* move commit_p99_us; lock.* stay flat",
        run: oltp::run_uniform,
    },
    Workload {
        name: "oltp-hot",
        why: "64 hot pages, 90% snapshot sums: locks and MVCC dominate. lock.*, exec.retry_us_per_commit move commit_tps/commit_p99_us; mvcc.* move read_p50_ns/read_p99_ns; pool.* stay flat",
        run: oltp::run_hot,
    },
    Workload {
        name: "restart",
        why: "Crash image of an adaptive log with checkpoints, recovered three ways: log scan, restart and replay layers only. wal.scan_ms, restart.*, replay.* move restart_ms",
        run: restart::run,
    },
    Workload {
        name: "lsm",
        why: "Only workload on the leveled differential store. lsm.*_frames_per_commit, maintain_ms_total move log_bytes_per_commit/commit_tps; lsm.levels_live, l0_runs move read_p50_ns",
        run: lsm::run,
    },
];

/// One metric the benchmark reports. `bound` is set exactly for the
/// end-to-end metrics.
struct Spec {
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> Spec {
    Spec {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> Spec {
    Spec {
        name,
        unit,
        better,
        bound: None,
    }
}

/// Measured on every workload, untraced.
/// Timings get the largest bound `BENCHMARK.json` allows (0.25): on the 2-core
/// shared host a run's timings shift by about 10% from run to run even
/// for single-threaded work. Byte counts are exact or nearly so.
const END_TO_END: &[Spec] = &[
    e2e("setup_s", "s", "lower", 0.25),
    e2e("commit_tps", "1/s", "higher", 0.25),
    e2e("commit_p50_us", "us", "lower", 0.25),
    e2e("commit_p99_us", "us", "lower", 0.25),
    e2e("read_p50_ns", "ns", "lower", 0.25),
    e2e("read_p99_ns", "ns", "lower", 0.25),
    e2e("restart_ms", "ms", "lower", 0.25),
    e2e("log_bytes_per_commit", "B", "lower", 0.05),
];

/// End-to-end in meaning but measured on one workload only (0 on the
/// others), so they ride in the traced run's report, taken from its
/// untraced pass.
const ONE_WORKLOAD: &[Spec] = &[
    layer("recover_ms", "ms", "lower"),
    layer("restart_dag_ms", "ms", "lower"),
    layer("write_amp", "ratio", "lower"),
    layer("space_amp", "ratio", "lower"),
    layer("get_p50_ns", "ns", "lower"),
    layer("scan_p50_us", "us", "lower"),
    layer("error_rate", "ratio", "lower"),
];

/// Measured in the traced pass.
const PER_LAYER: &[Spec] = &[
    layer("exec.queue_p50_us", "us", "lower"),
    layer("exec.queue_p99_us", "us", "lower"),
    layer("exec.read_p50_us", "us", "lower"),
    layer("exec.read_p99_us", "us", "lower"),
    layer("exec.write_p50_us", "us", "lower"),
    layer("exec.write_p99_us", "us", "lower"),
    layer("exec.body_us_per_commit", "us", "lower"),
    layer("exec.retry_us_per_commit", "us", "lower"),
    layer("exec.commit_path_p50_us", "us", "lower"),
    layer("exec.commit_path_p99_us", "us", "lower"),
    layer("exec.attempts_per_commit", "count", "lower"),
    layer("lock.waits_per_commit", "count", "lower"),
    layer("lock.deadlocks_per_commit", "count", "lower"),
    layer("lock.max_wait_depth", "count", "lower"),
    layer("group.batch_size_mean", "count", "higher"),
    layer("group.dwell_us_mean", "us", "lower"),
    layer("wal.forces_per_commit", "count", "lower"),
    layer("wal.force_us_mean", "us", "lower"),
    layer("wal.fragments_per_commit", "count", "lower"),
    layer("wal.eviction_forces_per_commit", "count", "lower"),
    layer("pool.hit_rate", "ratio", "higher"),
    layer("pool.evictions_per_commit", "count", "lower"),
    layer("mvcc.snapshot_read_ns", "ns", "lower"),
    layer("mvcc.chain_len_mean", "count", "lower"),
    layer("mvcc.versions_live", "count", "lower"),
    layer("mvcc.pruned_per_commit", "count", "lower"),
    layer("wal.scan_ms", "ms", "lower"),
    layer("wal.records_scanned", "count", "lower"),
    layer("wal.commit_us_mean", "us", "lower"),
    layer("restart.analysis_ms", "ms", "lower"),
    layer("restart.redo_ms", "ms", "lower"),
    layer("restart.undo_ms", "ms", "lower"),
    layer("restart.flush_ms", "ms", "lower"),
    layer("restart.records_skipped", "count", "higher"),
    layer("restart.redone_updates", "count", "lower"),
    layer("restart.pages_written", "count", "lower"),
    layer("recovery.reexecuted_ops", "count", "lower"),
    layer("replay.work_us", "us", "lower"),
    layer("replay.span_us", "us", "lower"),
    layer("replay.dag_nodes", "count", "lower"),
    layer("replay.dag_edges", "count", "lower"),
    layer("lsm.put_ns_mean", "ns", "lower"),
    layer("lsm.maintain_ms_total", "ms", "lower"),
    layer("lsm.journal_frames_per_commit", "count", "lower"),
    layer("lsm.run_frames_per_commit", "count", "lower"),
    layer("lsm.flushes", "count", "lower"),
    layer("lsm.compactions", "count", "lower"),
    layer("lsm.levels_live", "count", "lower"),
    layer("lsm.l0_runs", "count", "lower"),
    layer("trace.untraced_commit_tps", "1/s", "higher"),
    layer("trace.traced_commit_tps", "1/s", "higher"),
    layer("trace.overhead_pct", "%", "lower"),
    layer("trace.unattributed_pct", "%", "lower"),
    layer("trace.spans", "count", "lower"),
    layer("host_cores", "count", "higher"),
];

/// splitmix64: the generator's only source of randomness, so one seed
/// gives one operation sequence.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (n ≥ 1).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// What one pass of a workload produced.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Failed correctness checks, one line each.
    pub violations: Vec<String>,
    pub metrics: BTreeMap<String, f64>,
}

impl Outcome {
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.violations.push(what());
        }
    }

    fn get(&self, name: &str) -> f64 {
        self.metrics.get(name).copied().unwrap_or(0.0)
    }
}

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

enum Command {
    Run(Args),
    WriteBenchmarkJson(String),
}

fn parse_args() -> Result<Command, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut flags = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        flags.insert(flag.as_str(), value.as_str());
    }
    if let Some(path) = flags.get("--write-benchmark-json") {
        return Ok(Command::WriteBenchmarkJson(path.to_string()));
    }
    let get = |k: &str| flags.get(k).copied().ok_or_else(|| format!("missing {k}"));
    let name = get("--workload")?;
    let args = Args {
        workload: WORKLOADS
            .iter()
            .find(|w| w.name == name)
            .ok_or_else(|| format!("unknown workload {name:?}"))?,
        seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds: get("--seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?,
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got {other}")),
        },
    };
    if !(args.seconds > 0.0 && args.seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".into());
    }
    Ok(Command::Run(args))
}

fn main() {
    let args = match parse_args() {
        Ok(Command::Run(args)) => args,
        Ok(Command::WriteBenchmarkJson(path)) => {
            if let Err(e) = std::fs::write(&path, benchmark_json()) {
                eprintln!("error: writing {path}: {e}");
                std::process::exit(2);
            }
            return;
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let wl = args.workload;
    let host_cores = std::thread::available_parallelism().map_or(1, usize::from);

    let mut passes = vec![(wl.run)(args.seed, args.seconds, None)];
    let tracer = Arc::new(Tracer::new());
    if args.trace {
        passes.push((wl.run)(args.seed, args.seconds, Some(Arc::clone(&tracer))));
    }
    let attempted: u64 = passes.iter().map(|o| o.attempted).sum();
    let failed: u64 = passes.iter().map(|o| o.failed).sum();
    let mut violations: Vec<String> = passes.iter().flat_map(|o| o.violations.clone()).collect();

    // (name, unit, value) in the order BENCHMARK.json lists them
    let reported: Vec<(String, &str, f64)> = if let [untraced, traced] = &passes[..] {
        let mut layers = traced.metrics.clone();
        for s in ONE_WORKLOAD {
            layers.insert(s.name.to_string(), untraced.get(s.name));
        }
        let tps = (untraced.get("commit_tps"), traced.get("commit_tps"));
        for (name, v) in [
            ("trace.untraced_commit_tps", tps.0),
            ("trace.traced_commit_tps", tps.1),
            (
                "trace.overhead_pct",
                stats::ratio(tps.0 - tps.1, tps.0) * 100.0,
            ),
            ("trace.spans", tracer.spans_seen() as f64),
            ("host_cores", host_cores as f64),
            ("error_rate", stats::ratio(failed as f64, attempted as f64)),
        ] {
            layers.insert(name.to_string(), v);
        }
        for (name, us) in tracer.self_us() {
            layers.insert(format!("self.{name}_us"), us);
        }
        let trace_path = Path::new(".bench_trace").join(format!("{}.tsv", wl.name));
        if let Err(e) = tracer.write_tsv(&trace_path) {
            violations.push(format!("writing {}: {e}", trace_path.display()));
        }
        per_layer_specs()
            .into_iter()
            .map(|(name, unit, _)| {
                let v = layers.get(&name).copied().unwrap_or(0.0);
                (name, unit, v)
            })
            .collect()
    } else {
        let o = &passes[0];
        for s in END_TO_END {
            let v = o.get(s.name);
            if !(v > 0.0 && v.is_finite()) {
                violations.push(format!("end-to-end metric {} is {v}", s.name));
            }
        }
        END_TO_END
            .iter()
            .map(|s| (s.name.to_string(), s.unit, o.get(s.name)))
            .collect()
    };

    let correct = violations.is_empty() && failed == 0;
    for v in &violations {
        eprintln!("CHECK FAILED: {v}");
    }
    // The full row: the run's identity and every metric each pass
    // computed. The summary line after it is the last line printed.
    let mut row = format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"host_cores\":{host_cores},\
\"attempted\":{attempted},\"failed\":{failed},\"correct\":{correct}",
        wl.name, args.seed, args.seconds, args.trace as u8
    );
    for (o, pass) in passes.iter().zip(["untraced", "traced"]) {
        let body: Vec<String> = o
            .metrics
            .iter()
            .map(|(k, v)| format!("\"{k}\":{}", json_num(*v)))
            .collect();
        write!(row, ",\"{pass}\":{{{}}}", body.join(",")).expect("write to string");
    }
    // Debug-quoting is valid JSON for these ASCII messages
    let quoted: Vec<String> = violations.iter().map(|v| format!("{v:?}")).collect();
    write!(row, ",\"violations\":[{}]}}", quoted.join(",")).expect("write to string");
    println!("{row}");

    let metrics: Vec<String> = reported
        .iter()
        .map(|(name, unit, v)| {
            format!(
                "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                json_num(*v)
            )
        })
        .collect();
    println!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        metrics.join(",")
    );
    if !correct {
        std::process::exit(1);
    }
}

/// Every per-layer metric as (name, unit, better): the one-workload
/// end-to-end metrics, the layer metrics, and one self time per span.
fn per_layer_specs() -> Vec<(String, &'static str, &'static str)> {
    ONE_WORKLOAD
        .iter()
        .chain(PER_LAYER)
        .map(|s| (s.name.to_string(), s.unit, s.better))
        .chain(
            trace::Layer::ALL
                .iter()
                .map(|l| (format!("self.{}_us", l.name()), "us", "lower")),
        )
        .collect()
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// `BENCHMARK.json`, generated from the tables above so names and units
/// are written in one place.
fn benchmark_json() -> String {
    let mut out = String::from(
        "{\n  \"command\": [\"cargo\", \"run\", \"--offline\", \"--release\", \"--quiet\", \
\"--manifest-path\", \"recbench/Cargo.toml\", \"--\"],\n  \"paths\": [\"recbench\"],\n",
    );
    writeln!(out, "  \"run_seconds\": {RUN_SECONDS},").expect("write to string");
    let rows: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    writeln!(out, "  \"workloads\": [\n{}\n  ],", rows.join(",\n")).expect("write to string");
    let rows: Vec<String> = END_TO_END
        .iter()
        .map(|s| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                s.name,
                s.unit,
                s.better,
                s.bound.expect("end-to-end metrics carry a bound")
            )
        })
        .collect();
    writeln!(out, "  \"end_to_end\": [\n{}\n  ],", rows.join(",\n")).expect("write to string");
    let rows: Vec<String> = per_layer_specs()
        .iter()
        .map(|(name, unit, better)| {
            format!("    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}")
        })
        .collect();
    writeln!(out, "  \"per_layer\": [\n{}\n  ]\n}}", rows.join(",\n")).expect("write to string");
    out
}
