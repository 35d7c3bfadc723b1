//! Shared plumbing for the table-regeneration binaries.
//!
//! Every `table*` binary accepts an optional `--txns N` argument (default:
//! the calibrated paper-scale batch of 40 transactions) and an optional
//! `--json` flag to emit machine-readable output instead of the aligned
//! text table. The wall-clock benches share [`percentile_us`].

use rmdb_machine::experiments::{ExpTable, PAPER_TXNS};

/// Parse `--txns N` / `--json` from the command line.
pub fn parse_args() -> (usize, bool) {
    let args: Vec<String> = std::env::args().collect();
    let mut txns = PAPER_TXNS;
    let mut json = false;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--txns" => {
                txns = args
                    .get(i + 1)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or(PAPER_TXNS);
                i += 1;
            }
            "--json" => json = true,
            _ => {}
        }
        i += 1;
    }
    (txns, json)
}

/// Run one table driver and print it.
pub fn run_table(f: fn(usize) -> ExpTable) {
    let (txns, json) = parse_args();
    let table = f(txns);
    if json {
        println!(
            "{}",
            rmdb_core::export::tables_to_json(std::slice::from_ref(&table))
        );
    } else {
        print!("{}", table.render());
    }
}

/// Inclusive-rank percentile of an unsorted latency sample, in place.
pub fn percentile_us(lat: &mut [u64], q: f64) -> u64 {
    if lat.is_empty() {
        return 0;
    }
    lat.sort_unstable();
    let idx = ((lat.len() as f64 - 1.0) * q).round() as usize;
    lat[idx]
}
