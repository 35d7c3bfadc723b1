//! Regenerates every table of the paper and (optionally) persists the
//! results: `all_tables [--txns N] [--out DIR] [--measured]` writes
//! `tables.txt` and `tables.json` into DIR when given. `--measured`
//! appends a wall-clock throughput table from the real-thread pipeline
//! alongside the simulated tables.

use rmdb_bench::Args;
use rmdb_core::export::{tables_to_json, tables_to_text};
use rmdb_machine::experiments::{all_tables, PAPER_TXNS};
use rmdb_machine::measured::measured_throughput;

fn main() {
    let args = Args::parse(&["--measured"], &["--txns", "--out"]);
    let txns = args.parsed("--txns").unwrap_or(PAPER_TXNS);
    let out = args.value("--out");
    let measured = args.flag("--measured");
    let mut tables = all_tables(txns);
    if measured {
        tables.push(measured_throughput(0.5));
    }
    let text = tables_to_text(&tables);
    print!("{text}");
    if let Some(dir) = out {
        std::fs::create_dir_all(dir).expect("create output dir");
        std::fs::write(format!("{dir}/tables.txt"), &text).expect("write tables.txt");
        std::fs::write(format!("{dir}/tables.json"), tables_to_json(&tables))
            .expect("write tables.json");
        eprintln!("wrote {dir}/tables.txt and {dir}/tables.json");
    }
}
