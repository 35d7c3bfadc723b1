//! Regenerates the ablation experiments (prose findings of §4.1.3 and
//! §4.2.5 plus sensitivity sweeps): `ablations [--txns N] [--out DIR]`.

use rmdb_bench::Args;
use rmdb_core::export::{tables_to_json, tables_to_text};
use rmdb_machine::ablations::all_ablations;
use rmdb_machine::experiments::PAPER_TXNS;

fn main() {
    let args = Args::parse(&[], &["--txns", "--out"]);
    let txns = args.parsed("--txns").unwrap_or(PAPER_TXNS);
    let out = args.value("--out");
    let tables = all_ablations(txns);
    let text = tables_to_text(&tables);
    print!("{text}");
    if let Some(dir) = out {
        std::fs::create_dir_all(dir).expect("create output dir");
        std::fs::write(format!("{dir}/ablations.txt"), &text).expect("write ablations.txt");
        std::fs::write(format!("{dir}/ablations.json"), tables_to_json(&tables))
            .expect("write ablations.json");
        eprintln!("wrote {dir}/ablations.txt and {dir}/ablations.json");
    }
}
