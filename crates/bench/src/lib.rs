//! Shared plumbing for the table-regeneration binaries.
//!
//! Every `table*` binary accepts an optional `--txns N` argument (default:
//! the calibrated paper-scale batch of 40 transactions) and an optional
//! `--json` flag to emit machine-readable output instead of the aligned
//! text table. Every bench binary parses its command line with [`Args`];
//! the wall-clock benches share [`percentile_us`].

use rmdb_machine::experiments::{ExpTable, PAPER_TXNS};
use std::collections::HashMap;
use std::fmt::Display;
use std::str::FromStr;

/// A bench binary's command line: bare flags and `--name value` options.
pub struct Args(HashMap<String, Option<String>>);

impl Args {
    /// Parse the process arguments against the binary's `flags` and the
    /// `options` that take one value; anything else is a [`usage_error`].
    pub fn parse(flags: &[&str], options: &[&str]) -> Args {
        Args::parse_from(std::env::args().skip(1), flags, options)
            .unwrap_or_else(|e| usage_error(e))
    }

    fn parse_from(
        mut argv: impl Iterator<Item = String>,
        flags: &[&str],
        options: &[&str],
    ) -> Result<Args, String> {
        let mut given = HashMap::new();
        while let Some(arg) = argv.next() {
            let value = match arg.as_str() {
                a if flags.contains(&a) => None,
                a if options.contains(&a) => {
                    Some(argv.next().ok_or(format!("{arg} needs a value"))?)
                }
                _ => return Err(format!("unknown argument {arg:?}")),
            };
            given.insert(arg, value);
        }
        Ok(Args(given))
    }

    /// Whether flag `name` was given.
    pub fn flag(&self, name: &str) -> bool {
        self.0.contains_key(name)
    }

    /// The value of option `name` (the last one, if repeated).
    pub fn value(&self, name: &str) -> Option<&str> {
        self.0.get(name)?.as_deref()
    }

    /// Option `name` parsed as `T`; `None` when absent or unparsable, so
    /// the caller's default applies.
    pub fn parsed<T: FromStr>(&self, name: &str) -> Option<T> {
        self.value(name)?.parse().ok()
    }
}

/// Report a malformed command line and exit with status 2.
pub fn usage_error(msg: impl Display) -> ! {
    eprintln!("{msg}");
    std::process::exit(2)
}

/// Parse `--txns N` / `--json` from the command line.
pub fn parse_args() -> (usize, bool) {
    let args = Args::parse(&["--json"], &["--txns"]);
    (
        args.parsed("--txns").unwrap_or(PAPER_TXNS),
        args.flag("--json"),
    )
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

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(argv: &[&str]) -> Result<Args, String> {
        let argv = argv.iter().map(|a| a.to_string());
        Args::parse_from(argv, &["--json", "--smoke"], &["--txns", "--out"])
    }

    #[test]
    fn parses_flags_and_options_and_rejects_the_rest() {
        let args = parse(&["--out", "d", "--json", "--txns", "12", "--txns", "x7"]).unwrap();
        assert!(args.flag("--json") && !args.flag("--smoke"));
        assert_eq!(args.value("--out"), Some("d"));
        assert_eq!(args.parsed::<usize>("--txns"), None, "unparsable: default");
        assert_eq!(parse(&["--txns", "7"]).unwrap().parsed("--txns"), Some(7));
        assert_eq!(
            parse(&["--jsn"]).err().unwrap(),
            "unknown argument \"--jsn\""
        );
        assert_eq!(parse(&["--out"]).err().unwrap(), "--out needs a value");
    }
}
