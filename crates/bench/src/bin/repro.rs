//! Regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! cargo run -p hwdp-bench --bin repro --release             # everything
//! cargo run -p hwdp-bench --bin repro --release -- fig12    # one experiment
//! cargo run -p hwdp-bench --bin repro --release -- --quick  # smaller scale
//! cargo run -p hwdp-bench --bin repro --release -- --markdown > results.md
//! ```
//!
//! Campaign-backed tables run on a worker pool sized to the machine
//! (`campaigns::default_workers`); the output does not depend on it.

use std::process::ExitCode;

use hwdp_bench::scenarios::Scale;
use hwdp_bench::{all_tables, figures};

const USAGE: &str = "usage: repro [--quick] [--markdown] [TABLE-ID-SUBSTRING ...]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (flags, filter): (Vec<&str>, Vec<&str>) =
        args.iter().map(String::as_str).partition(|a| a.starts_with("--"));
    if let Some(unknown) = flags.iter().find(|f| !matches!(**f, "--quick" | "--markdown")) {
        eprintln!("repro: unknown option '{unknown}'\n{USAGE}");
        return ExitCode::from(2);
    }
    let quick = flags.contains(&"--quick");
    let markdown = flags.contains(&"--markdown");

    let scale = if quick { Scale::quick() } else { Scale::default() };

    if !markdown {
        println!("hwdp repro — \"A Case for Hardware-Based Demand Paging\" (ISCA 2020)");
        println!("{}", figures::table2_config());
    }

    for table in all_tables(&scale) {
        if !filter.is_empty() && !filter.iter().any(|f| table.id.contains(f)) {
            continue;
        }
        if markdown {
            println!("{}", table.to_markdown());
        } else {
            println!("{table}");
        }
    }
    ExitCode::SUCCESS
}
