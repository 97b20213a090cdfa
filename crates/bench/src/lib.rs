//! Experiment harness regenerating every table and figure of the paper's
//! evaluation (§VI), plus ablations of the design's key parameters.
//!
//! * [`figures`] — Fig. 1–4, Table I/II, Fig. 11–17, and the §VI-D area
//!   table, each as a function returning a printable [`tables::Table`].
//! * [`ablations`] — `kpoold`, PMSHR size, free-queue depth, prefetch
//!   buffer, and `kpted` period sweeps, plus the §V extension tables.
//! * [`scenarios`] — the experiment [`Scale`].
//! * [`campaigns`] — `hwdp-harness` campaign definitions for the figures
//!   and [`campaigns::Runs`], their typed results from a worker pool.
//!
//! Run everything with `cargo run -p hwdp-bench --bin repro --release`;
//! Criterion microbenchmarks live in `benches/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablations;
pub mod campaigns;
pub mod figures;
pub mod scenarios;
pub mod tables;

use scenarios::Scale;
use tables::Table;

/// Generates every experiment table at the given scale, in paper order,
/// running the campaign-backed tables on the default worker pool.
pub fn all_tables(scale: &Scale) -> Vec<Table> {
    vec![
        figures::fig01_breakdown(scale),
        figures::fig02_trends(),
        figures::fig03_osdp_anatomy(),
        figures::fig04_pollution(scale),
        figures::table1_pte_semantics(),
        figures::table2_config(),
        figures::fig11a_split(),
        figures::fig11b_timeline(),
        figures::fig12_latency(scale).0,
        figures::fig13_throughput(scale),
        figures::fig14_user_ipc(scale),
        figures::fig15_kernel_cost(scale),
        figures::fig16_smt(scale),
        figures::fig17_sw_vs_hw(),
        figures::area_overhead(),
        ablations::ablation_kpoold(scale),
        ablations::ablation_pmshr(scale),
        ablations::ablation_free_queue(scale),
        ablations::ablation_prefetch(scale),
        ablations::ablation_kpted(scale),
        ablations::extension_anon(scale),
        ablations::extension_per_core_queues(scale),
        ablations::extension_long_io(scale),
        ablations::extension_prefetching(scale),
    ]
}
