//! Harness campaigns behind the repro figures.
//!
//! Every simulated table whose runs a [`JobSpec`] expresses is a
//! `hwdp-harness` [`Campaign`] run through the harness runner
//! ([`simulate`]) on a worker pool; [`Runs`] hands the figure the typed
//! `RunResult` of each job. Campaigns use `fixed_seed` (every job gets the
//! scale's master seed), so the tables in EXPERIMENTS.md regenerate bit
//! for bit — worker count only changes wall time.

use hwdp_core::{Mode, RunResult};
use hwdp_harness::executor::execute_with;
use hwdp_harness::runner::simulate;
use hwdp_harness::{
    progress::Silent, Campaign, DeviceKind, Grid, JobOutcome, JobSpec, PolicyKind, Scenario,
    SmtPartner, TierSpec,
};
use hwdp_workloads::YcsbKind;

use crate::figures::THREADS;
use crate::scenarios::Scale;

/// Fig. 13's x-axis as harness scenarios (FIO, DBBench, YCSB A–F).
pub const FIG13_SCENARIOS: [Scenario; 8] = [
    Scenario::FioRand,
    Scenario::DbBench,
    Scenario::Ycsb(YcsbKind::A),
    Scenario::Ycsb(YcsbKind::B),
    Scenario::Ycsb(YcsbKind::C),
    Scenario::Ycsb(YcsbKind::D),
    Scenario::Ycsb(YcsbKind::E),
    Scenario::Ycsb(YcsbKind::F),
];

/// Worker-pool size for figure campaigns: the machine's parallelism,
/// capped — figure jobs are short, and results don't depend on this.
pub fn default_workers() -> usize {
    // hwdp-lint: allow(det-thread): pool sizing only; artifacts are byte-identical for any worker count
    std::thread::available_parallelism().map_or(1, |n| n.get().min(8))
}

/// A grid preconfigured from `scale`: its sizing, its time cap, and the
/// historic fixed-seed behaviour (each figure run used `scale.seed`
/// directly).
pub(crate) fn scale_grid(name: &str, scale: &Scale) -> Grid {
    Grid::new(name, scale.seed)
        .memory_frames(scale.memory_frames)
        .ops(scale.ops_per_thread)
        .time_cap_ms(scale.time_cap.as_millis_f64() as u64)
        .fixed_seed()
}

/// Dataset:memory ratios of Fig. 1.
pub const FIG01_RATIOS: [f64; 4] = [1.0, 2.0, 3.0, 4.0];

/// Fig. 1: YCSB-C under OSDP with 4 threads as the dataset outgrows
/// memory.
pub fn fig01_campaign(scale: &Scale) -> Campaign {
    scale_grid("fig01", scale)
        .scenarios([Scenario::Ycsb(YcsbKind::C)])
        .modes([Mode::Osdp])
        .threads([4])
        .ratios(FIG01_RATIOS)
        .expand()
}

/// Fig. 12: FIO latency, OSDP vs HWDP, across thread counts (dataset
/// 8:1).
pub fn fig12_campaign(scale: &Scale) -> Campaign {
    scale_grid("fig12", scale)
        .scenarios([Scenario::FioRand])
        .modes([Mode::Osdp, Mode::Hwdp])
        .threads(THREADS)
        .ratios([8.0])
        .expand()
}

/// Fig. 13: throughput across all eight workloads, both modes, all
/// thread counts (dataset 2:1).
pub fn fig13_campaign(scale: &Scale) -> Campaign {
    scale_grid("fig13", scale)
        .scenarios(FIG13_SCENARIOS)
        .modes([Mode::Osdp, Mode::Hwdp])
        .threads(THREADS)
        .ratios([2.0])
        .expand()
}

/// Shared Fig. 14/15 grid: YCSB-C at 4 threads, dataset 2:1, both modes.
/// The two figures are the user-level and kernel-level views of the same
/// pair of runs.
fn ycsb_4t_grid(name: &str, scale: &Scale) -> Grid {
    scale_grid(name, scale)
        .scenarios([Scenario::Ycsb(YcsbKind::C)])
        .modes([Mode::Osdp, Mode::Hwdp])
        .threads([4])
        .ratios([2.0])
}

/// Fig. 4's OSDP half: the cold YCSB-C 4-thread run at 2:1 (the ideal
/// half pre-populates memory, which a `JobSpec` cannot express).
pub fn fig04_campaign(scale: &Scale) -> Campaign {
    ycsb_4t_grid("fig04", scale).modes([Mode::Osdp]).expand()
}

/// Fig. 14: YCSB-C throughput, user IPC and user-level miss events,
/// OSDP vs HWDP.
pub fn fig14_campaign(scale: &Scale) -> Campaign {
    ycsb_4t_grid("fig14", scale).expand()
}

/// Fig. 15: kernel-level retired instructions and cycles for the same
/// YCSB-C pair.
pub fn fig15_campaign(scale: &Scale) -> Campaign {
    ycsb_4t_grid("fig15", scale).expand()
}

/// Fig. 16: the SMT co-run — FIO pinned to hardware context 0, each SPEC
/// kernel on context 1 of the same physical core, a 20 ms window, both
/// modes.
///
/// FIO ops are effectively unbounded (`1 << 62`, exactly representable
/// as f64 so it survives the JSON round-trip; the window ends the run
/// long before it) and `kpted` runs at the builder-default 20 ms period.
pub fn fig16_campaign(scale: &Scale) -> Campaign {
    scale_grid("fig16", scale)
        .scenarios(SmtPartner::ALL.map(Scenario::SmtCorun))
        .modes([Mode::Osdp, Mode::Hwdp])
        .threads([1])
        .ratios([8.0])
        .pin(0)
        .ops(1 << 62)
        .time_cap_ms(20)
        .tweak(|j| j.kpted_period_us = 20_000)
        .expand()
}

/// Tiered storage: YCSB-C's zipfian accesses over a dataset 4x memory,
/// homed on a slow Z-SSD capacity tier with a small Optane-PMM fast
/// tier, OSDP vs HWDP for every placement policy.
///
/// The skew concentrates recurrent demand misses on a hot subset of the
/// dataset (the working set exceeds both DRAM and the fast tier), so
/// the migration daemon's promotions should raise the fast-hit ratio as
/// the run progresses — the late-half ratio exceeding the early-half
/// ratio is the campaign's headline signal.
pub fn tier_campaign(scale: &Scale) -> Campaign {
    let mut jobs = Vec::new();
    for policy in PolicyKind::ALL {
        // The daemon period doubles as the hotness epoch (heat halves per
        // tick). At the 150 us default an epoch sees well under one device
        // read per page and threshold heat never accumulates; 5 ms epochs
        // let the zipfian hot set cross the bar while still giving the
        // campaign's runs dozens of migration rounds.
        let spec = TierSpec {
            policy,
            period_us: 5_000,
            ..TierSpec::new(DeviceKind::OptanePmm, DeviceKind::ZSsd)
        };
        let grid = scale_grid("tier", scale)
            .scenarios([Scenario::Ycsb(YcsbKind::C)])
            .modes([Mode::Osdp, Mode::Hwdp])
            .threads([2])
            .ratios([4.0])
            .tiers(spec);
        jobs.extend(grid.expand().jobs);
    }
    Campaign { name: "tier".into(), seed: scale.seed, jobs }
}

/// Typed results of a figure campaign: each job's spec beside the
/// `RunResult` the harness runner produced for it.
pub struct Runs {
    runs: Vec<(JobSpec, RunResult)>,
}

impl Runs {
    /// Runs every job of `campaign` through [`simulate`] on
    /// [`default_workers`] threads.
    ///
    /// # Panics
    ///
    /// Panics if any job fails — figure inputs must be complete.
    pub fn collect(campaign: &Campaign) -> Runs {
        let outcomes = execute_with(campaign, default_workers(), &mut Silent, simulate);
        let runs = campaign
            .jobs
            .iter()
            .zip(outcomes)
            .map(|(spec, (outcome, _))| match outcome {
                JobOutcome::Ok(result) => (*spec, result),
                failed => panic!("figure job {} failed: {failed:?}", spec.label()),
            })
            .collect();
        Runs { runs }
    }

    /// The run of the first job matching `predicate`.
    ///
    /// # Panics
    ///
    /// Panics when no job matches — a figure querying a job outside its
    /// own campaign is a bug.
    pub fn run_of(&self, predicate: impl Fn(&JobSpec) -> bool) -> &RunResult {
        self.runs
            .iter()
            .find(|(spec, _)| predicate(spec))
            .map(|(_, result)| result)
            .unwrap_or_else(|| panic!("no job in the campaign matches"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hwdp_harness::runner::run_job;

    #[test]
    fn campaign_sizes() {
        let scale = Scale::quick();
        assert_eq!(fig01_campaign(&scale).jobs.len(), FIG01_RATIOS.len());
        assert_eq!(fig04_campaign(&scale).jobs.len(), 1);
        assert_eq!(fig12_campaign(&scale).jobs.len(), 2 * THREADS.len());
        assert_eq!(fig13_campaign(&scale).jobs.len(), 8 * 2 * THREADS.len());
        assert_eq!(fig14_campaign(&scale).jobs.len(), 2);
        assert_eq!(fig15_campaign(&scale).jobs.len(), 2);
        assert_eq!(fig16_campaign(&scale).jobs.len(), 6 * 2);
        assert_eq!(tier_campaign(&scale).jobs.len(), PolicyKind::ALL.len() * 2);
    }

    #[test]
    fn tier_campaign_promotes_hot_pages_and_fast_hit_ratio_rises() {
        let scale = Scale { memory_frames: 128, ops_per_thread: 1500, ..Scale::quick() };
        let campaign = tier_campaign(&scale);
        let job = campaign
            .jobs
            .iter()
            .find(|j| {
                j.mode == Mode::Hwdp
                    && j.tiers.map(|t| t.policy) == Some(PolicyKind::Threshold)
            })
            .unwrap();
        let metrics = run_job(job);
        let get = |n: &str| metrics.iter().find(|(k, _)| k == n).unwrap().1;
        assert!(get("tier/promotions") > 0.0, "daemon never promoted a hot page");
        assert!(
            get("tier/fast_hit_ratio_late") > get("tier/fast_hit_ratio_early"),
            "fast-hit ratio did not rise: early {} late {}",
            get("tier/fast_hit_ratio_early"),
            get("tier/fast_hit_ratio_late")
        );
        assert!(get("tier/fast_reads") > 0.0, "fast tier never serviced a miss");
    }

    #[test]
    fn results_lookup_panics_on_missing_job() {
        let scale = Scale { memory_frames: 128, ops_per_thread: 60, ..Scale::quick() };
        let runs = Runs::collect(&fig14_campaign(&scale));
        assert_eq!(runs.run_of(|s| s.mode == Mode::Hwdp).ops, 4 * 60);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            runs.run_of(|s| s.mode == Mode::SwOnly).ops
        }));
        assert!(r.is_err(), "SW-only is not part of fig14");
    }
}
