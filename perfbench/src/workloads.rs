//! The benchmark's workloads: fixed job lists that run through the same
//! campaign path `hwdp sweep` uses.
//!
//! A workload's inputs come only from its seed slot. `--seed n` selects
//! slot `n % SLOTS`, every slot has stored expected results (see
//! `expected.rs`), and every job of a slot runs on the same simulator
//! seed, as `hwdp sweep --fixed-seed` does. Shared seeds make each
//! OSDP/HWDP pair see the same access stream, so the mode comparison in
//! `fig12_err_pp` varies less from slot to slot.

use hwdp_core::Mode;
use hwdp_harness::{job_seed, Campaign, DeviceKind, JobSpec, Scenario, TierSpec};
use hwdp_nvme::fault::FaultConfig;
use hwdp_workloads::YcsbKind;

/// Seed slots with stored expected results.
pub const SLOTS: u64 = 16;

/// One benchmark workload.
pub struct Workload {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// Builds the job list; the seed only enters through each job's seed.
    jobs: fn() -> Vec<JobSpec>,
}

/// Every workload, in `BENCHMARK.json` order.
pub const ALL: [Workload; 3] = [
    // FIO 4 KiB random reads on a pattern file, dataset 8:1 over 1024
    // frames: the Fig. 12 configuration. Event-loop bound; exercises the
    // pattern data plane, SMU/PMSHR concurrency and the OS fault path.
    Workload {
        name: "fio-fig12",
        jobs: fio_fig12,
    },
    // MiniDB with 32k records over 4096 frames. Set-up (materialized KV
    // pages) and the content digest dominate; the only workload with
    // writebacks of file pages, the tier daemon and crash recovery.
    Workload {
        name: "ycsb-kv",
        jobs: ycsb_kv,
    },
    // Anonymous scratch churn over 16k pages on 4096 frames: zero-fill,
    // swap-out writes beside swap-in reads, eviction and writeback.
    Workload {
        name: "anon-swap",
        jobs: anon_swap,
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    ALL.iter().find(|w| w.name == name)
}

/// The seed slot `--seed` selects.
pub fn slot(seed: u64) -> u64 {
    seed % SLOTS
}

impl Workload {
    /// The workload's campaign for seed slot `slot`.
    pub fn campaign(&self, slot: u64) -> Campaign {
        let seed = job_seed(0xB3E0_0000, slot);
        let mut jobs = (self.jobs)();
        for job in &mut jobs {
            job.seed = seed;
        }
        Campaign {
            name: format!("perfbench-{}-{slot}", self.name),
            seed,
            jobs,
        }
    }

    /// A short job for the warm-up in set-up: the first job with a
    /// sixteenth of its operations. It builds and loads the same system.
    pub fn warmup(&self, slot: u64) -> Campaign {
        let mut campaign = self.campaign(slot);
        campaign.jobs.truncate(1);
        campaign.jobs[0].ops = (campaign.jobs[0].ops / 16).max(1);
        campaign
    }
}

fn job(
    scenario: Scenario,
    mode: Mode,
    threads: usize,
    frames: usize,
    ratio: f64,
    ops: u64,
) -> JobSpec {
    let mut spec = JobSpec::new(scenario, mode, 0);
    spec.device = DeviceKind::ZSsd;
    spec.threads = threads;
    spec.memory_frames = frames;
    spec.ratio = ratio;
    // Operations are per thread; every job does the same total work.
    spec.ops = ops / threads as u64;
    spec
}

fn fio_fig12() -> Vec<JobSpec> {
    let mut jobs = Vec::new();
    for threads in [1, 8] {
        for mode in [Mode::Osdp, Mode::Hwdp] {
            jobs.push(job(Scenario::FioRand, mode, threads, 1024, 8.0, 60_000));
        }
    }
    jobs
}

fn ycsb_kv() -> Vec<JobSpec> {
    const OPS: u64 = 20_000;
    let mut jobs = Vec::new();
    for kind in [YcsbKind::A, YcsbKind::C] {
        for mode in [Mode::Osdp, Mode::Hwdp] {
            jobs.push(job(Scenario::Ycsb(kind), mode, 1, 4096, 8.0, OPS));
        }
    }
    let mut tiered = job(Scenario::Ycsb(YcsbKind::C), Mode::Hwdp, 1, 4096, 8.0, OPS);
    tiered.tiers = Some(TierSpec::new(DeviceKind::OptanePmm, DeviceKind::ZSsd));
    jobs.push(tiered);
    let mut faulted = job(Scenario::Ycsb(YcsbKind::C), Mode::Hwdp, 1, 4096, 8.0, OPS);
    faulted.faults = FaultConfig::parse("crash=2000,media=0.001");
    jobs.push(faulted);
    jobs
}

fn anon_swap() -> Vec<JobSpec> {
    const OPS: u64 = 20_000;
    vec![
        job(Scenario::Anon, Mode::Osdp, 1, 4096, 4.0, OPS),
        job(Scenario::Anon, Mode::Hwdp, 1, 4096, 4.0, OPS),
        // Two threads on one shared region. Known defect: each thread
        // keeps a private expected-value model of the shared pages, so
        // reads of a page the other thread wrote count as verify
        // failures. Kept so `ops_ok_frac` shows the defect.
        job(Scenario::Anon, Mode::Hwdp, 2, 4096, 4.0, OPS),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slots_give_distinct_reproducible_seeds() {
        let w = find("fio-fig12").unwrap();
        assert_eq!(w.campaign(3).jobs, w.campaign(3).jobs);
        assert_ne!(w.campaign(3).jobs[0].seed, w.campaign(4).jobs[0].seed);
        assert!(w
            .campaign(3)
            .jobs
            .iter()
            .all(|j| j.seed == w.campaign(3).seed));
        assert_eq!(slot(3), slot(3 + SLOTS));
    }

    #[test]
    fn jobs_do_equal_total_work() {
        for w in &ALL {
            let c = w.campaign(0);
            let totals: Vec<u64> = c.jobs.iter().map(|j| j.ops * j.threads as u64).collect();
            assert!(
                totals.windows(2).all(|p| p[0] == p[1]),
                "{}: {totals:?}",
                w.name
            );
        }
    }
}
