//! The experiment scale shared by every table.
//!
//! All tables preserve the paper's dataset:memory *ratios* (§VI runs
//! 64 GiB datasets against 32 GiB DRAM, i.e. 2:1) at simulation-friendly
//! absolute sizes. `Scale::default()` is used by `repro`; `repro --quick`
//! and the tests use `Scale::quick()`.

use hwdp_sim::time::Duration;

/// Experiment scale knobs.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// Simulated DRAM in 4 KiB frames.
    pub memory_frames: usize,
    /// Operations per workload thread.
    pub ops_per_thread: u64,
    /// Virtual-time cap per run.
    pub time_cap: Duration,
    /// Master seed.
    pub seed: u64,
}

impl Default for Scale {
    fn default() -> Self {
        Scale {
            memory_frames: 1024,
            ops_per_thread: 1_500,
            time_cap: Duration::from_secs(30),
            seed: 0xD15C,
        }
    }
}

impl Scale {
    /// A fast configuration for `repro --quick` and smoke tests.
    pub fn quick() -> Self {
        Scale { memory_frames: 512, ops_per_thread: 300, ..Scale::default() }
    }

    /// Dataset size in pages for a given dataset:memory ratio.
    pub fn dataset_pages(&self, ratio: f64) -> u64 {
        ((self.memory_frames as f64) * ratio) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaigns::scale_grid;
    use hwdp_core::Mode;
    use hwdp_harness::runner::simulate;
    use hwdp_harness::{Scenario, SmtPartner};

    #[test]
    fn fio_scenario_runs() {
        let campaign = scale_grid("fio", &Scale::quick())
            .scenarios([Scenario::FioRand])
            .modes([Mode::Hwdp])
            .threads([1])
            .ratios([4.0])
            .expand();
        let r = simulate(&campaign.jobs[0]);
        assert_eq!(r.ops, Scale::quick().ops_per_thread);
        assert_eq!(r.verify_failures(), 0);
    }

    #[test]
    fn smt_corun_produces_activity() {
        let campaign = scale_grid("smt", &Scale::quick())
            .scenarios([Scenario::SmtCorun(SmtPartner::Mcf)])
            .modes([Mode::Hwdp])
            .threads([1])
            .ratios([8.0])
            .pin(0)
            .ops(1 << 62)
            .time_cap_ms(3)
            .expand();
        let r = simulate(&campaign.jobs[0]);
        // FIO is workload thread 0; the SPEC kernel rides on context 1.
        let (fio, spec) = (&r.threads[0], &r.threads[1]);
        assert!(fio.ops > 10);
        assert!(spec.perf.user_instructions > 1000);
        assert!(spec.user_ipc() > 0.0);
    }
}
