//! The benchmark's own arithmetic: medians, the failed-op tally and the
//! Fig. 12 fidelity error. Kept free of I/O so it is unit-tested.

/// Timing samples of one quantity.
#[derive(Clone, Debug, Default)]
pub struct Samples(Vec<f64>);

impl Samples {
    /// Adds one sample.
    pub fn push(&mut self, value: f64) {
        self.0.push(value);
    }

    /// Number of samples.
    pub fn count(&self) -> usize {
        self.0.len()
    }

    /// The median (mean of the two middle values for an even count);
    /// `None` without samples.
    pub fn median(&self) -> Option<f64> {
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        match n {
            0 => None,
            _ if n % 2 == 1 => Some(v[n / 2]),
            _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
        }
    }
}

/// Attempted and failed simulated operations.
///
/// A failed op is one counted in `verify_failures`, one counted in
/// `io_errors_surfaced`, one the job never completed, or any op of a job
/// that panicked, timed out, or whose simulated metrics differ from the
/// stored expected values.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct OpTally {
    /// Operations the jobs were asked to do.
    pub attempted: u64,
    /// Of those, operations that failed.
    pub failed: u64,
    /// Operations of jobs that failed outright (a subset of `failed`).
    pub failed_in_failed_jobs: u64,
}

/// What one job reported, for [`OpTally::add_job`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum JobResult {
    /// The job completed and its metrics match the stored expected values.
    Matched {
        /// Completed operations.
        ops: u64,
        /// Reads that returned the wrong data.
        verify_failures: u64,
        /// I/O errors surfaced to the workload.
        io_errors_surfaced: u64,
    },
    /// The job panicked, timed out or differs from the expected values.
    Failed,
}

impl OpTally {
    /// Counts one job that was asked for `planned` operations.
    pub fn add_job(&mut self, planned: u64, result: JobResult) {
        self.attempted += planned;
        match result {
            JobResult::Matched {
                ops,
                verify_failures,
                io_errors_surfaced,
            } => {
                let missing = planned.saturating_sub(ops);
                self.failed += (verify_failures + io_errors_surfaced + missing).min(planned);
            }
            JobResult::Failed => {
                self.failed += planned;
                self.failed_in_failed_jobs += planned;
            }
        }
    }

    /// Failed ops over attempted ops (0 when nothing was attempted).
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            return 0.0;
        }
        self.failed as f64 / self.attempted as f64
    }
}

/// The paper's Fig. 12 miss-latency reduction of HWDP over OSDP, in
/// percent, for the thread counts it reports.
pub fn fig12_paper_pct(threads: usize) -> Option<f64> {
    match threads {
        1 => Some(37.0),
        8 => Some(27.0),
        _ => None,
    }
}

/// One OSDP/HWDP pair of otherwise identical jobs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ModePair {
    /// Workload threads of both jobs.
    pub threads: usize,
    /// OSDP mean miss latency (ns, simulated).
    pub osdp_miss_ns: f64,
    /// HWDP mean miss latency (ns, simulated).
    pub hwdp_miss_ns: f64,
}

/// Mean over `pairs` with a Fig. 12 reference of |simulated HWDP
/// miss-latency reduction − paper|, in percentage points; `None` when no
/// pair has a reference.
pub fn fig12_err_pp(pairs: &[ModePair]) -> Option<f64> {
    let errs: Vec<f64> = pairs
        .iter()
        .filter_map(|p| {
            let paper = fig12_paper_pct(p.threads)?;
            let reduction = 100.0 * (1.0 - p.hwdp_miss_ns / p.osdp_miss_ns);
            Some((reduction - paper).abs())
        })
        .collect();
    (!errs.is_empty()).then(|| errs.iter().sum::<f64>() / errs.len() as f64)
}

/// Whether `name` is a valid benchmark metric name: starts with a letter
/// or digit, at most 64 characters of letters, digits, `_`, `.` and `-`.
pub fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_count() {
        let mut s = Samples::default();
        assert_eq!((s.median(), s.count()), (None, 0));
        for v in [5.0, 1.0, 3.0] {
            s.push(v);
        }
        assert_eq!((s.median(), s.count()), (Some(3.0), 3));
        s.push(10.0);
        assert_eq!((s.median(), s.count()), (Some(4.0), 4));
    }

    #[test]
    fn failed_ops_sum_verify_io_and_failed_jobs() {
        let mut t = OpTally::default();
        t.add_job(
            100,
            JobResult::Matched {
                ops: 100,
                verify_failures: 0,
                io_errors_surfaced: 0,
            },
        );
        assert_eq!(t.failed_frac(), 0.0);
        t.add_job(
            100,
            JobResult::Matched {
                ops: 100,
                verify_failures: 7,
                io_errors_surfaced: 3,
            },
        );
        t.add_job(100, JobResult::Failed);
        // An unfinished job counts its missing ops as failed.
        t.add_job(
            100,
            JobResult::Matched {
                ops: 90,
                verify_failures: 0,
                io_errors_surfaced: 0,
            },
        );
        assert_eq!(
            t,
            OpTally {
                attempted: 400,
                failed: 120,
                failed_in_failed_jobs: 100
            }
        );
        assert!((t.failed_frac() - 0.3).abs() < 1e-12);
        // Never more failures than attempts.
        let mut t = OpTally::default();
        t.add_job(
            10,
            JobResult::Matched {
                ops: 10,
                verify_failures: 9,
                io_errors_surfaced: 9,
            },
        );
        assert_eq!(t.failed, 10);
        assert_eq!(OpTally::default().failed_frac(), 0.0);
    }

    #[test]
    fn fig12_error_on_fixed_inputs() {
        // EXPERIMENTS.md: 43.7 % at 1 thread, 29.5 % at 8 threads.
        let pairs = [
            ModePair {
                threads: 1,
                osdp_miss_ns: 18_320.0,
                hwdp_miss_ns: 18_320.0 * (1.0 - 0.437),
            },
            ModePair {
                threads: 8,
                osdp_miss_ns: 20_240.0,
                hwdp_miss_ns: 20_240.0 * (1.0 - 0.295),
            },
        ];
        let err = fig12_err_pp(&pairs).unwrap();
        assert!((err - (6.7 + 2.5) / 2.0).abs() < 1e-9, "{err}");
        // Thread counts without a paper point do not count.
        let other = ModePair {
            threads: 2,
            osdp_miss_ns: 1.0,
            hwdp_miss_ns: 0.1,
        };
        assert_eq!(fig12_err_pp(&[pairs[0], other]), fig12_err_pp(&pairs[..1]));
        assert_eq!(fig12_err_pp(&[other]), None);
    }

    #[test]
    fn metric_name_charset() {
        for ok in [
            "job_ms_p50",
            "core.ns_per_event",
            "tier.fast_hit_ratio",
            "9a-b",
        ] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        for bad in ["", "_x", ".x", "a/b", "a b", "ümlaut", &"x".repeat(65)] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
    }
}
