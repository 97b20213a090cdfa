//! The traced run: a phase-by-phase replica of the harness runner's
//! `simulate_with_digest` + `run_once` for the scenarios this benchmark
//! uses. It times each public call the runner makes and wraps every
//! spawned workload in a timing decorator, all from this file, so the
//! program under test carries no probes. The caller asserts that the
//! replica's metrics equal `run_job`'s for the same spec, so the replica
//! cannot drift from the code it attributes.

use std::cell::Cell;
use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;

use hwdp_core::{RunResult, SystemBuilder};
use hwdp_harness::{JobSpec, Scenario};
use hwdp_sim::rng::Prng;
use hwdp_sim::time::Duration;
use hwdp_workloads::{FioRandRead, MiniDb, ScratchChurn, Step, Workload, Ycsb};

/// Host time of one traced job, phase by phase, plus what the workload
/// decorators saw.
#[derive(Clone, Debug, Default)]
pub struct JobTrace {
    /// `SystemBuilder` configuration and `build`.
    pub build_ns: u64,
    /// File creation, mapping, workload construction and `spawn`.
    pub load_ns: u64,
    /// `System::run`, including the time inside workload `next` calls.
    pub run_ns: u64,
    /// `System::content_digest`.
    pub digest_ns: u64,
    /// `RunResult::export_metrics` and the per-thread and audit exports.
    pub collect_ns: u64,
    /// Host time inside the workloads' `next` calls.
    pub next_ns: u64,
    /// `next` calls.
    pub next_calls: u64,
    /// Bytes the data plane handed back for reads (each read's
    /// `last_read`, counted once although the buffer stays visible to
    /// later `next` calls).
    pub bytes_delivered: u64,
    /// Bytes the workloads asked to write.
    pub write_bytes: u64,
}

impl JobTrace {
    /// Host time of the whole replica job.
    pub fn total_ns(&self) -> u64 {
        self.build_ns + self.load_ns + self.run_ns + self.digest_ns + self.collect_ns
    }
}

#[derive(Default)]
struct Tally {
    next_ns: Cell<u64>,
    next_calls: Cell<u64>,
    bytes_delivered: Cell<u64>,
    write_bytes: Cell<u64>,
}

/// Times a workload's `next` calls and counts the bytes crossing them.
struct Timed {
    inner: Box<dyn Workload>,
    tally: Rc<Tally>,
    /// The last step returned was a read, so this call's `last_read`
    /// holds its data.
    after_read: bool,
}

fn add(cell: &Cell<u64>, n: u64) {
    cell.set(cell.get() + n);
}

impl Workload for Timed {
    fn next(&mut self, last_read: Option<&[u8]>) -> Step {
        let start = Instant::now();
        let step = self.inner.next(last_read);
        add(&self.tally.next_ns, start.elapsed().as_nanos() as u64);
        add(&self.tally.next_calls, 1);
        if self.after_read {
            add(
                &self.tally.bytes_delivered,
                last_read.map_or(0, |b| b.len() as u64),
            );
        }
        if let Step::Write { data, .. } = &step {
            add(&self.tally.write_bytes, data.len() as u64);
        }
        self.after_read = matches!(step, Step::Read { .. });
        step
    }

    fn ops_done(&self) -> u64 {
        self.inner.ops_done()
    }

    fn verify_failures(&self) -> u64 {
        self.inner.verify_failures()
    }

    fn name(&self) -> String {
        self.inner.name()
    }
}

fn since(start: Instant) -> u64 {
    start.elapsed().as_nanos() as u64
}

/// Runs `spec` through the replica, returning its flattened metrics (as
/// `run_job` would), the raw result and the phase timings.
///
/// # Panics
///
/// Panics on a scenario or knob this benchmark never uses (SMT co-runs,
/// anatomy, pinning, repeats); the replica covers only what it measures.
pub fn traced_job(spec: &JobSpec) -> (Vec<(String, f64)>, RunResult, JobTrace) {
    assert!(
        spec.pin.is_none() && spec.effective_repeats() == 1,
        "knob not replicated"
    );
    let mut trace = JobTrace::default();

    let start = Instant::now();
    let mut builder = SystemBuilder::new(spec.mode)
        .memory_frames(spec.memory_frames)
        .device(spec.device.profile())
        .kpted_period(Duration::from_micros(spec.kpted_period_us))
        .kpoold(spec.kpoold_enabled)
        .per_core_free_queues(spec.per_core_free_queues)
        .readahead_pages(spec.readahead_pages)
        .smu_prefetch_pages(spec.smu_prefetch_pages)
        .sanitize(spec.sanitize)
        .seed(spec.seed);
    if let Some(entries) = spec.pmshr_entries {
        builder = builder.pmshr_entries(entries);
    }
    if let Some(depth) = spec.free_queue_depth {
        builder = builder.free_queue_depth(depth);
    }
    if let Some(us) = spec.kpoold_period_us {
        builder = builder.tweak(move |cfg| cfg.kpoold_period = Duration::from_micros(us));
    }
    if let Some(us) = spec.long_io_timeout_us {
        builder = builder.long_io_timeout(Duration::from_micros(us));
    }
    if let Some(faults) = spec.effective_faults() {
        builder = builder.faults(faults);
    }
    if let Some(tiers) = spec.tiers {
        builder = builder.tiers(tiers.to_config());
    }
    let mut sys = builder.build();
    trace.build_ns = since(start);

    let start = Instant::now();
    let tally = Rc::new(Tally::default());
    let timed = |inner: Box<dyn Workload>| -> Box<dyn Workload> {
        Box::new(Timed {
            inner,
            tally: Rc::clone(&tally),
            after_read: false,
        })
    };
    let pages = spec.dataset_pages();
    match spec.scenario {
        Scenario::FioRand => {
            let file = sys.create_pattern_file("fio-data", pages);
            let region = sys.map_file(file);
            for i in 0..spec.threads {
                let rng = Prng::seed_from(spec.seed ^ (0xF10 + i as u64));
                sys.spawn(
                    timed(Box::new(FioRandRead::new(region, pages, spec.ops, rng))),
                    1.8,
                    None,
                );
            }
        }
        Scenario::Ycsb(kind) => {
            let records = pages;
            let capacity = records + records / 4;
            let file = sys.create_kv_file("db", records, capacity);
            let region = sys.map_file(file);
            for i in 0..spec.threads {
                let db = MiniDb::new(region, records, capacity);
                let rng = Prng::seed_from(spec.seed ^ (0x2B + i as u64));
                sys.spawn(
                    timed(Box::new(Ycsb::new(kind, db, spec.ops, rng))),
                    1.6,
                    None,
                );
            }
        }
        Scenario::Anon => {
            let region = sys.map_anon(pages);
            for i in 0..spec.threads {
                let rng = Prng::seed_from(spec.seed ^ (0xA40 + i as u64));
                sys.spawn(
                    timed(Box::new(ScratchChurn::new(region, pages, spec.ops, rng))),
                    1.6,
                    None,
                );
            }
        }
        other => panic!("scenario '{}' is not replicated", other.name()),
    }
    trace.load_ns = since(start);

    let start = Instant::now();
    let result = sys.run(Duration::from_millis(spec.time_cap_ms));
    trace.run_ns = since(start);

    let start = Instant::now();
    black_box(sys.content_digest());
    trace.digest_ns = since(start);

    let start = Instant::now();
    let mut metrics: Vec<(String, f64)> = result
        .export_metrics()
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect();
    for ((layer, invariant), count) in result.audit.by_invariant() {
        metrics.push((format!("sanitize/{layer}/{invariant}"), count as f64));
    }
    if result.threads.len() > 1 {
        for (i, t) in result.threads.iter().enumerate() {
            for (name, value) in t.export_metrics() {
                metrics.push((format!("thread/{i}/{name}"), value));
            }
        }
    }
    trace.collect_ns = since(start);

    trace.next_ns = tally.next_ns.get();
    trace.next_calls = tally.next_calls.get();
    trace.bytes_delivered = tally.bytes_delivered.get();
    trace.write_bytes = tally.write_bytes.get();
    (metrics, result, trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hwdp_core::Mode;
    use hwdp_harness::runner::run_job;
    use hwdp_workloads::YcsbKind;

    #[test]
    fn replica_matches_run_job_on_small_jobs() {
        for (scenario, threads) in [
            (Scenario::FioRand, 2),
            (Scenario::Ycsb(YcsbKind::A), 1),
            (Scenario::Anon, 2),
        ] {
            let mut spec = JobSpec::new(scenario, Mode::Hwdp, 7);
            spec.memory_frames = 128;
            spec.ops = 200;
            spec.threads = threads;
            let (metrics, result, trace) = traced_job(&spec);
            assert_eq!(metrics, run_job(&spec), "{}", spec.label());
            assert!(trace.next_calls > 0 && trace.run_ns >= trace.next_ns);
            assert!(result.events_processed > 0);
        }
    }
}
