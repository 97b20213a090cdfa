//! Host-performance benchmark for the hwdp simulator.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload fio-fig12 --seed 1 --seconds 35 --trace 0
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- --record
//! ```
//!
//! `--trace 0` drives the workload's jobs through the public campaign path
//! `hwdp sweep` uses (`execute_campaign` → `run_job` → `simulate`, then
//! the artifact's JSON) and prints the end-to-end metrics. `--trace 1` runs every job through `run_job` and
//! through the phase-timed replica in `trace.rs`, and prints the
//! per-layer metrics. Both check every job against the stored expected
//! results and print one JSON object as the last line of stdout.
//! `--record` rewrites the expected results from the current tree. See
//! NOTES.md for what each workload and metric is for.

mod expected;
mod stats;
mod trace;
mod workloads;

use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use expected::{metric, Expected, ExpectedJob};
use hwdp_core::{Mode, RunResult};
use hwdp_harness::progress::Silent;
use hwdp_harness::runner::run_job;
use hwdp_harness::{execute_campaign, Artifact, Campaign, JobSpec};
use stats::{fig12_err_pp, JobResult, ModePair, OpTally, Samples};
use workloads::Workload;

/// End-to-end metrics (`--trace 0`): name and unit.
const END_TO_END: [(&str, &str); 6] = [
    ("sim_ops_per_s", "1/s"),
    ("job_ms_p50", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ops_ok_frac", "1"),
    ("fig12_err_pp", "pp"),
];

/// Per-layer metrics (`--trace 1`): name and unit.
const PER_LAYER: [(&str, &str); 35] = [
    ("core.build_ms", "ms"),
    ("core.load_ms", "ms"),
    ("core.run_ms", "ms"),
    ("core.loop_self_ms", "ms"),
    ("core.ns_per_event", "ns"),
    ("core.digest_ms", "ms"),
    ("core.collect_ms", "ms"),
    ("harness.job_ms", "ms"),
    ("harness.extra_ms", "ms"),
    ("trace.job_ms_p50", "ms"),
    ("sim.events", "count"),
    ("mem.bytes_delivered", "B"),
    ("workloads.next_ms", "ms"),
    ("workloads.next_calls", "count"),
    ("workloads.write_bytes", "B"),
    ("smu.started", "count"),
    ("smu.coalesced", "count"),
    ("smu.pmshr_full", "count"),
    ("smu.free_queue_empty", "count"),
    ("smu.zero_fills", "count"),
    ("smu.hw_handled_frac", "1"),
    ("os.major_faults", "count"),
    ("os.minor_faults", "count"),
    ("os.evictions", "count"),
    ("os.writebacks", "count"),
    ("os.sync_refill_faults", "count"),
    ("os.kernel_instr", "count"),
    ("nvme.reads", "count"),
    ("nvme.writes", "count"),
    ("nvme.io_retries", "count"),
    ("nvme.controller_resets", "count"),
    ("nvme.crash_ios_lost", "count"),
    ("tier.promotions", "count"),
    ("tier.demotions", "count"),
    ("tier.fast_hit_ratio", "1"),
];

/// Set-ups per run, at least; `setup_s` is their median.
const SETUPS: usize = 5;

/// A job whose wall time exceeds this counts as timed out, so failed.
const JOB_TIMEOUT_MS: f64 = 30_000.0;

struct RunArgs {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

enum Command {
    Run(RunArgs),
    Record,
}

fn parse_args(args: &[String]) -> Result<Command, String> {
    if args == ["--record"] {
        return Ok(Command::Record);
    }
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value '{value}' for {flag}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(workloads::find(value).ok_or_else(|| {
                    let names: Vec<&str> = workloads::ALL.iter().map(|w| w.name).collect();
                    format!("unknown workload '{value}' (known: {})", names.join(", "))
                })?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s > 0.0)
                        .ok_or_else(bad)?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    Ok(Command::Run(RunArgs {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    }))
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    // The runner reads these; either would change what is measured (an
    // extra wall-clock metric, a different scheduler backend).
    std::env::remove_var("HWDP_THROUGHPUT");
    std::env::remove_var("HWDP_SCHEDULER");
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse_args(&args).and_then(|cmd| match cmd {
        Command::Record => record(),
        Command::Run(run) => measure(&run, process_start),
    });
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// Runs a campaign through the path `hwdp sweep` takes, then renders its
/// artifact as sweep does.
fn run_campaign(campaign: &Campaign, workers: usize) -> Artifact {
    let artifact = execute_campaign(campaign, workers, &mut Silent);
    black_box(artifact.to_json_string());
    await_worker_exit();
    artifact
}

/// Waits (up to a second) until the executor's worker threads are gone.
/// A scoped thread reports completion before its OS thread exits; a
/// campaign started earlier gets a worker with a fresh malloc arena, and
/// the peak RSS then depends on that race instead of on the jobs.
fn await_worker_exit() {
    let threads = || {
        std::fs::read_to_string("/proc/self/status")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find_map(|l| l.strip_prefix("Threads:"))?
                    .trim()
                    .parse::<u32>()
                    .ok()
            })
    };
    let start = Instant::now();
    while threads().is_some_and(|n| n > 1) && start.elapsed() < Duration::from_secs(1) {
        std::thread::sleep(Duration::from_micros(50));
    }
}

fn key(w: &Workload, slot: u64, index: usize) -> expected::Key {
    (w.name.to_string(), slot, index)
}

/// Checks one job against the expected results.
fn judge(
    expected: &Expected,
    key: &expected::Key,
    spec: &JobSpec,
    metrics: Option<&[(String, f64)]>,
) -> JobResult {
    match metrics {
        Some(m) if expected.matches(key, &spec.label(), m) => JobResult::Matched {
            ops: metric(m, "ops") as u64,
            verify_failures: metric(m, "verify_failures") as u64,
            io_errors_surfaced: metric(m, "io_errors_surfaced") as u64,
        },
        _ => {
            eprintln!(
                "perfbench: job {} ({}) failed or differs from {}",
                key.2,
                spec.label(),
                expected::FILE
            );
            JobResult::Failed
        }
    }
}

/// Ops a job was asked to do.
fn planned_ops(spec: &JobSpec) -> u64 {
    spec.ops * spec.threads as u64
}

/// A job's metrics; `None` when it failed.
type JobMetrics = Option<Vec<(String, f64)>>;

/// OSDP/HWDP pairs of otherwise identical jobs (seeds aside).
fn mode_pairs(campaign: &Campaign, metrics: &[JobMetrics]) -> Vec<ModePair> {
    let same = |a: &JobSpec, b: &JobSpec| {
        let (mut a, mut b) = (*a, *b);
        a.seed = 0;
        b.seed = 0;
        a.mode = Mode::Hwdp;
        b.mode = Mode::Hwdp;
        a == b
    };
    let mut pairs = Vec::new();
    for (i, os) in campaign
        .jobs
        .iter()
        .enumerate()
        .filter(|(_, j)| j.mode == Mode::Osdp)
    {
        let hw = campaign
            .jobs
            .iter()
            .position(|j| j.mode == Mode::Hwdp && same(os, j));
        if let (Some(Some(osm)), Some(Some(hwm))) =
            (metrics.get(i), hw.and_then(|h| metrics.get(h)))
        {
            pairs.push(ModePair {
                threads: os.threads,
                osdp_miss_ns: metric(osm, "miss_lat_mean_ns"),
                hwdp_miss_ns: metric(hwm, "miss_lat_mean_ns"),
            });
        }
    }
    pairs
}

/// Spec construction, loading the expected results and a warm-up job.
fn set_up(w: &Workload, slot: u64) -> Result<(Campaign, Expected), String> {
    let campaign = w.campaign(slot);
    let expected = Expected::load()?;
    let warm = run_campaign(&w.warmup(slot), 1);
    if !warm.jobs.iter().all(|j| j.is_ok()) {
        return Err("the warm-up job failed".into());
    }
    Ok((campaign, expected))
}

/// Peak resident set of this process so far, in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb * 1024.0 / 1e6)
}

/// Runs `cycle` over and over: at least once, then while another cycle of
/// the last one's length still fits in `seconds` of cycle time. Whole
/// cycles only, so every run has the same job mix. `between` runs after
/// each cycle, outside the budget. Returns the cycles run and their total
/// seconds.
fn cycles(
    seconds: f64,
    between: &mut dyn FnMut() -> Result<(), String>,
    mut cycle: impl FnMut() -> Result<(), String>,
) -> Result<(usize, f64), String> {
    let budget = Duration::from_secs_f64(seconds);
    let (mut spent, mut last, mut n) = (Duration::ZERO, Duration::ZERO, 0);
    while n == 0 || spent + last <= budget {
        let c = Instant::now();
        cycle()?;
        last = c.elapsed();
        spent += last;
        n += 1;
        between()?;
    }
    Ok((n, spent.as_secs_f64()))
}

/// Repeated set-ups of one workload and slot, timed.
struct SetUps<'a> {
    workload: &'a Workload,
    slot: u64,
    seconds: Samples,
}

impl SetUps<'_> {
    fn again(&mut self) -> Result<(), String> {
        let start = Instant::now();
        set_up(self.workload, self.slot)?;
        self.seconds.push(start.elapsed().as_secs_f64());
        Ok(())
    }
}

/// What a measuring pass found.
struct Outcome {
    correct: bool,
    tally: OpTally,
    values: Vec<(&'static str, f64)>,
}

fn measure(args: &RunArgs, process_start: Instant) -> Result<(), String> {
    let w = args.workload;
    let slot = workloads::slot(args.seed);
    let (campaign, expected) = set_up(w, slot)?;
    let mut setups = SetUps {
        workload: w,
        slot,
        seconds: Samples::default(),
    };
    setups.seconds.push(process_start.elapsed().as_secs_f64());
    eprintln!(
        "perfbench: {} seed {} -> slot {slot}, {} jobs",
        w.name,
        args.seed,
        campaign.jobs.len()
    );
    if args.trace {
        let outcome = traced(w, slot, &campaign, &expected, args.seconds)?;
        return print_result(&outcome, &PER_LAYER);
    }
    // The later set-ups run between the timed cycles, so their median
    // spans the run as the job times do, not one moment of a machine
    // whose speed drifts.
    let mut outcome = untraced(w, slot, &campaign, &expected, args.seconds, &mut || {
        setups.again()
    })?;
    while setups.seconds.count() < SETUPS {
        setups.again()?;
    }
    let setup_s = setups.seconds.median().ok_or("no set-up samples")?;
    eprintln!(
        "perfbench: set-up {setup_s:.3} s, median of {}",
        setups.seconds.count()
    );
    outcome.values.push(("setup_s", setup_s));
    print_result(&outcome, &END_TO_END)
}

fn untraced(
    w: &Workload,
    slot: u64,
    campaign: &Campaign,
    expected: &Expected,
    seconds: f64,
    between: &mut dyn FnMut() -> Result<(), String>,
) -> Result<Outcome, String> {
    let mut job_ms = Samples::default();
    let mut tally = OpTally::default();
    let mut sim_ops = 0.0;
    let mut first: Option<Vec<JobMetrics>> = None;
    let (n, host_s) = cycles(seconds, between, || {
        let artifact = run_campaign(campaign, 1);
        let mut metrics = Vec::new();
        for (index, (spec, rec)) in campaign.jobs.iter().zip(&artifact.jobs).enumerate() {
            job_ms.push(rec.wall_ms);
            let m =
                (rec.is_ok() && rec.wall_ms <= JOB_TIMEOUT_MS).then_some(rec.metrics.as_slice());
            tally.add_job(
                planned_ops(spec),
                judge(expected, &key(w, slot, index), spec, m),
            );
            sim_ops += m.map_or(0.0, |m| metric(m, "ops"));
            metrics.push(m.map(<[_]>::to_vec));
        }
        first.get_or_insert(metrics);
        Ok(())
    })?;
    let first = first.ok_or("no cycle ran")?;
    let fig12 = fig12_err_pp(&mode_pairs(campaign, &first));
    let job_ms_p50 = job_ms.median().ok_or("no job samples")?;
    eprintln!(
        "perfbench: {n} cycle(s) in {host_s:.2} s; job_ms_p50 {job_ms_p50:.1} ms over {} jobs; \
         ops_failed_frac {} ({} of {} ops)",
        job_ms.count(),
        tally.failed_frac(),
        tally.failed,
        tally.attempted
    );
    let values = vec![
        ("sim_ops_per_s", sim_ops / host_s),
        ("job_ms_p50", job_ms_p50),
        ("peak_rss_mb", peak_rss_mb()?),
        ("ops_ok_frac", 1.0 - tally.failed_frac()),
        ("fig12_err_pp", fig12.unwrap_or(f64::NAN)),
    ];
    let correct = tally.failed_in_failed_jobs == 0 && fig12.is_some();
    Ok(Outcome {
        correct,
        tally,
        values,
    })
}

/// Host time of the traced phases, summed over one cycle's jobs, in ns.
#[derive(Default)]
struct CycleTimes {
    build: u64,
    load: u64,
    run: u64,
    next: u64,
    digest: u64,
    collect: u64,
    /// The whole `run_job` of the public path.
    job: u64,
    events: u64,
}

impl CycleTimes {
    fn metrics(&self) -> [(&'static str, f64); 10] {
        let ms = |ns: u64| ns as f64 / 1e6;
        let phases = self.build + self.load + self.run + self.collect;
        [
            ("core.build_ms", ms(self.build)),
            ("core.load_ms", ms(self.load)),
            ("core.run_ms", ms(self.run)),
            ("core.loop_self_ms", ms(self.run.saturating_sub(self.next))),
            (
                "core.ns_per_event",
                self.run as f64 / self.events.max(1) as f64,
            ),
            ("core.digest_ms", ms(self.digest)),
            ("core.collect_ms", ms(self.collect)),
            ("harness.job_ms", ms(self.job)),
            ("harness.extra_ms", ms(self.job) - ms(phases)),
            ("workloads.next_ms", ms(self.next)),
        ]
    }
}

/// The deterministic per-layer counts of one cycle's jobs.
fn layer_counts(results: &[RunResult], t: &trace::JobTrace) -> Vec<(&'static str, f64)> {
    let sum = |f: &dyn Fn(&RunResult) -> u64| results.iter().map(f).sum::<u64>() as f64;
    let tier = |f: &dyn Fn(&hwdp_tier::TierReport) -> u64| {
        let reports = results.iter().filter_map(|r| r.tier.as_ref());
        reports.map(f).sum::<u64>() as f64
    };
    let frac = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let hw = sum(&|r| r.smu.started);
    let major = sum(&|r| r.os.major_faults);
    let fast = tier(&|t| t.fast_hits);
    let slow = tier(&|t| t.slow_hits);
    vec![
        ("sim.events", sum(&|r| r.events_processed)),
        ("mem.bytes_delivered", t.bytes_delivered as f64),
        ("workloads.next_calls", t.next_calls as f64),
        ("workloads.write_bytes", t.write_bytes as f64),
        ("smu.started", hw),
        ("smu.coalesced", sum(&|r| r.smu.coalesced)),
        ("smu.pmshr_full", sum(&|r| r.smu.pmshr_full)),
        ("smu.free_queue_empty", sum(&|r| r.smu.free_queue_empty)),
        ("smu.zero_fills", sum(&|r| r.smu.zero_fills)),
        ("smu.hw_handled_frac", frac(hw, hw + major)),
        ("os.major_faults", major),
        ("os.minor_faults", sum(&|r| r.os.minor_faults)),
        ("os.evictions", sum(&|r| r.os.evictions)),
        ("os.writebacks", sum(&|r| r.os.writebacks)),
        ("os.sync_refill_faults", sum(&|r| r.sync_refill_faults)),
        ("os.kernel_instr", sum(&|r| r.perf.kernel_instructions)),
        ("nvme.reads", sum(&|r| r.device_reads)),
        ("nvme.writes", sum(&|r| r.device_writes)),
        ("nvme.io_retries", sum(&|r| r.perf.io_retries)),
        ("nvme.controller_resets", sum(&|r| r.controller_resets)),
        ("nvme.crash_ios_lost", sum(&|r| r.crash_ios_lost)),
        ("tier.promotions", tier(&|t| t.promotions)),
        ("tier.demotions", tier(&|t| t.demotions)),
        ("tier.fast_hit_ratio", frac(fast, fast + slow)),
    ]
}

fn traced(
    w: &Workload,
    slot: u64,
    campaign: &Campaign,
    expected: &Expected,
    seconds: f64,
) -> Result<Outcome, String> {
    let mut tally = OpTally::default();
    let mut drift = false;
    let mut times: Vec<(&str, Samples)> = Vec::new();
    let mut traced_job_ms = Samples::default();
    // Counts are deterministic, identical every cycle: kept from the first.
    let mut counts = None;
    let mut traced_cycle = || {
        let mut c = CycleTimes::default();
        let mut results = Vec::new();
        let mut seen = trace::JobTrace::default();
        for (index, spec) in campaign.jobs.iter().enumerate() {
            let start = Instant::now();
            let public = catch_unwind(AssertUnwindSafe(|| run_job(spec))).ok();
            c.job += start.elapsed().as_nanos() as u64;
            let replica = catch_unwind(AssertUnwindSafe(|| trace::traced_job(spec))).ok();
            let same = match (&public, &replica) {
                (Some(p), Some((r, _, _))) => p == r,
                (p, r) => p.is_none() && r.is_none(),
            };
            if !same {
                eprintln!(
                    "perfbench: the replica and run_job disagree on {}",
                    spec.label()
                );
                drift = true;
            }
            let result = judge(expected, &key(w, slot, index), spec, public.as_deref());
            tally.add_job(planned_ops(spec), result);
            let Some((_, run, t)) = replica else { continue };
            c.build += t.build_ns;
            c.load += t.load_ns;
            c.run += t.run_ns;
            c.next += t.next_ns;
            c.digest += t.digest_ns;
            c.collect += t.collect_ns;
            c.events += run.events_processed;
            traced_job_ms.push(t.total_ns() as f64 / 1e6);
            seen.next_calls += t.next_calls;
            seen.bytes_delivered += t.bytes_delivered;
            seen.write_bytes += t.write_bytes;
            results.push(run);
        }
        for (i, (name, value)) in c.metrics().into_iter().enumerate() {
            if times.len() == i {
                times.push((name, Samples::default()));
            }
            times[i].1.push(value);
        }
        counts.get_or_insert_with(|| layer_counts(&results, &seen));
    };
    // Each cycle runs on a fresh thread, as `execute_campaign` runs its
    // jobs, so both runs allocate from the same kind of malloc arena.
    let (n, host_s) = cycles(seconds, &mut || Ok(()), || {
        std::thread::scope(|s| s.spawn(&mut traced_cycle).join())
            .map_err(|_| "a traced cycle panicked outside its jobs".to_string())?;
        await_worker_exit();
        Ok(())
    })?;
    let mut values = counts.ok_or("no cycle ran")?;
    for (name, samples) in &times {
        values.push((name, samples.median().unwrap_or(f64::NAN)));
    }
    let traced_p50 = traced_job_ms.median().unwrap_or(f64::NAN);
    values.push(("trace.job_ms_p50", traced_p50));
    eprintln!(
        "perfbench: traced {n} cycle(s) in {host_s:.2} s; trace.job_ms_p50 {traced_p50:.1} ms \
         over {} jobs; ops_failed_frac {}",
        traced_job_ms.count(),
        tally.failed_frac()
    );
    let correct = tally.failed_in_failed_jobs == 0 && !drift;
    Ok(Outcome {
        correct,
        tally,
        values,
    })
}

/// Prints the result object, metrics in `spec` order, as the last line of
/// stdout.
fn print_result(outcome: &Outcome, spec: &[(&str, &str)]) -> Result<(), String> {
    let Outcome {
        correct,
        tally,
        values,
    } = outcome;
    assert_eq!(spec.len(), values.len(), "one value per metric");
    let mut fields = Vec::new();
    for (name, unit) in spec {
        let value = values
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if !value.is_finite() || !stats::valid_metric_name(name) {
            return Err(format!(
                "metric {name} is invalid or not a number ({value})"
            ));
        }
        fields.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted,
        tally.failed_in_failed_jobs,
        fields.join(", ")
    );
    Ok(())
}

/// Rewrites the expected results: every workload, every seed slot, one
/// pass each through the same campaign path.
fn record() -> Result<(), String> {
    let mut table = Expected::default();
    for w in &workloads::ALL {
        for slot in 0..workloads::SLOTS {
            let campaign = w.campaign(slot);
            let artifact = run_campaign(&campaign, 2);
            let mut tally = OpTally::default();
            let mut metrics = Vec::new();
            for (index, (spec, rec)) in campaign.jobs.iter().zip(&artifact.jobs).enumerate() {
                if !rec.is_ok() {
                    return Err(format!(
                        "{} slot {slot}: job {index} ({}) failed",
                        w.name,
                        spec.label()
                    ));
                }
                let row = ExpectedJob::from_metrics(spec.label(), &rec.metrics);
                tally.add_job(
                    planned_ops(spec),
                    JobResult::Matched {
                        ops: row.ops as u64,
                        verify_failures: row.verify_failures as u64,
                        io_errors_surfaced: row.io_errors_surfaced as u64,
                    },
                );
                table.0.insert(key(w, slot, index), row);
                metrics.push(Some(rec.metrics.clone()));
            }
            let fig12 = fig12_err_pp(&mode_pairs(&campaign, &metrics));
            eprintln!(
                "{}\tslot {slot}\tfig12_err_pp {fig12:?}\tops_failed_frac {}",
                w.name,
                tally.failed_frac()
            );
        }
    }
    table.save()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The names and units this program prints, against BENCHMARK.json.
    #[test]
    fn metric_names_are_valid_and_match_benchmark_json() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).unwrap();
        let json = hwdp_harness::Json::parse(&text).unwrap();
        for (section, ours) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed: Vec<(&str, &str)> = json
                .get(section)
                .and_then(|s| s.as_arr())
                .unwrap()
                .iter()
                .map(|m| {
                    (
                        m.get("name").unwrap().as_str().unwrap(),
                        m.get("unit").unwrap().as_str().unwrap(),
                    )
                })
                .collect();
            assert_eq!(listed, ours, "{section}");
            for (name, _) in ours {
                assert!(stats::valid_metric_name(name), "{name}");
            }
        }
        let workloads: Vec<&str> = json
            .get("workloads")
            .and_then(|s| s.as_arr())
            .unwrap()
            .iter()
            .map(|w| w.get("name").unwrap().as_str().unwrap())
            .collect();
        let ours: Vec<&str> = workloads::ALL.iter().map(|w| w.name).collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn expected_table_covers_every_job() {
        let table = Expected::load().unwrap();
        let mut rows = 0;
        for w in &workloads::ALL {
            for slot in 0..workloads::SLOTS {
                for (index, spec) in w.campaign(slot).jobs.iter().enumerate() {
                    let row = table.0.get(&key(w, slot, index)).expect("row recorded");
                    assert_eq!(row.label, spec.label());
                    rows += 1;
                }
            }
        }
        assert_eq!(rows, table.0.len(), "no stale rows");
    }

    #[test]
    fn args_parse_and_reject() {
        let args = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        let Ok(Command::Run(r)) = parse_args(&args(
            "--workload anon-swap --seed 9 --seconds 10 --trace 1",
        )) else {
            panic!("valid arguments rejected");
        };
        assert_eq!(
            (r.workload.name, r.seed, r.seconds, r.trace),
            ("anon-swap", 9, 10.0, true)
        );
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload anon-swap --seed -1 --seconds 1 --trace 0",
            "--workload anon-swap --seed 1 --seconds 0 --trace 0",
            "--workload anon-swap --seed 1 --seconds inf --trace 0",
            "--workload anon-swap --seed 1 --seconds 1 --trace 2",
            "--workload anon-swap --seed 1 --seconds 1",
            "--workload anon-swap --seed 1 --seconds 1 --trace 0 --extra 1",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn fio_pairs_cover_both_fig12_points() {
        let w = workloads::find("fio-fig12").unwrap();
        let c = w.campaign(0);
        let fake: Vec<JobMetrics> = c
            .jobs
            .iter()
            .map(|j| {
                Some(vec![(
                    "miss_lat_mean_ns".to_string(),
                    if j.mode == Mode::Osdp { 2.0 } else { 1.0 },
                )])
            })
            .collect();
        let pairs = mode_pairs(&c, &fake);
        let threads: Vec<usize> = pairs.iter().map(|p| p.threads).collect();
        assert_eq!(threads, [1, 8]);
    }
}
