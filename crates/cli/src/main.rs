//! `hwdp` — command-line driver for the hardware-based demand paging
//! simulator (reproduction of "A Case for Hardware-Based Demand Paging",
//! ISCA 2020).
//!
//! ```text
//! hwdp fio  [--mode osdp|hwdp|sw-only] [--threads N] [--ratio R] [--ops N]
//!           [--device zssd|optane|pmm] [--seq] [--prefetch N] [--readahead N]
//! hwdp ycsb [--kind a..f] [--mode ...] [--threads N] [--ratio R] [--ops N]
//! hwdp dbbench|anon [--mode ...] [--threads N] [--ratio R] [--ops N]
//! hwdp anatomy [--device ...]
//! hwdp sweep [--name S] [--scenarios a,b] [--modes ...] [--workers N] ...
//! hwdp chaos [--name S] [--seed N] [--jobs N] [--no-crashes] [--out DIR]
//! hwdp compare --baseline FILE --current FILE [--threshold PCT]
//! hwdp config
//! hwdp help
//! ```

#![forbid(unsafe_code)]

mod args;

use std::process::ExitCode;

use args::{parse_mode, ArgError, Args};
use hwdp_core::anatomy::{hwdp_anatomy, osdp_anatomy, swonly_anatomy};
use hwdp_core::{Mode, RunResult, SystemConfig};
use hwdp_harness::{self as harness, DeviceKind, JobSpec, Scenario};
use hwdp_sim::SanitizeLevel;

const HELP: &str = "\
hwdp — hardware-based demand paging simulator (ISCA 2020 reproduction)

USAGE:
  hwdp <command> [options]

COMMANDS:
  fio       FIO mmap engine: 4 KiB reads over a cold mapped file
  ycsb      YCSB A-F on the MiniDB NoSQL store (dataset ratio x memory)
  dbbench   DBBench readrandom on MiniDB
  anon      anonymous-memory churn (zero-fill + swap, value-verified)
  anatomy   closed-form single-miss latency breakdowns (Figs. 3/11/17)
  sweep     run a scenario x config campaign and write BENCH_<name>.json
  chaos     seeded random fault campaign with a differential recovery
            oracle; writes CHAOS_<name>.json with shrunk reproducers
  compare   gate a result artifact against a stored baseline
  lint      determinism & panic-policy static analysis over the workspace
  config    print the Table II system configuration
  help      this text

COMMON OPTIONS (fio, ycsb, dbbench and anon each run one job through the
same runner as sweep; every option below and under JOB KNOBS applies to
both):
  --mode osdp|hwdp|sw-only   demand-paging design   (default hwdp)
  --device zssd|optane|pmm   storage device         (default zssd)
  --threads N                client threads         (default 1)
  --ratio R                  dataset:memory ratio   (default 4)
  --ops N                    operations per thread  (default 2000)
  --memory N                 DRAM frames            (default 1024)
  --seed N                   RNG seed               (default 42)
  --sanitize off|cheap|full  hwdp-audit invariant checks (default off);
                             observation-only, results are unchanged
  --faults SPEC              deterministic fault injection on every device.
                             SPEC is comma-separated knobs:
                               media=R        transient media-error rate
                               persistent=R   persistent media-error rate
                               delay=RxF      delay rate R, inflation factor F
                               drop=R         dropped-completion rate
                               qfull=RxL      queue-full window rate R, length L
                               crash=TxN      controller crash at T us (virtual),
                                              repeated N times T us apart
                               reset=US       controller reset latency in us
                               lba=LO-HI      restrict to an LBA range
                               writes         also target write commands
                             e.g. --faults media=0.05,delay=0.02x20
                             (all-zero rates are a no-op; seeded, reproducible)
  --tiers SPEC               tiered storage: data lives on a slow device and a
                             migration daemon promotes hot pages to a fast one.
                             SPEC is comma-separated knobs; fast/slow required:
                               fast:DEV       fast-tier device (zssd|optane|pmm)
                               slow:DEV       slow-tier (capacity) device
                               cap:PCT        fast-tier capacity, % of tracked
                                              pages (default 25)
                               policy:P       static|lru|threshold (default
                                              threshold)
                               period:US      migration-daemon tick in
                                              microseconds (default 150)
                               batch:N        max migrations per tick (default 8)
                             e.g. --tiers fast:pmm,slow:zssd
                             (omitting --tiers runs the paper's single device)

FIO OPTIONS:
  --seq                      sequential instead of random reads (the
                             fio-seq scenario)

YCSB OPTIONS:
  --kind a..f                YCSB core workload     (default c)

JOB KNOBS (single runs and sweep):
  --time-cap-ms MS           virtual-time cap per job (default 30000)
  --pin N                    pin workload thread i to hardware context N+i
                             (a co-run partner lands after the workload)
  --kpted-us US              kpted sync-scan period in microseconds
                             (default 1000; the Fig. 16 co-run uses 20000)
  --pmshr N                  PMSHR entries          (default: paper's 32)
  --free-queue N             free-page queue depth  (default: paper value)
  --no-kpoold                disable the kpoold refill daemon
  --kpoold-us US             kpoold wake period in microseconds
  --per-core-queues          per-core free-page queues instead of shared
  --long-io-us US            long-latency miss timeout in microseconds
                             (default: always stall, never context-switch)
  --readahead N              OS readahead window in pages (default 0;
                             disabled in the paper)
  --prefetch N               SMU prefetch window in pages (default 0;
                             HWDP, section V)

SWEEP OPTIONS (axes are comma-separated lists; cross product = campaign):
  --name S                   campaign name          (default sweep)
  --scenarios a,b            fio|fio-seq|dbbench|ycsb-a..f|anon|smt-<spec>|
                             anatomy (default fio; smt-<spec> is the Fig. 16
                             SMT co-run, <spec> one of perlbench|gcc|mcf|lbm|
                             deepsjeng|xz)
  --modes a,b                osdp|hwdp|sw-only      (default osdp,hwdp)
  --devices a,b              zssd|optane|pmm        (default zssd)
  --threads-list a,b         client thread counts   (default 1)
  --ratios a,b               dataset:memory ratios  (default 2)
  --workers N                executor threads       (default 4)
  --out DIR                  artifact directory     (default .)
  --repeats K                run each job K times with derived per-repeat
                             seeds; metrics become mean + /stddev + /ci95
                             keys, and compare gates on CI overlap
  --fixed-seed               every job uses the campaign seed itself
  --resume                   reuse completed jobs from an existing artifact
  --baseline FILE            also gate the fresh artifact against FILE
  --job-timeout-ms MS        per-job wall-clock watchdog: a job exceeding
                             MS real milliseconds is abandoned and recorded
                             as a typed failure (default: no watchdog)
  (multi-thread jobs export per-thread reports into a `threads` array;
  with --sanitize, sweep also writes AUDIT_<name>.json and exits
  nonzero when any invariant violation was detected)

CHAOS OPTIONS:
  --name S                   campaign name, writes CHAOS_<S>.json (default chaos)
  --seed N                   master seed; plans derive from it  (default 42)
  --jobs N                   fault plans to run through the oracle (default 8)
  --no-crashes               transient faults only, no controller crashes
  --sanitize off|cheap|full  faulted-run sanitize level (default full; the
                             fault-free twin always runs full)
  --out DIR                  artifact directory     (default .)
  (each job runs next to a fault-free twin with the same seed; the oracle
  requires a clean audit, matching content digests, monotonically degraded
  counters, and every verification failure accounted for by a surfaced
  typed IoError. Failing plans are shrunk to a minimal reproducer and the
  command exits nonzero.)

COMPARE OPTIONS:
  --baseline FILE            stored BENCH_*.json to gate against (required)
  --current FILE             freshly produced artifact (required)
  --threshold PCT            max tolerated regression (default 5)

LINT OPTIONS:
  --deny                     exit nonzero on any unsuppressed finding (CI)
  --json                     machine-readable report on stdout
  --rules                    print the rule table and exit
  --metric-keys              print the generated metric-key registry (JSON):
                             every string key at an export_metrics sink
  --call-graph               print the workspace call graph (JSON): fn nodes,
                             resolved edges, event-loop/completion/public root
                             sets, and per-rule reachable counts
  --root DIR                 workspace root (default: discovered upward)
  --write-baseline           rewrite baselines/LINT_allow.txt from findings
";

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.is_empty() {
        println!("{HELP}");
        return ExitCode::SUCCESS;
    }
    match run(raw) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("try `hwdp help`");
            ExitCode::FAILURE
        }
    }
}

fn run(raw: Vec<String>) -> Result<ExitCode, ArgError> {
    let args = Args::parse(raw)?;
    match args.command.as_str() {
        "help" | "--help" | "-h" => println!("{HELP}"),
        "config" => println!("{}", SystemConfig::paper_default(Mode::Hwdp).describe()),
        "anatomy" => anatomy(&args)?,
        "fio" | "ycsb" | "dbbench" | "anon" => single_run(&args)?,
        "sweep" => return sweep(&args),
        "chaos" => return chaos_cmd(&args),
        "compare" => return compare_cmd(&args),
        "lint" => return lint_cmd(&args),
        other => return Err(ArgError(format!("unknown command '{other}'"))),
    }
    Ok(ExitCode::SUCCESS)
}

/// Parses the common `--sanitize off|cheap|full` option (default `off`).
fn sanitize_level(args: &Args) -> Result<SanitizeLevel, ArgError> {
    match args.get("sanitize") {
        None => Ok(SanitizeLevel::Off),
        Some(s) => SanitizeLevel::parse(s)
            .ok_or_else(|| ArgError(format!("--sanitize: unknown level '{s}' (off|cheap|full)"))),
    }
}

/// Parses the common `--faults SPEC` option (default: no injection).
fn fault_config(args: &Args) -> Result<Option<hwdp_nvme::fault::FaultConfig>, ArgError> {
    match args.get("faults") {
        None => Ok(None),
        Some(s) => hwdp_nvme::fault::FaultConfig::parse(s).map(Some).ok_or_else(|| {
            ArgError(format!(
                "--faults: malformed spec '{s}' (e.g. media=0.05,delay=0.02x20,drop=0.01)"
            ))
        }),
    }
}

/// Parses the common `--tiers SPEC` option (default: single device).
fn tier_spec(args: &Args) -> Result<Option<harness::TierSpec>, ArgError> {
    match args.get("tiers") {
        None => Ok(None),
        Some(s) => harness::TierSpec::parse(s)
            .map(Some)
            .map_err(|e| ArgError(format!("--tiers: {e}"))),
    }
}

/// The knobs every job shares, parsed once for `sweep` and the single-run
/// commands: sizing, the virtual-time cap, pinning, the ablation knobs,
/// repeats, and the fault and tier plans. The caller sets the axes
/// (scenario, mode, device, threads, ratio) and the seed.
fn job_template(args: &Args) -> Result<JobSpec, ArgError> {
    let mut job = JobSpec::new(Scenario::FioRand, Mode::Hwdp, 0);
    job.memory_frames = args.num("memory", 1024)? as usize;
    job.ops = args.num("ops", 2000)?;
    job.sanitize = sanitize_level(args)?;
    job.time_cap_ms = args.num("time-cap-ms", job.time_cap_ms)?;
    job.pin = args.opt_num("pin")?.map(|n| n as usize);
    job.kpted_period_us = args.num("kpted-us", job.kpted_period_us)?;
    // Ablation knobs (Fig. 18-style sensitivity sweeps). Each maps onto one
    // JobSpec field; unset flags leave the paper defaults in place.
    job.pmshr_entries = args.opt_num("pmshr")?.map(|n| n as usize);
    job.free_queue_depth = args.opt_num("free-queue")?.map(|n| n as usize);
    job.kpoold_enabled = !args.flag("no-kpoold");
    job.kpoold_period_us = args.opt_num("kpoold-us")?;
    job.per_core_free_queues = args.flag("per-core-queues");
    job.long_io_timeout_us = args.opt_num("long-io-us")?;
    job.readahead_pages = args.num("readahead", 0)? as usize;
    job.smu_prefetch_pages = args.num("prefetch", 0)? as usize;
    job.repeats = args.num("repeats", 1)? as u32;
    job.faults = fault_config(args)?;
    job.tiers = tier_spec(args)?;
    Ok(job)
}

/// Parses `--device` (default Z-SSD).
fn device(args: &Args) -> Result<DeviceKind, ArgError> {
    DeviceKind::parse(args.get("device").unwrap_or("zssd"))
        .map_err(|e| ArgError(format!("--device: {e}")))
}

/// The job a single-run command runs: the shared [`job_template`] knobs
/// at one point of each sweep axis, seeded with `--seed` itself (what
/// `sweep --fixed-seed` gives its jobs).
fn single_run_spec(args: &Args) -> Result<JobSpec, ArgError> {
    let mut spec = job_template(args)?;
    spec.scenario = match args.command.as_str() {
        "fio" if args.flag("seq") => Scenario::FioSeq,
        "fio" => Scenario::FioRand,
        "ycsb" => Scenario::Ycsb(args.ycsb_kind()?),
        "dbbench" => Scenario::DbBench,
        "anon" => Scenario::Anon,
        other => return Err(ArgError(format!("'{other}' is not a single-run command"))),
    };
    spec.mode = parse_mode(args.get("mode").unwrap_or("hwdp"))
        .map_err(|e| ArgError(format!("--mode: {e}")))?;
    spec.device = device(args)?;
    spec.threads = args.num("threads", 1)? as usize;
    spec.ratio = args.float("ratio", 4.0)?;
    spec.seed = args.num("seed", 42)?;
    Ok(spec)
}

/// `hwdp fio|ycsb|dbbench|anon`: one job through the harness runner.
fn single_run(args: &Args) -> Result<(), ArgError> {
    let spec = single_run_spec(args)?;
    if spec.effective_repeats() > 1 {
        return Err(ArgError("--repeats applies to sweep; a single run runs once".into()));
    }
    let r = harness::runner::simulate(&spec);
    let label = format!(
        "{} / {} / {} threads / dataset {}x memory",
        spec.scenario.name(),
        spec.mode.label(),
        spec.threads,
        spec.ratio
    );
    // FIO reads only touch pages; they never check the bytes.
    let verifies = !matches!(spec.scenario, Scenario::FioRand | Scenario::FioSeq);
    report(&label, &r, verifies);
    Ok(())
}

/// Expands the `sweep` axis options into a harness campaign.
fn sweep_campaign(args: &Args) -> Result<harness::Campaign, ArgError> {
    let scenarios: Vec<Scenario> = args
        .list("scenarios", "fio")
        .iter()
        .map(|s| {
            Scenario::parse(s).ok_or_else(|| ArgError(format!("--scenarios: unknown value '{s}'")))
        })
        .collect::<Result<_, _>>()?;
    let modes: Vec<Mode> = args
        .list("modes", "osdp,hwdp")
        .iter()
        .map(|m| parse_mode(m).map_err(|e| ArgError(format!("--modes: {e}"))))
        .collect::<Result<_, _>>()?;
    let devices: Vec<DeviceKind> = args
        .list("devices", "zssd")
        .iter()
        .map(|d| DeviceKind::parse(d).map_err(|e| ArgError(format!("--devices: {e}"))))
        .collect::<Result<_, _>>()?;
    let threads: Vec<usize> = args
        .list("threads-list", "1")
        .iter()
        .map(|t| t.parse().map_err(|_| ArgError(format!("--threads-list: bad count '{t}'"))))
        .collect::<Result<_, _>>()?;
    let ratios: Vec<f64> = args
        .list("ratios", "2")
        .iter()
        .map(|r| r.parse().map_err(|_| ArgError(format!("--ratios: bad ratio '{r}'"))))
        .collect::<Result<_, _>>()?;

    let template = job_template(args)?;
    let mut grid = harness::Grid::new(args.get("name").unwrap_or("sweep"), args.num("seed", 42)?)
        .scenarios(scenarios)
        .modes(modes)
        .devices(devices)
        .threads(threads)
        .ratios(ratios)
        .tweak(|j| *j = template);
    if args.flag("fixed-seed") {
        grid = grid.fixed_seed();
    }
    if grid.is_empty() {
        return Err(ArgError("sweep has no jobs (an axis list is empty)".into()));
    }
    Ok(grid.expand())
}

fn sweep(args: &Args) -> Result<ExitCode, ArgError> {
    let campaign = sweep_campaign(args)?;
    let workers = args.num("workers", 4)? as usize;
    eprintln!("campaign '{}': {} job(s) on {} worker(s)", campaign.name, campaign.jobs.len(), workers);
    let dir = std::path::Path::new(args.get("out").unwrap_or("."));
    // --resume reuses completed jobs from an existing artifact at the
    // output path; a half-written campaign finishes with only the missing
    // or failed jobs rerun.
    let prior = if args.flag("resume") {
        let prior_path = dir.join(format!("BENCH_{}.json", campaign.name));
        match std::fs::read_to_string(&prior_path) {
            Ok(text) => {
                let a = harness::Artifact::parse(&text)
                    .map_err(|e| ArgError(format!("--resume: {}: {e}", prior_path.display())))?;
                eprintln!("resuming from {}", prior_path.display());
                Some(a)
            }
            Err(_) => None, // nothing to resume from; run everything
        }
    } else {
        None
    };
    // --job-timeout-ms arms the per-job wall-clock watchdog: a hung job
    // becomes a typed failure instead of wedging the whole campaign.
    let timeout_ms = args.opt_num("job-timeout-ms")?;
    let mut progress = harness::progress::Stderr::new(campaign.jobs.len());
    let artifact = harness::execute_campaign_resume(
        &campaign,
        prior.as_ref(),
        workers,
        timeout_ms,
        &mut progress,
    );
    std::fs::create_dir_all(dir)
        .map_err(|e| ArgError(format!("cannot create {}: {e}", dir.display())))?;
    let path = dir.join(artifact.file_name());
    std::fs::write(&path, artifact.to_json_string())
        .map_err(|e| ArgError(format!("cannot write {}: {e}", path.display())))?;
    println!("wrote {}", path.display());
    let failed = artifact.jobs.iter().filter(|j| !j.is_ok()).count();
    // Write the sanitizer report before any early exit so CI can archive
    // it even when jobs failed.
    let level = sanitize_level(args)?;
    let audit_clean = if level == SanitizeLevel::Off {
        true
    } else {
        write_audit_report(dir, &artifact, level)?
    };
    if failed > 0 {
        eprintln!("{failed} job(s) failed");
        return Ok(ExitCode::FAILURE);
    }
    if !audit_clean {
        return Ok(ExitCode::FAILURE);
    }
    if let Some(baseline_path) = args.get("baseline") {
        return gate(baseline_path, &artifact, args);
    }
    Ok(ExitCode::SUCCESS)
}

/// `hwdp chaos`: seeded random fault campaign through the differential
/// recovery oracle. Writes `CHAOS_<name>.json` and exits nonzero when any
/// plan broke the recovery contract.
fn chaos_cmd(args: &Args) -> Result<ExitCode, ArgError> {
    let mut cfg =
        harness::ChaosConfig::new(args.get("name").unwrap_or("chaos"), args.num("seed", 42)?);
    cfg.jobs = args.num("jobs", 8)? as usize;
    cfg.crashes = !args.flag("no-crashes");
    if args.get("sanitize").is_some() {
        cfg.sanitize = sanitize_level(args)?;
    }
    eprintln!(
        "chaos campaign '{}': {} plan(s), crashes {}",
        cfg.name,
        cfg.jobs,
        if cfg.crashes { "on" } else { "off" },
    );
    let mut progress = harness::progress::Stderr::new(cfg.jobs);
    let report = harness::run_chaos(&cfg, &mut progress);
    let dir = std::path::Path::new(args.get("out").unwrap_or("."));
    std::fs::create_dir_all(dir)
        .map_err(|e| ArgError(format!("cannot create {}: {e}", dir.display())))?;
    let path = dir.join(report.file_name());
    std::fs::write(&path, report.to_json().pretty())
        .map_err(|e| ArgError(format!("cannot write {}: {e}", path.display())))?;
    println!("wrote {}", path.display());
    println!(
        "{} controller reset(s), {} in-flight command(s) lost, {} oracle mismatch(es)",
        report.controller_resets, report.crash_ios_lost, report.oracle_mismatches,
    );
    if !report.is_clean() {
        for f in &report.failures {
            eprintln!(
                "plan {} ({}): {} — minimal reproducer: --faults {} --seed {}",
                f.index, f.label, f.reason, f.minimal_faults, f.seed,
            );
        }
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}

/// Writes `AUDIT_<campaign>.json` summarizing hwdp-audit violations found
/// across the campaign's jobs. Returns `true` when every invariant held.
fn write_audit_report(
    dir: &std::path::Path,
    artifact: &harness::Artifact,
    level: SanitizeLevel,
) -> Result<bool, ArgError> {
    let mut by_invariant = std::collections::BTreeMap::<String, f64>::new();
    for job in &artifact.jobs {
        for (k, v) in &job.metrics {
            if let Some(name) = k.strip_prefix("sanitize/") {
                *by_invariant.entry(name.to_string()).or_insert(0.0) += v;
            }
        }
    }
    let total: f64 = by_invariant.values().sum();
    let json = harness::Json::obj([
        ("campaign", harness::Json::str(artifact.campaign.clone())),
        ("level", harness::Json::str(level.name())),
        ("jobs", harness::Json::Num(artifact.jobs.len() as f64)),
        ("violations_total", harness::Json::Num(total)),
        (
            "violations",
            harness::Json::Obj(
                by_invariant.into_iter().map(|(k, v)| (k, harness::Json::Num(v))).collect(),
            ),
        ),
    ]);
    let path = dir.join(format!("AUDIT_{}.json", artifact.campaign));
    std::fs::write(&path, json.pretty())
        .map_err(|e| ArgError(format!("cannot write {}: {e}", path.display())))?;
    println!("wrote {}", path.display());
    if total > 0.0 {
        eprintln!("hwdp-audit: {total} invariant violation(s) detected");
        Ok(false)
    } else {
        Ok(true)
    }
}

fn compare_cmd(args: &Args) -> Result<ExitCode, ArgError> {
    let baseline_path =
        args.get("baseline").ok_or_else(|| ArgError("compare needs --baseline FILE".into()))?;
    let current_path =
        args.get("current").ok_or_else(|| ArgError("compare needs --current FILE".into()))?;
    let current = read_artifact(current_path)?;
    gate(baseline_path, &current, args)
}

fn read_artifact(path: &str) -> Result<harness::Artifact, ArgError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| ArgError(format!("cannot read {path}: {e}")))?;
    harness::Artifact::parse(&text).map_err(|e| ArgError(format!("{path}: {e}")))
}

/// Compares `current` against the artifact stored at `baseline_path` and
/// converts the verdict into an exit code (nonzero on regression).
fn gate(baseline_path: &str, current: &harness::Artifact, args: &Args) -> Result<ExitCode, ArgError> {
    let baseline = read_artifact(baseline_path)?;
    let thresholds = harness::Thresholds {
        relative: args.float("threshold", 5.0)? / 100.0,
        ..harness::Thresholds::default()
    };
    let report = harness::compare::compare(&baseline, current, &thresholds);
    print!("{}", report.render());
    Ok(if report.passed() { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

/// `hwdp lint [--json] [--deny] [--rules] [--metric-keys] [--call-graph]
/// [--root DIR] [--write-baseline]`.
fn lint_cmd(args: &Args) -> Result<ExitCode, ArgError> {
    if args.flag("rules") {
        println!("{:<20} {:<34} {}", "RULE", "SCOPE", "GUARDS AGAINST");
        for r in &hwdp_lint::rules::RULES {
            println!("{:<20} {:<34} {}", r.id, r.scope, r.summary);
        }
        return Ok(ExitCode::SUCCESS);
    }
    let root = match args.get("root") {
        Some(dir) => std::path::PathBuf::from(dir),
        None => {
            let cwd = std::env::current_dir()
                .map_err(|e| ArgError(format!("cannot determine working directory: {e}")))?;
            hwdp_lint::find_workspace_root(&cwd).ok_or_else(|| {
                ArgError("no workspace root found upward of here; pass --root DIR".into())
            })?
        }
    };
    if args.flag("metric-keys") {
        let keys = hwdp_lint::metric_registry(&root)
            .map_err(|e| ArgError(format!("lint failed under {}: {e}", root.display())))?;
        print!("{}", hwdp_lint::registry_to_json(&keys).pretty());
        return Ok(ExitCode::SUCCESS);
    }
    if args.flag("call-graph") {
        let graph = hwdp_lint::call_graph(&root)
            .map_err(|e| ArgError(format!("lint failed under {}: {e}", root.display())))?;
        print!("{}", hwdp_lint::graph_to_json(&graph).pretty());
        return Ok(ExitCode::SUCCESS);
    }
    let report = hwdp_lint::lint_workspace(&root)
        .map_err(|e| ArgError(format!("lint failed under {}: {e}", root.display())))?;

    if args.flag("write-baseline") {
        let path = hwdp_lint::baseline_path(&root);
        std::fs::write(&path, hwdp_lint::baseline::render(&report.findings))
            .map_err(|e| ArgError(format!("cannot write {}: {e}", path.display())))?;
        println!(
            "wrote {} ({} finding(s) grandfathered)",
            path.display(),
            report.findings.len()
        );
        return Ok(ExitCode::SUCCESS);
    }

    let baseline_file = hwdp_lint::baseline_path(&root);
    let entries = match std::fs::read_to_string(&baseline_file) {
        Ok(text) => hwdp_lint::baseline::parse(&text)
            .map_err(|e| ArgError(format!("{}: {e}", baseline_file.display())))?,
        Err(_) => Vec::new(),
    };
    let outcome = hwdp_lint::baseline::apply(report.findings.clone(), &entries);

    if args.flag("json") {
        let stripped = hwdp_lint::Report {
            findings: outcome.remaining.clone(),
            inline_suppressed: report.inline_suppressed,
            files_scanned: report.files_scanned,
        };
        print!("{}", stripped.to_json(outcome.grandfathered, outcome.stale.len()).pretty());
    } else {
        for f in &outcome.remaining {
            println!("{}", f.render());
        }
        for (entry, actual) in &outcome.stale {
            eprintln!(
                "note: stale baseline budget '{} {} {}' (now {actual}); tighten it or run --write-baseline",
                entry.count, entry.rule, entry.path
            );
        }
        eprintln!(
            "lint: {} file(s), {} finding(s), {} inline-suppressed, {} grandfathered",
            report.files_scanned,
            outcome.remaining.len(),
            report.inline_suppressed,
            outcome.grandfathered
        );
    }
    if args.flag("deny") && !outcome.remaining.is_empty() {
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}

/// Prints a run summary. `verifies` says whether the workload checks the
/// bytes it reads; only then can the summary claim data integrity.
fn report(label: &str, r: &RunResult, verifies: bool) {
    println!("== {label} ==");
    println!("  elapsed          {}", r.elapsed);
    println!("  operations       {}  ({:.0} ops/s)", r.ops, r.throughput_ops_s());
    println!(
        "  read latency     mean {}  p50 {}  p99 {}",
        r.read_latency.mean(),
        r.read_latency.percentile(0.5),
        r.read_latency.percentile(0.99)
    );
    println!(
        "  page misses      {} (mean {})",
        r.miss_latency.count(),
        r.miss_latency.mean()
    );
    println!(
        "  handled by       hardware {}  OS major {}  OS minor {}  zero-fill {}",
        r.smu.completed, r.os.major_faults, r.os.minor_faults, r.smu.zero_fills
    );
    println!(
        "  device           {} reads, {} writes; {} evictions, {} writebacks",
        r.device_reads, r.device_writes, r.os.evictions, r.os.writebacks
    );
    println!("  user IPC         {:.3}", r.user_ipc());
    println!(
        "  kernel instr     app {}  kpted {}  kpoold {}",
        r.kernel.app_kernel_instr, r.kernel.kpted_instr, r.kernel.kpoold_instr
    );
    if r.smu_prefetches + r.readahead_reads > 0 {
        println!(
            "  prefetching      SMU {}  OS readahead {}",
            r.smu_prefetches, r.readahead_reads
        );
    }
    let p = &r.perf;
    if p.io_retries + p.io_timeouts + p.smu_fallbacks_fault + p.io_errors_surfaced > 0 {
        println!(
            "  fault recovery   {} retries, {} timeouts, {} SMU fallbacks, {} errors surfaced",
            p.io_retries, p.io_timeouts, p.smu_fallbacks_fault, p.io_errors_surfaced
        );
    }
    if r.threads.len() > 1 {
        for (i, t) in r.threads.iter().enumerate() {
            let hw = t
                .hw_context
                .map_or_else(|| "-".to_string(), |h| format!("{h}"));
            println!(
                "  thread {i:<2}        {:<12} hw {hw:<3} ops {:<8} IPC {:.3} (adj {:.3}, warmth {:.2})",
                t.name,
                t.ops,
                t.user_ipc(),
                t.adjusted_user_ipc(),
                t.pollution_warmth
            );
        }
    }
    if let Some(t) = &r.tier {
        println!(
            "  tiering          {} promotions, {} demotions, {} aborts; fast-hit {:.1}% ({:.1}% -> {:.1}%)",
            t.promotions,
            t.demotions,
            t.aborts,
            t.fast_hit_ratio * 100.0,
            t.fast_hit_ratio_early * 100.0,
            t.fast_hit_ratio_late * 100.0
        );
    }
    if !verifies {
        println!("  data integrity   not checked (this workload does not verify reads)");
    } else {
        match r.verify_failures() {
            0 => println!("  data integrity   ok (every read verified)"),
            n => println!("  data integrity   {n} FAILURES"),
        }
    }
    if r.audit.checks > 0 {
        match r.audit.violations.len() {
            0 => println!("  hwdp-audit       clean ({} invariant checks)", r.audit.checks),
            n => {
                println!("  hwdp-audit       {n} VIOLATION(S) in {} checks", r.audit.checks);
                for v in r.audit.violations.iter().take(8) {
                    println!("                   {v}");
                }
            }
        }
    }
}

fn anatomy(args: &Args) -> Result<(), ArgError> {
    let dev = device(args)?.profile();
    println!("single page-miss anatomy on {} (4 KiB read: {}):\n", dev.name, dev.read_4k);
    for a in [
        osdp_anatomy(&hwdp_os::costs::OsdpCosts::paper_default(), &dev),
        swonly_anatomy(&hwdp_os::costs::SwOnlyCosts::paper_default(), &dev),
        hwdp_anatomy(&hwdp_smu::timing::SmuTiming::paper_default(), &dev),
    ] {
        println!("{:<8} total {}  (host overhead {})", a.scheme, a.total(), a.overhead());
        for c in &a.components {
            println!("    {:<34} {}", c.label, c.time);
        }
        println!();
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Args {
        Args::parse(s.split_whitespace().map(String::from)).unwrap()
    }

    #[test]
    fn single_runs_build_the_job_sweep_builds_from_the_same_flags() {
        let knobs = "--memory 256 --ops 100 --seed 7 --pmshr 4 --kpted-us 500 --readahead 2 \
                     --faults media=0.1 --tiers fast:pmm,slow:zssd --time-cap-ms 900";
        for (single, axes) in [
            (
                "fio --mode osdp --threads 2 --ratio 8",
                "--scenarios fio --modes osdp --threads-list 2 --ratios 8",
            ),
            ("fio --seq", "--scenarios fio-seq --modes hwdp --ratios 4"),
            (
                "ycsb --kind a --device pmm",
                "--scenarios ycsb-a --modes hwdp --devices pmm --ratios 4",
            ),
            ("dbbench --mode sw-only", "--scenarios dbbench --modes sw-only --ratios 4"),
            (
                "anon --ratio 2.5 --no-kpoold",
                "--scenarios anon --modes hwdp --ratios 2.5 --no-kpoold",
            ),
        ] {
            let spec = single_run_spec(&args(&format!("{single} {knobs}"))).unwrap();
            let campaign =
                sweep_campaign(&args(&format!("sweep {axes} {knobs} --fixed-seed"))).unwrap();
            assert_eq!(campaign.jobs, vec![spec], "{single}");
        }
    }

    #[test]
    fn seed_changes_the_workload_access_stream() {
        let elapsed = |seed: u64| {
            let a = args(&format!("fio --memory 64 --ops 80 --seed {seed}"));
            harness::runner::simulate(&single_run_spec(&a).unwrap()).elapsed
        };
        assert_ne!(elapsed(1), elapsed(2), "--seed must reach the workload's RNG");
        assert_eq!(elapsed(1), elapsed(1), "and the run stays deterministic");
    }

    #[test]
    fn bad_axis_values_error() {
        for bad in [
            "fio --mode turbo",
            "fio --device floppy",
            "ycsb --kind z",
            "fio --ratio lots",
        ] {
            assert!(single_run_spec(&args(bad)).is_err(), "{bad}");
        }
        for bad in [
            "sweep --modes osdp,turbo",
            "sweep --devices zssd,floppy",
            "sweep --scenarios fio,nope",
            "sweep --threads-list one",
            "sweep --ratios x",
        ] {
            assert!(sweep_campaign(&args(bad)).is_err(), "{bad}");
        }
    }
}
