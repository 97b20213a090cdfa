//! Pins the committed seed baseline: re-running the `scripts/ci.sh` smoke
//! campaign in-process must reproduce `baselines/BENCH_seed.json` exactly
//! (canonically — wall times zeroed, everything else byte-for-byte).
//!
//! This is the guard behind the BTreeMap conversions in the simulation
//! state: a container whose iteration order leaks into metrics, or any
//! other source of nondeterminism, shows up here as a diff against the
//! committed artifact rather than as a flaky 5 %-gate failure later.

use std::path::Path;

use hwdp_harness::progress::Counting;
use hwdp_harness::{execute_campaign, Artifact, Grid, Scenario};

fn seed_campaign() -> hwdp_harness::Campaign {
    // Mirrors scripts/ci.sh exactly: --scenarios fio,ycsb-c --modes
    // osdp,hwdp --threads-list 1,2 --ratios 2,4 --memory 256 --ops 150
    // --seed 42 (16 jobs).
    let scenarios: Vec<Scenario> =
        ["fio", "ycsb-c"].iter().map(|s| Scenario::parse(s).expect("known scenario")).collect();
    Grid::new("seed", 42)
        .scenarios(scenarios)
        .modes([hwdp_core::Mode::Osdp, hwdp_core::Mode::Hwdp])
        .threads([1, 2])
        .ratios([2.0, 4.0])
        .memory_frames(256)
        .ops(150)
        .expand()
}

#[test]
fn seed_campaign_reproduces_committed_baseline() {
    let baseline_path =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../../baselines/BENCH_seed.json");
    let text = std::fs::read_to_string(&baseline_path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", baseline_path.display()));
    let baseline = Artifact::parse(&text).expect("committed baseline parses");

    let campaign = seed_campaign();
    assert_eq!(campaign.jobs.len(), 16, "the smoke campaign is 16 jobs");
    let fresh = execute_campaign(&campaign, 4, &mut Counting::default());

    assert_eq!(
        fresh.canonical_string(),
        baseline.canonical_string(),
        "seed campaign drifted from baselines/BENCH_seed.json; if the \
         change in simulated behaviour is intentional, refresh it with \
         scripts/ci.sh --refresh"
    );
}

#[test]
fn full_sanitize_reproduces_committed_baseline_byte_for_byte() {
    // The hwdp-audit parity contract: `SanitizeLevel::Full` is
    // observation-only, so the sanitized seed campaign must produce the
    // exact committed artifact — same metrics, no extra keys, no config
    // field — byte-identical to `baselines/BENCH_seed.json`.
    let baseline_path =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../../baselines/BENCH_seed.json");
    let text = std::fs::read_to_string(&baseline_path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", baseline_path.display()));
    let baseline = Artifact::parse(&text).expect("committed baseline parses");

    let mut campaign = seed_campaign();
    for job in &mut campaign.jobs {
        job.sanitize = hwdp_sim::SanitizeLevel::Full;
    }
    let fresh = execute_campaign(&campaign, 4, &mut Counting::default());

    assert_eq!(
        fresh.canonical_string(),
        baseline.canonical_string(),
        "a Full-sanitized run perturbed the seed campaign artifact; \
         sanitizers must be observation-only (no events, no RNG draws, \
         no metric changes on clean runs)"
    );
}

#[test]
fn zero_rate_fault_plan_reproduces_committed_baseline_byte_for_byte() {
    // The fault-injection parity contract: a fault plan whose rates are
    // all zero installs no plan at all — no watchdog events, no retry
    // bookkeeping, no extra artifact keys. The seed campaign with a
    // zero-rate `faults` knob must be byte-identical to the committed
    // baseline captured before the fault layer existed.
    let baseline_path =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../../baselines/BENCH_seed.json");
    let text = std::fs::read_to_string(&baseline_path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", baseline_path.display()));
    let baseline = Artifact::parse(&text).expect("committed baseline parses");

    let mut campaign = seed_campaign();
    for job in &mut campaign.jobs {
        job.faults = Some(hwdp_nvme::fault::FaultConfig::default());
        job.sanitize = hwdp_sim::SanitizeLevel::Full;
    }
    let fresh = execute_campaign(&campaign, 4, &mut Counting::default());

    assert_eq!(
        fresh.canonical_string(),
        baseline.canonical_string(),
        "a zero-rate fault plan perturbed the seed campaign artifact; \
         fault injection must be pay-as-you-go (no events, no RNG draws, \
         no metric or config changes when every rate is zero)"
    );
}

#[test]
fn zero_crash_plan_reproduces_committed_baseline_byte_for_byte() {
    // The crash-recovery parity contract: a disabled crash schedule
    // (`crash_at_us == 0`) schedules no crash events and exports no
    // `fault/` metrics, whatever the other crash knobs say — the seed
    // campaign stays byte-identical to the baseline captured before the
    // controller reset ladder existed.
    let baseline_path =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../../baselines/BENCH_seed.json");
    let text = std::fs::read_to_string(&baseline_path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", baseline_path.display()));
    let baseline = Artifact::parse(&text).expect("committed baseline parses");

    let mut campaign = seed_campaign();
    for job in &mut campaign.jobs {
        job.faults = Some(hwdp_nvme::fault::FaultConfig {
            crash_at_us: 0,
            crash_count: 3,
            reset_latency_us: 777,
            ..hwdp_nvme::fault::FaultConfig::default()
        });
        job.sanitize = hwdp_sim::SanitizeLevel::Full;
    }
    let fresh = execute_campaign(&campaign, 4, &mut Counting::default());

    assert_eq!(
        fresh.canonical_string(),
        baseline.canonical_string(),
        "a zero-crash fault plan perturbed the seed campaign artifact; \
         crash injection must be pay-as-you-go (no crash events, no reset \
         bookkeeping, no metric changes while crash_at_us is zero)"
    );
}

#[test]
fn explicit_repeats_one_reproduces_committed_baseline_byte_for_byte() {
    // The statistics parity contract: `repeats = 1` (and the normalized
    // `repeats = 0`) is a plain single run — repeat 0 is anchored to the
    // job seed itself, no aggregation pass runs, no /stddev or /ci95 keys
    // appear, and the spec serializes without a `repeats` field. The seed
    // campaign with the knob explicitly set must be byte-identical to the
    // committed baseline.
    let baseline_path =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../../baselines/BENCH_seed.json");
    let text = std::fs::read_to_string(&baseline_path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", baseline_path.display()));
    let baseline = Artifact::parse(&text).expect("committed baseline parses");

    let mut campaign = seed_campaign();
    for job in &mut campaign.jobs {
        job.repeats = 1;
    }
    let fresh = execute_campaign(&campaign, 4, &mut Counting::default());

    assert_eq!(
        fresh.canonical_string(),
        baseline.canonical_string(),
        "a repeats=1 sweep perturbed the seed campaign artifact; the \
         repeats knob must be pay-as-you-go (single runs stay byte-identical \
         to runs made before the knob existed)"
    );
}

#[test]
fn single_thread_jobs_carry_no_per_thread_or_spread_keys() {
    // The committed baseline's single-thread, repeats=1 records must stay
    // exactly as they were before per-thread export existed: no
    // `thread/<i>/` metrics, no `threads` array, no statistics keys.
    let baseline_path =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../../baselines/BENCH_seed.json");
    let text = std::fs::read_to_string(&baseline_path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", baseline_path.display()));
    let baseline = Artifact::parse(&text).expect("committed baseline parses");

    for job in &baseline.jobs {
        assert!(
            job.metrics.iter().all(|(k, _)| !k.contains("/stddev") && !k.contains("/ci95")),
            "repeats=1 job {} grew statistics keys",
            job.spec.label()
        );
        if job.spec.threads == 1 {
            assert!(
                job.metrics.iter().all(|(k, _)| !k.starts_with("thread/")),
                "single-thread job {} grew per-thread metrics",
                job.spec.label()
            );
        } else {
            assert!(
                job.metrics.iter().any(|(k, _)| k.starts_with("thread/")),
                "multi-thread job {} should carry per-thread metrics",
                job.spec.label()
            );
        }
    }
}

#[test]
fn seed_campaign_is_worker_count_invariant() {
    let campaign = seed_campaign();
    let one = execute_campaign(&campaign, 1, &mut Counting::default());
    let four = execute_campaign(&campaign, 4, &mut Counting::default());
    assert_eq!(one.canonical_string(), four.canonical_string());
}

#[test]
fn event_queue_reproduces_committed_baseline_byte_for_byte() {
    // The event-queue contract: events fire in `(time, EventId)` total
    // order, so the whole seed campaign — every event interleaving, every
    // metric — run on one worker is byte-identical to the committed
    // baseline, which was captured under earlier queue implementations
    // obeying the same law.
    let baseline_path =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../../baselines/BENCH_seed.json");
    let text = std::fs::read_to_string(&baseline_path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", baseline_path.display()));
    let baseline = Artifact::parse(&text).expect("committed baseline parses");

    let fresh = execute_campaign(&seed_campaign(), 1, &mut Counting::default());
    assert_eq!(
        fresh.canonical_string(),
        baseline.canonical_string(),
        "the event queue drifted from baselines/BENCH_seed.json; it must \
         honour the (time, EventId) ordering contract exactly"
    );
}
