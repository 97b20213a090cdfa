//! Campaign and job specifications.
//!
//! A [`Campaign`] is a named, seeded list of [`JobSpec`]s. The [`Grid`]
//! builder expands axis lists (scenario × mode × device × threads × ratio)
//! into that list in a fixed nesting order, deriving each job's simulator
//! seed from the campaign seed and the job's index ([`crate::seed`]).

use crate::json::Json;
use crate::seed::job_seed;
use hwdp_core::Mode;
use hwdp_nvme::fault::FaultConfig;
use hwdp_nvme::profile::DeviceProfile;
use hwdp_sim::time::Duration;
use hwdp_sim::SanitizeLevel;
use hwdp_tier::PolicyKind;
use hwdp_workloads::{SpecProfile, YcsbKind};

/// The SPEC CPU 2017 kernel co-located with FIO in the Fig. 16 SMT
/// co-run scenario. Variant order matches `SpecProfile::ALL`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SmtPartner {
    /// perlbench (base IPC 2.0).
    Perlbench,
    /// gcc (1.7).
    Gcc,
    /// mcf (0.9).
    Mcf,
    /// lbm (1.1).
    Lbm,
    /// deepsjeng (1.6).
    Deepsjeng,
    /// xz (1.3).
    Xz,
}

impl SmtPartner {
    /// All partners, in `SpecProfile::ALL` order.
    pub const ALL: [SmtPartner; 6] = [
        SmtPartner::Perlbench,
        SmtPartner::Gcc,
        SmtPartner::Mcf,
        SmtPartner::Lbm,
        SmtPartner::Deepsjeng,
        SmtPartner::Xz,
    ];

    /// The SPEC benchmark name.
    pub fn name(self) -> &'static str {
        match self {
            SmtPartner::Perlbench => "perlbench",
            SmtPartner::Gcc => "gcc",
            SmtPartner::Mcf => "mcf",
            SmtPartner::Lbm => "lbm",
            SmtPartner::Deepsjeng => "deepsjeng",
            SmtPartner::Xz => "xz",
        }
    }

    /// Parses a SPEC benchmark name.
    pub fn parse(s: &str) -> Option<SmtPartner> {
        SmtPartner::ALL.iter().copied().find(|p| p.name() == s)
    }

    /// The workload profile (instruction mix / base IPC) for this partner.
    pub fn profile(self) -> SpecProfile {
        // Variant order mirrors SpecProfile::ALL (pinned by test).
        SpecProfile::ALL[self as usize]
    }
}

/// What a job runs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Scenario {
    /// FIO 4 KiB random read over an mmapped file (§VI-B).
    FioRand,
    /// FIO 4 KiB sequential read over an mmapped file (the prefetching
    /// trade-off of §V / §VI-A).
    FioSeq,
    /// DBBench `readrandom` over MiniDB (§VI-C).
    DbBench,
    /// A YCSB core workload over MiniDB (§VI-C).
    Ycsb(YcsbKind),
    /// Anonymous-memory touch loop (zero-fill path).
    Anon,
    /// Fig. 16 SMT co-location: FIO on hardware thread 0 and a SPEC
    /// kernel on hardware thread 1 of a single physical core.
    SmtCorun(SmtPartner),
    /// Closed-form single-miss anatomy (Fig. 10/17); no simulation.
    Anatomy,
}

impl Scenario {
    /// Stable identifier used in artifacts and on the CLI.
    pub fn name(self) -> &'static str {
        match self {
            Scenario::FioRand => "fio",
            Scenario::FioSeq => "fio-seq",
            Scenario::DbBench => "dbbench",
            Scenario::Ycsb(k) => k.name(),
            Scenario::Anon => "anon",
            Scenario::SmtCorun(p) => match p {
                SmtPartner::Perlbench => "smt-perlbench",
                SmtPartner::Gcc => "smt-gcc",
                SmtPartner::Mcf => "smt-mcf",
                SmtPartner::Lbm => "smt-lbm",
                SmtPartner::Deepsjeng => "smt-deepsjeng",
                SmtPartner::Xz => "smt-xz",
            },
            Scenario::Anatomy => "anatomy",
        }
    }

    /// Parses a scenario identifier (the inverse of [`Scenario::name`]).
    pub fn parse(s: &str) -> Option<Scenario> {
        match s {
            "fio" => Some(Scenario::FioRand),
            "fio-seq" => Some(Scenario::FioSeq),
            "dbbench" => Some(Scenario::DbBench),
            "anon" => Some(Scenario::Anon),
            "anatomy" => Some(Scenario::Anatomy),
            _ => {
                if let Some(partner) = s.strip_prefix("smt-").and_then(SmtPartner::parse) {
                    return Some(Scenario::SmtCorun(partner));
                }
                YcsbKind::ALL.iter().find(|k| k.name() == s).map(|&k| Scenario::Ycsb(k))
            }
        }
    }

    /// All scenario identifiers, for CLI help text.
    pub const ALL_NAMES: [&'static str; 17] = [
        "fio",
        "fio-seq",
        "dbbench",
        "ycsb-a",
        "ycsb-b",
        "ycsb-c",
        "ycsb-d",
        "ycsb-e",
        "ycsb-f",
        "anon",
        "smt-perlbench",
        "smt-gcc",
        "smt-mcf",
        "smt-lbm",
        "smt-deepsjeng",
        "smt-xz",
        "anatomy",
    ];
}

/// Which device profile a job simulates.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DeviceKind {
    /// Samsung Z-SSD (the paper's testbed device).
    ZSsd,
    /// Intel Optane SSD.
    OptaneSsd,
    /// Intel Optane PMM treated as a block device.
    OptanePmm,
}

impl DeviceKind {
    /// Every device kind, in artifact order.
    pub const ALL: [DeviceKind; 3] =
        [DeviceKind::ZSsd, DeviceKind::OptaneSsd, DeviceKind::OptanePmm];

    /// Stable identifier used in artifacts and on the CLI.
    pub fn name(self) -> &'static str {
        match self {
            DeviceKind::ZSsd => "zssd",
            DeviceKind::OptaneSsd => "optane",
            DeviceKind::OptanePmm => "pmm",
        }
    }

    /// Parses a device identifier (the inverse of [`DeviceKind::name`],
    /// plus hyphenated aliases). The error names every accepted
    /// identifier, so CLI typos are self-explaining.
    pub fn parse(s: &str) -> Result<DeviceKind, String> {
        match s {
            "zssd" | "z-ssd" => Ok(DeviceKind::ZSsd),
            "optane" | "optane-ssd" => Ok(DeviceKind::OptaneSsd),
            "pmm" | "optane-pmm" => Ok(DeviceKind::OptanePmm),
            other => Err(format!(
                "unknown device '{other}' (accepted: zssd, optane, pmm; \
                 aliases: z-ssd, optane-ssd, optane-pmm)"
            )),
        }
    }

    /// The simulator profile for this device.
    pub fn profile(self) -> DeviceProfile {
        match self {
            DeviceKind::ZSsd => DeviceProfile::Z_SSD,
            DeviceKind::OptaneSsd => DeviceProfile::OPTANE_SSD,
            DeviceKind::OptanePmm => DeviceProfile::OPTANE_PMM,
        }
    }
}

/// Tiered-storage knob: which device profiles form the fast/slow pair
/// plus the migration daemon's parameters. Serialized canonically (like
/// `faults`) so artifacts stay diffable; defaults are omitted from the
/// canonical form.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct TierSpec {
    /// Fast-tier device (attached as device 1).
    pub fast: DeviceKind,
    /// Slow-tier device (replaces device 0's profile; data homes here).
    pub slow: DeviceKind,
    /// Fast-tier capacity as a percentage of the tracked pages.
    pub cap_pct: u32,
    /// Placement policy.
    pub policy: PolicyKind,
    /// Migration-daemon wake period in microseconds.
    pub period_us: u64,
    /// Max promotions (and, separately, demotions) per tick.
    pub batch: usize,
}

impl TierSpec {
    const DEFAULT_CAP_PCT: u32 = 25;
    const DEFAULT_PERIOD_US: u64 = 150;
    const DEFAULT_BATCH: usize = 8;

    /// A tier pair with default daemon parameters (25 % capacity,
    /// threshold policy, 150 µs period, batch 8).
    pub fn new(fast: DeviceKind, slow: DeviceKind) -> TierSpec {
        TierSpec {
            fast,
            slow,
            cap_pct: Self::DEFAULT_CAP_PCT,
            policy: PolicyKind::Threshold,
            period_us: Self::DEFAULT_PERIOD_US,
            batch: Self::DEFAULT_BATCH,
        }
    }

    /// Canonical `--tiers` syntax: `fast:<dev>,slow:<dev>` plus any
    /// non-default knob (`cap:<pct>`, `policy:<name>`, `period:<us>`,
    /// `batch:<n>`), in fixed order.
    pub fn canonical(&self) -> String {
        let mut s = format!("fast:{},slow:{}", self.fast.name(), self.slow.name());
        if self.cap_pct != Self::DEFAULT_CAP_PCT {
            s.push_str(&format!(",cap:{}", self.cap_pct));
        }
        if self.policy != PolicyKind::Threshold {
            s.push_str(&format!(",policy:{}", self.policy.name()));
        }
        if self.period_us != Self::DEFAULT_PERIOD_US {
            s.push_str(&format!(",period:{}", self.period_us));
        }
        if self.batch != Self::DEFAULT_BATCH {
            s.push_str(&format!(",batch:{}", self.batch));
        }
        s
    }

    /// Parses the [`TierSpec::canonical`] syntax. `fast:` and `slow:` are
    /// required; the remaining knobs default.
    pub fn parse(s: &str) -> Result<TierSpec, String> {
        let mut fast = None;
        let mut slow = None;
        let mut spec = TierSpec::new(DeviceKind::OptanePmm, DeviceKind::ZSsd);
        for part in s.split(',').filter(|p| !p.is_empty()) {
            let (key, value) = part
                .split_once(':')
                .ok_or_else(|| format!("tier knob '{part}' is not key:value"))?;
            match key {
                "fast" => fast = Some(DeviceKind::parse(value)?),
                "slow" => slow = Some(DeviceKind::parse(value)?),
                "cap" => {
                    spec.cap_pct = value
                        .parse()
                        .map_err(|_| format!("tier cap '{value}' is not a percentage"))?
                }
                "policy" => {
                    spec.policy = PolicyKind::parse(value).ok_or_else(|| {
                        format!("unknown tier policy '{value}' (accepted: static, lru, threshold)")
                    })?
                }
                "period" => {
                    spec.period_us = value
                        .parse()
                        .map_err(|_| format!("tier period '{value}' is not microseconds"))?
                }
                "batch" => {
                    spec.batch = value
                        .parse()
                        .map_err(|_| format!("tier batch '{value}' is not a count"))?
                }
                other => {
                    return Err(format!(
                        "unknown tier knob '{other}' (accepted: fast, slow, cap, policy, \
                         period, batch)"
                    ))
                }
            }
        }
        spec.fast = fast.ok_or("tier spec needs fast:<device>")?;
        spec.slow = slow.ok_or("tier spec needs slow:<device>")?;
        Ok(spec)
    }

    /// The simulator-level configuration.
    pub fn to_config(&self) -> hwdp_tier::TierConfig {
        hwdp_tier::TierConfig {
            fast: self.fast.profile(),
            slow: self.slow.profile(),
            cap_pct: self.cap_pct,
            policy: self.policy,
            period: Duration::from_micros(self.period_us),
            batch: self.batch,
        }
    }
}

/// One fully specified experiment.
///
/// Equality ignores [`JobSpec::sanitize`]: sanitizing is observation-only
/// (metrics are byte-identical at any level), so a stored result remains
/// valid for the same job re-run at a different sanitize level — resume
/// matching and baseline comparison must not invalidate it.
#[derive(Clone, Copy, Debug)]
pub struct JobSpec {
    /// Workload scenario.
    pub scenario: Scenario,
    /// Demand-paging mode.
    pub mode: Mode,
    /// Storage device profile.
    pub device: DeviceKind,
    /// Workload threads.
    pub threads: usize,
    /// SMT hardware-context pinning: workload thread `i` is fixed to
    /// hardware context `pin + i` (a co-run partner, if the scenario has
    /// one, lands on `pin + threads`). `None` = scheduler placement.
    pub pin: Option<usize>,
    /// Statistical repeats: the job runs `max(repeats, 1)` times with
    /// SplitMix64-derived per-repeat seeds and reports mean / stddev /
    /// 95 % CI per metric. `1` is a plain single run and is normalized
    /// away (compares equal to, and serializes identically to, a spec
    /// without the knob).
    pub repeats: u32,
    /// Dataset:memory ratio (dataset pages = `memory_frames × ratio`).
    pub ratio: f64,
    /// Simulated DRAM in 4 KiB frames.
    pub memory_frames: usize,
    /// Operations per workload thread.
    pub ops: u64,
    /// PMSHR entries (`None` = paper default).
    pub pmshr_entries: Option<usize>,
    /// Free-page queue depth (`None` = paper default).
    pub free_queue_depth: Option<usize>,
    /// Whether the `kpoold` refill daemon runs.
    pub kpoold_enabled: bool,
    /// `kpoold` wake period in microseconds (`None` = default).
    pub kpoold_period_us: Option<u64>,
    /// `kpted` sync-scan period in microseconds.
    pub kpted_period_us: u64,
    /// OS readahead window in pages.
    pub readahead_pages: usize,
    /// SMU detached-prefetch window in pages.
    pub smu_prefetch_pages: usize,
    /// Per-core free-page queues instead of one shared queue.
    pub per_core_free_queues: bool,
    /// §V long-latency miss timeout in microseconds (`None` = always
    /// stall).
    pub long_io_timeout_us: Option<u64>,
    /// Virtual-time cap in milliseconds.
    pub time_cap_ms: u64,
    /// Deterministic device fault plan (`None` = fault-free). A zero-rate
    /// config is normalized away: it compares equal to `None` and is
    /// omitted from the JSON artifact, because such a run is byte-identical
    /// to a fault-free one.
    pub faults: Option<FaultConfig>,
    /// Tiered-storage configuration (`None` = the single-device system).
    /// Pay-as-you-go like `faults`: omitted from the JSON artifact when
    /// unset, so tierless campaigns stay byte-identical to baselines
    /// captured before the knob existed.
    pub tiers: Option<TierSpec>,
    /// Simulator master seed (derived from the campaign seed).
    pub seed: u64,
    /// hwdp-audit sanitizer level (observation-only; excluded from
    /// equality and the JSON artifact).
    pub sanitize: SanitizeLevel,
}

impl PartialEq for JobSpec {
    fn eq(&self, other: &JobSpec) -> bool {
        self.scenario == other.scenario
            && self.mode == other.mode
            && self.device == other.device
            && self.threads == other.threads
            && self.pin == other.pin
            && self.effective_repeats() == other.effective_repeats()
            && self.ratio == other.ratio
            && self.memory_frames == other.memory_frames
            && self.ops == other.ops
            && self.pmshr_entries == other.pmshr_entries
            && self.free_queue_depth == other.free_queue_depth
            && self.kpoold_enabled == other.kpoold_enabled
            && self.kpoold_period_us == other.kpoold_period_us
            && self.kpted_period_us == other.kpted_period_us
            && self.readahead_pages == other.readahead_pages
            && self.smu_prefetch_pages == other.smu_prefetch_pages
            && self.per_core_free_queues == other.per_core_free_queues
            && self.long_io_timeout_us == other.long_io_timeout_us
            && self.time_cap_ms == other.time_cap_ms
            && self.effective_faults() == other.effective_faults()
            && self.tiers == other.tiers
            && self.seed == other.seed
    }
}

impl JobSpec {
    /// A baseline job: paper-default knobs, `Scale::default()`-compatible
    /// sizing.
    pub fn new(scenario: Scenario, mode: Mode, seed: u64) -> JobSpec {
        JobSpec {
            scenario,
            mode,
            device: DeviceKind::ZSsd,
            threads: 1,
            pin: None,
            repeats: 1,
            ratio: 2.0,
            memory_frames: 1024,
            ops: 1_500,
            pmshr_entries: None,
            free_queue_depth: None,
            kpoold_enabled: true,
            kpoold_period_us: None,
            kpted_period_us: 1_000,
            readahead_pages: 0,
            smu_prefetch_pages: 0,
            per_core_free_queues: false,
            long_io_timeout_us: None,
            time_cap_ms: 30_000,
            faults: None,
            tiers: None,
            seed,
            sanitize: SanitizeLevel::Off,
        }
    }

    /// The fault plan that can actually fire: zero-rate configs normalize
    /// to `None` (they are inert by construction).
    pub fn effective_faults(&self) -> Option<FaultConfig> {
        self.faults.filter(|f| !f.is_zero())
    }

    /// The repeat count that actually applies: `0` normalizes to `1`
    /// (running a job zero times is meaningless).
    pub fn effective_repeats(&self) -> u32 {
        self.repeats.max(1)
    }

    /// Dataset size in pages.
    pub fn dataset_pages(&self) -> u64 {
        ((self.memory_frames as f64) * self.ratio) as u64
    }

    /// A short human-readable label (`fio/HWDP/zssd t=4 r=2`).
    pub fn label(&self) -> String {
        format!(
            "{}/{}/{} t={} r={}",
            self.scenario.name(),
            self.mode.label(),
            self.device.name(),
            self.threads,
            self.ratio
        )
    }

    /// Serializes the full configuration. The seed crosses as a hex
    /// *string* because JSON numbers (f64) lose u64 precision above 2^53.
    pub fn to_json(&self) -> Json {
        let opt_num = |v: Option<u64>| v.map_or(Json::Null, |n| Json::Num(n as f64));
        let mut fields = vec![
            ("scenario", Json::str(self.scenario.name())),
            ("mode", Json::str(self.mode.label())),
            ("device", Json::str(self.device.name())),
            ("threads", Json::Num(self.threads as f64)),
            ("ratio", Json::Num(self.ratio)),
            ("memory_frames", Json::Num(self.memory_frames as f64)),
            ("ops", Json::Num(self.ops as f64)),
            ("pmshr_entries", opt_num(self.pmshr_entries.map(|v| v as u64))),
            ("free_queue_depth", opt_num(self.free_queue_depth.map(|v| v as u64))),
            ("kpoold_enabled", Json::Bool(self.kpoold_enabled)),
            ("kpoold_period_us", opt_num(self.kpoold_period_us)),
            ("kpted_period_us", Json::Num(self.kpted_period_us as f64)),
            ("readahead_pages", Json::Num(self.readahead_pages as f64)),
            ("smu_prefetch_pages", Json::Num(self.smu_prefetch_pages as f64)),
            ("per_core_free_queues", Json::Bool(self.per_core_free_queues)),
            ("long_io_timeout_us", opt_num(self.long_io_timeout_us)),
            ("time_cap_ms", Json::Num(self.time_cap_ms as f64)),
            ("seed", Json::Str(format!("{:#018x}", self.seed))),
        ];
        // Pay-as-you-go knobs: present only when they change behaviour, so
        // artifacts from campaigns that never use them stay byte-identical
        // to baselines captured before the knobs existed.
        if let Some(pin) = self.pin {
            fields.push(("pin", Json::Num(pin as f64)));
        }
        if self.effective_repeats() > 1 {
            fields.push(("repeats", Json::Num(self.effective_repeats() as f64)));
        }
        if let Some(f) = self.effective_faults() {
            fields.push(("faults", Json::Str(f.canonical())));
        }
        if let Some(t) = self.tiers {
            fields.push(("tiers", Json::Str(t.canonical())));
        }
        Json::obj(fields)
    }
}

/// A named, seeded set of jobs.
#[derive(Clone, Debug)]
pub struct Campaign {
    /// Campaign name (becomes `BENCH_<name>.json`).
    pub name: String,
    /// Master seed from which all job seeds derive.
    pub seed: u64,
    /// The jobs, in grid-expansion order.
    pub jobs: Vec<JobSpec>,
}

/// Builds a [`Campaign`] by taking the cross product of axis lists.
///
/// Axes nest in a fixed order — scenario (outermost), mode, device,
/// threads, ratio (innermost) — so job index, and therefore each job's
/// derived seed, is a pure function of the grid definition.
#[derive(Clone, Debug)]
pub struct Grid {
    name: String,
    seed: u64,
    scenarios: Vec<Scenario>,
    modes: Vec<Mode>,
    devices: Vec<DeviceKind>,
    threads: Vec<usize>,
    ratios: Vec<f64>,
    template: JobSpec,
    fixed_seed: bool,
}

impl Grid {
    /// Starts a grid with single-point default axes (fio, HWDP, Z-SSD,
    /// 1 thread, 2:1).
    pub fn new(name: impl Into<String>, seed: u64) -> Grid {
        Grid {
            name: name.into(),
            seed,
            scenarios: vec![Scenario::FioRand],
            modes: vec![Mode::Hwdp],
            devices: vec![DeviceKind::ZSsd],
            threads: vec![1],
            ratios: vec![2.0],
            template: JobSpec::new(Scenario::FioRand, Mode::Hwdp, 0),
            fixed_seed: false,
        }
    }

    /// Sets the scenario axis.
    pub fn scenarios(mut self, s: impl IntoIterator<Item = Scenario>) -> Grid {
        self.scenarios = s.into_iter().collect();
        self
    }

    /// Sets the mode axis.
    pub fn modes(mut self, m: impl IntoIterator<Item = Mode>) -> Grid {
        self.modes = m.into_iter().collect();
        self
    }

    /// Sets the device axis.
    pub fn devices(mut self, d: impl IntoIterator<Item = DeviceKind>) -> Grid {
        self.devices = d.into_iter().collect();
        self
    }

    /// Sets the thread-count axis.
    pub fn threads(mut self, t: impl IntoIterator<Item = usize>) -> Grid {
        self.threads = t.into_iter().collect();
        self
    }

    /// Sets the dataset:memory ratio axis.
    pub fn ratios(mut self, r: impl IntoIterator<Item = f64>) -> Grid {
        self.ratios = r.into_iter().collect();
        self
    }

    /// Sets DRAM frames for every job.
    pub fn memory_frames(mut self, frames: usize) -> Grid {
        self.template.memory_frames = frames;
        self
    }

    /// Sets per-thread operations for every job.
    pub fn ops(mut self, ops: u64) -> Grid {
        self.template.ops = ops;
        self
    }

    /// Sets the virtual-time cap (milliseconds) for every job.
    pub fn time_cap_ms(mut self, ms: u64) -> Grid {
        self.template.time_cap_ms = ms;
        self
    }

    /// Pins every job's workload threads to consecutive hardware contexts
    /// starting at `base` (Fig. 16 SMT placement).
    pub fn pin(mut self, base: usize) -> Grid {
        self.template.pin = Some(base);
        self
    }

    /// Runs every job `k` times with derived per-repeat seeds, reporting
    /// mean / stddev / 95 % CI per metric.
    pub fn repeats(mut self, k: u32) -> Grid {
        self.template.repeats = k;
        self
    }

    /// Applies arbitrary knob edits to the job template (PMSHR size,
    /// queue depth, readahead, …).
    pub fn tweak(mut self, f: impl FnOnce(&mut JobSpec)) -> Grid {
        f(&mut self.template);
        self
    }

    /// Sets the hwdp-audit sanitize level for every job
    /// (observation-only; metrics are unaffected).
    pub fn sanitize(mut self, level: SanitizeLevel) -> Grid {
        self.template.sanitize = level;
        self
    }

    /// Installs a deterministic device fault plan on every job.
    pub fn faults(mut self, cfg: FaultConfig) -> Grid {
        self.template.faults = Some(cfg);
        self
    }

    /// Enables tiered storage on every job.
    pub fn tiers(mut self, spec: TierSpec) -> Grid {
        self.template.tiers = Some(spec);
        self
    }

    /// Gives every job the campaign seed itself instead of a per-index
    /// derived seed. Used when reproducing figure tables whose historical
    /// runs all shared one master seed.
    pub fn fixed_seed(mut self) -> Grid {
        self.fixed_seed = true;
        self
    }

    /// Number of jobs `expand` will produce.
    pub fn len(&self) -> usize {
        self.scenarios.len()
            * self.modes.len()
            * self.devices.len()
            * self.threads.len()
            * self.ratios.len()
    }

    /// Whether any axis is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Expands the cross product into a [`Campaign`].
    pub fn expand(self) -> Campaign {
        let mut jobs = Vec::with_capacity(self.len());
        for &scenario in &self.scenarios {
            for &mode in &self.modes {
                for &device in &self.devices {
                    for &threads in &self.threads {
                        for &ratio in &self.ratios {
                            let index = jobs.len() as u64;
                            let mut job = self.template;
                            job.scenario = scenario;
                            job.mode = mode;
                            job.device = device;
                            job.threads = threads;
                            job.ratio = ratio;
                            job.seed = if self.fixed_seed {
                                self.seed
                            } else {
                                job_seed(self.seed, index)
                            };
                            jobs.push(job);
                        }
                    }
                }
            }
        }
        Campaign { name: self.name, seed: self.seed, jobs }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_names_round_trip() {
        let mut all = vec![Scenario::FioRand, Scenario::FioSeq, Scenario::DbBench];
        all.extend(YcsbKind::ALL.map(Scenario::Ycsb));
        all.push(Scenario::Anon);
        all.extend(SmtPartner::ALL.map(Scenario::SmtCorun));
        all.push(Scenario::Anatomy);
        for s in &all {
            assert_eq!(Scenario::parse(s.name()), Some(*s), "{}", s.name());
        }
        // ALL_NAMES lists every value's name, once each.
        let names: Vec<&str> = all.iter().map(|s| s.name()).collect();
        assert_eq!(names, Scenario::ALL_NAMES);
        assert!(Scenario::parse("nope").is_none());
    }

    #[test]
    fn device_names_round_trip() {
        for d in DeviceKind::ALL {
            assert_eq!(DeviceKind::parse(d.name()), Ok(d));
        }
        // Hyphenated profile aliases resolve too.
        assert_eq!(DeviceKind::parse("z-ssd"), Ok(DeviceKind::ZSsd));
        assert_eq!(DeviceKind::parse("optane-ssd"), Ok(DeviceKind::OptaneSsd));
        assert_eq!(DeviceKind::parse("optane-pmm"), Ok(DeviceKind::OptanePmm));
        // The error names every accepted identifier.
        let err = DeviceKind::parse("floppy").unwrap_err();
        assert!(err.contains("floppy"));
        for name in ["zssd", "optane", "pmm"] {
            assert!(err.contains(name), "error lists '{name}': {err}");
        }
    }

    #[test]
    fn tier_spec_canonical_round_trips() {
        let t = TierSpec::new(DeviceKind::OptanePmm, DeviceKind::ZSsd);
        assert_eq!(t.canonical(), "fast:pmm,slow:zssd", "defaults are omitted");
        assert_eq!(TierSpec::parse(&t.canonical()), Ok(t));

        let full = TierSpec {
            fast: DeviceKind::OptaneSsd,
            slow: DeviceKind::ZSsd,
            cap_pct: 10,
            policy: PolicyKind::LruEpoch,
            period_us: 500,
            batch: 4,
        };
        assert_eq!(full.canonical(), "fast:optane,slow:zssd,cap:10,policy:lru,period:500,batch:4");
        assert_eq!(TierSpec::parse(&full.canonical()), Ok(full));

        assert!(TierSpec::parse("fast:pmm").is_err(), "slow is required");
        assert!(TierSpec::parse("fast:pmm,slow:zssd,warp:9").is_err(), "unknown knob rejected");
        assert!(TierSpec::parse("fast:floppy,slow:zssd").is_err(), "bad device rejected");
    }

    #[test]
    fn tier_spec_to_config_carries_every_knob() {
        let t = TierSpec::parse("fast:pmm,slow:zssd,cap:30,policy:lru,period:200,batch:2")
            .expect("parses");
        let c = t.to_config();
        assert_eq!(c.fast.name, DeviceProfile::OPTANE_PMM.name);
        assert_eq!(c.slow.name, DeviceProfile::Z_SSD.name);
        assert_eq!(c.cap_pct, 30);
        assert_eq!(c.policy, PolicyKind::LruEpoch);
        assert_eq!(c.period, Duration::from_micros(200));
        assert_eq!(c.batch, 2);
    }

    #[test]
    fn tiers_distinguish_jobs_and_serialize_only_when_set() {
        let a = JobSpec::new(Scenario::FioRand, Mode::Hwdp, 3);
        let mut b = a;
        b.tiers = Some(TierSpec::new(DeviceKind::OptanePmm, DeviceKind::ZSsd));
        assert_ne!(a, b, "tiering changes the simulated system");
        assert_eq!(a.to_json().get("tiers"), None, "tierless jobs omit the field");
        assert_eq!(
            b.to_json().get("tiers").and_then(Json::as_str),
            Some("fast:pmm,slow:zssd"),
            "tiered jobs serialize in --tiers syntax"
        );
    }

    #[test]
    fn grid_tiers_apply_to_every_job() {
        let t = TierSpec::new(DeviceKind::OptanePmm, DeviceKind::ZSsd);
        let c = Grid::new("t", 1).ratios([2.0, 4.0]).tiers(t).expand();
        assert!(c.jobs.iter().all(|j| j.tiers == Some(t)));
    }

    #[test]
    fn grid_expands_full_cross_product() {
        let c = Grid::new("t", 1)
            .scenarios([Scenario::FioRand, Scenario::DbBench])
            .modes([Mode::Osdp, Mode::Hwdp, Mode::SwOnly])
            .threads([1, 4])
            .ratios([2.0, 4.0])
            .expand();
        assert_eq!(c.jobs.len(), 2 * 3 * 2 * 2);
        // Innermost axis (ratio) varies fastest.
        assert_eq!(c.jobs[0].ratio, 2.0);
        assert_eq!(c.jobs[1].ratio, 4.0);
        assert_eq!(c.jobs[0].threads, 1);
        assert_eq!(c.jobs[2].threads, 4);
    }

    #[test]
    fn job_seeds_derive_from_index() {
        let c = Grid::new("t", 99).ratios([2.0, 4.0, 8.0]).expand();
        assert_eq!(c.jobs[0].seed, job_seed(99, 0));
        assert_eq!(c.jobs[2].seed, job_seed(99, 2));
        assert_ne!(c.jobs[0].seed, c.jobs[1].seed);
    }

    #[test]
    fn fixed_seed_grid_shares_master_seed() {
        let c = Grid::new("t", 0xD15C).ratios([2.0, 4.0]).fixed_seed().expand();
        assert!(c.jobs.iter().all(|j| j.seed == 0xD15C));
    }

    #[test]
    fn job_json_carries_seed_as_hex_string() {
        let job = JobSpec::new(Scenario::FioRand, Mode::Hwdp, u64::MAX - 1);
        let j = job.to_json();
        assert_eq!(j.get("seed").and_then(Json::as_str), Some("0xfffffffffffffffe"));
        assert_eq!(j.get("scenario").and_then(Json::as_str), Some("fio"));
        assert_eq!(j.get("pmshr_entries"), Some(&Json::Null));
    }

    #[test]
    fn equality_and_json_ignore_sanitize_level() {
        let a = JobSpec::new(Scenario::FioRand, Mode::Hwdp, 3);
        let mut b = a;
        b.sanitize = SanitizeLevel::Full;
        assert_eq!(a, b, "sanitize is observation-only: results stay reusable");
        assert_eq!(a.to_json().pretty(), b.to_json().pretty(), "artifacts stay byte-identical");
        let mut c = a;
        c.ops += 1;
        assert_ne!(a, c, "simulation-relevant fields still compare");
    }

    #[test]
    fn grid_sanitize_applies_to_every_job() {
        let c = Grid::new("t", 1).ratios([2.0, 4.0]).sanitize(SanitizeLevel::Cheap).expand();
        assert!(c.jobs.iter().all(|j| j.sanitize == SanitizeLevel::Cheap));
    }

    #[test]
    fn zero_rate_faults_normalize_away() {
        let a = JobSpec::new(Scenario::FioRand, Mode::Hwdp, 3);
        let mut b = a;
        b.faults = Some(FaultConfig::default());
        assert_eq!(a, b, "zero-rate plan is inert, jobs are interchangeable");
        assert_eq!(a.to_json().pretty(), b.to_json().pretty(), "artifacts stay byte-identical");
        let mut c = a;
        c.faults = FaultConfig::parse("media=0.1");
        assert_ne!(a, c, "a live plan distinguishes jobs");
        assert_eq!(
            c.to_json().get("faults").and_then(Json::as_str),
            Some("media=0.1"),
            "live plans serialize in --faults syntax"
        );
    }

    #[test]
    fn grid_faults_apply_to_every_job() {
        let cfg = FaultConfig::parse("drop=0.05").expect("parses");
        let c = Grid::new("t", 1).ratios([2.0, 4.0]).faults(cfg).expand();
        assert!(c.jobs.iter().all(|j| j.effective_faults() == Some(cfg)));
    }

    #[test]
    fn smt_partner_profiles_match_spec_profiles() {
        for p in SmtPartner::ALL {
            assert_eq!(p.profile().name, p.name(), "SmtPartner order drifted from SpecProfile");
            assert_eq!(SmtPartner::parse(p.name()), Some(p));
        }
        assert!(SmtPartner::parse("fortran").is_none());
    }

    #[test]
    fn repeats_one_normalizes_away() {
        let a = JobSpec::new(Scenario::FioRand, Mode::Hwdp, 3);
        let mut b = a;
        b.repeats = 0; // zero runs is meaningless; normalizes to one
        assert_eq!(a, b, "repeats <= 1 is a plain single run");
        assert_eq!(a.to_json().pretty(), b.to_json().pretty(), "artifacts stay byte-identical");
        let mut c = a;
        c.repeats = 5;
        assert_ne!(a, c, "a real repeat count distinguishes jobs");
        assert_eq!(c.to_json().get("repeats").and_then(Json::as_f64), Some(5.0));
        assert_eq!(a.to_json().get("repeats"), None, "repeats=1 omitted from JSON");
    }

    #[test]
    fn pin_distinguishes_jobs_and_serializes_only_when_set() {
        let a = JobSpec::new(Scenario::FioRand, Mode::Hwdp, 3);
        let mut b = a;
        b.pin = Some(0);
        assert_ne!(a, b, "pinning changes placement, so it changes identity");
        assert_eq!(a.to_json().get("pin"), None, "unpinned jobs omit the field");
        assert_eq!(b.to_json().get("pin").and_then(Json::as_f64), Some(0.0));
    }

    #[test]
    fn grid_pin_and_repeats_apply_to_every_job() {
        let c = Grid::new("t", 1).ratios([2.0, 4.0]).pin(2).repeats(3).expand();
        assert!(c.jobs.iter().all(|j| j.pin == Some(2) && j.effective_repeats() == 3));
    }

    #[test]
    fn dataset_pages_scale_with_ratio() {
        let mut job = JobSpec::new(Scenario::FioRand, Mode::Hwdp, 0);
        job.memory_frames = 512;
        job.ratio = 4.0;
        assert_eq!(job.dataset_pages(), 2048);
    }
}
