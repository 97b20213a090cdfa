//! Stored expected results: every job's deterministic simulated metrics,
//! per workload and seed slot, recorded from the tree the benchmark was
//! written against (`--record` rewrites them after a deliberate model
//! change).
//!
//! Each row keeps a fingerprint of the job's full metric vector (names
//! and exact `f64` bits) plus the few values a reader wants to see.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The expected-results file, relative to the package directory.
pub const FILE: &str = "expected.tsv";

const HEADER: &str =
    "# workload\tslot\tjob\tlabel\tfingerprint\tops\tverify_failures\tio_errors_surfaced\tmiss_lat_mean_ns";

/// One job's stored result.
#[derive(Clone, Debug, PartialEq)]
pub struct ExpectedJob {
    /// The job's `JobSpec::label`.
    pub label: String,
    /// [`fingerprint`] of the full metric vector.
    pub fingerprint: u64,
    /// Completed operations.
    pub ops: f64,
    /// Verify failures.
    pub verify_failures: f64,
    /// Surfaced I/O errors.
    pub io_errors_surfaced: f64,
    /// Mean miss latency (ns, simulated).
    pub miss_lat_mean_ns: f64,
}

impl ExpectedJob {
    /// The row for a job's metrics.
    pub fn from_metrics(label: String, metrics: &[(String, f64)]) -> ExpectedJob {
        ExpectedJob {
            label,
            fingerprint: fingerprint(metrics),
            ops: metric(metrics, "ops"),
            verify_failures: metric(metrics, "verify_failures"),
            io_errors_surfaced: metric(metrics, "io_errors_surfaced"),
            miss_lat_mean_ns: metric(metrics, "miss_lat_mean_ns"),
        }
    }
}

/// A metric's value, or 0 when the job did not export it (conditional
/// exports such as `io_errors_surfaced` appear only when nonzero).
pub fn metric(metrics: &[(String, f64)], name: &str) -> f64 {
    metrics
        .iter()
        .find(|(k, _)| k == name)
        .map_or(0.0, |(_, v)| *v)
}

/// FNV-1a over every metric name and the exact bits of its value.
pub fn fingerprint(metrics: &[(String, f64)]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for (name, value) in metrics {
        eat(name.as_bytes());
        eat(&[0xff]);
        eat(&value.to_bits().to_le_bytes());
    }
    h
}

/// Key of one row: workload, seed slot, job index.
pub type Key = (String, u64, usize);

/// The whole table.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Expected(pub BTreeMap<Key, ExpectedJob>);

impl Expected {
    /// Parses the TSV text.
    pub fn parse(text: &str) -> Result<Expected, String> {
        let mut rows = BTreeMap::new();
        for (n, line) in text.lines().enumerate() {
            if line.starts_with('#') || line.trim().is_empty() {
                continue;
            }
            let bad = |what: &str| format!("{FILE}:{}: bad {what}", n + 1);
            let f: Vec<&str> = line.split('\t').collect();
            if f.len() != 9 {
                return Err(bad("field count"));
            }
            let num = |i: usize| {
                f[i].parse::<f64>()
                    .map_err(|_| bad(&format!("number '{}'", f[i])))
            };
            let key = (
                f[0].to_string(),
                f[1].parse().map_err(|_| bad("slot"))?,
                f[2].parse().map_err(|_| bad("job index"))?,
            );
            let job = ExpectedJob {
                label: f[3].to_string(),
                fingerprint: u64::from_str_radix(f[4], 16).map_err(|_| bad("fingerprint"))?,
                ops: num(5)?,
                verify_failures: num(6)?,
                io_errors_surfaced: num(7)?,
                miss_lat_mean_ns: num(8)?,
            };
            rows.insert(key, job);
        }
        Ok(Expected(rows))
    }

    /// Renders the TSV text (the inverse of [`Expected::parse`]).
    pub fn render(&self) -> String {
        let mut out = format!("{HEADER}\n");
        for ((workload, slot, index), j) in &self.0 {
            // `{}` on f64 prints the shortest text that parses back to the
            // same bits.
            let _ = writeln!(
                out,
                "{workload}\t{slot}\t{index}\t{}\t{:016x}\t{}\t{}\t{}\t{}",
                j.label,
                j.fingerprint,
                j.ops,
                j.verify_failures,
                j.io_errors_surfaced,
                j.miss_lat_mean_ns
            );
        }
        out
    }

    /// Loads the table from the package directory.
    pub fn load() -> Result<Expected, String> {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(FILE);
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        Expected::parse(&text)
    }

    /// Writes the table to the package directory.
    pub fn save(&self) -> Result<(), String> {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(FILE);
        std::fs::write(&path, self.render()).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Whether a job's metrics match its stored row. A missing row never
    /// matches.
    pub fn matches(&self, key: &Key, label: &str, metrics: &[(String, f64)]) -> bool {
        self.0.get(key) == Some(&ExpectedJob::from_metrics(label.to_string(), metrics))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics() -> Vec<(String, f64)> {
        vec![
            ("ops".into(), 60_000.0),
            ("miss_lat_mean_ns".into(), 11_112.689),
            ("x".into(), 0.1),
        ]
    }

    #[test]
    fn render_parse_round_trip_and_match() {
        let key: Key = ("fio-fig12".into(), 3, 1);
        let mut table = Expected::default();
        table.0.insert(
            key.clone(),
            ExpectedJob::from_metrics("fio/HWDP/zssd t=1 r=8".into(), &metrics()),
        );
        let parsed = Expected::parse(&table.render()).unwrap();
        assert_eq!(parsed, table);
        assert!(parsed.matches(&key, "fio/HWDP/zssd t=1 r=8", &metrics()));

        // Any change in any value's bits is a mismatch.
        let mut changed = metrics();
        changed[2].1 = f64::from_bits(0.1f64.to_bits() + 1);
        assert!(!parsed.matches(&key, "fio/HWDP/zssd t=1 r=8", &changed));
        assert!(!parsed.matches(
            &("fio-fig12".into(), 4, 1),
            "fio/HWDP/zssd t=1 r=8",
            &metrics()
        ));
    }

    #[test]
    fn malformed_rows_are_rejected() {
        assert!(Expected::parse("fio\t0\t0\tl\tzz\t1\t0\t0\t1\n").is_err());
        assert!(Expected::parse("fio\t0\t0\n").is_err());
    }
}
