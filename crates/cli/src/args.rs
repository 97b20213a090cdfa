//! Tiny dependency-free argument parsing for the `hwdp` CLI.

use std::collections::HashMap;

use hwdp_core::Mode;
use hwdp_workloads::YcsbKind;

/// Parsed command line: a subcommand plus `--key value` options and bare
/// `--flag`s.
#[derive(Debug, Clone)]
pub struct Args {
    /// The subcommand (first non-flag argument).
    pub command: String,
    options: HashMap<String, String>,
    flags: Vec<String>,
}

/// A parse or validation error with a user-facing message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArgError(pub String);

impl std::fmt::Display for ArgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ArgError {}

impl Args {
    /// Parses raw arguments (without the program name).
    ///
    /// # Errors
    ///
    /// Returns an error when no subcommand is given or an option is
    /// missing its value.
    pub fn parse<I: IntoIterator<Item = String>>(raw: I) -> Result<Args, ArgError> {
        let mut it = raw.into_iter().peekable();
        let command =
            it.next().ok_or_else(|| ArgError("missing subcommand; try `hwdp help`".into()))?;
        let mut options = HashMap::new();
        let mut flags = Vec::new();
        while let Some(arg) = it.next() {
            let Some(key) = arg.strip_prefix("--") else {
                return Err(ArgError(format!("unexpected positional argument '{arg}'")));
            };
            match it.peek() {
                Some(v) if !v.starts_with("--") => {
                    options.insert(key.to_string(), it.next().expect("peeked"));
                }
                _ => flags.push(key.to_string()),
            }
        }
        Ok(Args { command, options, flags })
    }

    /// A `--flag` with no value.
    pub fn flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }

    /// A string option.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.options.get(name).map(|s| s.as_str())
    }

    /// A comma-separated list option (`--modes osdp,hwdp`), or `default`
    /// when absent. Empty segments are skipped.
    pub fn list(&self, name: &str, default: &str) -> Vec<String> {
        self.get(name)
            .unwrap_or(default)
            .split(',')
            .filter(|s| !s.is_empty())
            .map(str::to_string)
            .collect()
    }

    /// A floating-point option with a default.
    ///
    /// # Errors
    ///
    /// Returns an error if the value does not parse.
    pub fn float(&self, name: &str, default: f64) -> Result<f64, ArgError> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| ArgError(format!("--{name} expects a number, got '{v}'"))),
        }
    }

    /// A numeric option with a default.
    ///
    /// # Errors
    ///
    /// Returns an error if the value does not parse.
    pub fn num(&self, name: &str, default: u64) -> Result<u64, ArgError> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| ArgError(format!("--{name} expects a number, got '{v}'"))),
        }
    }

    /// An optional numeric option (`None` when absent).
    ///
    /// # Errors
    ///
    /// Returns an error if the value does not parse.
    pub fn opt_num(&self, name: &str) -> Result<Option<u64>, ArgError> {
        self.get(name).map(|_| self.num(name, 0)).transpose()
    }

    /// The `--kind` option for YCSB (default C).
    ///
    /// # Errors
    ///
    /// Returns an error for unknown workload letters.
    pub fn ycsb_kind(&self) -> Result<YcsbKind, ArgError> {
        match self.get("kind").unwrap_or("c") {
            "a" | "A" => Ok(YcsbKind::A),
            "b" | "B" => Ok(YcsbKind::B),
            "c" | "C" => Ok(YcsbKind::C),
            "d" | "D" => Ok(YcsbKind::D),
            "e" | "E" => Ok(YcsbKind::E),
            "f" | "F" => Ok(YcsbKind::F),
            other => Err(ArgError(format!("unknown --kind '{other}' (a..f)"))),
        }
    }
}

/// Parses one demand-paging mode name — the values of `--mode` and of
/// each `--modes` entry.
///
/// # Errors
///
/// Returns an error for unknown modes.
pub fn parse_mode(s: &str) -> Result<Mode, ArgError> {
    match s {
        "osdp" => Ok(Mode::Osdp),
        "hwdp" => Ok(Mode::Hwdp),
        "sw" | "sw-only" | "swonly" => Ok(Mode::SwOnly),
        other => Err(ArgError(format!("unknown mode '{other}' (osdp|hwdp|sw-only)"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, ArgError> {
        Args::parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_command_options_and_flags() {
        let a = parse("fio --threads 4 --seq --mode osdp").unwrap();
        assert_eq!(a.command, "fio");
        assert_eq!(a.num("threads", 1).unwrap(), 4);
        assert!(a.flag("seq"));
        assert_eq!(parse_mode(a.get("mode").unwrap()).unwrap(), Mode::Osdp);
    }

    #[test]
    fn defaults_apply() {
        let a = parse("fio").unwrap();
        assert_eq!(a.num("threads", 1).unwrap(), 1);
        assert!(!a.flag("seq"));
        let spec = crate::single_run_spec(&a).unwrap();
        assert_eq!(spec.mode, Mode::Hwdp);
        assert_eq!(spec.device.profile().name, "Z-SSD SZ985");
        assert_eq!((spec.threads, spec.ratio, spec.seed), (1, 4.0, 42));
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse("").is_err());
        assert!(parse("fio positional").is_err());
        assert!(parse("fio --threads four").unwrap().num("threads", 1).is_err());
        assert!(parse("sweep --pmshr lots").unwrap().opt_num("pmshr").is_err());
        assert_eq!(parse("sweep --pmshr 4").unwrap().opt_num("pmshr").unwrap(), Some(4));
        assert_eq!(parse("sweep").unwrap().opt_num("pmshr").unwrap(), None);
        assert!(parse_mode("turbo").is_err());
        assert!(crate::single_run_spec(&parse("fio --mode turbo").unwrap()).is_err());
        assert!(crate::single_run_spec(&parse("fio --device floppy").unwrap()).is_err());
        assert!(crate::single_run_spec(&parse("ycsb --kind z").unwrap()).is_err());
        assert!(parse("ycsb --kind z").unwrap().ycsb_kind().is_err());
    }

    #[test]
    fn list_and_float_options() {
        let a = parse("sweep --modes osdp,hwdp --ratios 2,4.5").unwrap();
        assert_eq!(a.list("modes", "hwdp"), vec!["osdp", "hwdp"]);
        assert_eq!(a.list("scenarios", "fio"), vec!["fio"]);
        assert_eq!(a.float("threshold", 5.0).unwrap(), 5.0);
        let b = parse("compare --threshold 2.5").unwrap();
        assert_eq!(b.float("threshold", 5.0).unwrap(), 2.5);
        assert!(parse("compare --threshold abc").unwrap().float("threshold", 5.0).is_err());
    }

    #[test]
    fn ycsb_kinds_parse() {
        for (s, k) in [("a", YcsbKind::A), ("C", YcsbKind::C), ("f", YcsbKind::F)] {
            let a = Args::parse(["ycsb".into(), "--kind".into(), s.into()]).unwrap();
            assert_eq!(a.ycsb_kind().unwrap(), k);
        }
    }
}
