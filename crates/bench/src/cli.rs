//! Shared CLI flag parsing for the `cs-*` binaries.
//!
//! Every harness binary (`cs-bench`, `cs-smith`, `cs-chaos`, `cs-trace`)
//! used to hand-roll the same flags with drifting spellings, number
//! parsers, and defaults (`--threads` was hex-capable in cs-smith but
//! not cs-bench; thread defaults disagreed between binaries). This
//! module owns the shared surface:
//!
//! * [`parse_u64`]/[`parse_usize`] accept decimal or `0x` hex everywhere;
//! * [`CommonCli`] parses the flags a binary opts into (`--insts`,
//!   `--seed`, `--threads`, `--ring-capacity`, `--seeds`, `--start`,
//!   `--resume`) with one spelling and one help-text format;
//! * resolved defaults come from one place: threads from
//!   [`crate::exec::default_threads`] (honoring `CLEANUPSPEC_THREADS`).

use crate::exec::default_threads;
use std::path::PathBuf;

/// Default base seed shared by every harness.
pub const DEFAULT_SEED: u64 = 0xC1EA_2019;

/// Default event-ring capacity shared by cs-bench and cs-trace.
pub const DEFAULT_RING_CAPACITY: usize = 100_000;

/// Parses a `u64` in decimal or `0x`-prefixed hex.
pub fn parse_u64(s: &str) -> Option<u64> {
    if let Some(hex) = s.strip_prefix("0x") {
        u64::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

/// Checks that the seed range `start..start + count` fits in a `u64`:
/// a range whose end overflows would silently wrap to seed 0 (or run
/// nothing), so the CLIs reject it as a usage error instead.
pub fn check_seed_range(start: u64, count: u64) -> Result<(), String> {
    match start.checked_add(count) {
        Some(_) => Ok(()),
        None => Err(format!(
            "seed range {start:#x} + {count} seeds overflows the 64-bit seed space"
        )),
    }
}

/// Parses a `usize` in decimal or `0x`-prefixed hex.
pub fn parse_usize(s: &str) -> Option<usize> {
    parse_u64(s).and_then(|n| usize::try_from(n).ok())
}

/// One shared flag the binaries can opt into.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Flag {
    Insts,
    Seed,
    Threads,
    RingCapacity,
    Seeds,
    Start,
    Resume,
}

impl Flag {
    fn spelling(self) -> &'static str {
        match self {
            Flag::Insts => "--insts",
            Flag::Seed => "--seed",
            Flag::Threads => "--threads",
            Flag::RingCapacity => "--ring-capacity",
            Flag::Seeds => "--seeds",
            Flag::Start => "--start",
            Flag::Resume => "--resume",
        }
    }

    fn help(self) -> &'static str {
        match self {
            Flag::Insts => "committed instructions per run (decimal or 0x hex)",
            Flag::Seed => "base seed, mixed per workload (default 0xC1EA2019)",
            Flag::Threads => "worker threads (default: CLEANUPSPEC_THREADS, else host parallelism)",
            Flag::RingCapacity => "event ring capacity (default 100000)",
            Flag::Seeds => "number of seeds to run",
            Flag::Start => "first seed of the range",
            Flag::Resume => "result journal dir; tasks it already holds are served, not re-run",
        }
    }
}

/// Parser for the shared flags a binary opts into. Use the `with_*`
/// builder methods to enable flags, then call [`CommonCli::accept`] from
/// the argv loop; unrecognized flags return `Ok(false)` so the binary
/// can try its own specific flags next.
#[derive(Debug, Default)]
pub struct CommonCli {
    enabled: Vec<Flag>,
    /// `--insts`, if given.
    pub insts: Option<u64>,
    /// `--seed`, if given.
    pub seed: Option<u64>,
    /// `--threads`, if given.
    pub threads: Option<usize>,
    /// `--ring-capacity`, if given.
    pub ring_capacity: Option<usize>,
    /// `--seeds`, if given.
    pub seeds: Option<u64>,
    /// `--start`, if given.
    pub start: Option<u64>,
    /// `--resume`, if given.
    pub resume: Option<PathBuf>,
}

impl CommonCli {
    /// A parser with no shared flags enabled yet.
    pub fn new() -> Self {
        CommonCli::default()
    }

    fn enable(mut self, flag: Flag) -> Self {
        self.enabled.push(flag);
        self
    }

    /// Enables `--insts`.
    pub fn with_insts(self) -> Self {
        self.enable(Flag::Insts)
    }

    /// Enables `--seed`.
    pub fn with_seed(self) -> Self {
        self.enable(Flag::Seed)
    }

    /// Enables `--threads`.
    pub fn with_threads(self) -> Self {
        self.enable(Flag::Threads)
    }

    /// Enables `--ring-capacity`.
    pub fn with_ring_capacity(self) -> Self {
        self.enable(Flag::RingCapacity)
    }

    /// Enables `--seeds`.
    pub fn with_seeds(self) -> Self {
        self.enable(Flag::Seeds)
    }

    /// Enables `--start`.
    pub fn with_start(self) -> Self {
        self.enable(Flag::Start)
    }

    /// Enables `--resume`.
    pub fn with_resume(self) -> Self {
        self.enable(Flag::Resume)
    }

    /// Tries to consume `flag` (and its value from `it`). `Ok(true)`
    /// means the flag was one of the enabled shared flags and was
    /// consumed; `Ok(false)` means it is not a shared flag (the caller
    /// should try its binary-specific flags); `Err` carries a message
    /// for a shared flag with a missing or malformed value.
    pub fn accept<'a, I>(&mut self, flag: &str, it: &mut I) -> Result<bool, String>
    where
        I: Iterator<Item = &'a String>,
    {
        let Some(&f) = self.enabled.iter().find(|f| f.spelling() == flag) else {
            return Ok(false);
        };
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} requires a value"))?;
        let bad = || format!("{flag}: invalid value {value:?}");
        match f {
            Flag::Insts => self.insts = Some(parse_u64(value).ok_or_else(bad)?),
            Flag::Seed => self.seed = Some(parse_u64(value).ok_or_else(bad)?),
            Flag::Threads => {
                let n = parse_usize(value).filter(|&n| n > 0).ok_or_else(bad)?;
                self.threads = Some(n);
            }
            Flag::RingCapacity => self.ring_capacity = Some(parse_usize(value).ok_or_else(bad)?),
            Flag::Seeds => self.seeds = Some(parse_u64(value).ok_or_else(bad)?),
            Flag::Start => self.start = Some(parse_u64(value).ok_or_else(bad)?),
            Flag::Resume => self.resume = Some(PathBuf::from(value)),
        }
        Ok(true)
    }

    /// The shared help block for the enabled flags, one line per flag in
    /// the same format across every binary.
    pub fn help(&self) -> String {
        let mut out = String::from("common flags:");
        for f in &self.enabled {
            out.push_str(&format!("\n  {:<18} {}", f.spelling(), f.help()));
        }
        out
    }

    /// `--threads` or the shared default ([`default_threads`]).
    pub fn threads_or_default(&self) -> usize {
        self.threads.unwrap_or_else(default_threads)
    }

    /// `--seed` or [`DEFAULT_SEED`].
    pub fn seed_or_default(&self) -> u64 {
        self.seed.unwrap_or(DEFAULT_SEED)
    }

    /// `--ring-capacity` or [`DEFAULT_RING_CAPACITY`].
    pub fn ring_capacity_or_default(&self) -> usize {
        self.ring_capacity.unwrap_or(DEFAULT_RING_CAPACITY)
    }

    /// The seed range as `(start, count)`: `--start` or 0, and `--seeds`
    /// or `default_count`. `Err` when the range overflows
    /// ([`check_seed_range`]).
    pub fn seed_range(&self, default_count: u64) -> Result<(u64, u64), String> {
        let start = self.start.unwrap_or(0);
        let count = self.seeds.unwrap_or(default_count);
        check_seed_range(start, count).map(|()| (start, count))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn numbers_accept_decimal_and_hex_everywhere() {
        assert_eq!(parse_u64("42"), Some(42));
        assert_eq!(parse_u64("0x2a"), Some(42));
        assert_eq!(parse_u64("zzz"), None);
        assert_eq!(parse_usize("0x10"), Some(16));
    }

    #[test]
    fn accept_consumes_enabled_flags_only() {
        let mut cli = CommonCli::new().with_threads().with_seed();
        let args = argv(&["--threads", "0x8", "--seed", "7", "--insts", "5"]);
        let mut it = args.iter();
        assert_eq!(cli.accept(it.next().unwrap(), &mut it), Ok(true));
        assert_eq!(cli.accept(it.next().unwrap(), &mut it), Ok(true));
        // --insts is not enabled here: the caller gets it back.
        assert_eq!(cli.accept(it.next().unwrap(), &mut it), Ok(false));
        assert_eq!(cli.threads, Some(8));
        assert_eq!(cli.seed, Some(7));
        assert_eq!(cli.insts, None);
    }

    #[test]
    fn bad_or_missing_values_are_errors_not_silent_defaults() {
        let mut cli = CommonCli::new().with_threads();
        let args = argv(&["--threads", "zero"]);
        let mut it = args.iter();
        assert!(cli.accept(it.next().unwrap(), &mut it).is_err());
        let args = argv(&["--threads"]);
        let mut it = args.iter();
        assert!(cli.accept(it.next().unwrap(), &mut it).is_err());
        // Zero threads names no worker: rejected at parse time.
        let args = argv(&["--threads", "0"]);
        let mut it = args.iter();
        assert!(cli.accept(it.next().unwrap(), &mut it).is_err());
    }

    #[test]
    fn help_lists_exactly_the_enabled_flags() {
        let cli = CommonCli::new().with_insts().with_resume();
        let help = cli.help();
        assert!(help.contains("--insts"));
        assert!(help.contains("--resume"));
        assert!(!help.contains("--ring-capacity"));
    }

    #[test]
    fn resolved_defaults_come_from_the_shared_sources() {
        let cli = CommonCli::new();
        assert_eq!(cli.seed_or_default(), 0xC1EA_2019);
        assert_eq!(cli.ring_capacity_or_default(), 100_000);
        assert!(cli.threads_or_default() > 0);
        assert_eq!(cli.seed_range(500), Ok((0, 500)));
    }

    #[test]
    fn seed_ranges_that_overflow_are_rejected() {
        let mut cli = CommonCli::new().with_seeds().with_start();
        let args = argv(&["--start", "0xffffffffffffffff", "--seeds", "2"]);
        let mut it = args.iter();
        while let Some(a) = it.next() {
            assert_eq!(cli.accept(a, &mut it), Ok(true));
        }
        assert!(cli.seed_range(32).is_err());
        cli.seeds = Some(0);
        assert_eq!(cli.seed_range(32), Ok((u64::MAX, 0)));
        cli.start = Some(u64::MAX - 2);
        cli.seeds = Some(2);
        assert_eq!(cli.seed_range(32), Ok((u64::MAX - 2, 2)));
        assert!(check_seed_range(1, u64::MAX).is_err());
        assert!(check_seed_range(0, u64::MAX).is_ok());
    }
}
