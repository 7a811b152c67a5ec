//! `perfbench`: the CleanupSpec simulator's host-throughput benchmark.
//!
//! ```text
//! perfbench --workload <spec-1core|sharing-4core|smith-campaign>
//!           --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Runs passes of one workload on one thread until `--seconds` have gone
//! by, checks every simulated run, and prints a table of the metrics with
//! the workload's fingerprint, then one JSON line as the last line of
//! standard output. `--trace 0` reports the end-to-end metrics, each the
//! median over the passes, with host times scaled by how fast the host ran
//! during each pass (`calib.rs`). `--trace 1` spends a third of the time on
//! untraced passes, then runs traced passes whose fingerprint must equal the
//! untraced one, and reports the per-layer metrics. See `README.md`.

mod calib;
mod machine;
mod prof;
mod work;

use prof::{Layer, Totals};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use work::{run_pass, smith_mirror, Pass, Workload};

const USAGE: &str = "usage: perfbench --workload <spec-1core|sharing-4core|smith-campaign> \
                     --seed <n> --seconds <1-120> --trace <0|1>";

/// The seed used when `--seed` is absent.
const DEFAULT_SEED: u64 = 0xC1EA_2019;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_u64(s: &str) -> Result<u64, String> {
    let r = match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => s.parse(),
    };
    r.map_err(|e| format!("bad number {s:?}: {e}"))
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: Workload::Spec1Core,
        seed: DEFAULT_SEED,
        seconds: 10,
        trace: false,
    };
    let mut workload = None;
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(&value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => args.seed = parse_u64(&value)?,
            "--seconds" => {
                args.seconds = parse_u64(&value)?;
                if !(1..=120).contains(&args.seconds) {
                    return Err("--seconds must be 1 to 120".to_string());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".to_string()),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    Ok(args)
}

/// One reported metric: the median of its per-pass values.
struct Metric {
    name: &'static str,
    unit: &'static str,
    /// Per-pass values; the table also shows their quartiles.
    values: Vec<f64>,
}

impl Metric {
    fn median(name: &'static str, unit: &'static str, values: Vec<f64>) -> Self {
        Metric { name, unit, values }
    }

    fn value(&self) -> f64 {
        quantile(&self.values, 0.5)
    }
}

/// The quantile `q` of `xs` by linear interpolation.
fn quantile(xs: &[f64], q: f64) -> f64 {
    let mut v: Vec<f64> = xs.iter().copied().filter(|x| x.is_finite()).collect();
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// What a run prints.
#[derive(Default)]
struct Outcome {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    passes: usize,
    fingerprint: u64,
    metrics: Vec<Metric>,
    /// The host's speed during each untraced pass, from the probe.
    speed: Vec<f64>,
}

impl Outcome {
    /// Counts a judged pass: its units are attempted, its failures failed.
    fn judge(&mut self, p: &Pass) {
        self.attempted += p.units;
        self.failed += p.failures.len() as u64;
        self.failures.extend(p.failures.iter().cloned());
    }

    /// Counts every unit of `p` as failed for `why`, beyond those that
    /// already failed.
    fn reject(&mut self, p: &Pass, why: String) {
        self.failed += p.units - p.failures.len() as u64;
        self.failures.push(why);
    }
}

/// Runs passes until `seconds` have elapsed (at least one).
fn timed_passes(seconds: u64, mut pass: impl FnMut() -> Pass) -> Vec<Pass> {
    let budget = Duration::from_secs(seconds);
    let start = Instant::now();
    let mut out = Vec::new();
    loop {
        out.push(pass());
        if start.elapsed() >= budget {
            return out;
        }
    }
}

/// For `smith-campaign`: the statistics `run_plan` hides come from the
/// mirror, which must see the same squashes on every seed as `run_plan`.
fn check_mirror(out: &mut Outcome, judged: &Pass, mirror: &Pass) {
    out.judge(mirror);
    let diverged = judged
        .seed_squashes
        .iter()
        .zip(&mirror.seed_squashes)
        .filter(|(a, b)| a != b)
        .count() as u64;
    if diverged > 0 {
        out.failed += diverged;
        out.failures.push(format!(
            "mirror squash counts differ from run_plan on {diverged} seeds"
        ));
    }
}

fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Untraced passes of `args.workload` for `seconds`, judged into `out`,
/// with the campaign's mirror. Sets the fingerprint the run reports.
fn untraced_passes(out: &mut Outcome, args: &Args, seconds: u64) -> (Vec<Pass>, Option<Pass>) {
    let w = args.workload;
    let mirror = (w == Workload::SmithCampaign).then(|| smith_mirror(args.seed));
    let passes = timed_passes(seconds, || run_pass(w, args.seed, false));
    for p in &passes {
        out.judge(p);
        if p.fingerprint != passes[0].fingerprint {
            out.reject(
                p,
                format!(
                    "fingerprint {:#018x} differs from the first pass",
                    p.fingerprint
                ),
            );
        }
    }
    if let Some(m) = &mirror {
        check_mirror(out, &passes[0], m);
    }
    out.fingerprint = mirror.as_ref().unwrap_or(&passes[0]).fingerprint;
    (passes, mirror)
}

fn untraced(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let (passes, mirror) = untraced_passes(&mut out, args, args.seconds);
    out.passes = passes.len();
    // The campaign's simulated work is only visible to the mirror; it is
    // the same on every pass.
    let work = mirror.as_ref().unwrap_or(&passes[0]).tally;
    let slowdown = mirror.as_ref().unwrap_or(&passes[0]).slowdown;
    let units = passes[0].units as f64;
    // Every host time is scaled by how fast the host ran during its pass,
    // so that a run slowed down throughout by other tenants reads the same
    // as a quiet one (see `calib.rs`). The probe's own time is taken out.
    let scaled = |ns: &dyn Fn(&Pass) -> f64| -> Vec<f64> {
        passes
            .iter()
            .map(|p| ns(p) * 1e-9 * p.probe.speed())
            .collect()
    };
    let sim = scaled(&|p| p.sim_ns as f64);
    let setup = scaled(&|p| p.setup_ns as f64);
    let wall = scaled(&|p| p.wall_ns.saturating_sub(p.probe.ns) as f64);
    let per = |x: f64, secs: &[f64]| secs.iter().map(|s| x / s).collect::<Vec<_>>();
    let seeds_per_s = per(units, &wall);
    out.speed = passes.iter().map(|p| p.probe.speed()).collect();
    out.metrics = vec![
        Metric::median("sim_kips", "kinst/s", per(work.insts as f64 / 1e3, &sim)),
        Metric::median(
            "host_ns_per_cycle",
            "ns",
            sim.iter()
                .map(|s| s * 1e9 / work.core_cycles as f64)
                .collect(),
        ),
        Metric::median("wall_s", "s", wall),
        Metric::median("setup_s", "s", setup),
        Metric::median("peak_rss_mb", "MiB", vec![peak_rss_mib()]),
        Metric::median("seeds_per_s", "1/s", seeds_per_s),
        Metric::median("cleanupspec_slowdown", "ratio", vec![slowdown]),
    ];
    out
}

/// The per-layer metrics of one traced pass.
fn layer_metrics(t: &Totals, p: &Pass, overhead: f64) -> Vec<(&'static str, &'static str, f64)> {
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let w = &p.tally;
    let ns = |l: Layer| t.self_ns(l) as f64;
    let n = |x: u64| x as f64;
    vec![
        ("pipeline.tick_self_ns", "ns", ns(Layer::Tick)),
        (
            "pipeline.ns_per_tick",
            "ns",
            ratio(t.self_ns(Layer::Tick), t.calls(Layer::Tick)),
        ),
        ("pipeline.ticks", "count", n(t.calls(Layer::Tick))),
        ("pipeline.squashes", "count", n(w.squashes)),
        (
            "pipeline.useful_frac",
            "ratio",
            ratio(w.insts, w.insts + w.squashed_insts),
        ),
        ("hierarchy.advance_ns", "ns", ns(Layer::Advance)),
        (
            "hierarchy.ns_per_advance",
            "ns",
            ratio(t.self_ns(Layer::Advance), t.calls(Layer::Advance)),
        ),
        ("hierarchy.l1_hit_frac", "ratio", ratio(w.l1_hits, w.loads)),
        ("hierarchy.mem_loads", "count", n(w.mem_loads)),
        ("hierarchy.remote_hits", "count", n(w.remote_hits)),
        ("hierarchy.stores", "count", n(w.stores)),
        (
            "hierarchy.gets_safe_refusals",
            "count",
            n(w.gets_safe_refusals),
        ),
        ("scheme.issue_load_ns", "ns", ns(Layer::IssueLoad)),
        (
            "scheme.issue_load_calls",
            "count",
            n(t.calls(Layer::IssueLoad)),
        ),
        (
            "scheme.issue_load_retry_frac",
            "ratio",
            ratio(t.issue_retries, t.calls(Layer::IssueLoad)),
        ),
        ("scheme.commit_load_ns", "ns", ns(Layer::CommitLoad)),
        ("scheme.on_squash_ns", "ns", ns(Layer::OnSquash)),
        (
            "scheme.on_squash_calls",
            "count",
            n(t.calls(Layer::OnSquash)),
        ),
        (
            "scheme.ns_per_squash",
            "ns",
            ratio(t.self_ns(Layer::OnSquash), t.calls(Layer::OnSquash)),
        ),
        ("hierarchy.cleanup_invals", "count", n(w.cleanup_invals)),
        ("hierarchy.cleanup_restores", "count", n(w.cleanup_restores)),
        ("obs.events", "count", n(t.calls(Layer::SinkCommitLog))),
        ("obs.commitlog.record_ns", "ns", ns(Layer::SinkCommitLog)),
        ("obs.audit.record_ns", "ns", ns(Layer::SinkAudit)),
        ("obs.episode.record_ns", "ns", ns(Layer::SinkEpisode)),
        ("sim.build_ns", "ns", ns(Layer::SimBuild)),
        ("snap.clone_ns", "ns", ns(Layer::SnapClone)),
        ("workloads.build_ns", "ns", ns(Layer::WorkloadsBuild)),
        ("reference.interpret_ns", "ns", ns(Layer::Reference)),
        ("reference.steps", "count", n(p.ref_steps)),
        ("fuzz.run_plan_ns", "ns", t.incl(Layer::RunPlan) as f64),
        ("fuzz.other_ns", "ns", ns(Layer::RunPlan)),
        ("traced.overhead", "ratio", overhead),
    ]
}

fn traced(args: &Args) -> Outcome {
    let w = args.workload;
    let mut out = Outcome::default();
    prof::reset(false);
    // A third of the time goes to untraced passes: the fingerprint the
    // traced passes must reproduce, and the wall time tracing is compared
    // against.
    let untraced_secs = (args.seconds / 3).max(1);
    let (base, _) = untraced_passes(&mut out, args, untraced_secs);
    let base_wall = base
        .iter()
        .map(|p| p.wall_ns.saturating_sub(p.probe.ns))
        .min()
        .unwrap_or(1) as f64;
    let mut rows = Vec::new();
    let passes = timed_passes(args.seconds.saturating_sub(untraced_secs).max(1), || {
        prof::reset(true);
        let p = run_pass(w, args.seed, true);
        let t = prof::totals();
        prof::reset(false);
        if p.fingerprint == out.fingerprint {
            rows.push(layer_metrics(&t, &p, p.wall_ns as f64 / base_wall));
        }
        p
    });
    out.passes = passes.len();
    for p in &passes {
        out.judge(p);
        if p.fingerprint != out.fingerprint {
            out.reject(
                p,
                format!(
                    "traced fingerprint {:#018x} differs from untraced {:#018x}; layer numbers discarded",
                    p.fingerprint, out.fingerprint
                ),
            );
        }
    }
    let names = layer_metrics(&Totals::default(), &Pass::default(), 0.0);
    out.metrics = names
        .iter()
        .enumerate()
        .map(|(i, (name, unit, _))| {
            Metric::median(name, unit, rows.iter().map(|r| r[i].2).collect())
        })
        .collect();
    out
}

fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_string()
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let out = if args.trace {
        traced(&args)
    } else {
        untraced(&args)
    };
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "perfbench {} seed={:#x} trace={} passes={} (one simulation thread; {cpus} host CPUs)",
        args.workload.name(),
        args.seed,
        u8::from(args.trace),
        out.passes
    );
    println!(
        "fingerprint {} {:#018x}",
        args.workload.name(),
        out.fingerprint
    );
    println!(
        "{:<30} {:>16} {:>16} {:>16}  unit",
        "metric", "median", "q1", "q3"
    );
    for m in &out.metrics {
        println!(
            "{:<30} {:>16.6} {:>16.6} {:>16.6}  {} (n={})",
            m.name,
            m.value(),
            quantile(&m.values, 0.25),
            quantile(&m.values, 0.75),
            m.unit,
            m.values.len()
        );
    }
    if !out.speed.is_empty() {
        println!(
            "{:<30} {:>16.6} {:>16.6} {:>16.6}  ratio (host times above are scaled by it)",
            "host_speed",
            quantile(&out.speed, 0.5),
            quantile(&out.speed, 0.25),
            quantile(&out.speed, 0.75)
        );
    }
    let failed_frac = out.failed as f64 / out.attempted.max(1) as f64;
    println!(
        "{:<30} {:>16.6} {:>16} {:>16}  ratio ({} of {} failed)",
        "failed_frac", failed_frac, "", "", out.failed, out.attempted
    );
    for f in out.failures.iter().take(10) {
        println!("FAILED: {f}");
    }
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value()),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0,
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}
