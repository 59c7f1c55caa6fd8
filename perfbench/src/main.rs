//! The gpm benchmark: one command for the fleet service's and the
//! simulator's end-to-end metrics, plus a traced run that attributes time
//! to each layer.
//!
//! ```text
//! gpm-perfbench --workload <serve_hit|serve_miss|fig9_cold|cmp_full>
//!               --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the named workload runs for about `--seconds`
//! seconds and the last stdout line is a JSON object with the end-to-end
//! metrics. With `--trace 1` a fixed-size traced pass over every workload
//! prints one attribution table per workload and the JSON carries the
//! per-layer metrics. Normally run through `perfbench/run.py`, which
//! builds this binary first.

mod probes;
mod serve;
mod sim;
mod traffic;
mod util;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use serve::ServeKind;
use util::{median, tail_percentile};

/// The workload names, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 4] = ["serve_hit", "serve_miss", "fig9_cold", "cmp_full"];

/// Fewest units a simulator workload runs, however short `--seconds`.
const MIN_SIM_UNITS: usize = 3;

/// Measured ticks per serve unit in the traced run.
const TRACE_TICKS: u64 = 30;

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut raw: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    while let Some(flag) = raw.next() {
        let value = raw.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(*WORKLOADS.iter().find(|w| **w == value).ok_or_else(|| {
                        format!("unknown workload `{value}` (one of {WORKLOADS:?})")
                    })?);
            }
            "--seed" => {
                seed = Some(value.parse().map_err(|_| format!("bad --seed `{value}`"))?);
            }
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds `{value}`"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got `{value}`")),
                });
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// What one invocation reports.
struct Outcome {
    attempted: u64,
    failed: u64,
    checks_passed: bool,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Outcome {
    fn to_json(&self) -> String {
        let mut metrics = String::new();
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                metrics,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.checks_passed && self.failed == 0,
            self.attempted.max(1),
            self.failed.min(self.attempted.max(1)),
        )
    }
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

fn share(failed: u64, base: u64) -> f64 {
    failed as f64 / base.max(1) as f64
}

fn serve_e2e(kind: ServeKind, args: &Args) -> Result<Outcome, String> {
    let run = serve::run_e2e(kind, args.seed, args.seconds).map_err(|e| e.to_string())?;
    let n = run.tick_ms.len();
    let p50 = median(&run.tick_ms).ok_or("no measured ticks")?;
    let setup = median(&run.setup_s).ok_or("no set-up")?;
    let p95 = tail_percentile(&run.tick_ms, 0.95).map_or_else(
        || format!("n/a (n={n} < 200)"),
        |v| format!("{v:.3} ms (n={n})"),
    );
    let failed = run.failures.total();
    let rss = run.peak_rss_mb;
    println!("decisions_per_s   {:.1} 1/s", run.decisions_per_s);
    println!("tick_p50_ms       {p50:.3} ms (n={n})");
    println!("tick_p95_ms       {p95}");
    println!(
        "setup_s           {setup:.4e} s (median of {} fresh servers)",
        run.setup_s.len()
    );
    println!(
        "failed_share      {} ({failed} of {} reports submitted: {})",
        share(failed, run.submitted),
        run.submitted,
        run.failures.render()
    );
    if kind == ServeKind::Miss {
        println!(
            "solver check      {} sampled decisions against a direct solve",
            run.sampled
        );
    }
    Ok(Outcome {
        attempted: run.submitted,
        failed,
        checks_passed: true,
        metrics: vec![
            ("setup_s".to_owned(), setup, "s"),
            ("op_p50_ms".to_owned(), p50, "ms"),
            ("items_per_s".to_owned(), run.decisions_per_s, "1/s"),
            ("peak_rss_mb".to_owned(), rss, "MB"),
        ],
    })
}

fn sim_e2e(
    name: &str,
    unit: fn() -> gpm_types::Result<sim::SimUnit>,
    seconds: f64,
) -> Result<Outcome, String> {
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let mut units = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    while attempted < MIN_SIM_UNITS as u64 || start.elapsed() < budget {
        attempted += 1;
        match std::panic::catch_unwind(unit) {
            Ok(Ok(u)) => {
                if !u.digests_match {
                    failed += 1;
                }
                units.push(u);
            }
            Ok(Err(err)) => {
                failed += 1;
                eprintln!("{name}: unit failed: {err}");
            }
            Err(_) => failed += 1,
        }
    }
    if units.is_empty() {
        return Err(format!("{name}: every unit failed"));
    }
    for (label, got, pinned) in &units[0].digests {
        println!("digest            {label} {got:#018x} (pinned {pinned:#018x})");
    }
    let op_s: Vec<f64> = units.iter().map(|u| u.op_s).collect();
    let setup = median(&units.iter().map(|u| u.setup_s).collect::<Vec<_>>()).ok_or("no units")?;
    let p50_ms = median(&op_s).ok_or("no units")? * 1e3;
    let rss = units[0].peak_rss_mb;
    // Median of per-unit rates, so the first unit's first touches of the
    // simulator's code and allocator weigh no more than in op_p50_ms.
    let rates: Vec<f64> = units
        .iter()
        .map(|u| u.instructions as f64 / u.op_s)
        .collect();
    let items_per_s = median(&rates).ok_or("no units")?;
    match name {
        "fig9_cold" => {
            println!(
                "figure_s          {:.4} s (median of {} figures, each from an empty store)",
                p50_ms / 1e3,
                units.len()
            );
            println!(
                "capture rate      {:.2} simulated MIPS (median over figures)",
                items_per_s / 1e6
            );
        }
        _ => {
            println!(
                "sim_mips          {:.3} MIPS (both chips, median of {} units)",
                items_per_s / 1e6,
                units.len()
            );
            println!("unit_ms           {p50_ms:.3} ms (median)");
        }
    }
    println!(
        "setup_s           {setup:.4e} s (median of {})",
        units.len()
    );
    println!(
        "failed_share      {} ({failed} of {attempted} runs)",
        share(failed, attempted)
    );
    Ok(Outcome {
        attempted,
        failed,
        checks_passed: true,
        metrics: vec![
            ("setup_s".to_owned(), setup, "s"),
            ("op_p50_ms".to_owned(), p50_ms, "ms"),
            ("items_per_s".to_owned(), items_per_s, "1/s"),
            ("peak_rss_mb".to_owned(), rss, "MB"),
        ],
    })
}

fn end_to_end(args: &Args) -> Result<Outcome, String> {
    let outcome = match args.workload {
        "serve_hit" => serve_e2e(ServeKind::Hit, args)?,
        "serve_miss" => serve_e2e(ServeKind::Miss, args)?,
        "fig9_cold" => sim_e2e("fig9_cold", sim::fig9_unit, args.seconds)?,
        _ => sim_e2e("cmp_full", sim::cmp_unit, args.seconds)?,
    };
    if let Some((_, rss, _)) = outcome.metrics.iter().find(|(n, _, _)| n == "peak_rss_mb") {
        println!(
            "peak_rss_mb       {rss:.1} MB (process peak through the first unit, before checks)"
        );
    }
    Ok(outcome)
}

fn traced(args: &Args) -> Result<Outcome, String> {
    println!("traced run: every workload at a fixed size (--seconds is not used)");
    let mut outcome = Outcome {
        attempted: 0,
        failed: 0,
        checks_passed: true,
        metrics: Vec::new(),
    };
    for kind in [ServeKind::Hit, ServeKind::Miss] {
        let layers = serve::run_traced(kind, args.seed, TRACE_TICKS).map_err(|e| e.to_string())?;
        print!("{}", layers.table.render());
        println!(
            "  failures: {} of {} reports ({})",
            layers.failures.total(),
            layers.submitted,
            layers.failures.render()
        );
        outcome.attempted += layers.submitted;
        outcome.failed += layers.failures.total();
        outcome.metrics.extend(layers.metrics);
    }
    for (name, run) in [
        (
            "fig9_cold",
            sim::fig9_traced as fn() -> gpm_types::Result<sim::SimLayers>,
        ),
        ("cmp_full", sim::cmp_traced),
    ] {
        let layers = run().map_err(|e| format!("{name}: {e}"))?;
        print!("{}", layers.table.render());
        for note in &layers.notes {
            println!("  {note}");
        }
        println!("  failures: {} of {} runs", layers.failed, layers.attempted);
        outcome.attempted += layers.attempted;
        outcome.failed += layers.failed;
        outcome.metrics.extend(layers.metrics);
    }
    outcome
        .metrics
        .extend(probes::wire_and_cache(args.seed).map_err(|e| e.to_string())?);
    outcome.metrics.extend(probes::solver(args.seed));
    outcome
        .metrics
        .extend(probes::workloads_and_core().map_err(|e| e.to_string())?);
    println!("per-layer metrics:");
    for (name, value, unit) in &outcome.metrics {
        println!("  {name:<40} {value:>16.4} {unit}");
    }
    Ok(outcome)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("gpm-perfbench: {msg}");
            return ExitCode::from(2);
        }
    };
    // Pin the pool to the host's cores; never inherit GPM_THREADS.
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    gpm_par::set_max_threads(Some(cores));
    println!(
        "host: nproc={cores} cpu=\"{}\" pool={} transport=loopback-tcp \
         shards=1 workload={} seed={} seconds={} trace={}",
        cpu_model(),
        gpm_par::max_threads(),
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let result = if args.trace {
        traced(&args)
    } else {
        end_to_end(&args)
    };
    match result {
        Ok(mut outcome) => {
            for (name, value, _) in &mut outcome.metrics {
                if !value.is_finite() {
                    eprintln!("gpm-perfbench: metric {name} is not finite");
                    outcome.checks_passed = false;
                    *value = 0.0;
                }
            }
            println!("{}", outcome.to_json());
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("gpm-perfbench: {msg}");
            ExitCode::FAILURE
        }
    }
}
