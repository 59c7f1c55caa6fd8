//! Trace capture: deterministic runs of each benchmark at each mode.
//!
//! Each (benchmark, mode) run is an independent simulation on its own
//! [`CoreModel`]; the per-mode captures of one benchmark are spread across
//! the `gpm_par` worker pool without changing the captured bytes.

use gpm_microarch::{CoreConfig, CoreModel, InstructionSource};
use gpm_power::{DvfsParams, PowerModel};
use gpm_types::{Micros, PowerMode, Result};
use gpm_workloads::{SharedTape, SpecBenchmark, WorkloadCombo};

use crate::{BenchmarkTraces, ModeTrace, TraceSample};

/// Cap (in ops) on the shared instruction tape, ~2 GB of buffered
/// micro-ops. Captures whose worst-case op demand fits replay one shared
/// recording across all mode runs; larger ones regenerate the stream per
/// mode.
const TAPE_MAX_OPS: u64 = 48_000_000;

/// The stepping engine of the per-mode capture runs.
///
/// There is only one: every capture runs one [`CoreModel`] per mode. The
/// enum selects nothing and stays only because the benchmark harness
/// names it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CaptureEngine {
    /// One [`CoreModel`] per mode, spread across the `gpm_par` worker pool.
    #[default]
    Scalar,
}

/// Parameters of a capture campaign.
///
/// The defaults reproduce the paper's setup: POWER4-class core (Table 1),
/// calibrated PowerTimer-like power model, linear three-mode DVFS at 1.3 V /
/// 1 GHz, 50 µs `delta_sim_time`.
#[derive(Debug, Clone, PartialEq)]
pub struct CaptureConfig {
    /// Core configuration shared by all cores.
    pub core: CoreConfig,
    /// Power model converting activity to watts.
    pub power: PowerModel,
    /// DVFS operating points.
    pub dvfs: DvfsParams,
    /// Sampling interval (`delta_sim_time`, 50 µs in the paper).
    pub delta: Micros,
    /// Optional cap on the simulated region, in instructions. `None` runs
    /// each benchmark's full `total_instructions`; tests use small caps.
    pub instruction_limit: Option<u64>,
    /// Optional cap on the simulated region, as wall time of the *Turbo*
    /// run. Unlike `instruction_limit`, this truncates every benchmark to a
    /// comparable number of explore intervals regardless of its IPC.
    pub duration_limit: Option<Micros>,
    /// Extra instructions captured beyond the region end, as a fraction
    /// (the CMP simulator can read slightly past completion).
    pub margin: f64,
    /// Cycles of cache/predictor warm-up simulated (and discarded) before
    /// sample collection starts.
    pub warmup_cycles: u64,
    /// Selects nothing; see [`CaptureEngine`].
    pub engine: CaptureEngine,
}

impl Default for CaptureConfig {
    fn default() -> Self {
        Self {
            core: CoreConfig::power4(),
            power: PowerModel::power4_calibrated(),
            dvfs: DvfsParams::paper(),
            delta: Micros::new(50.0),
            instruction_limit: None,
            duration_limit: None,
            margin: 0.03,
            warmup_cycles: 200_000,
            engine: CaptureEngine::default(),
        }
    }
}

impl CaptureConfig {
    /// A configuration with a small instruction cap — fast captures for
    /// tests and examples (the region is truncated, not sampled coarser).
    #[must_use]
    pub fn fast(limit: u64) -> Self {
        Self {
            instruction_limit: Some(limit),
            ..Self::default()
        }
    }

    /// A configuration truncating every benchmark's region to `limit` of
    /// Turbo wall time — each benchmark then spans a comparable number of
    /// explore intervals regardless of its IPC.
    #[must_use]
    pub fn fast_duration(limit: Micros) -> Self {
        Self {
            duration_limit: Some(limit),
            ..Self::default()
        }
    }

    /// The effective region length for `bench` under this configuration,
    /// before any duration-based truncation.
    #[must_use]
    pub fn region_of(&self, bench: SpecBenchmark) -> u64 {
        let total = bench.profile().total_instructions;
        self.instruction_limit.map_or(total, |cap| cap.min(total))
    }
}

/// Captures one benchmark at every power mode.
///
/// Each mode run replays the *same* deterministic instruction stream from
/// the beginning through a fresh core model clocked at that mode's
/// frequency, sampling `(cumulative instructions, power, BIPS)` every
/// `delta`.
///
/// # Errors
///
/// Propagates configuration validation failures.
pub fn capture_benchmark(bench: SpecBenchmark, config: &CaptureConfig) -> Result<BenchmarkTraces> {
    config.core.validate()?;
    let region = config.region_of(bench);
    let margin_of = |r: u64| r + ((r as f64 * config.margin) as u64).max(1000);

    // Every mode run (and each run's warm-up) replays the same deterministic
    // op sequence, so when the whole demand fits in memory it is generated
    // once into a shared tape and replayed, instead of being regenerated by
    // each of the six passes. The worst-case demand is the margined target
    // plus warm-up consumption (bounded by dispatch width × warm-up cycles)
    // plus one delta interval of run-cycle overshoot.
    let worst_case_ops = margin_of(region) + config.warmup_cycles.saturating_mul(8) + 2_000_000;
    let (region, traces) = if worst_case_ops <= TAPE_MAX_OPS {
        // Reserve for the common consumption (the margined target plus
        // typical warm-up drain); rare overshoot just grows the vec.
        let hint = (margin_of(region) + 600_000) as usize;
        let tape = SharedTape::with_capacity_hint(bench.stream(), hint);
        capture_all_modes(&|| tape.reader(), region, &margin_of, config)
    } else {
        capture_all_modes(&|| bench.stream(), region, &margin_of, config)
    };
    BenchmarkTraces::new(bench.name(), region, traces)
}

/// Runs the three per-mode captures over sources built by `make_source`,
/// returning the (possibly duration-truncated) region and the traces in
/// [`PowerMode::ALL`] order.
///
/// Each mode run is a self-contained simulation (fresh core, fresh source),
/// so the captures are independent and run across the worker pool.
/// `parallel_map` preserves slot order, and every run is deterministic on
/// its own inputs, so the assembled traces are byte-identical to a serial
/// loop.
fn capture_all_modes<S: InstructionSource, F: Fn() -> S + Sync>(
    make_source: &F,
    mut region: u64,
    margin_of: &(impl Fn(u64) -> u64 + Sync),
    config: &CaptureConfig,
) -> (u64, Vec<ModeTrace>) {
    let traces = if let Some(limit) = config.duration_limit {
        // A duration limit is resolved against the Turbo run so that all
        // three modes are truncated at the same *instruction* position:
        // Turbo must finish first, then Eff1/Eff2 follow together.
        let turbo_time_cap = limit * (1.0 + config.margin) + config.delta;
        let turbo = capture_modes(
            make_source,
            &[PowerMode::Turbo],
            margin_of(region),
            Some(turbo_time_cap),
            config,
        )
        .pop()
        .expect("one mode in, one trace out");
        region = region.min(turbo.instructions_by(limit));
        let target = margin_of(region);
        let mut traces = vec![turbo];
        traces.extend(capture_modes(
            make_source,
            &[PowerMode::Eff1, PowerMode::Eff2],
            target,
            None,
            config,
        ));
        traces
    } else {
        let target = margin_of(region);
        capture_modes(make_source, &PowerMode::ALL, target, None, config)
    };
    (region, traces)
}

/// Captures `modes` over sources built by `make_source`, one independent
/// per-mode simulation per pool worker, returning the traces in `modes`
/// order.
fn capture_modes<S: InstructionSource, F: Fn() -> S + Sync>(
    make_source: &F,
    modes: &[PowerMode],
    target_instructions: u64,
    max_duration: Option<Micros>,
    config: &CaptureConfig,
) -> Vec<ModeTrace> {
    gpm_par::parallel_map(modes, |&mode| {
        capture_mode(make_source, mode, target_instructions, max_duration, config)
    })
}

/// Captures every benchmark of `combo` (deduplicated by benchmark).
///
/// Returns one [`BenchmarkTraces`] per *core*, in combo order; duplicated
/// benchmarks share the same capture via clone.
///
/// # Errors
///
/// Propagates capture failures.
pub fn capture_combo(
    combo: &WorkloadCombo,
    config: &CaptureConfig,
) -> Result<Vec<BenchmarkTraces>> {
    let mut unique: Vec<(SpecBenchmark, BenchmarkTraces)> = Vec::new();
    for &bench in combo.benchmarks() {
        if !unique.iter().any(|(b, _)| *b == bench) {
            unique.push((bench, capture_benchmark(bench, config)?));
        }
    }
    Ok(combo
        .benchmarks()
        .iter()
        .map(|b| {
            unique
                .iter()
                .find(|(u, _)| u == b)
                .expect("captured above")
                .1
                .clone()
        })
        .collect())
}

fn capture_mode<S: InstructionSource>(
    make_source: &impl Fn() -> S,
    mode: PowerMode,
    target_instructions: u64,
    max_duration: Option<Micros>,
    config: &CaptureConfig,
) -> ModeTrace {
    let freq = config.dvfs.frequency(mode);
    let mut core =
        CoreModel::new(&config.core, freq).expect("core config validated by capture entry points");
    let mut stream = make_source();
    let delta_cycles = freq.cycles_in(config.delta).value();

    // Warm up caches and predictors; discard the stats and restart the
    // stream so instruction indices line up across modes. The core batches
    // op delivery, so any warm-up ops it fetched but did not execute must be
    // discarded along with the warm-up stream.
    if config.warmup_cycles > 0 {
        let _ = core.run_cycles(&mut stream, config.warmup_cycles);
        stream = make_source();
        core.discard_pending_ops();
    }

    let max_samples = max_duration
        .map(|d| (d.value() / config.delta.value()).ceil() as usize)
        .unwrap_or(usize::MAX);
    let mut samples = Vec::new();
    let mut committed = 0u64;
    while committed < target_instructions && samples.len() < max_samples {
        let stats = core.run_cycles(&mut stream, delta_cycles);
        committed += stats.instructions;
        let power = config.power.power(&stats.activity(), mode);
        samples.push(TraceSample {
            instructions_end: committed,
            power_w: power.value(),
            bips: stats.bips_at(freq).value(),
        });
    }
    ModeTrace::new(mode, config.delta, samples)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpm_workloads::combos;

    fn fast_config() -> CaptureConfig {
        CaptureConfig::fast(1_500_000)
    }

    #[test]
    fn capture_produces_all_modes() {
        let t = capture_benchmark(SpecBenchmark::Gcc, &fast_config()).unwrap();
        assert_eq!(t.name(), "gcc");
        for mode in PowerMode::ALL {
            assert!(t.trace(mode).samples().len() > 10, "{mode}");
            assert!(t.trace(mode).total_instructions() >= t.total_instructions());
        }
    }

    #[test]
    fn eff_modes_draw_less_power() {
        let t = capture_benchmark(SpecBenchmark::Crafty, &fast_config()).unwrap();
        let p_turbo = t.trace(PowerMode::Turbo).average_power();
        let p_eff1 = t.trace(PowerMode::Eff1).average_power();
        let p_eff2 = t.trace(PowerMode::Eff2).average_power();
        assert!(p_turbo > p_eff1);
        assert!(p_eff1 > p_eff2);
        // Cubic scaling (within activity drift).
        let ratio = p_eff2 / p_turbo;
        assert!(
            (ratio - 0.614).abs() < 0.02,
            "Eff2/Turbo power ratio {ratio}"
        );
    }

    #[test]
    fn cpu_bound_completion_slows_linearly_memory_bound_less() {
        let cfg = fast_config();
        let six = capture_benchmark(SpecBenchmark::Sixtrack, &cfg).unwrap();
        let mcf = capture_benchmark(SpecBenchmark::Mcf, &cfg).unwrap();

        let slow = |t: &BenchmarkTraces| {
            let turbo = t.completion_time(PowerMode::Turbo).unwrap();
            let eff2 = t.completion_time(PowerMode::Eff2).unwrap();
            1.0 - turbo / eff2
        };
        let six_slow = slow(&six);
        let mcf_slow = slow(&mcf);
        assert!((0.10..=0.17).contains(&six_slow), "sixtrack {six_slow}");
        assert!(mcf_slow < 0.07, "mcf {mcf_slow}");
    }

    #[test]
    fn region_respects_instruction_limit() {
        let cfg = CaptureConfig::fast(100_000);
        let t = capture_benchmark(SpecBenchmark::Mesa, &cfg).unwrap();
        assert_eq!(t.total_instructions(), 100_000);
        assert!(t.trace(PowerMode::Turbo).total_instructions() >= 100_000);
    }

    #[test]
    fn capture_combo_shares_duplicates() {
        let cfg = CaptureConfig::fast(200_000);
        let traces = capture_combo(&combos::mcf_mcf_art_art(), &cfg).unwrap();
        assert_eq!(traces.len(), 4);
        assert_eq!(traces[0], traces[1], "duplicate benchmarks share captures");
        assert_eq!(traces[0].name(), "mcf");
        assert_eq!(traces[2].name(), "art");
    }

    #[test]
    fn captures_are_deterministic() {
        let cfg = CaptureConfig::fast(300_000);
        let a = capture_benchmark(SpecBenchmark::Art, &cfg).unwrap();
        let b = capture_benchmark(SpecBenchmark::Art, &cfg).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn power_fluctuates_with_phases() {
        // art has strong phases; its Turbo power trace should swing.
        let cfg = CaptureConfig::fast(3_000_000);
        let t = capture_benchmark(SpecBenchmark::Art, &cfg).unwrap();
        let trace = t.trace(PowerMode::Turbo);
        let spread = trace.peak_power().value()
            - trace
                .samples()
                .iter()
                .map(|s| s.power_w)
                .fold(f64::INFINITY, f64::min);
        assert!(spread > 0.5, "phase power swing {spread}");
    }
}
