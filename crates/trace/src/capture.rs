//! Trace capture: deterministic runs of each benchmark at each mode.
//!
//! The three mode runs of one benchmark share a single generated op
//! stream. The stream is generated window by window — once for the
//! warm-up, once for the measured region — and the Turbo, Eff1 and Eff2
//! [`CoreModel`]s step through each window in turn (lockstep) before the
//! next one is generated. The modes of one benchmark therefore run on one
//! thread; parallelism lives at the benchmark level
//! ([`TraceStore::warm_up`](crate::TraceStore::warm_up) and
//! [`capture_combo`] capture distinct benchmarks across the `gpm_par`
//! pool).

use gpm_microarch::{CoreConfig, CoreModel, InstructionSource, IntervalStats, MicroOp};
use gpm_power::{DvfsParams, PowerModel};
use gpm_types::{GpmError, Micros, PowerMode, Result};
use gpm_workloads::{SpecBenchmark, WorkloadCombo};

use crate::{BenchmarkTraces, ModeTrace, TraceSample};

/// Ops generated per lockstep window (16 Ki ops, 512 KiB). Capture memory
/// is bounded by the window, not by the region length.
const WINDOW_OPS: usize = 16 * 1024;

/// The stepping engine of the per-mode capture runs.
///
/// There is only one: every capture steps one [`CoreModel`] per mode in
/// lockstep over a shared op window. The enum selects nothing and stays
/// only because the benchmark harness names it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CaptureEngine {
    /// One [`CoreModel`] per mode, all stepped on the capturing thread.
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

    /// The instruction target of a capture over `region`: the region plus
    /// the margin the CMP simulator may read past its end.
    fn margined(&self, region: u64) -> u64 {
        region.saturating_add(((region as f64 * self.margin) as u64).max(1000))
    }

    /// Rejects settings under which a capture would never end or would
    /// produce no samples.
    fn validate(&self) -> Result<()> {
        self.core.validate()?;
        let invalid = |parameter, reason| Err(GpmError::InvalidConfig { parameter, reason });
        let delta = self.delta.value();
        if !(delta.is_finite() && delta > 0.0) {
            return invalid(
                "delta",
                format!("must be positive and finite, got {delta} µs"),
            );
        }
        if let Some(limit) = self.duration_limit.map(Micros::value) {
            if !(limit.is_finite() && limit > 0.0) {
                return invalid(
                    "duration_limit",
                    format!("must be positive and finite, got {limit} µs"),
                );
            }
        }
        if !(self.margin.is_finite() && self.margin >= 0.0) {
            return invalid(
                "margin",
                format!("must be non-negative and finite, got {}", self.margin),
            );
        }
        Ok(())
    }
}

/// Captures one benchmark at every power mode.
///
/// Each mode runs the *same* deterministic instruction stream from the
/// beginning through a fresh core model clocked at that mode's frequency,
/// sampling `(cumulative instructions, power, BIPS)` every `delta`.
///
/// # Errors
///
/// Returns [`GpmError::InvalidConfig`] for an invalid core configuration, a
/// `delta` that is not positive and finite (or shorter than one core
/// cycle), a `duration_limit` that is not positive and finite, or a
/// `margin` that is negative or not finite.
pub fn capture_benchmark(bench: SpecBenchmark, config: &CaptureConfig) -> Result<BenchmarkTraces> {
    capture_windowed(bench, config, WINDOW_OPS)
}

/// [`capture_benchmark`] over op windows of `window_ops` ops. The traces do
/// not depend on the window length; tests vary it to prove that.
pub(crate) fn capture_windowed(
    bench: SpecBenchmark,
    config: &CaptureConfig,
    window_ops: usize,
) -> Result<BenchmarkTraces> {
    config.validate()?;
    let mut region = config.region_of(bench);
    // Lanes run in `PowerMode::ALL` order, so `lanes[0]` is Turbo.
    let mut lanes = PowerMode::ALL
        .into_iter()
        .map(|mode| Lane::new(mode, config, config.margined(region)))
        .collect::<Result<Vec<_>>>()?;
    if let Some(limit) = config.duration_limit {
        let turbo_time_cap = limit * (1.0 + config.margin) + config.delta;
        lanes[0].max_samples = (turbo_time_cap.value() / config.delta.value()).ceil() as usize;
    }
    let mut window = vec![MicroOp::int_alu(None); window_ops];

    // Pass 1: warm caches and predictors from op 0, discarding the stats.
    if config.warmup_cycles > 0 {
        let mut scratch = IntervalStats::default();
        lockstep(bench, &mut window, |ops| {
            for lane in &mut lanes {
                lane.core
                    .step_until(ops, config.warmup_cycles, &mut scratch);
            }
            lanes
                .iter()
                .any(|lane| lane.core.now_cycles() < config.warmup_cycles)
        });
    }

    // Pass 2: the measured region over a restarted stream, so instruction
    // indices line up across modes.
    //
    // A duration limit is resolved against the Turbo run so that all three
    // modes are truncated at the same *instruction* position. Until Turbo
    // stops, Eff1/Eff2 run towards the untruncated target; once it stops,
    // each keeps the prefix of samples up to the first that reaches the
    // resolved target, exactly what a run towards that target records.
    for lane in &mut lanes {
        lane.open_or_finish();
    }
    let mut unresolved_limit = config.duration_limit;
    lockstep(bench, &mut window, |ops| {
        for lane in &mut lanes {
            lane.step(ops, config);
        }
        if lanes[0].done {
            if let Some(limit) = unresolved_limit.take() {
                let turbo =
                    ModeTrace::new(PowerMode::Turbo, config.delta, lanes[0].samples.clone());
                region = region.min(turbo.instructions_by(limit));
                let target = config.margined(region);
                for lane in &mut lanes[1..] {
                    lane.retarget(target);
                }
            }
        }
        lanes.iter().any(|lane| !lane.done)
    });

    let traces = lanes
        .into_iter()
        .map(|lane| ModeTrace::new(lane.mode, config.delta, lane.samples))
        .collect();
    BenchmarkTraces::new(bench.name(), region, traces)
}

/// Generates `bench`'s stream from op 0 into `window`, one window at a
/// time, handing each to `step` until it returns `false`.
fn lockstep(
    bench: SpecBenchmark,
    window: &mut [MicroOp],
    mut step: impl FnMut(&[MicroOp]) -> bool,
) {
    let mut stream = bench.stream();
    loop {
        let mut filled = 0;
        while filled < window.len() {
            filled += stream.fill_ops(&mut window[filled..]);
        }
        if !step(window) {
            return;
        }
    }
}

/// One mode's run: its core, the interval in progress and the samples so
/// far.
struct Lane {
    mode: PowerMode,
    core: CoreModel,
    delta_cycles: u64,
    /// Intervals keep opening while fewer instructions than this have
    /// committed and fewer than `max_samples` samples exist.
    target: u64,
    max_samples: usize,
    /// End cycle and running statistics of the open interval.
    until: u64,
    stats: IntervalStats,
    committed: u64,
    samples: Vec<TraceSample>,
    done: bool,
}

impl Lane {
    fn new(mode: PowerMode, config: &CaptureConfig, target: u64) -> Result<Self> {
        let freq = config.dvfs.frequency(mode);
        let core = CoreModel::new(&config.core, freq)?;
        let delta_cycles = freq.cycles_in(config.delta).value();
        if delta_cycles == 0 {
            return Err(GpmError::InvalidConfig {
                parameter: "delta",
                reason: format!(
                    "{} µs is shorter than one core cycle at {mode}",
                    config.delta.value()
                ),
            });
        }
        Ok(Self {
            mode,
            core,
            delta_cycles,
            target,
            max_samples: usize::MAX,
            until: 0,
            stats: IntervalStats::default(),
            committed: 0,
            samples: Vec::new(),
            done: false,
        })
    }

    /// Opens the next `delta` interval, or marks the run done once it has
    /// reached its target or sample cap.
    fn open_or_finish(&mut self) {
        if self.committed < self.target && self.samples.len() < self.max_samples {
            self.until = self.core.now_cycles().saturating_add(self.delta_cycles);
            self.stats = IntervalStats::default();
        } else {
            self.done = true;
        }
    }

    /// Steps every op of the window (or up to the end of the run), closing
    /// each interval whose end cycle is reached and carrying on with the
    /// next in the same window.
    fn step(&mut self, mut ops: &[MicroOp], config: &CaptureConfig) {
        while !self.done && !ops.is_empty() {
            let used = self.core.step_until(ops, self.until, &mut self.stats);
            ops = &ops[used..];
            if self.core.now_cycles() >= self.until {
                self.committed += self.stats.instructions;
                self.samples.push(TraceSample {
                    instructions_end: self.committed,
                    power_w: config
                        .power
                        .power(&self.stats.activity(), self.mode)
                        .value(),
                    bips: self.stats.bips_at(self.core.frequency()).value(),
                });
                self.open_or_finish();
            }
        }
    }

    /// Lowers the instruction target to `target`, cutting the samples after
    /// the first one that already reaches it. A run that finished under
    /// the higher target always has such a sample.
    fn retarget(&mut self, target: u64) {
        self.target = target;
        if let Some(last) = self
            .samples
            .iter()
            .position(|s| s.instructions_end >= target)
        {
            self.samples.truncate(last + 1);
            self.done = true;
        }
    }
}

/// Captures every benchmark of `combo` (deduplicated by benchmark).
///
/// Returns one [`BenchmarkTraces`] per *core*, in combo order; duplicated
/// benchmarks share the same capture via clone. Distinct benchmarks are
/// captured in parallel across the worker pool (see `gpm_par`).
///
/// # Errors
///
/// Propagates capture failures; with several failures, the error of the
/// first (combo-order) failing benchmark is returned.
pub fn capture_combo(
    combo: &WorkloadCombo,
    config: &CaptureConfig,
) -> Result<Vec<BenchmarkTraces>> {
    let mut unique: Vec<SpecBenchmark> = Vec::new();
    for &bench in combo.benchmarks() {
        if !unique.contains(&bench) {
            unique.push(bench);
        }
    }
    let captured = gpm_par::try_parallel_map(&unique, |&bench| capture_benchmark(bench, config))?;
    Ok(combo
        .benchmarks()
        .iter()
        .map(|b| {
            let slot = unique.iter().position(|u| u == b).expect("captured above");
            captured[slot].clone()
        })
        .collect())
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

    fn assert_rejected(config: &CaptureConfig, parameter: &str) {
        match capture_benchmark(SpecBenchmark::Gcc, config) {
            Err(GpmError::InvalidConfig { parameter: p, .. }) => assert_eq!(p, parameter),
            other => panic!("expected `{parameter}` to be rejected, got {other:?}"),
        }
    }

    #[test]
    fn rejects_degenerate_delta() {
        // 1e-7 µs is positive but shorter than one core cycle at every mode.
        for delta in [0.0, -50.0, f64::NAN, f64::INFINITY, 1e-7] {
            let config = CaptureConfig {
                delta: Micros::new(delta),
                ..fast_config()
            };
            assert_rejected(&config, "delta");
        }
    }

    #[test]
    fn rejects_degenerate_duration_limit() {
        for limit in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert_rejected(
                &CaptureConfig::fast_duration(Micros::new(limit)),
                "duration_limit",
            );
        }
    }

    #[test]
    fn rejects_degenerate_margin() {
        for margin in [-0.01, f64::NAN, f64::INFINITY] {
            let config = CaptureConfig {
                margin,
                ..fast_config()
            };
            assert_rejected(&config, "margin");
        }
    }

    /// Captures `bench` at window lengths 1, 7, `extra` and the production
    /// length, asserting the traces are identical; returns them.
    fn assert_window_independent(
        bench: SpecBenchmark,
        config: &CaptureConfig,
        extra: impl Fn(&BenchmarkTraces) -> Vec<usize>,
    ) -> BenchmarkTraces {
        let reference = capture_windowed(bench, config, WINDOW_OPS).unwrap();
        for window in [1, 7].into_iter().chain(extra(&reference)) {
            let traces = capture_windowed(bench, config, window).unwrap();
            assert_eq!(traces, reference, "{} at window {window}", bench.name());
        }
        reference
    }

    /// The op position at which sample `i` of `mode` ends.
    fn sample_end(t: &BenchmarkTraces, mode: PowerMode, i: usize) -> usize {
        t.trace(mode).samples()[i].instructions_end as usize
    }

    #[test]
    fn traces_do_not_depend_on_window_length() {
        // Instruction-limited. Windows sized to end exactly where a Turbo
        // and an Eff2 interval end put an interval close on the last op of
        // a window (the measured pass counts ops from 0, so a sample's
        // `instructions_end` is its closing op position).
        let limited = CaptureConfig {
            warmup_cycles: 20_000,
            ..CaptureConfig::fast(120_000)
        };
        assert_window_independent(SpecBenchmark::Gcc, &limited, |t| {
            vec![
                sample_end(t, PowerMode::Turbo, 0),
                sample_end(t, PowerMode::Eff2, 1),
            ]
        });

        // Duration-limited: Eff1/Eff2 overshoot while Turbo runs and are cut
        // back to the Turbo-derived target.
        let timed = CaptureConfig {
            warmup_cycles: 20_000,
            ..CaptureConfig::fast_duration(Micros::new(300.0))
        };
        assert_window_independent(SpecBenchmark::Art, &timed, |t| {
            vec![sample_end(t, PowerMode::Eff1, 1)]
        });
    }

    #[test]
    fn eff_target_past_turbo_end_is_window_independent() {
        // Intervals of a few hundred ops and no proportional margin put the
        // resolved Eff target (region + 1000) past the last op Turbo
        // consumed, so the Eff lanes keep stepping windows on their own.
        let config = CaptureConfig {
            delta: Micros::new(0.5),
            margin: 0.0,
            warmup_cycles: 5_000,
            ..CaptureConfig::fast_duration(Micros::new(20.0))
        };
        let t = assert_window_independent(SpecBenchmark::Mcf, &config, |_| Vec::new());
        let target = config.margined(t.total_instructions());
        assert!(target > t.trace(PowerMode::Turbo).total_instructions());
        for mode in [PowerMode::Eff1, PowerMode::Eff2] {
            let samples = t.trace(mode).samples();
            assert!(samples[samples.len() - 1].instructions_end >= target);
            assert!(samples[samples.len() - 2].instructions_end < target);
        }
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
