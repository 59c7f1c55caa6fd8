//! The simulator workloads: `fig9_cold` (Figure 9 from an empty trace
//! store) and `cmp_full` (full-CMP simulation of a flat 8-way and a
//! clustered 64-way chip). Both ignore the seed: their inputs are the
//! paper's Table 2 combos.

use std::sync::Arc;
use std::time::Instant;

use gpm_cmp::{ClusterTopology, FullCmpOutcome, FullCmpSim, InterconnectConfig, SimParams};
use gpm_core::{evaluate_policy_point, turbo_baseline, MaxBips, Policy, DEFAULT_BUDGETS};
use gpm_experiments::scaling;
use gpm_experiments::ExperimentContext;
use gpm_microarch::CoreConfig;
use gpm_power::{DvfsParams, PowerModel};
use gpm_trace::{BenchmarkTraces, CaptureConfig, CaptureEngine, TraceStore};
use gpm_types::{Micros, ModeCombination, PowerMode, Result};
use gpm_workloads::{combos, SpecBenchmark, WorkloadCombo};

use crate::util::{median, peak_rss_mb, Attribution, Digest};

/// Turbo wall time each `fig9_cold` benchmark region is truncated to: two
/// 500 µs explore intervals, the shortest region whose figure still
/// separates the policies (at one interval every dynamic policy reads 0%).
pub const FIG9_REGION_MS: f64 = 1.0;

/// Pinned digest of the 12 captured benchmarks' traces (every sample of
/// every mode) under the `fig9_cold` capture configuration.
pub const FIG9_TRACES_DIGEST: u64 = 0xed11_8ce7_cc47_451d;
/// Pinned digest of the rendered Figure 9 text.
pub const FIG9_FIGURE_DIGEST: u64 = 0xf8c0_cffe_3e90_5fcb;

/// Simulated microseconds of the flat 8-way chip per `cmp_full` unit.
pub const FLAT8_US: f64 = 400.0;
/// Simulated microseconds of the clustered 64-way chip per unit.
pub const CLUSTERED64_US: f64 = 60.0;
/// Simulated microseconds of the warm slice each chip runs in set-up.
pub const WARM_US: f64 = 20.0;
/// The simulator's synchronisation quantum (its default).
pub const QUANTUM_US: f64 = 5.0;

/// Pinned digest of one `cmp_full` unit's two outcomes.
pub const CMP_DIGEST: u64 = 0x93a9_768c_b6e2_f25e;

/// Result of one unit of a simulator workload.
pub struct SimUnit {
    /// Set-up seconds.
    pub setup_s: f64,
    /// Seconds of the measured work.
    pub op_s: f64,
    /// Simulated instructions in the measured work.
    pub instructions: u64,
    /// Process peak resident set at the end of the measured work, MiB.
    pub peak_rss_mb: f64,
    /// Whether the outputs matched their pinned digests.
    pub digests_match: bool,
    /// The digests, printed so a deliberate model change can re-pin them.
    pub digests: Vec<(&'static str, u64, u64)>,
}

fn fig9_config(engine: CaptureEngine) -> CaptureConfig {
    CaptureConfig {
        engine,
        ..CaptureConfig::fast_duration(Micros::from_millis(FIG9_REGION_MS))
    }
}

/// An experiment context over a fresh, empty, in-memory trace store.
fn fresh_context(engine: CaptureEngine) -> ExperimentContext {
    ExperimentContext::new(
        TraceStore::new(fig9_config(engine)),
        SimParams::default(),
        DEFAULT_BUDGETS.to_vec(),
    )
}

/// `fig9_cold` set-up is timed over batches of this many fresh contexts:
/// one build takes about 100 ns, too little to time alone.
const SETUP_BATCH: usize = 64;
/// Timed set-up batches per `fig9_cold` unit.
const SETUP_BATCHES: usize = 31;

/// Set-up of a `fig9_cold` unit: a fresh context over an empty store,
/// built [`SETUP_BATCHES`] × [`SETUP_BATCH`] times; returns one context
/// and the median over batches of the seconds per build.
fn fig9_setup() -> (ExperimentContext, f64) {
    let mut seconds = Vec::with_capacity(SETUP_BATCHES);
    let mut batch = Vec::with_capacity(SETUP_BATCH);
    for _ in 0..SETUP_BATCHES {
        batch.clear();
        let start = Instant::now();
        for _ in 0..SETUP_BATCH {
            batch.push(fresh_context(CaptureEngine::default()));
        }
        seconds.push(start.elapsed().as_secs_f64() / SETUP_BATCH as f64);
    }
    let ctx = batch.pop().expect("a batch is never empty");
    (ctx, median(&seconds).unwrap_or(f64::NAN))
}

/// The distinct benchmarks of the four 4-way combos, in first-use order.
fn fig9_benchmarks() -> Vec<SpecBenchmark> {
    let mut unique = Vec::new();
    for combo in combos::four_way_suite() {
        for &bench in combo.benchmarks() {
            if !unique.contains(&bench) {
                unique.push(bench);
            }
        }
    }
    unique
}

fn digest_traces(traces: &[Arc<BenchmarkTraces>]) -> (u64, u64) {
    let mut digest = Digest::default();
    let mut instructions = 0;
    for t in traces {
        digest.bytes(t.name().as_bytes());
        digest.word(t.total_instructions());
        for mode in PowerMode::ALL {
            let trace = t.trace(mode);
            instructions += trace.total_instructions();
            for s in trace.samples() {
                digest.word(s.instructions_end);
                digest.float(s.power_w);
                digest.float(s.bips);
            }
        }
    }
    (digest.value(), instructions)
}

fn digest_text(text: &str) -> u64 {
    let mut digest = Digest::default();
    digest.bytes(text.as_bytes());
    digest.value()
}

fn store_traces(ctx: &ExperimentContext) -> Result<Vec<Arc<BenchmarkTraces>>> {
    fig9_benchmarks()
        .into_iter()
        .map(|b| ctx.store().get(b))
        .collect()
}

/// Capture warm-up against all core stepping of `traces`: the warm-up
/// cycles (stepped and timed, but not counted as instructions) and the
/// total cycles stepped, warm-up included, over every benchmark and mode.
fn warmup_cycles(traces: &[Arc<BenchmarkTraces>], config: &CaptureConfig) -> (u64, u64) {
    let (mut warm, mut total) = (0, 0);
    for t in traces {
        for mode in PowerMode::ALL {
            let delta = config.dvfs.frequency(mode).cycles_in(config.delta).value();
            let region = t.trace(mode).samples().len() as u64 * delta;
            warm += config.warmup_cycles;
            total += config.warmup_cycles + region;
        }
    }
    (warm, total)
}

/// One `fig9_cold` unit: set-up, then Figure 9 from the empty store to
/// rendered text; the traces and the text are checked against their
/// pinned digests afterwards.
///
/// # Errors
///
/// Propagates capture and simulation errors.
pub fn fig9_unit() -> Result<SimUnit> {
    let (ctx, setup_s) = fig9_setup();
    let start = Instant::now();
    let figure = scaling::fig9(&ctx)?;
    let text = figure.render();
    let op_s = start.elapsed().as_secs_f64();
    std::hint::black_box(&text);
    let peak_rss_mb = peak_rss_mb().unwrap_or(f64::NAN);

    let (traces_digest, instructions) = digest_traces(&store_traces(&ctx)?);
    let figure_digest = digest_text(&text);
    Ok(SimUnit {
        setup_s,
        op_s,
        instructions,
        peak_rss_mb,
        digests_match: traces_digest == FIG9_TRACES_DIGEST && figure_digest == FIG9_FIGURE_DIGEST,
        digests: vec![
            ("fig9.traces", traces_digest, FIG9_TRACES_DIGEST),
            ("fig9.figure", figure_digest, FIG9_FIGURE_DIGEST),
        ],
    })
}

fn all_turbo(combo: &WorkloadCombo) -> ModeCombination {
    ModeCombination::uniform(combo.cores(), PowerMode::Turbo)
}

/// Builds the two `cmp_full` chips, all cores at Turbo: the 8-way mixed
/// combo on a flat shared L2, and the 64-way mixed combo on 8-core
/// clusters joined by the default interconnect.
fn cmp_chips() -> Result<(FullCmpSim, FullCmpSim)> {
    let core = CoreConfig::power4();
    let eight = combos::eight_way_mixed();
    let flat = FullCmpSim::new(
        &eight,
        &all_turbo(&eight),
        &core,
        PowerModel::power4_calibrated(),
        DvfsParams::paper(),
    )?;
    let wide = combos::sixty_four_way_mixed();
    let clustered = FullCmpSim::with_topology(
        &wide,
        &all_turbo(&wide),
        &core,
        PowerModel::power4_calibrated(),
        DvfsParams::paper(),
        ClusterTopology::for_cores(64, 8)?,
        InterconnectConfig::default(),
    )?;
    Ok((flat, clustered))
}

fn digest_outcome(digest: &mut Digest, outcome: &FullCmpOutcome) {
    for core in &outcome.per_core {
        digest.bytes(core.benchmark.as_bytes());
        digest.word(core.mode.index() as u64);
        digest.word(core.instructions);
        digest.float(core.power.value());
        digest.float(core.bips.value());
        digest.word(core.l2_misses);
    }
    digest.float(outcome.duration.value());
    digest.float(outcome.l2_utilization);
    digest.float(outcome.interconnect_utilization);
}

fn instructions(outcome: &FullCmpOutcome) -> u64 {
    outcome.per_core.iter().map(|c| c.instructions).sum()
}

/// Set-up of a `cmp_full` unit: both chips built and warmed by a slice.
fn cmp_setup() -> Result<(FullCmpSim, FullCmpSim)> {
    let (mut flat, mut clustered) = cmp_chips()?;
    std::hint::black_box(flat.run(Micros::new(WARM_US)));
    std::hint::black_box(clustered.run(Micros::new(WARM_US)));
    Ok((flat, clustered))
}

/// One `cmp_full` unit: set-up, then the fixed simulated time on each
/// chip; the outcomes are checked against the pinned digest.
///
/// # Errors
///
/// Propagates configuration errors.
pub fn cmp_unit() -> Result<SimUnit> {
    let setup_start = Instant::now();
    let (mut flat, mut clustered) = cmp_setup()?;
    let setup_s = setup_start.elapsed().as_secs_f64();
    let start = Instant::now();
    let a = flat.run(Micros::new(FLAT8_US));
    let b = clustered.run(Micros::new(CLUSTERED64_US));
    let op_s = start.elapsed().as_secs_f64();
    let peak_rss_mb = peak_rss_mb().unwrap_or(f64::NAN);
    let mut digest = Digest::default();
    digest_outcome(&mut digest, &a);
    digest_outcome(&mut digest, &b);
    Ok(SimUnit {
        setup_s,
        op_s,
        instructions: instructions(&a) + instructions(&b),
        peak_rss_mb,
        digests_match: digest.value() == CMP_DIGEST,
        digests: vec![("cmp.outcomes", digest.value(), CMP_DIGEST)],
    })
}

/// Per-layer result of a traced simulator workload.
pub struct SimLayers {
    /// The attribution table.
    pub table: Attribution,
    /// Lines printed under the table.
    pub notes: Vec<String>,
    /// Named per-layer metrics: (name, value, unit).
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Units run (untraced and traced).
    pub attempted: u64,
    /// Units whose outputs failed a digest check.
    pub failed: u64,
}

/// Traced `fig9_cold`: one untraced figure, then the same figure with the
/// capture (`TraceStore::warm_up`), sweep (`scaling::fig9` over the
/// captured traces) and render phases timed separately, then a capture
/// with the scalar engine for the lanes-vs-scalar ratio.
///
/// # Errors
///
/// Propagates capture and simulation errors.
pub fn fig9_traced() -> Result<SimLayers> {
    let untraced = fig9_unit()?;
    let mut failed = u64::from(!untraced.digests_match);

    let ctx = fresh_context(CaptureEngine::default());
    let benches = fig9_benchmarks();
    let start = Instant::now();
    ctx.store().warm_up(&benches)?;
    let captured = Instant::now();
    let figure = scaling::fig9(&ctx)?;
    let swept = Instant::now();
    let text = figure.render();
    let rendered = Instant::now();
    let capture_s = (captured - start).as_secs_f64();
    let sweep_s = (swept - captured).as_secs_f64();
    let render_s = (rendered - swept).as_secs_f64();
    let traces = store_traces(&ctx)?;
    let (traces_digest, instructions) = digest_traces(&traces);
    failed +=
        u64::from(traces_digest != FIG9_TRACES_DIGEST || digest_text(&text) != FIG9_FIGURE_DIGEST);
    let (warm_cycles, stepped_cycles) = warmup_cycles(&traces, ctx.store().config());

    // One policy point on the first combo, per budget: the manager loop
    // over the trace-driven CMP simulator.
    let suite = combos::four_way_suite();
    let combo_traces = ctx.traces(&suite[0])?;
    let baseline = turbo_baseline(&combo_traces, ctx.params())?;
    let point_start = Instant::now();
    for &budget in ctx.budgets() {
        let make = || Box::new(MaxBips::new()) as Box<dyn Policy>;
        std::hint::black_box(evaluate_policy_point(
            &combo_traces,
            ctx.params(),
            budget,
            &baseline,
            &make,
        )?);
    }
    let policy_point_us = point_start.elapsed().as_secs_f64() * 1e6 / ctx.budgets().len() as f64;

    let scalar = fresh_context(CaptureEngine::Scalar);
    let scalar_start = Instant::now();
    scalar.store().warm_up(&benches)?;
    let scalar_s = scalar_start.elapsed().as_secs_f64();
    let (scalar_digest, _) = digest_traces(&store_traces(&scalar)?);
    failed += u64::from(scalar_digest != FIG9_TRACES_DIGEST);

    let table = Attribution {
        workload: "fig9_cold",
        unit: "s per figure",
        traced: (rendered - start).as_secs_f64(),
        untraced: untraced.op_s,
        parts: vec![
            ("trace.capture_s".to_owned(), capture_s),
            ("experiments.sweep_s".to_owned(), sweep_s),
            ("fig9.render_s".to_owned(), render_s),
        ],
        views: vec![("trace.capture_s, scalar engine".to_owned(), scalar_s)],
    };
    let metrics = vec![
        ("trace.capture_s".to_owned(), capture_s, "s"),
        (
            "trace.capture_mips".to_owned(),
            instructions as f64 / capture_s / 1e6,
            "MIPS",
        ),
        (
            "trace.capture_mips_scalar".to_owned(),
            instructions as f64 / scalar_s / 1e6,
            "MIPS",
        ),
        (
            "trace.instructions".to_owned(),
            instructions as f64,
            "count",
        ),
        ("experiments.sweep_s".to_owned(), sweep_s, "s"),
        ("core.policy_point_us".to_owned(), policy_point_us, "us"),
        ("fig9.render_s".to_owned(), render_s, "s"),
        (
            "fig9.trace_overhead_ratio".to_owned(),
            table.overhead_ratio(),
            "ratio",
        ),
    ];
    Ok(SimLayers {
        table,
        notes: vec![format!(
            "capture warm-up: {warm_cycles} of {stepped_cycles} core cycles stepped ({:.1}%) \
             are warm-up, timed in trace.capture_s but not counted in trace.instructions",
            100.0 * warm_cycles as f64 / stepped_cycles as f64
        )],
        metrics,
        attempted: 3,
        failed,
    })
}

/// Runs `sim` for `duration` one quantum per `run` call; returns the
/// loop's seconds, the per-call microseconds and the simulated
/// instructions.
fn run_by_quantum(sim: &mut FullCmpSim, duration: f64) -> (f64, Vec<f64>, u64) {
    let quanta = (duration / QUANTUM_US).ceil() as usize;
    let mut per_call = Vec::with_capacity(quanta);
    let mut retired = 0;
    let start = Instant::now();
    for _ in 0..quanta {
        let call = Instant::now();
        let outcome = sim.run(Micros::new(QUANTUM_US));
        per_call.push(call.elapsed().as_secs_f64() * 1e6);
        retired += instructions(&outcome);
    }
    (start.elapsed().as_secs_f64(), per_call, retired)
}

/// Traced `cmp_full`: one untraced unit, then the same simulated time on
/// fresh chips with `run` called one quantum at a time. The parts are the
/// summed `run` calls per chip; the residual is the per-quantum loop
/// around them.
///
/// # Errors
///
/// Propagates configuration errors.
pub fn cmp_traced() -> Result<SimLayers> {
    let untraced = cmp_unit()?;
    let failed = u64::from(!untraced.digests_match);
    let (mut flat, mut clustered) = cmp_setup()?;
    let (flat_s, flat_calls, flat_instr) = run_by_quantum(&mut flat, FLAT8_US);
    let (wide_s, wide_calls, wide_instr) = run_by_quantum(&mut clustered, CLUSTERED64_US);
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    let seconds = |v: &[f64]| v.iter().sum::<f64>() / 1e6;
    let l2 = flat.shared_l2().expect("the flat chip has one shared L2");
    let icn = clustered
        .interconnect()
        .expect("the clustered chip has an interconnect");
    let table = Attribution {
        workload: "cmp_full",
        unit: "s per unit",
        traced: flat_s + wide_s,
        untraced: untraced.op_s,
        parts: vec![
            ("cmp.flat8_s".to_owned(), seconds(&flat_calls)),
            ("cmp.clustered64_s".to_owned(), seconds(&wide_calls)),
        ],
        views: Vec::new(),
    };
    let metrics = vec![
        (
            "cmp.flat8_mips".to_owned(),
            flat_instr as f64 / flat_s / 1e6,
            "MIPS",
        ),
        (
            "cmp.clustered64_mips".to_owned(),
            wide_instr as f64 / wide_s / 1e6,
            "MIPS",
        ),
        ("cmp.quantum_us.flat8".to_owned(), mean(&flat_calls), "us"),
        (
            "cmp.quantum_us.clustered64".to_owned(),
            mean(&wide_calls),
            "us",
        ),
        ("cmp.l2_accesses".to_owned(), l2.accesses() as f64, "count"),
        (
            "cmp.l2_peak_util".to_owned(),
            l2.peak_utilization(),
            "ratio",
        ),
        (
            "cmp.interconnect_util".to_owned(),
            icn.average_utilization(),
            "ratio",
        ),
        (
            "cmp.trace_overhead_ratio".to_owned(),
            table.overhead_ratio(),
            "ratio",
        ),
    ];
    Ok(SimLayers {
        table,
        notes: Vec::new(),
        metrics,
        attempted: 1,
        failed,
    })
}
