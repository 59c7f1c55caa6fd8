//! Validation experiments.
//!
//! * [`trace_vs_full`] — Section 3.1: the trace-based tool against the
//!   full-CMP (shared-L2) simulation. The paper reports CMP power within
//!   ~5% of (and consistently lower than) single-threaded powers, and
//!   performance lower by ~9% on average, up to ~30% for highly
//!   memory-bound combinations.
//! * [`prediction_error`] — Section 5.5: accuracy of the predictive
//!   Power/BIPS matrices (paper: 0.1–0.3% power error, 2–4% BIPS error).

use gpm_cmp::{FullCmpSim, TraceCmpSim};
use gpm_core::MaxBips;
use gpm_types::{Micros, ModeCombination, PowerMode, Result};
use gpm_workloads::{combos, WorkloadCombo};

use crate::render::{pct2, TextTable};
use crate::ExperimentContext;

/// Per-benchmark comparison between single-threaded traces and the
/// full-CMP run.
#[derive(Debug, Clone, PartialEq)]
pub struct CoreDelta {
    /// Benchmark name.
    pub benchmark: String,
    /// `(CMP power − single power) / single power` (expected ≤ 0, small).
    pub power_delta: f64,
    /// `(CMP BIPS − single BIPS) / single BIPS` (expected ≤ 0; down to
    /// ~−30% for memory-bound workloads).
    pub perf_delta: f64,
}

/// Results of the Section 3.1 validation for one combo.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceVsFull {
    /// Combo label.
    pub combo: String,
    /// Per-core deltas.
    pub cores: Vec<CoreDelta>,
}

impl TraceVsFull {
    /// Mean absolute power delta over the combo.
    #[must_use]
    pub fn mean_abs_power_delta(&self) -> f64 {
        self.cores.iter().map(|c| c.power_delta.abs()).sum::<f64>() / self.cores.len() as f64
    }

    /// Mean performance delta (signed; negative = CMP slower).
    #[must_use]
    pub fn mean_perf_delta(&self) -> f64 {
        self.cores.iter().map(|c| c.perf_delta).sum::<f64>() / self.cores.len() as f64
    }

    /// Largest single-core slowdown (most negative perf delta).
    #[must_use]
    pub fn worst_perf_delta(&self) -> f64 {
        self.cores
            .iter()
            .map(|c| c.perf_delta)
            .fold(f64::INFINITY, f64::min)
    }
}

/// Runs the trace-vs-full-CMP comparison for `combo` over `duration` of
/// wall time, all cores at Turbo.
///
/// # Errors
///
/// Propagates capture and simulation errors.
pub fn trace_vs_full(
    ctx: &ExperimentContext,
    combo: &WorkloadCombo,
    duration: Micros,
) -> Result<TraceVsFull> {
    // Single-threaded references from the captured traces.
    let traces = ctx.traces(combo)?;

    // Full-CMP run with the same core/power/DVFS models and a shared L2.
    let capture = ctx.store().config();
    let mut sim = FullCmpSim::new(
        combo,
        &ModeCombination::uniform(combo.cores(), PowerMode::Turbo),
        &capture.core,
        capture.power,
        capture.dvfs,
    )?;
    let outcome = sim.run(duration);

    let cores = outcome
        .per_core
        .iter()
        .zip(&traces)
        .map(|(cmp, single)| {
            let t = single.trace(PowerMode::Turbo);
            let window = duration.min(t.duration());
            let single_power = t.average_power_until(window).value();
            let single_bips =
                t.instructions_by(window) as f64 / window.to_seconds().value() / 1.0e9;
            CoreDelta {
                benchmark: cmp.benchmark.to_string(),
                power_delta: cmp.power.value() / single_power - 1.0,
                perf_delta: cmp.bips.value() / single_bips - 1.0,
            }
        })
        .collect();

    Ok(TraceVsFull {
        combo: combo.label(),
        cores,
    })
}

/// Runs the Section 3.1 validation over a CPU-bound and a memory-bound
/// 4-way combo.
///
/// # Errors
///
/// Propagates capture and simulation errors.
pub fn run_trace_vs_full(ctx: &ExperimentContext, duration: Micros) -> Result<Vec<TraceVsFull>> {
    let suite = [
        combos::sixtrack_gap_perlbmk_wupwise(),
        combos::ammp_mcf_crafty_art(),
        combos::mcf_mcf_art_art(),
    ];
    // Capture every combo's cold benchmarks in one parallel region.
    let benches: Vec<_> = suite.iter().flat_map(|c| c.benchmarks().to_vec()).collect();
    ctx.store().warm_up(&benches)?;
    suite
        .iter()
        .map(|combo| trace_vs_full(ctx, combo, duration))
        .collect()
}

/// Renders a set of [`TraceVsFull`] results.
#[must_use]
pub fn render_trace_vs_full(results: &[TraceVsFull]) -> String {
    let mut t = TextTable::new(["combo", "bench", "ΔPower", "ΔPerf"]);
    for r in results {
        for c in &r.cores {
            t.row([
                r.combo.clone(),
                c.benchmark.clone(),
                pct2(c.power_delta),
                pct2(c.perf_delta),
            ]);
        }
    }
    format!(
        "Validation (Section 3.1): full-CMP (shared L2) vs single-threaded traces\n\
         (paper: power within ~5%, consistently lower; perf ~-9% avg, to -30% memory-bound)\n{}",
        t.render()
    )
}

/// Results of the Section 5.5 prediction-error audit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PredictionError {
    /// Mean relative error of the power predictions.
    pub mean_power_error: f64,
    /// Mean relative error of the BIPS predictions.
    pub mean_bips_error: f64,
    /// Number of (interval, core) prediction samples audited.
    pub samples: usize,
}

/// Audits the predictive matrices against what actually happened, by
/// driving a MaxBIPS run and comparing each interval's prediction for the
/// chosen modes with the subsequent observation.
///
/// # Errors
///
/// Propagates capture and simulation errors.
pub fn prediction_error(
    ctx: &ExperimentContext,
    combo: &WorkloadCombo,
    budget: f64,
) -> Result<PredictionError> {
    use gpm_core::{Policy, PolicyContext, PowerBipsMatrices};
    use gpm_types::{CoreId, Watts};

    let traces = ctx.traces(combo)?;
    let mut sim = TraceCmpSim::new(traces, ctx.params().clone())?;
    let envelope = sim.power_envelope();
    let budget_w = Watts::new(envelope.value() * budget);
    let dvfs = sim.params().dvfs;
    let explore = sim.params().explore;
    let mut policy = MaxBips::new();

    let mut outcome = sim.advance_explore(&sim.modes().clone())?;
    let (mut power_err, mut bips_err, mut samples) = (0.0f64, 0.0f64, 0usize);

    while !sim.finished() {
        let matrices = PowerBipsMatrices::predict(&outcome.observed);
        let modes = {
            let ctx2 = PolicyContext {
                current_modes: sim.modes(),
                matrices: &matrices,
                future: None,
                budget: budget_w,
                dvfs: &dvfs,
                explore,
            };
            policy.decide(&ctx2)
        };
        // Per-core predictions for the chosen modes (BIPS de-rated by the
        // chip-wide transition factor, as the controller computes them).
        let stall_factor = matrices
            .chip_bips_with_transition(sim.modes(), &modes, &dvfs, explore)
            .value()
            / matrices.chip_bips(&modes).value().max(f64::MIN_POSITIVE);
        let predictions: Vec<(f64, f64)> = (0..sim.cores())
            .map(|i| {
                let id = CoreId::new(i);
                let mode = modes.mode(id);
                (
                    matrices.power(id, mode).value(),
                    matrices.bips(id, mode).value() * stall_factor,
                )
            })
            .collect();

        outcome = sim.advance_explore(&modes)?;
        if outcome.duration < explore {
            break; // partial terminal interval: skip the comparison
        }
        for (obs, &(pred_p, pred_b)) in outcome.observed.iter().zip(&predictions) {
            if obs.power.value() > 0.0 && obs.bips.value() > 0.0 {
                power_err += ((pred_p - obs.power.value()) / obs.power.value()).abs();
                bips_err += ((pred_b - obs.bips.value()) / obs.bips.value()).abs();
                samples += 1;
            }
        }
    }

    Ok(PredictionError {
        mean_power_error: power_err / samples.max(1) as f64,
        mean_bips_error: bips_err / samples.max(1) as f64,
        samples,
    })
}

impl PredictionError {
    /// Paper-style text rendering.
    #[must_use]
    pub fn render(&self) -> String {
        format!(
            "Prediction-error audit (Section 5.5; paper: power 0.1-0.3%, BIPS 2-4%)\n\
             mean power error: {}   mean BIPS error: {}   ({} samples)\n",
            pct2(self.mean_power_error),
            pct2(self.mean_bips_error),
            self.samples
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_cmp_is_slower_not_hotter() {
        let ctx = ExperimentContext::fast();
        let results = run_trace_vs_full(&ctx, Micros::from_millis(1.0)).unwrap();
        assert_eq!(results.len(), 3);

        let cpu = &results[0]; // sixtrack|gap|perlbmk|wupwise
        let mem = &results[2]; // mcf|mcf|art|art

        // Power tracks the single-threaded captures closely everywhere.
        for r in &results {
            assert!(
                r.mean_abs_power_delta() < 0.08,
                "{}: power delta {}",
                r.combo,
                r.mean_abs_power_delta()
            );
        }
        // Memory-bound combos lose clearly more performance to the shared
        // L2 than CPU-bound ones.
        assert!(
            mem.mean_perf_delta() < cpu.mean_perf_delta(),
            "mem {} vs cpu {}",
            mem.mean_perf_delta(),
            cpu.mean_perf_delta()
        );
        assert!(
            mem.worst_perf_delta() < -0.05,
            "memory-bound worst delta {}",
            mem.worst_perf_delta()
        );
        // CPU-bound combos barely notice.
        assert!(
            cpu.mean_perf_delta() > -0.10,
            "cpu combo should be mildly affected: {}",
            cpu.mean_perf_delta()
        );

        let text = render_trace_vs_full(&results);
        assert!(text.contains("ΔPerf"));
    }

    #[test]
    fn matrix_predictions_are_accurate() {
        let ctx = ExperimentContext::fast();
        let err = prediction_error(&ctx, &combos::ammp_mcf_crafty_art(), 0.8).unwrap();
        assert!(
            err.samples >= 12,
            "need enough samples, got {}",
            err.samples
        );
        // Power predictions are very tight (cubic scaling is exact up to
        // activity drift); BIPS sees phase-change noise.
        assert!(
            err.mean_power_error < 0.02,
            "power error {}",
            err.mean_power_error
        );
        assert!(
            err.mean_bips_error < 0.10,
            "BIPS error {}",
            err.mean_bips_error
        );
        assert!(
            err.mean_power_error < err.mean_bips_error,
            "power is the better-predicted quantity"
        );
        assert!(err.render().contains("samples"));
    }
}
