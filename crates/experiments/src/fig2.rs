//! Figure 2 — measured ΔPowerSavings : ΔPerformanceDegradation for DVFS,
//! per benchmark and over the whole suite.
//!
//! The paper's method (Section 4): run each benchmark natively at each mode,
//! quantify performance degradation by elapsed execution time normalised to
//! Turbo, and average over the suite. sixtrack is the upper-bound corner
//! (CPU-bound, paper: 17.3% at Eff2), mcf the lower bound (memory-bound,
//! paper: 3.7%).

use gpm_types::{PowerMode, Result};
use gpm_workloads::SpecBenchmark;

use crate::render::{pct, TextTable};
use crate::ExperimentContext;

/// Power saving and performance degradation of one benchmark at one mode.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModeTradeoff {
    /// The mode measured (Eff1 or Eff2).
    pub mode: PowerMode,
    /// Power saving relative to Turbo.
    pub power_saving: f64,
    /// Elapsed-time degradation relative to Turbo.
    pub perf_degradation: f64,
}

/// Figure 2's data: per-benchmark tradeoffs plus the suite average.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig2 {
    /// `(benchmark name, [Eff1, Eff2] tradeoffs)`.
    pub per_benchmark: Vec<(String, [ModeTradeoff; 2])>,
    /// Suite-average tradeoffs (normalised execution times averaged over
    /// the pool, as the paper does).
    pub overall: [ModeTradeoff; 2],
}

/// Runs the Figure 2 experiment over all 12 benchmarks.
///
/// # Errors
///
/// Propagates capture errors.
pub fn run(ctx: &ExperimentContext) -> Result<Fig2> {
    let mut per_benchmark = Vec::with_capacity(SpecBenchmark::ALL.len());
    let mut sums = [[0.0f64; 2]; 2]; // [mode][saving, degradation]

    // Capture cold benchmarks in parallel before the serial reduction.
    ctx.store().warm_up(&SpecBenchmark::ALL)?;
    for bench in SpecBenchmark::ALL {
        let traces = ctx.store().get(bench)?;
        let turbo_time = traces
            .completion_time(PowerMode::Turbo)
            .expect("capture covers the region");
        let turbo_power = traces.trace(PowerMode::Turbo).average_power();

        let mut rows = [ModeTradeoff {
            mode: PowerMode::Eff1,
            power_saving: 0.0,
            perf_degradation: 0.0,
        }; 2];
        for (slot, mode) in [PowerMode::Eff1, PowerMode::Eff2].into_iter().enumerate() {
            let time = traces
                .completion_time(mode)
                .expect("capture covers the region");
            let power = traces.trace(mode).average_power();
            let tradeoff = ModeTradeoff {
                mode,
                power_saving: 1.0 - power / turbo_power,
                perf_degradation: 1.0 - turbo_time / time,
            };
            rows[slot] = tradeoff;
            sums[slot][0] += tradeoff.power_saving;
            sums[slot][1] += tradeoff.perf_degradation;
        }
        per_benchmark.push((bench.name().to_owned(), rows));
    }

    let n = per_benchmark.len() as f64;
    let overall = [
        ModeTradeoff {
            mode: PowerMode::Eff1,
            power_saving: sums[0][0] / n,
            perf_degradation: sums[0][1] / n,
        },
        ModeTradeoff {
            mode: PowerMode::Eff2,
            power_saving: sums[1][0] / n,
            perf_degradation: sums[1][1] / n,
        },
    ];
    Ok(Fig2 {
        per_benchmark,
        overall,
    })
}

impl Fig2 {
    /// The row for one benchmark, if present.
    #[must_use]
    pub fn benchmark(&self, name: &str) -> Option<&[ModeTradeoff; 2]> {
        self.per_benchmark
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, rows)| rows)
    }

    /// Paper-style text rendering (panels a: sixtrack, b: mcf, c: overall,
    /// plus the full per-benchmark table).
    #[must_use]
    pub fn render(&self) -> String {
        let mut t = TextTable::new([
            "bench",
            "Eff1 ΔPower",
            "Eff1 ΔPerf",
            "Eff2 ΔPower",
            "Eff2 ΔPerf",
        ]);
        for (name, rows) in &self.per_benchmark {
            t.row([
                name.clone(),
                pct(rows[0].power_saving),
                pct(rows[0].perf_degradation),
                pct(rows[1].power_saving),
                pct(rows[1].perf_degradation),
            ]);
        }
        t.row([
            "OVERALL".to_owned(),
            pct(self.overall[0].power_saving),
            pct(self.overall[0].perf_degradation),
            pct(self.overall[1].power_saving),
            pct(self.overall[1].perf_degradation),
        ]);
        format!(
            "Figure 2: ΔPowerSavings : ΔPerfDegradation for DVFS\n\
             (paper: sixtrack 14.2%/5.0% Eff1, 38.6%/17.3% Eff2; mcf 14.1%/1.2%, 38.3%/3.7%;\n\
             overall 14.1%/5.1%, 38.3%/12.8%)\n{}",
            t.render()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corner_cases_match_paper_shape() {
        let ctx = ExperimentContext::fast();
        let fig = run(&ctx).unwrap();

        let six = fig.benchmark("sixtrack").unwrap();
        assert!(
            (0.10..=0.18).contains(&six[1].perf_degradation),
            "sixtrack Eff2 degradation {}",
            six[1].perf_degradation
        );
        let mcf = fig.benchmark("mcf").unwrap();
        assert!(
            mcf[1].perf_degradation < 0.07,
            "mcf Eff2 degradation {}",
            mcf[1].perf_degradation
        );
        // Power savings track the cubic estimate for everyone.
        for (name, rows) in &fig.per_benchmark {
            assert!(
                (rows[1].power_saving - 0.386).abs() < 0.03,
                "{name} Eff2 power saving {}",
                rows[1].power_saving
            );
            assert!(
                (rows[0].power_saving - 0.143).abs() < 0.02,
                "{name} Eff1 power saving {}",
                rows[0].power_saving
            );
        }
        // Overall: between the corners, and ratio ≥ 3:1.
        let overall2 = fig.overall[1];
        assert!(overall2.perf_degradation > mcf[1].perf_degradation);
        assert!(overall2.perf_degradation < six[1].perf_degradation + 0.01);
        assert!(
            overall2.power_saving / overall2.perf_degradation >= 2.5,
            "suite-wide ratio {}",
            overall2.power_saving / overall2.perf_degradation
        );

        let text = fig.render();
        assert!(text.contains("OVERALL"));
        assert!(text.contains("sixtrack"));
    }
}
