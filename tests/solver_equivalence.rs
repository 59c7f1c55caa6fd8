//! The exact solver's contract: `solver::solve` returns the *bit-identical*
//! argmax of the paper's exhaustive 3^N scan — same combination, same
//! first-strict-max tie-breaking — for every matrix, budget and starting
//! assignment. The branch-and-bound is only allowed to be faster, never
//! different — including when a thread's reused solver scratch last held
//! a problem of another width.

use std::sync::{Arc, Mutex};

use gpm::cmp::{SimParams, TraceCmpSim};
use gpm::core::{solver, BudgetSchedule, GlobalManager, MaxBips, PowerBipsMatrices};
use gpm::power::DvfsParams;
use gpm::trace::{BenchmarkTraces, ModeTrace, TraceSample};
use gpm::types::{splitmix64, Micros, ModeCombination, ModeOdometer, PowerMode, Watts};
use proptest::prelude::*;

/// Serialises the tests that touch the process-wide thread override (the
/// integration-test harness runs `#[test]` functions concurrently).
static THREADS_LOCK: Mutex<()> = Mutex::new(());

fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    gpm::par::set_max_threads(Some(n));
    let out = f();
    gpm::par::set_max_threads(None);
    out
}

fn paper_ctx() -> (DvfsParams, Micros) {
    (DvfsParams::paper(), Micros::new(500.0))
}

/// Builds exact cubic/linear matrices from per-core Turbo (power, bips)
/// rows — the same construction the manager's predictor uses.
fn matrices(rows: &[(f64, f64)]) -> PowerBipsMatrices {
    PowerBipsMatrices::from_rows(
        rows.iter()
            .map(|&(p, _)| PowerMode::ALL.map(|m| p * m.power_scale()))
            .collect(),
        rows.iter()
            .map(|&(_, b)| PowerMode::ALL.map(|m| b * m.bips_scale_bound()))
            .collect(),
    )
}

fn assert_solver_matches_scan(m: &PowerBipsMatrices, current: &ModeCombination, budget: Watts) {
    let (dvfs, explore) = paper_ctx();
    let want = solver::exhaustive(m, current, budget, &dvfs, explore);
    let got = solver::solve(m, current, budget, &dvfs, explore);
    assert_eq!(
        got, want,
        "solver diverged from the scan at budget {budget} (current {current})"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Randomised matrices, budgets and starting modes, N <= 8: the
    /// branch-and-bound returns the scan's combination exactly.
    #[test]
    fn solver_matches_exhaustive_scan(
        rows in prop::collection::vec((8.0f64..30.0, 0.1f64..3.0), 1..=8),
        budget_frac in 0.3f64..1.1,
        current_seed in 0usize..6561,
    ) {
        let m = matrices(&rows);
        let cores = rows.len();
        let turbo_power: f64 = rows.iter().map(|&(p, _)| p).sum();
        let budget = Watts::new(turbo_power * budget_frac);
        // Derive a starting assignment from the seed in base 3 so that
        // every transition-stall class gets exercised.
        let current: ModeCombination = (0..cores)
            .map(|c| PowerMode::ALL[current_seed / 3usize.pow(c as u32) % 3])
            .collect();
        assert_solver_matches_scan(&m, &current, budget);
    }

    /// Near-duplicate cores force objective plateaus; the first-strict-max
    /// tie-break must still pick the scan's (earliest-enumerated) winner.
    #[test]
    fn solver_breaks_ties_like_the_scan(
        power in 8.0f64..30.0,
        bips in 0.1f64..3.0,
        cores in 2usize..=6,
        budget_frac in 0.3f64..1.05,
    ) {
        let rows = vec![(power, bips); cores];
        let m = matrices(&rows);
        let budget = Watts::new(power * cores as f64 * budget_frac);
        let current = ModeCombination::uniform(cores, PowerMode::Turbo);
        assert_solver_matches_scan(&m, &current, budget);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// One thread solving a random sequence of 1- to 8-way problems back
    /// to back (and every proptest case on the same thread after it): the
    /// per-thread solver scratch carries nothing from one solve into the
    /// next, so every answer is the scan's.
    #[test]
    fn back_to_back_solves_on_one_thread_match_the_scan(
        problems in prop::collection::vec(
            (
                prop::collection::vec((8.0f64..30.0, 0.1f64..3.0), 1..=8),
                0.3f64..1.1,
                0usize..6561,
            ),
            2..10,
        ),
    ) {
        for (rows, budget_frac, current_seed) in problems {
            let turbo_power: f64 = rows.iter().map(|&(p, _)| p).sum();
            let current: ModeCombination = (0..rows.len())
                .map(|c| PowerMode::ALL[current_seed / 3usize.pow(c as u32) % 3])
                .collect();
            assert_solver_matches_scan(&matrices(&rows), &current, Watts::new(turbo_power * budget_frac));
        }
    }
}

/// A seeded `cores`-way problem with a mixed current assignment and a
/// budget at 75% of all-Turbo power.
fn seeded_problem(cores: usize, seed: u64) -> (PowerBipsMatrices, ModeCombination, Watts) {
    let draws: Vec<u64> = (0..cores as u64)
        .map(|core| splitmix64(seed ^ splitmix64(core)))
        .collect();
    let rows: Vec<(f64, f64)> = draws
        .iter()
        .map(|&r| {
            (
                8.0 + (r % 1009) as f64 / 1009.0 * 22.0,
                0.1 + ((r >> 20) % 1013) as f64 / 1013.0 * 2.9,
            )
        })
        .collect();
    let current = draws
        .iter()
        .map(|&r| PowerMode::ALL[(r >> 40) as usize % 3])
        .collect();
    let budget = Watts::new(0.75 * rows.iter().map(|&(p, _)| p).sum::<f64>());
    (matrices(&rows), current, budget)
}

/// 16- and 32-way solves on a thread whose scratch earlier solves left at
/// other widths equal the same solves on a fresh thread — same
/// combination, same search effort.
#[test]
fn wide_solves_on_a_used_scratch_match_a_fresh_thread() {
    let (dvfs, explore) = paper_ctx();
    for (cores, seed) in [(32, 1), (8, 2), (16, 3), (32, 4), (3, 5)] {
        let (m, current, budget) = seeded_problem(cores, seed);
        let _ = solver::solve(&m, &current, budget, &dvfs, explore);
    }
    for cores in [16, 32] {
        for seed in 10..14 {
            let (m, current, budget) = seeded_problem(cores, seed);
            let (here, here_stats) = solver::solve_with_stats(&m, &current, budget, &dvfs, explore);
            let (fresh, fresh_stats) = std::thread::spawn(move || {
                let (dvfs, explore) = paper_ctx();
                solver::solve_with_stats(&m, &current, budget, &dvfs, explore)
            })
            .join()
            .expect("fresh-thread solve");
            assert_eq!(here, fresh, "{cores}-way seed {seed}");
            assert_eq!(
                here_stats.nodes, fresh_stats.nodes,
                "{cores}-way seed {seed}"
            );
            assert_eq!(
                here_stats.leaves, fresh_stats.leaves,
                "{cores}-way seed {seed}"
            );
        }
    }
}

/// Hand-crafted plateau: every core identical *and* zero BIPS spread
/// across modes, so all 3^N combinations under the budget tie exactly.
/// The winner must be the scan's first feasible combination.
#[test]
fn crafted_tie_cases_pick_the_earliest_combo() {
    let (dvfs, explore) = paper_ctx();
    // Zero BIPS spread: BIPS identical in every mode, power still cubic.
    let m = PowerBipsMatrices::from_rows(
        vec![PowerMode::ALL.map(|md| 20.0 * md.power_scale()); 4],
        vec![[1.0, 1.0, 1.0]; 4],
    );
    let current = ModeCombination::uniform(4, PowerMode::Turbo);
    for pct in [30, 50, 70, 85, 100] {
        let budget = Watts::new(80.0 * pct as f64 / 100.0);
        let want = solver::exhaustive(&m, &current, budget, &dvfs, explore);
        let got = solver::solve(&m, &current, budget, &dvfs, explore);
        assert_eq!(got, want, "tie at {pct}% budget");
    }
    // Fully-feasible plateau: everything ties, the scan's first candidate
    // (all-Turbo, rank 0) must win.
    let all_turbo = solver::solve(&m, &current, Watts::new(1000.0), &dvfs, explore);
    assert!(all_turbo
        .as_slice()
        .iter()
        .all(|&md| md == PowerMode::Turbo));
}

/// A budget below even the all-Eff2 floor: the solver must fall back to
/// the minimum-power assignment, exactly like the scan's fallback arm.
#[test]
fn infeasible_budget_returns_all_eff2() {
    let (dvfs, explore) = paper_ctx();
    let m = matrices(&[(25.0, 2.0), (18.0, 1.1), (12.0, 0.4)]);
    let current = ModeCombination::uniform(3, PowerMode::Turbo);
    let budget = Watts::new(0.5); // below any mode's chip power
    let got = solver::solve(&m, &current, budget, &dvfs, explore);
    assert!(got.as_slice().iter().all(|&md| md == PowerMode::Eff2));
    assert_eq!(
        got,
        solver::exhaustive(&m, &current, budget, &dvfs, explore)
    );
}

/// The parallel reference scan (`exhaustive_chunked`) is pool-width
/// independent and agrees with both the serial scan and the solver.
#[test]
fn chunked_scan_is_pool_width_independent() {
    let _guard = THREADS_LOCK.lock().unwrap();
    let (dvfs, explore) = paper_ctx();
    let rows: Vec<(f64, f64)> = (0..7)
        .map(|i| {
            (
                12.0 + (i * 7 % 11) as f64 * 1.3,
                0.4 + (i * 5 % 9) as f64 * 0.35,
            )
        })
        .collect();
    let m = matrices(&rows);
    let current: ModeCombination = (0..7).map(|i| PowerMode::ALL[i % 3]).collect();
    let budget = Watts::new(0.75 * rows.iter().map(|r| r.0).sum::<f64>());
    let serial = solver::exhaustive(&m, &current, budget, &dvfs, explore);
    for threads in [1, 2, 8] {
        let chunked = with_threads(threads, || {
            solver::exhaustive_chunked(&m, &current, budget, &dvfs, explore, threads)
        });
        assert_eq!(chunked, serial, "pool width {threads}");
    }
    assert_eq!(solver::solve(&m, &current, budget, &dvfs, explore), serial);
}

/// The odometer the scan and the chunked ranges ride on really enumerates
/// ranks in the scan's order (core 0 = most significant base-3 digit).
#[test]
fn odometer_rank_seeding_matches_enumeration() {
    let total = 3usize.pow(4);
    let mut odo = ModeOdometer::new(4);
    for rank in 0..total {
        let seeded = ModeOdometer::from_rank(4, rank);
        assert_eq!(seeded.current(), odo.current(), "rank {rank}");
        let more = odo.advance();
        assert_eq!(more, rank + 1 < total);
    }
}

/// Synthetic constant-rate trace set, so the 16-core run below needs no
/// capture: linear BIPS scaling, cubic power scaling across modes.
fn synthetic(name: &str, total: u64, bips: f64, power: f64) -> Arc<BenchmarkTraces> {
    let delta = Micros::new(50.0);
    let delta_s = delta.to_seconds().value();
    let traces = PowerMode::ALL
        .map(|mode| {
            let b = bips * mode.bips_scale_bound();
            let p = power * mode.power_scale();
            let per_delta = b * 1.0e9 * delta_s;
            let samples: Vec<TraceSample> = (1..=400)
                .map(|k| TraceSample {
                    instructions_end: (per_delta * k as f64).round() as u64,
                    power_w: p,
                    bips: b,
                })
                .collect();
            ModeTrace::new(mode, delta, samples)
        })
        .to_vec();
    Arc::new(BenchmarkTraces::new(name, total, traces).unwrap())
}

/// A full 16-way MaxBIPS run — every decision answered by the
/// branch-and-bound — is bit-identical for any worker-pool width. The
/// solver itself is serial; this pins that nothing on the decision path
/// picked up a pool-width dependence while the capture/step layers fan out.
#[test]
fn sixteen_way_run_is_bit_identical_across_pool_widths() {
    let _guard = THREADS_LOCK.lock().unwrap();
    let traces: Vec<Arc<BenchmarkTraces>> = (0..16)
        .map(|i| {
            let bips = 0.4 + (i * 5 % 9) as f64 * 0.3;
            let power = 12.0 + (i * 7 % 11) as f64 * 1.2;
            // ~3 ms of work per core so the run spans several intervals.
            let total = (bips * 1.0e9 * 0.003) as u64;
            synthetic(&format!("core{i}"), total, bips, power)
        })
        .collect();
    let run_with = |threads: usize| {
        with_threads(threads, || {
            let sim = TraceCmpSim::new(traces.clone(), SimParams::default()).unwrap();
            GlobalManager::new()
                .run(sim, &mut MaxBips::new(), &BudgetSchedule::constant(0.8))
                .unwrap()
        })
    };
    let one = run_with(1);
    for threads in [2, 8] {
        let wide = run_with(threads);
        assert_eq!(one.records, wide.records, "pool width {threads}");
        assert_eq!(one.per_core_instructions, wide.per_core_instructions);
        assert_eq!(one.duration, wide.duration);
    }
}
