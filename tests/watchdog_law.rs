//! The one watchdog law, through the public API of each scope that uses
//! it:
//!
//! 1. **Rack backoff resets.** K clean ticks in a row reset the rack
//!    watchdog's hold to its base, as they do on the chip: a second trip
//!    after a clean spell holds `clamp_hold` ticks again, not double.
//! 2. **Parameters are validated.** `GuardRails` and `RackConfig` share one
//!    validator (K ≥ 1, hold ≥ 1, `max_backoff ≥ clamp_hold`); the chip
//!    also refuses a negative or non-finite `stale_margin`.
//! 3. **Rack budgets are validated on every path.** `set_rack_budget`
//!    refuses what `FleetEngine::new` refuses and leaves the engine
//!    unchanged.
//! 4. **Checkpoint layout.** A checkpoint written before the rack state
//!    moved onto the shared watchdog is refused by version, not by a
//!    missing field.

use std::sync::Arc;

use gpm::cmp::{SimParams, TraceCmpSim};
use gpm::core::{
    BudgetSchedule, FleetCheckpoint, FleetConfig, FleetEngine, FleetStats, GlobalManager,
    GuardRails, MaxBips, NodeTelemetry, PowerBipsMatrices, RackConfig, RunOptions,
};
use gpm::net::ShardedEngine;
use gpm::trace::{BenchmarkTraces, ModeTrace, TraceSample};
use gpm::types::{GpmError, Micros, ModeCombination, PowerMode, Watts};

fn telemetry(node: u64, tick: u64) -> NodeTelemetry {
    NodeTelemetry {
        node,
        tick,
        matrices: PowerBipsMatrices::from_rows(
            vec![[20.0, 12.0, 7.0], [18.0, 11.0, 6.5]],
            vec![[2.0, 1.7, 1.4], [1.5, 1.3, 1.1]],
        ),
        current: ModeCombination::uniform(2, PowerMode::Turbo),
        budget: Watts::new(30.0),
    }
}

fn rack_engine(budget: f64) -> FleetEngine {
    FleetEngine::new(FleetConfig {
        rack: Some(RackConfig::new(Watts::new(budget))),
        ..FleetConfig::default()
    })
    .expect("valid config")
}

/// Submits both nodes' reports and runs `tick`, returning whether the
/// rack watchdog clamped it.
fn watchdog_clamped(engine: &mut FleetEngine, tick: u64) -> bool {
    let before = engine.stats().watchdog_clamp_ticks;
    for node in 0..2 {
        assert!(engine.submit(telemetry(node, tick)));
    }
    engine.run_tick(tick);
    engine.stats().watchdog_clamp_ticks > before
}

#[test]
fn rack_watchdog_backoff_resets_after_k_clean_ticks() {
    // Default RackConfig: K = 3, first hold 2, ceiling 32. The budget is
    // unmeetable for ticks 0-3, generous for ticks 4-11 (8 clean ticks,
    // more than K) and unmeetable again from tick 12.
    let mut engine = rack_engine(0.001);
    let mut clamped = Vec::new();
    for tick in 0..20u64 {
        let budget = if (4..12).contains(&tick) { 1e12 } else { 0.001 };
        engine
            .set_rack_budget(Some(Watts::new(budget)))
            .expect("positive budget");
        if watchdog_clamped(&mut engine, tick) {
            clamped.push(tick);
        }
    }
    // First trip at tick 2 holds 2 ticks. After the clean spell the trip
    // at tick 14 holds 2 again; the next trip (tick 18) has doubled.
    assert_eq!(clamped, [2, 3, 14, 15, 18, 19]);
}

/// Builds a constant-rate trace set: `bips` at Turbo, linear BIPS scaling
/// and cubic power scaling across modes.
fn constant_traces(name: &str, bips: f64, power: f64) -> Arc<BenchmarkTraces> {
    let delta = Micros::new(50.0);
    let per_delta = bips * 1.0e9 * delta.to_seconds().value();
    let traces = PowerMode::ALL
        .map(|mode| {
            let samples = (1..=400)
                .map(|k| TraceSample {
                    instructions_end: (per_delta * mode.bips_scale_bound() * f64::from(k)) as u64,
                    power_w: power * mode.power_scale(),
                    bips: bips * mode.bips_scale_bound(),
                })
                .collect();
            ModeTrace::new(mode, delta, samples)
        })
        .to_vec();
    Arc::new(BenchmarkTraces::new(name, 1_000_000, traces).unwrap())
}

fn guarded_run(rails: GuardRails) -> gpm::types::Result<gpm::core::RunResult> {
    let sim = TraceCmpSim::new(
        vec![
            constant_traces("fast", 2.0, 20.0),
            constant_traces("slow", 0.5, 12.0),
        ],
        SimParams::default(),
    )?;
    GlobalManager::new().run_with(
        sim,
        &mut MaxBips::new(),
        &BudgetSchedule::constant(0.8),
        &RunOptions {
            faults: None,
            guards: Some(rails),
        },
    )
}

fn assert_invalid(result: gpm::types::Result<impl std::fmt::Debug>, parameter: &str) {
    match result {
        Err(GpmError::InvalidConfig { parameter: p, .. }) => assert_eq!(p, parameter),
        other => panic!("expected InvalidConfig for {parameter}, got {other:?}"),
    }
}

#[test]
fn guard_rails_reject_zero_watchdog_k() {
    let rails = GuardRails {
        watchdog_k: 0,
        ..GuardRails::default()
    };
    assert_invalid(guarded_run(rails), "guards.watchdog");
}

#[test]
fn guard_rails_reject_zero_clamp_hold() {
    let rails = GuardRails {
        clamp_hold: 0,
        ..GuardRails::default()
    };
    assert_invalid(guarded_run(rails), "guards.watchdog");
}

#[test]
fn guard_rails_reject_max_backoff_below_clamp_hold() {
    let rails = GuardRails {
        clamp_hold: 4,
        max_backoff: 3,
        ..GuardRails::default()
    };
    assert_invalid(guarded_run(rails), "guards.watchdog");
}

#[test]
fn guard_rails_reject_negative_stale_margin() {
    let rails = GuardRails {
        stale_margin: -0.05,
        ..GuardRails::default()
    };
    assert_invalid(guarded_run(rails), "guards.stale_margin");
}

#[test]
fn guard_rails_reject_nan_stale_margin() {
    let rails = GuardRails {
        stale_margin: f64::NAN,
        ..GuardRails::default()
    };
    assert_invalid(guarded_run(rails), "guards.stale_margin");
}

#[test]
fn rack_config_uses_the_same_watchdog_validator() {
    let base = RackConfig::new(Watts::new(100.0));
    for rack in [
        RackConfig {
            watchdog_k: 0,
            ..base.clone()
        },
        RackConfig {
            clamp_hold: 0,
            ..base.clone()
        },
        RackConfig {
            clamp_hold: 4,
            max_backoff: 3,
            ..base.clone()
        },
    ] {
        let config = FleetConfig {
            rack: Some(rack),
            ..FleetConfig::default()
        };
        assert_invalid(FleetEngine::new(config), "fleet.rack.watchdog");
    }
}

/// The stats without the measured solver time, which differs run to run.
fn counts(stats: FleetStats) -> FleetStats {
    FleetStats {
        solver_us_spent: 0.0,
        solver_us_saved: 0.0,
        ..stats
    }
}

#[test]
fn set_rack_budget_rejects_bad_budgets_and_keeps_state() {
    let bad = [f64::NAN, 0.0, -1.0, f64::INFINITY];
    // An armed engine keeps its rack config; an unarmed one stays unarmed.
    for initial in [Some(0.001), None] {
        let make = || match initial {
            Some(budget) => rack_engine(budget),
            None => FleetEngine::new(FleetConfig::default()).expect("valid config"),
        };
        let (mut engine, mut twin) = (make(), make());
        for tick in 0..6u64 {
            let before = engine.config().rack.clone();
            for watts in bad {
                assert_invalid(
                    engine.set_rack_budget(Some(Watts::new(watts))),
                    "fleet.rack.budget",
                );
            }
            assert_eq!(engine.config().rack, before);
            // Mid-hold or not, the refused calls changed nothing.
            for node in 0..2 {
                assert!(engine.submit(telemetry(node, tick)));
                assert!(twin.submit(telemetry(node, tick)));
            }
            assert_eq!(engine.run_tick(tick), twin.run_tick(tick));
            assert_eq!(counts(engine.stats()), counts(twin.stats()));
        }
    }
}

#[test]
fn sharded_set_rack_budget_rejects_bad_budgets_and_keeps_state() {
    let config = FleetConfig {
        rack: Some(RackConfig::new(Watts::new(0.001))),
        ..FleetConfig::default()
    };
    let mut sharded = ShardedEngine::homogeneous(&config, 2).expect("valid config");
    let mut twin = ShardedEngine::homogeneous(&config, 2).expect("valid config");
    for tick in 0..6u64 {
        assert_invalid(
            sharded.set_rack_budget(Some(Watts::new(f64::NAN))),
            "fleet.rack.budget",
        );
        assert_invalid(
            sharded.set_rack_budget(Some(Watts::new(-5.0))),
            "fleet.rack.budget",
        );
        for node in 0..4 {
            sharded.try_submit(telemetry(node, tick));
            twin.try_submit(telemetry(node, tick));
        }
        assert_eq!(sharded.run_tick(tick), twin.run_tick(tick));
    }
    assert_eq!(counts(sharded.stats()), counts(twin.stats()));
    assert!(sharded.stats().watchdog_clamp_ticks > 0);
    assert!(sharded.set_rack_budget(Some(Watts::new(50.0))).is_ok());
    assert!(sharded.set_rack_budget(None).is_ok());
}

/// A checkpoint of a rack-armed engine with no ticks run, written by the
/// layout-1 engine (separate watchdog fields on the rack state).
const V1_CHECKPOINT: &str = r#"{"version":1,"config_fingerprint":14050107104426967440,"next_tick":0,"stats":{"decisions_total":0,"cache_hits":0,"dedup_hits":0,"unique_solves":0,"dropped_stale":0,"dropped_dark":0,"rejected_backpressure":0,"rejected_invalid":0,"fallback_decisions":0,"solver_timeouts":0,"flap_drops":0,"skew_delayed":0,"corrupted_reports":0,"shed_clamps":0,"rack_violation_ticks":0,"watchdog_clamp_ticks":0,"longest_rack_violation_run":0,"worst_rack_overshoot_watts":0,"solver_us_spent":0,"solver_us_saved":0},"cache":{"entries":[],"counters":{"decisions_total":0,"cache_hits":0,"dedup_hits":0,"solver_us_saved":0},"solve_us_total":0,"solve_count":0},"nodes":[],"rack":{"violation_streak":0,"current_run":0,"clamp_remaining":0,"backoff":2}}"#;

#[test]
fn layout_1_checkpoint_is_refused_by_version() {
    match FleetCheckpoint::from_json(V1_CHECKPOINT) {
        Err(GpmError::InvalidConfig { reason, .. }) => {
            assert!(reason.contains("version 1"), "{reason}");
            assert!(!reason.contains("missing field"), "{reason}");
        }
        other => panic!("expected a version mismatch, got {other:?}"),
    }
    // The current layout round-trips.
    let json = rack_engine(100.0).checkpoint().to_json();
    let checkpoint = FleetCheckpoint::from_json(&json).expect("current layout parses");
    assert_eq!(checkpoint.version(), gpm::core::FLEET_CHECKPOINT_VERSION);
}
