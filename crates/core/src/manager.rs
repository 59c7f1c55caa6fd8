//! The global power manager's control loop.

use gpm_cmp::{CoreObservation, SimHistory, TraceCmpSim};
use gpm_faults::{FaultEvent, FaultPlan, FaultSession, SensorFrame, SensorStatus};
use gpm_types::{Bips, CoreId, Micros, ModeCombination, PowerMode, Result, Watts};

use crate::watchdog::{Watchdog, WatchdogLaw};
use crate::{BudgetSchedule, CacheCounters, Policy, PolicyContext, PowerBipsMatrices};

/// One explore interval as the manager saw it.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ExploreRecord {
    /// Interval start time.
    pub start: Micros,
    /// Budget in force (absolute watts).
    pub budget: Watts,
    /// Mode assignment applied.
    pub modes: ModeCombination,
    /// Average chip power over the interval.
    pub chip_power: Watts,
    /// Average chip throughput over the interval.
    pub chip_bips: Bips,
    /// GALS transition stall paid at the interval start.
    pub stall: Micros,
    /// Wall time covered (shorter than `explore` only on termination).
    pub duration: Micros,
    /// `true` for the initial warm-up interval: the manager has no sensor
    /// history yet, so the chip runs in its reset state (all Turbo).
    /// Warm-up records are excluded from the aggregate metrics.
    pub bootstrap: bool,
}

/// A guard rail firing: what the hardened control loop did and when.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct GuardAction {
    /// Explore interval index at which the guard acted.
    pub interval: usize,
    /// What the guard did.
    pub kind: GuardActionKind,
}

/// The degraded-operation responses of the hardened manager.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum GuardActionKind {
    /// A reading was stale but within tolerance: the manager used it with
    /// a safety margin on predicted power.
    StaleFallback {
        /// Affected core.
        core: usize,
        /// How many intervals behind the reading was.
        age: usize,
    },
    /// A sensor was dark (or stale beyond tolerance): the manager assumed
    /// the worst case — the core drawing its full Turbo peak.
    DarkWorstCase {
        /// Affected core.
        core: usize,
    },
    /// The overshoot watchdog clamped cores to Eff2 after K consecutive
    /// violated intervals.
    WatchdogClamp {
        /// The clamped cores.
        cores: Vec<usize>,
        /// How many intervals the clamp will hold.
        hold: usize,
    },
    /// A watchdog clamp expired; the cores may be re-promoted.
    WatchdogRepromote {
        /// The released cores.
        cores: Vec<usize>,
    },
}

/// Tuning for the hardened control loop's guard rails.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GuardRails {
    /// Maximum reading age (intervals) the manager will still act on; older
    /// or dark readings fall back to the worst-case Turbo assumption.
    pub stale_tolerance: usize,
    /// Relative safety margin added to predicted power per interval of
    /// staleness (0.05 = 5% per interval of age).
    pub stale_margin: f64,
    /// Consecutive over-budget intervals tolerated before the watchdog
    /// clamps offending cores to Eff2 (the paper corrects single-interval
    /// overshoots at the next explore point; K > 1 means something is
    /// persistently wrong).
    pub watchdog_k: usize,
    /// How many intervals the first clamp holds.
    pub clamp_hold: usize,
    /// Ceiling on the exponential clamp-hold backoff.
    pub max_backoff: usize,
}

impl Default for GuardRails {
    fn default() -> Self {
        Self {
            stale_tolerance: 3,
            stale_margin: 0.05,
            watchdog_k: 3,
            clamp_hold: 2,
            max_backoff: 32,
        }
    }
}

/// Options for [`GlobalManager::run_with`]: fault injection and guard
/// rails. The default (no faults, no guards) is the exact legacy control
/// loop — bit-identical results, no extra work per interval.
#[derive(Debug, Clone, Default)]
pub struct RunOptions {
    /// Fault plan to inject at the sensor/actuator seam, if any.
    pub faults: Option<FaultPlan>,
    /// Guard rails hardening the control loop, if any. `None` reproduces
    /// the trusting controller of the paper (useful as the contrast case
    /// in fault experiments).
    pub guards: Option<GuardRails>,
}

impl RunOptions {
    /// Options injecting `plan` with default guard rails on.
    #[must_use]
    pub fn faulted(plan: FaultPlan) -> Self {
        Self {
            faults: Some(plan),
            guards: Some(GuardRails::default()),
        }
    }

    /// Options with guard rails on and no faults (overhead measurement).
    #[must_use]
    pub fn guarded() -> Self {
        Self {
            faults: None,
            guards: Some(GuardRails::default()),
        }
    }
}

/// Everything a managed run produced.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct RunResult {
    /// Name of the policy that drove the run.
    pub policy: String,
    /// Benchmark names, one per core.
    pub benchmarks: Vec<String>,
    /// The chip's maximum power envelope the budgets were quoted against.
    pub envelope: Watts,
    /// One record per explore interval.
    pub records: Vec<ExploreRecord>,
    /// Full delta-grained time series.
    pub history: SimHistory,
    /// Instructions each core completed by termination.
    pub per_core_instructions: Vec<u64>,
    /// Total wall time simulated.
    pub duration: Micros,
    /// Faults that fired during the run (empty on fault-free runs).
    pub fault_events: Vec<FaultEvent>,
    /// Guard rails that fired during the run (empty when guards are off).
    pub guard_actions: Vec<GuardAction>,
    /// Decision-cache accounting, when the policy memoizes (all zero for
    /// plain policies).
    pub cache_counters: CacheCounters,
}

impl RunResult {
    /// The records the metrics aggregate over (warm-up excluded, unless the
    /// run never got past warm-up).
    fn measured(&self) -> &[ExploreRecord] {
        let measured = &self.records[self.records.iter().take_while(|r| r.bootstrap).count()..];
        if measured.is_empty() {
            &self.records
        } else {
            measured
        }
    }

    /// Duration-weighted mean of `watts` over the measured records.
    fn weighted_mean(&self, watts: impl Fn(&ExploreRecord) -> Watts) -> Watts {
        let (mut acc, mut time) = (0.0, 0.0);
        for r in self.measured() {
            acc += watts(r).value() * r.duration.value();
            time += r.duration.value();
        }
        if time == 0.0 {
            Watts::ZERO
        } else {
            Watts::new(acc / time)
        }
    }

    /// Duration-weighted average chip power (excluding warm-up).
    #[must_use]
    pub fn average_chip_power(&self) -> Watts {
        self.weighted_mean(|r| r.chip_power)
    }

    /// Average chip throughput over the measured (post-warm-up) window:
    /// instructions over time.
    #[must_use]
    pub fn average_chip_bips(&self) -> Bips {
        let instr: u64 = self.per_core_instructions.iter().sum();
        let secs = self.duration.to_seconds().value();
        if secs <= 0.0 {
            Bips::ZERO
        } else {
            Bips::new(instr as f64 / secs / 1.0e9)
        }
    }

    /// Per-core average instruction rates over the measured window
    /// (instructions per second).
    #[must_use]
    pub fn per_core_ips(&self) -> Vec<f64> {
        let secs = self.duration.to_seconds().value().max(f64::MIN_POSITIVE);
        self.per_core_instructions
            .iter()
            .map(|&i| i as f64 / secs)
            .collect()
    }

    /// Duration-weighted average budget over the measured window.
    #[must_use]
    pub fn average_budget(&self) -> Watts {
        self.weighted_mean(|r| r.budget)
    }

    /// Average chip power as a fraction of the average budget — the paper's
    /// budget-curve quantity ("percentage of power consumed under a policy
    /// with respect to the target budget").
    #[must_use]
    pub fn budget_utilization(&self) -> f64 {
        self.average_chip_power().value() / self.average_budget().value()
    }

    /// Number of explore intervals in which the *measured* average chip
    /// power exceeded the budget then in force (transient overshoots are
    /// corrected at the next explore time, per Section 5.4).
    #[must_use]
    pub fn overshoot_intervals(&self) -> usize {
        self.measured()
            .iter()
            .filter(|r| r.chip_power > r.budget)
            .count()
    }

    /// Largest margin (watts) by which measured chip power exceeded the
    /// budget in any interval; zero if the budget was never violated.
    #[must_use]
    pub fn worst_overshoot_watts(&self) -> Watts {
        Watts::new(
            self.measured()
                .iter()
                .map(|r| (r.chip_power.value() - r.budget.value()).max(0.0))
                .fold(0.0, f64::max),
        )
    }

    /// Length of the longest run of consecutive over-budget intervals —
    /// the quantity the overshoot watchdog bounds.
    #[must_use]
    pub fn longest_violation_run(&self) -> usize {
        let (mut longest, mut current) = (0usize, 0usize);
        for r in self.measured() {
            if r.chip_power > r.budget {
                current += 1;
                longest = longest.max(current);
            } else {
                current = 0;
            }
        }
        longest
    }

    /// Total transition stall time paid over the run.
    #[must_use]
    pub fn total_stall(&self) -> Micros {
        self.records.iter().map(|r| r.stall).sum::<Micros>()
    }

    /// Serialises the whole run (records + time series) to JSON, for
    /// external plotting or archival.
    ///
    /// # Errors
    ///
    /// Returns [`gpm_types::GpmError::TraceFormat`] on encoding failure.
    pub fn to_json(&self) -> Result<String> {
        serde_json::to_string(self).map_err(|e| gpm_types::GpmError::TraceFormat(e.to_string()))
    }

    /// Parses a run back from [`to_json`](Self::to_json) output.
    ///
    /// # Errors
    ///
    /// Returns [`gpm_types::GpmError::TraceFormat`] on malformed input.
    pub fn from_json(json: &str) -> Result<Self> {
        serde_json::from_str(json).map_err(|e| gpm_types::GpmError::TraceFormat(e.to_string()))
    }
}

/// Live guard-rail state for one hardened run.
struct GuardState {
    rails: GuardRails,
    law: WatchdogLaw,
    /// Per-core Turbo peak power (worst-case assumption for dark sensors).
    peaks: Vec<f64>,
    envelope: f64,
    /// Last trustworthy (fresh) frame per core.
    last_good: Vec<Option<SensorFrame>>,
    watchdog: Watchdog,
    clamped: Vec<usize>,
    pending_repromote: Option<Vec<usize>>,
    actions: Vec<GuardAction>,
}

impl GuardState {
    fn new(rails: GuardRails, sim: &TraceCmpSim) -> Result<Self> {
        let margin = rails.stale_margin;
        if !(margin.is_finite() && margin >= 0.0) {
            let reason = format!("must be finite and non-negative, got {margin}");
            return Err(crate::invalid_config("guards.stale_margin", reason));
        }
        let law = WatchdogLaw {
            k: rails.watchdog_k as u64,
            base: rails.clamp_hold as u64,
            ceiling: rails.max_backoff as u64,
        }
        .validate("guards.watchdog")?;
        let peaks: Vec<f64> = sim
            .traces()
            .iter()
            .map(|t| t.trace(PowerMode::Turbo).peak_power().value())
            .collect();
        let envelope = peaks.iter().sum();
        Ok(Self {
            rails,
            law,
            peaks,
            envelope,
            last_good: vec![None; sim.cores()],
            watchdog: Watchdog::default(),
            clamped: Vec::new(),
            pending_repromote: None,
            actions: Vec::new(),
        })
    }

    /// Converts seam frames into the observations the predictor consumes,
    /// degrading gracefully: stale-within-tolerance readings are used with
    /// a power margin, stale-beyond-tolerance and dark sensors fall back to
    /// the worst case (core at full Turbo peak).
    fn process(&mut self, interval: usize, frames: &[SensorFrame]) -> Vec<CoreObservation> {
        frames
            .iter()
            .map(|f| match f.status {
                SensorStatus::Fresh => {
                    self.last_good[f.core] = Some(*f);
                    frame_to_observation(f)
                }
                SensorStatus::Stale { age } if age <= self.rails.stale_tolerance => {
                    self.log(
                        interval,
                        GuardActionKind::StaleFallback { core: f.core, age },
                    );
                    let margin = 1.0 + self.rails.stale_margin * age as f64;
                    CoreObservation {
                        power: Watts::new(f.power.value() * margin),
                        ..frame_to_observation(f)
                    }
                }
                _ => {
                    self.log(interval, GuardActionKind::DarkWorstCase { core: f.core });
                    // Assume the core draws its full Turbo peak; carry the
                    // last trustworthy throughput (rescaled to Turbo) so
                    // the policy still has a performance signal.
                    let bips = self.last_good[f.core]
                        .map(|g| g.bips.value() / g.mode.bips_scale_bound())
                        .unwrap_or(0.0);
                    CoreObservation {
                        core: CoreId::new(f.core),
                        mode: PowerMode::Turbo,
                        power: Watts::new(self.peaks[f.core]),
                        bips: Bips::new(bips),
                        instructions: 0,
                    }
                }
            })
            .collect()
    }

    /// Applies the overshoot watchdog to the policy's decision. Returns
    /// `true` if this interval runs under an active clamp.
    fn shape_decision(
        &mut self,
        interval: usize,
        modes: &mut ModeCombination,
        observations: &[CoreObservation],
        budget: Watts,
    ) -> bool {
        if let Some(cores) = self.pending_repromote.take() {
            self.log(interval, GuardActionKind::WatchdogRepromote { cores });
        }
        if let Some(hold) = self.watchdog.trip(self.law) {
            // Offenders: cores whose observed power exceeds their
            // envelope-proportional share of the budget. If attribution
            // fails (e.g. every sensor is dark and reads the same), clamp
            // the whole chip.
            let mut offenders: Vec<usize> = observations
                .iter()
                .enumerate()
                .filter(|(i, o)| o.power.value() > budget.value() * self.peaks[*i] / self.envelope)
                .map(|(i, _)| i)
                .collect();
            if offenders.is_empty() {
                offenders = (0..observations.len()).collect();
            }
            // At most `max_backoff`, so the cast is lossless.
            let hold = hold as usize;
            let cores = offenders.clone();
            self.log(interval, GuardActionKind::WatchdogClamp { cores, hold });
            self.clamped = offenders;
        }
        let Some(left) = self.watchdog.hold() else {
            return false;
        };
        for &core in &self.clamped {
            modes.set(CoreId::new(core), PowerMode::Eff2);
        }
        if left == 0 {
            self.pending_repromote = Some(std::mem::take(&mut self.clamped));
        }
        true
    }

    fn log(&mut self, interval: usize, kind: GuardActionKind) {
        self.actions.push(GuardAction { interval, kind });
    }
}

fn observation_to_frame(o: &CoreObservation) -> SensorFrame {
    SensorFrame::fresh(o.core.value(), o.mode, o.power, o.bips, o.instructions)
}

fn frame_to_observation(f: &SensorFrame) -> CoreObservation {
    CoreObservation {
        core: CoreId::new(f.core),
        mode: f.mode,
        power: f.power,
        bips: f.bips,
        instructions: f.instructions,
    }
}

/// The hierarchical global power manager (Section 2): collects per-core
/// sensor observations every explore interval, builds the predictive
/// Power/BIPS matrices, consults a [`Policy`], and applies the chosen mode
/// assignment to the chip.
///
/// The first interval runs in the simulator's initial state (all Turbo) to
/// gather the observations the first real decision needs — a cold
/// controller has no sensor history. That warm-up interval is recorded with
/// [`ExploreRecord::bootstrap`] set and excluded from aggregate metrics: it
/// is a measurement artifact of starting the observation window, not of the
/// policy under test (the paper's controller runs in steady state).
///
/// [`run_with`](Self::run_with) additionally threads the telemetry and
/// actuation paths through a [`FaultSession`] seam and — when
/// [`RunOptions::guards`] is set — hardens the loop with stale-telemetry
/// fallback, worst-case assumptions for dark sensors, and an overshoot
/// watchdog. The default options reproduce [`run`](Self::run) exactly.
#[derive(Debug, Clone, Default)]
pub struct GlobalManager {
    _priv: (),
}

impl GlobalManager {
    /// Creates a manager.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Drives `sim` to completion under `policy` and `schedule`, consuming
    /// the simulator.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors (core-count mismatches from a misbehaving
    /// policy, advancing past termination).
    pub fn run(
        &self,
        sim: TraceCmpSim,
        policy: &mut dyn Policy,
        schedule: &BudgetSchedule,
    ) -> Result<RunResult> {
        self.run_with(sim, policy, schedule, &RunOptions::default())
    }

    /// Like [`run`](Self::run), with fault injection and/or guard rails.
    ///
    /// Interval indexing at the fault seam: telemetry observed during
    /// interval `i` is perturbed by clauses covering `i` and feeds the
    /// decision for interval `i + 1`; actuation and budget clauses apply at
    /// the interval being decided. The watchdog monitors the *package-level*
    /// power meter (measured chip power) — per-core sensor faults corrupt
    /// attribution, not the chip-wide violation signal.
    ///
    /// # Errors
    ///
    /// Additionally returns [`gpm_types::GpmError::FaultSpec`] if the fault
    /// plan names a core the chip does not have, and
    /// [`gpm_types::GpmError::InvalidConfig`] for guard rails with a zero
    /// `watchdog_k` or `clamp_hold`, a `max_backoff` below `clamp_hold`, or
    /// a negative or non-finite `stale_margin`.
    pub fn run_with(
        &self,
        mut sim: TraceCmpSim,
        policy: &mut dyn Policy,
        schedule: &BudgetSchedule,
        options: &RunOptions,
    ) -> Result<RunResult> {
        let envelope = sim.power_envelope();
        let explore = sim.params().explore;
        let dvfs = sim.params().dvfs;
        let mut records = Vec::new();

        let mut session = match &options.faults {
            Some(plan) => Some(FaultSession::new(plan, sim.cores())?),
            None => None,
        };
        let mut guard = options
            .guards
            .map(|rails| GuardState::new(rails, &sim))
            .transpose()?;
        // Scratch buffers for the seam path, allocated once per run.
        let mut frames: Vec<SensorFrame> = Vec::new();
        let mut guarded_obs: Vec<CoreObservation> = Vec::new();

        // Interval 0 (warm-up): observe in the initial (all-Turbo) state.
        // One ExploreOutcome is reused across the whole loop so its per-delta
        // buffers are allocated once per run, not once per interval.
        let mut start = sim.now();
        let mut fraction = schedule.fraction_at(start);
        if let Some(s) = session.as_mut() {
            fraction = s.budget_fraction(0, fraction);
        }
        let mut budget = Watts::new(envelope.value() * fraction);
        let mut outcome = gpm_cmp::ExploreOutcome::empty();
        sim.advance_explore_into(&sim.modes().clone(), &mut outcome)?;
        records.push(ExploreRecord {
            start,
            budget,
            modes: sim.modes().clone(),
            chip_power: outcome.average_chip_power(),
            chip_bips: outcome.total_bips(),
            stall: outcome.transition_stall,
            duration: outcome.duration,
            bootstrap: true,
        });
        let warmup_positions = sim.positions();
        let warmup_end = sim.now();

        while !sim.finished() {
            let interval = records.len();
            start = sim.now();
            fraction = schedule.fraction_at(start);
            if let Some(s) = session.as_mut() {
                fraction = s.budget_fraction(interval, fraction);
            }
            budget = Watts::new(envelope.value() * fraction);

            // Telemetry seam: the just-completed interval's readings pass
            // through the fault plan, then through the guard rails. With
            // neither configured the predictor reads the raw observations —
            // the exact legacy path.
            let observations: &[CoreObservation] = if session.is_some() || guard.is_some() {
                frames.clear();
                frames.extend(outcome.observed.iter().map(observation_to_frame));
                if let Some(s) = session.as_mut() {
                    frames = s.observe(interval - 1, &frames);
                }
                match guard.as_mut() {
                    Some(g) => guarded_obs = g.process(interval - 1, &frames),
                    None => {
                        guarded_obs.clear();
                        guarded_obs.extend(frames.iter().map(frame_to_observation));
                    }
                }
                &guarded_obs
            } else {
                &outcome.observed
            };

            let matrices = PowerBipsMatrices::predict(observations);
            let future = policy
                .needs_future()
                .then(|| PowerBipsMatrices::from_future(&sim));
            let mut modes = {
                let ctx = PolicyContext {
                    current_modes: sim.modes(),
                    matrices: &matrices,
                    future: future.as_ref(),
                    budget,
                    dvfs: &dvfs,
                    explore,
                };
                policy.decide(&ctx)
            };
            let was_clamped = match guard.as_mut() {
                Some(g) => g.shape_decision(interval, &mut modes, observations, budget),
                None => false,
            };
            // Actuation seam: stuck DVFS lanes may ignore or defer requests.
            if let Some(s) = session.as_mut() {
                modes = s.actuate(interval, &modes, sim.modes());
            }
            sim.advance_explore_into(&modes, &mut outcome)?;
            let chip_power = outcome.average_chip_power();
            // Clamped intervals are not booked: the watchdog is already
            // doing all it can there.
            if let Some(g) = guard.as_mut().filter(|_| !was_clamped) {
                g.watchdog.record(chip_power > budget, g.law);
            }
            records.push(ExploreRecord {
                start,
                budget,
                modes,
                chip_power,
                chip_bips: outcome.total_bips(),
                stall: outcome.transition_stall,
                duration: outcome.duration,
                bootstrap: false,
            });
        }

        // Aggregate metrics cover the measured (post-warm-up) window. If
        // the run terminated inside warm-up, fall back to the whole run.
        let (instructions, duration) = if sim.now() > warmup_end {
            (
                sim.positions()
                    .iter()
                    .zip(&warmup_positions)
                    .map(|(end, warm)| end - warm)
                    .collect(),
                sim.now() - warmup_end,
            )
        } else {
            (sim.positions(), sim.now())
        };

        Ok(RunResult {
            policy: policy.name().to_owned(),
            benchmarks: sim.traces().iter().map(|t| t.name().to_owned()).collect(),
            envelope,
            per_core_instructions: instructions,
            duration,
            history: sim.history().clone(),
            records,
            fault_events: session.map(|mut s| s.drain_events()).unwrap_or_default(),
            guard_actions: guard.map(|g| g.actions).unwrap_or_default(),
            cache_counters: policy.cache_counters().unwrap_or_default(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(budget: f64, power: f64, bootstrap: bool) -> ExploreRecord {
        ExploreRecord {
            start: Micros::ZERO,
            budget: Watts::new(budget),
            modes: ModeCombination::uniform(1, PowerMode::Turbo),
            chip_power: Watts::new(power),
            chip_bips: Bips::ZERO,
            stall: Micros::ZERO,
            duration: Micros::new(500.0),
            bootstrap,
        }
    }

    fn result_with(records: Vec<ExploreRecord>) -> RunResult {
        RunResult {
            policy: "test".into(),
            benchmarks: vec!["b".into()],
            envelope: Watts::new(100.0),
            records,
            history: SimHistory::default(),
            per_core_instructions: vec![0],
            duration: Micros::new(500.0),
            fault_events: Vec::new(),
            guard_actions: Vec::new(),
            cache_counters: CacheCounters::default(),
        }
    }

    #[test]
    fn warmup_only_run_falls_back_to_bootstrap_records() {
        // A run that terminated inside warm-up has only bootstrap records;
        // measured() must fall back to them instead of an empty slice.
        let r = result_with(vec![record(80.0, 90.0, true)]);
        assert!((r.average_chip_power().value() - 90.0).abs() < 1e-12);
        assert!((r.average_budget().value() - 80.0).abs() < 1e-12);
        assert_eq!(r.overshoot_intervals(), 1);
        assert!((r.worst_overshoot_watts().value() - 10.0).abs() < 1e-12);
        assert_eq!(r.longest_violation_run(), 1);
    }

    #[test]
    fn violation_metrics_track_worst_and_longest() {
        let r = result_with(vec![
            record(80.0, 90.0, true), // warm-up: excluded
            record(80.0, 85.0, false),
            record(80.0, 95.0, false),
            record(80.0, 70.0, false),
            record(80.0, 81.0, false),
        ]);
        assert_eq!(r.overshoot_intervals(), 3);
        assert!((r.worst_overshoot_watts().value() - 15.0).abs() < 1e-12);
        assert_eq!(r.longest_violation_run(), 2);
    }

    #[test]
    fn no_violations_report_zero() {
        let r = result_with(vec![record(80.0, 90.0, true), record(80.0, 70.0, false)]);
        assert_eq!(r.overshoot_intervals(), 0);
        assert_eq!(r.worst_overshoot_watts(), Watts::ZERO);
        assert_eq!(r.longest_violation_run(), 0);
    }

    #[test]
    fn watchdog_clamps_only_offenders_and_logs_repromotion() {
        // The streak and backoff law itself is tested in `watchdog.rs`;
        // this covers the chip data around it.
        let rails = GuardRails {
            watchdog_k: 2,
            clamp_hold: 1,
            max_backoff: 4,
            ..GuardRails::default()
        };
        let mut state = GuardState {
            rails,
            law: WatchdogLaw {
                k: 2,
                base: 1,
                ceiling: 4,
            },
            peaks: vec![60.0, 40.0],
            envelope: 100.0,
            last_good: vec![None; 2],
            watchdog: Watchdog::default(),
            clamped: Vec::new(),
            pending_repromote: None,
            actions: Vec::new(),
        };
        let budget = Watts::new(80.0);
        let obs = vec![
            CoreObservation {
                core: CoreId::new(0),
                mode: PowerMode::Turbo,
                power: Watts::new(60.0), // over its 48 W share → offender
                bips: Bips::new(1.0),
                instructions: 0,
            },
            CoreObservation {
                core: CoreId::new(1),
                mode: PowerMode::Turbo,
                power: Watts::new(25.0), // under its 32 W share
                bips: Bips::new(1.0),
                instructions: 0,
            },
        ];

        // Two violated intervals, then the watchdog engages.
        state.watchdog.record(true, state.law);
        state.watchdog.record(true, state.law);
        let mut modes = ModeCombination::uniform(2, PowerMode::Turbo);
        assert!(state.shape_decision(3, &mut modes, &obs, budget));
        assert_eq!(modes.as_slice()[0], PowerMode::Eff2);
        assert_eq!(modes.as_slice()[1], PowerMode::Turbo); // not an offender
        assert!(matches!(
            state.actions[0].kind,
            GuardActionKind::WatchdogClamp { ref cores, hold: 1 } if cores == &vec![0]
        ));

        // Hold of 1 expired: next decision records the re-promotion.
        let mut modes = ModeCombination::uniform(2, PowerMode::Turbo);
        assert!(!state.shape_decision(4, &mut modes, &obs, budget));
        assert_eq!(modes.as_slice()[0], PowerMode::Turbo);
        assert!(matches!(
            state.actions[1].kind,
            GuardActionKind::WatchdogRepromote { .. }
        ));
    }

    #[test]
    fn run_options_constructors() {
        let o = RunOptions::default();
        assert!(o.faults.is_none() && o.guards.is_none());
        let o = RunOptions::guarded();
        assert!(o.faults.is_none() && o.guards.is_some());
        let o = RunOptions::faulted(FaultPlan::parse("dropout@0").unwrap());
        assert!(o.faults.is_some() && o.guards.is_some());
    }
}
