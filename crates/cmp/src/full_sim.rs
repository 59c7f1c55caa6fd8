//! The full-CMP validation simulator: real core models sharing an L2.
//!
//! Each core is one [`CoreEngine`] — the scoreboard every single-core
//! capture also runs — stepped against a recording [`DeferredL2`] and
//! settled against the shared L2 after every quantum.

use std::borrow::BorrowMut;
use std::sync::Arc;

use gpm_microarch::{CoreConfig, CoreEngine, DeferredL2, IntervalStats};
use gpm_power::{DvfsParams, PowerModel};
use gpm_types::{Bips, GpmError, Micros, ModeCombination, PowerMode, Result, Watts};
use gpm_workloads::{WorkloadCombo, WorkloadStream};

use crate::{ClusterTopology, Interconnect, InterconnectConfig, SharedL2, SharedL2Config};

/// Address-space separation between cores' data regions, so co-scheduled
/// benchmarks do not alias in the shared L2.
const CORE_ADDR_STRIDE: u64 = 1 << 36;

/// Per-core results of a full-CMP run.
#[derive(Debug, Clone, PartialEq)]
pub struct PerCoreOutcome {
    /// Benchmark name (shared, not re-allocated per outcome).
    pub benchmark: Arc<str>,
    /// The mode the core ran in.
    pub mode: PowerMode,
    /// Instructions retired.
    pub instructions: u64,
    /// Average power over the run.
    pub power: Watts,
    /// Average throughput over the run.
    pub bips: Bips,
    /// L2 misses observed by this core.
    pub l2_misses: u64,
}

/// Aggregate results of a full-CMP run.
#[derive(Debug, Clone, PartialEq)]
pub struct FullCmpOutcome {
    /// One entry per core.
    pub per_core: Vec<PerCoreOutcome>,
    /// Wall-clock duration simulated.
    pub duration: Micros,
    /// Mean shared-bus utilisation over the run (averaged across clusters
    /// in a clustered configuration).
    pub l2_utilization: f64,
    /// Mean inter-cluster interconnect utilisation over the run. Always
    /// `0.0` for the flat (single shared L2) configuration, which has no
    /// interconnect.
    pub interconnect_utilization: f64,
}

impl FullCmpOutcome {
    /// Total chip power (sum of per-core averages).
    #[must_use]
    pub fn chip_power(&self) -> Watts {
        self.per_core.iter().map(|c| c.power).sum()
    }

    /// Total chip throughput.
    #[must_use]
    pub fn chip_bips(&self) -> Bips {
        Bips::new(self.per_core.iter().map(|c| c.bips.value()).sum())
    }
}

/// One core of the simulated chip: its scoreboard, instruction stream and
/// recording L2, plus the identity, correction-credit carry and run
/// accumulators of the two-phase protocol.
#[derive(Debug)]
struct SimCore {
    engine: CoreEngine,
    stream: WorkloadStream,
    deferred: DeferredL2,
    benchmark: Arc<str>,
    mode: PowerMode,
    /// Core cycles per synchronisation quantum at this core's frequency;
    /// recomputed when a run starts (the quantum is configurable).
    cycles_per_quantum: u64,
    /// Signed correction credit in nanoseconds: positive when the replay
    /// discovered more latency than phase 1 charged (repaid as stall
    /// cycles), negative when phase 1 overcharged (offsets future debt).
    pending_ns: f64,
    /// Bounds for the per-access charge predictor (array-hit latency up to
    /// hit + memory + worst-case queueing delay).
    charge_min_ns: f64,
    charge_max_ns: f64,
    /// Replay scratch: total actual latency of this core's requests this
    /// quantum.
    actual_ns: f64,
    /// Replay scratch: merge cursor into the sorted request log.
    cursor: usize,
    /// Run accumulators, reused across `run` calls.
    total: IntervalStats,
    energy_j: f64,
}

impl SimCore {
    /// Resets the run accumulators and sizes the quantum for a new run.
    fn start_run(&mut self, quantum: Micros) {
        self.cycles_per_quantum = self.engine.frequency().cycles_in(quantum).value();
        self.total = IntervalStats::default();
        self.energy_j = 0.0;
    }

    /// Phase 1: steps the core one quantum. Repays any positive correction
    /// credit as stall cycles, runs the remainder of the quantum against
    /// the recording L2, and sorts the request log so phase 2 can k-way
    /// merge.
    fn step_quantum(&mut self, power: &PowerModel) {
        let freq = self.engine.frequency();
        let quantum_cycles = self.cycles_per_quantum;
        let stall = if self.pending_ns > 0.0 {
            freq.cycles_for_ns(self.pending_ns).min(quantum_cycles)
        } else {
            0
        };
        if stall > 0 {
            self.pending_ns -= stall as f64 * 1.0e9 / freq.value();
            self.engine.apply_stall_cycles(stall);
        }
        self.deferred.reset();
        self.actual_ns = 0.0;
        self.cursor = 0;

        let mut stats = self.engine.run_cycles_with(
            &mut self.stream,
            &mut self.deferred,
            quantum_cycles - stall,
        );
        stats.cycles += stall;
        let power = power.power(&stats.activity(), self.mode);
        let secs = stats.cycles as f64 / freq.value();
        self.energy_j += power.value() * secs;
        self.total.merge(&stats);
        self.deferred.sort_log();
    }

    /// Settles this quantum's replay against what phase 1 charged: the
    /// signed difference joins the correction credit, and the charge
    /// predictor moves to the quantum's observed mean latency so the next
    /// recording timeline already runs at a realistic speed (preserving
    /// the core model's latency overlap instead of converting all miss
    /// latency into un-overlappable stalls).
    fn bank_correction(&mut self) {
        let requests = self.cursor;
        let charged_ns = requests as f64 * self.deferred.charge_ns();
        self.pending_ns += self.actual_ns - charged_ns;
        // A run of overcharged quanta must not accumulate unbounded credit:
        // a core can at most have been one quantum ahead of reality.
        let quantum_ns = self.cycles_per_quantum as f64 * 1.0e9 / self.engine.frequency().value();
        self.pending_ns = self.pending_ns.max(-quantum_ns);
        if requests > 0 {
            let mean = self.actual_ns / requests as f64;
            self.deferred
                .set_charge_ns(mean.clamp(self.charge_min_ns, self.charge_max_ns));
        }
    }

    fn outcome(&self) -> PerCoreOutcome {
        let secs = self.total.cycles as f64 / self.engine.frequency().value();
        PerCoreOutcome {
            benchmark: Arc::clone(&self.benchmark),
            mode: self.mode,
            instructions: self.total.instructions,
            power: Watts::new(self.energy_j / secs),
            bips: Bips::new(self.total.instructions as f64 / secs / 1.0e9),
            l2_misses: self.total.l2_misses,
        }
    }
}

/// Phase 2: merge-replay all cores' sorted request logs against the real
/// shared L2 in global `(timestamp, core-id)` order. Returns the number of
/// L2 misses the replay produced.
///
/// The deterministic tie-break — strictly-smaller timestamp wins, equal
/// timestamps go to the lower core id — makes the replay order (and hence
/// the shared tag-array state, queue accounting and per-core corrections)
/// independent of how phase 1 was scheduled. Each core accumulates the
/// actual latency of its requests (queueing delay, and memory latency when
/// the shared array misses); [`SimCore::bank_correction`] settles that
/// against what phase 1 charged. Misses are credited back to the owning
/// core's counters and additionally charged `miss_extra_ns` — the
/// inter-cluster interconnect penalty in a clustered configuration, `0.0`
/// (exact, by IEEE 754 identity) for the flat path. `cores` must be in
/// core order.
fn replay_quantum<C: BorrowMut<SimCore>>(
    cores: &mut [C],
    shared: &mut SharedL2,
    miss_extra_ns: f64,
) -> u64 {
    let mut misses = 0u64;
    loop {
        let mut best: Option<(usize, f64)> = None;
        for (i, core) in cores.iter().enumerate() {
            let core = core.borrow();
            if let Some(req) = core.deferred.log().get(core.cursor) {
                let earlier = best.is_none_or(|(_, t)| req.now_ns < t);
                if earlier {
                    best = Some((i, req.now_ns));
                }
            }
        }
        let Some((i, _)) = best else { break };
        let core = cores[i].borrow_mut();
        let req = core.deferred.log()[core.cursor];
        core.cursor += 1;
        let (mut actual_ns, hit) = shared.replay_access(req.addr);
        if !hit {
            actual_ns += miss_extra_ns;
            misses += 1;
            core.total.l2_misses += 1;
        }
        core.actual_ns += actual_ns;
    }
    for core in cores {
        core.borrow_mut().bank_correction();
    }
    misses
}

/// One cluster of the sharded drive: the cluster's cores plus its private
/// L2. Both phases of the two-phase protocol run inside the parallel round
/// callback — the interconnect is read-only during a quantum (its penalty
/// is frozen in `icn_penalty_ns` at each window boundary), so nothing a
/// cluster touches is shared.
#[derive(Debug)]
struct Cluster {
    cores: Vec<SimCore>,
    l2: SharedL2,
    /// Per-miss interconnect penalty for the current window, broadcast by
    /// the serial phase after it closes the interconnect window.
    icn_penalty_ns: f64,
    /// Misses this cluster's replay produced in the last quantum — the
    /// traffic the serial phase feeds into the interconnect accounting.
    quantum_misses: u64,
}

impl Cluster {
    /// Steps the cluster one quantum: phase-1 core stepping, then the
    /// per-cluster phase-2 replay against the private L2, then the L2
    /// window close. All of it runs on this cluster's pool worker.
    fn run_quantum(&mut self, power: &PowerModel, window_ns: f64) {
        for core in &mut self.cores {
            core.step_quantum(power);
        }
        self.quantum_misses = replay_quantum(&mut self.cores, &mut self.l2, self.icn_penalty_ns);
        self.l2.end_window(window_ns);
    }
}

/// Builds every core of the combo, in core order, plus the shared-L2
/// configuration they record against. `miss_extra_max_ns` widens the
/// charge predictor's upper bound by the worst interconnect penalty a miss
/// can pay; the flat path passes `0.0`, keeping its bound bit-identical to
/// the pre-cluster arithmetic.
fn build_cores(
    combo: &WorkloadCombo,
    modes: &ModeCombination,
    core_config: &CoreConfig,
    dvfs: &DvfsParams,
    miss_extra_max_ns: f64,
) -> Result<(Vec<SimCore>, SharedL2Config)> {
    if modes.len() != combo.cores() {
        return Err(GpmError::CoreCountMismatch {
            expected: combo.cores(),
            actual: modes.len(),
        });
    }
    core_config.validate()?;
    let shared_config = SharedL2Config {
        cache: core_config.l2,
        l2_latency_ns: core_config.memory.l2_latency_ns,
        memory_latency_ns: core_config.memory.memory_latency_ns,
        ..SharedL2Config::default()
    };
    let mut cores = Vec::with_capacity(combo.cores());
    for (i, &bench) in combo.benchmarks().iter().enumerate() {
        let mode = modes.mode(gpm_types::CoreId::new(i));
        cores.push(SimCore {
            engine: CoreEngine::new(core_config, dvfs.frequency(mode))?,
            // Distinct address bases and seed salts: four mcf instances
            // must not literally share data.
            stream: bench
                .profile()
                .stream_with(i as u64 * CORE_ADDR_STRIDE, i as u64)?,
            deferred: DeferredL2::new(shared_config.l2_latency_ns),
            benchmark: Arc::from(bench.name()),
            mode,
            cycles_per_quantum: 0,
            pending_ns: 0.0,
            charge_min_ns: shared_config.l2_latency_ns,
            // Hit latency + memory latency + the M/D/1 wait at the
            // utilisation cap (+ the worst interconnect crossing, when
            // clustered): the worst latency a replay can report.
            charge_max_ns: shared_config.l2_latency_ns
                + shared_config.memory_latency_ns
                + shared_config.service_ns * 0.98 / (2.0 * (1.0 - 0.98))
                + miss_extra_max_ns,
            actual_ns: 0.0,
            cursor: 0,
            total: IntervalStats::default(),
            energy_j: 0.0,
        });
    }
    Ok((cores, shared_config))
}

/// The two drive shapes of the simulator: the flat single-shared-L2
/// protocol (serial global replay) and the cluster-sharded protocol
/// (parallel per-cluster replays, serialised interconnect merge).
#[derive(Debug)]
enum Drive {
    Flat {
        cores: Vec<SimCore>,
        shared: SharedL2,
    },
    Sharded {
        clusters: Vec<Cluster>,
        interconnect: Interconnect,
    },
}

/// A time-quantum-synchronised multi-core simulation over the real
/// `gpm-microarch` core models and one or more [`SharedL2`]s.
///
/// Cores advance in short wall-clock quanta (5 µs by default) under a
/// two-phase protocol. **Phase 1** steps every core for one quantum: each
/// core is a [`CoreEngine`] — the same scoreboard the single-core captures
/// run — and the cores are spread over the `gpm_par` pool, core `i` on
/// worker `i % threads`. L1 hits resolve locally, and every would-be L2
/// request is recorded into the core's [`DeferredL2`] log at the core's
/// *predicted* per-access latency — the array-hit latency initially, then
/// the previous quantum's observed mean, so dependent-load serialisation
/// and ROB latency overlap play out in the recording timeline itself.
/// **Phase 2** merge-replays the logs against the real [`SharedL2`] in
/// `(timestamp, core-id)` order; the signed difference between what the
/// requests actually cost — bus queueing delay, memory latency on a
/// shared-array miss — and what phase 1 charged is banked as a correction
/// credit, repaid as stall cycles at the start of that core's next quantum
/// (or offset against future debt when negative). Per-core DVFS is
/// supported by clocking each core at its mode's frequency — the quantum
/// is measured in wall time, so cores stay aligned across clock domains.
///
/// Two drive shapes exist:
///
/// * **Flat** ([`FullCmpSim::new`]) — one chip-wide shared L2; phase 2 is
///   a single serial global merge. This is the paper's configuration.
/// * **Cluster-sharded** ([`FullCmpSim::with_topology`]) — K clusters of
///   cores, each with a private L2 ([`ClusterTopology`]); misses
///   additionally cross the global [`Interconnect`]. Each cluster maps
///   onto one pool worker and runs *both* phases inside the parallel
///   round; the interconnect's per-miss penalty is frozen per window, so
///   the only serialised work is summing the clusters' miss counts and
///   closing the interconnect window. With one cluster and a zero-cost
///   interconnect this is bit-identical to the flat drive.
///
/// Results are bit-identical for every `GPM_THREADS` value (including the
/// pool-free serial path): cores share no mutable state in phase 1, phase
/// 2's replay order is fully determined by the logs, and the interconnect
/// merge sums unsigned counters. The golden hashes in
/// `tests/cmp_equivalence.rs` and `tests/hier_equivalence.rs` pin this.
///
/// This is the validation counterpart of
/// [`TraceCmpSim`](crate::TraceCmpSim), mirroring the paper's full-CMP
/// Turandot implementation "with time-driven L2 and thread synchronisation".
#[derive(Debug)]
pub struct FullCmpSim {
    drive: Drive,
    power: PowerModel,
    quantum: Micros,
}

impl FullCmpSim {
    /// Builds a flat (single shared L2) full-CMP simulation of `combo`
    /// with fixed per-core `modes`.
    ///
    /// # Errors
    ///
    /// Returns [`GpmError::CoreCountMismatch`] when `modes` does not cover
    /// the combo and propagates configuration validation failures.
    pub fn new(
        combo: &WorkloadCombo,
        modes: &ModeCombination,
        core_config: &CoreConfig,
        power: PowerModel,
        dvfs: DvfsParams,
    ) -> Result<Self> {
        let (cores, shared_config) = build_cores(combo, modes, core_config, &dvfs, 0.0)?;
        Ok(Self {
            drive: Drive::Flat {
                cores,
                shared: SharedL2::new(shared_config)?,
            },
            power,
            quantum: Micros::new(5.0),
        })
    }

    /// Builds a cluster-sharded full-CMP simulation: `topology` partitions
    /// the combo's cores into clusters, each with a private L2 of the
    /// configured geometry, joined by an [`Interconnect`] with
    /// `interconnect` timing. Each cluster, its cores and its L2, maps onto
    /// one `gpm_par` pool worker.
    ///
    /// A single-cluster topology with [`InterconnectConfig::zero`] is
    /// bit-identical to [`FullCmpSim::new`] — useful for pinning the
    /// sharded drive against the flat golden hashes.
    ///
    /// # Errors
    ///
    /// Returns [`GpmError::CoreCountMismatch`] when the topology or the
    /// modes do not cover the combo, and propagates configuration
    /// validation failures.
    pub fn with_topology(
        combo: &WorkloadCombo,
        modes: &ModeCombination,
        core_config: &CoreConfig,
        power: PowerModel,
        dvfs: DvfsParams,
        topology: ClusterTopology,
        interconnect: InterconnectConfig,
    ) -> Result<Self> {
        if topology.cores() != combo.cores() {
            return Err(GpmError::CoreCountMismatch {
                expected: combo.cores(),
                actual: topology.cores(),
            });
        }
        // Worst-case crossing: hop latency + the M/D/1 wait at the
        // utilisation cap. Zero for a zero-cost interconnect, keeping the
        // charge bound bit-identical to the flat path's.
        let miss_extra_max_ns =
            interconnect.hop_latency_ns + interconnect.service_ns * 0.98 / (2.0 * (1.0 - 0.98));
        let (mut cores, shared_config) =
            build_cores(combo, modes, core_config, &dvfs, miss_extra_max_ns)?;

        let interconnect = Interconnect::new(interconnect)?;
        let per = topology.cores_per_cluster();
        let mut clusters = Vec::with_capacity(topology.clusters());
        for _ in 0..topology.clusters() {
            clusters.push(Cluster {
                cores: cores.drain(..per).collect(),
                l2: SharedL2::new(shared_config)?,
                icn_penalty_ns: interconnect.penalty_ns(),
                quantum_misses: 0,
            });
        }

        Ok(Self {
            drive: Drive::Sharded {
                clusters,
                interconnect,
            },
            power,
            quantum: Micros::new(5.0),
        })
    }

    /// Overrides the synchronisation quantum (default 5 µs). Smaller values
    /// interleave the cores' L2 traffic more finely at simulation-speed
    /// cost.
    ///
    /// # Errors
    ///
    /// Returns [`GpmError::InvalidConfig`] unless the quantum is positive
    /// and finite.
    pub fn set_quantum(&mut self, quantum: Micros) -> Result<()> {
        if !quantum.value().is_finite() || quantum.value() <= 0.0 {
            return Err(GpmError::InvalidConfig {
                parameter: "quantum",
                reason: format!("must be positive and finite, got {}", quantum.value()),
            });
        }
        self.quantum = quantum;
        Ok(())
    }

    /// Runs all cores for `duration` of wall time and reports per-core
    /// averages.
    ///
    /// Phase 1 of each quantum fans out over the `gpm_par` pool
    /// (`GPM_THREADS` workers, persistent across quanta); in the flat
    /// drive phase 2 replays the merged request logs serially, while the
    /// cluster-sharded drive replays per cluster inside the parallel phase
    /// and serialises only the interconnect merge. The outcome is
    /// bit-identical for any thread count.
    pub fn run(&mut self, duration: Micros) -> FullCmpOutcome {
        let quanta = (duration.value() / self.quantum.value()).ceil() as usize;
        let window_ns = self.quantum.value() * 1.0e3;
        let power = &self.power;
        match &mut self.drive {
            Drive::Flat { cores, shared } => {
                for core in cores.iter_mut() {
                    core.start_run(self.quantum);
                }

                if quanta > 0 {
                    let mut round = 0usize;
                    gpm_par::run_rounds(
                        cores,
                        |_, core| core.step_quantum(power),
                        |view| {
                            view.with_all(|cores| replay_quantum(cores, shared, 0.0));
                            shared.end_window(window_ns);
                            round += 1;
                            round < quanta
                        },
                    );
                }

                FullCmpOutcome {
                    per_core: cores.iter().map(SimCore::outcome).collect(),
                    duration,
                    l2_utilization: shared.average_utilization(),
                    interconnect_utilization: 0.0,
                }
            }
            Drive::Sharded {
                clusters,
                interconnect,
            } => {
                for cluster in clusters.iter_mut() {
                    for core in cluster.cores.iter_mut() {
                        core.start_run(self.quantum);
                    }
                    cluster.icn_penalty_ns = interconnect.penalty_ns();
                    cluster.quantum_misses = 0;
                }

                if quanta > 0 {
                    let mut round = 0usize;
                    gpm_par::run_rounds(
                        clusters,
                        |_, cluster| cluster.run_quantum(power, window_ns),
                        |view| {
                            view.with_all(|clusters| {
                                // The only cross-cluster state: summed miss
                                // traffic (order-independent) and the next
                                // window's frozen penalty.
                                let mut misses = 0u64;
                                for c in clusters.iter() {
                                    misses += c.quantum_misses;
                                }
                                interconnect.note_traffic(misses);
                                interconnect.end_window(window_ns);
                                let penalty = interconnect.penalty_ns();
                                for c in clusters.iter_mut() {
                                    c.icn_penalty_ns = penalty;
                                }
                            });
                            round += 1;
                            round < quanta
                        },
                    );
                }

                let cluster_count = clusters.len();
                FullCmpOutcome {
                    per_core: clusters
                        .iter()
                        .flat_map(|c| c.cores.iter().map(SimCore::outcome))
                        .collect(),
                    duration,
                    l2_utilization: clusters
                        .iter()
                        .map(|c| c.l2.average_utilization())
                        .sum::<f64>()
                        / cluster_count as f64,
                    interconnect_utilization: interconnect.average_utilization(),
                }
            }
        }
    }

    /// The shared L2 of the flat drive (for diagnostics). `None` for a
    /// cluster-sharded simulation, which has one private L2 per cluster.
    #[must_use]
    pub fn shared_l2(&self) -> Option<&SharedL2> {
        match &self.drive {
            Drive::Flat { shared, .. } => Some(shared),
            Drive::Sharded { .. } => None,
        }
    }

    /// The inter-cluster interconnect of the sharded drive (for
    /// diagnostics). `None` for the flat drive.
    #[must_use]
    pub fn interconnect(&self) -> Option<&Interconnect> {
        match &self.drive {
            Drive::Flat { .. } => None,
            Drive::Sharded { interconnect, .. } => Some(interconnect),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpm_workloads::combos;

    fn run_combo(combo: &WorkloadCombo, ms: f64) -> FullCmpOutcome {
        let modes = ModeCombination::uniform(combo.cores(), PowerMode::Turbo);
        let mut sim = FullCmpSim::new(
            combo,
            &modes,
            &CoreConfig::power4(),
            PowerModel::power4_calibrated(),
            DvfsParams::paper(),
        )
        .expect("flat sim builds for a valid combo");
        sim.run(Micros::from_millis(ms))
    }

    fn sharded_sim(
        combo: &WorkloadCombo,
        cluster_cores: usize,
        icn: InterconnectConfig,
    ) -> FullCmpSim {
        FullCmpSim::with_topology(
            combo,
            &ModeCombination::uniform(combo.cores(), PowerMode::Turbo),
            &CoreConfig::power4(),
            PowerModel::power4_calibrated(),
            DvfsParams::paper(),
            ClusterTopology::for_cores(combo.cores(), cluster_cores)
                .expect("combo divides into clusters"),
            icn,
        )
        .expect("sharded sim builds for a valid combo")
    }

    #[test]
    fn runs_and_reports_per_core() {
        let out = run_combo(&combos::gcc_mesa(), 0.5);
        assert_eq!(out.per_core.len(), 2);
        assert_eq!(&*out.per_core[0].benchmark, "gcc");
        assert!(out.per_core.iter().all(|c| c.instructions > 10_000));
        assert!(out.chip_power().value() > 10.0);
        assert!(out.chip_bips().value() > 0.5);
        assert_eq!(out.interconnect_utilization, 0.0, "flat has no fabric");
    }

    #[test]
    fn memory_bound_combo_contends_in_shared_l2() {
        // Four memory-bound benchmarks: their combined warm sets overflow
        // the shared L2 and the bus queues — per-core throughput drops
        // relative to a private-L2 single-core run of the same stream.
        let out = run_combo(&combos::mcf_mcf_art_art(), 1.0);
        assert!(
            out.l2_utilization > 0.02,
            "bus contention expected, utilisation {}",
            out.l2_utilization
        );

        // Single-core reference for mcf (core 0).
        use gpm_microarch::CoreModel;
        let mut solo = CoreModel::new(
            &CoreConfig::power4(),
            DvfsParams::paper().frequency(PowerMode::Turbo),
        )
        .expect("POWER4 core config is valid");
        let mut stream = gpm_workloads::SpecBenchmark::Mcf
            .profile()
            .stream_with(0, 0)
            .expect("mcf stream builds");
        let stats = solo.run_cycles(&mut stream, 1_000_000);
        let solo_bips = stats.bips_at(DvfsParams::paper().frequency(PowerMode::Turbo));

        let cmp_bips = out.per_core[0].bips;
        assert!(
            cmp_bips.value() < solo_bips.value(),
            "shared L2 must slow mcf: {} vs solo {}",
            cmp_bips.value(),
            solo_bips.value()
        );
    }

    #[test]
    fn cpu_bound_combo_contends_less_than_memory_bound() {
        let cpu = run_combo(&combos::sixtrack_gap_perlbmk_wupwise(), 0.5);
        let mem = run_combo(&combos::mcf_mcf_art_art(), 0.5);
        assert!(
            cpu.l2_utilization < 0.5,
            "CPU-bound combo should not saturate the bus: {}",
            cpu.l2_utilization
        );
        assert!(
            mem.l2_utilization > cpu.l2_utilization,
            "memory-bound traffic must dominate: {} vs {}",
            mem.l2_utilization,
            cpu.l2_utilization
        );
    }

    #[test]
    fn per_core_dvfs_modes_supported() {
        let combo = combos::gcc_mesa();
        let mixed = ModeCombination::new(vec![PowerMode::Turbo, PowerMode::Eff2]);
        let mut sim = FullCmpSim::new(
            &combo,
            &mixed,
            &CoreConfig::power4(),
            PowerModel::power4_calibrated(),
            DvfsParams::paper(),
        )
        .expect("flat sim builds for mixed modes");
        let out = sim.run(Micros::from_millis(0.5));
        assert_eq!(out.per_core[1].mode, PowerMode::Eff2);
        // The Eff2 core burns markedly less power per unit activity.
        assert!(out.per_core[1].power < out.per_core[0].power);
    }

    #[test]
    fn mode_count_mismatch_rejected() {
        let err = FullCmpSim::new(
            &combos::gcc_mesa(),
            &ModeCombination::uniform(3, PowerMode::Turbo),
            &CoreConfig::power4(),
            PowerModel::power4_calibrated(),
            DvfsParams::paper(),
        );
        assert!(matches!(err, Err(GpmError::CoreCountMismatch { .. })));
    }

    #[test]
    fn topology_core_count_mismatch_rejected() {
        let err = FullCmpSim::with_topology(
            &combos::gcc_mesa(),
            &ModeCombination::uniform(2, PowerMode::Turbo),
            &CoreConfig::power4(),
            PowerModel::power4_calibrated(),
            DvfsParams::paper(),
            ClusterTopology::for_cores(8, 4).expect("8 divides by 4"),
            InterconnectConfig::zero(),
        );
        assert!(matches!(err, Err(GpmError::CoreCountMismatch { .. })));
    }

    #[test]
    fn sharded_single_cluster_zero_interconnect_matches_flat() {
        // The full golden-hash bit-identity lives in
        // tests/hier_equivalence.rs; this is the cheap in-crate check that
        // the degenerate sharded drive is *exactly* the flat drive.
        let combo = combos::gcc_mesa();
        let flat = run_combo(&combo, 0.25);
        let mut sharded = sharded_sim(&combo, combo.cores(), InterconnectConfig::zero());
        let out = sharded.run(Micros::from_millis(0.25));
        assert_eq!(out, flat, "K=1 + zero interconnect must be bit-identical");
    }

    #[test]
    fn sharded_clusters_cross_interconnect() {
        // Memory-bound 4-way split into two 2-core clusters: misses cross
        // the fabric, so the interconnect sees traffic and a non-trivial
        // hop penalty slows the cores relative to a free interconnect.
        let combo = combos::mcf_mcf_art_art();
        let mut free = sharded_sim(&combo, 2, InterconnectConfig::zero());
        let mut slow = sharded_sim(
            &combo,
            2,
            InterconnectConfig {
                hop_latency_ns: 200.0,
                service_ns: 4.0,
            },
        );
        let out_free = free.run(Micros::from_millis(1.0));
        let out_slow = slow.run(Micros::from_millis(1.0));
        assert!(
            out_slow.interconnect_utilization > 0.0,
            "miss traffic must register on the fabric"
        );
        assert!(
            out_slow.chip_bips().value() < out_free.chip_bips().value(),
            "a 200 ns hop must cost throughput: {} vs {}",
            out_slow.chip_bips().value(),
            out_free.chip_bips().value()
        );
    }

    #[test]
    fn sharded_private_l2_reduces_capacity_contention() {
        // mcf|mcf|art|art in one 4-core cluster shares a 2 MB L2; split
        // into two clusters each pair gets a private 2 MB array, so chip
        // miss counts can only drop (same streams, more total capacity).
        let combo = combos::mcf_mcf_art_art();
        let mut one = sharded_sim(&combo, 4, InterconnectConfig::zero());
        let mut two = sharded_sim(&combo, 2, InterconnectConfig::zero());
        let misses_one: u64 = one
            .run(Micros::from_millis(1.0))
            .per_core
            .iter()
            .map(|c| c.l2_misses)
            .sum();
        let misses_two: u64 = two
            .run(Micros::from_millis(1.0))
            .per_core
            .iter()
            .map(|c| c.l2_misses)
            .sum();
        assert!(
            misses_two < misses_one,
            "private per-cluster L2s must cut misses: {misses_two} vs {misses_one}"
        );
    }

    #[test]
    fn invalid_quantum_rejected() {
        let combo = combos::gcc_mesa();
        let modes = ModeCombination::uniform(2, PowerMode::Turbo);
        let mut sim = FullCmpSim::new(
            &combo,
            &modes,
            &CoreConfig::power4(),
            PowerModel::power4_calibrated(),
            DvfsParams::paper(),
        )
        .expect("flat sim builds for a valid combo");
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert!(
                matches!(
                    sim.set_quantum(Micros::new(bad)),
                    Err(GpmError::InvalidConfig {
                        parameter: "quantum",
                        ..
                    })
                ),
                "quantum {bad} must be rejected"
            );
        }
        sim.set_quantum(Micros::new(2.5)).expect("valid quantum");
    }

    #[test]
    fn repeated_runs_reuse_accumulators() {
        // Back-to-back runs on one simulator must report only their own
        // interval (accumulators reset), while microarchitectural state
        // (warm caches) persists — the second run is at least as fast.
        let combo = combos::gcc_mesa();
        let modes = ModeCombination::uniform(2, PowerMode::Turbo);
        let mut sim = FullCmpSim::new(
            &combo,
            &modes,
            &CoreConfig::power4(),
            PowerModel::power4_calibrated(),
            DvfsParams::paper(),
        )
        .expect("flat sim builds for a valid combo");
        let first = sim.run(Micros::from_millis(0.25));
        let second = sim.run(Micros::from_millis(0.25));
        for (a, b) in first.per_core.iter().zip(&second.per_core) {
            assert!(
                b.instructions < a.instructions * 2,
                "second run must not double-count: {} vs {}",
                b.instructions,
                a.instructions
            );
            assert!(b.instructions > 10_000);
        }
    }

    #[test]
    fn diagnostics_match_drive_shape() {
        let combo = combos::gcc_mesa();
        let modes = ModeCombination::uniform(2, PowerMode::Turbo);
        let flat = FullCmpSim::new(
            &combo,
            &modes,
            &CoreConfig::power4(),
            PowerModel::power4_calibrated(),
            DvfsParams::paper(),
        )
        .expect("flat sim builds");
        assert!(flat.shared_l2().is_some());
        assert!(flat.interconnect().is_none());
        let sharded = sharded_sim(&combo, 1, InterconnectConfig::default());
        assert!(sharded.shared_l2().is_none());
        assert!(sharded.interconnect().is_some());
    }
}
