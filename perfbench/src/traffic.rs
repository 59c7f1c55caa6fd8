//! Seeded fleet traffic for the serve workloads.
//!
//! Every report is a pure function of `(seed, node index, tick)`, so the
//! client, the in-process replay and the tests regenerate byte-identical
//! telemetry without storing it.

use gpm_core::fleet_load::{PhaseTables, FAMILIES, PHASES};
use gpm_core::{CacheConfig, FleetConfig, NodeTelemetry, PowerBipsMatrices};
use gpm_net::wire::{encode_telemetry, encode_tick_end};
use gpm_types::{ModeCombination, PowerMode, Watts};

use crate::util::{splitmix64, unit_draw};

/// Nodes per `serve_hit` tick: a whole number of family rotations
/// (160 × 64), so the width mix, and with it every byte count, is the
/// same for every seed.
pub const HIT_NODES: u64 = 160 * FAMILIES as u64;

/// Nodes per `serve_miss` tick, sized so a miss tick costs about what a
/// hit tick does on a two-core host. A multiple of the width rotation.
pub const MISS_NODES: u64 = 1_024;

/// Chip widths of `serve_miss` nodes, in rotation by node index. 64-way
/// nodes exceed the fleet's flat-solver limit and go through
/// `HierMaxBips`.
pub const MISS_WIDTHS: [usize; 4] = [8, 16, 32, 64];

/// Which traffic mix a serve workload replays.
pub enum Traffic {
    /// The phase-repeating `gpm loadgen` fleet: after one rotation every
    /// report is a cache or dedup hit.
    Hit {
        /// The 64 families × 4 phases of decision problems.
        tables: PhaseTables,
        /// Node-id offset drawn from the seed.
        base: u64,
    },
    /// Distinct jittered matrices per (node, tick): every report is a
    /// fresh exact key.
    Miss {
        /// Jitter seed.
        seed: u64,
    },
}

impl Traffic {
    /// The `serve_hit` traffic for `seed`.
    #[must_use]
    pub fn hit(seed: u64) -> Self {
        Self::Hit {
            tables: PhaseTables::build(),
            // 40 bits keeps ids far from wrapping while still moving every
            // node's family phase offset with the seed.
            base: splitmix64(seed) >> 24,
        }
    }

    /// The `serve_miss` traffic for `seed`.
    #[must_use]
    pub fn miss(seed: u64) -> Self {
        Self::Miss {
            seed: splitmix64(seed ^ 0x6D69_7373),
        }
    }

    /// Nodes reporting each tick.
    #[must_use]
    pub fn nodes(&self) -> u64 {
        match self {
            Self::Hit { .. } => HIT_NODES,
            Self::Miss { .. } => MISS_NODES,
        }
    }

    /// The engine configuration every serve run uses: `FleetConfig`
    /// defaults (exact-keyed cache of 4096) with the tick queue sized to
    /// the node count.
    #[must_use]
    pub fn config(&self) -> FleetConfig {
        FleetConfig {
            queue_capacity: self.nodes() as usize,
            ..FleetConfig::default()
        }
    }

    /// Ticks of the warm epoch that precedes measurement: one phase
    /// rotation for hit traffic; for miss traffic enough ticks to fill the
    /// decision cache to capacity, plus one so eviction is under way.
    #[must_use]
    pub fn warm_ticks(&self) -> u64 {
        match self {
            Self::Hit { .. } => PHASES as u64,
            Self::Miss { .. } => {
                let capacity = CacheConfig::default().capacity as u64;
                capacity.div_ceil(MISS_NODES) + 1
            }
        }
    }

    /// The node id reporting in slot `index`.
    #[must_use]
    pub fn node_id(&self, index: u64) -> u64 {
        match self {
            Self::Hit { base, .. } => base + index,
            Self::Miss { .. } => index,
        }
    }

    /// The report of slot `index` at `tick`.
    #[must_use]
    pub fn report(&self, index: u64, tick: u64) -> NodeTelemetry {
        match self {
            Self::Hit { tables, base } => tables.telemetry(base + index, tick),
            Self::Miss { seed } => miss_report(*seed, index, tick),
        }
    }

    /// Encodes one whole tick into `out` (cleared first): every node's
    /// telemetry frame, then the `TickEnd` cut.
    pub fn encode_tick(&self, tick: u64, out: &mut Vec<u8>) {
        out.clear();
        for index in 0..self.nodes() {
            encode_telemetry(&self.report(index, tick), out);
        }
        encode_tick_end(tick, out);
    }
}

/// One jittered miss-traffic report. The base rows follow the
/// `PhaseTables` shape (Eff1/Eff2 at ~0.55/0.3 of Turbo power); every
/// cell, and the budget fraction, carries its own seeded jitter.
#[must_use]
pub fn miss_report(seed: u64, node: u64, tick: u64) -> NodeTelemetry {
    let cores = MISS_WIDTHS[(node % MISS_WIDTHS.len() as u64) as usize];
    let mut state = splitmix64(seed ^ splitmix64(node) ^ splitmix64(tick).rotate_left(17));
    let n = node as usize;
    let mut power = Vec::with_capacity(cores);
    let mut bips = Vec::with_capacity(cores);
    for i in 0..cores {
        let p = (12.0 + ((i * 7 + n * 3) % 11) as f64 * 1.3) * (0.9 + 0.2 * unit_draw(&mut state));
        power.push([
            p,
            p * (0.54 + 0.02 * unit_draw(&mut state)),
            p * (0.29 + 0.02 * unit_draw(&mut state)),
        ]);
        let b = (0.4 + ((i * 5 + n * 2) % 9) as f64 * 0.35) * (0.9 + 0.2 * unit_draw(&mut state));
        bips.push([
            b,
            b * (0.84 + 0.02 * unit_draw(&mut state)),
            b * (0.69 + 0.02 * unit_draw(&mut state)),
        ]);
    }
    let turbo: f64 = power.iter().map(|row| row[0]).sum();
    let budget = Watts::new(turbo * (0.7 + 0.2 * unit_draw(&mut state)));
    NodeTelemetry {
        node,
        tick,
        matrices: PowerBipsMatrices::from_rows(power, bips),
        current: ModeCombination::uniform(cores, PowerMode::Turbo),
        budget,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpm_core::{DecisionCache, FleetEngine};
    use std::collections::HashSet;

    #[test]
    fn same_seed_gives_byte_identical_telemetry() {
        for make in [Traffic::hit as fn(u64) -> Traffic, Traffic::miss] {
            let (mut a, mut b, mut c) = (Vec::new(), Vec::new(), Vec::new());
            make(7).encode_tick(3, &mut a);
            make(7).encode_tick(3, &mut b);
            make(8).encode_tick(3, &mut c);
            assert_eq!(a, b);
            assert_ne!(a, c, "the seed must move the inputs");
        }
    }

    #[test]
    fn hit_byte_counts_do_not_depend_on_the_seed() {
        let (mut a, mut b) = (Vec::new(), Vec::new());
        Traffic::hit(1).encode_tick(0, &mut a);
        Traffic::hit(2).encode_tick(0, &mut b);
        assert_eq!(a.len(), b.len());
    }

    #[test]
    fn miss_ticks_hold_no_duplicate_keys() {
        let traffic = Traffic::miss(11);
        let config = traffic.config();
        let cache = DecisionCache::new(config.cache.clone()).expect("default cache config");
        let mut keys = HashSet::new();
        for tick in 0..2 {
            for index in 0..traffic.nodes() {
                let r = traffic.report(index, tick);
                let key = cache.key(
                    &r.matrices,
                    &r.current,
                    r.budget,
                    &config.dvfs,
                    config.explore,
                );
                assert!(
                    keys.insert(key),
                    "duplicate key at node {index} tick {tick}"
                );
            }
        }
    }

    #[test]
    fn miss_traffic_never_hits_the_cache() {
        let traffic = Traffic::miss(5);
        let mut engine = FleetEngine::new(traffic.config()).expect("valid config");
        // Small widths only: the wide hierarchical solves add nothing to
        // the hit accounting and dominate test time.
        let small: Vec<u64> = (0..traffic.nodes())
            .filter(|i| i % 4 != 3)
            .take(96)
            .collect();
        for tick in 0..3 {
            for &index in &small {
                assert!(engine.submit(traffic.report(index, tick)));
            }
            assert_eq!(engine.run_tick(tick).len(), small.len());
        }
        let stats = engine.stats();
        assert_eq!(stats.cache_hits + stats.dedup_hits, 0);
        assert_eq!(stats.hit_rate(), 0.0);
        assert_eq!(stats.unique_solves, 3 * small.len() as u64);
    }

    #[test]
    fn miss_widths_rotate_and_reports_are_valid() {
        let traffic = Traffic::miss(3);
        for index in 0..8 {
            let r = traffic.report(index, 0);
            assert_eq!(r.matrices.cores(), MISS_WIDTHS[index as usize % 4]);
            assert!(r.matrices.cells_valid());
            assert!(r.budget.value() > 0.0);
        }
    }

    #[test]
    fn warm_epoch_fills_the_miss_cache() {
        let traffic = Traffic::miss(1);
        let capacity = CacheConfig::default().capacity as u64;
        assert!(traffic.warm_ticks() * traffic.nodes() > capacity);
        assert_eq!(Traffic::hit(1).warm_ticks(), PHASES as u64);
    }
}
