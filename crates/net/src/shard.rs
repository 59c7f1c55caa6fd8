//! The sharded decision engine: node-id → shard routing over K private
//! [`FleetEngine`]s.
//!
//! Each shard is an engine with its own decision cache and bounded
//! ingest queue. [`ShardedEngine::try_submit`] hands a report straight to
//! its node's engine and returns that engine's own [`SubmitOutcome`], so
//! validation failures, queue backpressure and backoff-aware retry hints
//! are the engine's, whatever the shard count. [`ShardedEngine::run_tick`]
//! cuts the tick on every shard with one [`gpm_par::parallel_map`] and
//! concatenates the batches in shard order.
//!
//! The same code path runs for every shard count. At one shard the map
//! runs its single item inline, outside any parallel region, so the
//! engine keeps its full-width residual-solve fan-out. At K > 1 the
//! shards' ticks share the worker pool and each shard's solves run
//! inline on its pool worker, so the pool width bounds the thread count.
//!
//! # Determinism
//!
//! Shard assignment is [`node_shard`] — one splitmix64 finalizer round
//! modulo the shard count, a pure function of the node id. Within a
//! shard, submissions arrive in client order and the engine's own tick
//! protocol is pool-width independent, so for a fixed shard count the
//! per-node decision stream is bit-identical across `GPM_THREADS`
//! settings and transports. Across *different* shard counts the per-node
//! stream is still invariant (sharding only changes which cache answers a
//! node, and exact-keyed cache hits are bit-identical to fresh solves) —
//! unless a rack budget is configured: rack shedding reacts to the
//! co-resident nodes of the same engine, so rack-armed decisions are
//! deterministic per shard count but not invariant across shard counts.

use std::sync::{Mutex, MutexGuard};

use gpm_core::{
    node_shard, FleetCheckpoint, FleetConfig, FleetEngine, FleetStats, NodeDecision, NodeTelemetry,
    SubmitOutcome,
};
use gpm_types::{Result, Watts};

/// K private [`FleetEngine`]s behind a node-id router.
///
/// Each engine sits behind its own `Mutex` because the parallel map in
/// [`run_tick`](Self::run_tick) hands every pool worker a shared
/// reference; the lock is never contended, and methods holding
/// `&mut self` reach the engines without locking at all.
pub struct ShardedEngine {
    engines: Vec<Mutex<FleetEngine>>,
}

const POISONED: &str = "shard engine poisoned by a panicked tick";

/// The engine behind a shard's lock, reached through `&mut` without
/// locking.
fn owned(shard: &mut Mutex<FleetEngine>) -> &mut FleetEngine {
    shard.get_mut().expect(POISONED)
}

/// The engine behind a shard's (uncontended) lock.
fn locked(shard: &Mutex<FleetEngine>) -> MutexGuard<'_, FleetEngine> {
    shard.lock().expect(POISONED)
}

impl ShardedEngine {
    /// Builds one engine per config, in shard order.
    ///
    /// # Errors
    ///
    /// Rejects a zero shard count and propagates engine-config errors.
    pub fn new(configs: Vec<FleetConfig>) -> Result<Self> {
        Self::from_engines(
            configs
                .into_iter()
                .map(FleetEngine::new)
                .collect::<Result<Vec<_>>>()?,
        )
    }

    /// [`ShardedEngine::new`] with the same config cloned to every shard.
    ///
    /// # Errors
    ///
    /// Rejects a zero shard count and propagates engine-config errors.
    pub fn homogeneous(config: &FleetConfig, shards: usize) -> Result<Self> {
        Self::new(vec![config.clone(); shards])
    }

    /// Restores every shard from its checkpoint (one per shard, in shard
    /// order), resuming bit-identically per the engine's own guarantee.
    ///
    /// # Errors
    ///
    /// Rejects a zero shard count and propagates per-shard restore
    /// errors (version/config-fingerprint mismatches).
    pub fn restore(config: &FleetConfig, checkpoints: &[FleetCheckpoint]) -> Result<Self> {
        Self::from_engines(
            checkpoints
                .iter()
                .map(|checkpoint| FleetEngine::restore(config.clone(), checkpoint))
                .collect::<Result<Vec<_>>>()?,
        )
    }

    fn from_engines(engines: Vec<FleetEngine>) -> Result<Self> {
        if engines.is_empty() {
            return Err(gpm_types::GpmError::InvalidConfig {
                parameter: "serve.shards",
                reason: "the sharded engine needs at least one shard".into(),
            });
        }
        Ok(Self {
            engines: engines.into_iter().map(Mutex::new).collect(),
        })
    }

    /// Shard count.
    #[must_use]
    pub fn shards(&self) -> usize {
        self.engines.len()
    }

    /// Submissions rejected for backpressure so far: every shard's
    /// `rejected_backpressure`, summed.
    #[must_use]
    pub fn router_rejected(&self) -> u64 {
        self.engines
            .iter()
            .map(|shard| locked(shard).stats().rejected_backpressure)
            .sum()
    }

    /// Routes one report to its node's shard and returns that engine's
    /// own outcome: validation failure, backpressure with the engine's
    /// (backoff-aware) retry hint, or acceptance.
    pub fn try_submit(&mut self, telemetry: NodeTelemetry) -> SubmitOutcome {
        let shard = node_shard(telemetry.node, self.engines.len());
        owned(&mut self.engines[shard]).try_submit(telemetry)
    }

    /// Cuts the tick on every shard in parallel and returns the decisions
    /// in shard order (shard 0's batch first), which keeps the
    /// concatenated stream deterministic for a fixed shard count.
    ///
    /// # Panics
    ///
    /// Propagates a panic from any shard's tick.
    pub fn run_tick(&mut self, now: u64) -> Vec<NodeDecision> {
        let mut batches =
            gpm_par::parallel_map(&self.engines, |shard| locked(shard).run_tick(now)).into_iter();
        // Shard 0's batch is kept, not copied: only the later shards'
        // batches are appended.
        let mut decisions = batches.next().unwrap_or_default();
        for batch in batches {
            decisions.extend(batch);
        }
        decisions
    }

    /// Drops every report queued since the last tick cut without deciding
    /// it, counting each in its shard's `dropped_dark`. The server calls
    /// this when a connection ends, so a client's half-submitted tick
    /// never reaches the next client.
    pub fn discard_queued(&mut self) {
        for shard in &mut self.engines {
            owned(shard).discard_queued();
        }
    }

    /// Aggregated accounting: every shard's [`FleetStats`] merged
    /// (counters summed, running maxima maxed).
    pub fn stats(&mut self) -> FleetStats {
        let mut merged = FleetStats::default();
        for shard in &mut self.engines {
            merged.merge(&owned(shard).stats());
        }
        merged
    }

    /// One checkpoint per shard, in shard order — the restore-side
    /// counterpart is [`ShardedEngine::restore`].
    pub fn checkpoint(&mut self) -> Vec<FleetCheckpoint> {
        self.engines
            .iter_mut()
            .map(|shard| owned(shard).checkpoint())
            .collect()
    }

    /// Re-arms every shard's rack budget (each shard gets the given
    /// budget as-is; the server divides a whole-rack budget by the shard
    /// count before calling this).
    ///
    /// # Errors
    ///
    /// Returns [`gpm_types::GpmError::InvalidConfig`], leaving every shard
    /// unchanged, for a budget that is not finite and positive. Validity
    /// depends on the budget alone, so the first shard refuses what every
    /// shard would.
    pub fn set_rack_budget(&mut self, budget: Option<Watts>) -> Result<()> {
        for shard in &mut self.engines {
            owned(shard).set_rack_budget(budget)?;
        }
        Ok(())
    }
}
