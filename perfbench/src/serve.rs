//! The serve workloads: a closed-loop client against an in-process
//! `gpm_net::Server` on loopback TCP, checked against an in-process
//! `FleetEngine` replay of the same reports.

use std::collections::HashMap;
use std::io::{BufReader, BufWriter};
use std::net::TcpListener;
use std::time::{Duration, Instant};

use gpm_core::{
    solver, FleetConfig, FleetEngine, FleetStats, HierMaxBips, NodeDecision, NodeTelemetry, Policy,
    PolicyContext,
};
use gpm_net::wire::{
    encode_decision, encode_shutdown, encode_tick_done, write_all, Frame, FrameReader,
};
use gpm_net::{connect, ClientStream, Endpoint, ServeOptions, Server, ShardedEngine};
use gpm_types::{GpmError, ModeCombination};

use crate::traffic::Traffic;
use crate::util::{peak_rss_mb, splitmix64, Attribution, Digest};

/// Which serve workload to build traffic for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeKind {
    /// `serve_hit`: phase-repeating traffic, all hits after warm-up.
    Hit,
    /// `serve_miss`: jittered traffic, every report a fresh key.
    Miss,
}

impl ServeKind {
    /// Workload name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Hit => "serve_hit",
            Self::Miss => "serve_miss",
        }
    }

    fn traffic(self, seed: u64) -> Traffic {
        match self {
            Self::Hit => Traffic::hit(seed),
            Self::Miss => Traffic::miss(seed),
        }
    }
}

/// Failures counted against submitted reports.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServeFailures {
    /// Reports that got no decision.
    pub missing: u64,
    /// Decisions beyond the first for a report, or for no report.
    pub extra: u64,
    /// Router rejections (`TickDone.rejected`).
    pub router_rejected: u64,
    /// Engine drops and rejections (`FleetStats`).
    pub fleet_dropped: u64,
    /// Reports lost to a protocol or transport error.
    pub protocol: u64,
    /// Decisions that differ from the in-process replay (whole stream
    /// counted when the digests differ).
    pub replay_mismatch: u64,
    /// Sampled decisions that differ from a direct solve.
    pub solver_mismatch: u64,
    /// Measured-epoch decisions that broke the workload's premise, from
    /// the replay's `FleetStats`: unique solves on `serve_hit`, cache or
    /// dedup hits on `serve_miss`.
    pub premise: u64,
}

impl ServeFailures {
    /// All failures.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.missing
            + self.extra
            + self.router_rejected
            + self.fleet_dropped
            + self.protocol
            + self.replay_mismatch
            + self.solver_mismatch
            + self.premise
    }

    fn add(&mut self, other: &Self) {
        self.missing += other.missing;
        self.extra += other.extra;
        self.router_rejected += other.router_rejected;
        self.fleet_dropped += other.fleet_dropped;
        self.protocol += other.protocol;
        self.replay_mismatch += other.replay_mismatch;
        self.solver_mismatch += other.solver_mismatch;
        self.premise += other.premise;
    }

    /// One-line breakdown.
    #[must_use]
    pub fn render(&self) -> String {
        format!(
            "missing={} extra={} router_rejected={} fleet_dropped={} protocol={} \
             replay_mismatch={} solver_mismatch={} premise={}",
            self.missing,
            self.extra,
            self.router_rejected,
            self.fleet_dropped,
            self.protocol,
            self.replay_mismatch,
            self.solver_mismatch,
            self.premise
        )
    }
}

/// Engine drops that mean a report got no solver-path decision.
fn fleet_dropped(stats: &FleetStats) -> u64 {
    stats.dropped_stale
        + stats.dropped_dark
        + stats.rejected_backpressure
        + stats.rejected_invalid
        + stats.solver_timeouts
}

fn digest_decision(digest: &mut Digest, decision: &NodeDecision) {
    digest.word(decision.node);
    digest.word(decision.tick);
    digest.word(u64::from(decision.degraded));
    for mode in decision.modes.as_slice() {
        digest.word(mode.index() as u64);
    }
}

/// Client-side spans of one tick.
#[derive(Debug, Clone, Copy, Default)]
struct ClientSpans {
    encode: Duration,
    write: Duration,
    wait: Duration,
    drain: Duration,
}

/// The client half of the closed loop: one connection, one tick in
/// flight.
struct Client {
    writer: BufWriter<ClientStream>,
    reader: FrameReader<BufReader<ClientStream>>,
    out: Vec<u8>,
    received: Vec<u64>,
}

impl Client {
    fn connect(endpoint: &Endpoint) -> gpm_types::Result<Self> {
        let stream = connect(endpoint)?;
        Ok(Self {
            writer: BufWriter::new(stream.try_clone()?),
            reader: FrameReader::new(BufReader::new(stream)),
            out: Vec::new(),
            received: Vec::new(),
        })
    }

    /// Encodes and sends one tick, then reads decisions up to its
    /// `TickDone`. Latency runs from the first byte written to `TickDone`
    /// received; encoding comes before it.
    fn tick(
        &mut self,
        traffic: &Traffic,
        tick: u64,
        digest: &mut Digest,
        failures: &mut ServeFailures,
        on_decision: &mut dyn FnMut(&NodeDecision),
    ) -> gpm_types::Result<(Duration, ClientSpans)> {
        let encode_start = Instant::now();
        traffic.encode_tick(tick, &mut self.out);
        let start = Instant::now();
        write_all(&mut self.writer, &self.out)?;
        let written = Instant::now();
        let mut first = None;
        self.received.clear();
        loop {
            match self.reader.read()? {
                Some(Frame::Decision(decision)) => {
                    first.get_or_insert_with(Instant::now);
                    digest_decision(digest, &decision);
                    self.received.push(decision.node);
                    on_decision(&decision);
                }
                Some(Frame::TickDone {
                    tick: done,
                    rejected,
                    ..
                }) if done == tick => {
                    failures.router_rejected += rejected;
                    break;
                }
                other => {
                    return Err(GpmError::Wire(format!(
                        "unexpected {other:?} while awaiting tick {tick}"
                    )));
                }
            }
        }
        let end = Instant::now();
        let first = first.unwrap_or(end);
        count_stream(traffic, &self.received, failures);
        Ok((
            end - start,
            ClientSpans {
                encode: start - encode_start,
                write: written - start,
                wait: first - written,
                drain: end - first,
            },
        ))
    }

    fn shutdown(mut self) -> gpm_types::Result<()> {
        self.out.clear();
        encode_shutdown(&mut self.out);
        write_all(&mut self.writer, &self.out)
    }
}

/// Counts missing and surplus decisions of one tick against the slots
/// that reported.
fn count_stream(traffic: &Traffic, received: &[u64], failures: &mut ServeFailures) {
    let nodes = traffic.nodes();
    // The inline engine answers in submission order: the common case is
    // an exact positional match.
    if received.len() as u64 == nodes
        && received
            .iter()
            .enumerate()
            .all(|(i, &node)| node == traffic.node_id(i as u64))
    {
        return;
    }
    let mut seen: HashMap<u64, u64> = HashMap::new();
    for &node in received {
        *seen.entry(node).or_default() += 1;
    }
    for index in 0..nodes {
        match seen.remove(&traffic.node_id(index)) {
            None => failures.missing += 1,
            Some(count) => failures.extra += count - 1,
        }
    }
    failures.extra += seen.values().sum::<u64>();
}

/// One served unit: fresh server, warm epoch, measured ticks.
pub struct ServeUnit {
    /// Server bind, engine build, generator tables and warm epoch.
    pub setup_s: f64,
    /// Measured tick latencies, milliseconds.
    pub tick_ms: Vec<f64>,
    /// Wall seconds of the measured epoch.
    pub measured_s: f64,
    /// Decisions received in the measured epoch.
    pub measured_decisions: u64,
    /// Reports submitted over all ticks.
    pub submitted: u64,
    /// Process peak resident set at the end of the measured epoch, MiB.
    pub peak_rss_mb: f64,
    /// Failures counted so far (transport, stream and server side).
    pub failures: ServeFailures,
    kind: ServeKind,
    traffic: Traffic,
    ticks: u64,
    wire_digest: Digest,
    samples: Vec<(NodeDecision, u64)>,
}

/// How long (or how many ticks) a unit measures.
#[derive(Debug, Clone, Copy)]
pub struct Measure {
    /// Keep ticking at least this long.
    pub at_least: Duration,
    /// And at least this many ticks.
    pub min_ticks: u64,
}

/// Runs one unit against the real `Server`. Decisions of a seeded sample
/// of reports are kept (up to `max_samples`) for the solver check.
///
/// # Errors
///
/// Returns bind and connect failures; transport and protocol errors
/// during ticks are counted as failures instead.
pub fn run_unit(
    kind: ServeKind,
    seed: u64,
    measure: Measure,
    max_samples: usize,
) -> gpm_types::Result<ServeUnit> {
    let setup_start = Instant::now();
    let traffic = kind.traffic(seed);
    let server = Server::bind(
        &Endpoint::Tcp("127.0.0.1:0".into()),
        ServeOptions {
            shards: 1,
            config: traffic.config(),
            once: true,
        },
    )?;
    let endpoint = server.local_endpoint();
    let handle = std::thread::spawn(move || server.run());
    let mut client = match Client::connect(&endpoint) {
        Ok(client) => client,
        Err(err) => {
            // Unblock the accept loop so the server thread can end.
            drop(connect(&endpoint));
            let _ = handle.join();
            return Err(err);
        }
    };

    let mut failures = ServeFailures::default();
    let mut wire_digest = Digest::default();
    let mut samples = Vec::new();
    let nodes = traffic.nodes();
    let mut tick = 0u64;
    let mut submitted = 0u64;
    let mut tick_ms = Vec::new();
    let mut measured_decisions = 0u64;
    let mut setup_s = 0.0;
    let mut measured_s = 0.0;
    let mut protocol_error = None;
    let mut peak_rss = f64::NAN;

    let warm = traffic.warm_ticks();
    let mut measure_start = Instant::now();
    loop {
        if tick == warm {
            setup_s = setup_start.elapsed().as_secs_f64();
            measure_start = Instant::now();
        }
        if tick >= warm
            && tick - warm >= measure.min_ticks
            && measure_start.elapsed() >= measure.at_least
        {
            measured_s = measure_start.elapsed().as_secs_f64();
            peak_rss = peak_rss_mb().unwrap_or(f64::NAN);
            break;
        }
        // One sampled slot per tick, drawn from the seed.
        let sample_slot = splitmix64(seed ^ tick.wrapping_mul(0x5851_F42D)) % nodes;
        let sample_node = traffic.node_id(sample_slot);
        let mut decisions = 0u64;
        let mut keep = |decision: &NodeDecision| {
            decisions += 1;
            if samples.len() < max_samples && decision.node == sample_node {
                samples.push((decision.clone(), sample_slot));
            }
        };
        submitted += nodes;
        match client.tick(&traffic, tick, &mut wire_digest, &mut failures, &mut keep) {
            Ok((latency, _)) => {
                if tick >= warm {
                    tick_ms.push(latency.as_secs_f64() * 1e3);
                    measured_decisions += decisions;
                }
            }
            Err(err) => {
                failures.protocol += nodes;
                protocol_error = Some(err);
                break;
            }
        }
        tick += 1;
    }

    if protocol_error.is_none() {
        if let Err(err) = client.shutdown() {
            failures.protocol += 1;
            protocol_error = Some(err);
        }
    } else {
        drop(client);
    }
    match handle.join() {
        Ok(Ok(summary)) => {
            failures.router_rejected = failures.router_rejected.max(summary.stats.router_rejected);
            failures.fleet_dropped += fleet_dropped(&summary.stats.fleet);
        }
        Ok(Err(err)) => {
            failures.protocol += 1;
            protocol_error.get_or_insert(err);
        }
        Err(_) => failures.protocol += 1,
    }
    if let Some(err) = protocol_error {
        eprintln!("{}: protocol error: {err}", kind.name());
    }
    Ok(ServeUnit {
        setup_s,
        tick_ms,
        measured_s,
        measured_decisions,
        submitted,
        peak_rss_mb: peak_rss,
        failures,
        kind,
        traffic,
        ticks: tick,
        wire_digest,
        samples,
    })
}

/// The in-process replay of a unit's reports: the reference decision
/// stream, plus engine-direct timings and accounting for the measured
/// epoch.
pub struct Replay {
    /// Digest of every decision in order.
    pub digest: Digest,
    /// Seconds spent in `FleetEngine::run_tick` over measured ticks.
    pub run_tick_s: f64,
    /// Measured ticks replayed.
    pub measured_ticks: u64,
    /// Decisions of the measured ticks.
    pub measured_decisions: u64,
    /// Engine accounting over the measured epoch only.
    pub stats: FleetStats,
    /// Cache entries after the last tick.
    pub cache_len: usize,
    /// Cache capacity.
    pub cache_capacity: usize,
}

/// Replays `ticks` ticks of `traffic` through a fresh engine, in the
/// same order the client submitted them.
///
/// # Errors
///
/// Propagates engine-config errors.
pub fn replay(traffic: &Traffic, ticks: u64) -> gpm_types::Result<Replay> {
    let mut engine = FleetEngine::new(traffic.config())?;
    let mut digest = Digest::default();
    let warm = traffic.warm_ticks().min(ticks);
    let mut warm_stats = FleetStats::default();
    let mut run_tick_s = 0.0;
    let mut measured_decisions = 0;
    for tick in 0..ticks {
        if tick == warm {
            warm_stats = engine.stats();
        }
        for index in 0..traffic.nodes() {
            engine.try_submit(traffic.report(index, tick));
        }
        let start = Instant::now();
        let batch = engine.run_tick(tick);
        if tick >= warm {
            run_tick_s += start.elapsed().as_secs_f64();
            measured_decisions += batch.len() as u64;
        }
        for decision in &batch {
            digest_decision(&mut digest, decision);
        }
    }
    let end = engine.stats();
    let stats = FleetStats {
        decisions_total: end.decisions_total - warm_stats.decisions_total,
        cache_hits: end.cache_hits - warm_stats.cache_hits,
        dedup_hits: end.dedup_hits - warm_stats.dedup_hits,
        unique_solves: end.unique_solves - warm_stats.unique_solves,
        solver_us_spent: end.solver_us_spent - warm_stats.solver_us_spent,
        ..end
    };
    Ok(Replay {
        digest,
        run_tick_s,
        measured_ticks: ticks - warm,
        measured_decisions,
        stats,
        cache_len: engine.cache().len(),
        cache_capacity: engine.config().cache.capacity,
    })
}

/// The fleet's own solver dispatch, called directly: flat exact B&B up to
/// the flat limit, `HierMaxBips` above.
fn direct_solve(traffic: &Traffic, slot: u64, tick: u64) -> ModeCombination {
    let config = traffic.config();
    let report = traffic.report(slot, tick);
    if report.matrices.cores() <= config.flat_core_limit {
        solver::solve(
            &report.matrices,
            &report.current,
            report.budget,
            &config.dvfs,
            config.explore,
        )
    } else {
        hier_decide(&report, &config)
    }
}

/// `HierMaxBips` on one report, as the fleet runs it for nodes wider than
/// its flat-solver limit.
#[must_use]
pub fn hier_decide(report: &NodeTelemetry, config: &FleetConfig) -> ModeCombination {
    let mut hier = HierMaxBips::with_cluster_cores(config.cluster_cores)
        .expect("default cluster width is valid");
    hier.decide(&PolicyContext {
        current_modes: &report.current,
        matrices: &report.matrices,
        future: None,
        budget: report.budget,
        dvfs: &config.dvfs,
        explore: config.explore,
    })
}

/// Measured-epoch decisions that contradict the workload: after warm-up
/// `serve_hit` must never reach the solver, and `serve_miss` must never
/// hit the cache or share a key within a tick.
#[must_use]
pub fn broken_premise(kind: ServeKind, measured: &FleetStats) -> u64 {
    match kind {
        ServeKind::Hit => measured.unique_solves,
        ServeKind::Miss => measured.cache_hits + measured.dedup_hits,
    }
}

impl ServeUnit {
    /// Checks the unit outside the timed region: the wire decision stream
    /// against the in-process replay, the workload's premise against the
    /// replay's measured-epoch accounting, and the sampled decisions
    /// against a direct solve. Returns the replay for its timings.
    ///
    /// # Errors
    ///
    /// Propagates engine-config errors.
    pub fn check(&mut self) -> gpm_types::Result<Replay> {
        let replay = replay(&self.traffic, self.ticks)?;
        if replay.digest != self.wire_digest {
            self.failures.replay_mismatch += self.ticks * self.traffic.nodes();
        }
        self.failures.premise += broken_premise(self.kind, &replay.stats);
        for (decision, slot) in &self.samples {
            if direct_solve(&self.traffic, *slot, decision.tick) != decision.modes {
                self.failures.solver_mismatch += 1;
            }
        }
        Ok(replay)
    }

    /// Sampled decisions checked against a direct solve.
    #[must_use]
    pub fn sampled(&self) -> usize {
        self.samples.len()
    }
}

/// Aggregated end-to-end result of a serve workload run.
pub struct ServeRun {
    /// Per-unit set-up seconds.
    pub setup_s: Vec<f64>,
    /// Every measured tick latency, milliseconds.
    pub tick_ms: Vec<f64>,
    /// Decisions over measured wall seconds.
    pub decisions_per_s: f64,
    /// Reports submitted.
    pub submitted: u64,
    /// Process peak resident set at the end of the first unit's measured
    /// epoch, before any check ran, MiB.
    pub peak_rss_mb: f64,
    /// Failures.
    pub failures: ServeFailures,
    /// Decisions checked against a direct solve.
    pub sampled: usize,
}

/// Target length of one serve unit. Many short units, each with a fresh
/// server, average out per-unit effects such as where the scheduler
/// places the server thread.
pub const UNIT_SECONDS: f64 = 1.0;

/// Ticks the p95 rule needs over a run.
pub const MIN_TICKS: u64 = 200;

/// Runs a serve workload end to end for about `seconds` of measured
/// ticks, split over units of about [`UNIT_SECONDS`] with a fresh server
/// each; every unit is checked after it ends.
///
/// # Errors
///
/// Returns bind, connect and engine-config failures.
pub fn run_e2e(kind: ServeKind, seed: u64, seconds: f64) -> gpm_types::Result<ServeRun> {
    let units = (seconds / UNIT_SECONDS).round().max(1.0) as u64;
    let measure = Measure {
        at_least: Duration::from_secs_f64(seconds / units as f64),
        min_ticks: MIN_TICKS.div_ceil(units),
    };
    let max_samples = match kind {
        ServeKind::Hit => 0,
        ServeKind::Miss => 24,
    };
    let mut run = ServeRun {
        setup_s: Vec::new(),
        tick_ms: Vec::new(),
        decisions_per_s: 0.0,
        submitted: 0,
        peak_rss_mb: f64::NAN,
        failures: ServeFailures::default(),
        sampled: 0,
    };
    let (mut decisions, mut wall) = (0u64, 0.0);
    for index in 0..units {
        let mut unit = run_unit(kind, seed, measure, max_samples)?;
        if index == 0 {
            run.peak_rss_mb = unit.peak_rss_mb;
        }
        unit.check()?;
        println!(
            "unit              setup {:.4} s, {} ticks, p50 {:.3} ms",
            unit.setup_s,
            unit.tick_ms.len(),
            crate::util::median(&unit.tick_ms).unwrap_or(f64::NAN),
        );
        run.setup_s.push(unit.setup_s);
        run.tick_ms.extend_from_slice(&unit.tick_ms);
        run.submitted += unit.submitted;
        run.failures.add(&unit.failures);
        run.sampled += unit.sampled();
        decisions += unit.measured_decisions;
        wall += unit.measured_s;
    }
    run.decisions_per_s = decisions as f64 / wall;
    Ok(run)
}

/// Server-side spans of one tick in the traced loop.
#[derive(Debug, Clone, Copy, Default)]
struct ServerSpans {
    read_decode: Duration,
    submit: Duration,
    run_tick: Duration,
    encode_write: Duration,
}

/// The traced server: the real server's per-connection loop composed from
/// the same public pieces (`FrameReader` → `ShardedEngine::try_submit` →
/// `run_tick` → `encode_decision` → `write_all`) with a timer around
/// each. The first frame of every tick is read untimed: that read waits
/// for the client to encode the tick, which is not server work.
fn traced_server(
    listener: TcpListener,
    kind: ServeKind,
    seed: u64,
) -> gpm_types::Result<Vec<ServerSpans>> {
    let config = kind.traffic(seed).config();
    let mut engine = ShardedEngine::homogeneous(&config, 1)?;
    let (stream, _) = listener
        .accept()
        .map_err(|err| GpmError::Wire(format!("accept: {err}")))?;
    let writer_half = stream
        .try_clone()
        .map_err(|err| GpmError::Wire(format!("clone: {err}")))?;
    let mut reader = FrameReader::new(BufReader::new(stream));
    let mut writer = BufWriter::new(writer_half);
    let mut out = Vec::new();
    let mut spans = ServerSpans::default();
    let mut ticks = Vec::new();
    let mut tick_open = false;
    let mut rejected_before = 0;
    loop {
        let start = Instant::now();
        let frame = reader.read()?;
        if tick_open {
            spans.read_decode += start.elapsed();
        }
        tick_open = true;
        match frame {
            None | Some(Frame::Shutdown) => break,
            Some(Frame::Telemetry(telemetry)) => {
                let start = Instant::now();
                engine.try_submit(telemetry);
                spans.submit += start.elapsed();
            }
            Some(Frame::TickEnd { tick }) => {
                let start = Instant::now();
                let batch = engine.run_tick(tick);
                let ran = Instant::now();
                out.clear();
                for decision in &batch {
                    encode_decision(decision, &mut out);
                }
                let rejected = engine.router_rejected();
                encode_tick_done(
                    tick,
                    batch.len() as u64,
                    rejected - rejected_before,
                    &mut out,
                );
                rejected_before = rejected;
                write_all(&mut writer, &out)?;
                spans.run_tick = ran - start;
                spans.encode_write = ran.elapsed();
                ticks.push(std::mem::take(&mut spans));
                tick_open = false;
            }
            Some(other) => {
                return Err(GpmError::Wire(format!("client sent {other:?}")));
            }
        }
    }
    Ok(ticks)
}

/// Per-layer result of a traced serve workload.
pub struct ServeLayers {
    /// The attribution table (µs per tick).
    pub table: Attribution,
    /// Named per-layer metrics: (name, value, unit).
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Reports submitted across the traced and untraced units.
    pub submitted: u64,
    /// Failures across both units and their checks.
    pub failures: ServeFailures,
}

fn mean_us(spans: &[Duration]) -> f64 {
    spans.iter().map(Duration::as_secs_f64).sum::<f64>() * 1e6 / spans.len().max(1) as f64
}

/// Traced run of a serve workload: an untraced real-`Server` unit and a
/// traced composed-loop unit over the same number of ticks, both checked
/// against the replay; the replay's engine-direct timings give the
/// `fleet.*` rows.
///
/// # Errors
///
/// Returns bind, connect and engine-config failures.
pub fn run_traced(kind: ServeKind, seed: u64, ticks: u64) -> gpm_types::Result<ServeLayers> {
    let name = kind.name();
    let measure = Measure {
        at_least: Duration::ZERO,
        min_ticks: ticks,
    };
    let mut untraced = run_unit(kind, seed, measure, 0)?;
    let replay = untraced.check()?;
    let mut failures = untraced.failures;
    let untraced_tick_us =
        untraced.tick_ms.iter().sum::<f64>() * 1e3 / untraced.tick_ms.len().max(1) as f64;

    let listener =
        TcpListener::bind("127.0.0.1:0").map_err(|err| GpmError::Wire(format!("bind: {err}")))?;
    let addr = listener
        .local_addr()
        .map_err(|err| GpmError::Wire(format!("local addr: {err}")))?;
    let server = std::thread::spawn(move || traced_server(listener, kind, seed));
    let traffic = kind.traffic(seed);
    let mut client = Client::connect(&Endpoint::Tcp(addr.to_string()))?;
    let mut digest = Digest::default();
    let mut client_spans = Vec::new();
    let mut traced_ticks = Vec::new();
    let total = traffic.warm_ticks() + ticks;
    let mut outcome = Ok(());
    for tick in 0..total {
        match client.tick(&traffic, tick, &mut digest, &mut failures, &mut |_| {}) {
            Ok((latency, spans)) => {
                if tick >= traffic.warm_ticks() {
                    traced_ticks.push(latency);
                    client_spans.push(spans);
                }
            }
            Err(err) => {
                failures.protocol += traffic.nodes();
                outcome = Err(err);
                break;
            }
        }
    }
    if outcome.is_ok() {
        outcome = client.shutdown();
    } else {
        drop(client);
    }
    let server_spans = match server.join() {
        Ok(Ok(spans)) => spans,
        Ok(Err(err)) => {
            failures.protocol += 1;
            eprintln!("{name}: traced server: {err}");
            Vec::new()
        }
        Err(_) => {
            failures.protocol += 1;
            Vec::new()
        }
    };
    if let Err(err) = outcome {
        eprintln!("{name}: traced client: {err}");
    }
    if digest != replay.digest {
        failures.replay_mismatch += total * traffic.nodes();
    }

    let measured: Vec<ServerSpans> = server_spans
        .iter()
        .skip(traffic.warm_ticks() as usize)
        .copied()
        .collect();
    let col =
        |f: fn(&ServerSpans) -> Duration| mean_us(&measured.iter().map(f).collect::<Vec<_>>());
    let ccol =
        |f: fn(&ClientSpans) -> Duration| mean_us(&client_spans.iter().map(f).collect::<Vec<_>>());
    let parts = vec![
        ("server.read_decode_us".to_owned(), col(|s| s.read_decode)),
        ("shard.submit_us".to_owned(), col(|s| s.submit)),
        ("shard.run_tick_us".to_owned(), col(|s| s.run_tick)),
        ("server.encode_write_us".to_owned(), col(|s| s.encode_write)),
    ];
    let views = vec![
        ("loadgen.encode_us".to_owned(), ccol(|s| s.encode)),
        ("loadgen.write_us".to_owned(), ccol(|s| s.write)),
        ("loadgen.wait_us".to_owned(), ccol(|s| s.wait)),
        ("loadgen.drain_us".to_owned(), ccol(|s| s.drain)),
    ];
    let table = Attribution {
        workload: name,
        unit: "us per tick",
        traced: mean_us(&traced_ticks),
        untraced: untraced_tick_us,
        parts,
        views,
    };

    let stats = &replay.stats;
    let ratio = |n: u64| n as f64 / stats.decisions_total.max(1) as f64;
    let run_tick_us = replay.run_tick_s * 1e6 / replay.measured_ticks.max(1) as f64;
    let mut metrics: Vec<(String, f64, &'static str)> = Vec::new();
    // serve_hit's composed-loop rows carry the bare names; serve_miss's
    // carry a `miss.` prefix.
    let prefix = match kind {
        ServeKind::Hit => "",
        ServeKind::Miss => "miss.",
    };
    for (row, value) in table.parts.iter().chain(&table.views) {
        metrics.push((format!("{prefix}{row}"), *value, "us"));
    }
    metrics.push((
        format!("{prefix}serve.tick_untraced_us"),
        table.untraced,
        "us",
    ));
    metrics.push((format!("{prefix}serve.residual_us"), table.residual(), "us"));
    metrics.push((
        format!("{prefix}serve.trace_overhead_ratio"),
        table.overhead_ratio(),
        "ratio",
    ));
    metrics.extend([
        (format!("fleet.tick_us.{name}"), run_tick_us, "us"),
        (
            format!("fleet.direct_decisions_per_s.{name}"),
            replay.measured_decisions as f64 / replay.run_tick_s,
            "1/s",
        ),
        (
            format!("cache.occupancy.{name}"),
            replay.cache_len as f64,
            "count",
        ),
    ]);
    // Each workload reports only the accounting its premise leaves
    // nonzero; the zeros are checked as failures instead.
    match kind {
        ServeKind::Hit => metrics.extend([
            (
                "fleet.cache_hit_ratio.serve_hit".to_owned(),
                ratio(stats.cache_hits),
                "ratio",
            ),
            (
                "fleet.dedup_ratio.serve_hit".to_owned(),
                ratio(stats.dedup_hits),
                "ratio",
            ),
        ]),
        ServeKind::Miss => metrics.extend([
            (
                "fleet.unique_solves.serve_miss".to_owned(),
                stats.unique_solves as f64,
                "count",
            ),
            (
                "fleet.solver_us_spent.serve_miss".to_owned(),
                stats.solver_us_spent,
                "us",
            ),
        ]),
    }
    println!(
        "{name}: engine-direct {:.0} decisions/s, measured-epoch hit ratio {:.4}, dedup ratio {:.4} \
         (base {} decisions), unique solves {}, cache {}/{}",
        replay.measured_decisions as f64 / replay.run_tick_s,
        ratio(stats.cache_hits),
        ratio(stats.dedup_hits),
        stats.decisions_total,
        stats.unique_solves,
        replay.cache_len,
        replay.cache_capacity
    );
    Ok(ServeLayers {
        table,
        metrics,
        submitted: untraced.submitted + total * traffic.nodes(),
        failures,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn warm_hit_traffic_never_reaches_the_solver() {
        let traffic = Traffic::hit(9);
        let replay = replay(&traffic, traffic.warm_ticks() + 2).expect("valid config");
        assert_eq!(replay.stats.decisions_total, 2 * traffic.nodes());
        assert_eq!(broken_premise(ServeKind::Hit, &replay.stats), 0);
        assert!(replay.stats.cache_hits > 0 && replay.stats.dedup_hits > 0);
    }

    #[test]
    fn premise_counts_the_accounting_each_workload_forbids() {
        let stats = FleetStats {
            cache_hits: 3,
            dedup_hits: 4,
            unique_solves: 5,
            ..FleetStats::default()
        };
        assert_eq!(broken_premise(ServeKind::Hit, &stats), 5);
        assert_eq!(broken_premise(ServeKind::Miss, &stats), 7);
    }
}
