//! Layer probes: single public functions of one layer timed in isolation
//! on the benchmark's own inputs.

use std::time::Instant;

use gpm_core::{solver, DecisionCache, FleetEngine};
use gpm_microarch::{CoreConfig, CoreModel, InstructionSource, MicroOp};
use gpm_net::wire::{decode_frame, encode_decision, encode_telemetry};
use gpm_types::Hertz;
use gpm_workloads::SpecBenchmark;

use crate::serve::hier_decide;
use crate::traffic::{Traffic, MISS_WIDTHS};

/// Named per-layer metrics: (name, value, unit).
pub type Metrics = Vec<(String, f64, &'static str)>;

/// Passes over a hit tick the wire and cache probes time.
const WIRE_PASSES: usize = 3;
/// Problems of each width the solver probe decides.
const SOLVES_PER_WIDTH: u64 = 24;
/// Micro-ops each stream-generation probe pulls.
const GEN_OPS: usize = 8_000_000;
/// Cycles each core-model probe runs (after as many warm-up cycles).
const CORE_CYCLES: u64 = 4_000_000;

/// Wire encode/decode per frame and exact frame sizes, plus the
/// decision-cache probe, on one `serve_hit` tick.
///
/// # Errors
///
/// Propagates engine-config and decode errors.
pub fn wire_and_cache(seed: u64) -> gpm_types::Result<Metrics> {
    let traffic = Traffic::hit(seed);
    let reports: Vec<_> = (0..traffic.nodes()).map(|i| traffic.report(i, 0)).collect();
    let frames = reports.len() as f64;

    let mut out = Vec::new();
    let start = Instant::now();
    for _ in 0..WIRE_PASSES {
        out.clear();
        for report in &reports {
            encode_telemetry(report, &mut out);
        }
    }
    let encode_ns = start.elapsed().as_secs_f64() * 1e9 / (frames * WIRE_PASSES as f64);
    let telemetry_bytes = out.len() as f64 / frames;

    // Frame payloads follow a 4-byte little-endian length prefix.
    let mut payloads = Vec::with_capacity(reports.len());
    let mut at = 0;
    while at < out.len() {
        let len = u32::from_le_bytes(out[at..at + 4].try_into().expect("4-byte prefix")) as usize;
        payloads.push(at + 4..at + 4 + len);
        at += 4 + len;
    }
    let start = Instant::now();
    for _ in 0..WIRE_PASSES {
        for range in &payloads {
            std::hint::black_box(decode_frame(&out[range.clone()])?);
        }
    }
    let decode_ns = start.elapsed().as_secs_f64() * 1e9 / (frames * WIRE_PASSES as f64);

    let mut engine = FleetEngine::new(traffic.config())?;
    for report in &reports {
        engine.try_submit(report.clone());
    }
    let decisions = engine.run_tick(0);
    let mut bytes = Vec::new();
    let start = Instant::now();
    for _ in 0..WIRE_PASSES {
        bytes.clear();
        for decision in &decisions {
            encode_decision(decision, &mut bytes);
        }
    }
    let encode_decision_ns =
        start.elapsed().as_secs_f64() * 1e9 / (decisions.len() * WIRE_PASSES) as f64;
    let decision_bytes = bytes.len() as f64 / decisions.len() as f64;

    // Cache probe: key + get on problems the cache holds (all hits).
    let config = traffic.config();
    let mut cache = DecisionCache::new(config.cache.clone())?;
    for (report, decision) in reports.iter().zip(&decisions) {
        let key = cache.key(
            &report.matrices,
            &report.current,
            report.budget,
            &config.dvfs,
            config.explore,
        );
        cache.insert(key, decision.modes.clone());
    }
    let mut hits = 0usize;
    let start = Instant::now();
    for _ in 0..WIRE_PASSES {
        for report in &reports {
            let key = cache.key(
                &report.matrices,
                &report.current,
                report.budget,
                &config.dvfs,
                config.explore,
            );
            hits += usize::from(cache.get(&key).is_some());
        }
    }
    let probe_ns = start.elapsed().as_secs_f64() * 1e9 / (frames * WIRE_PASSES as f64);
    if hits != reports.len() * WIRE_PASSES {
        return Err(gpm_types::GpmError::InvalidConfig {
            parameter: "perfbench.cache_probe",
            reason: format!("{hits} hits of {} probes", reports.len() * WIRE_PASSES),
        });
    }

    Ok(vec![
        ("wire.encode_telemetry_ns".to_owned(), encode_ns, "ns"),
        ("wire.decode_ns".to_owned(), decode_ns, "ns"),
        (
            "wire.encode_decision_ns".to_owned(),
            encode_decision_ns,
            "ns",
        ),
        ("wire.telemetry_bytes".to_owned(), telemetry_bytes, "bytes"),
        ("wire.decision_bytes".to_owned(), decision_bytes, "bytes"),
        ("cache.probe_ns".to_owned(), probe_ns, "ns"),
    ])
}

/// Solver decide time and mean branch-and-bound nodes per width, on
/// `serve_miss` problems. 64-way nodes go through `HierMaxBips`, as in
/// the fleet; its per-cluster searches report no node counts.
#[must_use]
pub fn solver(seed: u64) -> Metrics {
    let traffic = Traffic::miss(seed);
    let config = traffic.config();
    let mut metrics = Metrics::new();
    for (lane, &width) in MISS_WIDTHS.iter().enumerate() {
        let reports: Vec<_> = (0..SOLVES_PER_WIDTH)
            .map(|k| traffic.report(k * MISS_WIDTHS.len() as u64 + lane as u64, 0))
            .collect();
        let mut nodes = 0u64;
        let start = Instant::now();
        for r in &reports {
            if width <= config.flat_core_limit {
                let (combo, stats) = solver::solve_with_stats(
                    &r.matrices,
                    &r.current,
                    r.budget,
                    &config.dvfs,
                    config.explore,
                );
                std::hint::black_box(combo);
                nodes += stats.nodes;
            } else {
                std::hint::black_box(hier_decide(r, &config));
            }
        }
        let decide_us = start.elapsed().as_secs_f64() * 1e6 / SOLVES_PER_WIDTH as f64;
        metrics.push((format!("solver.decide_us.w{width}"), decide_us, "us"));
        if width <= config.flat_core_limit {
            metrics.push((
                format!("solver.bb_nodes.w{width}"),
                nodes as f64 / SOLVES_PER_WIDTH as f64,
                "count",
            ));
        }
    }
    metrics
}

/// Stream generation (million ops/s) and scalar core stepping (simulated
/// MIPS) for a CPU-bound and a memory-bound benchmark.
///
/// # Errors
///
/// Propagates core-config errors.
pub fn workloads_and_core() -> gpm_types::Result<Metrics> {
    let mut metrics = Metrics::new();
    for (name, bench) in [
        ("sixtrack", SpecBenchmark::Sixtrack),
        ("mcf", SpecBenchmark::Mcf),
    ] {
        let mut stream = bench.stream();
        let mut buf = vec![MicroOp::int_alu(None); 4096];
        let mut pulled = 0usize;
        let start = Instant::now();
        while pulled < GEN_OPS {
            pulled += stream.fill_ops(&mut buf);
        }
        std::hint::black_box(&buf);
        let gen_mops = pulled as f64 / start.elapsed().as_secs_f64() / 1e6;
        metrics.push((format!("workloads.gen_mops.{name}"), gen_mops, "Mops/s"));

        let mut core = CoreModel::new(&CoreConfig::power4(), Hertz::from_ghz(1.0))?;
        let mut stream = bench.stream();
        std::hint::black_box(core.run_cycles(&mut stream, CORE_CYCLES));
        let start = Instant::now();
        let stats = core.run_cycles(&mut stream, CORE_CYCLES);
        let mips = stats.instructions as f64 / start.elapsed().as_secs_f64() / 1e6;
        metrics.push((format!("microarch.core_mips.{name}"), mips, "MIPS"));
    }
    Ok(metrics)
}
