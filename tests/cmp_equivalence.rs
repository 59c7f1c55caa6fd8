//! Determinism guarantees for the two-phase full-CMP protocol.
//!
//! The parallel full-CMP overhaul (per-core deferred request logs, serial
//! merge-replay against the shared L2, correction credits) must be a pure
//! performance change with respect to scheduling: the outcome of a run is
//! defined by the protocol alone, never by how phase 1 was mapped onto
//! worker threads. Two guards pin that:
//!
//! 1. Golden outcome hashes: 2-, 4- and 8-way combos must hash to the
//!    values recorded from the single-threaded (`GPM_THREADS=1`) run at
//!    the commit that introduced the protocol. Any change to stream
//!    generation, core timing, the replay order, or the correction
//!    arithmetic that alters a single bit of any per-core result fails
//!    here.
//! 2. Thread-count independence: the same runs repeated with 2 and 8
//!    workers must produce bit-identical outcomes to the 1-thread run.

use std::sync::Mutex;

use gpm::cmp::{FullCmpOutcome, FullCmpSim};
use gpm::microarch::CoreConfig;
use gpm::power::{DvfsParams, PowerModel};
use gpm::types::{fnv1a, Micros, ModeCombination, PowerMode};
use gpm::workloads::{combos, WorkloadCombo};

/// `gpm::par::set_max_threads` is a process-global override; tests that
/// touch it must not interleave.
static THREAD_OVERRIDE: Mutex<()> = Mutex::new(());

/// Serializes every observable field of the outcome, floats by exact bit
/// pattern, so the hash detects any drift at all.
fn outcome_hash(out: &FullCmpOutcome) -> u64 {
    let mut repr = String::new();
    for c in &out.per_core {
        repr.push_str(&format!(
            "{}|{:?}|{}|{:016x}|{:016x}|{};",
            c.benchmark,
            c.mode,
            c.instructions,
            c.power.value().to_bits(),
            c.bips.value().to_bits(),
            c.l2_misses,
        ));
    }
    repr.push_str(&format!(
        "dur={:016x};util={:016x}",
        out.duration.value().to_bits(),
        out.l2_utilization.to_bits(),
    ));
    fnv1a(repr.as_bytes())
}

/// Runs `combo` all-Turbo for 200 µs with the pool clamped to `threads`
/// workers and returns the outcome hash.
fn run_hash(combo: &WorkloadCombo, threads: usize) -> u64 {
    gpm::par::set_max_threads(Some(threads));
    let mut sim = FullCmpSim::new(
        combo,
        &ModeCombination::uniform(combo.cores(), PowerMode::Turbo),
        &CoreConfig::power4(),
        PowerModel::power4_calibrated(),
        DvfsParams::paper(),
    )
    .unwrap();
    let hash = outcome_hash(&sim.run(Micros::new(200.0)));
    gpm::par::set_max_threads(None);
    hash
}

/// Golden hashes of the single-threaded (`GPM_THREADS=1`) outcome for each
/// combo, recorded at the commit introducing the two-phase protocol.
const GOLDEN: [(&str, u64); 3] = [
    ("gcc|mesa", 0xeb07_0995_9ecd_9532),
    ("ammp|mcf|crafty|art", 0xdf57_454f_913e_7bd3),
    ("eight-way-mixed", 0xc8d9_6bf5_495c_386a),
];

fn golden_combos() -> [WorkloadCombo; 3] {
    [
        combos::gcc_mesa(),
        combos::ammp_mcf_crafty_art(),
        combos::eight_way_mixed(),
    ]
}

#[test]
fn golden_outcome_hashes() {
    let _guard = THREAD_OVERRIDE
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    for (combo, (label, want)) in golden_combos().iter().zip(GOLDEN) {
        let got = run_hash(combo, 1);
        assert_eq!(
            got, want,
            "{label}: outcome hash {got:#018x} != golden {want:#018x} — \
             the full-CMP protocol's observable behaviour changed"
        );
    }
}

#[test]
fn outcome_is_bit_identical_across_thread_counts() {
    let _guard = THREAD_OVERRIDE
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    for combo in &golden_combos() {
        let reference = run_hash(combo, 1);
        for threads in [2, 3, 8] {
            let got = run_hash(combo, threads);
            assert_eq!(
                got,
                reference,
                "{}: {threads}-thread outcome diverged from serial",
                combo.label()
            );
        }
    }
}
