//! Determinism guarantees for the cluster-sharded full-CMP drive and the
//! hierarchical budget arbiter.
//!
//! Three guards pin the hierarchical tier:
//!
//! 1. Degenerate bit-identity: the sharded drive with one cluster and a
//!    zero-cost interconnect must reproduce the *flat* drive's golden
//!    outcome hashes exactly (the same constants `cmp_equivalence.rs`
//!    pins). Adding `0.0` to a finite latency is exact in IEEE 754 and a
//!    single-cluster replay order is the flat global order, so any
//!    difference at all means the sharded refactor changed the protocol.
//! 2. Sharded golden hashes and thread independence: the 64-way 8×8
//!    configuration (default interconnect) must hash to the value recorded
//!    from the single-threaded run at the commit introducing the sharded
//!    drive, for `GPM_THREADS ∈ {1, 2, 8}` — per-cluster replay plus the
//!    serialised interconnect merge is scheduling-independent.
//! 3. Arbiter conservation: the water-filling global arbiter never hands
//!    the clusters more than the chip budget (propcheck, up to f64
//!    rounding).
//! 4. Wide-chip decisions: a seeded 1024-core `HierMaxBips` decision
//!    (arbiter, per-cluster exact solves, promote pass) must hash to the
//!    value recorded before the promote pass was made O(n) per step, for
//!    any pool width.

use std::sync::Mutex;

use gpm::cmp::{ClusterTopology, FullCmpOutcome, FullCmpSim, InterconnectConfig};
use gpm::core::{cluster_budgets, HierMaxBips, Policy, PolicyContext, PowerBipsMatrices};
use gpm::microarch::CoreConfig;
use gpm::power::{DvfsParams, PowerModel};
use gpm::types::{fnv1a, splitmix64, Micros, ModeCombination, PowerMode, Watts};
use gpm::workloads::{combos, WorkloadCombo};
use proptest::prelude::*;

/// `gpm::par::set_max_threads` is a process-global override; tests that
/// touch it must not interleave.
static THREAD_OVERRIDE: Mutex<()> = Mutex::new(());

/// Serializes every observable field of the outcome, floats by exact bit
/// pattern, so the hash detects any drift at all. Matches
/// `cmp_equivalence.rs` field-for-field (the flat goldens predate
/// `interconnect_utilization`, which is checked separately).
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

/// Runs `combo` all-Turbo on the sharded drive for `duration` with the
/// pool clamped to `threads` workers and returns the outcome.
fn run_sharded(
    combo: &WorkloadCombo,
    cluster_cores: usize,
    interconnect: InterconnectConfig,
    duration: Micros,
    threads: usize,
) -> FullCmpOutcome {
    gpm::par::set_max_threads(Some(threads));
    let mut sim = FullCmpSim::with_topology(
        combo,
        &ModeCombination::uniform(combo.cores(), PowerMode::Turbo),
        &CoreConfig::power4(),
        PowerModel::power4_calibrated(),
        DvfsParams::paper(),
        ClusterTopology::for_cores(combo.cores(), cluster_cores).expect("combo divides"),
        interconnect,
    )
    .expect("sharded sim builds");
    let out = sim.run(duration);
    gpm::par::set_max_threads(None);
    out
}

/// The flat drive's golden hashes from `cmp_equivalence.rs` (200 µs
/// all-Turbo runs, recorded at the commit introducing the two-phase
/// protocol). The degenerate sharded drive must reproduce them bit-for-bit.
const FLAT_GOLDEN: [(&str, u64); 3] = [
    ("gcc|mesa", 0xeb07_0995_9ecd_9532),
    ("ammp|mcf|crafty|art", 0xdf57_454f_913e_7bd3),
    ("eight-way-mixed", 0xc8d9_6bf5_495c_386a),
];

fn flat_golden_combos() -> [WorkloadCombo; 3] {
    [
        combos::gcc_mesa(),
        combos::ammp_mcf_crafty_art(),
        combos::eight_way_mixed(),
    ]
}

#[test]
fn degenerate_sharded_drive_matches_flat_goldens() {
    let _guard = THREAD_OVERRIDE
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    for (combo, (label, want)) in flat_golden_combos().iter().zip(FLAT_GOLDEN) {
        let out = run_sharded(
            combo,
            combo.cores(), // one cluster spanning the chip
            InterconnectConfig::zero(),
            Micros::new(200.0),
            1,
        );
        assert_eq!(
            out.interconnect_utilization, 0.0,
            "{label}: a zero-cost interconnect must stay idle"
        );
        let got = outcome_hash(&out);
        assert_eq!(
            got, want,
            "{label}: K=1/zero-interconnect sharded hash {got:#018x} != flat \
             golden {want:#018x} — the sharded drive is not bit-identical"
        );
    }
}

/// Golden hash of the 64-way (8 clusters × 8 cores, default interconnect)
/// single-threaded 100 µs all-Turbo sharded run, recorded at the commit
/// introducing the sharded drive.
const SHARDED_64WAY_GOLDEN: u64 = 0x1cd0_ff31_e404_0d3b;

#[test]
fn sharded_64way_golden_hash_across_thread_counts() {
    let _guard = THREAD_OVERRIDE
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let combo = combos::sixty_four_way_mixed();
    for threads in [1usize, 2, 8] {
        let out = run_sharded(
            &combo,
            8,
            InterconnectConfig::default(),
            Micros::new(100.0),
            threads,
        );
        let got = outcome_hash(&out);
        assert_eq!(
            got, SHARDED_64WAY_GOLDEN,
            "64-way sharded outcome hash {got:#018x} != golden \
             {SHARDED_64WAY_GOLDEN:#018x} under {threads} worker(s)"
        );
    }
}

/// A seeded `cores`-way decision problem: heterogeneous per-core Turbo
/// (power, BIPS) with exact cubic/linear mode scaling, a mixed current
/// assignment, and the chip's all-Turbo power.
fn seeded_wide_problem(cores: usize, seed: u64) -> (PowerBipsMatrices, ModeCombination, f64) {
    let mut power = Vec::with_capacity(cores);
    let mut bips = Vec::with_capacity(cores);
    let mut modes = Vec::with_capacity(cores);
    let mut turbo = 0.0;
    for core in 0..cores {
        let r = splitmix64(seed ^ splitmix64(core as u64));
        let p = 8.0 + (r % 1_000_003) as f64 / 1_000_003.0 * 22.0;
        let b = 0.1 + ((r >> 21) % 1_000_003) as f64 / 1_000_003.0 * 2.9;
        power.push(PowerMode::ALL.map(|m| p * m.power_scale()));
        bips.push(PowerMode::ALL.map(|m| b * m.bips_scale_bound()));
        modes.push(PowerMode::ALL[((r >> 42) % 3) as usize]);
        turbo += p;
    }
    (
        PowerBipsMatrices::from_rows(power, bips),
        ModeCombination::new(modes),
        turbo,
    )
}

/// Hash of the default (8-core-cluster) `HierMaxBips` decisions for the
/// seeded 1024-core problem at 55%, 70% and 85% of all-Turbo power,
/// recorded with the O(n²)-per-step promote pass (a full chip-power
/// re-sum per trial).
const HIER_1024_GOLDEN: u64 = 0x3ac7_de68_e56d_6cce;

#[test]
fn hier_1024way_decision_golden_hash_across_thread_counts() {
    let _guard = THREAD_OVERRIDE
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let (matrices, current, turbo) = seeded_wide_problem(1024, 0x5eed);
    let dvfs = DvfsParams::paper();
    for threads in [1usize, 2, 8] {
        gpm::par::set_max_threads(Some(threads));
        let mut modes = Vec::new();
        for fraction in [0.55, 0.7, 0.85] {
            let combo = HierMaxBips::new().decide(&PolicyContext {
                current_modes: &current,
                matrices: &matrices,
                future: None,
                budget: Watts::new(turbo * fraction),
                dvfs: &dvfs,
                explore: Micros::new(500.0),
            });
            modes.extend(combo.as_slice().iter().map(|m| m.index() as u8));
        }
        gpm::par::set_max_threads(None);
        let got = fnv1a(&modes);
        assert_eq!(
            got, HIER_1024_GOLDEN,
            "1024-way HierMaxBips decision hash {got:#018x} != golden \
             {HIER_1024_GOLDEN:#018x} under {threads} worker(s)"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The water-filling arbiter conserves the chip budget: the per-cluster
    /// allocations never sum past it (beyond f64 rounding), for any matrix
    /// shape, cluster width and budget.
    #[test]
    fn arbiter_never_exceeds_chip_budget(
        rows in prop::collection::vec(
            (
                (0.1f64..40.0, 0.1f64..40.0, 0.1f64..40.0),
                (0.01f64..5.0, 0.01f64..5.0, 0.01f64..5.0),
            ),
            1..24
        ),
        cluster_cores in 1usize..9,
        budget in 0.0f64..600.0,
    ) {
        let n = rows.len();
        let power: Vec<[f64; 3]> = rows.iter().map(|&((a, b, c), _)| [a, b, c]).collect();
        let bips: Vec<[f64; 3]> = rows.iter().map(|&(_, (a, b, c))| [a, b, c]).collect();
        let matrices = PowerBipsMatrices::from_rows(power, bips);
        let budgets = cluster_budgets(&matrices, cluster_cores, Watts::new(budget));
        prop_assert_eq!(budgets.len(), n.div_ceil(cluster_cores));
        let total: f64 = budgets.iter().map(|b| b.value()).sum();
        prop_assert!(
            total <= budget * (1.0 + 1e-9) + 1e-9,
            "allocated {} over budget {}", total, budget
        );
        for b in &budgets {
            prop_assert!(b.value() >= 0.0 && b.value().is_finite());
        }
    }
}
