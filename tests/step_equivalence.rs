//! Equivalence guarantees for the batched hot path.
//!
//! The instruction-stepping overhaul (batched op delivery, monomorphized
//! memory path, integer-domain stream thresholds, one-pass lockstep
//! capture) is a pure performance change: every observable output must be
//! bit-identical to the original one-op-at-a-time implementation. Two
//! guards pin that:
//!
//! 1. Golden trace hashes: the serialized per-mode traces of all 12
//!    benchmarks must hash to the values recorded from the pre-overhaul
//!    seed. Any change to stream generation, core timing, or capture
//!    orchestration that alters a single byte of a trace fails here.
//! 2. Delivery-shape independence: a source that trickles ops one per
//!    `fill_ops` call must produce exactly the same interval statistics as
//!    the same stream delivering full batches, at every DVFS frequency.
//!
//! The explicitly selected `CaptureEngine::Scalar` is held to the same
//! golden hashes as the default configuration, and the duration-limited
//! capture path (Turbo resolves the region, Eff1/Eff2 follow to the same
//! instruction position) has goldens of its own.

use gpm::microarch::{CoreConfig, CoreModel, InstructionSource, MicroOp};
use gpm::power::DvfsParams;
use gpm::trace::{capture_benchmark, CaptureConfig, CaptureEngine};
use gpm::types::{fnv1a, Micros, PowerMode};
use gpm::workloads::SpecBenchmark;

/// Hashes of `serde_json::to_string` of each mode's `ModeTrace`, captured
/// with `CaptureConfig::fast(150_000)` on the pre-overhaul seed commit, in
/// `[Turbo, Eff1, Eff2]` order.
const GOLDEN_TRACE_HASHES: [(&str, [u64; 3]); 12] = [
    (
        "ammp",
        [0x3a232217da26e227, 0x7e019957e8b35a9e, 0xa857993fbc249621],
    ),
    (
        "art",
        [0xdedf91776c8153c0, 0x81d0cf8ff4c40877, 0x4cff9f55148bb156],
    ),
    (
        "crafty",
        [0xe5c0d5bab18d6743, 0x6cad2a69eb32d5bd, 0x97dcde493e3fd8cc],
    ),
    (
        "facerec",
        [0x4c5de16e52b21f9c, 0x16d30c3f702e93b5, 0xb1c467cf1845fc8a],
    ),
    (
        "gap",
        [0xbee3b8981392d791, 0x1e7169e360cc0070, 0xdebcdb3efbafe0ee],
    ),
    (
        "gcc",
        [0x9a34329c4a2fe94f, 0x69e287579d2f7de3, 0xe412a5afef9ca496],
    ),
    (
        "mcf",
        [0xbbaaa0e4d4d26687, 0x2bec97d0856511a8, 0x56ec6445adcd707c],
    ),
    (
        "mesa",
        [0x5cdfd79a5874135f, 0x0f0ce17d6bb875ac, 0x6cfdecc1683b5a79],
    ),
    (
        "perlbmk",
        [0xc5f790bb26a996c0, 0x020a8ec7f0e9a190, 0x7d865245f273b872],
    ),
    (
        "sixtrack",
        [0x5a533812acb1d4c0, 0xb15da354a481b7e5, 0xadc08ed8c3454f41],
    ),
    (
        "vortex",
        [0x4d4c17d030bd0b46, 0x7b75a3dcf4d6ae4c, 0x15dcdee0dadb7bb3],
    ),
    (
        "wupwise",
        [0x9b3ec8ba9293870b, 0x45e126fe14557e58, 0x4ab78149b730cc57],
    ),
];

/// Hashes of each mode's serialized `ModeTrace`, captured with
/// `CaptureConfig::fast_duration(Micros::from_millis(1.0))` before the
/// one-pass lockstep capture replaced the per-mode runs, in
/// `[Turbo, Eff1, Eff2]` order.
const GOLDEN_DURATION_HASHES: [(&str, [u64; 3]); 12] = [
    (
        "ammp",
        [0xe27be7dae8aa2689, 0x42fc601c4e4f83d0, 0xef44934365531ad9],
    ),
    (
        "art",
        [0xd98fb8626fb2a33c, 0x1374d7c98eaa5704, 0xca884434887a48b9],
    ),
    (
        "crafty",
        [0x3199a915ebfbbc43, 0xc0dc47c8a5ba3ef2, 0xc0653314bc33d674],
    ),
    (
        "facerec",
        [0x6ef2c86aad4944fe, 0x352d8223db48b4ef, 0x5302c1f8cf73e6da],
    ),
    (
        "gap",
        [0x94d4cbcbcd0e771d, 0xf61f15c429e49751, 0x5ce7e40077ddaf24],
    ),
    (
        "gcc",
        [0x36c719f7a2188edb, 0x476fd85bb99e086f, 0x3b232c8e5c02bf1e],
    ),
    (
        "mcf",
        [0x5b5ccf5b429f74e5, 0x8653007ae5c9eeb7, 0x6e17ccd157b28ec8],
    ),
    (
        "mesa",
        [0x303bdebbfe65d787, 0xb39ec2d7eecffa27, 0xced32844c5c472b4],
    ),
    (
        "perlbmk",
        [0xc5d3978a294a3080, 0xfb8f2dbbd6451407, 0x9fca7e5c266ec3ce],
    ),
    (
        "sixtrack",
        [0x0ba8ea6ffd63b3a9, 0x4a52ee0167dec5c7, 0x0166a77514d7a792],
    ),
    (
        "vortex",
        [0x05a5a5d2173f4103, 0x9efd19654e5f3afa, 0x61e85b64e23f5c57],
    ),
    (
        "wupwise",
        [0xde802d4782fe0d2c, 0xcffa0fc88e222d90, 0xb84ae7d17ec4147f],
    ),
];

/// Captures every benchmark of `goldens` under `config` and checks each
/// mode's serialized trace against its recorded hash.
fn assert_goldens(config: &CaptureConfig, goldens: &[(&str, [u64; 3])], what: &str) {
    for &(name, golden) in goldens {
        let bench = SpecBenchmark::ALL
            .into_iter()
            .find(|b| b.name() == name)
            .expect("golden table names a known benchmark");
        let traces = capture_benchmark(bench, config).expect("capture");
        for (mode, expected) in PowerMode::ALL.into_iter().zip(golden) {
            let json = serde_json::to_string(traces.trace(mode)).expect("serialize");
            assert_eq!(
                fnv1a(json.as_bytes()),
                expected,
                "{what} trace bytes changed for {name} at {mode}",
            );
        }
    }
}

#[test]
fn captured_traces_match_pre_overhaul_goldens() {
    assert_goldens(
        &CaptureConfig::fast(150_000),
        &GOLDEN_TRACE_HASHES,
        "instruction-limited",
    );
}

#[test]
fn duration_limited_traces_match_goldens() {
    assert_goldens(
        &CaptureConfig::fast_duration(Micros::from_millis(1.0)),
        &GOLDEN_DURATION_HASHES,
        "duration-limited",
    );
}

/// Delivers exactly one op per `fill_ops` call — the least batched source
/// the contract permits.
struct OneAtATime<S>(S);

impl<S: InstructionSource> InstructionSource for OneAtATime<S> {
    fn next_op(&mut self) -> MicroOp {
        self.0.next_op()
    }

    fn fill_ops(&mut self, buf: &mut [MicroOp]) -> usize {
        buf[0] = self.0.next_op();
        1
    }
}

/// Selecting the scalar capture engine by name must reproduce the same
/// goldens the lane-batched engine used to be checked against, for all
/// 12 benchmarks × 3 modes: the `Scalar` selection stays a no-op over the
/// one stepping engine.
#[test]
fn scalar_engine_matches_lane_batched_goldens() {
    let mut config = CaptureConfig::fast(150_000);
    config.engine = CaptureEngine::Scalar;
    assert_goldens(&config, &GOLDEN_TRACE_HASHES, "scalar-engine");
}

#[test]
fn batched_delivery_matches_one_op_stepping() {
    let dvfs = DvfsParams::paper();
    for bench in SpecBenchmark::ALL {
        for mode in PowerMode::ALL {
            let freq = dvfs.frequency(mode);

            let mut batched_core = CoreModel::new(&CoreConfig::power4(), freq).unwrap();
            let mut batched = bench.stream();
            let batched_stats = batched_core.run_cycles(&mut batched, 200_000);

            let mut one_core = CoreModel::new(&CoreConfig::power4(), freq).unwrap();
            let mut one = OneAtATime(bench.stream());
            let one_stats = one_core.run_cycles(&mut one, 200_000);

            assert_eq!(
                batched_stats,
                one_stats,
                "delivery batching changed stats for {} at {mode}",
                bench.name(),
            );
        }
    }
}
