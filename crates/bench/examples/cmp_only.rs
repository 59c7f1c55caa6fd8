//! Isolation probe: time the full-CMP simulator with nothing else having
//! run in the process, to separate core-stepping cost from cross-benchmark
//! pollution in the main throughput bench. Not part of the recorded suite.

use std::time::Instant;

use gpm_cmp::FullCmpSim;
use gpm_microarch::CoreConfig;
use gpm_power::{DvfsParams, PowerModel};
use gpm_types::{Micros, ModeCombination, PowerMode};
use gpm_workloads::combos;

fn main() {
    for (name, combo, us) in [
        ("cmp_full_2way_gcc_mesa", combos::gcc_mesa(), 8_000.0),
        ("cmp_full_8way_mixed", combos::eight_way_mixed(), 2_000.0),
    ] {
        let modes = ModeCombination::uniform(combo.cores(), PowerMode::Turbo);
        let mut sim = FullCmpSim::new(
            &combo,
            &modes,
            &CoreConfig::power4(),
            PowerModel::power4_calibrated(),
            DvfsParams::paper(),
        )
        .expect("combo and modes agree");
        let _ = sim.run(Micros::new(us * 0.1));
        let start = Instant::now();
        let outcome = sim.run(Micros::new(us));
        let seconds = start.elapsed().as_secs_f64();
        let instructions: u64 = outcome.per_core.iter().map(|c| c.instructions).sum();
        println!(
            "{name}: {:.2} simulated MIPS",
            instructions as f64 / seconds / 1.0e6
        );
    }
}
