//! Synthetic SPEC CPU2000-like workloads for the CMP power-management
//! experiments.
//!
//! The paper evaluates 12 SPEC CPU2000 benchmarks (Section 3.2). We cannot
//! ship SPEC binaries or IBM's traces, so this crate generates deterministic
//! synthetic instruction streams whose *architectural behaviour* is
//! calibrated to each benchmark's published character:
//!
//! * instruction mix (fixed-point / floating-point / memory / branch),
//! * working-set structure (an L1-resident hot set, an L2-resident warm
//!   set, and a DRAM-resident cold region),
//! * instruction-level parallelism (dependency density, pointer-chasing
//!   loads),
//! * branch predictability,
//! * and *phase behaviour* — periodic alternation between memory-heavy and
//!   compute-heavy execution, keyed to the **instruction index** so that the
//!   same program point exhibits the same behaviour in every DVFS mode.
//!
//! What matters for reproducing the paper is not cycle-exact SPEC fidelity
//! but that the benchmark population spans the four corners of Table 2
//! (CPU-bound ↔ memory-bound, steady ↔ phased), with mcf and sixtrack as the
//! extreme DVFS-response cases of Figure 2. The calibration tests in this
//! crate pin those properties.
//!
//! Streams are generated on demand and never recorded: a consumer that
//! needs the same ops again restarts the stream from its seed. Trace
//! capture (`gpm-trace`) generates each benchmark's stream into a small,
//! reused op window that its three DVFS-mode cores step through in turn,
//! so capture memory stays bounded however long the region is.
//!
//! # Examples
//!
//! ```
//! use gpm_workloads::SpecBenchmark;
//! use gpm_microarch::{CoreConfig, CoreModel, InstructionSource};
//! use gpm_types::Hertz;
//!
//! let mut stream = SpecBenchmark::Mcf.stream();
//! let mut core = CoreModel::new(&CoreConfig::power4(), Hertz::from_ghz(1.0)).unwrap();
//! let stats = core.run_cycles(&mut stream, 100_000);
//! assert!(stats.ipc() < 1.0, "mcf is memory bound");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod combos;
mod profile;
mod stream;

pub use combos::WorkloadCombo;
pub use profile::{
    BenchmarkProfile, BranchProfile, CodeProfile, InstructionMix, MemoryProfile, PhaseProfile,
    SpecBenchmark, Suite, UtilizationClass,
};
pub use stream::WorkloadStream;
