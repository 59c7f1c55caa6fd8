//! Exact branch-and-bound replacement for the exhaustive MaxBIPS scan.
//!
//! The paper's MaxBIPS policy (Section 5.2.3) evaluates all 3^N mode
//! combinations per explore interval. That is fine at the paper's 4 cores
//! (81 candidates) and tolerable at 8 (6561), but 3^16 ≈ 43M and
//! 3^32 ≈ 1.8e15 rule the literal scan out for the wide-CMP tier. This
//! module solves the same discrete problem *exactly* — the returned
//! combination is bit-identical to the scan's, including its tie-breaking —
//! in three steps:
//!
//! 1. **Prediction tables.** The search reads the matrices' `[core][mode]`
//!    power and BIPS rows in place and takes each core's transition stall
//!    from one `[from][to]` table, so no candidate ever re-walks the
//!    matrix accessors or recomputes a transition cost. All other working
//!    memory lives in a per-thread scratch reused across solves.
//! 2. **Stall-class decomposition.** The transition de-rate factor
//!    `explore / (explore + stall)` depends only on the *chip-wide maximum*
//!    stall, which takes at most a handful of distinct values (four under
//!    [`DvfsParams::paper`]: 0, 6.5, 13 and 19.5 µs). For each distinct
//!    value `S` the solver searches the subspace "every core's stall ≤ S and
//!    at least one core's stall = S", within which the objective is the
//!    *separable* sum of per-core BIPS times the constant factor for `S`.
//! 3. **Depth-first branch-and-bound.** Within a class, cores are assigned
//!    in descending BIPS-spread order (most impactful first) and candidates
//!    are pruned by (a) a min-residual-power feasibility bound and (b) a
//!    fractional-relaxation upper bound on the remaining BIPS — the LP bound
//!    of the multiple-choice knapsack built from each core's concave
//!    (power, BIPS) frontier.
//!
//! # Bit-identical tie-breaking
//!
//! The scan keeps the *first* strict maximum in enumeration order, i.e. the
//! argmax with the smallest enumeration rank (core 0 is the most
//! significant base-3 digit). The branch-and-bound does not visit leaves in
//! that order, so it carries each partial assignment's rank explicitly and
//! accepts a leaf only if its objective is strictly larger, or equal with a
//! strictly smaller rank. Every pruning bound is slackened by
//! [`BOUND_SLACK`] (absolute + relative), which covers the worst-case
//! floating-point discrepancy between the bound's summation order and the
//! leaf's — so a subtree is discarded only when no leaf in it can beat *or
//! tie* the incumbent. Surviving leaves are evaluated with the scan's
//! arithmetic — the same core-order sums of the same values as
//! [`PowerBipsMatrices::chip_power`] /
//! [`PowerBipsMatrices::chip_bips_with_transition`] — making the kept
//! objective values bit-equal by construction.
//!
//! Degenerate inputs (non-finite or negative table entries, non-finite
//! budget, non-positive explore interval) fall back to the literal
//! [`exhaustive`] scan, which is also kept as the reference baseline for
//! the equivalence tests and benchmarks.

use std::cell::RefCell;

use gpm_power::DvfsParams;
use gpm_types::{Micros, ModeCombination, ModeOdometer, PowerMode, Watts};

use crate::PowerBipsMatrices;

/// Relative pruning slack. Bounds are computed in a different summation
/// order than leaf objectives, so they disagree by at most a few ULPs per
/// term; 1e-9 is ~1e5× the worst case at 80 cores while still pruning
/// everything that is meaningfully worse than the incumbent.
const BOUND_SLACK: f64 = 1e-9;

/// Widest chip the solver accepts: its enumeration-rank bookkeeping
/// needs 3^N < 2^127. Wider chips go through the hierarchical policy.
pub const MAX_CORES: usize = 80;

/// Search-effort counters for one [`solve_with_stats`] call.
#[derive(Debug, Clone, Copy, Default)]
pub struct SolveStats {
    /// Branch-and-bound tree nodes visited (including leaves).
    pub nodes: u64,
    /// Full assignments evaluated exactly.
    pub leaves: u64,
    /// Distinct stall classes searched.
    pub classes: usize,
}

/// Exact solve: the bit-identical result of [`exhaustive`] without the
/// 3^N scan. See the module docs for the algorithm.
///
/// # Panics
///
/// Panics if `matrices` covers more than 80 cores.
#[must_use]
pub fn solve(
    matrices: &PowerBipsMatrices,
    current: &ModeCombination,
    budget: Watts,
    dvfs: &DvfsParams,
    explore: Micros,
) -> ModeCombination {
    solve_with_stats(matrices, current, budget, dvfs, explore).0
}

/// [`solve`], plus counters for the complexity table in DESIGN.md §11.
///
/// # Panics
///
/// Panics if `matrices` covers more than 80 cores.
#[must_use]
pub fn solve_with_stats(
    matrices: &PowerBipsMatrices,
    current: &ModeCombination,
    budget: Watts,
    dvfs: &DvfsParams,
    explore: Micros,
) -> (ModeCombination, SolveStats) {
    let (power, bips) = matrices.rows();
    solve_rows(power, bips, current.as_slice(), budget, dvfs, explore)
}

/// [`solve_with_stats`] over raw `[core][mode]` power and BIPS rows and
/// the current modes — a sub-chip solve without copying its rows out.
///
/// # Panics
///
/// Panics if the rows cover more than 80 cores.
pub(crate) fn solve_rows(
    power: &[[f64; PowerMode::COUNT]],
    bips: &[[f64; PowerMode::COUNT]],
    current: &[PowerMode],
    budget: Watts,
    dvfs: &DvfsParams,
    explore: Micros,
) -> (ModeCombination, SolveStats) {
    let n = power.len();
    assert!(n <= MAX_CORES, "solver supports at most {MAX_CORES} cores");
    // `stall_of[from][to]`: the transition stall of every mode pair. A
    // core's stall row is its current mode's row.
    let stall_of =
        PowerMode::ALL.map(|from| PowerMode::ALL.map(|to| dvfs.transition_time(from, to).value()));
    let mut present = [false; PowerMode::COUNT];
    for mode in current {
        present[mode.index()] = true;
    }
    // The preconditions the pruning bounds rely on: every table entry
    // finite and non-negative, budget finite, explore positive.
    let ok = |x: &f64| x.is_finite() && *x >= 0.0;
    let well_formed = (0..PowerMode::COUNT)
        .filter(|&from| present[from])
        .all(|from| stall_of[from].iter().all(ok))
        && power.iter().chain(bips).flatten().all(ok)
        && budget.value().is_finite()
        && explore.value().is_finite()
        && explore.value() > 0.0;
    if n == 0 || current.len() != n || !well_formed {
        let matrices = PowerBipsMatrices::from_rows(power.to_vec(), bips.to_vec());
        let current = ModeCombination::new(current.to_vec());
        let combo = exhaustive(&matrices, &current, budget, dvfs, explore);
        return (combo, SolveStats::default());
    }
    SCRATCH.with(|scratch| {
        let mut scratch = scratch.borrow_mut();
        let mut search = Search::new(
            &mut scratch,
            power,
            bips,
            current,
            stall_of,
            budget,
            explore,
        );
        search.run();
        let combo = if search.has_best {
            search
                .w
                .best
                .iter()
                .map(|&m| PowerMode::ALL[usize::from(m)])
                .collect()
        } else {
            ModeCombination::uniform(n, PowerMode::Eff2)
        };
        (combo, search.stats)
    })
}

/// The literal exhaustive scan over an in-place [`ModeOdometer`]: the
/// reference baseline the solver must match bit-for-bit, and the fallback
/// for degenerate inputs. Allocates only when a candidate becomes the new
/// best.
#[must_use]
pub fn exhaustive(
    matrices: &PowerBipsMatrices,
    current: &ModeCombination,
    budget: Watts,
    dvfs: &DvfsParams,
    explore: Micros,
) -> ModeCombination {
    let cores = matrices.cores();
    let mut best: Option<(f64, ModeCombination)> = None;
    let mut odo = ModeOdometer::new(cores);
    loop {
        let combo = odo.current();
        if matrices.chip_power(combo) > budget {
            if !odo.advance() {
                break;
            }
            continue;
        }
        let bips = matrices
            .chip_bips_with_transition(current, combo, dvfs, explore)
            .value();
        if best.as_ref().is_none_or(|(b, _)| bips > *b) {
            best = Some((bips, combo.clone()));
        }
        if !odo.advance() {
            break;
        }
    }
    best.map_or_else(
        || ModeCombination::uniform(cores, PowerMode::Eff2),
        |(_, combo)| combo,
    )
}

/// The parallel arm of the exhaustive scan: rank-range chunks walked by
/// per-chunk odometers on the worker pool (no 3^N materialisation), merged
/// as chunk-local first-maxima in enumeration order — bit-identical to the
/// serial scan for any pool width.
#[must_use]
pub fn exhaustive_chunked(
    matrices: &PowerBipsMatrices,
    current: &ModeCombination,
    budget: Watts,
    dvfs: &DvfsParams,
    explore: Micros,
    threads: usize,
) -> ModeCombination {
    let cores = matrices.cores();
    let total = 3usize.checked_pow(cores as u32).expect("3^cores overflow");
    let chunk = total.div_ceil(threads.saturating_mul(4)).max(1);
    let ranges: Vec<(usize, usize)> = (0..total)
        .step_by(chunk)
        .map(|start| (start, (start + chunk).min(total)))
        .collect();
    let locals = gpm_par::parallel_map(&ranges, |&(start, end)| {
        let mut odo = ModeOdometer::from_rank(cores, start);
        let mut best: Option<(f64, ModeCombination)> = None;
        for _ in start..end {
            let combo = odo.current();
            if matrices.chip_power(combo) > budget {
                odo.advance();
                continue;
            }
            let bips = matrices
                .chip_bips_with_transition(current, combo, dvfs, explore)
                .value();
            if best.as_ref().is_none_or(|(b, _)| bips > *b) {
                best = Some((bips, combo.clone()));
            }
            odo.advance();
        }
        best
    });
    let mut best: Option<(f64, ModeCombination)> = None;
    for (bips, combo) in locals.into_iter().flatten() {
        if best.as_ref().is_none_or(|(b, _)| bips > *b) {
            best = Some((bips, combo));
        }
    }
    best.map_or_else(
        || ModeCombination::uniform(cores, PowerMode::Eff2),
        |(_, combo)| combo,
    )
}

thread_local! {
    /// Each thread's solver working memory, reused by every solve the
    /// thread runs (pool workers keep theirs for a whole batch of solves).
    static SCRATCH: RefCell<SolverScratch> = RefCell::new(SolverScratch::default());
}

/// The frontier segments a core can contribute, as pairs of positions in
/// its power-sorted mode list: (0,1), (1,2) and (0,2).
const PAIRS: [(usize, usize); 3] = [(0, 1), (1, 2), (0, 2)];

/// The working memory of one solve, kept between solves so a decision
/// allocates nothing but its result. Every field is rebuilt by each solve;
/// only the capacity carries over.
#[derive(Default)]
struct SolverScratch {
    /// Each core's current mode index (its row of the stall table).
    from: Vec<u8>,
    /// Each core's modes sorted by ascending power, descending BIPS: its
    /// whole frontier before the per-class mode filter.
    by_power: Vec<[u8; PowerMode::COUNT]>,
    /// `segs_of[core][pair]`: each core's [`PAIRS`] segments.
    segs_of: Vec<[Seg; 3]>,
    /// Every core's candidate segments as sort keys — descending ratio,
    /// then branching depth, then pair (see [`seg_key`]) — sorted once
    /// per solve.
    cands: Vec<u128>,
    /// Distinct stall values, ascending: one search class each.
    classes: Vec<f64>,
    /// Branching-order sort keys.
    keys: Vec<u128>,
    /// Cores in branching order (descending BIPS spread).
    order: Vec<usize>,
    /// Inverse of `order`: depth at which each core is assigned.
    pos: Vec<usize>,
    /// Enumeration-rank weight of core `c`'s digit: 3^(n-1-c).
    pow3: Vec<u128>,
    /// Warm-start demotion score per core (NaN: already at the floor).
    scores: Vec<f64>,
    // --- per-class state, rebuilt by `run_class` ---
    mode_ok: Vec<[bool; PowerMode::COUNT]>,
    hits_class: Vec<[bool; PowerMode::COUNT]>,
    /// Which [`PAIRS`] segments each core's class frontier uses.
    active: Vec<[bool; 3]>,
    /// Σ over unassigned cores of their cheapest allowed power.
    base_p_suffix: Vec<f64>,
    /// Σ over unassigned cores of the BIPS at that cheapest point.
    base_b_suffix: Vec<f64>,
    /// Whether any unassigned core can still realise the class stall.
    reach_suffix: Vec<bool>,
    /// The class's frontier segments, in `cands` order.
    segs: Vec<Fill>,
    /// The assignment under construction (mode index per core).
    modes: Vec<u8>,
    /// The incumbent's assignment.
    best: Vec<u8>,
}

/// Maximum of one table row.
fn row_max(row: &[f64; PowerMode::COUNT]) -> f64 {
    row[0].max(row[1]).max(row[2])
}

/// Whether an `n`-term power sum exceeds `budget`, given a running
/// `estimate` of it within `guard` (see [`sum_guard`]) of the exact
/// core-order sum: decided from the estimate when that is clear of the
/// budget by more than the guard, otherwise from `exact()`, the O(n)
/// re-sum. The answer is always the exact sum's.
pub(crate) fn exceeds(estimate: f64, budget: f64, guard: f64, exact: impl FnOnce() -> f64) -> bool {
    if estimate > budget + guard {
        true
    } else if estimate < budget - guard {
        false
    } else {
        exact() > budget
    }
}

/// A bound on how far a running estimate of an `n`-term power sum, kept
/// through up to `2n` single-term replacements, can drift from the exact
/// core-order sum, when the cores' largest |power| cells sum to `scale`.
/// Each sum is within (n − 1)·u·scale of the real sum and each replacement
/// adds at most about 4·u·scale, so ≈ 10·n·u·scale in all (u = ε/2); the
/// guard is three times that. Non-finite inputs give a non-finite guard,
/// which sends every comparison to the exact re-sum.
pub(crate) fn sum_guard(n: usize, scale: f64) -> f64 {
    16.0 * (n as f64 + 2.0) * f64::EPSILON * scale
}

/// Maps `x` to an integer whose unsigned order is [`f64::total_cmp`]'s.
pub(crate) fn total_key(x: f64) -> u64 {
    let bits = x.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
}

/// Clears `v` and refills it with `len` copies of `value`.
fn reset<T: Clone>(v: &mut Vec<T>, len: usize, value: T) {
    v.clear();
    v.resize(len, value);
}

/// One segment of a core's concave (power, BIPS) frontier: spending
/// `dp` extra Watts on this core buys `db` extra BIPS at `ratio = db/dp`.
struct Seg {
    ratio: f64,
    dp: f64,
    db: f64,
}

/// The sort key of segment `pair` of the core at branching `depth`:
/// descending ratio, then depth, then pair. Decoded by [`seg_of_key`].
fn seg_key(ratio: f64, depth: usize, pair: usize) -> u128 {
    u128::from(!total_key(ratio)) << 64 | (depth as u128) << 8 | pair as u128
}

/// The `(depth, pair)` a [`seg_key`] encodes.
fn seg_of_key(key: u128) -> (usize, usize) {
    ((key >> 8) as u8 as usize, key as u8 as usize)
}

/// The part of a class segment the fractional fill reads, packed for its
/// scan.
struct Fill {
    /// Branching depth of the segment's core.
    depth: usize,
    dp: f64,
    db: f64,
}

struct Search<'a> {
    w: &'a mut SolverScratch,
    /// `power[core][mode]`, straight from the matrices.
    power: &'a [[f64; PowerMode::COUNT]],
    /// `bips[core][mode]`.
    bips: &'a [[f64; PowerMode::COUNT]],
    /// `stall_of[from][to]`.
    stall_of: [[f64; PowerMode::COUNT]; PowerMode::COUNT],
    n: usize,
    budget_w: f64,
    explore_us: f64,
    /// Σ over cores of their largest power cell.
    max_power_sum: f64,
    power_slack: f64,
    bips_slack: f64,
    /// De-rate factor of the class being searched.
    factor: f64,
    /// Whether an incumbent exists (`w.best` holds its assignment).
    has_best: bool,
    best_obj: f64,
    /// The incumbent's enumeration rank (scan-identical tie-breaking).
    best_rank: u128,
    stats: SolveStats,
}

impl<'a> Search<'a> {
    /// Prepares the per-solve state in the scratch: branching order, rank
    /// weights, power-sorted modes, candidate segments, stall classes.
    fn new(
        w: &'a mut SolverScratch,
        power: &'a [[f64; PowerMode::COUNT]],
        bips: &'a [[f64; PowerMode::COUNT]],
        current: &[PowerMode],
        stall_of: [[f64; PowerMode::COUNT]; PowerMode::COUNT],
        budget: Watts,
        explore: Micros,
    ) -> Self {
        let n = power.len();
        w.from.clear();
        w.from.extend(current.iter().map(|m| m.index() as u8));

        // Descending BIPS spread, then core index, as one integer key each.
        w.keys.clear();
        w.keys.extend(bips.iter().enumerate().map(|(core, row)| {
            let spread = row_max(row) - row[0].min(row[1]).min(row[2]);
            u128::from(!total_key(spread)) << 64 | core as u128
        }));
        w.keys.sort_unstable();
        w.order.clear();
        w.order
            .extend(w.keys.iter().map(|&key| key as u64 as usize));
        reset(&mut w.pos, n, 0);
        for (depth, &core) in w.order.iter().enumerate() {
            w.pos[core] = depth;
        }
        reset(&mut w.pow3, n, 1);
        for core in (0..n.saturating_sub(1)).rev() {
            w.pow3[core] = w.pow3[core + 1] * 3;
        }

        // The (power, BIPS) sort is a total order on the points' values,
        // so sorting each core's modes once and filtering per class gives
        // exactly each class's sorted subset; likewise the candidate
        // segments sorted once, filtered per class, are each class's
        // segments in sorted order (a core's class segments have strictly
        // falling ratios, so the order is total on them).
        w.by_power.clear();
        w.segs_of.clear();
        w.cands.clear();
        for core in 0..n {
            let (p, b) = (&power[core], &bips[core]);
            let mut modes = [0u8, 1, 2];
            modes.sort_unstable_by(|&x, &y| {
                let (x, y) = (usize::from(x), usize::from(y));
                p[x].total_cmp(&p[y]).then(b[y].total_cmp(&b[x]))
            });
            w.by_power.push(modes);
            let segs = PAIRS.map(|(lo, hi)| {
                let (lo, hi) = (usize::from(modes[lo]), usize::from(modes[hi]));
                let (dp, db) = (p[hi] - p[lo], b[hi] - b[lo]);
                Seg {
                    ratio: db / dp,
                    dp,
                    db,
                }
            });
            for (pair, seg) in segs.iter().enumerate() {
                w.cands.push(seg_key(seg.ratio, w.pos[core], pair));
            }
            w.segs_of.push(segs);
        }
        w.cands.sort_unstable();

        let mut present = [false; PowerMode::COUNT];
        for &from in &w.from {
            present[usize::from(from)] = true;
        }
        w.classes.clear();
        for (row, _) in stall_of.iter().zip(present).filter(|&(_, here)| here) {
            w.classes.extend_from_slice(row);
        }
        w.classes.sort_unstable_by(f64::total_cmp);
        w.classes.dedup();

        let max_power_sum: f64 = power.iter().map(row_max).sum();
        let max_bips_sum: f64 = bips.iter().map(row_max).sum();
        reset(&mut w.mode_ok, n, [false; PowerMode::COUNT]);
        reset(&mut w.hits_class, n, [false; PowerMode::COUNT]);
        reset(&mut w.active, n, [false; 3]);
        reset(&mut w.base_p_suffix, n + 1, 0.0);
        reset(&mut w.base_b_suffix, n + 1, 0.0);
        reset(&mut w.reach_suffix, n + 1, false);
        reset(&mut w.modes, n, 0);
        reset(&mut w.best, n, 0);
        Self {
            w,
            power,
            bips,
            stall_of,
            n,
            budget_w: budget.value(),
            explore_us: explore.value(),
            max_power_sum,
            power_slack: BOUND_SLACK * (1.0 + budget.value().abs() + max_power_sum),
            bips_slack: BOUND_SLACK * (1.0 + max_bips_sum),
            factor: 1.0,
            has_best: false,
            best_obj: 0.0,
            best_rank: 0,
            stats: SolveStats::default(),
        }
    }

    /// Warm start, then every stall class in ascending order.
    fn run(&mut self) {
        // Warm start: a cheap demote-by-ratio heuristic seeds the incumbent
        // so the very first class already prunes against a realistic
        // objective.
        self.greedy_feasible();
        let rank = self
            .w
            .modes
            .iter()
            .zip(&self.w.pow3)
            .map(|(&m, &weight)| u128::from(m) * weight)
            .sum();
        self.offer(rank);

        self.stats.classes = self.w.classes.len();
        for class in 0..self.w.classes.len() {
            self.run_class(self.w.classes[class]);
        }
    }

    /// The exact chip power of `w.modes`: the same core-order sum of the
    /// same values as [`PowerBipsMatrices::chip_power`], so bit-equal.
    fn chip_power(&self) -> f64 {
        self.w
            .modes
            .iter()
            .zip(self.power)
            .map(|(&m, row)| row[usize::from(m)])
            .sum()
    }

    /// The warm-start score of demoting `core` one mode from `mode`:
    /// power saved per BIPS lost (NaN when `mode` is the floor).
    fn demote_score(&self, core: usize, mode: usize) -> f64 {
        let Some(next) = PowerMode::ALL[mode].slower() else {
            return f64::NAN;
        };
        let dp = self.power[core][mode] - self.power[core][next.index()];
        let db = self.bips[core][mode] - self.bips[core][next.index()];
        if db > 0.0 {
            dp / db
        } else {
            f64::INFINITY
        }
    }

    /// Demote-by-ratio warm start (the `GreedyMaxBips` heuristic), built in
    /// `w.modes`: from all-Turbo, repeatedly demote the core with the best
    /// power-saved per BIPS-lost ratio (first core on ties) until the
    /// budget fits or no demotion is left. Only the demoted core's score
    /// changes per step.
    fn greedy_feasible(&mut self) {
        let turbo = PowerMode::Turbo.index();
        self.w.modes.fill(turbo as u8);
        self.w.scores.clear();
        for core in 0..self.n {
            let score = self.demote_score(core, turbo);
            self.w.scores.push(score);
        }
        let guard = sum_guard(self.n, self.max_power_sum);
        let mut estimate = self.chip_power();
        let mut steps = 2 * self.n;
        while exceeds(estimate, self.budget_w, guard, || self.chip_power()) && steps > 0 {
            steps -= 1;
            let mut pick: Option<(f64, usize)> = None;
            for (core, &score) in self.w.scores.iter().enumerate() {
                if !score.is_nan() && pick.is_none_or(|(s, _)| score > s) {
                    pick = Some((score, core));
                }
            }
            let Some((_, core)) = pick else { break };
            let mode = usize::from(self.w.modes[core]) + 1;
            self.w.modes[core] = mode as u8;
            self.w.scores[core] = self.demote_score(core, mode);
            estimate = estimate - self.power[core][mode - 1] + self.power[core][mode];
        }
    }

    /// Evaluates `w.modes` (enumeration rank `rank`) exactly and installs
    /// it as the incumbent if it is feasible and better under the scan's
    /// first-strict-max order. The arithmetic is the scan's: the same
    /// core-order sums as [`PowerBipsMatrices::chip_power`] and
    /// [`PowerBipsMatrices::chip_bips_with_transition`] (BIPS sum, max-fold
    /// of the stalls, de-rate), so kept objectives are bit-equal.
    fn offer(&mut self, rank: u128) {
        if self.chip_power() > self.budget_w {
            return;
        }
        let w = &*self.w;
        let stall = w
            .modes
            .iter()
            .zip(&w.from)
            .map(|(&m, &from)| self.stall_of[usize::from(from)][usize::from(m)])
            .fold(0.0, f64::max);
        let bips: f64 = w
            .modes
            .iter()
            .zip(self.bips)
            .map(|(&m, row)| row[usize::from(m)])
            .sum();
        let obj = bips * (self.explore_us / (self.explore_us + stall));
        if !self.has_best || obj > self.best_obj || (obj == self.best_obj && rank < self.best_rank)
        {
            self.has_best = true;
            self.best_obj = obj;
            self.best_rank = rank;
            let w = &mut *self.w;
            w.best.copy_from_slice(&w.modes);
        }
    }

    /// Searches the subspace whose chip-wide max stall is exactly `stall`.
    fn run_class(&mut self, stall: f64) {
        let n = self.n;
        self.factor = self.explore_us / (self.explore_us + stall);
        let ok_of = self.stall_of.map(|row| row.map(|s| s <= stall));
        let hits_of = self.stall_of.map(|row| row.map(|s| s == stall));
        for core in 0..n {
            let from = usize::from(self.w.from[core]);
            self.w.mode_ok[core] = ok_of[from];
            self.w.hits_class[core] = hits_of[from];
        }

        self.w.base_p_suffix[n] = 0.0;
        self.w.base_b_suffix[n] = 0.0;
        self.w.reach_suffix[n] = false;
        for depth in (0..n).rev() {
            let core = self.w.order[depth];
            let (base_p, base_b) = self.frontier(core);
            let w = &mut *self.w;
            w.base_p_suffix[depth] = base_p + w.base_p_suffix[depth + 1];
            w.base_b_suffix[depth] = base_b + w.base_b_suffix[depth + 1];
            w.reach_suffix[depth] = w.reach_suffix[depth + 1] || w.hits_class[core].contains(&true);
        }
        let w = &mut *self.w;
        w.segs.clear();
        for &key in &w.cands {
            let (depth, pair) = seg_of_key(key);
            let core = w.order[depth];
            if w.active[core][pair] {
                let seg = &w.segs_of[core][pair];
                w.segs.push(Fill {
                    depth,
                    dp: seg.dp,
                    db: seg.db,
                });
            }
        }

        if w.base_p_suffix[0] > self.budget_w + self.power_slack || !w.reach_suffix[0] {
            return;
        }
        self.dfs(0, 0.0, 0.0, false, 0);
    }

    /// Reduces `core`'s allowed modes to the dominance-filtered concave
    /// frontier, marks the [`PAIRS`] segments it uses and returns the
    /// (min-power, BIPS-there) base point.
    fn frontier(&mut self, core: usize) -> (f64, f64) {
        let (p, b) = (&self.power[core], &self.bips[core]);
        let w = &mut *self.w;
        let modes = w.by_power[core].map(usize::from);
        // Dominance filter: keep points with strictly increasing BIPS
        // (`kept` holds positions in the power-sorted list).
        let mut kept = [0usize; PowerMode::COUNT];
        let mut len = 0;
        for (at, &m) in modes.iter().enumerate() {
            if w.mode_ok[core][m] && (len == 0 || b[m] > b[modes[kept[len - 1]]]) {
                kept[len] = at;
                len += 1;
            }
        }
        debug_assert!(len > 0, "every class admits the zero-stall current mode");
        let pair = |lo: usize, hi: usize| PAIRS.iter().position(|&pair| pair == (lo, hi));
        let mut active = [false; 3];
        match len {
            2 => active[pair(kept[0], kept[1]).expect("sorted pair")] = true,
            // Concavity: drop the middle point when it lies on or below the
            // chord (its left ratio does not exceed its right ratio).
            3 if w.segs_of[core][1].ratio >= w.segs_of[core][0].ratio => active[2] = true,
            3 => active[..2].fill(true),
            _ => {}
        }
        w.active[core] = active;
        let base = modes[kept[0]];
        (p[base], b[base])
    }

    /// Fractional-relaxation bonus, for each child `m` with `rooms[m]`
    /// set: the most extra BIPS the cores still unassigned at `depth` can
    /// buy with that many Watts above their base points, filling frontier
    /// segments best-ratio-first with the last one taken fractionally. An
    /// upper bound on every integer completion. One pass over the
    /// segments serves all children; each child's arithmetic is exactly
    /// its own single-room fill.
    fn frac_extra(
        &self,
        depth: usize,
        rooms: [Option<f64>; PowerMode::COUNT],
    ) -> [f64; PowerMode::COUNT] {
        let mut extra = [0.0; PowerMode::COUNT];
        let mut room = [0.0; PowerMode::COUNT];
        let mut live = [false; PowerMode::COUNT];
        let mut open = 0;
        for m in 0..PowerMode::COUNT {
            match rooms[m] {
                Some(r) if r <= 0.0 => {}
                Some(r) => {
                    room[m] = r;
                    live[m] = true;
                    open += 1;
                }
                None => {}
            }
        }
        for seg in &self.w.segs {
            if open == 0 {
                break;
            }
            if seg.depth < depth {
                continue;
            }
            for m in 0..PowerMode::COUNT {
                if !live[m] {
                    continue;
                }
                if seg.dp <= room[m] {
                    room[m] -= seg.dp;
                    extra[m] += seg.db;
                } else {
                    extra[m] += seg.db * (room[m] / seg.dp);
                    live[m] = false;
                    open -= 1;
                }
            }
        }
        extra
    }

    fn dfs(&mut self, depth: usize, power: f64, bips: f64, hit: bool, rank: u128) {
        self.stats.nodes += 1;
        if depth == self.n {
            self.stats.leaves += 1;
            // Exact leaf evaluation: the same core-order sums as the scan.
            // Leaves whose true max stall is below this class are
            // duplicates of an earlier class; re-evaluating them is
            // idempotent under the (obj, rank) order because the objective
            // uses the *actual* stall, not the class constant.
            self.offer(rank);
            return;
        }
        let core = self.w.order[depth];
        let w = &*self.w;
        // The children that pass the feasibility and class-reach tests,
        // with the Watts each leaves above the unassigned cores' bases.
        let mut rooms = [None; PowerMode::COUNT];
        for (m, room) in rooms.iter_mut().enumerate() {
            let p2 = power + self.power[core][m];
            let hit2 = hit || w.hits_class[core][m];
            if w.mode_ok[core][m]
                && p2 + w.base_p_suffix[depth + 1] <= self.budget_w + self.power_slack
                && (hit2 || w.reach_suffix[depth + 1])
            {
                *room = Some(self.budget_w - p2 - w.base_p_suffix[depth + 1] + self.power_slack);
            }
        }
        let mut extras = None;
        for (m, room) in rooms.into_iter().enumerate() {
            if room.is_none() {
                continue;
            }
            let w = &*self.w;
            let p2 = power + self.power[core][m];
            let b2 = bips + self.bips[core][m];
            let hit2 = hit || w.hits_class[core][m];
            let rank2 = rank + m as u128 * w.pow3[core];
            if self.has_best {
                // The bounds do not depend on the incumbent, so the first
                // child that needs one computes them for all.
                let extra = extras.get_or_insert_with(|| self.frac_extra(depth + 1, rooms))[m];
                let ub_bips = b2 + w.base_b_suffix[depth + 1] + extra;
                let ub = ub_bips * self.factor * (1.0 + BOUND_SLACK) + self.bips_slack;
                // `rank2` is the smallest rank in this subtree (unassigned
                // digits are Turbo = 0), so an equal-bound subtree with a
                // larger rank cannot supply the scan's winner either.
                if ub < self.best_obj || (ub == self.best_obj && rank2 > self.best_rank) {
                    continue;
                }
            }
            self.w.modes[core] = m as u8;
            self.dfs(depth + 1, p2, b2, hit2, rank2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_ctx() -> (DvfsParams, Micros) {
        (DvfsParams::paper(), Micros::new(500.0))
    }

    fn matrices(rows: &[(f64, f64)]) -> PowerBipsMatrices {
        let power = rows
            .iter()
            .map(|&(p, _)| PowerMode::ALL.map(|m| p * m.power_scale()))
            .collect();
        let bips = rows
            .iter()
            .map(|&(_, b)| PowerMode::ALL.map(|m| b * m.bips_scale_bound()))
            .collect();
        PowerBipsMatrices::from_rows(power, bips)
    }

    fn assert_matches_scan(m: &PowerBipsMatrices, current: &ModeCombination, budget: f64) {
        let (dvfs, explore) = paper_ctx();
        let budget = Watts::new(budget);
        let want = exhaustive(m, current, budget, &dvfs, explore);
        let got = solve(m, current, budget, &dvfs, explore);
        assert_eq!(got, want, "budget {budget:?}");
    }

    #[test]
    fn matches_scan_across_budget_sweep() {
        let m = matrices(&[(20.0, 2.0), (10.0, 0.4), (15.0, 1.1), (12.0, 1.7)]);
        let current = ModeCombination::uniform(4, PowerMode::Turbo);
        let all_turbo = 20.0 + 10.0 + 15.0 + 12.0;
        for pct in 0..=110 {
            assert_matches_scan(&m, &current, all_turbo * pct as f64 / 100.0);
        }
    }

    #[test]
    fn matches_scan_from_mixed_current_modes() {
        let m = matrices(&[(20.0, 2.0), (10.0, 0.4), (15.0, 1.1)]);
        for rank in 0..27 {
            let current = ModeCombination::from_rank(3, rank);
            for budget in [10.0, 30.0, 38.0, 45.0, 60.0] {
                assert_matches_scan(&m, &current, budget);
            }
        }
    }

    #[test]
    fn identical_cores_tie_resolves_to_scan_winner() {
        // Four identical cores: huge argmax plateaus at every budget step.
        let m = matrices(&[(10.0, 1.0); 4]);
        let current = ModeCombination::uniform(4, PowerMode::Turbo);
        for pct in 0..=100 {
            assert_matches_scan(&m, &current, 40.0 * pct as f64 / 100.0);
        }
    }

    #[test]
    fn zero_spread_bips_ties_resolve_to_scan_winner() {
        // BIPS identical across modes: the objective only moves through the
        // stall factor and feasibility.
        let power = vec![[20.0, 17.0, 12.0], [10.0, 8.0, 6.0]];
        let bips = vec![[1.5, 1.5, 1.5], [0.7, 0.7, 0.7]];
        let m = PowerBipsMatrices::from_rows(power, bips);
        for rank in 0..9 {
            let current = ModeCombination::from_rank(2, rank);
            for budget in [10.0, 18.0, 20.0, 25.0, 31.0] {
                assert_matches_scan(&m, &current, budget);
            }
        }
    }

    #[test]
    fn infeasible_budget_falls_back_to_all_eff2() {
        let m = matrices(&[(20.0, 2.0), (18.0, 1.0)]);
        let current = ModeCombination::uniform(2, PowerMode::Turbo);
        let (dvfs, explore) = paper_ctx();
        let combo = solve(&m, &current, Watts::new(1.0), &dvfs, explore);
        assert!(combo.as_slice().iter().all(|&m| m == PowerMode::Eff2));
        assert_matches_scan(&m, &current, 1.0);
    }

    #[test]
    fn degenerate_inputs_fall_back_to_scan() {
        let m = PowerBipsMatrices::from_rows(vec![[f64::NAN, 1.0, 0.5]], vec![[1.0, 0.9, 0.8]]);
        let current = ModeCombination::uniform(1, PowerMode::Turbo);
        let (dvfs, explore) = paper_ctx();
        let want = exhaustive(&m, &current, Watts::new(2.0), &dvfs, explore);
        let got = solve(&m, &current, Watts::new(2.0), &dvfs, explore);
        assert_eq!(got, want);
    }

    #[test]
    fn prunes_most_of_the_space_on_hetero_chips() {
        let rows: Vec<(f64, f64)> = (0..16)
            .map(|i| {
                (
                    12.0 + (i * 7 % 11) as f64 * 1.3,
                    0.4 + (i * 5 % 9) as f64 * 0.35,
                )
            })
            .collect();
        let m = matrices(&rows);
        let current = (0..16)
            .map(|i| PowerMode::ALL[i % 3])
            .collect::<ModeCombination>();
        let budget = Watts::new(0.8 * rows.iter().map(|r| r.0).sum::<f64>());
        let (dvfs, explore) = paper_ctx();
        let (_, stats) = solve_with_stats(&m, &current, budget, &dvfs, explore);
        assert!(
            stats.nodes < 200_000,
            "16-way search visited {} nodes",
            stats.nodes
        );
    }

    #[test]
    fn chunked_exhaustive_matches_serial() {
        let m = matrices(&[(20.0, 2.0), (10.0, 0.4), (15.0, 1.1), (12.0, 1.7)]);
        let current = ModeCombination::uniform(4, PowerMode::Turbo);
        let (dvfs, explore) = paper_ctx();
        for budget in [20.0, 40.0, 57.0] {
            let budget = Watts::new(budget);
            let serial = exhaustive(&m, &current, budget, &dvfs, explore);
            for threads in [1, 2, 8] {
                let chunked = exhaustive_chunked(&m, &current, budget, &dvfs, explore, threads);
                assert_eq!(chunked, serial, "threads {threads}");
            }
        }
    }
}
