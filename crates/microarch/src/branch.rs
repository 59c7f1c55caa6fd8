//! Combining branch predictor: bimodal + gshare + selector (Table 1).

use serde::{Deserialize, Serialize};

/// Sizes of the three predictor tables.
///
/// Table 1 of the paper: 16K-entry bimodal, 16K-entry gshare, 16K-entry
/// selector, each a table of 2-bit saturating counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PredictorConfig {
    /// Entries in the bimodal table (power of two).
    pub bimodal_entries: usize,
    /// Entries in the gshare table (power of two).
    pub gshare_entries: usize,
    /// Entries in the selector table (power of two).
    pub selector_entries: usize,
}

impl Default for PredictorConfig {
    fn default() -> Self {
        Self {
            bimodal_entries: 16 * 1024,
            gshare_entries: 16 * 1024,
            selector_entries: 16 * 1024,
        }
    }
}

impl PredictorConfig {
    /// Checks the table sizes are usable (non-zero powers of two, so the
    /// index masks are well-formed).
    ///
    /// # Errors
    ///
    /// Returns a human-readable reason when a table size is invalid.
    pub fn validate(&self) -> Result<(), String> {
        for (name, n) in [
            ("bimodal_entries", self.bimodal_entries),
            ("gshare_entries", self.gshare_entries),
            ("selector_entries", self.selector_entries),
        ] {
            if !n.is_power_of_two() {
                return Err(format!(
                    "table {name} must be a non-zero power of two, got {n}"
                ));
            }
        }
        Ok(())
    }
}

/// Two-bit saturating counter helpers.
#[inline]
fn counter_predict(counter: u8) -> bool {
    counter >= 2
}

#[inline]
fn counter_update(counter: &mut u8, taken: bool) {
    if taken {
        *counter = (*counter + 1).min(3);
    } else {
        *counter = counter.saturating_sub(1);
    }
}

/// A McFarling-style combining predictor: a bimodal table and a gshare table
/// race, and a selector table (indexed by PC) learns which component to
/// trust per branch.
///
/// # Examples
///
/// ```
/// use gpm_microarch::{BranchPredictor, PredictorConfig};
///
/// let mut bp = BranchPredictor::new(PredictorConfig::default());
/// // A strongly-biased branch becomes perfectly predicted.
/// let mut wrong = 0;
/// for _ in 0..1000 {
///     if bp.predict_and_update(0x4000, true) {
///         wrong += 1;
///     }
/// }
/// assert!(wrong <= 2);
/// ```
#[derive(Debug, Clone)]
pub struct BranchPredictor {
    bimodal: Vec<u8>,
    gshare: Vec<u8>,
    selector: Vec<u8>,
    // Index masks (len - 1), precomputed so the per-branch hot path does no
    // table-length loads.
    bi_mask: usize,
    gs_mask: usize,
    sel_mask: usize,
    history: u64,
    predictions: u64,
    mispredictions: u64,
}

impl BranchPredictor {
    /// Builds a predictor with the given table sizes.
    ///
    /// # Panics
    ///
    /// Panics if any table size is zero or not a power of two; validate
    /// first with [`PredictorConfig::validate`] to get an error instead
    /// (as [`CoreConfig::validate`](crate::CoreConfig::validate) does).
    #[must_use]
    pub fn new(config: PredictorConfig) -> Self {
        if let Err(reason) = config.validate() {
            panic!("predictor {reason}");
        }
        Self {
            // Initialise to weakly-taken so cold branches behave neutrally.
            bimodal: vec![2; config.bimodal_entries],
            gshare: vec![2; config.gshare_entries],
            selector: vec![2; config.selector_entries],
            bi_mask: config.bimodal_entries - 1,
            gs_mask: config.gshare_entries - 1,
            sel_mask: config.selector_entries - 1,
            history: 0,
            predictions: 0,
            mispredictions: 0,
        }
    }

    /// Predicts branch at `pc`, then updates all tables with the actual
    /// `taken` outcome. Returns `true` if the branch was **mispredicted**.
    #[inline]
    pub fn predict_and_update(&mut self, pc: u64, taken: bool) -> bool {
        let bi_idx = (pc as usize) & self.bi_mask;
        let gs_idx = ((pc ^ self.history) as usize) & self.gs_mask;
        let sel_idx = (pc as usize) & self.sel_mask;

        let bi_pred = counter_predict(self.bimodal[bi_idx]);
        let gs_pred = counter_predict(self.gshare[gs_idx]);
        // Selector ≥ 2 → trust gshare.
        let prediction = if counter_predict(self.selector[sel_idx]) {
            gs_pred
        } else {
            bi_pred
        };

        // Train the selector only when the components disagree.
        if bi_pred != gs_pred {
            counter_update(&mut self.selector[sel_idx], gs_pred == taken);
        }
        counter_update(&mut self.bimodal[bi_idx], taken);
        counter_update(&mut self.gshare[gs_idx], taken);
        self.history = (self.history << 1) | u64::from(taken);

        self.predictions += 1;
        let mispredicted = prediction != taken;
        if mispredicted {
            self.mispredictions += 1;
        }
        mispredicted
    }

    /// Total predictions made.
    #[must_use]
    pub fn predictions(&self) -> u64 {
        self.predictions
    }

    /// Total mispredictions.
    #[must_use]
    pub fn mispredictions(&self) -> u64 {
        self.mispredictions
    }

    /// Misprediction rate; 0 when no branches were seen.
    #[must_use]
    pub fn mispredict_rate(&self) -> f64 {
        if self.predictions == 0 {
            0.0
        } else {
            self.mispredictions as f64 / self.predictions as f64
        }
    }

    /// Clears the counters but keeps learned state.
    pub fn reset_counters(&mut self) {
        self.predictions = 0;
        self.mispredictions = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn predictor() -> BranchPredictor {
        BranchPredictor::new(PredictorConfig::default())
    }

    #[test]
    fn biased_branch_learns() {
        let mut bp = predictor();
        for _ in 0..100 {
            bp.predict_and_update(0x100, true);
        }
        bp.reset_counters();
        for _ in 0..100 {
            bp.predict_and_update(0x100, true);
        }
        assert_eq!(bp.mispredictions(), 0);
    }

    #[test]
    fn alternating_pattern_is_learned_by_gshare() {
        let mut bp = predictor();
        let mut flip = false;
        for _ in 0..2000 {
            bp.predict_and_update(0x200, flip);
            flip = !flip;
        }
        bp.reset_counters();
        for _ in 0..1000 {
            bp.predict_and_update(0x200, flip);
            flip = !flip;
        }
        assert!(
            bp.mispredict_rate() < 0.05,
            "gshare should capture period-2 history, got {}",
            bp.mispredict_rate()
        );
    }

    #[test]
    fn random_branches_mispredict_heavily() {
        let mut bp = predictor();
        // Deterministic pseudo-random outcome stream.
        let mut x = 0x12345678u64;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x & 1 == 1
        };
        for _ in 0..20_000 {
            bp.predict_and_update(0x300, next());
        }
        assert!(
            bp.mispredict_rate() > 0.35,
            "random outcomes cannot be predicted, got {}",
            bp.mispredict_rate()
        );
    }

    #[test]
    fn distinct_pcs_do_not_interfere_in_bimodal() {
        let mut bp = predictor();
        for _ in 0..500 {
            bp.predict_and_update(0x1000, true);
            bp.predict_and_update(0x1001, false);
        }
        bp.reset_counters();
        for _ in 0..100 {
            bp.predict_and_update(0x1000, true);
            bp.predict_and_update(0x1001, false);
        }
        assert!(bp.mispredict_rate() < 0.02);
    }

    #[test]
    fn rate_zero_with_no_branches() {
        assert_eq!(predictor().mispredict_rate(), 0.0);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two_tables() {
        let _ = BranchPredictor::new(PredictorConfig {
            bimodal_entries: 1000,
            ..PredictorConfig::default()
        });
    }

    #[test]
    fn validate_rejects_non_power_of_two() {
        let bad = PredictorConfig {
            gshare_entries: 1000,
            ..PredictorConfig::default()
        };
        assert!(bad.validate().is_err());
        assert!(PredictorConfig::default().validate().is_ok());
    }

    #[test]
    fn counter_saturation() {
        let mut c = 3u8;
        counter_update(&mut c, true);
        assert_eq!(c, 3);
        let mut c = 0u8;
        counter_update(&mut c, false);
        assert_eq!(c, 0);
    }
}
