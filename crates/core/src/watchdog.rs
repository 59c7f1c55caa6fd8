//! The one overshoot watchdog and the one capped-doubling law, shared by
//! the chip guard rails (`manager.rs`), the rack enforcer and the
//! backpressure retry hints (`fleet.rs`). Each scope keeps only its own
//! data: what it clamps, what it logs and what it measures.

use gpm_types::Result;

use crate::invalid_config;

/// `min(base · 2^n, ceiling)`, saturating where a shift would drop bits.
pub(crate) fn capped_doubling(base: u64, n: u32, ceiling: u64) -> u64 {
    1u64.checked_shl(n)
        .and_then(|factor| base.checked_mul(factor))
        .unwrap_or(u64::MAX)
        .min(ceiling)
}

/// A watchdog's parameters, in its scope's interval unit: `k` violations
/// in a row trip it, and each trip holds `base` doubled per earlier trip,
/// up to `ceiling`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct WatchdogLaw {
    pub k: u64,
    pub base: u64,
    pub ceiling: u64,
}

impl WatchdogLaw {
    /// The one validator for watchdog parameters.
    pub(crate) fn validate(self, parameter: &'static str) -> Result<Self> {
        if self.k >= 1 && self.base >= 1 && self.ceiling >= self.base {
            return Ok(self);
        }
        Err(invalid_config(
            parameter,
            format!(
                "need K >= 1, clamp hold >= 1 and max backoff >= clamp hold, \
                 got K = {}, clamp hold = {}, max backoff = {}",
                self.k, self.base, self.ceiling
            ),
        ))
    }
}

/// Violation watchdog state. `k` clean intervals in a row reset `trips`,
/// so the next hold starts again at `base`.
#[derive(Debug, Clone, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub(crate) struct Watchdog {
    violation_streak: u64,
    clean_streak: u64,
    hold_remaining: u64,
    /// Trips since the backoff last reset.
    trips: u32,
}

impl Watchdog {
    /// Books one interval that ran without a clamp.
    pub(crate) fn record(&mut self, violated: bool, law: WatchdogLaw) {
        if violated {
            self.violation_streak = self.violation_streak.saturating_add(1);
            self.clean_streak = 0;
        } else {
            self.violation_streak = 0;
            self.clean_streak = self.clean_streak.saturating_add(1);
            if self.clean_streak >= law.k {
                self.trips = 0;
            }
        }
    }

    /// Arms a hold, returning its length, once `k` violations in a row
    /// are booked and no hold is active.
    pub(crate) fn trip(&mut self, law: WatchdogLaw) -> Option<u64> {
        if self.hold_remaining > 0 || self.violation_streak < law.k {
            return None;
        }
        self.hold_remaining = capped_doubling(law.base, self.trips, law.ceiling);
        self.trips = self.trips.saturating_add(1);
        self.violation_streak = 0;
        self.clean_streak = 0;
        Some(self.hold_remaining)
    }

    /// Spends one interval of an active hold, returning the intervals left
    /// after it; `None` when no hold is active.
    pub(crate) fn hold(&mut self) -> Option<u64> {
        self.hold_remaining = self.hold_remaining.checked_sub(1)?;
        Some(self.hold_remaining)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LAW: WatchdogLaw = WatchdogLaw {
        k: 2,
        base: 1,
        ceiling: 4,
    };

    #[test]
    fn watchdog_clamps_after_k_violations_and_backs_off() {
        let mut dog = Watchdog::default();
        // Two violated intervals, then the watchdog engages.
        dog.record(true, LAW);
        assert_eq!(dog.trip(LAW), None);
        dog.record(true, LAW);
        assert_eq!(dog.trip(LAW), Some(1));
        assert_eq!(dog.trip(LAW), None, "a hold is already active");
        assert_eq!(dog.hold(), Some(0));

        // Hold of 1 expired: no clamp next interval, and the backoff has
        // doubled for the next engagement.
        assert_eq!(dog.hold(), None);
        assert_eq!(capped_doubling(LAW.base, dog.trips, LAW.ceiling), 2);

        // Two clean intervals reset the backoff to the base hold.
        dog.record(false, LAW);
        dog.record(false, LAW);
        assert_eq!(capped_doubling(LAW.base, dog.trips, LAW.ceiling), 1);
    }

    #[test]
    fn holds_double_to_the_ceiling_until_a_clean_streak() {
        let mut dog = Watchdog::default();
        let mut holds = Vec::new();
        for _ in 0..5 {
            dog.record(true, LAW);
            dog.record(false, LAW); // one clean interval resets nothing
            dog.record(true, LAW);
            dog.record(true, LAW);
            let hold = dog.trip(LAW).expect("streak of K");
            while dog.hold().is_some() {}
            holds.push(hold);
        }
        assert_eq!(holds, [1, 2, 4, 4, 4]);
    }

    #[test]
    fn capped_doubling_saturates_instead_of_wrapping() {
        assert_eq!(capped_doubling(2, 0, 32), 2);
        assert_eq!(capped_doubling(2, 3, 32), 16);
        assert_eq!(capped_doubling(2, 5, 32), 32);
        assert_eq!(capped_doubling(1 << 60, 4, u64::MAX), u64::MAX);
        assert_eq!(capped_doubling(3, 63, u64::MAX), u64::MAX);
        assert_eq!(capped_doubling(1, 64, 7), 7);
        assert_eq!(capped_doubling(1, u32::MAX, u64::MAX), u64::MAX);
    }
}
