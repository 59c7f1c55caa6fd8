//! Small shared pieces: sample statistics, digests, the seeded mixer,
//! peak memory and the per-layer attribution table.

use std::fmt::Write as _;

/// Median of `samples` (mean of the two middle values for an even count).
/// Returns `None` for an empty slice.
#[must_use]
pub fn median(samples: &[f64]) -> Option<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// Samples that must lie strictly beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// Nearest-rank percentile `p` (0 < p < 1) of `samples`, reported only
/// when at least [`TAIL_BEYOND`] samples lie beyond it: p95 needs 200
/// samples, p99 needs 1000. Returns `None` otherwise.
#[must_use]
pub fn tail_percentile(samples: &[f64], p: f64) -> Option<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n == 0 || !(0.0..1.0).contains(&p) {
        return None;
    }
    // 1-based nearest rank; the tiny epsilon keeps p·n = 190.0000001
    // (float noise on an exact product) from rounding up a rank.
    let rank = ((p * n as f64) - 1e-9).ceil().max(1.0) as usize;
    (n - rank >= TAIL_BEYOND).then(|| sorted[rank - 1])
}

/// The splitmix64 finalizer: a stateless, well-mixed 64-bit hash. All
/// benchmark inputs derive from the seed through it.
#[must_use]
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A uniform draw in `[0, 1)` from a splitmix64 stream.
pub fn unit_draw(state: &mut u64) -> f64 {
    *state = splitmix64(*state);
    (*state >> 11) as f64 / (1u64 << 53) as f64
}

/// FNV-1a over a byte stream: the output digests compared against
/// replays and pinned values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xCBF2_9CE4_8422_2325)
    }
}

impl Digest {
    /// Feeds raw bytes.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// Feeds one little-endian word.
    pub fn word(&mut self, word: u64) {
        self.bytes(&word.to_le_bytes());
    }

    /// Feeds a float by its exact bits.
    pub fn float(&mut self, value: f64) {
        self.word(value.to_bits());
    }

    /// The digest so far.
    #[must_use]
    pub fn value(self) -> u64 {
        self.0
    }
}

/// Peak resident set of this process so far (`VmHWM`), in MiB.
#[must_use]
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Per-layer attribution of one workload's end-to-end time.
///
/// `parts` are layer self times along the blocking chain of one unit of
/// work (a tick, a figure, a simulated slice), timed in the traced run;
/// they sum with [`residual`](Self::residual) to that run's end-to-end
/// time by construction. `views` are further traced figures that overlap
/// the parts (the client's view of a tick, say) and are shown, not summed.
/// The untraced end-to-end time comes from a separate run and is only
/// compared with the traced one.
#[derive(Debug, Clone)]
pub struct Attribution {
    /// Workload name.
    pub workload: &'static str,
    /// Unit every row is expressed in.
    pub unit: &'static str,
    /// End-to-end time of the traced run.
    pub traced: f64,
    /// End-to-end time of a separate run with tracing off.
    pub untraced: f64,
    /// Layer self times on the blocking chain.
    pub parts: Vec<(String, f64)>,
    /// Overlapping traced figures, shown for context.
    pub views: Vec<(String, f64)>,
}

impl Attribution {
    /// Traced end-to-end time not explained by the parts.
    #[must_use]
    pub fn residual(&self) -> f64 {
        self.traced - self.parts.iter().map(|(_, v)| v).sum::<f64>()
    }

    /// Tracing overhead: traced minus untraced end-to-end time. Two runs,
    /// so noise can make it negative.
    #[must_use]
    pub fn overhead(&self) -> f64 {
        self.traced - self.untraced
    }

    /// Tracing overhead as traced over untraced end-to-end time.
    #[must_use]
    pub fn overhead_ratio(&self) -> f64 {
        self.traced / self.untraced
    }

    /// Text table: one row per part, the residual, the traced total, the
    /// overlapping views, then the untraced total and the tracing
    /// overhead.
    #[must_use]
    pub fn render(&self) -> String {
        let unit = self.unit;
        let share = |v: f64| {
            if self.traced > 0.0 {
                format!("{:>6.1}%", 100.0 * v / self.traced)
            } else {
                "      -".to_owned()
            }
        };
        let mut out = format!("attribution [{}] ({unit})\n", self.workload);
        for (name, value) in &self.parts {
            let _ = writeln!(out, "  {name:<34} {value:>14.3} {}", share(*value));
        }
        let residual = self.residual();
        let _ = writeln!(
            out,
            "  {:<34} {residual:>14.3} {}",
            "residual",
            share(residual)
        );
        let _ = writeln!(
            out,
            "  {:<34} {:>14.3} {}",
            "= end-to-end (traced)",
            self.traced,
            share(self.traced)
        );
        for (name, value) in &self.views {
            let _ = writeln!(out, "  {:<34} {value:>14.3}", format!("({name})"));
        }
        let _ = writeln!(
            out,
            "  {:<34} {:>14.3}",
            "end-to-end (untraced run)", self.untraced
        );
        let _ = writeln!(
            out,
            "  {:<34} {:>14.3} (traced/untraced {:.3})",
            "tracing overhead",
            self.overhead(),
            self.overhead_ratio()
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn p95_needs_ten_samples_beyond_it() {
        let samples: Vec<f64> = (1..=200).map(f64::from).collect();
        // Nearest rank 190 of 200 leaves exactly ten samples above it.
        assert_eq!(tail_percentile(&samples, 0.95), Some(190.0));
        assert_eq!(tail_percentile(&samples[..199], 0.95), None);
        // p99 needs 1000 samples.
        assert_eq!(tail_percentile(&samples, 0.99), None);
        let many: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&many, 0.99), Some(990.0));
    }

    #[test]
    fn tail_percentile_ignores_input_order() {
        let mut samples: Vec<f64> = (1..=400).map(f64::from).collect();
        samples.reverse();
        assert_eq!(tail_percentile(&samples, 0.95), Some(380.0));
        assert_eq!(tail_percentile(&samples, 0.5), Some(200.0));
    }

    #[test]
    fn attribution_parts_and_residual_sum_to_end_to_end() {
        let table = Attribution {
            workload: "serve_hit",
            unit: "us/tick",
            traced: 43_000.0,
            untraced: 41_250.5,
            parts: vec![
                ("server.read_decode_us".into(), 9_000.25),
                ("shard.submit_us".into(), 3_100.0),
                ("shard.run_tick_us".into(), 17_500.125),
                ("server.encode_write_us".into(), 4_000.0),
            ],
            views: vec![("loadgen.wait_us".into(), 21_000.0)],
        };
        let parts: f64 = table.parts.iter().map(|(_, v)| v).sum();
        assert!((parts + table.residual() - table.traced).abs() < 1e-9);
        assert!((table.residual() - 9_399.625).abs() < 1e-9);
        assert!((table.overhead() - 1_749.5).abs() < 1e-9);
        assert!((table.overhead_ratio() - 43_000.0 / 41_250.5).abs() < 1e-12);
        let text = table.render();
        assert!(text.contains("residual"));
        assert!(text.contains("tracing overhead"));
    }

    #[test]
    fn digest_is_order_sensitive() {
        let mut a = Digest::default();
        a.word(1);
        a.word(2);
        let mut b = Digest::default();
        b.word(2);
        b.word(1);
        assert_ne!(a.value(), b.value());
    }
}
