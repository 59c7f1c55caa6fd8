//! Quantized canonical keys for memoizing mode decisions.
//!
//! The fleet-mode decision cache (`gpm-core`) keys each solved interval on
//! the exact inputs of the MaxBIPS argmax: the per-core Power/BIPS
//! prediction matrix, the current mode vector, the budget and the interval
//! parameters. Every float input is mapped to one `u64` *cell* by
//! [`quantize_value`]:
//!
//! * **quantum ≤ 0 (exact keying)** — the cell is the raw IEEE-754 bit
//!   pattern. Two inputs share a key only when they are bit-identical, so
//!   a cache hit returns exactly what a fresh solve of the same inputs
//!   would have returned: the solver is a pure function of its arguments.
//! * **quantum > 0 (bucketed keying)** — the cell is the index of the
//!   nearest quantum multiple (`round(value / quantum)`). Matrices within
//!   half a quantum of each other per cell collapse onto one key, trading
//!   exactness for hit rate; the decision error is bounded by the solver's
//!   sensitivity to a half-quantum perturbation of each cell.
//!
//! The key itself ([`QuantizedKey`]) is the canonical word sequence —
//! cells in a fixed row-major order, prefixed with the shape — plus one
//! keyed SipHash digest of it, computed once. [`QuantizedKeyBuilder`]
//! writes the words into a reusable buffer and keeps the canonical order
//! explicit at the call site; [`KeyView`] probes with the buffer's words
//! without copying them.

use std::collections::hash_map::RandomState;
use std::hash::{BuildHasher, BuildHasherDefault, Hash, Hasher};
use std::sync::OnceLock;

/// Maps one float to its canonical key cell. Exact bit pattern when
/// `quantum <= 0`, nearest-multiple bucket index otherwise.
///
/// The bucketed path is deterministic for every input: the `f64 → i64`
/// cast saturates, so `±∞` pin to the extreme buckets and NaN lands on
/// bucket zero (degenerate matrices never promise cache exactness — the
/// solver itself falls back to the exhaustive scan on them).
///
/// # Examples
///
/// ```
/// use gpm_types::quantize_value;
///
/// // Exact keying: distinct bit patterns stay distinct (even -0.0 vs 0.0).
/// assert_eq!(quantize_value(1.5, 0.0), 1.5f64.to_bits());
/// assert_ne!(quantize_value(0.0, 0.0), quantize_value(-0.0, 0.0));
///
/// // Bucketed keying: values within half a quantum collapse.
/// assert_eq!(quantize_value(10.01, 0.1), quantize_value(9.98, 0.1));
/// assert_ne!(quantize_value(10.01, 0.1), quantize_value(10.07, 0.1));
/// ```
#[must_use]
pub fn quantize_value(value: f64, quantum: f64) -> u64 {
    if quantum <= 0.0 {
        value.to_bits()
    } else {
        ((value / quantum).round() as i64) as u64
    }
}

/// The process-wide keyed SipHash state behind every key digest. One
/// state per process (random keys drawn once), so equal word sequences
/// digest equally in every cache and dedup index, while wire-supplied
/// keys still cannot be steered onto chosen hash buckets.
fn digest_state() -> &'static RandomState {
    static STATE: OnceLock<RandomState> = OnceLock::new();
    STATE.get_or_init(RandomState::new)
}

/// The keyed SipHash digest of a canonical word sequence.
fn digest_words(words: &[u64]) -> u64 {
    digest_state().hash_one(words)
}

/// A canonicalized, hashable decision-cache key: the quantized cells of
/// one decision problem in a fixed order, plus their digest.
///
/// Equality is over the exact word sequence, so two keys are equal iff
/// they were built from the same shape and the same quantized cells in the
/// same order. The digest (a keyed SipHash of the words, computed once at
/// construction) is all that [`Hash`] feeds the hasher: equal keys have
/// equal digests everywhere in the process, and a map keyed by digest
/// needs no hasher of its own (see [`DigestHasher`]).
///
/// Serialized as its words alone; the digest is recomputed on load.
#[derive(Debug, Clone)]
pub struct QuantizedKey {
    digest: u64,
    words: Box<[u64]>,
}

impl QuantizedKey {
    /// The canonical word sequence (shape prefix plus quantized cells).
    #[must_use]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// A borrowed view of this key.
    #[must_use]
    pub fn view(&self) -> KeyView<'_> {
        KeyView {
            digest: self.digest,
            words: &self.words,
        }
    }
}

impl PartialEq for QuantizedKey {
    fn eq(&self, other: &Self) -> bool {
        self.view() == other.view()
    }
}

impl Eq for QuantizedKey {}

impl Hash for QuantizedKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.digest);
    }
}

impl serde::Serialize for QuantizedKey {
    fn to_value(&self) -> serde::json::Value {
        let words = self.words.iter().map(serde::Serialize::to_value).collect();
        serde::json::Value::Object(vec![("words".to_owned(), serde::json::Value::Array(words))])
    }
}

impl serde::Deserialize for QuantizedKey {
    fn from_value(value: &serde::json::Value) -> Result<Self, serde::json::Error> {
        let words: Vec<u64> = serde::Deserialize::from_value(value.field("words")?)?;
        Ok(KeyView::new(&words).to_key())
    }
}

/// A digested key over borrowed words: what a probe needs, without
/// owning a copy of the words. [`to_key`](Self::to_key) materialises it.
#[derive(Debug, Clone, Copy)]
pub struct KeyView<'a> {
    digest: u64,
    words: &'a [u64],
}

impl<'a> KeyView<'a> {
    /// Digests `words` (one keyed SipHash pass).
    #[must_use]
    pub fn new(words: &'a [u64]) -> Self {
        Self {
            digest: digest_words(words),
            words,
        }
    }

    /// The keyed SipHash digest of the words.
    #[must_use]
    pub fn digest(self) -> u64 {
        self.digest
    }

    /// The canonical word sequence.
    #[must_use]
    pub fn words(self) -> &'a [u64] {
        self.words
    }

    /// An owned key holding a copy of the words and the same digest.
    #[must_use]
    pub fn to_key(self) -> QuantizedKey {
        QuantizedKey {
            digest: self.digest,
            words: self.words.into(),
        }
    }
}

impl PartialEq for KeyView<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.digest == other.digest && self.words == other.words
    }
}

/// Builds a [`QuantizedKey`] cell by cell in canonical order.
///
/// A builder can be reused: [`clear`](Self::clear) keeps its buffer, so a
/// caller keying many problems writes each one's words into the same
/// allocation and takes a [`view`](Self::view) to probe with.
///
/// # Examples
///
/// ```
/// use gpm_types::QuantizedKeyBuilder;
///
/// let mut builder = QuantizedKeyBuilder::with_capacity(3);
/// builder.push_word(2); // shape prefix: core count
/// builder.push_value(17.15, 0.0);
/// builder.push_value(1.9, 0.0);
/// let probe = builder.view().to_key();
/// let key = builder.finish();
/// assert_eq!(key.words().len(), 3);
/// assert_eq!(key, probe);
/// ```
#[derive(Debug, Default)]
pub struct QuantizedKeyBuilder {
    words: Vec<u64>,
}

impl QuantizedKeyBuilder {
    /// A builder expecting about `words` cells (exact capacity is a hint).
    #[must_use]
    pub fn with_capacity(words: usize) -> Self {
        Self {
            words: Vec::with_capacity(words),
        }
    }

    /// Empties the builder, keeping its buffer for the next key.
    pub fn clear(&mut self) {
        self.words.clear();
    }

    /// Appends a raw word (shape prefixes, mode indices, counts).
    pub fn push_word(&mut self, word: u64) {
        self.words.push(word);
    }

    /// Appends one float cell quantized by [`quantize_value`].
    pub fn push_value(&mut self, value: f64, quantum: f64) {
        self.words.push(quantize_value(value, quantum));
    }

    /// Digests the words written so far into a borrowed key.
    #[must_use]
    pub fn view(&self) -> KeyView<'_> {
        KeyView::new(&self.words)
    }

    /// Finalizes the key.
    #[must_use]
    pub fn finish(self) -> QuantizedKey {
        QuantizedKey {
            digest: digest_words(&self.words),
            words: self.words.into_boxed_slice(),
        }
    }
}

/// A pass-through [`Hasher`] for maps keyed by a key digest: the digest
/// already is a keyed SipHash, so hashing it again would only cost time.
#[derive(Debug, Clone, Copy, Default)]
pub struct DigestHasher(u64);

impl Hasher for DigestHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(byte);
        }
    }

    fn write_u64(&mut self, x: u64) {
        self.0 = x;
    }
}

/// `BuildHasher` for [`DigestHasher`].
pub type BuildDigestHasher = BuildHasherDefault<DigestHasher>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_keying_is_the_bit_pattern() {
        for v in [0.0, -0.0, 1.5, -3.25, f64::MAX, f64::MIN_POSITIVE] {
            assert_eq!(quantize_value(v, 0.0), v.to_bits());
            assert_eq!(quantize_value(v, -1.0), v.to_bits());
        }
    }

    #[test]
    fn bucketed_keying_merges_within_half_quantum() {
        assert_eq!(quantize_value(9.96, 0.1), quantize_value(10.04, 0.1));
        assert_ne!(quantize_value(9.94, 0.1), quantize_value(10.04, 0.1));
        // Negative values bucket symmetrically.
        assert_eq!(quantize_value(-9.96, 0.1), quantize_value(-10.04, 0.1));
        assert_ne!(quantize_value(-10.0, 0.1), quantize_value(10.0, 0.1));
    }

    #[test]
    fn bucketed_keying_is_total_on_degenerate_inputs() {
        // Saturating casts: the non-finite inputs map deterministically.
        assert_eq!(quantize_value(f64::INFINITY, 0.5), i64::MAX as u64);
        assert_eq!(quantize_value(f64::NEG_INFINITY, 0.5), i64::MIN as u64);
        assert_eq!(quantize_value(f64::NAN, 0.5), 0);
    }

    #[test]
    fn keys_compare_by_word_sequence() {
        let build = |cells: &[f64], quantum: f64| {
            let mut b = QuantizedKeyBuilder::with_capacity(cells.len() + 1);
            b.push_word(cells.len() as u64);
            for &c in cells {
                b.push_value(c, quantum);
            }
            b.finish()
        };
        assert_eq!(build(&[1.0, 2.0], 0.0), build(&[1.0, 2.0], 0.0));
        assert_ne!(build(&[1.0, 2.0], 0.0), build(&[2.0, 1.0], 0.0));
        // Shape prefix keeps a 2-cell key distinct from a 3-cell key that
        // happens to share a word prefix.
        assert_ne!(
            build(&[1.0, 2.0], 0.0).words().first(),
            build(&[1.0, 2.0, 3.0], 0.0).words().first()
        );
        // Bucketing makes near-identical cell lists collide on purpose.
        assert_eq!(build(&[10.01, 0.499], 0.05), build(&[9.99, 0.501], 0.05));
    }
}
