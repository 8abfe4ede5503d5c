//! Bounded-memory frequency and cardinality sketches.
//!
//! Both sketches are *seeded and deterministic*: every hash is a pure
//! function of `(seed, key)`, so two runs with the same seed touch the
//! same cells in the same order and the streaming miner's output is a
//! pure function of the trace and its configuration — the same contract
//! the batch replay honours.
//!
//! * [`CountMinSketch`] — per-key counters with one-sided error: an
//!   estimate is never below the true count, and exceeds it by more than
//!   `ε·N` (`ε = e / width`, `N` = total increments) with probability at
//!   most `e^(−depth)` (Cormode & Muthukrishnan's bound).
//! * [`HyperLogLog`] — distinct-count estimation with relative standard
//!   error `≈ 1.04 / √2^precision`, using linear counting in the small
//!   range where raw HLL is biased.

use std::fmt::{self, Write as _};

/// The 64-bit SplitMix64 finaliser — the same mixer the resolver's
/// per-record client sketch uses. Full-avalanche, so sequential keys
/// scatter uniformly across sketch cells.
fn mix64(mut h: u64) -> u64 {
    h = h.wrapping_add(0x9e37_79b9_7f4a_7c15);
    h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

/// Seeded 64-bit hash of `key`: mixing the seed first decorrelates the
/// row hash functions from the key distribution.
pub(crate) fn seeded_hash(seed: u64, key: u64) -> u64 {
    mix64(key ^ mix64(seed))
}

/// Seedless FNV-1a over the `Display` text of `value` — the stable
/// fingerprint used to key sketches by resource record and owner name.
/// The text is hashed as it is formatted, so it is never built:
/// `display_fnv1a(x)` equals FNV-1a over `x.to_string()`'s bytes.
pub(crate) fn display_fnv1a(value: impl fmt::Display) -> u64 {
    let mut sink = Fnv1a(0xcbf2_9ce4_8422_2325);
    // The sink never fails, and `Display` impls only propagate errors.
    let _ = write!(sink, "{value}");
    sink.0
}

/// FNV-1a state, fed by formatting machinery.
struct Fnv1a(u64);

impl fmt::Write for Fnv1a {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        for &b in s.as_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        Ok(())
    }
}

/// A seeded count-min sketch over `u64` keys.
///
/// # Examples
///
/// ```
/// use dnsnoise_stream::CountMinSketch;
///
/// let mut cm = CountMinSketch::new(1024, 4, 7);
/// cm.add(42, 3);
/// cm.add(42, 2);
/// assert!(cm.estimate(42) >= 5); // never underestimates
/// assert_eq!(cm.total(), 5);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CountMinSketch {
    width: usize,
    /// One hash key per row, derived from the seed once: row `r` maps
    /// `key` to `mix64(key ^ row_keys[r])`.
    row_keys: Vec<u64>,
    /// `depth` rows of `width` counters, row-major.
    rows: Vec<u64>,
    /// Total of all increments (the `N` in the `ε·N` error bound).
    total: u64,
}

impl CountMinSketch {
    /// Creates a sketch of `depth` rows × `width` counters.
    ///
    /// # Panics
    ///
    /// Panics if `width` or `depth` is zero.
    pub fn new(width: usize, depth: usize, seed: u64) -> CountMinSketch {
        assert!(width > 0, "count-min width must be positive");
        assert!(depth > 0, "count-min depth must be positive");
        CountMinSketch {
            width,
            row_keys: Self::row_keys(depth, seed),
            rows: vec![0; width * depth],
            total: 0,
        }
    }

    /// Row `r`'s hash is `seeded_hash(seed ^ r·C, key)`; its seed half,
    /// `mix64(seed ^ r·C)`, depends on the row alone.
    fn row_keys(depth: usize, seed: u64) -> Vec<u64> {
        (0..depth as u64).map(|row| mix64(seed ^ row.wrapping_mul(0xa076_1d64_78bd_642f))).collect()
    }

    /// Adds `count` occurrences of `key`.
    pub fn add(&mut self, key: u64, count: u64) {
        for cell in cells(self.width, &self.row_keys, key) {
            self.rows[cell] += count;
        }
        self.total += count;
    }

    /// The count-min estimate for `key`: the minimum over rows. Never
    /// below the true count; above it by more than [`Self::epsilon`]`·`
    /// [`Self::total`] with probability at most `e^(−depth)`.
    pub fn estimate(&self, key: u64) -> u64 {
        cells(self.width, &self.row_keys, key).map(|cell| self.rows[cell]).min().unwrap_or(0)
    }

    /// Total increments folded in so far.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Row width.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of rows.
    pub fn depth(&self) -> usize {
        self.row_keys.len()
    }

    /// The per-estimate error factor `ε = e / width`.
    pub fn epsilon(&self) -> f64 {
        std::f64::consts::E / self.width as f64
    }

    /// Resident counter storage in bytes.
    pub fn state_bytes(&self) -> usize {
        self.rows.len() * std::mem::size_of::<u64>()
    }

    /// The raw row-major counter cells, for checkpoint serialisation.
    pub(crate) fn rows(&self) -> &[u64] {
        &self.rows
    }

    /// Rebuilds a sketch from checkpointed parts. Returns `None` when
    /// the cell count does not match `width × depth`.
    pub(crate) fn from_parts(
        width: usize,
        depth: usize,
        seed: u64,
        rows: Vec<u64>,
        total: u64,
    ) -> Option<CountMinSketch> {
        if width == 0 || depth == 0 || rows.len() != width * depth {
            return None;
        }
        Some(CountMinSketch { width, row_keys: Self::row_keys(depth, seed), rows, total })
    }
}

/// The row-major cell `key` maps to in each row of a count-min sketch.
fn cells(width: usize, row_keys: &[u64], key: u64) -> impl Iterator<Item = usize> + '_ {
    row_keys
        .iter()
        .enumerate()
        .map(move |(row, &row_key)| row * width + (mix64(key ^ row_key) % width as u64) as usize)
}

/// A seeded HyperLogLog cardinality estimator over `u64` keys.
///
/// # Examples
///
/// ```
/// use dnsnoise_stream::HyperLogLog;
///
/// let mut hll = HyperLogLog::new(12, 7);
/// for k in 0..1000u64 {
///     hll.insert(k);
///     hll.insert(k); // duplicates don't count
/// }
/// let est = hll.estimate();
/// assert!((est - 1000.0).abs() / 1000.0 < 0.1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HyperLogLog {
    precision: u8,
    seed: u64,
    /// `2^precision` max-rank registers.
    registers: Vec<u8>,
}

impl HyperLogLog {
    /// Smallest supported precision (16 registers).
    pub const MIN_PRECISION: u8 = 4;
    /// Largest supported precision (65 536 registers).
    pub const MAX_PRECISION: u8 = 16;

    /// Creates an estimator with `2^precision` one-byte registers.
    ///
    /// # Panics
    ///
    /// Panics if `precision` is outside
    /// [`Self::MIN_PRECISION`]`..=`[`Self::MAX_PRECISION`].
    pub fn new(precision: u8, seed: u64) -> HyperLogLog {
        assert!(
            (Self::MIN_PRECISION..=Self::MAX_PRECISION).contains(&precision),
            "HLL precision must be within {}..={}",
            Self::MIN_PRECISION,
            Self::MAX_PRECISION,
        );
        HyperLogLog { precision, seed, registers: vec![0; 1 << precision] }
    }

    /// Folds one key into the estimator.
    pub fn insert(&mut self, key: u64) {
        let h = seeded_hash(self.seed, key);
        let idx = (h >> (64 - self.precision)) as usize;
        // Rank of the first set bit in the remaining 64−p bits, 1-based;
        // an all-zero remainder saturates at 64−p+1.
        let rest = h << self.precision;
        let rank =
            if rest == 0 { 64 - u32::from(self.precision) + 1 } else { rest.leading_zeros() + 1 };
        let rank = rank as u8;
        if rank > self.registers[idx] {
            self.registers[idx] = rank;
        }
    }

    /// The cardinality estimate, with linear-counting correction in the
    /// small range where raw HLL is biased.
    pub fn estimate(&self) -> f64 {
        let m = self.registers.len() as f64;
        let alpha = match self.registers.len() {
            16 => 0.673,
            32 => 0.697,
            64 => 0.709,
            _ => 0.7213 / (1.0 + 1.079 / m),
        };
        // 2^-register is exact in f64 for register ≤ 63, so the harmonic
        // sum involves no transcendental calls.
        let sum: f64 = self.registers.iter().map(|&r| 1.0 / (1u64 << r) as f64).sum();
        let raw = alpha * m * m / sum;
        if raw <= 2.5 * m {
            let zeros = self.registers.iter().filter(|&&r| r == 0).count();
            if zeros > 0 {
                return m * (m / zeros as f64).ln();
            }
        }
        raw
    }

    /// The estimate rounded to a whole count.
    pub fn estimate_rounded(&self) -> u64 {
        self.estimate().round() as u64
    }

    /// The precision-implied relative standard error `1.04 / √m`.
    pub fn relative_error(&self) -> f64 {
        1.04 / (self.registers.len() as f64).sqrt()
    }

    /// The configured precision.
    pub fn precision(&self) -> u8 {
        self.precision
    }

    /// Resident register storage in bytes.
    pub fn state_bytes(&self) -> usize {
        self.registers.len()
    }

    /// The raw max-rank registers, for checkpoint serialisation.
    pub(crate) fn registers(&self) -> &[u8] {
        &self.registers
    }

    /// Rebuilds an estimator from checkpointed parts. Returns `None`
    /// when the register count does not match `2^precision` or the
    /// precision is out of range.
    pub(crate) fn from_parts(precision: u8, seed: u64, registers: Vec<u8>) -> Option<HyperLogLog> {
        if !(Self::MIN_PRECISION..=Self::MAX_PRECISION).contains(&precision)
            || registers.len() != 1usize << precision
        {
            return None;
        }
        Some(HyperLogLog { precision, seed, registers })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn count_min_is_exact_without_collisions() {
        // 16 distinct keys in a 4096-wide sketch: collision-free for this
        // seed, so every estimate is exact.
        let mut cm = CountMinSketch::new(4096, 4, 7);
        for key in 0..16u64 {
            cm.add(key, key + 1);
        }
        for key in 0..16u64 {
            assert_eq!(cm.estimate(key), key + 1);
        }
        assert_eq!(cm.total(), (1..=16).sum::<u64>());
    }

    #[test]
    fn count_min_never_underestimates_under_heavy_collision() {
        // Width 2: everything collides; estimates may only inflate.
        let mut cm = CountMinSketch::new(2, 2, 3);
        for key in 0..100u64 {
            cm.add(key, 1);
        }
        for key in 0..100u64 {
            assert!(cm.estimate(key) >= 1);
        }
    }

    #[test]
    fn count_min_is_deterministic_for_a_seed_and_seed_sensitive() {
        let mut a = CountMinSketch::new(64, 3, 11);
        let mut b = CountMinSketch::new(64, 3, 11);
        let mut c = CountMinSketch::new(64, 3, 12);
        for key in 0..500u64 {
            a.add(key, 1);
            b.add(key, 1);
            c.add(key, 1);
        }
        assert_eq!(a, b);
        assert_ne!(a.rows, c.rows, "different seeds must permute cells");
    }

    #[test]
    fn hll_estimates_within_bound_on_sequential_keys() {
        for precision in [8, 12, 14] {
            let mut hll = HyperLogLog::new(precision, 7);
            let n = 10_000u64;
            for k in 0..n {
                hll.insert(k);
            }
            let err = (hll.estimate() - n as f64).abs() / n as f64;
            // 4σ of the precision-implied standard error.
            assert!(
                err <= 4.0 * hll.relative_error(),
                "p={precision}: err {err} vs bound {}",
                4.0 * hll.relative_error()
            );
        }
    }

    #[test]
    fn hll_small_range_is_near_exact() {
        let mut hll = HyperLogLog::new(12, 7);
        for k in 0..50u64 {
            hll.insert(k);
            hll.insert(k);
        }
        // Linear counting over 4096 registers: exact for 50 keys short of
        // a register collision.
        let est = hll.estimate_rounded();
        assert!((49..=51).contains(&est), "estimate {est}");
    }

    #[test]
    fn hll_is_deterministic_for_a_seed() {
        let mut a = HyperLogLog::new(10, 5);
        let mut b = HyperLogLog::new(10, 5);
        for k in 0..2000u64 {
            a.insert(k * 7919);
            b.insert(k * 7919);
        }
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "precision")]
    fn hll_rejects_out_of_range_precision() {
        let _ = HyperLogLog::new(3, 7);
    }

    #[test]
    #[should_panic(expected = "width")]
    fn count_min_rejects_zero_width() {
        let _ = CountMinSketch::new(0, 4, 7);
    }
}
