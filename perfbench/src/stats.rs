//! Order statistics and the seeded generator behind the rung shuffle.

/// Median of `xs` (mean of the middle pair for an even count); 0 when
/// empty.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linearly interpolated quantile `q` in `[0, 1]` of `xs`; 0 when empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Distance between the first and third quartile.
pub fn iqr(xs: &[f64]) -> f64 {
    quantile(xs, 0.75) - quantile(xs, 0.25)
}

/// The highest percentile that still has at least ten samples above it,
/// as `(percentile, value)`. `None` with ten samples or fewer.
pub fn tail(xs: &[f64]) -> Option<(u32, f64)> {
    let n = xs.len();
    if n <= 10 {
        return None;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    // Order statistic k (0-based) has n - 1 - k samples above it.
    let k = n - 11;
    let pct = (100 * (k + 1) / n) as u32;
    Some((pct, sorted[k]))
}

/// SplitMix64: a tiny, well-mixed generator whose whole state is the
/// seed, so a (seed, round) pair always replays the same order.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator for one stream of the run seed.
    pub fn new(seed: u64, stream: u64) -> SplitMix64 {
        SplitMix64(seed ^ stream.wrapping_mul(0xD134_2543_DE82_EF95))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform index below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }
}

/// The SplitMix64 output function: a bijective 64-bit mixer.
pub fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Fisher–Yates shuffle of `items` driven by `rng`.
pub fn shuffle<T>(items: &mut [T], rng: &mut SplitMix64) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i + 1));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_exactly() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert_eq!(quantile(&xs, 0.25), 1.75);
        assert_eq!(iqr(&xs), 1.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        assert_eq!(tail(&[1.0; 10]), None);
        let xs: Vec<f64> = (1..=20).map(f64::from).collect();
        // k = 9 → value 10.0, with 11..=20 (ten samples) above it.
        assert_eq!(tail(&xs), Some((50, 10.0)));
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&xs), Some((90, 90.0)));
    }

    #[test]
    fn seeded_shuffle_is_reproducible() {
        let order = |seed, round| {
            let mut v: Vec<u32> = (0..8).collect();
            shuffle(&mut v, &mut SplitMix64::new(seed, round));
            v
        };
        assert_eq!(order(7, 3), order(7, 3));
        let mut sorted = order(7, 3);
        sorted.sort_unstable();
        assert_eq!(sorted, (0..8).collect::<Vec<u32>>(), "a permutation");
        // Different rounds and seeds give different orders.
        assert_ne!(order(7, 3), order(7, 4));
        assert_ne!(order(7, 3), order(8, 3));
    }

    #[test]
    fn shuffle_reaches_every_position() {
        // Over many rounds every item lands first at least once: no rung
        // is pinned to a slot (the bias this shuffle exists to remove).
        let mut first = [0u32; 6];
        for round in 0..600 {
            let mut v: Vec<usize> = (0..6).collect();
            shuffle(&mut v, &mut SplitMix64::new(1, round));
            first[v[0]] += 1;
        }
        assert!(first.iter().all(|&c| c > 50), "{first:?}");
    }
}
