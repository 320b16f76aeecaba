//! Order statistics the metrics are reported as.

/// Median of `v` (0 for an empty slice); sorts in place.
pub fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    percentile(v, 0.5)
}

/// Linear-interpolated percentile `p ∈ [0,1]` of an ascending slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = p * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// The highest percentile that still has ten samples beyond it, as
/// `(percentile, value)`. With ten samples or fewer there is no such
/// percentile and the median is returned.
pub fn tail(sorted: &[f64]) -> (f64, f64) {
    let n = sorted.len();
    if n > 10 {
        ((n - 10) as f64 / n as f64, sorted[n - 11])
    } else {
        (0.5, percentile(sorted, 0.5))
    }
}

pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// `xorshift64*`: the benchmark's only randomness, so a seed fixes every
/// generated input.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        // SplitMix64 scramble so small seeds do not start correlated.
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        Rng((z ^ (z >> 31)) | 1)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}
