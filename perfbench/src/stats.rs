//! Sample statistics with explicit sample counts.
//!
//! Percentiles use linear interpolation between closest ranks (the
//! "type 7" estimator), not nearest rank, so a tail percentile moves
//! smoothly with the data instead of jumping between two samples.

/// A tail percentile is reported only when at least this many samples lie
/// at or beyond it; for p99 that means 1,000 samples.
pub const TAIL_SAMPLES: usize = 10;

/// Latency samples in milliseconds, sorted on construction.
pub struct Samples {
    sorted: Vec<f64>,
}

impl Samples {
    pub fn new(mut values: Vec<f64>) -> Self {
        values.sort_by(f64::total_cmp);
        Samples { sorted: values }
    }

    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// The `p`-quantile (`p` in 0..=1), or `None` without samples.
    pub fn quantile(&self, p: f64) -> Option<f64> {
        let n = self.sorted.len();
        if n == 0 {
            return None;
        }
        let pos = p.clamp(0.0, 1.0) * (n - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        let frac = pos - lo as f64;
        Some(self.sorted[lo] + (self.sorted[hi] - self.sorted[lo]) * frac)
    }

    /// Smallest sample count for which the `p`-quantile has
    /// [`TAIL_SAMPLES`] samples beyond it.
    pub fn floor_for(p: f64) -> usize {
        (TAIL_SAMPLES as f64 / (1.0 - p)).round() as usize
    }

    /// The `p`-quantile, refused (with the reason) when too few samples
    /// lie beyond it to estimate it.
    pub fn tail(&self, p: f64) -> Result<f64, String> {
        let floor = Self::floor_for(p);
        if self.len() < floor {
            return Err(format!(
                "p{} needs at least {floor} samples, have {}",
                p * 100.0,
                self.len()
            ));
        }
        self.quantile(p).ok_or_else(|| "no samples".to_string())
    }

    pub fn mean(&self) -> f64 {
        mean(&self.sorted)
    }
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Median of a small set of repeated measurements (e.g. set-up times).
pub fn median(values: &[f64]) -> f64 {
    Samples::new(values.to_vec()).quantile(0.5).unwrap_or(0.0)
}

/// Peak resident set size of this process (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Folds 64-bit words into one FNV-1a digest (the correctness fold).
#[derive(Clone, Copy)]
pub struct Fold(u64);

impl Default for Fold {
    fn default() -> Self {
        Fold(0xcbf2_9ce4_8422_2325)
    }
}

impl Fold {
    pub fn push(&mut self, word: u64) {
        for b in word.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    pub fn value(self) -> u64 {
        self.0
    }

    /// The digest cut to 53 bits, so a JSON number carries it exactly.
    pub fn as_json_exact(self) -> f64 {
        (self.0 & ((1u64 << 53) - 1)) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interpolated_quantiles() {
        let s = Samples::new(vec![4.0, 1.0, 3.0, 2.0]);
        assert_eq!(s.quantile(0.0), Some(1.0));
        assert_eq!(s.quantile(1.0), Some(4.0));
        assert_eq!(s.quantile(0.5), Some(2.5));
    }

    #[test]
    fn p99_needs_a_thousand_samples() {
        assert_eq!(Samples::floor_for(0.99), 1000);
        let few = Samples::new((0..999).map(f64::from).collect());
        assert!(few.tail(0.99).is_err());
        let enough = Samples::new((0..1000).map(f64::from).collect());
        assert!(enough.tail(0.99).is_ok());
    }
}
