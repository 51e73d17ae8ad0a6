//! Compensated (Neumaier) summation.
//!
//! Energy totals accumulate over many schedule slices whose magnitudes can
//! differ by orders of magnitude (a long slow block vs. a short sprint at
//! high speed, where power grows like `σ^α`). Plain `f64` summation loses
//! low-order bits exactly where the frontier breakpoints are decided, so
//! all energy accumulation in the workspace goes through this module.

/// Running Neumaier-compensated sum.
///
/// Neumaier's variant of Kahan summation also handles the case where the
/// incoming term is larger than the running total, which happens routinely
/// when a high-speed block's energy dwarfs the prefix.
#[derive(Debug, Clone, Copy, Default)]
pub struct NeumaierSum {
    sum: f64,
    compensation: f64,
}

impl NeumaierSum {
    /// Start an empty sum.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one term.
    #[inline]
    pub fn add(&mut self, x: f64) {
        let t = self.sum + x;
        if self.sum.abs() >= x.abs() {
            self.compensation += (self.sum - t) + x;
        } else {
            self.compensation += (x - t) + self.sum;
        }
        self.sum = t;
    }

    /// The compensated total.
    #[inline]
    pub fn total(&self) -> f64 {
        self.sum + self.compensation
    }
}

impl Extend<f64> for NeumaierSum {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        for x in iter {
            self.add(x);
        }
    }
}

impl FromIterator<f64> for NeumaierSum {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        let mut s = NeumaierSum::new();
        s.extend(iter);
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn compensated(xs: &[f64]) -> f64 {
        xs.iter().copied().collect::<NeumaierSum>().total()
    }

    #[test]
    fn classic_kahan_killer() {
        // 1 + 1e100 + 1 - 1e100 = 2, but naive f64 gives 0.
        let naive: f64 = [1.0, 1e100, 1.0, -1e100].iter().sum();
        assert_eq!(naive, 0.0);
        assert_eq!(compensated(&[1.0, 1e100, 1.0, -1e100]), 2.0);
    }

    #[test]
    fn matches_exact_small_sums() {
        assert_eq!(compensated(&[0.25, 0.5, 0.125]), 0.875);
        assert_eq!(compensated(&[]), 0.0);
    }

    #[test]
    fn many_small_terms_do_not_drift() {
        // 1e7 copies of 0.1: exact value 1e6; naive sum drifts.
        let n = 10_000_000;
        let mut s = NeumaierSum::new();
        for _ in 0..n {
            s.add(0.1);
        }
        assert!((s.total() - 1e6).abs() < 1e-4);
    }

    #[test]
    fn extend_and_collect() {
        let s: NeumaierSum = vec![1.0, 2.0, 3.0].into_iter().collect();
        assert_eq!(s.total(), 6.0);
        let mut t = NeumaierSum::new();
        t.extend(vec![4.0, 5.0]);
        assert_eq!(t.total(), 9.0);
    }
}
