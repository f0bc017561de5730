//! The arithmetic behind every reported number: percentiles that are
//! withheld when too few samples back them, the batcher ratios, and the
//! signed remainders of the latency ledger.

use std::collections::BTreeMap;

/// A percentile is reported only when at least this many samples lie
/// beyond it; otherwise it is withheld rather than guessed.
pub const MIN_BEYOND: usize = 10;

/// Samples of one quantity, sorted once.
#[derive(Debug, Clone, Default)]
pub struct Dist {
    sorted: Vec<f64>,
}

impl Dist {
    pub fn new(mut samples: Vec<f64>) -> Dist {
        samples.sort_by(f64::total_cmp);
        Dist { sorted: samples }
    }

    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Nearest-rank percentile at `permille`/1000, or `None` when fewer
    /// than [`MIN_BEYOND`] samples rank above it.
    pub fn percentile(&self, permille: usize) -> Option<f64> {
        let n = self.sorted.len();
        let rank = (permille * n).div_ceil(1000).max(1);
        if rank > n || n - rank < MIN_BEYOND {
            return None;
        }
        Some(self.sorted[rank - 1])
    }

    /// Arithmetic mean (`None` when empty).
    pub fn mean(&self) -> Option<f64> {
        (!self.sorted.is_empty()).then(|| self.sorted.iter().sum::<f64>() / self.len() as f64)
    }
}

/// Width of one AVX2 lane block: only images in full blocks of this
/// many engage the lane kernels.
pub const LANE_BLOCK: usize = 8;

/// Served batch sizes, tallied from the `batch` field of every timed
/// reply. A batch of `k` members shows up as `k` replies that each say
/// `k`, so batches are counted as `replies / k`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BatchLedger {
    replies_by_size: BTreeMap<usize, u64>,
}

impl BatchLedger {
    pub fn record(&mut self, batch: usize) {
        *self.replies_by_size.entry(batch.max(1)).or_default() += 1;
    }

    /// Images served (one per reply).
    pub fn images(&self) -> u64 {
        self.replies_by_size.values().sum()
    }

    /// Batches executed. Fractional only when a batch straddles the
    /// edge of the timed window.
    pub fn batches(&self) -> f64 {
        self.replies_by_size
            .iter()
            .map(|(&k, &n)| n as f64 / k as f64)
            .sum()
    }

    pub fn mean_batch(&self) -> f64 {
        ratio(self.images() as f64, self.batches())
    }

    /// Batches with two or more members over all batches: the share of
    /// batch-forming waits that found company.
    pub fn coalesced_frac(&self) -> f64 {
        let coalesced: f64 = self
            .replies_by_size
            .iter()
            .filter(|(&k, _)| k >= 2)
            .map(|(&k, &n)| n as f64 / k as f64)
            .sum();
        ratio(coalesced, self.batches())
    }

    /// Images that fall in full [`LANE_BLOCK`]-image blocks of their
    /// batch, over all images.
    pub fn lane_eligible_frac(&self) -> f64 {
        let eligible: f64 = self
            .replies_by_size
            .iter()
            .map(|(&k, &n)| n as f64 * (LANE_BLOCK * (k / LANE_BLOCK)) as f64 / k as f64)
            .sum();
        ratio(eligible, self.images() as f64)
    }
}

/// `num / den`, and 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// What a total leaves unexplained by its measured parts. Signed and
/// unclamped: a negative remainder means the parts overlap or were
/// timed on different clocks, and is reported as such.
pub fn unattributed(total: f64, parts: &[f64]) -> f64 {
    total - parts.iter().sum::<f64>()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_withheld_below_ten_samples_beyond() {
        let d = Dist::new((1..=200).map(f64::from).collect());
        assert_eq!(d.percentile(500), Some(100.0));
        assert_eq!(d.percentile(950), Some(190.0), "exactly 10 beyond");
        assert_eq!(d.percentile(990), None, "2 beyond");
        let d = Dist::new((1..=199).map(f64::from).collect());
        assert_eq!(d.percentile(950), None, "9 beyond");
        let d = Dist::new((1..=21).rev().map(f64::from).collect());
        assert_eq!(d.percentile(500), Some(11.0), "sorted, 10 beyond");
        assert_eq!(
            Dist::new((1..=20).map(f64::from).collect()).percentile(500),
            Some(10.0)
        );
        assert_eq!(
            Dist::new((1..=19).map(f64::from).collect()).percentile(500),
            None,
            "9 beyond"
        );
        assert_eq!(Dist::default().percentile(500), None);
        assert_eq!(Dist::default().mean(), None);
    }

    #[test]
    fn batch_ratios_count_batches_not_replies() {
        let mut b = BatchLedger::default();
        // Three solo batches, two pairs (4 replies), one full 8-batch,
        // one 10-batch (8 lane images + 2 remnant).
        for k in [1, 1, 1, 2, 2, 2, 2] {
            b.record(k);
        }
        (0..8).for_each(|_| b.record(8));
        (0..10).for_each(|_| b.record(10));
        assert_eq!(b.images(), 25);
        assert!((b.batches() - 7.0).abs() < 1e-12);
        assert!((b.mean_batch() - 25.0 / 7.0).abs() < 1e-12);
        assert!((b.coalesced_frac() - 4.0 / 7.0).abs() < 1e-12);
        assert!((b.lane_eligible_frac() - 16.0 / 25.0).abs() < 1e-12);
        let mut solo = BatchLedger::default();
        (0..5).for_each(|_| solo.record(1));
        assert_eq!(solo.coalesced_frac(), 0.0);
        assert_eq!(solo.lane_eligible_frac(), 0.0);
        assert_eq!(BatchLedger::default().mean_batch(), 0.0);
    }

    #[test]
    fn unattributed_is_signed_and_unclamped() {
        assert_eq!(unattributed(100.0, &[20.0, 30.0, 40.0]), 10.0);
        assert_eq!(unattributed(80.0, &[20.0, 30.0, 40.0]), -10.0);
        assert_eq!(unattributed(5.0, &[]), 5.0);
    }
}
