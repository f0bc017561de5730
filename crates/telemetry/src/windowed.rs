//! Rolling-window metrics: a ring of epoch-stamped buckets.
//!
//! A lifetime-cumulative histogram answers "what has this server done
//! since boot" but not "what is p99 *right now*". [`Windowed`] holds a
//! ring of buckets, each covering one fixed time slice (the *bucket
//! width*), stamped with the epoch (`now / width`) it belongs to. A
//! recorder writes into the bucket for the current epoch; a reader folds
//! the last `n` epochs into one merged value. One 60-bucket ring of
//! 1-second buckets therefore answers 1 s / 10 s / 60 s windows from the
//! same storage.
//!
//! Three properties the serve stats (and their tests) rely on:
//!
//! * **Exact expiry, no double counting.** A bucket belongs to exactly
//!   one epoch. When the ring wraps onto a stale slot, the slot is reset
//!   before reuse; a fold only includes buckets whose stamped epoch lies
//!   inside the requested window. Old data can never leak into a fresh
//!   window, and one sample is never folded twice.
//! * **Bit-identical shard merge.** Like [`Log2Histogram`], windows
//!   merge bucket-wise by epoch: merging two shards' windows and then
//!   folding equals folding each shard and merging the folds, so
//!   per-worker windowed shards report exactly what one global window
//!   would have.
//! * **No wall-clock dependence.** Every operation takes the caller's
//!   `now_us`; the ring never reads a clock. Recorders pass
//!   [`trace_now_us`](crate::trace_now_us); tests pass synthetic time.
//!
//! The bucket payload is anything [`WindowMerge`]: histograms, plain
//! `u64` counters, or a caller-defined struct of both.
//!
//! [`Sharded`] puts a lifetime value and its window behind one lock per
//! writer, the shape both the serve stats and the stage profiler use.

use std::sync::{Mutex, MutexGuard};

use crate::log2hist::Log2Histogram;

/// A value that can live in a window bucket: has an empty state and
/// folds another instance into itself by plain accumulation (so folding
/// is associative and commutative — the merge-identity property above
/// depends on it).
pub trait WindowMerge: Default {
    /// Accumulates `other` into `self`.
    fn merge_from(&mut self, other: &Self);
}

impl WindowMerge for u64 {
    fn merge_from(&mut self, other: &Self) {
        *self += other;
    }
}

impl WindowMerge for Log2Histogram {
    fn merge_from(&mut self, other: &Self) {
        self.merge(other);
    }
}

/// One ring slot: the epoch it was last written for, and its payload.
/// `epoch == u64::MAX` marks a never-used slot.
#[derive(Debug, Clone)]
struct Slot<T> {
    epoch: u64,
    value: T,
}

const EMPTY_EPOCH: u64 = u64::MAX;

/// A rolling window of `T` buckets over fixed time slices.
///
/// # Example
///
/// ```
/// use flight_telemetry::{Windowed, WindowMerge};
///
/// // 60 one-second buckets of a request counter.
/// let mut qps: Windowed<u64> = Windowed::new(60, 1_000_000);
/// *qps.bucket_at(500_000) += 3; // epoch 0
/// *qps.bucket_at(1_200_000) += 2; // epoch 1
/// assert_eq!(qps.fold_last(1_200_000, 1), 2, "1s window: current epoch only");
/// assert_eq!(qps.fold_last(1_200_000, 10), 5, "10s window: both epochs");
/// ```
#[derive(Debug, Clone)]
pub struct Windowed<T> {
    bucket_micros: u64,
    slots: Vec<Slot<T>>,
}

impl<T: WindowMerge + Clone> Windowed<T> {
    /// A window of `buckets` slices, each `bucket_micros` wide. Both are
    /// clamped to at least 1.
    pub fn new(buckets: usize, bucket_micros: u64) -> Self {
        Windowed {
            bucket_micros: bucket_micros.max(1),
            slots: vec![
                Slot {
                    epoch: EMPTY_EPOCH,
                    value: T::default(),
                };
                buckets.max(1)
            ],
        }
    }

    /// Number of ring slots — the largest window `fold_last` can serve.
    pub fn buckets(&self) -> usize {
        self.slots.len()
    }

    /// Width of one bucket, microseconds.
    pub fn bucket_micros(&self) -> u64 {
        self.bucket_micros
    }

    fn epoch_of(&self, now_us: u64) -> u64 {
        now_us / self.bucket_micros
    }

    /// The bucket covering `now_us`, reset first if its slot last served
    /// an older (or, after a clock rewind, newer) epoch.
    pub fn bucket_at(&mut self, now_us: u64) -> &mut T {
        let epoch = self.epoch_of(now_us);
        let idx = (epoch % self.slots.len() as u64) as usize;
        let slot = &mut self.slots[idx];
        if slot.epoch != epoch {
            slot.value = T::default();
            slot.epoch = epoch;
        }
        &mut slot.value
    }

    /// Folds the last `window` epochs — the current one plus the
    /// `window − 1` before it, as of `now_us` — into one merged value.
    /// Buckets stamped outside that range (expired, or not yet written)
    /// contribute nothing. `window` is clamped to the ring size.
    pub fn fold_last(&self, now_us: u64, window: usize) -> T {
        let window = window.clamp(1, self.slots.len()) as u64;
        let now_epoch = self.epoch_of(now_us);
        let oldest = now_epoch.saturating_sub(window - 1);
        let mut folded = T::default();
        for slot in &self.slots {
            if slot.epoch != EMPTY_EPOCH && (oldest..=now_epoch).contains(&slot.epoch) {
                folded.merge_from(&slot.value);
            }
        }
        folded
    }

    /// Folds `other`'s live buckets into `self`, epoch-aligned: shards
    /// stamped from the same clock merge bucket-for-bucket, so a fold of
    /// the merge equals a merge of the folds. Buckets of `other` that
    /// are stale as of `now_us` are skipped; buckets whose epoch `self`
    /// has already passed beyond are skipped too (they could only
    /// resurrect expired data).
    pub fn merge_at(&mut self, other: &Self, now_us: u64) {
        debug_assert_eq!(self.bucket_micros, other.bucket_micros);
        debug_assert_eq!(self.slots.len(), other.slots.len());
        let now_epoch = self.epoch_of(now_us);
        let oldest = now_epoch.saturating_sub(self.slots.len() as u64 - 1);
        for slot in &other.slots {
            if slot.epoch == EMPTY_EPOCH || !(oldest..=now_epoch).contains(&slot.epoch) {
                continue;
            }
            let idx = (slot.epoch % self.slots.len() as u64) as usize;
            let mine = &mut self.slots[idx];
            if mine.epoch != slot.epoch {
                if mine.epoch != EMPTY_EPOCH && mine.epoch > slot.epoch {
                    continue; // my slot already holds a newer epoch
                }
                mine.value = T::default();
                mine.epoch = slot.epoch;
            }
            mine.value.merge_from(&slot.value);
        }
    }
}

/// One shard: a lifetime accumulator plus its rolling window.
#[derive(Debug)]
struct Shard<T> {
    lifetime: T,
    window: Windowed<T>,
}

/// A lifetime `T` plus a [`Windowed`] ring of it, split into shards
/// that each sit behind their own lock. Every writer records into its
/// own shard (a worker by its index), so the hot path never contends
/// except with the occasional snapshot; readers merge the shards, which
/// by the [`WindowMerge`] laws equals what one global recorder would
/// hold, for the lifetime value and for every window.
#[derive(Debug)]
pub struct Sharded<T> {
    buckets: usize,
    bucket_micros: u64,
    shards: Vec<Mutex<Shard<T>>>,
}

impl<T: WindowMerge + Clone> Sharded<T> {
    /// `shards` shards (clamped to at least 1), each windowed over
    /// `buckets` slices of `bucket_micros`.
    pub fn new(shards: usize, buckets: usize, bucket_micros: u64) -> Self {
        Sharded {
            buckets,
            bucket_micros,
            shards: (0..shards.max(1))
                .map(|_| {
                    Mutex::new(Shard {
                        lifetime: T::default(),
                        window: Windowed::new(buckets, bucket_micros),
                    })
                })
                .collect(),
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    fn lock(&self, shard: usize) -> MutexGuard<'_, Shard<T>> {
        self.shards[shard % self.shards.len()]
            .lock()
            .expect("shard lock poisoned")
    }

    /// Applies `record` to shard `shard`'s lifetime value and to its
    /// window bucket covering `now_us` (shard indices wrap).
    pub fn record_at(&self, shard: usize, now_us: u64, record: impl Fn(&mut T)) {
        let mut shard = self.lock(shard);
        record(&mut shard.lifetime);
        record(shard.window.bucket_at(now_us));
    }

    /// The lifetime values, merged across shards.
    pub fn merged(&self) -> T {
        let mut merged = T::default();
        for i in 0..self.shards.len() {
            merged.merge_from(&self.lock(i).lifetime);
        }
        merged
    }

    /// The last `window_buckets` buckets as of `now_us`, merged across
    /// shards.
    pub fn merged_window_at(&self, now_us: u64, window_buckets: usize) -> T {
        let mut merged: Windowed<T> = Windowed::new(self.buckets, self.bucket_micros);
        for i in 0..self.shards.len() {
            merged.merge_at(&self.lock(i).window, now_us);
        }
        merged.fold_last(now_us, window_buckets)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const S: u64 = 1_000_000; // one second of microseconds

    #[test]
    fn buckets_expire_exactly_at_the_window_boundary() {
        let mut w: Windowed<u64> = Windowed::new(10, S);
        // Record into epoch 0; inside the 10-epoch window it is visible.
        *w.bucket_at(0) += 7;
        assert_eq!(w.fold_last(9 * S, 10), 7, "epoch 0 is the 10th of 10");
        // One epoch later it ages out — exactly, not approximately.
        assert_eq!(w.fold_last(10 * S, 10), 0, "epoch 0 expired");
        // A shorter window expires sooner.
        *w.bucket_at(10 * S) += 1;
        assert_eq!(w.fold_last(10 * S, 1), 1);
        assert_eq!(w.fold_last(11 * S, 1), 0);
    }

    #[test]
    fn ring_reuse_resets_stale_slots_and_never_double_counts() {
        let mut w: Windowed<u64> = Windowed::new(4, S);
        *w.bucket_at(0) += 5; // epoch 0, slot 0
        *w.bucket_at(4 * S) += 2; // epoch 4 wraps onto slot 0: must reset
        assert_eq!(w.fold_last(4 * S, 4), 2, "epoch 0's 5 must not leak");
        // Recording twice into one epoch accumulates, not duplicates.
        *w.bucket_at(4 * S) += 3;
        assert_eq!(w.fold_last(4 * S, 4), 5);
        assert_eq!(w.fold_last(4 * S, 1), 5, "same bucket seen once per fold");
    }

    #[test]
    fn shard_merge_is_bit_identical_to_a_single_window() {
        let mut whole: Windowed<Log2Histogram> = Windowed::new(8, S);
        let mut a: Windowed<Log2Histogram> = Windowed::new(8, S);
        let mut b: Windowed<Log2Histogram> = Windowed::new(8, S);
        let samples: Vec<(u64, f64)> = (0..200)
            .map(|i| {
                (
                    (i % 6) * S + (i * 37) % S,
                    1e-3 * (1.11f64).powi((i % 29) as i32),
                )
            })
            .collect();
        for (i, &(ts, v)) in samples.iter().enumerate() {
            whole.bucket_at(ts).record(v);
            if i % 2 == 0 { &mut a } else { &mut b }
                .bucket_at(ts)
                .record(v);
        }
        let now = 5 * S + S / 2;
        let mut merged = a.clone();
        merged.merge_at(&b, now);
        for window in [1, 3, 8] {
            assert_eq!(
                merged.fold_last(now, window),
                whole.fold_last(now, window),
                "window {window}"
            );
        }
    }

    #[test]
    fn merge_skips_stale_shard_buckets() {
        let mut a: Windowed<u64> = Windowed::new(4, S);
        let mut b: Windowed<u64> = Windowed::new(4, S);
        *b.bucket_at(0) += 9; // epoch 0
        *a.bucket_at(6 * S) += 1; // epoch 6
        let now = 6 * S;
        a.merge_at(&b, now); // epoch 0 is out of the 4-epoch window at now
        assert_eq!(
            a.fold_last(now, 4),
            1,
            "stale shard bucket must not resurrect"
        );
    }

    #[test]
    fn sharded_records_lifetime_and_window_together() {
        let s: Sharded<u64> = Sharded::new(3, 4, S);
        s.record_at(0, 0, |v| *v += 2);
        s.record_at(4, S, |v| *v += 5); // index 4 wraps onto shard 1
        assert_eq!(s.shards(), 3);
        assert_eq!(s.merged(), 7);
        assert_eq!(s.merged_window_at(S, 1), 5);
        assert_eq!(s.merged_window_at(S, 4), 7);
        assert_eq!(s.merged_window_at(10 * S, 4), 0, "windows expire");
    }

    #[test]
    fn window_is_clamped_to_ring_size() {
        let mut w: Windowed<u64> = Windowed::new(3, S);
        *w.bucket_at(0) += 1;
        *w.bucket_at(S) += 1;
        *w.bucket_at(2 * S) += 1;
        assert_eq!(w.fold_last(2 * S, 100), 3, "window > ring folds the ring");
        assert_eq!(w.fold_last(2 * S, 0), 1, "window 0 clamps to 1");
    }
}
