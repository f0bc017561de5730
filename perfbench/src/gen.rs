//! Seeded input generation. Everything a run sends — the open-loop
//! schedule, every image, every swap seed — is a pure function of the
//! `--seed` argument, so the same seed replays the same inputs and the
//! program under test only ever sees generated requests.

/// Input streams; each purpose draws from its own keyed generator so
/// adding draws to one never shifts another.
#[derive(Debug, Clone, Copy)]
pub enum Stream {
    /// Request images, keyed by request (see [`request_key`]).
    Image = 1,
    /// The open-loop arrival schedule.
    Schedule = 2,
    /// Seeds of hot-swapped models.
    Swap = 3,
    /// Warm-up and set-up images.
    Warmup = 4,
    /// The engine workloads' image pool.
    Engine = 5,
}

/// SplitMix64: tiny, fast, and fully specified, so the streams do not
/// depend on any crate's generator.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(state: u64) -> Self {
        SplitMix64(state)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The generator for one `(seed, stream, key)` triple.
pub fn stream(seed: u64, purpose: Stream, key: u64) -> SplitMix64 {
    let mut mix = SplitMix64::new(seed ^ (purpose as u64).wrapping_mul(0xD6E8_FEB8_6659_FD93));
    let base = mix.next_u64();
    SplitMix64::new(base ^ key.wrapping_mul(0xA076_1D64_78BD_642F))
}

/// A flattened image of `len` floats, uniform in `[-1, 1)`.
pub fn image(seed: u64, purpose: Stream, key: u64, len: usize) -> Vec<f32> {
    let mut rng = stream(seed, purpose, key);
    (0..len)
        .map(|_| (rng.next_f64() * 2.0 - 1.0) as f32)
        .collect()
}

/// The key of closed-loop request `index` on connection `conn`; open-loop
/// requests are keyed by their index in the schedule.
pub fn request_key(conn: usize, index: u64) -> u64 {
    ((conn as u64) << 40) | index
}

/// Open-loop arrival offsets, seconds from the start of the run: a
/// Poisson process of `rate` per second conditioned on exactly `count`
/// arrivals in `[0, count / rate)`, i.e. `count` sorted uniform draws.
/// Fixing the count keeps every run the same size and length.
pub fn poisson_schedule(seed: u64, rate: f64, count: usize) -> Vec<f64> {
    let span = count as f64 / rate;
    let mut rng = stream(seed, Stream::Schedule, 0);
    let mut due: Vec<f64> = (0..count).map(|_| rng.next_f64() * span).collect();
    due.sort_by(f64::total_cmp);
    due
}

/// The weight seed of the `k`-th hot swap. Kept below 2^32 so it
/// survives the protocol's JSON numbers exactly, and never 0 (the boot
/// model's seed).
pub fn swap_seed(seed: u64, k: u64) -> u64 {
    1 + (stream(seed, Stream::Swap, k).next_u64() >> 33)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_deterministic_per_seed_and_differs_across_seeds() {
        let a = poisson_schedule(7, 8.0, 200);
        assert_eq!(a, poisson_schedule(7, 8.0, 200));
        assert_ne!(a, poisson_schedule(8, 8.0, 200));
        assert_eq!(a.len(), 200);
        assert!(a.windows(2).all(|w| w[0] <= w[1]), "sorted");
        assert!(
            a.iter().all(|&t| (0.0..25.0).contains(&t)),
            "inside 200/8 s"
        );
    }

    #[test]
    fn schedule_rate_is_close_to_the_requested_rate() {
        // Mean gap of a conditioned Poisson process is span / (count + 1).
        let due = poisson_schedule(3, 8.0, 4000);
        let mean_gap = (due[due.len() - 1] - due[0]) / (due.len() - 1) as f64;
        assert!((mean_gap - 0.125).abs() < 0.01, "mean gap {mean_gap}");
    }

    #[test]
    fn images_and_swap_seeds_are_seeded_and_in_range() {
        let a = image(1, Stream::Image, request_key(1, 5), 768);
        assert_eq!(a, image(1, Stream::Image, request_key(1, 5), 768));
        assert_ne!(a, image(1, Stream::Image, request_key(0, 5), 768));
        assert_ne!(a, image(2, Stream::Image, request_key(1, 5), 768));
        assert!(a.iter().all(|v| (-1.0..1.0).contains(v)));
        let s = swap_seed(9, 0);
        assert_eq!(s, swap_seed(9, 0));
        assert_ne!(s, swap_seed(9, 1));
        assert_ne!(s, swap_seed(10, 0));
        assert!((1..=1 << 31).contains(&s));
    }
}
