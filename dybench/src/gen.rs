//! Seeded input generation shared by the workloads. Everything a workload
//! feeds the program is derived from `--seed` through these helpers.

use workloads::keygen::Feistel;
use workloads::mix64;

/// SplitMix64 stream; `stream` separates independent draws of one seed.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(mix64(seed ^ mix64(stream)))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = mix64(self.0);
        self.0
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Distinct keys in generation order: a seeded bijection of the 32-bit
/// space, skipping the reserved sentinels 0 and `u32::MAX`. Disjoint index
/// ranges therefore give disjoint key sets.
pub struct KeySpace {
    feistel: Feistel,
    next: u32,
}

impl KeySpace {
    pub fn new(seed: u64) -> Self {
        Self {
            feistel: Feistel::new(mix64(seed ^ 0x4B45_5953)),
            next: 0,
        }
    }

    pub fn next_key(&mut self) -> u32 {
        loop {
            let k = self.feistel.permute(self.next);
            self.next = self.next.checked_add(1).expect("key space exhausted");
            if k != 0 && k != u32::MAX {
                return k;
            }
        }
    }

    pub fn take(&mut self, n: usize) -> Vec<u32> {
        (0..n).map(|_| self.next_key()).collect()
    }
}

/// The value stored with `key` at generation step `salt`. 31 bits, so a
/// reply code above `i32::MAX` can never be a real value.
pub fn value_of(seed: u64, key: u32, salt: u64) -> u32 {
    (mix64(seed ^ ((key as u64) << 24) ^ salt) as u32) & 0x7FFF_FFFF
}

/// Open-loop arrival times: a Poisson process at `rate` per second, as
/// nanosecond offsets from the start of the phase.
pub struct Poisson {
    rng: Rng,
    mean_gap_ns: f64,
    t_ns: f64,
}

impl Poisson {
    pub fn new(seed: u64, stream: u64, rate_per_s: f64) -> Self {
        assert!(rate_per_s > 0.0, "arrival rate must be positive");
        Self {
            rng: Rng::new(seed, stream),
            mean_gap_ns: 1e9 / rate_per_s,
            t_ns: 0.0,
        }
    }

    /// Due time of the next arrival.
    pub fn next_due_ns(&mut self) -> u64 {
        self.t_ns += -(1.0 - self.rng.unit()).ln() * self.mean_gap_ns;
        self.t_ns as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schedule(seed: u64, n: usize) -> Vec<u64> {
        let mut p = Poisson::new(seed, 7, 250_000.0);
        (0..n).map(|_| p.next_due_ns()).collect()
    }

    #[test]
    fn poisson_schedule_is_deterministic_per_seed() {
        assert_eq!(schedule(1, 1000), schedule(1, 1000));
        assert_ne!(schedule(1, 1000), schedule(2, 1000));
        let s = schedule(3, 100_000);
        assert!(
            s.windows(2).all(|w| w[0] <= w[1]),
            "due times never go back"
        );
        // 100k arrivals at 250k/s span about 0.4 s.
        let span_s = *s.last().unwrap() as f64 / 1e9;
        assert!((0.39..0.41).contains(&span_s), "span {span_s}");
    }

    #[test]
    fn key_ranges_are_disjoint_and_valid() {
        let mut ks = KeySpace::new(5);
        let a = ks.take(10_000);
        let b = ks.take(10_000);
        let all: std::collections::HashSet<u32> = a.iter().chain(&b).copied().collect();
        assert_eq!(all.len(), 20_000);
        assert!(!all.contains(&0) && !all.contains(&u32::MAX));
        assert_eq!(KeySpace::new(5).take(100), a[..100]);
    }
}
