//! YCSB's scrambled zipfian key chooser (constant 0.99).
//!
//! Ranks follow Gray et al.'s zipfian generator; each rank is then
//! hashed over the key space, as YCSB's `ScrambledZipfianGenerator` does,
//! so the hot keys spread over shards and tree leaves instead of
//! clustering at the low end of the key order.

use crate::rng::Rng;

/// The YCSB zipfian constant.
pub const THETA: f64 = 0.99;

/// A zipfian chooser over `0..n`.
#[derive(Debug, Clone)]
pub struct Zipf {
    n: u64,
    alpha: f64,
    zetan: f64,
    eta: f64,
    half_pow_theta: f64,
}

impl Zipf {
    /// Precomputes the constants for `n` items (`O(n)` once).
    pub fn new(n: u64) -> Self {
        assert!(n >= 2, "zipf needs at least two items");
        let zeta = |k: u64| (1..=k).map(|i| 1.0 / (i as f64).powf(THETA)).sum::<f64>();
        let zetan = zeta(n);
        let zeta2 = zeta(2);
        Zipf {
            n,
            alpha: 1.0 / (1.0 - THETA),
            zetan,
            eta: (1.0 - (2.0 / n as f64).powf(1.0 - THETA)) / (1.0 - zeta2 / zetan),
            half_pow_theta: 0.5f64.powf(THETA),
        }
    }

    /// A zipfian rank in `0..n` (0 is the hottest).
    pub fn rank(&self, rng: &mut Rng) -> u64 {
        let u = rng.unit();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + self.half_pow_theta {
            return 1;
        }
        let r = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        r.min(self.n - 1)
    }

    /// A zipfian key index in `0..n`, the rank scrambled over the space.
    pub fn next(&self, rng: &mut Rng) -> u64 {
        fnv64(self.rank(rng)) % self.n
    }
}

/// FNV-1a over the rank's eight bytes (YCSB's scramble hash).
fn fnv64(x: u64) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for b in x.to_le_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranks_stay_in_range_and_skew_to_the_head() {
        let z = Zipf::new(1000);
        let mut rng = Rng::new(7, 0);
        let mut head = 0;
        for _ in 0..10_000 {
            let r = z.rank(&mut rng);
            assert!(r < 1000);
            if r < 10 {
                head += 1;
            }
            assert!(z.next(&mut rng) < 1000);
        }
        // The top 1 % of ranks draws far more than 1 % of the picks.
        assert!(head > 2_000, "head share {head}");
    }
}
