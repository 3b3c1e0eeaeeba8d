//! Shim for `rand_chacha`: provides the `ChaCha8Rng` name the workspace
//! seeds its deterministic generators with. The stream is produced by
//! xoshiro256** seeded through SplitMix64 — deterministic and statistically
//! solid, but not the real ChaCha cipher stream (nothing here is
//! cryptographic; the workspace only generates synthetic datasets).

#![forbid(unsafe_code)]

pub mod rand_core {
    //! Re-exports matching `rand_chacha::rand_core`.
    pub use rand::{RngCore, SeedableRng};
}

use rand::{RngCore, SeedableRng};

/// Deterministic seeded RNG under the name the workspace expects.
#[derive(Debug, Clone)]
pub struct ChaCha8Rng {
    state: [u64; 4],
}

/// Same generator under the stronger-variant name, for API parity.
pub type ChaCha20Rng = ChaCha8Rng;

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e3779b97f4a7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

impl SeedableRng for ChaCha8Rng {
    fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        ChaCha8Rng {
            state: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }
}

impl RngCore for ChaCha8Rng {
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    fn next_u64(&mut self) -> u64 {
        // xoshiro256** by Blackman & Vigna (public domain).
        let [s0, s1, s2, s3] = self.state;
        let result = s1.wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s1 << 17;
        let mut s = [s0, s1, s2, s3];
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        self.state = s;
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn same_seed_same_stream() {
        let mut a = ChaCha8Rng::seed_from_u64(99);
        let mut b = ChaCha8Rng::seed_from_u64(99);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = ChaCha8Rng::seed_from_u64(1);
        let mut b = ChaCha8Rng::seed_from_u64(2);
        let sa: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let sb: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_ne!(sa, sb);
    }

    #[test]
    fn works_with_rng_trait() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let x: u32 = rng.gen_range(0..10);
        assert!(x < 10);
        let _: f64 = rng.gen();
    }
}
