//! Probabilistic primality testing and prime search.
//!
//! This crate deliberately has no dependency on a random-number generator:
//! Miller–Rabin witnesses are derived deterministically (small primes plus a
//! xorshift stream seeded from the candidate), and callers supply random
//! *candidates* themselves (see `wideleak_crypto::rsa`). This keeps the
//! whole stack reproducible from a single seed.

use crate::montgomery::ModExpContext;
use crate::BigUint;

/// Small primes used for cheap trial division before Miller–Rabin.
const SMALL_PRIMES: [u64; 46] = [
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97,
    101, 103, 107, 109, 113, 127, 131, 137, 139, 149, 151, 157, 163, 167, 173, 179, 181, 191, 193,
    197, 199,
];

/// Starts at or above this take the sieve in [`next_prime_from`]: it is
/// above the largest small prime, so a zero residue proves a candidate
/// composite.
const SIEVE_FROM: u64 = 256;

/// Miller–Rabin rounds for a random `bits`-bit prime candidate: enough
/// that a composite passes with probability at most `2^-80`.
///
/// The counts are Table 4.4 of the Handbook of Applied Cryptography
/// (Menezes, van Oorschot and Vanstone, 1996), which gives that bound
/// for a randomly chosen odd `k`-bit integer: 27 rounds at 100 bits down
/// to 2 at 1300. A size between two rows takes the lower row's count,
/// so 384-bit primes (768-bit keys) get 8 rounds, 512-bit primes 6 and
/// 1024-bit primes (2048-bit keys) 3. Below the table's first row the
/// count is 40. The bound is for random candidates, as key generation
/// draws them; test a number from elsewhere through [`is_prime`] with a
/// count of the caller's choosing.
///
/// # Examples
///
/// ```
/// use wideleak_bigint::prime::miller_rabin_rounds;
///
/// assert_eq!(miller_rabin_rounds(384), 8);
/// assert_eq!(miller_rabin_rounds(1024), 3);
/// ```
pub fn miller_rabin_rounds(bits: usize) -> u32 {
    /// `(first bit length of the row, rounds)`, largest sizes first.
    const HAC_TABLE_4_4: [(usize, u32); 12] = [
        (1300, 2),
        (850, 3),
        (650, 4),
        (550, 5),
        (450, 6),
        (400, 7),
        (350, 8),
        (300, 9),
        (250, 12),
        (200, 15),
        (150, 18),
        (100, 27),
    ];
    HAC_TABLE_4_4.iter().find(|&&(from, _)| bits >= from).map_or(40, |&(_, rounds)| rounds)
}

/// Tests `n` for primality with trial division followed by `rounds` rounds
/// of Miller–Rabin with deterministically derived witnesses.
///
/// # Examples
///
/// ```
/// use wideleak_bigint::{prime::is_prime, BigUint};
///
/// assert!(is_prime(&BigUint::from_u64(104_729), 16)); // 10000th prime
/// assert!(!is_prime(&BigUint::from_u64(104_730), 16));
/// ```
pub fn is_prime(n: &BigUint, rounds: u32) -> bool {
    if n.is_zero() || n.is_one() {
        return false;
    }
    for &p in &SMALL_PRIMES {
        if n.div_rem_u64(p).1 == 0 {
            return n.to_u64() == Some(p);
        }
    }
    miller_rabin(n, rounds)
}

/// Runs `rounds` Miller–Rabin rounds on odd `n > 3`.
fn miller_rabin(n: &BigUint, rounds: u32) -> bool {
    debug_assert!(n.is_odd());
    let one = BigUint::one();
    let n_minus_1 = n - &one;
    let n_minus_2 = &n_minus_1 - &one;

    // n - 1 = d * 2^s with d odd.
    let mut s = 0usize;
    let mut d = n_minus_1.clone();
    while d.is_even() {
        d = &d >> 1;
        s += 1;
    }

    // One Montgomery context per candidate: every witness exponentiation
    // and squaring below shares the same odd modulus.
    let ctx = ModExpContext::new(n);
    let mut witness_stream = WitnessStream::new(n);
    'rounds: for _ in 0..rounds {
        let a = witness_stream.next_witness(&n_minus_2);
        let mut x = ctx.pow(&a, &d);
        if x.is_one() || x == n_minus_1 {
            continue;
        }
        for _ in 0..s - 1 {
            x = ctx.mul_mod(&x, &x);
            if x == n_minus_1 {
                continue 'rounds;
            }
        }
        return false;
    }
    true
}

/// Deterministic stream of Miller–Rabin witnesses: the small primes first,
/// then xorshift-derived values seeded from the candidate.
struct WitnessStream {
    index: usize,
    state: u64,
}

impl WitnessStream {
    fn new(n: &BigUint) -> Self {
        // Seed from the candidate so distinct candidates see distinct
        // witness tails; keep it non-zero for xorshift.
        let seed = n.low_u64() ^ (n.bit_len() as u64) | 1;
        WitnessStream { index: 0, state: seed }
    }

    /// Produces a witness in `[2, n-2]` (caller passes `n - 2` as `max`).
    fn next_witness(&mut self, max: &BigUint) -> BigUint {
        let two = BigUint::from_u64(2);
        if self.index < SMALL_PRIMES.len() {
            let w = BigUint::from_u64(SMALL_PRIMES[self.index]);
            self.index += 1;
            if &w <= max {
                return w;
            }
        }
        // xorshift64*
        self.state ^= self.state << 13;
        self.state ^= self.state >> 7;
        self.state ^= self.state << 17;
        let span = max.checked_sub(&two).unwrap_or_else(BigUint::zero);
        if span.is_zero() {
            return two;
        }
        &(&BigUint::from_u64(self.state) % &span) + &two
    }
}

/// Finds the smallest probable prime `>= candidate`, forcing oddness first:
/// the first odd number from there on that [`is_prime`] accepts with
/// `rounds` rounds.
///
/// Used by RSA key generation: the caller draws a random candidate of the
/// right bit length and this routine walks forward to a prime. From
/// 256 up the walk is sieved: the start's residues modulo the odd small
/// primes are computed once and stepped by 2 with the candidate, and
/// only a candidate with no zero residue is built and handed to
/// Miller–Rabin. Smaller starts walk [`is_prime`] itself.
///
/// # Panics
///
/// Panics if `candidate` is zero or one (no meaningful search start).
pub fn next_prime_from(candidate: &BigUint, rounds: u32) -> BigUint {
    assert!(!candidate.is_zero() && !candidate.is_one(), "prime search requires a candidate >= 2");
    let two = BigUint::from_u64(2);
    if *candidate == two {
        return two;
    }
    let mut n = candidate.clone();
    if n.is_even() {
        n = &n + &BigUint::one();
    }
    if *candidate < BigUint::from_u64(SIEVE_FROM) {
        while !is_prime(&n, rounds) {
            n = &n + &two;
        }
        return n;
    }
    let odd_primes = &SMALL_PRIMES[1..];
    let mut residues: Vec<u64> = odd_primes.iter().map(|&p| n.div_rem_u64(p).1).collect();
    let mut offset = 0u64;
    loop {
        if residues.iter().all(|&r| r != 0) {
            let c = &n + &BigUint::from_u64(offset);
            if miller_rabin(&c, rounds) {
                return c;
            }
        }
        for (r, &p) in residues.iter_mut().zip(odd_primes) {
            *r += 2;
            if *r >= p {
                *r -= p;
            }
        }
        offset += 2;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(v: u64) -> BigUint {
        BigUint::from_u64(v)
    }

    #[test]
    fn small_primes_recognized() {
        for p in [2u64, 3, 5, 7, 199, 211, 104_729] {
            assert!(is_prime(&n(p), 16), "{p} should be prime");
        }
    }

    #[test]
    fn small_composites_rejected() {
        for c in [0u64, 1, 4, 9, 15, 21, 100, 104_730, 1_000_000] {
            assert!(!is_prime(&n(c), 16), "{c} should be composite");
        }
    }

    #[test]
    fn carmichael_numbers_rejected() {
        // Carmichael numbers fool Fermat tests but not Miller–Rabin.
        for c in [561u64, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825_265] {
            assert!(!is_prime(&n(c), 16), "Carmichael {c} should be composite");
        }
    }

    #[test]
    fn known_large_primes() {
        // 2^61 - 1 is a Mersenne prime.
        assert!(is_prime(&n((1u64 << 61) - 1), 16));
        // 2^89 - 1 is a Mersenne prime.
        let m89 = &(&BigUint::one() << 89) - &BigUint::one();
        assert!(is_prime(&m89, 16));
        // 2^67 - 1 = 193707721 * 761838257287 (famously composite).
        let m67 = &(&BigUint::one() << 67) - &BigUint::one();
        assert!(!is_prime(&m67, 16));
    }

    #[test]
    fn semiprime_rejected() {
        // Product of two 32-bit primes.
        let p = n(4_294_967_291); // 2^32 - 5, prime
        let q = n(4_294_967_279); // prime
        assert!(!is_prime(&(&p * &q), 16));
    }

    #[test]
    fn next_prime_walks_forward() {
        assert_eq!(next_prime_from(&n(2), 16), n(2));
        assert_eq!(next_prime_from(&n(14), 16), n(17));
        assert_eq!(next_prime_from(&n(17), 16), n(17));
        assert_eq!(next_prime_from(&n(90), 16), n(97));
    }

    #[test]
    #[should_panic(expected = "candidate >= 2")]
    fn next_prime_rejects_zero() {
        next_prime_from(&BigUint::zero(), 16);
    }

    #[test]
    fn rounds_follow_the_handbook_table() {
        for (bits, rounds) in
            [(2, 40), (99, 40), (100, 27), (256, 12), (384, 8), (512, 6), (1024, 3), (2048, 2)]
        {
            assert_eq!(miller_rabin_rounds(bits), rounds, "{bits} bits");
        }
    }

    #[test]
    fn sieved_search_crosses_the_walk_threshold() {
        // 251 walks; 256 and 257 sieve (257 is prime; 263 is the next).
        assert_eq!(next_prime_from(&n(251), 8), n(251));
        assert_eq!(next_prime_from(&n(252), 8), n(257));
        assert_eq!(next_prime_from(&n(256), 8), n(257));
        assert_eq!(next_prime_from(&n(258), 8), n(263));
    }

    #[test]
    fn prime_density_sanity() {
        // Count primes below 1000: should be exactly 168.
        let count = (2u64..1000).filter(|&v| is_prime(&n(v), 8)).count();
        assert_eq!(count, 168);
    }
}
