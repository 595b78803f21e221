//! The workspace's one seeded generator and the helpers that draw from it.
//!
//! Everything in the WideLeak simulator is reproducible from explicit
//! seeds: RSA key generation, content packaging, device identifiers.
//! [`Rng`] is xoshiro256++ seeded by SplitMix64. Every device key, and so
//! every report, depends on its exact stream; the tests below pin it.

use wideleak_bigint::BigUint;

/// xoshiro256++, the workspace's deterministic generator; see [`seeded_rng`].
#[derive(Debug)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// Returns 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Fills `dest` with one little-endian [`Rng::next_u64`] per 8 bytes; a
    /// partial tail takes the low bytes of one more draw.
    pub fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            chunk.copy_from_slice(&self.next_u64().to_le_bytes()[..chunk.len()]);
        }
    }
}

/// Creates the workspace's standard deterministic generator from a seed.
///
/// The four state words are the first four SplitMix64 outputs for
/// `seed`. SplitMix64's finalizer is a bijection and its four inputs
/// differ, so at most one word is zero: the all-zero state that xoshiro
/// must avoid is unreachable.
///
/// # Examples
///
/// ```
/// let mut a = wideleak_crypto::rng::seeded_rng(7);
/// let mut b = wideleak_crypto::rng::seeded_rng(7);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
pub fn seeded_rng(seed: u64) -> Rng {
    let mut x = seed;
    let s = std::array::from_fn(|_| {
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    });
    Rng { s }
}

/// Draws `len` random bytes.
pub fn random_bytes(rng: &mut Rng, len: usize) -> Vec<u8> {
    let mut buf = vec![0u8; len];
    rng.fill_bytes(&mut buf);
    buf
}

/// Draws a fixed-size random array.
pub fn random_array<const N: usize>(rng: &mut Rng) -> [u8; N] {
    let mut buf = [0u8; N];
    rng.fill_bytes(&mut buf);
    buf
}

/// Draws a random integer of exactly `bits` bits (top bit forced to 1).
///
/// # Panics
///
/// Panics if `bits` is zero.
pub fn random_biguint(rng: &mut Rng, bits: usize) -> BigUint {
    assert!(bits > 0, "cannot draw a zero-bit integer");
    let bytes = bits.div_ceil(8);
    let mut buf = random_bytes(rng, bytes);
    // Clear excess high bits, then force the top bit so the bit length is
    // exactly `bits`.
    let excess = bytes * 8 - bits;
    buf[0] &= 0xffu8 >> excess;
    buf[0] |= 0x80u8 >> excess;
    BigUint::from_bytes_be(&buf)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The first four words for two seeds, drawn before the generator moved here.
    const WORDS: [(u64, [u64; 4]); 2] = [
        (0, [0x53175d61490b23df, 0x61da6f3dc380d507, 0x5c0fdf91ec9a7bfc, 0x02eebf8c3bbe5e1a]),
        (2022, [0x5a5d2a43a32a2f59, 0xbd5a8fde036b913b, 0xcb4860c042545ebc, 0x822c552a8550444a]),
    ];

    #[test]
    fn stream_is_pinned() {
        for (seed, want) in WORDS {
            let mut rng = seeded_rng(seed);
            assert_eq!(want.map(|_| rng.next_u64()), want, "seed {seed}");
        }
        // 13 bytes: one whole word, then the low 5 bytes of the next.
        let mut buf = [0u8; 13];
        seeded_rng(7).fill_bytes(&mut buf);
        let want = [0x3d, 0x91, 0xae, 0x2a, 0x00, 0x1a, 0x2c, 0x0e, 0x14, 0x9e, 0x4e, 0xfa, 0xdd];
        assert_eq!(buf, want);
    }

    #[test]
    fn seeded_rng_is_deterministic() {
        let a = random_bytes(&mut seeded_rng(42), 32);
        let b = random_bytes(&mut seeded_rng(42), 32);
        assert_eq!(a, b);
        let c = random_bytes(&mut seeded_rng(43), 32);
        assert_ne!(a, c);
    }

    #[test]
    fn fill_bytes_covers_every_position() {
        let mut rng = seeded_rng(7);
        // With 33 bytes (a non-multiple of 8) the tail chunk is partial.
        let mut buf = [0u8; 33];
        rng.fill_bytes(&mut buf);
        // A 33-byte all-zero draw has probability 2^-264: treat as a bug.
        assert!(buf.iter().any(|&b| b != 0));
    }

    #[test]
    fn bit_balance_is_sane() {
        let mut rng = seeded_rng(99);
        let ones: u32 = (0..1000).map(|_| rng.next_u64().count_ones()).sum();
        // 64000 bits, expect ~32000 ones; allow a generous band.
        assert!((28000..36000).contains(&ones), "ones = {ones}");
    }

    #[test]
    fn random_biguint_has_exact_bit_length() {
        let mut rng = seeded_rng(1);
        for bits in [1usize, 7, 8, 9, 63, 64, 65, 512, 1024] {
            let n = random_biguint(&mut rng, bits);
            assert_eq!(n.bit_len(), bits, "requested {bits} bits");
        }
    }

    #[test]
    fn random_array_fills() {
        let mut rng = seeded_rng(5);
        let a: [u8; 16] = random_array(&mut rng);
        let b: [u8; 16] = random_array(&mut rng);
        assert_ne!(a, b, "subsequent draws differ");
    }

    #[test]
    #[should_panic(expected = "zero-bit")]
    fn zero_bits_panics() {
        random_biguint(&mut seeded_rng(0), 0);
    }
}
