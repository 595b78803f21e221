//! CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`).
//!
//! The Widevine keybox carries a CRC-32 over its first 124 bytes; the
//! memory-scanning attack in `wideleak-attack` validates scan candidates
//! against it, exactly as the paper's PoC does. The TCP transport's
//! frame trailer is the same CRC-32, so every 4 KiB sample crossing the
//! wire is checksummed four times per round trip.
//!
//! The checksum runs slice-by-16: sixteen 256-entry tables, derived from
//! the polynomial on first use, fold 16 input bytes into the register per
//! step, and the classic byte-at-a-time loop takes the tail. The output
//! is the byte loop's, bit for bit; a property test holds the two
//! together.

use std::sync::OnceLock;

/// Input bytes folded per step, and the number of tables.
const SLICES: usize = 16;

/// `t[0][b]` is the register contribution of byte `b`, as in the byte
/// loop. `t[k][b]` is that contribution pushed through `k` more zero
/// bytes, i.e. the contribution of a byte that has `k` bytes after it
/// in the current 16-byte step.
fn tables() -> &'static [[u32; 256]; SLICES] {
    static TABLES: OnceLock<[[u32; 256]; SLICES]> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut t = [[0u32; 256]; SLICES];
        for (i, entry) in t[0].iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 { 0xedb8_8320 ^ (c >> 1) } else { c >> 1 };
            }
            *entry = c;
        }
        for k in 1..SLICES {
            for i in 0..256 {
                let prev = t[k - 1][i];
                t[k][i] = (prev >> 8) ^ t[0][(prev & 0xff) as usize];
            }
        }
        t
    })
}

/// Advances the (pre-inverted) CRC register `state` over `data`.
fn update(mut state: u32, data: &[u8]) -> u32 {
    let t = tables();
    let mut steps = data.chunks_exact(SLICES);
    for step in &mut steps {
        let mut x: [u8; SLICES] = step.try_into().expect("chunks_exact yields SLICES bytes");
        for (b, s) in x.iter_mut().zip(state.to_le_bytes()) {
            *b ^= s;
        }
        state = x.iter().enumerate().fold(0, |acc, (i, &b)| acc ^ t[SLICES - 1 - i][b as usize]);
    }
    for &b in steps.remainder() {
        state = t[0][((state ^ b as u32) & 0xff) as usize] ^ (state >> 8);
    }
    state
}

/// Computes the CRC-32 of `data`.
///
/// # Examples
///
/// ```
/// use wideleak_crypto::crc32::crc32;
///
/// assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
/// ```
pub fn crc32(data: &[u8]) -> u32 {
    update(0xffff_ffff, data) ^ 0xffff_ffff
}

/// An incremental CRC-32 state for streaming input.
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    /// Creates a fresh CRC state.
    pub fn new() -> Self {
        Crc32 { state: 0xffff_ffff }
    }

    /// Absorbs more input.
    pub fn update(&mut self, data: &[u8]) {
        self.state = update(self.state, data);
    }

    /// Returns the final checksum.
    pub fn finalize(self) -> u32 {
        self.state ^ 0xffff_ffff
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The byte-at-a-time CRC-32: one lookup in table 0 per input byte.
    /// The slice-by-16 loop must agree with it on every input.
    mod oracle {
        pub fn crc32(data: &[u8]) -> u32 {
            let t = &super::super::tables()[0];
            let mut c = 0xffff_ffffu32;
            for &b in data {
                c = t[((c ^ b as u32) & 0xff) as usize] ^ (c >> 8);
            }
            c ^ 0xffff_ffff
        }
    }

    proptest! {
        #[test]
        fn slices_match_the_byte_wise_oracle(
            data in proptest::collection::vec(any::<u8>(), 0..=4200),
            split in 0usize..=4200,
        ) {
            let expected = oracle::crc32(&data);
            prop_assert_eq!(crc32(&data), expected);
            let split = split.min(data.len());
            let mut c = Crc32::new();
            c.update(&data[..split]);
            c.update(&data[split..]);
            prop_assert_eq!(c.finalize(), expected);
        }
    }

    #[test]
    fn check_value() {
        // The canonical CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn empty_input() {
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn known_values() {
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_eq!(crc32(b"abc"), 0x3524_41C2);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    #[test]
    fn known_values_at_frame_size() {
        // A 4 KiB sample frame's worth of bytes: whole 16-byte steps, then
        // the same pattern with a 3-byte tail. Values from the byte loop;
        // Python's `zlib.crc32` agrees.
        let pattern = |n: usize| -> Vec<u8> { (0..n).map(|i| (i * 131 % 251) as u8).collect() };
        assert_eq!(crc32(&pattern(4096)), 0x06C2_8D04);
        assert_eq!(crc32(&pattern(4099)), 0xD638_A8D3);
        assert_eq!(crc32(&[0u8; 4096]), 0xC71C_0011);
    }

    #[test]
    fn incremental_equals_one_shot() {
        let data: Vec<u8> = (0..300).map(|i| (i * 3 % 256) as u8).collect();
        let mut c = Crc32::new();
        for chunk in data.chunks(11) {
            c.update(chunk);
        }
        assert_eq!(c.finalize(), crc32(&data));
    }

    #[test]
    fn single_bit_flip_changes_checksum() {
        let mut data = vec![0u8; 64];
        let base = crc32(&data);
        data[40] ^= 0x01;
        assert_ne!(crc32(&data), base);
    }
}
