//! AES-128 block cipher (FIPS 197), table-driven.
//!
//! The S-box, inverse S-box and round constants are computed at first use
//! from the GF(2⁸) field definition rather than transcribed as literal
//! tables, and so are the eight 32-bit round tables derived from them; the
//! FIPS-197 test vectors in this module pin the result.
//!
//! A round works on the state as four big-endian column words. Each output
//! column is four lookups, one per row, into `Te0..Te3`: every entry holds
//! SubBytes followed by that row's MixColumns multiples, and the row each
//! lookup reads from applies ShiftRows. Decryption runs the *equivalent
//! inverse cipher* of FIPS-197 §5.3.5: the same round shape over
//! `Td0..Td3`, with InvMixColumns folded into round keys 1–9 once, in
//! [`Aes128::new`].
//!
//! The lookups are indexed by secret state bytes, so the core is not
//! constant-time; neither was the byte-wise S-box core it replaced.
//! Constant-time (bitsliced or fixsliced) AES is out of scope: the paper's
//! attack recovers keys from process memory, not from cache timing.

use std::sync::OnceLock;

/// AES block size in bytes.
pub const BLOCK_LEN: usize = 16;

/// AES-128 key size in bytes.
pub const KEY_LEN: usize = 16;

const ROUNDS: usize = 10;

/// Round-key words, one per state column.
type RoundKey = [u32; 4];

/// ShiftRows for [`round`]: row `r` of output column `c` is read from
/// input column `(c + r * step) % 4`.
const FORWARD: usize = 1;
/// InvShiftRows: row `r` moves right by `r`, the same as left by `3r`.
const INVERSE: usize = 3;

struct Tables {
    sbox: [u8; 256],
    inv_sbox: [u8; 256],
    /// `te[r][x]`: the column word that row `r`'s byte `x` adds to its
    /// output column after SubBytes and MixColumns.
    te: [[u32; 256]; 4],
    /// `td[r][x]`: the same for InvSubBytes and InvMixColumns.
    td: [[u32; 256]; 4],
}

/// Multiplication in GF(2^8) with the AES reduction polynomial x^8+x^4+x^3+x+1.
fn gf_mul(mut a: u8, mut b: u8) -> u8 {
    let mut p = 0u8;
    for _ in 0..8 {
        if b & 1 != 0 {
            p ^= a;
        }
        let hi = a & 0x80;
        a <<= 1;
        if hi != 0 {
            a ^= 0x1b;
        }
        b >>= 1;
    }
    p
}

/// Multiplicative inverse in GF(2^8) via a^254 (Fermat in the field group).
fn gf_inv(a: u8) -> u8 {
    if a == 0 {
        return 0;
    }
    // a^254 by square-and-multiply.
    let mut result = 1u8;
    let mut base = a;
    let mut exp = 254u8;
    while exp > 0 {
        if exp & 1 != 0 {
            result = gf_mul(result, base);
        }
        base = gf_mul(base, base);
        exp >>= 1;
    }
    result
}

fn tables() -> &'static Tables {
    static TABLES: OnceLock<Tables> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut sbox = [0u8; 256];
        let mut inv_sbox = [0u8; 256];
        for (i, entry) in sbox.iter_mut().enumerate() {
            let x = gf_inv(i as u8);
            // Affine transform: b ^= rotl(b,1..4) ^ 0x63.
            let mut y = x;
            for r in 1..5 {
                y ^= x.rotate_left(r);
            }
            y ^= 0x63;
            *entry = y;
            inv_sbox[y as usize] = i as u8;
        }
        let mut te = [[0u32; 256]; 4];
        let mut td = [[0u32; 256]; 4];
        for x in 0..256 {
            // Row 0's multiples down the column; row r's are rotated by r.
            let s = sbox[x];
            let te0 = u32::from_be_bytes([gf_mul(s, 2), s, s, gf_mul(s, 3)]);
            let i = inv_sbox[x];
            let td0 =
                u32::from_be_bytes([gf_mul(i, 14), gf_mul(i, 9), gf_mul(i, 13), gf_mul(i, 11)]);
            for r in 0..4 {
                te[r][x] = te0.rotate_right(8 * r as u32);
                td[r][x] = td0.rotate_right(8 * r as u32);
            }
        }
        Tables { sbox, inv_sbox, te, td }
    })
}

/// An expanded AES-128 key schedule ready for block operations.
///
/// # Examples
///
/// ```
/// use wideleak_crypto::aes::Aes128;
///
/// let cipher = Aes128::new(&[0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6,
///                            0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c]);
/// let mut block = *b"theblockis16byte";
/// let original = block;
/// cipher.encrypt_block(&mut block);
/// cipher.decrypt_block(&mut block);
/// assert_eq!(block, original);
/// ```
#[derive(Clone)]
pub struct Aes128 {
    /// The FIPS-197 key expansion, 44 words.
    enc: [RoundKey; ROUNDS + 1],
    /// The equivalent inverse cipher's schedule: `enc` in reverse order,
    /// with InvMixColumns applied to every round key but the two ends.
    dec: [RoundKey; ROUNDS + 1],
}

impl std::fmt::Debug for Aes128 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never leak key schedule material through Debug.
        f.write_str("Aes128(<key schedule redacted>)")
    }
}

impl Aes128 {
    /// Expands a 16-byte key into the encryption and decryption schedules.
    pub fn new(key: &[u8; KEY_LEN]) -> Self {
        let t = tables();
        let mut w = [0u32; 4 * (ROUNDS + 1)];
        for (word, bytes) in w.iter_mut().zip(key.chunks_exact(4)) {
            *word = u32::from_be_bytes(bytes.try_into().expect("key word is 4 bytes"));
        }
        let mut rcon = 1u8;
        for i in 4..w.len() {
            let mut temp = w[i - 1];
            if i % 4 == 0 {
                // RotWord, SubWord, then Rcon into the first byte.
                let rotated = temp.rotate_left(8).to_be_bytes();
                temp = u32::from_be_bytes(rotated.map(|b| t.sbox[b as usize]))
                    ^ (u32::from(rcon) << 24);
                rcon = gf_mul(rcon, 2);
            }
            w[i] = w[i - 4] ^ temp;
        }
        let enc: [RoundKey; ROUNDS + 1] =
            std::array::from_fn(|r| w[4 * r..4 * r + 4].try_into().expect("round key is 4 words"));
        let dec = std::array::from_fn(|r| {
            let k = enc[ROUNDS - r];
            if r == 0 || r == ROUNDS {
                k
            } else {
                k.map(|word| inv_mix_column(t, word))
            }
        });
        Aes128 { enc, dec }
    }

    /// Encrypts one 16-byte block in place.
    pub fn encrypt_block(&self, block: &mut [u8; BLOCK_LEN]) {
        let t = tables();
        let mut s = load(block, &self.enc[0]);
        for k in &self.enc[1..ROUNDS] {
            s = round(&t.te, &s, k, FORWARD);
        }
        store(block, final_round(&t.sbox, &s, &self.enc[ROUNDS], FORWARD));
    }

    /// Decrypts one 16-byte block in place.
    pub fn decrypt_block(&self, block: &mut [u8; BLOCK_LEN]) {
        let t = tables();
        let mut s = load(block, &self.dec[0]);
        for k in &self.dec[1..ROUNDS] {
            s = round(&t.td, &s, k, INVERSE);
        }
        store(block, final_round(&t.inv_sbox, &s, &self.dec[ROUNDS], INVERSE));
    }
}

/// InvMixColumns of one column word. `td` entries hold InvMixColumns of
/// `InvS[x]`, so indexing them with `S[x]` leaves InvMixColumns of `x`.
fn inv_mix_column(t: &Tables, word: u32) -> u32 {
    let b = word.to_be_bytes();
    (0..4).fold(0, |acc, r| acc ^ t.td[r][t.sbox[b[r] as usize] as usize])
}

/// The block as column words, XORed with the first round key.
fn load(block: &[u8; BLOCK_LEN], k: &RoundKey) -> [u32; 4] {
    std::array::from_fn(|c| {
        u32::from_be_bytes([block[4 * c], block[4 * c + 1], block[4 * c + 2], block[4 * c + 3]])
            ^ k[c]
    })
}

fn store(block: &mut [u8; BLOCK_LEN], s: [u32; 4]) {
    for (bytes, word) in block.chunks_exact_mut(4).zip(s) {
        bytes.copy_from_slice(&word.to_be_bytes());
    }
}

/// Byte `r` (row `r`) of the column that ShiftRows moves into column `c`.
fn shifted(s: &[u32; 4], c: usize, r: usize, step: usize) -> usize {
    s[(c + r * step) % 4].to_be_bytes()[r] as usize
}

/// One full round: (Inv)SubBytes, (Inv)ShiftRows, (Inv)MixColumns and
/// AddRoundKey.
fn round(t: &[[u32; 256]; 4], s: &[u32; 4], k: &RoundKey, step: usize) -> [u32; 4] {
    std::array::from_fn(|c| {
        t[0][shifted(s, c, 0, step)]
            ^ t[1][shifted(s, c, 1, step)]
            ^ t[2][shifted(s, c, 2, step)]
            ^ t[3][shifted(s, c, 3, step)]
            ^ k[c]
    })
}

/// The last round, which has no (Inv)MixColumns.
fn final_round(sbox: &[u8; 256], s: &[u32; 4], k: &RoundKey, step: usize) -> [u32; 4] {
    let mut out = *k;
    for (c, word) in out.iter_mut().enumerate() {
        for r in 0..4 {
            *word ^= u32::from(sbox[shifted(s, c, r, step)]) << (24 - 8 * r);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The byte-wise cipher as FIPS-197 §5.1–5.3 write it: its own key
    /// expansion over bytes, and one transformation per step with
    /// `gf_mul` inside (Inv)MixColumns. The table-driven core must agree
    /// with it on every key and block.
    mod oracle {
        use super::super::{gf_mul, tables, ROUNDS};

        pub fn expand(key: &[u8; 16]) -> [[u8; 16]; ROUNDS + 1] {
            let t = tables();
            let mut w = [[0u8; 4]; 4 * (ROUNDS + 1)];
            for i in 0..4 {
                w[i].copy_from_slice(&key[i * 4..i * 4 + 4]);
            }
            let mut rcon = 1u8;
            for i in 4..w.len() {
                let mut temp = w[i - 1];
                if i % 4 == 0 {
                    temp.rotate_left(1);
                    for b in temp.iter_mut() {
                        *b = t.sbox[*b as usize];
                    }
                    temp[0] ^= rcon;
                    rcon = gf_mul(rcon, 2);
                }
                for j in 0..4 {
                    w[i][j] = w[i - 4][j] ^ temp[j];
                }
            }
            let mut round_keys = [[0u8; 16]; ROUNDS + 1];
            for r in 0..=ROUNDS {
                for c in 0..4 {
                    round_keys[r][c * 4..c * 4 + 4].copy_from_slice(&w[r * 4 + c]);
                }
            }
            round_keys
        }

        pub fn encrypt(key: &[u8; 16], block: &mut [u8; 16]) {
            let t = tables();
            let round_keys = expand(key);
            add_round_key(block, &round_keys[0]);
            for k in &round_keys[1..ROUNDS] {
                sub_bytes(block, &t.sbox);
                shift_rows(block);
                mix_columns(block);
                add_round_key(block, k);
            }
            sub_bytes(block, &t.sbox);
            shift_rows(block);
            add_round_key(block, &round_keys[ROUNDS]);
        }

        pub fn decrypt(key: &[u8; 16], block: &mut [u8; 16]) {
            let t = tables();
            let round_keys = expand(key);
            add_round_key(block, &round_keys[ROUNDS]);
            inv_shift_rows(block);
            sub_bytes(block, &t.inv_sbox);
            for k in round_keys[1..ROUNDS].iter().rev() {
                add_round_key(block, k);
                inv_mix_columns(block);
                inv_shift_rows(block);
                sub_bytes(block, &t.inv_sbox);
            }
            add_round_key(block, &round_keys[0]);
        }

        fn add_round_key(state: &mut [u8; 16], rk: &[u8; 16]) {
            for (s, k) in state.iter_mut().zip(rk) {
                *s ^= k;
            }
        }

        fn sub_bytes(state: &mut [u8; 16], sbox: &[u8; 256]) {
            for b in state.iter_mut() {
                *b = sbox[*b as usize];
            }
        }

        /// The AES state is column-major: byte `state[c*4 + r]` is row `r`, col `c`.
        fn shift_rows(state: &mut [u8; 16]) {
            let s = *state;
            for r in 1..4 {
                for c in 0..4 {
                    state[c * 4 + r] = s[((c + r) % 4) * 4 + r];
                }
            }
        }

        fn inv_shift_rows(state: &mut [u8; 16]) {
            let s = *state;
            for r in 1..4 {
                for c in 0..4 {
                    state[((c + r) % 4) * 4 + r] = s[c * 4 + r];
                }
            }
        }

        fn mix_columns(state: &mut [u8; 16]) {
            for c in 0..4 {
                let col: [u8; 4] = state[c * 4..c * 4 + 4].try_into().unwrap();
                state[c * 4] = gf_mul(col[0], 2) ^ gf_mul(col[1], 3) ^ col[2] ^ col[3];
                state[c * 4 + 1] = col[0] ^ gf_mul(col[1], 2) ^ gf_mul(col[2], 3) ^ col[3];
                state[c * 4 + 2] = col[0] ^ col[1] ^ gf_mul(col[2], 2) ^ gf_mul(col[3], 3);
                state[c * 4 + 3] = gf_mul(col[0], 3) ^ col[1] ^ col[2] ^ gf_mul(col[3], 2);
            }
        }

        pub fn inv_mix_columns(state: &mut [u8; 16]) {
            for c in 0..4 {
                let col: [u8; 4] = state[c * 4..c * 4 + 4].try_into().unwrap();
                state[c * 4] = gf_mul(col[0], 14)
                    ^ gf_mul(col[1], 11)
                    ^ gf_mul(col[2], 13)
                    ^ gf_mul(col[3], 9);
                state[c * 4 + 1] = gf_mul(col[0], 9)
                    ^ gf_mul(col[1], 14)
                    ^ gf_mul(col[2], 11)
                    ^ gf_mul(col[3], 13);
                state[c * 4 + 2] = gf_mul(col[0], 13)
                    ^ gf_mul(col[1], 9)
                    ^ gf_mul(col[2], 14)
                    ^ gf_mul(col[3], 11);
                state[c * 4 + 3] = gf_mul(col[0], 11)
                    ^ gf_mul(col[1], 13)
                    ^ gf_mul(col[2], 9)
                    ^ gf_mul(col[3], 14);
            }
        }
    }

    fn hex(s: &str) -> Vec<u8> {
        (0..s.len()).step_by(2).map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap()).collect()
    }

    fn round_key_bytes(k: &RoundKey) -> [u8; 16] {
        let mut bytes = [0u8; 16];
        store(&mut bytes, *k);
        bytes
    }

    #[test]
    fn sbox_spot_checks() {
        let t = tables();
        // Well-known S-box entries.
        assert_eq!(t.sbox[0x00], 0x63);
        assert_eq!(t.sbox[0x01], 0x7c);
        assert_eq!(t.sbox[0x53], 0xed);
        assert_eq!(t.sbox[0xff], 0x16);
        // Inverse really inverts.
        for i in 0..256 {
            assert_eq!(t.inv_sbox[t.sbox[i] as usize] as usize, i);
        }
        // First entries of the published Te0 and Td0 tables.
        assert_eq!(t.te[0][0x00], 0xc663_63a5);
        assert_eq!(t.td[0][0x00], 0x51f4_a750);
        assert_eq!(t.te[1][0x00], 0xa5c6_6363);
    }

    #[test]
    fn gf_mul_examples() {
        // {57} * {83} = {c1} from FIPS-197 section 4.2.
        assert_eq!(gf_mul(0x57, 0x83), 0xc1);
        assert_eq!(gf_mul(0x57, 0x13), 0xfe);
        assert_eq!(gf_mul(0x01, 0xab), 0xab);
        assert_eq!(gf_mul(0x00, 0xab), 0x00);
    }

    #[test]
    fn gf_inv_is_inverse() {
        for a in 1..=255u8 {
            assert_eq!(gf_mul(a, gf_inv(a)), 1, "inverse of {a:#x}");
        }
        assert_eq!(gf_inv(0), 0);
    }

    #[test]
    fn fips197_appendix_a1_key_expansion() {
        let key: [u8; 16] = hex("2b7e151628aed2a6abf7158809cf4f3c").try_into().unwrap();
        let cipher = Aes128::new(&key);
        assert_eq!(cipher.enc[0], [0x2b7e_1516, 0x28ae_d2a6, 0xabf7_1588, 0x09cf_4f3c]);
        assert_eq!(cipher.enc[1], [0xa0fa_fe17, 0x8854_2cb1, 0x23a3_3939, 0x2a6c_7605]);
        assert_eq!(cipher.enc[10], [0xd014_f9a8, 0xc9ee_2589, 0xe13f_0cc8, 0xb663_0ca6]);
        for (r, k) in oracle::expand(&key).iter().enumerate() {
            assert_eq!(&round_key_bytes(&cipher.enc[r]), k, "encryption round key {r}");
        }
        // FIPS-197 §5.3.5: the equivalent inverse cipher's schedule is the
        // same keys in reverse order, InvMixColumns applied to rounds 1-9.
        assert_eq!(cipher.dec[0], cipher.enc[10]);
        assert_eq!(cipher.dec[10], cipher.enc[0]);
        for r in 1..ROUNDS {
            let mut expected = round_key_bytes(&cipher.enc[ROUNDS - r]);
            oracle::inv_mix_columns(&mut expected);
            assert_eq!(round_key_bytes(&cipher.dec[r]), expected, "decryption round key {r}");
        }
    }

    #[test]
    fn fips197_appendix_c_vector() {
        // FIPS-197 Appendix C.1: AES-128 known-answer test.
        let key: [u8; 16] = hex("000102030405060708090a0b0c0d0e0f").try_into().unwrap();
        let mut block: [u8; 16] = hex("00112233445566778899aabbccddeeff").try_into().unwrap();
        let cipher = Aes128::new(&key);
        cipher.encrypt_block(&mut block);
        assert_eq!(block.to_vec(), hex("69c4e0d86a7b0430d8cdb78070b4c55a"));
        cipher.decrypt_block(&mut block);
        assert_eq!(block.to_vec(), hex("00112233445566778899aabbccddeeff"));
    }

    #[test]
    fn fips197_appendix_b_vector() {
        // FIPS-197 Appendix B worked example.
        let key: [u8; 16] = hex("2b7e151628aed2a6abf7158809cf4f3c").try_into().unwrap();
        let mut block: [u8; 16] = hex("3243f6a8885a308d313198a2e0370734").try_into().unwrap();
        Aes128::new(&key).encrypt_block(&mut block);
        assert_eq!(block.to_vec(), hex("3925841d02dc09fbdc118597196a0b32"));
    }

    proptest! {
        #[test]
        fn table_rounds_match_the_byte_wise_oracle(
            key in any::<[u8; 16]>(),
            block in any::<[u8; 16]>(),
        ) {
            let cipher = Aes128::new(&key);
            let (mut fast, mut spec) = (block, block);
            cipher.encrypt_block(&mut fast);
            oracle::encrypt(&key, &mut spec);
            prop_assert_eq!(fast, spec);
            let (mut fast, mut spec) = (block, block);
            cipher.decrypt_block(&mut fast);
            oracle::decrypt(&key, &mut spec);
            prop_assert_eq!(fast, spec);
        }
    }

    #[test]
    fn round_trips_random_blocks() {
        let cipher = Aes128::new(&[7u8; 16]);
        for seed in 0u8..32 {
            let mut block = [seed; 16];
            for (i, b) in block.iter_mut().enumerate() {
                *b = b.wrapping_add(i as u8).wrapping_mul(31);
            }
            let original = block;
            cipher.encrypt_block(&mut block);
            assert_ne!(block, original, "encryption must change the block");
            cipher.decrypt_block(&mut block);
            assert_eq!(block, original);
        }
    }

    #[test]
    fn different_keys_differ() {
        let mut a = [0u8; 16];
        let mut b = [0u8; 16];
        Aes128::new(&[1u8; 16]).encrypt_block(&mut a);
        Aes128::new(&[2u8; 16]).encrypt_block(&mut b);
        assert_ne!(a, b);
    }

    #[test]
    fn debug_redacts_keys() {
        let s = format!("{:?}", Aes128::new(&[9u8; 16]));
        assert!(s.contains("redacted"));
        assert!(!s.contains('9'));
    }
}
