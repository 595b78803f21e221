//! The `cbcs` scheme: AES-128-CBC pattern encryption.
//!
//! Per ISO/IEC 23001-7 the `cbcs` scheme encrypts each protected subsample
//! region with a repeating pattern of `crypt` encrypted blocks followed by
//! `skip` clear blocks (1:9 for video). The CBC chain restarts with the
//! constant IV at the start of every subsample region, and chains across
//! the pattern's encrypted blocks only. A trailing partial block is always
//! left in the clear.

use wideleak_bmff::types::{CryptPattern, Subsample};
use wideleak_crypto::aes::{Aes128, BLOCK_LEN};

use crate::keys::ContentKey;
use crate::{validate_subsamples, CencError};

/// Direction of the pattern transform.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Dir {
    Encrypt,
    Decrypt,
}

/// Applies CBC pattern crypto to one protected region in place.
fn xcrypt_region(
    cipher: &Aes128,
    iv: &[u8; BLOCK_LEN],
    pattern: CryptPattern,
    region: &mut [u8],
    dir: Dir,
) {
    let crypt = pattern.crypt_blocks.max(1) as usize;
    let skip = pattern.skip_blocks as usize;
    let period = crypt + skip;

    let full_blocks = region.len() / BLOCK_LEN;
    let mut prev = *iv;
    for block_idx in 0..full_blocks {
        let in_pattern = block_idx % period;
        if in_pattern >= crypt {
            continue; // skip block, stays clear
        }
        let start = block_idx * BLOCK_LEN;
        let block: &mut [u8; BLOCK_LEN] =
            (&mut region[start..start + BLOCK_LEN]).try_into().expect("slice is block sized");
        match dir {
            Dir::Encrypt => {
                for i in 0..BLOCK_LEN {
                    block[i] ^= prev[i];
                }
                cipher.encrypt_block(block);
                prev = *block;
            }
            Dir::Decrypt => {
                let ct = *block;
                cipher.decrypt_block(block);
                for i in 0..BLOCK_LEN {
                    block[i] ^= prev[i];
                }
                prev = ct;
            }
        }
    }
    // Trailing partial block stays clear by construction.
}

fn xcrypt_sample(
    key: &ContentKey,
    constant_iv: [u8; BLOCK_LEN],
    pattern: CryptPattern,
    sample: &[u8],
    subsamples: &[Subsample],
    dir: Dir,
) -> Result<Vec<u8>, CencError> {
    let cipher = key.cipher();
    let mut out = sample.to_vec();
    xcrypt_sample_in_place(&cipher, constant_iv, pattern, &mut out, subsamples, dir)?;
    Ok(out)
}

fn xcrypt_sample_in_place(
    cipher: &Aes128,
    constant_iv: [u8; BLOCK_LEN],
    pattern: CryptPattern,
    sample: &mut [u8],
    subsamples: &[Subsample],
    dir: Dir,
) -> Result<(), CencError> {
    validate_subsamples(subsamples, sample.len())?;
    if subsamples.is_empty() {
        xcrypt_region(cipher, &constant_iv, pattern, sample, dir);
        return Ok(());
    }
    let mut offset = 0usize;
    for sub in subsamples {
        offset += sub.clear_bytes as usize;
        let end = offset + sub.encrypted_bytes as usize;
        xcrypt_region(cipher, &constant_iv, pattern, &mut sample[offset..end], dir);
        offset = end;
    }
    Ok(())
}

/// Encrypts one sample in place using a caller-supplied AES key schedule,
/// so the packager can expand the key once per segment.
///
/// # Errors
///
/// Returns [`CencError::SubsampleMismatch`] for an inconsistent map.
pub fn encrypt_sample_in_place_with_cipher(
    cipher: &Aes128,
    constant_iv: [u8; BLOCK_LEN],
    pattern: CryptPattern,
    sample: &mut [u8],
    subsamples: &[Subsample],
) -> Result<(), CencError> {
    xcrypt_sample_in_place(cipher, constant_iv, pattern, sample, subsamples, Dir::Encrypt)
}

/// Decrypts one sample in place using a caller-supplied AES key schedule,
/// so the schedule can be derived once per session and reused per sample.
///
/// # Errors
///
/// Returns [`CencError::SubsampleMismatch`] for an inconsistent map.
pub fn decrypt_sample_in_place_with_cipher(
    cipher: &Aes128,
    constant_iv: [u8; BLOCK_LEN],
    pattern: CryptPattern,
    sample: &mut [u8],
    subsamples: &[Subsample],
) -> Result<(), CencError> {
    xcrypt_sample_in_place(cipher, constant_iv, pattern, sample, subsamples, Dir::Decrypt)
}

/// Encrypts one sample under the `cbcs` scheme.
///
/// # Errors
///
/// Returns [`CencError::SubsampleMismatch`] for an inconsistent map.
pub fn encrypt_sample(
    key: &ContentKey,
    constant_iv: [u8; BLOCK_LEN],
    pattern: CryptPattern,
    plaintext: &[u8],
    subsamples: &[Subsample],
) -> Result<Vec<u8>, CencError> {
    xcrypt_sample(key, constant_iv, pattern, plaintext, subsamples, Dir::Encrypt)
}

/// Decrypts one sample under the `cbcs` scheme.
///
/// # Errors
///
/// Returns [`CencError::SubsampleMismatch`] for an inconsistent map.
pub fn decrypt_sample(
    key: &ContentKey,
    constant_iv: [u8; BLOCK_LEN],
    pattern: CryptPattern,
    ciphertext: &[u8],
    subsamples: &[Subsample],
) -> Result<Vec<u8>, CencError> {
    xcrypt_sample(key, constant_iv, pattern, ciphertext, subsamples, Dir::Decrypt)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key() -> ContentKey {
        ContentKey([0x17; 16])
    }

    fn video_pattern() -> CryptPattern {
        CryptPattern { crypt_blocks: 1, skip_blocks: 9 }
    }

    fn full_pattern() -> CryptPattern {
        CryptPattern { crypt_blocks: 1, skip_blocks: 0 }
    }

    #[test]
    fn round_trip_whole_sample() {
        let pt: Vec<u8> = (0..400).map(|i| (i % 251) as u8).collect();
        let ct = encrypt_sample(&key(), [1; 16], video_pattern(), &pt, &[]).unwrap();
        assert_ne!(ct, pt);
        assert_eq!(decrypt_sample(&key(), [1; 16], video_pattern(), &ct, &[]).unwrap(), pt);
    }

    #[test]
    fn one_nine_pattern_leaves_skip_blocks_clear() {
        let pt = vec![0xAA; 16 * 12];
        let ct = encrypt_sample(&key(), [0; 16], video_pattern(), &pt, &[]).unwrap();
        // Block 0 encrypted; blocks 1..=9 clear; block 10 encrypted again.
        assert_ne!(&ct[..16], &pt[..16]);
        for b in 1..10 {
            assert_eq!(&ct[b * 16..(b + 1) * 16], &pt[b * 16..(b + 1) * 16], "block {b}");
        }
        assert_ne!(&ct[160..176], &pt[160..176]);
    }

    #[test]
    fn trailing_partial_block_stays_clear() {
        let pt = vec![0x55; 20];
        let ct = encrypt_sample(&key(), [0; 16], full_pattern(), &pt, &[]).unwrap();
        assert_ne!(&ct[..16], &pt[..16]);
        assert_eq!(&ct[16..], &pt[16..], "partial final block untouched");
    }

    #[test]
    fn short_sample_entirely_clear() {
        let pt = vec![0x77; 10];
        let ct = encrypt_sample(&key(), [0; 16], full_pattern(), &pt, &[]).unwrap();
        assert_eq!(ct, pt);
    }

    #[test]
    fn subsample_regions_restart_iv() {
        // Identical encrypted regions in different subsamples must encrypt
        // identically because the IV restarts per region.
        let block = vec![0xBB; 32];
        let mut sample = Vec::new();
        sample.extend_from_slice(&block);
        sample.extend_from_slice(b"CLEAR!"); // 6 clear bytes
        sample.extend_from_slice(&block);
        let subs = [
            Subsample { clear_bytes: 0, encrypted_bytes: 32 },
            Subsample { clear_bytes: 6, encrypted_bytes: 32 },
        ];
        let ct = encrypt_sample(&key(), [9; 16], full_pattern(), &sample, &subs).unwrap();
        assert_eq!(&ct[..32], &ct[38..70], "regions with equal plaintext match");
        let pt = decrypt_sample(&key(), [9; 16], full_pattern(), &ct, &subs).unwrap();
        assert_eq!(pt, sample);
    }

    #[test]
    fn round_trip_with_subsamples_and_pattern() {
        let pt: Vec<u8> = (0..1000).map(|i| (i * 7 % 256) as u8).collect();
        let subs = [
            Subsample { clear_bytes: 37, encrypted_bytes: 400 },
            Subsample { clear_bytes: 13, encrypted_bytes: 550 },
        ];
        let ct = encrypt_sample(&key(), [4; 16], video_pattern(), &pt, &subs).unwrap();
        assert_eq!(&ct[..37], &pt[..37]);
        assert_eq!(decrypt_sample(&key(), [4; 16], video_pattern(), &ct, &subs).unwrap(), pt);
    }

    #[test]
    fn cbc_chaining_within_region() {
        // With a full pattern, equal plaintext blocks inside one region must
        // produce different ciphertext blocks (CBC property).
        let pt = vec![0xCC; 48];
        let ct = encrypt_sample(&key(), [2; 16], full_pattern(), &pt, &[]).unwrap();
        assert_ne!(&ct[..16], &ct[16..32]);
        assert_ne!(&ct[16..32], &ct[32..48]);
    }

    #[test]
    fn mismatched_map_rejected() {
        let subs = [Subsample { clear_bytes: 1, encrypted_bytes: 1 }];
        assert!(encrypt_sample(&key(), [0; 16], full_pattern(), &[0u8; 5], &subs).is_err());
    }

    #[test]
    fn in_place_matches_allocating_variant() {
        let pt: Vec<u8> = (0..500).map(|i| (i * 11 % 256) as u8).collect();
        let subs = [
            Subsample { clear_bytes: 20, encrypted_bytes: 230 },
            Subsample { clear_bytes: 0, encrypted_bytes: 250 },
        ];
        let cipher = key().cipher();
        for pattern in [video_pattern(), full_pattern()] {
            let expected = encrypt_sample(&key(), [6; 16], pattern, &pt, &subs).unwrap();
            let mut buf = pt.clone();
            encrypt_sample_in_place_with_cipher(&cipher, [6; 16], pattern, &mut buf, &subs)
                .unwrap();
            assert_eq!(buf, expected);
            decrypt_sample_in_place_with_cipher(&cipher, [6; 16], pattern, &mut buf, &subs)
                .unwrap();
            assert_eq!(buf, pt);
        }
    }

    #[test]
    fn zero_crypt_blocks_treated_as_one() {
        // A degenerate pattern of 0 crypt blocks is clamped rather than
        // looping forever or leaving everything clear unexpectedly.
        let pattern = CryptPattern { crypt_blocks: 0, skip_blocks: 0 };
        let pt = vec![0x11; 32];
        let ct = encrypt_sample(&key(), [0; 16], pattern, &pt, &[]).unwrap();
        let rt = decrypt_sample(&key(), [0; 16], pattern, &ct, &[]).unwrap();
        assert_eq!(rt, pt);
    }
}
