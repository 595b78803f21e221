//! The `cenc` scheme: AES-128-CTR subsample encryption.
//!
//! Per ISO/IEC 23001-7 the counter block is the 8-byte per-sample IV
//! followed by a 64-bit big-endian block counter starting at zero, and the
//! keystream runs *continuously* over the encrypted regions of a sample:
//! clear bytes do not consume keystream.

use wideleak_bmff::types::Subsample;
use wideleak_crypto::aes::{Aes128, BLOCK_LEN};

use crate::keys::ContentKey;
use crate::{validate_subsamples, CencError};

/// Blocks of keystream generated per batch: 512 bytes of stack buffer,
/// enough to cover typical encrypted subsample regions in one pass.
const BATCH_BLOCKS: usize = 32;

/// A CTR keystream generator with byte-level positioning.
///
/// Whole blocks are generated in batches of up to [`BATCH_BLOCKS`]
/// through [`wideleak_crypto::modes::ctr_keystream_into`]; only region
/// tails shorter than a block go through the single-block buffer, so
/// keystream continuity across subsamples is preserved byte for byte.
struct CtrStream<'a> {
    cipher: &'a Aes128,
    counter: [u8; BLOCK_LEN],
    buffer: [u8; BLOCK_LEN],
    /// Offset into `buffer` of the next unused keystream byte; BLOCK_LEN
    /// means the buffer is exhausted.
    used: usize,
}

impl<'a> CtrStream<'a> {
    fn new(cipher: &'a Aes128, iv: [u8; 8]) -> Self {
        let mut counter = [0u8; BLOCK_LEN];
        counter[..8].copy_from_slice(&iv);
        CtrStream { cipher, counter, buffer: [0u8; BLOCK_LEN], used: BLOCK_LEN }
    }

    fn xor_into(&mut self, data: &mut [u8]) {
        let mut pos = 0usize;
        // Drain keystream left over from the previous region first.
        while pos < data.len() && self.used < BLOCK_LEN {
            data[pos] ^= self.buffer[self.used];
            self.used += 1;
            pos += 1;
        }
        // Batch whole blocks straight from the counter.
        let mut batch = [0u8; BATCH_BLOCKS * BLOCK_LEN];
        while data.len() - pos >= BLOCK_LEN {
            let blocks = ((data.len() - pos) / BLOCK_LEN).min(BATCH_BLOCKS);
            let ks = &mut batch[..blocks * BLOCK_LEN];
            wideleak_crypto::modes::ctr_keystream_into(self.cipher, &mut self.counter, ks);
            for (b, k) in data[pos..pos + blocks * BLOCK_LEN].iter_mut().zip(ks.iter()) {
                *b ^= *k;
            }
            pos += blocks * BLOCK_LEN;
        }
        // A tail shorter than a block: buffer one block so the next
        // region continues mid-block exactly where this one stopped.
        if pos < data.len() {
            self.buffer = self.counter;
            self.cipher.encrypt_block(&mut self.buffer);
            wideleak_crypto::modes::increment_counter(&mut self.counter);
            self.used = 0;
            while pos < data.len() {
                data[pos] ^= self.buffer[self.used];
                self.used += 1;
                pos += 1;
            }
        }
    }
}

/// Applies the `cenc` transform to one sample (encrypt and decrypt are the
/// same XOR operation).
///
/// An empty `subsamples` map means the entire sample is encrypted.
///
/// # Errors
///
/// Returns [`CencError::SubsampleMismatch`] when the map does not cover
/// the sample exactly.
fn xcrypt_sample(
    key: &ContentKey,
    iv: [u8; 8],
    sample: &[u8],
    subsamples: &[Subsample],
) -> Result<Vec<u8>, CencError> {
    let mut out = sample.to_vec();
    let cipher = key.cipher();
    xcrypt_sample_in_place_with_cipher(&cipher, iv, &mut out, subsamples)?;
    Ok(out)
}

/// In-place `cenc` transform using a caller-supplied AES key schedule.
///
/// This is the zero-allocation hot path: the sample buffer is transformed
/// where it sits and the (expensive to derive) key schedule can be reused
/// across samples of the same session.
///
/// # Errors
///
/// Returns [`CencError::SubsampleMismatch`] when the map does not cover
/// the sample exactly; the buffer is untouched in that case.
pub fn xcrypt_sample_in_place_with_cipher(
    cipher: &Aes128,
    iv: [u8; 8],
    sample: &mut [u8],
    subsamples: &[Subsample],
) -> Result<(), CencError> {
    validate_subsamples(subsamples, sample.len())?;
    let mut stream = CtrStream::new(cipher, iv);
    if subsamples.is_empty() {
        stream.xor_into(sample);
        return Ok(());
    }
    let mut offset = 0usize;
    for sub in subsamples {
        offset += sub.clear_bytes as usize;
        let end = offset + sub.encrypted_bytes as usize;
        stream.xor_into(&mut sample[offset..end]);
        offset = end;
    }
    Ok(())
}

/// Encrypts one sample under the `cenc` scheme.
///
/// # Errors
///
/// Returns [`CencError::SubsampleMismatch`] for an inconsistent map.
pub fn encrypt_sample(
    key: &ContentKey,
    iv: [u8; 8],
    plaintext: &[u8],
    subsamples: &[Subsample],
) -> Result<Vec<u8>, CencError> {
    xcrypt_sample(key, iv, plaintext, subsamples)
}

/// Decrypts one sample under the `cenc` scheme.
///
/// # Errors
///
/// Returns [`CencError::SubsampleMismatch`] for an inconsistent map.
pub fn decrypt_sample(
    key: &ContentKey,
    iv: [u8; 8],
    ciphertext: &[u8],
    subsamples: &[Subsample],
) -> Result<Vec<u8>, CencError> {
    xcrypt_sample(key, iv, ciphertext, subsamples)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key() -> ContentKey {
        ContentKey([0x42; 16])
    }

    #[test]
    fn whole_sample_round_trip() {
        let pt = b"a complete sample with no subsample structure at all";
        let ct = encrypt_sample(&key(), [1; 8], pt, &[]).unwrap();
        assert_ne!(&ct[..], &pt[..]);
        assert_eq!(decrypt_sample(&key(), [1; 8], &ct, &[]).unwrap(), pt);
    }

    #[test]
    fn clear_prefix_is_untouched() {
        let pt = b"HEADER....payload-payload-payload";
        let subs = [Subsample { clear_bytes: 10, encrypted_bytes: 23 }];
        let ct = encrypt_sample(&key(), [2; 8], pt, &subs).unwrap();
        assert_eq!(&ct[..10], &pt[..10]);
        assert_ne!(&ct[10..], &pt[10..]);
        assert_eq!(decrypt_sample(&key(), [2; 8], &ct, &subs).unwrap(), pt);
    }

    #[test]
    fn keystream_is_continuous_across_subsamples() {
        // Two layouts of the same encrypted bytes must produce the same
        // ciphertext for those bytes: clear bytes do not consume keystream.
        let enc_payload = vec![0xEE; 40];
        // Layout A: all 40 encrypted bytes in one subsample.
        let sample_a = enc_payload.clone();
        let subs_a = [Subsample { clear_bytes: 0, encrypted_bytes: 40 }];
        let ct_a = encrypt_sample(&key(), [3; 8], &sample_a, &subs_a).unwrap();
        // Layout B: clear gap in the middle.
        let mut sample_b = Vec::new();
        sample_b.extend_from_slice(&enc_payload[..15]);
        sample_b.extend_from_slice(b"CLEARCLEAR");
        sample_b.extend_from_slice(&enc_payload[15..]);
        let subs_b = [
            Subsample { clear_bytes: 0, encrypted_bytes: 15 },
            Subsample { clear_bytes: 10, encrypted_bytes: 25 },
        ];
        let ct_b = encrypt_sample(&key(), [3; 8], &sample_b, &subs_b).unwrap();
        assert_eq!(&ct_a[..15], &ct_b[..15]);
        assert_eq!(&ct_a[15..], &ct_b[25..]);
    }

    #[test]
    fn iv_separates_samples() {
        let pt = vec![0u8; 64];
        let a = encrypt_sample(&key(), [1; 8], &pt, &[]).unwrap();
        let b = encrypt_sample(&key(), [2; 8], &pt, &[]).unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn wrong_key_garbles() {
        let pt = b"content protected by DRM";
        let ct = encrypt_sample(&key(), [5; 8], pt, &[]).unwrap();
        let wrong = decrypt_sample(&ContentKey([0x43; 16]), [5; 8], &ct, &[]).unwrap();
        assert_ne!(&wrong[..], &pt[..]);
    }

    #[test]
    fn mismatched_map_rejected() {
        let subs = [Subsample { clear_bytes: 4, encrypted_bytes: 4 }];
        assert!(encrypt_sample(&key(), [0; 8], &[0u8; 9], &subs).is_err());
        assert!(encrypt_sample(&key(), [0; 8], &[0u8; 7], &subs).is_err());
    }

    #[test]
    fn empty_sample() {
        assert_eq!(encrypt_sample(&key(), [0; 8], &[], &[]).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn in_place_matches_allocating_variant() {
        let pt = b"HEADER....payload-payload-payload tail";
        let layouts: &[&[Subsample]] = &[
            &[],
            &[Subsample { clear_bytes: 10, encrypted_bytes: 28 }],
            &[
                Subsample { clear_bytes: 0, encrypted_bytes: 16 },
                Subsample { clear_bytes: 6, encrypted_bytes: 16 },
            ],
        ];
        let cipher = key().cipher();
        for subs in layouts {
            let expected = encrypt_sample(&key(), [9; 8], pt, subs).unwrap();
            let mut buf = pt.to_vec();
            xcrypt_sample_in_place_with_cipher(&cipher, [9; 8], &mut buf, subs).unwrap();
            assert_eq!(buf, expected);
            xcrypt_sample_in_place_with_cipher(&cipher, [9; 8], &mut buf, subs).unwrap();
            assert_eq!(&buf[..], &pt[..]);
        }
    }

    #[test]
    fn in_place_with_reused_cipher_matches_fresh_schedule() {
        let cipher = Aes128::new(&key().0);
        let pt: Vec<u8> = (0..200).map(|i| (i * 3) as u8).collect();
        for iv in 0u8..4 {
            let expected = decrypt_sample(&key(), [iv; 8], &pt, &[]).unwrap();
            let mut buf = pt.clone();
            xcrypt_sample_in_place_with_cipher(&cipher, [iv; 8], &mut buf, &[]).unwrap();
            assert_eq!(buf, expected, "iv={iv}");
        }
    }

    #[test]
    fn in_place_rejects_mismatched_map_without_touching_buffer() {
        let subs = [Subsample { clear_bytes: 4, encrypted_bytes: 4 }];
        let mut buf = vec![0xAAu8; 9];
        let cipher = key().cipher();
        assert!(xcrypt_sample_in_place_with_cipher(&cipher, [0; 8], &mut buf, &subs).is_err());
        assert_eq!(buf, vec![0xAAu8; 9]);
    }

    /// The pre-batching reference: one keystream byte at a time.
    fn per_byte_reference(cipher: &Aes128, iv: [u8; 8], data: &mut [u8], subs: &[Subsample]) {
        let mut counter = [0u8; BLOCK_LEN];
        counter[..8].copy_from_slice(&iv);
        let mut buffer = [0u8; BLOCK_LEN];
        let mut used = BLOCK_LEN;
        let mut xor = |region: &mut [u8]| {
            for b in region.iter_mut() {
                if used == BLOCK_LEN {
                    buffer = counter;
                    cipher.encrypt_block(&mut buffer);
                    wideleak_crypto::modes::increment_counter(&mut counter);
                    used = 0;
                }
                *b ^= buffer[used];
                used += 1;
            }
        };
        if subs.is_empty() {
            xor(data);
            return;
        }
        let mut offset = 0usize;
        for sub in subs {
            offset += sub.clear_bytes as usize;
            let end = offset + sub.encrypted_bytes as usize;
            xor(&mut data[offset..end]);
            offset = end;
        }
    }

    #[test]
    fn batched_keystream_matches_per_byte_reference() {
        // The batching fast path must be byte-identical to the per-byte
        // stream at every length around block and batch boundaries.
        let cipher = Aes128::new(&key().0);
        for len in [0usize, 1, 15, 16, 17, 31, 33, 255, 511, 512, 513, 1024, 2000] {
            let pt: Vec<u8> = (0..len).map(|i| (i * 31 % 256) as u8).collect();
            let mut expected = pt.clone();
            per_byte_reference(&cipher, [8; 8], &mut expected, &[]);
            let mut got = pt.clone();
            xcrypt_sample_in_place_with_cipher(&cipher, [8; 8], &mut got, &[]).unwrap();
            assert_eq!(got, expected, "len={len}");
        }
    }

    #[test]
    fn batched_keystream_matches_reference_across_subsample_tails() {
        // Odd-length encrypted regions leave mid-block keystream leftovers
        // that the next region must consume before batching resumes.
        let cipher = Aes128::new(&key().0);
        let subs = [
            Subsample { clear_bytes: 3, encrypted_bytes: 7 },
            Subsample { clear_bytes: 0, encrypted_bytes: 21 },
            Subsample { clear_bytes: 11, encrypted_bytes: 600 },
            Subsample { clear_bytes: 1, encrypted_bytes: 5 },
        ];
        let total: usize =
            subs.iter().map(|s| s.clear_bytes as usize + s.encrypted_bytes as usize).sum();
        let pt: Vec<u8> = (0..total).map(|i| (i * 7 % 256) as u8).collect();
        let mut expected = pt.clone();
        per_byte_reference(&cipher, [6; 8], &mut expected, &subs);
        let mut got = pt.clone();
        xcrypt_sample_in_place_with_cipher(&cipher, [6; 8], &mut got, &subs).unwrap();
        assert_eq!(got, expected);
    }

    #[test]
    fn long_sample_spans_many_counter_blocks() {
        let pt: Vec<u8> = (0..10_000).map(|i| (i % 256) as u8).collect();
        let ct = encrypt_sample(&key(), [7; 8], &pt, &[]).unwrap();
        assert_eq!(decrypt_sample(&key(), [7; 8], &ct, &[]).unwrap(), pt);
        // Keystream must not repeat across blocks for this size.
        let repeats = ct.windows(16).filter(|w| *w == &ct[..16]).count();
        assert_eq!(repeats, 1);
    }
}
