//! Property-based round-trips for the `cbcs` pattern scheme, pinning the
//! edge cases (degenerate patterns, partial trailing blocks, empty
//! subsample maps) before any caching layer sits on top of the decrypt
//! path.

use proptest::prelude::*;
use wideleak_bmff::types::{CryptPattern, Subsample};
use wideleak_cenc::cbcs;
use wideleak_cenc::keys::ContentKey;

/// Any pattern including the degenerate `crypt_blocks = 0` (clamped to 1
/// by the implementation) and `skip_blocks = 0` (plain CBC) corners.
fn pattern() -> impl Strategy<Value = CryptPattern> {
    (0u8..=4, 0u8..=10)
        .prop_map(|(crypt, skip)| CryptPattern { crypt_blocks: crypt, skip_blocks: skip })
}

/// A consistent subsample map plus a sample buffer that it covers
/// exactly. An empty map (whole sample protected) is generated too.
/// The vendored proptest has no `prop_flat_map`, so a fixed byte pool is
/// drawn alongside the map and truncated/cycled to the exact length.
fn sample_with_map() -> impl Strategy<Value = (Vec<u8>, Vec<Subsample>)> {
    (
        proptest::collection::vec((0u16..40, 0u32..80), 0..4),
        proptest::collection::vec(any::<u8>(), 0..128),
    )
        .prop_map(|(pairs, pool)| {
            let subs: Vec<Subsample> = pairs
                .iter()
                .map(|&(clear, enc)| Subsample { clear_bytes: clear, encrypted_bytes: enc })
                .collect();
            let total: usize = if subs.is_empty() {
                pool.len()
            } else {
                subs.iter().map(|s| s.clear_bytes as usize + s.encrypted_bytes as usize).sum()
            };
            let sample: Vec<u8> = (0..total)
                .map(|i| pool.get(i % pool.len().max(1)).copied().unwrap_or(0) ^ (i as u8))
                .collect();
            (sample, subs)
        })
}

proptest! {
    #[test]
    fn cbcs_round_trip_any_pattern(
        key in any::<[u8; 16]>(),
        iv in any::<[u8; 16]>(),
        pattern in pattern(),
        (sample, subs) in sample_with_map(),
    ) {
        let key = ContentKey(key);
        let ct = cbcs::encrypt_sample(&key, iv, pattern, &sample, &subs).unwrap();
        prop_assert_eq!(ct.len(), sample.len());
        let rt = cbcs::decrypt_sample(&key, iv, pattern, &ct, &subs).unwrap();
        prop_assert_eq!(rt, sample);
    }

    #[test]
    fn cbcs_in_place_matches_allocating(
        key in any::<[u8; 16]>(),
        iv in any::<[u8; 16]>(),
        pattern in pattern(),
        (sample, subs) in sample_with_map(),
    ) {
        let key = ContentKey(key);
        let cipher = key.cipher();
        let expected = cbcs::encrypt_sample(&key, iv, pattern, &sample, &subs).unwrap();
        let mut buf = sample.clone();
        cbcs::encrypt_sample_in_place_with_cipher(&cipher, iv, pattern, &mut buf, &subs).unwrap();
        prop_assert_eq!(&buf, &expected);
        cbcs::decrypt_sample_in_place_with_cipher(&cipher, iv, pattern, &mut buf, &subs).unwrap();
        prop_assert_eq!(buf, sample);
    }

    #[test]
    fn cbcs_partial_trailing_block_stays_clear(
        key in any::<[u8; 16]>(),
        iv in any::<[u8; 16]>(),
        pattern in pattern(),
        blocks in 0usize..5,
        tail in 1usize..16,
        fill in any::<u8>(),
    ) {
        // Whole-sample protection with a deliberately unaligned length:
        // the trailing partial block must come through untouched.
        let key = ContentKey(key);
        let sample = vec![fill; blocks * 16 + tail];
        let ct = cbcs::encrypt_sample(&key, iv, pattern, &sample, &[]).unwrap();
        prop_assert_eq!(&ct[blocks * 16..], &sample[blocks * 16..]);
        let rt = cbcs::decrypt_sample(&key, iv, pattern, &ct, &[]).unwrap();
        prop_assert_eq!(rt, sample);
    }

    #[test]
    fn cbcs_zero_skip_is_plain_cbc_per_region(
        key in any::<[u8; 16]>(),
        iv in any::<[u8; 16]>(),
        data in proptest::collection::vec(any::<u8>(), 32..200),
    ) {
        // skip_blocks = 0 with crypt_blocks = 1 degenerates to CBC over
        // every full block; equal plaintext blocks must still chain.
        let key = ContentKey(key);
        let pattern = CryptPattern { crypt_blocks: 1, skip_blocks: 0 };
        let ct = cbcs::encrypt_sample(&key, iv, pattern, &data, &[]).unwrap();
        let rt = cbcs::decrypt_sample(&key, iv, pattern, &ct, &[]).unwrap();
        prop_assert_eq!(rt, data);
    }

    #[test]
    fn cbcs_empty_subsample_list_equals_whole_sample_region(
        key in any::<[u8; 16]>(),
        iv in any::<[u8; 16]>(),
        pattern in pattern(),
        data in proptest::collection::vec(any::<u8>(), 0..150),
    ) {
        // An empty map and a single all-encrypted subsample are the same
        // region layout and must produce identical ciphertext.
        let key = ContentKey(key);
        let whole = cbcs::encrypt_sample(&key, iv, pattern, &data, &[]).unwrap();
        let subs = [Subsample { clear_bytes: 0, encrypted_bytes: data.len() as u32 }];
        let mapped = cbcs::encrypt_sample(&key, iv, pattern, &data, &subs).unwrap();
        prop_assert_eq!(whole, mapped);
    }
}
