//! Property-based tests for the cryptographic primitives: round-trips,
//! determinism, and avalanche-style sanity checks.

use proptest::prelude::*;
use wideleak_crypto::aes::Aes128;
use wideleak_crypto::cmac::aes_cmac_with_key;
use wideleak_crypto::crc32::{crc32, Crc32};
use wideleak_crypto::ct::ct_eq;
use wideleak_crypto::digest::Digest;
use wideleak_crypto::hmac::Hmac;
use wideleak_crypto::modes::{
    cbc_decrypt_padded, cbc_encrypt_padded, ctr_xcrypt, ecb_decrypt, ecb_encrypt,
};
use wideleak_crypto::pad::{pkcs7_pad, pkcs7_unpad};
use wideleak_crypto::rng::seeded_rng;
use wideleak_crypto::rsa::{mgf1, RsaPrivateKey};
use wideleak_crypto::sha1::Sha1;
use wideleak_crypto::sha256::Sha256;

fn key16() -> impl Strategy<Value = [u8; 16]> {
    any::<[u8; 16]>()
}

proptest! {
    #[test]
    fn aes_block_round_trip(key in key16(), block in any::<[u8; 16]>()) {
        let cipher = Aes128::new(&key);
        let mut b = block;
        cipher.encrypt_block(&mut b);
        cipher.decrypt_block(&mut b);
        prop_assert_eq!(b, block);
    }

    #[test]
    fn ecb_round_trip(key in key16(), data in proptest::collection::vec(any::<u8>(), 0..8).prop_map(|v| {
        // Expand to whole blocks.
        v.into_iter().flat_map(|b| [b; 16]).collect::<Vec<u8>>()
    })) {
        let cipher = Aes128::new(&key);
        let ct = ecb_encrypt(&cipher, &data).unwrap();
        prop_assert_eq!(ecb_decrypt(&cipher, &ct).unwrap(), data);
    }

    #[test]
    fn cbc_padded_round_trip(key in key16(), iv in any::<[u8; 16]>(), data in proptest::collection::vec(any::<u8>(), 0..200)) {
        let cipher = Aes128::new(&key);
        let ct = cbc_encrypt_padded(&cipher, &iv, &data);
        prop_assert_eq!(ct.len() % 16, 0);
        prop_assert_eq!(cbc_decrypt_padded(&cipher, &iv, &ct).unwrap(), data);
    }

    #[test]
    fn ctr_is_an_involution(key in key16(), nonce in any::<[u8; 16]>(), data in proptest::collection::vec(any::<u8>(), 0..300)) {
        let cipher = Aes128::new(&key);
        let once = ctr_xcrypt(&cipher, &nonce, &data);
        prop_assert_eq!(ctr_xcrypt(&cipher, &nonce, &once), data);
    }

    #[test]
    fn pkcs7_round_trip(data in proptest::collection::vec(any::<u8>(), 0..100), block in 1usize..=32) {
        let padded = pkcs7_pad(&data, block);
        prop_assert_eq!(padded.len() % block, 0);
        prop_assert!(padded.len() > data.len());
        prop_assert_eq!(pkcs7_unpad(&padded, block).unwrap(), data);
    }

    #[test]
    fn cmac_deterministic_and_key_separated(key_a in key16(), key_b in key16(), msg in proptest::collection::vec(any::<u8>(), 0..100)) {
        prop_assert_eq!(aes_cmac_with_key(&key_a, &msg), aes_cmac_with_key(&key_a, &msg));
        if key_a != key_b {
            // Not a theorem, but a 2^-128 event; treat as always true.
            prop_assert_ne!(aes_cmac_with_key(&key_a, &msg), aes_cmac_with_key(&key_b, &msg));
        }
    }

    #[test]
    fn sha256_incremental_matches(data in proptest::collection::vec(any::<u8>(), 0..500), split in 0usize..500) {
        let split = split.min(data.len());
        let mut h = Sha256::new();
        h.update(&data[..split]);
        h.update(&data[split..]);
        prop_assert_eq!(h.finalize(), Sha256::digest(&data));
    }

    #[test]
    fn sha1_incremental_matches(data in proptest::collection::vec(any::<u8>(), 0..500), split in 0usize..500) {
        let split = split.min(data.len());
        let mut h = Sha1::new();
        h.update(&data[..split]);
        h.update(&data[split..]);
        prop_assert_eq!(h.finalize(), Sha1::digest(&data));
    }

    #[test]
    fn hmac_is_deterministic(key in proptest::collection::vec(any::<u8>(), 0..80), msg in proptest::collection::vec(any::<u8>(), 0..200)) {
        prop_assert_eq!(Hmac::<Sha256>::mac(&key, &msg), Hmac::<Sha256>::mac(&key, &msg));
    }

    #[test]
    fn crc32_streaming_matches(data in proptest::collection::vec(any::<u8>(), 0..4200), split in 0usize..4200) {
        let split = split.min(data.len());
        let mut c = Crc32::new();
        c.update(&data[..split]);
        c.update(&data[split..]);
        prop_assert_eq!(c.finalize(), crc32(&data));
    }

    #[test]
    fn ct_eq_matches_eq(a in proptest::collection::vec(any::<u8>(), 0..40), b in proptest::collection::vec(any::<u8>(), 0..40)) {
        prop_assert_eq!(ct_eq(&a, &b), a == b);
    }

    #[test]
    fn mgf1_prefix_stability(seed in proptest::collection::vec(any::<u8>(), 0..40), short in 0usize..50, extra in 0usize..50) {
        let a = mgf1::<Sha256>(&seed, short);
        let b = mgf1::<Sha256>(&seed, short + extra);
        prop_assert_eq!(&a[..], &b[..short]);
    }
}

// RSA proptests use a shared small key: generation dominates runtime.
fn shared_key() -> &'static RsaPrivateKey {
    use std::sync::OnceLock;
    static KEY: OnceLock<RsaPrivateKey> = OnceLock::new();
    KEY.get_or_init(|| RsaPrivateKey::generate(&mut seeded_rng(99), 768))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn rsa_oaep_round_trip(msg in proptest::collection::vec(any::<u8>(), 0..30), seed in any::<u64>()) {
        let key = shared_key();
        let ct = key.public_key().encrypt_oaep(&mut seeded_rng(seed), &msg).unwrap();
        prop_assert_eq!(key.decrypt_oaep(&ct).unwrap(), msg);
    }

    #[test]
    fn rsa_signature_round_trip(msg in proptest::collection::vec(any::<u8>(), 0..200)) {
        let key = shared_key();
        let sig = key.sign_pkcs1v15_sha256(&msg).unwrap();
        prop_assert!(key.public_key().verify_pkcs1v15_sha256(&msg, &sig).is_ok());
    }

    #[test]
    fn rsa_signature_rejects_bit_flips(msg in proptest::collection::vec(any::<u8>(), 1..100), flip in 0usize..768) {
        let key = shared_key();
        let mut sig = key.sign_pkcs1v15_sha256(&msg).unwrap();
        let byte = (flip / 8) % sig.len();
        sig[byte] ^= 1 << (flip % 8);
        prop_assert!(key.public_key().verify_pkcs1v15_sha256(&msg, &sig).is_err());
    }
}
