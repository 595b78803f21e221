//! Cross-crate pins for the precomputed-context crypto hot path: RSA
//! known-answer vectors through the Montgomery+CRT contexts, and
//! byte-identity of the batched CENC keystream against a from-spec
//! per-block reference.
//!
//! Everything here is deterministic (seeded RNG, fixed OAEP seed), so
//! any future change to the Montgomery/REDC/CRT code that alters a
//! single output byte fails loudly instead of silently corrupting the
//! license path.

use wideleak::bigint::modular::{mod_inv, mod_pow_schoolbook};
use wideleak::bigint::montgomery::CrtContext;
use wideleak::bigint::BigUint;
use wideleak::bmff::types::Subsample;
use wideleak::cenc::ctr::{decrypt_sample, encrypt_sample};
use wideleak::cenc::keys::ContentKey;
use wideleak::crypto::aes::{Aes128, BLOCK_LEN};
use wideleak::crypto::digest::Digest;
use wideleak::crypto::rng::seeded_rng;
use wideleak::crypto::rsa::RsaPrivateKey;
use wideleak::crypto::sha256::Sha256;

/// Seeded 1024-bit key shared by the known-answer tests; generation is
/// deterministic so every derived artifact below is pinnable.
fn fixed_key() -> RsaPrivateKey {
    RsaPrivateKey::generate(&mut seeded_rng(1701), 1024)
}

const FIXED_N_HEX: &str = "90a5bf7861794c936b21c110ed0948236a290f67cf68adc8600485cbbf309776e34711b004b4843f903ebd56ca3d70add44eb4b7d633ac0dca176ac7d0aff00a36667ddf60e8f318b023e2b218bfae176eaa2d46471071be355a5cf775ed8885ed4ed88520d806b5a3ff5e7882ff808852b05546bfbdc4d889b5e0170855fdf9";

const KAT_MSG: &[u8] = b"wideleak known-answer vector";

/// OAEP ciphertext of `KAT_MSG` under `fixed_key()` with seed rng 7.
const KAT_OAEP_CT_HEX: &str = "15183de8cb0a691a5d3d8f0305c371f95f9f0600235075185107aa24fda7e5ac2df825af22a061459fb0fa28457892cb8120c2c8e6055626c76799851e96c86088bf628c911660473a75328d1fb63c21a95ac18d24f021100dc5ca6f2855cdfedc01a2cbf284a933d8f3bffab5940f5d283e4b2d089958638126d023dd26aea3";

/// PKCS#1 v1.5 signature of `KAT_MSG` (deterministic padding).
const KAT_PKCS1_SIG_HEX: &str = "53519463f5ca110f6f0045dbe8ea711ec72aa18ba28e1f47b040891ffb761d9e431cb8c3e95d5b521b8a8c75c9610af817f1601d20f45166c724a360c37dfe6ad02f7b069fca571b421a45b8ab0e67447ef8852460bfbddf9bbf65a769eb7775e24d4845b15c302c5d5dec6963992a7df57e42770a1b83404edb8bed75633936";

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

#[test]
fn rsa_keygen_is_deterministic_and_pinned() {
    let key = fixed_key();
    assert_eq!(key.public_key().modulus().to_hex(), FIXED_N_HEX);
}

/// SHA-256 over the big-endian moduli of the 768-bit keys from seeds
/// 0..16, concatenated: the size of the attack's, stream's and
/// campaign's device keys and of every `--fast` golden.
const KEYGEN_768_MODULI_SHA256: &str =
    "e852c75cfba190c4519cfbd98a45986ae424454e614303aa9f4120a9b170d17b";

/// Modulus of the 2048-bit key from seed 2048: the size of the play
/// workload's device keys.
const KEYGEN_2048_N_HEX: &str = "9941407fe012fb9692cad79511c0014dfa9c51bf1fcbbd9b34ceaa2d4b98a2b7798de230c62ab465a65730fc1e6e7144a86867d85da5067c765f0e1260f4a6c05a23be8e97cde3c622101274d9d73f12f07425e383d98607fbaf1b0e1003fab21ea977fc4f1af44225a225356b7e38b9b7a1bcf97130d28564115be4c4032845247cb9914e4b3f15e84ca7b24c2b40dc34e6fb7132e12ec42746f4d0c269a34dee36f28a21847a65ae4d150ffe9bb217079322411b157a2b907a8436d680d9d7c200f5dfe2be1e0a3808b2a7f7fe18f2ab692cfec41a9518546819bac7b1116c575dda768c66259b65d859d62f42cb71d3ff8b03217e355407d5bf80bc766e73";

#[test]
fn rsa_768_keygen_is_pinned_across_seeds() {
    let mut moduli = Vec::new();
    for seed in 0..16 {
        let key = RsaPrivateKey::generate(&mut seeded_rng(seed), 768);
        moduli.extend(key.public_key().modulus().to_bytes_be_padded(96));
    }
    assert_eq!(hex(&Sha256::digest(&moduli)), KEYGEN_768_MODULI_SHA256);
}

#[test]
fn rsa_2048_keygen_is_pinned() {
    let key = RsaPrivateKey::generate(&mut seeded_rng(2048), 2048);
    assert_eq!(key.public_key().modulus().to_hex(), KEYGEN_2048_N_HEX);
}

#[test]
fn rsa_oaep_known_answer_through_contexts() {
    let key = fixed_key();
    let ct = key.public_key().encrypt_oaep(&mut seeded_rng(7), KAT_MSG).unwrap();
    assert_eq!(hex(&ct), KAT_OAEP_CT_HEX, "OAEP encrypt (Montgomery public context) drifted");
    // Decrypt runs through the CRT + per-prime Montgomery contexts.
    assert_eq!(key.decrypt_oaep(&ct).unwrap(), KAT_MSG);
}

#[test]
fn rsa_pkcs1v15_signature_known_answer() {
    let key = fixed_key();
    let sig = key.sign_pkcs1v15_sha256(KAT_MSG).unwrap();
    assert_eq!(hex(&sig), KAT_PKCS1_SIG_HEX, "PKCS#1 v1.5 signature (CRT context) drifted");
    key.public_key().verify_pkcs1v15_sha256(KAT_MSG, &sig).unwrap();
}

#[test]
fn crt_private_op_matches_schoolbook_on_full_modulus() {
    let key = fixed_key();
    let n = key.public_key().modulus();
    let d = key.private_exponent();
    let (p, q) = key.factors();
    let one = BigUint::one();
    let d_p = d % &(p - &one);
    let d_q = d % &(q - &one);
    let q_inv = mod_inv(q, p).unwrap();
    // The same CRT+Montgomery machinery RsaPrivateKey::precompute builds.
    let crt = CrtContext::new(p, q, &d_p, &d_q, &q_inv);
    // Structured ciphertext values, including the edges.
    for c in [
        BigUint::zero(),
        BigUint::one(),
        BigUint::from_u64(0xDEAD_BEEF),
        n - &one,
        BigUint::from_bytes_be(&[0x5A; 96]),
    ] {
        assert_eq!(
            crt.exp(&c),
            mod_pow_schoolbook(&c, d, n),
            "CRT context and schoolbook disagree on c^d mod n"
        );
    }
}

// --- CENC batched-keystream byte-identity ------------------------------

/// From-spec CENC CTR reference: counter block = 8-byte IV || 64-bit BE
/// block counter, keystream generated one block at a time and running
/// continuously over the encrypted regions (clear bytes consume none).
///
/// Written independently of `wideleak-cenc`'s batched implementation so
/// the two can only agree by actually implementing the same scheme.
fn reference_cenc(
    key: &ContentKey,
    iv: [u8; 8],
    sample: &[u8],
    subsamples: &[Subsample],
) -> Vec<u8> {
    let cipher = Aes128::new(&key.0);
    let mut out = sample.to_vec();
    let mut block_index = 0u64;
    let mut ks = [0u8; BLOCK_LEN];
    let mut ks_used = BLOCK_LEN;
    let mut next_byte = |cipher: &Aes128| {
        if ks_used == BLOCK_LEN {
            ks[..8].copy_from_slice(&iv);
            ks[8..].copy_from_slice(&block_index.to_be_bytes());
            cipher.encrypt_block(&mut ks);
            block_index += 1;
            ks_used = 0;
        }
        ks_used += 1;
        ks[ks_used - 1]
    };
    if subsamples.is_empty() {
        for b in &mut out {
            *b ^= next_byte(&cipher);
        }
        return out;
    }
    let mut offset = 0usize;
    for sub in subsamples {
        offset += sub.clear_bytes as usize;
        for b in &mut out[offset..offset + sub.encrypted_bytes as usize] {
            *b ^= next_byte(&cipher);
        }
        offset += sub.encrypted_bytes as usize;
    }
    out
}

#[test]
fn batched_ctr_matches_from_spec_reference() {
    let key = ContentKey::from_label("crypto-contexts");
    let corpus: &[&[Subsample]] = &[
        &[],
        &[Subsample { clear_bytes: 0, encrypted_bytes: 1 }],
        &[Subsample { clear_bytes: 5, encrypted_bytes: 11 }],
        &[
            Subsample { clear_bytes: 3, encrypted_bytes: 7 },
            Subsample { clear_bytes: 0, encrypted_bytes: 21 },
            Subsample { clear_bytes: 11, encrypted_bytes: 600 },
            Subsample { clear_bytes: 1, encrypted_bytes: 5 },
        ],
        &[
            Subsample { clear_bytes: 97, encrypted_bytes: 903 },
            Subsample { clear_bytes: 16, encrypted_bytes: 512 },
            Subsample { clear_bytes: 0, encrypted_bytes: 15 },
        ],
    ];
    for (case, subs) in corpus.iter().enumerate() {
        let total: usize = if subs.is_empty() {
            2000
        } else {
            subs.iter().map(|s| s.clear_bytes as usize + s.encrypted_bytes as usize).sum()
        };
        let pt: Vec<u8> = (0..total).map(|i| (i * 31 % 251) as u8).collect();
        let iv = [case as u8 + 1; 8];
        let got = encrypt_sample(&key, iv, &pt, subs).unwrap();
        let expected = reference_cenc(&key, iv, &pt, subs);
        assert_eq!(got, expected, "case {case}: batched keystream diverged from spec reference");
        // And the inverse direction restores the plaintext.
        assert_eq!(decrypt_sample(&key, iv, &got, subs).unwrap(), pt, "case {case}");
    }
}
