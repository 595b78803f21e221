//! RSA: key generation, OAEP encryption (RFC 8017 §7.1) and PKCS#1 v1.5
//! signatures (RFC 8017 §8.2).
//!
//! The Widevine Device RSA Key identified by the paper's reverse
//! engineering is a 2048-bit private key installed during provisioning; it
//! decrypts the session key that the license server wraps with RSA-OAEP,
//! and signs license requests with PKCS#1 v1.5. Both operations are
//! reproduced here over [`wideleak_bigint`].

use wideleak_bigint::modular::{gcd, mod_inv};
use wideleak_bigint::montgomery::{CrtContext, ModExpContext};
use wideleak_bigint::prime::{next_prime_from, DEFAULT_ROUNDS};
use wideleak_bigint::BigUint;

use crate::digest::Digest;
use crate::rng::{random_biguint, Rng};
use crate::sha256::Sha256;
use crate::CryptoError;

/// The public half of an RSA key pair.
///
/// Construction precomputes a Montgomery exponentiation context for `n`,
/// so repeated public operations (signature verification, OAEP
/// encryption) skip the per-call modulus setup.
#[derive(Debug, Clone)]
pub struct RsaPublicKey {
    n: BigUint,
    e: BigUint,
    /// Cached exponentiation context for `n`, built once in `new`.
    ctx: ModExpContext,
}

impl PartialEq for RsaPublicKey {
    fn eq(&self, other: &Self) -> bool {
        // The context is derived from `n`; comparing it would be
        // redundant (and it deliberately has no `PartialEq`).
        self.n == other.n && self.e == other.e
    }
}

impl Eq for RsaPublicKey {}

/// An RSA private key with CRT parameters.
///
/// Construction runs through `RsaPrivateKey::precompute`, which builds
/// the per-prime Montgomery contexts once; every private operation then
/// reuses them.
#[derive(Clone)]
pub struct RsaPrivateKey {
    public: RsaPublicKey,
    d: BigUint,
    p: BigUint,
    q: BigUint,
    /// Precomputed CRT exponentiation contexts for `p` and `q`; also
    /// owns the derived exponents `d_p`, `d_q` and `q_inv`.
    crt: CrtContext,
}

impl PartialEq for RsaPrivateKey {
    fn eq(&self, other: &Self) -> bool {
        self.public == other.public && self.d == other.d && self.p == other.p && self.q == other.q
    }
}

impl Eq for RsaPrivateKey {}

impl std::fmt::Debug for RsaPrivateKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "RsaPrivateKey({} bits, <private exponent redacted>)", self.public.n.bit_len())
    }
}

impl RsaPublicKey {
    /// Builds a public key from raw modulus and exponent, precomputing
    /// the exponentiation context for `n`.
    pub fn new(n: BigUint, e: BigUint) -> Self {
        let ctx = ModExpContext::new(&n);
        RsaPublicKey { n, e, ctx }
    }

    /// The modulus.
    pub fn modulus(&self) -> &BigUint {
        &self.n
    }

    /// The public exponent.
    pub fn exponent(&self) -> &BigUint {
        &self.e
    }

    /// Modulus length in bytes (the width of ciphertexts and signatures).
    pub fn modulus_len(&self) -> usize {
        self.n.bit_len().div_ceil(8)
    }

    /// Raw RSA public operation `m^e mod n` through the cached context.
    fn raw(&self, m: &BigUint) -> BigUint {
        self.ctx.pow(m, &self.e)
    }

    /// Encrypts `message` with RSAES-OAEP (SHA-256, empty label).
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::MessageTooLong`] when the message exceeds the
    /// OAEP capacity (`k - 2*hLen - 2` bytes).
    pub fn encrypt_oaep(&self, rng: &mut Rng, message: &[u8]) -> Result<Vec<u8>, CryptoError> {
        let k = self.modulus_len();
        let h_len = Sha256::OUTPUT_LEN;
        if message.len() + 2 * h_len + 2 > k {
            return Err(CryptoError::MessageTooLong);
        }
        // EM = 0x00 || maskedSeed || maskedDB
        let l_hash = Sha256::digest(&[]);
        let db_len = k - h_len - 1;
        let mut db = vec![0u8; db_len];
        db[..h_len].copy_from_slice(&l_hash);
        db[db_len - message.len() - 1] = 0x01;
        db[db_len - message.len()..].copy_from_slice(message);

        let mut seed = vec![0u8; h_len];
        rng.fill_bytes(&mut seed);

        let db_mask = mgf1::<Sha256>(&seed, db_len);
        for (b, m) in db.iter_mut().zip(&db_mask) {
            *b ^= m;
        }
        let seed_mask = mgf1::<Sha256>(&db, h_len);
        for (b, m) in seed.iter_mut().zip(&seed_mask) {
            *b ^= m;
        }

        let mut em = Vec::with_capacity(k);
        em.push(0x00);
        em.extend_from_slice(&seed);
        em.extend_from_slice(&db);

        let m_int = BigUint::from_bytes_be(&em);
        Ok(self.raw(&m_int).to_bytes_be_padded(k))
    }

    /// Verifies an RSASSA-PSS (SHA-256, salt length = hash length)
    /// signature over `message`.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::BadSignature`] when verification fails.
    pub fn verify_pss_sha256(&self, message: &[u8], signature: &[u8]) -> Result<(), CryptoError> {
        let k = self.modulus_len();
        if signature.len() != k {
            return Err(CryptoError::BadSignature);
        }
        let s = BigUint::from_bytes_be(signature);
        if s >= self.n {
            return Err(CryptoError::BadSignature);
        }
        let em_bits = self.n.bit_len() - 1;
        let em_len = em_bits.div_ceil(8);
        let h_len = Sha256::OUTPUT_LEN;
        let s_len = h_len;
        if em_len < h_len + s_len + 2 {
            return Err(CryptoError::BadSignature);
        }
        let em = self.raw(&s).to_bytes_be_padded(em_len);
        if em[em_len - 1] != 0xbc {
            return Err(CryptoError::BadSignature);
        }
        let (masked_db, rest) = em.split_at(em_len - h_len - 1);
        let h_digest = &rest[..h_len];
        // The leftmost 8*emLen - emBits bits of maskedDB must be zero.
        if masked_db[0] & !(0xff >> (8 * em_len - em_bits)) != 0 {
            return Err(CryptoError::BadSignature);
        }
        let mask = mgf1::<Sha256>(h_digest, masked_db.len());
        let mut db: Vec<u8> = masked_db.iter().zip(&mask).map(|(a, b)| a ^ b).collect();
        db[0] &= 0xff >> (8 * em_len - em_bits);
        // DB = PS(zeros) || 0x01 || salt
        let sep = db.len() - s_len - 1;
        if db[..sep].iter().any(|&b| b != 0) || db[sep] != 0x01 {
            return Err(CryptoError::BadSignature);
        }
        let salt = &db[sep + 1..];
        let m_hash = Sha256::digest(message);
        let mut h = Sha256::new();
        h.update(&[0u8; 8]);
        h.update(&m_hash);
        h.update(salt);
        if crate::ct::ct_eq(&h.finalize(), h_digest) {
            Ok(())
        } else {
            Err(CryptoError::BadSignature)
        }
    }

    /// Verifies a PKCS#1 v1.5 SHA-256 signature over `message`.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::BadSignature`] when verification fails.
    pub fn verify_pkcs1v15_sha256(
        &self,
        message: &[u8],
        signature: &[u8],
    ) -> Result<(), CryptoError> {
        let k = self.modulus_len();
        if signature.len() != k {
            return Err(CryptoError::BadSignature);
        }
        let s = BigUint::from_bytes_be(signature);
        if s >= self.n {
            return Err(CryptoError::BadSignature);
        }
        let em = self.raw(&s).to_bytes_be_padded(k);
        let expected = pkcs1v15_encode_sha256(message, k)?;
        if crate::ct::ct_eq(&em, &expected) {
            Ok(())
        } else {
            Err(CryptoError::BadSignature)
        }
    }
}

impl RsaPrivateKey {
    /// Generates a fresh key of `bits` modulus bits with `e = 65537`.
    ///
    /// Generation is deterministic given the generator state, which is how
    /// the simulator provisions reproducible device keys.
    ///
    /// # Panics
    ///
    /// Panics if `bits < 128` (too small for the prime search to make
    /// sense; real Widevine uses 2048).
    pub fn generate(rng: &mut Rng, bits: usize) -> Self {
        assert!(bits >= 128, "RSA modulus must be at least 128 bits");
        let e = BigUint::from_u64(65537);
        loop {
            let p = gen_prime(rng, bits / 2);
            let q = gen_prime(rng, bits - bits / 2);
            if p == q {
                continue;
            }
            let n = &p * &q;
            if n.bit_len() != bits {
                continue;
            }
            let one = BigUint::one();
            let phi = &(&p - &one) * &(&q - &one);
            if !gcd(&e, &phi).is_one() {
                continue;
            }
            let d = mod_inv(&e, &phi).expect("e is invertible mod phi");
            return Self::precompute(RsaPublicKey::new(n, e), d, p, q)
                .expect("p, q are distinct primes");
        }
    }

    /// The constructor seam: derives the CRT parameters (`d_p`, `d_q`,
    /// `q_inv`) and builds the per-prime Montgomery contexts exactly
    /// once. Every constructor funnels through here, so a constructed
    /// key always carries its precomputed [`CrtContext`].
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidKey`] when `q` has no inverse
    /// modulo `p` (the factors are not coprime).
    fn precompute(
        public: RsaPublicKey,
        d: BigUint,
        p: BigUint,
        q: BigUint,
    ) -> Result<Self, CryptoError> {
        let one = BigUint::one();
        let d_p = &d % &(&p - &one);
        let d_q = &d % &(&q - &one);
        let q_inv = mod_inv(&q, &p).ok_or(CryptoError::InvalidKey)?;
        let crt = CrtContext::new(&p, &q, &d_p, &d_q, &q_inv);
        Ok(RsaPrivateKey { public, d, p, q, crt })
    }

    /// Reconstructs a private key from its raw components (used when the
    /// attack crate replays a provisioning response it intercepted).
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidKey`] if the components are
    /// inconsistent (`n != p*q` or `e*d != 1 mod lcm(p-1, q-1)` spot check).
    pub fn from_components(
        n: BigUint,
        e: BigUint,
        d: BigUint,
        p: BigUint,
        q: BigUint,
    ) -> Result<Self, CryptoError> {
        if &p * &q != n {
            return Err(CryptoError::InvalidKey);
        }
        let one = BigUint::one();
        let p1 = &p - &one;
        let q1 = &q - &one;
        // e*d = 1 (mod p-1) and (mod q-1) is implied by correctness.
        if &(&e * &d) % &p1 != one || &(&e * &d) % &q1 != one {
            return Err(CryptoError::InvalidKey);
        }
        Self::precompute(RsaPublicKey::new(n, e), d, p, q)
    }

    /// The corresponding public key.
    pub fn public_key(&self) -> &RsaPublicKey {
        &self.public
    }

    /// The private exponent (exposed for the attack crate, which serializes
    /// recovered keys; a production library would not export this).
    pub fn private_exponent(&self) -> &BigUint {
        &self.d
    }

    /// The prime factors `(p, q)`.
    pub fn factors(&self) -> (&BigUint, &BigUint) {
        (&self.p, &self.q)
    }

    /// Raw RSA private operation via the precomputed CRT context.
    fn raw(&self, c: &BigUint) -> BigUint {
        self.crt.exp(c)
    }

    /// Decrypts an RSAES-OAEP (SHA-256) ciphertext.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::DecryptionFailed`] on any structural
    /// mismatch; the error is deliberately unified to avoid oracle
    /// distinctions.
    pub fn decrypt_oaep(&self, ciphertext: &[u8]) -> Result<Vec<u8>, CryptoError> {
        let k = self.public.modulus_len();
        let h_len = Sha256::OUTPUT_LEN;
        if ciphertext.len() != k || k < 2 * h_len + 2 {
            return Err(CryptoError::DecryptionFailed);
        }
        let c = BigUint::from_bytes_be(ciphertext);
        if c >= self.public.n {
            return Err(CryptoError::DecryptionFailed);
        }
        let em = self.raw(&c).to_bytes_be_padded(k);

        let (first, rest) = em.split_first().expect("em is k bytes");
        let (seed_masked, db_masked) = rest.split_at(h_len);
        let seed_mask = mgf1::<Sha256>(db_masked, h_len);
        let seed: Vec<u8> = seed_masked.iter().zip(&seed_mask).map(|(a, b)| a ^ b).collect();
        let db_mask = mgf1::<Sha256>(&seed, k - h_len - 1);
        let db: Vec<u8> = db_masked.iter().zip(&db_mask).map(|(a, b)| a ^ b).collect();

        let l_hash = Sha256::digest(&[]);
        let mut ok = *first == 0x00;
        ok &= crate::ct::ct_eq(&db[..h_len], &l_hash);

        // Find the 0x01 separator after the zero padding.
        let mut sep_index = None;
        for (i, &b) in db[h_len..].iter().enumerate() {
            match b {
                0x00 => continue,
                0x01 => {
                    sep_index = Some(h_len + i);
                    break;
                }
                _ => {
                    ok = false;
                    break;
                }
            }
        }
        match (ok, sep_index) {
            (true, Some(idx)) => Ok(db[idx + 1..].to_vec()),
            _ => Err(CryptoError::DecryptionFailed),
        }
    }

    /// Signs `message` with RSASSA-PKCS1-v1_5 over SHA-256.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::MessageTooLong`] for absurdly small moduli
    /// that cannot hold the DigestInfo encoding.
    pub fn sign_pkcs1v15_sha256(&self, message: &[u8]) -> Result<Vec<u8>, CryptoError> {
        let k = self.public.modulus_len();
        let em = pkcs1v15_encode_sha256(message, k)?;
        let m = BigUint::from_bytes_be(&em);
        Ok(self.raw(&m).to_bytes_be_padded(k))
    }

    /// Signs `message` with RSASSA-PSS over SHA-256 (RFC 8017 §8.1),
    /// salt length = hash length.
    ///
    /// Recent OEMCrypto revisions sign license requests with PSS; the
    /// simulator keeps both schemes available so legacy (v1.5) and current
    /// CDMs can be modelled side by side.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::MessageTooLong`] when the modulus is too
    /// small for the encoding.
    pub fn sign_pss_sha256(&self, rng: &mut Rng, message: &[u8]) -> Result<Vec<u8>, CryptoError> {
        let k = self.public.modulus_len();
        let em_bits = self.public.n.bit_len() - 1;
        let em_len = em_bits.div_ceil(8);
        let h_len = Sha256::OUTPUT_LEN;
        let s_len = h_len;
        if em_len < h_len + s_len + 2 {
            return Err(CryptoError::MessageTooLong);
        }
        let m_hash = Sha256::digest(message);
        let mut salt = vec![0u8; s_len];
        rng.fill_bytes(&mut salt);

        // M' = 0x00*8 || mHash || salt ; H = Hash(M')
        let mut h = Sha256::new();
        h.update(&[0u8; 8]);
        h.update(&m_hash);
        h.update(&salt);
        let h_digest = h.finalize();

        // DB = PS || 0x01 || salt, masked with MGF1(H).
        let db_len = em_len - h_len - 1;
        let mut db = vec![0u8; db_len];
        db[db_len - s_len - 1] = 0x01;
        db[db_len - s_len..].copy_from_slice(&salt);
        let mask = mgf1::<Sha256>(&h_digest, db_len);
        for (b, m) in db.iter_mut().zip(&mask) {
            *b ^= m;
        }
        // Clear the leftmost 8*emLen - emBits bits.
        db[0] &= 0xff >> (8 * em_len - em_bits);

        let mut em = Vec::with_capacity(em_len);
        em.extend_from_slice(&db);
        em.extend_from_slice(&h_digest);
        em.push(0xbc);

        let m_int = BigUint::from_bytes_be(&em);
        Ok(self.raw(&m_int).to_bytes_be_padded(k))
    }
}

/// DER DigestInfo prefix for SHA-256 (RFC 8017 §9.2 note 1).
const SHA256_DIGEST_INFO: [u8; 19] = [
    0x30, 0x31, 0x30, 0x0d, 0x06, 0x09, 0x60, 0x86, 0x48, 0x01, 0x65, 0x03, 0x04, 0x02, 0x01, 0x05,
    0x00, 0x04, 0x20,
];

fn pkcs1v15_encode_sha256(message: &[u8], k: usize) -> Result<Vec<u8>, CryptoError> {
    let digest = Sha256::digest(message);
    let t_len = SHA256_DIGEST_INFO.len() + digest.len();
    if k < t_len + 11 {
        return Err(CryptoError::MessageTooLong);
    }
    let mut em = Vec::with_capacity(k);
    em.push(0x00);
    em.push(0x01);
    em.extend(std::iter::repeat_n(0xff, k - t_len - 3));
    em.push(0x00);
    em.extend_from_slice(&SHA256_DIGEST_INFO);
    em.extend_from_slice(&digest);
    Ok(em)
}

/// MGF1 mask generation (RFC 8017 Appendix B.2.1).
pub fn mgf1<D: Digest>(seed: &[u8], len: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(len);
    let mut counter = 0u32;
    while out.len() < len {
        let mut h = D::new();
        h.update(seed);
        h.update(&counter.to_be_bytes());
        out.extend_from_slice(&h.finalize());
        counter += 1;
    }
    out.truncate(len);
    out
}

fn gen_prime(rng: &mut Rng, bits: usize) -> BigUint {
    let mut candidate = random_biguint(rng, bits);
    if candidate.is_even() {
        candidate = &candidate + &BigUint::one();
    }
    next_prime_from(&candidate, DEFAULT_ROUNDS)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::seeded_rng;
    use std::sync::OnceLock;

    /// A 768-bit key is plenty for tests and much faster to generate.
    fn test_key() -> &'static RsaPrivateKey {
        static KEY: OnceLock<RsaPrivateKey> = OnceLock::new();
        KEY.get_or_init(|| RsaPrivateKey::generate(&mut seeded_rng(0x71DE), 768))
    }

    #[test]
    fn generation_is_deterministic() {
        let a = RsaPrivateKey::generate(&mut seeded_rng(11), 256);
        let b = RsaPrivateKey::generate(&mut seeded_rng(11), 256);
        assert_eq!(a.public_key(), b.public_key());
        let c = RsaPrivateKey::generate(&mut seeded_rng(12), 256);
        assert_ne!(a.public_key(), c.public_key());
    }

    #[test]
    fn modulus_has_requested_bits() {
        let key = RsaPrivateKey::generate(&mut seeded_rng(3), 512);
        assert_eq!(key.public_key().modulus().bit_len(), 512);
        assert_eq!(key.public_key().modulus_len(), 64);
    }

    #[test]
    fn oaep_round_trip() {
        let key = test_key();
        let mut rng = seeded_rng(1);
        for msg in [&b""[..], b"k", b"sixteen byte key", b"thirty byte session key padded"] {
            let ct = key.public_key().encrypt_oaep(&mut rng, msg).unwrap();
            assert_eq!(ct.len(), key.public_key().modulus_len());
            assert_eq!(key.decrypt_oaep(&ct).unwrap(), msg);
        }
    }

    #[test]
    fn oaep_is_randomized() {
        let key = test_key();
        let mut rng = seeded_rng(2);
        let a = key.public_key().encrypt_oaep(&mut rng, b"same").unwrap();
        let b = key.public_key().encrypt_oaep(&mut rng, b"same").unwrap();
        assert_ne!(a, b);
        assert_eq!(key.decrypt_oaep(&a).unwrap(), b"same");
        assert_eq!(key.decrypt_oaep(&b).unwrap(), b"same");
    }

    #[test]
    fn oaep_rejects_oversized_message() {
        let key = test_key();
        let k = key.public_key().modulus_len();
        let too_long = vec![0u8; k - 2 * 32 - 1];
        assert_eq!(
            key.public_key().encrypt_oaep(&mut seeded_rng(0), &too_long),
            Err(CryptoError::MessageTooLong)
        );
    }

    #[test]
    fn oaep_rejects_tampered_ciphertext() {
        let key = test_key();
        let mut ct = key.public_key().encrypt_oaep(&mut seeded_rng(4), b"content key").unwrap();
        ct[10] ^= 0x40;
        assert_eq!(key.decrypt_oaep(&ct), Err(CryptoError::DecryptionFailed));
    }

    #[test]
    fn oaep_rejects_wrong_length() {
        let key = test_key();
        assert_eq!(key.decrypt_oaep(&[0u8; 10]), Err(CryptoError::DecryptionFailed));
    }

    #[test]
    fn sign_verify_round_trip() {
        let key = test_key();
        let sig = key.sign_pkcs1v15_sha256(b"license request").unwrap();
        assert_eq!(sig.len(), key.public_key().modulus_len());
        key.public_key().verify_pkcs1v15_sha256(b"license request", &sig).unwrap();
    }

    #[test]
    fn verify_rejects_wrong_message() {
        let key = test_key();
        let sig = key.sign_pkcs1v15_sha256(b"original").unwrap();
        assert_eq!(
            key.public_key().verify_pkcs1v15_sha256(b"forged", &sig),
            Err(CryptoError::BadSignature)
        );
    }

    #[test]
    fn verify_rejects_tampered_signature() {
        let key = test_key();
        let mut sig = key.sign_pkcs1v15_sha256(b"msg").unwrap();
        sig[0] ^= 1;
        assert_eq!(
            key.public_key().verify_pkcs1v15_sha256(b"msg", &sig),
            Err(CryptoError::BadSignature)
        );
    }

    #[test]
    fn verify_rejects_wrong_length_signature() {
        let key = test_key();
        assert_eq!(
            key.public_key().verify_pkcs1v15_sha256(b"msg", &[1, 2, 3]),
            Err(CryptoError::BadSignature)
        );
    }

    #[test]
    fn from_components_round_trip() {
        let key = test_key();
        let (p, q) = key.factors();
        let rebuilt = RsaPrivateKey::from_components(
            key.public_key().modulus().clone(),
            key.public_key().exponent().clone(),
            key.private_exponent().clone(),
            p.clone(),
            q.clone(),
        )
        .unwrap();
        let sig = rebuilt.sign_pkcs1v15_sha256(b"rebuilt").unwrap();
        key.public_key().verify_pkcs1v15_sha256(b"rebuilt", &sig).unwrap();
    }

    #[test]
    fn from_components_rejects_mismatched_factors() {
        let key = test_key();
        let (p, _) = key.factors();
        let err = RsaPrivateKey::from_components(
            key.public_key().modulus().clone(),
            key.public_key().exponent().clone(),
            key.private_exponent().clone(),
            p.clone(),
            p.clone(),
        );
        assert_eq!(err.unwrap_err(), CryptoError::InvalidKey);
    }

    #[test]
    fn pss_sign_verify_round_trip() {
        let key = test_key();
        let mut rng = seeded_rng(31);
        for msg in [&b""[..], b"license request", &[0xAB; 500]] {
            let sig = key.sign_pss_sha256(&mut rng, msg).unwrap();
            key.public_key().verify_pss_sha256(msg, &sig).unwrap();
        }
    }

    #[test]
    fn pss_is_randomized_but_both_verify() {
        let key = test_key();
        let mut rng = seeded_rng(32);
        let a = key.sign_pss_sha256(&mut rng, b"same message").unwrap();
        let b = key.sign_pss_sha256(&mut rng, b"same message").unwrap();
        assert_ne!(a, b, "fresh salt per signature");
        key.public_key().verify_pss_sha256(b"same message", &a).unwrap();
        key.public_key().verify_pss_sha256(b"same message", &b).unwrap();
    }

    #[test]
    fn pss_rejects_wrong_message_and_tampering() {
        let key = test_key();
        let mut sig = key.sign_pss_sha256(&mut seeded_rng(33), b"original").unwrap();
        assert_eq!(
            key.public_key().verify_pss_sha256(b"forged", &sig),
            Err(CryptoError::BadSignature)
        );
        sig[5] ^= 1;
        assert_eq!(
            key.public_key().verify_pss_sha256(b"original", &sig),
            Err(CryptoError::BadSignature)
        );
        assert_eq!(
            key.public_key().verify_pss_sha256(b"original", &[0u8; 4]),
            Err(CryptoError::BadSignature)
        );
    }

    #[test]
    fn pss_and_pkcs1v15_signatures_are_not_interchangeable() {
        let key = test_key();
        let pss = key.sign_pss_sha256(&mut seeded_rng(34), b"msg").unwrap();
        assert!(key.public_key().verify_pkcs1v15_sha256(b"msg", &pss).is_err());
        let v15 = key.sign_pkcs1v15_sha256(b"msg").unwrap();
        assert!(key.public_key().verify_pss_sha256(b"msg", &v15).is_err());
    }

    #[test]
    fn mgf1_known_properties() {
        let a = mgf1::<Sha256>(b"seed", 10);
        let b = mgf1::<Sha256>(b"seed", 40);
        assert_eq!(a, b[..10], "MGF1 output is a prefix-stable stream");
        assert_eq!(mgf1::<Sha256>(b"seed", 0), Vec::<u8>::new());
        assert_ne!(mgf1::<Sha256>(b"seed-a", 16), mgf1::<Sha256>(b"seed-b", 16));
    }

    #[test]
    fn debug_redacts_private_key() {
        let s = format!("{:?}", test_key());
        assert!(s.contains("redacted"));
    }
}
