//! CDM session state and the session-level license logic.
//!
//! A session spans one `openSession()`–`closeSession()` pair in the
//! Android DRM API: it owns a nonce, the derived [`SessionKeys`] after a
//! license loads, and the unwrapped content keys. This module contains the
//! *pure* logic; where it executes (normal world for L3, TEE trustlet for
//! L1) is decided by [`crate::oemcrypto`].

use std::collections::HashMap;

use wideleak_bmff::types::KeyId;
use wideleak_crypto::aes::Aes128;
use wideleak_crypto::ct::ct_eq;
use wideleak_crypto::hmac::Hmac;
use wideleak_crypto::modes::cbc_decrypt_padded;
use wideleak_crypto::rsa::RsaPrivateKey;
use wideleak_crypto::sha256::Sha256;
use wideleak_device::catalog::SecurityLevel;

use crate::ladder::{derive_session_keys, SessionKeys};
use crate::messages::{KeyControl, LicenseResponse};
use crate::CdmError;

/// A loaded content key with its control block.
#[derive(Clone)]
pub struct LoadedKey {
    /// The 16-byte content key.
    pub key: [u8; 16],
    /// Usage restrictions.
    pub control: KeyControl,
    /// CDM logical-clock timestamp when the key loaded.
    pub loaded_at: u64,
}

impl std::fmt::Debug for LoadedKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "LoadedKey(<redacted>, control: {:?})", self.control)
    }
}

/// One open CDM session.
#[derive(Debug, Default)]
pub struct Session {
    /// The nonce bound into this session's license request.
    pub nonce: [u8; 16],
    /// Derived keys, present after a license response loaded.
    pub keys: Option<SessionKeys>,
    /// Content keys unwrapped from the license, by key ID.
    pub content_keys: HashMap<KeyId, LoadedKey>,
}

impl Session {
    /// Creates a session with the given nonce.
    pub fn new(nonce: [u8; 16]) -> Self {
        Session { nonce, keys: None, content_keys: HashMap::new() }
    }

    /// Loads a license response into the session: RSA-OAEP-unwraps the
    /// session key, runs the derivation ladder, verifies the response MAC,
    /// and unwraps every content key whose control block this device
    /// satisfies.
    ///
    /// Returns the key IDs actually loaded.
    ///
    /// # Errors
    ///
    /// Returns [`CdmError::BadSignature`] when the response MAC fails,
    /// [`CdmError::Crypto`] when the session key fails to unwrap, or
    /// [`CdmError::BadMessage`] when a content key blob is malformed.
    pub fn load_license(
        &mut self,
        rsa_key: &RsaPrivateKey,
        device_level: SecurityLevel,
        now: u64,
        response: &LicenseResponse,
    ) -> Result<Vec<KeyId>, CdmError> {
        let session_key_bytes = rsa_key.decrypt_oaep(&response.encrypted_session_key)?;
        let session_key: [u8; 16] = session_key_bytes
            .as_slice()
            .try_into()
            .map_err(|_| CdmError::BadMessage { reason: "session key must be 16 bytes" })?;

        let keys = derive_session_keys(&session_key, &response.enc_context, &response.mac_context);

        let expected = Hmac::<Sha256>::mac(&keys.mac_key_server, &response.body_bytes());
        if !ct_eq(&expected, &response.signature) {
            return Err(CdmError::BadSignature);
        }
        // Anti-replay: the response must echo this session's nonce, so a
        // license captured for one session cannot be replayed into another.
        if response.nonce != self.nonce {
            return Err(CdmError::BadMessage { reason: "license nonce mismatch" });
        }

        let cipher = Aes128::new(&keys.enc_key);
        let mut loaded = Vec::new();
        for entry in &response.key_entries {
            // Defense in depth: never load a key the device's level is not
            // entitled to, even if a server misbehaves.
            if device_level > entry.control.min_security_level {
                continue;
            }
            let raw = cbc_decrypt_padded(&cipher, &entry.iv, &entry.encrypted_key)
                .map_err(|_| CdmError::BadMessage { reason: "content key unwrap failed" })?;
            let key: [u8; 16] = raw
                .as_slice()
                .try_into()
                .map_err(|_| CdmError::BadMessage { reason: "content key must be 16 bytes" })?;
            self.content_keys
                .insert(entry.kid, LoadedKey { key, control: entry.control, loaded_at: now });
            loaded.push(entry.kid);
        }
        self.keys = Some(keys);
        Ok(loaded)
    }

    /// Looks up a loaded content key, enforcing its license duration
    /// against the CDM clock.
    ///
    /// # Errors
    ///
    /// Returns [`CdmError::KeyNotLoaded`] for unknown keys and
    /// [`CdmError::KeyExpired`] once the control block's duration lapses.
    pub fn content_key(&self, kid: &KeyId) -> Result<&LoadedKey, CdmError> {
        self.content_keys.get(kid).ok_or(CdmError::KeyNotLoaded)
    }

    /// Like [`Session::content_key`] but expiry-checked at `now`.
    ///
    /// # Errors
    ///
    /// Returns [`CdmError::KeyNotLoaded`] or [`CdmError::KeyExpired`].
    pub fn content_key_at(&self, kid: &KeyId, now: u64) -> Result<&LoadedKey, CdmError> {
        let key = self.content_key(kid)?;
        let d = key.control.duration_seconds as u64;
        if d != 0 && now >= key.loaded_at + d {
            return Err(CdmError::KeyExpired);
        }
        Ok(key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::KeyEntry;
    use std::sync::OnceLock;
    use wideleak_crypto::modes::cbc_encrypt_padded;
    use wideleak_crypto::rng::seeded_rng;

    fn rsa() -> &'static RsaPrivateKey {
        static KEY: OnceLock<RsaPrivateKey> = OnceLock::new();
        KEY.get_or_init(|| RsaPrivateKey::generate(&mut seeded_rng(77), 768))
    }

    /// Builds a valid license response the way the license server does.
    fn make_response(
        session_key: [u8; 16],
        entries: &[(KeyId, [u8; 16], KeyControl)],
    ) -> LicenseResponse {
        let enc_context = b"enc-ctx".to_vec();
        let mac_context = b"mac-ctx".to_vec();
        let keys = derive_session_keys(&session_key, &enc_context, &mac_context);
        let cipher = Aes128::new(&keys.enc_key);
        let key_entries = entries
            .iter()
            .map(|(kid, key, control)| {
                let iv = [0x42u8; 16];
                KeyEntry {
                    kid: *kid,
                    iv,
                    encrypted_key: cbc_encrypt_padded(&cipher, &iv, key),
                    control: *control,
                }
            })
            .collect();
        let encrypted_session_key =
            rsa().public_key().encrypt_oaep(&mut seeded_rng(5), &session_key).unwrap();
        let mut resp = LicenseResponse {
            nonce: [0; 16],
            encrypted_session_key,
            enc_context,
            mac_context,
            key_entries,
            signature: Vec::new(),
        };
        resp.signature = Hmac::<Sha256>::mac(&keys.mac_key_server, &resp.body_bytes());
        resp
    }

    fn control(level: SecurityLevel) -> KeyControl {
        KeyControl { max_resolution_height: 540, min_security_level: level, duration_seconds: 0 }
    }

    #[test]
    fn load_license_recovers_content_keys() {
        let kid = KeyId([1; 16]);
        let content_key = [0xAB; 16];
        let resp = make_response([9; 16], &[(kid, content_key, control(SecurityLevel::L3))]);
        let mut s = Session::new([0; 16]);
        let loaded = s.load_license(rsa(), SecurityLevel::L3, 0, &resp).unwrap();
        assert_eq!(loaded, vec![kid]);
        assert_eq!(s.content_key(&kid).unwrap().key, content_key);
        assert!(s.keys.is_some());
    }

    #[test]
    fn security_level_gating() {
        let l3_kid = KeyId([1; 16]);
        let l1_kid = KeyId([2; 16]);
        let resp = make_response(
            [9; 16],
            &[
                (l3_kid, [1; 16], control(SecurityLevel::L3)),
                (l1_kid, [2; 16], control(SecurityLevel::L1)),
            ],
        );
        // An L3 device only loads the L3-allowed key.
        let mut s = Session::new([0; 16]);
        let loaded = s.load_license(rsa(), SecurityLevel::L3, 0, &resp).unwrap();
        assert_eq!(loaded, vec![l3_kid]);
        assert!(matches!(s.content_key(&l1_kid), Err(CdmError::KeyNotLoaded)));
        // An L1 device loads both.
        let mut s1 = Session::new([0; 16]);
        let loaded1 = s1.load_license(rsa(), SecurityLevel::L1, 0, &resp).unwrap();
        assert_eq!(loaded1.len(), 2);
    }

    #[test]
    fn tampered_response_rejected() {
        let resp = make_response([9; 16], &[(KeyId([1; 16]), [1; 16], control(SecurityLevel::L3))]);
        let mut tampered = resp.clone();
        tampered.enc_context = b"evil-ctx".to_vec();
        let mut s = Session::new([0; 16]);
        assert_eq!(
            s.load_license(rsa(), SecurityLevel::L3, 0, &tampered),
            Err(CdmError::BadSignature)
        );
    }

    #[test]
    fn tampered_signature_rejected() {
        let mut resp =
            make_response([9; 16], &[(KeyId([1; 16]), [1; 16], control(SecurityLevel::L3))]);
        resp.signature[0] ^= 1;
        let mut s = Session::new([0; 16]);
        assert!(s.load_license(rsa(), SecurityLevel::L3, 0, &resp).is_err());
    }

    #[test]
    fn corrupted_session_key_rejected() {
        let mut resp =
            make_response([9; 16], &[(KeyId([1; 16]), [1; 16], control(SecurityLevel::L3))]);
        resp.encrypted_session_key[5] ^= 0xF0;
        let mut s = Session::new([0; 16]);
        assert!(matches!(
            s.load_license(rsa(), SecurityLevel::L3, 0, &resp),
            Err(CdmError::Crypto(_))
        ));
    }

    #[test]
    fn missing_key_lookup_fails() {
        let s = Session::new([0; 16]);
        assert!(matches!(s.content_key(&KeyId([1; 16])), Err(CdmError::KeyNotLoaded)));
    }

    #[test]
    fn loaded_key_debug_redacts() {
        let lk = LoadedKey { key: [0xCD; 16], control: control(SecurityLevel::L3), loaded_at: 0 };
        let s = format!("{lk:?}");
        assert!(s.contains("redacted"));
        assert!(!s.to_lowercase().contains("cd, "));
    }
}
