//! The trust authority: factory keybox issuance records.
//!
//! In the real ecosystem Google provisions manufacturers with keyboxes and
//! therefore knows every `(device id, device key)` pair; the provisioning
//! and license servers authenticate devices against these records. The
//! simulator's [`TrustAuthority`] plays that role: it issues keyboxes for
//! devices and lets the backend servers look device keys and provisioned
//! RSA public keys up.

use std::collections::HashMap;

use parking_lot::RwLock;
use wideleak_cdm::keybox::Keybox;
use wideleak_crypto::rng::{random_array, seeded_rng};
use wideleak_crypto::rsa::RsaPublicKey;
use wideleak_device::catalog::SecurityLevel;

/// Factory and provisioning records shared by the backend servers.
pub struct TrustAuthority {
    device_keys: RwLock<HashMap<Vec<u8>, [u8; 16]>>,
    rsa_keys: RwLock<HashMap<Vec<u8>, RsaPublicKey>>,
    attested_levels: RwLock<HashMap<Vec<u8>, SecurityLevel>>,
    /// Keybox generation per device name: bumped by
    /// [`rotate_keybox`](Self::rotate_keybox), folded into key
    /// derivation so a rotated device gets a fresh device key under the
    /// same identity.
    generations: RwLock<HashMap<String, u64>>,
    seed: u64,
}

impl std::fmt::Debug for TrustAuthority {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "TrustAuthority(devices: {}, provisioned: {})",
            self.device_keys.read().len(),
            self.rsa_keys.read().len()
        )
    }
}

impl TrustAuthority {
    /// Creates an authority whose device keys derive from `seed`.
    pub fn new(seed: u64) -> Self {
        TrustAuthority {
            device_keys: RwLock::new(HashMap::new()),
            rsa_keys: RwLock::new(HashMap::new()),
            attested_levels: RwLock::new(HashMap::new()),
            generations: RwLock::new(HashMap::new()),
            seed,
        }
    }

    /// Issues (or re-issues, idempotently within a keybox generation) a
    /// keybox for a device.
    pub fn issue_keybox(&self, device_name: &str) -> Keybox {
        let generation = self.generations.read().get(device_name).copied().unwrap_or(0);
        self.issue_keybox_at(device_name, generation)
    }

    /// Rotates a device's keybox: the device identity stays, the device
    /// key changes. Existing provisioning records remain (the Device RSA
    /// Key is independent of the keybox).
    pub fn rotate_keybox(&self, device_name: &str) -> Keybox {
        let generation = {
            let mut generations = self.generations.write();
            let g = generations.entry(device_name.to_owned()).or_insert(0);
            *g += 1;
            *g
        };
        self.issue_keybox_at(device_name, generation)
    }

    fn issue_keybox_at(&self, device_name: &str, generation: u64) -> Keybox {
        let mut id_seed = self.seed;
        for b in device_name.bytes() {
            id_seed = id_seed.rotate_left(9) ^ b as u64;
        }
        id_seed ^= generation.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let device_key: [u8; 16] = random_array(&mut seeded_rng(id_seed));
        let keybox = Keybox::issue(device_name.as_bytes(), &device_key);
        self.device_keys.write().insert(keybox.device_id().to_vec(), device_key);
        keybox
    }

    /// Looks up the device key for a device id (provisioning server use).
    pub fn device_key(&self, device_id: &[u8]) -> Option<[u8; 16]> {
        self.device_keys.read().get(device_id).copied()
    }

    /// Records the RSA public key provisioned onto a device.
    pub fn record_rsa_key(&self, device_id: &[u8], key: RsaPublicKey) {
        self.rsa_keys.write().insert(device_id.to_vec(), key);
    }

    /// Looks up a device's provisioned RSA public key (license server use).
    pub fn rsa_key(&self, device_id: &[u8]) -> Option<RsaPublicKey> {
        self.rsa_keys.read().get(device_id).cloned()
    }

    /// Records the security level a device attested (keybox-authenticated)
    /// at provisioning time. The license server uses this to detect
    /// clients claiming a better level than their hardware has — the
    /// "strong verification" the paper notes web browsers lack (§V-C).
    pub fn record_attested_level(&self, device_id: &[u8], level: SecurityLevel) {
        self.attested_levels.write().insert(device_id.to_vec(), level);
    }

    /// The level a device attested at provisioning.
    pub fn attested_level(&self, device_id: &[u8]) -> Option<SecurityLevel> {
        self.attested_levels.read().get(device_id).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn issuance_is_deterministic_per_device() {
        let a = TrustAuthority::new(1);
        let kb1 = a.issue_keybox("nexus-5-unit-1");
        let kb2 = a.issue_keybox("nexus-5-unit-1");
        assert_eq!(kb1.to_bytes(), kb2.to_bytes());
        let kb3 = a.issue_keybox("nexus-5-unit-2");
        assert_ne!(kb1.to_bytes(), kb3.to_bytes());
    }

    #[test]
    fn seeds_separate_authorities() {
        let kb_a = TrustAuthority::new(1).issue_keybox("device");
        let kb_b = TrustAuthority::new(2).issue_keybox("device");
        assert_ne!(kb_a.device_key(), kb_b.device_key());
    }

    #[test]
    fn rotation_changes_the_key_but_not_the_identity() {
        let a = TrustAuthority::new(1);
        let kb1 = a.issue_keybox("phone");
        let kb2 = a.rotate_keybox("phone");
        assert_eq!(kb1.device_id(), kb2.device_id());
        assert_ne!(kb1.device_key(), kb2.device_key());
        // Lookups now resolve to the rotated key, and re-issue is
        // idempotent within the new generation.
        assert_eq!(a.device_key(kb2.device_id()), Some(*kb2.device_key()));
        assert_eq!(a.issue_keybox("phone").to_bytes(), kb2.to_bytes());
    }

    #[test]
    fn device_key_lookup() {
        let a = TrustAuthority::new(3);
        let kb = a.issue_keybox("phone");
        assert_eq!(a.device_key(kb.device_id()), Some(*kb.device_key()));
        assert_eq!(a.device_key(b"unknown-device-id"), None);
    }

    #[test]
    fn rsa_records() {
        use wideleak_bigint::BigUint;
        let a = TrustAuthority::new(4);
        let kb = a.issue_keybox("phone");
        assert!(a.rsa_key(kb.device_id()).is_none());
        let key = RsaPublicKey::new(BigUint::from_u64(3233), BigUint::from_u64(17));
        a.record_rsa_key(kb.device_id(), key.clone());
        assert_eq!(a.rsa_key(kb.device_id()), Some(key));
    }
}
