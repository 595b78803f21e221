//! The re-implemented Widevine key ladder, driven by hook dumps.
//!
//! "Then, we mimic the rest of the key ladder by intercepting Widevine
//! function arguments to recover derivation buffers and encrypted keys.
//! We implement this key ladder to automatically recover the
//! media-related Content Key." (§IV-D)
//!
//! Nothing here calls into the CDM: every step is the attacker's own
//! crypto (from `wideleak-crypto` / `wideleak-cdm::ladder`) applied to
//! dumped buffers.

use wideleak_bmff::types::KeyId;
use wideleak_cdm::keybox::Keybox;
use wideleak_cdm::ladder::derive_session_keys;
use wideleak_cdm::messages::{LicenseResponse, ProvisioningResponse};
use wideleak_cdm::provisioning::unwrap_rsa_key;
use wideleak_cenc::keys::ContentKey;
use wideleak_crypto::aes::Aes128;
use wideleak_crypto::modes::cbc_decrypt_padded;
use wideleak_crypto::rsa::RsaPrivateKey;
use wideleak_device::hooks::CallEvent;

use crate::AttackError;

/// Extracts the provisioning response the CDM received, from the
/// `_oecc31_RewrapDeviceRSAKey` argument dump.
pub fn dumped_provisioning_responses(log: &[CallEvent]) -> Vec<ProvisioningResponse> {
    log.iter()
        .filter(|e| e.function.contains("RewrapDeviceRSAKey"))
        .flat_map(|e| e.args.iter())
        .filter_map(|raw| {
            // L3 dumps the response directly; L1 dumps the TLV envelope
            // (nonce + response) — try both framings.
            ProvisioningResponse::parse(raw).ok().or_else(|| {
                let r = wideleak_cdm::wire::TlvReader::parse(raw).ok()?;
                ProvisioningResponse::parse(r.get(2)?).ok()
            })
        })
        .collect()
}

/// Extracts license responses from `_oecc11_LoadKeys` argument dumps.
pub fn dumped_license_responses(log: &[CallEvent]) -> Vec<LicenseResponse> {
    log.iter()
        .filter(|e| e.function.contains("LoadKeys"))
        .flat_map(|e| e.args.iter())
        .filter_map(|raw| {
            LicenseResponse::parse(raw).ok().or_else(|| {
                let r = wideleak_cdm::wire::TlvReader::parse(raw).ok()?;
                LicenseResponse::parse(r.get(2)?).ok()
            })
        })
        .collect()
}

/// Step 2 of the ladder: recovers the Device RSA Key by unwrapping a
/// dumped provisioning response with the scanned keybox.
///
/// # Errors
///
/// Returns [`AttackError::NoProvisioningTraffic`] when nothing was dumped
/// and [`AttackError::Ladder`] when the keybox does not unwrap it.
pub fn recover_rsa_key(keybox: &Keybox, log: &[CallEvent]) -> Result<RsaPrivateKey, AttackError> {
    let responses = dumped_provisioning_responses(log);
    if responses.is_empty() {
        return Err(AttackError::NoProvisioningTraffic);
    }
    responses
        .iter()
        .find_map(|resp| unwrap_rsa_key(keybox.device_key(), keybox.device_id(), None, resp).ok())
        .ok_or(AttackError::Ladder { step: "provisioning response unwrap" })
}

/// Steps 3–4 of the ladder: for every dumped license response, RSA-OAEP
/// unwraps the session key, re-derives the unwrapping key with AES-CMAC,
/// and decrypts every content key.
///
/// # Errors
///
/// Returns [`AttackError::NoLicenseTraffic`] when nothing was dumped and
/// [`AttackError::Ladder`] when no key could be unwrapped.
pub fn recover_content_keys(
    rsa: &RsaPrivateKey,
    log: &[CallEvent],
) -> Result<Vec<(KeyId, ContentKey)>, AttackError> {
    let responses = dumped_license_responses(log);
    if responses.is_empty() {
        return Err(AttackError::NoLicenseTraffic);
    }
    let mut out: Vec<(KeyId, ContentKey)> = Vec::new();
    for resp in &responses {
        let Ok(raw_session) = rsa.decrypt_oaep(&resp.encrypted_session_key) else { continue };
        let Ok(session_key) = <[u8; 16]>::try_from(raw_session.as_slice()) else { continue };
        let keys = derive_session_keys(&session_key, &resp.enc_context, &resp.mac_context);
        let cipher = Aes128::new(&keys.enc_key);
        for entry in &resp.key_entries {
            let Ok(raw) = cbc_decrypt_padded(&cipher, &entry.iv, &entry.encrypted_key) else {
                continue;
            };
            let Ok(key) = <[u8; 16]>::try_from(raw.as_slice()) else { continue };
            if !out.iter().any(|(kid, _)| *kid == entry.kid) {
                out.push((entry.kid, ContentKey(key)));
            }
        }
    }
    if out.is_empty() {
        return Err(AttackError::Ladder { step: "content key unwrap" });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use wideleak_cdm::oemcrypto::{L3OemCrypto, OemCrypto};
    use wideleak_device::catalog::CdmVersion;
    use wideleak_device::hooks::HookEngine;
    use wideleak_device::memory::ProcessMemory;
    use wideleak_device::net::RemoteEndpoint;
    use wideleak_ott::ecosystem::{Ecosystem, EcosystemConfig};
    use wideleak_ott::license::encode_envelope;

    /// Drives a real provisioning + license exchange against the
    /// ecosystem's servers while recording hooks, then checks the ladder
    /// reproduces the CDM's keys offline.
    #[test]
    fn ladder_recovers_keys_from_real_exchange() {
        let eco = Ecosystem::new(EcosystemConfig::fast_for_tests());
        let hooks = Arc::new(HookEngine::new());
        let memory = Arc::new(ProcessMemory::new("mediaserver"));
        let l3 = L3OemCrypto::new(CdmVersion::new(3, 1, 0), hooks.clone(), memory.clone());
        let keybox = eco.trust().issue_keybox("ladder-victim");
        l3.install_keybox(keybox.clone()).unwrap();

        hooks.start_recording();

        // Provisioning through the real server (lenient app).
        let preq = l3.provisioning_request([7; 16]).unwrap();
        let presp = eco
            .backend()
            .handle("provision/netflix", &preq.to_bytes())
            .map(|raw| ProvisioningResponse::parse(&raw).unwrap())
            .unwrap();
        l3.install_rsa_key([7; 16], &presp).unwrap();

        // License through the real server.
        let token = eco.accounts().subscribe("netflix", "victim");
        let sid = l3.open_session([8; 16]).unwrap();
        let lreq = l3.license_request(sid, "title-001", &[]).unwrap();
        let lresp_raw = eco
            .backend()
            .handle("license/netflix/title-001", &encode_envelope(&token, &lreq.to_bytes()))
            .unwrap();
        let lresp = LicenseResponse::parse(&lresp_raw).unwrap();
        let loaded = l3.load_license(sid, &lresp).unwrap();
        assert!(!loaded.is_empty());

        let log = hooks.stop_recording();

        // The attack: keybox from memory, ladder from dumps.
        let scanned = crate::memscan::recover_keybox(&memory).unwrap();
        assert_eq!(scanned, keybox);
        let rsa = recover_rsa_key(&scanned, &log).unwrap();
        let keys = recover_content_keys(&rsa, &log).unwrap();
        assert_eq!(keys.len(), loaded.len());
        // The recovered keys decrypt what the packager encrypted.
        for (kid, key) in &keys {
            assert!(loaded.contains(kid));
            let label = "netflix/title-001/video-540";
            if *kid == wideleak_ott::content::kid_from_label(label) {
                assert_eq!(*key, wideleak_ott::content::key_from_label(label));
            }
        }
    }

    #[test]
    fn empty_log_yields_typed_errors() {
        let kb = Keybox::issue(b"x", &[1; 16]);
        assert_eq!(recover_rsa_key(&kb, &[]), Err(AttackError::NoProvisioningTraffic));
    }

    #[test]
    fn wrong_keybox_fails_the_unwrap_step() {
        let eco = Ecosystem::new(EcosystemConfig::fast_for_tests());
        let hooks = Arc::new(HookEngine::new());
        let memory = Arc::new(ProcessMemory::new("mediaserver"));
        let l3 = L3OemCrypto::new(CdmVersion::new(3, 1, 0), hooks.clone(), memory);
        l3.install_keybox(eco.trust().issue_keybox("victim-2")).unwrap();
        hooks.start_recording();
        let preq = l3.provisioning_request([1; 16]).unwrap();
        let raw = eco.backend().handle("provision/netflix", &preq.to_bytes()).unwrap();
        l3.install_rsa_key([1; 16], &ProvisioningResponse::parse(&raw).unwrap()).unwrap();
        let log = hooks.stop_recording();

        let wrong = Keybox::issue(b"not-the-victim", &[9; 16]);
        assert_eq!(
            recover_rsa_key(&wrong, &log),
            Err(AttackError::Ladder { step: "provisioning response unwrap" })
        );
    }
}
