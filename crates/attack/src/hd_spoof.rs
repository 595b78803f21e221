//! The §V-C "netflix-1080p" experiment: can an attacker who owns the
//! Device RSA Key simply *claim* L1 and receive HD keys?
//!
//! The paper's future-work section observes that on PCs the
//! `netflix-1080p` project obtained HD on L3 "by just modifying the
//! profiles to be sent to the CDN", implying web deployments lack strong
//! level verification. This module forges an L1-claiming license request
//! signed with the recovered Device RSA Key and reports what the license
//! server hands back under two server configurations:
//!
//! - **Android-like** (`verify_attested_level = true`): the server clamps
//!   the claim to the provisioning-time attestation and the attacker stays
//!   at qHD;
//! - **web-like** (`verify_attested_level = false`): the spoof works and
//!   HD keys leak — reproducing the browser result.

use wideleak_bmff::types::KeyId;
use wideleak_cdm::keybox::Keybox;
use wideleak_cdm::messages::{LicenseRequest, LicenseResponse};
use wideleak_cenc::keys::ContentKey;
use wideleak_crypto::rsa::RsaPrivateKey;
use wideleak_device::catalog::{CdmVersion, DeviceModel, SecurityLevel};
use wideleak_device::net::RemoteEndpoint;
use wideleak_ott::ecosystem::Ecosystem;
use wideleak_ott::license::encode_envelope;

use crate::keyladder::recover_content_keys;
use crate::recover::{attack_app_on, ATTACK_TITLE};
use crate::AttackError;

/// What the HD spoof obtained.
#[derive(Debug, Clone)]
pub struct HdSpoofOutcome {
    /// Content keys the forged request yielded.
    pub content_keys: Vec<(KeyId, ContentKey)>,
    /// The highest resolution those keys unlock for the attacked title.
    pub best_height: Option<u32>,
}

impl HdSpoofOutcome {
    /// Whether any HD (above-qHD) key leaked.
    pub fn got_hd_keys(&self) -> bool {
        self.best_height.is_some_and(|h| h > wideleak_ott::content::L3_MAX_HEIGHT)
    }
}

/// Forges an L1-claiming license request for `slug`/`ATTACK_TITLE` using
/// stolen device credentials, sends it to the real license server, and
/// unwraps whatever comes back with the attacker's own ladder.
///
/// # Errors
///
/// Returns [`AttackError::Playback`] when the server refuses outright and
/// ladder errors when unwrapping fails.
pub fn forge_l1_license(
    eco: &Ecosystem,
    slug: &str,
    keybox: &Keybox,
    rsa: &RsaPrivateKey,
    account_token: &str,
) -> Result<HdSpoofOutcome, AttackError> {
    let mut request = LicenseRequest {
        device_id: keybox.device_id().to_vec(),
        content_id: ATTACK_TITLE.to_owned(),
        key_ids: Vec::new(), // ask for everything
        nonce: [0xD5; 16],
        // The forged profile: a current, L1-class client.
        cdm_version: CdmVersion::new(16, 0, 0),
        security_level: SecurityLevel::L1,
        rsa_signature: Vec::new(),
    };
    request.rsa_signature = rsa
        .sign_pkcs1v15_sha256(&request.body_bytes())
        .map_err(|_| AttackError::Ladder { step: "forged request signing" })?;

    let raw = eco
        .backend()
        .handle(
            &format!("license/{slug}/{ATTACK_TITLE}"),
            &encode_envelope(account_token, &request.to_bytes()),
        )
        .map_err(|reason| AttackError::Playback { reason })?;
    let response =
        LicenseResponse::parse(&raw).map_err(|_| AttackError::Ladder { step: "response parse" })?;

    // Unwrap with the attacker's own ladder implementation, driven by the
    // response itself (no hooks needed — the attacker built the request).
    let fake_event = wideleak_device::hooks::CallEvent {
        library: "attacker".into(),
        function: "_oecc11_LoadKeys".into(),
        args: vec![response.to_bytes()],
        result: None,
    };
    let content_keys = recover_content_keys(rsa, &[fake_event])?;

    let best_height = content_keys
        .iter()
        .filter_map(|(kid, _)| {
            wideleak_ott::content::RESOLUTIONS.iter().find_map(|&(_, h)| {
                let label = format!("{slug}/{ATTACK_TITLE}/video-{h}");
                (wideleak_ott::content::kid_from_label(&label) == *kid).then_some(h)
            })
        })
        .max();
    Ok(HdSpoofOutcome { content_keys, best_height })
}

/// Runs the complete §V-C experiment against one app on the given
/// ecosystem: first the normal qHD attack (to steal credentials), then
/// the forged-L1 follow-up.
///
/// # Errors
///
/// Propagates the credential-theft failures of the base attack.
pub fn hd_spoof_experiment(eco: &Ecosystem, slug: &str) -> Result<HdSpoofOutcome, AttackError> {
    // Step 1: the standard discontinued-device attack yields the keybox
    // and RSA key. Rerun the instrumented playback to harvest them.
    let base = attack_app_on(eco, slug, DeviceModel::nexus_5());
    if !(base.keybox_recovered && base.rsa_key_recovered) {
        return Err(base.failure.unwrap_or(AttackError::KeyboxNotFound));
    }
    // Re-derive the credentials the same way `attack_app_on` did. The
    // outcome does not carry raw keys (by design), so replay the scan and
    // ladder on a fresh instrumented run.
    let stack = eco.boot_device(DeviceModel::nexus_5(), true);
    let app = eco.install_app(&stack, slug, "hd-spoof-attacker");
    stack.device.hook_engine().start_recording();
    app.play(ATTACK_TITLE).map_err(|e| AttackError::Playback { reason: e.to_string() })?;
    let log = stack.device.hook_engine().stop_recording();
    let memory = stack
        .device
        .scan_drm_process_memory()
        .map_err(|e| AttackError::Instrumentation { reason: e.to_string() })?;
    let keybox = crate::memscan::recover_keybox(memory)?;
    let rsa = crate::keyladder::recover_rsa_key(&keybox, &log)?;

    // Step 2: the forged-L1 request with the stolen credentials.
    let token = eco.accounts().subscribe(slug, "hd-spoof-attacker");
    forge_l1_license(eco, slug, &keybox, &rsa, &token)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wideleak_ott::ecosystem::EcosystemConfig;

    #[test]
    fn android_like_server_clamps_the_spoof_to_qhd() {
        let eco = Ecosystem::new(EcosystemConfig::fast_for_tests());
        let outcome = hd_spoof_experiment(&eco, "netflix").unwrap();
        assert!(!outcome.got_hd_keys(), "attestation check must clamp the claim");
        assert_eq!(outcome.best_height, Some(540));
    }

    #[test]
    fn web_like_server_leaks_hd_keys() {
        let eco = Ecosystem::new(EcosystemConfig {
            verify_attested_level: false,
            ..EcosystemConfig::fast_for_tests()
        });
        let outcome = hd_spoof_experiment(&eco, "netflix").unwrap();
        assert!(outcome.got_hd_keys(), "without attestation the forged L1 claim works");
        assert_eq!(outcome.best_height, Some(1080));
        // And the leaked key really is the packager's 1080p key.
        let label = "netflix/title-001/video-1080";
        let hd_kid = wideleak_ott::content::kid_from_label(label);
        let (_, key) = outcome.content_keys.iter().find(|(kid, _)| *kid == hd_kid).unwrap();
        assert_eq!(*key, wideleak_ott::content::key_from_label(label));
    }
}
