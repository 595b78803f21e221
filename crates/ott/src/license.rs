//! The license server: authenticates devices, applies app policy, and
//! wraps content keys.
//!
//! For every request the server verifies the Device RSA signature against
//! the trust authority's provisioning records, checks the subscriber
//! token, optionally applies revocation (per app), gates HD keys on the
//! device's security level (the reason L3 playback tops out at 540p), and
//! returns the content keys wrapped under the session key ladder.

use std::sync::Arc;

use wideleak_bmff::types::KeyId;
use wideleak_cdm::ladder::derive_session_keys;
use wideleak_cdm::messages::{KeyControl, KeyEntry, LicenseRequest, LicenseResponse};
use wideleak_cdm::wire::{TlvReader, TlvWriter};
use wideleak_crypto::aes::Aes128;
use wideleak_crypto::hmac::Hmac;
use wideleak_crypto::modes::cbc_encrypt_padded;
use wideleak_crypto::rng::{random_array, seeded_rng};
use wideleak_crypto::sha256::Sha256;
use wideleak_device::catalog::SecurityLevel;

use crate::accounts::AccountRegistry;
use crate::content::{
    key_from_label, kid_from_label, track_key_label, AudioProtection, TrackSelector, L3_MAX_HEIGHT,
    RESOLUTIONS,
};
use crate::provisioning::REVOCATION_FLOOR;
use crate::trust::TrustAuthority;
use crate::OttError;

/// Default license duration in seconds (one day, renewable).
pub const DEFAULT_LICENSE_DURATION_SECS: u32 = 86_400;

/// Per-app licensing policy (derived from the app profile).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LicensePolicy {
    /// How audio is protected (decides which key labels exist).
    pub audio: AudioProtection,
    /// Whether the app honours the revocation list.
    pub enforce_revocation: bool,
    /// Whether the app licenses a non-DASH "URI channel" key used to
    /// protect manifest links (Netflix's secure channel).
    pub uri_channel: bool,
}

/// The license envelope an app posts to `license/<app>/<title>`: its
/// account token under TLV tag 1, then the CDM's license request under
/// tag 2.
#[must_use]
pub fn encode_envelope(token: &str, request: &[u8]) -> Vec<u8> {
    let mut w = TlvWriter::new();
    w.string(1, token).bytes(2, request);
    w.finish()
}

/// Splits a license envelope into its account token and its license
/// request bytes.
///
/// # Errors
///
/// [`OttError::Protocol`] when the body is not a TLV stream or lacks
/// either field.
pub fn parse_envelope(body: &[u8]) -> Result<(String, &[u8]), OttError> {
    let protocol = |reason: &str| OttError::Protocol { reason: reason.into() };
    let r = TlvReader::parse(body).map_err(|_| protocol("bad license envelope"))?;
    let token = r.require_string(1).map_err(|_| protocol("missing account token"))?;
    let request = r.require(2).map_err(|_| protocol("missing license request"))?;
    Ok((token, request))
}

/// The key label of an app's non-DASH URI-protection channel.
pub fn uri_channel_label(app: &str, title_id: &str) -> String {
    format!("{app}/{title_id}/uri")
}

/// The license server.
pub struct LicenseServer {
    trust: Arc<TrustAuthority>,
    accounts: Arc<AccountRegistry>,
    /// Whether to cross-check the claimed security level against the
    /// provisioning-time attestation (Android does; per the paper's §V-C,
    /// web-browser deployments effectively do not).
    verify_attested_level: bool,
    seed: u64,
}

impl std::fmt::Debug for LicenseServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "LicenseServer(floor: {REVOCATION_FLOOR})")
    }
}

impl LicenseServer {
    /// A license server for a trust authority and an account registry,
    /// seeding session-key and IV generation from `seed`.
    /// `verify_attested_level` clamps claimed security levels to the
    /// provisioning-time attestation, as Android deployments do; the
    /// web-browser-like deployments of §V-C pass `false`.
    #[must_use]
    pub fn new(
        trust: Arc<TrustAuthority>,
        accounts: Arc<AccountRegistry>,
        verify_attested_level: bool,
        seed: u64,
    ) -> Self {
        LicenseServer { trust, accounts, verify_attested_level, seed }
    }

    /// The control block for a key label (video heights gate on L1).
    fn control_for(label: &str) -> KeyControl {
        for (_, h) in RESOLUTIONS {
            if label.ends_with(&format!("/video-{h}")) {
                return KeyControl {
                    max_resolution_height: h,
                    min_security_level: if h > L3_MAX_HEIGHT {
                        SecurityLevel::L1
                    } else {
                        SecurityLevel::L3
                    },
                    duration_seconds: DEFAULT_LICENSE_DURATION_SECS,
                };
            }
        }
        // Audio keys are playable at any level.
        KeyControl {
            max_resolution_height: 0,
            min_security_level: SecurityLevel::L3,
            duration_seconds: DEFAULT_LICENSE_DURATION_SECS,
        }
    }

    /// All key labels that exist for `(app, title)` under a policy.
    fn labels_for(app: &str, title_id: &str, policy: LicensePolicy) -> Vec<String> {
        let mut labels: Vec<String> = RESOLUTIONS
            .iter()
            .filter_map(|&(_, h)| {
                track_key_label(app, title_id, &TrackSelector::Video { height: h }, policy.audio)
            })
            .collect();
        if let Some(audio) = track_key_label(
            app,
            title_id,
            &TrackSelector::Audio { lang: "en".into() },
            policy.audio,
        ) {
            if !labels.contains(&audio) {
                labels.push(audio);
            }
        }
        if policy.uri_channel {
            labels.push(uri_channel_label(app, title_id));
        }
        labels
    }

    /// Handles one license request for `(app, title)`.
    ///
    /// # Errors
    ///
    /// Returns [`OttError::Unauthorized`] for invalid tokens, signatures
    /// or unprovisioned devices; [`OttError::DeviceRevoked`] under
    /// enforcement; [`OttError::NotFound`] when no requested key exists.
    pub fn issue_license(
        &self,
        app: &str,
        title_id: &str,
        policy: LicensePolicy,
        account_token: &str,
        request: &LicenseRequest,
    ) -> Result<LicenseResponse, OttError> {
        if !self.accounts.is_valid(account_token) {
            return Err(OttError::Unauthorized);
        }
        let device_rsa = self.trust.rsa_key(&request.device_id).ok_or(OttError::Unauthorized)?;
        device_rsa
            .verify_pkcs1v15_sha256(&request.body_bytes(), &request.rsa_signature)
            .map_err(|_| OttError::Unauthorized)?;
        if policy.enforce_revocation && request.cdm_version < REVOCATION_FLOOR {
            return Err(OttError::DeviceRevoked { cdm_version: request.cdm_version.to_string() });
        }
        // Effective security level: a client may claim any level, but when
        // attestation checking is on, claims stronger than the
        // provisioning-time attestation are clamped to the attested level.
        let effective_level = if self.verify_attested_level {
            match self.trust.attested_level(&request.device_id) {
                Some(attested) if request.security_level < attested => attested,
                _ => request.security_level,
            }
        } else {
            request.security_level
        };

        // Resolve requested key ids against this app/title's labels.
        let labels = Self::labels_for(app, title_id, policy);
        let available: Vec<(KeyId, String)> =
            labels.into_iter().map(|l| (kid_from_label(&l), l)).collect();

        let selected: Vec<&(KeyId, String)> = if request.key_ids.is_empty() {
            // No explicit key ids: serve everything the level permits.
            available.iter().collect()
        } else {
            available.iter().filter(|(kid, _)| request.key_ids.contains(kid)).collect()
        };
        if selected.is_empty() {
            return Err(OttError::NotFound { what: format!("keys for {title_id}") });
        }
        // HD keys never leave the server for sub-L1 requesters.
        let plan: Vec<(&KeyId, &String, KeyControl)> = selected
            .into_iter()
            .map(|(kid, label)| (kid, label, Self::control_for(label)))
            .filter(|(_, _, control)| effective_level <= control.min_security_level)
            .collect();
        if plan.is_empty() {
            return Err(OttError::NotFound {
                what: format!("keys for {title_id} at {}", request.security_level),
            });
        }

        if wideleak_telemetry::is_enabled() {
            // Narrow (per-tier) requests are the license-churn signal the
            // adaptation study watches; open requests cover every tier.
            if request.key_ids.is_empty() {
                wideleak_telemetry::incr("license.issued.open");
            } else {
                wideleak_telemetry::incr("license.issued.narrow");
            }
            wideleak_telemetry::add("license.keys_served", plan.len() as u64);
        }

        // Session key, IVs and wraps are all seeded from the request
        // nonce, so no two exchanges share response bytes.
        let mut rng = seeded_rng(
            self.seed ^ u64::from_be_bytes(request.nonce[..8].try_into().expect("8 bytes")),
        );
        let session_key: [u8; 16] = random_array(&mut rng);
        let enc_context = format!("ENC|{app}|{title_id}").into_bytes();
        let mac_context = format!("MAC|{app}|{title_id}").into_bytes();
        let keys = derive_session_keys(&session_key, &enc_context, &mac_context);
        let cipher = Aes128::new(&keys.enc_key);

        let key_entries: Vec<KeyEntry> = plan
            .into_iter()
            .map(|(kid, label, control)| {
                let iv: [u8; 16] = random_array(&mut rng);
                KeyEntry {
                    kid: *kid,
                    iv,
                    encrypted_key: cbc_encrypt_padded(&cipher, &iv, &key_from_label(label).0),
                    control,
                }
            })
            .collect();

        let encrypted_session_key = device_rsa
            .encrypt_oaep(&mut rng, &session_key)
            .map_err(|e| OttError::Protocol { reason: format!("session key wrap: {e}") })?;
        let mut resp = LicenseResponse {
            nonce: request.nonce,
            encrypted_session_key,
            enc_context,
            mac_context,
            key_entries,
            signature: Vec::new(),
        };
        resp.signature = Hmac::<Sha256>::mac(&keys.mac_key_server, &resp.body_bytes());
        Ok(resp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::provisioning::ProvisioningServer;
    use wideleak_cdm::messages::ProvisioningRequest;
    use wideleak_cdm::provisioning::unwrap_rsa_key;
    use wideleak_crypto::cmac::aes_cmac_with_key;
    use wideleak_crypto::rsa::RsaPrivateKey;
    use wideleak_device::catalog::CdmVersion;

    struct Fixture {
        license: LicenseServer,
        accounts: Arc<AccountRegistry>,
        rsa: RsaPrivateKey,
        device_id: Vec<u8>,
    }

    #[test]
    fn the_envelope_is_token_then_request_and_parses_back() {
        let body = encode_envelope("tok", &[7, 8]);
        assert_eq!(body, [0, 1, 0, 0, 0, 3, b't', b'o', b'k', 0, 2, 0, 0, 0, 2, 7, 8]);
        assert_eq!(parse_envelope(&body).unwrap(), ("tok".to_owned(), &[7u8, 8][..]));
        for (body, reason) in [
            (&body[..4], "bad license envelope"),
            (&body[9..], "missing account token"),
            (&body[..9], "missing license request"),
        ] {
            assert_eq!(
                parse_envelope(body).unwrap_err(),
                OttError::Protocol { reason: reason.into() }
            );
        }
    }

    fn fixture() -> Fixture {
        let trust = Arc::new(TrustAuthority::new(42));
        let accounts = Arc::new(AccountRegistry::new());
        let prov = ProvisioningServer::new(trust.clone(), 768, 1000);
        // Provision a device so the license server knows its RSA key.
        let kb = trust.issue_keybox("test-device");
        let mut preq = ProvisioningRequest {
            device_id: kb.device_id().to_vec(),
            cdm_version: CdmVersion::new(3, 1, 0),
            // Attest L1: tests claim both L1 and L3 (weaker claims are
            // always allowed; stronger ones are clamped).
            security_level: SecurityLevel::L1,
            nonce: [1; 16],
            signature: [0; 16],
        };
        preq.signature = aes_cmac_with_key(kb.device_key(), &preq.body_bytes());
        let presp = prov.provision(&preq, false).unwrap();
        let rsa = unwrap_rsa_key(kb.device_key(), kb.device_id(), None, &presp).unwrap();
        let license = LicenseServer::new(trust, accounts.clone(), true, 7);
        Fixture { license, accounts, rsa, device_id: kb.device_id().to_vec() }
    }

    fn signed_request(
        f: &Fixture,
        key_ids: Vec<KeyId>,
        level: SecurityLevel,
        version: CdmVersion,
    ) -> LicenseRequest {
        let mut req = LicenseRequest {
            device_id: f.device_id.clone(),
            content_id: "title-001".into(),
            key_ids,
            nonce: [3; 16],
            cdm_version: version,
            security_level: level,
            rsa_signature: Vec::new(),
        };
        req.rsa_signature = f.rsa.sign_pkcs1v15_sha256(&req.body_bytes()).unwrap();
        req
    }

    fn policy(audio: AudioProtection, enforce: bool) -> LicensePolicy {
        LicensePolicy { audio, enforce_revocation: enforce, uri_channel: false }
    }

    #[test]
    fn issues_sub_hd_keys_to_l3() {
        let f = fixture();
        let token = f.accounts.subscribe("netflix", "alice");
        let req = signed_request(&f, vec![], SecurityLevel::L3, CdmVersion::new(3, 1, 0));
        let resp = f
            .license
            .issue_license(
                "netflix",
                "title-001",
                policy(AudioProtection::Clear, false),
                &token,
                &req,
            )
            .unwrap();
        // Clear-audio app: only video keys exist; L3 gets only 540p.
        assert_eq!(resp.key_entries.len(), 1);
        assert_eq!(resp.key_entries[0].control.max_resolution_height, 540);
    }

    #[test]
    fn issues_all_keys_to_l1() {
        let f = fixture();
        let token = f.accounts.subscribe("amazon", "alice");
        let req = signed_request(&f, vec![], SecurityLevel::L1, CdmVersion::new(16, 0, 0));
        let pol = policy(AudioProtection::DistinctKey, false);
        let resp = f.license.issue_license("amazon", "title-001", pol, &token, &req).unwrap();
        // 3 video resolutions + 1 distinct audio key.
        assert_eq!(resp.key_entries.len(), 4);

        // A fresh nonce re-derives the session key, every IV and every
        // wrapped key; only the key ids carry over.
        let mut fresh = LicenseRequest { nonce: [0x4C; 16], ..req };
        fresh.rsa_signature = f.rsa.sign_pkcs1v15_sha256(&fresh.body_bytes()).unwrap();
        let again = f.license.issue_license("amazon", "title-001", pol, &token, &fresh).unwrap();
        let session_key = |r: &LicenseResponse| f.rsa.decrypt_oaep(&r.encrypted_session_key);
        assert_ne!(session_key(&again).unwrap(), session_key(&resp).unwrap());
        assert_eq!(again.key_entries.len(), resp.key_entries.len());
        for (a, b) in again.key_entries.iter().zip(&resp.key_entries) {
            assert_eq!(a.kid, b.kid);
            assert_ne!(a.iv, b.iv);
            assert_ne!(a.encrypted_key, b.encrypted_key);
        }
    }

    #[test]
    fn shared_audio_key_collapses_with_video() {
        let f = fixture();
        let token = f.accounts.subscribe("hulu", "alice");
        let req = signed_request(&f, vec![], SecurityLevel::L1, CdmVersion::new(16, 0, 0));
        let resp = f
            .license
            .issue_license(
                "hulu",
                "title-001",
                policy(AudioProtection::SharedKeyWithVideo, false),
                &token,
                &req,
            )
            .unwrap();
        // 3 video keys; the audio key *is* the 540p video key.
        assert_eq!(resp.key_entries.len(), 3);
    }

    #[test]
    fn invalid_token_rejected() {
        let f = fixture();
        let req = signed_request(&f, vec![], SecurityLevel::L3, CdmVersion::new(16, 0, 0));
        assert_eq!(
            f.license.issue_license(
                "netflix",
                "title-001",
                policy(AudioProtection::Clear, false),
                "token:netflix:nobody",
                &req,
            ),
            Err(OttError::Unauthorized)
        );
    }

    #[test]
    fn bad_signature_rejected() {
        let f = fixture();
        let token = f.accounts.subscribe("netflix", "alice");
        let mut req = signed_request(&f, vec![], SecurityLevel::L3, CdmVersion::new(16, 0, 0));
        req.rsa_signature[0] ^= 1;
        assert_eq!(
            f.license.issue_license(
                "netflix",
                "title-001",
                policy(AudioProtection::Clear, false),
                &token,
                &req,
            ),
            Err(OttError::Unauthorized)
        );
    }

    #[test]
    fn revocation_enforced_per_app_policy() {
        let f = fixture();
        let token = f.accounts.subscribe("disney", "alice");
        let req = signed_request(&f, vec![], SecurityLevel::L3, CdmVersion::new(3, 1, 0));
        assert!(matches!(
            f.license.issue_license(
                "disney",
                "title-001",
                policy(AudioProtection::SharedKeyWithVideo, true),
                &token,
                &req,
            ),
            Err(OttError::DeviceRevoked { .. })
        ));
        // Same request, lenient app: served.
        assert!(f
            .license
            .issue_license(
                "disney",
                "title-001",
                policy(AudioProtection::SharedKeyWithVideo, false),
                &token,
                &req,
            )
            .is_ok());
    }

    #[test]
    fn unknown_key_ids_not_found() {
        let f = fixture();
        let token = f.accounts.subscribe("netflix", "alice");
        let req = signed_request(
            &f,
            vec![KeyId([0xEE; 16])],
            SecurityLevel::L3,
            CdmVersion::new(16, 0, 0),
        );
        assert!(matches!(
            f.license.issue_license(
                "netflix",
                "title-001",
                policy(AudioProtection::Clear, false),
                &token,
                &req,
            ),
            Err(OttError::NotFound { .. })
        ));
    }

    #[test]
    fn hd_keys_withheld_from_l3_even_when_requested() {
        let f = fixture();
        let token = f.accounts.subscribe("netflix", "alice");
        let hd_label = "netflix/title-001/video-1080";
        let hd_kid = kid_from_label(hd_label);
        let req = signed_request(&f, vec![hd_kid], SecurityLevel::L3, CdmVersion::new(3, 1, 0));
        // The only requested key needs L1 → nothing issuable.
        assert!(matches!(
            f.license.issue_license(
                "netflix",
                "title-001",
                policy(AudioProtection::Clear, false),
                &token,
                &req,
            ),
            Err(OttError::NotFound { .. })
        ));
    }
}
