//! Failure injection across the whole stack: corrupted keyboxes,
//! tampered licenses, stolen sessions, wrong keys, revoked accounts.

use std::sync::Arc;

use wideleak::android_drm::binder::DrmCall;
use wideleak::bmff::types::WIDEVINE_SYSTEM_ID;
use wideleak::cdm::keybox::Keybox;
use wideleak::cdm::messages::{LicenseResponse, ProvisioningResponse};
use wideleak::cdm::oemcrypto::{L3OemCrypto, OemCrypto};
use wideleak::cdm::CdmError;
use wideleak::device::catalog::{CdmVersion, DeviceModel};
use wideleak::device::hooks::HookEngine;
use wideleak::device::memory::ProcessMemory;
use wideleak::device::net::RemoteEndpoint;
use wideleak::ott::license::encode_envelope;
use wideleak_tests::fast_ecosystem;

/// Boots an L3 CDM provisioned through the real servers, returning the
/// backend pieces needed for license-level tampering.
fn provisioned_l3() -> (wideleak::ott::ecosystem::Ecosystem, L3OemCrypto, String) {
    let eco = fast_ecosystem();
    let hooks = Arc::new(HookEngine::new());
    let memory = Arc::new(ProcessMemory::new("mediaserver"));
    let l3 = L3OemCrypto::new(CdmVersion::new(16, 0, 0), hooks, memory);
    l3.install_keybox(eco.trust().issue_keybox("failure-injection")).unwrap();
    let preq = l3.provisioning_request([1; 16]).unwrap();
    let raw = eco.backend().handle("provision/showtime", &preq.to_bytes()).unwrap();
    l3.install_rsa_key([1; 16], &ProvisioningResponse::parse(&raw).unwrap()).unwrap();
    let token = eco.accounts().subscribe("showtime", "victim");
    (eco, l3, token)
}

fn fetch_license(
    eco: &wideleak::ott::ecosystem::Ecosystem,
    l3: &L3OemCrypto,
    token: &str,
    session: u32,
) -> LicenseResponse {
    let req = l3.license_request(session, "title-001", &[]).unwrap();
    let raw = eco
        .backend()
        .handle("license/showtime/title-001", &encode_envelope(token, &req.to_bytes()))
        .unwrap();
    LicenseResponse::parse(&raw).unwrap()
}

#[test]
fn tampered_license_key_entry_is_rejected() {
    let (eco, l3, token) = provisioned_l3();
    let session = l3.open_session([2; 16]).unwrap();
    let mut resp = fetch_license(&eco, &l3, &token, session);
    resp.key_entries[0].encrypted_key[0] ^= 0x80;
    // Body changed → the HMAC over the body fails first.
    assert_eq!(l3.load_license(session, &resp), Err(CdmError::BadSignature));
}

#[test]
fn license_replay_into_another_session_is_rejected() {
    // The license response echoes the request nonce; a response captured
    // for one session cannot be replayed into a session with a different
    // nonce.
    let (eco, l3, token) = provisioned_l3();
    let s1 = l3.open_session([3; 16]).unwrap();
    let resp = fetch_license(&eco, &l3, &token, s1);
    let s2 = l3.open_session([4; 16]).unwrap();
    assert!(matches!(
        l3.load_license(s2, &resp),
        Err(CdmError::BadMessage { reason }) if reason.contains("nonce")
    ));
    // The rightful session still loads it.
    assert!(l3.load_license(s1, &resp).is_ok());
}

#[test]
fn truncated_license_response_is_rejected() {
    let (eco, l3, token) = provisioned_l3();
    let session = l3.open_session([5; 16]).unwrap();
    let resp = fetch_license(&eco, &l3, &token, session);
    let bytes = resp.to_bytes();
    for cut in [1usize, bytes.len() / 2, bytes.len() - 1] {
        assert!(LicenseResponse::parse(&bytes[..cut]).is_err(), "cut {cut}");
    }
}

#[test]
fn corrupted_keybox_refused_at_boot() {
    let hooks = Arc::new(HookEngine::new());
    let memory = Arc::new(ProcessMemory::new("mediaserver"));
    let l3 = L3OemCrypto::new(CdmVersion::new(16, 0, 0), hooks, memory);
    let mut bytes = Keybox::issue(b"corrupt-me", &[1; 16]).to_bytes();
    bytes[60] ^= 0xFF;
    assert!(Keybox::parse(&bytes).is_err());
    // The CDM only accepts parsed keyboxes, so corruption cannot even
    // reach install; prove the parse gate holds.
    assert!(l3.device_id().is_err(), "no keybox installed");
}

#[test]
fn unsubscribed_account_cannot_license() {
    let (eco, l3, _) = provisioned_l3();
    let session = l3.open_session([6; 16]).unwrap();
    let req = l3.license_request(session, "title-001", &[]).unwrap();
    let err = eco
        .backend()
        .handle(
            "license/showtime/title-001",
            &encode_envelope("token:showtime:freeloader", &req.to_bytes()),
        )
        .unwrap_err();
    assert_eq!(err, "UNAUTHORIZED");
}

#[test]
fn cancelled_subscription_stops_new_licenses() {
    let eco = fast_ecosystem();
    let stack = eco.boot_device(DeviceModel::pixel_6(), false);
    let app = eco.install_app(&stack, "ocs", "cancel-me");
    assert!(app.play("title-001").is_ok());
    eco.accounts().unsubscribe("ocs", "cancel-me");
    assert!(app.play("title-002").is_err(), "no new license after cancelling");
}

#[test]
fn decrypt_with_unloaded_key_fails() {
    let eco = fast_ecosystem();
    for (model, expect_exact) in [(DeviceModel::nexus_5(), true), (DeviceModel::pixel_6(), false)] {
        let stack = eco.boot_device(model, false);
        let sid = stack
            .binder
            .transact(DrmCall::OpenSession { nonce: [7; 16] })
            .unwrap()
            .into_session_id()
            .unwrap();
        let err = stack
            .binder
            .transact(DrmCall::DecryptSample {
                session_id: sid,
                kid: wideleak::bmff::types::KeyId([9; 16]),
                crypto: wideleak::cdm::oemcrypto::SampleCrypto::Cenc { iv: [0; 8] },
                data: vec![0; 32],
                subsamples: vec![],
            })
            .unwrap_err();
        if expect_exact {
            // L3 reports the precise CDM error.
            assert!(matches!(err, wideleak::android_drm::DrmError::Cdm(CdmError::KeyNotLoaded)));
        } else {
            // L1 surfaces the failure through the TEE boundary, which
            // deliberately coarsens error detail.
            assert!(matches!(err, wideleak::android_drm::DrmError::Cdm(_)));
        }
    }
}

#[test]
fn foreign_drm_scheme_is_refused() {
    let eco = fast_ecosystem();
    let stack = eco.boot_device(DeviceModel::pixel_6(), false);
    let playready_ish = [0x9a; 16];
    assert!(!stack
        .binder
        .transact(DrmCall::IsSchemeSupported { uuid: playready_ish })
        .unwrap()
        .into_bool()
        .unwrap());
    assert!(stack
        .binder
        .transact(DrmCall::IsSchemeSupported { uuid: WIDEVINE_SYSTEM_ID })
        .unwrap()
        .into_bool()
        .unwrap());
}

#[test]
fn provisioning_response_for_another_device_is_rejected() {
    let eco = fast_ecosystem();
    // Device A provisions legitimately.
    let hooks = Arc::new(HookEngine::new());
    let mem = Arc::new(ProcessMemory::new("mediaserver"));
    let a = L3OemCrypto::new(CdmVersion::new(16, 0, 0), hooks.clone(), mem.clone());
    a.install_keybox(eco.trust().issue_keybox("device-a")).unwrap();
    let preq = a.provisioning_request([9; 16]).unwrap();
    let raw = eco.backend().handle("provision/showtime", &preq.to_bytes()).unwrap();
    let resp = ProvisioningResponse::parse(&raw).unwrap();
    // Device B tries to install A's response: the keybox-derived MAC
    // fails.
    let b = L3OemCrypto::new(CdmVersion::new(16, 0, 0), hooks, mem);
    b.install_keybox(eco.trust().issue_keybox("device-b")).unwrap();
    assert_eq!(b.install_rsa_key([9; 16], &resp), Err(CdmError::BadSignature));
}
