//! License lifecycle: duration enforcement against the CDM clock and
//! renewal by re-licensing — on both the L3 and L1 backends.

use std::sync::Arc;

use wideleak::cdm::messages::{LicenseResponse, ProvisioningResponse};
use wideleak::cdm::oemcrypto::{L1OemCrypto, L3OemCrypto, OemCrypto, SampleCrypto};
use wideleak::cdm::CdmError;
use wideleak::device::catalog::CdmVersion;
use wideleak::device::hooks::HookEngine;
use wideleak::device::memory::ProcessMemory;
use wideleak::device::net::RemoteEndpoint;
use wideleak::ott::license::{encode_envelope, DEFAULT_LICENSE_DURATION_SECS};
use wideleak::tee::SecureWorld;
use wideleak_tests::fast_ecosystem;

fn l3_backend(hooks: Arc<HookEngine>) -> L3OemCrypto {
    L3OemCrypto::new(CdmVersion::new(16, 0, 0), hooks, Arc::new(ProcessMemory::new("mediaserver")))
}

fn l1_backend(hooks: Arc<HookEngine>) -> L1OemCrypto {
    L1OemCrypto::new(CdmVersion::new(16, 0, 0), Arc::new(SecureWorld::new()), hooks)
}

/// Provisions and licenses a backend; returns the session and a usable kid.
fn license(
    eco: &wideleak::ott::ecosystem::Ecosystem,
    backend: &dyn OemCrypto,
    device: &str,
    user: &str,
) -> (u32, wideleak::bmff::types::KeyId) {
    backend.install_keybox(eco.trust().issue_keybox(device)).unwrap();
    if !backend.is_provisioned() {
        let preq = backend.provisioning_request([1; 16]).unwrap();
        let raw = eco.backend().handle("provision/ocs", &preq.to_bytes()).unwrap();
        backend.install_rsa_key([1; 16], &ProvisioningResponse::parse(&raw).unwrap()).unwrap();
    }
    let token = eco.accounts().subscribe("ocs", user);
    let sid = backend.open_session([2; 16]).unwrap();
    let req = backend.license_request(sid, "title-001", &[]).unwrap();
    let raw = eco
        .backend()
        .handle("license/ocs/title-001", &encode_envelope(&token, &req.to_bytes()))
        .unwrap();
    let kids = backend.load_license(sid, &LicenseResponse::parse(&raw).unwrap()).unwrap();
    (sid, kids[0])
}

fn decrypt(
    backend: &dyn OemCrypto,
    sid: u32,
    kid: &wideleak::bmff::types::KeyId,
) -> Result<Vec<u8>, wideleak::cdm::CdmError> {
    backend.decrypt_sample(sid, kid, &SampleCrypto::Cenc { iv: [1; 8] }, &[0u8; 64], &[])
}

#[test]
fn keys_expire_after_their_duration_on_l3() {
    let eco = fast_ecosystem();
    let backend = l3_backend(Arc::new(HookEngine::new()));
    let (sid, kid) = license(&eco, &backend, "expiry-l3", "user-a");
    assert!(decrypt(&backend, sid, &kid).is_ok(), "fresh license decrypts");

    // One second before expiry: still fine.
    backend.advance_clock(DEFAULT_LICENSE_DURATION_SECS as u64 - 1).unwrap();
    assert!(decrypt(&backend, sid, &kid).is_ok());

    // At expiry: refused.
    backend.advance_clock(1).unwrap();
    assert!(matches!(decrypt(&backend, sid, &kid), Err(CdmError::KeyExpired)));
}

#[test]
fn keys_expire_after_their_duration_on_l1() {
    let eco = fast_ecosystem();
    let backend = l1_backend(Arc::new(HookEngine::new()));
    let (sid, kid) = license(&eco, &backend, "expiry-l1", "user-b");
    assert!(decrypt(&backend, sid, &kid).is_ok());
    backend.advance_clock(DEFAULT_LICENSE_DURATION_SECS as u64).unwrap();
    // L1 coarsens the error across the TEE boundary; it must still fail.
    assert!(decrypt(&backend, sid, &kid).is_err());
}

#[test]
fn renewal_restores_playback() {
    let eco = fast_ecosystem();
    let backend = l3_backend(Arc::new(HookEngine::new()));
    let (sid, kid) = license(&eco, &backend, "renewal", "user-c");
    backend.advance_clock(DEFAULT_LICENSE_DURATION_SECS as u64 + 10).unwrap();
    assert!(matches!(decrypt(&backend, sid, &kid), Err(CdmError::KeyExpired)));

    // Renewal: a fresh license request/response cycle in a new session.
    let (sid2, kid2) = license(&eco, &backend, "renewal", "user-c");
    assert_eq!(kid, kid2, "same content keys after renewal (subscriber-independent)");
    assert!(decrypt(&backend, sid2, &kid2).is_ok());
}

#[test]
fn generic_crypto_respects_expiry_too() {
    let eco = fast_ecosystem();
    let backend = l3_backend(Arc::new(HookEngine::new()));
    let (sid, kid) = license(&eco, &backend, "generic-expiry", "user-d");
    assert!(backend.generic_sign(sid, &kid, b"payload").is_ok());
    backend.advance_clock(DEFAULT_LICENSE_DURATION_SECS as u64).unwrap();
    assert!(matches!(backend.generic_sign(sid, &kid, b"payload"), Err(CdmError::KeyExpired)));
}

#[test]
fn clock_is_monotonic_and_saturating() {
    let backend = l3_backend(Arc::new(HookEngine::new()));
    backend.advance_clock(u64::MAX).unwrap();
    backend.advance_clock(u64::MAX).unwrap(); // must not wrap/panic
}
