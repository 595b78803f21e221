//! The Media DRM Server: the `mediadrmserver` end of every Binder call.
//!
//! Holds the device's one Widevine OEMCrypto backend (L1 or L3, as
//! [`wideleak_cdm::oemcrypto::boot`] chose it) and sends each
//! [`DrmCall`] straight to it. Widevine is the only scheme it serves.

use std::sync::Arc;

use wideleak_bmff::types::WIDEVINE_SYSTEM_ID;
use wideleak_cdm::messages::{LicenseResponse, ProvisioningResponse};
use wideleak_cdm::oemcrypto::OemCrypto;

use crate::binder::{DrmCall, DrmReply};
use crate::DrmError;

/// The server side of the Binder boundary.
pub struct MediaDrmServer {
    oemcrypto: Arc<dyn OemCrypto>,
}

impl std::fmt::Debug for MediaDrmServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "MediaDrmServer({})", self.oemcrypto.security_level())
    }
}

impl MediaDrmServer {
    /// A server in front of the device's OEMCrypto backend.
    pub fn new(oemcrypto: Arc<dyn OemCrypto>) -> Self {
        MediaDrmServer { oemcrypto }
    }

    /// Advances the backend's logical clock by `secs`. This is the
    /// clock-skew fault's entry point: licences loaded before the skew
    /// age past their duration and start expiring.
    pub fn advance_clocks(&self, secs: u64) {
        // A backend whose TEE session is gone simply misses the skew.
        let _ = self.oemcrypto.advance_clock(secs);
    }

    /// Handles one transaction (called by the Binder transports).
    ///
    /// # Errors
    ///
    /// Returns [`DrmError`] for CDM failures and unparseable responses.
    pub fn handle(&self, call: DrmCall) -> Result<DrmReply, DrmError> {
        let cdm = &self.oemcrypto;
        match call {
            DrmCall::IsSchemeSupported { uuid } => Ok(DrmReply::Bool(uuid == WIDEVINE_SYSTEM_ID)),
            DrmCall::OpenSession { nonce } => {
                let id = cdm.open_session(nonce)?;
                Ok(DrmReply::SessionId(id))
            }
            DrmCall::CloseSession { session_id } => {
                cdm.close_session(session_id)?;
                Ok(DrmReply::Unit)
            }
            DrmCall::IsProvisioned => Ok(DrmReply::Bool(cdm.is_provisioned())),
            DrmCall::GetProvisionRequest { nonce } => {
                let req = cdm.provisioning_request(nonce)?;
                Ok(DrmReply::Bytes(req.to_bytes()))
            }
            DrmCall::ProvideProvisionResponse { nonce, response } => {
                let resp = ProvisioningResponse::parse(&response)?;
                cdm.install_rsa_key(nonce, &resp)?;
                Ok(DrmReply::Unit)
            }
            DrmCall::GetKeyRequest { session_id, content_id, key_ids } => {
                let req = cdm.license_request(session_id, &content_id, &key_ids)?;
                Ok(DrmReply::Bytes(req.to_bytes()))
            }
            DrmCall::ProvideKeyResponse { session_id, response } => {
                let resp = LicenseResponse::parse(&response)?;
                let loaded = cdm.load_license(session_id, &resp)?;
                Ok(DrmReply::KeyIds(loaded))
            }
            DrmCall::DecryptSample { session_id, kid, crypto, data, subsamples } => {
                let out = cdm.decrypt_sample(session_id, &kid, &crypto, &data, &subsamples)?;
                Ok(DrmReply::Bytes(out))
            }
            DrmCall::GenericEncrypt { session_id, kid, iv, data } => {
                let out = cdm.generic_encrypt(session_id, &kid, iv, &data)?;
                Ok(DrmReply::Bytes(out))
            }
            DrmCall::GenericDecrypt { session_id, kid, iv, data } => {
                let out = cdm.generic_decrypt(session_id, &kid, iv, &data)?;
                Ok(DrmReply::Bytes(out))
            }
            DrmCall::GenericSign { session_id, kid, data } => {
                let out = cdm.generic_sign(session_id, &kid, &data)?;
                Ok(DrmReply::Bytes(out))
            }
            DrmCall::GenericVerify { session_id, kid, data, signature } => {
                // `Bool(false)` means exactly "signature mismatch"; a
                // closed session or missing key is a transport-visible
                // error, not a failed verification.
                match cdm.generic_verify(session_id, &kid, &data, &signature) {
                    Ok(()) => Ok(DrmReply::Bool(true)),
                    Err(wideleak_cdm::CdmError::BadSignature) => Ok(DrmReply::Bool(false)),
                    Err(other) => Err(other.into()),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wideleak_cdm::keybox::Keybox;
    use wideleak_cdm::oemcrypto::boot;
    use wideleak_device::catalog::DeviceModel;
    use wideleak_device::Device;

    fn boot_server() -> MediaDrmServer {
        let device = Device::new(DeviceModel::pixel_6());
        MediaDrmServer::new(boot(&device, Keybox::issue(b"server-test", &[2; 16])).unwrap())
    }

    #[test]
    fn scheme_probe() {
        let s = boot_server();
        assert_eq!(
            s.handle(DrmCall::IsSchemeSupported { uuid: WIDEVINE_SYSTEM_ID }).unwrap(),
            DrmReply::Bool(true)
        );
        assert_eq!(
            s.handle(DrmCall::IsSchemeSupported { uuid: [0; 16] }).unwrap(),
            DrmReply::Bool(false)
        );
    }

    #[test]
    fn session_lifecycle_through_router() {
        let s = boot_server();
        let id =
            s.handle(DrmCall::OpenSession { nonce: [3; 16] }).unwrap().into_session_id().unwrap();
        assert_eq!(s.handle(DrmCall::CloseSession { session_id: id }).unwrap(), DrmReply::Unit);
        assert!(matches!(
            s.handle(DrmCall::CloseSession { session_id: id }),
            Err(DrmError::Cdm(_))
        ));
    }

    #[test]
    fn provisioning_probe() {
        let s = boot_server();
        assert_eq!(s.handle(DrmCall::IsProvisioned).unwrap(), DrmReply::Bool(false));
        let req = s
            .handle(DrmCall::GetProvisionRequest { nonce: [1; 16] })
            .unwrap()
            .into_bytes()
            .unwrap();
        assert!(!req.is_empty());
    }

    #[test]
    fn generic_verify_on_closed_session_errors_not_false() {
        let s = boot_server();
        let id =
            s.handle(DrmCall::OpenSession { nonce: [5; 16] }).unwrap().into_session_id().unwrap();
        s.handle(DrmCall::CloseSession { session_id: id }).unwrap();
        let reply = s.handle(DrmCall::GenericVerify {
            session_id: id,
            kid: wideleak_bmff::types::KeyId([6; 16]),
            data: b"payload".to_vec(),
            signature: b"whatever".to_vec(),
        });
        assert!(
            matches!(reply, Err(DrmError::Cdm(_))),
            "closed session must surface an error, got {reply:?}"
        );
    }

    #[test]
    fn garbage_provision_response_rejected() {
        let s = boot_server();
        assert!(matches!(
            s.handle(DrmCall::ProvideProvisionResponse { nonce: [0; 16], response: vec![1, 2] }),
            Err(DrmError::Cdm(_))
        ));
    }
}
