//! The `MediaDrm` API: key and provisioning management for one DRM
//! scheme, as exposed to apps in Java/Kotlin.

use std::sync::Arc;

use wideleak_bmff::types::KeyId;

use crate::binder::{DrmCall, Transport};
use crate::DrmError;

/// An app-side `MediaDrm` instance bound to one scheme UUID.
pub struct MediaDrm {
    binder: Arc<dyn Transport>,
    uuid: [u8; 16],
}

impl std::fmt::Debug for MediaDrm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "MediaDrm(uuid: {:02x?}...)", &self.uuid[..4])
    }
}

impl MediaDrm {
    /// `new MediaDrm(UUID)` — fails when the scheme is unsupported.
    ///
    /// # Errors
    ///
    /// Returns [`DrmError::UnsupportedScheme`].
    pub fn new(binder: Arc<dyn Transport>, uuid: [u8; 16]) -> Result<Self, DrmError> {
        let supported = binder.transact(DrmCall::IsSchemeSupported { uuid })?.into_bool()?;
        if !supported {
            return Err(DrmError::UnsupportedScheme { uuid });
        }
        Ok(MediaDrm { binder, uuid })
    }

    /// The scheme UUID this instance serves.
    pub fn uuid(&self) -> [u8; 16] {
        self.uuid
    }

    /// The shared binder (used by [`crate::mediacrypto::MediaCrypto`]).
    pub fn binder(&self) -> &Arc<dyn Transport> {
        &self.binder
    }

    /// `openSession()`.
    ///
    /// # Errors
    ///
    /// Propagates CDM failures.
    pub fn open_session(&self, nonce: [u8; 16]) -> Result<u32, DrmError> {
        self.binder.transact(DrmCall::OpenSession { nonce })?.into_session_id()
    }

    /// `closeSession()`.
    ///
    /// # Errors
    ///
    /// Propagates CDM failures.
    pub fn close_session(&self, session_id: u32) -> Result<(), DrmError> {
        self.binder.transact(DrmCall::CloseSession { session_id })?;
        Ok(())
    }

    /// Whether the device is provisioned.
    ///
    /// # Errors
    ///
    /// Propagates transport failures.
    pub fn is_provisioned(&self) -> Result<bool, DrmError> {
        self.binder.transact(DrmCall::IsProvisioned)?.into_bool()
    }

    /// `getProvisionRequest()` — an opaque blob for the provisioning
    /// server.
    ///
    /// # Errors
    ///
    /// Propagates CDM failures.
    pub fn get_provision_request(&self, nonce: [u8; 16]) -> Result<Vec<u8>, DrmError> {
        self.binder.transact(DrmCall::GetProvisionRequest { nonce })?.into_bytes()
    }

    /// `provideProvisionResponse()`.
    ///
    /// # Errors
    ///
    /// Propagates CDM verification failures.
    pub fn provide_provision_response(
        &self,
        nonce: [u8; 16],
        response: Vec<u8>,
    ) -> Result<(), DrmError> {
        self.binder.transact(DrmCall::ProvideProvisionResponse { nonce, response })?;
        Ok(())
    }

    /// `getKeyRequest()` — the opaque license request for the License
    /// Server.
    ///
    /// # Errors
    ///
    /// Propagates CDM failures (unprovisioned devices in particular).
    pub fn get_key_request(
        &self,
        session_id: u32,
        content_id: &str,
        key_ids: &[KeyId],
    ) -> Result<Vec<u8>, DrmError> {
        self.binder
            .transact(DrmCall::GetKeyRequest {
                session_id,
                content_id: content_id.to_owned(),
                key_ids: key_ids.to_vec(),
            })?
            .into_bytes()
    }

    /// `provideKeyResponse()` — loads the license; returns the key IDs
    /// that became usable.
    ///
    /// # Errors
    ///
    /// Propagates CDM verification failures.
    pub fn provide_key_response(
        &self,
        session_id: u32,
        response: Vec<u8>,
    ) -> Result<Vec<KeyId>, DrmError> {
        self.binder.transact(DrmCall::ProvideKeyResponse { session_id, response })?.into_key_ids()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binder::InProcessBinder;
    use crate::server::MediaDrmServer;
    use wideleak_bmff::types::WIDEVINE_SYSTEM_ID;
    use wideleak_cdm::keybox::Keybox;
    use wideleak_cdm::oemcrypto::boot;
    use wideleak_device::catalog::DeviceModel;
    use wideleak_device::Device;

    fn binder() -> Arc<dyn Transport> {
        let device = Device::new(DeviceModel::nexus_5());
        let cdm = boot(&device, Keybox::issue(b"mediadrm-test", &[3; 16])).unwrap();
        Arc::new(InProcessBinder::new(MediaDrmServer::new(cdm)))
    }

    #[test]
    fn construction_checks_scheme() {
        let b = binder();
        assert!(MediaDrm::new(b.clone(), WIDEVINE_SYSTEM_ID).is_ok());
        assert!(matches!(MediaDrm::new(b, [9; 16]), Err(DrmError::UnsupportedScheme { .. })));
    }

    #[test]
    fn session_management() {
        let drm = MediaDrm::new(binder(), WIDEVINE_SYSTEM_ID).unwrap();
        let sid = drm.open_session([1; 16]).unwrap();
        drm.close_session(sid).unwrap();
        assert!(drm.close_session(sid).is_err());
    }

    #[test]
    fn key_request_requires_provisioning() {
        let drm = MediaDrm::new(binder(), WIDEVINE_SYSTEM_ID).unwrap();
        assert!(!drm.is_provisioned().unwrap());
        let sid = drm.open_session([1; 16]).unwrap();
        assert!(matches!(
            drm.get_key_request(sid, "movie", &[]),
            Err(DrmError::Cdm(wideleak_cdm::CdmError::NotProvisioned))
        ));
    }

    #[test]
    fn provision_request_is_opaque_bytes() {
        let drm = MediaDrm::new(binder(), WIDEVINE_SYSTEM_ID).unwrap();
        let blob = drm.get_provision_request([7; 16]).unwrap();
        // The app treats this as opaque; it must at least parse as the
        // wire message the server expects.
        assert!(wideleak_cdm::messages::ProvisioningRequest::parse(&blob).is_ok());
    }
}
