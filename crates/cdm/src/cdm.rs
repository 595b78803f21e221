//! The top-level CDM object: the Widevine HAL plugin for one device.
//!
//! [`Cdm`] selects the right [`OemCrypto`] backend for the device model
//! (L1 TEE-backed when the hardware supports it, L3 software otherwise),
//! installs the factory keybox, and exposes the backend to the Android
//! DRM framework (`wideleak-android-drm`).

use std::sync::Arc;

use wideleak_device::catalog::{CdmVersion, SecurityLevel};
use wideleak_device::Device;
use wideleak_tee::SecureWorld;

use crate::keybox::Keybox;
use crate::oemcrypto::{L1OemCrypto, L3OemCrypto, OemCrypto};
use crate::CdmError;

/// The Widevine HAL plugin instance for one device.
pub struct Cdm {
    backend: Arc<dyn OemCrypto + Sync>,
    secure_world: Option<Arc<SecureWorld>>,
}

impl std::fmt::Debug for Cdm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Cdm(v{}, {}, provisioned: {})",
            self.backend.cdm_version(),
            self.backend.security_level(),
            self.backend.is_provisioned()
        )
    }
}

/// Configures and boots a [`Cdm`]. Obtained from [`Cdm::builder`].
///
/// Two terminal operations exist: [`boot`](CdmBuilder::boot) selects the
/// backend from a device model and needs a keybox, while
/// [`build`](CdmBuilder::build) wraps a pre-made backend (instrumented or
/// faulty ones in tests) without touching any device.
#[derive(Default)]
pub struct CdmBuilder {
    keybox: Option<Keybox>,
    backend: Option<Arc<dyn OemCrypto + Sync>>,
    decrypt_cache: bool,
}

impl CdmBuilder {
    /// The factory keybox to install at boot. Required by
    /// [`boot`](Self::boot).
    #[must_use]
    pub fn keybox(mut self, keybox: Keybox) -> Self {
        self.keybox = Some(keybox);
        self
    }

    /// Uses an already-built backend instead of selecting one from the
    /// device model. Terminalised by [`build`](Self::build).
    #[must_use]
    pub fn backend(mut self, backend: Arc<dyn OemCrypto + Sync>) -> Self {
        self.backend = Some(backend);
        self
    }

    /// Enables the per-session decrypt cache (derived key schedules +
    /// `cenc` keystream prefixes). Off by default; backends without a
    /// normal-world core — the L1 trustlet path — ignore the flag.
    #[must_use]
    pub fn decrypt_cache(mut self, enabled: bool) -> Self {
        self.decrypt_cache = enabled;
        self
    }

    /// Boots the CDM on a device and installs its factory keybox.
    ///
    /// The backend follows the device model: L1 hardware boots a secure
    /// world and loads the Widevine trustlet; everything else runs the
    /// software L3 engine inside the media DRM process.
    ///
    /// # Errors
    ///
    /// Propagates keybox installation failures.
    ///
    /// # Panics
    ///
    /// Panics if no keybox was supplied (a configuration bug, not a
    /// runtime condition).
    pub fn boot(self, device: &Device) -> Result<Cdm, CdmError> {
        let keybox = self.keybox.expect("CdmBuilder::boot requires a keybox");
        let model = device.model();
        let (backend, secure_world): (Arc<dyn OemCrypto + Sync>, Option<Arc<SecureWorld>>) =
            match model.security_level {
                SecurityLevel::L1 => {
                    let world = Arc::new(SecureWorld::new());
                    let backend = L1OemCrypto::new(
                        model.cdm_version,
                        world.clone(),
                        device.hook_engine().clone(),
                    );
                    (Arc::new(backend), Some(world))
                }
                SecurityLevel::L2 | SecurityLevel::L3 => {
                    let backend = L3OemCrypto::new(
                        model.cdm_version,
                        device.hook_engine().clone(),
                        device.drm_process_memory().clone(),
                    );
                    (Arc::new(backend), None)
                }
            };
        backend.install_keybox(keybox)?;
        if self.decrypt_cache {
            backend.set_decrypt_cache(true);
        }
        Ok(Cdm { backend, secure_world })
    }

    /// Wraps the supplied backend directly (no device, no keybox).
    ///
    /// # Panics
    ///
    /// Panics if no backend was supplied.
    #[must_use]
    pub fn build(self) -> Cdm {
        let backend = self.backend.expect("CdmBuilder::build requires a backend");
        if self.decrypt_cache {
            backend.set_decrypt_cache(true);
        }
        Cdm { backend, secure_world: None }
    }
}

impl Cdm {
    /// Starts configuring a CDM.
    #[must_use]
    pub fn builder() -> CdmBuilder {
        CdmBuilder::default()
    }

    /// The active OEMCrypto backend.
    pub fn oemcrypto(&self) -> &Arc<dyn OemCrypto + Sync> {
        &self.backend
    }

    /// The security level the backend provides.
    pub fn security_level(&self) -> SecurityLevel {
        self.backend.security_level()
    }

    /// The CDM version.
    pub fn version(&self) -> CdmVersion {
        self.backend.cdm_version()
    }

    /// The secure world, present only on L1 devices (used by tests and the
    /// world-switch latency bench).
    pub fn secure_world(&self) -> Option<&Arc<SecureWorld>> {
        self.secure_world.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wideleak_device::catalog::DeviceModel;

    fn keybox() -> Keybox {
        Keybox::issue(b"cdm-boot-test", &[0x77; 16])
    }

    #[test]
    fn boot_l3_on_nexus_5() {
        let device = Device::new(DeviceModel::nexus_5());
        let cdm = Cdm::builder().keybox(keybox()).boot(&device).unwrap();
        assert_eq!(cdm.security_level(), SecurityLevel::L3);
        assert_eq!(cdm.version(), CdmVersion::new(3, 1, 0));
        assert!(cdm.secure_world().is_none());
        // The keybox leaked into the media process (unpatched CDM).
        assert!(!device.drm_process_memory().scan(b"kbox").is_empty());
    }

    #[test]
    fn boot_l1_on_pixel_6() {
        let device = Device::new(DeviceModel::pixel_6());
        let cdm = Cdm::builder().keybox(keybox()).boot(&device).unwrap();
        assert_eq!(cdm.security_level(), SecurityLevel::L1);
        assert!(cdm.secure_world().is_some());
        assert!(cdm.secure_world().unwrap().has_trustlet("widevine"));
        // Nothing leaked into normal-world memory.
        assert!(device.drm_process_memory().scan(b"kbox").is_empty());
    }

    #[test]
    fn debug_output() {
        let device = Device::new(DeviceModel::nexus_5());
        let cdm = Cdm::builder().keybox(keybox()).boot(&device).unwrap();
        let s = format!("{cdm:?}");
        assert!(s.contains("3.1.0") && s.contains("L3"));
    }
}
