//! The simulated over-the-top (OTT) streaming ecosystem.
//!
//! Everything the ten evaluated apps need to exist: a content catalog and
//! CENC packager ([`content`]), the trust authority holding factory
//! keybox records ([`trust`]), the provisioning server ([`provisioning`]),
//! the license server with per-app key policies ([`license`]), the CDN
//! ([`cdn`]), subscriber accounts ([`accounts`]), the app profiles that
//! encode each app's *measured* behaviour from Table I ([`apps`]), the
//! bandwidth-constrained network model ([`bandwidth`]) with its
//! adaptive-bitrate controller ([`adapt`]), and the wiring that boots
//! devices and servers together ([`ecosystem`]).
//!
//! The app profiles are the ground truth the WideLeak monitor
//! (`wideleak-monitor`) must re-derive purely through hooks and network
//! interception — never by reading the profiles directly.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod accounts;
pub mod adapt;
pub mod apps;
pub mod bandwidth;
pub mod cdn;
pub mod content;
pub mod ecosystem;
pub mod license;
pub mod provisioning;
pub mod trust;

use std::fmt;

/// Errors produced by the OTT backend and app clients.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OttError {
    /// The account token was missing or invalid.
    Unauthorized,
    /// The requested resource does not exist.
    NotFound {
        /// The requested path or id.
        what: String,
    },
    /// The app's SafetyNet-style attestation detected tampering and the
    /// app refused to run.
    AttestationFailed,
    /// The device was refused for policy reasons (revocation).
    DeviceRevoked {
        /// The CDM version that was refused.
        cdm_version: String,
    },
    /// A DRM-layer failure.
    Drm(wideleak_android_drm::DrmError),
    /// A CDM-layer failure (server side).
    Cdm(wideleak_cdm::CdmError),
    /// A network failure (pinning violations included).
    Net(wideleak_device::net::NetError),
    /// A malformed request or response.
    Protocol {
        /// Description of the problem.
        reason: String,
    },
}

impl OttError {
    /// A stable lowercase label for telemetry error-class counters.
    #[must_use]
    pub fn class(&self) -> &'static str {
        match self {
            OttError::Unauthorized => "unauthorized",
            OttError::NotFound { .. } => "not_found",
            OttError::AttestationFailed => "attestation_failed",
            OttError::DeviceRevoked { .. } => "device_revoked",
            OttError::Drm(_) => "drm",
            OttError::Cdm(_) => "cdm",
            OttError::Net(_) => "net",
            OttError::Protocol { .. } => "protocol",
        }
    }
}

impl wideleak_faults::ErrorClass for OttError {
    fn class(&self) -> &'static str {
        Self::class(self)
    }
}

impl fmt::Display for OttError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OttError::Unauthorized => f.write_str("missing or invalid account token"),
            OttError::NotFound { what } => write!(f, "not found: {what}"),
            OttError::AttestationFailed => {
                f.write_str("app attestation failed: tampered environment detected")
            }
            OttError::DeviceRevoked { cdm_version } => {
                write!(f, "device revoked: CDM {cdm_version} no longer accepted")
            }
            OttError::Drm(e) => write!(f, "DRM error: {e}"),
            OttError::Cdm(e) => write!(f, "CDM error: {e}"),
            OttError::Net(e) => write!(f, "network error: {e}"),
            OttError::Protocol { reason } => write!(f, "protocol error: {reason}"),
        }
    }
}

impl std::error::Error for OttError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            OttError::Drm(e) => Some(e),
            OttError::Cdm(e) => Some(e),
            OttError::Net(e) => Some(e),
            _ => None,
        }
    }
}

impl From<wideleak_android_drm::DrmError> for OttError {
    fn from(e: wideleak_android_drm::DrmError) -> Self {
        OttError::Drm(e)
    }
}

impl From<wideleak_cdm::CdmError> for OttError {
    fn from(e: wideleak_cdm::CdmError) -> Self {
        OttError::Cdm(e)
    }
}

impl From<wideleak_device::net::NetError> for OttError {
    fn from(e: wideleak_device::net::NetError) -> Self {
        OttError::Net(e)
    }
}
