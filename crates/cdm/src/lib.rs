//! A simulated Widevine Content Decryption Module (CDM).
//!
//! Reproduces, from the paper's §IV-D reverse engineering, the structures
//! and protocol of the real CDM:
//!
//! - [`keybox`] — the 128-byte root-of-trust structure (device ID, AES-128
//!   device key, magic number, CRC-32);
//! - [`ladder`] — the AES-CMAC key-derivation ladder from the keybox (or a
//!   session key) down to usable encryption/MAC keys;
//! - [`wire`] + [`messages`] — a TLV message codec standing in for the
//!   proprietary protobuf protocol: provisioning and license exchanges;
//! - [`provisioning`] — installation of the Device RSA Key, protected by
//!   keybox-derived keys;
//! - [`session`] — license sessions: request generation, response
//!   verification, content-key loading;
//! - [`oemcrypto`] — the `_oeccXX` entry-point surface the Android DRM
//!   framework drives, including the generic (non-DASH) crypto API that
//!   Netflix uses as a secure channel. It has an **L3** backend that
//!   stores the keybox insecurely in process memory (CWE-922 /
//!   CVE-2021-0639) and an **L1** backend that keeps every secret inside
//!   a TEE trustlet; [`oemcrypto::boot`] picks one for a device model.
//!
//! # Examples
//!
//! ```
//! use wideleak_cdm::keybox::Keybox;
//!
//! let kb = Keybox::issue(b"unit-test-device", &[7u8; 16]);
//! let bytes = kb.to_bytes();
//! assert_eq!(bytes.len(), 128);
//! assert_eq!(Keybox::parse(&bytes).unwrap(), kb);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod keybox;
pub mod ladder;
pub mod messages;
pub mod oemcrypto;
pub mod provisioning;
pub mod session;
pub mod wire;

use std::fmt;

/// Errors surfaced by the CDM.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CdmError {
    /// A keybox failed structural validation.
    BadKeybox {
        /// What was wrong.
        reason: &'static str,
    },
    /// The device has not been provisioned with an RSA key yet.
    NotProvisioned,
    /// A wire message failed to decode.
    BadMessage {
        /// What was wrong.
        reason: &'static str,
    },
    /// A signature or MAC failed verification.
    BadSignature,
    /// A cryptographic operation failed.
    Crypto(wideleak_crypto::CryptoError),
    /// A TEE call failed (L1 backend).
    Tee(wideleak_tee::TeeError),
    /// No session with the given id.
    NoSuchSession {
        /// The session id requested.
        session_id: u32,
    },
    /// The concurrent-session cap was reached (real OEMCrypto enforces
    /// one; opens are rejected until a session closes).
    SessionLimit {
        /// The configured maximum number of open sessions.
        max: u32,
    },
    /// The 32-bit session-id space is exhausted; ids must never wrap
    /// into live sessions.
    SessionIdsExhausted,
    /// No key loaded for the requested key ID.
    KeyNotLoaded,
    /// The key's license duration has lapsed (renewal required).
    KeyExpired,
    /// The server rejected the request (revocation, policy).
    Rejected {
        /// Server-provided reason.
        reason: String,
    },
}

impl CdmError {
    /// A stable lowercase label for telemetry error-class counters.
    #[must_use]
    pub fn class(&self) -> &'static str {
        match self {
            CdmError::BadKeybox { .. } => "bad_keybox",
            CdmError::NotProvisioned => "not_provisioned",
            CdmError::BadMessage { .. } => "bad_message",
            CdmError::BadSignature => "bad_signature",
            CdmError::Crypto(_) => "crypto",
            CdmError::Tee(_) => "tee",
            CdmError::NoSuchSession { .. } => "no_such_session",
            CdmError::SessionLimit { .. } => "session_limit",
            CdmError::SessionIdsExhausted => "session_ids_exhausted",
            CdmError::KeyNotLoaded => "key_not_loaded",
            CdmError::KeyExpired => "key_expired",
            CdmError::Rejected { .. } => "rejected",
        }
    }
}

impl wideleak_faults::ErrorClass for CdmError {
    fn class(&self) -> &'static str {
        Self::class(self)
    }
}

impl fmt::Display for CdmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CdmError::BadKeybox { reason } => write!(f, "bad keybox: {reason}"),
            CdmError::NotProvisioned => f.write_str("device has no provisioned RSA key"),
            CdmError::BadMessage { reason } => write!(f, "bad message: {reason}"),
            CdmError::BadSignature => f.write_str("signature verification failed"),
            CdmError::Crypto(e) => write!(f, "crypto error: {e}"),
            CdmError::Tee(e) => write!(f, "TEE error: {e}"),
            CdmError::NoSuchSession { session_id } => write!(f, "no session {session_id}"),
            CdmError::SessionLimit { max } => {
                write!(f, "session limit reached ({max} open sessions)")
            }
            CdmError::SessionIdsExhausted => f.write_str("session id space exhausted"),
            CdmError::KeyNotLoaded => f.write_str("content key not loaded"),
            CdmError::KeyExpired => f.write_str("content key license expired"),
            CdmError::Rejected { reason } => write!(f, "request rejected: {reason}"),
        }
    }
}

impl std::error::Error for CdmError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CdmError::Crypto(e) => Some(e),
            CdmError::Tee(e) => Some(e),
            _ => None,
        }
    }
}

impl From<wideleak_crypto::CryptoError> for CdmError {
    fn from(e: wideleak_crypto::CryptoError) -> Self {
        CdmError::Crypto(e)
    }
}

impl From<wideleak_tee::TeeError> for CdmError {
    fn from(e: wideleak_tee::TeeError) -> Self {
        CdmError::Tee(e)
    }
}
