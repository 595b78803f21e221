//! The Android Media DRM framework model.
//!
//! Reproduces the architecture of Figure 1 in the paper: OTT apps talk to
//! the Java-level [`MediaDrm`]/[`MediaCrypto`]/[`MediaCodec`] APIs, whose
//! calls cross a Binder boundary into the **Media DRM Server** process,
//! which routes them to the Widevine HAL plugin (`wideleak-cdm`).
//!
//! - [`binder`] — the IPC boundary and its synchronous in-process
//!   transport;
//! - [`netserver`] / [`reactor`] — the TCP transport: a pooled client
//!   framing calls onto real sockets, served by an event-driven server
//!   whose dispatch worker pool runs calls on their own threads like
//!   `mediadrmserver` does;
//! - [`server`] — the Media DRM Server: hands every call to the device's
//!   one Widevine OEMCrypto backend;
//! - [`mediadrm`] — license and provisioning session management
//!   (`openSession`, `getKeyRequest`, `provideKeyResponse`, …);
//! - [`mediacrypto`] / [`mediacodec`] — the decrypt path:
//!   `queueSecureInputBuffer` hands encrypted samples to the codec, which
//!   decrypts *inside the server process* so the app never sees keys or
//!   plaintext buffers (the property that defeated MovieStealer);
//! - [`playback`] — a driver that runs the complete Figure-1 sequence and
//!   records an ordered [`playback::PlaybackTrace`];
//! - [`exoplayer`] — the ExoPlayer-style convenience layer Widevine
//!   recommends to apps, including its subtitle API gap.
//!
//! [`MediaDrm`]: mediadrm::MediaDrm
//! [`MediaCrypto`]: mediacrypto::MediaCrypto
//! [`MediaCodec`]: mediacodec::MediaCodec

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod binder;
pub mod campaign;
pub mod exoplayer;
pub mod mediacodec;
pub mod mediacrypto;
pub mod mediadrm;
pub mod netserver;
pub mod playback;
pub mod reactor;
pub mod server;
pub mod wire;

use std::fmt;

/// Errors surfaced by the Android DRM framework.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DrmError {
    /// The requested DRM scheme UUID is not supported on this device.
    UnsupportedScheme {
        /// The requested UUID.
        uuid: [u8; 16],
    },
    /// The CDM rejected the operation.
    Cdm(wideleak_cdm::CdmError),
    /// The Binder transport failed (server thread gone).
    BinderDied,
    /// The server panicked while handling this transaction. The panic is
    /// contained to the one call; the server keeps serving.
    ServerPanic,
    /// The reply had an unexpected shape (framework bug guard).
    BadReply,
    /// A TCP frame failed to decode (corruption, truncation, protocol
    /// mismatch). Transient from the app's point of view: the connection
    /// is torn down and the retry policy gets a fresh one.
    Wire(wire::WireError),
    /// No reply arrived within the client's read deadline. Transient:
    /// the connection is abandoned and the retry policy gets a fresh
    /// one, instead of the caller hanging on a wedged server forever.
    Timeout {
        /// The deadline that expired, in milliseconds.
        ms: u64,
    },
}

impl DrmError {
    /// A stable lowercase label for telemetry error-class counters.
    ///
    /// Wire errors differentiate per [`wire::WireError`] variant
    /// (`wire.bad_crc`, `wire.truncated`, ...) so the metrics can
    /// distinguish bit rot from truncation from protocol mismatch —
    /// the distinction the paper's failure taxonomy turns on.
    #[must_use]
    pub fn class(&self) -> &'static str {
        match self {
            DrmError::UnsupportedScheme { .. } => "unsupported_scheme",
            DrmError::Cdm(_) => "cdm",
            DrmError::BinderDied => "binder_died",
            DrmError::ServerPanic => "server_panic",
            DrmError::BadReply => "bad_reply",
            DrmError::Wire(w) => match w {
                wire::WireError::Truncated { .. } => "wire.truncated",
                wire::WireError::Oversized { .. } => "wire.oversized",
                wire::WireError::BadMagic { .. } => "wire.bad_magic",
                wire::WireError::UnsupportedVersion { .. } => "wire.unsupported_version",
                wire::WireError::BadCrc { .. } => "wire.bad_crc",
                wire::WireError::Malformed { .. } => "wire.malformed",
            },
            DrmError::Timeout { .. } => "timeout",
        }
    }
}

impl wideleak_faults::ErrorClass for DrmError {
    fn class(&self) -> &'static str {
        Self::class(self)
    }
}

impl fmt::Display for DrmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DrmError::UnsupportedScheme { uuid } => {
                write!(f, "unsupported DRM scheme {:02x?}", &uuid[..4])
            }
            DrmError::Cdm(e) => write!(f, "CDM error: {e}"),
            DrmError::BinderDied => f.write_str("binder transaction failed: server died"),
            DrmError::ServerPanic => f.write_str("media drm server panicked handling the call"),
            DrmError::BadReply => f.write_str("unexpected reply shape from media drm server"),
            DrmError::Wire(e) => write!(f, "wire frame error: {e}"),
            DrmError::Timeout { ms } => {
                write!(f, "binder read timed out after {ms} ms")
            }
        }
    }
}

impl std::error::Error for DrmError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DrmError::Cdm(e) => Some(e),
            DrmError::Wire(e) => Some(e),
            _ => None,
        }
    }
}

impl From<wire::WireError> for DrmError {
    fn from(e: wire::WireError) -> Self {
        DrmError::Wire(e)
    }
}

impl From<wideleak_cdm::CdmError> for DrmError {
    fn from(e: wideleak_cdm::CdmError) -> Self {
        DrmError::Cdm(e)
    }
}
