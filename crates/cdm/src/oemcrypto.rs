//! The OEMCrypto entry-point surface (`_oeccXX` functions) with two
//! backends.
//!
//! Both backends drive the same pure state machine, [`CdmCore`]; the
//! difference is *where secrets live* and *which library name shows up in
//! hook traces* — the two properties the WideLeak monitor keys on:
//!
//! - [`L3OemCrypto`] runs the core in the normal world inside
//!   `libwvdrmengine.so`. On keybox installation it writes the raw keybox
//!   into the CDM process's memory (insecure storage of sensitive
//!   information, CWE-922) unless the CDM version carries the
//!   CVE-2021-0639 fix. Every call is traced under the
//!   `libwvdrmengine.so` library name.
//! - [`L1OemCrypto`] forwards every operation into a TEE trustlet
//!   ([`WidevineTrustlet`]) through `liboemcrypto.so`; hook traces show
//!   the `liboemcrypto.so` boundary crossing (how the monitor confirms L1)
//!   and process memory never contains key material.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};
use wideleak_telemetry::CounterHandle;

use wideleak_bmff::types::{KeyId, Subsample};
use wideleak_crypto::aes::Aes128;
use wideleak_crypto::cmac::aes_cmac_with_key;
use wideleak_crypto::ct::ct_eq;
use wideleak_crypto::hmac::Hmac;
use wideleak_crypto::modes::{cbc_decrypt_padded, cbc_encrypt_padded};
use wideleak_crypto::rsa::RsaPrivateKey;
use wideleak_crypto::sha256::Sha256;
use wideleak_device::catalog::{CdmVersion, SecurityLevel};
use wideleak_device::hooks::{CallEvent, HookEngine};
use wideleak_device::memory::ProcessMemory;
use wideleak_tee::{SecureStorage, SecureWorld, TeeError, Trustlet};

use crate::keybox::Keybox;
use crate::ladder::derive_key_256;
use crate::messages::{LicenseRequest, LicenseResponse, ProvisioningRequest};
use crate::provisioning::{deserialize_rsa_key, serialize_rsa_key, unwrap_rsa_key};
use crate::session::Session;
use crate::wire::{TlvReader, TlvWriter};
use crate::CdmError;

/// The first CDM version carrying the CVE-2021-0639 keybox-storage fix.
pub const KEYBOX_FIX_VERSION: CdmVersion = CdmVersion::new(16, 1, 0);

/// Parameters describing how one sample is encrypted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SampleCrypto {
    /// `cenc`: AES-CTR with an 8-byte per-sample IV.
    Cenc {
        /// The per-sample IV.
        iv: [u8; 8],
    },
    /// `cbcs`: AES-CBC pattern encryption with a constant IV.
    Cbcs {
        /// The constant IV.
        constant_iv: [u8; 16],
        /// Encrypted blocks per pattern period.
        crypt_blocks: u8,
        /// Clear blocks per pattern period.
        skip_blocks: u8,
    },
}

/// Number of session-table shards. Session `id` lives in shard
/// `id % SESSION_SHARDS`, so operations on distinct sessions rarely
/// contend while operations on one session serialize.
pub const SESSION_SHARDS: usize = 16;

/// Default cap on concurrently open sessions (real OEMCrypto enforces a
/// per-device limit; ours is configurable via
/// [`CdmCore::with_max_sessions`]).
pub const DEFAULT_MAX_SESSIONS: u32 = 1024;

/// Counts session opens rejected by the cap or id exhaustion.
static SESSION_REJECTS: CounterHandle = CounterHandle::new("cdm.session.rejected");

/// Samples decrypted successfully.
static DECRYPT_SAMPLES: CounterHandle = CounterHandle::new("cdm.decrypt.samples");

/// Bytes of the samples counted by [`DECRYPT_SAMPLES`], clear and
/// encrypted alike.
static DECRYPT_BYTES: CounterHandle = CounterHandle::new("cdm.decrypt.bytes");

/// Device-global state: the root of trust, the provisioned RSA key and
/// the logical clock. Mutated rarely (boot, provisioning, clock ticks);
/// read on every session operation — hence one `RwLock` for all of it.
struct DeviceState {
    keybox: Option<Keybox>,
    /// Behind an `Arc` because the key embeds precomputed Montgomery/CRT
    /// contexts: handing a reference-counted pointer out of the read lock
    /// is cheap, deep-cloning the contexts per license load is not.
    rsa_key: Option<Arc<RsaPrivateKey>>,
    /// Logical clock in seconds, driving license-duration enforcement.
    clock: u64,
}

/// The pure CDM state machine shared by both security levels.
///
/// Internally split for concurrency: device-global state (keybox, RSA
/// key, clock) sits behind one `RwLock`, while sessions live in a fixed
/// array of mutex-guarded shards selected by session id. Decrypts on
/// distinct sessions proceed in parallel; provisioning and license
/// install still serialize on the locks they need.
///
/// Lock ordering: a device lock and a shard lock are never held at the
/// same time — device state is copied out (keys are small) before the
/// shard is locked, which makes lock-order inversions impossible.
pub struct CdmCore {
    cdm_version: CdmVersion,
    security_level: SecurityLevel,
    device: RwLock<DeviceState>,
    shards: [Mutex<HashMap<u32, Session>>; SESSION_SHARDS],
    next_session: AtomicU32,
    open_sessions: AtomicU32,
    max_sessions: u32,
}

impl std::fmt::Debug for CdmCore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let device = self.device.read();
        write!(
            f,
            "CdmCore(v{}, {}, keybox: {}, provisioned: {}, sessions: {})",
            self.cdm_version,
            self.security_level,
            device.keybox.is_some(),
            device.rsa_key.is_some(),
            self.open_sessions.load(Ordering::Relaxed)
        )
    }
}

impl CdmCore {
    /// Creates a core for a device of the given version and level.
    pub fn new(cdm_version: CdmVersion, security_level: SecurityLevel) -> Self {
        Self::with_max_sessions(cdm_version, security_level, DEFAULT_MAX_SESSIONS)
    }

    /// Creates a core enforcing a custom concurrent-session cap.
    pub fn with_max_sessions(
        cdm_version: CdmVersion,
        security_level: SecurityLevel,
        max_sessions: u32,
    ) -> Self {
        CdmCore {
            cdm_version,
            security_level,
            device: RwLock::new(DeviceState { keybox: None, rsa_key: None, clock: 0 }),
            shards: std::array::from_fn(|_| Mutex::new(HashMap::new())),
            next_session: AtomicU32::new(1),
            open_sessions: AtomicU32::new(0),
            max_sessions,
        }
    }

    fn shard(&self, session_id: u32) -> &Mutex<HashMap<u32, Session>> {
        &self.shards[session_id as usize % SESSION_SHARDS]
    }

    /// The CDM version this core was built for.
    pub fn cdm_version(&self) -> CdmVersion {
        self.cdm_version
    }

    /// Advances the CDM's logical clock (license durations count against
    /// it).
    pub fn advance_clock(&self, seconds: u64) {
        let mut device = self.device.write();
        device.clock = device.clock.saturating_add(seconds);
    }

    /// The current logical time.
    pub fn now(&self) -> u64 {
        self.device.read().clock
    }

    /// Installs the factory keybox.
    pub fn install_keybox(&self, keybox: Keybox) {
        self.device.write().keybox = Some(keybox);
    }

    fn keybox(&self) -> Result<Keybox, CdmError> {
        self.device
            .read()
            .keybox
            .clone()
            .ok_or(CdmError::BadKeybox { reason: "no keybox installed" })
    }

    /// The keybox device id.
    ///
    /// # Errors
    ///
    /// Returns [`CdmError::BadKeybox`] before installation.
    pub fn device_id(&self) -> Result<Vec<u8>, CdmError> {
        Ok(self.keybox()?.device_id().to_vec())
    }

    /// Whether a Device RSA Key is installed.
    pub fn is_provisioned(&self) -> bool {
        self.device.read().rsa_key.is_some()
    }

    /// A handle to the Device RSA Key, if provisioned (the L1 trustlet
    /// persists it to secure storage). Cloning the `Arc` shares the
    /// precomputed exponentiation contexts instead of rebuilding them.
    pub fn rsa_key(&self) -> Option<Arc<RsaPrivateKey>> {
        self.device.read().rsa_key.clone()
    }

    /// Installs a Device RSA Key directly (the L1 trustlet restores a
    /// persisted key after a restart through this).
    pub fn set_rsa_key(&self, key: RsaPrivateKey) {
        self.device.write().rsa_key = Some(Arc::new(key));
    }

    /// Builds a signed provisioning request.
    ///
    /// # Errors
    ///
    /// Returns [`CdmError::BadKeybox`] before keybox installation.
    pub fn provisioning_request(&self, nonce: [u8; 16]) -> Result<ProvisioningRequest, CdmError> {
        let _span = wideleak_telemetry::span!("cdm.provisioning_request");
        let _trace = wideleak_telemetry::trace::span("cdm.provisioning_request");
        let kb = self.keybox()?;
        let mut req = ProvisioningRequest {
            device_id: kb.device_id().to_vec(),
            cdm_version: self.cdm_version,
            security_level: self.security_level,
            nonce,
            signature: [0; 16],
        };
        // Authenticate with a CMAC keyed by the raw device key; the server
        // looks the device key up by device id.
        req.signature = aes_cmac_with_key(kb.device_key(), &req.body_bytes());
        Ok(req)
    }

    /// Processes a provisioning response, installing the Device RSA Key.
    ///
    /// # Errors
    ///
    /// Propagates verification and decode failures from
    /// [`unwrap_rsa_key`].
    pub fn install_rsa_key(
        &self,
        expected_nonce: [u8; 16],
        response: &crate::messages::ProvisioningResponse,
    ) -> Result<(), CdmError> {
        let _span = wideleak_telemetry::span!("cdm.install_rsa_key");
        let _trace = wideleak_telemetry::trace::span("cdm.install_rsa_key");
        let kb = self.keybox()?;
        // Unwrap outside the write lock: the RSA decrypt is the expensive
        // part and needs no device state beyond the keybox copy.
        let key = unwrap_rsa_key(kb.device_key(), kb.device_id(), Some(expected_nonce), response)?;
        self.device.write().rsa_key = Some(Arc::new(key));
        // Installing the unwrapped key completes one provisioning
        // round-trip (request + response).
        wideleak_telemetry::incr("cdm.provisioning.round_trips");
        Ok(())
    }

    /// Opens a session with the given nonce, returning its id.
    ///
    /// # Errors
    ///
    /// Returns [`CdmError::SessionLimit`] at the concurrent-session cap
    /// and [`CdmError::SessionIdsExhausted`] once the 32-bit id space is
    /// spent (ids are never reused, so a wrap would collide with live
    /// sessions).
    pub fn open_session(&self, nonce: [u8; 16]) -> Result<u32, CdmError> {
        if self
            .open_sessions
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| {
                (n < self.max_sessions).then_some(n + 1)
            })
            .is_err()
        {
            SESSION_REJECTS.incr();
            return Err(CdmError::SessionLimit { max: self.max_sessions });
        }
        let id = match self
            .next_session
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| n.checked_add(1))
        {
            Ok(id) => id,
            Err(_) => {
                self.open_sessions.fetch_sub(1, Ordering::AcqRel);
                SESSION_REJECTS.incr();
                return Err(CdmError::SessionIdsExhausted);
            }
        };
        self.shard(id).lock().insert(id, Session::new(nonce));
        Ok(id)
    }

    /// Closes a session, dropping its keys.
    ///
    /// # Errors
    ///
    /// Returns [`CdmError::NoSuchSession`].
    pub fn close_session(&self, session_id: u32) -> Result<(), CdmError> {
        let removed = self.shard(session_id).lock().remove(&session_id);
        match removed {
            Some(_) => {
                self.open_sessions.fetch_sub(1, Ordering::AcqRel);
                Ok(())
            }
            None => Err(CdmError::NoSuchSession { session_id }),
        }
    }

    /// How many sessions are currently open.
    pub fn open_session_count(&self) -> u32 {
        self.open_sessions.load(Ordering::Acquire)
    }

    /// How many session entries are actually resident in the sharded
    /// table. Must track [`CdmCore::open_session_count`] exactly: a
    /// divergence means closed sessions leaked table entries and the
    /// `SessionLimit` cap would count dead sessions.
    pub fn resident_session_count(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    /// Copies a session's content key out under the shard lock so the
    /// actual cipher work can run without holding any lock.
    fn content_key(&self, session_id: u32, kid: &KeyId) -> Result<[u8; 16], CdmError> {
        let now = self.now();
        let shard = self.shard(session_id).lock();
        let session = shard.get(&session_id).ok_or(CdmError::NoSuchSession { session_id })?;
        Ok(session.content_key_at(kid, now)?.key)
    }

    /// Builds an RSA-signed license request for a session.
    ///
    /// # Errors
    ///
    /// Returns [`CdmError::NotProvisioned`] without a Device RSA Key and
    /// [`CdmError::NoSuchSession`] for unknown sessions.
    pub fn license_request(
        &self,
        session_id: u32,
        content_id: &str,
        key_ids: &[KeyId],
    ) -> Result<LicenseRequest, CdmError> {
        let _span = wideleak_telemetry::span!("cdm.license_request", session = session_id);
        let _trace = wideleak_telemetry::trace::span("cdm.license_request");
        let nonce = {
            let shard = self.shard(session_id).lock();
            shard.get(&session_id).ok_or(CdmError::NoSuchSession { session_id })?.nonce
        };
        let device = self.device.read();
        let rsa = device.rsa_key.as_ref().ok_or(CdmError::NotProvisioned)?;
        let kb =
            device.keybox.as_ref().ok_or(CdmError::BadKeybox { reason: "no keybox installed" })?;
        let mut req = LicenseRequest {
            device_id: kb.device_id().to_vec(),
            content_id: content_id.to_owned(),
            key_ids: key_ids.to_vec(),
            nonce,
            cdm_version: self.cdm_version,
            security_level: self.security_level,
            rsa_signature: Vec::new(),
        };
        req.rsa_signature = rsa.sign_pkcs1v15_sha256(&req.body_bytes())?;
        Ok(req)
    }

    /// Loads a license response into a session.
    ///
    /// # Errors
    ///
    /// Propagates session and verification failures.
    pub fn load_license(
        &self,
        session_id: u32,
        response: &LicenseResponse,
    ) -> Result<Vec<KeyId>, CdmError> {
        let _span = wideleak_telemetry::span!("cdm.load_license", session = session_id);
        let _trace = wideleak_telemetry::trace::span("cdm.load_license");
        let (rsa, now) = {
            let device = self.device.read();
            (device.rsa_key.clone().ok_or(CdmError::NotProvisioned)?, device.clock)
        };
        let keys = {
            let mut shard = self.shard(session_id).lock();
            let session =
                shard.get_mut(&session_id).ok_or(CdmError::NoSuchSession { session_id })?;
            session.load_license(&rsa, self.security_level, now, response)?
        };
        wideleak_telemetry::incr("cdm.license.loads");
        wideleak_telemetry::add("cdm.license.keys_loaded", keys.len() as u64);
        Ok(keys)
    }

    /// Decrypts one CENC sample with a loaded content key.
    ///
    /// The cipher work runs after the content key is copied out of the
    /// session shard, so decrypts on distinct sessions parallelize.
    ///
    /// # Errors
    ///
    /// Returns [`CdmError::KeyNotLoaded`] or a wrapped scheme error.
    pub fn decrypt_sample(
        &self,
        session_id: u32,
        kid: &KeyId,
        crypto: &SampleCrypto,
        data: &[u8],
        subsamples: &[Subsample],
    ) -> Result<Vec<u8>, CdmError> {
        let key = self.content_key(session_id, kid)?;
        let out = decrypt_sample_with_key(&key, crypto, data, subsamples);
        if out.is_ok() {
            DECRYPT_SAMPLES.incr();
            DECRYPT_BYTES.add(data.len() as u64);
        }
        out
    }

    /// Generic (non-DASH) encryption under a loaded key — the secure
    /// channel OTT apps like Netflix use for arbitrary data.
    ///
    /// # Errors
    ///
    /// Returns [`CdmError::KeyNotLoaded`] for unknown keys.
    pub fn generic_encrypt(
        &self,
        session_id: u32,
        kid: &KeyId,
        iv: [u8; 16],
        data: &[u8],
    ) -> Result<Vec<u8>, CdmError> {
        let key = self.content_key(session_id, kid)?;
        Ok(cbc_encrypt_padded(&Aes128::new(&key), &iv, data))
    }

    /// Generic decryption (see [`CdmCore::generic_encrypt`]).
    ///
    /// # Errors
    ///
    /// Returns [`CdmError::KeyNotLoaded`] or a padding error.
    pub fn generic_decrypt(
        &self,
        session_id: u32,
        kid: &KeyId,
        iv: [u8; 16],
        data: &[u8],
    ) -> Result<Vec<u8>, CdmError> {
        let key = self.content_key(session_id, kid)?;
        Ok(cbc_decrypt_padded(&Aes128::new(&key), &iv, data)?)
    }

    /// Generic signing under a loaded key.
    ///
    /// # Errors
    ///
    /// Returns [`CdmError::KeyNotLoaded`] for unknown keys.
    pub fn generic_sign(
        &self,
        session_id: u32,
        kid: &KeyId,
        data: &[u8],
    ) -> Result<Vec<u8>, CdmError> {
        let key = self.content_key(session_id, kid)?;
        let mac_key = derive_key_256(&key, crate::ladder::labels::AUTHENTICATION, b"generic");
        Ok(Hmac::<Sha256>::mac(&mac_key, data))
    }

    /// Generic verification (see [`CdmCore::generic_sign`]).
    ///
    /// # Errors
    ///
    /// Returns [`CdmError::BadSignature`] on mismatch.
    pub fn generic_verify(
        &self,
        session_id: u32,
        kid: &KeyId,
        data: &[u8],
        signature: &[u8],
    ) -> Result<(), CdmError> {
        let expected = self.generic_sign(session_id, kid, data)?;
        if ct_eq(&expected, signature) {
            Ok(())
        } else {
            Err(CdmError::BadSignature)
        }
    }
}

/// Shared sample decryption used by the core and (reimplemented) by the
/// attack once it has recovered keys.
pub fn decrypt_sample_with_key(
    key: &[u8; 16],
    crypto: &SampleCrypto,
    data: &[u8],
    subsamples: &[Subsample],
) -> Result<Vec<u8>, CdmError> {
    use wideleak_cenc as cenc;
    let content_key = cenc::keys::ContentKey(*key);
    let result = match crypto {
        SampleCrypto::Cenc { iv } => cenc::ctr::decrypt_sample(&content_key, *iv, data, subsamples),
        SampleCrypto::Cbcs { constant_iv, crypt_blocks, skip_blocks } => {
            let pattern = wideleak_bmff::types::CryptPattern {
                crypt_blocks: *crypt_blocks,
                skip_blocks: *skip_blocks,
            };
            cenc::cbcs::decrypt_sample(&content_key, *constant_iv, pattern, data, subsamples)
        }
    };
    result.map_err(|_| CdmError::BadMessage { reason: "sample decryption failed" })
}

/// The `_oeccXX` surface both backends expose to the Android DRM layer.
pub trait OemCrypto: Send {
    /// `_oecc01_Initialize`-class query: which security level this backend
    /// actually provides.
    fn security_level(&self) -> SecurityLevel;

    /// The CDM version this backend reports.
    fn cdm_version(&self) -> CdmVersion;

    /// Advances the CDM's logical clock (drives license-duration expiry).
    fn advance_clock(&self, seconds: u64) -> Result<(), CdmError>;

    /// Installs the factory keybox.
    fn install_keybox(&self, keybox: Keybox) -> Result<(), CdmError>;

    /// The keybox device id.
    fn device_id(&self) -> Result<Vec<u8>, CdmError>;

    /// Whether a Device RSA Key is installed.
    fn is_provisioned(&self) -> bool;

    /// Builds a signed provisioning request.
    fn provisioning_request(&self, nonce: [u8; 16]) -> Result<ProvisioningRequest, CdmError>;

    /// Installs the Device RSA Key from a provisioning response.
    fn install_rsa_key(
        &self,
        expected_nonce: [u8; 16],
        response: &crate::messages::ProvisioningResponse,
    ) -> Result<(), CdmError>;

    /// Opens a session.
    fn open_session(&self, nonce: [u8; 16]) -> Result<u32, CdmError>;

    /// Closes a session.
    fn close_session(&self, session_id: u32) -> Result<(), CdmError>;

    /// Builds a license request.
    fn license_request(
        &self,
        session_id: u32,
        content_id: &str,
        key_ids: &[KeyId],
    ) -> Result<LicenseRequest, CdmError>;

    /// Loads a license response.
    fn load_license(
        &self,
        session_id: u32,
        response: &LicenseResponse,
    ) -> Result<Vec<KeyId>, CdmError>;

    /// Decrypts one sample.
    fn decrypt_sample(
        &self,
        session_id: u32,
        kid: &KeyId,
        crypto: &SampleCrypto,
        data: &[u8],
        subsamples: &[Subsample],
    ) -> Result<Vec<u8>, CdmError>;

    /// Generic encrypt (non-DASH secure channel).
    fn generic_encrypt(
        &self,
        session_id: u32,
        kid: &KeyId,
        iv: [u8; 16],
        data: &[u8],
    ) -> Result<Vec<u8>, CdmError>;

    /// Generic decrypt (non-DASH secure channel).
    fn generic_decrypt(
        &self,
        session_id: u32,
        kid: &KeyId,
        iv: [u8; 16],
        data: &[u8],
    ) -> Result<Vec<u8>, CdmError>;

    /// Generic sign.
    fn generic_sign(&self, session_id: u32, kid: &KeyId, data: &[u8]) -> Result<Vec<u8>, CdmError>;

    /// Generic verify.
    fn generic_verify(
        &self,
        session_id: u32,
        kid: &KeyId,
        data: &[u8],
        signature: &[u8],
    ) -> Result<(), CdmError>;
}

/// The software-only Widevine backend (`libwvdrmengine.so`).
///
/// No lock of its own: [`CdmCore`] is internally synchronized, so
/// concurrent binder workers call straight through.
pub struct L3OemCrypto {
    core: CdmCore,
    hooks: Arc<HookEngine>,
    memory: Arc<ProcessMemory>,
    data_region: usize,
}

/// Library name hook traces carry for L3-internal calls.
pub const L3_LIBRARY: &str = "libwvdrmengine.so";

/// Library name hook traces carry when control flow crosses into the TEE
/// driver (L1 only).
pub const L1_LIBRARY: &str = "liboemcrypto.so";

impl L3OemCrypto {
    /// Boots the L3 CDM inside the media DRM process.
    pub fn new(
        cdm_version: CdmVersion,
        hooks: Arc<HookEngine>,
        memory: Arc<ProcessMemory>,
    ) -> Self {
        let data_region = memory.map_region(format!("{L3_LIBRARY}:.data"), Vec::new());
        L3OemCrypto {
            core: CdmCore::new(cdm_version, SecurityLevel::L3),
            hooks,
            memory,
            data_region,
        }
    }

    fn trace(&self, function: &str, args: Vec<Vec<u8>>, result: Option<Vec<u8>>) {
        self.hooks.trace(CallEvent {
            library: L3_LIBRARY.into(),
            function: function.into(),
            args,
            result,
        });
    }

    /// Whether this CDM version zeroizes the keybox after ladder
    /// initialization (the CVE-2021-0639 fix).
    pub fn is_keybox_storage_patched(&self) -> bool {
        self.core.cdm_version() >= KEYBOX_FIX_VERSION
    }
}

impl OemCrypto for L3OemCrypto {
    fn security_level(&self) -> SecurityLevel {
        SecurityLevel::L3
    }

    fn cdm_version(&self) -> CdmVersion {
        self.core.cdm_version()
    }

    fn advance_clock(&self, seconds: u64) -> Result<(), CdmError> {
        self.core.advance_clock(seconds);
        Ok(())
    }

    fn install_keybox(&self, keybox: Keybox) -> Result<(), CdmError> {
        self.trace("_oecc01_Initialize", vec![], None);
        // CWE-922: the software CDM keeps its root of trust in a plain
        // .data buffer of the CDM process. Post-fix versions zeroize it
        // once the ladder is seeded.
        let bytes = keybox.to_bytes();
        let offset = self.memory.append(self.data_region, &bytes);
        self.core.install_keybox(keybox);
        if self.core.cdm_version() >= KEYBOX_FIX_VERSION {
            self.memory.zeroize(self.data_region, offset, bytes.len());
        }
        self.trace("_oecc02_InstallKeybox", vec![], None);
        Ok(())
    }

    fn device_id(&self) -> Result<Vec<u8>, CdmError> {
        self.core.device_id()
    }

    fn is_provisioned(&self) -> bool {
        self.core.is_provisioned()
    }

    fn provisioning_request(&self, nonce: [u8; 16]) -> Result<ProvisioningRequest, CdmError> {
        let req = self.core.provisioning_request(nonce)?;
        self.trace("_oecc08_GenerateNonce", vec![nonce.to_vec()], None);
        self.trace(
            "_oecc09_GenerateSignature",
            vec![req.body_bytes()],
            Some(req.signature.to_vec()),
        );
        Ok(req)
    }

    fn install_rsa_key(
        &self,
        expected_nonce: [u8; 16],
        response: &crate::messages::ProvisioningResponse,
    ) -> Result<(), CdmError> {
        // The hook dump of this call is what lets the attack decrypt the
        // RSA key once it owns the keybox.
        self.trace("_oecc31_RewrapDeviceRSAKey", vec![response.to_bytes()], None);
        self.core.install_rsa_key(expected_nonce, response)?;
        self.trace("_oecc32_LoadDeviceRSAKey", vec![], None);
        Ok(())
    }

    fn open_session(&self, nonce: [u8; 16]) -> Result<u32, CdmError> {
        let id = self.core.open_session(nonce)?;
        self.trace("_oecc04_OpenSession", vec![nonce.to_vec()], Some(id.to_be_bytes().to_vec()));
        Ok(id)
    }

    fn close_session(&self, session_id: u32) -> Result<(), CdmError> {
        self.trace("_oecc05_CloseSession", vec![session_id.to_be_bytes().to_vec()], None);
        self.core.close_session(session_id)
    }

    fn license_request(
        &self,
        session_id: u32,
        content_id: &str,
        key_ids: &[KeyId],
    ) -> Result<LicenseRequest, CdmError> {
        let req = self.core.license_request(session_id, content_id, key_ids)?;
        self.trace(
            "_oecc33_GenerateRSASignature",
            vec![req.body_bytes()],
            Some(req.rsa_signature.clone()),
        );
        Ok(req)
    }

    fn load_license(
        &self,
        session_id: u32,
        response: &LicenseResponse,
    ) -> Result<Vec<KeyId>, CdmError> {
        // Dump the derivation inputs and the wrapped keys, mirroring the
        // buffers the paper's Frida script captures.
        self.trace(
            "_oecc34_DeriveKeysFromSessionKey",
            vec![
                response.encrypted_session_key.clone(),
                response.enc_context.clone(),
                response.mac_context.clone(),
            ],
            None,
        );
        let loaded = self.core.load_license(session_id, response)?;
        self.trace("_oecc11_LoadKeys", vec![response.to_bytes()], None);
        Ok(loaded)
    }

    fn decrypt_sample(
        &self,
        session_id: u32,
        kid: &KeyId,
        crypto: &SampleCrypto,
        data: &[u8],
        subsamples: &[Subsample],
    ) -> Result<Vec<u8>, CdmError> {
        let out = self.core.decrypt_sample(session_id, kid, crypto, data, subsamples)?;
        self.trace("_oecc21_DecryptCTR", vec![kid.0.to_vec()], None);
        Ok(out)
    }

    fn generic_encrypt(
        &self,
        session_id: u32,
        kid: &KeyId,
        iv: [u8; 16],
        data: &[u8],
    ) -> Result<Vec<u8>, CdmError> {
        let out = self.core.generic_encrypt(session_id, kid, iv, data)?;
        self.trace("_oecc41_Generic_Encrypt", vec![data.to_vec()], Some(out.clone()));
        Ok(out)
    }

    fn generic_decrypt(
        &self,
        session_id: u32,
        kid: &KeyId,
        iv: [u8; 16],
        data: &[u8],
    ) -> Result<Vec<u8>, CdmError> {
        let out = self.core.generic_decrypt(session_id, kid, iv, data)?;
        // The output dump is how the monitor recovers Netflix URIs that
        // travel through the non-DASH secure channel.
        self.trace("_oecc42_Generic_Decrypt", vec![data.to_vec()], Some(out.clone()));
        Ok(out)
    }

    fn generic_sign(&self, session_id: u32, kid: &KeyId, data: &[u8]) -> Result<Vec<u8>, CdmError> {
        let out = self.core.generic_sign(session_id, kid, data)?;
        self.trace("_oecc43_Generic_Sign", vec![data.to_vec()], Some(out.clone()));
        Ok(out)
    }

    fn generic_verify(
        &self,
        session_id: u32,
        kid: &KeyId,
        data: &[u8],
        signature: &[u8],
    ) -> Result<(), CdmError> {
        let result = self.core.generic_verify(session_id, kid, data, signature);
        self.trace(
            "_oecc44_Generic_Verify",
            vec![data.to_vec(), signature.to_vec()],
            Some(vec![result.is_ok() as u8]),
        );
        result
    }
}

// --- L1: the TEE-backed backend -----------------------------------------

/// Trustlet command codes.
mod cmd {
    pub const INSTALL_KEYBOX: u32 = 1;
    pub const DEVICE_ID: u32 = 2;
    pub const IS_PROVISIONED: u32 = 3;
    pub const PROV_REQUEST: u32 = 4;
    pub const INSTALL_RSA: u32 = 5;
    pub const OPEN_SESSION: u32 = 6;
    pub const CLOSE_SESSION: u32 = 7;
    pub const LICENSE_REQUEST: u32 = 8;
    pub const LOAD_LICENSE: u32 = 9;
    pub const DECRYPT_SAMPLE: u32 = 10;
    pub const GENERIC_ENCRYPT: u32 = 11;
    pub const GENERIC_DECRYPT: u32 = 12;
    pub const GENERIC_SIGN: u32 = 13;
    pub const GENERIC_VERIFY: u32 = 14;
    pub const ADVANCE_CLOCK: u32 = 15;
}

/// The Widevine trustlet name inside the secure world.
pub const WIDEVINE_TRUSTLET: &str = "widevine";

/// The Widevine trusted application hosting [`CdmCore`] in the secure
/// world. Secrets persist across invocations through [`SecureStorage`].
pub struct WidevineTrustlet {
    core: CdmCore,
}

impl WidevineTrustlet {
    /// Creates the trustlet for a device.
    pub fn new(cdm_version: CdmVersion) -> Self {
        WidevineTrustlet { core: CdmCore::new(cdm_version, SecurityLevel::L1) }
    }
}

/// The one CDM failure that must survive the world switch with its class
/// intact: real OEMCrypto has a dedicated error code for expired
/// licenses, and renewal logic in the normal world keys off it.
const TEE_KEY_EXPIRED: &str = "content key license expired";

fn tee_bad_params(e: CdmError) -> TeeError {
    match e {
        CdmError::KeyExpired => TeeError::AccessDenied { reason: TEE_KEY_EXPIRED },
        _ => TeeError::BadParameters { reason: "CDM operation failed" },
    }
}

impl Trustlet for WidevineTrustlet {
    fn name(&self) -> &str {
        WIDEVINE_TRUSTLET
    }

    fn invoke(
        &mut self,
        command: u32,
        input: &[u8],
        storage: &mut SecureStorage,
    ) -> Result<Vec<u8>, TeeError> {
        match command {
            cmd::INSTALL_KEYBOX => {
                let kb = Keybox::parse(input).map_err(tee_bad_params)?;
                // The keybox persists in *secure* storage — invisible to
                // normal-world memory scans.
                storage.put("keybox", input.to_vec());
                self.core.install_keybox(kb);
                Ok(Vec::new())
            }
            cmd::DEVICE_ID => self.core.device_id().map_err(tee_bad_params),
            cmd::ADVANCE_CLOCK => {
                let secs: [u8; 8] = input
                    .try_into()
                    .map_err(|_| TeeError::BadParameters { reason: "seconds must be 8 bytes" })?;
                self.core.advance_clock(u64::from_be_bytes(secs));
                Ok(Vec::new())
            }
            cmd::IS_PROVISIONED => Ok(vec![self.core.is_provisioned() as u8]),
            cmd::PROV_REQUEST => {
                let nonce: [u8; 16] = input
                    .try_into()
                    .map_err(|_| TeeError::BadParameters { reason: "nonce must be 16 bytes" })?;
                let req = self.core.provisioning_request(nonce).map_err(tee_bad_params)?;
                Ok(req.to_bytes())
            }
            cmd::INSTALL_RSA => {
                let r = TlvReader::parse(input)
                    .map_err(|_| TeeError::BadParameters { reason: "bad TLV" })?;
                let nonce: [u8; 16] =
                    r.require_array(1).map_err(|_| TeeError::BadParameters { reason: "nonce" })?;
                let resp = crate::messages::ProvisioningResponse::parse(
                    r.require(2).map_err(|_| TeeError::BadParameters { reason: "resp" })?,
                )
                .map_err(tee_bad_params)?;
                self.core.install_rsa_key(nonce, &resp).map_err(|e| match e {
                    CdmError::BadSignature => {
                        TeeError::AccessDenied { reason: "bad provisioning MAC" }
                    }
                    other => tee_bad_params(other),
                })?;
                // Persist the provisioned key in secure storage.
                if let Some(rsa) = self.core.rsa_key() {
                    storage.put("rsa_key", serialize_rsa_key(&rsa));
                }
                Ok(Vec::new())
            }
            cmd::OPEN_SESSION => {
                let nonce: [u8; 16] = input
                    .try_into()
                    .map_err(|_| TeeError::BadParameters { reason: "nonce must be 16 bytes" })?;
                // Recover a persisted RSA key after a trustlet restart.
                if !self.core.is_provisioned() && storage.contains("rsa_key") {
                    if let Ok(blob) = storage.get("rsa_key") {
                        if let Ok(key) = deserialize_rsa_key(blob) {
                            self.core.set_rsa_key(key);
                        }
                    }
                }
                let id = self.core.open_session(nonce).map_err(|e| match e {
                    CdmError::SessionLimit { .. } | CdmError::SessionIdsExhausted => {
                        TeeError::AccessDenied { reason: "session limit reached" }
                    }
                    other => tee_bad_params(other),
                })?;
                Ok(id.to_be_bytes().to_vec())
            }
            cmd::CLOSE_SESSION => {
                let id = parse_session_id(input)?;
                self.core.close_session(id).map_err(tee_bad_params)?;
                Ok(Vec::new())
            }
            cmd::LICENSE_REQUEST => {
                let r = TlvReader::parse(input)
                    .map_err(|_| TeeError::BadParameters { reason: "bad TLV" })?;
                let id = r.require_u32(1).map_err(|_| TeeError::BadParameters { reason: "sid" })?;
                let content_id =
                    r.require_string(2).map_err(|_| TeeError::BadParameters { reason: "cid" })?;
                let kids: Vec<KeyId> = r
                    .get_all(3)
                    .into_iter()
                    .filter_map(|raw| raw.try_into().ok().map(KeyId))
                    .collect();
                let req =
                    self.core.license_request(id, &content_id, &kids).map_err(tee_bad_params)?;
                Ok(req.to_bytes())
            }
            cmd::LOAD_LICENSE => {
                let r = TlvReader::parse(input)
                    .map_err(|_| TeeError::BadParameters { reason: "bad TLV" })?;
                let id = r.require_u32(1).map_err(|_| TeeError::BadParameters { reason: "sid" })?;
                let resp = LicenseResponse::parse(
                    r.require(2).map_err(|_| TeeError::BadParameters { reason: "resp" })?,
                )
                .map_err(tee_bad_params)?;
                let loaded = self.core.load_license(id, &resp).map_err(|e| match e {
                    CdmError::BadSignature => TeeError::AccessDenied { reason: "bad license MAC" },
                    other => tee_bad_params(other),
                })?;
                let mut w = TlvWriter::new();
                for kid in loaded {
                    w.bytes(1, &kid.0);
                }
                Ok(w.finish())
            }
            cmd::DECRYPT_SAMPLE => {
                let (id, kid, crypto, data, subsamples) = parse_decrypt_input(input)?;
                self.core
                    .decrypt_sample(id, &kid, &crypto, &data, &subsamples)
                    .map_err(tee_bad_params)
            }
            cmd::GENERIC_ENCRYPT | cmd::GENERIC_DECRYPT | cmd::GENERIC_SIGN => {
                let r = TlvReader::parse(input)
                    .map_err(|_| TeeError::BadParameters { reason: "bad TLV" })?;
                let id = r.require_u32(1).map_err(|_| TeeError::BadParameters { reason: "sid" })?;
                let kid = KeyId(
                    r.require_array(2).map_err(|_| TeeError::BadParameters { reason: "kid" })?,
                );
                let data = r.require(4).map_err(|_| TeeError::BadParameters { reason: "data" })?;
                match command {
                    cmd::GENERIC_ENCRYPT | cmd::GENERIC_DECRYPT => {
                        let iv: [u8; 16] = r
                            .require_array(3)
                            .map_err(|_| TeeError::BadParameters { reason: "iv" })?;
                        if command == cmd::GENERIC_ENCRYPT {
                            self.core.generic_encrypt(id, &kid, iv, data).map_err(tee_bad_params)
                        } else {
                            self.core.generic_decrypt(id, &kid, iv, data).map_err(tee_bad_params)
                        }
                    }
                    _ => self.core.generic_sign(id, &kid, data).map_err(tee_bad_params),
                }
            }
            cmd::GENERIC_VERIFY => {
                let r = TlvReader::parse(input)
                    .map_err(|_| TeeError::BadParameters { reason: "bad TLV" })?;
                let id = r.require_u32(1).map_err(|_| TeeError::BadParameters { reason: "sid" })?;
                let kid = KeyId(
                    r.require_array(2).map_err(|_| TeeError::BadParameters { reason: "kid" })?,
                );
                let data = r.require(4).map_err(|_| TeeError::BadParameters { reason: "data" })?;
                let sig = r.require(5).map_err(|_| TeeError::BadParameters { reason: "sig" })?;
                // Only a genuine mismatch maps to the "false" reply byte;
                // a closed session or missing key is a real error, not a
                // failed verification.
                match self.core.generic_verify(id, &kid, data, sig) {
                    Ok(()) => Ok(vec![1]),
                    Err(CdmError::BadSignature) => Ok(vec![0]),
                    Err(other) => Err(tee_bad_params(other)),
                }
            }
            other => Err(TeeError::BadCommand { command: other }),
        }
    }
}

fn parse_session_id(input: &[u8]) -> Result<u32, TeeError> {
    input
        .try_into()
        .map(u32::from_be_bytes)
        .map_err(|_| TeeError::BadParameters { reason: "session id must be 4 bytes" })
}

type DecryptInput = (u32, KeyId, SampleCrypto, Vec<u8>, Vec<Subsample>);

fn parse_decrypt_input(input: &[u8]) -> Result<DecryptInput, TeeError> {
    let bad = |reason: &'static str| TeeError::BadParameters { reason };
    let r = TlvReader::parse(input).map_err(|_| bad("bad TLV"))?;
    let id = r.require_u32(1).map_err(|_| bad("sid"))?;
    let kid = KeyId(r.require_array(2).map_err(|_| bad("kid"))?);
    let crypto = match r.require_u32(3).map_err(|_| bad("mode"))? {
        0 => SampleCrypto::Cenc { iv: r.require_array(4).map_err(|_| bad("iv"))? },
        1 => {
            let iv: [u8; 16] = r.require_array(4).map_err(|_| bad("civ"))?;
            let pattern: [u8; 2] = r.require_array(5).map_err(|_| bad("pattern"))?;
            SampleCrypto::Cbcs {
                constant_iv: iv,
                crypt_blocks: pattern[0],
                skip_blocks: pattern[1],
            }
        }
        _ => return Err(bad("unknown mode")),
    };
    let data = r.require(6).map_err(|_| bad("data"))?.to_vec();
    let subsamples = r
        .get_all(7)
        .into_iter()
        .map(|raw| {
            let arr: [u8; 6] = raw.try_into().map_err(|_| bad("subsample"))?;
            Ok(Subsample {
                clear_bytes: u16::from_be_bytes([arr[0], arr[1]]),
                encrypted_bytes: u32::from_be_bytes([arr[2], arr[3], arr[4], arr[5]]),
            })
        })
        .collect::<Result<_, TeeError>>()?;
    Ok((id, kid, crypto, data, subsamples))
}

fn encode_decrypt_input(
    session_id: u32,
    kid: &KeyId,
    crypto: &SampleCrypto,
    data: &[u8],
    subsamples: &[Subsample],
) -> Vec<u8> {
    let mut w = TlvWriter::new();
    w.u32(1, session_id).bytes(2, &kid.0);
    match crypto {
        SampleCrypto::Cenc { iv } => {
            w.u32(3, 0).bytes(4, iv);
        }
        SampleCrypto::Cbcs { constant_iv, crypt_blocks, skip_blocks } => {
            w.u32(3, 1).bytes(4, constant_iv).bytes(5, &[*crypt_blocks, *skip_blocks]);
        }
    }
    w.bytes(6, data);
    for s in subsamples {
        let mut raw = [0u8; 6];
        raw[..2].copy_from_slice(&s.clear_bytes.to_be_bytes());
        raw[2..].copy_from_slice(&s.encrypted_bytes.to_be_bytes());
        w.bytes(7, &raw);
    }
    w.finish()
}

/// The TEE-backed Widevine backend: a thin normal-world client whose every
/// operation is a world switch through `liboemcrypto.so`.
pub struct L1OemCrypto {
    cdm_version: CdmVersion,
    world: Arc<SecureWorld>,
    hooks: Arc<HookEngine>,
}

impl L1OemCrypto {
    /// Boots the L1 client, loading the Widevine trustlet into the secure
    /// world.
    pub fn new(cdm_version: CdmVersion, world: Arc<SecureWorld>, hooks: Arc<HookEngine>) -> Self {
        world.load_trustlet(Box::new(WidevineTrustlet::new(cdm_version)));
        L1OemCrypto { cdm_version, world, hooks }
    }

    fn call(&self, function: &str, command: u32, input: Vec<u8>) -> Result<Vec<u8>, CdmError> {
        // The world switch is its own trace phase: with a propagated
        // context, a single client call renders client → server → cdm →
        // tee with the TEE residency visible as this span's duration.
        let _tee = wideleak_telemetry::trace::span("tee.invoke").with("function", function);
        let result =
            self.world.invoke(WIDEVINE_TRUSTLET, command, &input).map_err(|e| match e {
                TeeError::AccessDenied { reason: TEE_KEY_EXPIRED } => CdmError::KeyExpired,
                other => CdmError::Tee(other),
            })?;
        // L1's signature in the hook log: the call crosses
        // liboemcrypto.so. Input *and* output buffers live in the normal
        // world (they are the world-switch parameters), so hooks can dump
        // both — key material stays inside the TEE, but what the CDM
        // returns to apps (e.g. generic-decrypt plaintext) does not.
        self.hooks.trace(CallEvent {
            library: L1_LIBRARY.into(),
            function: function.into(),
            args: vec![input],
            result: Some(result.clone()),
        });
        Ok(result)
    }
}

impl OemCrypto for L1OemCrypto {
    fn security_level(&self) -> SecurityLevel {
        SecurityLevel::L1
    }

    fn cdm_version(&self) -> CdmVersion {
        self.cdm_version
    }

    fn advance_clock(&self, seconds: u64) -> Result<(), CdmError> {
        self.call("_oecc06_AdvanceClock", cmd::ADVANCE_CLOCK, seconds.to_be_bytes().to_vec())?;
        Ok(())
    }

    fn install_keybox(&self, keybox: Keybox) -> Result<(), CdmError> {
        self.call("_oecc02_InstallKeybox", cmd::INSTALL_KEYBOX, keybox.to_bytes().to_vec())?;
        Ok(())
    }

    fn device_id(&self) -> Result<Vec<u8>, CdmError> {
        self.call("_oecc03_GetDeviceID", cmd::DEVICE_ID, Vec::new())
    }

    fn is_provisioned(&self) -> bool {
        self.call("_oecc30_IsProvisioned", cmd::IS_PROVISIONED, Vec::new())
            .map(|v| v == [1])
            .unwrap_or(false)
    }

    fn provisioning_request(&self, nonce: [u8; 16]) -> Result<ProvisioningRequest, CdmError> {
        let raw = self.call("_oecc09_GenerateSignature", cmd::PROV_REQUEST, nonce.to_vec())?;
        ProvisioningRequest::parse(&raw)
    }

    fn install_rsa_key(
        &self,
        expected_nonce: [u8; 16],
        response: &crate::messages::ProvisioningResponse,
    ) -> Result<(), CdmError> {
        let mut w = TlvWriter::new();
        w.bytes(1, &expected_nonce).bytes(2, &response.to_bytes());
        self.call("_oecc31_RewrapDeviceRSAKey", cmd::INSTALL_RSA, w.finish())?;
        Ok(())
    }

    fn open_session(&self, nonce: [u8; 16]) -> Result<u32, CdmError> {
        let raw = self.call("_oecc04_OpenSession", cmd::OPEN_SESSION, nonce.to_vec())?;
        let arr: [u8; 4] = raw
            .as_slice()
            .try_into()
            .map_err(|_| CdmError::BadMessage { reason: "bad session id" })?;
        Ok(u32::from_be_bytes(arr))
    }

    fn close_session(&self, session_id: u32) -> Result<(), CdmError> {
        self.call("_oecc05_CloseSession", cmd::CLOSE_SESSION, session_id.to_be_bytes().to_vec())?;
        Ok(())
    }

    fn license_request(
        &self,
        session_id: u32,
        content_id: &str,
        key_ids: &[KeyId],
    ) -> Result<LicenseRequest, CdmError> {
        let mut w = TlvWriter::new();
        w.u32(1, session_id).string(2, content_id);
        for kid in key_ids {
            w.bytes(3, &kid.0);
        }
        let raw = self.call("_oecc33_GenerateRSASignature", cmd::LICENSE_REQUEST, w.finish())?;
        LicenseRequest::parse(&raw)
    }

    fn load_license(
        &self,
        session_id: u32,
        response: &LicenseResponse,
    ) -> Result<Vec<KeyId>, CdmError> {
        let mut w = TlvWriter::new();
        w.u32(1, session_id).bytes(2, &response.to_bytes());
        let raw = self.call("_oecc11_LoadKeys", cmd::LOAD_LICENSE, w.finish())?;
        let r = TlvReader::parse(&raw)?;
        Ok(r.get_all(1).into_iter().filter_map(|raw| raw.try_into().ok().map(KeyId)).collect())
    }

    fn decrypt_sample(
        &self,
        session_id: u32,
        kid: &KeyId,
        crypto: &SampleCrypto,
        data: &[u8],
        subsamples: &[Subsample],
    ) -> Result<Vec<u8>, CdmError> {
        let input = encode_decrypt_input(session_id, kid, crypto, data, subsamples);
        self.call("_oecc21_DecryptCTR", cmd::DECRYPT_SAMPLE, input)
    }

    fn generic_encrypt(
        &self,
        session_id: u32,
        kid: &KeyId,
        iv: [u8; 16],
        data: &[u8],
    ) -> Result<Vec<u8>, CdmError> {
        let mut w = TlvWriter::new();
        w.u32(1, session_id).bytes(2, &kid.0).bytes(3, &iv).bytes(4, data);
        self.call("_oecc41_Generic_Encrypt", cmd::GENERIC_ENCRYPT, w.finish())
    }

    fn generic_decrypt(
        &self,
        session_id: u32,
        kid: &KeyId,
        iv: [u8; 16],
        data: &[u8],
    ) -> Result<Vec<u8>, CdmError> {
        let mut w = TlvWriter::new();
        w.u32(1, session_id).bytes(2, &kid.0).bytes(3, &iv).bytes(4, data);
        self.call("_oecc42_Generic_Decrypt", cmd::GENERIC_DECRYPT, w.finish())
    }

    fn generic_sign(&self, session_id: u32, kid: &KeyId, data: &[u8]) -> Result<Vec<u8>, CdmError> {
        let mut w = TlvWriter::new();
        w.u32(1, session_id).bytes(2, &kid.0).bytes(4, data);
        self.call("_oecc43_Generic_Sign", cmd::GENERIC_SIGN, w.finish())
    }

    fn generic_verify(
        &self,
        session_id: u32,
        kid: &KeyId,
        data: &[u8],
        signature: &[u8],
    ) -> Result<(), CdmError> {
        let mut w = TlvWriter::new();
        w.u32(1, session_id).bytes(2, &kid.0).bytes(4, data).bytes(5, signature);
        let out = self.call("_oecc44_Generic_Verify", cmd::GENERIC_VERIFY, w.finish())?;
        match out.as_slice() {
            [1] => Ok(()),
            [0] => Err(CdmError::BadSignature),
            _ => Err(CdmError::BadMessage { reason: "bad verify reply" }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hooks() -> Arc<HookEngine> {
        Arc::new(HookEngine::new())
    }

    fn memory() -> Arc<ProcessMemory> {
        Arc::new(ProcessMemory::new("mediaserver"))
    }

    fn keybox() -> Keybox {
        Keybox::issue(b"oemcrypto-test-device", &[0x55; 16])
    }

    #[test]
    fn l3_leaks_keybox_into_process_memory() {
        let mem = memory();
        let l3 = L3OemCrypto::new(CdmVersion::new(3, 1, 0), hooks(), mem.clone());
        assert!(!l3.is_keybox_storage_patched());
        l3.install_keybox(keybox()).unwrap();
        // The magic number is findable — CWE-922.
        let hits = mem.scan(b"kbox");
        assert_eq!(hits.len(), 1);
        let (region, offset) = hits[0];
        let raw = mem.read(region, offset - 120, 128).unwrap();
        assert!(Keybox::parse(&raw).is_ok());
    }

    #[test]
    fn patched_l3_zeroizes_keybox() {
        let mem = memory();
        let l3 = L3OemCrypto::new(KEYBOX_FIX_VERSION, hooks(), mem.clone());
        assert!(l3.is_keybox_storage_patched());
        l3.install_keybox(keybox()).unwrap();
        assert!(mem.scan(b"kbox").is_empty(), "fixed CDM leaves no keybox in memory");
        // The CDM still works.
        assert_eq!(l3.device_id().unwrap().len(), 32);
    }

    #[test]
    fn l1_keeps_memory_clean() {
        let mem = memory();
        let world = Arc::new(SecureWorld::new());
        let l1 = L1OemCrypto::new(CdmVersion::new(16, 0, 0), world.clone(), hooks());
        l1.install_keybox(keybox()).unwrap();
        assert!(mem.scan(b"kbox").is_empty(), "keybox lives in the TEE only");
        assert_eq!(l1.device_id().unwrap().len(), 32);
        assert!(world.switch_count() >= 2, "operations are world switches");
    }

    #[test]
    fn hook_traces_carry_the_right_library() {
        // L3: all calls stay in libwvdrmengine.so.
        let h3 = hooks();
        h3.start_recording();
        let l3 = L3OemCrypto::new(CdmVersion::new(3, 1, 0), h3.clone(), memory());
        l3.install_keybox(keybox()).unwrap();
        let log3 = h3.stop_recording();
        assert!(!log3.is_empty());
        assert!(log3.iter().all(|e| e.library == L3_LIBRARY));

        // L1: calls cross liboemcrypto.so.
        let h1 = hooks();
        h1.start_recording();
        let l1 =
            L1OemCrypto::new(CdmVersion::new(16, 0, 0), Arc::new(SecureWorld::new()), h1.clone());
        l1.install_keybox(keybox()).unwrap();
        let log1 = h1.stop_recording();
        assert!(!log1.is_empty());
        assert!(log1.iter().all(|e| e.library == L1_LIBRARY));
    }

    #[test]
    fn sessions_open_and_close_on_both_backends() {
        let backends: Vec<Box<dyn OemCrypto>> = vec![
            Box::new(L3OemCrypto::new(CdmVersion::new(3, 1, 0), hooks(), memory())),
            Box::new(L1OemCrypto::new(
                CdmVersion::new(16, 0, 0),
                Arc::new(SecureWorld::new()),
                hooks(),
            )),
        ];
        for backend in backends {
            backend.install_keybox(keybox()).unwrap();
            let a = backend.open_session([1; 16]).unwrap();
            let b = backend.open_session([2; 16]).unwrap();
            assert_ne!(a, b);
            backend.close_session(a).unwrap();
            assert!(backend.close_session(a).is_err(), "double close fails");
            backend.close_session(b).unwrap();
        }
    }

    #[test]
    fn unprovisioned_license_request_fails() {
        let l3 = L3OemCrypto::new(CdmVersion::new(3, 1, 0), hooks(), memory());
        l3.install_keybox(keybox()).unwrap();
        let sid = l3.open_session([0; 16]).unwrap();
        assert!(!l3.is_provisioned());
        assert!(matches!(l3.license_request(sid, "title", &[]), Err(CdmError::NotProvisioned)));
    }

    #[test]
    fn provisioning_request_is_cmac_signed() {
        let l3 = L3OemCrypto::new(CdmVersion::new(3, 1, 0), hooks(), memory());
        let kb = keybox();
        l3.install_keybox(kb.clone()).unwrap();
        let req = l3.provisioning_request([9; 16]).unwrap();
        let expected = aes_cmac_with_key(kb.device_key(), &req.body_bytes());
        assert_eq!(req.signature, expected);
        assert_eq!(req.security_level, SecurityLevel::L3);
        assert_eq!(req.cdm_version, CdmVersion::new(3, 1, 0));
    }

    #[test]
    fn decrypt_input_codec_round_trip() {
        let subs = vec![
            Subsample { clear_bytes: 4, encrypted_bytes: 60 },
            Subsample { clear_bytes: 0, encrypted_bytes: 100 },
        ];
        for crypto in [
            SampleCrypto::Cenc { iv: [7; 8] },
            SampleCrypto::Cbcs { constant_iv: [8; 16], crypt_blocks: 1, skip_blocks: 9 },
        ] {
            let enc = encode_decrypt_input(5, &KeyId([2; 16]), &crypto, b"data", &subs);
            let (id, kid, parsed_crypto, data, parsed_subs) = parse_decrypt_input(&enc).unwrap();
            assert_eq!(id, 5);
            assert_eq!(kid, KeyId([2; 16]));
            assert_eq!(parsed_crypto, crypto);
            assert_eq!(data, b"data");
            assert_eq!(parsed_subs, subs);
        }
    }

    #[test]
    fn trustlet_rejects_unknown_command() {
        let world = SecureWorld::new();
        world.load_trustlet(Box::new(WidevineTrustlet::new(CdmVersion::new(16, 0, 0))));
        assert!(matches!(
            world.invoke(WIDEVINE_TRUSTLET, 999, &[]),
            Err(TeeError::BadCommand { command: 999 })
        ));
    }

    #[test]
    fn trustlet_rejects_garbage_keybox() {
        let world = SecureWorld::new();
        world.load_trustlet(Box::new(WidevineTrustlet::new(CdmVersion::new(16, 0, 0))));
        assert!(world.invoke(WIDEVINE_TRUSTLET, cmd::INSTALL_KEYBOX, &[0u8; 10]).is_err());
    }

    #[test]
    fn session_cap_rejects_with_typed_error_and_frees_on_close() {
        let core = CdmCore::with_max_sessions(CdmVersion::new(16, 0, 0), SecurityLevel::L3, 2);
        let a = core.open_session([1; 16]).unwrap();
        let _b = core.open_session([2; 16]).unwrap();
        assert!(matches!(core.open_session([3; 16]), Err(CdmError::SessionLimit { max: 2 })));
        core.close_session(a).unwrap();
        assert!(core.open_session([4; 16]).is_ok(), "closing frees a slot");
        assert_eq!(core.open_session_count(), 2);
    }

    #[test]
    fn session_id_exhaustion_errors_instead_of_wrapping() {
        let core = CdmCore::new(CdmVersion::new(16, 0, 0), SecurityLevel::L3);
        core.next_session.store(u32::MAX, Ordering::Relaxed);
        assert!(matches!(core.open_session([0; 16]), Err(CdmError::SessionIdsExhausted)));
        // The failed open must not leak a slot from the session cap.
        assert_eq!(core.open_session_count(), 0);
    }

    /// Installs a content key straight into a session, bypassing the
    /// license wire format (tests target the decrypt path, not loading).
    fn load_key_directly(core: &CdmCore, sid: u32, kid: KeyId, key: [u8; 16], duration: u32) {
        use crate::messages::KeyControl;
        use crate::session::LoadedKey;
        let loaded_at = core.now();
        let mut shard = core.shard(sid).lock();
        shard.get_mut(&sid).unwrap().content_keys.insert(
            kid,
            LoadedKey {
                key,
                control: KeyControl {
                    max_resolution_height: 2160,
                    min_security_level: SecurityLevel::L3,
                    duration_seconds: duration,
                },
                loaded_at,
            },
        );
    }

    #[test]
    fn churn_does_not_grow_the_session_table() {
        // Open/close 10x the cap: the cap must count live sessions only,
        // and the sharded table must not retain closed sessions.
        let cap = 8u32;
        let core = CdmCore::with_max_sessions(CdmVersion::new(16, 0, 0), SecurityLevel::L3, cap);
        for round in 0..10 {
            let ids: Vec<u32> = (0..cap)
                .map(|i| core.open_session([(round * 16 + i) as u8; 16]).unwrap())
                .collect();
            assert_eq!(core.open_session_count(), cap);
            assert_eq!(core.resident_session_count(), cap as usize);
            assert!(matches!(core.open_session([0xFF; 16]), Err(CdmError::SessionLimit { .. })));
            for id in ids {
                core.close_session(id).unwrap();
            }
        }
        assert_eq!(core.open_session_count(), 0);
        assert_eq!(core.resident_session_count(), 0, "closed sessions must leave the table");
        assert!(core.open_session([0; 16]).is_ok(), "cap slots all freed after churn");
    }

    #[test]
    fn decrypt_sample_recovers_plaintext_under_both_schemes() {
        use wideleak_cenc as cenc;
        let kid = KeyId([4; 16]);
        let key = [0x5A; 16];
        let content_key = cenc::keys::ContentKey(key);
        let sample: Vec<u8> = (0..600).map(|i| (i % 251) as u8).collect();
        let subs = [
            Subsample { clear_bytes: 12, encrypted_bytes: 300 },
            Subsample { clear_bytes: 0, encrypted_bytes: 288 },
        ];
        let pattern = wideleak_bmff::types::CryptPattern { crypt_blocks: 1, skip_blocks: 9 };
        let core = CdmCore::new(CdmVersion::new(16, 0, 0), SecurityLevel::L3);
        let sid = core.open_session([1; 16]).unwrap();
        load_key_directly(&core, sid, kid, key, 0);
        for (crypto, ct) in [
            (
                SampleCrypto::Cenc { iv: [7; 8] },
                cenc::ctr::encrypt_sample(&content_key, [7; 8], &sample, &subs).unwrap(),
            ),
            (
                SampleCrypto::Cbcs { constant_iv: [8; 16], crypt_blocks: 1, skip_blocks: 9 },
                cenc::cbcs::encrypt_sample(&content_key, [8; 16], pattern, &sample, &subs).unwrap(),
            ),
        ] {
            assert_ne!(ct, sample, "{crypto:?} must encrypt something");
            let got = core.decrypt_sample(sid, &kid, &crypto, &ct, &subs).unwrap();
            assert_eq!(got, sample, "{crypto:?} must recover the plaintext");
        }
    }

    #[test]
    fn decrypt_counts_samples_and_bytes() {
        let registry = wideleak_telemetry::global().registry();
        let (samples, bytes) =
            (registry.counter("cdm.decrypt.samples"), registry.counter("cdm.decrypt.bytes"));
        let kid = KeyId([7; 16]);
        let core = CdmCore::new(CdmVersion::new(16, 0, 0), SecurityLevel::L3);
        let sid = core.open_session([1; 16]).unwrap();
        load_key_directly(&core, sid, kid, [0x88; 16], 0);
        let data = [0u8; 80];
        wideleak_telemetry::enable();
        // The collector is process-global and other tests decrypt
        // concurrently, so the counters advance by at least this call.
        let (samples_before, bytes_before) =
            (samples.load(Ordering::Relaxed), bytes.load(Ordering::Relaxed));
        core.decrypt_sample(sid, &kid, &SampleCrypto::Cenc { iv: [2; 8] }, &data, &[]).unwrap();
        assert!(samples.load(Ordering::Relaxed) > samples_before);
        assert!(bytes.load(Ordering::Relaxed) >= bytes_before + data.len() as u64);
        assert!(
            registry
                .counter_values()
                .iter()
                .all(|(name, _)| !name.starts_with("cdm.decrypt.bytes.")),
            "no per-session counters: the registry must not grow with sessions opened"
        );
    }

    #[test]
    fn sessions_on_distinct_shards_operate_concurrently() {
        let core = Arc::new(CdmCore::new(CdmVersion::new(16, 0, 0), SecurityLevel::L3));
        let mut ids = Vec::new();
        for i in 0..8u8 {
            ids.push(core.open_session([i; 16]).unwrap());
        }
        let handles: Vec<_> = ids
            .iter()
            .map(|&id| {
                let core = Arc::clone(&core);
                std::thread::spawn(move || {
                    // No keys are loaded, so each op fails — the point is
                    // that cross-shard traffic races without deadlocking.
                    for _ in 0..50 {
                        let _ = core.generic_sign(id, &KeyId([9; 16]), b"payload");
                    }
                    core.close_session(id).unwrap();
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(core.open_session_count(), 0);
    }

    #[test]
    fn trustlet_verify_distinguishes_errors_from_mismatch() {
        let world = SecureWorld::new();
        world.load_trustlet(Box::new(WidevineTrustlet::new(CdmVersion::new(16, 0, 0))));
        // Verify against a session that was never opened: must error, not
        // report "signature invalid".
        let mut w = TlvWriter::new();
        w.u32(1, 42).bytes(2, &[7; 16]).bytes(4, b"data").bytes(5, b"sig");
        let reply = world.invoke(WIDEVINE_TRUSTLET, cmd::GENERIC_VERIFY, &w.finish());
        assert!(reply.is_err(), "closed session must not verify as false: {reply:?}");
    }
}
