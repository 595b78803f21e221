//! The Binder IPC boundary between app processes and the Media DRM
//! Server.
//!
//! Calls are a typed enum ([`DrmCall`]) rather than raw parcels; what
//! matters for the study is the *process boundary*, which
//! [`TcpBinder`](crate::netserver::TcpBinder) makes real by framing every
//! call onto a socket served by the reactor's dispatch worker pool (the
//! simulator's `mediadrmserver` thread pool). [`InProcessBinder`] offers
//! the same interface synchronously for cheap unit tests. Both implement
//! the one [`Transport`] trait, and both run every transaction through
//! the same [`transact_via`] seam — telemetry, panic isolation and fault
//! injection compose there once instead of per-transport.
//!
//! Both transports isolate panics per transaction: a handler that
//! unwinds yields [`DrmError::ServerPanic`] for that one call and the
//! server keeps serving — a poisoned call must not take the whole DRM
//! stack down with it.
//!
//! When a [`FaultInjector`] is attached (via
//! [`InProcessBinder::with_fault_injector`] or
//! [`TcpBinderBuilder::fault_injector`](crate::netserver::TcpBinderBuilder::fault_injector)),
//! binder-plane fault rules are consulted per transaction: dropped
//! transactions surface as [`DrmError::BinderDied`], injected panics as
//! [`DrmError::ServerPanic`], latency advances the shared virtual clock,
//! and clock skew forwards the CDM's logical clock (expiring licenses).

use std::panic::AssertUnwindSafe;
use std::sync::Arc;

use wideleak_bmff::types::{KeyId, Subsample};
use wideleak_cdm::oemcrypto::SampleCrypto;
use wideleak_faults::{corrupt_body, FaultInjector, FaultKind, Plane};
use wideleak_telemetry::{trace, CounterHandle};

use crate::{server::MediaDrmServer, DrmError};

/// One DRM framework transaction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DrmCall {
    /// `MediaDrm(UUID)` support probe.
    IsSchemeSupported {
        /// The DRM system UUID.
        uuid: [u8; 16],
    },
    /// Opens a CDM session.
    OpenSession {
        /// Session nonce.
        nonce: [u8; 16],
    },
    /// Closes a CDM session.
    CloseSession {
        /// The session to close.
        session_id: u32,
    },
    /// Whether the device holds a provisioned RSA key.
    IsProvisioned,
    /// Builds a provisioning request.
    GetProvisionRequest {
        /// Anti-replay nonce.
        nonce: [u8; 16],
    },
    /// Installs a provisioning response.
    ProvideProvisionResponse {
        /// The nonce the request carried.
        nonce: [u8; 16],
        /// The serialized response.
        response: Vec<u8>,
    },
    /// Builds a license (key) request for a session.
    GetKeyRequest {
        /// The session.
        session_id: u32,
        /// Content identifier.
        content_id: String,
        /// Requested key IDs.
        key_ids: Vec<KeyId>,
    },
    /// Loads a license response into a session.
    ProvideKeyResponse {
        /// The session.
        session_id: u32,
        /// The serialized response.
        response: Vec<u8>,
    },
    /// Decrypts one sample (MediaCodec secure path).
    DecryptSample {
        /// The session holding the key.
        session_id: u32,
        /// The content key ID.
        kid: KeyId,
        /// Scheme parameters.
        crypto: SampleCrypto,
        /// Encrypted sample bytes.
        data: Vec<u8>,
        /// Subsample map.
        subsamples: Vec<Subsample>,
    },
    /// Generic (non-DASH) encrypt.
    GenericEncrypt {
        /// The session holding the key.
        session_id: u32,
        /// Key ID.
        kid: KeyId,
        /// CBC IV.
        iv: [u8; 16],
        /// Plaintext.
        data: Vec<u8>,
    },
    /// Generic (non-DASH) decrypt.
    GenericDecrypt {
        /// The session holding the key.
        session_id: u32,
        /// Key ID.
        kid: KeyId,
        /// CBC IV.
        iv: [u8; 16],
        /// Ciphertext.
        data: Vec<u8>,
    },
    /// Generic (non-DASH) sign.
    GenericSign {
        /// The session holding the key.
        session_id: u32,
        /// Key ID.
        kid: KeyId,
        /// Message.
        data: Vec<u8>,
    },
    /// Generic (non-DASH) verify.
    GenericVerify {
        /// The session holding the key.
        session_id: u32,
        /// Key ID.
        kid: KeyId,
        /// Message.
        data: Vec<u8>,
        /// Signature to check.
        signature: Vec<u8>,
    },
}

impl DrmCall {
    /// The transaction kind as a static label, used for telemetry
    /// span fields and per-kind request counters.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            DrmCall::IsSchemeSupported { .. } => "is_scheme_supported",
            DrmCall::OpenSession { .. } => "open_session",
            DrmCall::CloseSession { .. } => "close_session",
            DrmCall::IsProvisioned => "is_provisioned",
            DrmCall::GetProvisionRequest { .. } => "get_provision_request",
            DrmCall::ProvideProvisionResponse { .. } => "provide_provision_response",
            DrmCall::GetKeyRequest { .. } => "get_key_request",
            DrmCall::ProvideKeyResponse { .. } => "provide_key_response",
            DrmCall::DecryptSample { .. } => "decrypt_sample",
            DrmCall::GenericEncrypt { .. } => "generic_encrypt",
            DrmCall::GenericDecrypt { .. } => "generic_decrypt",
            DrmCall::GenericSign { .. } => "generic_sign",
            DrmCall::GenericVerify { .. } => "generic_verify",
        }
    }

    /// Index into the per-kind counter table (one slot per variant).
    fn kind_index(&self) -> usize {
        match self {
            DrmCall::IsSchemeSupported { .. } => 0,
            DrmCall::OpenSession { .. } => 1,
            DrmCall::CloseSession { .. } => 2,
            DrmCall::IsProvisioned => 3,
            DrmCall::GetProvisionRequest { .. } => 4,
            DrmCall::ProvideProvisionResponse { .. } => 5,
            DrmCall::GetKeyRequest { .. } => 6,
            DrmCall::ProvideKeyResponse { .. } => 7,
            DrmCall::DecryptSample { .. } => 8,
            DrmCall::GenericEncrypt { .. } => 9,
            DrmCall::GenericDecrypt { .. } => 10,
            DrmCall::GenericSign { .. } => 11,
            DrmCall::GenericVerify { .. } => 12,
        }
    }
}

/// Pre-registered counter handles for the transaction hot path: the
/// name lookup (and the `format!` it used to require) happens once per
/// process, after which every transaction is a relaxed atomic add.
static TRANSACT_TOTAL: CounterHandle = CounterHandle::new("binder.transact");
static TRANSACT_BY_KIND: [CounterHandle; 13] = [
    CounterHandle::new("binder.transact.is_scheme_supported"),
    CounterHandle::new("binder.transact.open_session"),
    CounterHandle::new("binder.transact.close_session"),
    CounterHandle::new("binder.transact.is_provisioned"),
    CounterHandle::new("binder.transact.get_provision_request"),
    CounterHandle::new("binder.transact.provide_provision_response"),
    CounterHandle::new("binder.transact.get_key_request"),
    CounterHandle::new("binder.transact.provide_key_response"),
    CounterHandle::new("binder.transact.decrypt_sample"),
    CounterHandle::new("binder.transact.generic_encrypt"),
    CounterHandle::new("binder.transact.generic_decrypt"),
    CounterHandle::new("binder.transact.generic_sign"),
    CounterHandle::new("binder.transact.generic_verify"),
];
static SERVER_PANICS: CounterHandle = CounterHandle::new("binder.server_panics");

/// Records the telemetry shared by both transports: per-kind request
/// counters and an error-class counter on failure. The success path
/// allocates nothing; errors are rare enough to pay a name lookup.
fn record_transaction(kind_index: usize, reply: &Result<DrmReply, DrmError>) {
    if !wideleak_telemetry::is_enabled() {
        return;
    }
    TRANSACT_TOTAL.incr();
    TRANSACT_BY_KIND[kind_index].incr();
    if let Err(e) = reply {
        wideleak_faults::record_error("binder.error", e);
    }
}

/// Runs one transaction with panic isolation: an unwinding handler is
/// contained to this call and reported as [`DrmError::ServerPanic`]
/// instead of poisoning the transport.
pub(crate) fn dispatch(server: &MediaDrmServer, call: DrmCall) -> Result<DrmReply, DrmError> {
    let mut trace_span = trace::span("server.dispatch");
    if trace_span.context().is_some() {
        trace_span.note("kind", call.kind());
    }
    let reply =
        std::panic::catch_unwind(AssertUnwindSafe(|| server.handle(call))).unwrap_or_else(|_| {
            SERVER_PANICS.incr();
            Err(DrmError::ServerPanic)
        });
    if let Err(e) = &reply {
        trace_span.note("error", e.class());
    }
    reply
}

/// How a transport realises corruption and drop faults.
///
/// In-memory transports have no frames, so corruption mangles the typed
/// byte payload centrally ([`FaultStyle::Payload`]); the TCP transport
/// has real frames on a real socket, so those fault kinds are handed to
/// the transport's `run` step, which damages the received frame bytes
/// (surfacing as CRC/decode errors) or severs a pooled connection
/// ([`FaultStyle::Frame`]). Either way the injector's `decide` runs
/// exactly once per transaction, so injection schedules line up across
/// transports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FaultStyle {
    /// Corruption mutates the decoded reply payload; drops never reach
    /// the transport.
    Payload,
    /// Corruption and drops are realised on the wire by the transport.
    Frame,
}

/// The single transaction seam all transports run through: telemetry
/// span + per-kind counters + binder-plane fault injection around the
/// transport-specific `run` step. Having exactly one seam is what lets
/// faults compose identically over the in-process and TCP paths. `run`
/// receives the fault kind (if any) that the transport itself must
/// realise; it is always `None` under [`FaultStyle::Payload`].
pub(crate) fn transact_via(
    span_name: &'static str,
    injector: Option<&FaultInjector>,
    server: Option<&MediaDrmServer>,
    style: FaultStyle,
    call: DrmCall,
    run: impl FnOnce(DrmCall, Option<&FaultKind>) -> Result<DrmReply, DrmError>,
) -> Result<DrmReply, DrmError> {
    let kind_index = call.kind_index();
    let _span = wideleak_telemetry::span!(span_name, kind = call.kind());
    // The trace root for this call: every in-process child span chains
    // under it through the thread-local stack, and the transports carry
    // its context across thread and process boundaries.
    let mut trace_span = trace::span("drm.call");
    if trace_span.context().is_some() {
        trace_span.note("kind", call.kind());
        trace_span.note("transport", span_name);
    }
    let reply = apply_binder_faults(injector, server, style, call, run);
    if let Err(e) = &reply {
        trace_span.note("error", e.class());
    }
    record_transaction(kind_index, &reply);
    reply
}

/// Evaluates binder-plane fault rules for one transaction and maps the
/// fault kinds onto transport-visible behaviour.
fn apply_binder_faults(
    injector: Option<&FaultInjector>,
    server: Option<&MediaDrmServer>,
    style: FaultStyle,
    call: DrmCall,
    run: impl FnOnce(DrmCall, Option<&FaultKind>) -> Result<DrmReply, DrmError>,
) -> Result<DrmReply, DrmError> {
    let Some(fault) = injector
        .filter(|inj| inj.is_active())
        .and_then(|inj| inj.decide(Plane::Binder, call.kind()).map(|kind| (inj, kind)))
    else {
        return run(call, None);
    };
    let (inj, kind) = fault;
    // Correlate the injected fault with the live trace: the annotation
    // lands on the innermost open span (the `drm.call` root).
    trace::annotate("fault", kind.label());
    match kind {
        // The handler blows up; the transports' panic containment
        // reports it without taking the server down.
        FaultKind::Panic | FaultKind::ErrorCode => {
            SERVER_PANICS.incr();
            Err(DrmError::ServerPanic)
        }
        // The call completes, but only after the virtual clock moved.
        FaultKind::Latency { ms } => {
            inj.clock().advance_ms(ms);
            run(call, None)
        }
        // The device clock jumps before the call lands, expiring any
        // loaded license whose duration the skew exceeds. A transport
        // with no handle onto its server (remote TCP) cannot realise
        // skew; the call proceeds unfaulted.
        FaultKind::ClockSkew { secs } => {
            if let Some(server) = server {
                server.advance_clocks(secs);
            }
            run(call, None)
        }
        // The channel drops mid-transaction: no reply ever arrives. The
        // frame style lets the transport sever a real connection first.
        FaultKind::Drop => match style {
            FaultStyle::Payload => Err(DrmError::BinderDied),
            FaultStyle::Frame => run(call, Some(&FaultKind::Drop)),
        },
        // Corruption: payload style mangles decoded byte replies here;
        // frame style hands the kind to the transport, which damages the
        // received frame bytes so the codec's CRC/decode checks trip.
        kind @ (FaultKind::TruncateBody { .. } | FaultKind::GarbleBody) => match style {
            FaultStyle::Payload => match run(call, None)? {
                DrmReply::Bytes(bytes) => Ok(DrmReply::Bytes(corrupt_body(&kind, bytes))),
                other => Ok(other),
            },
            FaultStyle::Frame => run(call, Some(&kind)),
        },
    }
}

/// A successful transaction reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DrmReply {
    /// No payload.
    Unit,
    /// A boolean answer.
    Bool(bool),
    /// A session id.
    SessionId(u32),
    /// An opaque byte payload (requests, responses, plaintext...).
    Bytes(Vec<u8>),
    /// A list of key IDs.
    KeyIds(Vec<KeyId>),
}

impl DrmReply {
    /// Extracts a byte payload.
    ///
    /// # Errors
    ///
    /// Returns [`DrmError::BadReply`] for other variants.
    pub fn into_bytes(self) -> Result<Vec<u8>, DrmError> {
        match self {
            DrmReply::Bytes(b) => Ok(b),
            _ => Err(DrmError::BadReply),
        }
    }

    /// Extracts a session id.
    ///
    /// # Errors
    ///
    /// Returns [`DrmError::BadReply`] for other variants.
    pub fn into_session_id(self) -> Result<u32, DrmError> {
        match self {
            DrmReply::SessionId(id) => Ok(id),
            _ => Err(DrmError::BadReply),
        }
    }

    /// Extracts a bool.
    ///
    /// # Errors
    ///
    /// Returns [`DrmError::BadReply`] for other variants.
    pub fn into_bool(self) -> Result<bool, DrmError> {
        match self {
            DrmReply::Bool(b) => Ok(b),
            _ => Err(DrmError::BadReply),
        }
    }

    /// Extracts a key-id list.
    ///
    /// # Errors
    ///
    /// Returns [`DrmError::BadReply`] for other variants.
    pub fn into_key_ids(self) -> Result<Vec<KeyId>, DrmError> {
        match self {
            DrmReply::KeyIds(k) => Ok(k),
            _ => Err(DrmError::BadReply),
        }
    }
}

/// The unified IPC transport to the Media DRM Server — the one seam the
/// framework, apps, monitor and attack tooling all talk through.
pub trait Transport: Send + Sync {
    /// Performs one transaction.
    ///
    /// # Errors
    ///
    /// Returns [`DrmError`] from the server or the transport itself.
    fn transact(&self, call: DrmCall) -> Result<DrmReply, DrmError>;
}

/// Which [`Transport`] implementation a component should boot with.
///
/// The two transports are behaviourally interchangeable — the
/// differential battery in `tests/tests/transport_differential.rs` pins
/// byte-identical study output across them — so this is purely a
/// performance/realism knob: [`InProcess`](TransportKind::InProcess) for
/// cheap unit tests, [`Tcp`](TransportKind::Tcp) for real frames on a
/// loopback socket and a real thread boundary into the server's
/// dispatch pool.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum TransportKind {
    /// Synchronous same-thread dispatch ([`InProcessBinder`]).
    #[default]
    InProcess,
    /// Wire-framed loopback TCP ([`TcpBinder`](crate::netserver::TcpBinder)).
    Tcp,
}

impl TransportKind {
    /// A stable lowercase label for CLI flags and report lines.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            TransportKind::InProcess => "inprocess",
            TransportKind::Tcp => "tcp",
        }
    }

    /// All kinds, in boot-cost order — handy for differential sweeps.
    pub const ALL: [TransportKind; 2] = [TransportKind::InProcess, TransportKind::Tcp];
}

impl std::str::FromStr for TransportKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "inprocess" | "in-process" => Ok(TransportKind::InProcess),
            "tcp" => Ok(TransportKind::Tcp),
            other => Err(format!("unknown transport {other:?} (expected inprocess|tcp)")),
        }
    }
}

impl std::fmt::Display for TransportKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// A synchronous, same-thread transport.
pub struct InProcessBinder {
    server: Arc<MediaDrmServer>,
    injector: Option<Arc<FaultInjector>>,
}

impl InProcessBinder {
    /// Wraps a server.
    pub fn new(server: MediaDrmServer) -> Self {
        InProcessBinder { server: Arc::new(server), injector: None }
    }

    /// Attaches a fault injector whose binder-plane rules apply to every
    /// transaction through this transport.
    #[must_use]
    pub fn with_fault_injector(mut self, injector: Arc<FaultInjector>) -> Self {
        self.injector = Some(injector);
        self
    }
}

impl Transport for InProcessBinder {
    fn transact(&self, call: DrmCall) -> Result<DrmReply, DrmError> {
        transact_via(
            "binder.transact.in_process",
            self.injector.as_deref(),
            Some(&self.server),
            FaultStyle::Payload,
            call,
            |call, _| dispatch(&self.server, call),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netserver::{TcpBinder, TcpDrmServer};
    use std::sync::Arc;
    use wideleak_bmff::types::WIDEVINE_SYSTEM_ID;
    use wideleak_cdm::cdm::Cdm;
    use wideleak_cdm::keybox::Keybox;
    use wideleak_device::catalog::DeviceModel;
    use wideleak_device::Device;

    fn server() -> MediaDrmServer {
        let device = Device::new(DeviceModel::nexus_5());
        let cdm =
            Cdm::builder().keybox(Keybox::issue(b"binder-test", &[1; 16])).boot(&device).unwrap();
        let mut s = MediaDrmServer::new();
        s.register_plugin(WIDEVINE_SYSTEM_ID, Arc::new(cdm));
        s
    }

    fn exercise(binder: &dyn Transport) {
        assert!(binder
            .transact(DrmCall::IsSchemeSupported { uuid: WIDEVINE_SYSTEM_ID })
            .unwrap()
            .into_bool()
            .unwrap());
        let sid = binder
            .transact(DrmCall::OpenSession { nonce: [1; 16] })
            .unwrap()
            .into_session_id()
            .unwrap();
        assert!(binder.transact(DrmCall::CloseSession { session_id: sid }).is_ok());
        assert!(binder.transact(DrmCall::CloseSession { session_id: sid }).is_err());
    }

    #[test]
    fn in_process_binder_round_trip() {
        exercise(&InProcessBinder::new(server()));
    }

    #[test]
    fn reply_shape_errors() {
        assert_eq!(DrmReply::Unit.into_bytes(), Err(DrmError::BadReply));
        assert_eq!(DrmReply::Bool(true).into_session_id(), Err(DrmError::BadReply));
        assert_eq!(DrmReply::SessionId(1).into_bool(), Err(DrmError::BadReply));
        assert_eq!(DrmReply::Bytes(vec![]).into_key_ids(), Err(DrmError::BadReply));
    }

    #[test]
    fn drop_shuts_down_server_thread() {
        let binder = TcpBinder::loopback(server()).build().unwrap();
        let addr = binder.server_addr();
        exercise(&binder);
        drop(binder);
        // Dropping the binder joins its owned server's threads, which
        // closes the listener.
        assert!(std::net::TcpStream::connect(addr).is_err(), "listener closed on drop");
    }

    #[test]
    fn pool_size_is_configurable() {
        let binder = TcpBinder::loopback(server()).pool_size(4).build().unwrap();
        assert_eq!(binder.pool_size(), 4);
        exercise(&binder);
    }

    #[test]
    fn transport_kind_parses_labels() {
        for kind in TransportKind::ALL {
            assert_eq!(kind.label().parse::<TransportKind>(), Ok(kind));
        }
        assert_eq!("in-process".parse::<TransportKind>(), Ok(TransportKind::InProcess));
        assert!("quic".parse::<TransportKind>().is_err());
        assert!("threaded".parse::<TransportKind>().is_err());
    }

    /// An OEMCrypto backend with an internal bug: every session operation
    /// panics. Used to prove panic isolation in the transports.
    struct PanickingBackend;

    impl wideleak_cdm::oemcrypto::OemCrypto for PanickingBackend {
        fn security_level(&self) -> wideleak_device::catalog::SecurityLevel {
            wideleak_device::catalog::SecurityLevel::L3
        }
        fn cdm_version(&self) -> wideleak_device::catalog::CdmVersion {
            wideleak_device::catalog::CdmVersion::new(16, 0, 0)
        }
        fn advance_clock(&self, _: u64) -> Result<(), wideleak_cdm::CdmError> {
            Ok(())
        }
        fn install_keybox(&self, _: Keybox) -> Result<(), wideleak_cdm::CdmError> {
            Ok(())
        }
        fn device_id(&self) -> Result<Vec<u8>, wideleak_cdm::CdmError> {
            panic!("backend bug")
        }
        fn is_provisioned(&self) -> bool {
            false
        }
        fn provisioning_request(
            &self,
            _: [u8; 16],
        ) -> Result<wideleak_cdm::messages::ProvisioningRequest, wideleak_cdm::CdmError> {
            panic!("backend bug")
        }
        fn install_rsa_key(
            &self,
            _: [u8; 16],
            _: &wideleak_cdm::messages::ProvisioningResponse,
        ) -> Result<(), wideleak_cdm::CdmError> {
            panic!("backend bug")
        }
        fn open_session(&self, _: [u8; 16]) -> Result<u32, wideleak_cdm::CdmError> {
            panic!("backend bug")
        }
        fn close_session(&self, _: u32) -> Result<(), wideleak_cdm::CdmError> {
            panic!("backend bug")
        }
        fn license_request(
            &self,
            _: u32,
            _: &str,
            _: &[KeyId],
        ) -> Result<wideleak_cdm::messages::LicenseRequest, wideleak_cdm::CdmError> {
            panic!("backend bug")
        }
        fn load_license(
            &self,
            _: u32,
            _: &wideleak_cdm::messages::LicenseResponse,
        ) -> Result<Vec<KeyId>, wideleak_cdm::CdmError> {
            panic!("backend bug")
        }
        fn decrypt_sample(
            &self,
            _: u32,
            _: &KeyId,
            _: &SampleCrypto,
            _: &[u8],
            _: &[Subsample],
        ) -> Result<Vec<u8>, wideleak_cdm::CdmError> {
            panic!("backend bug")
        }
        fn generic_encrypt(
            &self,
            _: u32,
            _: &KeyId,
            _: [u8; 16],
            _: &[u8],
        ) -> Result<Vec<u8>, wideleak_cdm::CdmError> {
            panic!("backend bug")
        }
        fn generic_decrypt(
            &self,
            _: u32,
            _: &KeyId,
            _: [u8; 16],
            _: &[u8],
        ) -> Result<Vec<u8>, wideleak_cdm::CdmError> {
            panic!("backend bug")
        }
        fn generic_sign(
            &self,
            _: u32,
            _: &KeyId,
            _: &[u8],
        ) -> Result<Vec<u8>, wideleak_cdm::CdmError> {
            panic!("backend bug")
        }
        fn generic_verify(
            &self,
            _: u32,
            _: &KeyId,
            _: &[u8],
            _: &[u8],
        ) -> Result<(), wideleak_cdm::CdmError> {
            panic!("backend bug")
        }
    }

    fn panicking_server() -> MediaDrmServer {
        let cdm = Cdm::builder().backend(Arc::new(PanickingBackend)).build();
        let mut s = MediaDrmServer::new();
        s.register_plugin(WIDEVINE_SYSTEM_ID, Arc::new(cdm));
        s
    }

    /// Regression: a panic inside `MediaDrmServer::handle` used to kill
    /// the server thread for good — every later transact returned
    /// `BinderDied`. Now each panic is contained to its transaction, in
    /// process and behind the reactor's dispatch pool alike.
    #[test]
    fn panic_in_handler_does_not_kill_the_pool() {
        for binder in [
            Box::new(InProcessBinder::new(panicking_server())) as Box<dyn Transport>,
            Box::new(TcpBinder::loopback(panicking_server()).pool_size(2).build().unwrap()),
        ] {
            for _ in 0..4 {
                assert_eq!(
                    binder.transact(DrmCall::OpenSession { nonce: [1; 16] }),
                    Err(DrmError::ServerPanic),
                    "panic maps to ServerPanic, not BinderDied"
                );
            }
            // Non-panicking calls still work afterwards.
            assert!(binder
                .transact(DrmCall::IsSchemeSupported { uuid: WIDEVINE_SYSTEM_ID })
                .unwrap()
                .into_bool()
                .unwrap());
        }
    }

    /// A contained panic crosses the wire as a typed reply on the very
    /// connection that carried the call, and that connection keeps
    /// serving: the reactor neither closes it nor desyncs its framing.
    #[test]
    fn server_panic_crosses_the_wire_and_the_connection_keeps_serving() {
        use crate::wire::{decode_frame, encode_frame, frame_len, FrameBody, HEADER_LEN};
        use std::io::{Read, Write};

        let srv = TcpDrmServer::bind("127.0.0.1:0", panicking_server()).unwrap();
        let mut stream = std::net::TcpStream::connect(srv.local_addr()).unwrap();
        let mut round_trip = |call: DrmCall| {
            stream.write_all(&encode_frame(&FrameBody::Call(call))).unwrap();
            let mut header = [0u8; HEADER_LEN];
            stream.read_exact(&mut header).unwrap();
            let mut frame = vec![0u8; frame_len(&header).unwrap()];
            frame[..HEADER_LEN].copy_from_slice(&header);
            stream.read_exact(&mut frame[HEADER_LEN..]).unwrap();
            decode_frame(&frame).unwrap().0
        };
        for _ in 0..3 {
            assert_eq!(
                round_trip(DrmCall::OpenSession { nonce: [1; 16] }),
                FrameBody::Reply(Err(DrmError::ServerPanic))
            );
        }
        assert_eq!(
            round_trip(DrmCall::IsSchemeSupported { uuid: WIDEVINE_SYSTEM_ID }),
            FrameBody::Reply(Ok(DrmReply::Bool(true)))
        );
        assert_eq!(srv.active_connections(), 1, "the one connection stayed open");
    }

    #[test]
    fn queue_depth_gauge_is_exported() {
        wideleak_telemetry::enable();
        let binder = TcpBinder::loopback(server()).pool_size(2).build().unwrap();
        for i in 0..4u8 {
            let sid = binder
                .transact(DrmCall::OpenSession { nonce: [i; 16] })
                .unwrap()
                .into_session_id()
                .unwrap();
            binder.transact(DrmCall::CloseSession { session_id: sid }).unwrap();
        }
        let snapshot = wideleak_telemetry::snapshot();
        assert!(
            snapshot.gauges.iter().any(|(name, _)| name == "reactor.dispatch.queue_depth"),
            "gauges: {:?}",
            snapshot.gauges
        );
    }

    use wideleak_faults::{FaultPlan, Schedule};

    #[test]
    fn dropped_transactions_surface_as_binder_died_on_both_transports() {
        let plan = FaultPlan::builder()
            .binder_fault("open_session", FaultKind::Drop, Schedule::Once { at: 0 })
            .build();
        for binder in [
            Box::new(
                InProcessBinder::new(server())
                    .with_fault_injector(Arc::new(FaultInjector::new(&plan, 9))),
            ) as Box<dyn Transport>,
            Box::new(
                TcpBinder::loopback(server())
                    .pool_size(2)
                    .fault_injector(Arc::new(FaultInjector::new(&plan, 9)))
                    .build()
                    .unwrap(),
            ),
        ] {
            assert_eq!(
                binder.transact(DrmCall::OpenSession { nonce: [1; 16] }),
                Err(DrmError::BinderDied)
            );
            // The rule fired once; the next call goes through.
            assert!(binder.transact(DrmCall::OpenSession { nonce: [2; 16] }).is_ok());
        }
    }

    #[test]
    fn injected_panic_is_contained_like_a_real_one() {
        let plan = FaultPlan::builder()
            .binder_fault("open_session", FaultKind::Panic, Schedule::FirstN { n: 2 })
            .build();
        let binder = InProcessBinder::new(server())
            .with_fault_injector(Arc::new(FaultInjector::new(&plan, 3)));
        for _ in 0..2 {
            assert_eq!(
                binder.transact(DrmCall::OpenSession { nonce: [1; 16] }),
                Err(DrmError::ServerPanic)
            );
        }
        assert!(binder.transact(DrmCall::OpenSession { nonce: [1; 16] }).is_ok());
    }

    #[test]
    fn latency_fault_advances_the_virtual_clock_only() {
        let plan = FaultPlan::builder()
            .binder_fault("is_provisioned", FaultKind::Latency { ms: 750 }, Schedule::Always)
            .build();
        let injector = Arc::new(FaultInjector::new(&plan, 5));
        let binder = InProcessBinder::new(server()).with_fault_injector(injector.clone());
        assert!(binder.transact(DrmCall::IsProvisioned).is_ok(), "call still completes");
        assert_eq!(injector.clock().now_ms(), 750);
    }

    #[test]
    fn garbled_reply_mangles_byte_payloads() {
        let plan = FaultPlan::builder()
            .binder_fault("get_provision_request", FaultKind::GarbleBody, Schedule::Always)
            .build();
        let clean = InProcessBinder::new(server());
        let faulty = InProcessBinder::new(server())
            .with_fault_injector(Arc::new(FaultInjector::new(&plan, 5)));
        let good =
            clean.transact(DrmCall::GetProvisionRequest { nonce: [7; 16] }).unwrap().into_bytes();
        let bad =
            faulty.transact(DrmCall::GetProvisionRequest { nonce: [7; 16] }).unwrap().into_bytes();
        assert_ne!(good, bad, "payload scrambled in flight");
    }
}
