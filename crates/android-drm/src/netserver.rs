//! The TCP client transport: a pooled [`TcpBinder`] speaking the
//! [`wire`](crate::wire) frame format over real sockets to a
//! [`TcpDrmServer`] — the event-driven reactor server living in
//! [`reactor`](crate::reactor) and re-exported here.
//!
//! [`TcpBinder`] is routed through the same
//! [`transact_via`](crate::binder) seam as the in-memory transport so
//! telemetry and fault injection compose identically. It keeps a
//! bounded pool of connections ([`TcpBinderBuilder::pool_size`]), one
//! in-flight call per checked-out socket, with a health-checked
//! reconnect. The health check covers *both* stale-socket symptoms: a
//! failed write, and a clean EOF before any reply byte (the write
//! landed in a dead socket's buffer). Either costs the call one
//! reconnect-and-resend, and a call gets at most one.
//!
//! The reply is read with [`read_frame`], the reader the campaign's
//! pipes use too, under one configurable deadline
//! ([`TcpBinderBuilder::read_timeout`]) covering the whole frame:
//! before each read the socket's timeout is set to the time left. A
//! wedged or trickling server surfaces as the transient, retryable
//! [`DrmError::Timeout`] instead of hanging the caller.
//!
//! Fault realisation differs from the in-memory transport by design:
//! it corrupts the typed reply payload, but here corruption faults
//! damage the *received frame bytes* before decoding, so they surface
//! as typed [`WireError`]s through [`DrmError::Wire`]. Drop faults
//! sever a live pooled connection (the reconnect machinery recovers).
//! The differential battery pins that both transports still produce
//! byte-identical study reports.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use wideleak_faults::{corrupt_body, FaultInjector, FaultKind};
use wideleak_telemetry::{trace, CounterHandle};

use crate::binder::{transact_via, DrmCall, DrmReply, FaultStyle, Transport};
use crate::server::MediaDrmServer;
use crate::wire::{decode_frame, encode_frame, read_frame, FrameBody, FrameMeta, WireError};
use crate::DrmError;

pub use crate::reactor::{ReactorConfig, TcpDrmServer};

static FRAMES_SENT: CounterHandle = CounterHandle::new("binder.tcp.frames.sent");
static FRAMES_RECEIVED: CounterHandle = CounterHandle::new("binder.tcp.frames.received");
static BYTES_SENT: CounterHandle = CounterHandle::new("binder.tcp.bytes.sent");
static BYTES_RECEIVED: CounterHandle = CounterHandle::new("binder.tcp.bytes.received");
static RECONNECTS: CounterHandle = CounterHandle::new("binder.tcp.reconnects");

/// Default read deadline: generous against real dispatch latency,
/// finite against a wedged server.
const DEFAULT_READ_TIMEOUT: Duration = Duration::from_secs(5);

/// A pooled socket read against one deadline: before each read it sets
/// the socket's timeout to the time left, so the deadline bounds the
/// whole reply frame rather than each read.
struct DeadlineReader<'a> {
    stream: &'a mut TcpStream,
    deadline: Instant,
}

impl Read for DeadlineReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let left = self.deadline.saturating_duration_since(Instant::now());
        // std rejects a zero timeout; a spent deadline is a timeout.
        if left.is_zero() {
            return Err(std::io::ErrorKind::TimedOut.into());
        }
        self.stream.set_read_timeout(Some(left))?;
        self.stream.read(buf)
    }
}

/// Maps a failed reply read to the transport's taxonomy: an expired
/// deadline is the transient [`DrmError::Timeout`], a header the codec
/// rejects is [`DrmError::Wire`], and anything else (EOF mid-frame, a
/// reset) is [`DrmError::BinderDied`].
fn read_error(e: std::io::Error, read_timeout: Duration) -> DrmError {
    match e.kind() {
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => {
            DrmError::Timeout { ms: u64::try_from(read_timeout.as_millis()).unwrap_or(u64::MAX) }
        }
        std::io::ErrorKind::InvalidData => e
            .into_inner()
            .and_then(|inner| inner.downcast::<WireError>().ok())
            .map_or(DrmError::BinderDied, |wire| DrmError::Wire(*wire)),
        _ => DrmError::BinderDied,
    }
}

/// A pooled connection slot. Checking out a slot without a live socket
/// dials one; only re-dialling a [`Dead`](ConnSlot::Dead) slot is a
/// reconnect, which is the health check.
enum ConnSlot {
    /// Never dialled: the pool opens its sockets lazily.
    Unopened,
    /// A live socket.
    Live(TcpStream),
    /// The slot's connection died (an IO or frame error, or a drop
    /// fault severed it).
    Dead,
}

/// Builds a [`TcpBinder`] — pool size, read deadline, fault plane and
/// target are configured here.
pub struct TcpBinderBuilder {
    target: Target,
    pool_size: usize,
    injector: Option<Arc<FaultInjector>>,
    read_timeout: Duration,
}

enum Target {
    /// Connect to an external [`TcpDrmServer`] (or `wideleak serve`).
    Addr(SocketAddr),
    /// Own a loopback server for this binder's lifetime.
    Loopback(MediaDrmServer),
}

impl TcpBinderBuilder {
    /// Sets the connection-pool size (clamped to ≥ 1; default 4).
    #[must_use]
    pub fn pool_size(mut self, pool_size: usize) -> Self {
        self.pool_size = pool_size.max(1);
        self
    }

    /// Attaches a fault injector whose binder-plane rules apply to every
    /// transaction; corruption and drops are realised on real frames.
    #[must_use]
    pub fn fault_injector(mut self, injector: Arc<FaultInjector>) -> Self {
        self.injector = Some(injector);
        self
    }

    /// Sets the reply-read deadline (clamped to ≥ 1 ms; default 5 s).
    /// A deadline expiry surfaces as the transient
    /// [`DrmError::Timeout`].
    #[must_use]
    pub fn read_timeout(mut self, timeout: Duration) -> Self {
        self.read_timeout = timeout.max(Duration::from_millis(1));
        self
    }

    /// Connects (lazily — sockets open on first use).
    ///
    /// # Errors
    ///
    /// Returns the bind error when a loopback target cannot listen.
    pub fn build(self) -> std::io::Result<TcpBinder> {
        let (addr, server, local) = match self.target {
            Target::Addr(addr) => (addr, None, None),
            Target::Loopback(server) => {
                let server = Arc::new(server);
                let local = TcpDrmServer::bind_shared("127.0.0.1:0", Arc::clone(&server))?;
                (local.local_addr(), Some(server), Some(local))
            }
        };
        let (slot_tx, slot_rx) = mpsc::sync_channel::<ConnSlot>(self.pool_size);
        for _ in 0..self.pool_size {
            slot_tx.send(ConnSlot::Unopened).expect("pre-filling the connection pool");
        }
        Ok(TcpBinder {
            addr,
            pool_size: self.pool_size,
            read_timeout: self.read_timeout,
            slot_tx,
            slot_rx: Mutex::new(slot_rx),
            injector: self.injector,
            server,
            _local: local,
        })
    }
}

/// The client half of the TCP transport: transactions multiplexed to a
/// [`TcpDrmServer`] over a bounded connection pool.
///
/// Pool behaviour: a transaction checks a slot out of a bounded `std`
/// channel (blocking when all are in flight, which bounds concurrent
/// sockets; waiting callers queue on the receiver's lock),
/// dials if the slot holds no socket, and returns the slot — live on
/// success, dead after any IO or frame error, because a failed stream
/// cannot be trusted to be frame-aligned. Re-dials of dead slots and
/// stale-socket retries are counted on `binder.tcp.reconnects`; a
/// slot's first dial is not.
pub struct TcpBinder {
    addr: SocketAddr,
    pool_size: usize,
    read_timeout: Duration,
    // Client-side connection state is declared before `_local` so
    // pooled sockets shut down before the owned server does.
    slot_tx: mpsc::SyncSender<ConnSlot>,
    slot_rx: Mutex<mpsc::Receiver<ConnSlot>>,
    injector: Option<Arc<FaultInjector>>,
    /// Loopback handle onto the served instance so clock-skew faults can
    /// reach the CDM clock; `None` when connected to a remote server.
    server: Option<Arc<MediaDrmServer>>,
    _local: Option<TcpDrmServer>,
}

impl TcpBinder {
    /// Starts building a binder that owns its own loopback server.
    #[must_use]
    pub fn loopback(server: MediaDrmServer) -> TcpBinderBuilder {
        TcpBinderBuilder {
            target: Target::Loopback(server),
            pool_size: 4,
            injector: None,
            read_timeout: DEFAULT_READ_TIMEOUT,
        }
    }

    /// Starts building a binder against an already-running server.
    #[must_use]
    pub fn connect(addr: SocketAddr) -> TcpBinderBuilder {
        TcpBinderBuilder {
            target: Target::Addr(addr),
            pool_size: 4,
            injector: None,
            read_timeout: DEFAULT_READ_TIMEOUT,
        }
    }

    /// The server address transactions go to.
    #[must_use]
    pub fn server_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Pool capacity (concurrent connections ceiling).
    #[must_use]
    pub fn pool_size(&self) -> usize {
        self.pool_size
    }

    /// Opens a fresh connection to the server.
    fn connect_fresh(&self) -> Result<TcpStream, DrmError> {
        match TcpStream::connect(self.addr) {
            Ok(stream) => {
                let _ = stream.set_nodelay(true);
                Ok(stream)
            }
            Err(_) => Err(DrmError::BinderDied),
        }
    }

    /// Checks a slot out of the pool, dialling if it holds no socket.
    fn checkout(&self) -> Result<TcpStream, DrmError> {
        let slot = self.slot_rx.lock().recv().map_err(|_| DrmError::BinderDied)?;
        if let ConnSlot::Live(stream) = slot {
            return Ok(stream);
        }
        if matches!(slot, ConnSlot::Dead) {
            RECONNECTS.incr();
        }
        self.connect_fresh().inspect_err(|_| {
            // Return the slot as it was so the pool keeps its capacity;
            // the next checkout dials again.
            self.checkin(slot);
        })
    }

    /// Returns a slot to the pool (dead slots keep the capacity).
    fn checkin(&self, slot: ConnSlot) {
        let _ = self.slot_tx.send(slot);
    }

    /// One framed round trip over a pooled socket, with the transport's
    /// share of fault realisation: `Drop` severs the checked-out
    /// connection, and corruption kinds damage the received reply frame
    /// before decode.
    fn run_over_socket(
        &self,
        call: DrmCall,
        fault: Option<&FaultKind>,
    ) -> Result<DrmReply, DrmError> {
        // Capture the caller's trace context *before* opening phase
        // spans: the frame should carry the `drm.call` root so the
        // server stitches under it, not under a transient phase.
        let trace_ctx = trace::current();
        let mut stream = {
            // Queue-wait phase: time blocked on a free pool slot.
            let _checkout = trace::span("tcp.checkout");
            self.checkout()?
        };
        if matches!(fault, Some(FaultKind::Drop)) {
            // Sever: the socket closes, the slot is marked dead, and the
            // *next* transaction pays the reconnect.
            self.checkin(ConnSlot::Dead);
            return Err(DrmError::BinderDied);
        }
        let request = {
            let _encode = trace::span("tcp.encode");
            encode_frame(&FrameBody::Call(call), FrameMeta { ctx: trace_ctx, request_id: None })
        };
        let started = Instant::now();
        let roundtrip = trace::span("tcp.roundtrip");
        // The stale-socket health check: at most one reconnect-and-resend
        // per transaction, whether the staleness shows as a failed write
        // or as a clean EOF before any reply byte (the write landed in a
        // dead socket's buffer).
        let mut retried = false;
        let mut frame = loop {
            let stale = if stream.write_all(&request).is_err() {
                "stale_socket"
            } else {
                FRAMES_SENT.incr();
                BYTES_SENT.add(request.len() as u64);
                let deadline = Instant::now() + self.read_timeout;
                match read_frame(&mut DeadlineReader { stream: &mut stream, deadline }) {
                    Ok(Some(frame)) => break frame,
                    Ok(None) => "eof_before_reply",
                    Err(e) => {
                        // The stream can no longer be trusted to be
                        // frame-aligned, and after a timeout the late
                        // reply may still arrive on it: sever, and let
                        // the retry policy pay one reconnect.
                        self.checkin(ConnSlot::Dead);
                        return Err(read_error(e, self.read_timeout));
                    }
                }
            };
            if retried {
                self.checkin(ConnSlot::Dead);
                return Err(DrmError::BinderDied);
            }
            retried = true;
            RECONNECTS.incr();
            trace::annotate("reconnect", stale);
            stream = match self.connect_fresh() {
                Ok(fresh) => fresh,
                Err(e) => {
                    self.checkin(ConnSlot::Dead);
                    return Err(e);
                }
            };
        };
        FRAMES_RECEIVED.incr();
        BYTES_RECEIVED.add(frame.len() as u64);
        drop(roundtrip);
        wideleak_telemetry::observe("binder.tcp.rtt", started.elapsed());
        if let Some(kind) = fault {
            // Frame-level corruption: the damage lands on real received
            // bytes, and the codec's own checks turn it into a typed
            // error — nothing is faked downstream of the socket.
            frame = corrupt_body(kind, frame);
        }
        let _decode = trace::span("tcp.decode");
        match decode_frame(&frame) {
            Ok((FrameBody::Reply(reply), _, _)) => {
                self.checkin(ConnSlot::Live(stream));
                reply
            }
            Ok(_) => {
                // Anything but a DRM reply on the DRM channel is a
                // protocol violation.
                self.checkin(ConnSlot::Dead);
                Err(DrmError::BadReply)
            }
            Err(wire_err) => {
                // The stream may be desynced; sever and let the retry
                // policy pay one reconnect.
                self.checkin(ConnSlot::Dead);
                Err(DrmError::Wire(wire_err))
            }
        }
    }
}

impl Transport for TcpBinder {
    fn transact(&self, call: DrmCall) -> Result<DrmReply, DrmError> {
        transact_via(
            "binder.transact.tcp",
            self.injector.as_deref(),
            self.server.as_deref(),
            FaultStyle::Frame,
            call,
            |call, fault| self.run_over_socket(call, fault),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use wideleak_bmff::types::WIDEVINE_SYSTEM_ID;
    use wideleak_cdm::keybox::Keybox;
    use wideleak_cdm::oemcrypto::boot;
    use wideleak_device::catalog::DeviceModel;
    use wideleak_device::Device;
    use wideleak_faults::{FaultPlan, Schedule};

    fn server() -> MediaDrmServer {
        let device = Device::new(DeviceModel::nexus_5());
        MediaDrmServer::new(boot(&device, Keybox::issue(b"net-test", &[1; 16])).unwrap())
    }

    #[test]
    fn loopback_round_trip() {
        let binder = TcpBinder::loopback(server()).build().unwrap();
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
    fn connect_reaches_a_standalone_server() {
        let srv = TcpDrmServer::bind("127.0.0.1:0", server()).unwrap();
        let binder = TcpBinder::connect(srv.local_addr()).pool_size(2).build().unwrap();
        assert!(binder
            .transact(DrmCall::IsSchemeSupported { uuid: WIDEVINE_SYSTEM_ID })
            .unwrap()
            .into_bool()
            .unwrap());
        assert_eq!(binder.pool_size(), 2);
    }

    #[test]
    fn concurrent_clients_share_the_pool() {
        let srv = TcpDrmServer::bind("127.0.0.1:0", server()).unwrap();
        let binder = Arc::new(TcpBinder::connect(srv.local_addr()).pool_size(2).build().unwrap());
        let handles: Vec<_> = (0u8..8)
            .map(|i| {
                let b = Arc::clone(&binder);
                std::thread::spawn(move || {
                    b.transact(DrmCall::OpenSession { nonce: [i; 16] })
                        .unwrap()
                        .into_session_id()
                        .unwrap()
                })
            })
            .collect();
        let mut ids: Vec<u32> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 8, "every client got a distinct session");
        // Eight clients went through two pooled sockets, and no more.
        assert_eq!(srv.active_connections(), 2, "the pool caps open sockets at pool_size");
    }

    #[test]
    fn server_errors_round_trip_typed() {
        let binder = TcpBinder::loopback(server()).build().unwrap();
        let reply = binder.transact(DrmCall::CloseSession { session_id: 9999 });
        assert!(
            matches!(reply, Err(DrmError::Cdm(wideleak_cdm::CdmError::NoSuchSession { .. }))),
            "got {reply:?}"
        );
    }

    #[test]
    fn server_survives_client_churn() {
        let srv = TcpDrmServer::bind("127.0.0.1:0", server()).unwrap();
        for _ in 0..3 {
            let binder = TcpBinder::connect(srv.local_addr()).pool_size(1).build().unwrap();
            assert!(binder
                .transact(DrmCall::IsSchemeSupported { uuid: WIDEVINE_SYSTEM_ID })
                .is_ok());
            drop(binder);
        }
    }

    #[test]
    fn drop_fault_severs_and_the_pool_reconnects() {
        let plan = FaultPlan::builder()
            .binder_fault("open_session", FaultKind::Drop, Schedule::Once { at: 0 })
            .build();
        let binder = TcpBinder::loopback(server())
            .pool_size(1)
            .fault_injector(Arc::new(FaultInjector::new(&plan, 9)))
            .build()
            .unwrap();
        // Prime the pool so the drop severs a *live* connection.
        assert!(binder.transact(DrmCall::IsProvisioned).is_ok());
        assert_eq!(
            binder.transact(DrmCall::OpenSession { nonce: [1; 16] }),
            Err(DrmError::BinderDied)
        );
        // The rule fired once; the next call reconnects and succeeds.
        assert!(binder.transact(DrmCall::OpenSession { nonce: [2; 16] }).is_ok());
    }

    #[test]
    fn garble_fault_surfaces_as_a_typed_wire_error() {
        let plan = FaultPlan::builder()
            .binder_fault("get_provision_request", FaultKind::GarbleBody, Schedule::Once { at: 0 })
            .build();
        let binder = TcpBinder::loopback(server())
            .fault_injector(Arc::new(FaultInjector::new(&plan, 5)))
            .build()
            .unwrap();
        let reply = binder.transact(DrmCall::GetProvisionRequest { nonce: [7; 16] });
        assert!(matches!(reply, Err(DrmError::Wire(_))), "got {reply:?}");
        // Recovery: the schedule is exhausted, the severed slot
        // reconnects, and the same call succeeds.
        assert!(binder.transact(DrmCall::GetProvisionRequest { nonce: [7; 16] }).is_ok());
    }

    #[test]
    fn truncate_fault_maps_to_truncated_frames() {
        let plan = FaultPlan::builder()
            .binder_fault(
                "get_provision_request",
                FaultKind::TruncateBody { keep: 6 },
                Schedule::Once { at: 0 },
            )
            .build();
        let binder = TcpBinder::loopback(server())
            .fault_injector(Arc::new(FaultInjector::new(&plan, 5)))
            .build()
            .unwrap();
        let reply = binder.transact(DrmCall::GetProvisionRequest { nonce: [7; 16] });
        assert!(matches!(reply, Err(DrmError::Wire(WireError::Truncated { .. }))), "got {reply:?}");
    }

    #[test]
    fn stale_pool_slot_heals_after_server_restart() {
        let first = TcpDrmServer::bind("127.0.0.1:0", server()).unwrap();
        let addr = first.local_addr();
        let binder = TcpBinder::connect(addr).pool_size(1).build().unwrap();
        assert!(binder.transact(DrmCall::IsProvisioned).is_ok());
        drop(first);
        // The pooled socket is now stale. Depending on timing the first
        // call may fail (reconnect has no listener yet) — but once a new
        // server listens on the same port, the pool must heal.
        let listener = TcpListener::bind(addr);
        let Ok(listener) = listener else {
            // The OS withheld the port; nothing left to assert.
            return;
        };
        drop(listener);
        let second_server = server();
        let Ok(_second) = TcpDrmServer::bind(&addr.to_string(), second_server) else {
            return;
        };
        let mut healed = false;
        for _ in 0..4 {
            if binder.transact(DrmCall::IsProvisioned).is_ok() {
                healed = true;
                break;
            }
        }
        assert!(healed, "pool reconnected to the restarted server");
    }

    #[test]
    fn error_on_one_call_does_not_kill_the_connection() {
        // IsSchemeSupported answers false for an unknown scheme, closing
        // a session that was never opened errors, and the connection
        // keeps serving afterwards.
        let binder = TcpBinder::loopback(server()).build().unwrap();
        assert!(!binder
            .transact(DrmCall::IsSchemeSupported { uuid: [0; 16] })
            .unwrap()
            .into_bool()
            .unwrap());
        assert_eq!(
            binder.transact(DrmCall::CloseSession { session_id: 7 }),
            Err(DrmError::Cdm(wideleak_cdm::CdmError::NoSuchSession { session_id: 7 }))
        );
        // The connection still serves after the error.
        assert!(binder.transact(DrmCall::IsSchemeSupported { uuid: [0; 16] }).is_ok());
    }

    #[test]
    fn tcp_telemetry_counts_frames_and_bytes() {
        wideleak_telemetry::enable();
        let binder = TcpBinder::loopback(server()).build().unwrap();
        binder.transact(DrmCall::IsProvisioned).unwrap().into_bool().unwrap();
        let snapshot = wideleak_telemetry::snapshot();
        for name in
            ["binder.tcp.frames.sent", "binder.tcp.frames.received", "binder.tcp.bytes.sent"]
        {
            assert!(
                snapshot.counters.iter().any(|(n, v)| n == name && *v > 0),
                "expected counter {name} in {:?}",
                snapshot.counters
            );
        }
        assert!(
            snapshot.histograms.iter().any(|(name, _)| name == "binder.tcp.rtt"),
            "rtt histogram exported"
        );
    }
}
