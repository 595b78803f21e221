//! The parallel DRM stack, end to end: N app clients decrypting on
//! distinct sessions through a pooled `TcpBinder` must produce exactly
//! the plaintext a single-threaded `InProcessBinder` does, and
//! distinct-session transactions must actually overlap in the reactor
//! server's dispatch pool (not just queue behind a global lock).

use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use wideleak::android_drm::binder::{DrmCall, InProcessBinder, Transport};
use wideleak::android_drm::netserver::{ReactorConfig, TcpBinder, TcpDrmServer};
use wideleak::android_drm::server::MediaDrmServer;
use wideleak::bmff::types::{KeyId, Subsample, WIDEVINE_SYSTEM_ID};
use wideleak::cdm::cdm::Cdm;
use wideleak::cdm::messages::{
    LicenseRequest, LicenseResponse, ProvisioningRequest, ProvisioningResponse,
};
use wideleak::cdm::oemcrypto::{L3OemCrypto, OemCrypto, SampleCrypto};
use wideleak::cdm::CdmError;
use wideleak::device::catalog::{CdmVersion, SecurityLevel};
use wideleak::device::hooks::HookEngine;
use wideleak::device::memory::ProcessMemory;
use wideleak::device::net::RemoteEndpoint;
use wideleak::ott::ecosystem::Ecosystem;
use wideleak::ott::license::encode_envelope;
use wideleak_tests::fast_ecosystem;

const CLIENTS: usize = 4;
const SAMPLES_PER_CLIENT: usize = 8;

/// Boots a provisioned L3 Media DRM server. Both transports get one
/// built from the same device tag, so their key ladders are identical.
fn boot_server(eco: &Ecosystem) -> MediaDrmServer {
    let backend = L3OemCrypto::new(
        CdmVersion::new(16, 0, 0),
        Arc::new(HookEngine::new()),
        Arc::new(ProcessMemory::new("mediaserver")),
    );
    backend.install_keybox(eco.trust().issue_keybox("concurrent-decrypt")).unwrap();
    let mut server = MediaDrmServer::new();
    server.register_plugin(
        WIDEVINE_SYSTEM_ID,
        Arc::new(Cdm::builder().backend(Arc::new(backend)).build()),
    );
    server
}

fn provision(binder: &dyn Transport, eco: &Ecosystem) {
    let req = binder
        .transact(DrmCall::GetProvisionRequest { nonce: [9; 16] })
        .unwrap()
        .into_bytes()
        .unwrap();
    let response = eco.backend().handle("provision/ocs", &req).unwrap();
    binder.transact(DrmCall::ProvideProvisionResponse { nonce: [9; 16], response }).unwrap();
}

fn license_session(binder: &dyn Transport, eco: &Ecosystem, token: &str, tag: u8) -> (u32, KeyId) {
    let sid = binder
        .transact(DrmCall::OpenSession { nonce: [tag; 16] })
        .unwrap()
        .into_session_id()
        .unwrap();
    let req = binder
        .transact(DrmCall::GetKeyRequest {
            session_id: sid,
            content_id: "title-001".to_owned(),
            key_ids: vec![],
        })
        .unwrap()
        .into_bytes()
        .unwrap();
    let response =
        eco.backend().handle("license/ocs/title-001", &encode_envelope(token, &req)).unwrap();
    let kids = binder
        .transact(DrmCall::ProvideKeyResponse { session_id: sid, response })
        .unwrap()
        .into_key_ids()
        .unwrap();
    (sid, kids[0])
}

/// The sample every (client, index) pair decrypts: deterministic and
/// distinct per pair, so a cross-session mixup cannot go unnoticed.
fn sample(client: usize, index: usize) -> (SampleCrypto, Vec<u8>) {
    let iv = [(client * 16 + index) as u8; 8];
    let data = (0..256).map(|b| (b as u8) ^ (client as u8) ^ (index as u8 * 3)).collect();
    (SampleCrypto::Cenc { iv }, data)
}

fn decrypt(binder: &dyn Transport, sid: u32, kid: KeyId, client: usize, index: usize) -> Vec<u8> {
    let (crypto, data) = sample(client, index);
    binder
        .transact(DrmCall::DecryptSample { session_id: sid, kid, crypto, data, subsamples: vec![] })
        .unwrap()
        .into_bytes()
        .unwrap()
}

/// Serves `server` on a reactor with `CLIENTS` dispatch workers and
/// connects a binder with `CLIENTS` pooled sockets, so every client can
/// have a call inside the server at once. The server is returned so it
/// outlives the binder.
fn serve_pooled(server: MediaDrmServer) -> (TcpDrmServer, Arc<TcpBinder>) {
    let config = ReactorConfig { dispatch_workers: CLIENTS };
    let srv = TcpDrmServer::bind_with("127.0.0.1:0", Arc::new(server), config).unwrap();
    let binder = TcpBinder::connect(srv.local_addr()).pool_size(CLIENTS).build().unwrap();
    (srv, Arc::new(binder))
}

/// N clients hammering the pooled binder on distinct sessions recover
/// byte-for-byte the plaintexts a single-threaded in-process transport
/// produces for the same samples.
#[test]
fn pooled_decrypt_matches_single_threaded_byte_for_byte() {
    let eco = fast_ecosystem();
    let token = eco.accounts().subscribe("ocs", "user-conc");

    // Reference run: same server build, synchronous transport.
    let inproc = InProcessBinder::new(boot_server(&eco));
    provision(&inproc, &eco);
    let mut expected = Vec::new();
    let mut ref_kid = None;
    for client in 0..CLIENTS {
        let (sid, kid) = license_session(&inproc, &eco, &token, client as u8 + 1);
        ref_kid.get_or_insert(kid);
        expected.push(
            (0..SAMPLES_PER_CLIENT)
                .map(|i| decrypt(&inproc, sid, kid, client, i))
                .collect::<Vec<_>>(),
        );
    }

    // Parallel run: one pooled TCP binder, one thread per client.
    let (_server, pooled) = serve_pooled(boot_server(&eco));
    provision(pooled.as_ref(), &eco);
    let clients: Vec<_> = (0..CLIENTS)
        .map(|client| {
            let binder = Arc::clone(&pooled);
            let (sid, kid) = license_session(binder.as_ref(), &eco, &token, client as u8 + 1);
            assert_eq!(Some(kid), ref_kid, "both stacks licensed the same content key");
            std::thread::spawn(move || {
                (0..SAMPLES_PER_CLIENT)
                    .map(|i| decrypt(binder.as_ref(), sid, kid, client, i))
                    .collect::<Vec<_>>()
            })
        })
        .collect();

    for (client, handle) in clients.into_iter().enumerate() {
        assert_eq!(
            handle.join().unwrap(),
            expected[client],
            "client {client}: pooled plaintexts diverge from the single-threaded reference"
        );
    }
}

/// How long a decrypt waits in the rendezvous before it gives up. A
/// serialising server never fills the rendezvous; the deadline frees its
/// wedged dispatch worker, so dropping the server cannot hang the test.
const RENDEZVOUS_DEADLINE: Duration = Duration::from_secs(10);

/// An OEMCrypto backend whose `decrypt_sample` blocks until `CLIENTS`
/// calls are inside it at once. Only a transport that really executes
/// distinct-session transactions in parallel can finish this; the old
/// single-thread server loop (or a CDM with one global session mutex)
/// would wedge on the first call until the deadline.
struct RendezvousBackend {
    arrived: Mutex<usize>,
    all_arrived: Condvar,
    next_session: std::sync::atomic::AtomicU32,
}

impl OemCrypto for RendezvousBackend {
    fn security_level(&self) -> SecurityLevel {
        SecurityLevel::L3
    }
    fn cdm_version(&self) -> CdmVersion {
        CdmVersion::new(16, 0, 0)
    }
    fn advance_clock(&self, _: u64) -> Result<(), CdmError> {
        Ok(())
    }
    fn install_keybox(&self, _: wideleak::cdm::keybox::Keybox) -> Result<(), CdmError> {
        Ok(())
    }
    fn device_id(&self) -> Result<Vec<u8>, CdmError> {
        Ok(b"rendezvous".to_vec())
    }
    fn is_provisioned(&self) -> bool {
        true
    }
    fn provisioning_request(&self, _: [u8; 16]) -> Result<ProvisioningRequest, CdmError> {
        unimplemented!("not exercised")
    }
    fn install_rsa_key(&self, _: [u8; 16], _: &ProvisioningResponse) -> Result<(), CdmError> {
        unimplemented!("not exercised")
    }
    fn open_session(&self, _: [u8; 16]) -> Result<u32, CdmError> {
        Ok(self.next_session.fetch_add(1, std::sync::atomic::Ordering::Relaxed))
    }
    fn close_session(&self, _: u32) -> Result<(), CdmError> {
        Ok(())
    }
    fn license_request(&self, _: u32, _: &str, _: &[KeyId]) -> Result<LicenseRequest, CdmError> {
        unimplemented!("not exercised")
    }
    fn load_license(&self, _: u32, _: &LicenseResponse) -> Result<Vec<KeyId>, CdmError> {
        unimplemented!("not exercised")
    }
    fn decrypt_sample(
        &self,
        _: u32,
        _: &KeyId,
        _: &SampleCrypto,
        data: &[u8],
        _: &[Subsample],
    ) -> Result<Vec<u8>, CdmError> {
        // Every decrypt waits for CLIENTS-way overlap before returning.
        let mut arrived = self.arrived.lock().unwrap();
        *arrived += 1;
        self.all_arrived.notify_all();
        let (_arrived, wait) = self
            .all_arrived
            .wait_timeout_while(arrived, RENDEZVOUS_DEADLINE, |n| *n < CLIENTS)
            .unwrap();
        if wait.timed_out() {
            return Err(CdmError::Rejected { reason: "decrypts never overlapped".into() });
        }
        Ok(data.to_vec())
    }
    fn generic_encrypt(
        &self,
        _: u32,
        _: &KeyId,
        _: [u8; 16],
        _: &[u8],
    ) -> Result<Vec<u8>, CdmError> {
        unimplemented!("not exercised")
    }
    fn generic_decrypt(
        &self,
        _: u32,
        _: &KeyId,
        _: [u8; 16],
        _: &[u8],
    ) -> Result<Vec<u8>, CdmError> {
        unimplemented!("not exercised")
    }
    fn generic_sign(&self, _: u32, _: &KeyId, _: &[u8]) -> Result<Vec<u8>, CdmError> {
        unimplemented!("not exercised")
    }
    fn generic_verify(&self, _: u32, _: &KeyId, _: &[u8], _: &[u8]) -> Result<(), CdmError> {
        unimplemented!("not exercised")
    }
}

/// Distinct-session decrypts overlap inside the server: CLIENTS calls
/// rendezvous *inside* `decrypt_sample`, which only a
/// genuinely parallel transport can satisfy. Works on any core count —
/// blocked threads yield the CPU — so it pins the tentpole property
/// even where wall-clock scaling is core-bound.
#[test]
fn distinct_session_decrypts_overlap_in_the_server() {
    let backend = RendezvousBackend {
        arrived: Mutex::new(0),
        all_arrived: Condvar::new(),
        next_session: std::sync::atomic::AtomicU32::new(1),
    };
    let mut server = MediaDrmServer::new();
    server.register_plugin(
        WIDEVINE_SYSTEM_ID,
        Arc::new(Cdm::builder().backend(Arc::new(backend)).build()),
    );
    let (_server, binder) = serve_pooled(server);

    let (done_tx, done_rx) = std::sync::mpsc::channel();
    for c in 0..CLIENTS {
        let binder = Arc::clone(&binder);
        let done = done_tx.clone();
        std::thread::spawn(move || {
            let sid = binder
                .transact(DrmCall::OpenSession { nonce: [c as u8; 16] })
                .unwrap()
                .into_session_id()
                .unwrap();
            let out = decrypt(binder.as_ref(), sid, KeyId([5; 16]), c, 0);
            done.send(out).unwrap();
        });
    }
    drop(done_tx);

    // A transport that serialises sessions never fills the rendezvous;
    // bound the wait so that regression fails loudly instead.
    for _ in 0..CLIENTS {
        done_rx
            .recv_timeout(Duration::from_secs(30))
            .expect("decrypts never overlapped: transactions are serialised");
    }
}
