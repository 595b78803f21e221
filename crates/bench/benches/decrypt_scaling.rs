//! P5 — Multi-client `DecryptSample` throughput through the pooled TCP
//! binder: 1/2/4/8 client threads, each decrypting on its **own** CDM
//! session, against one reactor server's dispatch worker pool.
//!
//! This is the tentpole measurement for the concurrent DRM stack: the
//! sharded session table in `CdmCore` lets transactions on distinct
//! sessions execute in parallel across dispatch workers, so aggregate
//! throughput should rise with client count until the machine runs out
//! of cores (and even on one core, keeping the dispatch queue full
//! amortises the scheduler wake-ups a lone client pays per transaction).
//!
//! ```text
//! cargo bench -p wideleak-bench --bench decrypt_scaling [-- --quick]
//! ```
//!
//! `--quick` (or `WIDELEAK_BENCH_QUICK=1`) shrinks the iteration count
//! so CI can exercise the parallel path on every PR in a few seconds.

use std::sync::Arc;
use std::time::Instant;

use wideleak::android_drm::binder::{DrmCall, Transport};
use wideleak::android_drm::netserver::{ReactorConfig, TcpBinder, TcpDrmServer};
use wideleak::android_drm::server::MediaDrmServer;
use wideleak::bmff::types::{KeyId, WIDEVINE_SYSTEM_ID};
use wideleak::cdm::cdm::Cdm;
use wideleak::cdm::oemcrypto::{L3OemCrypto, OemCrypto, SampleCrypto};
use wideleak::cdm::wire::TlvWriter;
use wideleak::device::catalog::CdmVersion;
use wideleak::device::hooks::HookEngine;
use wideleak::device::memory::ProcessMemory;
use wideleak::device::net::RemoteEndpoint;
use wideleak::ott::ecosystem::Ecosystem;
use wideleak_bench::{bench_ecosystem, BenchReport};

/// One encrypted audio-sized sample per transaction: small enough that
/// the binder round-trip is a visible fraction of the cost, the regime
/// the dispatch pool is for.
const SAMPLE_BYTES: usize = 4 * 1024;
const CLIENT_COUNTS: [usize; 4] = [1, 2, 4, 8];
/// Dispatch workers and pooled sockets match the largest client count,
/// so neither is the bottleneck being measured.
const WORKERS: usize = 8;

fn quick_mode() -> bool {
    std::env::args().any(|a| a == "--quick") || std::env::var_os("WIDELEAK_BENCH_QUICK").is_some()
}

/// Boots an L3 CDM behind a reactor Media DRM server with a
/// [`WORKERS`]-thread dispatch pool, and a binder with one pooled
/// socket per worker. The server is returned so it outlives the binder.
fn boot_binder(eco: &Ecosystem) -> (TcpDrmServer, TcpBinder) {
    let backend = L3OemCrypto::new(
        CdmVersion::new(16, 0, 0),
        Arc::new(HookEngine::new()),
        Arc::new(ProcessMemory::new("mediaserver")),
    );
    backend.install_keybox(eco.trust().issue_keybox("bench-decrypt-scaling")).unwrap();
    let mut server = MediaDrmServer::new();
    let cdm = Cdm::builder().backend(Arc::new(backend)).build();
    server.register_plugin(WIDEVINE_SYSTEM_ID, Arc::new(cdm));
    let config = ReactorConfig { dispatch_workers: WORKERS, ..ReactorConfig::default() };
    let srv = TcpDrmServer::bind_with("127.0.0.1:0", Arc::new(server), config)
        .expect("binding a loopback media drm server");
    let binder = TcpBinder::connect(srv.local_addr()).pool_size(WORKERS).build().unwrap();
    (srv, binder)
}

/// Provisions the device through the binder, like first app launch does.
fn provision(binder: &dyn Transport, eco: &Ecosystem) {
    let req = binder
        .transact(DrmCall::GetProvisionRequest { nonce: [7; 16] })
        .unwrap()
        .into_bytes()
        .unwrap();
    let response = eco.backend().handle("provision/ocs", &req).unwrap();
    binder.transact(DrmCall::ProvideProvisionResponse { nonce: [7; 16], response }).unwrap();
}

/// Opens and licenses one session; returns it with a decryptable kid.
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
    let mut w = TlvWriter::new();
    w.string(1, token).bytes(2, &req);
    let response = eco.backend().handle("license/ocs/title-001", &w.finish()).unwrap();
    let kids = binder
        .transact(DrmCall::ProvideKeyResponse { session_id: sid, response })
        .unwrap()
        .into_key_ids()
        .unwrap();
    (sid, kids[0])
}

/// Runs `iters` decrypts per client, all clients in parallel, and
/// returns the elapsed wall time.
fn run_clients(
    binder: &Arc<TcpBinder>,
    sessions: &[(u32, KeyId)],
    iters: usize,
) -> std::time::Duration {
    let start = Instant::now();
    let clients: Vec<_> = sessions
        .iter()
        .map(|&(sid, kid)| {
            let binder = Arc::clone(binder);
            std::thread::spawn(move || {
                for i in 0..iters {
                    let out = binder
                        .transact(DrmCall::DecryptSample {
                            session_id: sid,
                            kid,
                            crypto: SampleCrypto::Cenc { iv: [1; 8] },
                            data: vec![i as u8; SAMPLE_BYTES],
                            subsamples: vec![],
                        })
                        .unwrap()
                        .into_bytes()
                        .unwrap();
                    assert_eq!(out.len(), SAMPLE_BYTES);
                }
            })
        })
        .collect();
    for c in clients {
        c.join().unwrap();
    }
    start.elapsed()
}

fn main() {
    let iters = if quick_mode() { 16 } else { 400 };
    wideleak::telemetry::enable();

    let eco = bench_ecosystem();
    let (_server, binder) = boot_binder(&eco);
    let binder = Arc::new(binder);
    provision(binder.as_ref(), &eco);
    let token = eco.accounts().subscribe("ocs", "bench-user");

    println!(
        "decrypt_scaling: {SAMPLE_BYTES}-byte cenc samples, {WORKERS}-worker dispatch pool, \
         {iters} decrypts/client ({} cores)",
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
    );
    println!(
        "{:>8} {:>10} {:>12} {:>12} {:>9}",
        "clients", "elapsed", "decrypts/s", "MiB/s", "speedup"
    );

    let mut report = BenchReport::new("decrypt_scaling");
    report
        .label("mode", if quick_mode() { "quick" } else { "full" })
        .label("iters", iters.to_string())
        .label("sample_bytes", SAMPLE_BYTES.to_string())
        .label("workers", WORKERS.to_string());

    let mut baseline_rate = 0.0f64;
    for (row, &n) in CLIENT_COUNTS.iter().enumerate() {
        let sessions: Vec<(u32, KeyId)> = (0..n)
            .map(|i| license_session(binder.as_ref(), &eco, &token, (row * 16 + i) as u8 + 1))
            .collect();
        // Warm-up: fault in threads and the per-kind counter handles.
        run_clients(&binder, &sessions, 2);
        let elapsed = run_clients(&binder, &sessions, iters);
        let total = (n * iters) as f64;
        let rate = total / elapsed.as_secs_f64();
        if row == 0 {
            baseline_rate = rate;
        }
        println!(
            "{:>8} {:>9.3}s {:>12.0} {:>12.2} {:>8.2}x",
            n,
            elapsed.as_secs_f64(),
            rate,
            rate * SAMPLE_BYTES as f64 / (1024.0 * 1024.0),
            rate / baseline_rate,
        );
        report
            .metric(format!("clients.{n}.decrypts_per_s"), rate)
            .metric(
                format!("clients.{n}.mib_per_s"),
                rate * SAMPLE_BYTES as f64 / (1024.0 * 1024.0),
            )
            .metric(format!("clients.{n}.speedup_vs_1"), rate / baseline_rate);
        for (sid, _) in sessions {
            binder.transact(DrmCall::CloseSession { session_id: sid }).unwrap();
        }
    }

    let snapshot = wideleak::telemetry::snapshot();
    let gauge = "reactor.dispatch.queue_depth";
    if let Some((_, depth)) = snapshot.gauges.iter().find(|(n, _)| n == gauge) {
        println!("{gauge} = {depth}");
        report.metric(gauge, *depth as f64);
    }
    report.write();
}
