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
use wideleak::bmff::types::KeyId;
use wideleak::cdm::oemcrypto::SampleCrypto;
use wideleak::ott::ecosystem::Ecosystem;
use wideleak_bench::{
    bench_ecosystem, l3_drm_server, license_session, provision, quick_mode, BenchReport,
};

/// One encrypted audio-sized sample per transaction: small enough that
/// the binder round-trip is a visible fraction of the cost, the regime
/// the dispatch pool is for.
const SAMPLE_BYTES: usize = 4 * 1024;
const CLIENT_COUNTS: [usize; 4] = [1, 2, 4, 8];
/// Dispatch workers and pooled sockets match the largest client count,
/// so neither is the bottleneck being measured.
const WORKERS: usize = 8;

/// Boots an L3 CDM behind a reactor Media DRM server with a
/// [`WORKERS`]-thread dispatch pool, and a binder with one pooled
/// socket per worker. The server is returned so it outlives the binder.
fn boot_binder(eco: &Ecosystem) -> (TcpDrmServer, TcpBinder) {
    let server = l3_drm_server(eco, "bench-decrypt-scaling");
    let config = ReactorConfig { dispatch_workers: WORKERS };
    let srv = TcpDrmServer::bind_with("127.0.0.1:0", Arc::new(server), config)
        .expect("binding a loopback media drm server");
    let binder = TcpBinder::connect(srv.local_addr()).pool_size(WORKERS).build().unwrap();
    (srv, binder)
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
