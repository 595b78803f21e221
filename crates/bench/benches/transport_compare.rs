//! Transport comparison: the same licensed `DecryptSample` round trip
//! through both binder transports — in-process dispatch and framed TCP
//! over loopback into the reactor's dispatch pool — reporting per-call
//! p50/p95/p99 so the cost of the IPC boundary is visible.
//!
//! ```text
//! cargo bench -p wideleak-bench --bench transport_compare [-- --quick]
//! ```
//!
//! `--quick` (or `WIDELEAK_BENCH_QUICK=1`) shrinks the iteration count
//! so CI can compare the transports on every PR in a few seconds.

use std::sync::Arc;
use std::time::{Duration, Instant};

use wideleak::android_drm::binder::{DrmCall, InProcessBinder, Transport, TransportKind};
use wideleak::android_drm::netserver::TcpBinder;
use wideleak::bmff::types::KeyId;
use wideleak::cdm::oemcrypto::SampleCrypto;
use wideleak::ott::ecosystem::Ecosystem;
use wideleak_bench::{
    bench_ecosystem, l3_drm_server, license_session, micros, provision, quick_mode, BenchReport,
};

/// Audio-sized samples: small enough that the transport round trip is a
/// visible fraction of the total, the regime the comparison is about.
const SAMPLE_BYTES: usize = 4 * 1024;

/// Boots an L3 CDM behind a fresh media DRM server on one transport.
fn boot_binder(eco: &Ecosystem, transport: TransportKind) -> Arc<dyn Transport> {
    let server = l3_drm_server(eco, &format!("bench-transport-{transport}"));
    match transport {
        TransportKind::InProcess => Arc::new(InProcessBinder::new(server)),
        TransportKind::Tcp => Arc::new(TcpBinder::loopback(server).build().unwrap()),
    }
}

/// Nearest-rank percentile over a sorted sample set.
fn percentile(sorted: &[Duration], p: usize) -> Duration {
    let n = sorted.len();
    sorted[((n * p).div_ceil(100)).max(1) - 1]
}

/// Times `iters` sequential decrypt round trips and returns the sorted
/// per-call latencies.
fn measure(binder: &dyn Transport, sid: u32, kid: KeyId, iters: usize) -> Vec<Duration> {
    let mut samples = Vec::with_capacity(iters);
    for i in 0..iters {
        let data = vec![i as u8; SAMPLE_BYTES];
        let start = Instant::now();
        let out = binder
            .transact(DrmCall::DecryptSample {
                session_id: sid,
                kid,
                crypto: SampleCrypto::Cenc { iv: [1; 8] },
                data,
                subsamples: vec![],
            })
            .unwrap()
            .into_bytes()
            .unwrap();
        samples.push(start.elapsed());
        assert_eq!(out.len(), SAMPLE_BYTES);
    }
    samples.sort();
    samples
}

fn main() {
    let iters = if quick_mode() { 300 } else { 5000 };
    wideleak::telemetry::enable();
    let eco = bench_ecosystem();
    let token = eco.accounts().subscribe("ocs", "bench-user");

    println!("transport_compare: {SAMPLE_BYTES}-byte cenc samples, {iters} decrypts per transport");
    println!(
        "{:>10} {:>10} {:>10} {:>10} {:>10} {:>12}",
        "transport", "mean us", "p50 us", "p95 us", "p99 us", "decrypts/s"
    );

    let mut report = BenchReport::new("transport_compare");
    report
        .label("mode", if quick_mode() { "quick" } else { "full" })
        .label("iters", iters.to_string())
        .label("sample_bytes", SAMPLE_BYTES.to_string());
    for transport in TransportKind::ALL {
        let label = transport.label();
        let binder = boot_binder(&eco, transport);
        provision(binder.as_ref(), &eco);
        let (sid, kid) = license_session(binder.as_ref(), &eco, &token, 9);
        // Warm-up: connections dialed, threads faulted in, caches hot.
        measure(binder.as_ref(), sid, kid, 16);
        let samples = measure(binder.as_ref(), sid, kid, iters);
        let total: Duration = samples.iter().sum();
        let mean = total / samples.len() as u32;
        println!(
            "{:>10} {:>10.1} {:>10.1} {:>10.1} {:>10.1} {:>12.0}",
            label,
            micros(mean),
            micros(percentile(&samples, 50)),
            micros(percentile(&samples, 95)),
            micros(percentile(&samples, 99)),
            samples.len() as f64 / total.as_secs_f64(),
        );
        report
            .metric(format!("{label}.mean_us"), micros(mean))
            .metric(format!("{label}.p50_us"), micros(percentile(&samples, 50)))
            .metric(format!("{label}.p95_us"), micros(percentile(&samples, 95)))
            .metric(format!("{label}.p99_us"), micros(percentile(&samples, 99)))
            .metric(format!("{label}.decrypts_per_s"), samples.len() as f64 / total.as_secs_f64());
        binder.transact(DrmCall::CloseSession { session_id: sid }).unwrap();
    }
    report.write();

    let counters = wideleak::telemetry::snapshot().counters;
    for name in ["binder.tcp.frames.sent", "binder.tcp.bytes.sent", "binder.tcp.reconnects"] {
        if let Some((_, v)) = counters.iter().find(|(n, _)| n == name) {
            println!("{name} = {v}");
        }
    }
}
