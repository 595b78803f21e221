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
use wideleak::telemetry::LatencyHistogram;
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

/// Times `iters` sequential decrypt round trips and returns the
/// per-call latencies in nanoseconds.
fn measure(binder: &dyn Transport, sid: u32, kid: KeyId, iters: usize) -> LatencyHistogram {
    let mut samples = LatencyHistogram::new();
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
        samples.record(u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX));
        assert_eq!(out.len(), SAMPLE_BYTES);
    }
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
        let us = |ns: Option<u64>| micros(Duration::from_nanos(ns.expect("iters > 0")));
        let (mean, p50, p95, p99) = (
            us(samples.mean()),
            us(samples.percentile(50, 100)),
            us(samples.percentile(95, 100)),
            us(samples.percentile(99, 100)),
        );
        let per_s = samples.count() as f64 / Duration::from_nanos(samples.sum()).as_secs_f64();
        println!("{label:>10} {mean:>10.1} {p50:>10.1} {p95:>10.1} {p99:>10.1} {per_s:>12.0}");
        report
            .metric(format!("{label}.mean_us"), mean)
            .metric(format!("{label}.p50_us"), p50)
            .metric(format!("{label}.p95_us"), p95)
            .metric(format!("{label}.p99_us"), p99)
            .metric(format!("{label}.decrypts_per_s"), per_s);
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
