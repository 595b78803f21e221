//! Distributed-tracing overhead: the same license-path and
//! decrypt-path round trips over the framed TCP loopback transport,
//! with tracing off and on, so the cost of trace-context minting,
//! span recording, and the 24-byte frame extension is pinned as a
//! number instead of a hope.
//!
//! ```text
//! cargo bench -p wideleak-bench --bench trace_overhead [-- --quick]
//! ```
//!
//! Emits `BENCH_trace_overhead.json` and fails when the p50 overhead
//! on the license path exceeds budget (5% in full mode; quick mode
//! widens it to 25% because 100-iteration medians jitter in CI).

use std::sync::Arc;
use std::time::{Duration, Instant};

use wideleak::android_drm::binder::{DrmCall, Transport};
use wideleak::android_drm::netserver::TcpBinder;
use wideleak::bmff::types::KeyId;
use wideleak::cdm::oemcrypto::SampleCrypto;
use wideleak::telemetry::trace;
use wideleak_bench::{
    bench_ecosystem, l3_drm_server, license_session, provision, quick_mode, BenchReport,
};

const SAMPLE_BYTES: usize = 4 * 1024;

/// Times `iters` license-path round trips (the RSA-signing
/// `GetKeyRequest`, the paper's critical path) and returns sorted
/// per-call latencies.
fn measure_license(binder: &dyn Transport, sid: u32, iters: usize) -> Vec<Duration> {
    let mut samples = Vec::with_capacity(iters);
    for _ in 0..iters {
        let start = Instant::now();
        let req = binder
            .transact(DrmCall::GetKeyRequest {
                session_id: sid,
                content_id: "title-001".to_owned(),
                key_ids: vec![],
            })
            .unwrap()
            .into_bytes()
            .unwrap();
        samples.push(start.elapsed());
        assert!(!req.is_empty());
    }
    samples.sort();
    samples
}

/// Times `iters` decrypt round trips and returns sorted latencies.
fn measure_decrypt(binder: &dyn Transport, sid: u32, kid: KeyId, iters: usize) -> Vec<Duration> {
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

fn p50(sorted: &[Duration]) -> Duration {
    sorted[sorted.len() / 2]
}

fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn main() {
    let quick = quick_mode();
    let license_iters = if quick { 60 } else { 600 };
    let decrypt_iters = if quick { 300 } else { 3000 };
    let budget = if quick { 0.25 } else { 0.05 };

    let eco = bench_ecosystem();
    let token = eco.accounts().subscribe("ocs", "bench-user");
    // An L3 CDM behind a loopback TCP media DRM server.
    let binder: Arc<dyn Transport> =
        Arc::new(TcpBinder::loopback(l3_drm_server(&eco, "bench-trace-overhead")).build().unwrap());
    provision(binder.as_ref(), &eco);
    let (sid, kid) = license_session(binder.as_ref(), &eco, &token, 9);

    println!(
        "trace_overhead: tcp loopback, {license_iters} license + {decrypt_iters} decrypt calls per side"
    );

    // Warm both paths before either timed side so neither inherits
    // cold-start costs.
    measure_license(binder.as_ref(), sid, 8);
    measure_decrypt(binder.as_ref(), sid, kid, 16);

    // Interleave off/on chunks: clock drift, thermal throttling and
    // scheduler bursts hit both sides equally instead of whichever
    // side happened to run second.
    const CHUNKS: usize = 6;
    let mut license_off = Vec::new();
    let mut license_on = Vec::new();
    let mut decrypt_off = Vec::new();
    let mut decrypt_on = Vec::new();
    for _ in 0..CHUNKS {
        trace::disable();
        license_off.extend(measure_license(binder.as_ref(), sid, license_iters / CHUNKS));
        decrypt_off.extend(measure_decrypt(binder.as_ref(), sid, kid, decrypt_iters / CHUNKS));
        trace::enable();
        license_on.extend(measure_license(binder.as_ref(), sid, license_iters / CHUNKS));
        decrypt_on.extend(measure_decrypt(binder.as_ref(), sid, kid, decrypt_iters / CHUNKS));
    }
    trace::disable();
    license_off.sort();
    license_on.sort();
    decrypt_off.sort();
    decrypt_on.sort();
    let recorded = trace::drain().len();

    let overhead = |off: &[Duration], on: &[Duration]| {
        (p50(on).as_secs_f64() - p50(off).as_secs_f64()) / p50(off).as_secs_f64()
    };
    let license_overhead = overhead(&license_off, &license_on);
    let decrypt_overhead = overhead(&decrypt_off, &decrypt_on);

    println!("{:>10} {:>14} {:>14} {:>10}", "path", "off p50 us", "on p50 us", "overhead");
    println!(
        "{:>10} {:>14.1} {:>14.1} {:>9.1}%",
        "license",
        micros(p50(&license_off)),
        micros(p50(&license_on)),
        license_overhead * 100.0
    );
    println!(
        "{:>10} {:>14.1} {:>14.1} {:>9.1}%",
        "decrypt",
        micros(p50(&decrypt_off)),
        micros(p50(&decrypt_on)),
        decrypt_overhead * 100.0
    );
    println!("{recorded} trace spans recorded on the traced side");

    let mut report = BenchReport::new("trace_overhead");
    report
        .label("mode", if quick { "quick" } else { "full" })
        .label("transport", "tcp")
        .metric("license.off_p50_us", micros(p50(&license_off)))
        .metric("license.on_p50_us", micros(p50(&license_on)))
        .metric("license.p50_overhead", license_overhead)
        .metric("decrypt.off_p50_us", micros(p50(&decrypt_off)))
        .metric("decrypt.on_p50_us", micros(p50(&decrypt_on)))
        .metric("decrypt.p50_overhead", decrypt_overhead)
        .metric("spans_recorded", recorded as f64);
    report.write();

    assert!(recorded > 0, "traced side must actually record spans");
    assert!(
        license_overhead < budget,
        "license-path tracing overhead {:.1}% exceeds the {:.0}% budget",
        license_overhead * 100.0,
        budget * 100.0
    );
}
