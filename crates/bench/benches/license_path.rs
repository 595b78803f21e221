//! Warm-vs-cold license path: the same playback + check-in traffic
//! against a cache-free ecosystem and one with all three hot-path
//! caches enabled (provisioning certificates, license-response plans,
//! per-session decrypt keys).
//!
//! Both ecosystems get one un-timed warm-up play first, so RSA keygen
//! and the provisioning server's issued-key map are warm on both sides;
//! the measured delta is the caches themselves: skipped key
//! derivation/blob serialization on check-in, skipped license plan
//! resolution per play, and reused AES key schedules per sample.
//!
//! ```text
//! cargo bench -p wideleak-bench --bench license_path [-- --quick]
//! ```
//!
//! `--quick` (or `WIDELEAK_BENCH_QUICK=1`) shrinks the iteration count
//! so CI can smoke the comparison on every PR.

use std::time::Instant;

use wideleak::device::catalog::DeviceModel;
use wideleak::ott::apps::OttApp;
use wideleak::ott::ecosystem::{Ecosystem, EcosystemConfig};
use wideleak_bench::{quick_mode, BenchReport, BENCH_RSA_BITS};

/// Boots one ecosystem + device + app with the caches on or off and
/// runs the un-timed warm-up play.
fn boot(caches: bool) -> (Ecosystem, OttApp) {
    let eco =
        Ecosystem::new(EcosystemConfig { rsa_bits: BENCH_RSA_BITS, caches, ..Default::default() });
    let stack = eco.boot_device(DeviceModel::nexus_5(), false);
    let app = eco.install_app(&stack, "netflix", "bench-user");
    app.play("title-001").unwrap();
    (eco, app)
}

/// Times `iters` repetitions of one play plus one device check-in.
fn run(app: &OttApp, iters: usize) -> std::time::Duration {
    let start = Instant::now();
    for _ in 0..iters {
        app.play("title-001").unwrap();
        app.reprovision().unwrap();
    }
    start.elapsed()
}

fn main() {
    let iters = if quick_mode() { 3 } else { 25 };
    println!("license_path: {iters} plays+check-ins per side, {BENCH_RSA_BITS}-bit RSA");

    let (_cold_eco, cold_app) = boot(false);
    let (warm_eco, warm_app) = boot(true);

    let cold = run(&cold_app, iters);
    let warm = run(&warm_app, iters);

    let per = |d: std::time::Duration| d.as_secs_f64() * 1e6 / iters as f64;
    println!("{:>8} {:>14} {:>9}", "path", "us/play", "speedup");
    println!("{:>8} {:>14.1} {:>8.2}x", "cold", per(cold), 1.0);
    println!("{:>8} {:>14.1} {:>8.2}x", "warm", per(warm), cold.as_secs_f64() / warm.as_secs_f64());

    let lic = warm_eco.license_cache_stats().expect("license cache enabled");
    let prov = warm_eco.provisioning_cache_stats().expect("cert cache enabled");
    println!(
        "warm-side hit rates: license {}/{}  provisioning {}/{}",
        lic.hits,
        lic.lookups(),
        prov.hits,
        prov.lookups()
    );

    let mut report = BenchReport::new("license_path");
    report
        .label("mode", if quick_mode() { "quick" } else { "full" })
        .label("iters", iters.to_string())
        .metric("cold.us_per_play", per(cold))
        .metric("warm.us_per_play", per(warm))
        .metric("warm.speedup", cold.as_secs_f64() / warm.as_secs_f64())
        .metric("warm.license_cache_hits", lic.hits as f64)
        .metric("warm.license_cache_lookups", lic.lookups() as f64);
    report.write();
    // Smoke check, with headroom for scheduler noise at tiny --quick
    // iteration counts.
    assert!(
        warm.as_secs_f64() <= cold.as_secs_f64() * 1.10,
        "warm caches must not be slower: warm={warm:?} cold={cold:?}"
    );
}
