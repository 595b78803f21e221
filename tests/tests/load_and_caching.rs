//! Hot-path caching and the fleet load generator, end to end.
//!
//! The caching contract: every cache is bypassable, and enabling all of
//! them leaves the paper's outputs byte-identical — the cached material
//! is strictly the nonce-independent part of each response. The load
//! generator contract: same config, same report, byte for byte.
//!
//! Also pins the renewal-counting fix: `license.renewed` increments
//! exactly once per *successful* renewal, and a renewal whose retried
//! playback dies with `KeyExpired` again terminates instead of looping.

use wideleak::device::catalog::DeviceModel;
use wideleak::faults::{FaultKind, FaultPlan, Schedule};
use wideleak::load::{run_load, LoadConfig};
use wideleak::monitor::report::render_table_1;
use wideleak::monitor::study::run_study;
use wideleak::ott::ecosystem::{Ecosystem, EcosystemConfig};
use wideleak::ott::OttError;

/// Past the default 24h license duration, so one skew expires the key.
const EXPIRING_SKEW_SECS: u64 = 172_800;

fn skew_plan(schedule: Schedule) -> FaultPlan {
    FaultPlan::builder()
        .binder_fault("decrypt_sample", FaultKind::ClockSkew { secs: EXPIRING_SKEW_SECS }, schedule)
        .build()
}

#[test]
fn successful_renewal_is_counted_exactly_once() {
    let eco = Ecosystem::new(EcosystemConfig {
        seed: 7,
        ..EcosystemConfig::fast_with_faults(skew_plan(Schedule::Once { at: 0 }))
    });
    let stack = eco.boot_device(DeviceModel::pixel_6(), false);
    let app = eco.install_app(&stack, "netflix", "renewal-probe");
    // First decrypt hits the skew, the key expires, the app renews once
    // and the retried playback succeeds on the now-settled clock.
    app.play("title-001").expect("renewal rescues the playback");
    assert_eq!(app.retry_stats().renewals, 1, "one successful renewal, counted once");
}

#[test]
fn failed_renewal_terminates_and_is_not_counted() {
    let eco = Ecosystem::new(EcosystemConfig {
        seed: 7,
        ..EcosystemConfig::fast_with_faults(skew_plan(Schedule::Always))
    });
    let stack = eco.boot_device(DeviceModel::pixel_6(), false);
    let app = eco.install_app(&stack, "netflix", "renewal-probe");
    // Every decrypt skews the clock past the license duration: the
    // renewed license expires too. The loop must terminate with the
    // expiry error — renewal is attempted once, never counted.
    let err = app.play("title-001").expect_err("renewal cannot outrun a permanent skew");
    assert!(
        matches!(
            err,
            OttError::Drm(wideleak::android_drm::DrmError::Cdm(
                wideleak::cdm::CdmError::KeyExpired
            )) | OttError::Cdm(wideleak::cdm::CdmError::KeyExpired)
        ),
        "expiry must surface, got {err:?}"
    );
    assert_eq!(app.retry_stats().renewals, 0, "a failed renewal is not a renewal");
}

#[test]
fn all_caches_enabled_leave_table_1_byte_identical() {
    let plain = Ecosystem::new(EcosystemConfig::fast_for_tests());
    let cached =
        Ecosystem::new(EcosystemConfig { caches: true, ..EcosystemConfig::fast_for_tests() });
    let plain_table = render_table_1(&run_study(&plain).expect("plain study runs"));
    let cached_table = render_table_1(&run_study(&cached).expect("cached study runs"));
    assert_eq!(plain_table, cached_table, "caches must be invisible in Table I");
    // And the caches actually ran: repeated plays inside the study hit.
    let lic = cached.license_cache_stats().expect("license cache enabled");
    assert!(lic.lookups() > 0, "the study exercised the license cache");
}

#[test]
fn load_reports_are_deterministic_and_register_hits() {
    let config = LoadConfig {
        devices: 2,
        workers_per_device: 2,
        plays_per_worker: 3,
        seed: 31,
        caches: true,
        ..LoadConfig::default()
    };
    let first = run_load(&config);
    let second = run_load(&config);
    assert_eq!(first.render(), second.render(), "same config, same report bytes");
    assert_eq!(first.failed_plays, 0);
    assert!(first.provisioning_cache.expect("enabled").hits > 0);
    assert!(first.license_cache.expect("enabled").hits > 0);
    assert!(first.steady_latency.p50_ms <= first.steady_latency.p95_ms);
    assert!(first.steady_latency.p95_ms <= first.steady_latency.p99_ms);
}

#[test]
fn uncached_load_runs_the_full_paths() {
    let config = LoadConfig {
        devices: 1,
        workers_per_device: 2,
        plays_per_worker: 2,
        seed: 31,
        caches: false,
        ..LoadConfig::default()
    };
    let report = run_load(&config);
    assert_eq!(report.failed_plays, 0, "cold paths still play everything");
    assert!(report.provisioning_cache.is_none());
    assert!(report.license_cache.is_none());
}
