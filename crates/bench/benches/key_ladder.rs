//! P3 — key-ladder latency: the derive→load→decrypt cycle on the L3
//! (in-process) versus the L1 (TEE world-switch) backend.
//!
//! The comparison quantifies the world-switch overhead the paper's §II-C
//! architecture implies: every L1 operation crosses `liboemcrypto.so`.
//! Each row is the median of a fixed number of timed calls; the rows land
//! in `BENCH_key_ladder.json`.
//!
//! ```text
//! cargo bench -p wideleak-bench --bench key_ladder
//! ```

use std::sync::Arc;

use wideleak::bmff::types::KeyId;
use wideleak::cdm::ladder::{derive_provisioning_keys, derive_session_keys};
use wideleak::cdm::messages::{LicenseResponse, ProvisioningResponse};
use wideleak::cdm::oemcrypto::{L1OemCrypto, L3OemCrypto, OemCrypto, SampleCrypto};
use wideleak::device::catalog::CdmVersion;
use wideleak::device::hooks::HookEngine;
use wideleak::device::memory::ProcessMemory;
use wideleak::device::net::RemoteEndpoint;
use wideleak::ott::license::encode_envelope;
use wideleak::tee::SecureWorld;
use wideleak_bench::{bench_ecosystem, median_time, micros, BenchReport};

/// Timed calls per row.
const ITERS: usize = 1000;

/// Provisions and licenses a backend against the real servers, returning
/// the session and a usable key id plus encrypted payload.
fn primed(
    backend: &dyn OemCrypto,
    eco: &wideleak::ott::ecosystem::Ecosystem,
    device: &str,
) -> (u32, KeyId, Vec<u8>) {
    backend.install_keybox(eco.trust().issue_keybox(device)).unwrap();
    let preq = backend.provisioning_request([1; 16]).unwrap();
    let raw = eco.backend().handle("provision/showtime", &preq.to_bytes()).unwrap();
    backend.install_rsa_key([1; 16], &ProvisioningResponse::parse(&raw).unwrap()).unwrap();
    let token = eco.accounts().subscribe("showtime", device);
    let sid = backend.open_session([2; 16]).unwrap();
    let req = backend.license_request(sid, "title-001", &[]).unwrap();
    let raw = eco
        .backend()
        .handle("license/showtime/title-001", &encode_envelope(&token, &req.to_bytes()))
        .unwrap();
    let resp = LicenseResponse::parse(&raw).unwrap();
    let kids = backend.load_license(sid, &resp).unwrap();
    let kid = kids[0];
    // A one-block sample to decrypt.
    (sid, kid, vec![0xEE; 1024])
}

fn main() {
    let eco = bench_ecosystem();
    let mut report = BenchReport::new("key_ladder");
    report.label("iters", ITERS.to_string());
    println!("key_ladder: median of {ITERS} timed calls per row");
    println!("{:>36} {:>10}", "operation", "median us");
    let mut row = |name: &str, median| {
        let us = micros(median);
        println!("{name:>36} {us:>10.2}");
        report.metric(format!("{}.us", name.replace('/', ".")), us);
    };

    // Pure derivation cost (what the attack replays offline).
    row(
        "ladder/derive_session_keys",
        median_time(ITERS, || derive_session_keys(&[7; 16], b"ENC|app|title", b"MAC|app|title")),
    );
    row(
        "ladder/derive_provisioning_keys",
        median_time(ITERS, || {
            derive_provisioning_keys(&[7; 16], b"device-id-32-bytes-padded-to-32b")
        }),
    );

    // Per-sample decrypt latency: L3 in-process vs L1 world-switch.
    let cenc = SampleCrypto::Cenc { iv: [5; 8] };
    let hooks = Arc::new(HookEngine::new());
    let l3 = L3OemCrypto::new(
        CdmVersion::new(16, 0, 0),
        hooks.clone(),
        Arc::new(ProcessMemory::new("mediaserver")),
    );
    let (sid, kid, data) = primed(&l3, &eco, "ladder-l3");
    row(
        "decrypt_1kib_sample/l3_in_process",
        median_time(ITERS, || l3.decrypt_sample(sid, &kid, &cenc, &data, &[]).unwrap()),
    );

    let world = Arc::new(SecureWorld::new());
    let l1 = L1OemCrypto::new(CdmVersion::new(16, 0, 0), world.clone(), hooks);
    let (sid, kid, data) = primed(&l1, &eco, "ladder-l1");
    row(
        "decrypt_1kib_sample/l1_world_switch",
        median_time(ITERS, || l1.decrypt_sample(sid, &kid, &cenc, &data, &[]).unwrap()),
    );

    println!("world switches performed by the L1 backend: {}", world.switch_count());
    report.write();
}
