//! Layer probes: the primitives the workloads spend their time in,
//! timed through each layer's public API at the sizes the workloads use.
//! Every traced run measures all of them, so each per-layer metric
//! exists for every workload; the spans cannot see inside a layer (AES
//! runs unspanned inside the CDM), and these numbers can.

use wideleak::bmff::fragment::MediaSegment;
use wideleak::bmff::types::CryptPattern;
use wideleak::cenc::keys::ContentKey;
use wideleak::crypto::aes::Aes128;
use wideleak::crypto::rng::{random_array, random_bytes, seeded_rng};
use wideleak::crypto::rsa::RsaPrivateKey;
use wideleak::dash::mpd::{ContentType, Mpd};
use wideleak::device::net::RemoteEndpoint;
use wideleak::monitor::campaign::run_shard;
use wideleak::ott::ecosystem::{Ecosystem, EcosystemConfig};

use crate::report::Report;
use crate::stats::{median_ns_per_unit, mix};
use crate::BenchError;

/// The sample size of the `stream` workload.
pub const SAMPLE_BYTES: usize = 4096;

/// The `cbcs` pattern every Widevine `cbcs` track uses: one encrypted
/// block in ten.
pub const CBCS_PATTERN: CryptPattern = CryptPattern { crypt_blocks: 1, skip_blocks: 9 };

/// Seeded bytes.
#[must_use]
pub fn seeded_bytes(seed: u64, len: usize) -> Vec<u8> {
    random_bytes(&mut seeded_rng(seed), len)
}

/// A seeded fixed-size array.
#[must_use]
pub fn seeded_array<const N: usize>(seed: u64) -> [u8; N] {
    random_array(&mut seeded_rng(seed))
}

fn check(ok: bool, what: &str) -> Result<(), BenchError> {
    if ok {
        Ok(())
    } else {
        Err(BenchError::Probe(what.to_owned()))
    }
}

/// Runs every probe and records its metric.
///
/// # Errors
///
/// A probe's output was wrong, or its inputs could not be fetched.
pub fn run(seed: u64, report: &mut Report) -> Result<(), BenchError> {
    aes(seed, report)?;
    rsa(seed, report)?;
    parsers(seed, report)?;
    derive(seed, report)
}

fn aes(seed: u64, report: &mut Report) -> Result<(), BenchError> {
    let key: [u8; 16] = seeded_array(mix(seed, 1));
    let cipher = Aes128::new(&key);
    let blocks: Vec<[u8; 16]> = seeded_bytes(mix(seed, 2), SAMPLE_BYTES)
        .chunks_exact(16)
        .map(|c| c.try_into().expect("16-byte chunk"))
        .collect();
    let mut work = blocks.clone();
    let enc = median_ns_per_unit(15, work.len(), || {
        work.iter_mut().for_each(|b| cipher.encrypt_block(b))
    });
    let dec = median_ns_per_unit(15, work.len(), || {
        work.iter_mut().for_each(|b| cipher.decrypt_block(b))
    });
    check(work == blocks, "AES block decrypt(encrypt(x)) != x")?;
    report.metric("crypto.aes.encrypt_ns_per_block", enc, "ns");
    report.metric("crypto.aes.decrypt_ns_per_block", dec, "ns");

    let content_key = ContentKey(key);
    let plain = seeded_bytes(mix(seed, 3), SAMPLE_BYTES);
    let iv: [u8; 8] = seeded_array(mix(seed, 4));
    let civ: [u8; 16] = seeded_array(mix(seed, 5));
    let ctr = wideleak::cenc::ctr::encrypt_sample(&content_key, iv, &plain, &[])
        .map_err(|e| BenchError::Probe(e.to_string()))?;
    let cbcs = wideleak::cenc::cbcs::encrypt_sample(&content_key, civ, CBCS_PATTERN, &plain, &[])
        .map_err(|e| BenchError::Probe(e.to_string()))?;
    let mut out = Vec::new();
    let ctr_ns = median_ns_per_unit(15, 8, || {
        for _ in 0..8 {
            out = wideleak::cenc::ctr::decrypt_sample(&content_key, iv, &ctr, &[])
                .unwrap_or_default();
        }
    });
    check(out == plain, "cenc sample round trip")?;
    let cbcs_ns = median_ns_per_unit(15, 8, || {
        for _ in 0..8 {
            out = wideleak::cenc::cbcs::decrypt_sample(&content_key, civ, CBCS_PATTERN, &cbcs, &[])
                .unwrap_or_default();
        }
    });
    check(out == plain, "cbcs sample round trip")?;
    report.metric("cenc.ctr_4k_us", ctr_ns / 1e3, "us");
    report.metric("cenc.cbcs_4k_us", cbcs_ns / 1e3, "us");
    Ok(())
}

fn rsa(seed: u64, report: &mut Report) -> Result<(), BenchError> {
    // Keygen cost depends on where the primes fall, so time a fixed
    // sequence of keys at the attack's and campaign's size.
    let mut keys = Vec::new();
    let keygen_ns = median_ns_per_unit(1, 8, || {
        keys = (0..8)
            .map(|k| RsaPrivateKey::generate(&mut seeded_rng(mix(seed, 10 + k)), 768))
            .collect();
    });
    check(keys.iter().all(|k| k.public_key().modulus_len() == 96), "768-bit keygen")?;
    report.metric("bigint.rsa768.keygen_ms", keygen_ns / 1e6, "ms");

    let key = RsaPrivateKey::generate(&mut seeded_rng(mix(seed, 20)), 2048);
    let message = seeded_bytes(mix(seed, 21), 256);
    let session_key = seeded_bytes(mix(seed, 22), 16);
    let mut signature = Vec::new();
    let sign = median_ns_per_unit(9, 1, || {
        signature = key.sign_pkcs1v15_sha256(&message).unwrap_or_default();
    });
    let mut verified = false;
    let verify = median_ns_per_unit(31, 1, || {
        verified = key.public_key().verify_pkcs1v15_sha256(&message, &signature).is_ok();
    });
    check(verified, "RSA-2048 signature verifies")?;
    let wrapped = key
        .public_key()
        .encrypt_oaep(&mut seeded_rng(mix(seed, 23)), &session_key)
        .map_err(|e| BenchError::Probe(e.to_string()))?;
    let mut unwrapped = Vec::new();
    let oaep = median_ns_per_unit(9, 1, || {
        unwrapped = key.decrypt_oaep(&wrapped).unwrap_or_default();
    });
    check(unwrapped == session_key, "RSA-2048 OAEP round trip")?;
    report.metric("crypto.rsa2048.sign_us", sign / 1e3, "us");
    report.metric("crypto.rsa2048.oaep_decrypt_us", oaep / 1e3, "us");
    report.metric("crypto.rsa2048.verify_us", verify / 1e3, "us");
    Ok(())
}

/// Parses a manifest and a 540p media segment as the app fetches them.
fn parsers(seed: u64, report: &mut Report) -> Result<(), BenchError> {
    let eco = Ecosystem::new(EcosystemConfig { seed, ..EcosystemConfig::fast_for_tests() });
    let token = eco.accounts().subscribe("showtime", "probe");
    let fetch =
        |path: &str, body: &[u8]| eco.backend().handle(path, body).map_err(BenchError::Probe);
    let xml = String::from_utf8(fetch("manifest/showtime/title-001", token.as_bytes())?)
        .map_err(|e| BenchError::Probe(e.to_string()))?;
    let mut mpd = Mpd::parse(&xml).map_err(|e| BenchError::Probe(e.to_string()))?;
    let mpd_ns = median_ns_per_unit(31, 1, || {
        mpd = Mpd::parse(&xml).expect("parsed once already");
    });
    let url = mpd
        .adaptation_sets()
        .filter(|s| s.content_type == ContentType::Video)
        .flat_map(|s| s.representations.iter())
        .find(|r| r.id == "video-540p")
        .and_then(|r| r.segment_urls.first().cloned())
        .ok_or_else(|| BenchError::Probe("no 540p video segment in the manifest".into()))?;
    let bytes = fetch(&url, &[])?;
    let mut samples = 0;
    let segment_ns = median_ns_per_unit(31, 1, || {
        samples = MediaSegment::from_bytes(&bytes)
            .and_then(|s| s.samples().map(|v| v.len()))
            .unwrap_or(0);
    });
    check(samples == wideleak::ott::content::SAMPLES_PER_SEGMENT, "segment sample count")?;
    report.metric("dash.mpd_parse_us", mpd_ns / 1e3, "us");
    report.metric("bmff.segment_parse_us", segment_ns / 1e3, "us");
    Ok(())
}

/// The campaign's per-device classification, without sampled plays.
fn derive(seed: u64, report: &mut Report) -> Result<(), BenchError> {
    let mut spec = wideleak::monitor::campaign::CampaignConfig::full(seed).spec;
    spec.sample_every = 0;
    let shard = wideleak::android_drm::campaign::ShardAssignment {
        shard_id: 0,
        start: 0,
        end: spec.devices,
    };
    let mut derived = 0;
    let ns = median_ns_per_unit(5, spec.devices as usize, || {
        derived = run_shard(&spec, shard)
            .map(|r| r.cells.iter().map(|c| c.counts.iter().sum::<u64>()).sum())
            .unwrap_or(0);
    });
    check(derived == spec.devices * 10, "every (device, app) pair derived")?;
    report.metric("campaign.derive_us_per_device", ns / 1e3, "us");
    Ok(())
}
