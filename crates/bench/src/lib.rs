//! Shared helpers for the WideLeak performance benches.
//!
//! Each target in `benches/` times one path with [`median_time`] and
//! writes its rows to `BENCH_<name>.json` through [`BenchReport`]; see
//! `EXPERIMENTS.md` at the workspace root for the experiment-to-target
//! index. The paper's categorical results are pinned by tests instead.

use std::sync::Arc;
use std::time::{Duration, Instant};

use wideleak::android_drm::binder::{DrmCall, Transport};
use wideleak::android_drm::server::MediaDrmServer;
use wideleak::bmff::types::KeyId;
use wideleak::cdm::oemcrypto::{L3OemCrypto, OemCrypto};
use wideleak::device::catalog::CdmVersion;
use wideleak::device::hooks::HookEngine;
use wideleak::device::memory::ProcessMemory;
use wideleak::device::net::RemoteEndpoint;
use wideleak::ott::ecosystem::{Ecosystem, EcosystemConfig};
use wideleak::ott::license::encode_envelope;

/// Whether a bench runs its CI-sized preset: `--quick` on the command
/// line, or `WIDELEAK_BENCH_QUICK` set in the environment.
pub fn quick_mode() -> bool {
    std::env::args().any(|a| a == "--quick") || std::env::var_os("WIDELEAK_BENCH_QUICK").is_some()
}

/// The median the benches report: `sorted[len / 2]`, the upper median
/// when `samples` has an even length.
///
/// # Panics
///
/// Panics when `samples` is empty.
pub fn median(samples: &[Duration]) -> Duration {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    sorted[sorted.len() / 2]
}

/// The [`median`] wall time of `iters` runs of `f`.
pub fn median_time<T>(iters: usize, mut f: impl FnMut() -> T) -> Duration {
    let samples: Vec<Duration> = (0..iters)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(f());
            start.elapsed()
        })
        .collect();
    median(&samples)
}

/// `d` in microseconds.
pub fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// The RSA key size the benches use: large enough to exercise the real
/// code paths, small enough that ecosystem boot and the benches' fixed
/// iteration counts stay quick. (Production Widevine uses 2048-bit keys;
/// the asymmetric operations scale cubically, the *shape* of every
/// comparison is size-independent.)
pub const BENCH_RSA_BITS: usize = 1024;

/// Boots the ecosystem the benches share: defaults with
/// [`BENCH_RSA_BITS`]-bit RSA.
pub fn bench_ecosystem() -> Ecosystem {
    Ecosystem::new(EcosystemConfig { rsa_bits: BENCH_RSA_BITS, ..Default::default() })
}

/// A media DRM server fronting a fresh software L3 CDM (version 16.0.0)
/// whose keybox `eco`'s trust authority issues under `keybox_name`.
///
/// # Panics
///
/// Panics if the keybox does not install.
pub fn l3_drm_server(eco: &Ecosystem, keybox_name: &str) -> MediaDrmServer {
    let backend = L3OemCrypto::new(
        CdmVersion::new(16, 0, 0),
        Arc::new(HookEngine::new()),
        Arc::new(ProcessMemory::new("mediaserver")),
    );
    backend.install_keybox(eco.trust().issue_keybox(keybox_name)).unwrap();
    MediaDrmServer::new(Arc::new(backend))
}

/// Provisions the CDM behind `binder` against `eco`'s backend, like
/// first app launch does.
///
/// # Panics
///
/// Panics if any provisioning step fails.
pub fn provision(binder: &dyn Transport, eco: &Ecosystem) {
    let req = binder
        .transact(DrmCall::GetProvisionRequest { nonce: [7; 16] })
        .unwrap()
        .into_bytes()
        .unwrap();
    let response = eco.backend().handle("provision/ocs", &req).unwrap();
    binder.transact(DrmCall::ProvideProvisionResponse { nonce: [7; 16], response }).unwrap();
}

/// Opens one session (nonce `[tag; 16]`) on a provisioned CDM and
/// licenses it for OCS `title-001`; returns it with a decryptable kid.
///
/// # Panics
///
/// Panics if any session or license step fails.
pub fn license_session(
    binder: &dyn Transport,
    eco: &Ecosystem,
    token: &str,
    tag: u8,
) -> (u32, KeyId) {
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

/// Where `BENCH_*.json` result files land: `$WIDELEAK_BENCH_OUT` when
/// set, the current directory otherwise.
pub fn bench_out_dir() -> std::path::PathBuf {
    std::env::var_os("WIDELEAK_BENCH_OUT")
        .map_or_else(|| std::path::PathBuf::from("."), std::path::PathBuf::from)
}

/// A machine-readable bench result, persisted as `BENCH_<name>.json`
/// so successive PRs can read the perf trajectory without scraping
/// stdout. JSON is hand-rolled (flat: one `metrics` object of numbers,
/// one `labels` object of strings) to keep the harness vendor-light.
pub struct BenchReport {
    name: &'static str,
    metrics: Vec<(String, f64)>,
    labels: Vec<(String, String)>,
}

fn push_json_escaped(s: &str, out: &mut String) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

impl BenchReport {
    /// Starts a report for the named bench target, labelled with the
    /// core count (`nproc`) its timings were taken on.
    #[must_use]
    pub fn new(name: &'static str) -> BenchReport {
        let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        BenchReport { name, metrics: Vec::new(), labels: vec![("nproc".into(), nproc.to_string())] }
    }

    /// Records one numeric metric (dotted keys, e.g. `tcp.p50_us`).
    pub fn metric(&mut self, key: impl Into<String>, value: f64) -> &mut Self {
        self.metrics.push((key.into(), value));
        self
    }

    /// Records one string label (run parameters: mode, iteration count).
    pub fn label(&mut self, key: impl Into<String>, value: impl Into<String>) -> &mut Self {
        self.labels.push((key.into(), value.into()));
        self
    }

    /// Renders the report as a single JSON object.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"bench\":");
        push_json_escaped(self.name, &mut out);
        out.push_str(",\"labels\":{");
        for (i, (k, v)) in self.labels.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_json_escaped(k, &mut out);
            out.push(':');
            push_json_escaped(v, &mut out);
        }
        out.push_str("},\"metrics\":{");
        for (i, (k, v)) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_json_escaped(k, &mut out);
            // Finite shortest-round-trip floats; non-finite values have
            // no JSON spelling, so they degrade to null.
            if v.is_finite() {
                out.push_str(&format!(":{v}"));
            } else {
                out.push_str(":null");
            }
        }
        out.push_str("}}\n");
        out
    }

    /// Writes `BENCH_<name>.json` into [`bench_out_dir`], returning
    /// the path. Failures print to stderr rather than panic: a bench
    /// run's numbers on stdout still count when the disk does not.
    pub fn write(&self) -> Option<std::path::PathBuf> {
        let path = bench_out_dir().join(format!("BENCH_{}.json", self.name));
        match std::fs::write(&path, self.to_json()) {
            Ok(()) => {
                eprintln!("bench: wrote {}", path.display());
                Some(path)
            }
            Err(e) => {
                eprintln!("bench: cannot write {}: {e}", path.display());
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_is_the_upper_middle_of_the_sorted_samples() {
        let ms = Duration::from_millis;
        assert_eq!(median(&[ms(5), ms(1), ms(3)]), ms(3));
        assert_eq!(median(&[ms(4), ms(1), ms(3), ms(2)]), ms(3));
    }

    #[test]
    fn bench_report_renders_flat_json() {
        let mut report = BenchReport::new("unit");
        report.label("mode", "quick").metric("tcp.p50_us", 12.5).metric("bad", f64::NAN);
        let json = report.to_json();
        let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        assert_eq!(
            json,
            format!(
                "{{\"bench\":\"unit\",\"labels\":{{\"nproc\":\"{nproc}\",\"mode\":\"quick\"}},\
                 \"metrics\":{{\"tcp.p50_us\":12.5,\"bad\":null}}}}\n"
            )
        );
    }

    #[test]
    fn bench_report_escapes_strings() {
        let mut report = BenchReport::new("unit");
        report.label("note", "a\"b\\c");
        assert!(report.to_json().contains("\"a\\\"b\\\\c\""));
    }
}
