//! `play`: licensed playbacks through `OttApp::play` — the paper's
//! user-facing operation. Ten apps × two titles on an L1 handset
//! (`pixel_6`) and an L3 handset (`midrange_l3`), over the TCP binder
//! transport with 2048-bit device keys. Each play provisions-checks,
//! fetches and parses the manifest, licenses (RSA sign, OAEP unwrap,
//! about twenty binder calls) and decrypts video and audio.

use std::sync::Arc;

use wideleak::android_drm::binder::TransportKind;
use wideleak::device::catalog::{DeviceModel, SecurityLevel};
use wideleak::device::net::RemoteEndpoint;
use wideleak::faults::ResiliencePolicy;
use wideleak::ott::apps::{AppProfile, EmbeddedWidevine, OttApp};
use wideleak::ott::content::{TrackSelector, L3_MAX_HEIGHT};
use wideleak::ott::ecosystem::{BackendRouter, DeviceStack, Ecosystem, EcosystemConfig};
use wideleak::telemetry::trace;

use super::plaintext_track;
use crate::report::Report;
use crate::stats::mix;
use crate::{BenchError, Workload, BACKEND_SPAN, PLAY_SPAN};

/// Device RSA key size: production Widevine's.
pub const RSA_BITS: usize = 2048;

/// The backend as the apps see it, with a span around every request so
/// the traced run can tell server time from app time.
struct TimedBackend(Arc<BackendRouter>);

impl RemoteEndpoint for TimedBackend {
    fn handle(&self, path: &str, body: &[u8]) -> Result<Vec<u8>, String> {
        let _span = trace::span(BACKEND_SPAN);
        self.0.handle(path, body)
    }
}

/// One (device, app, title) combination and the output it must give.
struct Case {
    app: usize,
    title: String,
    height: u32,
    video: Vec<Vec<u8>>,
    audio: Vec<Vec<u8>>,
}

/// The set-up `play` workload.
pub struct Play {
    apps: Vec<OttApp>,
    cases: Vec<Case>,
    order: Vec<usize>,
}

/// Installs an app as `Ecosystem::install_app` does, but behind the
/// given backend endpoint.
fn install(
    eco: &Ecosystem,
    stack: &DeviceStack,
    profile: &AppProfile,
    backend: Arc<dyn RemoteEndpoint>,
) -> OttApp {
    let token = eco.accounts().subscribe(profile.slug, "bench-user");
    let embedded = (profile.custom_drm_on_l3 || profile.always_custom_drm).then(|| {
        let name = format!("{}-embedded-{}", profile.slug, stack.instance_name);
        EmbeddedWidevine::new(eco.trust().issue_keybox(&name))
    });
    OttApp::install(
        profile.clone(),
        backend,
        stack.device.network().clone(),
        stack.binder.clone(),
        stack.device.model().security_level,
        token,
        embedded,
    )
    .with_device(stack.device.clone())
    .with_resilience(ResiliencePolicy::default(), eco.fault_injector().clock().clone())
}

/// A seeded permutation of `0..n`.
fn shuffled(seed: u64, n: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (mix(seed, i as u64) % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

impl Play {
    /// Boots both handsets, installs every app on each, and plays every
    /// case once so lazy CDN packaging and device provisioning happen
    /// in set-up.
    ///
    /// # Errors
    ///
    /// A warm-up play failed its check.
    pub fn set_up(seed: u64) -> Result<Self, BenchError> {
        let eco = Ecosystem::new(EcosystemConfig {
            seed,
            rsa_bits: RSA_BITS,
            transport: TransportKind::Tcp,
            ..EcosystemConfig::default()
        });
        let backend: Arc<dyn RemoteEndpoint> = Arc::new(TimedBackend(eco.backend().clone()));
        let mut apps = Vec::new();
        let mut cases = Vec::new();
        for model in [DeviceModel::pixel_6(), DeviceModel::midrange_l3()] {
            let height =
                if model.security_level == SecurityLevel::L1 { 1080 } else { L3_MAX_HEIGHT };
            let stack = eco.boot_device(model, false);
            for profile in eco.profiles() {
                for title in eco.titles() {
                    cases.push(Case {
                        app: apps.len(),
                        title: title.id.clone(),
                        height,
                        video: plaintext_track(
                            profile.slug,
                            &title.id,
                            &TrackSelector::Video { height },
                        ),
                        audio: plaintext_track(
                            profile.slug,
                            &title.id,
                            &TrackSelector::Audio { lang: "en".into() },
                        ),
                    });
                }
                apps.push(install(&eco, &stack, profile, backend.clone()));
            }
        }
        let order = shuffled(seed, cases.len());
        let play = Play { apps, cases, order };
        for (i, case) in play.cases.iter().enumerate() {
            if !play.play(i) {
                let app = play.apps[case.app].profile().slug;
                return Err(BenchError::Setup(format!(
                    "warm-up play of {app}/{} failed",
                    case.title
                )));
            }
        }
        Ok(play)
    }

    /// Plays one case and checks the decrypted media.
    fn play(&self, case: usize) -> bool {
        let case = &self.cases[case];
        let outcome = {
            let _span = trace::span(PLAY_SPAN);
            self.apps[case.app].play(&case.title)
        };
        outcome.is_ok_and(|o| {
            o.resolution.1 == case.height
                && o.video_samples == case.video
                && o.audio_samples == case.audio
        })
    }
}

impl Workload for Play {
    fn op(&mut self, i: u64) -> bool {
        self.play(self.order[(i % self.order.len() as u64) as usize])
    }

    fn cycle(&self) -> u64 {
        self.cases.len() as u64
    }

    fn labels(&self, report: &mut Report) {
        report.label("rsa_bits", RSA_BITS);
        report.label("transport", "tcp");
        report.label("devices", "pixel_6(L1),midrange_l3(L3)");
        report.label("cases", self.cases.len());
        report.label("load_threads", 1);
    }
}
