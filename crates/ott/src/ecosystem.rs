//! Ecosystem wiring: boots the backend servers, issues keyboxes, boots
//! device DRM stacks and installs apps on them.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use wideleak_android_drm::binder::{InProcessBinder, Transport, TransportKind};
use wideleak_android_drm::netserver::TcpBinder;
use wideleak_android_drm::server::MediaDrmServer;
use wideleak_bmff::types::WIDEVINE_SYSTEM_ID;
use wideleak_cdm::cdm::Cdm;
use wideleak_cdm::messages::ProvisioningRequest;
use wideleak_device::catalog::DeviceModel;
use wideleak_device::net::{NetError, RemoteEndpoint};
use wideleak_device::Device;
use wideleak_faults::{corrupt_body, FaultInjector, FaultKind, FaultPlan, Plane, ResiliencePolicy};

use crate::accounts::AccountRegistry;
use crate::apps::{encode_backend_error, evaluated_apps, AppProfile, EmbeddedWidevine, OttApp};
use crate::bandwidth::{BandwidthConfig, ClientLink};
use crate::cdn::CdnServer;
use crate::content::{demo_catalog, Title};
use crate::license::{parse_envelope, LicenseServer};
use crate::provisioning::ProvisioningServer;
use crate::trust::TrustAuthority;
use crate::OttError;

/// Ecosystem construction parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EcosystemConfig {
    /// Master seed for every deterministic derivation.
    pub seed: u64,
    /// Device RSA key size. Production Widevine uses 2048; tests shrink
    /// this for speed.
    pub rsa_bits: usize,
    /// Whether the license server cross-checks claimed security levels
    /// against provisioning-time attestations. `true` models Android's
    /// deployment; `false` models the web-browser deployments the
    /// netflix-1080p exploit abused (paper §V-C).
    pub verify_attested_level: bool,
    /// Faults injected into server and binder traffic. Empty by default:
    /// the study's Table-I results are produced with no plan at all.
    pub fault_plan: FaultPlan,
    /// How installed app clients react to failures.
    pub resilience: ResiliencePolicy,
    /// Which binder transport booted devices use. In-process by default;
    /// the differential battery pins that TCP produces byte-identical
    /// study output, so this is a realism/perf knob only.
    pub transport: TransportKind,
    /// Bandwidth model applied to adaptive playbacks. `None` (the
    /// default) leaves every non-adaptive path untouched and mints
    /// unconstrained links for adaptive ones, keeping the Table I and
    /// Q5 batteries byte-identical.
    pub bandwidth: Option<BandwidthConfig>,
}

impl Default for EcosystemConfig {
    fn default() -> Self {
        EcosystemConfig {
            seed: 2022,
            rsa_bits: 2048,
            verify_attested_level: true,
            fault_plan: FaultPlan::empty(),
            resilience: ResiliencePolicy::default(),
            transport: TransportKind::InProcess,
            bandwidth: None,
        }
    }
}

impl EcosystemConfig {
    /// A fast configuration for unit/integration tests (small RSA keys).
    pub fn fast_for_tests() -> Self {
        EcosystemConfig { rsa_bits: 768, ..Default::default() }
    }

    /// The fast test configuration with a fault plan attached — the
    /// resilience study's starting point.
    pub fn fast_with_faults(fault_plan: FaultPlan) -> Self {
        EcosystemConfig { fault_plan, ..Self::fast_for_tests() }
    }
}

/// The single backend endpoint all app traffic reaches: routes paths to
/// the provisioning server, the license server, or the CDN — applying the
/// owning app's policy at each.
pub struct BackendRouter {
    provisioning: Arc<ProvisioningServer>,
    license: Arc<LicenseServer>,
    cdn: Arc<CdnServer>,
    profiles: HashMap<String, AppProfile>,
    injector: Arc<FaultInjector>,
}

impl std::fmt::Debug for BackendRouter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "BackendRouter(apps: {})", self.profiles.len())
    }
}

impl BackendRouter {
    fn route(&self, path: &str, body: &[u8]) -> Result<Vec<u8>, OttError> {
        let parts: Vec<&str> = path.split('/').collect();
        let endpoint = match parts.first() {
            Some(&"provision") => "provision",
            Some(&"license") => "license",
            Some(&"manifest") => "manifest",
            Some(&"asset") => "asset",
            _ => "unknown",
        };
        let _span = wideleak_telemetry::span!("ott.server.request", endpoint = endpoint);
        let result = self.faulted_dispatch(parts.as_slice(), path, body);
        if wideleak_telemetry::is_enabled() {
            wideleak_telemetry::incr(&format!("ott.server.requests.{endpoint}"));
            if let Err(e) = &result {
                wideleak_faults::record_error("ott.server.error", e);
            }
        }
        result
    }

    /// Consults the fault plan before (and, for body corruption, after)
    /// the real dispatch — the single seam where every server-plane fault
    /// composes.
    fn faulted_dispatch(
        &self,
        parts: &[&str],
        path: &str,
        body: &[u8],
    ) -> Result<Vec<u8>, OttError> {
        let Some(kind) =
            self.injector.is_active().then(|| self.injector.decide(Plane::Server, path)).flatten()
        else {
            return self.dispatch(parts, path, body);
        };
        match kind {
            FaultKind::ErrorCode => {
                Err(OttError::Protocol { reason: "injected: internal server error".into() })
            }
            FaultKind::Panic => {
                Err(OttError::Protocol { reason: "injected: server worker panicked".into() })
            }
            FaultKind::Drop => Err(OttError::Net(NetError::ConnectionReset)),
            FaultKind::Latency { ms } => {
                self.injector.clock().advance_ms(ms);
                self.dispatch(parts, path, body)
            }
            FaultKind::ClockSkew { secs } => {
                // Server-plane skew jumps the shared timeline itself.
                self.injector.clock().advance_ms(secs.saturating_mul(1000));
                self.dispatch(parts, path, body)
            }
            kind @ (FaultKind::TruncateBody { .. } | FaultKind::GarbleBody) => {
                self.dispatch(parts, path, body).map(|response| corrupt_body(&kind, response))
            }
        }
    }

    fn dispatch(&self, parts: &[&str], path: &str, body: &[u8]) -> Result<Vec<u8>, OttError> {
        match parts {
            ["provision", slug] => {
                let profile = self
                    .profiles
                    .get(*slug)
                    .ok_or_else(|| OttError::NotFound { what: format!("app {slug}") })?;
                let request = ProvisioningRequest::parse(body)?;
                let response = self.provisioning.provision(&request, profile.enforce_revocation)?;
                Ok(response.to_bytes())
            }
            ["license", slug, title] => {
                let profile = self
                    .profiles
                    .get(*slug)
                    .ok_or_else(|| OttError::NotFound { what: format!("app {slug}") })?;
                let (token, request) = parse_envelope(body)?;
                let request = wideleak_cdm::messages::LicenseRequest::parse(request)?;
                let response = self.license.issue_license(
                    slug,
                    title,
                    profile.license_policy(),
                    &token,
                    &request,
                )?;
                Ok(response.to_bytes())
            }
            ["manifest", slug, title] => {
                let token = String::from_utf8(body.to_vec()).map_err(|_| OttError::Unauthorized)?;
                self.cdn.fetch_manifest(slug, title, &token)
            }
            ["asset", ..] => self.cdn.fetch_asset(path),
            _ => Err(OttError::NotFound { what: path.to_owned() }),
        }
    }
}

impl RemoteEndpoint for BackendRouter {
    fn handle(&self, path: &str, body: &[u8]) -> Result<Vec<u8>, String> {
        self.route(path, body).map_err(|e| encode_backend_error(&e))
    }
}

/// One booted device with its DRM stack.
pub struct DeviceStack {
    /// The device (memory, hooks, network).
    pub device: Arc<Device>,
    /// The Widevine HAL plugin.
    pub cdm: Arc<Cdm>,
    /// The IPC transport apps use.
    pub binder: Arc<dyn Transport>,
    /// Unique instance name (keybox device id prefix).
    pub instance_name: String,
}

impl std::fmt::Debug for DeviceStack {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "DeviceStack({})", self.instance_name)
    }
}

/// The full simulated ecosystem.
pub struct Ecosystem {
    config: EcosystemConfig,
    trust: Arc<TrustAuthority>,
    accounts: Arc<AccountRegistry>,
    backend: Arc<BackendRouter>,
    injector: Arc<FaultInjector>,
    profiles: Vec<AppProfile>,
    titles: Vec<Title>,
    device_counter: AtomicU64,
    link_counter: AtomicU64,
}

impl std::fmt::Debug for Ecosystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Ecosystem(apps: {}, titles: {}, rsa: {} bits)",
            self.profiles.len(),
            self.titles.len(),
            self.config.rsa_bits
        )
    }
}

impl Ecosystem {
    /// Boots the backend: trust authority, provisioning server, license
    /// server, CDN, and the ten evaluated app profiles over the demo
    /// catalog.
    pub fn new(config: EcosystemConfig) -> Self {
        Self::with_profiles(config, evaluated_apps(), demo_catalog())
    }

    /// Boots the backend with custom app profiles and catalog — the
    /// ablation tests use this to toggle single policy axes.
    pub fn with_profiles(
        config: EcosystemConfig,
        profiles: Vec<AppProfile>,
        titles: Vec<Title>,
    ) -> Self {
        let trust = Arc::new(TrustAuthority::new(config.seed));
        let accounts = Arc::new(AccountRegistry::new());
        let injector = Arc::new(FaultInjector::new(&config.fault_plan, config.seed ^ 0xFA17));
        let provisioning = Arc::new(
            ProvisioningServer::builder(trust.clone())
                .rsa_bits(config.rsa_bits)
                .seed(config.seed ^ 0x1111)
                .build(),
        );
        let license = Arc::new(
            LicenseServer::builder(trust.clone(), accounts.clone())
                .verify_attested_level(config.verify_attested_level)
                .seed(config.seed ^ 0x2222)
                .build(),
        );
        let cdn = Arc::new(CdnServer::new(
            accounts.clone(),
            profiles.iter().map(AppProfile::cdn_config).collect(),
            titles.clone(),
        ));
        let backend = Arc::new(BackendRouter {
            provisioning,
            license,
            cdn,
            profiles: profiles.iter().map(|p| (p.slug.to_owned(), p.clone())).collect(),
            injector: injector.clone(),
        });
        Ecosystem {
            config,
            trust,
            accounts,
            backend,
            injector,
            profiles,
            titles,
            device_counter: AtomicU64::new(0),
            link_counter: AtomicU64::new(0),
        }
    }

    /// Mints the next client's bandwidth link for an adaptive playback.
    ///
    /// Links are numbered in mint order, so a fixed sequence of
    /// `adaptive_link` calls against a fresh ecosystem is a pure
    /// function of the seed. Without a configured bandwidth model the
    /// link is unconstrained (fetches complete in ~0 simulated time).
    pub fn adaptive_link(&self) -> ClientLink {
        let idx = self.link_counter.fetch_add(1, Ordering::SeqCst);
        match &self.config.bandwidth {
            Some(bw) => bw.link(self.config.seed, idx),
            None => BandwidthConfig::unconstrained().link(self.config.seed, idx),
        }
    }

    /// The ecosystem's fault injector: its log is the determinism
    /// witness, its clock the shared timeline.
    pub fn fault_injector(&self) -> &Arc<FaultInjector> {
        &self.injector
    }

    /// The evaluated app profiles (Table-I ground truth).
    pub fn profiles(&self) -> &[AppProfile] {
        &self.profiles
    }

    /// Finds a profile by slug.
    pub fn profile(&self, slug: &str) -> Option<&AppProfile> {
        self.profiles.iter().find(|p| p.slug == slug)
    }

    /// The content catalog.
    pub fn titles(&self) -> &[Title] {
        &self.titles
    }

    /// The backend endpoint (for tooling that talks to servers directly).
    pub fn backend(&self) -> &Arc<BackendRouter> {
        &self.backend
    }

    /// The trust authority (the simulation's stand-in for Google's keybox
    /// records; the monitor and attack never touch it).
    pub fn trust(&self) -> &Arc<TrustAuthority> {
        &self.trust
    }

    /// The account registry.
    pub fn accounts(&self) -> &Arc<AccountRegistry> {
        &self.accounts
    }

    /// Rotates a device's keybox in place: the trust authority issues a
    /// fresh-generation keybox under the same identity and the device's
    /// CDM installs it.
    ///
    /// # Errors
    ///
    /// Propagates keybox installation failures from the CDM.
    pub fn rotate_keybox(&self, stack: &DeviceStack) -> Result<(), OttError> {
        let keybox = self.trust.rotate_keybox(&stack.instance_name);
        stack.cdm.oemcrypto().install_keybox(keybox)?;
        Ok(())
    }

    /// Boots a device of the given model with its full DRM stack, on the
    /// transport the config names. `rooted` is the attacker/researcher
    /// configuration.
    pub fn boot_device(&self, model: DeviceModel, rooted: bool) -> DeviceStack {
        self.boot_device_with(model, rooted, self.config.transport)
    }

    /// Boots a device on an explicit transport — the differential
    /// battery sweeps this over all of [`TransportKind::ALL`].
    pub fn boot_device_with(
        &self,
        model: DeviceModel,
        rooted: bool,
        transport: TransportKind,
    ) -> DeviceStack {
        let n = self.device_counter.fetch_add(1, Ordering::SeqCst);
        let instance_name = format!("{}#{n}", model.name.to_lowercase().replace(' ', "-"));
        let device = Arc::new(if rooted { Device::rooted(model) } else { Device::new(model) });
        let keybox = self.trust.issue_keybox(&instance_name);
        let cdm = Arc::new(
            Cdm::builder().keybox(keybox).boot(&device).expect("keybox installation succeeds"),
        );
        let mut server = MediaDrmServer::new();
        server.register_plugin(WIDEVINE_SYSTEM_ID, cdm.clone());
        let binder: Arc<dyn Transport> = match transport {
            TransportKind::InProcess => {
                Arc::new(InProcessBinder::new(server).with_fault_injector(self.injector.clone()))
            }
            TransportKind::Tcp => Arc::new(
                TcpBinder::loopback(server)
                    .fault_injector(self.injector.clone())
                    .build()
                    .expect("binding a loopback media drm server"),
            ),
        };
        DeviceStack { device, cdm, binder, instance_name }
    }

    /// Builds a standalone media DRM server — a keybox-provisioned CDM
    /// registered under the Widevine system id — without wrapping it in
    /// a binder. `wideleak serve` exports one of these over TCP for
    /// remote [`TcpBinder`] clients.
    pub fn media_drm_server(&self, model: DeviceModel) -> MediaDrmServer {
        let n = self.device_counter.fetch_add(1, Ordering::SeqCst);
        let instance_name = format!("{}#{n}", model.name.to_lowercase().replace(' ', "-"));
        let device = Arc::new(Device::new(model));
        let keybox = self.trust.issue_keybox(&instance_name);
        let cdm = Arc::new(
            Cdm::builder().keybox(keybox).boot(&device).expect("keybox installation succeeds"),
        );
        let mut server = MediaDrmServer::new();
        server.register_plugin(WIDEVINE_SYSTEM_ID, cdm);
        server
    }

    /// Installs an app on a device for a subscriber, creating the
    /// subscription.
    ///
    /// # Panics
    ///
    /// Panics when `slug` is not one of the evaluated apps.
    pub fn install_app(&self, stack: &DeviceStack, slug: &str, user: &str) -> OttApp {
        let profile = self.profile(slug).expect("known app slug").clone();
        let token = self.accounts.subscribe(slug, user);
        let embedded = if profile.custom_drm_on_l3 || profile.always_custom_drm {
            let kb = self
                .trust
                .issue_keybox(&format!("{}-embedded-{}", profile.slug, stack.instance_name));
            Some(EmbeddedWidevine::new(kb))
        } else {
            None
        };
        OttApp::install(
            profile,
            self.backend.clone() as Arc<dyn RemoteEndpoint>,
            stack.device.network().clone(),
            stack.binder.clone(),
            stack.device.model().security_level,
            token,
            embedded,
        )
        .with_device(stack.device.clone())
        .with_resilience(self.config.resilience.clone(), self.injector.clock().clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::content::{synth_samples, TrackSelector, SEGMENTS_PER_REP};

    fn ecosystem() -> Ecosystem {
        Ecosystem::new(EcosystemConfig::fast_for_tests())
    }

    #[test]
    fn netflix_plays_on_modern_l1_device() {
        let eco = ecosystem();
        let stack = eco.boot_device(DeviceModel::pixel_6(), false);
        let app = eco.install_app(&stack, "netflix", "alice");
        let outcome = app.play("title-001").unwrap();
        assert!(outcome.used_platform_widevine);
        assert_eq!(outcome.resolution, (1920, 1080), "L1 gets HD");
        assert!(outcome.trace.as_ref().unwrap().matches_figure_1());
        // Video decrypted correctly.
        let expected: Vec<Vec<u8>> = (1..=SEGMENTS_PER_REP)
            .flat_map(|seg| {
                synth_samples("netflix", "title-001", &TrackSelector::Video { height: 1080 }, seg)
            })
            .collect();
        assert_eq!(outcome.video_samples, expected);
        // Clear audio came through; subtitles visible and clear.
        assert!(!outcome.audio_samples.is_empty());
        assert!(outcome.subtitle_text.unwrap().contains("WEBVTT"));
    }

    #[test]
    fn netflix_plays_sub_hd_on_discontinued_l3() {
        let eco = ecosystem();
        let stack = eco.boot_device(DeviceModel::nexus_5(), false);
        let app = eco.install_app(&stack, "netflix", "bob");
        let outcome = app.play("title-001").unwrap();
        assert_eq!(outcome.resolution, (960, 540), "L3 capped at qHD");
    }

    #[test]
    fn disney_refuses_discontinued_device_at_provisioning() {
        let eco = ecosystem();
        let stack = eco.boot_device(DeviceModel::nexus_5(), false);
        let app = eco.install_app(&stack, "disney", "carol");
        let err = app.play("title-001").unwrap_err();
        assert!(matches!(err, OttError::DeviceRevoked { .. }), "got {err:?}");
    }

    #[test]
    fn disney_plays_on_modern_device() {
        let eco = ecosystem();
        let stack = eco.boot_device(DeviceModel::pixel_6(), false);
        let app = eco.install_app(&stack, "disney", "carol");
        let outcome = app.play("title-001").unwrap();
        assert!(outcome.used_platform_widevine);
        // Shared-key audio decrypts too.
        assert!(!outcome.audio_samples.is_empty());
    }

    #[test]
    fn amazon_uses_embedded_drm_on_l3() {
        let eco = ecosystem();
        let stack = eco.boot_device(DeviceModel::nexus_5(), false);
        let app = eco.install_app(&stack, "amazon", "dave");
        // Record hooks: the platform CDM must stay silent.
        stack.device.hook_engine().start_recording();
        let outcome = app.play("title-001").unwrap();
        let hook_log = stack.device.hook_engine().stop_recording();
        assert!(!outcome.used_platform_widevine);
        assert!(outcome.trace.is_none());
        assert!(
            hook_log
                .iter()
                .all(|e| e.function.contains("Initialize") || e.function.contains("InstallKeybox")),
            "no playback-time platform CDM calls: {hook_log:?}"
        );
        assert_eq!(outcome.resolution, (960, 540));
        assert!(!outcome.video_samples.is_empty());
        assert!(!outcome.audio_samples.is_empty());
    }

    #[test]
    fn amazon_uses_platform_widevine_on_l1() {
        let eco = ecosystem();
        let stack = eco.boot_device(DeviceModel::pixel_6(), false);
        let app = eco.install_app(&stack, "amazon", "dave");
        let outcome = app.play("title-001").unwrap();
        assert!(outcome.used_platform_widevine);
        assert_eq!(outcome.resolution, (1920, 1080));
    }

    #[test]
    fn hulu_plays_without_visible_subtitles_or_kids() {
        let eco = ecosystem();
        let stack = eco.boot_device(DeviceModel::pixel_6(), false);
        let app = eco.install_app(&stack, "hulu", "erin");
        let outcome = app.play("title-001").unwrap();
        assert!(outcome.subtitle_text.is_none(), "subtitle URI undiscoverable");
        assert!(!outcome.audio_samples.is_empty(), "encrypted audio still plays");
    }

    #[test]
    fn playback_works_over_tcp_binder() {
        let eco = ecosystem();
        let stack = eco.boot_device_with(DeviceModel::pixel_6(), false, TransportKind::Tcp);
        let app = eco.install_app(&stack, "showtime", "frank");
        let outcome = app.play("title-002").unwrap();
        assert!(outcome.used_platform_widevine);
    }

    #[test]
    fn unknown_backend_path_rejected() {
        let eco = ecosystem();
        assert!(eco.backend().handle("bogus/path", &[]).is_err());
        assert!(eco.backend().handle("provision/unknown-app", &[]).is_err());
    }

    #[test]
    fn keybox_rotation_reprovisions_cleanly() {
        let eco = ecosystem();
        let stack = eco.boot_device(DeviceModel::nexus_5(), false);
        let app = eco.install_app(&stack, "netflix", "alice");
        app.play("title-001").unwrap();
        eco.rotate_keybox(&stack).unwrap();
        // The rotated device re-provisions under its new keybox and keeps
        // playing.
        app.reprovision().unwrap();
        app.play("title-001").unwrap();
    }

    #[test]
    fn device_instances_get_unique_names() {
        let eco = ecosystem();
        let a = eco.boot_device(DeviceModel::nexus_5(), false);
        let b = eco.boot_device(DeviceModel::nexus_5(), false);
        assert_ne!(a.instance_name, b.instance_name);
    }
}
