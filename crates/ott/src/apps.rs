//! The ten evaluated OTT apps: their profiles and their client behaviour.
//!
//! Each [`AppProfile`] encodes the ground truth of one Table-I row — what
//! the app *actually does* with Widevine. The [`OttApp`] client then
//! behaves accordingly when driven: it provisions (with or without
//! revocation enforcement), fetches manifests (plaintext or through the
//! Netflix-style secure channel), requests licenses, and decrypts tracks
//! through the Android DRM framework — or, for Amazon Prime Video on
//! L3-only devices, through its embedded Widevine library that never
//! touches the platform CDM.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use wideleak_android_drm::binder::Transport;
use wideleak_android_drm::mediacrypto::MediaCrypto;
use wideleak_android_drm::mediadrm::MediaDrm;
use wideleak_android_drm::playback::{
    play_adaptive_content, play_protected_content, AdaptiveChunk, MediaBundle, PlaybackTrace,
};
use wideleak_android_drm::DrmError;
use wideleak_bmff::fragment::{InitSegment, MediaSegment};
use wideleak_bmff::types::{KeyId, WIDEVINE_SYSTEM_ID};
use wideleak_cdm::messages::{LicenseResponse, ProvisioningResponse};
use wideleak_cdm::oemcrypto::CdmCore;
use wideleak_cdm::wire::TlvWriter;
use wideleak_cdm::CdmError;
use wideleak_cenc::keys::MemoryKeyStore;
use wideleak_cenc::track::decrypt_segment;
use wideleak_dash::mpd::{AdaptationSet, ContentType, Mpd, Representation};
use wideleak_device::catalog::{CdmVersion, SecurityLevel};
use wideleak_device::net::{NetError, NetworkStack, RemoteEndpoint};
use wideleak_device::Device;
use wideleak_faults::{ResiliencePolicy, VirtualClock};

use crate::adapt::{AdaptConfig, AdaptiveOutcome, BwMonitor, RateAdaptationController};
use crate::bandwidth::ClientLink;
use crate::cdn::{CdnAppConfig, URI_CHANNEL_IV};
use crate::content::{kid_from_label, AudioProtection, L3_MAX_HEIGHT, SEGMENTS_PER_REP};
use crate::license::{uri_channel_label, LicensePolicy};
use crate::OttError;

/// The ground-truth behaviour of one evaluated app (a Table-I row).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AppProfile {
    /// Display name, as in the paper.
    pub name: &'static str,
    /// URL-safe identifier.
    pub slug: &'static str,
    /// Play-store installs at the time of the study, in millions.
    pub installs_millions: u32,
    /// Audio protection policy (Q2/Q3).
    pub audio: AudioProtection,
    /// Whether the app honours Widevine revocation (Q4).
    pub enforce_revocation: bool,
    /// Whether the app falls back to an embedded DRM when only L3 is
    /// available (Amazon Prime Video).
    pub custom_drm_on_l3: bool,
    /// Whether manifest URIs travel through the non-DASH secure channel
    /// (Netflix).
    pub uri_protection: bool,
    /// Whether subtitle tracks are discoverable in the MPD.
    pub subtitles_in_mpd: bool,
    /// Whether `default_KID` metadata is visible (regional restrictions
    /// hide it).
    pub metadata_kids_visible: bool,
    /// Whether the app runs SafetyNet-style attestation and refuses to
    /// play in a visibly tampered environment (§IV-B: "most evaluated OTT
    /// apps apply anti-debugging techniques ... or rely on SafetyNet").
    pub uses_safetynet: bool,
    /// Whether the app *never* touches platform Widevine, shipping its own
    /// DRM on every device class — the "custom DRM implementation like in
    /// Indian music industry" the paper's Q1 contrasts against. None of
    /// the ten evaluated apps does this; the profile axis exists so the
    /// monitor's `WidevineUse::No` classification is exercisable end to
    /// end.
    pub always_custom_drm: bool,
}

impl AppProfile {
    /// The CDN-side behaviour this profile implies.
    pub fn cdn_config(&self) -> CdnAppConfig {
        CdnAppConfig {
            app: self.slug.to_owned(),
            audio: self.audio,
            subtitles_in_mpd: self.subtitles_in_mpd,
            metadata_kids_visible: self.metadata_kids_visible,
            uri_protection: self.uri_protection,
        }
    }

    /// The license-server policy this profile implies.
    pub fn license_policy(&self) -> LicensePolicy {
        LicensePolicy {
            audio: self.audio,
            enforce_revocation: self.enforce_revocation,
            uri_channel: self.uri_protection,
        }
    }
}

/// The ten apps of the study, in Table-I order, with their measured
/// behaviours as ground truth.
pub fn evaluated_apps() -> Vec<AppProfile> {
    vec![
        AppProfile {
            name: "Netflix",
            slug: "netflix",
            installs_millions: 1000,
            audio: AudioProtection::Clear,
            enforce_revocation: false,
            custom_drm_on_l3: false,
            uri_protection: true,
            subtitles_in_mpd: true,
            metadata_kids_visible: true,
            uses_safetynet: true,
            always_custom_drm: false,
        },
        AppProfile {
            name: "Disney+",
            slug: "disney",
            installs_millions: 100,
            audio: AudioProtection::SharedKeyWithVideo,
            enforce_revocation: true,
            custom_drm_on_l3: false,
            uri_protection: false,
            subtitles_in_mpd: true,
            metadata_kids_visible: true,
            uses_safetynet: true,
            always_custom_drm: false,
        },
        AppProfile {
            name: "Amazon Prime Video",
            slug: "amazon",
            installs_millions: 100,
            audio: AudioProtection::DistinctKey,
            enforce_revocation: false,
            custom_drm_on_l3: true,
            uri_protection: false,
            subtitles_in_mpd: true,
            metadata_kids_visible: true,
            uses_safetynet: true,
            always_custom_drm: false,
        },
        AppProfile {
            name: "Hulu",
            slug: "hulu",
            installs_millions: 50,
            audio: AudioProtection::SharedKeyWithVideo,
            enforce_revocation: false,
            custom_drm_on_l3: false,
            uri_protection: false,
            subtitles_in_mpd: false,
            metadata_kids_visible: false,
            uses_safetynet: true,
            always_custom_drm: false,
        },
        AppProfile {
            name: "HBO Max",
            slug: "hbomax",
            installs_millions: 10,
            audio: AudioProtection::SharedKeyWithVideo,
            enforce_revocation: true,
            custom_drm_on_l3: false,
            uri_protection: false,
            subtitles_in_mpd: true,
            metadata_kids_visible: false,
            uses_safetynet: true,
            always_custom_drm: false,
        },
        AppProfile {
            name: "Starz",
            slug: "starz",
            installs_millions: 10,
            audio: AudioProtection::SharedKeyWithVideo,
            enforce_revocation: true,
            custom_drm_on_l3: false,
            uri_protection: false,
            subtitles_in_mpd: false,
            metadata_kids_visible: true,
            uses_safetynet: true,
            always_custom_drm: false,
        },
        AppProfile {
            name: "myCANAL",
            slug: "mycanal",
            installs_millions: 10,
            audio: AudioProtection::Clear,
            enforce_revocation: false,
            custom_drm_on_l3: false,
            uri_protection: false,
            subtitles_in_mpd: true,
            metadata_kids_visible: true,
            uses_safetynet: false,
            always_custom_drm: false,
        },
        AppProfile {
            name: "Showtime",
            slug: "showtime",
            installs_millions: 5,
            audio: AudioProtection::SharedKeyWithVideo,
            enforce_revocation: false,
            custom_drm_on_l3: false,
            uri_protection: false,
            subtitles_in_mpd: true,
            metadata_kids_visible: true,
            uses_safetynet: false,
            always_custom_drm: false,
        },
        AppProfile {
            name: "OCS",
            slug: "ocs",
            installs_millions: 1,
            audio: AudioProtection::SharedKeyWithVideo,
            enforce_revocation: false,
            custom_drm_on_l3: false,
            uri_protection: false,
            subtitles_in_mpd: true,
            metadata_kids_visible: true,
            uses_safetynet: false,
            always_custom_drm: false,
        },
        AppProfile {
            name: "Salto",
            slug: "salto",
            installs_millions: 1,
            audio: AudioProtection::Clear,
            enforce_revocation: false,
            custom_drm_on_l3: false,
            uri_protection: false,
            subtitles_in_mpd: true,
            metadata_kids_visible: true,
            uses_safetynet: false,
            always_custom_drm: false,
        },
    ]
}

/// A decompiled APK's class-reference census — what the paper's *static*
/// analysis prong sees ("we decompile the Java classes of the evaluated
/// OTT apps to identify some of the included Android classes", §IV-B).
///
/// Static analysis cannot distinguish live call sites from dead code,
/// which is exactly why the paper errs "on the side of soundness" and
/// confirms every static hit dynamically.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Apk {
    /// References that playback actually exercises.
    pub live_references: Vec<&'static str>,
    /// References present in the bytecode but never executed (dead code,
    /// vendored SDKs, stale A/B experiments).
    pub dead_code_references: Vec<&'static str>,
}

impl Apk {
    /// Everything a decompiler sees: live and dead references merged,
    /// indistinguishably.
    pub fn visible_references(&self) -> Vec<&'static str> {
        let mut out = self.live_references.clone();
        out.extend(&self.dead_code_references);
        out.sort_unstable();
        out.dedup();
        out
    }
}

impl AppProfile {
    /// The app's decompiled-APK view. Every evaluated app references the
    /// Android DRM API (they all use Widevine); some carry extra dead
    /// code that a purely static analysis would over-report.
    pub fn apk(&self) -> Apk {
        let mut live =
            vec!["android.media.MediaDrm", "android.media.MediaCrypto", "android.media.MediaCodec"];
        if self.uri_protection {
            // The non-DASH generic crypto entry points.
            live.push("android.media.MediaDrm$CryptoSession");
        }
        if self.custom_drm_on_l3 {
            live.push("com.amazon.drm.EmbeddedWidevineClient");
        }
        let dead = match self.slug {
            // A stale PlayReady integration left in the bytecode: the
            // classic static-analysis false positive.
            "mycanal" => vec!["com.microsoft.playready.PlayReadyFactory"],
            // An unused screen-capture detector.
            "starz" => vec!["com.starz.drm.LegacyScreenGuard"],
            _ => Vec::new(),
        };
        Apk { live_references: live, dead_code_references: dead }
    }
}

/// Encodes a backend error onto the wire (the string side of
/// [`RemoteEndpoint`]).
pub fn encode_backend_error(e: &OttError) -> String {
    match e {
        OttError::Unauthorized => "UNAUTHORIZED".to_owned(),
        OttError::DeviceRevoked { cdm_version } => format!("REVOKED:{cdm_version}"),
        OttError::NotFound { what } => format!("NOTFOUND:{what}"),
        OttError::Net(NetError::ConnectionReset) => "NETRESET".to_owned(),
        other => format!("ERROR:{other}"),
    }
}

/// Decodes a backend error string back into a typed error.
pub fn decode_backend_error(s: &str) -> OttError {
    if s == "UNAUTHORIZED" {
        OttError::Unauthorized
    } else if s == "NETRESET" {
        OttError::Net(NetError::ConnectionReset)
    } else if let Some(v) = s.strip_prefix("REVOKED:") {
        OttError::DeviceRevoked { cdm_version: v.to_owned() }
    } else if let Some(what) = s.strip_prefix("NOTFOUND:") {
        OttError::NotFound { what: what.to_owned() }
    } else {
        OttError::Protocol { reason: s.to_owned() }
    }
}

/// The client's own view of its resilience behaviour, kept as atomics so
/// concurrent playbacks inside one app aggregate safely.
#[derive(Debug, Default)]
pub struct RetryStats {
    retries: AtomicU64,
    timeouts: AtomicU64,
    l3_fallbacks: AtomicU64,
    renewals: AtomicU64,
}

/// A point-in-time copy of [`RetryStats`] — what the resilience study
/// classifies outcomes from.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RetryStatsSnapshot {
    /// Retries performed (transport and playback level combined).
    pub retries: u64,
    /// Calls abandoned for exceeding the per-call budget.
    pub timeouts: u64,
    /// Playbacks degraded from L1/HD to L3-class quality.
    pub l3_fallbacks: u64,
    /// Licenses renewed after an expiry.
    pub renewals: u64,
}

impl RetryStats {
    fn snapshot(&self) -> RetryStatsSnapshot {
        RetryStatsSnapshot {
            retries: self.retries.load(Ordering::Relaxed),
            timeouts: self.timeouts.load(Ordering::Relaxed),
            l3_fallbacks: self.l3_fallbacks.load(Ordering::Relaxed),
            renewals: self.renewals.load(Ordering::Relaxed),
        }
    }
}

/// The result of one playback attempt.
#[derive(Debug, Clone)]
pub struct PlaybackOutcome {
    /// Whether the app used the platform Widevine (false for Amazon's
    /// embedded fallback).
    pub used_platform_widevine: bool,
    /// The video resolution actually played.
    pub resolution: (u32, u32),
    /// Decrypted video samples.
    pub video_samples: Vec<Vec<u8>>,
    /// Decrypted (or clear) audio samples.
    pub audio_samples: Vec<Vec<u8>>,
    /// Subtitle text, when the app surfaces subtitles.
    pub subtitle_text: Option<String>,
    /// The Figure-1 trace of the video playback (platform path only).
    pub trace: Option<PlaybackTrace>,
}

/// The embedded Widevine library Amazon ships inside its app: a private
/// [`CdmCore`] that never crosses the platform DRM API (so the monitor's
/// hooks see nothing) and reports a current CDM version (so revocation
/// never bites). The core is internally synchronized, so concurrent
/// playbacks inside one app share it directly.
pub struct EmbeddedWidevine {
    core: CdmCore,
}

impl std::fmt::Debug for EmbeddedWidevine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("EmbeddedWidevine(in-app CDM)")
    }
}

impl EmbeddedWidevine {
    /// Creates the embedded library around an app-baked keybox.
    pub fn new(keybox: wideleak_cdm::keybox::Keybox) -> Self {
        let core = CdmCore::new(CdmVersion::new(16, 0, 0), SecurityLevel::L3);
        core.install_keybox(keybox);
        EmbeddedWidevine { core }
    }
}

/// An installed app instance bound to one device stack and one account.
pub struct OttApp {
    profile: AppProfile,
    backend: Arc<dyn RemoteEndpoint>,
    network: Arc<NetworkStack>,
    binder: Arc<dyn Transport>,
    device: Option<Arc<Device>>,
    device_level: SecurityLevel,
    account_token: String,
    nonce_counter: AtomicU64,
    embedded: Option<EmbeddedWidevine>,
    policy: ResiliencePolicy,
    clock: Arc<VirtualClock>,
    stats: RetryStats,
}

impl std::fmt::Debug for OttApp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "OttApp({} on {} device)", self.profile.name, self.device_level)
    }
}

impl OttApp {
    /// Installs the app. `embedded` carries Amazon's in-app CDM when the
    /// profile uses one.
    #[allow(clippy::too_many_arguments)]
    pub fn install(
        profile: AppProfile,
        backend: Arc<dyn RemoteEndpoint>,
        network: Arc<NetworkStack>,
        binder: Arc<dyn Transport>,
        device_level: SecurityLevel,
        account_token: String,
        embedded: Option<EmbeddedWidevine>,
    ) -> Self {
        OttApp {
            profile,
            backend,
            network,
            binder,
            device: None,
            device_level,
            account_token,
            nonce_counter: AtomicU64::new(1),
            embedded,
            policy: ResiliencePolicy::default(),
            clock: Arc::new(VirtualClock::new()),
            stats: RetryStats::default(),
        }
    }

    /// Binds the app to its host device so SafetyNet-style checks can see
    /// the environment (ecosystem wiring calls this at install).
    pub fn with_device(mut self, device: Arc<Device>) -> Self {
        self.device = Some(device);
        self
    }

    /// Configures the app's resilience policy and binds it to the
    /// ecosystem's virtual clock (so injected latency and client backoff
    /// share one timeline).
    #[must_use]
    pub fn with_resilience(mut self, policy: ResiliencePolicy, clock: Arc<VirtualClock>) -> Self {
        self.policy = policy;
        self.clock = clock;
        self
    }

    /// What the client did to survive: retries, timeouts, degradations,
    /// renewals.
    pub fn retry_stats(&self) -> RetryStatsSnapshot {
        self.stats.snapshot()
    }

    /// The SafetyNet-style check: refuse to run when a detectable
    /// debugger is attached to the app process. Hooking the *CDM* process
    /// (the WideLeak methodology) does not trip it — "no SafetyNet ...
    /// can be of any use, since attackers only need to monitor Widevine
    /// that runs in a different process" (§V-B).
    fn attestation_passes(&self) -> bool {
        if !self.profile.uses_safetynet {
            return true;
        }
        !self.device.as_ref().is_some_and(|d| d.is_app_debugger_attached())
    }

    /// The app's profile.
    pub fn profile(&self) -> &AppProfile {
        &self.profile
    }

    fn next_nonce(&self) -> [u8; 16] {
        let n = self.nonce_counter.fetch_add(1, Ordering::SeqCst);
        let mut nonce = [0u8; 16];
        nonce[..8].copy_from_slice(&n.to_be_bytes());
        let mut tag = 0u64;
        for b in self.profile.slug.bytes() {
            tag = tag.rotate_left(8) ^ b as u64;
        }
        nonce[8..].copy_from_slice(&tag.to_be_bytes());
        nonce
    }

    /// One request, no retries: pinned TLS to the backend, with the
    /// per-call budget enforced on the virtual clock (injected latency
    /// pushes a call over it). Only time this thread spent counts:
    /// concurrent clients sharing the clock must not eat the budget.
    fn send_once(&self, path: &str, body: &[u8]) -> Result<Vec<u8>, OttError> {
        let started = self.clock.advanced_by_current_thread_ms();
        let result = self.network.send(self.backend.as_ref(), path, body).map_err(|e| match e {
            NetError::EndpointError { message } => decode_backend_error(&message),
            other => OttError::Net(other),
        });
        if self.clock.advanced_by_current_thread_ms().saturating_sub(started)
            > self.policy.timeout_ms
        {
            self.stats.timeouts.fetch_add(1, Ordering::Relaxed);
            return Err(OttError::Net(NetError::TimedOut));
        }
        result
    }

    /// Whether retrying can plausibly help: server 5xx-class responses
    /// and transport failures, never auth/policy refusals.
    fn is_transient(error: &OttError) -> bool {
        matches!(
            error,
            OttError::Protocol { .. }
                | OttError::Net(NetError::ConnectionReset | NetError::TimedOut)
                | OttError::Drm(
                    DrmError::BinderDied
                        | DrmError::ServerPanic
                        | DrmError::Wire(_)
                        | DrmError::Timeout { .. }
                )
        )
    }

    /// Sleeps (on the virtual clock) before retry `attempt` and records
    /// the retry in both the app's stats and telemetry.
    fn backoff(&self, attempt: u32, op: &str) {
        let mut salt = 0u64;
        for b in op.bytes() {
            salt = salt.rotate_left(7) ^ u64::from(b);
        }
        self.clock.advance_ms(self.policy.backoff_delay_ms(attempt, salt));
        self.stats.retries.fetch_add(1, Ordering::Relaxed);
        if wideleak_telemetry::is_enabled() {
            wideleak_telemetry::incr("retry.attempt");
        }
    }

    /// Sends with the policy's bounded retry-and-backoff loop.
    fn send(&self, path: &str, body: &[u8]) -> Result<Vec<u8>, OttError> {
        let mut attempt = 0u32;
        loop {
            match self.send_once(path, body) {
                Err(e) if attempt < self.policy.max_retries && Self::is_transient(&e) => {
                    attempt += 1;
                    self.backoff(attempt, path);
                }
                result => return result,
            }
        }
    }

    /// Whether this playback will bypass the platform Widevine.
    fn uses_embedded_drm(&self) -> bool {
        if self.embedded.is_none() {
            return false;
        }
        self.profile.always_custom_drm
            || (self.profile.custom_drm_on_l3 && self.device_level == SecurityLevel::L3)
    }

    /// Ensures the platform CDM holds a Device RSA Key, provisioning if
    /// needed through the app's backend (which applies the app's
    /// revocation stance).
    ///
    /// # Errors
    ///
    /// Returns [`OttError::DeviceRevoked`] when the backend refuses.
    pub fn ensure_provisioned(&self) -> Result<(), OttError> {
        let drm = MediaDrm::new(self.binder.clone(), WIDEVINE_SYSTEM_ID)?;
        if drm.is_provisioned()? {
            return Ok(());
        }
        let nonce = self.next_nonce();
        let request = drm.get_provision_request(nonce)?;
        let response = self.send(&format!("provision/{}", self.profile.slug), &request)?;
        drm.provide_provision_response(nonce, response)?;
        Ok(())
    }

    /// Runs the provisioning exchange unconditionally, even when the CDM
    /// already holds a Device RSA Key — the fleet "check-in" after a
    /// keybox rotation or data wipe. Idempotent: the backend returns the
    /// same RSA key for this device identity.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`ensure_provisioned`](Self::ensure_provisioned).
    pub fn reprovision(&self) -> Result<(), OttError> {
        let drm = MediaDrm::new(self.binder.clone(), WIDEVINE_SYSTEM_ID)?;
        let nonce = self.next_nonce();
        let request = drm.get_provision_request(nonce)?;
        let response = self.send(&format!("provision/{}", self.profile.slug), &request)?;
        drm.provide_provision_response(nonce, response)?;
        Ok(())
    }

    /// Whether an error is the CDM telling us the license aged out — the
    /// one failure license renewal fixes.
    fn is_expiry(error: &OttError) -> bool {
        matches!(
            error,
            OttError::Drm(DrmError::Cdm(CdmError::KeyExpired))
                | OttError::Cdm(CdmError::KeyExpired)
        )
    }

    /// Whether degrading from HD/L1 to L3-class playback can help: content
    /// and protocol failures yes; binder-transport deaths hit every
    /// security level equally, so no.
    fn fallback_can_help(error: &OttError) -> bool {
        matches!(error, OttError::Protocol { .. } | OttError::NotFound { .. })
    }

    /// Plays a title end to end: provisions, fetches the manifest,
    /// licenses, downloads and decrypts video/audio/subtitles.
    ///
    /// Failures run through the app's [`ResiliencePolicy`]: expired
    /// licenses are renewed once, transient errors retried with backoff,
    /// and persistent HD failures degraded to L3-class playback when the
    /// policy allows.
    ///
    /// # Errors
    ///
    /// Propagates every backend refusal and DRM failure the policy could
    /// not absorb.
    pub fn play(&self, title_id: &str) -> Result<PlaybackOutcome, OttError> {
        if !self.attestation_passes() {
            return Err(OttError::AttestationFailed);
        }
        if self.uses_embedded_drm() {
            return self.play_via_embedded(title_id);
        }
        self.ensure_provisioned()?;

        let mut attempt = 0u32;
        let mut renewed = false;
        let mut level = self.device_level;
        loop {
            match self.play_platform_at(title_id, level) {
                Err(e) if self.policy.renew_on_expiry && !renewed && Self::is_expiry(&e) => {
                    // A fresh session and license resets the key's loaded-at
                    // time; renewal does not consume the retry budget. The
                    // renewal is only *counted* once the retried playback
                    // succeeds — an attempt that dies with `KeyExpired`
                    // again is a failed renewal, not a renewal.
                    renewed = true;
                }
                Err(e) if attempt < self.policy.max_retries && Self::is_transient(&e) => {
                    attempt += 1;
                    self.backoff(attempt, "play");
                }
                Err(e)
                    if self.policy.l3_fallback
                        && level == SecurityLevel::L1
                        && Self::fallback_can_help(&e) =>
                {
                    // Graceful degradation: retry the whole pipeline at
                    // L3-class quality, with a fresh retry budget.
                    level = SecurityLevel::L3;
                    attempt = 0;
                    self.stats.l3_fallbacks.fetch_add(1, Ordering::Relaxed);
                    if wideleak_telemetry::is_enabled() {
                        wideleak_telemetry::incr("degraded.l3_fallback");
                    }
                }
                result => {
                    if renewed && result.is_ok() {
                        self.stats.renewals.fetch_add(1, Ordering::Relaxed);
                        if wideleak_telemetry::is_enabled() {
                            wideleak_telemetry::incr("license.renewed");
                        }
                    }
                    return result;
                }
            }
        }
    }

    /// Plays a title adaptively: the rate controller walks the MPD's
    /// representation ladder chunk by chunk, every segment fetch pays
    /// simulated transfer time on the client's bandwidth `link`, and
    /// representation switches re-license through the platform CDM
    /// (per-tier keys → real license churn; hidden key ids → one open
    /// license, no churn).
    ///
    /// The link is owned by the caller so a fixed mint order makes the
    /// whole session a pure function of the ecosystem seed. Simulated
    /// transfer time is mirrored onto the shared virtual clock.
    ///
    /// # Errors
    ///
    /// Propagates backend refusals and DRM failures; apps that bypass
    /// the platform CDM (embedded DRM) cannot adapt.
    pub fn play_adaptive(
        &self,
        title_id: &str,
        config: &AdaptConfig,
        link: &mut ClientLink,
    ) -> Result<AdaptiveOutcome, OttError> {
        if !self.attestation_passes() {
            return Err(OttError::AttestationFailed);
        }
        if self.uses_embedded_drm() {
            return Err(OttError::Protocol {
                reason: "adaptive playback requires the platform CDM".into(),
            });
        }
        self.ensure_provisioned()?;

        let mpd = self.fetch_mpd(title_id)?;
        let video_set = mpd
            .adaptation_sets()
            .find(|s| s.content_type == ContentType::Video)
            .ok_or_else(|| OttError::Protocol { reason: "MPD has no video".into() })?;
        let max_height =
            if self.device_level == SecurityLevel::L1 { u32::MAX } else { L3_MAX_HEIGHT };
        // The offline profile: the playable ladder in ascending declared
        // bandwidth (deterministically tie-broken like single-rep picks).
        let mut ladder: Vec<&Representation> = video_set
            .representations
            .iter()
            .filter(|r| r.resolution.is_some_and(|(_, h)| h <= max_height))
            .collect();
        ladder.sort_by_key(|r| (r.bandwidth, r.resolution.map_or(0, |(_, h)| h), r.id.clone()));
        if ladder.is_empty() {
            return Err(OttError::Protocol { reason: "no playable resolution".into() });
        }
        let ladder_bps: Vec<u64> = ladder.iter().map(|r| u64::from(r.bandwidth)).collect();

        struct LoopState<'l> {
            link: &'l mut ClientLink,
            monitor: BwMonitor,
            controller: RateAdaptationController,
            bundles: std::collections::HashMap<String, MediaBundle>,
            buffer_ms: u64,
            rebuffer_ms: u64,
            license_times_ms: Vec<u64>,
        }
        let state = std::cell::RefCell::new(LoopState {
            link,
            monitor: BwMonitor::new(config.ewma_alpha_permille),
            controller: RateAdaptationController::new(config),
            bundles: std::collections::HashMap::new(),
            buffer_ms: 0,
            rebuffer_ms: 0,
            license_times_ms: Vec::new(),
        });

        let license_path = format!("license/{}/{title_id}", self.profile.slug);
        let token = self.account_token.clone();
        let playback = play_adaptive_content(
            self.binder.clone(),
            WIDEVINE_SYSTEM_ID,
            title_id,
            config.chunks,
            |i| {
                let mut st = state.borrow_mut();
                let estimate = st.monitor.estimate_bps();
                let buffer = st.buffer_ms;
                let tier = st.controller.decide(&ladder_bps, estimate, buffer);
                let rep = ladder[tier];
                if !st.bundles.contains_key(&rep.id) {
                    let bundle = self
                        .fetch_bundle(&mpd, &rep.id)
                        .map_err(|e| DrmError::Cdm(CdmError::Rejected { reason: e.to_string() }))?;
                    st.bundles.insert(rep.id.clone(), bundle);
                }
                // Charge the fetch at the representation's declared
                // bandwidth over the segment's wall duration — the
                // virtual encoded size, independent of the synthetic
                // payload's byte count.
                let bits = u64::from(rep.bandwidth) * config.segment_duration_ms / 1000;
                let transfer = st.link.transfer(bits);
                st.monitor.record(bits, transfer.elapsed_ms);
                // Buffer model: playback drains while the fetch runs;
                // a dry buffer is rebuffering; a full one idles the
                // link (accruing burst) instead of fetching ahead.
                let drained = transfer.elapsed_ms.min(st.buffer_ms);
                st.rebuffer_ms += transfer.elapsed_ms - drained;
                st.buffer_ms = st.buffer_ms - drained + config.segment_duration_ms;
                if st.buffer_ms > config.max_buffer_ms {
                    let excess = st.buffer_ms - config.max_buffer_ms;
                    st.link.idle(excess);
                    st.buffer_ms = config.max_buffer_ms;
                }
                self.clock.advance_ms(transfer.elapsed_ms);
                if wideleak_telemetry::is_enabled() {
                    wideleak_telemetry::observe(
                        "adapt.transfer_ms",
                        std::time::Duration::from_millis(transfer.elapsed_ms),
                    );
                    if transfer.elapsed_ms > transfer.stalled_ms {
                        wideleak_telemetry::incr("adapt.chunk.fetched");
                    }
                    if transfer.stalled_ms > 0 {
                        wideleak_telemetry::incr("adapt.chunk.stalled");
                    }
                }
                let key_ids = if self.profile.metadata_kids_visible {
                    rep.default_kid()
                        .and_then(|hex| KeyId::from_hex(hex).ok())
                        .map(|k| vec![k])
                        .unwrap_or_default()
                } else {
                    Vec::new()
                };
                let bundle = &st.bundles[&rep.id];
                let seg = i % SEGMENTS_PER_REP as usize;
                Ok(AdaptiveChunk {
                    rep_id: rep.id.clone(),
                    key_ids,
                    init: bundle.init.clone(),
                    segment: bundle.segments[seg].clone(),
                })
            },
            |request| {
                let mut st = state.borrow_mut();
                let at = st.link.now_ms();
                st.license_times_ms.push(at);
                drop(st);
                if wideleak_telemetry::is_enabled() {
                    wideleak_telemetry::incr("adapt.license.fetch");
                }
                let mut w = TlvWriter::new();
                w.string(1, &token).bytes(2, request);
                self.send(&license_path, &w.finish())
                    .map_err(|e| DrmError::Cdm(CdmError::Rejected { reason: e.to_string() }))
            },
            || self.next_nonce(),
        )?;

        let st = state.into_inner();
        let tier_of: std::collections::HashMap<&str, usize> =
            ladder.iter().enumerate().map(|(t, r)| (r.id.as_str(), t)).collect();
        let mut switches_up = 0u64;
        let mut switches_down = 0u64;
        for pair in playback.rep_sequence.windows(2) {
            let (from, to) = (tier_of[pair[0].as_str()], tier_of[pair[1].as_str()]);
            match to.cmp(&from) {
                std::cmp::Ordering::Greater => switches_up += 1,
                std::cmp::Ordering::Less => switches_down += 1,
                std::cmp::Ordering::Equal => {}
            }
        }
        if wideleak_telemetry::is_enabled() {
            wideleak_telemetry::add("adapt.switch.up", switches_up);
            wideleak_telemetry::add("adapt.switch.down", switches_down);
            wideleak_telemetry::observe(
                "adapt.rebuffer_ms",
                std::time::Duration::from_millis(st.rebuffer_ms),
            );
        }
        Ok(AdaptiveOutcome {
            rep_sequence: playback.rep_sequence,
            switches_up,
            switches_down,
            license_fetches: playback.license_fetches,
            license_times_ms: st.license_times_ms,
            rebuffer_ms: st.rebuffer_ms,
            played_ms: config.chunks as u64 * config.segment_duration_ms,
            video_samples: playback.frames.into_iter().map(|f| f.data).collect(),
            final_estimate_bps: st.monitor.estimate_bps(),
        })
    }

    /// One pass of the platform-Widevine playback pipeline at a given
    /// security level (the resilience loop in [`play`](Self::play) may
    /// run this more than once).
    fn play_platform_at(
        &self,
        title_id: &str,
        level: SecurityLevel,
    ) -> Result<PlaybackOutcome, OttError> {
        let mpd = self.fetch_mpd(title_id)?;
        let (resolution, video_rep_id, key_ids) = self.select_video_at(&mpd, level)?;

        // Video through the full Figure-1 driver.
        let bundle = self.fetch_bundle(&mpd, &video_rep_id)?;
        let license_path = format!("license/{}/{title_id}", self.profile.slug);
        let token = self.account_token.clone();
        let (frames, trace) = play_protected_content(
            self.binder.clone(),
            WIDEVINE_SYSTEM_ID,
            title_id,
            &key_ids,
            self.next_nonce(),
            |request| {
                let mut w = TlvWriter::new();
                w.string(1, &token).bytes(2, request);
                self.send(&license_path, &w.finish())
                    .map_err(|e| DrmError::Cdm(CdmError::Rejected { reason: e.to_string() }))
            },
            || Ok(bundle.clone()),
        )?;

        // Audio: licensed the same way when protected, plain fetch when
        // clear.
        let audio_samples = self.play_audio(&mpd, title_id)?;

        // Subtitles: fetched from the MPD when discoverable.
        let subtitle_text = self.fetch_subtitles(&mpd)?;

        Ok(PlaybackOutcome {
            used_platform_widevine: true,
            resolution,
            video_samples: frames.into_iter().map(|f| f.data).collect(),
            audio_samples,
            subtitle_text,
            trace: Some(trace),
        })
    }

    /// Fetches the manifest, retrying the whole fetch-and-parse when a
    /// truncated or garbled body slips past the transport (the bytes
    /// arrive fine; the parse is what fails).
    fn fetch_mpd(&self, title_id: &str) -> Result<Mpd, OttError> {
        let mut attempt = 0u32;
        loop {
            match self.fetch_mpd_once(title_id) {
                Err(e) if attempt < self.policy.max_retries && Self::is_transient(&e) => {
                    attempt += 1;
                    self.backoff(attempt, "fetch_mpd");
                }
                result => return result,
            }
        }
    }

    /// One manifest fetch and (for Netflix) secure-channel unwrap.
    fn fetch_mpd_once(&self, title_id: &str) -> Result<Mpd, OttError> {
        let path = format!("manifest/{}/{title_id}", self.profile.slug);
        let blob = self.send(&path, self.account_token.as_bytes())?;
        let xml = if self.profile.uri_protection {
            // License the URI-channel key, then decrypt through the
            // non-DASH generic API.
            let uri_kid = kid_from_label(&uri_channel_label(self.profile.slug, title_id));
            let drm = MediaDrm::new(self.binder.clone(), WIDEVINE_SYSTEM_ID)?;
            let session = drm.open_session(self.next_nonce())?;
            // Any failure past this point must still close the session, or
            // retried manifest fetches leak session-table slots.
            let result: Result<Vec<u8>, OttError> = (|| {
                let request = drm.get_key_request(session, title_id, &[uri_kid])?;
                let mut w = TlvWriter::new();
                w.string(1, &self.account_token).bytes(2, &request);
                let response =
                    self.send(&format!("license/{}/{title_id}", self.profile.slug), &w.finish())?;
                drm.provide_key_response(session, response)?;
                let crypto = MediaCrypto::new(&drm, session);
                Ok(crypto.generic_decrypt(uri_kid, URI_CHANNEL_IV, &blob)?)
            })();
            match result {
                Ok(xml) => {
                    drm.close_session(session)?;
                    xml
                }
                Err(e) => {
                    let _ = drm.close_session(session);
                    return Err(e);
                }
            }
        } else {
            blob
        };
        let text = String::from_utf8(xml)
            .map_err(|_| OttError::Protocol { reason: "manifest is not UTF-8".into() })?;
        Mpd::parse(&text).map_err(|e| OttError::Protocol { reason: format!("bad MPD: {e}") })
    }

    /// Picks the best representation a given security level permits (the
    /// embedded software DRM is always L3-class, whatever the hardware).
    #[allow(clippy::type_complexity)]
    fn select_video_at(
        &self,
        mpd: &Mpd,
        level: SecurityLevel,
    ) -> Result<((u32, u32), String, Vec<KeyId>), OttError> {
        let video_set = mpd
            .adaptation_sets()
            .find(|s| s.content_type == ContentType::Video)
            .ok_or_else(|| OttError::Protocol { reason: "MPD has no video".into() })?;
        let max_height = if level == SecurityLevel::L1 { u32::MAX } else { L3_MAX_HEIGHT };
        let rep = best_video_rep(video_set, max_height)
            .ok_or_else(|| OttError::Protocol { reason: "no playable resolution".into() })?;
        let resolution = rep.resolution.expect("filtered on resolution");
        // When metadata exposes key ids, request exactly what the
        // selected rendition needs; otherwise send an open request.
        let key_ids = rep
            .default_kid()
            .and_then(|hex| KeyId::from_hex(hex).ok())
            .map(|k| vec![k])
            .unwrap_or_default();
        Ok((resolution, rep.id.clone(), key_ids))
    }

    /// Downloads init+segments for a representation.
    fn fetch_bundle(&self, mpd: &Mpd, rep_id: &str) -> Result<MediaBundle, OttError> {
        let rep = mpd
            .adaptation_sets()
            .flat_map(|s| s.representations.iter())
            .find(|r| r.id == rep_id)
            .ok_or_else(|| OttError::NotFound { what: rep_id.to_owned() })?;
        let init_bytes = self.send(&rep.init_url, &[])?;
        let init = InitSegment::from_bytes(&init_bytes)
            .map_err(|e| OttError::Protocol { reason: format!("bad init segment: {e}") })?;
        let mut segments = Vec::with_capacity(rep.segment_urls.len());
        for url in &rep.segment_urls {
            let seg_bytes = self.send(url, &[])?;
            segments.push(
                MediaSegment::from_bytes(&seg_bytes)
                    .map_err(|e| OttError::Protocol { reason: format!("bad segment: {e}") })?,
            );
        }
        Ok(MediaBundle { init, segments })
    }

    /// Plays (or fetches) the English audio track.
    fn play_audio(&self, mpd: &Mpd, title_id: &str) -> Result<Vec<Vec<u8>>, OttError> {
        let Some(audio_set) = mpd
            .adaptation_sets()
            .find(|s| s.content_type == ContentType::Audio && s.lang.as_deref() == Some("en"))
        else {
            return Ok(Vec::new());
        };
        let rep = audio_set.representations.first().ok_or_else(|| OttError::Protocol {
            reason: "audio set has no representation".into(),
        })?;
        let bundle = self.fetch_bundle(mpd, &rep.id)?;
        if !bundle.init.is_protected() {
            // Clear audio: directly readable, no DRM involved at all.
            let mut samples = Vec::new();
            for seg in &bundle.segments {
                samples.extend(
                    decrypt_segment(&bundle.init, seg, &MemoryKeyStore::new())
                        .map_err(|e| OttError::Protocol { reason: e.to_string() })?,
                );
            }
            return Ok(samples);
        }
        let kid = KeyId(bundle.init.tenc.as_ref().expect("protected init has tenc").default_kid.0);
        let license_path = format!("license/{}/{title_id}", self.profile.slug);
        let token = self.account_token.clone();
        let (frames, _) = play_protected_content(
            self.binder.clone(),
            WIDEVINE_SYSTEM_ID,
            title_id,
            &[kid],
            self.next_nonce(),
            |request| {
                let mut w = TlvWriter::new();
                w.string(1, &token).bytes(2, request);
                self.send(&license_path, &w.finish())
                    .map_err(|e| DrmError::Cdm(CdmError::Rejected { reason: e.to_string() }))
            },
            || Ok(bundle.clone()),
        )?;
        Ok(frames.into_iter().map(|f| f.data).collect())
    }

    /// Fetches the English subtitle track when the MPD lists one.
    fn fetch_subtitles(&self, mpd: &Mpd) -> Result<Option<String>, OttError> {
        let Some(text_set) = mpd
            .adaptation_sets()
            .find(|s| s.content_type == ContentType::Text && s.lang.as_deref() == Some("en"))
        else {
            return Ok(None);
        };
        let Some(url) = text_set.representations.first().and_then(|r| r.segment_urls.first())
        else {
            return Ok(None);
        };
        let bytes = self.send(url, &[])?;
        Ok(Some(String::from_utf8_lossy(&bytes).into_owned()))
    }

    /// Amazon's embedded-DRM path: same protocol, zero platform CDM
    /// involvement.
    fn play_via_embedded(&self, title_id: &str) -> Result<PlaybackOutcome, OttError> {
        let embedded = self.embedded.as_ref().expect("embedded path requires the library");
        let core = &embedded.core;

        // Provision the embedded client if needed (its modern version is
        // never revoked).
        if !core.is_provisioned() {
            let nonce = self.next_nonce();
            let request = core.provisioning_request(nonce)?;
            let raw =
                self.send(&format!("provision/{}", self.profile.slug), &request.to_bytes())?;
            let response = ProvisioningResponse::parse(&raw)?;
            core.install_rsa_key(nonce, &response)?;
        }

        let path = format!("manifest/{}/{title_id}", self.profile.slug);
        let xml = self.send(&path, self.account_token.as_bytes())?;
        let text = String::from_utf8(xml)
            .map_err(|_| OttError::Protocol { reason: "manifest is not UTF-8".into() })?;
        let mpd = Mpd::parse(&text)
            .map_err(|e| OttError::Protocol { reason: format!("bad MPD: {e}") })?;
        // The embedded library is software-only: L3-class regardless of
        // the handset's TEE.
        let (resolution, rep_id, _) = self.select_video_at(&mpd, SecurityLevel::L3)?;

        // License through the embedded core. From here every failure must
        // still close the embedded session, or faulted playbacks leak
        // session slots until the core's cap starves later plays.
        let session = core.open_session(self.next_nonce())?;
        #[allow(clippy::type_complexity)]
        let result: Result<(Vec<Vec<u8>>, Vec<Vec<u8>>, Option<String>), OttError> = (|| {
            let request = core.license_request(session, title_id, &[])?;
            let mut w = TlvWriter::new();
            w.string(1, &self.account_token).bytes(2, &request.to_bytes());
            let raw =
                self.send(&format!("license/{}/{title_id}", self.profile.slug), &w.finish())?;
            let response = LicenseResponse::parse(&raw)?;
            core.load_license(session, &response)?;

            // Decrypt video and audio with the embedded core's loaded keys.
            let decrypt_rep = |core: &CdmCore, rep_id: &str| -> Result<Vec<Vec<u8>>, OttError> {
                let bundle = self.fetch_bundle(&mpd, rep_id)?;
                let mut out = Vec::new();
                for seg in &bundle.segments {
                    let samples =
                        seg.samples().map_err(|e| OttError::Protocol { reason: e.to_string() })?;
                    match &seg.senc {
                        None => out.extend(samples.into_iter().map(<[u8]>::to_vec)),
                        Some(senc) => {
                            let tenc = bundle.init.tenc.as_ref().ok_or_else(|| {
                                OttError::Protocol { reason: "missing tenc".into() }
                            })?;
                            let kid = KeyId(tenc.default_kid.0);
                            for (sample, entry) in samples.iter().zip(&senc.entries) {
                                let iv: [u8; 8] = entry.iv.as_slice().try_into().map_err(|_| {
                                    OttError::Protocol { reason: "bad cenc IV".into() }
                                })?;
                                out.push(core.decrypt_sample(
                                    session,
                                    &kid,
                                    &wideleak_cdm::oemcrypto::SampleCrypto::Cenc { iv },
                                    sample,
                                    &entry.subsamples,
                                )?);
                            }
                        }
                    }
                }
                Ok(out)
            };

            let video_samples = decrypt_rep(core, &rep_id)?;
            let audio_samples = decrypt_rep(core, "audio-en")?;
            let subtitle_text = self.fetch_subtitles(&mpd)?;
            Ok((video_samples, audio_samples, subtitle_text))
        })();

        let (video_samples, audio_samples, subtitle_text) = match result {
            Ok(parts) => {
                core.close_session(session)?;
                parts
            }
            Err(e) => {
                let _ = core.close_session(session);
                return Err(e);
            }
        };

        Ok(PlaybackOutcome {
            used_platform_widevine: false,
            resolution,
            video_samples,
            audio_samples,
            subtitle_text,
            trace: None,
        })
    }
}

/// Picks the best playable representation at or below `max_height`.
///
/// Deterministic total order: height first, then declared bandwidth,
/// then representation id — never MPD iteration order, so equal-height
/// renditions always resolve the same way. Resolution-less
/// representations are filtered out rather than sorting as `None`.
pub(crate) fn best_video_rep(
    video_set: &AdaptationSet,
    max_height: u32,
) -> Option<&Representation> {
    video_set
        .representations
        .iter()
        .filter(|r| r.resolution.is_some_and(|(_, h)| h <= max_height))
        .max_by_key(|r| (r.resolution.map_or(0, |(_, h)| h), r.bandwidth, &r.id))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rep(id: &str, bandwidth: u32, resolution: Option<(u32, u32)>) -> Representation {
        let mut r = Representation::new(id, bandwidth);
        r.resolution = resolution;
        r
    }

    fn video_set(reps: Vec<Representation>) -> AdaptationSet {
        AdaptationSet {
            content_type: ContentType::Video,
            lang: None,
            content_protections: vec![],
            representations: reps,
        }
    }

    #[test]
    fn rep_selection_pins_height_then_bandwidth_then_id() {
        // Equal-height reps in adversarial declaration order: the pick
        // must key on (height, bandwidth, id), not iteration order.
        let set = video_set(vec![
            rep("video-720p-b", 1_500_000, Some((1280, 720))),
            rep("video-720p-a", 1_500_000, Some((1280, 720))),
            rep("video-720p-lo", 1_200_000, Some((1280, 720))),
            rep("video-540p", 1_080_000, Some((960, 540))),
            rep("audio-like", u32::MAX, None),
        ]);
        let pick = best_video_rep(&set, u32::MAX).expect("a playable rep");
        assert_eq!(pick.id, "video-720p-b", "highest bandwidth wins, then lexicographic id");

        // Reversing declaration order must not change the outcome.
        let mut reversed = set.clone();
        reversed.representations.reverse();
        assert_eq!(best_video_rep(&reversed, u32::MAX).unwrap().id, "video-720p-b");
    }

    #[test]
    fn rep_selection_respects_height_cap_and_skips_resolution_less() {
        let set = video_set(vec![
            rep("video-1080p", 2_160_000, Some((1920, 1080))),
            rep("video-540p", 1_080_000, Some((960, 540))),
            rep("mystery", 9_999_999, None),
        ]);
        assert_eq!(best_video_rep(&set, 540).unwrap().id, "video-540p");
        assert!(best_video_rep(&set, 100).is_none(), "nothing playable under the cap");
    }

    #[test]
    fn ten_apps_in_table_order() {
        let apps = evaluated_apps();
        assert_eq!(apps.len(), 10);
        assert_eq!(apps[0].name, "Netflix");
        assert_eq!(apps[9].name, "Salto");
        let slugs: std::collections::HashSet<_> = apps.iter().map(|a| a.slug).collect();
        assert_eq!(slugs.len(), 10, "slugs are unique");
    }

    #[test]
    fn ground_truth_matches_table_1() {
        let apps = evaluated_apps();
        let by_slug = |s: &str| apps.iter().find(|a| a.slug == s).unwrap();
        // Audio in clear: Netflix, myCanal, Salto.
        for slug in ["netflix", "mycanal", "salto"] {
            assert_eq!(by_slug(slug).audio, AudioProtection::Clear, "{slug}");
        }
        // Only Amazon follows the recommendation.
        assert_eq!(by_slug("amazon").audio, AudioProtection::DistinctKey);
        // Revocation enforced by Disney+, HBO Max, Starz only.
        let enforcing: Vec<&str> =
            apps.iter().filter(|a| a.enforce_revocation).map(|a| a.slug).collect();
        assert_eq!(enforcing, vec!["disney", "hbomax", "starz"]);
        // Netflix is the only secure-channel app; Amazon the only custom-DRM one.
        assert!(by_slug("netflix").uri_protection);
        assert_eq!(apps.iter().filter(|a| a.uri_protection).count(), 1);
        assert!(by_slug("amazon").custom_drm_on_l3);
        assert_eq!(apps.iter().filter(|a| a.custom_drm_on_l3).count(), 1);
        // Subtitle URIs undiscoverable for Hulu and Starz.
        let hidden_subs: Vec<&str> =
            apps.iter().filter(|a| !a.subtitles_in_mpd).map(|a| a.slug).collect();
        assert_eq!(hidden_subs, vec!["hulu", "starz"]);
        // Regional metadata restrictions: Hulu and HBO Max.
        let hidden_kids: Vec<&str> =
            apps.iter().filter(|a| !a.metadata_kids_visible).map(|a| a.slug).collect();
        assert_eq!(hidden_kids, vec!["hulu", "hbomax"]);
    }

    #[test]
    fn error_codec_round_trip() {
        for e in [
            OttError::Unauthorized,
            OttError::DeviceRevoked { cdm_version: "3.1.0".into() },
            OttError::NotFound { what: "title-x".into() },
        ] {
            assert_eq!(decode_backend_error(&encode_backend_error(&e)), e);
        }
        // Other errors collapse into Protocol.
        let p =
            decode_backend_error(&encode_backend_error(&OttError::Protocol { reason: "x".into() }));
        assert!(matches!(p, OttError::Protocol { .. }));
    }

    #[test]
    fn profile_conversions() {
        let netflix = &evaluated_apps()[0];
        let cdn = netflix.cdn_config();
        assert!(cdn.uri_protection);
        assert_eq!(cdn.audio, AudioProtection::Clear);
        let lic = netflix.license_policy();
        assert!(lic.uri_channel);
        assert!(!lic.enforce_revocation);
    }
}
