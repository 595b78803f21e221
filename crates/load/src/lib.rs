//! Closed-loop fleet load generator for the WideLeak ecosystem.
//!
//! Drives N virtual devices × M concurrent playback workers through
//! loopback TCP binders (the default [`TransportKind`]) on the shared
//! virtual clock. Every run is deterministic for a given
//! [`LoadConfig`]: service times are modeled from the seed (not
//! wall time) and percentiles are computed exactly from the full sample
//! set.
//!
//! A single-threaded warm-up phase plays every title once per device on
//! the main thread, so each device's first provisioning exchange (RSA
//! keygen, which the provisioning server then memoizes per device) runs
//! before the concurrent workers start. Workers then replay the titles
//! and periodically check in ([`OttApp::reprovision`]), re-running the
//! full provisioning and license exchanges on every request.

use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use wideleak_android_drm::binder::{DrmCall, DrmReply};
use wideleak_android_drm::netserver::TcpDrmServer;
use wideleak_android_drm::wire::{
    decode_frame, encode_frame, frame_at_front, FrameBody, FrameMeta,
};
use wideleak_bmff::types::WIDEVINE_SYSTEM_ID;
use wideleak_device::catalog::DeviceModel;
use wideleak_faults::{det_hash, VirtualClock};
use wideleak_ott::adapt::AdaptConfig;
use wideleak_ott::apps::OttApp;
use wideleak_ott::bandwidth::{BandwidthConfig, BandwidthSchedule, ClientLink};
use wideleak_ott::ecosystem::{Ecosystem, EcosystemConfig};
use wideleak_telemetry::LatencyHistogram;

pub use wideleak_android_drm::binder::TransportKind;

/// Apps that stream on a discontinued L3 device (no revocation
/// enforcement), cycled across the fleet's devices.
const FLEET_APPS: &[&str] = &["netflix", "hulu", "mycanal", "showtime", "ocs", "salto"];

/// The two demo titles workers alternate between.
const FLEET_TITLES: &[&str] = &["title-001", "title-002"];

/// Modeled service time of a device's first play of a title (ms).
const COLD_BASE_MS: u64 = 42;
/// Modeled service time of a device's repeat play of a title (ms).
const WARM_BASE_MS: u64 = 11;
/// Seeded jitter added on top of either base (exclusive upper bound, ms).
const JITTER_MS: u64 = 9;
/// Worker-index sentinel for warm-up plays in the latency salt.
const WARMUP_WORKER: usize = 0xFFFF;

/// Congestion preset the generator applies to its playback traffic.
///
/// With a preset other than [`Congestion::None`], steady-state workers
/// run the adaptive path ([`OttApp::play_adaptive`]) over seeded
/// per-worker links instead of the fixed-representation hot path, and
/// the report grows an `adaptive:` line with fleet-wide switch,
/// license-churn and rebuffer counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Congestion {
    /// Unconstrained links: every play runs the classic fixed-rep path.
    #[default]
    None,
    /// Flat 3 Mbps links: adaptive workers climb the ladder and stay up.
    Steady,
    /// 4 Mbps constricting to 1.2 Mbps at t=20s of each link's local
    /// timeline: workers are forced back down the ladder mid-chain, with
    /// the per-tier license churn that implies.
    Constricted,
}

impl Congestion {
    /// The bandwidth model this preset attaches to the ecosystem.
    #[must_use]
    pub fn bandwidth(self) -> Option<BandwidthConfig> {
        match self {
            Congestion::None => None,
            Congestion::Steady => Some(BandwidthConfig::flat(3_000_000)),
            Congestion::Constricted => Some(BandwidthConfig {
                schedule: BandwidthSchedule::steps(vec![(0, 4_000_000), (20_000, 1_200_000)]),
                burst_bits: 2_000_000,
                spread_permille: 100,
            }),
        }
    }

    /// Stable CLI/report label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Congestion::None => "none",
            Congestion::Steady => "steady",
            Congestion::Constricted => "constricted",
        }
    }

    /// Parses a CLI label back into a preset.
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "none" => Some(Congestion::None),
            "steady" => Some(Congestion::Steady),
            "constricted" => Some(Congestion::Constricted),
            _ => None,
        }
    }
}

/// Parameters of one load-generator run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoadConfig {
    /// Virtual devices to boot (each with its own media DRM server
    /// behind the configured transport).
    pub devices: usize,
    /// Concurrent playback workers sharing each device's app.
    pub workers_per_device: usize,
    /// Plays each worker issues.
    pub plays_per_worker: usize,
    /// Master seed: ecosystem derivations and modeled latencies.
    pub seed: u64,
    /// Which binder transport the fleet's devices boot with.
    pub transport: TransportKind,
    /// Congestion preset for the steady-state playback traffic.
    pub congestion: Congestion,
}

impl Default for LoadConfig {
    fn default() -> Self {
        LoadConfig {
            devices: 4,
            workers_per_device: 3,
            plays_per_worker: 6,
            seed: 2022,
            transport: TransportKind::Tcp,
            congestion: Congestion::None,
        }
    }
}

impl LoadConfig {
    /// The CI-sized preset behind `wideleak load --quick`.
    #[must_use]
    pub fn quick() -> Self {
        LoadConfig { devices: 2, workers_per_device: 2, plays_per_worker: 3, ..Self::default() }
    }
}

/// Exact latency percentiles over one sample population (milliseconds).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LatencySummary {
    /// Number of samples.
    pub count: u64,
    /// Smallest sample.
    pub min_ms: u64,
    /// Integer mean.
    pub mean_ms: u64,
    /// Median (nearest-rank).
    pub p50_ms: u64,
    /// 95th percentile (nearest-rank).
    pub p95_ms: u64,
    /// 99th percentile (nearest-rank).
    pub p99_ms: u64,
    /// Largest sample.
    pub max_ms: u64,
}

impl LatencySummary {
    /// Exact statistics of a histogram's samples; all zero when empty.
    /// A merged histogram gives the summary of the concatenated samples
    /// of its parts, which is what keeps a merged campaign report
    /// independent of its sharding.
    #[must_use]
    pub fn from_histogram(h: &LatencyHistogram) -> Self {
        let p = |num| h.percentile(num, 100).unwrap_or(0);
        LatencySummary {
            count: h.count(),
            min_ms: h.min().unwrap_or(0),
            mean_ms: h.mean().unwrap_or(0),
            p50_ms: p(50),
            p95_ms: p(95),
            p99_ms: p(99),
            max_ms: h.max().unwrap_or(0),
        }
    }
}

/// Everything one load run produced, renderable as a deterministic
/// report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoadReport {
    /// The configuration that produced this report.
    pub config: LoadConfig,
    /// Plays issued by the single-threaded warm-up phase.
    pub warmup_plays: u64,
    /// Plays issued by the concurrent workers.
    pub steady_plays: u64,
    /// Plays that returned an error (expected 0 without a fault plan).
    pub failed_plays: u64,
    /// Periodic `reprovision` check-ins issued by workers.
    pub checkins: u64,
    /// Warm-up (first-play) latency distribution.
    pub warmup_latency: LatencySummary,
    /// Steady-state latency distribution.
    pub steady_latency: LatencySummary,
    /// Virtual wall-clock span of the run: warm-up time plus the
    /// longest worker chain.
    pub makespan_ms: u64,
    /// Plays per virtual second, in hundredths (integer — no float
    /// formatting differences between runs).
    pub throughput_centi_per_sec: u64,
    /// Fleet-wide adaptive-path counters, present when a congestion
    /// preset other than `none` drove the steady phase.
    pub adaptive: Option<AdaptiveLoadStats>,
}

/// Aggregated adaptive-playback counters across every steady worker.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdaptiveLoadStats {
    /// Up-switches across the fleet.
    pub switches_up: u64,
    /// Down-switches across the fleet.
    pub switches_down: u64,
    /// Licenses fetched by adaptive sessions (per-tier key rotation).
    pub license_fetches: u64,
    /// Total rebuffer time across the fleet (virtual ms).
    pub rebuffer_ms: u64,
    /// Total presentation time across the fleet (virtual ms).
    pub played_ms: u64,
}

impl AdaptiveLoadStats {
    /// Rebuffer time in permille of presentation time.
    #[must_use]
    pub fn rebuffer_permille(&self) -> u64 {
        if self.played_ms == 0 {
            return 0;
        }
        u64::try_from(u128::from(self.rebuffer_ms) * 1000 / u128::from(self.played_ms))
            .unwrap_or(u64::MAX)
    }

    fn absorb(&mut self, other: AdaptiveLoadStats) {
        self.switches_up += other.switches_up;
        self.switches_down += other.switches_down;
        self.license_fetches += other.license_fetches;
        self.rebuffer_ms += other.rebuffer_ms;
        self.played_ms += other.played_ms;
    }
}

impl LoadReport {
    /// Renders the deterministic ASCII report `wideleak load` prints.
    #[must_use]
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let c = &self.config;
        let mut out = String::new();
        let _ = writeln!(out, "== wideleak load report ==");
        let _ = writeln!(
            out,
            "fleet:      {} devices x {} workers x {} plays  (seed {}, closed-loop, {} binder)",
            c.devices,
            c.workers_per_device,
            c.plays_per_worker,
            c.seed,
            c.transport.label(),
        );
        let _ = writeln!(
            out,
            "plays:      {} total ({} warm-up + {} steady), {} failed, {} check-ins",
            self.warmup_plays + self.steady_plays,
            self.warmup_plays,
            self.steady_plays,
            self.failed_plays,
            self.checkins,
        );
        let _ = writeln!(
            out,
            "makespan:   {} virtual ms   throughput: {}.{:02} plays/s",
            self.makespan_ms,
            self.throughput_centi_per_sec / 100,
            self.throughput_centi_per_sec % 100,
        );
        let _ = writeln!(out, "latency (virtual ms):");
        let _ = writeln!(
            out,
            "  {:<10} {:>6} {:>6} {:>6} {:>6} {:>6} {:>6} {:>6}",
            "phase", "count", "min", "mean", "p50", "p95", "p99", "max"
        );
        for (phase, l) in [("warm-up", &self.warmup_latency), ("steady", &self.steady_latency)] {
            let _ = writeln!(
                out,
                "  {:<10} {:>6} {:>6} {:>6} {:>6} {:>6} {:>6} {:>6}",
                phase, l.count, l.min_ms, l.mean_ms, l.p50_ms, l.p95_ms, l.p99_ms, l.max_ms
            );
        }
        if let Some(a) = &self.adaptive {
            let _ = writeln!(
                out,
                "adaptive:   {} preset: {} up / {} down switches, {} licenses, rebuffer {} permille",
                c.congestion.label(),
                a.switches_up,
                a.switches_down,
                a.license_fetches,
                a.rebuffer_permille(),
            );
        }
        out
    }
}

/// Modeled service time of one play: a base picked by whether the
/// device has played the title before (`repeat`) plus seeded jitter. A
/// pure function of the indices, so the latency population is
/// independent of thread interleaving.
fn modeled_latency_ms(seed: u64, device: usize, worker: usize, iter: usize, repeat: bool) -> u64 {
    let salt = ((device as u64) << 40) | ((worker as u64) << 20) | iter as u64;
    let base = if repeat { WARM_BASE_MS } else { COLD_BASE_MS };
    base + det_hash(seed, salt) % JITTER_MS
}

/// Runs one load-generator pass and returns its report.
///
/// The run is deterministic: two calls with the same config produce
/// byte-identical [`LoadReport::render`] output.
///
/// # Panics
///
/// Panics when the config asks for zero devices.
#[must_use]
pub fn run_load(config: &LoadConfig) -> LoadReport {
    assert!(config.devices > 0, "load run needs at least one device");
    let eco = Ecosystem::new(EcosystemConfig {
        seed: config.seed,
        transport: config.transport,
        bandwidth: config.congestion.bandwidth(),
        ..EcosystemConfig::fast_for_tests()
    });
    let clock = eco.fault_injector().clock().clone();

    // Boot the fleet: discontinued L3 devices running apps that do not
    // enforce revocation (paper Table I), each media DRM server behind
    // the configured transport (loopback TCP by default, same-thread
    // dispatch under `--transport inprocess`). Congested runs boot L1
    // devices instead: the adaptive path needs the full representation
    // ladder, which L3 output protection caps at 540p.
    let adaptive = config.congestion != Congestion::None;
    let model = if adaptive { DeviceModel::pixel_6() } else { DeviceModel::nexus_5() };
    // An installed app holds its device, binder and media DRM server, so
    // the fleet is just the apps.
    let fleet: Vec<OttApp> = (0..config.devices)
        .map(|d| {
            let stack = eco.boot_device_with(model.clone(), false, config.transport);
            eco.install_app(&stack, FLEET_APPS[d % FLEET_APPS.len()], &format!("load-user-{d}"))
        })
        .collect();

    // Warm-up: play every title once per device on the main thread, so
    // each device's first provisioning exchange (RSA keygen) happens
    // here, sequentially and deterministically. These are the fleet's
    // only first plays; every steady-state play below is a repeat.
    let mut warmup = LatencyHistogram::new();
    let mut warmup_failed = 0u64;
    for (d, app) in fleet.iter().enumerate() {
        for (i, title) in FLEET_TITLES.iter().enumerate() {
            let lat = modeled_latency_ms(config.seed, d, WARMUP_WORKER, i, false);
            if app.play(title).is_err() {
                warmup_failed += 1;
            }
            clock.advance_ms(lat);
            observe_play(lat);
            warmup.record(lat);
        }
    }

    // Steady state: M workers per device share the device's app and
    // replay its titles concurrently.
    let failed = AtomicU64::new(warmup_failed);
    let checkins = AtomicU64::new(0);
    // Pre-mint every worker's link in (device, worker) order on the main
    // thread: link seeds come from a shared mint counter, so the minting
    // order — not the spawn interleaving — must be deterministic. Each
    // link then advances a private local timeline inside its worker.
    let mut links: VecDeque<Option<ClientLink>> = (0..fleet.len() * config.workers_per_device)
        .map(|_| adaptive.then(|| eco.adaptive_link()))
        .collect();
    let mut worker_results: Vec<(LatencyHistogram, AdaptiveLoadStats)> = Vec::new();
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for (d, app) in fleet.iter().enumerate() {
            for w in 0..config.workers_per_device {
                let clock = &clock;
                let failed = &failed;
                let checkins = &checkins;
                let link = links.pop_front().expect("one link minted per worker");
                handles.push(
                    scope.spawn(move || {
                        run_worker(config, app, clock, failed, checkins, d, w, link)
                    }),
                );
            }
        }
        for handle in handles {
            worker_results.push(handle.join().expect("load worker panicked"));
        }
    });

    // A worker's chain is sequential, so its virtual span is the sum of
    // its latencies.
    let longest_chain_ms = worker_results.iter().map(|(h, _)| h.sum()).max().unwrap_or(0);
    let mut steady = LatencyHistogram::new();
    let mut adaptive_stats = AdaptiveLoadStats::default();
    for (h, stats) in &worker_results {
        steady.merge(h);
        adaptive_stats.absorb(*stats);
    }
    let makespan_ms = (warmup.sum() + longest_chain_ms).max(1);
    let total_plays = warmup.count() + steady.count();
    LoadReport {
        config: *config,
        warmup_plays: warmup.count(),
        steady_plays: steady.count(),
        failed_plays: failed.load(Ordering::Relaxed),
        checkins: checkins.load(Ordering::Relaxed),
        warmup_latency: LatencySummary::from_histogram(&warmup),
        steady_latency: LatencySummary::from_histogram(&steady),
        makespan_ms,
        throughput_centi_per_sec: total_plays * 100_000 / makespan_ms,
        adaptive: adaptive.then_some(adaptive_stats),
    }
}

/// One worker's closed loop: returns its latency samples and its
/// adaptive counters (zeroed on the classic path).
#[allow(clippy::too_many_arguments)]
fn run_worker(
    config: &LoadConfig,
    app: &OttApp,
    clock: &VirtualClock,
    failed: &AtomicU64,
    checkins: &AtomicU64,
    device: usize,
    worker: usize,
    mut link: Option<ClientLink>,
) -> (LatencyHistogram, AdaptiveLoadStats) {
    let mut samples = LatencyHistogram::new();
    let mut adaptive = AdaptiveLoadStats::default();
    for iter in 0..config.plays_per_worker {
        let title = FLEET_TITLES[iter % FLEET_TITLES.len()];
        // Under congestion a play's modeled service time additionally
        // carries the rebuffer stalls its link imposed.
        let mut lat = modeled_latency_ms(config.seed, device, worker, iter, true);
        match link.as_mut() {
            Some(l) => match app.play_adaptive(title, &AdaptConfig::quick(), l) {
                Ok(outcome) => {
                    lat += outcome.rebuffer_ms;
                    adaptive.absorb(AdaptiveLoadStats {
                        switches_up: outcome.switches_up,
                        switches_down: outcome.switches_down,
                        license_fetches: outcome.license_fetches,
                        rebuffer_ms: outcome.rebuffer_ms,
                        played_ms: outcome.played_ms,
                    });
                }
                Err(_) => {
                    failed.fetch_add(1, Ordering::Relaxed);
                }
            },
            None => {
                if app.play(title).is_err() {
                    failed.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        clock.advance_ms(lat);
        observe_play(lat);
        samples.record(lat);
        // Periodic device check-in: re-runs the full provisioning
        // exchange. The device's RSA key is already memoized by the
        // provisioning server, so no check-in pays keygen.
        if iter % 3 == 2 {
            if app.reprovision().is_err() {
                failed.fetch_add(1, Ordering::Relaxed);
            } else {
                checkins.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
    (samples, adaptive)
}

fn observe_play(lat_ms: u64) {
    if wideleak_telemetry::is_enabled() {
        wideleak_telemetry::observe("load.play.latency", Duration::from_millis(lat_ms));
        wideleak_telemetry::incr("load.plays");
    }
}

// ---------------------------------------------------------------------
// High-concurrency fleet mode
// ---------------------------------------------------------------------

/// Wall-clock budget for a fleet run before undelivered calls are
/// written off — a CI backstop, not a measurement.
const FLEET_DEADLINE: Duration = Duration::from_secs(120);

/// Wire-v3 request-id-tagged calls each fleet device keeps in flight on
/// its connection.
const FLEET_INFLIGHT_PER_DEVICE: usize = 4;

/// Driver threads the fleet's devices are partitioned across.
const FLEET_DRIVERS: usize = 4;

/// Parameters of one high-concurrency fleet run (`wideleak load
/// --fleet N`): N simulated devices each hold a real socket open
/// against one reactor [`TcpDrmServer`], with up to
/// four wire-v3 request-id-tagged calls in flight per connection.
///
/// Unlike [`LoadConfig`], which measures the modeled study paths, this
/// mode measures the transport itself: each device is a raw wire
/// client driven by a non-blocking state machine, so a handful of
/// driver threads carry tens of thousands of concurrent connections.
/// Both halves live in this process — each device costs two file
/// descriptors, so raise `ulimit -n` beyond ~2× devices for full-size
/// runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetConfig {
    /// Concurrent simulated devices (one socket each).
    pub devices: usize,
    /// Scheme probes each device issues (alternating answers, so
    /// correlation mistakes are visible as unexpected replies).
    pub calls_per_device: usize,
    /// Seed for nonces and the served CDM's derivations.
    pub seed: u64,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig { devices: 10_000, calls_per_device: 4, seed: 2022 }
    }
}

impl FleetConfig {
    /// The CI-sized preset behind `wideleak load --fleet N --quick`.
    #[must_use]
    pub fn quick() -> Self {
        FleetConfig { devices: 1_000, calls_per_device: 2, ..Self::default() }
    }
}

/// What one fleet run delivered. All counts are deterministic for a
/// given config (on a healthy host); `elapsed_ms` and
/// `peak_active_connections` are wall-clock observations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FleetReport {
    /// Devices the run asked for.
    pub devices: usize,
    /// Sockets that connected.
    pub connected: u64,
    /// Devices whose connect failed (their calls count as undelivered).
    pub connect_failures: u64,
    /// Call frames fully written to the server.
    pub calls_sent: u64,
    /// Replies that matched their call's expected answer.
    pub replies_ok: u64,
    /// Replies with a wrong/unknown id or a wrong answer — any nonzero
    /// value means the pipelining correlation broke.
    pub replies_unexpected: u64,
    /// Expected replies that never arrived (dead connections, deadline).
    pub undelivered: u64,
    /// Sessions opened (and then closed) by the 1-in-16 session devices.
    pub sessions_opened: u64,
    /// Largest `netserver.connections.active` the server reported
    /// while the run was in flight.
    pub peak_active_connections: u64,
    /// Wall-clock duration of the run.
    pub elapsed_ms: u64,
}

impl FleetReport {
    /// Renders the ASCII report `wideleak load --fleet` prints.
    #[must_use]
    pub fn render(&self, config: &FleetConfig) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(out, "== wideleak fleet report ==");
        let _ = writeln!(
            out,
            "fleet:      {} devices x {} calls, {FLEET_DRIVERS} drivers, \
             {FLEET_INFLIGHT_PER_DEVICE} in flight per device (seed {})",
            config.devices, config.calls_per_device, config.seed,
        );
        let _ = writeln!(
            out,
            "sockets:    {} connected, {} connect failures, peak {} active at the server",
            self.connected, self.connect_failures, self.peak_active_connections,
        );
        let _ = writeln!(
            out,
            "calls:      {} sent: {} ok, {} unexpected, {} undelivered",
            self.calls_sent, self.replies_ok, self.replies_unexpected, self.undelivered,
        );
        let _ = writeln!(out, "sessions:   {} opened and closed", self.sessions_opened);
        let _ = writeln!(out, "elapsed:    {} ms wall", self.elapsed_ms);
        out
    }

    /// Whether every call was answered as expected.
    #[must_use]
    pub fn clean(&self) -> bool {
        self.connect_failures == 0 && self.replies_unexpected == 0 && self.undelivered == 0
    }
}

/// What a device expects back for one in-flight call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Expect {
    /// `IsSchemeSupported` with the Widevine UUID → `Bool(true)`.
    SchemeTrue,
    /// `IsSchemeSupported` with a zero UUID → `Bool(false)`.
    SchemeFalse,
    /// `OpenSession` → any `SessionId` (which then enqueues the close).
    Session,
    /// `CloseSession` → any `Ok` reply.
    CloseOk,
}

/// One simulated device: a non-blocking socket plus the frame-level
/// state machines (partial writes out, reassembly in, expectations by
/// request id).
struct SimDevice {
    stream: TcpStream,
    /// Frames not yet fully written: `(request id, expectation, bytes)`.
    outbox: VecDeque<(u64, Expect, Vec<u8>)>,
    /// Progress into the front outbox frame.
    woffset: usize,
    /// Expectations for fully-written calls, by request id.
    pending: HashMap<u64, Expect>,
    /// Inbound reassembly buffer.
    rbuf: Vec<u8>,
    expected_total: usize,
    received: usize,
    next_id: u64,
}

impl SimDevice {
    fn enqueue(&mut self, expect: Expect, call: &DrmCall) {
        let id = self.next_id;
        self.next_id += 1;
        let meta = FrameMeta { ctx: None, request_id: Some(id) };
        let frame = encode_frame(&FrameBody::Call(call.clone()), meta);
        self.outbox.push_back((id, expect, frame));
    }

    fn finished(&self) -> bool {
        self.received >= self.expected_total
    }
}

/// Per-driver tallies, summed into the [`FleetReport`].
#[derive(Debug, Clone, Copy, Default)]
struct DriverTally {
    connected: u64,
    connect_failures: u64,
    calls_sent: u64,
    replies_ok: u64,
    replies_unexpected: u64,
    undelivered: u64,
    sessions_opened: u64,
}

/// Splits `0..devices` into `drivers` contiguous ranges (the first
/// `devices % drivers` ranges take one extra). The fleet drivers here
/// and the campaign coordinator's shard assignment both use this, so a
/// shard is always a contiguous device-id range.
#[must_use]
pub fn partition(devices: usize, drivers: usize) -> Vec<Range<usize>> {
    let per = devices / drivers;
    let extra = devices % drivers;
    let mut ranges = Vec::with_capacity(drivers);
    let mut start = 0;
    for i in 0..drivers {
        let len = per + usize::from(i < extra);
        ranges.push(start..start + len);
        start += len;
    }
    ranges
}

/// A device's scripted calls plus how many replies it must collect
/// (the 1-in-16 session devices add an open and a deferred close).
fn device_script(d: usize, config: &FleetConfig) -> (Vec<(Expect, DrmCall)>, usize) {
    let mut script = Vec::with_capacity(config.calls_per_device + 1);
    for i in 0..config.calls_per_device {
        if i % 2 == 0 {
            script.push((
                Expect::SchemeTrue,
                DrmCall::IsSchemeSupported { uuid: WIDEVINE_SYSTEM_ID },
            ));
        } else {
            script.push((Expect::SchemeFalse, DrmCall::IsSchemeSupported { uuid: [0; 16] }));
        }
    }
    let mut expected = script.len();
    if d.is_multiple_of(16) {
        let mut nonce = [0u8; 16];
        nonce[..8].copy_from_slice(&det_hash(config.seed, d as u64).to_le_bytes());
        nonce[8..].copy_from_slice(&(d as u64).to_le_bytes());
        script.push((Expect::Session, DrmCall::OpenSession { nonce }));
        // The open's reply plus the close enqueued when it arrives.
        expected += 2;
    }
    (script, expected)
}

/// Sweeps one device once: write while the in-flight window has room,
/// drain the socket, settle complete reply frames. Returns
/// `(made_progress, died)`.
fn sweep_device(dev: &mut SimDevice, scratch: &mut [u8], tally: &mut DriverTally) -> (bool, bool) {
    let mut progress = false;
    // Write: at most `FLEET_INFLIGHT_PER_DEVICE` calls in flight at once.
    while dev.pending.len() < FLEET_INFLIGHT_PER_DEVICE {
        let Some((_, _, frame)) = dev.outbox.front() else { break };
        match dev.stream.write(&frame[dev.woffset..]) {
            Ok(0) => return (progress, true),
            Ok(n) => {
                dev.woffset += n;
                progress = true;
                if dev.woffset == frame.len() {
                    let (id, expect, _) = dev.outbox.pop_front().expect("front exists");
                    dev.woffset = 0;
                    dev.pending.insert(id, expect);
                    tally.calls_sent += 1;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return (progress, true),
        }
    }
    // Read everything available.
    loop {
        match dev.stream.read(scratch) {
            Ok(0) => return (progress, true),
            Ok(n) => {
                dev.rbuf.extend_from_slice(&scratch[..n]);
                progress = true;
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return (progress, true),
        }
    }
    // Settle whole frames, decoding each where it lies.
    loop {
        let total = match frame_at_front(&dev.rbuf) {
            Ok(Some(total)) => total,
            Ok(None) => break,
            Err(_) => return (progress, true),
        };
        let Ok((body, meta, _)) = decode_frame(&dev.rbuf[..total]) else {
            return (progress, true);
        };
        dev.rbuf.drain(..total);
        progress = true;
        dev.received += 1;
        let expect = meta.request_id.and_then(|id| dev.pending.remove(&id));
        match (expect, body) {
            (Some(Expect::SchemeTrue), FrameBody::Reply(Ok(DrmReply::Bool(true))))
            | (Some(Expect::SchemeFalse), FrameBody::Reply(Ok(DrmReply::Bool(false))))
            | (Some(Expect::CloseOk), FrameBody::Reply(Ok(_))) => tally.replies_ok += 1,
            (Some(Expect::Session), FrameBody::Reply(Ok(DrmReply::SessionId(sid)))) => {
                tally.replies_ok += 1;
                tally.sessions_opened += 1;
                dev.enqueue(Expect::CloseOk, &DrmCall::CloseSession { session_id: sid });
            }
            _ => tally.replies_unexpected += 1,
        }
    }
    (progress, false)
}

/// One driver thread's share of the fleet: connect its device range,
/// then sweep the state machines until every device has collected its
/// replies (or the deadline writes the rest off).
fn drive_devices(
    addr: SocketAddr,
    range: Range<usize>,
    config: &FleetConfig,
    connected_rendezvous: &std::sync::Barrier,
    deadline: Instant,
) -> DriverTally {
    let mut tally = DriverTally::default();
    let mut devices: Vec<Option<SimDevice>> = Vec::with_capacity(range.len());
    for d in range {
        let (script, expected_total) = device_script(d, config);
        // A couple of retries ride out transient accept-queue pressure.
        let mut stream = None;
        for attempt in 0..3 {
            match TcpStream::connect(addr) {
                Ok(s) => {
                    stream = Some(s);
                    break;
                }
                Err(_) if attempt < 2 => std::thread::sleep(Duration::from_millis(10)),
                Err(_) => {}
            }
        }
        let Some(stream) = stream else {
            tally.connect_failures += 1;
            tally.undelivered += expected_total as u64;
            devices.push(None);
            continue;
        };
        let _ = stream.set_nonblocking(true);
        let _ = stream.set_nodelay(true);
        let mut dev = SimDevice {
            stream,
            outbox: VecDeque::new(),
            woffset: 0,
            pending: HashMap::new(),
            rbuf: Vec::new(),
            expected_total,
            received: 0,
            next_id: 1,
        };
        for (expect, call) in &script {
            dev.enqueue(*expect, call);
        }
        tally.connected += 1;
        devices.push(Some(dev));
    }
    // No driver starts traffic until every driver has finished
    // connecting: the whole fleet is on the wire simultaneously before
    // the first call, so the server's active gauge measures true
    // fleet-wide concurrency.
    connected_rendezvous.wait();
    // Finished devices keep their socket open in `held` until the whole
    // driver is done, so the fleet's connections stay concurrent for
    // the duration of its traffic.
    let mut held: Vec<TcpStream> = Vec::new();
    let mut remaining = devices.iter().flatten().count();
    let mut scratch = vec![0u8; 16 * 1024];
    while remaining > 0 {
        if Instant::now() > deadline {
            for dev in devices.iter().flatten() {
                tally.undelivered += dev.expected_total.saturating_sub(dev.received) as u64;
            }
            break;
        }
        let mut progress = false;
        for slot in &mut devices {
            let Some(dev) = slot.as_mut() else { continue };
            let (did, died) = sweep_device(dev, &mut scratch, &mut tally);
            progress |= did;
            if died {
                tally.undelivered += dev.expected_total.saturating_sub(dev.received) as u64;
                *slot = None;
                remaining -= 1;
            } else if dev.finished() {
                let dev = slot.take().expect("slot occupied");
                held.push(dev.stream);
                remaining -= 1;
            }
        }
        if !progress {
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    drop(held);
    tally
}

/// Runs one high-concurrency fleet pass against a fresh reactor server
/// and returns its report.
///
/// # Panics
///
/// Panics when the config asks for zero devices, or when the loopback
/// server cannot bind.
#[must_use]
pub fn run_fleet(config: &FleetConfig) -> FleetReport {
    assert!(config.devices > 0, "fleet run needs at least one device");
    let eco =
        Ecosystem::new(EcosystemConfig { seed: config.seed, ..EcosystemConfig::fast_for_tests() });
    let drm = eco.media_drm_server(DeviceModel::nexus_5());
    let server = TcpDrmServer::bind("127.0.0.1:0", drm).expect("binding the fleet server");
    let addr = server.local_addr();
    let started = Instant::now();
    let deadline = started + FLEET_DEADLINE;
    let drivers = FLEET_DRIVERS.min(config.devices);
    let connected_rendezvous = std::sync::Barrier::new(drivers);
    let mut tallies: Vec<DriverTally> = Vec::new();
    let mut peak = 0u64;
    std::thread::scope(|scope| {
        let rendezvous = &connected_rendezvous;
        let handles: Vec<_> = partition(config.devices, drivers)
            .into_iter()
            .map(|range| {
                scope.spawn(move || drive_devices(addr, range, config, rendezvous, deadline))
            })
            .collect();
        // Sample the server's active-connections gauge while the
        // drivers run; the max is the report's concurrency evidence.
        loop {
            peak = peak.max(server.active_connections());
            if handles.iter().all(std::thread::ScopedJoinHandle::is_finished) {
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        for handle in handles {
            tallies.push(handle.join().expect("fleet driver panicked"));
        }
    });
    let mut report = FleetReport {
        devices: config.devices,
        peak_active_connections: peak,
        // Clamp before converting: saturating to u64::MAX would poison
        // any rate math that divides by elapsed time.
        elapsed_ms: u64::try_from(started.elapsed().as_millis().min(u128::from(u64::MAX)))
            .expect("clamped to u64 range"),
        ..FleetReport::default()
    };
    for tally in tallies {
        report.connected += tally.connected;
        report.connect_failures += tally.connect_failures;
        report.calls_sent += tally.calls_sent;
        report.replies_ok += tally.replies_ok;
        report.replies_unexpected += tally.replies_unexpected;
        report.undelivered += tally.undelivered;
        report.sessions_opened += tally.sessions_opened;
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_is_deterministic() {
        let config = LoadConfig::quick();
        let a = run_load(&config);
        let b = run_load(&config);
        assert_eq!(a.render(), b.render());
    }

    /// The title and the `fleet:`, `plays:` and `makespan:` lines: no
    /// play fails and check-ins run.
    #[test]
    fn quick_report_headers_are_pinned() {
        let expected = [
            "== wideleak load report ==",
            "fleet:      2 devices x 2 workers x 3 plays  (seed 2022, closed-loop, tcp binder)",
            "plays:      16 total (4 warm-up + 12 steady), 0 failed, 4 check-ins",
            "makespan:   239 virtual ms   throughput: 66.94 plays/s",
        ];
        let report = run_load(&LoadConfig::quick()).render();
        assert_eq!(report.lines().take(4).collect::<Vec<_>>(), expected);
    }

    /// Everything after the headers: repeat (steady) plays are modeled
    /// faster than first (warm-up) plays.
    #[test]
    fn quick_report_latency_table_is_pinned() {
        let expected = [
            "latency (virtual ms):",
            "  phase       count    min   mean    p50    p95    p99    max",
            "  warm-up         4     45     46     47     47     47     48",
            "  steady         12     11     14     14     17     17     19",
        ];
        let report = run_load(&LoadConfig::quick()).render();
        assert_eq!(report.lines().skip(4).collect::<Vec<_>>(), expected);
    }

    #[test]
    fn uncongested_run_reports_no_adaptive_stats() {
        let report = run_load(&LoadConfig::quick());
        assert!(report.adaptive.is_none());
        assert!(!report.render().contains("adaptive:"));
    }

    #[test]
    fn constricted_run_downswitches_and_is_deterministic() {
        let config = LoadConfig { congestion: Congestion::Constricted, ..LoadConfig::quick() };
        let a = run_load(&config);
        let b = run_load(&config);
        assert_eq!(a.render(), b.render(), "congested load runs are seed-deterministic");
        assert_eq!(a.failed_plays, 0, "congestion is not a fault");
        let stats = a.adaptive.expect("adaptive stats present under congestion");
        assert!(stats.switches_down > 0, "constriction forces downswitches: {stats:?}");
        assert!(stats.license_fetches > 0);
        assert!(a.render().contains("adaptive:   constricted preset"));
    }

    #[test]
    fn tcp_fleet_matches_inprocess_fleet_except_the_label() {
        let tcp = run_load(&LoadConfig::quick());
        let inprocess =
            run_load(&LoadConfig { transport: TransportKind::InProcess, ..LoadConfig::quick() });
        assert_eq!(tcp.failed_plays, 0);
        // Same traffic, same modeled latencies — only the fleet line
        // differs, by the transport label.
        assert_eq!(inprocess.render().replace("inprocess binder", "tcp binder"), tcp.render());
    }

    /// A unit-test-sized fleet; the CI smoke runs the real 1k+ preset
    /// through the binary.
    fn small_fleet() -> FleetConfig {
        FleetConfig { devices: 160, calls_per_device: 2, ..FleetConfig::quick() }
    }

    #[test]
    fn fleet_answers_every_call_with_the_expected_value() {
        let config = small_fleet();
        let report = run_fleet(&config);
        assert!(report.clean(), "fleet run was not clean: {report:?}");
        assert_eq!(report.connected, 160);
        // 160 devices × 2 probes, plus 10 session devices × (open+close).
        assert_eq!(report.replies_ok, 160 * 2 + 10 * 2);
        assert_eq!(report.sessions_opened, 10);
        assert_eq!(
            report.render(&config).lines().nth(1),
            Some(
                "fleet:      160 devices x 2 calls, 4 drivers, 4 in flight per device (seed 2022)"
            )
        );
        assert!(
            report.peak_active_connections >= 80,
            "fleet connections were concurrent: peak {}",
            report.peak_active_connections
        );
    }

    #[test]
    fn fleet_counts_are_deterministic() {
        let config = small_fleet();
        let a = run_fleet(&config);
        let b = run_fleet(&config);
        assert_eq!(
            (a.connected, a.calls_sent, a.replies_ok, a.sessions_opened, a.undelivered),
            (b.connected, b.calls_sent, b.replies_ok, b.sessions_opened, b.undelivered),
        );
    }

    #[test]
    fn fleet_partition_covers_every_device_once() {
        for (devices, drivers) in [(10, 4), (3, 4), (1000, 4), (7, 1)] {
            let ranges = partition(devices, drivers);
            let total: usize = ranges.iter().map(ExactSizeIterator::len).sum();
            assert_eq!(total, devices);
            for pair in ranges.windows(2) {
                assert_eq!(pair[0].end, pair[1].start);
            }
        }
    }

    #[test]
    fn percentiles_are_exact_nearest_rank() {
        let mut samples = LatencyHistogram::new();
        for ms in (1..=100).rev() {
            samples.record(ms);
        }
        let s = LatencySummary::from_histogram(&samples);
        assert_eq!((s.min_ms, s.p50_ms, s.p95_ms, s.p99_ms, s.max_ms), (1, 50, 95, 99, 100));
        assert_eq!(s.mean_ms, 50);
    }
}
