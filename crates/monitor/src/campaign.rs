//! The sharded measurement campaign: a fleet of `wideleak serve
//! --worker` processes re-deriving the Table-I compliance matrix over
//! the generated device catalog, merged into one *exact* report.
//!
//! This is ROADMAP item 4 — the step from "one process simulating a
//! fleet" to "a fleet simulating a fleet". The coordinator
//! ([`run_campaign`]) splits the catalog id range `0..spec.devices`
//! into contiguous shards (the same [`partition`] the load generator
//! uses for its drivers), spawns one worker process per shard, drives
//! each over a wire-v3 campaign control channel
//! ([`CampaignCall`]/[`CampaignReply`]), and merges the
//! [`ShardReport`]s it gets back.
//!
//! **Shard-count invariance** is the load-bearing property: the merged
//! report is a pure function of (spec, seed, catalog). It holds
//! because every report-visible value derives only from the campaign
//! seed, the device id, and the app — never from the shard id, the
//! worker count, or wall clocks:
//!
//! - the compliance cell of a (device, app) pair is [`derive_cell`], a
//!   pure classification over the catalog model and the app profile;
//! - its latency sample is [`modeled_latency_ms`], seeded by
//!   `det_hash(campaign_seed, ...)` over (device id, app index);
//! - which devices get a *real* end-to-end playback (validating the
//!   derived cells against actual ecosystem behaviour) is a seed-hash
//!   over the device id, not a per-shard counter;
//! - merges are exact: histogram bucket-sums for percentiles, count
//!   sums plus min-device-id exemplars for cells, name-wise sums for
//!   counters — all commutative, so arrival order cannot show through.
//!
//! The per-shard worker seed `det_hash(spec.seed, shard_id)` exists
//! for replayability of a single shard; it seeds the worker's own
//! ecosystem (RSA keys and the like) and nothing report-visible.
//!
//! Worker processes are owned by [`WorkerProcess`] drop guards
//! (kill-on-drop plus reap), and each worker also watches its stdin —
//! a pipe the coordinator holds open — so even a SIGKILLed coordinator
//! leaves no orphans: the pipe closes, the worker exits.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use wideleak_android_drm::campaign::{
    AppCells, CampaignCall, CampaignError, CampaignHandler, CampaignReply, CampaignSpec,
    LatencyHistogram, ShardAssignment, ShardReport, CELL_KINDS,
};
use wideleak_android_drm::wire::{
    decode_frame, encode_frame, frame_len, FrameBody, HEADER_LEN, VERSION,
};
use wideleak_device::catalog::{DeviceModel, SecurityLevel};
use wideleak_faults::det_hash;
use wideleak_load::{partition, LatencySummary};
use wideleak_ott::apps::AppProfile;
use wideleak_ott::content::L3_MAX_HEIGHT;
use wideleak_ott::ecosystem::{Ecosystem, EcosystemConfig};
use wideleak_ott::provisioning::REVOCATION_FLOOR;
use wideleak_ott::OttError;

/// Salt mixed into the campaign seed when electing devices for real
/// playback validation, so the election is independent of the latency
/// model's hash stream.
const SAMPLE_SALT: u64 = 0x5749_4445_4c45_414b; // "WIDELEAK"

/// Salt for the modeled latency jitter stream.
const LATENCY_SALT: u64 = 0x4c41_5445_4e43_5953;

/// How long the coordinator waits on a worker's control socket before
/// declaring the shard hung. Generous — a real shard finishes in
/// seconds; a killed worker produces an immediate EOF, not a timeout.
const SHARD_DEADLINE: Duration = Duration::from_secs(600);

/// A compliance cell in the widened Table-I vocabulary. The `u8` repr
/// indices match the wire-level [`CELL_KINDS`] order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum CellKind {
    /// Platform Widevine plays at HD (L1 hardware).
    PlaysHd = 0,
    /// Platform Widevine plays capped at sub-HD (L3, by age or hardware).
    PlaysSd = 1,
    /// The app's embedded DRM plays instead of platform Widevine
    /// (Amazon's L3 fallback).
    Embedded = 2,
    /// Provisioning refused: the CDM version is revoked and the app
    /// enforces revocation.
    Refused = 3,
    /// The app never touches platform Widevine (custom DRM everywhere).
    Custom = 4,
}

impl CellKind {
    /// Every kind, in wire index order.
    pub const ALL: [CellKind; CELL_KINDS] = [
        CellKind::PlaysHd,
        CellKind::PlaysSd,
        CellKind::Embedded,
        CellKind::Refused,
        CellKind::Custom,
    ];

    /// The column label the report renders.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            CellKind::PlaysHd => "playsHD",
            CellKind::PlaysSd => "playsSD",
            CellKind::Embedded => "embedded",
            CellKind::Refused => "refused",
            CellKind::Custom => "custom",
        }
    }

    /// The wire-level cell index.
    #[must_use]
    pub fn index(self) -> usize {
        self as usize
    }
}

/// Classifies the (device, app) compliance cell *without running a
/// playback* — a pure function mirroring `OttApp::play` semantics, so
/// the campaign can cover thousands of devices while the sampled real
/// playbacks keep the mirror honest (`sample_mismatches` stays 0).
#[must_use]
pub fn derive_cell(model: &DeviceModel, profile: &AppProfile) -> CellKind {
    if profile.always_custom_drm {
        return CellKind::Custom;
    }
    // The embedded-DRM path short-circuits provisioning, exactly as
    // `play` consults `uses_embedded_drm` before `ensure_provisioned`.
    if model.security_level == SecurityLevel::L3 && profile.custom_drm_on_l3 {
        return CellKind::Embedded;
    }
    if profile.enforce_revocation && model.cdm_version < REVOCATION_FLOOR {
        return CellKind::Refused;
    }
    if model.security_level == SecurityLevel::L1 {
        CellKind::PlaysHd
    } else {
        CellKind::PlaysSd
    }
}

/// The modeled license-path latency of one (device, app) playback, in
/// milliseconds: a per-cell base plus seeded jitter. A pure function of
/// (campaign seed, device id, app index) — the sharding can never show
/// through — and bounded far below the histogram's bucket cap, so the
/// exact-merge property holds with no clamping.
#[must_use]
pub fn modeled_latency_ms(seed: u64, device_id: u64, app_idx: usize, cell: CellKind) -> u64 {
    let base = match cell {
        CellKind::PlaysHd => 34,
        CellKind::PlaysSd => 27,
        CellKind::Embedded => 18,
        CellKind::Refused => 6,
        CellKind::Custom => 9,
    };
    let salt = device_id.wrapping_mul(64).wrapping_add(app_idx as u64);
    base + det_hash(seed ^ LATENCY_SALT, salt) % 13
}

/// Whether this device id is elected for a real end-to-end playback
/// validation. Seed-hashed over the device id alone, so the election is
/// identical no matter which shard the device lands in.
#[must_use]
pub fn is_sampled(spec: &CampaignSpec, device_id: u64) -> bool {
    spec.sample_every > 0
        && det_hash(spec.seed ^ SAMPLE_SALT, device_id).is_multiple_of(spec.sample_every)
}

/// Resolves the spec's app slugs against the evaluated-app profiles,
/// preserving spec order (or the canonical evaluated order when the
/// spec names none).
///
/// # Errors
///
/// [`CampaignError::Worker`] for an unknown slug.
pub fn resolve_apps(spec: &CampaignSpec) -> Result<Vec<AppProfile>, CampaignError> {
    let all = wideleak_ott::apps::evaluated_apps();
    if spec.apps.is_empty() {
        return Ok(all);
    }
    spec.apps
        .iter()
        .map(|slug| {
            all.iter()
                .find(|p| p.slug == slug)
                .cloned()
                .ok_or_else(|| CampaignError::Worker { what: format!("unknown app slug {slug}") })
        })
        .collect()
}

/// Runs one shard of a campaign in this process: derives the compliance
/// cell and latency sample for every (device, app) pair in the range,
/// and validates the derivation with real ecosystem playbacks on the
/// seed-elected sample devices.
///
/// # Errors
///
/// [`CampaignError::Worker`] for an invalid assignment or unknown app.
pub fn run_shard(
    spec: &CampaignSpec,
    shard: ShardAssignment,
) -> Result<ShardReport, CampaignError> {
    if shard.start > shard.end || shard.end > spec.devices {
        return Err(CampaignError::Worker {
            what: format!(
                "shard {} range {}..{} outside campaign 0..{}",
                shard.shard_id, shard.start, shard.end, spec.devices
            ),
        });
    }
    let apps = resolve_apps(spec)?;
    // The per-shard seed makes a single shard replayable in isolation;
    // it feeds the worker's private ecosystem only, never the report.
    let shard_seed = det_hash(spec.seed, u64::from(shard.shard_id));
    let needs_eco = (shard.start..shard.end).any(|id| is_sampled(spec, id));
    let eco = needs_eco.then(|| {
        Ecosystem::new(EcosystemConfig {
            seed: shard_seed,
            rsa_bits: spec.rsa_bits as usize,
            ..EcosystemConfig::default()
        })
    });

    let mut cells: Vec<AppCells> = apps.iter().map(|p| AppCells::new(p.slug)).collect();
    let mut latency = LatencyHistogram::new();
    let mut sampled_plays = 0u64;
    let mut sample_mismatches = 0u64;

    for device_id in shard.start..shard.end {
        if spec.kill_at_device == Some(device_id) {
            // Test-only fault hook: die exactly as an OOM-killed or
            // crashed worker would, mid-shard, with no goodbye frame.
            std::process::exit(3);
        }
        let model = DeviceModel::catalog(device_id);
        let sampled = is_sampled(spec, device_id);
        for (app_idx, profile) in apps.iter().enumerate() {
            let kind = derive_cell(&model, profile);
            cells[app_idx].record(kind.index(), device_id);
            latency.record(modeled_latency_ms(spec.seed, device_id, app_idx, kind));
            if let (true, Some(eco)) = (sampled, &eco) {
                // A fresh stack per (device, app): platform provisioning
                // state is per-install here, so an enforcing app always
                // exercises the provisioning refusal the cell predicts
                // instead of riding a sibling app's provisioned device.
                let stack = eco.boot_device(model.clone(), false);
                let app = eco.install_app(&stack, profile.slug, "campaign");
                let observed = classify_play(&app.play("title-001"));
                sampled_plays += 1;
                if observed != Some(kind) {
                    sample_mismatches += 1;
                }
                wideleak_telemetry::incr("campaign.plays.sampled");
            }
        }
    }

    let devices = shard.end - shard.start;
    wideleak_telemetry::incr("campaign.shards.run");
    Ok(ShardReport {
        shard_id: shard.shard_id,
        start: shard.start,
        end: shard.end,
        cells,
        latency,
        sampled_plays,
        sample_mismatches,
        counters: vec![
            ("campaign.cells.derived".into(), devices * apps.len() as u64),
            ("campaign.devices".into(), devices),
            ("campaign.plays.mismatched".into(), sample_mismatches),
            ("campaign.plays.sampled".into(), sampled_plays),
        ],
    })
}

/// Maps a real playback outcome into the cell vocabulary; `None` for
/// outcomes the derivation never predicts (always a mismatch).
fn classify_play(
    outcome: &Result<wideleak_ott::apps::PlaybackOutcome, OttError>,
) -> Option<CellKind> {
    match outcome {
        Ok(o) if !o.used_platform_widevine => Some(CellKind::Embedded),
        Ok(o) if o.resolution.1 > L3_MAX_HEIGHT => Some(CellKind::PlaysHd),
        Ok(_) => Some(CellKind::PlaysSd),
        Err(OttError::DeviceRevoked { .. }) => Some(CellKind::Refused),
        Err(_) => None,
    }
}

/// The worker-process side of the control channel: answers `Hello`,
/// runs `RunShard` via [`run_shard`], and flips a flag on `Shutdown`
/// that the serve loop polls to exit.
#[derive(Debug, Default)]
pub struct ShardRunner {
    shutdown: AtomicBool,
}

impl ShardRunner {
    /// A fresh runner with the shutdown flag clear.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether a coordinator asked this worker to exit.
    #[must_use]
    pub fn shutdown_requested(&self) -> bool {
        self.shutdown.load(Ordering::Acquire)
    }
}

impl CampaignHandler for ShardRunner {
    fn handle(&self, call: CampaignCall) -> Result<CampaignReply, CampaignError> {
        match call {
            CampaignCall::Hello => {
                Ok(CampaignReply::HelloAck { pid: std::process::id(), wire_version: VERSION })
            }
            CampaignCall::RunShard { spec, shard } => {
                run_shard(&spec, shard).map(CampaignReply::ShardDone)
            }
            CampaignCall::Shutdown => {
                self.shutdown.store(true, Ordering::Release);
                Ok(CampaignReply::ShuttingDown)
            }
        }
    }
}

/// How to launch a worker process: the program plus any arguments ahead
/// of the `serve --worker` subcommand the spawner appends.
#[derive(Debug, Clone)]
pub struct WorkerCommand {
    /// The binary to run (normally the running `wideleak` itself).
    pub program: PathBuf,
    /// Arguments placed before `serve --worker`.
    pub args: Vec<String>,
}

impl WorkerCommand {
    /// The running executable as the worker program — the normal case,
    /// where `wideleak campaign` spawns copies of itself.
    ///
    /// # Errors
    ///
    /// [`CampaignError::Spawn`] when the executable path is unknown.
    pub fn current_exe() -> Result<Self, CampaignError> {
        let program = std::env::current_exe()
            .map_err(|e| CampaignError::Spawn { what: format!("current_exe: {e}") })?;
        Ok(WorkerCommand { program, args: Vec::new() })
    }
}

/// One spawned worker process, owned as a drop guard: dropping the
/// guard kills the child and reaps it, so a failed test, a panic, or an
/// early coordinator return never leaves an orphaned `wideleak serve`
/// behind. (The worker additionally watches the stdin pipe this guard
/// holds open, so even an unceremoniously killed coordinator takes its
/// workers down with it.)
#[derive(Debug)]
pub struct WorkerProcess {
    child: Child,
    addr: String,
}

impl WorkerProcess {
    /// Spawns a worker and waits for its `WORKER_READY <addr>` line.
    ///
    /// # Errors
    ///
    /// [`CampaignError::Spawn`] when the process cannot be started or
    /// never reports ready.
    pub fn spawn(cmd: &WorkerCommand) -> Result<Self, CampaignError> {
        let mut child = Command::new(&cmd.program)
            .args(&cmd.args)
            .arg("serve")
            .arg("--worker")
            .arg("127.0.0.1:0")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| CampaignError::Spawn {
                what: format!("{}: {e}", cmd.program.display()),
            })?;
        let stdout = child
            .stdout
            .take()
            .ok_or(CampaignError::Spawn { what: "worker stdout not captured".into() })?;
        let mut guard = WorkerProcess { child, addr: String::new() };
        let mut line = String::new();
        BufReader::new(stdout)
            .read_line(&mut line)
            .map_err(|e| CampaignError::Spawn { what: format!("reading ready line: {e}") })?;
        let addr = line
            .strip_prefix("WORKER_READY ")
            .map(str::trim)
            .filter(|a| !a.is_empty())
            .ok_or_else(|| CampaignError::Spawn { what: format!("bad ready line {line:?}") })?;
        guard.addr = addr.to_owned();
        Ok(guard)
    }

    /// The worker's control-channel address.
    #[must_use]
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// The worker's OS process id.
    #[must_use]
    pub fn pid(&self) -> u32 {
        self.child.id()
    }
}

impl Drop for WorkerProcess {
    fn drop(&mut self) {
        // Kill-on-drop plus reap: an already-exited child makes kill a
        // no-op error, and wait still collects the zombie either way.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// A blocking control-channel client over one worker's TCP socket.
struct ControlChannel {
    stream: TcpStream,
    shard_id: u32,
}

impl ControlChannel {
    fn connect(addr: &str, shard_id: u32) -> Result<Self, CampaignError> {
        let stream = TcpStream::connect(addr)
            .map_err(|e| CampaignError::Spawn { what: format!("connect {addr}: {e}") })?;
        let _ = stream.set_nodelay(true);
        let _ = stream.set_read_timeout(Some(SHARD_DEADLINE));
        Ok(ControlChannel { stream, shard_id })
    }

    /// One call, one reply. Any transport failure — EOF from a dead
    /// worker included — is the typed [`CampaignError::ShardLost`].
    fn call(&mut self, call: CampaignCall) -> Result<CampaignReply, CampaignError> {
        let lost = |_| CampaignError::ShardLost { shard_id: self.shard_id };
        self.stream.write_all(&encode_frame(&FrameBody::CampaignCall(call))).map_err(lost)?;
        let mut header = [0u8; HEADER_LEN];
        self.stream.read_exact(&mut header).map_err(lost)?;
        let total = frame_len(&header)?;
        let mut frame = vec![0u8; total];
        frame[..HEADER_LEN].copy_from_slice(&header);
        self.stream.read_exact(&mut frame[HEADER_LEN..]).map_err(lost)?;
        match decode_frame(&frame)? {
            (FrameBody::CampaignReply(reply), _) => reply,
            _ => Err(CampaignError::Protocol {
                what: "non-campaign frame on control channel".into(),
            }),
        }
    }
}

/// The merged outcome of a whole campaign: a pure function of
/// (spec, seed, catalog) — shard count, scheduling, and reply order
/// can never show through, which the differential battery proves by
/// diffing rendered bytes across worker counts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignReport {
    /// The spec the campaign ran.
    pub spec: CampaignSpec,
    /// Merged per-app compliance cells over the whole catalog range.
    pub cells: Vec<AppCells>,
    /// Merged latency histogram (exact bucket sums).
    pub latency: LatencyHistogram,
    /// Real playbacks run across all shards.
    pub sampled_plays: u64,
    /// Sampled playbacks disagreeing with the derived cell (expect 0).
    pub sample_mismatches: u64,
    /// Name-summed per-shard counters.
    pub counters: Vec<(String, u64)>,
}

/// Merges per-shard reports into one campaign report. Validates that
/// the shards tile `0..spec.devices` exactly, then folds in ascending
/// shard order — the fold operations are commutative anyway, which is
/// precisely why the result is arrival-order-independent.
///
/// # Errors
///
/// [`CampaignError::Protocol`] when the shard ranges do not tile the
/// campaign range or an app list disagrees.
pub fn merge_reports(
    spec: &CampaignSpec,
    mut shards: Vec<ShardReport>,
) -> Result<CampaignReport, CampaignError> {
    shards.sort_by_key(|s| s.shard_id);
    let mut next_start = 0u64;
    for shard in &shards {
        if shard.start != next_start {
            return Err(CampaignError::Protocol {
                what: format!(
                    "shard {} starts at {}, expected {next_start}",
                    shard.shard_id, shard.start
                ),
            });
        }
        next_start = shard.end;
    }
    if next_start != spec.devices {
        return Err(CampaignError::Protocol {
            what: format!("shards cover 0..{next_start}, campaign needs 0..{}", spec.devices),
        });
    }

    let apps = resolve_apps(spec)?;
    let mut cells: Vec<AppCells> = apps.iter().map(|p| AppCells::new(p.slug)).collect();
    let mut latency = LatencyHistogram::new();
    let mut sampled_plays = 0u64;
    let mut sample_mismatches = 0u64;
    let mut counters: BTreeMap<String, u64> = BTreeMap::new();
    for shard in &shards {
        if shard.cells.len() != cells.len()
            || shard.cells.iter().zip(&cells).any(|(a, b)| a.app != b.app)
        {
            return Err(CampaignError::Protocol {
                what: format!("shard {} reported a different app list", shard.shard_id),
            });
        }
        for (merged, theirs) in cells.iter_mut().zip(&shard.cells) {
            merged.merge(theirs);
        }
        latency.merge(&shard.latency);
        sampled_plays += shard.sampled_plays;
        sample_mismatches += shard.sample_mismatches;
        for (name, value) in &shard.counters {
            *counters.entry(name.clone()).or_insert(0) += value;
        }
    }
    Ok(CampaignReport {
        spec: spec.clone(),
        cells,
        latency,
        sampled_plays,
        sample_mismatches,
        counters: counters.into_iter().collect(),
    })
}

impl CampaignReport {
    /// Renders the deterministic ASCII report. Deliberately excludes
    /// everything sharding-dependent (worker count, pids, wall time):
    /// the CI diff job and the differential test compare these bytes
    /// across worker counts.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("== wideleak campaign report ==\n");
        out.push_str(&format!(
            "spec:    {} devices x {} apps  (seed {}, sample every {}, rsa {})\n",
            self.spec.devices,
            self.cells.len(),
            self.spec.seed,
            self.spec.sample_every,
            self.spec.rsa_bits,
        ));
        out.push_str("\ncompliance matrix (devices per cell):\n");
        out.push_str(&format!("  {:<10}", "app"));
        for kind in CellKind::ALL {
            out.push_str(&format!(" {:>9}", kind.label()));
        }
        out.push_str(&format!(" {:>14}\n", "first refused"));
        for cells in &self.cells {
            out.push_str(&format!("  {:<10}", cells.app));
            for kind in CellKind::ALL {
                out.push_str(&format!(" {:>9}", cells.counts[kind.index()]));
            }
            match cells.exemplars[CellKind::Refused.index()] {
                Some(id) => out.push_str(&format!(" {:>14}\n", format!("device {id}"))),
                None => out.push_str(&format!(" {:>14}\n", "-")),
            }
        }
        let l = LatencySummary::from_histogram(&self.latency);
        out.push_str(&format!(
            "\nlicense-path latency (modeled ms): count {} min {} mean {} p50 {} p95 {} p99 {} max {}\n",
            l.count, l.min_ms, l.mean_ms, l.p50_ms, l.p95_ms, l.p99_ms, l.max_ms
        ));
        out.push_str(&format!(
            "validation: {} sampled real playbacks, {} mismatches vs derived cells\n",
            self.sampled_plays, self.sample_mismatches
        ));
        out.push_str("\ncounters:\n");
        for (name, value) in &self.counters {
            out.push_str(&format!("  {name:<26} {value}\n"));
        }
        out
    }
}

/// Coordinator tuning: the spec plus how many worker processes to
/// shard it across.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// What to measure.
    pub spec: CampaignSpec,
    /// Worker processes to spawn (min 1). Any value yields the same
    /// report — that is the campaign's defining invariant.
    pub workers: usize,
}

impl CampaignConfig {
    /// A quick configuration for tests and CI smoke: a small catalog
    /// slice with sampling dense enough to exercise real playbacks.
    #[must_use]
    pub fn quick(seed: u64) -> Self {
        CampaignConfig {
            spec: CampaignSpec {
                seed,
                devices: 48,
                apps: Vec::new(),
                sample_every: 24,
                rsa_bits: 768,
                kill_at_device: None,
            },
            workers: 2,
        }
    }

    /// The full-catalog configuration: thousands of generated devices,
    /// sparser sampling.
    #[must_use]
    pub fn full(seed: u64) -> Self {
        CampaignConfig {
            spec: CampaignSpec {
                seed,
                devices: 4096,
                apps: Vec::new(),
                sample_every: 512,
                rsa_bits: 768,
                kill_at_device: None,
            },
            workers: 4,
        }
    }
}

/// Runs a campaign end to end: spawns `config.workers` worker
/// processes, fans the shard assignments out, collects and merges the
/// shard reports, and shuts the workers down.
///
/// # Errors
///
/// [`CampaignError::Spawn`] when a worker cannot be started,
/// [`CampaignError::ShardLost`] when one dies mid-shard, plus the
/// taxonomy's protocol/worker variants.
pub fn run_campaign(
    config: &CampaignConfig,
    cmd: &WorkerCommand,
) -> Result<CampaignReport, CampaignError> {
    let workers = config.workers.max(1);
    let ranges =
        partition(usize::try_from(config.spec.devices).expect("device count fits usize"), workers);

    // Spawn every guard first so any later error path drops (and
    // thereby kills) the whole fleet.
    let mut guards = Vec::with_capacity(workers);
    for _ in 0..workers {
        guards.push(WorkerProcess::spawn(cmd)?);
    }

    // One collector thread per worker: handshake, run the shard, ship
    // the result back. Shards stream in whatever order workers finish;
    // the merge makes that order invisible.
    let (tx, rx) = std::sync::mpsc::channel::<Result<ShardReport, CampaignError>>();
    let mut handles = Vec::with_capacity(workers);
    for (shard_id, range) in ranges.iter().enumerate() {
        let shard = ShardAssignment {
            shard_id: u32::try_from(shard_id).expect("shard id fits u32"),
            start: range.start as u64,
            end: range.end as u64,
        };
        let spec = config.spec.clone();
        let addr = guards[shard_id].addr().to_owned();
        let tx = tx.clone();
        handles.push(std::thread::spawn(move || {
            let _ = tx.send(drive_worker(&addr, &spec, shard));
        }));
    }
    drop(tx);

    let mut shards = Vec::with_capacity(workers);
    let mut first_error: Option<CampaignError> = None;
    for result in rx {
        match result {
            Ok(report) => shards.push(report),
            Err(e) => first_error = Some(first_error.unwrap_or(e)),
        }
    }
    for handle in handles {
        let _ = handle.join();
    }
    if let Some(e) = first_error {
        return Err(e);
    }
    let report = merge_reports(&config.spec, shards)?;
    // Polite shutdown; the drop guards are the enforcement.
    for guard in &guards {
        if let Ok(mut chan) = ControlChannel::connect(guard.addr(), 0) {
            let _ = chan.call(CampaignCall::Shutdown);
        }
    }
    Ok(report)
}

/// Drives one worker through its shard: Hello handshake, RunShard,
/// typed result.
fn drive_worker(
    addr: &str,
    spec: &CampaignSpec,
    shard: ShardAssignment,
) -> Result<ShardReport, CampaignError> {
    let mut chan = ControlChannel::connect(addr, shard.shard_id)?;
    match chan.call(CampaignCall::Hello)? {
        CampaignReply::HelloAck { .. } => {}
        other => {
            return Err(CampaignError::Protocol {
                what: format!("expected HelloAck, got {other:?}"),
            })
        }
    }
    match chan.call(CampaignCall::RunShard { spec: spec.clone(), shard })? {
        CampaignReply::ShardDone(report) => {
            if report.shard_id != shard.shard_id
                || report.start != shard.start
                || report.end != shard.end
            {
                return Err(CampaignError::Protocol {
                    what: format!(
                        "shard {} echoed assignment {}..{} as {}..{}",
                        shard.shard_id, shard.start, shard.end, report.start, report.end
                    ),
                });
            }
            Ok(report)
        }
        other => {
            Err(CampaignError::Protocol { what: format!("expected ShardDone, got {other:?}") })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_spec() -> CampaignSpec {
        CampaignSpec {
            seed: 7,
            devices: 24,
            apps: Vec::new(),
            sample_every: 0,
            rsa_bits: 768,
            kill_at_device: None,
        }
    }

    #[test]
    fn derive_cell_matches_table_1_reference_devices() {
        let apps = wideleak_ott::apps::evaluated_apps();
        let netflix = apps.iter().find(|p| p.slug == "netflix").unwrap();
        let disney = apps.iter().find(|p| p.slug == "disney").unwrap();
        let amazon = apps.iter().find(|p| p.slug == "amazon").unwrap();
        // The paper's study devices reproduce their Table-I rows.
        let n5 = DeviceModel::nexus_5();
        let p6 = DeviceModel::pixel_6();
        let mid = DeviceModel::midrange_l3();
        assert_eq!(derive_cell(&n5, netflix), CellKind::PlaysSd);
        assert_eq!(derive_cell(&n5, disney), CellKind::Refused);
        assert_eq!(derive_cell(&n5, amazon), CellKind::Embedded);
        assert_eq!(derive_cell(&p6, netflix), CellKind::PlaysHd);
        assert_eq!(derive_cell(&p6, disney), CellKind::PlaysHd);
        assert_eq!(derive_cell(&mid, amazon), CellKind::Embedded);
        assert_eq!(derive_cell(&mid, disney), CellKind::PlaysSd);
    }

    #[test]
    fn run_shard_is_deterministic_and_shard_id_free() {
        let spec = quick_spec();
        let whole = run_shard(&spec, ShardAssignment { shard_id: 0, start: 0, end: 24 }).unwrap();
        // The same range under a different shard id yields identical
        // report-visible values (only the echoed id differs).
        let relabeled =
            run_shard(&spec, ShardAssignment { shard_id: 9, start: 0, end: 24 }).unwrap();
        assert_eq!(whole.cells, relabeled.cells);
        assert_eq!(whole.latency, relabeled.latency);
        assert_eq!(whole.counters, relabeled.counters);
    }

    #[test]
    fn split_shards_merge_to_the_whole() {
        let spec = quick_spec();
        let whole = run_shard(&spec, ShardAssignment { shard_id: 0, start: 0, end: 24 }).unwrap();
        let merged_whole = merge_reports(&spec, vec![whole]).unwrap();
        for splits in [2usize, 3, 4] {
            let shards: Vec<ShardReport> = partition(24, splits)
                .into_iter()
                .enumerate()
                .map(|(id, r)| {
                    run_shard(
                        &spec,
                        ShardAssignment {
                            shard_id: id as u32,
                            start: r.start as u64,
                            end: r.end as u64,
                        },
                    )
                    .unwrap()
                })
                .collect();
            let merged = merge_reports(&spec, shards).unwrap();
            assert_eq!(merged.render(), merged_whole.render(), "{splits} shards diverged");
        }
    }

    #[test]
    fn merge_rejects_gaps_and_overlaps() {
        let spec = quick_spec();
        let a = run_shard(&spec, ShardAssignment { shard_id: 0, start: 0, end: 10 }).unwrap();
        let b = run_shard(&spec, ShardAssignment { shard_id: 1, start: 12, end: 24 }).unwrap();
        assert!(matches!(
            merge_reports(&spec, vec![a.clone(), b]),
            Err(CampaignError::Protocol { .. })
        ));
        let short = vec![a];
        assert!(matches!(merge_reports(&spec, short), Err(CampaignError::Protocol { .. })));
    }

    #[test]
    fn run_shard_rejects_out_of_range_assignments() {
        let spec = quick_spec();
        assert!(matches!(
            run_shard(&spec, ShardAssignment { shard_id: 0, start: 0, end: 25 }),
            Err(CampaignError::Worker { .. })
        ));
        assert!(matches!(
            run_shard(&spec, ShardAssignment { shard_id: 0, start: 8, end: 4 }),
            Err(CampaignError::Worker { .. })
        ));
    }

    #[test]
    fn sampled_playbacks_confirm_derived_cells() {
        // Dense sampling over a small range: every device plays for
        // real, and the pure derivation must agree with the ecosystem.
        let spec = CampaignSpec { devices: 6, sample_every: 1, ..quick_spec() };
        let report = run_shard(&spec, ShardAssignment { shard_id: 0, start: 0, end: 6 }).unwrap();
        assert_eq!(report.sampled_plays, 60, "6 devices x 10 apps");
        assert_eq!(report.sample_mismatches, 0, "derivation diverged from real playbacks");
    }

    #[test]
    fn unknown_app_slug_is_a_typed_worker_error() {
        let spec = CampaignSpec { apps: vec!["caveflix".into()], ..quick_spec() };
        assert!(matches!(
            run_shard(&spec, ShardAssignment { shard_id: 0, start: 0, end: 1 }),
            Err(CampaignError::Worker { .. })
        ));
    }
}
