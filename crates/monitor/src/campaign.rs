//! The sharded measurement campaign: a fleet of `wideleak serve
//! --worker` processes re-deriving the Table-I compliance matrix over
//! the generated device catalog, merged into one *exact* report.
//!
//! This is ROADMAP item 4 — the step from "one process simulating a
//! fleet" to "a fleet simulating a fleet". The coordinator
//! ([`run_campaign`]) splits the catalog id range `0..spec.devices`
//! into contiguous shards (the same [`partition`] the load generator
//! uses for its drivers), spawns one worker process per shard, writes
//! each one wire-v3 campaign call (the spec and its shard) on the
//! worker's stdin, reads one reply frame (a [`ShardReport`] or a typed
//! [`CampaignError`]) from its stdout, and merges the reports. A worker
//! opens no port: its pipes are its whole control channel. There is no
//! readiness handshake; a worker that dies before replying is a lost
//! shard, and one that never replies is lost at the shard deadline.
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
//! - merges are exact: per-value histogram sums for percentiles, count
//!   sums plus min-device-id exemplars for cells, plain sums for the
//!   sampled-play tallies — all commutative, so arrival order cannot
//!   show through.
//!
//! The per-shard worker seed `det_hash(spec.seed, shard_id)` exists
//! for replayability of a single shard; it seeds the worker's own
//! ecosystem (RSA keys and the like) and nothing report-visible.
//!
//! Worker processes are owned by [`WorkerProcess`] drop guards
//! (kill-on-drop plus reap), and a worker exits at EOF on its stdin, so
//! even a SIGKILLed coordinator leaves no orphans: the pipe closes, the
//! worker exits.

use std::io::{Read, Write};
use std::path::PathBuf;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use wideleak_android_drm::campaign::{
    AppCells, CampaignError, CampaignSpec, ShardAssignment, ShardReport, CELL_KINDS,
};
use wideleak_android_drm::wire::{
    decode_frame, encode_frame, read_frame, FrameBody, FrameMeta, WireError,
};
use wideleak_device::catalog::{DeviceModel, SecurityLevel};
use wideleak_faults::det_hash;
use wideleak_load::{partition, LatencySummary};
use wideleak_ott::apps::{evaluated_apps, AppProfile};
use wideleak_ott::content::L3_MAX_HEIGHT;
use wideleak_ott::ecosystem::{Ecosystem, EcosystemConfig};
use wideleak_ott::provisioning::REVOCATION_FLOOR;
use wideleak_ott::OttError;
use wideleak_telemetry::LatencyHistogram;

/// Salt mixed into the campaign seed when electing devices for real
/// playback validation, so the election is independent of the latency
/// model's hash stream.
const SAMPLE_SALT: u64 = 0x5749_4445_4c45_414b; // "WIDELEAK"

/// Salt for the modeled latency jitter stream.
const LATENCY_SALT: u64 = 0x4c41_5445_4e43_5953;

/// How long the coordinator waits for shard results before it kills the
/// workers still running and declares their shards lost. Generous — a
/// real shard finishes in seconds; a killed worker closes its pipes, an
/// immediate EOF, not a timeout.
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
/// (campaign seed, device id, app index), so the sharding can never
/// show through.
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

/// Runs one shard of a campaign in this process: derives the compliance
/// cell and latency sample for every (device, evaluated app) pair in the
/// range, and validates the derivation with real ecosystem playbacks on
/// the seed-elected sample devices.
///
/// # Errors
///
/// [`CampaignError::Worker`] for an assignment outside the campaign.
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
    let apps = evaluated_apps();
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
    let mut latencies = Vec::new();
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
            latencies.push(modeled_latency_ms(spec.seed, device_id, app_idx, kind));
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

    wideleak_telemetry::incr("campaign.shards.run");
    Ok(ShardReport {
        shard_id: shard.shard_id,
        start: shard.start,
        end: shard.end,
        cells,
        latency: latencies.into_iter().collect(),
        sampled_plays,
        sample_mismatches,
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

/// Answers one call frame in a worker process with [`run_shard`]'s
/// report. Anything but a campaign call gets a typed refusal.
fn answer(frame: &[u8]) -> Vec<u8> {
    let reply = match decode_frame(frame) {
        Ok((FrameBody::CampaignCall { spec, shard }, _, _)) => run_shard(&spec, shard),
        Ok(_) => {
            Err(CampaignError::Protocol { what: "non-campaign frame on control channel".into() })
        }
        Err(e) => Err(CampaignError::Wire(e)),
    };
    encode_frame(&FrameBody::CampaignReply(reply), FrameMeta::default())
}

/// The worker side of the control channel (`wideleak serve --worker`):
/// answers each call frame read from `calls` with one reply frame on
/// `replies`, flushed at once.
///
/// A reader thread owns `calls`. When they end — the coordinator closed
/// the pipe or died — it flushes the trace sink and exits the process at
/// once, even mid-shard: with status 0 at a clean EOF, 1 on a read
/// error. So this returns only when a reply cannot be written.
///
/// # Errors
///
/// Writing a reply failed.
pub fn serve_worker(
    mut calls: impl Read + Send + 'static,
    mut replies: impl Write,
) -> std::io::Result<()> {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let status = loop {
            match read_frame(&mut calls) {
                Ok(Some(frame)) => {
                    let _ = tx.send(frame);
                }
                Ok(None) => break 0,
                Err(_) => break 1,
            }
        };
        wideleak_telemetry::trace::flush();
        std::process::exit(status);
    });
    for frame in rx {
        replies.write_all(&answer(&frame))?;
        replies.flush()?;
    }
    Ok(())
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
/// behind. (The worker also exits at EOF on the stdin pipe this guard
/// holds, so even an unceremoniously killed coordinator takes its
/// workers down with it.)
#[derive(Debug)]
pub struct WorkerProcess {
    child: Child,
    /// The worker's stdin and stdout, until [`run_campaign`] hands them
    /// to the thread driving its shard.
    pipes: Option<(ChildStdin, ChildStdout)>,
}

impl WorkerProcess {
    /// Starts a worker and takes its pipes. It reads nothing from the
    /// worker: a worker that cannot serve shows up at its first call.
    ///
    /// # Errors
    ///
    /// [`CampaignError::Spawn`] when the process cannot be started.
    pub fn spawn(cmd: &WorkerCommand) -> Result<Self, CampaignError> {
        let mut child = Command::new(&cmd.program)
            .args(&cmd.args)
            .arg("serve")
            .arg("--worker")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| CampaignError::Spawn {
                what: format!("{}: {e}", cmd.program.display()),
            })?;
        let pipes = (
            child.stdin.take().expect("worker stdin is piped"),
            child.stdout.take().expect("worker stdout is piped"),
        );
        Ok(WorkerProcess { child, pipes: Some(pipes) })
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
    /// Merged latency histogram (exact per-value count sums).
    pub latency: LatencyHistogram,
    /// Real playbacks run across all shards.
    pub sampled_plays: u64,
    /// Sampled playbacks disagreeing with the derived cell (expect 0).
    pub sample_mismatches: u64,
}

/// Merges per-shard reports into one campaign report. Validates that
/// the shards tile `0..spec.devices` exactly, then folds in ascending
/// shard order — the fold operations are commutative anyway, which is
/// precisely why the result is arrival-order-independent.
///
/// # Errors
///
/// [`CampaignError::Protocol`] when the shard ranges do not tile the
/// campaign range or a shard's app list is not the evaluated apps.
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

    let mut cells: Vec<AppCells> = evaluated_apps().iter().map(|p| AppCells::new(p.slug)).collect();
    let mut latency = LatencyHistogram::new();
    let mut sampled_plays = 0u64;
    let mut sample_mismatches = 0u64;
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
    }
    Ok(CampaignReport { spec: spec.clone(), cells, latency, sampled_plays, sample_mismatches })
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
        for (name, value) in [
            ("campaign.cells.derived", self.spec.devices * self.cells.len() as u64),
            ("campaign.devices", self.spec.devices),
            ("campaign.plays.mismatched", self.sample_mismatches),
            ("campaign.plays.sampled", self.sampled_plays),
        ] {
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
/// shard reports, and kills the workers.
///
/// # Errors
///
/// [`CampaignError::Spawn`] when a worker cannot be started,
/// [`CampaignError::ShardLost`] when one dies before replying or has not
/// replied within 600 s, plus the taxonomy's protocol, worker and wire
/// variants.
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

    // One driver thread per worker, holding only that worker's pipes:
    // run the shard, ship the result back. Shards stream in whatever
    // order workers finish; the merge makes that order invisible.
    let (tx, rx) = mpsc::channel();
    let mut handles = Vec::with_capacity(workers);
    for (shard_id, (guard, range)) in guards.iter_mut().zip(&ranges).enumerate() {
        let shard = ShardAssignment {
            shard_id: u32::try_from(shard_id).expect("shard id fits u32"),
            start: range.start as u64,
            end: range.end as u64,
        };
        let spec = config.spec.clone();
        let (stdin, stdout) = guard.pipes.take().expect("a spawned worker holds its pipes");
        let tx = tx.clone();
        handles.push(std::thread::spawn(move || {
            let _ = tx.send((shard_id, drive_worker(stdin, stdout, spec, shard)));
        }));
    }
    drop(tx);

    // Collect until every driver has reported or the deadline passes.
    // Dropping the guards then kills any worker still running, which
    // ends its driver's blocked read.
    let deadline = Instant::now() + SHARD_DEADLINE;
    let mut results = vec![None; workers];
    while let Ok((shard_id, result)) =
        rx.recv_timeout(deadline.saturating_duration_since(Instant::now()))
    {
        results[shard_id] = Some(result);
    }
    drop(guards);
    for handle in handles {
        let _ = handle.join();
    }
    let shards = results
        .into_iter()
        .zip(0u32..)
        .map(|(result, shard_id)| result.unwrap_or(Err(CampaignError::ShardLost { shard_id })))
        .collect::<Result<Vec<_>, _>>()?;
    merge_reports(&config.spec, shards)
}

/// Drives one worker through its shard: one call down its stdin, one
/// reply up its stdout, checked against the assignment. Pipes that
/// break first (the worker died or was killed) are a lost shard.
fn drive_worker(
    mut stdin: ChildStdin,
    mut stdout: ChildStdout,
    spec: CampaignSpec,
    shard: ShardAssignment,
) -> Result<ShardReport, CampaignError> {
    let lost = || CampaignError::ShardLost { shard_id: shard.shard_id };
    let call = encode_frame(&FrameBody::CampaignCall { spec, shard }, FrameMeta::default());
    stdin.write_all(&call).map_err(|_| lost())?;
    let frame = match read_frame(&mut stdout) {
        Ok(frame) => frame.ok_or_else(lost)?,
        // A header the codec rejects stays a typed wire error; any
        // other read failure is a lost worker.
        Err(e) => {
            return Err(match e.into_inner().map(|e| e.downcast::<WireError>()) {
                Some(Ok(wire)) => CampaignError::Wire(*wire),
                _ => lost(),
            })
        }
    };
    let (FrameBody::CampaignReply(reply), _, _) = decode_frame(&frame)? else {
        return Err(CampaignError::Protocol {
            what: "non-campaign frame on control channel".into(),
        });
    };
    let report = reply?;
    if (report.shard_id, report.start, report.end) != (shard.shard_id, shard.start, shard.end) {
        return Err(CampaignError::Protocol {
            what: format!(
                "shard {} echoed assignment {}..{} as {}..{}",
                shard.shard_id, shard.start, shard.end, report.start, report.end
            ),
        });
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_spec() -> CampaignSpec {
        CampaignSpec { seed: 7, devices: 24, sample_every: 0, rsa_bits: 768, kill_at_device: None }
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
        assert_eq!(
            (whole.sampled_plays, whole.sample_mismatches),
            (relabeled.sampled_plays, relabeled.sample_mismatches)
        );
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
    fn workers_answer_a_shard_call_and_refuse_other_frames_typed() {
        let reply = |frame: &[u8]| decode_frame(&answer(frame)).expect("a well-formed reply").0;
        let shard = ShardAssignment { shard_id: 2, start: 5, end: 5 };
        let call = encode_frame(
            &FrameBody::CampaignCall { spec: quick_spec(), shard },
            FrameMeta::default(),
        );
        assert_eq!(
            reply(&call),
            FrameBody::CampaignReply(Ok(run_shard(&quick_spec(), shard).unwrap()))
        );
        let drm = encode_frame(
            &FrameBody::Call(wideleak_android_drm::binder::DrmCall::IsProvisioned),
            FrameMeta::default(),
        );
        assert!(matches!(
            reply(&drm),
            FrameBody::CampaignReply(Err(CampaignError::Protocol { .. }))
        ));
        let mut garbled = call;
        *garbled.last_mut().unwrap() ^= 1;
        assert!(matches!(
            reply(&garbled),
            FrameBody::CampaignReply(Err(CampaignError::Wire(WireError::BadCrc { .. })))
        ));
    }
}
