//! The sharded-campaign differential battery: the merged report is a
//! pure function of (spec, seed, catalog), so its rendered bytes must
//! be identical across worker counts and across same-seed re-runs; a
//! lost worker must surface as a typed error (never a hang) and leave
//! no orphaned processes behind.
//!
//! These tests spawn the real `wideleak` binary in `serve --worker`
//! mode, so they exercise the whole stack: process spawn, the wire-v3
//! campaign frames on each worker's stdin and stdout, per-shard
//! measurement, and the exact merge.

use std::io::Write;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use wideleak::android_drm::campaign::{
    CampaignCall, CampaignError, CampaignReply, ShardAssignment,
};
use wideleak::android_drm::wire::{decode_frame, encode_frame, read_frame, FrameBody, FrameMeta};
use wideleak::load::LatencySummary;
use wideleak::monitor::campaign::{run_campaign, CampaignConfig, WorkerCommand, WorkerProcess};
use wideleak::telemetry::LatencyHistogram;

/// The package's own `wideleak` binary, which Cargo always builds
/// before running this package's integration tests.
fn wideleak_bin() -> WorkerCommand {
    WorkerCommand { program: PathBuf::from(env!("CARGO_BIN_EXE_wideleak")), args: Vec::new() }
}

#[test]
fn report_bytes_are_invariant_across_worker_counts_and_reruns() {
    let cmd = wideleak_bin();
    let render = |workers: usize| {
        let config = CampaignConfig { workers, ..CampaignConfig::quick(2022) };
        run_campaign(&config, &cmd).expect("campaign runs clean").render()
    };
    let one = render(1);
    let two = render(2);
    let four = render(4);
    assert_eq!(one, two, "1-worker and 2-worker reports diverge");
    assert_eq!(two, four, "2-worker and 4-worker reports diverge");
    // Same seed, same bytes — scheduling and arrival order are invisible.
    assert_eq!(two, render(2), "same-seed re-run diverges");
    // The report is genuinely seed-dependent, not constant.
    let config = CampaignConfig { workers: 2, ..CampaignConfig::quick(7) };
    let other = run_campaign(&config, &cmd).expect("campaign runs clean").render();
    assert_ne!(two, other, "reports ignore the seed");
}

#[test]
fn unknown_flags_are_usage_errors_not_ignored() {
    // A flag this build does not know fails the command instead of
    // running the default campaign.
    for flag in ["--devices", "--sample-every", "--no-such-flag"] {
        let out = Command::new(wideleak_bin().program)
            .args(["--quick", "campaign", flag, "5"])
            .output()
            .expect("wideleak runs");
        assert_eq!(out.status.code(), Some(1), "{flag} was accepted");
        assert!(out.stdout.is_empty(), "{flag} ran a campaign");
    }
}

#[test]
fn killed_worker_is_a_typed_shard_loss_and_a_retry_recovers() {
    let cmd = wideleak_bin();
    let mut config = CampaignConfig::quick(2022);
    config.workers = 2;
    // Device 30 lands in shard 1 (24..48): that worker dies mid-shard.
    config.spec.kill_at_device = Some(30);
    let started = Instant::now();
    let err = run_campaign(&config, &cmd).expect_err("a dead worker cannot yield a report");
    assert!(
        matches!(err, CampaignError::ShardLost { shard_id: 1 }),
        "expected ShardLost for shard 1, got {err:?}"
    );
    assert!(
        started.elapsed() < Duration::from_secs(60),
        "shard loss took {:?} to surface — the coordinator hung",
        started.elapsed()
    );
    // A clean retry with the same seed produces the canonical report.
    config.spec.kill_at_device = None;
    let retried = run_campaign(&config, &cmd).expect("retry runs clean").render();
    let reference =
        run_campaign(&CampaignConfig::quick(2022), &cmd).expect("reference runs clean").render();
    assert_eq!(retried, reference, "post-crash retry diverges from the canonical report");
}

#[test]
fn dropped_worker_guard_kills_and_reaps_the_child() {
    let worker = WorkerProcess::spawn(&wideleak_bin()).expect("worker spawns");
    let pid = worker.pid();
    assert!(
        std::path::Path::new(&format!("/proc/{pid}")).exists(),
        "worker {pid} should be alive while the guard is held"
    );
    drop(worker);
    // Drop kills and reaps synchronously: the pid is gone — not even a
    // zombie — the moment drop returns.
    assert!(
        !std::path::Path::new(&format!("/proc/{pid}")).exists(),
        "worker {pid} survived its drop guard"
    );
}

#[test]
fn a_worker_opens_no_socket() {
    let worker = WorkerProcess::spawn(&wideleak_bin()).expect("worker spawns");
    let fds = std::fs::read_dir(format!("/proc/{}/fd", worker.pid())).expect("fd table readable");
    let sockets: Vec<PathBuf> = fds
        .filter_map(|fd| std::fs::read_link(fd.ok()?.path()).ok())
        .filter(|link| link.to_string_lossy().starts_with("socket:"))
        .collect();
    assert!(sockets.is_empty(), "worker {} holds {sockets:?}", worker.pid());
}

/// Spawns a worker by hand (not via the guard), sends it `Hello` and
/// then `calls`, and about 200 ms later severs only its stdin, as a
/// coordinator killed with SIGKILL would. The worker must exit 0 within
/// 10 s on its own, before answering any of `calls`.
fn assert_worker_exits_when_its_stdin_closes(calls: &[CampaignCall]) {
    let mut child = Command::new(wideleak_bin().program)
        .args(["serve", "--worker"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("worker spawns");
    let mut stdin = child.stdin.take().expect("stdin piped");
    let mut stdout = child.stdout.take().expect("stdout piped");
    let hello = encode_frame(&FrameBody::CampaignCall(CampaignCall::Hello), FrameMeta::default());
    stdin.write_all(&hello).unwrap();
    let ack = read_frame(&mut stdout).expect("reply readable").expect("worker answers Hello");
    assert!(
        matches!(
            decode_frame(&ack),
            Ok((FrameBody::CampaignReply(Ok(CampaignReply::HelloAck { .. })), _, _))
        ),
        "bad Hello answer {ack:?}"
    );
    for call in calls {
        let frame = encode_frame(&FrameBody::CampaignCall(call.clone()), FrameMeta::default());
        stdin.write_all(&frame).unwrap();
    }
    std::thread::sleep(Duration::from_millis(200));
    drop(stdin);
    let deadline = Instant::now() + Duration::from_secs(10);
    let status = loop {
        match child.try_wait().expect("try_wait") {
            Some(status) => break Some(status),
            None if Instant::now() > deadline => break None,
            None => std::thread::sleep(Duration::from_millis(20)),
        }
    };
    if status.is_none() {
        let _ = child.kill();
        let _ = child.wait();
    }
    assert!(
        status.is_some_and(|s| s.success()),
        "worker did not exit 0 within 10s of its stdin closing ({status:?})"
    );
    // The calls were still running: the worker answered none of them.
    assert_eq!(read_frame(&mut stdout).expect("stdout readable"), None);
}

#[test]
fn worker_exits_when_the_coordinator_pipe_closes() {
    assert_worker_exits_when_its_stdin_closes(&[]);
}

#[test]
fn busy_worker_exits_mid_shard_when_the_coordinator_pipe_closes() {
    // Every one of the 4096 devices plays every app for real: the shard
    // would run for minutes, so the worker is mid-shard when the pipe
    // closes.
    let mut spec = CampaignConfig::full(2022).spec;
    spec.sample_every = 1;
    let shard = ShardAssignment { shard_id: 0, start: 0, end: spec.devices };
    assert_worker_exits_when_its_stdin_closes(&[CampaignCall::RunShard { spec, shard }]);
}

/// The raw-sample oracle: nearest-rank statistics over the sorted
/// concatenation of every shard's samples.
fn oracle(shards: &[Vec<u64>]) -> LatencySummary {
    let mut all: Vec<u64> = shards.iter().flatten().copied().collect();
    if all.is_empty() {
        return LatencySummary::default();
    }
    all.sort_unstable();
    let n = all.len();
    let q = |num: usize, den: usize| all[(n - 1) * num / den];
    LatencySummary {
        count: n as u64,
        min_ms: all[0],
        mean_ms: all.iter().sum::<u64>() / n as u64,
        p50_ms: q(50, 100),
        p95_ms: q(95, 100),
        p99_ms: q(99, 100),
        max_ms: all[n - 1],
    }
}

/// Builds one histogram per shard and merges them pairwise, as the
/// coordinator does.
fn merged(shards: &[Vec<u64>]) -> LatencyHistogram {
    let mut total = LatencyHistogram::new();
    for shard in shards {
        let mut h = LatencyHistogram::new();
        for &ms in shard {
            h.record(ms);
        }
        total.merge(&h);
    }
    total
}

#[test]
fn merge_oracle_edge_cases() {
    // All shards empty.
    assert_eq!(LatencySummary::from_histogram(&merged(&[vec![], vec![]])), oracle(&[vec![]]));
    // A single sample in one shard, the others empty.
    let shards = vec![vec![], vec![42], vec![]];
    assert_eq!(LatencySummary::from_histogram(&merged(&shards)), oracle(&shards));
    // Outliers are kept exactly, not clamped.
    let shards = vec![vec![100_000, 3], vec![511, 512]];
    let summary = LatencySummary::from_histogram(&merged(&shards));
    assert_eq!(summary, oracle(&shards));
    assert_eq!(summary.max_ms, 100_000);
}

proptest::proptest! {
    /// For any sharding of any sample set, the percentile summary of
    /// the merged histogram equals the nearest-rank summary of the
    /// concatenated raw samples. Keeping every distinct value makes the
    /// merge *exact*, not approximate — this is what lets the campaign
    /// report stay byte-identical across worker counts.
    #[test]
    fn merged_histogram_percentiles_match_concatenated_samples(
        shards in proptest::collection::vec(
            proptest::collection::vec(0u64..1_000_000, 0..40),
            0..6,
        )
    ) {
        proptest::prop_assert_eq!(
            LatencySummary::from_histogram(&merged(&shards)),
            oracle(&shards)
        );
    }
}
