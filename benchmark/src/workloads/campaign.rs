//! `campaign`: fleet scale — `monitor::campaign::run_campaign` over the
//! full 4096-device catalog sharded across two `wideleak serve --worker`
//! processes. It exercises process spawn, the wire-v3 control channel,
//! the sharded derivation of every (device, app) cell, one sampled
//! device's fresh-stack playbacks validating the derivation, and the
//! exact merge. The worker binary is the `wideleak` executable next to
//! the benchmark's own.
//!
//! A campaign's cost is set by how many devices its seed elects for
//! real playbacks, and that count is random (the `full` configuration's
//! one in 512 elects about 8, give or take 3). Each operation therefore
//! runs a campaign with its own seed, drawn from the run seed among the
//! seeds that elect exactly one device of the fleet: every operation
//! does the same amount of work, and a run averages over many fleets.
//! The first campaign runs twice and must render byte-identical reports.

use std::ops::Range;
use std::path::PathBuf;
use std::time::Instant;

use wideleak::android_drm::campaign::ShardAssignment;
use wideleak::load::partition;
use wideleak::monitor::campaign::{
    is_sampled, run_campaign, run_shard, CampaignConfig, CampaignReport, WorkerCommand,
    WorkerProcess,
};
use wideleak::telemetry::{trace, Snapshot};

use super::setup_err;
use crate::layers::{Layer, Tally};
use crate::report::Report;
use crate::stats::{fnv64, median, mix};
use crate::{BenchError, Workload, CAMPAIGN_SPAN};

/// Worker processes per campaign.
pub const WORKERS: usize = 2;

/// One in this many devices is elected for real playbacks, so a
/// campaign elects one device on average; operations use only seeds
/// that elect exactly one.
pub const SAMPLE_EVERY: u64 = 4096;

/// Apps every sampled device plays.
const APPS: usize = 10;

/// The set-up `campaign` workload.
pub struct Campaign {
    seed: u64,
    cmd: WorkerCommand,
    /// The first campaign's rendered report; its rerun must match it
    /// byte for byte.
    reference: Option<String>,
}

/// The worker binary: `wideleak` in the benchmark executable's
/// directory.
///
/// # Errors
///
/// [`BenchError::MissingWorkerBinary`] when it is not there.
pub fn worker_binary() -> Result<PathBuf, BenchError> {
    let exe = std::env::current_exe().map_err(setup_err("locating the benchmark executable"))?;
    let path = exe.with_file_name(format!("wideleak{}", std::env::consts::EXE_SUFFIX));
    if path.is_file() {
        Ok(path)
    } else {
        Err(BenchError::MissingWorkerBinary(path))
    }
}

/// Whether a merged report is internally consistent: every app's
/// cells cover every device, every elected device played every app,
/// and no sampled playback disagreed with its derived cell.
#[must_use]
pub fn report_checks(report: &CampaignReport) -> bool {
    report.sample_mismatches == 0
        && report.sampled_plays == APPS as u64
        && report.cells.len() == APPS
        && report.cells.iter().all(|c| c.counts.iter().sum::<u64>() == report.spec.devices)
}

/// The `full` campaign configuration on [`WORKERS`] workers, sampling
/// one in [`SAMPLE_EVERY`] devices.
fn full(seed: u64) -> CampaignConfig {
    let mut config = CampaignConfig { workers: WORKERS, ..CampaignConfig::full(seed) };
    config.spec.sample_every = SAMPLE_EVERY;
    config
}

/// The device ranges `run_campaign` hands its workers.
fn shards() -> Vec<Range<usize>> {
    partition(full(0).spec.devices as usize, WORKERS)
}

/// The configuration of a run's `k`-th distinct campaign: the first
/// seed, in a sequence derived from the run seed, that elects exactly
/// one device of the fleet.
#[must_use]
pub fn campaign_config(run_seed: u64, k: u64) -> CampaignConfig {
    (0u64..)
        .map(|j| full(mix(run_seed, k << 32 | j)))
        .find(|c| (0..c.spec.devices).filter(|&id| is_sampled(&c.spec, id)).take(2).count() == 1)
        .expect("about one seed in three qualifies")
}

impl Campaign {
    /// Locates the worker binary and runs one campaign without sampled
    /// playbacks, so the binary and its libraries are paged in before
    /// timing.
    ///
    /// # Errors
    ///
    /// The worker binary is missing or the warm-up campaign failed.
    pub fn set_up(seed: u64) -> Result<Self, BenchError> {
        let cmd = WorkerCommand { program: worker_binary()?, args: Vec::new() };
        let mut warm_up = full(seed);
        warm_up.spec.sample_every = 0;
        run_campaign(&warm_up, &cmd).map_err(setup_err("warm-up campaign"))?;
        Ok(Campaign { seed, cmd, reference: None })
    }
}

impl Workload for Campaign {
    fn op(&mut self, i: u64) -> bool {
        // Operation 1 reruns operation 0's campaign.
        let config = campaign_config(self.seed, if i == 1 { 0 } else { i });
        let result = {
            let _span = trace::span(CAMPAIGN_SPAN);
            run_campaign(&config, &self.cmd)
        };
        let Ok(report) = result else { return false };
        let checks = report_checks(&report);
        match i {
            0 => {
                self.reference = Some(report.render());
                checks
            }
            1 => checks && self.reference.as_deref() == Some(report.render().as_str()),
            _ => checks,
        }
    }

    fn cycle(&self) -> u64 {
        1
    }

    fn labels(&self, report: &mut Report) {
        let spec = full(self.seed).spec;
        report.label("devices", spec.devices);
        report.label("sample_every", spec.sample_every);
        report.label("sampled_devices", 1);
        report.label("rsa_bits", spec.rsa_bits);
        report.label("workers", WORKERS);
        report.label("load_threads", 1);
        if let Some(rendered) = &self.reference {
            report.label("first_report_fnv64", format!("{:016x}", fnv64(rendered.as_bytes())));
        }
    }

    /// The campaign's processes are opaque to this process's trace, so
    /// its time is split by measurement instead: worker spawns (timed
    /// through `WorkerProcess::spawn`), the slowest shard of the first
    /// campaign (each shard run in this process with `run_shard`), and
    /// the rest — control channel, merge and shutdown.
    fn refine(
        &self,
        tally: &mut Tally,
        _snapshot: &Snapshot,
        report: &mut Report,
    ) -> Result<(), BenchError> {
        let mut spawns = Vec::new();
        let mut workers = Vec::new();
        for _ in 0..WORKERS {
            let start = Instant::now();
            workers.push(
                WorkerProcess::spawn(&self.cmd).map_err(|e| BenchError::Probe(e.to_string()))?,
            );
            spawns.push(start.elapsed().as_secs_f64());
        }
        drop(workers);
        let spec = campaign_config(self.seed, 0).spec;
        let mut shard_times = Vec::new();
        for (id, range) in shards().into_iter().enumerate() {
            let shard = ShardAssignment {
                shard_id: id as u32,
                start: range.start as u64,
                end: range.end as u64,
            };
            let start = Instant::now();
            let done = run_shard(&spec, shard).map_err(|e| BenchError::Probe(e.to_string()))?;
            shard_times.push(start.elapsed().as_secs_f64());
            if done.sample_mismatches != 0 {
                return Err(BenchError::Probe(format!("shard {id} mismatched its samples")));
            }
        }
        let spawn_s = median(&spawns);
        let shard_s = shard_times.iter().copied().fold(0.0, f64::max);
        let ops = tally.ops as f64;
        let (spawn_ns, shard_ns) = (ops * WORKERS as f64 * spawn_s * 1e9, ops * shard_s * 1e9);
        if spawn_ns + shard_ns > tally.ns(Layer::CampaignControl) as f64 {
            report.notes.push(
                "note: spawn and shard estimates exceed the traced campaigns; control is clamped to 0"
                    .into(),
            );
        }
        tally.reassign(Layer::CampaignControl, Layer::CampaignSpawn, spawn_ns as u64);
        tally.reassign(Layer::CampaignControl, Layer::CampaignShard, shard_ns as u64);
        report.notes.push(format!("campaign worker spawn {:.3} ms each", spawn_s * 1e3));
        for (id, s) in shard_times.iter().enumerate() {
            report.notes.push(format!("campaign shard {id} in this process {:.3} ms", s * 1e3));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use wideleak::monitor::campaign::merge_reports;

    use super::*;

    /// Merges a campaign's shards run in this process, as the workers
    /// would run them.
    fn in_process(config: &CampaignConfig) -> CampaignReport {
        let reports = shards()
            .into_iter()
            .enumerate()
            .map(|(id, r)| {
                let shard = ShardAssignment {
                    shard_id: id as u32,
                    start: r.start as u64,
                    end: r.end as u64,
                };
                run_shard(&config.spec, shard).expect("in-range shard")
            })
            .collect();
        merge_reports(&config.spec, reports).expect("shards tile the catalog")
    }

    #[test]
    fn campaign_seeds_are_deterministic_and_elect_one_device() {
        let config = campaign_config(2022, 0);
        assert_eq!(config.spec.seed, campaign_config(2022, 0).spec.seed);
        assert_ne!(config.spec.seed, campaign_config(2022, 2).spec.seed);
        assert_eq!((config.workers, config.spec.devices), (WORKERS, 4096));
        let sampled = (0..config.spec.devices).filter(|&id| is_sampled(&config.spec, id)).count();
        assert_eq!(sampled, 1);
    }

    #[test]
    fn the_report_checker_accepts_a_real_campaign_and_rejects_damage() {
        let _lock = crate::tests::run_lock();
        let report = in_process(&campaign_config(5, 0));
        assert!(report_checks(&report), "{}", report.render());
        assert_eq!(report.render(), in_process(&campaign_config(5, 0)).render(), "deterministic");

        let mut mismatched = report.clone();
        mismatched.sample_mismatches = 1;
        assert!(!report_checks(&mismatched));
        let mut short = report.clone();
        *short.cells[3].counts.iter_mut().find(|c| **c > 0).expect("hulu has cells") -= 1;
        assert!(!report_checks(&short));
        let mut unsampled = report;
        unsampled.sampled_plays -= 1;
        assert!(!report_checks(&unsampled));
    }

    #[test]
    fn a_missing_worker_binary_is_a_typed_error_naming_it() {
        // Test executables live in `deps/`, where no `wideleak` is built.
        match worker_binary() {
            Err(BenchError::MissingWorkerBinary(path)) => {
                assert!(path.ends_with(format!("wideleak{}", std::env::consts::EXE_SUFFIX)));
                let message = BenchError::MissingWorkerBinary(path.clone()).to_string();
                assert!(message.contains(&path.display().to_string()), "{message}");
            }
            other => panic!("expected a missing-binary error, got {other:?}"),
        }
    }
}
