//! `attack`: the paper's §IV-D result — `attack::recover::attack_app` on
//! a freshly booted, rooted Nexus 5 per operation, sweeping the ten apps
//! in Table-I order. Every attack provisions a new device, so the RSA
//! cost is key generation (1024-bit keys, as the repository's benches
//! use), and the attack stages — memory scan, key ladder, media
//! reconstruction — run nowhere else. The in-process binder transport
//! keeps the wire out of this workload.

use std::collections::HashSet;

use wideleak::attack::recover::{attack_app, AttackOutcome, ATTACK_TITLE};
use wideleak::ott::content::{TrackSelector, L3_MAX_HEIGHT};
use wideleak::ott::ecosystem::{Ecosystem, EcosystemConfig};
use wideleak::telemetry::Snapshot;

use super::plaintext_track;
use crate::layers::{Layer, Tally};
use crate::report::Report;
use crate::{BenchError, Workload};

/// Device RSA key size.
pub const RSA_BITS: usize = 768;

/// The apps the attack recovers DRM-free 960×540 media from (§IV-D);
/// it is blocked on the other four (revocation on Disney+, HBO Max and
/// Starz, Amazon's embedded DRM on L3).
pub const VULNERABLE: [&str; 6] = ["netflix", "hulu", "mycanal", "showtime", "ocs", "salto"];

/// The collector spans `attack_app` records, in pipeline order.
const STAGES: [&str; 5] = [
    "attack.stage.playback",
    "attack.stage.memscan",
    "attack.stage.recover_rsa_key",
    "attack.stage.recover_content_keys",
    "attack.stage.reconstruct",
];

/// The set-up `attack` workload.
pub struct Attack {
    eco: Ecosystem,
    slugs: Vec<&'static str>,
    /// The recovered 540p video each vulnerable app must yield, `None`
    /// for apps the attack must fail on.
    expected: Vec<Option<Vec<Vec<u8>>>>,
}

/// The 540p video the attack must recover from a vulnerable app.
fn recovered_video(app: &str) -> Vec<Vec<u8>> {
    plaintext_track(app, ATTACK_TITLE, &TrackSelector::Video { height: L3_MAX_HEIGHT })
}

/// Whether one attack outcome is the paper's.
#[must_use]
pub fn outcome_checks(outcome: &AttackOutcome, expected: Option<&Vec<Vec<u8>>>) -> bool {
    let Some(video) = expected else { return !outcome.succeeded() };
    let Some(media) = outcome.media.as_ref().filter(|_| outcome.succeeded()) else { return false };
    media.best_resolution() == Some((960, L3_MAX_HEIGHT))
        && media.tracks.iter().any(|t| t.rep_id == "video-540p" && &t.samples == video)
}

impl Attack {
    /// Boots the ecosystem and runs one warm-up sweep, so every app's
    /// CDN packaging is in place before timing.
    ///
    /// # Errors
    ///
    /// A warm-up attack did not end as the paper reports.
    pub fn set_up(seed: u64) -> Result<Self, BenchError> {
        let eco = Ecosystem::new(EcosystemConfig {
            seed,
            rsa_bits: RSA_BITS,
            ..EcosystemConfig::default()
        });
        let slugs: Vec<&'static str> = eco.profiles().iter().map(|p| p.slug).collect();
        let expected = slugs
            .iter()
            .map(|slug| VULNERABLE.contains(slug).then(|| recovered_video(slug)))
            .collect();
        let mut attack = Attack { eco, slugs, expected };
        for i in 0..attack.cycle() {
            if !attack.op(i) {
                return Err(BenchError::Setup(format!(
                    "warm-up attack on {}",
                    attack.slugs[i as usize]
                )));
            }
        }
        Ok(attack)
    }
}

impl Workload for Attack {
    fn op(&mut self, i: u64) -> bool {
        let app = (i % self.slugs.len() as u64) as usize;
        outcome_checks(&attack_app(&self.eco, self.slugs[app]), self.expected[app].as_ref())
    }

    fn cycle(&self) -> u64 {
        self.slugs.len() as u64
    }

    fn labels(&self, report: &mut Report) {
        report.label("rsa_bits", RSA_BITS);
        report.label("transport", "in-process");
        report.label("device", "nexus_5(L3, rooted, fresh per op)");
        report.label("load_threads", 1);
    }

    /// Splits the attack's time with the collector spans `attack_app`
    /// and the backend record: the victim playback outside its binder
    /// calls goes to the app layer, the other stages (and the device
    /// boot before them) to the attack layer, and backend requests made
    /// in either to the backend layer. Every binder call of an attack
    /// happens inside its playback stage.
    fn refine(
        &self,
        tally: &mut Tally,
        snapshot: &Snapshot,
        report: &mut Report,
    ) -> Result<(), BenchError> {
        let total = |name: &str| -> u64 {
            snapshot.spans.iter().filter(|s| s.name == name).map(|s| s.duration_ns).sum()
        };
        let playback_ids: HashSet<u64> =
            snapshot.spans.iter().filter(|s| s.name == STAGES[0]).map(|s| s.id).collect();
        let (mut backend_in_playback, mut backend_elsewhere) = (0, 0);
        for s in snapshot.spans.iter().filter(|s| s.name == "ott.server.request") {
            match s.parent {
                Some(p) if playback_ids.contains(&p) => backend_in_playback += s.duration_ns,
                _ => backend_elsewhere += s.duration_ns,
            }
        }
        let whole = total("attack.app");
        let playback = total(STAGES[0]);
        let in_calls = tally.root_ns - tally.ns(Layer::Bench);
        tally.reassign(Layer::Bench, Layer::Attack, whole.saturating_sub(playback));
        tally.reassign(Layer::Bench, Layer::OttApp, playback.saturating_sub(in_calls));
        tally.reassign(Layer::OttApp, Layer::OttBackend, backend_in_playback);
        tally.reassign(Layer::Attack, Layer::OttBackend, backend_elsewhere);
        let ops = tally.ops.max(1) as f64;
        let stages: u64 = STAGES.iter().map(|s| total(s)).sum();
        for (name, ns) in STAGES
            .iter()
            .map(|s| (*s, total(s)))
            .chain([("attack.boot (outside the stages)", whole.saturating_sub(stages))])
        {
            report.notes.push(format!("stage {name:<36} {:>10.3} ms/op", ns as f64 / 1e6 / ops));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_outcome_checker_holds_attacks_to_the_papers_result() {
        let _lock = crate::tests::run_lock();
        let eco = Ecosystem::new(EcosystemConfig {
            seed: 4,
            rsa_bits: RSA_BITS,
            ..EcosystemConfig::default()
        });
        let video = recovered_video("ocs");
        let leaked = attack_app(&eco, "ocs");
        assert!(outcome_checks(&leaked, Some(&video)));
        assert!(!outcome_checks(&leaked, None), "a leak where the paper reports a block");
        let mut tampered = leaked;
        let track = tampered
            .media
            .as_mut()
            .unwrap()
            .tracks
            .iter_mut()
            .find(|t| t.rep_id == "video-540p")
            .unwrap();
        track.samples[0][0] ^= 1;
        assert!(!outcome_checks(&tampered, Some(&video)));

        let blocked = attack_app(&eco, "disney");
        assert!(outcome_checks(&blocked, None));
        assert!(!outcome_checks(&blocked, Some(&video)));
    }
}
