//! The Q5 resilience study: sweep deterministic fault schedules over the
//! evaluated apps and observe how each client's resilience policy copes.
//!
//! Where Q1–Q4 ask what the apps *protect*, Q5 asks what they *survive*:
//! for every (scenario, app) cell a fresh ecosystem is booted with a
//! seeded [`FaultPlan`] attached, the app plays the study title on a
//! modern device, and the outcome is classified from the playback result
//! plus the client's own [`RetryStatsSnapshot`] — recovered via
//! retry/renewal, degraded to L3-class quality, retry-stormed until the
//! budget ran dry, or failed closed on first contact.
//!
//! Every cell gets its own ecosystem so `Once`/`FirstN` schedules fire
//! identically for every app; with the plans seeded and the clock
//! virtual, the whole report is a pure function of the seed.

use wideleak_android_drm::binder::TransportKind;
use wideleak_device::catalog::DeviceModel;
use wideleak_faults::{FaultKind, FaultPlan, ResiliencePolicy, Schedule};
use wideleak_ott::apps::RetryStatsSnapshot;
use wideleak_ott::ecosystem::{Ecosystem, EcosystemConfig};

use crate::study::STUDY_TITLE;

/// One named fault schedule the sweep applies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultScenario {
    /// Stable scenario slug (also the report column header).
    pub name: &'static str,
    /// What the schedule simulates.
    pub description: &'static str,
    /// The plan attached to every ecosystem of this scenario.
    pub plan: FaultPlan,
}

/// The sweep's fault schedules, in report-column order.
///
/// Each one targets a different seam of the stack: license-server 5xx
/// bursts, a truncated manifest body, persistent CDN corruption of the
/// HD rendition, a dead binder channel, and a device-clock jump past the
/// license duration.
pub fn scenarios() -> Vec<FaultScenario> {
    vec![
        FaultScenario {
            name: "license-5xx-burst",
            description: "license server returns errors for the first two requests",
            plan: FaultPlan::builder()
                .server_fault("license/", FaultKind::ErrorCode, Schedule::FirstN { n: 2 })
                .build(),
        },
        FaultScenario {
            name: "manifest-truncated-once",
            description: "the first manifest body arrives truncated to 7 bytes",
            plan: FaultPlan::builder()
                .server_fault(
                    "manifest/",
                    FaultKind::TruncateBody { keep: 7 },
                    Schedule::Once { at: 0 },
                )
                .build(),
        },
        FaultScenario {
            name: "hd-cdn-corruption",
            description: "every 1080p asset body is garbled by the CDN",
            plan: FaultPlan::builder()
                .server_fault("video-1080", FaultKind::GarbleBody, Schedule::Always)
                .build(),
        },
        FaultScenario {
            name: "binder-drop-storm",
            description: "every decrypt transaction dies on the binder",
            plan: FaultPlan::builder()
                .binder_fault("decrypt_sample", FaultKind::Drop, Schedule::Always)
                .build(),
        },
        FaultScenario {
            name: "license-expiry-skew",
            description: "the device clock jumps two days before the first decrypt",
            plan: FaultPlan::builder()
                .binder_fault(
                    "decrypt_sample",
                    FaultKind::ClockSkew { secs: 172_800 },
                    Schedule::Once { at: 0 },
                )
                .build(),
        },
    ]
}

/// How one app weathered one fault scenario.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// Played with no resilience machinery engaged.
    Played,
    /// Played, but only after retries and/or a license renewal.
    Recovered {
        /// Retries spent getting there.
        retries: u64,
    },
    /// Played at degraded (L3-class) quality after abandoning HD.
    Degraded,
    /// Burned the whole retry budget and still failed.
    RetryStorm {
        /// Retries spent before giving up.
        retries: u64,
    },
    /// Failed without the policy absorbing anything.
    FailedClosed,
}

impl Outcome {
    /// The report-cell label.
    pub fn label(&self) -> String {
        match self {
            Outcome::Played => "plays".to_owned(),
            Outcome::Recovered { retries: 0 } => "recovers (renewal)".to_owned(),
            Outcome::Recovered { retries } => format!("recovers ({retries} retries)"),
            Outcome::Degraded => "degrades to L3".to_owned(),
            Outcome::RetryStorm { retries } => format!("retry storm ({retries} retries)"),
            Outcome::FailedClosed => "fails closed".to_owned(),
        }
    }
}

/// One (scenario, app) cell of the sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResilienceCell {
    /// Scenario slug.
    pub scenario: &'static str,
    /// App display name.
    pub app_name: String,
    /// The classified outcome.
    pub outcome: Outcome,
    /// The client's own resilience accounting.
    pub stats: RetryStatsSnapshot,
    /// Faults the injector actually fired during the cell.
    pub faults_injected: u64,
}

/// The full Q5 report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResilienceReport {
    /// Every cell, scenario-major in sweep order.
    pub cells: Vec<ResilienceCell>,
}

impl ResilienceReport {
    /// Looks one cell up.
    pub fn cell(&self, scenario: &str, app_name: &str) -> Option<&ResilienceCell> {
        self.cells.iter().find(|c| c.scenario == scenario && c.app_name == app_name)
    }

    /// Apps that recovered (retries or renewal) in at least one scenario.
    pub fn recovered_apps(&self) -> Vec<&str> {
        self.apps_with(|o| matches!(o, Outcome::Recovered { .. }))
    }

    /// Apps that degraded to L3-class playback in at least one scenario.
    pub fn degraded_apps(&self) -> Vec<&str> {
        self.apps_with(|o| matches!(o, Outcome::Degraded))
    }

    /// Apps that retry-stormed in at least one scenario.
    pub fn storming_apps(&self) -> Vec<&str> {
        self.apps_with(|o| matches!(o, Outcome::RetryStorm { .. }))
    }

    fn apps_with(&self, pred: impl Fn(&Outcome) -> bool) -> Vec<&str> {
        let mut apps: Vec<&str> = Vec::new();
        for cell in &self.cells {
            if pred(&cell.outcome) && !apps.contains(&cell.app_name.as_str()) {
                apps.push(&cell.app_name);
            }
        }
        apps
    }
}

/// Classifies one cell from the playback result and the client's stats.
fn classify(played: bool, stats: RetryStatsSnapshot, policy: &ResiliencePolicy) -> Outcome {
    if played {
        if stats.l3_fallbacks > 0 {
            Outcome::Degraded
        } else if stats.retries > 0 || stats.renewals > 0 {
            Outcome::Recovered { retries: stats.retries }
        } else {
            Outcome::Played
        }
    } else if stats.retries >= u64::from(policy.max_retries) {
        Outcome::RetryStorm { retries: stats.retries }
    } else {
        Outcome::FailedClosed
    }
}

/// Runs the resilience sweep: every scenario against every evaluated app
/// (`quick` limits the sweep to the first four apps for CI).
///
/// Determinism contract: the report is a pure function of `seed` — each
/// cell boots a fresh ecosystem with the scenario's plan and the same
/// seed, so two runs produce identical reports.
pub fn run_resilience_study(seed: u64, quick: bool) -> ResilienceReport {
    run_resilience_study_on(seed, quick, TransportKind::InProcess)
}

/// [`run_resilience_study`] with an explicit binder transport — the
/// differential battery runs the same sweep over both and pins
/// byte-identical `render_q5` output.
pub fn run_resilience_study_on(
    seed: u64,
    quick: bool,
    transport: TransportKind,
) -> ResilienceReport {
    let _span = wideleak_telemetry::span!("resilience.run");
    let policy = ResiliencePolicy::default();
    let mut cells = Vec::new();
    for scenario in scenarios() {
        let _scenario_span = wideleak_telemetry::span!("resilience.scenario", name = scenario.name);
        let roster = Ecosystem::new(EcosystemConfig::fast_for_tests());
        let slugs: Vec<String> = roster.profiles().iter().map(|p| p.slug.to_owned()).collect();
        let take = if quick { 4 } else { slugs.len() };
        for slug in slugs.iter().take(take) {
            cells.push(run_cell(&scenario, slug, seed, &policy, transport));
        }
    }
    wideleak_telemetry::add("resilience.cells", cells.len() as u64);
    ResilienceReport { cells }
}

/// Runs one (scenario, app) cell on a fresh ecosystem so per-plan
/// schedules (`Once`, `FirstN`) start from zero for every app.
fn run_cell(
    scenario: &FaultScenario,
    slug: &str,
    seed: u64,
    policy: &ResiliencePolicy,
    transport: TransportKind,
) -> ResilienceCell {
    let mut config = EcosystemConfig::fast_with_faults(scenario.plan.clone());
    config.seed = seed;
    config.resilience = policy.clone();
    config.transport = transport;
    let eco = Ecosystem::new(config);
    let stack = eco.boot_device(DeviceModel::pixel_6(), false);
    let app = eco.install_app(&stack, slug, "resilience-probe");
    let played = app.play(STUDY_TITLE).is_ok();
    let stats = app.retry_stats();
    ResilienceCell {
        scenario: scenario.name,
        app_name: eco.profile(slug).expect("known slug").name.to_owned(),
        outcome: classify(played, stats, policy),
        stats,
        faults_injected: eco.fault_injector().injected_count(),
    }
}

/// Renders the Q5 report as an ASCII table: one row per app, one column
/// per scenario.
pub fn render_q5(report: &ResilienceReport) -> String {
    let mut apps: Vec<&str> = Vec::new();
    for cell in &report.cells {
        if !apps.contains(&cell.app_name.as_str()) {
            apps.push(&cell.app_name);
        }
    }
    let columns: Vec<&str> = scenarios().iter().map(|s| s.name).collect();

    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut header = vec!["OTT".to_owned()];
    header.extend(columns.iter().map(|c| (*c).to_owned()));
    rows.push(header);
    for app in &apps {
        let mut row = vec![(*app).to_owned()];
        for col in &columns {
            row.push(report.cell(col, app).map_or_else(|| "-".to_owned(), |c| c.outcome.label()));
        }
        rows.push(row);
    }

    let cols = rows[0].len();
    let widths: Vec<usize> =
        (0..cols).map(|c| rows.iter().map(|r| r[c].len()).max().unwrap_or(0)).collect();
    let mut out = String::new();
    for (i, row) in rows.iter().enumerate() {
        for (c, cell) in row.iter().enumerate() {
            out.push_str(&format!("{:width$}  ", cell, width = widths[c]));
        }
        out.push('\n');
        if i == 0 {
            out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
            out.push('\n');
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_plans_are_distinct_and_named() {
        let list = scenarios();
        assert_eq!(list.len(), 5);
        for s in &list {
            assert!(!s.plan.is_empty(), "{} must carry rules", s.name);
        }
        let mut names: Vec<_> = list.iter().map(|s| s.name).collect();
        names.dedup();
        assert_eq!(names.len(), 5);
    }

    #[test]
    fn classify_prefers_degradation_over_recovery() {
        let policy = ResiliencePolicy::default();
        let stats = RetryStatsSnapshot { retries: 3, timeouts: 0, l3_fallbacks: 1, renewals: 0 };
        assert_eq!(classify(true, stats, &policy), Outcome::Degraded);
    }

    #[test]
    fn classify_storm_requires_spent_budget() {
        let policy = ResiliencePolicy::default();
        let spent = RetryStatsSnapshot { retries: 3, timeouts: 0, l3_fallbacks: 0, renewals: 0 };
        let fresh = RetryStatsSnapshot { retries: 0, timeouts: 0, l3_fallbacks: 0, renewals: 0 };
        assert_eq!(classify(false, spent, &policy), Outcome::RetryStorm { retries: 3 });
        assert_eq!(classify(false, fresh, &policy), Outcome::FailedClosed);
    }

    #[test]
    fn quick_sweep_produces_expected_shape() {
        let report = run_resilience_study(7, true);
        assert_eq!(report.cells.len(), scenarios().len() * 4);
        assert!(!report.recovered_apps().is_empty(), "someone must recover via retries");
        assert!(!report.degraded_apps().is_empty(), "someone must degrade to L3");
        let rendered = render_q5(&report);
        assert!(rendered.contains("license-5xx-burst"));
        assert!(rendered.lines().count() >= 6);
    }
}
