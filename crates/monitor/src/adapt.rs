//! The adaptation study: DRM behaviour *under bandwidth adaptation*.
//!
//! For every (congestion scenario, app) cell a fresh ecosystem is booted
//! with a [`BandwidthConfig`] attached, a small fleet of clients plays
//! the study title adaptively, and the cell aggregates what the rate
//! controller and the DRM plane did: representation switches up/down,
//! licenses fetched (per-tier key rotation makes every switch a real
//! license round-trip for apps with visible key ids — and exactly one
//! open license for apps that hide them), rebuffer ratio, and the peak
//! license-renewal storm (most licenses landing in any one wall-clock
//! window across the fleet).
//!
//! Every client gets its own seeded link on a private local timeline, so
//! the whole report is a pure function of the seed — byte-identical
//! across runs, the same determinism contract as Table I and Q5.

use wideleak_device::catalog::DeviceModel;
use wideleak_ott::adapt::AdaptConfig;
use wideleak_ott::apps::evaluated_apps;
use wideleak_ott::bandwidth::{BandwidthConfig, BandwidthSchedule};
use wideleak_ott::ecosystem::{Ecosystem, EcosystemConfig};

use crate::report::render_grid;
use crate::study::STUDY_TITLE;

/// Wall-clock window for the renewal-storm metric: the peak number of
/// license fetches landing inside any window of this width across the
/// cell's whole fleet.
pub const STORM_WINDOW_MS: u64 = 8_000;

/// One named congestion scenario the sweep applies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CongestionScenario {
    /// Stable scenario slug (also the report column header).
    pub name: &'static str,
    /// What the schedule simulates.
    pub description: &'static str,
    /// The bandwidth model attached to every ecosystem of this scenario.
    pub bandwidth: BandwidthConfig,
}

/// The sweep's congestion scenarios, in report-column order.
///
/// Against the demo ladder (540p = 1.08, 720p = 1.44, 1080p = 2.16
/// Mbps declared) each one exercises a different controller regime:
/// steady headroom (climb to the top), a mid-session constriction
/// (downswitch and stay), a full outage (stall, rebuffer, recover),
/// and an oscillating link (switch churn and license storms).
pub fn scenarios() -> Vec<CongestionScenario> {
    vec![
        CongestionScenario {
            name: "steady-3mbps",
            description: "constant 3 Mbps: headroom for the full ladder",
            bandwidth: BandwidthConfig::flat(3_000_000),
        },
        CongestionScenario {
            name: "step-down",
            description: "4 Mbps constricting to 1.2 Mbps at t=20s",
            bandwidth: BandwidthConfig {
                schedule: BandwidthSchedule::steps(vec![(0, 4_000_000), (20_000, 1_200_000)]),
                burst_bits: 2_000_000,
                spread_permille: 100,
            },
        },
        CongestionScenario {
            name: "outage-recovery",
            description: "2 Mbps with a dead link from t=16s to t=24s",
            bandwidth: BandwidthConfig {
                schedule: BandwidthSchedule::steps(vec![
                    (0, 2_000_000),
                    (16_000, 0),
                    (24_000, 2_000_000),
                ]),
                burst_bits: 2_000_000,
                spread_permille: 100,
            },
        },
        CongestionScenario {
            name: "oscillating",
            description: "2.5 Mbps and 1.0 Mbps alternating every 12s",
            bandwidth: BandwidthConfig {
                schedule: BandwidthSchedule::steps(vec![
                    (0, 2_500_000),
                    (12_000, 1_000_000),
                    (24_000, 2_500_000),
                    (36_000, 1_000_000),
                    (48_000, 2_500_000),
                ]),
                burst_bits: 2_000_000,
                spread_permille: 100,
            },
        },
    ]
}

/// One (scenario, app) cell: a small fleet's aggregated adaptation
/// behaviour.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdaptCell {
    /// Scenario slug.
    pub scenario: &'static str,
    /// App display name.
    pub app_name: String,
    /// Clients in the cell's fleet.
    pub clients: u64,
    /// Sessions that failed outright (should be zero: congestion is not
    /// a fault).
    pub failed: u64,
    /// Up-switches across the fleet.
    pub switches_up: u64,
    /// Down-switches across the fleet.
    pub switches_down: u64,
    /// Licenses fetched across the fleet.
    pub license_fetches: u64,
    /// Rebuffer time in permille of presentation time, fleet-wide.
    pub rebuffer_permille: u64,
    /// Peak licenses landing in any [`STORM_WINDOW_MS`] window.
    pub storm_peak: u64,
    /// Highest representation id any client reached (ladder order).
    pub peak_rep: String,
}

/// The full adaptation report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdaptReport {
    /// The seed the report is a pure function of.
    pub seed: u64,
    /// Every cell, scenario-major in sweep order.
    pub cells: Vec<AdaptCell>,
}

impl AdaptReport {
    /// Looks one cell up.
    pub fn cell(&self, scenario: &str, app_name: &str) -> Option<&AdaptCell> {
        self.cells.iter().find(|c| c.scenario == scenario && c.app_name == app_name)
    }

    /// Total down-switches for a scenario across every app — the
    /// "quality degrades under constriction" headline number.
    pub fn downswitches(&self, scenario: &str) -> u64 {
        self.cells.iter().filter(|c| c.scenario == scenario).map(|c| c.switches_down).sum()
    }

    /// The worst renewal storm any cell of a scenario saw.
    pub fn storm_peak(&self, scenario: &str) -> u64 {
        self.cells
            .iter()
            .filter(|c| c.scenario == scenario)
            .map(|c| c.storm_peak)
            .max()
            .unwrap_or(0)
    }
}

/// Bins license timestamps into [`STORM_WINDOW_MS`] windows and returns
/// the busiest window's count — the renewal-storm metric.
fn storm_peak(license_times_ms: &[u64]) -> u64 {
    let mut bins = std::collections::HashMap::new();
    for &t in license_times_ms {
        *bins.entry(t / STORM_WINDOW_MS).or_insert(0u64) += 1;
    }
    bins.values().copied().max().unwrap_or(0)
}

/// Runs the adaptation sweep: every congestion scenario against the
/// evaluated apps (`quick` limits the sweep to the first four apps and
/// smaller fleets/sessions for CI).
///
/// Determinism contract: the report is a pure function of `seed` — each
/// cell boots a fresh ecosystem with the scenario's bandwidth model and
/// the same seed, links are minted in a fixed order, and every link
/// advances a private local timeline.
pub fn run_adapt_study(seed: u64, quick: bool) -> AdaptReport {
    let _span = wideleak_telemetry::span!("adapt.run");
    let take = if quick { 4 } else { usize::MAX };
    let slugs: Vec<&str> = evaluated_apps().iter().map(|p| p.slug).take(take).collect();
    let mut cells = Vec::new();
    for scenario in scenarios() {
        let _scenario_span = wideleak_telemetry::span!("adapt.scenario", name = scenario.name);
        for slug in &slugs {
            cells.push(run_cell(&scenario, slug, seed, quick));
        }
    }
    wideleak_telemetry::add("adapt.cells", cells.len() as u64);
    AdaptReport { seed, cells }
}

/// Runs one (scenario, app) cell on a fresh ecosystem: a small fleet of
/// clients, each with its own device stack and seeded link, playing the
/// study title adaptively in mint order.
fn run_cell(scenario: &CongestionScenario, slug: &str, seed: u64, quick: bool) -> AdaptCell {
    let mut config = EcosystemConfig::fast_for_tests();
    config.seed = seed;
    config.bandwidth = Some(scenario.bandwidth.clone());
    let eco = Ecosystem::new(config);
    let adapt_config = if quick { AdaptConfig::quick() } else { AdaptConfig::default() };
    let clients: u64 = if quick { 2 } else { 3 };

    let mut cell = AdaptCell {
        scenario: scenario.name,
        app_name: eco.profile(slug).expect("known slug").name.to_owned(),
        clients,
        failed: 0,
        switches_up: 0,
        switches_down: 0,
        license_fetches: 0,
        rebuffer_permille: 0,
        storm_peak: 0,
        peak_rep: String::new(),
    };
    let mut fleet_license_times: Vec<u64> = Vec::new();
    let mut total_rebuffer_ms = 0u64;
    let mut total_played_ms = 0u64;
    for client in 0..clients {
        let stack = eco.boot_device(DeviceModel::pixel_6(), false);
        let app = eco.install_app(&stack, slug, &format!("adapt-probe-{client}"));
        let mut link = eco.adaptive_link();
        match app.play_adaptive(STUDY_TITLE, &adapt_config, &mut link) {
            Ok(outcome) => {
                cell.switches_up += outcome.switches_up;
                cell.switches_down += outcome.switches_down;
                cell.license_fetches += outcome.license_fetches;
                total_rebuffer_ms += outcome.rebuffer_ms;
                total_played_ms += outcome.played_ms;
                fleet_license_times.extend(outcome.license_times_ms.iter().copied());
                // Rep ids sort "video-1080p" < "video-540p" textually;
                // compare by id length first so 4-digit heights win.
                for rep in &outcome.rep_sequence {
                    if (rep.len(), rep.as_str()) > (cell.peak_rep.len(), cell.peak_rep.as_str()) {
                        cell.peak_rep = rep.clone();
                    }
                }
            }
            Err(_) => cell.failed += 1,
        }
    }
    if total_played_ms > 0 {
        cell.rebuffer_permille =
            u64::try_from(u128::from(total_rebuffer_ms) * 1000 / u128::from(total_played_ms))
                .unwrap_or(u64::MAX);
    }
    cell.storm_peak = storm_peak(&fleet_license_times);
    cell
}

/// Renders the adaptation report as an ASCII table — one row per app,
/// one column per scenario, each cell
/// `{up}up/{down}dn {lic}lic reb{permille} storm{peak}` — followed by
/// per-scenario headline lines. Integer math only: byte-identical per
/// seed.
pub fn render_adapt(report: &AdaptReport) -> String {
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
            row.push(report.cell(col, app).map_or_else(
                || "-".to_owned(),
                |c| {
                    if c.failed > 0 {
                        format!("{} of {} failed", c.failed, c.clients)
                    } else {
                        format!(
                            "{}up/{}dn {}lic reb{} storm{}",
                            c.switches_up,
                            c.switches_down,
                            c.license_fetches,
                            c.rebuffer_permille,
                            c.storm_peak
                        )
                    }
                },
            ));
        }
        rows.push(row);
    }

    let mut out = render_grid(&rows);
    out.push('\n');
    out.push_str(&format!(
        "seed {} | reb = rebuffer permille of presentation time | storm = peak licenses in any {}s window\n",
        report.seed,
        STORM_WINDOW_MS / 1000
    ));
    for col in &columns {
        out.push_str(&format!(
            "{col}: {} downswitches, storm peak {}\n",
            report.downswitches(col),
            report.storm_peak(col)
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenarios_are_distinct_and_cover_the_regimes() {
        let list = scenarios();
        assert_eq!(list.len(), 4);
        let mut names: Vec<_> = list.iter().map(|s| s.name).collect();
        names.dedup();
        assert_eq!(names.len(), 4);
        // One scenario must actually constrict below the 720p tier and
        // one must hold headroom above the 1080p tier.
        assert!(list.iter().any(|s| s.bandwidth.schedule.min_capacity() < 1_440_000));
        assert!(list.iter().any(|s| s.bandwidth.schedule.min_capacity() > 2_160_000));
    }

    #[test]
    fn storm_peak_bins_by_window() {
        assert_eq!(storm_peak(&[]), 0);
        // Three licenses inside one 8s window, one far away.
        assert_eq!(storm_peak(&[100, 4_000, 7_900, 60_000]), 3);
    }

    #[test]
    fn report_helpers_aggregate_per_scenario() {
        let cell = |scenario, app: &str, down, storm| AdaptCell {
            scenario,
            app_name: app.to_owned(),
            clients: 2,
            failed: 0,
            switches_up: 1,
            switches_down: down,
            license_fetches: 4,
            rebuffer_permille: 0,
            storm_peak: storm,
            peak_rep: "video-720p".into(),
        };
        let report = AdaptReport {
            seed: 1,
            cells: vec![cell("step-down", "A", 3, 2), cell("step-down", "B", 2, 5)],
        };
        assert_eq!(report.downswitches("step-down"), 5);
        assert_eq!(report.storm_peak("step-down"), 5);
        assert_eq!(report.downswitches("steady-3mbps"), 0);
    }
}
