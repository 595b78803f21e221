//! Table-I rendering: the study report as the paper prints it.

use crate::classify::{KeyUsage, LegacyPlayback, Protection, WidevineUse};
use crate::study::{AppFindings, StudyReport};

fn q1_cell(f: &AppFindings) -> &'static str {
    match f.widevine_use {
        WidevineUse::Yes => "WV",
        WidevineUse::YesWithEmbeddedFallback => "WV (dagger)",
        WidevineUse::No => "custom",
    }
}

fn protection_cell(p: Protection) -> &'static str {
    match p {
        Protection::Encrypted => "Encrypted",
        Protection::Clear => "Clear",
        Protection::Unknown => "-",
    }
}

fn q3_cell(u: KeyUsage) -> &'static str {
    match u {
        KeyUsage::Minimum => "Minimum",
        KeyUsage::Recommended => "Recommended",
        KeyUsage::Unknown => "-",
    }
}

fn q4_cell(l: LegacyPlayback) -> &'static str {
    match l {
        LegacyPlayback::Plays => "plays",
        LegacyPlayback::PlaysViaEmbeddedDrm => "plays (custom DRM)",
        LegacyPlayback::ProvisioningFails => "fails (provisioning)",
        LegacyPlayback::Fails => "fails",
    }
}

/// Renders the study as the paper's Table I (ASCII form).
pub fn render_table_1(report: &StudyReport) -> String {
    let mut rows: Vec<Vec<String>> = vec![vec![
        "OTT".into(),
        "Widevine (Q1)".into(),
        "Video (Q2)".into(),
        "Audio (Q2)".into(),
        "Subtitles (Q2)".into(),
        "Key Usage (Q3)".into(),
        "L3 discontinued playback (Q4)".into(),
    ]];
    for f in &report.findings {
        rows.push(vec![
            f.app_name.clone(),
            q1_cell(f).to_owned(),
            protection_cell(f.assets.video).to_owned(),
            protection_cell(f.assets.audio).to_owned(),
            protection_cell(f.assets.subtitles).to_owned(),
            q3_cell(f.key_usage).to_owned(),
            q4_cell(f.legacy).to_owned(),
        ]);
    }
    render_grid(&rows)
}

/// Lays `rows` out as a text grid: each cell left-aligned and padded to
/// its column's widest cell plus two spaces, with a dash rule under the
/// first (header) row.
pub(crate) fn render_grid(rows: &[Vec<String>]) -> String {
    let cols = rows.first().map_or(0, Vec::len);
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

/// Renders the per-function CDM call counts aggregated over all apps —
/// the raw statistic behind Q1 ("any function called within the CDM
/// process linked to the Widevine protocol").
pub fn render_call_histogram(report: &StudyReport) -> String {
    let mut totals: std::collections::BTreeMap<&str, usize> = std::collections::BTreeMap::new();
    for f in &report.findings {
        for (func, count) in &f.cdm_call_histogram {
            *totals.entry(func.as_str()).or_default() += count;
        }
    }
    if totals.is_empty() {
        return String::new();
    }
    let mut out = String::from("CDM calls observed (all apps):\n");
    for (func, count) in totals {
        out.push_str(&format!("  {func:<56} {count:>8}\n"));
    }
    out
}

/// The learned-lessons summary lines (§IV-C), derived from the findings.
pub fn render_insights(report: &StudyReport) -> String {
    let total = report.findings.len();
    let widevine = report.findings.iter().filter(|f| f.widevine_use != WidevineUse::No).count();
    let l1 = report.findings.iter().filter(|f| f.l1_on_modern_device).count();
    let clear_audio =
        report.findings.iter().filter(|f| f.assets.audio == Protection::Clear).count();
    let clear_subs =
        report.findings.iter().filter(|f| f.assets.subtitles == Protection::Clear).count();
    let unknown_subs =
        report.findings.iter().filter(|f| f.assets.subtitles == Protection::Unknown).count();
    let recommended =
        report.findings.iter().filter(|f| f.key_usage == KeyUsage::Recommended).count();
    let legacy_play = report
        .findings
        .iter()
        .filter(|f| matches!(f.legacy, LegacyPlayback::Plays | LegacyPlayback::PlaysViaEmbeddedDrm))
        .count();
    let revoking =
        report.findings.iter().filter(|f| f.legacy == LegacyPlayback::ProvisioningFails).count();
    format!(
        "apps evaluated: {total}\n\
         apps relying on Widevine: {widevine}/{total}\n\
         apps using TEE-backed L1 on capable devices: {l1}/{total}\n\
         apps with audio in clear: {clear_audio}\n\
         apps with subtitles confirmed clear: {clear_subs} (undiscovered: {unknown_subs})\n\
         apps following the multi-key recommendation: {recommended}\n\
         apps serving revoked devices: {legacy_play}/{total} (refusing: {revoking})\n"
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assets::AssetFindings;

    fn finding(name: &str) -> AppFindings {
        AppFindings {
            app_name: name.into(),
            installs_millions: 1,
            widevine_use: WidevineUse::Yes,
            l1_on_modern_device: true,
            assets: AssetFindings {
                video: Protection::Encrypted,
                audio: Protection::Clear,
                subtitles: Protection::Unknown,
            },
            key_usage: KeyUsage::Minimum,
            per_resolution_keys_distinct: Some(true),
            legacy: LegacyPlayback::Plays,
            legacy_resolution: Some((960, 540)),
            uri_channel_observed: false,
            cdm_call_histogram: vec![("liboemcrypto.so!_oecc21_DecryptCTR".into(), 4)],
        }
    }

    #[test]
    fn table_renders_all_rows_and_cells() {
        let report = StudyReport { findings: vec![finding("AppA"), finding("AppB")] };
        let table = render_table_1(&report);
        assert!(table.contains("AppA"));
        assert!(table.contains("AppB"));
        assert!(table.contains("Encrypted"));
        assert!(table.contains("Minimum"));
        assert!(table.contains("plays"));
        assert_eq!(table.lines().count(), 4, "header + rule + two rows");
    }

    #[test]
    fn call_histogram_aggregates_across_apps() {
        let report = StudyReport { findings: vec![finding("A"), finding("B")] };
        let rendered = render_call_histogram(&report);
        assert!(rendered.contains("liboemcrypto.so!_oecc21_DecryptCTR"));
        assert!(rendered.contains('8'), "4 calls from each of two apps");
        assert!(render_call_histogram(&StudyReport { findings: vec![] }).is_empty());
    }

    #[test]
    fn insights_counts() {
        let mut a = finding("A");
        a.key_usage = KeyUsage::Recommended;
        a.legacy = LegacyPlayback::ProvisioningFails;
        let b = finding("B");
        let report = StudyReport { findings: vec![a, b] };
        let insights = render_insights(&report);
        assert!(insights.contains("apps evaluated: 2"));
        assert!(insights.contains("recommendation: 1"));
        assert!(insights.contains("revoked devices: 1/2 (refusing: 1)"));
    }
}
