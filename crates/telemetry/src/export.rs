//! Exporters: render a [`Snapshot`](crate::Snapshot) as JSONL (one
//! JSON object per line, machine-consumable), and read an export back
//! into the human-readable summary table the CLI prints after a
//! `--telemetry` run and for `wideleak stats`.
//!
//! The JSON encoder is hand-rolled — the workspace has no serde — and
//! emits only the small, flat shapes below, with full string escaping.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::span::FieldValue;
use crate::{HistogramSummary, Snapshot};

/// Escapes `s` into `out` as JSON string *contents* (no quotes).
fn escape_json(s: &str, out: &mut String) {
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

fn push_str_value(s: &str, out: &mut String) {
    out.push('"');
    escape_json(s, out);
    out.push('"');
}

/// Writes `s` as a quoted, escaped JSON string into `out`. Shared
/// with the trace serializer so both sinks escape identically.
pub(crate) fn push_json_str(s: &str, out: &mut String) {
    push_str_value(s, out);
}

fn push_field_value(v: &FieldValue, out: &mut String) {
    match v {
        FieldValue::U64(n) => {
            let _ = write!(out, "{n}");
        }
        FieldValue::I64(n) => {
            let _ = write!(out, "{n}");
        }
        FieldValue::Bool(b) => {
            let _ = write!(out, "{b}");
        }
        FieldValue::Str(s) => push_str_value(s, out),
    }
}

/// Renders a snapshot as JSONL: a `meta` line, then one line per span,
/// counter, gauge and histogram. Every line parses as a standalone
/// JSON object with a `"type"` discriminator.
#[must_use]
pub fn to_jsonl(snapshot: &Snapshot) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{{\"type\":\"meta\",\"spans\":{},\"counters\":{},\"gauges\":{},\"histograms\":{}}}",
        snapshot.spans.len(),
        snapshot.counters.len(),
        snapshot.gauges.len(),
        snapshot.histograms.len(),
    );
    for s in &snapshot.spans {
        out.push_str("{\"type\":\"span\",\"id\":");
        let _ = write!(out, "{}", s.id);
        out.push_str(",\"parent\":");
        match s.parent {
            Some(p) => {
                let _ = write!(out, "{p}");
            }
            None => out.push_str("null"),
        }
        out.push_str(",\"name\":");
        push_str_value(s.name, &mut out);
        let _ = write!(out, ",\"start_ns\":{},\"duration_ns\":{}", s.start_ns, s.duration_ns);
        if !s.fields.is_empty() {
            out.push_str(",\"fields\":{");
            for (i, (k, v)) in s.fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                push_str_value(k, &mut out);
                out.push(':');
                push_field_value(v, &mut out);
            }
            out.push('}');
        }
        out.push_str("}\n");
    }
    for (name, value) in &snapshot.counters {
        out.push_str("{\"type\":\"counter\",\"name\":");
        push_str_value(name, &mut out);
        let _ = writeln!(out, ",\"value\":{value}}}");
    }
    for (name, value) in &snapshot.gauges {
        out.push_str("{\"type\":\"gauge\",\"name\":");
        push_str_value(name, &mut out);
        let _ = writeln!(out, ",\"value\":{value}}}");
    }
    for (name, h) in &snapshot.histograms {
        out.push_str("{\"type\":\"histogram\",\"name\":");
        push_str_value(name, &mut out);
        let _ = writeln!(
            out,
            ",\"count\":{},\"sum_ns\":{},\"min_ns\":{},\"p50_ns\":{},\"p90_ns\":{},\"p95_ns\":{},\"p99_ns\":{},\"max_ns\":{}}}",
            h.count, h.sum_ns, h.min_ns, h.p50_ns, h.p90_ns, h.p95_ns, h.p99_ns, h.max_ns,
        );
    }
    out
}

/// Formats nanoseconds with an adaptive unit for the summary tables.
#[must_use]
pub fn humanize_ns(ns: u64) -> String {
    if ns < 1_000 {
        format!("{ns}ns")
    } else if ns < 1_000_000 {
        format!("{:.1}us", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.1}ms", ns as f64 / 1e6)
    } else {
        format!("{:.2}s", ns as f64 / 1e9)
    }
}

/// A run re-read from a JSONL export — what `wideleak stats <file>`
/// and a `--telemetry` run render. Span records collapse into a
/// per-name rollup; histogram lines already carry their summaries.
#[derive(Debug, Clone, Default)]
pub struct ParsedRun {
    /// Counter values, in file order.
    pub counters: Vec<(String, u64)>,
    /// Gauge values, in file order.
    pub gauges: Vec<(String, u64)>,
    /// Histogram summaries, in file order.
    pub histograms: Vec<(String, HistogramSummary)>,
    /// Per-span-name `(count, total duration ns)` rollup, sorted by name.
    pub span_rollup: Vec<(String, u64, u64)>,
    /// Lines that did not match any known shape.
    pub skipped: u64,
}

/// Extracts the u64 value of `"key":<digits>` from a flat JSON line.
pub(crate) fn json_u64(line: &str, key: &str) -> Option<u64> {
    let needle = format!("\"{key}\":");
    let at = line.find(&needle)? + needle.len();
    let rest = &line[at..];
    let end = rest.find(|c: char| !c.is_ascii_digit()).unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Extracts and unescapes the value of `"key":"..."` from a flat JSON line.
pub(crate) fn json_str(line: &str, key: &str) -> Option<String> {
    let needle = format!("\"{key}\":\"");
    let at = line.find(&needle)? + needle.len();
    let mut out = String::new();
    let mut chars = line[at..].chars();
    while let Some(c) = chars.next() {
        match c {
            '"' => return Some(out),
            '\\' => match chars.next()? {
                'n' => out.push('\n'),
                'r' => out.push('\r'),
                't' => out.push('\t'),
                'u' => {
                    let hex: String = chars.by_ref().take(4).collect();
                    let code = u32::from_str_radix(&hex, 16).ok()?;
                    out.push(char::from_u32(code)?);
                }
                other => out.push(other),
            },
            c => out.push(c),
        }
    }
    None
}

/// Parses a JSONL export produced by [`to_jsonl`] back into a
/// renderable [`ParsedRun`]. Unknown or malformed lines are counted in
/// `skipped` rather than failing the whole file.
#[must_use]
pub fn parse_jsonl(text: &str) -> ParsedRun {
    let mut run = ParsedRun::default();
    let mut rollup: BTreeMap<String, (u64, u64)> = BTreeMap::new();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        match json_str(line, "type").as_deref() {
            Some("meta") => {}
            Some("span") => {
                let (Some(name), Some(dur)) =
                    (json_str(line, "name"), json_u64(line, "duration_ns"))
                else {
                    run.skipped += 1;
                    continue;
                };
                let e = rollup.entry(name).or_insert((0, 0));
                e.0 += 1;
                e.1 += dur;
            }
            Some("counter") => {
                let (Some(name), Some(value)) = (json_str(line, "name"), json_u64(line, "value"))
                else {
                    run.skipped += 1;
                    continue;
                };
                run.counters.push((name, value));
            }
            Some("gauge") => {
                let (Some(name), Some(value)) = (json_str(line, "name"), json_u64(line, "value"))
                else {
                    run.skipped += 1;
                    continue;
                };
                run.gauges.push((name, value));
            }
            Some("histogram") => {
                let Some(name) = json_str(line, "name") else {
                    run.skipped += 1;
                    continue;
                };
                let g = |k| json_u64(line, k).unwrap_or(0);
                run.histograms.push((
                    name,
                    HistogramSummary {
                        count: g("count"),
                        sum_ns: g("sum_ns"),
                        min_ns: g("min_ns"),
                        max_ns: g("max_ns"),
                        p50_ns: g("p50_ns"),
                        p90_ns: g("p90_ns"),
                        p95_ns: g("p95_ns"),
                        p99_ns: g("p99_ns"),
                    },
                ));
            }
            _ => run.skipped += 1,
        }
    }
    run.span_rollup =
        rollup.into_iter().map(|(name, (count, total))| (name, count, total)).collect();
    run
}

/// Renders a human-readable run summary: counters, gauges, latency
/// percentiles and a per-name span rollup.
#[must_use]
pub fn parsed_summary_table(run: &ParsedRun) -> String {
    let mut out = String::new();
    out.push_str("== telemetry summary (from export) ==\n");
    if !run.counters.is_empty() {
        out.push_str("counters:\n");
        for (name, value) in &run.counters {
            let _ = writeln!(out, "  {name:<52} {value:>10}");
        }
    }
    if !run.gauges.is_empty() {
        out.push_str("gauges:\n");
        for (name, value) in &run.gauges {
            let _ = writeln!(out, "  {name:<52} {value:>10}");
        }
    }
    if !run.histograms.is_empty() {
        let _ = writeln!(
            out,
            "latency:\n  {:<44} {:>8} {:>9} {:>9} {:>9} {:>9} {:>9}",
            "histogram", "count", "p50", "p90", "p95", "p99", "max"
        );
        for (name, h) in &run.histograms {
            let _ = writeln!(
                out,
                "  {:<44} {:>8} {:>9} {:>9} {:>9} {:>9} {:>9}",
                name,
                h.count,
                humanize_ns(h.p50_ns),
                humanize_ns(h.p90_ns),
                humanize_ns(h.p95_ns),
                humanize_ns(h.p99_ns),
                humanize_ns(h.max_ns),
            );
        }
    }
    if !run.span_rollup.is_empty() {
        let _ = writeln!(out, "spans:\n  {:<44} {:>8} {:>10}", "name", "count", "total");
        for (name, count, total_ns) in &run.span_rollup {
            let _ = writeln!(out, "  {:<44} {:>8} {:>10}", name, count, humanize_ns(*total_ns));
        }
    }
    if run.skipped > 0 {
        let _ = writeln!(out, "unparsed lines: {}", run.skipped);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Collector;
    use std::time::Duration;

    fn sample_snapshot() -> Snapshot {
        let c = Collector::new();
        {
            let _g = c.span("outer").field("app", "netflix").field("ok", true).field("n", 3u64);
            drop(c.span("inner").field("note", "quote\" backslash\\ and\nnewline"));
        }
        c.incr("requests");
        c.set_gauge("queue_depth", 3);
        c.observe("latency", Duration::from_micros(120));
        c.snapshot()
    }

    #[test]
    fn jsonl_lines_have_type_discriminators() {
        let text = to_jsonl(&sample_snapshot());
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[0].starts_with("{\"type\":\"meta\""));
        assert!(lines.iter().any(|l| l.starts_with("{\"type\":\"span\"")));
        assert!(lines.iter().any(|l| l.starts_with("{\"type\":\"counter\"")));
        assert!(lines.iter().any(|l| l.starts_with("{\"type\":\"gauge\"")));
        assert!(lines.iter().any(|l| l.starts_with("{\"type\":\"histogram\"")));
        // Every line is brace-balanced and ends cleanly.
        for l in &lines {
            assert!(l.starts_with('{') && l.ends_with('}'), "bad line: {l}");
        }
    }

    #[test]
    fn json_strings_are_escaped() {
        let text = to_jsonl(&sample_snapshot());
        let span_line = text.lines().find(|l| l.contains("\"name\":\"inner\"")).unwrap();
        assert!(span_line.contains("\"note\":\"quote\\\" backslash\\\\ and\\nnewline\""));
    }

    #[test]
    fn span_fields_serialize_with_types() {
        let text = to_jsonl(&sample_snapshot());
        let span_line = text.lines().find(|l| l.contains("\"name\":\"outer\"")).unwrap();
        assert!(span_line.contains("\"app\":\"netflix\""));
        assert!(span_line.contains("\"ok\":true"));
        assert!(span_line.contains("\"n\":3"));
    }

    #[test]
    fn summary_table_mentions_every_section() {
        let table = parsed_summary_table(&parse_jsonl(&to_jsonl(&sample_snapshot())));
        for needle in ["counters:", "gauges:", "latency:", "spans:", "requests", "queue_depth"] {
            assert!(table.contains(needle), "missing {needle} in:\n{table}");
        }
    }

    #[test]
    fn jsonl_round_trips_through_parse() {
        let snap = sample_snapshot();
        let run = parse_jsonl(&to_jsonl(&snap));
        assert_eq!(run.skipped, 0);
        assert_eq!(run.counters, snap.counters);
        assert_eq!(run.gauges, snap.gauges);
        assert_eq!(run.histograms.len(), snap.histograms.len());
        // Two spans with distinct names → two rollup rows of count 1.
        assert_eq!(run.span_rollup.len(), 2);
        assert!(run.span_rollup.iter().all(|(_, c, _)| *c == 1));
        let table = parsed_summary_table(&run);
        assert!(table.contains("requests"));
    }

    #[test]
    fn parse_tolerates_garbage_lines() {
        let run = parse_jsonl("not json\n{\"type\":\"counter\",\"name\":\"x\",\"value\":7}\n{}");
        assert_eq!(run.counters, vec![("x".to_owned(), 7)]);
        assert_eq!(run.skipped, 2);
    }

    #[test]
    fn humanize_picks_sane_units() {
        assert_eq!(humanize_ns(999), "999ns");
        assert_eq!(humanize_ns(1_500), "1.5us");
        assert_eq!(humanize_ns(2_500_000), "2.5ms");
        assert_eq!(humanize_ns(3_000_000_000), "3.00s");
    }
}
