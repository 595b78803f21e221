//! Offline analysis of trace JSONL sinks — the engine behind the
//! `wideleak trace` subcommand.
//!
//! Takes the [`crate::trace::ParsedTraceSpan`]s re-read from one or
//! more sink files (client and server processes usually write separate
//! sinks; feeding both stitches the cross-process picture back
//! together) and renders three views:
//!
//! 1. **Per-phase latency** — count/p50/p90/max per span name, the
//!    table that shows where a DRM call's time actually goes;
//! 2. **Slowest-trace exemplars** — the worst end-to-end traces as
//!    indented span trees with per-span process labels and timings;
//! 3. **Fault correlation** — which injected faults appeared, how
//!    often, and what latency the faulted traces paid versus the
//!    clean ones.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;

use crate::export::humanize_ns;
use crate::trace::ParsedTraceSpan;
use crate::LatencyHistogram;

/// How many slowest traces the exemplar section renders.
const EXEMPLAR_COUNT: usize = 3;

/// One reassembled end-to-end trace.
#[derive(Debug)]
pub struct AssembledTrace {
    /// The shared trace id.
    pub trace_id: u64,
    /// All spans carrying that id, in input order.
    pub spans: Vec<ParsedTraceSpan>,
}

impl AssembledTrace {
    /// The root span (parent id 0), if the sink captured it.
    #[must_use]
    pub fn root(&self) -> Option<&ParsedTraceSpan> {
        self.spans.iter().find(|s| s.parent_span_id == 0)
    }

    /// End-to-end duration: the root's duration, or the longest span
    /// when the root is missing (partial sink).
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.root()
            .map(|r| r.duration_ns)
            .or_else(|| self.spans.iter().map(|s| s.duration_ns).max())
            .unwrap_or(0)
    }

    /// Distinct process labels participating in this trace.
    #[must_use]
    pub fn processes(&self) -> Vec<&str> {
        let mut seen: Vec<&str> = Vec::new();
        for s in &self.spans {
            if !seen.contains(&s.process.as_str()) {
                seen.push(&s.process);
            }
        }
        seen
    }

    /// All `fault` annotation values across the trace's spans.
    #[must_use]
    pub fn faults(&self) -> Vec<&str> {
        self.annotation_values("fault")
    }

    /// All values for one annotation key across the trace's spans.
    #[must_use]
    pub fn annotation_values(&self, key: &str) -> Vec<&str> {
        self.spans
            .iter()
            .flat_map(|s| s.annotations.iter())
            .filter(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
            .collect()
    }
}

/// Groups spans by trace id, preserving first-seen trace order.
#[must_use]
pub fn assemble(spans: &[ParsedTraceSpan]) -> Vec<AssembledTrace> {
    let mut order: Vec<u64> = Vec::new();
    let mut by_id: HashMap<u64, Vec<ParsedTraceSpan>> = HashMap::new();
    for span in spans {
        if !by_id.contains_key(&span.trace_id) {
            order.push(span.trace_id);
        }
        by_id.entry(span.trace_id).or_default().push(span.clone());
    }
    order
        .into_iter()
        .map(|trace_id| AssembledTrace { trace_id, spans: by_id.remove(&trace_id).unwrap() })
        .collect()
}

/// A percentile of `h` for display; `0ns` when `h` is empty.
fn humanize_percentile(h: &LatencyHistogram, num: u64) -> String {
    humanize_ns(h.percentile(num, 100).unwrap_or(0))
}

/// Renders the per-phase latency table: one row per span name with
/// count, p50, p90 and max durations.
#[must_use]
pub fn render_phase_table(spans: &[ParsedTraceSpan]) -> String {
    let mut by_phase: BTreeMap<&str, LatencyHistogram> = BTreeMap::new();
    for span in spans {
        by_phase.entry(&span.name).or_default().record(span.duration_ns);
    }
    let mut out = String::from("per-phase latency\n");
    let _ =
        writeln!(out, "  {:<28} {:>7} {:>10} {:>10} {:>10}", "phase", "count", "p50", "p90", "max");
    for (phase, durations) in by_phase {
        let _ = writeln!(
            out,
            "  {:<28} {:>7} {:>10} {:>10} {:>10}",
            phase,
            durations.count(),
            humanize_percentile(&durations, 50),
            humanize_percentile(&durations, 90),
            humanize_ns(durations.max().unwrap_or(0)),
        );
    }
    out
}

/// Renders one trace as an indented span tree ordered by start time,
/// with orphaned spans (parent missing from the sink) at top level.
#[must_use]
pub fn render_trace_tree(trace: &AssembledTrace) -> String {
    let mut children: HashMap<u64, Vec<&ParsedTraceSpan>> = HashMap::new();
    let ids: Vec<u64> = trace.spans.iter().map(|s| s.span_id).collect();
    let mut roots: Vec<&ParsedTraceSpan> = Vec::new();
    for span in &trace.spans {
        if span.parent_span_id != 0 && ids.contains(&span.parent_span_id) {
            children.entry(span.parent_span_id).or_default().push(span);
        } else {
            roots.push(span);
        }
    }
    let by_start =
        |a: &&ParsedTraceSpan, b: &&ParsedTraceSpan| a.start_unix_ns.cmp(&b.start_unix_ns);
    roots.sort_by(by_start);
    for list in children.values_mut() {
        list.sort_by(by_start);
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "trace {:016x}  total {}  processes: {}",
        trace.trace_id,
        humanize_ns(trace.duration_ns()),
        trace.processes().join(" -> "),
    );
    // Iterative DFS so deep (or cyclic, if a sink is corrupt) trees
    // cannot overflow the stack; the visited set breaks cycles.
    let mut stack: Vec<(&ParsedTraceSpan, usize)> =
        roots.into_iter().rev().map(|s| (s, 1)).collect();
    let mut visited: Vec<u64> = Vec::new();
    while let Some((span, depth)) = stack.pop() {
        if visited.contains(&span.span_id) {
            continue;
        }
        visited.push(span.span_id);
        let notes = if span.annotations.is_empty() {
            String::new()
        } else {
            let pairs: Vec<String> =
                span.annotations.iter().map(|(k, v)| format!("{k}={v}")).collect();
            format!("  [{}]", pairs.join(" "))
        };
        let _ = writeln!(
            out,
            "{:indent$}{:<26} {:>10}  ({}){notes}",
            "",
            span.name,
            humanize_ns(span.duration_ns),
            span.process,
            indent = depth * 2,
        );
        if let Some(kids) = children.get(&span.span_id) {
            for kid in kids.iter().rev() {
                stack.push((kid, depth + 1));
            }
        }
    }
    out
}

/// Renders the fault-correlation section: per-fault counts and the
/// p50 latency of faulted versus clean traces.
#[must_use]
pub fn render_fault_correlation(traces: &[AssembledTrace]) -> String {
    let mut fault_counts: BTreeMap<&str, u64> = BTreeMap::new();
    let mut error_counts: BTreeMap<&str, u64> = BTreeMap::new();
    let mut faulted = LatencyHistogram::new();
    let mut clean = LatencyHistogram::new();
    for trace in traces {
        let faults = trace.faults();
        for f in &faults {
            *fault_counts.entry(f).or_default() += 1;
        }
        for e in trace.annotation_values("error") {
            *error_counts.entry(e).or_default() += 1;
        }
        if faults.is_empty() {
            clean.record(trace.duration_ns());
        } else {
            faulted.record(trace.duration_ns());
        }
    }
    let mut out = String::from("fault correlation\n");
    let _ = writeln!(
        out,
        "  traces: {} clean (p50 {}), {} faulted (p50 {})",
        clean.count(),
        humanize_percentile(&clean, 50),
        faulted.count(),
        humanize_percentile(&faulted, 50),
    );
    if fault_counts.is_empty() {
        out.push_str("  no fault annotations recorded\n");
    }
    for (fault, count) in fault_counts {
        let _ = writeln!(out, "  fault {fault:<22} x{count}");
    }
    for (error, count) in error_counts {
        let _ = writeln!(out, "  error {error:<22} x{count}");
    }
    out
}

/// The full `wideleak trace` report: phase table, slowest-trace
/// exemplars, fault correlation.
#[must_use]
pub fn render_trace_report(spans: &[ParsedTraceSpan]) -> String {
    if spans.is_empty() {
        return "no trace spans found\n".to_owned();
    }
    let traces = assemble(spans);
    let mut out = String::new();
    let _ = writeln!(out, "{} spans across {} traces\n", spans.len(), traces.len());
    out.push_str(&render_phase_table(spans));
    out.push('\n');
    let mut by_duration: Vec<&AssembledTrace> = traces.iter().collect();
    by_duration.sort_by_key(|t| std::cmp::Reverse(t.duration_ns()));
    let _ = writeln!(out, "slowest {} traces", EXEMPLAR_COUNT.min(by_duration.len()));
    for trace in by_duration.iter().take(EXEMPLAR_COUNT) {
        out.push_str(&render_trace_tree(trace));
    }
    out.push('\n');
    out.push_str(&render_fault_correlation(&traces));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[allow(clippy::too_many_arguments)]
    fn span(
        trace_id: u64,
        span_id: u64,
        parent: u64,
        name: &str,
        process: &str,
        start: u64,
        duration: u64,
        annotations: Vec<(&str, &str)>,
    ) -> ParsedTraceSpan {
        ParsedTraceSpan {
            trace_id,
            span_id,
            parent_span_id: parent,
            name: name.to_owned(),
            process: process.to_owned(),
            start_unix_ns: start,
            duration_ns: duration,
            annotations: annotations
                .into_iter()
                .map(|(k, v)| (k.to_owned(), v.to_owned()))
                .collect(),
        }
    }

    fn sample_spans() -> Vec<ParsedTraceSpan> {
        vec![
            span(1, 10, 0, "drm.call", "load", 100, 5_000, vec![]),
            span(1, 11, 10, "tcp.roundtrip", "load", 150, 4_000, vec![]),
            span(1, 12, 11, "server.handle", "serve", 200, 3_000, vec![]),
            span(2, 20, 0, "drm.call", "load", 300, 9_000, vec![("fault", "garble_body")]),
            span(2, 21, 20, "tcp.roundtrip", "load", 320, 8_000, vec![]),
        ]
    }

    #[test]
    fn assembles_by_trace_id_and_finds_roots() {
        let traces = assemble(&sample_spans());
        assert_eq!(traces.len(), 2);
        assert_eq!(traces[0].spans.len(), 3);
        assert_eq!(traces[0].root().unwrap().span_id, 10);
        assert_eq!(traces[0].duration_ns(), 5_000);
        assert_eq!(traces[0].processes(), vec!["load", "serve"]);
        assert_eq!(traces[1].faults(), vec!["garble_body"]);
    }

    #[test]
    fn phase_table_has_one_row_per_name() {
        let table = render_phase_table(&sample_spans());
        assert!(table.contains("drm.call"));
        assert!(table.contains("tcp.roundtrip"));
        assert!(table.contains("server.handle"));
        // Two drm.call spans (5us and 9us) aggregate into one row with
        // count 2; p50 and p90 sit at zero-based rank 0.
        let row = table.lines().find(|l| l.contains("drm.call")).unwrap();
        assert_eq!(
            row.split_whitespace().collect::<Vec<_>>(),
            ["drm.call", "2", "5.0us", "5.0us", "9.0us"]
        );
    }

    #[test]
    fn tree_renders_nested_spans_with_processes() {
        let traces = assemble(&sample_spans());
        let tree = render_trace_tree(&traces[0]);
        assert!(tree.contains("processes: load -> serve"), "{tree}");
        let call_at = tree.find("drm.call").unwrap();
        let handle_at = tree.find("server.handle").unwrap();
        assert!(call_at < handle_at, "root renders before descendant:\n{tree}");
        // Deeper spans indent further.
        let handle_line = tree.lines().find(|l| l.contains("server.handle")).unwrap();
        let call_line = tree.lines().find(|l| l.contains("drm.call")).unwrap();
        let indent = |l: &str| l.len() - l.trim_start().len();
        assert!(indent(handle_line) > indent(call_line));
    }

    #[test]
    fn fault_correlation_splits_clean_from_faulted() {
        let traces = assemble(&sample_spans());
        let section = render_fault_correlation(&traces);
        assert!(section.contains("1 clean"), "{section}");
        assert!(section.contains("1 faulted"), "{section}");
        assert!(section.contains("fault garble_body"), "{section}");
    }

    #[test]
    fn full_report_includes_all_sections() {
        let report = render_trace_report(&sample_spans());
        assert!(report.contains("5 spans across 2 traces"));
        assert!(report.contains("per-phase latency"));
        assert!(report.contains("slowest 2 traces"));
        assert!(report.contains("fault correlation"));
        assert_eq!(render_trace_report(&[]), "no trace spans found\n");
    }

    #[test]
    fn slowest_traces_rank_by_duration() {
        let report = render_trace_report(&sample_spans());
        // Trace 2 (9us) must render before trace 1 (5us).
        let t2 = report.find("trace 0000000000000002").unwrap();
        let t1 = report.find("trace 0000000000000001").unwrap();
        assert!(t2 < t1, "{report}");
    }
}
