//! Attributes each traced operation's wall time to the layers of the
//! stack, from the spans the program records plus the benchmark's own
//! spans around its calls.
//!
//! Every instant of an operation belongs to exactly one span: the
//! innermost span active at that instant, on any thread. "Innermost" is
//! the deepest span in the trace tree; between two active spans of equal
//! depth the later-started one wins, which is the callee when a call
//! crosses threads (the server's `server.handle` starts after the
//! client's `tcp.roundtrip` and is its sibling under `drm.call`). A
//! span's self time is the time it owns, so the self times of one trace
//! add up to its root span exactly, even with overlapping or
//! cross-thread children.

use std::collections::HashMap;

use wideleak::telemetry::TraceSpan;

/// Number of layers in [`Layer::ALL`].
pub const LAYERS: usize = 13;

/// A layer of the stack that operation time is attributed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// The benchmark's own per-operation code: input preparation and
    /// output checks.
    Bench,
    /// `OttApp::play` outside the calls it makes: app logic, DASH and
    /// BMFF parsing, clear-track handling.
    OttApp,
    /// The OTT backend: provisioning, license and CDN servers.
    OttBackend,
    /// The binder seam on the client side (`drm.call`).
    DrmCall,
    /// The client side of the TCP transport: checkout, encode, wire
    /// round trip and decode.
    Tcp,
    /// The media DRM server: reactor handling and dispatch into the CDM
    /// (L3 sample decryption runs here).
    Server,
    /// CDM license and provisioning operations (`cdm.*`).
    Cdm,
    /// Calls into the TEE (`tee.invoke`; L1 sample decryption runs here).
    Tee,
    /// Attack stages outside the victim playback: device boot, memory
    /// scan, key ladder, media reconstruction.
    Attack,
    /// Campaign worker process spawns.
    CampaignSpawn,
    /// Campaign shard work on the slowest worker.
    CampaignShard,
    /// The rest of a campaign: control channel, merge, shutdown.
    CampaignControl,
    /// Spans the benchmark does not know.
    Other,
}

impl Layer {
    /// Every layer, in report order.
    pub const ALL: [Layer; LAYERS] = [
        Layer::Bench,
        Layer::OttApp,
        Layer::OttBackend,
        Layer::DrmCall,
        Layer::Tcp,
        Layer::Server,
        Layer::Cdm,
        Layer::Tee,
        Layer::Attack,
        Layer::CampaignSpawn,
        Layer::CampaignShard,
        Layer::CampaignControl,
        Layer::Other,
    ];

    /// The per-layer metric carrying this layer's share of the traced
    /// operation time.
    #[must_use]
    pub fn metric(self) -> &'static str {
        match self {
            Layer::Bench => "layer.bench_pct",
            Layer::OttApp => "layer.ott_app_pct",
            Layer::OttBackend => "layer.ott_backend_pct",
            Layer::DrmCall => "layer.drm_call_pct",
            Layer::Tcp => "layer.tcp_pct",
            Layer::Server => "layer.server_pct",
            Layer::Cdm => "layer.cdm_pct",
            Layer::Tee => "layer.tee_pct",
            Layer::Attack => "layer.attack_pct",
            Layer::CampaignSpawn => "layer.campaign_spawn_pct",
            Layer::CampaignShard => "layer.campaign_shard_pct",
            Layer::CampaignControl => "layer.campaign_control_pct",
            Layer::Other => "layer.other_pct",
        }
    }

    /// The layer a span name belongs to.
    #[must_use]
    pub fn of_span(name: &str) -> Layer {
        match name {
            crate::ROOT_SPAN => Layer::Bench,
            crate::PLAY_SPAN => Layer::OttApp,
            crate::BACKEND_SPAN => Layer::OttBackend,
            crate::CAMPAIGN_SPAN => Layer::CampaignControl,
            "drm.call" => Layer::DrmCall,
            n if n.starts_with("tcp.") => Layer::Tcp,
            n if n.starts_with("server.") => Layer::Server,
            n if n.starts_with("cdm.") => Layer::Cdm,
            n if n.starts_with("tee.") => Layer::Tee,
            _ => Layer::Other,
        }
    }

    fn index(self) -> usize {
        Layer::ALL.iter().position(|&l| l == self).expect("every layer is listed")
    }
}

/// Wall time of one trace, split by layer.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Attribution {
    /// The root span's duration.
    pub root_ns: u64,
    /// Self time per layer, indexed like [`Layer::ALL`].
    pub layer_ns: [u64; LAYERS],
    /// Spans in the trace.
    pub spans: u64,
    /// `drm.call` spans in the trace.
    pub drm_calls: u64,
}

impl Attribution {
    /// Self time of one layer.
    #[must_use]
    pub fn ns(&self, layer: Layer) -> u64 {
        self.layer_ns[layer.index()]
    }
}

/// Splits the trace rooted at span `root_id` by layer. `spans` holds
/// the trace's spans; spans of other traces are ignored. Parts of spans
/// outside the root's interval are not counted. Returns `None` when the
/// root is missing.
#[must_use]
pub fn attribute(spans: &[TraceSpan], root_id: u64) -> Option<Attribution> {
    let root = spans.iter().find(|s| s.span_id == root_id)?;
    let members: Vec<&TraceSpan> = spans.iter().filter(|s| s.trace_id == root.trace_id).collect();
    let by_id: HashMap<u64, &TraceSpan> = members.iter().map(|s| (s.span_id, *s)).collect();
    let root_start = root.start_unix_ns;
    let root_end = root_start + root.duration_ns;

    let depth_of = |span: &TraceSpan| -> u32 {
        let mut depth = 0;
        let mut cur = span;
        while cur.span_id != root_id {
            depth += 1;
            match by_id.get(&cur.parent_span_id) {
                Some(parent) if depth < 64 => cur = parent,
                // A span whose parent never arrived hangs off the root.
                _ => return 1,
            }
        }
        depth
    };

    // (start, end, depth, layer) per span, clipped to the root.
    let clipped: Vec<(u64, u64, u32, Layer)> = members
        .iter()
        .filter_map(|s| {
            let start = s.start_unix_ns.max(root_start);
            let end = (s.start_unix_ns + s.duration_ns).min(root_end);
            (start < end || s.span_id == root_id)
                .then(|| (start, end, depth_of(s), Layer::of_span(s.name)))
        })
        .collect();

    let mut events: Vec<(u64, usize)> =
        clipped.iter().enumerate().flat_map(|(i, &(s, e, ..))| [(s, i), (e, i)]).collect();
    events.sort_unstable();
    let mut out = Attribution {
        root_ns: root.duration_ns,
        spans: members.len() as u64,
        drm_calls: members.iter().filter(|s| s.name == "drm.call").count() as u64,
        ..Attribution::default()
    };
    let mut active: Vec<usize> = Vec::new();
    let mut at = 0;
    while at < events.len() {
        let t = events[at].0;
        while at < events.len() && events[at].0 == t {
            let i = events[at].1;
            match active.iter().position(|&a| a == i) {
                Some(pos) => {
                    active.swap_remove(pos);
                }
                None => active.push(i),
            }
            at += 1;
        }
        let Some(&(next, _)) = events.get(at) else { break };
        if let Some(&owner) =
            active.iter().max_by_key(|&&i| (clipped[i].2, clipped[i].0, std::cmp::Reverse(i)))
        {
            out.layer_ns[clipped[owner].3.index()] += next - t;
        }
    }
    Some(out)
}

/// Layer totals over many traced operations.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    /// Operations attributed.
    pub ops: u64,
    /// Sum of their root durations.
    pub root_ns: u64,
    /// Sum of self time per layer, indexed like [`Layer::ALL`].
    pub layer_ns: [u64; LAYERS],
    /// Spans seen.
    pub spans: u64,
    /// `drm.call` spans seen.
    pub drm_calls: u64,
}

impl Tally {
    /// Adds one operation.
    pub fn add(&mut self, a: &Attribution) {
        self.ops += 1;
        self.root_ns += a.root_ns;
        for (sum, ns) in self.layer_ns.iter_mut().zip(a.layer_ns) {
            *sum += ns;
        }
        self.spans += a.spans;
        self.drm_calls += a.drm_calls;
    }

    /// Total self time of one layer.
    #[must_use]
    pub fn ns(&self, layer: Layer) -> u64 {
        self.layer_ns[layer.index()]
    }

    /// Moves up to `ns` of attributed time from one layer to another —
    /// for time the benchmark can split more finely than the spans do.
    pub fn reassign(&mut self, from: Layer, to: Layer, ns: u64) {
        let moved = ns.min(self.layer_ns[from.index()]);
        self.layer_ns[from.index()] -= moved;
        self.layer_ns[to.index()] += moved;
    }

    /// A layer's share of all attributed operation time, in percent.
    #[must_use]
    pub fn percent(&self, layer: Layer) -> f64 {
        100.0 * self.ns(layer) as f64 / self.root_ns.max(1) as f64
    }

    /// Mean self time of one layer per operation, in microseconds.
    #[must_use]
    pub fn us_per_op(&self, layer: Layer) -> f64 {
        self.ns(layer) as f64 / 1e3 / self.ops.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start: u64, dur: u64) -> TraceSpan {
        TraceSpan {
            trace_id: 9,
            span_id: id,
            parent_span_id: parent,
            name,
            process: "test".into(),
            start_unix_ns: start,
            duration_ns: dur,
            annotations: Vec::new(),
        }
    }

    #[test]
    fn nested_children_leave_their_parent_the_gaps() {
        let spans = vec![
            span(1, 0, crate::ROOT_SPAN, 0, 100),
            span(2, 1, crate::PLAY_SPAN, 10, 80),
            span(3, 2, "drm.call", 20, 30),
            span(4, 2, crate::BACKEND_SPAN, 60, 20),
        ];
        let a = attribute(&spans, 1).unwrap();
        assert_eq!(a.ns(Layer::Bench), 20);
        assert_eq!(a.ns(Layer::OttApp), 30);
        assert_eq!(a.ns(Layer::DrmCall), 30);
        assert_eq!(a.ns(Layer::OttBackend), 20);
        assert_eq!(a.layer_ns.iter().sum::<u64>(), a.root_ns);
        assert_eq!((a.spans, a.drm_calls), (4, 1));
    }

    #[test]
    fn cross_thread_callee_owns_the_overlap_with_its_sibling() {
        // The server span is a sibling of the wire round trip (both
        // children of drm.call) and runs inside it on another thread.
        let spans = vec![
            span(1, 0, crate::ROOT_SPAN, 0, 100),
            span(2, 1, "drm.call", 0, 100),
            span(3, 2, "tcp.roundtrip", 10, 80),
            span(4, 2, "server.handle", 20, 50),
            span(5, 4, "tee.invoke", 30, 20),
        ];
        let a = attribute(&spans, 1).unwrap();
        assert_eq!(a.ns(Layer::Tcp), 30, "round trip minus the server's interval");
        assert_eq!(a.ns(Layer::Server), 30);
        assert_eq!(a.ns(Layer::Tee), 20);
        assert_eq!(a.ns(Layer::DrmCall), 20);
        assert_eq!(a.ns(Layer::Bench), 0);
        assert_eq!(a.layer_ns.iter().sum::<u64>(), 100);
    }

    #[test]
    fn overhanging_and_overlapping_children_are_clipped_and_counted_once() {
        let spans = vec![
            span(1, 0, crate::ROOT_SPAN, 100, 100),
            // Starts before and ends after the root: only the part
            // inside the root counts.
            span(2, 1, "server.handle", 150, 100),
            // Two overlapping siblings at equal depth: the later one
            // owns the overlap.
            span(3, 1, "cdm.license_request", 110, 30),
            span(4, 1, "tee.invoke", 120, 30),
            // A span of another trace is ignored.
            TraceSpan { trace_id: 8, ..span(5, 1, "tcp.encode", 100, 100) },
        ];
        let a = attribute(&spans, 1).unwrap();
        assert_eq!(a.ns(Layer::Server), 50);
        assert_eq!(a.ns(Layer::Cdm), 10);
        assert_eq!(a.ns(Layer::Tee), 30);
        assert_eq!(a.ns(Layer::Tcp), 0);
        assert_eq!(a.ns(Layer::Bench), 10);
        assert_eq!(a.spans, 4);
    }

    #[test]
    fn orphans_hang_off_the_root_and_unknown_names_count_as_other() {
        let spans = vec![span(1, 0, crate::ROOT_SPAN, 0, 50), span(2, 77, "mystery.phase", 10, 10)];
        let a = attribute(&spans, 1).unwrap();
        assert_eq!(a.ns(Layer::Other), 10);
        assert_eq!(a.ns(Layer::Bench), 40);
        assert!(attribute(&spans, 3).is_none());
    }

    #[test]
    fn tally_sums_reassigns_and_reports_shares() {
        let mut t = Tally::default();
        let spans = vec![span(1, 0, crate::ROOT_SPAN, 0, 100), span(2, 1, "drm.call", 0, 40)];
        let a = attribute(&spans, 1).unwrap();
        t.add(&a);
        t.add(&a);
        assert_eq!((t.ops, t.root_ns), (2, 200));
        t.reassign(Layer::Bench, Layer::Attack, 20);
        t.reassign(Layer::Bench, Layer::OttApp, 1_000);
        assert_eq!(t.ns(Layer::Bench), 0);
        assert_eq!(t.ns(Layer::OttApp), 100);
        assert!((t.percent(Layer::DrmCall) - 40.0).abs() < 1e-9);
        assert!((t.us_per_op(Layer::Attack) - 0.01).abs() < 1e-12);
    }
}
