//! The campaign control channel: one call frame down each `wideleak
//! serve --worker` process's stdin and one reply frame up its stdout,
//! framed by the same wire-v3 codec the DRM plane speaks. A DRM server
//! refuses these frames.
//!
//! A *campaign* re-derives the paper's Table-I compliance matrix across
//! a generated catalog of thousands of device models, sharded by
//! device-ID range across worker processes. This module holds the
//! protocol layer only: what a call carries (the [`CampaignSpec`] and
//! one [`ShardAssignment`]), what its reply carries (a [`ShardReport`]
//! or a [`CampaignError`]), and the cell merge ([`AppCells`]), plus
//! their wire encodings, which ride in frame types 2 and 3 of
//! [`crate::wire::FrameBody`] alongside the DRM frames. The semantics
//! (how a shard is run, how cells are classified, how reports render)
//! live in `wideleak-monitor`.
//!
//! **Exactness is the design invariant.** A merged campaign report must
//! be a pure function of (spec, seed, catalog) — independent of shard
//! count, worker scheduling, and reply arrival order. Everything in a
//! [`ShardReport`] is therefore mergeable without approximation:
//! latency travels as an exact [`LatencyHistogram`] (every distinct
//! sample with its count), whose merge yields the same nearest-rank
//! percentiles as the concatenation of every shard's raw samples, and
//! compliance cells merge by count-sum plus minimum-device-id
//! exemplars, both order-independent.

use wideleak_telemetry::LatencyHistogram;

use crate::wire::{decode_wire_error, encode_wire_error, Reader, WireError, Writer};

/// Compliance cell kinds per (device, app) pair — the Table-I vocabulary
/// widened to the generated catalog. The protocol layer only fixes the
/// *count* and the index order; `wideleak-monitor` owns the semantics.
///
/// Index order: plays-HD, plays-SD, plays-via-embedded-DRM,
/// provisioning-refused, custom-DRM-always.
pub const CELL_KINDS: usize = 5;

/// Writes a histogram as its entry count (u32) and its `(value u64,
/// count u64)` entries in ascending value order.
fn encode_histogram(h: &LatencyHistogram, w: &mut Writer) {
    w.u32(u32::try_from(h.entries().len()).expect("entry count fits u32"));
    for (value, n) in h.entries() {
        w.u64(value).u64(n);
    }
}

/// Reads a histogram written by [`encode_histogram`]. Values must be
/// strictly ascending, counts nonzero and their total must fit in u64;
/// anything else is [`WireError::Malformed`].
fn decode_histogram(r: &mut Reader<'_>) -> Result<LatencyHistogram, WireError> {
    let entries = r.u32("histogram entry count")?;
    let mut h = LatencyHistogram::new();
    let mut total = 0u64;
    let mut last: Option<u64> = None;
    for _ in 0..entries {
        let value = r.u64("histogram value")?;
        let n = r.u64("histogram value count")?;
        if n == 0 {
            return Err(WireError::Malformed { what: "histogram value with zero count" });
        }
        if last.is_some_and(|prev| value <= prev) {
            return Err(WireError::Malformed { what: "histogram values not strictly ascending" });
        }
        last = Some(value);
        total = total
            .checked_add(n)
            .ok_or(WireError::Malformed { what: "histogram count overflow" })?;
        h.record_n(value, n);
    }
    Ok(h)
}

/// One app's compliance cells over the devices of a shard (or, after
/// merging, of the whole campaign): per-kind device counts plus the
/// lowest device id that landed in each cell, as a concrete exemplar.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AppCells {
    /// The app slug the cells describe.
    pub app: String,
    /// Devices per cell kind, indexed by the [`CELL_KINDS`] order.
    pub counts: [u64; CELL_KINDS],
    /// Lowest device id observed per cell kind, `None` when empty.
    pub exemplars: [Option<u64>; CELL_KINDS],
}

impl AppCells {
    /// Empty cells for an app.
    #[must_use]
    pub fn new(app: &str) -> Self {
        AppCells { app: app.to_owned(), counts: [0; CELL_KINDS], exemplars: [None; CELL_KINDS] }
    }

    /// Accounts one device landing in cell `kind`.
    pub fn record(&mut self, kind: usize, device_id: u64) {
        self.counts[kind] += 1;
        self.exemplars[kind] = Some(self.exemplars[kind].map_or(device_id, |e| e.min(device_id)));
    }

    /// Folds another shard's cells for the same app in: count sums and
    /// minimum-exemplar folds, both order-independent.
    pub fn merge(&mut self, other: &AppCells) {
        debug_assert_eq!(self.app, other.app, "merging cells across apps");
        for k in 0..CELL_KINDS {
            self.counts[k] += other.counts[k];
            self.exemplars[k] = match (self.exemplars[k], other.exemplars[k]) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            };
        }
    }

    fn encode(&self, w: &mut Writer) {
        w.string(&self.app);
        for &n in &self.counts {
            w.u64(n);
        }
        for &e in &self.exemplars {
            match e {
                Some(id) => {
                    w.u8(1).u64(id);
                }
                None => {
                    w.u8(0);
                }
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let app = r.string("cell app slug")?;
        let mut cells = AppCells::new(&app);
        for k in 0..CELL_KINDS {
            cells.counts[k] = r.u64("cell count")?;
        }
        for k in 0..CELL_KINDS {
            cells.exemplars[k] = match r.u8("cell exemplar flag")? {
                0 => None,
                1 => Some(r.u64("cell exemplar id")?),
                _ => return Err(WireError::Malformed { what: "cell exemplar flag" }),
            };
        }
        Ok(cells)
    }
}

/// What to measure: the campaign's full parameterisation. Identical on
/// every worker — only the [`ShardAssignment`] differs per process —
/// and every report-visible value derives from these fields plus the
/// device catalog, never from the sharding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignSpec {
    /// The campaign master seed. Per-shard worker seeds derive from it
    /// (`det_hash(seed, shard_id)`), but anything those seeds touch must
    /// stay out of the report.
    pub seed: u64,
    /// Catalog device ids `0..devices` are swept, each against every
    /// evaluated app.
    pub devices: u64,
    /// Every `sample_every`-th catalog selection (seed-hashed, so the
    /// choice is shard-independent) runs a *real* end-to-end playback
    /// per app to validate the derived cell; 0 disables sampling.
    pub sample_every: u64,
    /// RSA modulus size for worker ecosystems (768 keeps campaigns
    /// fast; the cells do not depend on it).
    pub rsa_bits: u32,
    /// Test-only fault hook: a worker whose shard contains this device
    /// id exits mid-shard instead of reporting, so the coordinator's
    /// [`CampaignError::ShardLost`] path stays covered.
    pub kill_at_device: Option<u64>,
}

impl CampaignSpec {
    fn encode(&self, w: &mut Writer) {
        w.u64(self.seed).u64(self.devices).u64(self.sample_every).u32(self.rsa_bits);
        match self.kill_at_device {
            Some(id) => {
                w.u8(1).u64(id);
            }
            None => {
                w.u8(0);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let seed = r.u64("spec seed")?;
        let devices = r.u64("spec devices")?;
        let sample_every = r.u64("spec sample interval")?;
        let rsa_bits = r.u32("spec rsa bits")?;
        let kill_at_device = match r.u8("spec kill flag")? {
            0 => None,
            1 => Some(r.u64("spec kill device")?),
            _ => return Err(WireError::Malformed { what: "spec kill flag" }),
        };
        Ok(CampaignSpec { seed, devices, sample_every, rsa_bits, kill_at_device })
    }
}

/// One worker's slice of the campaign: the half-open catalog range
/// `start..end` plus the shard's ordinal (which seeds the worker's own
/// ecosystem, and nothing report-visible).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardAssignment {
    /// Shard ordinal, `0..workers`.
    pub shard_id: u32,
    /// First catalog device id of the shard (inclusive).
    pub start: u64,
    /// One past the last catalog device id of the shard.
    pub end: u64,
}

/// A worker's results for one shard: everything the coordinator needs
/// for an exact merge, nothing it would have to approximate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardReport {
    /// Echo of the assignment's shard ordinal.
    pub shard_id: u32,
    /// Echo of the assignment's range start.
    pub start: u64,
    /// Echo of the assignment's range end.
    pub end: u64,
    /// Per-app compliance cells over the shard's devices, in the
    /// evaluated-app order.
    pub cells: Vec<AppCells>,
    /// Modeled license-path latency, one sample per (device, app).
    pub latency: LatencyHistogram,
    /// Real end-to-end playbacks this shard ran to validate cells.
    pub sampled_plays: u64,
    /// Sampled playbacks whose outcome disagreed with the derived cell
    /// (expected 0 — a nonzero count is a model/simulation divergence).
    pub sample_mismatches: u64,
}

impl ShardReport {
    fn encode(&self, w: &mut Writer) {
        w.u32(self.shard_id).u64(self.start).u64(self.end);
        w.u32(u32::try_from(self.cells.len()).expect("cell count fits u32"));
        for cells in &self.cells {
            cells.encode(w);
        }
        encode_histogram(&self.latency, w);
        w.u64(self.sampled_plays).u64(self.sample_mismatches);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let shard_id = r.u32("report shard id")?;
        let start = r.u64("report range start")?;
        let end = r.u64("report range end")?;
        let ncells = r.u32("report cell count")?;
        let mut cells = Vec::new();
        for _ in 0..ncells {
            cells.push(AppCells::decode(r)?);
        }
        let latency = decode_histogram(r)?;
        let sampled_plays = r.u64("report sampled plays")?;
        let sample_mismatches = r.u64("report sample mismatches")?;
        Ok(ShardReport { shard_id, start, end, cells, latency, sampled_plays, sample_mismatches })
    }
}

/// Everything that can go wrong with a campaign, as a typed taxonomy.
/// Coordinator-side variants (`ShardLost`, `Spawn`) never cross the
/// wire in practice but encode anyway, so the taxonomy is uniform.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CampaignError {
    /// A worker's control channel died before its shard report arrived
    /// (process crash, kill, or a shard outliving the coordinator's
    /// deadline).
    ShardLost {
        /// The shard whose worker was lost.
        shard_id: u32,
    },
    /// Starting a worker process failed.
    Spawn {
        /// What failed.
        what: String,
    },
    /// The peer violated the control protocol (a frame of the wrong
    /// kind, a report that does not echo its assignment, or shard
    /// reports that do not tile the campaign).
    Protocol {
        /// The violation.
        what: String,
    },
    /// The worker failed while running its shard.
    Worker {
        /// The failure.
        what: String,
    },
    /// A control-channel frame failed to decode.
    Wire(WireError),
}

impl CampaignError {
    /// A stable lowercase label for telemetry error-class counters.
    #[must_use]
    pub fn class(&self) -> &'static str {
        match self {
            CampaignError::ShardLost { .. } => "shard_lost",
            CampaignError::Spawn { .. } => "spawn",
            CampaignError::Protocol { .. } => "protocol",
            CampaignError::Worker { .. } => "worker",
            CampaignError::Wire(_) => "wire",
        }
    }
}

impl std::fmt::Display for CampaignError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CampaignError::ShardLost { shard_id } => {
                write!(f, "shard {shard_id} lost: worker died before reporting")
            }
            CampaignError::Spawn { what } => write!(f, "spawning worker failed: {what}"),
            CampaignError::Protocol { what } => write!(f, "campaign protocol violation: {what}"),
            CampaignError::Worker { what } => write!(f, "worker failed: {what}"),
            CampaignError::Wire(e) => write!(f, "campaign control frame error: {e}"),
        }
    }
}

impl std::error::Error for CampaignError {}

impl From<WireError> for CampaignError {
    fn from(e: WireError) -> Self {
        CampaignError::Wire(e)
    }
}

impl wideleak_faults::ErrorClass for CampaignError {
    fn class(&self) -> &'static str {
        Self::class(self)
    }
}

// ---------------------------------------------------------------------
// Wire encoding (frame payloads; framing itself lives in `wire`)
// ---------------------------------------------------------------------

const ERR_SHARD_LOST: u8 = 0;
const ERR_SPAWN: u8 = 1;
const ERR_PROTOCOL: u8 = 2;
const ERR_WORKER: u8 = 3;
const ERR_WIRE: u8 = 4;

/// The call payload: the spec, then the shard assignment.
pub(crate) fn encode_campaign_call(spec: &CampaignSpec, shard: &ShardAssignment) -> Vec<u8> {
    let mut w = Writer::new();
    spec.encode(&mut w);
    w.u32(shard.shard_id).u64(shard.start).u64(shard.end);
    w.into_inner()
}

pub(crate) fn decode_campaign_call(
    r: &mut Reader<'_>,
) -> Result<(CampaignSpec, ShardAssignment), WireError> {
    let spec = CampaignSpec::decode(r)?;
    let shard = ShardAssignment {
        shard_id: r.u32("shard id")?,
        start: r.u64("shard start")?,
        end: r.u64("shard end")?,
    };
    Ok((spec, shard))
}

/// The reply payload: an ok flag, then the shard report (1) or the
/// error (0).
pub(crate) fn encode_campaign_reply(reply: &Result<ShardReport, CampaignError>) -> Vec<u8> {
    let mut w = Writer::new();
    match reply {
        Ok(report) => {
            w.u8(1);
            report.encode(&mut w);
        }
        Err(err) => {
            w.u8(0);
            encode_campaign_error(&mut w, err);
        }
    }
    w.into_inner()
}

pub(crate) fn decode_campaign_reply(
    r: &mut Reader<'_>,
) -> Result<Result<ShardReport, CampaignError>, WireError> {
    match r.u8("campaign reply ok flag")? {
        1 => Ok(Ok(ShardReport::decode(r)?)),
        0 => Ok(Err(decode_campaign_error(r)?)),
        _ => Err(WireError::Malformed { what: "campaign reply ok flag" }),
    }
}

fn encode_campaign_error(w: &mut Writer, err: &CampaignError) {
    match err {
        CampaignError::ShardLost { shard_id } => {
            w.u8(ERR_SHARD_LOST).u32(*shard_id);
        }
        CampaignError::Spawn { what } => {
            w.u8(ERR_SPAWN).string(what);
        }
        CampaignError::Protocol { what } => {
            w.u8(ERR_PROTOCOL).string(what);
        }
        CampaignError::Worker { what } => {
            w.u8(ERR_WORKER).string(what);
        }
        CampaignError::Wire(e) => {
            w.u8(ERR_WIRE);
            encode_wire_error(w, e);
        }
    }
}

fn decode_campaign_error(r: &mut Reader<'_>) -> Result<CampaignError, WireError> {
    match r.u8("campaign error tag")? {
        ERR_SHARD_LOST => Ok(CampaignError::ShardLost { shard_id: r.u32("lost shard id")? }),
        ERR_SPAWN => Ok(CampaignError::Spawn { what: r.string("spawn error")? }),
        ERR_PROTOCOL => Ok(CampaignError::Protocol { what: r.string("protocol error")? }),
        ERR_WORKER => Ok(CampaignError::Worker { what: r.string("worker error")? }),
        ERR_WIRE => Ok(CampaignError::Wire(decode_wire_error(r)?)),
        _ => Err(WireError::Malformed { what: "unknown campaign error tag" }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{decode_frame, encode_frame, FrameBody, FrameMeta};

    fn sample_spec() -> CampaignSpec {
        CampaignSpec {
            seed: 2022,
            devices: 4096,
            sample_every: 512,
            rsa_bits: 768,
            kill_at_device: Some(17),
        }
    }

    fn sample_report() -> ShardReport {
        let mut latency = LatencyHistogram::new();
        for ms in [12, 12, 40, 511, 700] {
            latency.record(ms);
        }
        let mut cells = AppCells::new("netflix");
        cells.record(0, 42);
        cells.record(3, 7);
        cells.record(3, 3);
        ShardReport {
            shard_id: 1,
            start: 2048,
            end: 4096,
            cells: vec![cells],
            latency,
            sampled_plays: 4,
            sample_mismatches: 0,
        }
    }

    fn roundtrip(body: FrameBody) {
        let frame = encode_frame(&body, FrameMeta::default());
        let (decoded, _, used) = decode_frame(&frame).expect("campaign frame decodes");
        assert_eq!(used, frame.len());
        assert_eq!(decoded, body);
    }

    #[test]
    fn campaign_calls_roundtrip() {
        roundtrip(FrameBody::CampaignCall {
            spec: sample_spec(),
            shard: ShardAssignment { shard_id: 3, start: 0, end: 1024 },
        });
        roundtrip(FrameBody::CampaignCall {
            spec: CampaignSpec { kill_at_device: None, ..sample_spec() },
            shard: ShardAssignment { shard_id: 0, start: 7, end: 7 },
        });
    }

    #[test]
    fn campaign_replies_roundtrip() {
        roundtrip(FrameBody::CampaignReply(Ok(sample_report())));
    }

    #[test]
    fn campaign_errors_roundtrip() {
        for err in [
            CampaignError::ShardLost { shard_id: 2 },
            CampaignError::Spawn { what: "no such binary".into() },
            CampaignError::Protocol { what: "reply out of step".into() },
            CampaignError::Worker { what: "shard range outside campaign".into() },
            CampaignError::Wire(WireError::Truncated { needed: 4108, got: 12 }),
            CampaignError::Wire(WireError::Oversized { len: 1 << 30, max: 16 << 20 }),
            CampaignError::Wire(WireError::BadMagic { found: *b"HTTP" }),
            CampaignError::Wire(WireError::UnsupportedVersion { version: 2 }),
            CampaignError::Wire(WireError::BadCrc { expected: 1, found: 2 }),
            CampaignError::Wire(WireError::Malformed { what: "spec kill flag" }),
        ] {
            roundtrip(FrameBody::CampaignReply(Err(err)));
        }
    }

    #[test]
    fn cell_merge_sums_counts_and_takes_min_exemplars() {
        let mut a = AppCells::new("netflix");
        a.record(0, 10);
        a.record(0, 4);
        let mut b = AppCells::new("netflix");
        b.record(0, 2);
        b.record(2, 99);
        a.merge(&b);
        assert_eq!(a.counts[0], 3);
        assert_eq!(a.exemplars[0], Some(2));
        assert_eq!(a.counts[2], 1);
        assert_eq!(a.exemplars[2], Some(99));
        assert_eq!(a.exemplars[1], None);
    }

    #[test]
    fn tampered_histogram_is_malformed() {
        let decode = |entries: &[(u64, u64)]| {
            let mut w = Writer::new();
            w.u32(entries.len() as u32);
            for &(value, n) in entries {
                w.u64(value).u64(n);
            }
            decode_histogram(&mut Reader::new(&w.into_inner()))
        };
        let mut h = LatencyHistogram::new();
        h.record_n(3, 2);
        h.record(700);
        assert_eq!(decode(&[(3, 2), (700, 1)]), Ok(h));
        for (entries, what) in [
            (&[(700, 1), (3, 2)][..], "histogram values not strictly ascending"),
            (&[(3, 1), (3, 1)][..], "histogram values not strictly ascending"),
            (&[(3, 0)][..], "histogram value with zero count"),
            (&[(3, u64::MAX), (4, 1)][..], "histogram count overflow"),
        ] {
            assert_eq!(decode(entries), Err(WireError::Malformed { what }), "{entries:?}");
        }
    }
}
