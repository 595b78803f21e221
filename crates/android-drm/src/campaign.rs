//! The campaign control channel: the message family a coordinator uses
//! to drive `wideleak serve --worker` processes over the same wire-v3
//! codec the DRM plane speaks.
//!
//! A *campaign* re-derives the paper's Table-I compliance matrix across
//! a generated catalog of thousands of device models, sharded by
//! device-ID range across worker processes. This module holds the
//! protocol layer only — the message types ([`CampaignCall`],
//! [`CampaignReply`]), the typed failure taxonomy ([`CampaignError`]),
//! the per-shard result carrier ([`ShardReport`]) and its exact-merge
//! primitives ([`LatencyHistogram`], [`AppCells`]) — plus their wire
//! encodings, which ride in dedicated frame types alongside the DRM
//! call/reply frames. The semantics (how a shard is run, how cells are
//! classified, how reports render) live in `wideleak-monitor`.
//!
//! **Exactness is the design invariant.** A merged campaign report must
//! be a pure function of (spec, seed, catalog) — independent of shard
//! count, worker scheduling, and reply arrival order. Everything in a
//! [`ShardReport`] is therefore mergeable without approximation:
//! latency travels as fixed-width-bucket histograms whose bucket-wise
//! sum yields the same nearest-rank percentiles as the concatenation of
//! every shard's raw samples, and compliance cells merge by count-sum
//! plus minimum-device-id exemplars, both order-independent.

use crate::wire::{Reader, WireError, Writer};

/// Buckets in a [`LatencyHistogram`]. Each bucket is exactly one
/// millisecond wide (bucket `i` holds samples of `i` ms), which is what
/// makes histogram merge *exact*: a sample is its bucket index, so
/// percentiles over summed buckets equal percentiles over concatenated
/// samples. Samples at or above the cap land in the last bucket and are
/// reported as `HISTOGRAM_BUCKETS - 1` ms (campaign latency models stay
/// far below the cap, so the clamp never engages in practice).
pub const HISTOGRAM_BUCKETS: usize = 512;

/// Compliance cell kinds per (device, app) pair — the Table-I vocabulary
/// widened to the generated catalog. The protocol layer only fixes the
/// *count* and the index order; `wideleak-monitor` owns the semantics.
///
/// Index order: plays-HD, plays-SD, plays-via-embedded-DRM,
/// provisioning-refused, custom-DRM-always.
pub const CELL_KINDS: usize = 5;

/// A fixed-bucket latency histogram with exact merge semantics.
///
/// `record` clamps to the last bucket; `merge` is a bucket-wise sum plus
/// min/max/sum/count folds; `percentile` walks the cumulative counts
/// with the same nearest-rank formula the load generator uses over raw
/// samples (`rank = (count - 1) * num / den`, zero-based), so merged
/// percentiles are byte-for-byte those of the concatenated samples.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyHistogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        LatencyHistogram {
            buckets: vec![0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one sample, clamping at the last bucket.
    pub fn record(&mut self, ms: u64) {
        let clamped = ms.min(HISTOGRAM_BUCKETS as u64 - 1);
        self.buckets[usize::try_from(clamped).expect("bucket index fits usize")] += 1;
        self.count += 1;
        self.sum += clamped;
        self.min = self.min.min(clamped);
        self.max = self.max.max(clamped);
    }

    /// Folds another histogram in. Commutative and associative, so the
    /// merged result is independent of shard arrival order.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Total samples recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all recorded (clamped) samples, for exact integer means.
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded sample, `None` when empty.
    #[must_use]
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest recorded sample, `None` when empty.
    #[must_use]
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Integer mean (floor), `None` when empty.
    #[must_use]
    pub fn mean(&self) -> Option<u64> {
        (self.count > 0).then(|| self.sum / self.count)
    }

    /// The nearest-rank `num/den` percentile, `None` when empty. Uses
    /// the zero-based rank `(count - 1) * num / den` — the same formula
    /// `wideleak-load` applies to sorted raw samples, which is what the
    /// merge-oracle property test pins.
    #[must_use]
    pub fn percentile(&self, num: u64, den: u64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = (self.count - 1) * num / den;
        let mut seen = 0u64;
        for (idx, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen > rank {
                return Some(idx as u64);
            }
        }
        // Unreachable while count equals the bucket sum; be total anyway.
        self.max()
    }

    fn encode(&self, w: &mut Writer) {
        w.u64(self.count).u64(self.sum).u64(self.min).u64(self.max);
        let nonzero = self.buckets.iter().filter(|&&n| n > 0).count();
        w.u32(u32::try_from(nonzero).expect("bucket count fits u32"));
        for (idx, &n) in self.buckets.iter().enumerate() {
            if n > 0 {
                w.u32(u32::try_from(idx).expect("bucket index fits u32")).u64(n);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let mut h = LatencyHistogram::new();
        h.count = r.u64("histogram count")?;
        h.sum = r.u64("histogram sum")?;
        h.min = r.u64("histogram min")?;
        h.max = r.u64("histogram max")?;
        let nonzero = r.u32("histogram nonzero buckets")?;
        let mut total = 0u64;
        let mut last: Option<u32> = None;
        for _ in 0..nonzero {
            let idx = r.u32("histogram bucket index")?;
            let n = r.u64("histogram bucket count")?;
            if idx as usize >= HISTOGRAM_BUCKETS || n == 0 {
                return Err(WireError::Malformed { what: "histogram bucket out of range" });
            }
            if last.is_some_and(|prev| idx <= prev) {
                return Err(WireError::Malformed { what: "histogram buckets out of order" });
            }
            last = Some(idx);
            h.buckets[idx as usize] = n;
            total = total
                .checked_add(n)
                .ok_or(WireError::Malformed { what: "histogram bucket count overflow" })?;
        }
        if total != h.count {
            return Err(WireError::Malformed { what: "histogram count does not match buckets" });
        }
        Ok(h)
    }
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
    /// Catalog device ids `0..devices` are swept.
    pub devices: u64,
    /// App slugs to evaluate; empty means every evaluated app.
    pub apps: Vec<String>,
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
        w.u64(self.seed).u64(self.devices);
        w.u32(u32::try_from(self.apps.len()).expect("app count fits u32"));
        for app in &self.apps {
            w.string(app);
        }
        w.u64(self.sample_every).u32(self.rsa_bits);
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
        let napps = r.u32("spec app count")?;
        let mut apps = Vec::new();
        for _ in 0..napps {
            apps.push(r.string("spec app slug")?);
        }
        let sample_every = r.u64("spec sample interval")?;
        let rsa_bits = r.u32("spec rsa bits")?;
        let kill_at_device = match r.u8("spec kill flag")? {
            0 => None,
            1 => Some(r.u64("spec kill device")?),
            _ => return Err(WireError::Malformed { what: "spec kill flag" }),
        };
        Ok(CampaignSpec { seed, devices, apps, sample_every, rsa_bits, kill_at_device })
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
    /// spec's app order.
    pub cells: Vec<AppCells>,
    /// Modeled license-path latency, one sample per (device, app).
    pub latency: LatencyHistogram,
    /// Real end-to-end playbacks this shard ran to validate cells.
    pub sampled_plays: u64,
    /// Sampled playbacks whose outcome disagreed with the derived cell
    /// (expected 0 — a nonzero count is a model/simulation divergence).
    pub sample_mismatches: u64,
    /// Shard-local counters, merged by name-wise sum. Only counters
    /// whose totals are shard-count-invariant belong here.
    pub counters: Vec<(String, u64)>,
}

impl ShardReport {
    fn encode(&self, w: &mut Writer) {
        w.u32(self.shard_id).u64(self.start).u64(self.end);
        w.u32(u32::try_from(self.cells.len()).expect("cell count fits u32"));
        for cells in &self.cells {
            cells.encode(w);
        }
        self.latency.encode(w);
        w.u64(self.sampled_plays).u64(self.sample_mismatches);
        w.u32(u32::try_from(self.counters.len()).expect("counter count fits u32"));
        for (name, value) in &self.counters {
            w.string(name).u64(*value);
        }
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
        let latency = LatencyHistogram::decode(r)?;
        let sampled_plays = r.u64("report sampled plays")?;
        let sample_mismatches = r.u64("report sample mismatches")?;
        let ncounters = r.u32("report counter count")?;
        let mut counters = Vec::new();
        for _ in 0..ncounters {
            let name = r.string("report counter name")?;
            let value = r.u64("report counter value")?;
            counters.push((name, value));
        }
        Ok(ShardReport {
            shard_id,
            start,
            end,
            cells,
            latency,
            sampled_plays,
            sample_mismatches,
            counters,
        })
    }
}

/// A coordinator-to-worker transaction on the campaign control channel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CampaignCall {
    /// Handshake: is there a campaign-capable worker on this socket?
    Hello,
    /// Run one shard of the campaign and reply with its report.
    RunShard {
        /// The campaign's full parameterisation.
        spec: CampaignSpec,
        /// This worker's slice of it.
        shard: ShardAssignment,
    },
    /// Ask the worker process to exit once the reply is flushed.
    Shutdown,
}

/// A worker-to-coordinator outcome on the campaign control channel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CampaignReply {
    /// Handshake answer.
    HelloAck {
        /// The worker's OS process id, for coordinator diagnostics.
        pid: u32,
        /// The wire revision the worker speaks.
        wire_version: u8,
    },
    /// The shard's results.
    ShardDone(ShardReport),
    /// Shutdown acknowledged; the process exits after flushing this.
    ShuttingDown,
}

/// Everything that can go wrong with a campaign, as a typed taxonomy.
/// Coordinator-side variants (`ShardLost`, `Spawn`) never cross the
/// wire in practice but encode anyway, so the taxonomy is uniform.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CampaignError {
    /// A worker's control channel died before its shard report arrived
    /// (process crash, kill, or connection loss).
    ShardLost {
        /// The shard whose worker was lost.
        shard_id: u32,
    },
    /// Spawning or handshaking a worker process failed.
    Spawn {
        /// What failed.
        what: String,
    },
    /// The peer violated the control protocol (unexpected frame kind,
    /// reply out of step with the call).
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

/// What a server does with campaign calls. `wideleak serve --worker`
/// registers one; a plain `wideleak serve` has none, and campaign
/// frames sent at it get a typed [`CampaignError::Protocol`] refusal.
pub trait CampaignHandler: Send + Sync {
    /// Handles one campaign transaction. `RunShard` may take seconds —
    /// it runs on a dispatch worker, so the reactor's IO loop keeps
    /// breathing underneath it.
    fn handle(&self, call: CampaignCall) -> Result<CampaignReply, CampaignError>;
}

// ---------------------------------------------------------------------
// Wire encoding (frame payloads; framing itself lives in `wire`)
// ---------------------------------------------------------------------

const CALL_HELLO: u8 = 0;
const CALL_RUN_SHARD: u8 = 1;
const CALL_SHUTDOWN: u8 = 2;

const REPLY_HELLO_ACK: u8 = 0;
const REPLY_SHARD_DONE: u8 = 1;
const REPLY_SHUTTING_DOWN: u8 = 2;

const ERR_SHARD_LOST: u8 = 0;
const ERR_SPAWN: u8 = 1;
const ERR_PROTOCOL: u8 = 2;
const ERR_WORKER: u8 = 3;
const ERR_WIRE: u8 = 4;

pub(crate) fn encode_campaign_call(call: &CampaignCall) -> Vec<u8> {
    let mut w = Writer::new();
    match call {
        CampaignCall::Hello => {
            w.u8(CALL_HELLO);
        }
        CampaignCall::RunShard { spec, shard } => {
            w.u8(CALL_RUN_SHARD);
            spec.encode(&mut w);
            w.u32(shard.shard_id).u64(shard.start).u64(shard.end);
        }
        CampaignCall::Shutdown => {
            w.u8(CALL_SHUTDOWN);
        }
    }
    w.into_inner()
}

pub(crate) fn decode_campaign_call(r: &mut Reader<'_>) -> Result<CampaignCall, WireError> {
    match r.u8("campaign call tag")? {
        CALL_HELLO => Ok(CampaignCall::Hello),
        CALL_RUN_SHARD => {
            let spec = CampaignSpec::decode(r)?;
            let shard = ShardAssignment {
                shard_id: r.u32("shard id")?,
                start: r.u64("shard start")?,
                end: r.u64("shard end")?,
            };
            Ok(CampaignCall::RunShard { spec, shard })
        }
        CALL_SHUTDOWN => Ok(CampaignCall::Shutdown),
        _ => Err(WireError::Malformed { what: "unknown campaign call tag" }),
    }
}

pub(crate) fn encode_campaign_reply(reply: &Result<CampaignReply, CampaignError>) -> Vec<u8> {
    let mut w = Writer::new();
    match reply {
        Ok(ok) => {
            w.u8(1);
            match ok {
                CampaignReply::HelloAck { pid, wire_version } => {
                    w.u8(REPLY_HELLO_ACK).u32(*pid).u8(*wire_version);
                }
                CampaignReply::ShardDone(report) => {
                    w.u8(REPLY_SHARD_DONE);
                    report.encode(&mut w);
                }
                CampaignReply::ShuttingDown => {
                    w.u8(REPLY_SHUTTING_DOWN);
                }
            }
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
) -> Result<Result<CampaignReply, CampaignError>, WireError> {
    match r.u8("campaign reply ok flag")? {
        1 => match r.u8("campaign reply tag")? {
            REPLY_HELLO_ACK => Ok(Ok(CampaignReply::HelloAck {
                pid: r.u32("hello ack pid")?,
                wire_version: r.u8("hello ack wire version")?,
            })),
            REPLY_SHARD_DONE => Ok(Ok(CampaignReply::ShardDone(ShardReport::decode(r)?))),
            REPLY_SHUTTING_DOWN => Ok(Ok(CampaignReply::ShuttingDown)),
            _ => Err(WireError::Malformed { what: "unknown campaign reply tag" }),
        },
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

const WERR_TRUNCATED: u8 = 0;
const WERR_OVERSIZED: u8 = 1;
const WERR_BAD_MAGIC: u8 = 2;
const WERR_UNSUPPORTED_VERSION: u8 = 3;
const WERR_BAD_CRC: u8 = 4;
const WERR_MALFORMED: u8 = 5;

fn encode_wire_error(w: &mut Writer, e: &WireError) {
    match e {
        WireError::Truncated { needed, got } => {
            w.u8(WERR_TRUNCATED).u64(*needed as u64).u64(*got as u64);
        }
        WireError::Oversized { len, max } => {
            w.u8(WERR_OVERSIZED).u64(*len as u64).u64(*max as u64);
        }
        WireError::BadMagic { found } => {
            w.u8(WERR_BAD_MAGIC).raw(found);
        }
        WireError::UnsupportedVersion { version } => {
            w.u8(WERR_UNSUPPORTED_VERSION).u8(*version);
        }
        WireError::BadCrc { expected, found } => {
            w.u8(WERR_BAD_CRC).u32(*expected).u32(*found);
        }
        WireError::Malformed { what } => {
            w.u8(WERR_MALFORMED).string(what);
        }
    }
}

fn decode_wire_error(r: &mut Reader<'_>) -> Result<WireError, WireError> {
    match r.u8("nested wire error tag")? {
        WERR_TRUNCATED => Ok(WireError::Truncated {
            needed: r.u64("truncated needed")? as usize,
            got: r.u64("truncated got")? as usize,
        }),
        WERR_OVERSIZED => Ok(WireError::Oversized {
            len: r.u64("oversized len")? as usize,
            max: r.u64("oversized max")? as usize,
        }),
        WERR_BAD_MAGIC => Ok(WireError::BadMagic { found: r.array("bad magic bytes")? }),
        WERR_UNSUPPORTED_VERSION => {
            Ok(WireError::UnsupportedVersion { version: r.u8("unsupported version")? })
        }
        WERR_BAD_CRC => Ok(WireError::BadCrc {
            expected: r.u32("bad crc expected")?,
            found: r.u32("bad crc found")?,
        }),
        WERR_MALFORMED => Ok(WireError::Malformed { what: r.static_str("malformed what")? }),
        _ => Err(WireError::Malformed { what: "unknown nested wire error tag" }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{decode_frame, encode_frame, FrameBody};

    fn sample_spec() -> CampaignSpec {
        CampaignSpec {
            seed: 2022,
            devices: 4096,
            apps: vec!["netflix".into(), "disney".into()],
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
            counters: vec![("campaign.devices".into(), 2048)],
        }
    }

    fn roundtrip_call(call: CampaignCall) {
        let frame = encode_frame(&FrameBody::CampaignCall(call.clone()));
        let (body, used) = decode_frame(&frame).expect("campaign call decodes");
        assert_eq!(used, frame.len());
        assert_eq!(body, FrameBody::CampaignCall(call));
    }

    fn roundtrip_reply(reply: Result<CampaignReply, CampaignError>) {
        let frame = encode_frame(&FrameBody::CampaignReply(reply.clone()));
        let (body, used) = decode_frame(&frame).expect("campaign reply decodes");
        assert_eq!(used, frame.len());
        assert_eq!(body, FrameBody::CampaignReply(reply));
    }

    #[test]
    fn campaign_calls_roundtrip() {
        roundtrip_call(CampaignCall::Hello);
        roundtrip_call(CampaignCall::RunShard {
            spec: sample_spec(),
            shard: ShardAssignment { shard_id: 3, start: 0, end: 1024 },
        });
        roundtrip_call(CampaignCall::Shutdown);
    }

    #[test]
    fn campaign_replies_roundtrip() {
        roundtrip_reply(Ok(CampaignReply::HelloAck { pid: 4242, wire_version: 3 }));
        roundtrip_reply(Ok(CampaignReply::ShardDone(sample_report())));
        roundtrip_reply(Ok(CampaignReply::ShuttingDown));
    }

    #[test]
    fn campaign_errors_roundtrip() {
        for err in [
            CampaignError::ShardLost { shard_id: 2 },
            CampaignError::Spawn { what: "no such binary".into() },
            CampaignError::Protocol { what: "reply out of step".into() },
            CampaignError::Worker { what: "unknown app slug".into() },
            CampaignError::Wire(WireError::BadCrc { expected: 1, found: 2 }),
            CampaignError::Wire(WireError::Malformed { what: "spec kill flag" }),
        ] {
            roundtrip_reply(Err(err));
        }
    }

    #[test]
    fn histogram_percentiles_match_sorted_samples() {
        let samples = [3u64, 9, 9, 14, 14, 14, 27, 101, 205, 301];
        let mut h = LatencyHistogram::new();
        for &s in &samples {
            h.record(s);
        }
        let q = |num: u64, den: u64| samples[((samples.len() as u64 - 1) * num / den) as usize];
        assert_eq!(h.percentile(50, 100), Some(q(50, 100)));
        assert_eq!(h.percentile(95, 100), Some(q(95, 100)));
        assert_eq!(h.percentile(99, 100), Some(q(99, 100)));
        assert_eq!(h.min(), Some(3));
        assert_eq!(h.max(), Some(301));
        assert_eq!(h.mean(), Some(samples.iter().sum::<u64>() / samples.len() as u64));
    }

    #[test]
    fn histogram_merge_equals_concatenation() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        let mut all = LatencyHistogram::new();
        for &s in &[5u64, 8, 8, 60] {
            a.record(s);
            all.record(s);
        }
        for &s in &[1u64, 8, 200] {
            b.record(s);
            all.record(s);
        }
        let mut merged = LatencyHistogram::new();
        merged.merge(&a);
        merged.merge(&b);
        assert_eq!(merged, all);
        // Merging an empty histogram is the identity.
        merged.merge(&LatencyHistogram::new());
        assert_eq!(merged, all);
    }

    #[test]
    fn empty_histogram_has_no_stats() {
        let h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.mean(), None);
        assert_eq!(h.percentile(50, 100), None);
    }

    #[test]
    fn record_clamps_to_last_bucket() {
        let mut h = LatencyHistogram::new();
        h.record(u64::MAX);
        assert_eq!(h.max(), Some(HISTOGRAM_BUCKETS as u64 - 1));
        assert_eq!(h.percentile(50, 100), Some(HISTOGRAM_BUCKETS as u64 - 1));
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
        let mut report = sample_report();
        report.latency = LatencyHistogram::new();
        report.latency.count = 5; // lies about the bucket sum
        let frame = encode_frame(&FrameBody::CampaignReply(Ok(CampaignReply::ShardDone(report))));
        assert_eq!(
            decode_frame(&frame),
            Err(WireError::Malformed { what: "histogram count does not match buckets" })
        );
    }
}
