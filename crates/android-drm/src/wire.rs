//! The versioned, length-prefixed wire format the TCP binder and the
//! campaign's worker pipes speak.
//!
//! A frame is a fixed 12-byte header, a payload, and a trailing CRC-32
//! over header + payload:
//!
//! ```text
//! offset  size  field
//!      0     4  magic  "WDLK"
//!      4     1  version (3, the only one decoded)
//!      5     1  frame type (0 = call, 1 = reply, 2/3 = campaign
//!               call/reply)
//!      6     1  flags (bit 0 = trace context, bit 1 = request id)
//!      7     1  reserved (must be 0)
//!      8     4  payload length, little-endian
//!     12     n  payload (optional 24-byte trace context, optional
//!               8-byte request id, then the tagged DrmCall /
//!               Result<DrmReply, DrmError>)
//!   12+n     4  CRC-32 (IEEE) over bytes 0..12+n, little-endian
//! ```
//!
//! When [`FLAG_TRACE_CONTEXT`] is set, the payload region opens with a
//! [`TraceContext`] in its fixed 24-byte wire form
//! ([`TraceContext::WIRE_LEN`]) before the body, which is how a client
//! call's trace identity reaches the server process (and stitches the
//! server's spans into the caller's trace).
//!
//! When [`FLAG_REQUEST_ID`] is set, an 8-byte little-endian request id
//! follows the (optional) trace context. The reactor server echoes a
//! call's request id on its reply frame, which is what lets a client
//! keep several calls in flight on one connection and correlate the
//! out-of-order replies. Any other flag bit, or a nonzero reserved
//! byte, is [`WireError::Malformed`].
//!
//! The length field covers the extensions and the body; the CRC covers
//! everything, extensions included.
//!
//! [`encode_frame`] and [`decode_frame`] are pure functions over byte
//! slices — no sockets, no clocks — so the property/fuzz battery can
//! hammer the codec directly. Every way a frame can be malformed maps to
//! one [`WireError`] variant: short input is [`WireError::Truncated`], a
//! length field past [`MAX_PAYLOAD`] is [`WireError::Oversized`] (checked
//! *before* any allocation), a foreign protocol is
//! [`WireError::BadMagic`], any other protocol revision is
//! [`WireError::UnsupportedVersion`], bit rot is [`WireError::BadCrc`],
//! and a payload whose tags or field lengths are inconsistent is
//! [`WireError::Malformed`]. The decoder never panics on arbitrary
//! input.
//!
//! This is the one module that knows how a frame is laid out and cut
//! from a stream. Both codec functions carry the extensions as a
//! [`FrameMeta`]. A blocking reader (the TCP client's reply read, the
//! campaign's worker pipes) calls [`read_frame`]; a non-blocking one
//! (the reactor, the `load --fleet` driver) appends what it reads to a
//! buffer, asks [`frame_at_front`] whether a whole frame sits at its
//! front, and decodes it where it lies.
//!
//! Version negotiation is deliberately one-sided: the header carries the
//! sender's version and the receiver rejects anything it does not speak.
//! Every peer is this build, so that is an equality check against
//! [`VERSION`].

use std::collections::BTreeSet;

use wideleak_bmff::types::{KeyId, Subsample};
use wideleak_cdm::oemcrypto::SampleCrypto;
use wideleak_cdm::CdmError;
use wideleak_crypto::crc32::crc32;
use wideleak_tee::TeeError;
use wideleak_telemetry::TraceContext;

use crate::binder::{DrmCall, DrmReply};
use crate::campaign::{self, CampaignError, CampaignSpec, ShardAssignment, ShardReport};
use crate::DrmError;

/// The four magic bytes opening every frame.
pub const MAGIC: [u8; 4] = *b"WDLK";

/// The wire-format revision this build speaks, and the only one it
/// decodes.
pub const VERSION: u8 = 3;

/// Header flag: the payload opens with a 24-byte trace context.
pub const FLAG_TRACE_CONTEXT: u8 = 0x01;

/// Header flag: an 8-byte little-endian request id follows the
/// (optional) trace context. Replies echo the request id of the call
/// they answer, which is what makes frame pipelining correlatable.
pub const FLAG_REQUEST_ID: u8 = 0x02;

/// Fixed header size (magic + version + type + flags + reserved +
/// length).
pub const HEADER_LEN: usize = 12;

/// CRC-32 trailer size.
pub const TRAILER_LEN: usize = 4;

/// Upper bound on a frame's payload (16 MiB). A header claiming more is
/// rejected as [`WireError::Oversized`] before any buffer is sized from
/// it, so a hostile peer cannot make the decoder allocate unboundedly.
pub const MAX_PAYLOAD: usize = 16 * 1024 * 1024;

/// Everything that can be wrong with a frame, as a typed taxonomy. The
/// decoder returns exactly one of these for every malformed input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The input ends before the frame does.
    Truncated {
        /// Bytes the frame needs.
        needed: usize,
        /// Bytes actually present.
        got: usize,
    },
    /// The header's length field exceeds [`MAX_PAYLOAD`].
    Oversized {
        /// The claimed payload length.
        len: usize,
        /// The enforced maximum.
        max: usize,
    },
    /// The first four bytes are not [`MAGIC`].
    BadMagic {
        /// The bytes found instead.
        found: [u8; 4],
    },
    /// The version byte names a revision this build does not speak.
    UnsupportedVersion {
        /// The version found.
        version: u8,
    },
    /// The CRC-32 trailer does not match the header + payload bytes.
    BadCrc {
        /// CRC computed over the received bytes.
        expected: u32,
        /// CRC carried in the trailer.
        found: u32,
    },
    /// The frame is structurally sound but its payload is not a valid
    /// call/reply encoding (unknown tag, inconsistent field lengths,
    /// trailing garbage).
    Malformed {
        /// What the payload decoder tripped on.
        what: &'static str,
    },
}

impl WireError {
    /// A stable lowercase label for telemetry error-class counters.
    #[must_use]
    pub fn class(&self) -> &'static str {
        match self {
            WireError::Truncated { .. } => "truncated",
            WireError::Oversized { .. } => "oversized",
            WireError::BadMagic { .. } => "bad_magic",
            WireError::UnsupportedVersion { .. } => "unsupported_version",
            WireError::BadCrc { .. } => "bad_crc",
            WireError::Malformed { .. } => "malformed",
        }
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated { needed, got } => {
                write!(f, "truncated frame: need {needed} bytes, got {got}")
            }
            WireError::Oversized { len, max } => {
                write!(f, "oversized frame: {len}-byte payload exceeds the {max}-byte cap")
            }
            WireError::BadMagic { found } => write!(f, "bad magic {found:02x?}"),
            WireError::UnsupportedVersion { version } => {
                write!(f, "unsupported wire version {version}")
            }
            WireError::BadCrc { expected, found } => {
                write!(f, "frame CRC mismatch: computed {expected:08x}, carried {found:08x}")
            }
            WireError::Malformed { what } => write!(f, "malformed payload: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

impl wideleak_faults::ErrorClass for WireError {
    fn class(&self) -> &'static str {
        Self::class(self)
    }
}

/// What a frame carries: one DRM transaction or its reply, or one
/// campaign shard call or its reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameBody {
    /// A client-to-server DRM transaction.
    Call(DrmCall),
    /// A server-to-client DRM outcome.
    Reply(Result<DrmReply, DrmError>),
    /// A coordinator-to-worker call: run this shard of this campaign.
    CampaignCall {
        /// The campaign's full parameterisation.
        spec: CampaignSpec,
        /// This worker's slice of it.
        shard: ShardAssignment,
    },
    /// A worker-to-coordinator reply: the shard's report or its error.
    CampaignReply(Result<ShardReport, CampaignError>),
}

const FRAME_TYPE_CALL: u8 = 0;
const FRAME_TYPE_REPLY: u8 = 1;
const FRAME_TYPE_CAMPAIGN_CALL: u8 = 2;
const FRAME_TYPE_CAMPAIGN_REPLY: u8 = 3;

/// The wire extensions a frame carries ahead of its body: what
/// [`encode_frame`] attaches and [`decode_frame`] surfaces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FrameMeta {
    /// The trace context, when the sender attached one
    /// ([`FLAG_TRACE_CONTEXT`]).
    pub ctx: Option<TraceContext>,
    /// The pipelining request id, when the sender attached one
    /// ([`FLAG_REQUEST_ID`]).
    pub request_id: Option<u64>,
}

/// Encodes one frame: header, the extensions `meta` names (a trace
/// context and/or a pipelining request id), the body, CRC trailer.
#[must_use]
pub fn encode_frame(body: &FrameBody, meta: FrameMeta) -> Vec<u8> {
    let (frame_type, payload) = match body {
        FrameBody::Call(call) => (FRAME_TYPE_CALL, encode_call(call)),
        FrameBody::Reply(reply) => (FRAME_TYPE_REPLY, encode_reply(reply)),
        FrameBody::CampaignCall { spec, shard } => {
            (FRAME_TYPE_CAMPAIGN_CALL, campaign::encode_campaign_call(spec, shard))
        }
        FrameBody::CampaignReply(reply) => {
            (FRAME_TYPE_CAMPAIGN_REPLY, campaign::encode_campaign_reply(reply))
        }
    };
    let ctx_len = meta.ctx.map_or(0, |_| TraceContext::WIRE_LEN);
    let id_len = meta.request_id.map_or(0, |_| 8);
    let total_payload = ctx_len + id_len + payload.len();
    let mut flags = 0u8;
    if meta.ctx.is_some() {
        flags |= FLAG_TRACE_CONTEXT;
    }
    if meta.request_id.is_some() {
        flags |= FLAG_REQUEST_ID;
    }
    let mut out = Vec::with_capacity(HEADER_LEN + total_payload + TRAILER_LEN);
    out.extend_from_slice(&MAGIC);
    out.push(VERSION);
    out.push(frame_type);
    out.push(flags);
    out.push(0);
    out.extend_from_slice(&u32::try_from(total_payload).expect("payload fits u32").to_le_bytes());
    if let Some(ctx) = meta.ctx {
        out.extend_from_slice(&ctx.encode());
    }
    if let Some(id) = meta.request_id {
        out.extend_from_slice(&id.to_le_bytes());
    }
    out.extend_from_slice(&payload);
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// Validates a frame header and returns the total frame length
/// (header plus payload plus trailer). The oversize check happens
/// here, before any payload buffer is sized.
fn frame_len(header: &[u8]) -> Result<usize, WireError> {
    if header.len() < HEADER_LEN {
        return Err(WireError::Truncated { needed: HEADER_LEN, got: header.len() });
    }
    let mut magic = [0u8; 4];
    magic.copy_from_slice(&header[0..4]);
    if magic != MAGIC {
        return Err(WireError::BadMagic { found: magic });
    }
    if header[4] != VERSION {
        return Err(WireError::UnsupportedVersion { version: header[4] });
    }
    let len = u32::from_le_bytes([header[8], header[9], header[10], header[11]]) as usize;
    if len > MAX_PAYLOAD {
        return Err(WireError::Oversized { len, max: MAX_PAYLOAD });
    }
    Ok(HEADER_LEN + len + TRAILER_LEN)
}

/// Says whether a whole frame sits at the front of `buf`, a
/// non-blocking reader's reassembly buffer: `Some(len)` when its first
/// `len` bytes are one frame, `None` while more bytes are needed.
///
/// # Errors
///
/// A header that cannot open a frame (bad magic, another version, an
/// oversized length). The frame boundary is then unknowable.
pub fn frame_at_front(buf: &[u8]) -> Result<Option<usize>, WireError> {
    if buf.len() < HEADER_LEN {
        return Ok(None);
    }
    let total = frame_len(&buf[..HEADER_LEN])?;
    Ok((buf.len() >= total).then_some(total))
}

/// Reads one whole frame off a blocking byte stream (a socket, a pipe):
/// the header, then the rest of the length it announces. `Ok(None)` is
/// a clean EOF before the frame's first byte.
///
/// # Errors
///
/// EOF inside a frame is [`std::io::ErrorKind::UnexpectedEof`]; a
/// header that cannot open a frame is
/// [`std::io::ErrorKind::InvalidData`] carrying its [`WireError`];
/// other IO errors pass through.
pub fn read_frame(stream: &mut impl std::io::Read) -> std::io::Result<Option<Vec<u8>>> {
    let mut header = [0u8; HEADER_LEN];
    let mut filled = 0;
    while filled < HEADER_LEN {
        match stream.read(&mut header[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => return Err(std::io::ErrorKind::UnexpectedEof.into()),
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    let total =
        frame_len(&header).map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
    let mut frame = vec![0u8; total];
    frame[..HEADER_LEN].copy_from_slice(&header);
    stream.read_exact(&mut frame[HEADER_LEN..])?;
    Ok(Some(frame))
}

/// Decodes one frame from the front of `buf`, returning the body, the
/// wire extensions it carried and the number of bytes consumed.
///
/// # Errors
///
/// Returns the matching [`WireError`] for every malformed input; never
/// panics.
pub fn decode_frame(buf: &[u8]) -> Result<(FrameBody, FrameMeta, usize), WireError> {
    let total = frame_len(buf)?;
    if buf.len() < total {
        return Err(WireError::Truncated { needed: total, got: buf.len() });
    }
    let body_end = total - TRAILER_LEN;
    let expected = crc32(&buf[..body_end]);
    let found = u32::from_le_bytes([
        buf[body_end],
        buf[body_end + 1],
        buf[body_end + 2],
        buf[body_end + 3],
    ]);
    if expected != found {
        return Err(WireError::BadCrc { expected, found });
    }
    let flags = buf[6];
    if flags & !(FLAG_TRACE_CONTEXT | FLAG_REQUEST_ID) != 0 {
        return Err(WireError::Malformed { what: "unknown header flags" });
    }
    if buf[7] != 0 {
        return Err(WireError::Malformed { what: "reserved header byte set" });
    }
    let mut payload = &buf[HEADER_LEN..body_end];
    let ctx = if flags & FLAG_TRACE_CONTEXT != 0 {
        if payload.len() < TraceContext::WIRE_LEN {
            return Err(WireError::Malformed { what: "trace context exceeds payload" });
        }
        let Some(ctx) = TraceContext::decode(payload) else {
            return Err(WireError::Malformed { what: "trace context with zero span id" });
        };
        payload = &payload[TraceContext::WIRE_LEN..];
        Some(ctx)
    } else {
        None
    };
    let request_id = if flags & FLAG_REQUEST_ID != 0 {
        if payload.len() < 8 {
            return Err(WireError::Malformed { what: "request id exceeds payload" });
        }
        let mut id = [0u8; 8];
        id.copy_from_slice(&payload[..8]);
        payload = &payload[8..];
        Some(u64::from_le_bytes(id))
    } else {
        None
    };
    let mut r = Reader::new(payload);
    let body = match buf[5] {
        FRAME_TYPE_CALL => FrameBody::Call(decode_call(&mut r)?),
        FRAME_TYPE_REPLY => FrameBody::Reply(decode_reply(&mut r)?),
        FRAME_TYPE_CAMPAIGN_CALL => {
            let (spec, shard) = campaign::decode_campaign_call(&mut r)?;
            FrameBody::CampaignCall { spec, shard }
        }
        FRAME_TYPE_CAMPAIGN_REPLY => {
            FrameBody::CampaignReply(campaign::decode_campaign_reply(&mut r)?)
        }
        _ => return Err(WireError::Malformed { what: "unknown frame type" }),
    };
    r.finish()?;
    Ok((body, FrameMeta { ctx, request_id }, total))
}

// ---------------------------------------------------------------------
// Primitive reader/writer
// ---------------------------------------------------------------------

/// The primitive little-endian payload reader the frame bodies decode
/// through. Crate-visible so the campaign codec shares it.
pub(crate) struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    pub(crate) fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], WireError> {
        let end = self.pos.checked_add(n).ok_or(WireError::Malformed { what })?;
        if end > self.buf.len() {
            return Err(WireError::Malformed { what });
        }
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    pub(crate) fn u8(&mut self, what: &'static str) -> Result<u8, WireError> {
        Ok(self.take(1, what)?[0])
    }

    pub(crate) fn u16(&mut self, what: &'static str) -> Result<u16, WireError> {
        let b = self.take(2, what)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    pub(crate) fn u32(&mut self, what: &'static str) -> Result<u32, WireError> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    pub(crate) fn u64(&mut self, what: &'static str) -> Result<u64, WireError> {
        let b = self.take(8, what)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }

    pub(crate) fn array<const N: usize>(
        &mut self,
        what: &'static str,
    ) -> Result<[u8; N], WireError> {
        let b = self.take(N, what)?;
        let mut a = [0u8; N];
        a.copy_from_slice(b);
        Ok(a)
    }

    /// A length-prefixed byte payload. The length is bounded by the
    /// remaining input, so a lying prefix cannot trigger a huge
    /// allocation.
    pub(crate) fn bytes(&mut self, what: &'static str) -> Result<Vec<u8>, WireError> {
        let len = self.u32(what)? as usize;
        Ok(self.take(len, what)?.to_vec())
    }

    pub(crate) fn string(&mut self, what: &'static str) -> Result<String, WireError> {
        String::from_utf8(self.bytes(what)?).map_err(|_| WireError::Malformed { what })
    }

    /// Like [`Self::string`], but interning the result so variants whose
    /// reason fields are `&'static str` round-trip. The bytes come from a
    /// peer, so the leaked intern table is bounded by `intern_into`'s two
    /// caps, not by the error vocabulary: a reason longer than
    /// `MAX_REASON_LEN` bytes, or a new one once the table holds
    /// `MAX_INTERNED` entries, is `Malformed`.
    pub(crate) fn static_str(&mut self, what: &'static str) -> Result<&'static str, WireError> {
        intern(&self.string(what)?).ok_or(WireError::Malformed { what })
    }

    /// Rejects trailing garbage after a fully decoded payload.
    pub(crate) fn finish(self) -> Result<(), WireError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(WireError::Malformed { what: "trailing bytes after payload" })
        }
    }
}

/// The primitive little-endian payload writer, mirror of [`Reader`].
pub(crate) struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    pub(crate) fn new() -> Self {
        Writer { buf: Vec::new() }
    }

    pub(crate) fn u8(&mut self, v: u8) -> &mut Self {
        self.buf.push(v);
        self
    }

    pub(crate) fn u16(&mut self, v: u16) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    pub(crate) fn u32(&mut self, v: u32) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    pub(crate) fn u64(&mut self, v: u64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    pub(crate) fn raw(&mut self, v: &[u8]) -> &mut Self {
        self.buf.extend_from_slice(v);
        self
    }

    pub(crate) fn bytes(&mut self, v: &[u8]) -> &mut Self {
        self.u32(u32::try_from(v.len()).expect("field fits u32"));
        self.raw(v)
    }

    pub(crate) fn string(&mut self, v: &str) -> &mut Self {
        self.bytes(v.as_bytes())
    }

    pub(crate) fn into_inner(self) -> Vec<u8> {
        self.buf
    }
}

/// The longest reason string `Reader::static_str` accepts. Every reason
/// this build sends is a string literal of at most 43 bytes.
const MAX_REASON_LEN: usize = 128;

/// The most distinct reasons the process-wide intern table holds. This
/// build sends about 100.
const MAX_INTERNED: usize = 1024;

/// Interns a string in the process-wide table, returning a `&'static str`
/// with the same contents. Needed because several error variants carry
/// `&'static str` reasons that must survive a trip over the wire.
fn intern(s: &str) -> Option<&'static str> {
    use std::sync::Mutex;
    static TABLE: Mutex<BTreeSet<&'static str>> = Mutex::new(BTreeSet::new());
    intern_into(&mut TABLE.lock().expect("intern table lock"), s)
}

/// Returns `table`'s entry equal to `s`, leaking and inserting a copy if
/// there is none. Leaked entries are never freed, so the table is capped
/// at `MAX_INTERNED` entries of at most `MAX_REASON_LEN` bytes:
/// `None` for a longer `s`, or for a new `s` once the table is full.
fn intern_into(table: &mut BTreeSet<&'static str>, s: &str) -> Option<&'static str> {
    if s.len() > MAX_REASON_LEN {
        return None;
    }
    if let Some(existing) = table.get(s) {
        return Some(existing);
    }
    if table.len() >= MAX_INTERNED {
        return None;
    }
    let leaked: &'static str = Box::leak(s.to_owned().into_boxed_str());
    table.insert(leaked);
    Some(leaked)
}

// ---------------------------------------------------------------------
// DrmCall
// ---------------------------------------------------------------------

fn encode_subsamples(w: &mut Writer, subsamples: &[Subsample]) {
    w.u32(u32::try_from(subsamples.len()).expect("subsample count fits u32"));
    for s in subsamples {
        w.u16(s.clear_bytes);
        w.u32(s.encrypted_bytes);
    }
}

fn decode_subsamples(r: &mut Reader<'_>) -> Result<Vec<Subsample>, WireError> {
    let count = r.u32("subsample count")? as usize;
    // Each entry costs 6 bytes on the wire; bound the allocation by what
    // the input can actually contain.
    if count > r.buf.len().saturating_sub(r.pos) / 6 {
        return Err(WireError::Malformed { what: "subsample count exceeds payload" });
    }
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        out.push(Subsample {
            clear_bytes: r.u16("subsample clear bytes")?,
            encrypted_bytes: r.u32("subsample encrypted bytes")?,
        });
    }
    Ok(out)
}

fn encode_key_ids(w: &mut Writer, key_ids: &[KeyId]) {
    w.u32(u32::try_from(key_ids.len()).expect("key id count fits u32"));
    for kid in key_ids {
        w.raw(&kid.0);
    }
}

fn decode_key_ids(r: &mut Reader<'_>) -> Result<Vec<KeyId>, WireError> {
    let count = r.u32("key id count")? as usize;
    if count > r.buf.len().saturating_sub(r.pos) / 16 {
        return Err(WireError::Malformed { what: "key id count exceeds payload" });
    }
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        out.push(KeyId(r.array::<16>("key id")?));
    }
    Ok(out)
}

fn encode_sample_crypto(w: &mut Writer, crypto: &SampleCrypto) {
    match crypto {
        SampleCrypto::Cenc { iv } => {
            w.u8(0).raw(iv);
        }
        SampleCrypto::Cbcs { constant_iv, crypt_blocks, skip_blocks } => {
            w.u8(1).raw(constant_iv).u8(*crypt_blocks).u8(*skip_blocks);
        }
    }
}

fn decode_sample_crypto(r: &mut Reader<'_>) -> Result<SampleCrypto, WireError> {
    match r.u8("sample crypto tag")? {
        0 => Ok(SampleCrypto::Cenc { iv: r.array::<8>("cenc iv")? }),
        1 => Ok(SampleCrypto::Cbcs {
            constant_iv: r.array::<16>("cbcs iv")?,
            crypt_blocks: r.u8("cbcs crypt blocks")?,
            skip_blocks: r.u8("cbcs skip blocks")?,
        }),
        _ => Err(WireError::Malformed { what: "unknown sample crypto scheme" }),
    }
}

fn encode_call(call: &DrmCall) -> Vec<u8> {
    let mut w = Writer::new();
    match call {
        DrmCall::IsSchemeSupported { uuid } => {
            w.u8(0).raw(uuid);
        }
        DrmCall::OpenSession { nonce } => {
            w.u8(1).raw(nonce);
        }
        DrmCall::CloseSession { session_id } => {
            w.u8(2).u32(*session_id);
        }
        DrmCall::IsProvisioned => {
            w.u8(3);
        }
        DrmCall::GetProvisionRequest { nonce } => {
            w.u8(4).raw(nonce);
        }
        DrmCall::ProvideProvisionResponse { nonce, response } => {
            w.u8(5).raw(nonce).bytes(response);
        }
        DrmCall::GetKeyRequest { session_id, content_id, key_ids } => {
            w.u8(6).u32(*session_id).string(content_id);
            encode_key_ids(&mut w, key_ids);
        }
        DrmCall::ProvideKeyResponse { session_id, response } => {
            w.u8(7).u32(*session_id).bytes(response);
        }
        DrmCall::DecryptSample { session_id, kid, crypto, data, subsamples } => {
            w.u8(8).u32(*session_id).raw(&kid.0);
            encode_sample_crypto(&mut w, crypto);
            w.bytes(data);
            encode_subsamples(&mut w, subsamples);
        }
        DrmCall::GenericEncrypt { session_id, kid, iv, data } => {
            w.u8(9).u32(*session_id).raw(&kid.0).raw(iv).bytes(data);
        }
        DrmCall::GenericDecrypt { session_id, kid, iv, data } => {
            w.u8(10).u32(*session_id).raw(&kid.0).raw(iv).bytes(data);
        }
        DrmCall::GenericSign { session_id, kid, data } => {
            w.u8(11).u32(*session_id).raw(&kid.0).bytes(data);
        }
        DrmCall::GenericVerify { session_id, kid, data, signature } => {
            w.u8(12).u32(*session_id).raw(&kid.0).bytes(data).bytes(signature);
        }
    }
    w.buf
}

fn decode_call(r: &mut Reader<'_>) -> Result<DrmCall, WireError> {
    Ok(match r.u8("call tag")? {
        0 => DrmCall::IsSchemeSupported { uuid: r.array::<16>("scheme uuid")? },
        1 => DrmCall::OpenSession { nonce: r.array::<16>("session nonce")? },
        2 => DrmCall::CloseSession { session_id: r.u32("session id")? },
        3 => DrmCall::IsProvisioned,
        4 => DrmCall::GetProvisionRequest { nonce: r.array::<16>("provision nonce")? },
        5 => DrmCall::ProvideProvisionResponse {
            nonce: r.array::<16>("provision nonce")?,
            response: r.bytes("provision response")?,
        },
        6 => DrmCall::GetKeyRequest {
            session_id: r.u32("session id")?,
            content_id: r.string("content id")?,
            key_ids: decode_key_ids(r)?,
        },
        7 => DrmCall::ProvideKeyResponse {
            session_id: r.u32("session id")?,
            response: r.bytes("key response")?,
        },
        8 => DrmCall::DecryptSample {
            session_id: r.u32("session id")?,
            kid: KeyId(r.array::<16>("key id")?),
            crypto: decode_sample_crypto(r)?,
            data: r.bytes("sample data")?,
            subsamples: decode_subsamples(r)?,
        },
        9 => DrmCall::GenericEncrypt {
            session_id: r.u32("session id")?,
            kid: KeyId(r.array::<16>("key id")?),
            iv: r.array::<16>("cbc iv")?,
            data: r.bytes("plaintext")?,
        },
        10 => DrmCall::GenericDecrypt {
            session_id: r.u32("session id")?,
            kid: KeyId(r.array::<16>("key id")?),
            iv: r.array::<16>("cbc iv")?,
            data: r.bytes("ciphertext")?,
        },
        11 => DrmCall::GenericSign {
            session_id: r.u32("session id")?,
            kid: KeyId(r.array::<16>("key id")?),
            data: r.bytes("message")?,
        },
        12 => DrmCall::GenericVerify {
            session_id: r.u32("session id")?,
            kid: KeyId(r.array::<16>("key id")?),
            data: r.bytes("message")?,
            signature: r.bytes("signature")?,
        },
        _ => return Err(WireError::Malformed { what: "unknown call tag" }),
    })
}

// ---------------------------------------------------------------------
// Replies and errors
// ---------------------------------------------------------------------

fn encode_reply(reply: &Result<DrmReply, DrmError>) -> Vec<u8> {
    let mut w = Writer::new();
    match reply {
        Ok(DrmReply::Unit) => {
            w.u8(0).u8(0);
        }
        Ok(DrmReply::Bool(b)) => {
            w.u8(0).u8(1).u8(u8::from(*b));
        }
        Ok(DrmReply::SessionId(id)) => {
            w.u8(0).u8(2).u32(*id);
        }
        Ok(DrmReply::Bytes(bytes)) => {
            w.u8(0).u8(3).bytes(bytes);
        }
        Ok(DrmReply::KeyIds(kids)) => {
            w.u8(0).u8(4);
            encode_key_ids(&mut w, kids);
        }
        Err(e) => {
            w.u8(1);
            encode_drm_error(&mut w, e);
        }
    }
    w.buf
}

fn decode_reply(r: &mut Reader<'_>) -> Result<Result<DrmReply, DrmError>, WireError> {
    match r.u8("reply result tag")? {
        0 => Ok(Ok(match r.u8("reply tag")? {
            0 => DrmReply::Unit,
            1 => DrmReply::Bool(match r.u8("bool value")? {
                0 => false,
                1 => true,
                _ => return Err(WireError::Malformed { what: "bool out of range" }),
            }),
            2 => DrmReply::SessionId(r.u32("session id")?),
            3 => DrmReply::Bytes(r.bytes("byte payload")?),
            4 => DrmReply::KeyIds(decode_key_ids(r)?),
            _ => return Err(WireError::Malformed { what: "unknown reply tag" }),
        })),
        1 => Ok(Err(decode_drm_error(r)?)),
        _ => Err(WireError::Malformed { what: "unknown reply result tag" }),
    }
}

fn encode_drm_error(w: &mut Writer, e: &DrmError) {
    match e {
        DrmError::UnsupportedScheme { uuid } => {
            w.u8(0).raw(uuid);
        }
        DrmError::Cdm(cdm) => {
            w.u8(1);
            encode_cdm_error(w, cdm);
        }
        DrmError::BinderDied => {
            w.u8(2);
        }
        DrmError::ServerPanic => {
            w.u8(3);
        }
        DrmError::BadReply => {
            w.u8(4);
        }
        DrmError::Wire(wire) => {
            w.u8(5);
            encode_wire_error(w, wire);
        }
        DrmError::Timeout { ms } => {
            w.u8(6).u64(*ms);
        }
    }
}

fn decode_drm_error(r: &mut Reader<'_>) -> Result<DrmError, WireError> {
    Ok(match r.u8("drm error tag")? {
        0 => DrmError::UnsupportedScheme { uuid: r.array::<16>("scheme uuid")? },
        1 => DrmError::Cdm(decode_cdm_error(r)?),
        2 => DrmError::BinderDied,
        3 => DrmError::ServerPanic,
        4 => DrmError::BadReply,
        5 => DrmError::Wire(decode_wire_error(r)?),
        6 => DrmError::Timeout { ms: r.u64("timeout ms")? },
        _ => return Err(WireError::Malformed { what: "unknown drm error tag" }),
    })
}

pub(crate) fn encode_wire_error(w: &mut Writer, e: &WireError) {
    match e {
        WireError::Truncated { needed, got } => {
            w.u8(0).u64(*needed as u64).u64(*got as u64);
        }
        WireError::Oversized { len, max } => {
            w.u8(1).u64(*len as u64).u64(*max as u64);
        }
        WireError::BadMagic { found } => {
            w.u8(2).raw(found);
        }
        WireError::UnsupportedVersion { version } => {
            w.u8(3).u8(*version);
        }
        WireError::BadCrc { expected, found } => {
            w.u8(4).u32(*expected).u32(*found);
        }
        WireError::Malformed { what } => {
            w.u8(5).string(what);
        }
    }
}

pub(crate) fn decode_wire_error(r: &mut Reader<'_>) -> Result<WireError, WireError> {
    Ok(match r.u8("wire error tag")? {
        0 => {
            WireError::Truncated { needed: r.u64("needed")? as usize, got: r.u64("got")? as usize }
        }
        1 => WireError::Oversized { len: r.u64("len")? as usize, max: r.u64("max")? as usize },
        2 => WireError::BadMagic { found: r.array::<4>("magic")? },
        3 => WireError::UnsupportedVersion { version: r.u8("version")? },
        4 => WireError::BadCrc { expected: r.u32("expected crc")?, found: r.u32("found crc")? },
        5 => WireError::Malformed { what: r.static_str("malformed what")? },
        _ => return Err(WireError::Malformed { what: "unknown wire error tag" }),
    })
}

fn encode_cdm_error(w: &mut Writer, e: &CdmError) {
    use wideleak_crypto::CryptoError;
    match e {
        CdmError::BadKeybox { reason } => {
            w.u8(0).string(reason);
        }
        CdmError::NotProvisioned => {
            w.u8(1);
        }
        CdmError::BadMessage { reason } => {
            w.u8(2).string(reason);
        }
        CdmError::BadSignature => {
            w.u8(3);
        }
        CdmError::Crypto(c) => {
            w.u8(4);
            match c {
                CryptoError::NotBlockAligned { len } => {
                    w.u8(0).u64(*len as u64);
                }
                CryptoError::BadPadding => {
                    w.u8(1);
                }
                CryptoError::MessageTooLong => {
                    w.u8(2);
                }
                CryptoError::DecryptionFailed => {
                    w.u8(3);
                }
                CryptoError::BadSignature => {
                    w.u8(4);
                }
                CryptoError::InvalidKey => {
                    w.u8(5);
                }
            }
        }
        CdmError::Tee(t) => {
            w.u8(5);
            match t {
                TeeError::TrustletNotFound { name } => {
                    w.u8(0).string(name);
                }
                TeeError::BadCommand { command } => {
                    w.u8(1).u32(*command);
                }
                TeeError::BadParameters { reason } => {
                    w.u8(2).string(reason);
                }
                TeeError::AccessDenied { reason } => {
                    w.u8(3).string(reason);
                }
                TeeError::StorageMiss { slot } => {
                    w.u8(4).string(slot);
                }
            }
        }
        CdmError::NoSuchSession { session_id } => {
            w.u8(6).u32(*session_id);
        }
        CdmError::SessionLimit { max } => {
            w.u8(7).u32(*max);
        }
        CdmError::SessionIdsExhausted => {
            w.u8(8);
        }
        CdmError::KeyNotLoaded => {
            w.u8(9);
        }
        CdmError::KeyExpired => {
            w.u8(10);
        }
        CdmError::Rejected { reason } => {
            w.u8(11).string(reason);
        }
    }
}

fn decode_cdm_error(r: &mut Reader<'_>) -> Result<CdmError, WireError> {
    use wideleak_crypto::CryptoError;
    Ok(match r.u8("cdm error tag")? {
        0 => CdmError::BadKeybox { reason: r.static_str("keybox reason")? },
        1 => CdmError::NotProvisioned,
        2 => CdmError::BadMessage { reason: r.static_str("message reason")? },
        3 => CdmError::BadSignature,
        4 => CdmError::Crypto(match r.u8("crypto error tag")? {
            0 => CryptoError::NotBlockAligned { len: r.u64("len")? as usize },
            1 => CryptoError::BadPadding,
            2 => CryptoError::MessageTooLong,
            3 => CryptoError::DecryptionFailed,
            4 => CryptoError::BadSignature,
            5 => CryptoError::InvalidKey,
            _ => return Err(WireError::Malformed { what: "unknown crypto error tag" }),
        }),
        5 => CdmError::Tee(match r.u8("tee error tag")? {
            0 => TeeError::TrustletNotFound { name: r.string("trustlet name")? },
            1 => TeeError::BadCommand { command: r.u32("command")? },
            2 => TeeError::BadParameters { reason: r.static_str("parameter reason")? },
            3 => TeeError::AccessDenied { reason: r.static_str("denial reason")? },
            4 => TeeError::StorageMiss { slot: r.string("storage slot")? },
            _ => return Err(WireError::Malformed { what: "unknown tee error tag" }),
        }),
        6 => CdmError::NoSuchSession { session_id: r.u32("session id")? },
        7 => CdmError::SessionLimit { max: r.u32("session cap")? },
        8 => CdmError::SessionIdsExhausted,
        9 => CdmError::KeyNotLoaded,
        10 => CdmError::KeyExpired,
        11 => CdmError::Rejected { reason: r.string("rejection reason")? },
        _ => return Err(WireError::Malformed { what: "unknown cdm error tag" }),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn encode_bare(body: &FrameBody) -> Vec<u8> {
        encode_frame(body, FrameMeta::default())
    }

    fn sample_calls() -> Vec<DrmCall> {
        vec![
            DrmCall::IsSchemeSupported { uuid: [7; 16] },
            DrmCall::OpenSession { nonce: [1; 16] },
            DrmCall::CloseSession { session_id: 42 },
            DrmCall::IsProvisioned,
            DrmCall::GetProvisionRequest { nonce: [2; 16] },
            DrmCall::ProvideProvisionResponse { nonce: [3; 16], response: vec![1, 2, 3] },
            DrmCall::GetKeyRequest {
                session_id: 9,
                content_id: "title-001".into(),
                key_ids: vec![KeyId([4; 16]), KeyId([5; 16])],
            },
            DrmCall::ProvideKeyResponse { session_id: 9, response: vec![0xAB; 64] },
            DrmCall::DecryptSample {
                session_id: 9,
                kid: KeyId([6; 16]),
                crypto: SampleCrypto::Cenc { iv: [8; 8] },
                data: vec![0x5A; 48],
                subsamples: vec![Subsample { clear_bytes: 4, encrypted_bytes: 44 }],
            },
            DrmCall::DecryptSample {
                session_id: 10,
                kid: KeyId([6; 16]),
                crypto: SampleCrypto::Cbcs {
                    constant_iv: [9; 16],
                    crypt_blocks: 1,
                    skip_blocks: 9,
                },
                data: vec![0x5B; 32],
                subsamples: vec![],
            },
            DrmCall::GenericEncrypt {
                session_id: 1,
                kid: KeyId([1; 16]),
                iv: [2; 16],
                data: vec![3; 16],
            },
            DrmCall::GenericDecrypt {
                session_id: 1,
                kid: KeyId([1; 16]),
                iv: [2; 16],
                data: vec![4; 16],
            },
            DrmCall::GenericSign { session_id: 1, kid: KeyId([1; 16]), data: vec![5; 10] },
            DrmCall::GenericVerify {
                session_id: 1,
                kid: KeyId([1; 16]),
                data: vec![6; 10],
                signature: vec![7; 16],
            },
        ]
    }

    fn sample_replies() -> Vec<Result<DrmReply, DrmError>> {
        vec![
            Ok(DrmReply::Unit),
            Ok(DrmReply::Bool(true)),
            Ok(DrmReply::Bool(false)),
            Ok(DrmReply::SessionId(7)),
            Ok(DrmReply::Bytes(vec![1, 2, 3, 4])),
            Ok(DrmReply::KeyIds(vec![KeyId([0xEE; 16])])),
            Err(DrmError::UnsupportedScheme { uuid: [9; 16] }),
            Err(DrmError::BinderDied),
            Err(DrmError::ServerPanic),
            Err(DrmError::BadReply),
            Err(DrmError::Cdm(CdmError::KeyExpired)),
            Err(DrmError::Cdm(CdmError::BadKeybox { reason: "magic mismatch" })),
            Err(DrmError::Cdm(CdmError::NoSuchSession { session_id: 3 })),
            Err(DrmError::Cdm(CdmError::SessionLimit { max: 1024 })),
            Err(DrmError::Cdm(CdmError::Rejected { reason: "revoked".into() })),
            Err(DrmError::Cdm(CdmError::Crypto(wideleak_crypto::CryptoError::NotBlockAligned {
                len: 17,
            }))),
            Err(DrmError::Cdm(CdmError::Tee(TeeError::TrustletNotFound {
                name: "widevine".into(),
            }))),
            Err(DrmError::Wire(WireError::BadCrc { expected: 1, found: 2 })),
            Err(DrmError::Wire(WireError::Malformed { what: "unknown call tag" })),
            Err(DrmError::Timeout { ms: 5000 }),
        ]
    }

    #[test]
    fn every_call_round_trips() {
        for call in sample_calls() {
            let frame = encode_bare(&FrameBody::Call(call.clone()));
            let (body, _, consumed) = decode_frame(&frame).unwrap();
            assert_eq!(consumed, frame.len());
            assert_eq!(body, FrameBody::Call(call));
        }
    }

    #[test]
    fn every_reply_round_trips() {
        for reply in sample_replies() {
            let frame = encode_bare(&FrameBody::Reply(reply.clone()));
            let (body, _, consumed) = decode_frame(&frame).unwrap();
            assert_eq!(consumed, frame.len());
            assert_eq!(body, FrameBody::Reply(reply));
        }
    }

    #[test]
    fn truncation_at_every_boundary_is_typed() {
        let frame = encode_bare(&FrameBody::Call(DrmCall::OpenSession { nonce: [1; 16] }));
        for cut in 0..frame.len() {
            match decode_frame(&frame[..cut]) {
                Err(WireError::Truncated { needed, got }) => {
                    assert_eq!(got, cut);
                    assert!(needed > cut);
                }
                other => panic!("cut at {cut}: expected Truncated, got {other:?}"),
            }
        }
    }

    #[test]
    fn bad_magic_is_detected_before_anything_else() {
        let mut frame = encode_bare(&FrameBody::Call(DrmCall::IsProvisioned));
        frame[0] = b'X';
        assert!(matches!(decode_frame(&frame), Err(WireError::BadMagic { .. })));
    }

    #[test]
    fn other_versions_are_rejected() {
        for version in [0, 1, 2, VERSION + 1, 255] {
            let mut frame = encode_bare(&FrameBody::Call(DrmCall::IsProvisioned));
            frame[4] = version;
            assert_eq!(decode_frame(&frame), Err(WireError::UnsupportedVersion { version }));
        }
    }

    #[test]
    fn oversized_length_is_rejected_before_allocation() {
        let mut frame = encode_bare(&FrameBody::Call(DrmCall::IsProvisioned));
        frame[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            decode_frame(&frame),
            Err(WireError::Oversized { len: u32::MAX as usize, max: MAX_PAYLOAD })
        );
    }

    #[test]
    fn flipped_bit_fails_the_crc() {
        let frame = encode_bare(&FrameBody::Call(DrmCall::OpenSession { nonce: [1; 16] }));
        for bit in 0..(frame.len() - TRAILER_LEN) * 8 {
            // Skip magic/version bytes — those fail earlier in the taxonomy.
            if bit < 5 * 8 {
                continue;
            }
            let mut bad = frame.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            match decode_frame(&bad) {
                Err(WireError::BadCrc { .. }) => {}
                // Corrupting the length field moves the frame boundary.
                Err(WireError::Truncated { .. } | WireError::Oversized { .. }) => {
                    assert!((64..96).contains(&bit), "bit {bit} outside the length field");
                }
                other => panic!("bit {bit}: expected a decode error, got {other:?}"),
            }
        }
    }

    #[test]
    fn payload_garbage_is_malformed_not_panic() {
        // A structurally perfect frame whose payload is an unknown tag.
        let mut w = Writer::new();
        w.u8(200);
        let payload = w.buf;
        let mut frame = Vec::new();
        frame.extend_from_slice(&MAGIC);
        frame.push(VERSION);
        frame.push(0);
        frame.extend_from_slice(&[0, 0]);
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&payload);
        let crc = crc32(&frame);
        frame.extend_from_slice(&crc.to_le_bytes());
        assert_eq!(decode_frame(&frame), Err(WireError::Malformed { what: "unknown call tag" }));
    }

    #[test]
    fn trailing_payload_bytes_are_rejected() {
        let mut payload = encode_call(&DrmCall::IsProvisioned);
        payload.push(0);
        let mut frame = Vec::new();
        frame.extend_from_slice(&MAGIC);
        frame.push(VERSION);
        frame.push(0);
        frame.extend_from_slice(&[0, 0]);
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&payload);
        let crc = crc32(&frame);
        frame.extend_from_slice(&crc.to_le_bytes());
        assert_eq!(
            decode_frame(&frame),
            Err(WireError::Malformed { what: "trailing bytes after payload" })
        );
    }

    /// Builds a call frame by hand with arbitrary flags and reserved
    /// bytes and a correct CRC, so decode paths past the header checks
    /// are reachable.
    fn handmade_frame(flags: u8, reserved: u8, payload: &[u8]) -> Vec<u8> {
        let mut frame = Vec::new();
        frame.extend_from_slice(&MAGIC);
        frame.push(VERSION);
        frame.push(FRAME_TYPE_CALL);
        frame.push(flags);
        frame.push(reserved);
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(payload);
        let crc = crc32(&frame);
        frame.extend_from_slice(&crc.to_le_bytes());
        frame
    }

    #[test]
    fn trace_context_rides_the_frame() {
        let ctx = TraceContext { trace_id: 0xfeed, span_id: 0xbeef, parent_span_id: 7 };
        for body in [
            FrameBody::Call(DrmCall::OpenSession { nonce: [3; 16] }),
            FrameBody::Reply(Ok(DrmReply::SessionId(9))),
        ] {
            let frame = encode_frame(&body, FrameMeta { ctx: Some(ctx), request_id: None });
            let (decoded, meta, used) = decode_frame(&frame).unwrap();
            assert_eq!(decoded, body);
            assert_eq!(meta, FrameMeta { ctx: Some(ctx), request_id: None });
            assert_eq!(used, frame.len());
        }
    }

    #[test]
    fn context_frames_cost_exactly_the_context_bytes() {
        let body = FrameBody::Call(DrmCall::IsProvisioned);
        let bare = encode_bare(&body);
        let ctx = TraceContext { trace_id: 1, span_id: 2, parent_span_id: 0 };
        let traced = encode_frame(&body, FrameMeta { ctx: Some(ctx), request_id: None });
        assert_eq!(traced.len(), bare.len() + TraceContext::WIRE_LEN);
    }

    #[test]
    fn trace_flag_without_room_for_the_context_is_malformed() {
        let frame = handmade_frame(FLAG_TRACE_CONTEXT, 0, &[0u8; 8]);
        assert_eq!(
            decode_frame(&frame),
            Err(WireError::Malformed { what: "trace context exceeds payload" })
        );
    }

    #[test]
    fn zero_span_id_context_is_malformed() {
        let mut payload = [0u8; TraceContext::WIRE_LEN + 1].to_vec();
        payload[TraceContext::WIRE_LEN] = 3; // IsProvisioned call tag
        let frame = handmade_frame(FLAG_TRACE_CONTEXT, 0, &payload);
        assert_eq!(
            decode_frame(&frame),
            Err(WireError::Malformed { what: "trace context with zero span id" })
        );
    }

    #[test]
    fn unknown_flag_bits_are_malformed() {
        let frame = handmade_frame(0x80, 0, &encode_call(&DrmCall::IsProvisioned));
        assert_eq!(
            decode_frame(&frame),
            Err(WireError::Malformed { what: "unknown header flags" })
        );
    }

    #[test]
    fn reserved_header_byte_set_is_malformed() {
        for reserved in [0x01, 0x80, 0xFF] {
            let frame = handmade_frame(0, reserved, &encode_call(&DrmCall::IsProvisioned));
            assert_eq!(
                decode_frame(&frame),
                Err(WireError::Malformed { what: "reserved header byte set" })
            );
        }
    }

    #[test]
    fn request_id_rides_the_frame() {
        let ctx = TraceContext { trace_id: 0xfeed, span_id: 0xbeef, parent_span_id: 7 };
        for body in [
            FrameBody::Call(DrmCall::OpenSession { nonce: [3; 16] }),
            FrameBody::Reply(Ok(DrmReply::SessionId(9))),
        ] {
            for ctx in [None, Some(ctx)] {
                let frame =
                    encode_frame(&body, FrameMeta { ctx, request_id: Some(0xD00D_F00D_0000_0042) });
                let (decoded, meta, used) = decode_frame(&frame).unwrap();
                assert_eq!(decoded, body);
                assert_eq!(meta.ctx, ctx);
                assert_eq!(meta.request_id, Some(0xD00D_F00D_0000_0042));
                assert_eq!(used, frame.len());
            }
        }
    }

    #[test]
    fn request_id_frames_cost_exactly_eight_bytes() {
        let body = FrameBody::Call(DrmCall::IsProvisioned);
        let bare = encode_bare(&body);
        let tagged = encode_frame(&body, FrameMeta { ctx: None, request_id: Some(1) });
        assert_eq!(tagged.len(), bare.len() + 8);
    }

    #[test]
    fn request_id_flag_without_room_is_malformed() {
        let frame = handmade_frame(FLAG_REQUEST_ID, 0, &[0u8; 4]);
        assert_eq!(
            decode_frame(&frame),
            Err(WireError::Malformed { what: "request id exceeds payload" })
        );
    }

    #[test]
    fn frame_len_reports_totals() {
        let frame = encode_bare(&FrameBody::Call(DrmCall::IsProvisioned));
        assert_eq!(frame_len(&frame[..HEADER_LEN]).unwrap(), frame.len());
        assert!(matches!(frame_len(&frame[..4]), Err(WireError::Truncated { .. })));
        // The splitter: a whole frame at the front, not yet, or a bad header.
        let mut buf = frame.clone();
        buf.extend_from_slice(&frame[..5]);
        assert_eq!(frame_at_front(&buf), Ok(Some(frame.len())));
        assert_eq!(frame_at_front(&buf[frame.len()..]), Ok(None));
        assert_eq!(frame_at_front(&frame[..frame.len() - 1]), Ok(None));
        assert!(matches!(frame_at_front(b"GET / HTTP/1.1\r\n"), Err(WireError::BadMagic { .. })));
    }

    #[test]
    fn interned_reasons_are_pointer_stable() {
        let a = intern("some reason").unwrap();
        let b = intern("some reason").unwrap();
        assert!(std::ptr::eq(a, b), "same contents intern to the same allocation");
    }

    #[test]
    fn oversized_reason_is_malformed() {
        let reason: &'static str = Box::leak("x".repeat(1 << 20).into_boxed_str());
        let body = FrameBody::Reply(Err(DrmError::Cdm(CdmError::BadMessage { reason })));
        assert_eq!(
            decode_frame(&encode_bare(&body)),
            Err(WireError::Malformed { what: "message reason" })
        );
        // At the cap itself the reason still round-trips.
        let reason: &'static str = Box::leak("y".repeat(MAX_REASON_LEN).into_boxed_str());
        let body = FrameBody::Reply(Err(DrmError::Cdm(CdmError::BadMessage { reason })));
        assert_eq!(decode_frame(&encode_bare(&body)).unwrap().0, body);
    }

    #[test]
    fn full_intern_table_takes_only_known_reasons() {
        let mut table = BTreeSet::new();
        for i in 0..MAX_INTERNED {
            assert!(intern_into(&mut table, &format!("reason {i}")).is_some());
        }
        assert_eq!(intern_into(&mut table, "one reason too many"), None);
        let known = intern_into(&mut table, "reason 7").expect("known reasons still intern");
        assert!(std::ptr::eq(known, *table.get("reason 7").unwrap()));
        assert_eq!(table.len(), MAX_INTERNED);
        assert_eq!(intern_into(&mut BTreeSet::new(), &"z".repeat(MAX_REASON_LEN + 1)), None);
    }

    #[test]
    fn decoded_frames_back_to_back_consume_exactly() {
        let a = encode_bare(&FrameBody::Call(DrmCall::IsProvisioned));
        let b = encode_bare(&FrameBody::Reply(Ok(DrmReply::Bool(true))));
        let mut stream = a.clone();
        stream.extend_from_slice(&b);
        let (first, _, used) = decode_frame(&stream).unwrap();
        assert_eq!(first, FrameBody::Call(DrmCall::IsProvisioned));
        let (second, _, used2) = decode_frame(&stream[used..]).unwrap();
        assert_eq!(second, FrameBody::Reply(Ok(DrmReply::Bool(true))));
        assert_eq!(used + used2, stream.len());
    }
}
