//! The TCP wire codec under adversarial inputs: `decode(encode(x)) == x`
//! for arbitrary generated calls and replies, and the decoder must
//! survive corpus-driven mutation and random-garbage fuzzing without a
//! panic, returning only the typed [`WireError`] taxonomy.

use proptest::prelude::*;
use wideleak::android_drm::binder::{DrmCall, DrmReply};
use wideleak::android_drm::campaign::{
    AppCells, CampaignError, CampaignSpec, ShardAssignment, ShardReport,
};
use wideleak::android_drm::wire::{
    decode_frame, encode_frame, FrameBody, FrameMeta, WireError, HEADER_LEN, MAX_PAYLOAD,
    TRAILER_LEN,
};
use wideleak::android_drm::DrmError;
use wideleak::bmff::types::{KeyId, Subsample};
use wideleak::cdm::oemcrypto::SampleCrypto;
use wideleak::cdm::CdmError;
use wideleak::crypto::rng::seeded_rng;
use wideleak::crypto::sha256::sha256;
use wideleak::crypto::CryptoError;
use wideleak::tee::TeeError;
use wideleak::telemetry::{LatencyHistogram, TraceContext};

fn kid_strategy() -> impl Strategy<Value = KeyId> {
    any::<[u8; 16]>().prop_map(KeyId)
}

fn bytes_strategy() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(any::<u8>(), 0..600)
}

fn subsamples_strategy() -> impl Strategy<Value = Vec<Subsample>> {
    proptest::collection::vec(
        (any::<u16>(), any::<u32>())
            .prop_map(|(clear_bytes, encrypted_bytes)| Subsample { clear_bytes, encrypted_bytes }),
        0..5,
    )
}

fn crypto_strategy() -> impl Strategy<Value = SampleCrypto> {
    prop_oneof![
        any::<[u8; 8]>().prop_map(|iv| SampleCrypto::Cenc { iv }),
        (any::<[u8; 16]>(), any::<u8>(), any::<u8>()).prop_map(|(constant_iv, crypt, skip)| {
            SampleCrypto::Cbcs { constant_iv, crypt_blocks: crypt, skip_blocks: skip }
        }),
    ]
}

/// Every [`DrmCall`] variant with arbitrary field contents.
fn call_strategy() -> impl Strategy<Value = DrmCall> {
    prop_oneof![
        any::<[u8; 16]>().prop_map(|uuid| DrmCall::IsSchemeSupported { uuid }),
        any::<[u8; 16]>().prop_map(|nonce| DrmCall::OpenSession { nonce }),
        any::<u32>().prop_map(|session_id| DrmCall::CloseSession { session_id }),
        Just(DrmCall::IsProvisioned),
        any::<[u8; 16]>().prop_map(|nonce| DrmCall::GetProvisionRequest { nonce }),
        (any::<[u8; 16]>(), bytes_strategy()).prop_map(|(nonce, response)| {
            DrmCall::ProvideProvisionResponse { nonce, response }
        }),
        (any::<u32>(), "[a-z0-9-]{0,40}", proptest::collection::vec(kid_strategy(), 0..6))
            .prop_map(|(session_id, content_id, key_ids)| DrmCall::GetKeyRequest {
                session_id,
                content_id,
                key_ids,
            }),
        (any::<u32>(), bytes_strategy()).prop_map(|(session_id, response)| {
            DrmCall::ProvideKeyResponse { session_id, response }
        }),
        (any::<u32>(), kid_strategy(), crypto_strategy(), bytes_strategy(), subsamples_strategy())
            .prop_map(|(session_id, kid, crypto, data, subsamples)| DrmCall::DecryptSample {
                session_id,
                kid,
                crypto,
                data,
                subsamples,
            }),
        (any::<u32>(), kid_strategy(), any::<[u8; 16]>(), bytes_strategy()).prop_map(
            |(session_id, kid, iv, data)| DrmCall::GenericEncrypt { session_id, kid, iv, data }
        ),
        (any::<u32>(), kid_strategy(), any::<[u8; 16]>(), bytes_strategy()).prop_map(
            |(session_id, kid, iv, data)| DrmCall::GenericDecrypt { session_id, kid, iv, data }
        ),
        (any::<u32>(), kid_strategy(), bytes_strategy())
            .prop_map(|(session_id, kid, data)| { DrmCall::GenericSign { session_id, kid, data } }),
        (any::<u32>(), kid_strategy(), bytes_strategy(), bytes_strategy()).prop_map(
            |(session_id, kid, data, signature)| DrmCall::GenericVerify {
                session_id,
                kid,
                data,
                signature,
            }
        ),
    ]
}

/// Every [`DrmReply`] shape and a cross-section of the nested error
/// taxonomy (CDM, TEE, crypto, wire), including `&'static str` reason
/// fields that must survive the intern round trip.
fn reply_corpus() -> Vec<Result<DrmReply, DrmError>> {
    vec![
        Ok(DrmReply::Unit),
        Ok(DrmReply::Bool(true)),
        Ok(DrmReply::SessionId(u32::MAX)),
        Ok(DrmReply::Bytes(vec![0xA5; 257])),
        Ok(DrmReply::KeyIds(vec![KeyId([0; 16]), KeyId([0xFF; 16])])),
        Err(DrmError::UnsupportedScheme { uuid: [0xDE; 16] }),
        Err(DrmError::BinderDied),
        Err(DrmError::ServerPanic),
        Err(DrmError::BadReply),
        Err(DrmError::Cdm(CdmError::NotProvisioned)),
        Err(DrmError::Cdm(CdmError::BadKeybox { reason: "CRC mismatch" })),
        Err(DrmError::Cdm(CdmError::Rejected { reason: "device revoked".into() })),
        Err(DrmError::Cdm(CdmError::Crypto(CryptoError::BadPadding))),
        Err(DrmError::Cdm(CdmError::Tee(TeeError::AccessDenied { reason: "not secure" }))),
        Err(DrmError::Wire(WireError::BadMagic { found: *b"HTTP" })),
        Err(DrmError::Wire(WireError::Truncated { needed: 12, got: 3 })),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The tentpole property: any call the binder can carry survives
    /// the wire byte-identically.
    #[test]
    fn arbitrary_calls_round_trip(call in call_strategy()) {
        let frame = encode_frame(&FrameBody::Call(call.clone()), FrameMeta::default());
        prop_assert!(frame.len() >= HEADER_LEN + TRAILER_LEN);
        let (body, _, consumed) = decode_frame(&frame).expect("own frames must decode");
        prop_assert_eq!(consumed, frame.len());
        prop_assert_eq!(body, FrameBody::Call(call));
    }

    /// A frame followed by trailing stream bytes decodes to exactly the
    /// frame: `consumed` tells the stream reader where the next one
    /// starts, and the tail never leaks into the payload.
    #[test]
    fn framing_survives_a_busy_stream(call in call_strategy(), tail in bytes_strategy()) {
        let frame = encode_frame(&FrameBody::Call(call.clone()), FrameMeta::default());
        let mut stream = frame.clone();
        stream.extend_from_slice(&tail);
        let (body, _, consumed) = decode_frame(&stream).expect("decode from the stream front");
        prop_assert_eq!(consumed, frame.len());
        prop_assert_eq!(body, FrameBody::Call(call));
    }

    /// Pure garbage never panics the decoder; it can only produce a
    /// typed error (a random buffer forging a valid frame would have to
    /// forge magic, version and CRC at once).
    #[test]
    fn random_garbage_yields_typed_errors(garbage in proptest::collection::vec(any::<u8>(), 0..200)) {
        match decode_frame(&garbage) {
            Ok(_) => {}
            Err(
                WireError::Truncated { .. }
                | WireError::Oversized { .. }
                | WireError::BadMagic { .. }
                | WireError::UnsupportedVersion { .. }
                | WireError::BadCrc { .. }
                | WireError::Malformed { .. },
            ) => {}
        }
    }
}

#[test]
fn reply_corpus_round_trips() {
    for reply in reply_corpus() {
        let frame = encode_frame(&FrameBody::Reply(reply.clone()), FrameMeta::default());
        let (body, _, consumed) = decode_frame(&frame).expect("own frames must decode");
        assert_eq!(consumed, frame.len());
        assert_eq!(body, FrameBody::Reply(reply));
    }
}

/// Corpus-driven mutation fuzz: take every valid frame in the corpus and
/// hammer it with seeded byte flips, splices and length rewrites. The
/// decoder must never panic, and a single-byte change can never decode
/// successfully — the CRC (or an earlier header check) has to catch it.
#[test]
fn mutated_corpus_never_panics_and_never_false_decodes() {
    let mut corpus: Vec<Vec<u8>> = reply_corpus()
        .into_iter()
        .map(|r| encode_frame(&FrameBody::Reply(r), FrameMeta::default()))
        .collect();
    corpus.push(encode_frame(&FrameBody::Call(DrmCall::IsProvisioned), FrameMeta::default()));
    corpus.push(encode_frame(
        &FrameBody::Call(DrmCall::DecryptSample {
            session_id: 3,
            kid: KeyId([1; 16]),
            crypto: SampleCrypto::Cenc { iv: [2; 8] },
            data: vec![0x42; 96],
            subsamples: vec![Subsample { clear_bytes: 16, encrypted_bytes: 80 }],
        }),
        FrameMeta::default(),
    ));

    let mut rng = seeded_rng(0x57_49_44_45);
    for frame in &corpus {
        // Single-byte XOR at every position: always a typed error.
        for pos in 0..frame.len() {
            let mut bad = frame.clone();
            let delta = (rng.next_u64() % 255) as u8 + 1;
            bad[pos] ^= delta;
            assert!(
                decode_frame(&bad).is_err(),
                "a flipped byte at {pos} must not decode (frame len {})",
                frame.len()
            );
        }
        // Random splices and rewrites: only "no panic, typed error" is
        // guaranteed (a splice may reassemble a valid frame prefix).
        for _ in 0..64 {
            let mut bad = frame.clone();
            match rng.next_u64() % 3 {
                0 => {
                    let cut = (rng.next_u64() as usize) % (bad.len() + 1);
                    bad.truncate(cut);
                }
                1 => {
                    let extra = (rng.next_u64() as usize) % 32;
                    bad.extend(std::iter::repeat_n(0xAAu8, extra));
                }
                _ => {
                    let len = (rng.next_u64() as usize) % (MAX_PAYLOAD * 2);
                    bad[8..12].copy_from_slice(&(len as u32).to_le_bytes());
                }
            }
            let _ = decode_frame(&bad);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The pipelining extension: any call tagged with any request id
    /// survives the wire byte-identically, the id is visible to the
    /// full decode, and it never bleeds into the body.
    #[test]
    fn request_ids_round_trip_on_arbitrary_calls(call in call_strategy(), id in any::<u64>()) {
        let meta = FrameMeta { ctx: None, request_id: Some(id) };
        let frame = encode_frame(&FrameBody::Call(call.clone()), meta);
        let (body, meta, consumed) = decode_frame(&frame).expect("own frames must decode");
        prop_assert_eq!(consumed, frame.len());
        prop_assert_eq!(meta.request_id, Some(id));
        prop_assert!(meta.ctx.is_none());
        prop_assert_eq!(body, FrameBody::Call(call));
    }
}

/// Every reply shape in the corpus — including the nested error
/// taxonomy — round-trips with a request id attached, exactly as the
/// reactor echoes ids on replies.
#[test]
fn reply_corpus_round_trips_with_request_ids() {
    for (i, reply) in reply_corpus().into_iter().enumerate() {
        let id = (i as u64).wrapping_mul(0x0101_0101_0101_0101).wrapping_add(7);
        let meta = FrameMeta { ctx: None, request_id: Some(id) };
        let frame = encode_frame(&FrameBody::Reply(reply.clone()), meta);
        let (body, meta, consumed) = decode_frame(&frame).expect("own frames must decode");
        assert_eq!(consumed, frame.len());
        assert_eq!(meta.request_id, Some(id));
        assert_eq!(body, FrameBody::Reply(reply));
    }
}

/// The request id sits under the CRC: a client correlating replies by
/// id never acts on a corrupted one. No flipped byte anywhere in an
/// id-tagged frame's id may survive the full decode.
#[test]
fn flipped_id_bytes_never_survive_the_full_decode() {
    let frame = encode_frame(
        &FrameBody::Call(DrmCall::CloseSession { session_id: 44 }),
        FrameMeta { ctx: None, request_id: Some(0xDEAD_BEEF_F00D_CAFE) },
    );
    for pos in HEADER_LEN..HEADER_LEN + 8 {
        let mut bad = frame.clone();
        bad[pos] ^= 0x40;
        assert!(
            decode_frame(&bad).is_err(),
            "a flipped request-id byte at {pos} must not fully decode"
        );
    }
}

/// One call per [`DrmCall`] variant, with fixed field contents.
fn call_corpus() -> Vec<DrmCall> {
    let kid = KeyId([0x11; 16]);
    vec![
        DrmCall::IsSchemeSupported { uuid: [0x01; 16] },
        DrmCall::OpenSession { nonce: [0x02; 16] },
        DrmCall::CloseSession { session_id: 7 },
        DrmCall::IsProvisioned,
        DrmCall::GetProvisionRequest { nonce: [0x03; 16] },
        DrmCall::ProvideProvisionResponse { nonce: [0x04; 16], response: vec![0x05; 33] },
        DrmCall::GetKeyRequest {
            session_id: 8,
            content_id: "title-001".into(),
            key_ids: vec![kid, KeyId([0x12; 16])],
        },
        DrmCall::ProvideKeyResponse { session_id: 8, response: vec![0x06; 70] },
        DrmCall::DecryptSample {
            session_id: 9,
            kid,
            crypto: SampleCrypto::Cbcs { constant_iv: [0x07; 16], crypt_blocks: 1, skip_blocks: 9 },
            data: vec![0x08; 64],
            subsamples: vec![Subsample { clear_bytes: 16, encrypted_bytes: 48 }],
        },
        DrmCall::GenericEncrypt { session_id: 10, kid, iv: [0x09; 16], data: vec![0x0A; 32] },
        DrmCall::GenericDecrypt { session_id: 10, kid, iv: [0x0B; 16], data: vec![0x0C; 32] },
        DrmCall::GenericSign { session_id: 11, kid, data: vec![0x0D; 20] },
        DrmCall::GenericVerify {
            session_id: 11,
            kid,
            data: vec![0x0E; 20],
            signature: vec![0x0F; 32],
        },
    ]
}

/// One of each campaign control-channel frame: a shard call, its report
/// reply and a `CampaignError` reply.
fn campaign_corpus() -> Vec<FrameBody> {
    let spec = CampaignSpec {
        seed: 2022,
        devices: 4096,
        sample_every: 512,
        rsa_bits: 768,
        kill_at_device: Some(17),
    };
    let mut latency = LatencyHistogram::new();
    for ms in [12, 12, 40, 511] {
        latency.record(ms);
    }
    let mut cells = AppCells::new("netflix");
    cells.record(0, 42);
    cells.record(3, 7);
    let report = ShardReport {
        shard_id: 1,
        start: 2048,
        end: 4096,
        cells: vec![cells],
        latency,
        sampled_plays: 4,
        sample_mismatches: 0,
    };
    vec![
        FrameBody::CampaignCall {
            spec,
            shard: ShardAssignment { shard_id: 1, start: 2048, end: 4096 },
        },
        FrameBody::CampaignReply(Ok(report)),
        FrameBody::CampaignReply(Err(CampaignError::Protocol { what: "reply out of step".into() })),
    ]
}

/// Encodes `body` with an optional trace context and request id.
fn frame(body: &FrameBody, ctx: Option<&TraceContext>, request_id: Option<u64>) -> Vec<u8> {
    encode_frame(body, FrameMeta { ctx: ctx.copied(), request_id })
}

/// The SHA-256, in hex, of every frame `bodies` encode, each with no
/// extension, a trace context, a request id, and both; and the frame
/// count.
fn corpus_digest(bodies: impl IntoIterator<Item = FrameBody>) -> (String, usize) {
    let ctx = TraceContext { trace_id: 0x0123_4567_89AB_CDEF, span_id: 0xFEED, parent_span_id: 7 };
    let mut stream = Vec::new();
    let mut frames = 0;
    for body in bodies {
        for (ctx, request_id) in
            [(None, None), (Some(&ctx), None), (None, Some(41)), (Some(&ctx), Some(42))]
        {
            stream.extend_from_slice(&frame(&body, ctx, request_id));
            frames += 1;
        }
    }
    (sha256(&stream).iter().map(|b| format!("{b:02x}")).collect(), frames)
}

/// Pins the wire bytes with two digests: one over the DRM frames (each
/// call variant and each corpus reply), one over the campaign frames.
/// Any change to how a frame is laid out changes a digest; a change to
/// the campaign messages changes only the second.
#[test]
fn corpus_frames_are_byte_identical() {
    let drm = call_corpus()
        .into_iter()
        .map(FrameBody::Call)
        .chain(reply_corpus().into_iter().map(FrameBody::Reply));
    assert_eq!(
        corpus_digest(drm),
        (
            "182770b91eb9a82a1ef920115511d2de25c7001ec4334225e1728045ada1134d".to_owned(),
            4 * (13 + 16)
        ),
        "DRM frames"
    );
    assert_eq!(
        corpus_digest(campaign_corpus()),
        ("fa027a4b49a330df6a8191507ec45e445bb3339dd9dd8dccd5901d75d2fb82c0".to_owned(), 4 * 3),
        "campaign frames"
    );
}
