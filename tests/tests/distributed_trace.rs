//! Distributed tracing end-to-end: trace contexts must survive the
//! wire, stitch client and server spans into one connected trace on
//! every transport, and carry fault-injection evidence.
//!
//! The tracer is process-wide state, so every test here serializes on
//! one lock and drains the buffer before and after its traced window.

use std::sync::Arc;

use parking_lot::Mutex;
use proptest::prelude::*;
use wideleak::android_drm::binder::{DrmCall, InProcessBinder, Transport, TransportKind};
use wideleak::android_drm::netserver::TcpBinder;
use wideleak::android_drm::server::MediaDrmServer;
use wideleak::android_drm::wire::{decode_frame_ext, encode_frame_with, FrameBody};
use wideleak::bmff::types::WIDEVINE_SYSTEM_ID;
use wideleak::device::catalog::DeviceModel;
use wideleak::faults::{FaultKind, FaultPlan, Schedule};
use wideleak::ott::ecosystem::{Ecosystem, EcosystemConfig};
use wideleak::telemetry::trace;
use wideleak::telemetry::trace::TraceContext;

static TRACER_LOCK: Mutex<()> = Mutex::new(());

/// One empty media DRM server behind each of the two transports —
/// `IsSchemeSupported` needs no CDM, which keeps proptest iterations
/// cheap enough to run many cases.
fn boot_all_transports() -> Vec<(TransportKind, Arc<dyn Transport>)> {
    vec![
        (TransportKind::InProcess, Arc::new(InProcessBinder::new(MediaDrmServer::new()))),
        (TransportKind::Tcp, Arc::new(TcpBinder::loopback(MediaDrmServer::new()).build().unwrap())),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    /// Property: any `TraceContext` survives its 24-byte wire
    /// encoding, survives a full frame encode/decode, and — adopted
    /// as the origin of a real transaction — stamps its trace id on
    /// every span each of the two transports records.
    #[test]
    fn trace_context_round_trips_across_all_transports(
        trace_id in 1u64..=u64::MAX,
        span_id in 1u64..=u64::MAX,
        parent_span_id in any::<u64>(),
    ) {
        let _lock = TRACER_LOCK.lock();
        trace::enable();
        let _ = trace::drain();
        let ctx = TraceContext { trace_id, span_id, parent_span_id };
        prop_assert_eq!(TraceContext::decode(&ctx.encode()), Some(ctx));

        let frame = encode_frame_with(&FrameBody::Call(DrmCall::IsProvisioned), Some(&ctx));
        let (body, carried, _) = decode_frame_ext(&frame).expect("framed context decodes");
        prop_assert!(matches!(body, FrameBody::Call(DrmCall::IsProvisioned)));
        prop_assert_eq!(carried, Some(ctx));

        for (kind, binder) in boot_all_transports() {
            let _ = trace::drain();
            {
                let _origin = trace::span_with_parent("test.origin", ctx);
                let _ = binder.transact(DrmCall::IsSchemeSupported { uuid: WIDEVINE_SYSTEM_ID });
            }
            let spans = trace::drain();
            prop_assert!(
                spans.iter().any(|s| s.name == "drm.call"),
                "no drm.call span on {kind}"
            );
            for span in &spans {
                prop_assert_eq!(
                    span.trace_id, trace_id,
                    "span {} on {kind} left the origin trace", span.name
                );
            }
        }
        trace::disable();
        let _ = trace::drain();
    }
}

/// A clean license-path call over TCP produces exactly one trace whose
/// spans form a connected tree with at least four distinct phases —
/// the acceptance shape for the stitched client → server breakdown.
#[test]
fn single_tcp_call_produces_one_stitched_trace_with_phases() {
    let _lock = TRACER_LOCK.lock();
    let mut config = EcosystemConfig::fast_for_tests();
    config.transport = TransportKind::Tcp;
    let eco = Ecosystem::new(config);
    let stack = eco.boot_device(DeviceModel::pixel_6(), false);

    trace::enable();
    let _ = trace::drain();
    stack.binder.transact(DrmCall::IsProvisioned).expect("clean probe succeeds");
    let spans = trace::drain();
    trace::disable();

    let trace_ids: std::collections::HashSet<u64> = spans.iter().map(|s| s.trace_id).collect();
    assert_eq!(trace_ids.len(), 1, "one call mints exactly one trace: {spans:#?}");

    let roots: Vec<_> = spans.iter().filter(|s| s.parent_span_id == 0).collect();
    assert_eq!(roots.len(), 1, "one root span");
    assert_eq!(roots[0].name, "drm.call");

    // Connected: every non-root span's parent is in the same trace.
    let ids: std::collections::HashSet<u64> = spans.iter().map(|s| s.span_id).collect();
    for span in &spans {
        assert!(
            span.parent_span_id == 0 || ids.contains(&span.parent_span_id),
            "span {} is orphaned",
            span.name
        );
    }

    let phases: std::collections::HashSet<&str> = spans.iter().map(|s| s.name).collect();
    assert!(phases.len() >= 4, "a TCP call breaks down into at least 4 phases, got {phases:?}");
    for expected in ["drm.call", "tcp.roundtrip", "server.handle", "server.dispatch"] {
        assert!(phases.contains(expected), "missing {expected} in {phases:?}");
    }
}

/// A faulted TCP call still yields one connected trace, and the fault
/// injection is attached to it as an annotation alongside the
/// resulting wire error class.
#[test]
fn faulted_tcp_call_yields_one_connected_trace_with_fault_attached() {
    let _lock = TRACER_LOCK.lock();
    let plan = FaultPlan::builder()
        .binder_fault("is_provisioned", FaultKind::GarbleBody, Schedule::Always)
        .build();
    let mut config = EcosystemConfig::fast_with_faults(plan);
    config.transport = TransportKind::Tcp;
    let eco = Ecosystem::new(config);
    let stack = eco.boot_device(DeviceModel::pixel_6(), false);

    trace::enable();
    let _ = trace::drain();
    let result = stack.binder.transact(DrmCall::IsProvisioned);
    let spans = trace::drain();
    trace::disable();

    assert!(result.is_err(), "the garble corrupts the reply frame");

    let trace_ids: std::collections::HashSet<u64> = spans.iter().map(|s| s.trace_id).collect();
    assert_eq!(trace_ids.len(), 1, "the faulted call is still one trace");

    let fault_values: Vec<&str> = spans
        .iter()
        .flat_map(|s| s.annotations.iter())
        .filter(|(k, _)| *k == "fault")
        .map(|(_, v)| v.as_str())
        .collect();
    assert_eq!(fault_values, vec!["garble_body"], "the injected fault rides the trace");

    let root = spans.iter().find(|s| s.parent_span_id == 0).expect("root span");
    assert!(
        root.annotations.iter().any(|(k, v)| *k == "error" && v.starts_with("wire.")),
        "the root span carries the wire error class: {:?}",
        root.annotations
    );
}
