//! The WideLeak benchmark: one command that times the simulator's
//! user-facing operations end to end, checks every output, and — in a
//! separate traced run — attributes the time to the layers of the
//! stack. `README.md` next to this crate lists the workloads, the
//! metrics and how to read them.
//!
//! Every workload is a closed loop with one client thread (the
//! campaign's coordinator drives two worker processes). The harness
//! sets a workload up [`SETUP_REPS`] times, then runs operations on the
//! last set-up until the time budget is spent, stopping on a pass
//! boundary of the workload's input mix so every run measures the same
//! mix.

pub mod layers;
pub mod probes;
pub mod report;
pub mod stats;
pub mod workloads;

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use wideleak::telemetry::{self, trace, Snapshot, TraceSpan};

use crate::layers::{attribute, Layer, Tally};
use crate::report::Report;
use crate::stats::{median, millis, mix, percentile};

/// The root span the benchmark opens around each traced operation.
pub const ROOT_SPAN: &str = "bench.op";
/// The benchmark's span around `OttApp::play`.
pub const PLAY_SPAN: &str = "ott.play";
/// The benchmark's span around each OTT backend request.
pub const BACKEND_SPAN: &str = "ott.backend";
/// The benchmark's span around `run_campaign`.
pub const CAMPAIGN_SPAN: &str = "campaign.run";

/// Set-ups per run; `setup_s` is their median. Set-up cost is mostly RSA
/// key generation, whose time depends on where the primes fall, so all
/// but the last set-up (the one measured) use seeds derived from the run
/// seed and the median spans several key draws.
pub const SETUP_REPS: usize = 5;

/// Spans the harness lets accumulate between drains of the trace
/// buffer, well under its 65 536-span capacity.
const SPANS_PER_DRAIN: u64 = 16_384;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadKind {
    /// Licensed playbacks through `OttApp::play`.
    Play,
    /// Sample decryption calls on a licensed session.
    Stream,
    /// The §IV-D key-recovery attack on a discontinued device.
    Attack,
    /// Multi-process measurement campaigns.
    Campaign,
}

impl WorkloadKind {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [WorkloadKind; 4] =
        [WorkloadKind::Play, WorkloadKind::Stream, WorkloadKind::Attack, WorkloadKind::Campaign];

    /// The workload's name on the command line.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            WorkloadKind::Play => "play",
            WorkloadKind::Stream => "stream",
            WorkloadKind::Attack => "attack",
            WorkloadKind::Campaign => "campaign",
        }
    }

    /// Parses a command-line name.
    #[must_use]
    pub fn parse(name: &str) -> Option<WorkloadKind> {
        WorkloadKind::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// What one run measures.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// The workload.
    pub workload: WorkloadKind,
    /// Seeds every generated input.
    pub seed: u64,
    /// Measurement budget in seconds (split evenly between the
    /// untraced and traced phases of a traced run).
    pub seconds: f64,
    /// Whether this is the traced run reporting per-layer metrics.
    pub trace: bool,
}

/// Why a run could not measure.
#[derive(Debug)]
pub enum BenchError {
    /// The campaign's worker binary is not where the benchmark looked.
    MissingWorkerBinary(PathBuf),
    /// A workload could not be set up.
    Setup(String),
    /// A layer probe produced a wrong result.
    Probe(String),
}

impl fmt::Display for BenchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BenchError::MissingWorkerBinary(path) => write!(
                f,
                "campaign worker binary {} is missing; build it with \
                 `cargo build --release --bin wideleak` into the same target directory",
                path.display()
            ),
            BenchError::Setup(what) => write!(f, "setup failed: {what}"),
            BenchError::Probe(what) => write!(f, "layer probe failed: {what}"),
        }
    }
}

impl std::error::Error for BenchError {}

/// One set-up workload.
pub trait Workload {
    /// Runs operation `i` and checks its output; `false` is a failed
    /// operation (an error counts as one).
    fn op(&mut self, i: u64) -> bool;

    /// Operations in one pass over the input mix. A time-bounded phase
    /// ends on a pass boundary.
    fn cycle(&self) -> u64;

    /// Records the workload's configuration labels.
    fn labels(&self, report: &mut Report);

    /// After the traced phase: splits attributed time more finely than
    /// the spans do, from the collector's snapshot of that phase or
    /// from extra measurements. Adds detail lines to `report`.
    ///
    /// # Errors
    ///
    /// A measurement the split needs could not be taken.
    fn refine(
        &self,
        _tally: &mut Tally,
        _snapshot: &Snapshot,
        _report: &mut Report,
    ) -> Result<(), BenchError> {
        Ok(())
    }
}

/// Operation latencies of one measured phase.
#[derive(Debug, Default)]
struct Phase {
    latencies: Vec<Duration>,
    failed: u64,
    wall: Duration,
}

impl Phase {
    fn ops(&self) -> u64 {
        self.latencies.len() as u64
    }

    fn mean_ms(&self) -> f64 {
        millis(self.latencies.iter().sum::<Duration>()) / self.latencies.len().max(1) as f64
    }
}

/// Whether a phase that has run `done` operations should stop: at the
/// first pass boundary after the deadline, so every phase runs at least
/// one full pass.
fn phase_over(done: u64, cycle: u64, deadline: Instant) -> bool {
    done > 0 && done.is_multiple_of(cycle) && Instant::now() >= deadline
}

/// Runs operations without tracing until the budget is spent.
fn measure(w: &mut dyn Workload, seconds: f64, first: u64) -> Phase {
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let mut phase = Phase::default();
    while !phase_over(phase.ops(), w.cycle(), deadline) {
        let t = Instant::now();
        let ok = w.op(first + phase.ops());
        phase.latencies.push(t.elapsed());
        phase.failed += u64::from(!ok);
    }
    phase.wall = start.elapsed();
    phase
}

/// Runs operations with tracing and the metrics collector on, each
/// under a root span, and attributes every operation's spans by layer.
/// Spans are drained from the bounded trace buffer every few operations
/// into the tally; a trace is attributed one drain after its root
/// closed, so server-side spans that close just after the client's
/// reply are in.
fn measure_traced(w: &mut dyn Workload, seconds: f64, first: u64) -> (Phase, Tally, Snapshot, u64) {
    telemetry::reset();
    let _ = trace::drain();
    let dropped_before = trace::dropped_spans();
    telemetry::enable();
    trace::enable();

    let mut tally = Tally::default();
    let mut pending: HashMap<u64, Vec<TraceSpan>> = HashMap::new();
    let mut settling: Vec<(u64, u64)> = Vec::new();
    let mut fresh: Vec<(u64, u64)> = Vec::new();
    let mut drain_every = 1u64;
    let mut since_drain = 0u64;

    let drain = |pending: &mut HashMap<u64, Vec<TraceSpan>>| -> u64 {
        let spans = trace::drain();
        let n = spans.len() as u64;
        for span in spans {
            pending.entry(span.trace_id).or_default().push(span);
        }
        n
    };
    let settle = |roots: &mut Vec<(u64, u64)>,
                  pending: &mut HashMap<u64, Vec<TraceSpan>>,
                  tally: &mut Tally| {
        for (trace_id, root_id) in roots.drain(..) {
            if let Some(a) = pending.remove(&trace_id).and_then(|s| attribute(&s, root_id)) {
                tally.add(&a);
            }
        }
    };

    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let mut phase = Phase::default();
    while !phase_over(phase.ops(), w.cycle(), deadline) {
        let root = trace::span(ROOT_SPAN);
        let ctx = root.context().expect("tracing is on");
        let t = Instant::now();
        let ok = w.op(first + phase.ops());
        let elapsed = t.elapsed();
        drop(root);
        phase.latencies.push(elapsed);
        phase.failed += u64::from(!ok);
        fresh.push((ctx.trace_id, ctx.span_id));
        since_drain += 1;
        if since_drain >= drain_every {
            let spans = drain(&mut pending);
            settle(&mut settling, &mut pending, &mut tally);
            let live: HashSet<u64> = fresh.iter().map(|r| r.0).collect();
            pending.retain(|trace_id, _| live.contains(trace_id));
            settling = std::mem::take(&mut fresh);
            drain_every = (SPANS_PER_DRAIN * since_drain / spans.max(1)).clamp(1, 4096);
            since_drain = 0;
        }
    }
    phase.wall = start.elapsed();
    trace::disable();
    // Let server threads close their last spans before the final drain.
    std::thread::sleep(Duration::from_millis(20));
    drain(&mut pending);
    settle(&mut settling, &mut pending, &mut tally);
    settle(&mut fresh, &mut pending, &mut tally);
    let snapshot = telemetry::snapshot();
    telemetry::disable();
    telemetry::reset();
    let dropped = trace::dropped_spans() - dropped_before;
    (phase, tally, snapshot, dropped)
}

/// The machine and build a result came from.
fn provenance(cfg: &RunConfig, report: &mut Report) {
    report.label("nproc", std::thread::available_parallelism().map_or(1, usize::from));
    report.label("profile", if cfg!(debug_assertions) { "debug" } else { "release" });
    report.label("seed", cfg.seed);
    report.label("seconds", cfg.seconds);
    report.label("trace", u8::from(cfg.trace));
    report.label("setup_reps", SETUP_REPS);
}

/// Sets the workload up [`SETUP_REPS`] times, keeping the last (on the
/// run seed itself), and returns it with the set-up times in seconds.
fn set_up(cfg: &RunConfig) -> Result<(Box<dyn Workload>, Vec<f64>), BenchError> {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut workload = None;
    for rep in 0..SETUP_REPS {
        let seed = if rep + 1 == SETUP_REPS { cfg.seed } else { mix(cfg.seed, rep as u64) };
        // Tear the previous copy down first, outside the timed region.
        drop(workload.take());
        let start = Instant::now();
        workload = Some(workloads::set_up(cfg.workload, seed)?);
        times.push(start.elapsed().as_secs_f64());
    }
    Ok((workload.expect("SETUP_REPS is at least 1"), times))
}

/// Runs one benchmark run: end-to-end metrics, or with `cfg.trace` the
/// per-layer metrics.
///
/// # Errors
///
/// The workload could not be set up or a layer probe failed; nothing
/// was measured.
pub fn run(cfg: &RunConfig) -> Result<Report, BenchError> {
    let (mut w, setup_times) = set_up(cfg)?;
    measure_set_up(cfg, w.as_mut(), &setup_times)
}

/// Measures a workload that is already set up.
fn measure_set_up(
    cfg: &RunConfig,
    w: &mut dyn Workload,
    setup_times: &[f64],
) -> Result<Report, BenchError> {
    let mut report = Report { correct: true, ..Report::default() };
    provenance(cfg, &mut report);
    if cfg.trace {
        run_traced(cfg, w, &mut report)?;
    } else {
        let phase = measure(w, cfg.seconds, 0);
        let mut sorted = phase.latencies.clone();
        sorted.sort();
        report.label("ops", phase.ops());
        report.metric("setup_s", median(setup_times), "s");
        report.metric("p50_ms", millis(percentile(&sorted, 50)), "ms");
        report.metric("ops_per_s", phase.ops() as f64 / phase.wall.as_secs_f64(), "op/s");
        report.attempted = phase.ops();
        report.failed = phase.failed;
    }
    w.labels(&mut report);
    report.correct &= report.failed == 0;
    Ok(report)
}

/// The traced run: an untraced half for the tracing overhead, a traced
/// half for the layer split, then the layer probes.
fn run_traced(
    cfg: &RunConfig,
    w: &mut dyn Workload,
    report: &mut Report,
) -> Result<(), BenchError> {
    let half = cfg.seconds / 2.0;
    let plain = measure(w, half, 0);
    let (traced, mut tally, snapshot, dropped) = measure_traced(w, half, plain.ops());
    w.refine(&mut tally, &snapshot, report)?;
    report.attempted = plain.ops() + traced.ops();
    report.failed = plain.failed + traced.failed;
    report.label("ops", format!("{}+{}", plain.ops(), traced.ops()));

    let ops = traced.ops().max(1) as f64;
    // Sums the counters whose name is `name` or, for a name ending in
    // `.`, starts with it.
    let counter = |name: &str| -> f64 {
        let matches = |n: &str| if name.ends_with('.') { n.starts_with(name) } else { n == name };
        snapshot
            .counters
            .iter()
            .filter(|(n, _)| matches(n))
            .fold(0.0, |sum, (_, v)| sum + *v as f64)
    };
    report.notes.push(format!(
        "layers {}: {} traced ops, mean {:.3} ms (untraced {:.3} ms)",
        cfg.workload.name(),
        tally.ops,
        traced.mean_ms(),
        plain.mean_ms()
    ));
    let mut share_sum = 0.0;
    for layer in Layer::ALL {
        let pct = tally.percent(layer);
        share_sum += pct;
        report.notes.push(format!(
            "layer {:<28} {:>12.3} us/op {:>7.2} %",
            layer.metric(),
            tally.us_per_op(layer),
            pct
        ));
        report.metric(layer.metric(), pct, "%");
    }
    if (share_sum - 100.0).abs() > 1.0 || tally.ops != traced.ops() {
        report.notes.push(format!(
            "error: layers cover {share_sum:.3} % of {} of {} traced ops",
            tally.ops,
            traced.ops()
        ));
        report.correct = false;
    }
    if dropped > 0 {
        report.notes.push(format!("error: the trace buffer dropped {dropped} spans"));
        report.correct = false;
    }
    // The tail repeats too poorly across runs on a shared host to carry a
    // regression bound, so it is reported here, from the untraced half.
    let mut sorted = plain.latencies.clone();
    sorted.sort();
    report.metric("op.p90_ms", millis(percentile(&sorted, 90)), "ms");
    report.metric("op.traced_ms", traced.mean_ms(), "ms");
    report.metric("trace.overhead_pct", 100.0 * (traced.mean_ms() / plain.mean_ms() - 1.0), "%");
    report.metric("trace.spans_per_op", tally.spans as f64 / ops, "count");
    report.metric("trace.dropped_spans", dropped as f64, "count");
    report.metric("drm.calls_per_op", tally.drm_calls as f64 / ops, "count");
    report.metric("ott.backend_requests_per_op", counter("ott.server.requests.") / ops, "count");
    report.metric("tcp.bytes_per_op", counter("binder.tcp.bytes.") / ops, "bytes");
    report.metric("tcp.reconnects", counter("binder.tcp.reconnects"), "count");
    report.metric("cdm.decrypt_bytes_per_op", counter("cdm.decrypt.bytes") / ops, "bytes");
    probes::run(cfg.seed, report)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Runs share the process-wide tracer and metrics collector, so
    /// every test that runs a workload holds this lock.
    pub(crate) static RUN_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    pub(crate) fn run_lock() -> std::sync::MutexGuard<'static, ()> {
        RUN_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// A run whose phases each make one pass over the input mix.
    fn tiny(workload: WorkloadKind, trace: bool) -> RunConfig {
        RunConfig { workload, seed: 11, seconds: 1e-6, trace }
    }

    fn names(report: &Report) -> Vec<&'static str> {
        report.metrics.iter().map(|m| m.name).collect()
    }

    #[test]
    fn phases_stop_on_pass_boundaries_after_the_deadline() {
        let past = Instant::now();
        assert!(!phase_over(0, 4, past), "at least one pass runs");
        assert!(!phase_over(3, 4, past));
        assert!(phase_over(4, 4, past));
        let future = Instant::now() + Duration::from_secs(60);
        assert!(!phase_over(8, 4, future));
    }

    #[test]
    fn tiny_untraced_runs_report_every_end_to_end_metric() {
        let _lock = run_lock();
        for (workload, ops) in
            [(WorkloadKind::Stream, 4), (WorkloadKind::Attack, 10), (WorkloadKind::Play, 40)]
        {
            let report = run(&tiny(workload, false)).expect("set-up succeeds");
            assert!(report.correct, "{workload:?}: {:?}", report.lines(workload.name()));
            assert_eq!((report.attempted, report.failed), (ops, 0));
            assert_eq!(names(&report), ["setup_s", "p50_ms", "ops_per_s"]);
            assert!(report.metrics.iter().all(|m| m.value > 0.0), "{:?}", report.metrics);
            assert!(report.json().is_ok());
        }
    }

    #[test]
    fn tiny_traced_run_attributes_all_time_and_reports_every_layer_metric() {
        let _lock = run_lock();
        let report = run(&tiny(WorkloadKind::Stream, true)).expect("set-up succeeds");
        assert!(report.correct, "{:?}", report.lines("stream"));
        let value = |name: &str| report.metrics.iter().find(|m| m.name == name).map(|m| m.value);
        let layers: f64 = Layer::ALL.iter().map(|l| value(l.metric()).expect("every layer")).sum();
        assert!((layers - 100.0).abs() < 1.0, "layers sum to {layers}");
        assert_eq!(value("trace.dropped_spans"), Some(0.0));
        assert_eq!(value("drm.calls_per_op"), Some(1.0));
        assert_eq!(value("cdm.decrypt_bytes_per_op"), Some(probes::SAMPLE_BYTES as f64));
        assert!(value(Layer::Tcp.metric()).unwrap() > 0.0);
        assert!(value("crypto.aes.decrypt_ns_per_block").unwrap() > 0.0);
        assert_eq!(report.attempted, 8, "an untraced and a traced pass");
    }

    #[test]
    fn a_corrupted_output_fails_its_operation_and_the_run() {
        let _lock = run_lock();
        let mut stream = workloads::stream::Stream::set_up(3).expect("set-up succeeds");
        // Operation 0 decrypts sample 0 of the L1 handset's cenc pool.
        stream.corrupt_sample(0, 0, 0);
        let report = measure_set_up(&tiny(WorkloadKind::Stream, false), &mut stream, &[1.0])
            .expect("measures");
        assert_eq!((report.attempted, report.failed), (4, 1));
        assert!(!report.correct);
        assert!(report.lines("stream").last().unwrap().contains("fail_ratio=0.25"));
    }
}
