//! Counter atomicity and shard integrity under thread fan-out: many
//! threads hammer the same collector through std's scoped threads;
//! nothing may be lost or double-counted.

use std::time::Duration;

use wideleak_telemetry::Collector;

const THREADS: usize = 8;
const PER_THREAD: u64 = 10_000;

#[test]
fn counters_are_atomic_under_fanout() {
    let c = Collector::new();
    std::thread::scope(|s| {
        for _ in 0..THREADS {
            s.spawn(|| {
                for _ in 0..PER_THREAD {
                    c.incr("shared");
                }
                c.add("batched", PER_THREAD);
            });
        }
    });
    let snap = c.snapshot();
    let get = |name: &str| snap.counters.iter().find(|(n, _)| n == name).map(|(_, v)| *v).unwrap();
    assert_eq!(get("shared"), THREADS as u64 * PER_THREAD);
    assert_eq!(get("batched"), THREADS as u64 * PER_THREAD);
}

#[test]
fn histogram_observations_survive_fanout() {
    let c = Collector::new();
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let c = &c;
            s.spawn(move || {
                for i in 0..1_000u64 {
                    c.observe("lat", Duration::from_nanos((t as u64 + 1) * 100 + i));
                }
            });
        }
    });
    let snap = c.snapshot();
    let (_, h) = snap.histograms.iter().find(|(n, _)| n == "lat").unwrap();
    assert_eq!(h.count, THREADS as u64 * 1_000);
    assert!(h.p50_ns <= h.p90_ns && h.p90_ns <= h.p99_ns && h.p99_ns <= h.max_ns);
}

#[test]
fn spans_from_many_threads_all_land() {
    let c = Collector::new();
    std::thread::scope(|s| {
        for _ in 0..THREADS {
            s.spawn(|| {
                for _ in 0..200 {
                    let _g = c.span("worker.op");
                }
            });
        }
    });
    let snap = c.snapshot();
    assert_eq!(snap.spans.len(), THREADS * 200);
    // Ids are unique even though storage is sharded.
    let mut ids: Vec<u64> = snap.spans.iter().map(|s| s.id).collect();
    ids.dedup();
    assert_eq!(ids.len(), THREADS * 200);
    // Top-level spans opened on different threads have no parent.
    assert!(snap.spans.iter().all(|s| s.parent.is_none()));
}
