//! F1 — regenerates **Figure 1** (the encrypted-content playback
//! sequence) and benchmarks the end-to-end protocol run over both Binder
//! transports.
//!
//! ```text
//! cargo bench -p wideleak-bench --bench figure1
//! ```

use criterion::{criterion_group, criterion_main, Criterion};
use wideleak::android_drm::binder::TransportKind;
use wideleak::device::catalog::DeviceModel;
use wideleak_bench::bench_ecosystem;

fn bench_figure1(c: &mut Criterion) {
    let eco = bench_ecosystem();

    // Regenerate the figure: run one playback and print the sequence.
    let stack = eco.boot_device(DeviceModel::pixel_6(), false);
    let app = eco.install_app(&stack, "showtime", "fig1-bench");
    let outcome = app.play("title-001").expect("playback");
    let trace = outcome.trace.expect("platform trace");
    eprintln!("\n=== Figure 1 — Encrypted Content Playback in Android ===\n");
    for (i, step) in trace.steps().iter().enumerate() {
        eprintln!("  {:>2}. {step:?}", i + 1);
    }
    eprintln!("\nmatches the paper's sequence: {}\n", trace.matches_figure_1());

    // Benchmark the full sequence (session + license + decrypt) per
    // transport. Provisioning happened above, so this measures the
    // steady-state protocol.
    let mut group = c.benchmark_group("figure1");
    group.sample_size(20);
    group.bench_function("playback/in_process_binder", |b| {
        b.iter(|| app.play("title-001").unwrap());
    });

    let tcp_stack = eco.boot_device_with(DeviceModel::pixel_6(), false, TransportKind::Tcp);
    let tcp_app = eco.install_app(&tcp_stack, "showtime", "fig1-tcp");
    tcp_app.play("title-001").expect("warm up provisioning");
    group.bench_function("playback/tcp_binder", |b| {
        b.iter(|| tcp_app.play("title-001").unwrap());
    });

    // L3 playback for comparison (no TEE world switches, sub-HD assets).
    let l3_stack = eco.boot_device(DeviceModel::nexus_5(), false);
    let l3_app = eco.install_app(&l3_stack, "showtime", "fig1-l3");
    l3_app.play("title-001").expect("warm up");
    group.bench_function("playback/l3_device", |b| {
        b.iter(|| l3_app.play("title-001").unwrap());
    });
    group.finish();
}

criterion_group!(benches, bench_figure1);
criterion_main!(benches);
