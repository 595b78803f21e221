//! `binder.tcp.reconnects` counts re-dials of connections that died,
//! never a pool slot's first dial. The counter is process-global and
//! other tests reconnect concurrently, so each check here runs in a
//! process of its own: the package's binary with `--telemetry`.

use std::process::Command;

use wideleak::telemetry::export::parse_jsonl;

/// Runs `wideleak --telemetry FILE <args>` and returns its counters.
fn counters(name: &str, args: &[&str]) -> Vec<(String, u64)> {
    let path = std::env::temp_dir().join(format!("wideleak-{name}-{}.jsonl", std::process::id()));
    let out = Command::new(env!("CARGO_BIN_EXE_wideleak"))
        .arg("--telemetry")
        .arg(&path)
        .args(args)
        .output()
        .expect("spawn");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "wideleak {args:?} failed ({}):\n{stderr}", out.status);
    let text = std::fs::read_to_string(&path).expect("telemetry export written");
    let _ = std::fs::remove_file(&path);
    parse_jsonl(&text).counters
}

fn counter(counters: &[(String, u64)], name: &str) -> u64 {
    counters.iter().filter(|(n, _)| n == name).map(|(_, v)| v).sum()
}

#[test]
fn a_fault_free_load_counts_no_reconnect() {
    let counters = counters("load", &["--quick", "--transport", "tcp", "load"]);
    assert_eq!(counter(&counters, "binder.tcp.reconnects"), 0, "{counters:?}");
}

#[test]
fn resilience_reconnects_at_most_once_per_severing_fault() {
    let counters = counters("resilience", &["--quick", "--transport", "tcp", "resilience"]);
    let severing: u64 = ["drop", "garble_body", "truncate_body"]
        .iter()
        .map(|kind| counter(&counters, &format!("fault.injected.{kind}")))
        .sum();
    let reconnects = counter(&counters, "binder.tcp.reconnects");
    assert!(
        0 < reconnects && reconnects <= severing,
        "{reconnects} reconnects after {severing} drop, garble and truncate faults"
    );
}
