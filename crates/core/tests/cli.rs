//! The `wideleak` command line drops no argument silently: a
//! `--telemetry` file is written by every command that collected into
//! it, and an argument that does not parse is a usage error.

use std::process::Command;

#[test]
fn a_telemetry_campaign_writes_its_export() {
    let path = std::env::temp_dir().join(format!("wideleak-campaign-{}.jsonl", std::process::id()));
    let out = Command::new(env!("CARGO_BIN_EXE_wideleak"))
        .arg("--telemetry")
        .arg(&path)
        .args(["--quick", "campaign", "--workers", "1"])
        .output()
        .expect("wideleak runs");
    let text = std::fs::read_to_string(&path);
    let _ = std::fs::remove_file(&path);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = text.expect("telemetry export written");
    let first = text.lines().next().unwrap_or_default();
    assert!(first.starts_with("{\"type\":\"meta\""), "first line {first:?}");
}

#[test]
fn a_call_count_that_does_not_parse_is_a_usage_error() {
    let out = Command::new(env!("CARGO_BIN_EXE_wideleak"))
        .args(["call", "127.0.0.1:9", "abc"])
        .output()
        .expect("wideleak runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.starts_with("usage: wideleak"), "{stderr}");
    assert!(!stdout.contains("call 0") && !stderr.contains("call 0"), "{stdout}{stderr}");
}
