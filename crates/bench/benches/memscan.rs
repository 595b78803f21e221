//! P4 — keybox memory-scan cost as a function of process memory size.
//!
//! The paper scans the `mediaserver` process for the keybox magic; this
//! bench sweeps the scannable memory from 1 MiB to 64 MiB with the keybox
//! planted near the end (worst case for a left-to-right scan). Each row
//! is the median of a fixed number of scans; the rows land in
//! `BENCH_memscan.json`.
//!
//! ```text
//! cargo bench -p wideleak-bench --bench memscan
//! ```

use wideleak::attack::memscan::recover_keybox;
use wideleak::cdm::keybox::{Keybox, KEYBOX_LEN};
use wideleak::device::memory::ProcessMemory;
use wideleak_bench::{median_time, BenchReport};

/// Timed scans per memory size.
const ITERS: usize = 10;

/// The last region: 4 KiB of filler with the keybox 2 KiB in.
const TAIL: usize = 4096;

/// `total_bytes` of mapped memory holding one keybox in its last 4 KiB.
fn planted_memory(total_bytes: usize) -> ProcessMemory {
    let mem = ProcessMemory::new("mediaserver");
    let keybox = Keybox::issue(b"memscan-bench-device", &[0x5A; 16]);
    // Noise that contains no spurious magic.
    let filler = |len: usize| vec![0x6Bu8; len]; // 'k' bytes but never "kbox"
    let before = total_bytes - TAIL;
    mem.map_region("libc.so", filler(before / 2));
    mem.map_region("heap", filler(before - before / 2));
    let mut tail = filler(TAIL / 2);
    tail.extend_from_slice(&keybox.to_bytes());
    tail.extend(filler(TAIL / 2 - KEYBOX_LEN));
    mem.map_region("libwvdrmengine.so:.data", tail);
    mem
}

fn main() {
    let mut report = BenchReport::new("memscan");
    report.label("iters", ITERS.to_string());
    println!("memscan: median of {ITERS} scans per row");
    println!("{:>30} {:>10} {:>10}", "scan", "median ms", "MiB/s");
    for mib in [1usize, 4, 16, 64] {
        let total = mib << 20;
        let mem = planted_memory(total);
        assert_eq!(mem.total_bytes(), total);
        let secs = median_time(ITERS, || recover_keybox(&mem).unwrap()).as_secs_f64();
        let (ms, mib_per_s) = (secs * 1e3, mib as f64 / secs);
        let row = format!("recover_keybox/{mib}MiB");
        println!("{row:>30} {ms:>10.2} {mib_per_s:>10.1}");
        report.metric(format!("recover_keybox.{mib}mib.ms"), ms);
    }
    report.write();
}
