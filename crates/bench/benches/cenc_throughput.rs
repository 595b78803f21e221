//! P2 — CENC segment encryption/decryption throughput: `cenc` (AES-CTR)
//! versus `cbcs` (AES-CBC 1:9 pattern).
//!
//! The cbcs pattern touches only 1 block in 10, so its throughput should
//! exceed cenc's on large samples — a shape worth pinning. Both schemes
//! now expand the AES key schedule once per segment and the CTR path
//! generates keystream in batched block chunks; the MB/s figures land in
//! `BENCH_cenc_throughput.json` so successive PRs can read the
//! trajectory.
//!
//! ```text
//! cargo bench -p wideleak-bench --bench cenc_throughput [-- --quick]
//! ```

use wideleak::bmff::fragment::{InitSegment, TrackKind};
use wideleak::bmff::types::{KeyId, Tenc};
use wideleak::cenc::keys::{ContentKey, MemoryKeyStore};
use wideleak::cenc::track::{decrypt_segment, encrypt_segment, Scheme};
use wideleak_bench::{median_time, quick_mode, BenchReport};

fn main() {
    let iters = if quick_mode() { 3 } else { 20 };
    let key = ContentKey([0x11; 16]);
    let kid = KeyId([0x22; 16]);

    println!("cenc_throughput: {iters} timed iterations per row (median reported)");
    println!("{:>24} {:>10} {:>10}", "segment op", "ms", "MB/s");

    let mut report = BenchReport::new("cenc_throughput");
    report
        .label("mode", if quick_mode() { "quick" } else { "full" })
        .label("iters", iters.to_string());

    for size in [64 * 1024usize, 1 << 20] {
        // One big sample per segment, the worst case for per-sample setup.
        let samples = vec![vec![0xCDu8; size]];
        let kib = size / 1024;

        for (scheme, tenc) in
            [(Scheme::Cenc, Tenc::cenc(kid)), (Scheme::Cbcs, Tenc::cbcs(kid, [3; 16]))]
        {
            let label = match scheme {
                Scheme::Cenc => "cenc",
                Scheme::Cbcs => "cbcs",
            };

            let secs = median_time(iters, || {
                encrypt_segment(scheme, &key, &tenc, TrackKind::Video, 1, 1, &samples, 7).unwrap()
            })
            .as_secs_f64();
            let mbs = size as f64 / secs / 1e6;
            println!(
                "{:>24} {:>10.3} {:>10.1}",
                format!("encrypt/{label}/{kib}KiB"),
                secs * 1e3,
                mbs
            );
            report.metric(format!("encrypt.{label}.{kib}kib.mb_per_s"), mbs);

            let init =
                InitSegment::protected(1, TrackKind::Video, scheme.fourcc(), tenc.clone(), vec![]);
            let seg =
                encrypt_segment(scheme, &key, &tenc, TrackKind::Video, 1, 1, &samples, 7).unwrap();
            let mut store = MemoryKeyStore::new();
            store.insert(kid, key);

            let secs =
                median_time(iters, || decrypt_segment(&init, &seg, &store).unwrap()).as_secs_f64();
            let mbs = size as f64 / secs / 1e6;
            println!(
                "{:>24} {:>10.3} {:>10.1}",
                format!("decrypt/{label}/{kib}KiB"),
                secs * 1e3,
                mbs
            );
            report.metric(format!("decrypt.{label}.{kib}kib.mb_per_s"), mbs);
        }
    }
    report.write();
}
