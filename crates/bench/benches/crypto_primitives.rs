//! P1 — throughput of the from-scratch primitives backing the simulated
//! CDM: AES-128, CTR keystream, AES-CMAC, SHA-256, HMAC, RSA.
//!
//! The RSA section is the headline: the same 1024/2048-bit private
//! operation through the precomputed Montgomery+CRT context versus the
//! plain schoolbook square-and-multiply it replaced, reported as
//! `rsa.private.<bits>.speedup_vs_schoolbook` (CI asserts a floor on
//! the 2048-bit figure).
//!
//! ```text
//! cargo bench -p wideleak-bench --bench crypto_primitives [-- --quick]
//! ```
//!
//! `--quick` (or `WIDELEAK_BENCH_QUICK=1`) shrinks iteration counts so
//! CI can smoke the comparison on every PR.

use std::time::Instant;

use wideleak::bigint::modular::mod_pow_schoolbook;
use wideleak::bigint::BigUint;
use wideleak::crypto::aes::Aes128;
use wideleak::crypto::cmac::aes_cmac_with_key;
use wideleak::crypto::hmac::Hmac;
use wideleak::crypto::modes::ctr_xcrypt;
use wideleak::crypto::rng::seeded_rng;
use wideleak::crypto::rsa::RsaPrivateKey;
use wideleak::crypto::sha256::{sha256, Sha256};
use wideleak_bench::{quick_mode, BenchReport};

/// Median wall time of `iters` runs of `f`, in microseconds.
fn time_us<T>(iters: usize, mut f: impl FnMut() -> T) -> f64 {
    let mut samples: Vec<f64> = (0..iters)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(f());
            start.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

fn bench_symmetric(report: &mut BenchReport, iters: usize) {
    let cipher = Aes128::new(&[7; 16]);
    println!("{:>28} {:>12} {:>10}", "primitive", "median us", "MB/s");

    let block_us = time_us(iters, || {
        let mut block = [0u8; 16];
        for _ in 0..1000 {
            cipher.encrypt_block(&mut block);
        }
        block
    }) / 1000.0;
    println!("{:>28} {:>12.3} {:>10.1}", "aes128/encrypt_block", block_us, 16.0 / block_us);
    report.metric("aes128.encrypt_block.us", block_us);

    for size in [64 * 1024usize, 1 << 20] {
        let data = vec![0xABu8; size];
        let mbs = |us: f64| size as f64 / us;
        let kib = size / 1024;

        let us = time_us(iters, || ctr_xcrypt(&cipher, &[1; 16], &data));
        println!("{:>28} {:>12.1} {:>10.1}", format!("ctr_xcrypt/{kib}KiB"), us, mbs(us));
        report.metric(format!("ctr_xcrypt.{kib}kib.mb_per_s"), mbs(us));

        let us = time_us(iters, || aes_cmac_with_key(&[7; 16], &data));
        println!("{:>28} {:>12.1} {:>10.1}", format!("aes_cmac/{kib}KiB"), us, mbs(us));
        report.metric(format!("aes_cmac.{kib}kib.mb_per_s"), mbs(us));

        let us = time_us(iters, || sha256(&data));
        println!("{:>28} {:>12.1} {:>10.1}", format!("sha256/{kib}KiB"), us, mbs(us));
        report.metric(format!("sha256.{kib}kib.mb_per_s"), mbs(us));

        let us = time_us(iters, || Hmac::<Sha256>::mac(b"key", &data));
        println!("{:>28} {:>12.1} {:>10.1}", format!("hmac_sha256/{kib}KiB"), us, mbs(us));
        report.metric(format!("hmac_sha256.{kib}kib.mb_per_s"), mbs(us));
    }
}

fn bench_rsa(report: &mut BenchReport, iters: usize) {
    println!("{:>28} {:>12} {:>12} {:>9}", "rsa op", "context us", "school us", "speedup");
    for bits in [1024usize, 2048] {
        let key = RsaPrivateKey::generate(&mut seeded_rng(42), bits);
        let n = key.public_key().modulus().clone();
        let d = key.private_exponent().clone();
        let msg = b"license request body";
        let ct = key.public_key().encrypt_oaep(&mut seeded_rng(1), &[9u8; 16]).unwrap();

        // The raw private operation c^d mod n, both ways, on the same
        // ciphertext-sized input. The context path goes through the CRT
        // split with per-prime Montgomery exponentiation; the schoolbook
        // path is the pre-redesign square-and-multiply on the full modulus.
        let c = &BigUint::from_bytes_be(&ct) % &n;
        let ctx_us = time_us(iters, || key.decrypt_oaep(&ct).unwrap());
        // Schoolbook is slow enough that a handful of samples suffices.
        let school_us = time_us(iters.clamp(3, 5), || mod_pow_schoolbook(&c, &d, &n));
        let speedup = school_us / ctx_us;
        println!(
            "{:>28} {:>12.1} {:>12.1} {:>8.2}x",
            format!("private_op/{bits}"),
            ctx_us,
            school_us,
            speedup
        );
        report
            .metric(format!("rsa.private.{bits}.context_us"), ctx_us)
            .metric(format!("rsa.private.{bits}.schoolbook_us"), school_us)
            .metric(format!("rsa.private.{bits}.speedup_vs_schoolbook"), speedup);

        let sig = key.sign_pkcs1v15_sha256(msg).unwrap();
        let sign_us = time_us(iters, || key.sign_pkcs1v15_sha256(msg).unwrap());
        let verify_us =
            time_us(iters, || key.public_key().verify_pkcs1v15_sha256(msg, &sig).unwrap());
        println!(
            "{:>28} {:>12.1} {:>12} {:>9}",
            format!("sign_pkcs1v15/{bits}"),
            sign_us,
            "-",
            "-"
        );
        println!(
            "{:>28} {:>12.1} {:>12} {:>9}",
            format!("verify_pkcs1v15/{bits}"),
            verify_us,
            "-",
            "-"
        );
        report
            .metric(format!("rsa.sign_pkcs1v15.{bits}.us"), sign_us)
            .metric(format!("rsa.verify_pkcs1v15.{bits}.us"), verify_us);
    }
}

fn main() {
    let iters = if quick_mode() { 5 } else { 30 };
    println!("crypto_primitives: {iters} timed iterations per row (median reported)");

    let mut report = BenchReport::new("crypto_primitives");
    report
        .label("mode", if quick_mode() { "quick" } else { "full" })
        .label("iters", iters.to_string());

    bench_symmetric(&mut report, iters);
    bench_rsa(&mut report, iters);
    report.write();
}
