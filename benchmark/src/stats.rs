//! Order statistics and small numeric helpers shared by every workload.

use std::time::Duration;

/// Nearest-rank percentile over an ascending sample set: the smallest
/// sample with at least `p` percent of the samples at or below it.
///
/// # Panics
///
/// Panics on an empty sample set or `p` outside `1..=100`.
#[must_use]
pub fn percentile(sorted: &[Duration], p: usize) -> Duration {
    assert!(!sorted.is_empty(), "percentile of no samples");
    assert!((1..=100).contains(&p), "percentile {p} outside 1..=100");
    let n = sorted.len();
    sorted[(n * p).div_ceil(100) - 1]
}

/// Median of unsorted values (the mean of the middle pair when the
/// count is even).
///
/// # Panics
///
/// Panics on an empty slice or a NaN value.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN among measured values"));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// A duration in milliseconds.
#[must_use]
pub fn millis(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Median wall time of `reps` runs of `f`, divided by `per_run` (the
/// units of work one run does), in nanoseconds per unit.
pub fn median_ns_per_unit<T>(reps: usize, per_run: usize, mut f: impl FnMut() -> T) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let start = std::time::Instant::now();
            std::hint::black_box(f());
            start.elapsed().as_secs_f64() * 1e9 / per_run as f64
        })
        .collect();
    median(&samples)
}

/// 64-bit FNV-1a, used to label byte-identical outputs compactly.
#[must_use]
pub fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// splitmix64: derives independent, well-mixed values from the run seed.
#[must_use]
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut x = seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: &[u64]) -> Vec<Duration> {
        v.iter().map(|&m| Duration::from_millis(m)).collect()
    }

    #[test]
    fn nearest_rank_percentiles() {
        let s = ms(&[1, 2, 3, 4, 5, 6, 7, 8, 9, 10]);
        assert_eq!(percentile(&s, 50), Duration::from_millis(5));
        assert_eq!(percentile(&s, 90), Duration::from_millis(9));
        assert_eq!(percentile(&s, 91), Duration::from_millis(10));
        assert_eq!(percentile(&s, 100), Duration::from_millis(10));
        assert_eq!(percentile(&s, 1), Duration::from_millis(1));
        // One sample answers every percentile; three samples put p50 on
        // the middle one and p90 on the largest.
        assert_eq!(percentile(&ms(&[7]), 1), Duration::from_millis(7));
        assert_eq!(percentile(&ms(&[7]), 99), Duration::from_millis(7));
        assert_eq!(percentile(&ms(&[1, 2, 3]), 50), Duration::from_millis(2));
        assert_eq!(percentile(&ms(&[1, 2, 3]), 90), Duration::from_millis(3));
    }

    #[test]
    #[should_panic(expected = "percentile of no samples")]
    fn percentile_rejects_empty_input() {
        let _ = percentile(&[], 50);
    }

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn fnv64_matches_reference_vectors() {
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
