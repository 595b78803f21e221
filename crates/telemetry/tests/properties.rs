//! Property tests for the histogram: percentile ordering, bucket
//! boundary arithmetic and summary consistency on arbitrary inputs.

use std::time::Duration;

use proptest::prelude::*;
use wideleak_telemetry::metrics::{bucket_index, bucket_upper_bound, Histogram};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn quantiles_are_ordered(values in proptest::collection::vec(0u64..10_000_000, 1..200)) {
        let h = Histogram::default();
        for v in &values {
            h.observe(Duration::from_nanos(*v));
        }
        let s = h.summary();
        let chain = [s.min_ns, s.p50_ns, s.p90_ns, s.p95_ns, s.p99_ns, s.max_ns];
        prop_assert!(chain.windows(2).all(|w| w[0] <= w[1]), "{:?}", chain);
    }

    #[test]
    fn summary_counts_and_bounds_match_inputs(values in proptest::collection::vec(0u64..1_000_000, 1..100)) {
        let h = Histogram::default();
        for v in &values {
            h.observe(Duration::from_nanos(*v));
        }
        let s = h.summary();
        prop_assert_eq!(s.count, values.len() as u64);
        prop_assert_eq!(s.sum_ns, values.iter().sum::<u64>());
        prop_assert_eq!(s.min_ns, *values.iter().min().unwrap());
        prop_assert_eq!(s.max_ns, *values.iter().max().unwrap());
    }

    #[test]
    fn every_value_falls_inside_its_bucket(v in any::<u64>()) {
        let i = bucket_index(v);
        prop_assert!(v <= bucket_upper_bound(i));
        if i > 0 {
            prop_assert!(v > bucket_upper_bound(i - 1));
        }
    }

    #[test]
    fn quantile_never_exceeds_observed_max(values in proptest::collection::vec(0u64..u64::MAX / 2, 1..50)) {
        let h = Histogram::default();
        for v in &values {
            h.observe(Duration::from_nanos(*v));
        }
        let max = *values.iter().max().unwrap();
        let s = h.summary();
        for p in [s.p50_ns, s.p90_ns, s.p95_ns, s.p99_ns] {
            prop_assert!(p <= max);
        }
    }
}
