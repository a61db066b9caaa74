//! The percentile helper pinned against known samples, and the rule that
//! every reported percentile has at least ten samples beyond it.

use gdb_perfbench::percentile::{percentile, samples_beyond, Pct, Summary, MIN_BEYOND, P50, P99};
use gdb_simnet::stats::LatencyHistogram;
use gdb_simnet::SimDuration;

#[test]
fn nearest_rank_on_known_samples() {
    let s: Vec<u64> = (1..=100).collect();
    assert_eq!(percentile(&s, P50), 50);
    assert_eq!(percentile(&s, P99), 99);
    assert_eq!(percentile(&s, Pct::new(100.0)), 100);
    assert_eq!(percentile(&s, Pct::new(1.0)), 1);

    let s: Vec<u64> = (1..=1000).map(|x| x * 10).collect();
    assert_eq!(percentile(&s, P50), 5_000);
    assert_eq!(percentile(&s, P99), 9_900);

    assert_eq!(percentile(&[7], P99), 7);
}

#[test]
fn summary_sorts_its_input() {
    let mut s: Vec<u64> = (1..=200).rev().collect();
    let sum = Summary::of(&mut s).expect("non-empty");
    assert_eq!((sum.count, sum.p50, sum.p99), (200, 100, 198));
    assert_eq!(Summary::of(&mut []), None);
}

/// The cluster's histogram takes `q` in percent: `0.99` there is the
/// 0.99th percentile, near the minimum, not p99. The helper agrees with
/// `percentile(99.0)` and cannot be handed a fraction for p99.
#[test]
fn agrees_with_the_histogram_given_percent_not_fraction() {
    let mut h = LatencyHistogram::new();
    let mut s = Vec::new();
    for i in 0..5_000u64 {
        let us = (i * 7_919) % 3_001 + 120;
        h.record(SimDuration::from_micros(us));
        s.push(us);
    }
    let sum = Summary::of(&mut s).expect("non-empty");
    assert_eq!(h.percentile(99.0).as_micros(), sum.p99);
    assert_eq!(h.percentile(50.0).as_micros(), sum.p50);
    assert!(h.percentile(0.99).as_micros() < sum.p50 / 10);
}

#[test]
#[should_panic(expected = "percentile rank outside")]
fn rank_outside_percent_range_is_refused() {
    Pct::new(150.0);
}

#[test]
fn ten_samples_beyond_each_reported_percentile() {
    assert_eq!(samples_beyond(1_000, P99), MIN_BEYOND);
    assert_eq!(samples_beyond(999, P99), 9);
    assert_eq!(samples_beyond(0, P99), 0);
    let supported = |n: u64| {
        let mut s: Vec<u64> = (0..n).collect();
        Summary::of(&mut s).expect("non-empty").supported()
    };
    assert!(supported(1_000));
    assert!(!supported(999));
    assert!(!supported(15));
}
