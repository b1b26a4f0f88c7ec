//! Property tests for the measurement primitives: histogram bucketing
//! error bounds, quantile monotonicity, merge algebra and the compact encoding.

use dlm_metrics::Histogram;
use proptest::prelude::*;

proptest! {
    /// Bucket floors never exceed the recorded value and the relative error
    /// is bounded by the sub-bucket width (25 %).
    #[test]
    fn histogram_bucket_error_bounded(values in proptest::collection::vec(0u64..u64::MAX / 2, 1..200)) {
        let mut h = Histogram::new();
        for &v in &values {
            h.record(v);
        }
        prop_assert_eq!(h.count(), values.len() as u64);
        let exact_max = *values.iter().max().unwrap();
        let exact_min = *values.iter().min().unwrap();
        prop_assert_eq!(h.max(), exact_max);
        prop_assert_eq!(h.min(), exact_min);
        // Quantiles live within [min, max] and are monotone.
        let qs: Vec<u64> = [0.0, 0.25, 0.5, 0.75, 0.99, 1.0]
            .iter()
            .map(|&q| h.quantile(q))
            .collect();
        for w in qs.windows(2) {
            prop_assert!(w[0] <= w[1], "quantiles must be monotone: {qs:?}");
        }
        prop_assert!(qs[0] >= exact_min);
        prop_assert!(qs[5] <= exact_max);
    }

    /// The exact mean tracked by the histogram matches a reference fold.
    #[test]
    fn histogram_mean_is_exact(values in proptest::collection::vec(0u64..1_000_000u64, 1..200)) {
        let mut h = Histogram::new();
        for &v in &values {
            h.record(v);
        }
        let expected = values.iter().sum::<u64>() as f64 / values.len() as f64;
        prop_assert!((h.mean() - expected).abs() < 1e-6);
    }

    /// Merging histograms is equivalent to recording everything into one.
    #[test]
    fn histogram_merge_homomorphic(
        a in proptest::collection::vec(0u64..1_000_000u64, 0..100),
        b in proptest::collection::vec(0u64..1_000_000u64, 0..100),
    ) {
        let mut ha = Histogram::new();
        let mut hb = Histogram::new();
        let mut hall = Histogram::new();
        for &v in &a { ha.record(v); hall.record(v); }
        for &v in &b { hb.record(v); hall.record(v); }
        ha.merge(&hb);
        prop_assert_eq!(ha.count(), hall.count());
        prop_assert_eq!(ha.mean(), hall.mean());
        prop_assert_eq!(ha.quantile(0.5), hall.quantile(0.5));
        prop_assert_eq!(ha.max(), hall.max());
    }

    /// Quantile accuracy bound for the power-of-two buckets: the reported
    /// quantile never exceeds the exact order statistic, sits within one
    /// sub-bucket of it (25 % relative error), and is therefore always well
    /// inside the coarse 2x bound of plain power-of-two bucketing.
    #[test]
    fn histogram_quantile_within_one_bucket_of_exact(
        // Bounded to the histogram's covered range (2^40); beyond it values
        // saturate into the last bucket and no accuracy bound can hold.
        values in proptest::collection::vec(0u64..(1u64 << 40), 1..300),
        qs in proptest::collection::vec(0.0f64..1.0f64, 1..8),
    ) {
        let mut h = Histogram::new();
        for &v in &values {
            h.record(v);
        }
        let mut sorted = values.clone();
        sorted.sort_unstable();
        for &q in &qs {
            // Same rank rule as Histogram::quantile: ceil(q*n), at least 1.
            let rank = ((q * sorted.len() as f64).ceil() as usize).max(1);
            let exact = sorted[rank - 1];
            let reported = h.quantile(q);
            prop_assert!(
                reported <= exact,
                "q={q}: reported {reported} above exact order statistic {exact}"
            );
            // Within one sub-bucket: error <= 25 % of the reported floor
            // (+1 absorbs the sub-4 exact cells).
            prop_assert!(
                (exact - reported) as f64 <= 0.25 * reported as f64 + 1.0,
                "q={q}: reported {reported} not within one bucket of exact {exact}"
            );
            // The headline coarse bound: at most 2x relative error.
            prop_assert!(
                exact <= 2 * reported + 1,
                "q={q}: reported {reported} worse than 2x below exact {exact}"
            );
        }
    }

    /// Histogram merge is commutative and associative: any merge order over
    /// three shards yields the same distribution. Equality is checked on the
    /// full compact encoding, which covers every bucket plus the exact
    /// count/total/min/max — far stronger than comparing a few quantiles.
    #[test]
    fn histogram_merge_commutative_associative(
        a in proptest::collection::vec(0u64..10_000_000u64, 0..100),
        b in proptest::collection::vec(0u64..10_000_000u64, 0..100),
        c in proptest::collection::vec(0u64..10_000_000u64, 0..100),
    ) {
        let build = |vs: &[u64]| {
            let mut h = Histogram::new();
            for &v in vs {
                h.record(v);
            }
            h
        };
        let (ha, hb, hc) = (build(&a), build(&b), build(&c));

        // Commutativity: a + b == b + a.
        let mut ab = ha.clone();
        ab.merge(&hb);
        let mut ba = hb.clone();
        ba.merge(&ha);
        prop_assert_eq!(ab.encode_compact(), ba.encode_compact());

        // Associativity: (a + b) + c == a + (b + c).
        let mut ab_c = ab;
        ab_c.merge(&hc);
        let mut bc = hb.clone();
        bc.merge(&hc);
        let mut a_bc = ha.clone();
        a_bc.merge(&bc);
        prop_assert_eq!(ab_c.encode_compact(), a_bc.encode_compact());
    }

    /// The compact encoding round-trips through decode for arbitrary data.
    #[test]
    fn histogram_compact_encoding_round_trips(
        values in proptest::collection::vec(0u64..u64::MAX / 2, 0..200),
    ) {
        let mut h = Histogram::new();
        for &v in &values {
            h.record(v);
        }
        let decoded = Histogram::decode_compact(&h.encode_compact()).unwrap();
        prop_assert_eq!(decoded.encode_compact(), h.encode_compact());
        prop_assert_eq!(decoded.count(), h.count());
        prop_assert_eq!(decoded.mean().to_bits(), h.mean().to_bits());
        for q in [0.5, 0.95, 0.99] {
            prop_assert_eq!(decoded.quantile(q), h.quantile(q));
        }
    }

    /// `record_n(v, n)` is exactly `n` calls to `record(v)`, including
    /// `n = 0` (no observation, so `min`/`max` stay untouched).
    #[test]
    fn histogram_record_n_is_n_records(
        runs in proptest::collection::vec((0u64..u64::MAX / 1024, 0u64..64), 0..50),
    ) {
        let mut batched = Histogram::new();
        let mut one_by_one = Histogram::new();
        for &(v, n) in &runs {
            batched.record_n(v, n);
            for _ in 0..n {
                one_by_one.record(v);
            }
        }
        prop_assert_eq!(batched.encode_compact(), one_by_one.encode_compact());
        prop_assert_eq!(batched.min(), one_by_one.min());
    }
}
