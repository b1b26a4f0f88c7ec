//! Power-of-two bucketed histogram for latency distributions.

use serde::{Deserialize, Serialize};

/// Number of sub-buckets per power-of-two octave (2 bits of precision,
/// i.e. relative error bounded by 25 %; enough for latency *shape* studies
/// while keeping the histogram at a fixed, small size).
const SUBBUCKET_BITS: u32 = 2;
const SUBBUCKETS: usize = 1 << SUBBUCKET_BITS;
/// Octaves covered: values up to 2^40 (≈ 10^12) — far beyond any simulated
/// latency in microseconds.
const OCTAVES: usize = 40;

/// A log-scaled histogram over `u64` observations (e.g. microseconds).
///
/// Bucketing is HDR-style: the octave is `floor(log2(x))` and each octave is
/// split into four linear sub-buckets, so recording is two shifts and an
/// index — no search, no allocation after construction.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    total: u128,
    max: u64,
    min: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: vec![0; OCTAVES * SUBBUCKETS],
            count: 0,
            total: 0,
            max: 0,
            min: u64::MAX,
        }
    }

    fn bucket_index(value: u64) -> usize {
        if value < SUBBUCKETS as u64 {
            // Values 0..4 land in the first octave's linear cells.
            return value as usize;
        }
        let octave = 63 - value.leading_zeros();
        let shift = octave - SUBBUCKET_BITS;
        let sub = ((value >> shift) & (SUBBUCKETS as u64 - 1)) as usize;
        let idx = (octave as usize - SUBBUCKET_BITS as usize + 1) * SUBBUCKETS + sub;
        idx.min(OCTAVES * SUBBUCKETS - 1)
    }

    /// Representative (lower-bound) value of bucket `idx`.
    fn bucket_floor(idx: usize) -> u64 {
        if idx < SUBBUCKETS {
            return idx as u64;
        }
        let octave = idx / SUBBUCKETS - 1 + SUBBUCKET_BITS as usize;
        let sub = idx % SUBBUCKETS;
        (1u64 << octave) + ((sub as u64) << (octave - SUBBUCKET_BITS as usize))
    }

    /// Record one observation.
    pub fn record(&mut self, value: u64) {
        self.buckets[Self::bucket_index(value)] += 1;
        self.count += 1;
        self.total += value as u128;
        self.max = self.max.max(value);
        self.min = self.min.min(value);
    }

    /// Record `n` observations of the same `value` in O(1): the same
    /// histogram as `n` calls to [`Self::record`].
    pub fn record_n(&mut self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.buckets[Self::bucket_index(value)] += n;
        self.count += n;
        self.total += value as u128 * n as u128;
        self.max = self.max.max(value);
        self.min = self.min.min(value);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact mean of the recorded values (tracked exactly, not from buckets).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total as f64 / self.count as f64
        }
    }

    /// Exact maximum recorded value (0 when empty).
    pub fn max(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.max
        }
    }

    /// Exact minimum recorded value (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Approximate quantile (`q` in `[0, 1]`), accurate to the bucket's
    /// 25 % relative width. Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (idx, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Self::bucket_floor(idx).min(self.max).max(self.min);
            }
        }
        self.max
    }

    /// Median shortcut.
    pub fn median(&self) -> u64 {
        self.quantile(0.5)
    }

    /// Merge another histogram (same fixed geometry) into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.total += other.total;
        self.max = self.max.max(other.max);
        self.min = self.min.min(other.min);
    }

    /// Iterate non-empty buckets as `(floor_value, count)`.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (Self::bucket_floor(i), c))
    }

    /// The three tail quantiles every report in this repo cares about.
    pub fn percentiles(&self) -> Percentiles {
        Percentiles {
            p50: self.quantile(0.50),
            p95: self.quantile(0.95),
            p99: self.quantile(0.99),
        }
    }

    /// Serialize into the compact non-zero-bucket text encoding:
    ///
    /// ```text
    /// v1;<count>;<total>;<min>;<max>;<idx>:<n>,<idx>:<n>,...
    /// ```
    ///
    /// Only non-empty buckets are listed (an idle histogram is 160 zeros),
    /// and the exact `count`/`total`/`min`/`max` ride alongside so a decoded
    /// histogram reproduces `mean`, `min`, `max`, and every quantile
    /// bit-for-bit. The workspace's serde is a no-op shim, so this string is
    /// the real wire format used by report JSON and the bench baseline.
    pub fn encode_compact(&self) -> String {
        use std::fmt::Write;
        let mut out = format!(
            "v1;{};{};{};{};",
            self.count, self.total, self.min, self.max
        );
        let mut first = true;
        for (idx, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(out, "{idx}:{c}");
        }
        out
    }

    /// Decode a string produced by [`Histogram::encode_compact`].
    pub fn decode_compact(s: &str) -> Result<Histogram, String> {
        let mut parts = s.splitn(6, ';');
        let version = parts.next().ok_or("empty histogram encoding")?;
        if version != "v1" {
            return Err(format!("unknown histogram encoding version {version:?}"));
        }
        let mut field = |name: &str| {
            parts
                .next()
                .ok_or_else(|| format!("histogram encoding missing {name}"))
        };
        let count: u64 = field("count")?.parse().map_err(|e| format!("count: {e}"))?;
        let total: u128 = field("total")?.parse().map_err(|e| format!("total: {e}"))?;
        let min: u64 = field("min")?.parse().map_err(|e| format!("min: {e}"))?;
        let max: u64 = field("max")?.parse().map_err(|e| format!("max: {e}"))?;
        let buckets_str = field("buckets")?;
        let mut h = Histogram::new();
        h.count = count;
        h.total = total;
        h.min = min;
        h.max = max;
        let mut bucket_sum = 0u64;
        if !buckets_str.is_empty() {
            for pair in buckets_str.split(',') {
                let (idx, c) = pair
                    .split_once(':')
                    .ok_or_else(|| format!("malformed bucket entry {pair:?}"))?;
                let idx: usize = idx.parse().map_err(|e| format!("bucket index: {e}"))?;
                let c: u64 = c.parse().map_err(|e| format!("bucket count: {e}"))?;
                if idx >= OCTAVES * SUBBUCKETS {
                    return Err(format!("bucket index {idx} out of range"));
                }
                h.buckets[idx] += c;
                bucket_sum += c;
            }
        }
        if bucket_sum != count {
            return Err(format!(
                "bucket counts sum to {bucket_sum} but header count is {count}"
            ));
        }
        Ok(h)
    }
}

/// p50/p95/p99 extracted from a [`Histogram`], each accurate to the
/// histogram's 25 % bucket width.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Percentiles {
    /// Median (0.50 quantile).
    pub p50: u64,
    /// 0.95 quantile.
    pub p95: u64,
    /// 0.99 quantile.
    pub p99: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.max(), 0);
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = Histogram::new();
        for v in [0u64, 1, 2, 3] {
            h.record(v);
        }
        let buckets: Vec<(u64, u64)> = h.nonzero_buckets().collect();
        assert_eq!(buckets, vec![(0, 1), (1, 1), (2, 1), (3, 1)]);
    }

    #[test]
    fn bucket_floor_round_trips_within_error() {
        // floor(bucket(v)) <= v and within 25 % relative error.
        for v in [1u64, 5, 7, 100, 1000, 12345, 1 << 20, (1 << 30) + 12345] {
            let idx = Histogram::bucket_index(v);
            let floor = Histogram::bucket_floor(idx);
            assert!(floor <= v, "floor({v}) = {floor}");
            assert!(
                (v - floor) as f64 <= 0.25 * v as f64 + 1.0,
                "bucket error too large for {v}: floor {floor}"
            );
        }
    }

    #[test]
    fn quantiles_are_ordered_and_bounded() {
        let mut h = Histogram::new();
        for i in 1..=1000u64 {
            h.record(i * 17 % 997 + 1);
        }
        let q10 = h.quantile(0.10);
        let q50 = h.quantile(0.50);
        let q99 = h.quantile(0.99);
        assert!(q10 <= q50 && q50 <= q99);
        assert!(q99 <= h.max());
        assert!(q10 >= h.min());
    }

    #[test]
    fn mean_is_exact() {
        let mut h = Histogram::new();
        for v in [10u64, 20, 30, 40] {
            h.record(v);
        }
        assert_eq!(h.mean(), 25.0);
        assert_eq!(h.min(), 10);
        assert_eq!(h.max(), 40);
    }

    #[test]
    fn merge_matches_combined_recording() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut combined = Histogram::new();
        for i in 0..500u64 {
            let v = (i * 31) % 10_000;
            if i % 2 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
            combined.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), combined.count());
        assert_eq!(a.mean(), combined.mean());
        assert_eq!(a.max(), combined.max());
        assert_eq!(a.quantile(0.9), combined.quantile(0.9));
    }

    #[test]
    fn huge_values_saturate_into_last_bucket() {
        let mut h = Histogram::new();
        h.record(u64::MAX);
        assert_eq!(h.count(), 1);
        assert_eq!(h.max(), u64::MAX);
        // Quantile is clamped by the exact max.
        assert_eq!(h.quantile(1.0), u64::MAX);
    }

    #[test]
    fn compact_encoding_round_trips() {
        let mut h = Histogram::new();
        for i in 0..700u64 {
            h.record((i * 131) % 50_000);
        }
        let encoded = h.encode_compact();
        let decoded = Histogram::decode_compact(&encoded).expect("decode");
        assert_eq!(decoded.count(), h.count());
        assert_eq!(decoded.mean(), h.mean());
        assert_eq!(decoded.min(), h.min());
        assert_eq!(decoded.max(), h.max());
        for q in [0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0] {
            assert_eq!(decoded.quantile(q), h.quantile(q), "quantile {q}");
        }
        // Round-tripping again is a fixed point.
        assert_eq!(decoded.encode_compact(), encoded);
    }

    #[test]
    fn compact_encoding_of_empty_histogram() {
        let h = Histogram::new();
        let decoded = Histogram::decode_compact(&h.encode_compact()).expect("decode");
        assert_eq!(decoded.count(), 0);
        assert_eq!(decoded.quantile(0.99), 0);
        assert_eq!(decoded.max(), 0);
    }

    #[test]
    fn compact_decode_rejects_malformed_input() {
        for bad in [
            "",
            "v2;0;0;0;0;",
            "v1;1;0;0;0;",      // count mismatch: header says 1, no buckets
            "v1;1;0;0;0;999:1", // bucket index out of range
            "v1;1;0;0;0;abc",   // malformed pair
            "v1;not-a-number;0;0;0;",
        ] {
            assert!(Histogram::decode_compact(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn percentiles_match_individual_quantiles() {
        let mut h = Histogram::new();
        for i in 1..=1000u64 {
            h.record(i);
        }
        let p = h.percentiles();
        assert_eq!(p.p50, h.quantile(0.50));
        assert_eq!(p.p95, h.quantile(0.95));
        assert_eq!(p.p99, h.quantile(0.99));
        assert!(p.p50 <= p.p95 && p.p95 <= p.p99);
    }
}
