//! Metric naming, percentiles and the result line.
//!
//! Every number the benchmark prints goes through [`Metrics`], which checks
//! names and units against the rules `BENCHMARK.json` follows, and every
//! latency percentile through [`percentile_rank`], which refuses a
//! percentile that fewer than ten samples lie beyond.

use std::fmt::Write as _;

/// Most end-to-end metrics one run may print.
pub const MAX_END_TO_END: usize = 16;
/// Most per-layer metrics one run may print.
pub const MAX_PER_LAYER: usize = 128;
/// Fewest samples that must lie beyond a reported percentile.
pub const MIN_TAIL_SAMPLES: u64 = 10;

/// Whether `name` is a valid metric or workload name: 1 to 64 characters
/// from `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
}

/// Whether `unit` is a valid unit: 1 to 16 characters from
/// `[A-Za-z0-9_/%.-]`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

/// Zero-based nearest-rank index of quantile `q` among `n` sorted samples,
/// or `None` when fewer than [`MIN_TAIL_SAMPLES`] samples lie above it.
pub fn percentile_rank(n: u64, q: f64) -> Option<u64> {
    assert!((0.0..1.0).contains(&q), "quantile {q} outside [0, 1)");
    if n == 0 {
        return None;
    }
    // Nearest rank: the smallest sample with at least q·n samples at or
    // below it. Integer-exact for the quantiles the benchmark uses.
    let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
    (n - rank >= MIN_TAIL_SAMPLES).then_some(rank - 1)
}

/// Quantile `q` of already-sorted `samples`, under [`percentile_rank`]'s
/// rule.
#[cfg(test)]
pub fn percentile(sorted: &[u64], q: f64) -> Option<u64> {
    percentile_rank(sorted.len() as u64, q).map(|i| sorted[i as usize])
}

/// Latency histogram with log-linear buckets: exact below 2048 ns, then
/// 1024 buckets per power of two (at most 0.1 % relative error). Its size
/// is fixed, so recording latencies does not move `peak_rss_mb`.
#[derive(Clone)]
pub struct LatencyHist {
    counts: Vec<u32>,
    n: u64,
}

/// Values below `1 << SUB_BITS` have a bucket each.
const SUB_BITS: u32 = 11;
const HALF: usize = 1 << (SUB_BITS - 1);
/// Buckets up to 2^40 ns (about 18 minutes); longer samples saturate.
const BUCKETS: usize = (40 - SUB_BITS as usize + 2) * HALF;

fn bucket(ns: u64) -> usize {
    if ns < 1 << SUB_BITS {
        return ns as usize;
    }
    let shift = 63 - ns.leading_zeros() - (SUB_BITS - 1);
    ((shift as usize) * HALF + (ns >> shift) as usize).min(BUCKETS - 1)
}

/// The midpoint of bucket `index`'s value range.
fn bucket_value(index: usize) -> f64 {
    if index < 1 << SUB_BITS {
        return index as f64;
    }
    let shift = index / HALF - 1;
    let low = ((index - shift * HALF) as u64) << shift;
    low as f64 + ((1u64 << shift) as f64 - 1.0) / 2.0
}

impl LatencyHist {
    pub fn new() -> Self {
        LatencyHist {
            counts: vec![0; BUCKETS],
            n: 0,
        }
    }

    pub fn record(&mut self, ns: u64) {
        self.n += 1;
        self.counts[bucket(ns)] += 1;
    }

    pub fn len(&self) -> u64 {
        self.n
    }

    pub fn merge(&mut self, other: &LatencyHist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += *b;
        }
        self.n += other.n;
    }

    /// Quantile `q` in nanoseconds, under [`percentile_rank`]'s rule.
    pub fn quantile_ns(&self, q: f64) -> Option<f64> {
        let target = percentile_rank(self.n, q)?;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c as u64;
            if seen > target {
                return Some(bucket_value(i));
            }
        }
        unreachable!("rank {target} beyond {seen} samples")
    }
}

/// Which of `BENCHMARK.json`'s two metric lists a metric belongs to.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    /// Printed by the untraced run (`--trace 0`).
    EndToEnd,
    /// Printed by the traced run (`--trace 1`).
    PerLayer,
}

/// An ordered set of named metrics for one run.
pub struct Metrics {
    kind: Kind,
    entries: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    pub fn new(kind: Kind) -> Self {
        Metrics {
            kind,
            entries: Vec::new(),
        }
    }

    /// Adds a metric. A non-finite value (an empty ratio) is reported as 0.
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        assert!(valid_name(name), "invalid metric name {name:?}");
        assert!(valid_unit(unit), "invalid unit {unit:?} for {name}");
        assert!(
            self.entries.iter().all(|(n, _, _)| n != name),
            "metric {name} added twice"
        );
        let limit = match self.kind {
            Kind::EndToEnd => MAX_END_TO_END,
            Kind::PerLayer => MAX_PER_LAYER,
        };
        assert!(self.entries.len() < limit, "more than {limit} metrics");
        let value = if value.is_finite() { value } else { 0.0 };
        self.entries.push((name.to_string(), value, unit));
    }

    #[cfg(test)]
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.entries.iter().map(|(n, _, _)| n.as_str())
    }

    /// The result line: correctness, transaction counts and every metric.
    pub fn result_line(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let mut out = format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
        );
        for (i, (name, value, unit)) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            write!(
                out,
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            )
            .expect("writing to a String cannot fail");
        }
        out.push_str("}}");
        out
    }
}

/// Minimal JSON string escaping for the host-facts line.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                write!(out, "\\u{:04x}", c as u32).expect("writing to a String cannot fail")
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let samples: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&samples, 0.5), Some(500));
        // p99 of 1000 samples: rank 990, ten samples above it.
        assert_eq!(percentile(&samples, 0.99), Some(990));
        // 999 samples leave only nine above the p99 rank.
        assert_eq!(percentile(&samples[..999], 0.99), None);
        assert_eq!(percentile(&samples[..20], 0.5), Some(10));
        assert_eq!(percentile(&samples[..19], 0.5), None);
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn histogram_quantiles_are_within_a_thousandth() {
        let mut samples: Vec<u64> = (0..5000u64).map(|i| (i * 7919) % 300_001 + 200).collect();
        samples.extend([1 << 41, 5, 2047, 2048, 2049, 4095, 4096]);
        let mut a = LatencyHist::new();
        let mut b = LatencyHist::new();
        for (i, &s) in samples.iter().enumerate() {
            if i % 2 == 0 {
                a.record(s)
            } else {
                b.record(s)
            }
        }
        a.merge(&b);
        samples.sort_unstable();
        assert_eq!(a.len(), samples.len() as u64);
        for q in [0.0, 0.5, 0.9, 0.99] {
            let exact = percentile(&samples, q).unwrap() as f64;
            let got = a.quantile_ns(q).unwrap();
            assert!(
                (got - exact).abs() <= exact / 1000.0,
                "q={q}: {got} vs {exact}"
            );
        }
        assert_eq!(a.quantile_ns(0.999), None);
    }

    #[test]
    fn buckets_are_contiguous_and_monotone() {
        let mut last = 0;
        for ns in 0..100_000u64 {
            let b = bucket(ns);
            assert!(b == last || b == last + 1, "gap at {ns}");
            last = b;
            let mid = bucket_value(b);
            assert!(
                (mid - ns as f64).abs() <= (ns as f64 / 1000.0).max(0.5),
                "{ns} -> {mid}"
            );
        }
    }

    #[test]
    fn names_and_units_follow_the_rules() {
        for ok in ["latency_p50_us", "core.commit.lock_us", "9lives", "a-b.c_d"] {
            assert!(valid_name(ok), "{ok}");
        }
        let long = "x".repeat(65);
        for bad in [
            "",
            "_lead",
            ".lead",
            "has space",
            "slash/no",
            "ümlaut",
            long.as_str(),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
        for ok in ["ms", "1/s", "%", "count", "MiB"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "per second", "seventeen_chars_x"] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }

    #[test]
    #[should_panic(expected = "more than 16 metrics")]
    fn end_to_end_limit_is_enforced() {
        let mut m = Metrics::new(Kind::EndToEnd);
        for i in 0..=MAX_END_TO_END {
            m.put(&format!("m{i}"), 1.0, "s");
        }
    }

    #[test]
    fn per_layer_limit_is_enforced() {
        let mut m = Metrics::new(Kind::PerLayer);
        for i in 0..MAX_PER_LAYER {
            m.put(&format!("m{i}"), 1.0, "count");
        }
        let full = std::panic::catch_unwind(move || m.put("one_more", 1.0, "count"));
        assert!(full.is_err());
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn invalid_name_is_rejected() {
        Metrics::new(Kind::PerLayer).put("bad name", 1.0, "count");
    }

    #[test]
    fn result_line_has_the_expected_shape() {
        let mut m = Metrics::new(Kind::EndToEnd);
        m.put("setup_s", 0.5, "s");
        m.put("commit_per_s", f64::NAN, "1/s");
        assert_eq!(
            m.result_line(true, 3, 0),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}, \
             \"commit_per_s\": {\"value\": 0, \"unit\": \"1/s\"}}}"
        );
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
