//! Property-based tests for workload generation and measurement.

use nbkv_obs::json::{Json, JsonCodec};
use nbkv_workload::{AccessPattern, LatencyRecorder, OpMix, Trace, TraceOp, Zipf};
use proptest::prelude::*;

/// A trace of Set/Get/Delete ops whose keys carry characters that need
/// escaping, or are multi-byte, in JSON.
fn trace_of(ops: &[(u8, u32, usize)]) -> Trace {
    const TAILS: [&str; 7] = ["", "\"", "\\", "\n", "é", "\u{1}", "/"];
    let ops = ops
        .iter()
        .map(|&(kind, n, value_len)| {
            let key = format!("k{n}{}", TAILS[n as usize % TAILS.len()]);
            match kind {
                0 => TraceOp::Set { key, value_len },
                1 => TraceOp::Get { key },
                _ => TraceOp::Delete { key },
            }
        })
        .collect();
    Trace {
        version: 1,
        note: "property test".into(),
        ops,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The Zipf pmf is a probability distribution for any (n, theta).
    #[test]
    fn zipf_pmf_sums_to_one(n in 1usize..2000, theta in 0.0f64..2.5) {
        let z = Zipf::new(n, theta);
        let total: f64 = (0..n).map(|k| z.pmf(k)).sum();
        prop_assert!((total - 1.0).abs() < 1e-9, "sum = {total}");
        for k in 1..n.min(50) {
            prop_assert!(z.pmf(k) <= z.pmf(k - 1) + 1e-12, "pmf must be nonincreasing");
        }
    }

    /// Samples always fall in range.
    #[test]
    fn zipf_samples_in_range(n in 1usize..500, theta in 0.0f64..2.0, seed in any::<u64>()) {
        use rand::SeedableRng;
        let z = Zipf::new(n, theta);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        for _ in 0..100 {
            prop_assert!(z.sample(&mut rng) < n);
        }
    }

    /// Recorder quantiles match a naive sorted-vector implementation.
    #[test]
    fn recorder_quantiles_match_naive(
        samples in prop::collection::vec(0u64..1_000_000, 1..300),
        q in 0.0f64..1.0,
    ) {
        let mut rec = LatencyRecorder::new();
        for &s in &samples {
            rec.record(s);
        }
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        let rank = (q * sorted.len() as f64).ceil() as usize;
        let naive = sorted[rank.saturating_sub(1).min(sorted.len() - 1)];
        prop_assert_eq!(rec.quantile_ns(q), naive);
        let naive_mean =
            (samples.iter().map(|&x| x as u128).sum::<u128>() / samples.len() as u128) as u64;
        prop_assert_eq!(rec.mean_ns(), naive_mean);
    }

    /// Generated traces respect the requested mix and key space, and
    /// survive JSON round trips.
    #[test]
    fn trace_generation_properties(
        keys in 1usize..200,
        value_len in 1usize..4096,
        read_pct in 0u8..=100,
        ops in 1usize..300,
        seed in any::<u64>(),
    ) {
        let t = Trace::generate(
            keys,
            value_len,
            AccessPattern::Zipf(0.99),
            OpMix { read_pct },
            ops,
            seed,
        );
        prop_assert_eq!(t.len(), ops);
        for op in &t.ops {
            prop_assert!(op.key().starts_with("user"), "key shape: {}", op.key());
            if let TraceOp::Set { value_len: vl, .. } = op {
                prop_assert_eq!(*vl, value_len);
            }
        }
        if read_pct == 100 {
            let all_gets = t.ops.iter().all(|o| matches!(o, TraceOp::Get { .. }));
            prop_assert!(all_gets);
        }
        if read_pct == 0 {
            let all_sets = t.ops.iter().all(|o| matches!(o, TraceOp::Set { .. }));
            prop_assert!(all_sets);
        }
        let parsed = Trace::from_json(&t.to_json()).expect("round trip");
        prop_assert_eq!(parsed, t);
    }

    /// Trace files are outside input. Their JSON tree survives render ->
    /// parse in both renderings; every truncation of a trace is rejected;
    /// and a byte flip anywhere yields an error or a trace, never a panic.
    #[test]
    fn trace_json_round_trips_and_damage_never_panics(
        ops in prop::collection::vec((0u8..3, any::<u32>(), 0usize..100_000), 0..40),
        cut in 0.0f64..1.0,
        flip_at in 0.0f64..1.0,
        flip in 1u8..=255,
    ) {
        let t = trace_of(&ops);
        let j = t.to_json_value();
        prop_assert_eq!(Json::parse(&j.render_compact()), Ok(j.clone()));
        prop_assert_eq!(Json::parse(&j.render_pretty()), Ok(j));
        let text = t.to_json();
        prop_assert_eq!(Trace::from_json(&text), Ok(t));

        let cut = (text.len() as f64 * cut) as usize;
        let truncated = String::from_utf8_lossy(&text.as_bytes()[..cut]);
        prop_assert!(Json::parse(&truncated).is_err(), "{truncated}");
        prop_assert!(Trace::from_json(&truncated).is_err());

        let mut bytes = text.into_bytes();
        let at = (bytes.len() as f64 * flip_at) as usize;
        bytes[at] ^= flip;
        let flipped = String::from_utf8_lossy(&bytes);
        let _ = Json::parse(&flipped);
        let _ = Trace::from_json(&flipped);
    }
}
