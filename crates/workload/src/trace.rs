//! Workload traces: record an operation sequence once, replay it
//! bit-identically against any design.
//!
//! Re-seeding the generator gives *statistically* identical workloads;
//! traces give *literally* identical ones, which is the stronger
//! methodology when comparing designs (and lets externally-captured
//! workloads — e.g. converted memcached logs — drive the simulator).

use nbkv_obs::json::{JsonCodec, JsonError};

use crate::keygen::{AccessPattern, KeyChooser, KeySpace};
use crate::mix::{OpKind, OpMix};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One traced operation. Keys are strings (traces are human-auditable
/// JSON); value contents are synthesized at replay time from the pool.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceOp {
    /// Store `value_len` bytes under `key`.
    Set {
        /// Key string.
        key: String,
        /// Value length in bytes.
        value_len: usize,
    },
    /// Fetch `key`.
    Get {
        /// Key string.
        key: String,
    },
    /// Remove `key`.
    Delete {
        /// Key string.
        key: String,
    },
}

impl TraceOp {
    /// The operation's key.
    pub fn key(&self) -> &str {
        match self {
            TraceOp::Set { key, .. } | TraceOp::Get { key } | TraceOp::Delete { key } => key,
        }
    }
}

// Externally tagged: `{"Set":{"key":"k","value_len":10}}`.
nbkv_obs::json_codec!(enum TraceOp {
    Set { key, value_len },
    Get { key },
    Delete { key },
});

/// A recorded operation sequence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    /// Schema version for forward compatibility.
    pub version: u32,
    /// Human note (what generated this trace).
    pub note: String,
    /// The operations, in issue order.
    pub ops: Vec<TraceOp>,
}

nbkv_obs::json_codec!(Trace { version, note, ops });

impl Trace {
    /// Generate a trace with the same streams a generated workload run
    /// would use: `keys` keys, `pattern` access skew, `mix` op mix,
    /// `value_len`-byte sets.
    pub fn generate(
        keys: usize,
        value_len: usize,
        pattern: AccessPattern,
        mix: OpMix,
        ops: usize,
        seed: u64,
    ) -> Trace {
        let mut chooser = KeyChooser::new(KeySpace::new(keys), pattern, seed);
        let mut mix_rng = StdRng::seed_from_u64(seed ^ 0x9E37_79B9);
        let ops = (0..ops)
            .map(|_| {
                let key = String::from_utf8_lossy(&chooser.next_key()).into_owned();
                match mix.choose(&mut mix_rng) {
                    OpKind::Read => TraceOp::Get { key },
                    OpKind::Write => TraceOp::Set { key, value_len },
                }
            })
            .collect();
        Trace {
            version: 1,
            note: format!(
                "generated: {keys} keys, {value_len}B values, {} mix, seed {seed}",
                mix.label()
            ),
            ops,
        }
    }

    /// Serialize to compact JSON.
    pub fn to_json(&self) -> String {
        self.to_json_value().render_compact()
    }

    /// Parse from JSON.
    pub fn from_json(json: &str) -> Result<Trace, JsonError> {
        Trace::from_json_str(json)
    }

    /// Write to a file.
    pub fn save(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }

    /// Read from a file.
    pub fn load(path: &std::path::Path) -> std::io::Result<Trace> {
        let json = std::fs::read_to_string(path)?;
        Trace::from_json(&json).map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }

    /// Number of operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True if the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = Trace::generate(
            100,
            1024,
            AccessPattern::Zipf(0.99),
            OpMix::WRITE_HEAVY,
            200,
            7,
        );
        let b = Trace::generate(
            100,
            1024,
            AccessPattern::Zipf(0.99),
            OpMix::WRITE_HEAVY,
            200,
            7,
        );
        assert_eq!(a, b);
        let c = Trace::generate(
            100,
            1024,
            AccessPattern::Zipf(0.99),
            OpMix::WRITE_HEAVY,
            200,
            8,
        );
        assert_ne!(a.ops, c.ops);
    }

    #[test]
    fn json_round_trip() {
        let t = Trace {
            version: 1,
            note: "test".into(),
            ops: vec![
                TraceOp::Set {
                    key: "a".into(),
                    value_len: 10,
                },
                TraceOp::Get { key: "a".into() },
                TraceOp::Delete { key: "a".into() },
            ],
        };
        let parsed = Trace::from_json(&t.to_json()).unwrap();
        assert_eq!(parsed, t);
    }

    #[test]
    fn file_round_trip() {
        let t = Trace::generate(10, 64, AccessPattern::Uniform, OpMix::READ_ONLY, 30, 1);
        let dir = std::env::temp_dir().join("nbkv-trace-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.json");
        t.save(&path).unwrap();
        assert_eq!(Trace::load(&path).unwrap(), t);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn generated_mix_matches_spec() {
        let t = Trace::generate(50, 128, AccessPattern::Uniform, OpMix::WRITE_HEAVY, 4000, 3);
        let writes = t
            .ops
            .iter()
            .filter(|o| matches!(o, TraceOp::Set { .. }))
            .count();
        assert!((1600..=2400).contains(&writes), "{writes} writes of 4000");
        assert_eq!(t.len(), 4000);
        assert!(!t.is_empty());
    }

    /// The on-disk format is pinned: traces written by earlier builds
    /// must keep loading, and new ones must come out byte-identical.
    #[test]
    fn json_format_is_pinned() {
        let t = Trace {
            version: 1,
            note: "pinned \"fmt\"\n".into(),
            ops: vec![
                TraceOp::Set {
                    key: "user000000000001".into(),
                    value_len: 1024,
                },
                TraceOp::Get {
                    key: "user000000000001".into(),
                },
                TraceOp::Delete {
                    key: "k\\é".into()
                },
            ],
        };
        let pinned = r#"{"version":1,"note":"pinned \"fmt\"\n","ops":[{"Set":{"key":"user000000000001","value_len":1024}},{"Get":{"key":"user000000000001"}},{"Delete":{"key":"k\\é"}}]}"#;
        assert_eq!(t.to_json(), pinned);
        assert_eq!(Trace::from_json(pinned).unwrap(), t);
    }

    #[test]
    fn bad_json_is_an_error() {
        let ok = r#"{"version":1,"note":"","ops":[{"Get":{"key":"a"}}]}"#;
        assert!(Trace::from_json(ok).is_ok());
        for bad in [
            "not json",
            "{\"version\":1}",
            // Trailing data after a complete trace.
            r#"{"version":1,"note":"","ops":[]} x"#,
            // Unterminated string.
            r#"{"version":1,"note":"open"#,
            // Bad escape.
            r#"{"version":1,"note":"\q","ops":[]}"#,
            // `version` does not fit a u32.
            r#"{"version":4294967296,"note":"","ops":[]}"#,
            // Unknown op tag.
            r#"{"version":1,"note":"","ops":[{"Put":{"key":"a"}}]}"#,
        ] {
            assert!(Trace::from_json(bad).is_err(), "{bad}");
        }
    }
}
