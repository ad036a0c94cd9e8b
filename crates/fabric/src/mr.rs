//! Memory-registration cost model.
//!
//! RDMA NICs can only DMA to/from *registered* (pinned, IOMMU-mapped)
//! memory, and `ibv_reg_mr` is expensive — tens of microseconds for
//! megabyte buffers. Real RDMA runtimes therefore cache registrations.
//! The paper's `bset`/`bget` exist precisely because of this cost: they
//! copy into pre-registered bounce buffers so the *user's* buffer never
//! needs registering, at the price of a memcpy.
//!
//! [`MrCache`] charges the registration cost (in virtual time) the first
//! time a buffer region is seen and is free on subsequent hits.
//!
//! Region identity is a *content fingerprint* (length + a word-wise hash
//! of the bytes) rather than the raw address: real registration caches key on
//! address ranges, but addresses are allocator state and would make
//! otherwise-identical simulations diverge. A reused buffer hits the
//! cache either way; the fingerprint keeps runs bit-reproducible.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use bytes::Bytes;
use nbkv_simrt::Sim;

use crate::profiles::FabricProfile;

/// Content hash of a registered buffer: a multiply-rotate over 8-byte
/// words (the tail zero-padded), seeded with the length. Each word step
/// is a bijection of the running state, so buffers of one length that
/// differ in a single word never collide.
fn fingerprint(buf: &[u8]) -> u64 {
    const K: u64 = 0x9e37_79b9_7f4a_7c15;
    let mix = |h: u64, w: u64| (h ^ w).wrapping_mul(K).rotate_left(29);
    let mut words = buf.chunks_exact(8);
    let mut h = (buf.len() as u64).wrapping_mul(K);
    for w in &mut words {
        h = mix(h, u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
    }
    let tail = words.remainder();
    if !tail.is_empty() {
        let mut last = [0u8; 8];
        last[..tail.len()].copy_from_slice(tail);
        h = mix(h, u64::from_le_bytes(last));
    }
    h
}

/// Opaque handle to a registered region (an `lkey` in verbs terms).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MrKey(pub u32);

/// Registration-cache counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MrStats {
    /// Cache hits (no cost charged).
    pub hits: u64,
    /// Cache misses (full registration cost charged).
    pub misses: u64,
    /// Bytes currently registered.
    pub registered_bytes: u64,
}

struct MrInner {
    regions: HashMap<(u64, usize), MrKey>,
    next_key: u32,
    stats: MrStats,
}

/// Registration cache for one endpoint.
#[derive(Clone)]
pub struct MrCache {
    sim: Sim,
    profile: FabricProfile,
    inner: Rc<RefCell<MrInner>>,
}

impl MrCache {
    /// Create an empty cache charging costs from `profile`.
    pub fn new(sim: Sim, profile: FabricProfile) -> Self {
        MrCache {
            sim,
            profile,
            inner: Rc::new(RefCell::new(MrInner {
                regions: HashMap::new(),
                next_key: 1,
                stats: MrStats::default(),
            })),
        }
    }

    /// Ensure the buffer's region is registered, charging the registration
    /// cost in virtual time on a miss.
    pub async fn ensure_registered(&self, buf: &Bytes) -> MrKey {
        let region = (fingerprint(buf), buf.len());
        let cached = self.inner.borrow().regions.get(&region).copied();
        if let Some(key) = cached {
            self.inner.borrow_mut().stats.hits += 1;
            return key;
        }
        let cost = self.profile.reg_cost(buf.len());
        if !cost.is_zero() {
            self.sim.sleep(cost).await;
        }
        let mut inner = self.inner.borrow_mut();
        // Re-check after the registration sleep: a concurrent task may have
        // registered the same region while we slept. Without this, both
        // tasks would insert distinct keys and double-count the miss and
        // the registered bytes.
        if let Some(key) = inner.regions.get(&region).copied() {
            inner.stats.hits += 1;
            return key;
        }
        let key = MrKey(inner.next_key);
        inner.next_key += 1;
        inner.regions.insert(region, key);
        inner.stats.misses += 1;
        inner.stats.registered_bytes += buf.len() as u64;
        key
    }

    /// Drop a region from the cache (models `ibv_dereg_mr`). Returns true
    /// if the region was registered.
    pub fn deregister(&self, buf: &Bytes) -> bool {
        let region = (fingerprint(buf), buf.len());
        let mut inner = self.inner.borrow_mut();
        let removed = inner.regions.remove(&region).is_some();
        if removed {
            inner.stats.registered_bytes -= buf.len() as u64;
        }
        removed
    }

    /// Counter snapshot.
    pub fn stats(&self) -> MrStats {
        self.inner.borrow().stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles::fdr_rdma;
    use std::collections::HashSet;

    /// Buffers that differ from a base in one byte, at every position and
    /// with several byte values, or that are prefixes of one buffer (they
    /// differ in length only): no two fingerprints collide.
    #[test]
    fn fingerprint_separates_one_byte_and_length_only_differences() {
        let base: Vec<u8> = (0..1027u32).map(|i| (i * 31 % 251) as u8).collect();
        let mut seen = HashSet::from([fingerprint(&base)]);
        for pos in 0..base.len() {
            for delta in [1u8, 0x80, 0xff] {
                let mut b = base.clone();
                b[pos] ^= delta;
                assert!(seen.insert(fingerprint(&b)), "byte {pos} ^ {delta:#x}");
            }
        }
        for content in [base.clone(), vec![0u8; base.len()]] {
            let prefixes: HashSet<u64> = (0..=content.len())
                .map(|n| fingerprint(&content[..n]))
                .collect();
            assert_eq!(prefixes.len(), content.len() + 1, "length-only collision");
        }
    }

    #[test]
    fn first_registration_charges_miss() {
        let sim = Sim::new();
        let sim2 = sim.clone();
        sim.run_until(async move {
            let cache = MrCache::new(sim2.clone(), fdr_rdma());
            let buf = Bytes::from(vec![0u8; 1 << 20]);
            cache.ensure_registered(&buf).await;
            let elapsed = sim2.now().since_start();
            assert_eq!(elapsed, fdr_rdma().reg_cost(1 << 20));
            assert_eq!(cache.stats().misses, 1);
        });
    }

    #[test]
    fn repeat_registration_is_free() {
        let sim = Sim::new();
        let sim2 = sim.clone();
        sim.run_until(async move {
            let cache = MrCache::new(sim2.clone(), fdr_rdma());
            let buf = Bytes::from(vec![0u8; 4096]);
            let k1 = cache.ensure_registered(&buf).await;
            let after_first = sim2.now();
            let k2 = cache.ensure_registered(&buf).await;
            assert_eq!(k1, k2);
            assert_eq!(sim2.now(), after_first, "hit must be free");
            assert_eq!(
                cache.stats(),
                MrStats {
                    hits: 1,
                    misses: 1,
                    registered_bytes: 4096
                }
            );
        });
    }

    #[test]
    fn clones_of_same_allocation_share_registration() {
        let sim = Sim::new();
        let sim2 = sim.clone();
        sim.run_until(async move {
            let cache = MrCache::new(sim2.clone(), fdr_rdma());
            let buf = Bytes::from(vec![0u8; 4096]);
            let alias = buf.clone();
            let k1 = cache.ensure_registered(&buf).await;
            let k2 = cache.ensure_registered(&alias).await;
            assert_eq!(k1, k2);
            assert_eq!(cache.stats().misses, 1);
        });
    }

    #[test]
    fn different_buffers_register_separately() {
        let sim = Sim::new();
        let sim2 = sim.clone();
        sim.run_until(async move {
            let cache = MrCache::new(sim2.clone(), fdr_rdma());
            let a = Bytes::from(vec![1u8; 64]);
            let b = Bytes::from(vec![2u8; 64]);
            let ka = cache.ensure_registered(&a).await;
            let kb = cache.ensure_registered(&b).await;
            assert_ne!(ka, kb);
            assert_eq!(cache.stats().misses, 2);
        });
    }

    #[test]
    fn identical_content_models_buffer_reuse() {
        // Two allocations with identical bytes count as one region — the
        // deterministic stand-in for allocator address reuse.
        let sim = Sim::new();
        let sim2 = sim.clone();
        sim.run_until(async move {
            let cache = MrCache::new(sim2.clone(), fdr_rdma());
            let a = Bytes::from(vec![9u8; 256]);
            let b = Bytes::from(vec![9u8; 256]);
            let ka = cache.ensure_registered(&a).await;
            let kb = cache.ensure_registered(&b).await;
            assert_eq!(ka, kb);
            assert_eq!(
                cache.stats(),
                MrStats {
                    hits: 1,
                    misses: 1,
                    registered_bytes: 256
                }
            );
        });
    }

    #[test]
    fn concurrent_registration_of_same_region_is_single() {
        // TOCTOU regression: two tasks race to register the same region.
        // Both pay the sleep (they both started before either finished),
        // but only one may insert — same key, one miss, bytes counted once.
        let sim = Sim::new();
        let sim2 = sim.clone();
        sim.run_until(async move {
            let cache = MrCache::new(sim2.clone(), fdr_rdma());
            let buf = Bytes::from(vec![3u8; 8192]);
            let c1 = cache.clone();
            let b1 = buf.clone();
            let t1 = sim2.spawn(async move { c1.ensure_registered(&b1).await });
            let c2 = cache.clone();
            let b2 = buf.clone();
            let t2 = sim2.spawn(async move { c2.ensure_registered(&b2).await });
            let (k1, k2) = (t1.await, t2.await);
            assert_eq!(k1, k2, "racing registrations must converge on one key");
            let s = cache.stats();
            assert_eq!(s.misses, 1, "only one miss may be charged");
            assert_eq!(s.hits, 1, "the loser re-checks and records a hit");
            assert_eq!(s.registered_bytes, 8192, "bytes counted once");
            // The region is genuinely cached: a third call is a plain hit.
            let k3 = cache.ensure_registered(&buf).await;
            assert_eq!(k3, k1);
            assert_eq!(cache.stats().hits, 2);
        });
    }

    #[test]
    fn deregister_forces_recharge() {
        let sim = Sim::new();
        let sim2 = sim.clone();
        sim.run_until(async move {
            let cache = MrCache::new(sim2.clone(), fdr_rdma());
            let buf = Bytes::from(vec![0u8; 64]);
            cache.ensure_registered(&buf).await;
            assert!(cache.deregister(&buf));
            assert!(!cache.deregister(&buf));
            cache.ensure_registered(&buf).await;
            assert_eq!(cache.stats().misses, 2);
        });
    }
}
