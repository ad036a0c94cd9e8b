//! The server half of the one-sided GET path: a descriptor table clients
//! read *without involving the server CPU*, pointing into the registered
//! slab pages themselves.
//!
//! The paper's client runtime sits on a one-sided RDMA communication
//! engine; this module closes that gap. Following HiStore and "Hash Table
//! Design for RDMA" (PAPERS.md), the table holds no value bytes: each
//! value exists once, in its slab chunk. The slab pool's registered
//! [`RemoteWindow`] is laid out as
//!
//! ```text
//! [ slab pages: max_pages x page_size ][ table: buckets x BUCKET_SLOTS x SLOT_LEN ]
//! ```
//!
//! A **slot** (24 B) names one published item: its version word, a 32-bit
//! key fingerprint, the chunk's window offset and the value length. A
//! store with an index appends a [`VERSION_WORD`] after every item's value
//! in its chunk. A remote reader chains two RDMA reads — the whole
//! bucket, then the item chunk — and returns the item only if
//! [`Descriptor::accept`] passes and the full key stored in the item
//! equals the key it asked for.
//!
//! **Slots are hints.** The store only ever publishes; it never
//! invalidates a slot. Coherence comes from the slab rule that a chunk
//! holding no live item never parses (see [`crate::server::slab`]): after
//! a delete, an eviction or a flush to SSD the chunk's lengths are zero,
//! and a reused chunk carries another version word. A stale slot costs its
//! reader one fallback to RPC and can never yield a wrong value.
//!
//! The table is sized from the slab budget: one slot per KiB of pages
//! ([`SLOT_BUDGET_BYTES`]), rounded up to a power-of-two bucket count. A
//! publish into a full bucket takes a slot whose chunk no longer passes
//! [`Descriptor::accept`], and is otherwise skipped (the key stays
//! RPC-only).
//!
//! [`VERSION_WORD`]: crate::server::slab::VERSION_WORD

use std::cell::Cell;

use bytes::Bytes;
use nbkv_fabric::RemoteWindow;

use crate::proto::LeaseGeometry;
use crate::server::slab::{parse_versioned_item, VersionedItem, ITEM_HEADER, VERSION_WORD};

/// Bytes per slot: version(8) fingerprint(4) offset/8(4) len(4) pad(4).
pub const SLOT_LEN: usize = 24;

/// Slots per bucket; a client fetches a whole bucket with one RDMA read.
pub const BUCKET_SLOTS: usize = 8;

/// Bytes per bucket (the size of the first RDMA read).
pub const BUCKET_LEN: usize = SLOT_LEN * BUCKET_SLOTS;

/// Slab-page bytes per descriptor slot: the table holds one slot per KiB
/// of budget, enough for every item at an average item size of 1 KiB.
pub const SLOT_BUDGET_BYTES: usize = 1 << 10;

/// Bucket count for `pages_bytes` of slab pages.
pub fn buckets_for(pages_bytes: usize) -> usize {
    (pages_bytes / SLOT_BUDGET_BYTES / BUCKET_SLOTS)
        .max(1)
        .next_power_of_two()
}

/// Bytes of descriptor table for `pages_bytes` of slab pages.
pub fn table_bytes(pages_bytes: usize) -> usize {
    buckets_for(pages_bytes) * BUCKET_LEN
}

/// FNV-1a fingerprint of a key, length-mixed. Shared by the server's
/// publish path and the client's lookup: the low bits pick the bucket,
/// [`slot_fingerprint`] the high bits.
pub fn key_fingerprint(key: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET ^ (key.len() as u64).wrapping_mul(PRIME);
    for &b in key {
        h ^= b as u64;
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// The 32 fingerprint bits a slot stores (independent of the bucket bits).
pub fn slot_fingerprint(fp: u64) -> u32 {
    (fp >> 32) as u32
}

/// A decoded slot (what the client's first RDMA read sees).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Descriptor {
    /// The item's version word; 0 marks an empty slot.
    pub version: u64,
    /// [`slot_fingerprint`] of the published key.
    pub fingerprint: u32,
    /// Window offset of the item's chunk.
    pub offset: u64,
    /// Published value length.
    pub len: u32,
}

impl Descriptor {
    /// Encode into a slot image.
    pub fn encode(&self) -> [u8; SLOT_LEN] {
        let mut b = [0u8; SLOT_LEN];
        b[0..8].copy_from_slice(&self.version.to_be_bytes());
        b[8..12].copy_from_slice(&self.fingerprint.to_be_bytes());
        b[12..16].copy_from_slice(&((self.offset / 8) as u32).to_be_bytes());
        b[16..20].copy_from_slice(&self.len.to_be_bytes());
        b
    }

    /// Decode a slot image (`buf` must hold at least `SLOT_LEN` bytes).
    pub fn decode(buf: &[u8]) -> Option<Descriptor> {
        let buf = buf.get(..SLOT_LEN)?;
        let u32_at = |i: usize| u32::from_be_bytes(buf[i..i + 4].try_into().unwrap());
        Some(Descriptor {
            version: u64::from_be_bytes(buf[0..8].try_into().unwrap()),
            fingerprint: u32_at(8),
            offset: u32_at(12) as u64 * 8,
            len: u32_at(16),
        })
    }

    /// True if the slot is in use and advertises the key fingerprint `fp`.
    pub fn advertises(&self, fp: u64) -> bool {
        self.version != 0 && self.fingerprint == slot_fingerprint(fp)
    }

    /// Bytes a reader fetches at [`offset`](Self::offset) for a key of
    /// `key_len` bytes: header, key, value, version word.
    pub fn image_len(&self, key_len: usize) -> usize {
        ITEM_HEADER + key_len + self.len as usize + VERSION_WORD
    }

    /// The item in `image`, the bytes read at this slot's chunk, if the
    /// chunk still holds what the slot advertises: exactly one item and
    /// its version word, this slot's version and value length, and no
    /// expiry (a remote reader cannot check a TTL). A freed chunk fails on
    /// its zeroed lengths, a reused one on the version word. Readers and
    /// the publisher share this test; a reader also compares the key.
    pub fn accept(&self, image: &Bytes) -> Option<VersionedItem> {
        parse_versioned_item(image).filter(|item| {
            item.version == self.version
                && item.value.len() == self.len as usize
                && item.expire_at_ns == 0
        })
    }
}

/// Publish-side counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OneSidedStats {
    /// Items (re)published.
    pub published: u64,
    /// Publishes skipped because every slot of the key's bucket still
    /// advertises a chunk that passes [`Descriptor::accept`].
    pub overflowed: u64,
}

/// The server's descriptor table, living in the slab pool's window.
pub struct OneSidedIndex {
    window: RemoteWindow,
    table_offset: usize,
    buckets: usize,
    published: Cell<u64>,
    overflowed: Cell<u64>,
}

impl OneSidedIndex {
    /// The table over `window`, whose first `table_offset` bytes are slab
    /// pages (the table itself follows them, still zeroed).
    pub fn new(window: RemoteWindow, table_offset: usize) -> Self {
        let buckets = buckets_for(table_offset);
        assert!(
            window.len() >= table_offset + buckets * BUCKET_LEN,
            "window has no room for the descriptor table"
        );
        assert!(table_offset / 8 <= u32::MAX as usize, "offsets fit a slot");
        OneSidedIndex {
            window,
            table_offset,
            buckets,
            published: Cell::new(0),
            overflowed: Cell::new(0),
        }
    }

    /// The registered window (cloned handles share the same memory).
    pub fn window(&self) -> RemoteWindow {
        self.window.clone()
    }

    /// Lease geometry advertised through the wire handshake.
    pub fn lease(&self) -> LeaseGeometry {
        LeaseGeometry {
            buckets: self.buckets as u32,
            bucket_slots: BUCKET_SLOTS as u32,
            table_offset: self.table_offset as u64,
            slot_len: SLOT_LEN as u32,
        }
    }

    /// Counter snapshot.
    pub fn stats(&self) -> OneSidedStats {
        OneSidedStats {
            published: self.published.get(),
            overflowed: self.overflowed.get(),
        }
    }

    /// `fp`'s bucket: its window offset, its decoded slots, and the index
    /// of the slot advertising `fp`, if any.
    fn lookup(&self, fp: u64) -> (usize, [Descriptor; BUCKET_SLOTS], Option<usize>) {
        let off = self.table_offset + (fp % self.buckets as u64) as usize * BUCKET_LEN;
        let mut slots = [Descriptor::default(); BUCKET_SLOTS];
        self.window.read_with(off, BUCKET_LEN, |b| {
            for (d, raw) in slots.iter_mut().zip(b.chunks_exact(SLOT_LEN)) {
                *d = Descriptor::decode(raw).expect("slot-sized chunk");
            }
        });
        let owned = slots.iter().position(|d| d.advertises(fp));
        (off, slots, owned)
    }

    fn write_slot(&self, bucket_off: usize, slot: usize, desc: &Descriptor) {
        self.window
            .poke(bucket_off + slot * SLOT_LEN, &desc.encode());
    }

    /// True if `desc`'s chunk still holds the item it advertises, judged
    /// as a remote reader would (the key it holds stands in for the key
    /// asked for).
    fn validates(&self, desc: &Descriptor) -> bool {
        let off = desc.offset as usize;
        let Ok(head) = self.window.try_peek(off, 4) else {
            return false;
        };
        let key_len = u32::from_be_bytes(head[..].try_into().expect("4 bytes")) as usize;
        self.window
            .try_peek(off, desc.image_len(key_len))
            .is_ok_and(|image| desc.accept(&image).is_some())
    }

    /// Publish `key`'s item: the chunk at window `offset` holds it with a
    /// `value_len`-byte value and the version word `version`. Reuses the
    /// key's slot, else an empty one, else one whose chunk no longer
    /// validates.
    pub fn publish(&self, key: &[u8], offset: usize, value_len: usize, version: u64) {
        debug_assert!(version != 0, "version 0 marks an empty slot");
        let fp = key_fingerprint(key);
        let (off, slots, owned) = self.lookup(fp);
        let slot = owned
            .or_else(|| slots.iter().position(|d| d.version == 0))
            .or_else(|| slots.iter().position(|d| !self.validates(d)));
        let Some(slot) = slot else {
            self.overflowed.set(self.overflowed.get() + 1);
            return;
        };
        let desc = Descriptor {
            version,
            fingerprint: slot_fingerprint(fp),
            offset: offset as u64,
            len: value_len as u32,
        };
        self.write_slot(off, slot, &desc);
        self.published.set(self.published.get() + 1);
    }

    /// Empty every slot (server crash: remote readers must stop trusting
    /// the table).
    pub fn clear(&self) {
        self.window
            .write_with(self.table_offset, self.buckets * BUCKET_LEN, |t| t.fill(0));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::slab::write_item_bytes;

    /// A table over 64 KiB of "pages": 64 slots in 8 buckets.
    fn idx() -> OneSidedIndex {
        let pages = 64 << 10;
        OneSidedIndex::new(RemoteWindow::new(pages + table_bytes(pages)), pages)
    }

    /// Write `key`'s item with version word `version` into the chunk at
    /// `offset`, then publish it, as the store does.
    fn put(idx: &OneSidedIndex, key: &[u8], offset: usize, value: &[u8], version: u64) {
        let len = ITEM_HEADER + key.len() + value.len();
        idx.window.write_with(offset, len + VERSION_WORD, |dst| {
            write_item_bytes(dst, key, value, 0, 0);
            dst[len..].copy_from_slice(&version.to_be_bytes());
        });
        idx.publish(key, offset, value.len(), version);
    }

    /// Free the chunk at `offset` the way the slab pool does.
    fn free(idx: &OneSidedIndex, offset: usize) {
        idx.window.poke(offset, &[0; 8]);
    }

    fn slot_of(idx: &OneSidedIndex, key: &[u8]) -> Option<Descriptor> {
        let (_, slots, owned) = idx.lookup(key_fingerprint(key));
        owned.map(|s| slots[s])
    }

    /// What a reader of `key` would fetch at its slot.
    fn image(idx: &OneSidedIndex, key: &[u8]) -> Bytes {
        let d = slot_of(idx, key).expect("published");
        idx.window.peek(d.offset as usize, d.image_len(key.len()))
    }

    #[test]
    fn table_is_sized_from_the_budget() {
        assert_eq!(buckets_for(64 << 20), 8192);
        assert_eq!(table_bytes(64 << 20), 8192 * BUCKET_LEN);
        assert_eq!(buckets_for(0), 1);
        assert!(buckets_for(3 << 20).is_power_of_two());
    }

    #[test]
    fn publish_points_at_the_chunk() {
        let idx = idx();
        put(&idx, b"k1", 4096, b"hello", 42);
        let d = slot_of(&idx, b"k1").expect("published");
        assert_eq!(d.version, 42);
        assert_eq!(d.offset, 4096);
        assert_eq!(d.len, 5);
        assert_eq!(idx.stats().published, 1);
        // Republishing reuses the key's slot.
        put(&idx, b"k1", 8192, b"goodbye", 43);
        let d = slot_of(&idx, b"k1").unwrap();
        assert_eq!((d.version, d.offset, d.len), (43, 8192, 7));
        let (_, slots, _) = idx.lookup(key_fingerprint(b"k1"));
        assert_eq!(
            slots.iter().filter(|d| d.version != 0).count(),
            1,
            "one slot per key"
        );
    }

    #[test]
    fn accept_takes_only_the_live_unexpired_item_of_the_slots_version() {
        let idx = idx();
        put(&idx, b"k", 256, b"value", 7);
        let d = slot_of(&idx, b"k").unwrap();
        let item = d.accept(&image(&idx, b"k")).expect("live item");
        assert_eq!((&item.key[..], &item.value[..]), (&b"k"[..], &b"value"[..]));
        // Another version or value length: the slot is not this item's.
        let other = Descriptor { version: 8, ..d };
        assert!(other.accept(&image(&idx, b"k")).is_none());
        let short = Descriptor { len: 4, ..d };
        assert!(short
            .accept(&idx.window.peek(256, short.image_len(1)))
            .is_none());
        // A TTL in the header: remote readers cannot check it.
        idx.window.poke(256 + 12, &1u64.to_be_bytes());
        assert!(d.accept(&image(&idx, b"k")).is_none());
        idx.window.poke(256 + 12, &0u64.to_be_bytes());
        // Freed: the zeroed lengths no longer parse.
        free(&idx, 256);
        assert!(d.accept(&image(&idx, b"k")).is_none());
    }

    #[test]
    fn a_freed_empty_item_never_validates() {
        let idx = idx();
        // Key and value empty: the lengths are already zero, so only the
        // zero-key-length rule tells a freed chunk from a live one.
        put(&idx, b"", 512, b"", 3);
        let d = slot_of(&idx, b"").unwrap();
        assert!(d.accept(&image(&idx, b"")).is_none());
    }

    #[test]
    fn full_buckets_reclaim_dead_slots_then_overflow() {
        let idx = idx();
        // Keys that all land in bucket 0.
        let keys: Vec<Vec<u8>> = (0u32..)
            .map(|i| format!("key-{i}").into_bytes())
            .filter(|k| key_fingerprint(k).is_multiple_of(idx.buckets as u64))
            .take(BUCKET_SLOTS + 1)
            .collect();
        for (i, k) in keys[..BUCKET_SLOTS].iter().enumerate() {
            put(&idx, k, i * 256, b"v", i as u64 + 1);
        }
        let extra = &keys[BUCKET_SLOTS];
        put(&idx, extra, 4096, b"v", 100);
        assert_eq!(idx.stats().overflowed, 1, "every slot still validates");
        assert!(slot_of(&idx, extra).is_none());
        // keys[3] is deleted (or flushed, or evicted): its chunk is freed.
        free(&idx, 3 * 256);
        put(&idx, extra, 4096, b"v", 101);
        assert_eq!(slot_of(&idx, extra).unwrap().version, 101);
        assert!(slot_of(&idx, &keys[3]).is_none(), "the dead slot was taken");
        for k in keys[..BUCKET_SLOTS].iter().filter(|k| *k != &keys[3]) {
            assert!(slot_of(&idx, k).is_some(), "live slots are kept");
        }
        assert_eq!(idx.stats().overflowed, 1);
    }

    #[test]
    fn clear_empties_every_slot() {
        let idx = idx();
        put(&idx, b"a", 0, b"1", 1);
        put(&idx, b"b", 256, b"2", 2);
        idx.clear();
        assert!(slot_of(&idx, b"a").is_none());
        assert!(slot_of(&idx, b"b").is_none());
    }

    #[test]
    fn lease_matches_layout() {
        let idx = idx();
        let lease = idx.lease();
        assert_eq!(lease.buckets, 8);
        assert_eq!(lease.bucket_slots, BUCKET_SLOTS as u32);
        assert_eq!(lease.slot_len, SLOT_LEN as u32);
        assert_eq!(lease.table_offset, 64 << 10);
        assert_eq!(
            idx.window().len(),
            lease.table_offset as usize
                + (lease.buckets * lease.bucket_slots * lease.slot_len) as usize
        );
    }

    #[test]
    fn fingerprint_is_length_mixed() {
        assert_ne!(key_fingerprint(b"a"), key_fingerprint(b"ab"));
        assert_ne!(key_fingerprint(b""), key_fingerprint(b"\0"));
    }

    #[test]
    fn descriptor_round_trips() {
        let d = Descriptor {
            version: 7,
            fingerprint: 0xdead_beef,
            offset: 1 << 30,
            len: 32 << 10,
        };
        assert_eq!(Descriptor::decode(&d.encode()), Some(d));
        assert_eq!(Descriptor::decode(&[0u8; SLOT_LEN - 1]), None);
    }
}
