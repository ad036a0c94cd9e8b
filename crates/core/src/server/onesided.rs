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
//! key fingerprint, the chunk's window offset, the value length and an
//! in-RAM bit. A store with an index appends a [`VERSION_WORD`] after
//! every item's value in its chunk. A remote reader chains two RDMA reads
//! — the whole bucket, then the item chunk — and accepts the item only if
//! its version word equals the slot's, its lengths match the slot and the
//! key, and the full key stored in the item equals the key it asked for.
//! A fingerprint collision, a chunk freed and reused by another key or
//! class, or a page flushed to SSD therefore never yields another key's
//! bytes: everything that fails validation falls back to RPC.
//!
//! The table is sized from the slab budget: one slot per KiB of pages
//! ([`SLOT_BUDGET_BYTES`]), rounded up to a power-of-two bucket count. A
//! publish into a full bucket takes an SSD-marked slot if there is one,
//! and is otherwise skipped (the key stays RPC-only).
//!
//! The store keeps slots coherent: a set or promotion publishes, delete,
//! expiry, eviction and data loss invalidate, and a flush to SSD clears
//! the in-RAM bit (fingerprint kept, so clients count SSD fallbacks apart
//! from misses).
//!
//! [`VERSION_WORD`]: crate::server::slab::VERSION_WORD

use std::cell::Cell;

use nbkv_fabric::RemoteWindow;

use crate::proto::LeaseGeometry;

/// Bytes per slot: version(8) fingerprint(4) offset/8(4) len(4) in_ram(1)
/// pad(3).
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
    /// True while the item is in its slab chunk; cleared when a flush
    /// moves it to SSD.
    pub in_ram: bool,
}

impl Descriptor {
    /// Encode into a slot image.
    pub fn encode(&self) -> [u8; SLOT_LEN] {
        let mut b = [0u8; SLOT_LEN];
        b[0..8].copy_from_slice(&self.version.to_be_bytes());
        b[8..12].copy_from_slice(&self.fingerprint.to_be_bytes());
        b[12..16].copy_from_slice(&((self.offset / 8) as u32).to_be_bytes());
        b[16..20].copy_from_slice(&self.len.to_be_bytes());
        b[20] = self.in_ram as u8;
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
            in_ram: buf[20] == 1,
        })
    }

    /// True if the slot is in use and advertises the key fingerprint `fp`.
    pub fn advertises(&self, fp: u64) -> bool {
        self.version != 0 && self.fingerprint == slot_fingerprint(fp)
    }
}

/// Publish-side counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OneSidedStats {
    /// Items (re)published.
    pub published: u64,
    /// Slots invalidated (delete, expiry, eviction, data loss, crash).
    pub invalidated: u64,
    /// Slots demoted to SSD-resident (in-RAM bit cleared).
    pub marked_ssd: u64,
    /// Publishes skipped because the key's bucket was full.
    pub overflowed: u64,
}

/// The server's descriptor table, living in the slab pool's window.
pub struct OneSidedIndex {
    window: RemoteWindow,
    table_offset: usize,
    buckets: usize,
    published: Cell<u64>,
    invalidated: Cell<u64>,
    marked_ssd: Cell<u64>,
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
            invalidated: Cell::new(0),
            marked_ssd: Cell::new(0),
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
            invalidated: self.invalidated.get(),
            marked_ssd: self.marked_ssd.get(),
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

    /// Publish `key`'s item: the chunk at window `offset` holds it with a
    /// `value_len`-byte value and the version word `version`. Reuses the
    /// key's slot, else an empty one, else an SSD-marked one.
    pub fn publish(&self, key: &[u8], offset: usize, value_len: usize, version: u64) {
        debug_assert!(version != 0, "version 0 marks an empty slot");
        let fp = key_fingerprint(key);
        let (off, slots, owned) = self.lookup(fp);
        let slot = owned
            .or_else(|| slots.iter().position(|d| d.version == 0))
            .or_else(|| slots.iter().position(|d| !d.in_ram));
        let Some(slot) = slot else {
            self.overflowed.set(self.overflowed.get() + 1);
            return;
        };
        let desc = Descriptor {
            version,
            fingerprint: slot_fingerprint(fp),
            offset: offset as u64,
            len: value_len as u32,
            in_ram: true,
        };
        self.write_slot(off, slot, &desc);
        self.published.set(self.published.get() + 1);
    }

    /// Empty `key`'s slot, if it has one (delete, expiry, eviction, data
    /// loss, or an overwrite that cannot be published).
    pub fn invalidate(&self, key: &[u8]) {
        if let (off, _, Some(slot)) = self.lookup(key_fingerprint(key)) {
            self.write_slot(off, slot, &Descriptor::default());
            self.invalidated.set(self.invalidated.get() + 1);
        }
    }

    /// The item moved to SSD: its chunk is no longer its home, but the key
    /// is still served by RPC. Clearing only the in-RAM bit (fingerprint
    /// kept) lets clients account SSD fallbacks separately.
    pub fn mark_ssd(&self, key: &[u8]) {
        if let (off, slots, Some(slot)) = self.lookup(key_fingerprint(key)) {
            if slots[slot].in_ram {
                let desc = Descriptor {
                    in_ram: false,
                    ..slots[slot]
                };
                self.write_slot(off, slot, &desc);
                self.marked_ssd.set(self.marked_ssd.get() + 1);
            }
        }
    }

    /// Empty every slot (server crash: RAM contents are gone, and remote
    /// readers must stop trusting the table).
    pub fn clear(&self) {
        let len = self.buckets * BUCKET_LEN;
        let used = self.window.read_with(self.table_offset, len, |t| {
            t.chunks_exact(SLOT_LEN)
                .filter(|raw| raw.iter().any(|&b| b != 0))
                .count()
        });
        self.window
            .write_with(self.table_offset, len, |t| t.fill(0));
        self.invalidated.set(self.invalidated.get() + used as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A table over 64 KiB of "pages": 64 slots in 8 buckets.
    fn idx() -> OneSidedIndex {
        let pages = 64 << 10;
        OneSidedIndex::new(RemoteWindow::new(pages + table_bytes(pages)), pages)
    }

    fn slot_of(idx: &OneSidedIndex, key: &[u8]) -> Option<Descriptor> {
        let (_, slots, owned) = idx.lookup(key_fingerprint(key));
        owned.map(|s| slots[s])
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
        idx.publish(b"k1", 4096, 5, 42);
        let d = slot_of(&idx, b"k1").expect("published");
        assert_eq!(d.version, 42);
        assert_eq!(d.offset, 4096);
        assert_eq!(d.len, 5);
        assert!(d.in_ram);
        assert_eq!(idx.stats().published, 1);
        // Republishing reuses the key's slot.
        idx.publish(b"k1", 8192, 7, 43);
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
    fn invalidate_empties_only_the_keys_slot() {
        let idx = idx();
        idx.publish(b"k1", 0, 1, 1);
        idx.publish(b"k2", 8, 1, 2);
        idx.invalidate(b"some-other-key-entirely");
        assert_eq!(idx.stats().invalidated, 0);
        idx.invalidate(b"k1");
        assert!(slot_of(&idx, b"k1").is_none());
        assert!(slot_of(&idx, b"k2").is_some());
        assert_eq!(idx.stats().invalidated, 1);
    }

    #[test]
    fn mark_ssd_keeps_fingerprint_clears_in_ram() {
        let idx = idx();
        idx.publish(b"k1", 0, 1, 9);
        idx.mark_ssd(b"k1");
        let d = slot_of(&idx, b"k1").unwrap();
        assert!(!d.in_ram);
        assert_eq!(d.version, 9);
        assert_eq!(idx.stats().marked_ssd, 1);
        idx.mark_ssd(b"k1");
        assert_eq!(idx.stats().marked_ssd, 1, "idempotent");
    }

    #[test]
    fn full_buckets_reuse_ssd_slots_then_overflow() {
        let idx = idx();
        // Keys that all land in bucket 0.
        let keys: Vec<Vec<u8>> = (0u32..)
            .map(|i| format!("key-{i}").into_bytes())
            .filter(|k| key_fingerprint(k).is_multiple_of(idx.buckets as u64))
            .take(BUCKET_SLOTS + 1)
            .collect();
        for (i, k) in keys[..BUCKET_SLOTS].iter().enumerate() {
            idx.publish(k, i * 8, 1, i as u64 + 1);
        }
        let extra = &keys[BUCKET_SLOTS];
        idx.publish(extra, 800, 1, 100);
        assert_eq!(idx.stats().overflowed, 1);
        assert!(slot_of(&idx, extra).is_none());
        idx.mark_ssd(&keys[3]);
        idx.publish(extra, 800, 1, 101);
        assert_eq!(slot_of(&idx, extra).unwrap().version, 101);
        assert!(slot_of(&idx, &keys[3]).is_none(), "SSD slot was taken");
    }

    #[test]
    fn clear_empties_every_slot() {
        let idx = idx();
        idx.publish(b"a", 0, 1, 1);
        idx.publish(b"b", 8, 1, 2);
        idx.clear();
        assert!(slot_of(&idx, b"a").is_none());
        assert!(slot_of(&idx, b"b").is_none());
        assert_eq!(idx.stats().invalidated, 2);
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
            in_ram: true,
        };
        assert_eq!(Descriptor::decode(&d.encode()), Some(d));
        assert_eq!(Descriptor::decode(&[0u8; SLOT_LEN - 1]), None);
    }
}
