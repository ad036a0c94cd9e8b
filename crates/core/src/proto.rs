//! Wire protocol between the client library and the server.
//!
//! A compact binary framing (one message per request/response) in the
//! spirit of the memcached binary protocol, extended with what the paper's
//! design needs:
//!
//! - an [`ApiFlavor`] tag so the server can route non-blocking requests
//!   through the decoupled memory/SSD pipeline (Section V-B1);
//! - per-request [`StageTimes`] in every response, which is how the
//!   time-wise breakdowns of Figures 2 and 6 are measured.
//!
//! Decoding is zero-copy: every `Bytes` field of a decoded message (keys,
//! values, batch members) is a view into the frame it came from and keeps
//! that whole allocation alive. Holders that live no longer than the
//! request may keep such views; anything kept past the request (an index,
//! a per-key map) must copy the bytes it needs.

use bytes::{BufMut, Bytes, BytesMut};
use std::fmt;

/// Which API family issued a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ApiFlavor {
    /// Blocking `set`/`get`: the client waits for the full response.
    Block,
    /// `iset`/`iget`: issue returns immediately, no buffer-reuse guarantee.
    NonBlockingI,
    /// `bset`/`bget`: issue returns once the user buffers are reusable.
    NonBlockingB,
}

impl ApiFlavor {
    fn to_wire(self) -> u8 {
        match self {
            ApiFlavor::Block => 0,
            ApiFlavor::NonBlockingI => 1,
            ApiFlavor::NonBlockingB => 2,
        }
    }

    fn from_wire(b: u8) -> Result<Self, ProtoError> {
        match b {
            0 => Ok(ApiFlavor::Block),
            1 => Ok(ApiFlavor::NonBlockingI),
            2 => Ok(ApiFlavor::NonBlockingB),
            _ => Err(ProtoError::BadFlavor(b)),
        }
    }

    /// True for the non-blocking flavours (eligible for the server's
    /// asynchronous memory phase).
    pub fn is_nonblocking(self) -> bool {
        !matches!(self, ApiFlavor::Block)
    }
}

/// Result status of an operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpStatus {
    /// Set stored the value.
    Stored,
    /// Get found the key.
    Hit,
    /// Get did not find the key (or it expired).
    Miss,
    /// Delete removed the key.
    Deleted,
    /// Delete found nothing to remove.
    NotFound,
    /// Conditional store failed: the key exists (add) or the CAS token
    /// did not match.
    Exists,
    /// Conditional store failed: the key does not exist (replace/append/
    /// prepend/incr on a missing key).
    NotStored,
    /// Server-side failure (e.g. out of hybrid capacity).
    Error,
}

impl OpStatus {
    fn to_wire(self) -> u8 {
        match self {
            OpStatus::Stored => 0,
            OpStatus::Hit => 1,
            OpStatus::Miss => 2,
            OpStatus::Deleted => 3,
            OpStatus::NotFound => 4,
            OpStatus::Error => 5,
            OpStatus::Exists => 6,
            OpStatus::NotStored => 7,
        }
    }

    fn from_wire(b: u8) -> Result<Self, ProtoError> {
        Ok(match b {
            0 => OpStatus::Stored,
            1 => OpStatus::Hit,
            2 => OpStatus::Miss,
            3 => OpStatus::Deleted,
            4 => OpStatus::NotFound,
            5 => OpStatus::Error,
            6 => OpStatus::Exists,
            7 => OpStatus::NotStored,
            _ => return Err(ProtoError::BadStatus(b)),
        })
    }
}

/// Where a get was served from (for hit-rate accounting).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ServedFrom {
    /// RAM slab.
    #[default]
    Ram,
    /// SSD (hybrid store).
    Ssd,
    /// Not served (miss / not applicable).
    None,
}

impl ServedFrom {
    fn to_wire(self) -> u8 {
        match self {
            ServedFrom::Ram => 0,
            ServedFrom::Ssd => 1,
            ServedFrom::None => 2,
        }
    }

    fn from_wire(b: u8) -> Result<Self, ProtoError> {
        Ok(match b {
            0 => ServedFrom::Ram,
            1 => ServedFrom::Ssd,
            2 => ServedFrom::None,
            _ => return Err(ProtoError::BadServedFrom(b)),
        })
    }
}

/// Conditional-store semantics for [`Request::Set`] (memcached's storage
/// command family).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SetMode {
    /// Unconditional store (`set`).
    #[default]
    Set,
    /// Store only if the key is absent (`add`).
    Add,
    /// Store only if the key is present (`replace`).
    Replace,
    /// Store only if the entry's CAS token matches (`cas`).
    Cas(u64),
    /// Append to the existing value (`append`; keeps original flags and
    /// expiry).
    Append,
    /// Prepend to the existing value (`prepend`).
    Prepend,
}

impl SetMode {
    fn to_wire(self) -> (u8, u64) {
        match self {
            SetMode::Set => (0, 0),
            SetMode::Add => (1, 0),
            SetMode::Replace => (2, 0),
            SetMode::Cas(token) => (3, token),
            SetMode::Append => (4, 0),
            SetMode::Prepend => (5, 0),
        }
    }

    fn from_wire(b: u8, token: u64) -> Result<Self, ProtoError> {
        Ok(match b {
            0 => SetMode::Set,
            1 => SetMode::Add,
            2 => SetMode::Replace,
            3 => SetMode::Cas(token),
            4 => SetMode::Append,
            5 => SetMode::Prepend,
            _ => return Err(ProtoError::BadSetMode(b)),
        })
    }
}

/// Per-request server-side stage timings (virtual nanoseconds), matching
/// the six-stage breakdown of Section III-A (the client-side stages —
/// client wait and miss penalty — are measured by the client).
///
/// The `*_at_ns` fields are **absolute** stamps on the shared simulation
/// clock (all nodes run on one virtual clock, so client- and server-side
/// stamps are directly comparable); the client combines them with its own
/// issue/completion stamps into a full request-lifecycle timeline
/// (`nbkv_obs::ReqTimeline`). A value of 0 means "not stamped".
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageTimes {
    /// Stage 1: slab allocation (including any eviction flush to SSD).
    pub slab_alloc_ns: u64,
    /// Stage 2: cache check and load (including SSD reads).
    pub check_load_ns: u64,
    /// Stage 3: cache (LRU) update.
    pub cache_update_ns: u64,
    /// Stage 4: server response preparation/transmission estimate.
    pub response_ns: u64,
    /// Absolute stamp: server received the request.
    pub server_recv_at_ns: u64,
    /// Absolute stamp: communication phase done (parsed, and staged to the
    /// worker pool or dispatched inline).
    pub comm_done_at_ns: u64,
    /// Absolute stamp: memory/SSD phase done (response about to be built).
    pub store_done_at_ns: u64,
    /// Duration within the store phase spent on SSD I/O (reads serving
    /// this request plus eviction flushes it waited on).
    pub ssd_ns: u64,
    /// True if the request arrived while a slab-eviction flush was in
    /// flight (the comm/memory overlap the non-blocking designs create).
    pub overlapped_flush: bool,
    /// Where the value came from.
    pub served_from: ServedFrom,
    /// Server load hint: requests sitting in the dispatch/staging queue
    /// when this response was built. The client's adaptive one-sided
    /// policy biases toward server-bypass direct reads when it grows.
    pub queue_depth: u32,
}

impl StageTimes {
    /// Sum of the server-side stages.
    pub fn server_total_ns(&self) -> u64 {
        self.slab_alloc_ns + self.check_load_ns + self.cache_update_ns + self.response_ns
    }
}

/// A client-to-server message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Store a key-value pair (plain or conditional; see [`SetMode`]).
    Set {
        /// Client-assigned request id (unique per connection).
        req_id: u64,
        /// Issuing API family.
        flavor: ApiFlavor,
        /// Conditional-store semantics.
        mode: SetMode,
        /// Opaque client flags (memcached semantics).
        flags: u32,
        /// Expiration in virtual ns since sim start; 0 = never.
        expire_at_ns: u64,
        /// Key bytes.
        key: Bytes,
        /// Value bytes.
        value: Bytes,
    },
    /// Arithmetic on a decimal-ASCII counter value (`incr`/`decr`).
    Counter {
        /// Client-assigned request id.
        req_id: u64,
        /// Issuing API family.
        flavor: ApiFlavor,
        /// Key bytes.
        key: Bytes,
        /// Amount to add or subtract.
        delta: u64,
        /// True for `decr` (clamped at zero, memcached semantics).
        negative: bool,
    },
    /// Fetch a server observability snapshot (memcached's `stats`). The
    /// response is a `Get` carrying JSON in the value field.
    Stats {
        /// Client-assigned request id.
        req_id: u64,
        /// Issuing API family.
        flavor: ApiFlavor,
    },
    /// Update an entry's expiration without touching its value (`touch`).
    Touch {
        /// Client-assigned request id.
        req_id: u64,
        /// Issuing API family.
        flavor: ApiFlavor,
        /// Key bytes.
        key: Bytes,
        /// New expiration (virtual ns since sim start; 0 = never).
        expire_at_ns: u64,
    },
    /// Fetch a value.
    Get {
        /// Client-assigned request id.
        req_id: u64,
        /// Issuing API family.
        flavor: ApiFlavor,
        /// Key bytes.
        key: Bytes,
    },
    /// One-sided window lease handshake: ask the server for the geometry
    /// of its RDMA-readable index window (models exchanging the rkey and
    /// layout at connection setup). The response is a `Get` whose value
    /// carries an encoded [`LeaseGeometry`]; a `Miss` means the server
    /// publishes no window.
    WindowLease {
        /// Client-assigned request id.
        req_id: u64,
        /// Issuing API family.
        flavor: ApiFlavor,
    },
    /// Remove a key.
    Delete {
        /// Client-assigned request id.
        req_id: u64,
        /// Issuing API family.
        flavor: ApiFlavor,
        /// Key bytes.
        key: Bytes,
    },
    /// Primary-to-replica write propagation. The replica applies the new
    /// state iff `seq` is newer than every sequence number it has already
    /// applied for `key`, so out-of-order or retransmitted deliveries can
    /// never resurrect a stale value. Replication frames coalesce into
    /// [`Request::Batch`] doorbells on the server-to-server links, and the
    /// replica answers each op with a [`Response::ReplAck`].
    Replicate {
        /// Primary-assigned request id (unique per peer link).
        req_id: u64,
        /// Issuing API family (replication rides the non-blocking path).
        flavor: ApiFlavor,
        /// Per-key monotonic sequence number assigned by the serving
        /// server (derived from its store version counter, which survives
        /// warm restarts).
        seq: u64,
        /// True for a replicated delete: `value` is empty and the replica
        /// removes the key (the sequence number remains as a tombstone).
        delete: bool,
        /// Opaque client flags of the replicated value.
        flags: u32,
        /// Expiration of the replicated value (virtual ns; 0 = never).
        expire_at_ns: u64,
        /// Key bytes.
        key: Bytes,
        /// The full new value (empty for a delete).
        value: Bytes,
    },
    /// A doorbell-batched frame: several independent operations coalesced
    /// into one fabric message to amortize per-message overhead. Each
    /// member op keeps its own `req_id` (the client matches completions
    /// per op) and the server stamps per-op [`StageTimes`]. Batches never
    /// nest; build via [`Request::batch`] (empty batches are rejected).
    Batch {
        /// Frame id (distinct from every member op's id).
        req_id: u64,
        /// Issuing API family (decides the server's pipeline routing for
        /// the whole frame).
        flavor: ApiFlavor,
        /// The coalesced member operations.
        ops: Vec<Request>,
    },
}

impl Request {
    /// Build a batch frame, validating the batching invariants: at least
    /// one member op, and no nested batches.
    pub fn batch(req_id: u64, flavor: ApiFlavor, ops: Vec<Request>) -> Result<Request, ProtoError> {
        if ops.is_empty() {
            return Err(ProtoError::EmptyBatch);
        }
        if ops.iter().any(|op| matches!(op, Request::Batch { .. })) {
            return Err(ProtoError::NestedBatch);
        }
        Ok(Request::Batch {
            req_id,
            flavor,
            ops,
        })
    }

    /// The request id (the frame id for a batch).
    pub fn req_id(&self) -> u64 {
        match self {
            Request::Set { req_id, .. }
            | Request::Get { req_id, .. }
            | Request::Delete { req_id, .. }
            | Request::Counter { req_id, .. }
            | Request::Stats { req_id, .. }
            | Request::WindowLease { req_id, .. }
            | Request::Touch { req_id, .. }
            | Request::Replicate { req_id, .. }
            | Request::Batch { req_id, .. } => *req_id,
        }
    }

    /// The issuing API family.
    pub fn flavor(&self) -> ApiFlavor {
        match self {
            Request::Set { flavor, .. }
            | Request::Get { flavor, .. }
            | Request::Delete { flavor, .. }
            | Request::Counter { flavor, .. }
            | Request::Stats { flavor, .. }
            | Request::WindowLease { flavor, .. }
            | Request::Touch { flavor, .. }
            | Request::Replicate { flavor, .. }
            | Request::Batch { flavor, .. } => *flavor,
        }
    }

    /// Wire opcode of the [`Response`] kind that answers this request:
    /// Set/Touch → `Set`, Get/Stats/WindowLease → `Get`, Delete →
    /// `Delete`, Counter → `Counter`. The client holds every response to
    /// it.
    pub(crate) fn response_opcode(&self) -> u8 {
        match self {
            Request::Set { .. } | Request::Touch { .. } => 129,
            Request::Get { .. } | Request::Stats { .. } | Request::WindowLease { .. } => 130,
            Request::Delete { .. } => 131,
            Request::Counter { .. } => 132,
            Request::Batch { .. } => 133,
            Request::Replicate { .. } => 134,
        }
    }

    /// Exact encoded size in bytes (excluding fabric frame overhead) —
    /// what the client's coalescing queue uses for its byte threshold
    /// without encoding twice.
    pub fn wire_len(&self) -> usize {
        match self {
            Request::Set { key, value, .. } | Request::Replicate { key, value, .. } => {
                39 + key.len() + value.len()
            }
            Request::Get { key, .. } | Request::Delete { key, .. } => 14 + key.len(),
            Request::Counter { key, .. } => 23 + key.len(),
            Request::Stats { .. } | Request::WindowLease { .. } => 10,
            Request::Touch { key, .. } => 22 + key.len(),
            Request::Batch { ops, .. } => {
                14 + ops.iter().map(|op| 4 + op.wire_len()).sum::<usize>()
            }
        }
    }

    /// Encode to wire bytes.
    pub fn encode(&self) -> Bytes {
        match self {
            Request::Set {
                req_id,
                flavor,
                mode,
                flags,
                expire_at_ns,
                key,
                value,
            } => {
                let (mode_b, cas) = mode.to_wire();
                let mut b = BytesMut::with_capacity(39 + key.len() + value.len());
                b.put_u8(1);
                b.put_u8(flavor.to_wire());
                b.put_u64(*req_id);
                b.put_u8(mode_b);
                b.put_u64(cas);
                b.put_u32(*flags);
                b.put_u64(*expire_at_ns);
                b.put_u32(key.len() as u32);
                b.put_u32(value.len() as u32);
                b.put_slice(key);
                b.put_slice(value);
                b.freeze()
            }
            Request::Get {
                req_id,
                flavor,
                key,
            } => encode_keyed(2, *req_id, *flavor, key),
            Request::Delete {
                req_id,
                flavor,
                key,
            } => encode_keyed(3, *req_id, *flavor, key),
            Request::Counter {
                req_id,
                flavor,
                key,
                delta,
                negative,
            } => {
                let mut b = BytesMut::with_capacity(23 + key.len());
                b.put_u8(4);
                b.put_u8(flavor.to_wire());
                b.put_u64(*req_id);
                b.put_u64(*delta);
                b.put_u8(*negative as u8);
                b.put_u32(key.len() as u32);
                b.put_slice(key);
                b.freeze()
            }
            Request::Stats { req_id, flavor } => {
                let mut b = BytesMut::with_capacity(10);
                b.put_u8(6);
                b.put_u8(flavor.to_wire());
                b.put_u64(*req_id);
                b.freeze()
            }
            Request::WindowLease { req_id, flavor } => {
                let mut b = BytesMut::with_capacity(10);
                b.put_u8(8);
                b.put_u8(flavor.to_wire());
                b.put_u64(*req_id);
                b.freeze()
            }
            Request::Replicate {
                req_id,
                flavor,
                seq,
                delete,
                flags,
                expire_at_ns,
                key,
                value,
            } => {
                let mut b = BytesMut::with_capacity(39 + key.len() + value.len());
                b.put_u8(9);
                b.put_u8(flavor.to_wire());
                b.put_u64(*req_id);
                b.put_u64(*seq);
                b.put_u8(*delete as u8);
                b.put_u32(*flags);
                b.put_u64(*expire_at_ns);
                b.put_u32(key.len() as u32);
                b.put_u32(value.len() as u32);
                b.put_slice(key);
                b.put_slice(value);
                b.freeze()
            }
            Request::Touch {
                req_id,
                flavor,
                key,
                expire_at_ns,
            } => {
                let mut b = BytesMut::with_capacity(22 + key.len());
                b.put_u8(5);
                b.put_u8(flavor.to_wire());
                b.put_u64(*req_id);
                b.put_u64(*expire_at_ns);
                b.put_u32(key.len() as u32);
                b.put_slice(key);
                b.freeze()
            }
            Request::Batch {
                req_id,
                flavor,
                ops,
            } => {
                debug_assert!(!ops.is_empty(), "empty batch frames are unencodable");
                let mut b = BytesMut::with_capacity(self.wire_len());
                b.put_u8(7);
                b.put_u8(flavor.to_wire());
                b.put_u64(*req_id);
                b.put_u32(ops.len() as u32);
                for op in ops {
                    let wire = op.encode();
                    b.put_u32(wire.len() as u32);
                    b.put_slice(&wire);
                }
                b.freeze()
            }
        }
    }

    /// Decode from wire bytes (zero-copy: key/value alias `buf` and pin
    /// all of it; copy a key before keeping it past the request).
    pub fn decode(buf: &Bytes) -> Result<Request, ProtoError> {
        let mut r = Reader::new(buf);
        let opcode = r.u8()?;
        let flavor = ApiFlavor::from_wire(r.u8()?)?;
        let req_id = r.u64()?;
        match opcode {
            1 => {
                let mode_b = r.u8()?;
                let cas = r.u64()?;
                let mode = SetMode::from_wire(mode_b, cas)?;
                let flags = r.u32()?;
                let expire_at_ns = r.u64()?;
                let key_len = r.u32()? as usize;
                let val_len = r.u32()? as usize;
                let key = r.take(key_len)?;
                let value = r.take(val_len)?;
                Ok(Request::Set {
                    req_id,
                    flavor,
                    mode,
                    flags,
                    expire_at_ns,
                    key,
                    value,
                })
            }
            4 => {
                let delta = r.u64()?;
                let negative = r.u8()? == 1;
                let key_len = r.u32()? as usize;
                let key = r.take(key_len)?;
                Ok(Request::Counter {
                    req_id,
                    flavor,
                    key,
                    delta,
                    negative,
                })
            }
            5 => {
                let expire_at_ns = r.u64()?;
                let key_len = r.u32()? as usize;
                let key = r.take(key_len)?;
                Ok(Request::Touch {
                    req_id,
                    flavor,
                    key,
                    expire_at_ns,
                })
            }
            6 => Ok(Request::Stats { req_id, flavor }),
            8 => Ok(Request::WindowLease { req_id, flavor }),
            9 => {
                let seq = r.u64()?;
                let delete = r.u8()? == 1;
                let flags = r.u32()?;
                let expire_at_ns = r.u64()?;
                let key_len = r.u32()? as usize;
                let val_len = r.u32()? as usize;
                let key = r.take(key_len)?;
                let value = r.take(val_len)?;
                Ok(Request::Replicate {
                    req_id,
                    flavor,
                    seq,
                    delete,
                    flags,
                    expire_at_ns,
                    key,
                    value,
                })
            }
            7 => {
                let count = r.u32()? as usize;
                if count == 0 {
                    return Err(ProtoError::EmptyBatch);
                }
                let mut ops = Vec::with_capacity(r.max_members(count));
                for _ in 0..count {
                    let len = r.u32()? as usize;
                    let wire = r.take(len)?;
                    let op = Request::decode(&wire)?;
                    if matches!(op, Request::Batch { .. }) {
                        return Err(ProtoError::NestedBatch);
                    }
                    ops.push(op);
                }
                Ok(Request::Batch {
                    req_id,
                    flavor,
                    ops,
                })
            }
            2 | 3 => {
                let key_len = r.u32()? as usize;
                let key = r.take(key_len)?;
                Ok(if opcode == 2 {
                    Request::Get {
                        req_id,
                        flavor,
                        key,
                    }
                } else {
                    Request::Delete {
                        req_id,
                        flavor,
                        key,
                    }
                })
            }
            op => Err(ProtoError::BadOpcode(op)),
        }
    }
}

fn encode_keyed(opcode: u8, req_id: u64, flavor: ApiFlavor, key: &Bytes) -> Bytes {
    let mut b = BytesMut::with_capacity(14 + key.len());
    b.put_u8(opcode);
    b.put_u8(flavor.to_wire());
    b.put_u64(req_id);
    b.put_u32(key.len() as u32);
    b.put_slice(key);
    b.freeze()
}

/// A server-to-client message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Outcome of a Set.
    Set {
        /// Echoed request id.
        req_id: u64,
        /// Operation status.
        status: OpStatus,
        /// Server stage timings.
        stages: StageTimes,
    },
    /// Outcome of a Get.
    Get {
        /// Echoed request id.
        req_id: u64,
        /// Operation status.
        status: OpStatus,
        /// Server stage timings.
        stages: StageTimes,
        /// Stored flags (valid on `Hit`).
        flags: u32,
        /// CAS token for a later [`SetMode::Cas`] (valid on `Hit`).
        cas: u64,
        /// The value on `Hit`.
        value: Option<Bytes>,
    },
    /// Outcome of an incr/decr.
    Counter {
        /// Echoed request id.
        req_id: u64,
        /// Operation status.
        status: OpStatus,
        /// Server stage timings.
        stages: StageTimes,
        /// The counter value after the operation (valid on `Stored`).
        value: u64,
    },
    /// Outcome of a Delete.
    Delete {
        /// Echoed request id.
        req_id: u64,
        /// Operation status.
        status: OpStatus,
        /// Server stage timings.
        stages: StageTimes,
    },
    /// Replica acknowledgement of a [`Request::Replicate`]:
    /// [`OpStatus::Stored`]/[`OpStatus::Deleted`] when the write was
    /// applied, [`OpStatus::NotStored`] when it was dropped as stale
    /// (an equal-or-newer sequence number had already been applied).
    ReplAck {
        /// Echoed request id.
        req_id: u64,
        /// Apply outcome.
        status: OpStatus,
        /// Server stage timings on the replica.
        stages: StageTimes,
        /// Echoed per-key sequence number.
        seq: u64,
    },
    /// A coalesced response frame for (part of) a [`Request::Batch`]: one
    /// completion wave's member responses in a single fabric message. The
    /// client matches each member to its op by the member's own `req_id`;
    /// per-op [`StageTimes`] live in the members. Never nests; build via
    /// [`Response::batch`].
    Batch {
        /// Echoed batch frame id.
        req_id: u64,
        /// Member responses completed in this wave.
        responses: Vec<Response>,
    },
}

impl Response {
    /// Build a batch response frame, validating the batching invariants:
    /// at least one member, no nesting.
    pub fn batch(req_id: u64, responses: Vec<Response>) -> Result<Response, ProtoError> {
        if responses.is_empty() {
            return Err(ProtoError::EmptyBatch);
        }
        if responses
            .iter()
            .any(|r| matches!(r, Response::Batch { .. }))
        {
            return Err(ProtoError::NestedBatch);
        }
        Ok(Response::Batch { req_id, responses })
    }

    /// The echoed request id (the frame id for a batch).
    pub fn req_id(&self) -> u64 {
        match self {
            Response::Set { req_id, .. }
            | Response::Get { req_id, .. }
            | Response::Delete { req_id, .. }
            | Response::Counter { req_id, .. }
            | Response::ReplAck { req_id, .. }
            | Response::Batch { req_id, .. } => *req_id,
        }
    }

    /// The operation status. For a batch frame: [`OpStatus::Error`] if any
    /// member errored, otherwise [`OpStatus::Hit`] (per-member statuses
    /// live in the members).
    pub fn status(&self) -> OpStatus {
        match self {
            Response::Set { status, .. }
            | Response::Get { status, .. }
            | Response::Delete { status, .. }
            | Response::Counter { status, .. }
            | Response::ReplAck { status, .. } => *status,
            Response::Batch { responses, .. } => {
                if responses.iter().any(|r| r.status() == OpStatus::Error) {
                    OpStatus::Error
                } else {
                    OpStatus::Hit
                }
            }
        }
    }

    /// Wire opcode (the first byte of the encoded frame).
    pub(crate) fn opcode(&self) -> u8 {
        match self {
            Response::Set { .. } => 129,
            Response::Get { .. } => 130,
            Response::Delete { .. } => 131,
            Response::Counter { .. } => 132,
            Response::Batch { .. } => 133,
            Response::ReplAck { .. } => 134,
        }
    }

    /// An unstamped `Error` answer to `req_id` of the kind `opcode` names
    /// (one of the four client-facing kinds; anything else is a `Set`).
    pub(crate) fn error(opcode: u8, req_id: u64) -> Response {
        let (status, stages) = (OpStatus::Error, StageTimes::default());
        match opcode {
            130 => Response::Get {
                req_id,
                status,
                stages,
                flags: 0,
                cas: 0,
                value: None,
            },
            131 => Response::Delete {
                req_id,
                status,
                stages,
            },
            132 => Response::Counter {
                req_id,
                status,
                stages,
                value: 0,
            },
            _ => Response::Set {
                req_id,
                status,
                stages,
            },
        }
    }

    /// The server stage timings. A batch frame carries no frame-level
    /// stamps (each member has its own); it reports the default (unstamped)
    /// [`StageTimes`].
    pub fn stages(&self) -> StageTimes {
        match self {
            Response::Set { stages, .. }
            | Response::Get { stages, .. }
            | Response::Delete { stages, .. }
            | Response::Counter { stages, .. }
            | Response::ReplAck { stages, .. } => *stages,
            Response::Batch { .. } => StageTimes::default(),
        }
    }

    /// Encode to wire bytes.
    pub fn encode(&self) -> Bytes {
        match self {
            Response::Set {
                req_id,
                status,
                stages,
            } => encode_plain_resp(129, *req_id, *status, stages),
            Response::Delete {
                req_id,
                status,
                stages,
            } => encode_plain_resp(131, *req_id, *status, stages),
            Response::Get {
                req_id,
                status,
                stages,
                flags,
                cas,
                value,
            } => {
                let vlen = value.as_ref().map_or(0, |v| v.len());
                let mut b = BytesMut::with_capacity(97 + vlen);
                b.put_u8(130);
                b.put_u8(status.to_wire());
                b.put_u64(*req_id);
                put_stages(&mut b, stages);
                b.put_u32(*flags);
                b.put_u64(*cas);
                match value {
                    Some(v) => {
                        b.put_u8(1);
                        b.put_u32(v.len() as u32);
                        b.put_slice(v);
                    }
                    None => b.put_u8(0),
                }
                b.freeze()
            }
            Response::Counter {
                req_id,
                status,
                stages,
                value,
            } => {
                let mut b = BytesMut::with_capacity(88);
                b.put_u8(132);
                b.put_u8(status.to_wire());
                b.put_u64(*req_id);
                put_stages(&mut b, stages);
                b.put_u64(*value);
                b.freeze()
            }
            Response::ReplAck {
                req_id,
                status,
                stages,
                seq,
            } => {
                let mut b = BytesMut::with_capacity(88);
                b.put_u8(134);
                b.put_u8(status.to_wire());
                b.put_u64(*req_id);
                put_stages(&mut b, stages);
                b.put_u64(*seq);
                b.freeze()
            }
            Response::Batch { req_id, responses } => {
                debug_assert!(!responses.is_empty(), "empty batch frames are unencodable");
                let mut b = BytesMut::with_capacity(14 + responses.len() * 100);
                b.put_u8(133);
                b.put_u64(*req_id);
                b.put_u32(responses.len() as u32);
                for resp in responses {
                    let wire = resp.encode();
                    b.put_u32(wire.len() as u32);
                    b.put_slice(&wire);
                }
                b.freeze()
            }
        }
    }

    /// Decode from wire bytes (zero-copy, like [`Request::decode`]).
    pub fn decode(buf: &Bytes) -> Result<Response, ProtoError> {
        let mut r = Reader::new(buf);
        let opcode = r.u8()?;
        if opcode == 133 {
            let req_id = r.u64()?;
            let count = r.u32()? as usize;
            if count == 0 {
                return Err(ProtoError::EmptyBatch);
            }
            let mut responses = Vec::with_capacity(r.max_members(count));
            for _ in 0..count {
                let len = r.u32()? as usize;
                let wire = r.take(len)?;
                let resp = Response::decode(&wire)?;
                if matches!(resp, Response::Batch { .. }) {
                    return Err(ProtoError::NestedBatch);
                }
                responses.push(resp);
            }
            return Ok(Response::Batch { req_id, responses });
        }
        let status = OpStatus::from_wire(r.u8()?)?;
        let req_id = r.u64()?;
        let stages = read_stages(&mut r)?;
        match opcode {
            129 => Ok(Response::Set {
                req_id,
                status,
                stages,
            }),
            131 => Ok(Response::Delete {
                req_id,
                status,
                stages,
            }),
            130 => {
                let flags = r.u32()?;
                let cas = r.u64()?;
                let has_value = r.u8()? == 1;
                let value = if has_value {
                    let len = r.u32()? as usize;
                    Some(r.take(len)?)
                } else {
                    None
                };
                Ok(Response::Get {
                    req_id,
                    status,
                    stages,
                    flags,
                    cas,
                    value,
                })
            }
            132 => {
                let value = r.u64()?;
                Ok(Response::Counter {
                    req_id,
                    status,
                    stages,
                    value,
                })
            }
            134 => {
                let seq = r.u64()?;
                Ok(Response::ReplAck {
                    req_id,
                    status,
                    stages,
                    seq,
                })
            }
            op => Err(ProtoError::BadOpcode(op)),
        }
    }
}

fn encode_plain_resp(opcode: u8, req_id: u64, status: OpStatus, stages: &StageTimes) -> Bytes {
    let mut b = BytesMut::with_capacity(80);
    b.put_u8(opcode);
    b.put_u8(status.to_wire());
    b.put_u64(req_id);
    put_stages(&mut b, stages);
    b.freeze()
}

fn put_stages(b: &mut BytesMut, s: &StageTimes) {
    b.put_u64(s.slab_alloc_ns);
    b.put_u64(s.check_load_ns);
    b.put_u64(s.cache_update_ns);
    b.put_u64(s.response_ns);
    b.put_u64(s.server_recv_at_ns);
    b.put_u64(s.comm_done_at_ns);
    b.put_u64(s.store_done_at_ns);
    b.put_u64(s.ssd_ns);
    b.put_u8(s.overlapped_flush as u8);
    b.put_u8(s.served_from.to_wire());
    b.put_u32(s.queue_depth);
}

fn read_stages(r: &mut Reader<'_>) -> Result<StageTimes, ProtoError> {
    Ok(StageTimes {
        slab_alloc_ns: r.u64()?,
        check_load_ns: r.u64()?,
        cache_update_ns: r.u64()?,
        response_ns: r.u64()?,
        server_recv_at_ns: r.u64()?,
        comm_done_at_ns: r.u64()?,
        store_done_at_ns: r.u64()?,
        ssd_ns: r.u64()?,
        overlapped_flush: r.u8()? == 1,
        served_from: ServedFrom::from_wire(r.u8()?)?,
        queue_depth: r.u32()?,
    })
}

/// Geometry of a server's one-sided descriptor table, exchanged through
/// the [`Request::WindowLease`] handshake. The registered window holds
/// the slab pages, then, from `table_offset`, `buckets` buckets of
/// `bucket_slots` slots of `slot_len` bytes each.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LeaseGeometry {
    /// Number of buckets (a power of two; keys map as `fp % buckets`).
    pub buckets: u32,
    /// Slots per bucket.
    pub bucket_slots: u32,
    /// Window offset where the table begins.
    pub table_offset: u64,
    /// Bytes per slot.
    pub slot_len: u32,
}

impl LeaseGeometry {
    /// Encoded size in bytes.
    pub const WIRE_LEN: usize = 20;

    /// Encode as the value payload of a lease response.
    pub fn encode(&self) -> Bytes {
        let mut b = BytesMut::with_capacity(Self::WIRE_LEN);
        b.put_u32(self.buckets);
        b.put_u32(self.bucket_slots);
        b.put_u64(self.table_offset);
        b.put_u32(self.slot_len);
        b.freeze()
    }

    /// Decode from a lease response value.
    pub fn decode(buf: &Bytes) -> Result<LeaseGeometry, ProtoError> {
        let mut r = Reader::new(buf);
        Ok(LeaseGeometry {
            buckets: r.u32()?,
            bucket_slots: r.u32()?,
            table_offset: r.u64()?,
            slot_len: r.u32()?,
        })
    }
}

/// Decode failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtoError {
    /// Message shorter than its framing claims.
    Truncated,
    /// Unknown opcode byte.
    BadOpcode(u8),
    /// Unknown flavor byte.
    BadFlavor(u8),
    /// Unknown status byte.
    BadStatus(u8),
    /// Unknown served-from byte.
    BadServedFrom(u8),
    /// Unknown set-mode byte.
    BadSetMode(u8),
    /// A batch frame with zero member operations.
    EmptyBatch,
    /// A batch frame nested inside another batch frame.
    NestedBatch,
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtoError::Truncated => write!(f, "truncated message"),
            ProtoError::BadOpcode(b) => write!(f, "unknown opcode {b}"),
            ProtoError::BadFlavor(b) => write!(f, "unknown flavor {b}"),
            ProtoError::BadStatus(b) => write!(f, "unknown status {b}"),
            ProtoError::BadServedFrom(b) => write!(f, "unknown served-from {b}"),
            ProtoError::BadSetMode(b) => write!(f, "unknown set mode {b}"),
            ProtoError::EmptyBatch => write!(f, "empty batch frame"),
            ProtoError::NestedBatch => write!(f, "nested batch frame"),
        }
    }
}

impl std::error::Error for ProtoError {}

/// Cursor over a `Bytes` buffer with zero-copy `take`: each taken field
/// shares (and keeps alive) the frame's allocation.
struct Reader<'a> {
    buf: &'a Bytes,
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a Bytes) -> Self {
        Reader { buf, pos: 0 }
    }

    fn need(&self, n: usize) -> Result<(), ProtoError> {
        if self.pos + n > self.buf.len() {
            Err(ProtoError::Truncated)
        } else {
            Ok(())
        }
    }

    fn u8(&mut self) -> Result<u8, ProtoError> {
        self.need(1)?;
        let v = self.buf[self.pos];
        self.pos += 1;
        Ok(v)
    }

    fn u32(&mut self) -> Result<u32, ProtoError> {
        self.need(4)?;
        let mut a = [0u8; 4];
        a.copy_from_slice(&self.buf[self.pos..self.pos + 4]);
        self.pos += 4;
        Ok(u32::from_be_bytes(a))
    }

    fn u64(&mut self) -> Result<u64, ProtoError> {
        self.need(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(&self.buf[self.pos..self.pos + 8]);
        self.pos += 8;
        Ok(u64::from_be_bytes(a))
    }

    /// Capacity for `count` batch members: never more than the unread
    /// bytes could hold (each member has a 4-byte length prefix), so a
    /// corrupt count cannot demand a huge allocation.
    fn max_members(&self, count: usize) -> usize {
        count.min((self.buf.len() - self.pos) / 4)
    }

    fn take(&mut self, n: usize) -> Result<Bytes, ProtoError> {
        self.need(n)?;
        let out = self.buf.slice(self.pos..self.pos + n);
        self.pos += n;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stages() -> StageTimes {
        StageTimes {
            slab_alloc_ns: 123,
            check_load_ns: 456,
            cache_update_ns: 789,
            response_ns: 42,
            server_recv_at_ns: 10_000,
            comm_done_at_ns: 10_050,
            store_done_at_ns: 11_400,
            ssd_ns: 400,
            overlapped_flush: true,
            served_from: ServedFrom::Ssd,
            queue_depth: 3,
        }
    }

    #[test]
    fn set_request_round_trips() {
        let req = Request::Set {
            req_id: 77,
            flavor: ApiFlavor::NonBlockingB,
            mode: SetMode::Cas(0xFEED),
            flags: 0xDEAD,
            expire_at_ns: 5_000_000,
            key: Bytes::from_static(b"user:42"),
            value: Bytes::from(vec![9u8; 1000]),
        };
        let wire = req.encode();
        assert_eq!(Request::decode(&wire).unwrap(), req);
    }

    #[test]
    fn get_and_delete_round_trip() {
        for (req, op) in [
            (
                Request::Get {
                    req_id: 1,
                    flavor: ApiFlavor::Block,
                    key: Bytes::from_static(b"k"),
                },
                2u8,
            ),
            (
                Request::Delete {
                    req_id: 2,
                    flavor: ApiFlavor::NonBlockingI,
                    key: Bytes::from_static(b"gone"),
                },
                3u8,
            ),
        ] {
            let wire = req.encode();
            assert_eq!(wire[0], op);
            assert_eq!(Request::decode(&wire).unwrap(), req);
        }
    }

    #[test]
    fn responses_round_trip() {
        let cases = vec![
            Response::Set {
                req_id: 9,
                status: OpStatus::Stored,
                stages: stages(),
            },
            Response::Get {
                req_id: 10,
                status: OpStatus::Hit,
                stages: stages(),
                flags: 7,
                cas: 99,
                value: Some(Bytes::from(vec![1u8; 333])),
            },
            Response::Counter {
                req_id: 13,
                status: OpStatus::Stored,
                stages: stages(),
                value: 1000,
            },
            Response::Get {
                req_id: 11,
                status: OpStatus::Miss,
                stages: StageTimes::default(),
                flags: 0,
                cas: 0,
                value: None,
            },
            Response::Delete {
                req_id: 12,
                status: OpStatus::NotFound,
                stages: stages(),
            },
        ];
        for resp in cases {
            let wire = resp.encode();
            assert_eq!(Response::decode(&wire).unwrap(), resp);
        }
    }

    #[test]
    fn decode_is_zero_copy() {
        let req = Request::Set {
            req_id: 1,
            flavor: ApiFlavor::Block,
            mode: SetMode::Set,
            flags: 0,
            expire_at_ns: 0,
            key: Bytes::from_static(b"key"),
            value: Bytes::from(vec![5u8; 100]),
        };
        let wire = req.encode();
        let decoded = Request::decode(&wire).unwrap();
        if let Request::Set { value, .. } = decoded {
            // The decoded value aliases the wire buffer (no copy).
            let wire_range = wire.as_ptr() as usize..wire.as_ptr() as usize + wire.len();
            assert!(wire_range.contains(&(value.as_ptr() as usize)));
        } else {
            panic!("wrong variant");
        }
    }

    #[test]
    fn truncated_messages_rejected() {
        let req = Request::Set {
            req_id: 1,
            flavor: ApiFlavor::Block,
            mode: SetMode::Set,
            flags: 0,
            expire_at_ns: 0,
            key: Bytes::from_static(b"abc"),
            value: Bytes::from_static(b"defgh"),
        };
        let wire = req.encode();
        for cut in [0, 1, 5, 10, wire.len() - 1] {
            let partial = wire.slice(..cut);
            assert_eq!(
                Request::decode(&partial),
                Err(ProtoError::Truncated),
                "cut={cut}"
            );
        }
    }

    #[test]
    fn bad_bytes_rejected() {
        assert_eq!(
            Request::decode(&Bytes::from_static(&[99, 0, 0, 0, 0, 0, 0, 0, 0, 0])),
            Err(ProtoError::BadOpcode(99))
        );
        assert_eq!(
            Request::decode(&Bytes::from_static(&[1, 9, 0, 0, 0, 0, 0, 0, 0, 0])),
            Err(ProtoError::BadFlavor(9))
        );
    }

    #[test]
    fn stage_totals_sum() {
        let s = stages();
        assert_eq!(s.server_total_ns(), 123 + 456 + 789 + 42);
    }

    fn member_ops() -> Vec<Request> {
        vec![
            Request::Get {
                req_id: 101,
                flavor: ApiFlavor::NonBlockingI,
                key: Bytes::from_static(b"a"),
            },
            Request::Set {
                req_id: 102,
                flavor: ApiFlavor::NonBlockingI,
                mode: SetMode::Set,
                flags: 1,
                expire_at_ns: 0,
                key: Bytes::from_static(b"b"),
                value: Bytes::from(vec![3u8; 64]),
            },
            Request::Delete {
                req_id: 103,
                flavor: ApiFlavor::NonBlockingI,
                key: Bytes::from_static(b"c"),
            },
        ]
    }

    #[test]
    fn batch_request_round_trips_with_per_op_ids() {
        let req = Request::batch(9000, ApiFlavor::NonBlockingI, member_ops()).unwrap();
        let wire = req.encode();
        assert_eq!(wire[0], 7);
        assert_eq!(wire.len(), req.wire_len());
        let decoded = Request::decode(&wire).unwrap();
        assert_eq!(decoded, req);
        if let Request::Batch { ops, .. } = decoded {
            assert_eq!(
                ops.iter().map(|op| op.req_id()).collect::<Vec<_>>(),
                vec![101, 102, 103],
                "member req-ids survive the frame"
            );
        } else {
            panic!("wrong variant");
        }
    }

    #[test]
    fn empty_batch_rejected_at_encode_and_decode() {
        assert_eq!(
            Request::batch(1, ApiFlavor::NonBlockingI, Vec::new()),
            Err(ProtoError::EmptyBatch)
        );
        assert_eq!(Response::batch(1, Vec::new()), Err(ProtoError::EmptyBatch));
        // A hand-rolled zero-count frame is rejected at decode too.
        let mut b = bytes::BytesMut::new();
        b.put_u8(7);
        b.put_u8(1);
        b.put_u64(1);
        b.put_u32(0);
        assert_eq!(
            Request::decode(&b.freeze()),
            Err(ProtoError::EmptyBatch),
            "zero-count request frame"
        );
        let mut b = bytes::BytesMut::new();
        b.put_u8(133);
        b.put_u64(1);
        b.put_u32(0);
        assert_eq!(
            Response::decode(&b.freeze()),
            Err(ProtoError::EmptyBatch),
            "zero-count response frame"
        );
    }

    #[test]
    fn nested_batches_rejected() {
        let inner = Request::batch(1, ApiFlavor::NonBlockingI, member_ops()).unwrap();
        assert_eq!(
            Request::batch(2, ApiFlavor::NonBlockingI, vec![inner]),
            Err(ProtoError::NestedBatch)
        );
        let inner = Response::batch(
            1,
            vec![Response::Set {
                req_id: 5,
                status: OpStatus::Stored,
                stages: stages(),
            }],
        )
        .unwrap();
        assert_eq!(
            Response::batch(2, vec![inner]),
            Err(ProtoError::NestedBatch)
        );
    }

    #[test]
    fn batch_response_round_trips_and_truncation_rejected() {
        let resp = Response::batch(
            9000,
            vec![
                Response::Get {
                    req_id: 101,
                    status: OpStatus::Hit,
                    stages: stages(),
                    flags: 0,
                    cas: 1,
                    value: Some(Bytes::from(vec![7u8; 20])),
                },
                Response::Set {
                    req_id: 102,
                    status: OpStatus::Stored,
                    stages: stages(),
                },
            ],
        )
        .unwrap();
        let wire = resp.encode();
        assert_eq!(wire[0], 133);
        assert_eq!(Response::decode(&wire).unwrap(), resp);
        assert_eq!(resp.req_id(), 9000);
        assert_eq!(resp.status(), OpStatus::Hit);
        for cut in [0, 1, 8, 13, 20, wire.len() - 1] {
            assert_eq!(
                Response::decode(&wire.slice(..cut)),
                Err(ProtoError::Truncated),
                "cut={cut}"
            );
        }

        let req = Request::batch(9000, ApiFlavor::NonBlockingB, member_ops()).unwrap();
        let wire = req.encode();
        for cut in [1, 10, 13, 17, wire.len() - 1] {
            assert_eq!(
                Request::decode(&wire.slice(..cut)),
                Err(ProtoError::Truncated),
                "cut={cut}"
            );
        }
    }

    #[test]
    fn wire_len_matches_encoding_for_all_variants() {
        let reqs = {
            let mut v = member_ops();
            v.push(Request::Counter {
                req_id: 104,
                flavor: ApiFlavor::Block,
                key: Bytes::from_static(b"ctr"),
                delta: 3,
                negative: true,
            });
            v.push(Request::Stats {
                req_id: 105,
                flavor: ApiFlavor::Block,
            });
            v.push(Request::WindowLease {
                req_id: 108,
                flavor: ApiFlavor::Block,
            });
            v.push(Request::Touch {
                req_id: 106,
                flavor: ApiFlavor::Block,
                key: Bytes::from_static(b"t"),
                expire_at_ns: 9,
            });
            v.push(Request::Replicate {
                req_id: 109,
                flavor: ApiFlavor::NonBlockingI,
                seq: 42,
                delete: false,
                flags: 3,
                expire_at_ns: 0,
                key: Bytes::from_static(b"rk"),
                value: Bytes::from(vec![8u8; 48]),
            });
            let members = member_ops();
            v.push(Request::batch(107, ApiFlavor::NonBlockingI, members).unwrap());
            v
        };
        for req in reqs {
            assert_eq!(req.encode().len(), req.wire_len(), "{req:?}");
        }
    }

    #[test]
    fn window_lease_round_trips() {
        let req = Request::WindowLease {
            req_id: 55,
            flavor: ApiFlavor::Block,
        };
        let wire = req.encode();
        assert_eq!(wire[0], 8);
        assert_eq!(wire.len(), req.wire_len());
        assert_eq!(Request::decode(&wire).unwrap(), req);

        let geo = LeaseGeometry {
            buckets: 4096,
            bucket_slots: 8,
            table_offset: 64 << 20,
            slot_len: 24,
        };
        let wire = geo.encode();
        assert_eq!(wire.len(), LeaseGeometry::WIRE_LEN);
        assert_eq!(LeaseGeometry::decode(&wire).unwrap(), geo);
        assert_eq!(
            LeaseGeometry::decode(&wire.slice(..10)),
            Err(ProtoError::Truncated)
        );
    }

    #[test]
    fn replicate_round_trips_standalone_and_batched() {
        let set = Request::Replicate {
            req_id: 900,
            flavor: ApiFlavor::NonBlockingI,
            seq: 0x1234_5678_9ABC,
            delete: false,
            flags: 0xF00D,
            expire_at_ns: 77,
            key: Bytes::from_static(b"repl-key"),
            value: Bytes::from(vec![6u8; 200]),
        };
        let del = Request::Replicate {
            req_id: 901,
            flavor: ApiFlavor::NonBlockingI,
            seq: 9,
            delete: true,
            flags: 0,
            expire_at_ns: 0,
            key: Bytes::from_static(b"gone"),
            value: Bytes::new(),
        };
        for req in [&set, &del] {
            let wire = req.encode();
            assert_eq!(wire[0], 9);
            assert_eq!(wire.len(), req.wire_len());
            assert_eq!(&Request::decode(&wire).unwrap(), req);
        }
        // Replication coalesces into doorbell batches like any other op.
        let frame = Request::batch(902, ApiFlavor::NonBlockingI, vec![set, del]).unwrap();
        let wire = frame.encode();
        assert_eq!(wire.len(), frame.wire_len());
        assert_eq!(Request::decode(&wire).unwrap(), frame);

        let ack = Response::ReplAck {
            req_id: 900,
            status: OpStatus::Stored,
            stages: stages(),
            seq: 0x1234_5678_9ABC,
        };
        let wire = ack.encode();
        assert_eq!(wire[0], 134);
        assert_eq!(Response::decode(&wire).unwrap(), ack);
        let ack_frame = Response::batch(903, vec![ack]).unwrap();
        assert_eq!(
            Response::decode(&ack_frame.encode()).unwrap(),
            ack_frame,
            "acks ride batch response frames"
        );
    }

    #[test]
    fn queue_depth_hint_survives_responses() {
        let mut s = stages();
        s.queue_depth = 17;
        let resp = Response::Set {
            req_id: 1,
            status: OpStatus::Stored,
            stages: s,
        };
        let decoded = Response::decode(&resp.encode()).unwrap();
        assert_eq!(decoded.stages().queue_depth, 17);
    }

    #[test]
    fn flavor_nonblocking_classification() {
        assert!(!ApiFlavor::Block.is_nonblocking());
        assert!(ApiFlavor::NonBlockingI.is_nonblocking());
        assert!(ApiFlavor::NonBlockingB.is_nonblocking());
    }
}
