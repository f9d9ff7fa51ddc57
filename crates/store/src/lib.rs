//! # rastor-store — durability for storage objects
//!
//! The paper's fault model lets base objects crash *and come back*: a
//! recovered object is correct as long as it still vouches for everything
//! it ever acknowledged. Until this crate, every substrate in the
//! workspace held register state purely in memory, so a killed object was
//! a permanent crash and the "recover and continue" half of the model was
//! unreachable. `rastor_store` supplies the missing piece:
//!
//! * [`wal`] — an append-only, length-prefixed, CRC-per-record write-ahead
//!   log with **torn-tail truncation** on replay, plus atomically renamed
//!   snapshot files (the same versioned-header codec discipline as
//!   `rastor_net::wire`, applied to disk);
//! * [`DurableObject`] — an honest object that logs every mutation before
//!   acking it and periodically compacts the log into a snapshot of its
//!   full per-register state;
//! * [`Durability`] — the substrate-facing trait, with [`InMemory`]
//!   (today's behavior: kill = permanent crash) and [`WalBacked`]
//!   (kill-then-recover) implementations. Cluster substrates
//!   (`rastor_sim::runtime::ThreadCluster`, `rastor_net`'s
//!   `ObjectServer`, both on `rastor_sim::host::ObjectHost`) take these
//!   via their owners' configs and gain `restart_object` — crash an
//!   object, then bring it back from disk with its timestamps intact.
//!
//! The recovery invariants — why a restarted object may rejoin its quorum
//! as *correct* rather than Byzantine — are spelled out on
//! [`DurableObject`] and in `DESIGN.md`'s recovery-model section.
//!
//! ```
//! use rastor_common::{ClientId, ObjectId, RegId, Timestamp, TsVal, Value};
//! use rastor_core::msg::{Req, Stamped};
//! use rastor_sim::ObjectBehavior;
//! use rastor_store::{DurableObject, TempDir};
//!
//! let dir = TempDir::new("lib-doc");
//! let (mut obj, _) = DurableObject::open(dir.path(), ObjectId(0), 1024)?;
//! obj.on_request(ClientId::writer(), &Req::Commit {
//!     reg: RegId::WRITER,
//!     pair: Stamped::plain(TsVal::new(Timestamp(7), Value::from_u64(42))),
//! });
//! drop(obj); // kill…
//!
//! let (obj, stats) = DurableObject::open(dir.path(), ObjectId(0), 1024)?; // …restart
//! assert_eq!(stats.wal_records, 1);
//! assert_eq!(obj.object().view_of(RegId::WRITER).w.pair.ts, Timestamp(7));
//! # Ok::<(), rastor_common::Error>(())
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod codec;
mod crc;
mod durable;
mod tempdir;
pub mod wal;

pub use crc::crc32;
pub use durable::{
    Durability, DurableObject, InMemory, RecoveryStats, WalBacked, DEFAULT_SNAPSHOT_EVERY,
};
pub use tempdir::TempDir;
