//! # rastor-kv
//!
//! A multi-key key-value store built on the paper's robust atomic
//! registers — the "cloud key-value storage" motivation from the paper's
//! introduction ("its read/write API … is today the heart of modern cloud
//! key-value storage APIs").
//!
//! The store is a **sharded, pipelined throughput engine**: a
//! consistent-hash [`ShardRouter`] spreads keys across `N` independent
//! `3t + 1` object clusters, and a pool of [`KvHandle`]s serves puts and
//! gets from as many OS threads as the caller wants. Every key is backed
//! by its own multi-writer register group (one writer register per handle
//! plus one write-back register per handle), multiplexed over its shard's
//! objects. `put` runs the 4-round multi-writer write (2-round tag
//! collect, then the 2-round pre-write/commit); `get` runs the 4-round
//! atomic read
//! (transformation of the paper's Section 5). Because each key's registers
//! are independent, per-key linearizability follows directly from the
//! register construction; cross-shard scaling follows because shards share
//! nothing.
//!
//! Each handle is additionally a **pipelined connection**: it multiplexes
//! up to a configurable `depth` of concurrent operation automata over one
//! reply channel (the shared op driver of `rastor_core::driver`), and
//! batches destined for one shard share round trips via coalesced
//! envelopes — so throughput scales with shard capacity instead of being
//! capped at `1 / op-latency` per handle. See [`KvHandle::put_batch`],
//! [`KvHandle::get_batch`] and the [`KvHandle::submit_put`] /
//! [`KvHandle::submit_get`] / [`KvHandle::poll`] interface.
//!
//! Everything runs over the thread runtime — real OS threads and channels
//! — demonstrating the protocols outside the simulator.
//!
//! The single-cluster, single-writer [`KvStore`] of earlier revisions
//! remains as a thin façade over a 1-shard [`ShardedKvStore`]:
//!
//! ```
//! use rastor_kv::KvStore;
//! use rastor_common::Value;
//!
//! let mut store = KvStore::new(1, 2).expect("valid fault budget");
//! store.put("user:42", Value::from_bytes(*b"alice"))?;
//! let got = store.get("user:42", 0)?;
//! assert_eq!(got.unwrap().as_bytes(), b"alice");
//! assert_eq!(store.get("user:43", 1)?, None);
//! # Ok::<(), rastor_common::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod router;
mod sharded;

pub use router::ShardRouter;
pub use sharded::{
    restart_from_disk, KvHandle, KvOpId, KvOutput, ShardedKvStore, StoreConfig, DEFAULT_DEPTH,
};

use rastor_common::{ClusterConfig, Error, ObjectId, Result, Value};

/// The legacy single-cluster store: one shard, one writing handle, and
/// `num_readers` reading handles — the original single-writer API kept for
/// examples and compatibility, now backed by [`ShardedKvStore`].
pub struct KvStore {
    store: ShardedKvStore,
    writer: KvHandle,
    readers: Vec<KvHandle>,
}

impl KvStore {
    /// Spawn an optimally resilient (`S = 3t + 1`) single-shard store
    /// supporting `num_readers` reader handles.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InsufficientResilience`] if the configuration is
    /// invalid (kept for uniformity; optimal shapes always validate).
    pub fn new(t: usize, num_readers: u32) -> Result<KvStore> {
        let store = ShardedKvStore::spawn(StoreConfig::new(t, 1, num_readers + 1))?;
        let writer = store.handle(0)?;
        let readers = (0..num_readers)
            .map(|r| store.handle(r + 1))
            .collect::<Result<Vec<_>>>()?;
        Ok(KvStore {
            store,
            writer,
            readers,
        })
    }

    /// The cluster configuration.
    pub fn config(&self) -> ClusterConfig {
        self.store.config()
    }

    /// Number of distinct keys written so far.
    pub fn num_keys(&self) -> usize {
        self.store.num_keys()
    }

    /// Crash a storage object (at most `t` may be crashed or corrupted for
    /// operations to keep completing).
    pub fn crash_object(&self, id: ObjectId) {
        self.store.crash_object(0, id);
    }

    /// Set the per-operation timeout on every handle (default 10 s).
    pub fn set_timeout(&mut self, timeout: std::time::Duration) {
        self.writer.set_timeout(timeout);
        for r in &mut self.readers {
            r.set_timeout(timeout);
        }
    }

    /// Store `value` under `key` (4-round multi-writer write).
    ///
    /// # Errors
    ///
    /// * [`Error::BottomWrite`] if `value` is the reserved empty value;
    /// * [`Error::Incomplete`] if the cluster can no longer form a quorum.
    pub fn put(&mut self, key: &str, value: Value) -> Result<()> {
        self.writer.put(key, value).map(|_tag| ())
    }

    /// Read the latest value under `key` through reader handle `reader`
    /// (4-round atomic read). Returns `None` if the key was never written.
    ///
    /// # Errors
    ///
    /// * [`Error::WrongRole`] if `reader ≥ num_readers`;
    /// * [`Error::Incomplete`] if the cluster can no longer form a quorum.
    pub fn get(&mut self, key: &str, reader: u32) -> Result<Option<Value>> {
        let num_readers = self.readers.len();
        let handle = self
            .readers
            .get_mut(reader as usize)
            .ok_or_else(|| Error::WrongRole {
                detail: format!("reader {reader} of {num_readers}"),
            })?;
        handle.get(key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn put_get_roundtrip() {
        let mut store = KvStore::new(1, 2).unwrap();
        store.put("a", Value::from_u64(1)).unwrap();
        store.put("b", Value::from_u64(2)).unwrap();
        assert_eq!(store.get("a", 0).unwrap(), Some(Value::from_u64(1)));
        assert_eq!(store.get("b", 1).unwrap(), Some(Value::from_u64(2)));
        assert_eq!(store.num_keys(), 2);
    }

    #[test]
    fn missing_key_reads_none() {
        let mut store = KvStore::new(1, 1).unwrap();
        assert_eq!(store.get("nope", 0).unwrap(), None);
    }

    #[test]
    fn overwrites_are_ordered() {
        let mut store = KvStore::new(1, 1).unwrap();
        for v in 1..=5u64 {
            store.put("counter", Value::from_u64(v)).unwrap();
        }
        assert_eq!(store.get("counter", 0).unwrap(), Some(Value::from_u64(5)));
    }

    #[test]
    fn keys_are_isolated() {
        let mut store = KvStore::new(1, 1).unwrap();
        store.put("x", Value::from_u64(10)).unwrap();
        store.put("y", Value::from_u64(20)).unwrap();
        store.put("x", Value::from_u64(11)).unwrap();
        assert_eq!(store.get("x", 0).unwrap(), Some(Value::from_u64(11)));
        assert_eq!(store.get("y", 0).unwrap(), Some(Value::from_u64(20)));
    }

    #[test]
    fn bottom_put_rejected() {
        let mut store = KvStore::new(1, 1).unwrap();
        assert_eq!(store.put("k", Value::bottom()), Err(Error::BottomWrite));
    }

    #[test]
    fn out_of_range_reader_rejected() {
        let mut store = KvStore::new(1, 1).unwrap();
        assert!(matches!(store.get("k", 5), Err(Error::WrongRole { .. })));
    }

    #[test]
    fn survives_t_crashed_objects() {
        let mut store = KvStore::new(1, 1).unwrap();
        store.put("k", Value::from_u64(7)).unwrap();
        store.crash_object(ObjectId(3));
        assert_eq!(store.get("k", 0).unwrap(), Some(Value::from_u64(7)));
        store.put("k", Value::from_u64(8)).unwrap();
        assert_eq!(store.get("k", 0).unwrap(), Some(Value::from_u64(8)));
    }

    #[test]
    fn fails_gracefully_beyond_budget() {
        let mut store = KvStore::new(1, 1).unwrap();
        store.put("k", Value::from_u64(7)).unwrap();
        store.crash_object(ObjectId(2));
        store.crash_object(ObjectId(3));
        // Quorum of 3 unreachable with 2 of 4 objects down: times out.
        store.set_timeout(Duration::from_millis(100));
        assert!(matches!(
            store.put("k", Value::from_u64(9)),
            Err(Error::Incomplete { .. })
        ));
    }
}
