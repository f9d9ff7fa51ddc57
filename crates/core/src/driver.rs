//! The pipelined op-driver layer: the deploy-path face of the one
//! op-driving implementation shared by both substrates.
//!
//! The round bookkeeping itself — nonce-keyed dispatch over one reply
//! channel, per-op deadlines, straggler and stale-round filtering — lives
//! in [`rastor_sim::driver::OpDriver`], where both the simulator's event
//! loop and the thread runtime's [`ThreadClient`] can reach it (the
//! simulator runs the paper's permissive [`StalePolicy::DeliverLate`]; the
//! thread runtime hardens to [`StalePolicy::DropLate`]). This module
//! re-exports that machinery under the protocol crate's roof and adds the
//! piece that only makes sense at the protocol level: [`drive_batch`], the
//! depth-bounded loop that keeps many protocol operations in flight per
//! connection and returns their outputs in submission order.
//!
//! None of this changes any protocol's round count: an operation still runs
//! exactly the rounds its automaton asks for (2-round writes, 4-round
//! unauthenticated atomic reads, …). Pipelining changes how many such
//! automata one connection multiplexes concurrently — throughput stops
//! being bounded by `1 / latency` per client, which is what the sharded kv
//! store's batched API exploits.

pub use rastor_sim::driver::{Broadcast, Dispatch, OpCompletion, OpDriver, OpTimeout, StalePolicy};
pub use rastor_sim::runtime::OpResult;

use rastor_common::OpKind;
use rastor_sim::runtime::{ThreadClient, Transport};
use rastor_sim::RoundClient;
use std::collections::HashMap;
use std::time::Duration;

/// One operation of a [`drive_batch`] call: which target cluster it runs
/// against, how to label it, and the automaton that runs it.
pub struct BatchOp<Q, R, Out> {
    /// Index into the `clusters` slice passed to [`drive_batch`].
    pub target: usize,
    /// Operation kind (statistics label only; rounds come from the
    /// automaton).
    pub kind: OpKind,
    /// The protocol automaton to drive.
    pub automaton: Box<dyn RoundClient<Q, R, Out = Out>>,
}

/// Drive a set of operations over one client connection, keeping at most
/// `depth` of them in flight, and return each operation's result **in
/// submission order** (`None` = the per-op `timeout` expired first).
///
/// Operations headed to the same cluster share round trips: every flush
/// sends one coalesced envelope per object, so `k` same-cluster operations
/// advancing together cost one object service delay, not `k`.
///
/// `depth = 1` degenerates to the closed loop (one op at a time); callers
/// wanting the paper's one-outstanding-operation discipline get it by
/// asking for it.
///
/// `clusters` may be any [`Transport`] substrate: in-process
/// [`rastor_sim::runtime::ThreadCluster`]s, socket-backed clusters, or a
/// mix — the deploy path is substrate-blind.
///
/// # Panics
///
/// Panics if `depth` is zero, a `target` is out of range of `clusters`, or
/// the client already has operations in flight.
pub fn drive_batch<Q, R, Out, T>(
    client: &mut ThreadClient<Q, R, Out>,
    clusters: &[&T],
    ops: Vec<BatchOp<Q, R, Out>>,
    depth: usize,
    timeout: Duration,
) -> Vec<Option<(Out, u32)>>
where
    Q: Send + Sync + 'static,
    R: Send + 'static,
    T: Transport<Q, R> + ?Sized,
{
    assert!(depth > 0, "a zero-depth pipeline cannot make progress");
    assert!(
        client.in_flight() == 0,
        "drive_batch on a client with operations already in flight"
    );
    let total = ops.len();
    let mut results: Vec<Option<(Out, u32)>> = Vec::with_capacity(total);
    results.resize_with(total, || None);
    let mut by_nonce: HashMap<u64, usize> = HashMap::new();
    let mut queue = ops.into_iter().enumerate();
    let mut resolved = 0usize;

    while resolved < total {
        while client.in_flight() < depth {
            let Some((idx, op)) = queue.next() else {
                break;
            };
            assert!(op.target < clusters.len(), "batch op target out of range");
            let nonce = client.submit_op(op.target, op.kind, op.automaton, timeout);
            by_nonce.insert(nonce, idx);
        }
        for r in client.pump(clusters) {
            let idx = by_nonce.remove(&r.nonce).expect("submitted nonce");
            results[idx] = r.output;
            resolved += 1;
        }
    }
    results
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clients::OpOutput;
    use crate::msg::{Rep, Req};
    use crate::mwmr::{mw_read_in_group, MwWriteClient, RegGroup, Tag};
    use crate::object::HonestObject;
    use rastor_common::{ClientId, ClusterConfig, ObjectId, Value};
    use rastor_sim::runtime::ThreadCluster;
    use rastor_sim::ObjectBehavior;

    fn cluster(n: usize) -> ThreadCluster<Req, Rep> {
        let behaviors: Vec<Box<dyn ObjectBehavior<Req, Rep> + Send>> =
            (0..n).map(|_| Box::new(HonestObject::new()) as _).collect();
        ThreadCluster::spawn(behaviors, None)
    }

    const TIMEOUT: Duration = Duration::from_secs(10);

    /// A pipelined burst of multi-writer writes to disjoint registers, then
    /// reads of each — all outputs land in submission order and every write
    /// is visible to its read.
    #[test]
    fn pipelined_writes_then_reads_roundtrip() {
        let cfg = ClusterConfig::byzantine(1).unwrap();
        let cl = cluster(4);
        let clusters = [&cl];
        let mut client = ThreadClient::new(ClientId::reader(0));
        // 8 keys, one register group each, writer/reader 0 of each group.
        let writes: Vec<BatchOp<Req, Rep, OpOutput>> = (0..8u32)
            .map(|k| BatchOp {
                target: 0,
                kind: OpKind::Write,
                automaton: Box::new(MwWriteClient::in_group(
                    cfg,
                    0,
                    RegGroup::keyed(k, 1),
                    Value::from_u64(u64::from(k) + 100),
                )),
            })
            .collect();
        let outs = drive_batch(&mut client, &clusters, writes, 4, TIMEOUT);
        for (k, out) in outs.into_iter().enumerate() {
            let (out, rounds) = out.expect("write completes");
            assert_eq!(rounds, 4, "mw-write is 4 rounds");
            let pair = out.into_wrote().expect("writes return Wrote");
            assert_eq!(Tag::from_timestamp(pair.ts), Tag { seq: 1, writer: 0 });
            assert_eq!(pair.val, Value::from_u64(k as u64 + 100));
        }
        let reads: Vec<BatchOp<Req, Rep, OpOutput>> = (0..8u32)
            .map(|k| BatchOp {
                target: 0,
                kind: OpKind::Read,
                automaton: Box::new(mw_read_in_group(cfg, 0, RegGroup::keyed(k, 1))),
            })
            .collect();
        let outs = drive_batch(&mut client, &clusters, reads, 8, TIMEOUT);
        for (k, out) in outs.into_iter().enumerate() {
            let (out, rounds) = out.expect("read completes");
            assert_eq!(rounds, 4, "atomic read is 4 rounds");
            let pair = out.into_read().expect("reads return Read");
            assert_eq!(pair.val, Value::from_u64(k as u64 + 100));
        }
    }

    /// Depth 1 is the closed loop: results identical, one at a time.
    #[test]
    fn depth_one_is_the_closed_loop() {
        let cfg = ClusterConfig::byzantine(1).unwrap();
        let cl = cluster(4);
        let clusters = [&cl];
        let mut client = ThreadClient::new(ClientId::reader(0));
        let ops: Vec<BatchOp<Req, Rep, OpOutput>> = (0..3u32)
            .map(|k| BatchOp {
                target: 0,
                kind: OpKind::Write,
                automaton: Box::new(MwWriteClient::in_group(
                    cfg,
                    0,
                    RegGroup::keyed(k, 1),
                    Value::from_u64(7),
                )),
            })
            .collect();
        let outs = drive_batch(&mut client, &clusters, ops, 1, TIMEOUT);
        assert!(outs.iter().all(|o| o.is_some()));
    }

    /// A batch spanning two clusters routes every op to its own cluster.
    #[test]
    fn batches_span_clusters() {
        let cfg = ClusterConfig::byzantine(1).unwrap();
        let (a, b) = (cluster(4), cluster(4));
        let clusters = [&a, &b];
        let mut client = ThreadClient::new(ClientId::reader(0));
        let ops: Vec<BatchOp<Req, Rep, OpOutput>> = (0..6usize)
            .map(|i| BatchOp {
                target: i % 2,
                kind: OpKind::Write,
                automaton: Box::new(MwWriteClient::in_group(
                    cfg,
                    0,
                    RegGroup::keyed(i as u32, 1),
                    Value::from_u64(i as u64 + 1),
                )),
            })
            .collect();
        let outs = drive_batch(&mut client, &clusters, ops, 6, TIMEOUT);
        assert!(outs.iter().all(|o| o.is_some()));
        // Each cluster saw only its own register groups: reading group 0
        // on cluster B (written only on A) returns ⊥.
        let probe: Vec<BatchOp<Req, Rep, OpOutput>> = vec![BatchOp {
            target: 1,
            kind: OpKind::Read,
            automaton: Box::new(mw_read_in_group(cfg, 0, RegGroup::keyed(0, 1))),
        }];
        let outs = drive_batch(&mut client, &clusters, probe, 1, TIMEOUT);
        let (out, _) = outs[0].clone().expect("read completes");
        assert!(out.into_read().expect("read output").is_bottom());
    }

    /// Timeouts resolve per op: a doomed op on a quorum-less cluster does
    /// not block its batch-mates on a healthy one.
    #[test]
    fn per_op_timeouts_do_not_poison_the_batch() {
        let cfg = ClusterConfig::byzantine(1).unwrap();
        let healthy = cluster(4);
        let dead = cluster(4);
        for o in 0..3 {
            dead.crash_object(ObjectId(o));
        }
        let clusters = [&healthy, &dead];
        let mut client = ThreadClient::new(ClientId::reader(0));
        let ops: Vec<BatchOp<Req, Rep, OpOutput>> = (0..4usize)
            .map(|i| BatchOp {
                target: i % 2,
                kind: OpKind::Write,
                automaton: Box::new(MwWriteClient::in_group(
                    cfg,
                    0,
                    RegGroup::keyed(i as u32, 1),
                    Value::from_u64(1),
                )),
            })
            .collect();
        let outs = drive_batch(&mut client, &clusters, ops, 4, Duration::from_millis(200));
        assert!(outs[0].is_some() && outs[2].is_some(), "healthy ops land");
        assert!(outs[1].is_none() && outs[3].is_none(), "dead ops time out");
    }
}
