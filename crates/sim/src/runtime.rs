//! A real-time deployment of the same protocol automata.
//!
//! The simulator in [`crate::engine`] is the reference substrate (it can
//! replay adversarial schedules deterministically), but the protocol code is
//! substrate-independent: this module runs the very same
//! [`ObjectBehavior`](crate::ObjectBehavior) and [`RoundClient`]
//! implementations on OS threads and channels, demonstrating that nothing
//! in the protocols depends on simulation artifacts. Examples use it to
//! exercise realistic concurrency.
//!
//! Objects are served by the [`crate::host::ObjectHost`] — the one
//! real-time object host, which `rastor_net`'s TCP server shares: a fixed
//! executor pool, a FIFO per object, and replies handed straight to each
//! client's reply channel.
//!
//! Operations are driven by the same [`OpDriver`] the simulator uses, so a
//! [`ThreadClient`] can keep **many operations in flight** over its single
//! long-lived reply channel ([`ThreadClient::submit_op`] /
//! [`ThreadClient::pump`]) — the pipelining lever the sharded kv store
//! builds its batched API on — or drive one at a time with the blocking
//! [`ThreadClient::run_op`]. Outbound traffic is **coalesced**: every flush
//! sends at most one envelope per object carrying all pending round frames,
//! so a batch of operations headed to the same cluster shares its round
//! trips (and, at the objects, the per-envelope service delay).
//!
//! Unlike the simulator — which runs the paper's permissive round model —
//! the thread runtime drops replies for terminated rounds before they reach
//! an automaton ([`StalePolicy::DropLate`]): on a real deployment a delayed
//! object must not be able to feed protocol code stale-round data.
//!
//! Faults available here are crash/restart of an object and arbitrary
//! behaviors (any [`ObjectBehavior`](crate::ObjectBehavior) impl);
//! scheduling adversaries are only available in the simulator.
//!
//! The client side is substrate-agnostic: everything a [`ThreadClient`]
//! needs from a cluster is captured by the [`Transport`] trait (broadcast a
//! coalesced batch of request frames; deliver coalesced reply envelopes to
//! the client's channel). [`ThreadCluster`] is the in-process channel
//! substrate; `rastor_net` provides a TCP socket substrate speaking the
//! same trait, so the identical client/driver code runs over a real
//! network.

use crate::driver::{Dispatch, OpDriver, StalePolicy};
use crate::engine::RoundClient;
use crate::host::ObjectHost;
use rastor_common::{ClientId, ObjectId, OpKind};
use rastor_obs::trace;
use std::collections::HashMap;
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::Duration;

/// One round of one operation inside a coalesced request envelope. The
/// payload is shared: one allocation per broadcast, not one deep clone per
/// object.
pub struct ReqFrame<Q> {
    /// Nonce of the operation this frame belongs to (assigned at
    /// [`ThreadClient::submit_op`]).
    pub op_nonce: u64,
    /// The round the frame drives (1-based).
    pub round: u32,
    /// The trace id of the operation (`trace::NO_TRACE` when tracing is
    /// off) — carried on every hop so object workers can tag their spans.
    pub trace: u64,
    /// The round's request payload, shared across the broadcast.
    pub payload: Arc<Q>,
}

impl<Q> Clone for ReqFrame<Q> {
    fn clone(&self) -> ReqFrame<Q> {
        ReqFrame {
            op_nonce: self.op_nonce,
            round: self.round,
            trace: self.trace,
            payload: Arc::clone(&self.payload),
        }
    }
}

/// One reply frame inside a coalesced reply envelope.
pub struct RepFrame<R> {
    /// Nonce of the operation the reply belongs to.
    pub op_nonce: u64,
    /// The round the reply answers.
    pub round: u32,
    /// The trace id of the request frame answered (`trace::NO_TRACE`
    /// when untraced).
    pub trace: u64,
    /// The object's reply payload.
    pub payload: R,
}

/// A coalesced reply envelope, as received by a threaded client.
pub struct ObjReply<R> {
    /// The replying object.
    pub from: ObjectId,
    /// One frame per answered request frame.
    pub frames: Vec<RepFrame<R>>,
}

/// A cluster endpoint a [`ThreadClient`] can drive operations over: the
/// envelope send path extracted from [`ThreadCluster`] so substrates are
/// interchangeable.
///
/// Contract: `send_frames` broadcasts the batch to every live object of
/// the cluster as **one coalesced envelope per object**, and the cluster
/// delivers each object's reply envelope to `reply_to` (directly, for the
/// channel substrate; via a demultiplexing reader thread keyed on `from`,
/// for socket substrates). Delivery is best-effort: frames to crashed
/// objects — or lost to a broken connection — are silently dropped, and
/// the op driver's per-operation deadline is the recovery mechanism.
pub trait Transport<Q, R> {
    /// Broadcast a batch of frames from `from`, routing replies to
    /// `reply_to`.
    fn send_frames(&self, from: ClientId, frames: &[ReqFrame<Q>], reply_to: &Sender<ObjReply<R>>);
}

/// Shared ownership of a transport is itself a transport (clusters are
/// commonly held behind `Arc` across client threads).
impl<Q, R, T: Transport<Q, R> + ?Sized> Transport<Q, R> for Arc<T> {
    fn send_frames(&self, from: ClientId, frames: &[ReqFrame<Q>], reply_to: &Sender<ObjReply<R>>) {
        (**self).send_frames(from, frames, reply_to)
    }
}

/// Boxed transports delegate (so `Box<dyn Transport<…>>` slots into the
/// generic client APIs directly).
impl<Q, R, T: Transport<Q, R> + ?Sized> Transport<Q, R> for Box<T> {
    fn send_frames(&self, from: ClientId, frames: &[ReqFrame<Q>], reply_to: &Sender<ObjReply<R>>) {
        (**self).send_frames(from, frames, reply_to)
    }
}

/// A cluster of storage objects served in-process: the [`ObjectHost`]
/// with each client's reply channel as the sink.
pub type ThreadCluster<Q, R> = ObjectHost<Q, R, Sender<ObjReply<R>>>;

impl<Q, R> Transport<Q, R> for ThreadCluster<Q, R>
where
    Q: Send + Sync + 'static,
    R: Send + 'static,
{
    /// Broadcast a batch of frames: one envelope per object, each sharing
    /// the whole batch.
    fn send_frames(&self, from: ClientId, frames: &[ReqFrame<Q>], reply_to: &Sender<ObjReply<R>>) {
        self.submit(from, frames.into(), reply_to);
    }
}

/// One finished operation as reported by [`ThreadClient::pump`].
#[derive(Clone, Debug)]
pub struct OpResult<Out> {
    /// The nonce [`ThreadClient::submit_op`] returned for the operation.
    pub nonce: u64,
    /// The operation's trace id (`trace::NO_TRACE` when tracing is off) —
    /// harvest seams use it to record their own span and close the trace.
    pub trace: u64,
    /// `Some((output, rounds))` on completion; `None` if the deadline
    /// passed first (the cluster could not supply enough replies).
    pub output: Option<(Out, u32)>,
}

/// A client endpoint for one or more [`ThreadCluster`]s.
///
/// The client owns one long-lived reply channel and one [`OpDriver`]: all
/// of its in-flight operations — across every target cluster — multiplex
/// over that single channel, keyed by nonce. Submissions buffer their round
/// frames; [`ThreadClient::pump`] flushes them coalesced (one envelope per
/// object per flush) and blocks until at least one operation finishes.
/// Replies for completed operations, and replies carrying a terminated
/// round of a live operation, are dropped by the driver before they can
/// reach an automaton.
pub struct ThreadClient<Q, R, Out> {
    id: ClientId,
    driver: OpDriver<Q, R, Out>,
    /// nonce → index into the `targets` slice passed to [`ThreadClient::pump`].
    routes: HashMap<u64, usize>,
    /// Buffered `(target, frame)` pairs awaiting the next flush.
    outbox: Vec<(usize, ReqFrame<Q>)>,
    reply_tx: Sender<ObjReply<R>>,
    reply_rx: Receiver<ObjReply<R>>,
}

impl<Q, R, Out> ThreadClient<Q, R, Out>
where
    Q: Send + Sync + 'static,
    R: Send + 'static,
{
    /// Create a client endpoint.
    pub fn new(id: ClientId) -> ThreadClient<Q, R, Out> {
        let (reply_tx, reply_rx) = channel::<ObjReply<R>>();
        ThreadClient {
            id,
            driver: OpDriver::new(StalePolicy::DropLate),
            routes: HashMap::new(),
            outbox: Vec::new(),
            reply_tx,
            reply_rx,
        }
    }

    /// Microseconds on the process-wide trace clock ([`trace::epoch_us`])
    /// — one time base shared by operation deadlines and every span the
    /// stack records, so spans from different layers line up.
    fn now_us(&self) -> u64 {
        trace::epoch_us()
    }

    /// Number of live (submitted, unresolved) operations.
    pub fn in_flight(&self) -> usize {
        self.driver.in_flight()
    }

    /// Submit an operation against `targets[target]` without blocking.
    /// Returns the operation's nonce. The round-1 broadcast is buffered and
    /// goes out (coalesced with any other pending frames) on the next
    /// [`ThreadClient::pump`] or [`ThreadClient::try_pump`] — callers that
    /// may go idle after submitting should `try_pump` once to put the
    /// frames on the wire.
    pub fn submit_op(
        &mut self,
        target: usize,
        kind: OpKind,
        automaton: Box<dyn RoundClient<Q, R, Out = Out>>,
        timeout: Duration,
    ) -> u64 {
        let now = self.now_us();
        // Saturate huge timeouts (e.g. Duration::MAX as "never") instead of
        // wrapping into an immediate deadline.
        let deadline = now.saturating_add(u64::try_from(timeout.as_micros()).unwrap_or(u64::MAX));
        let b = self.driver.submit(kind, automaton, now, Some(deadline));
        self.routes.insert(b.nonce, target);
        self.outbox.push((
            target,
            ReqFrame {
                op_nonce: b.nonce,
                round: b.round,
                trace: b.trace,
                payload: Arc::new(b.payload),
            },
        ));
        b.nonce
    }

    /// Flush buffered frames: for each target with pending frames, one
    /// coalesced envelope per live object.
    fn flush<T: Transport<Q, R> + ?Sized>(&mut self, targets: &[&T]) {
        if self.outbox.is_empty() {
            return;
        }
        let mut by_target: Vec<Vec<ReqFrame<Q>>> = (0..targets.len()).map(|_| Vec::new()).collect();
        for (t, frame) in self.outbox.drain(..) {
            by_target[t].push(frame);
        }
        for (t, frames) in by_target.into_iter().enumerate() {
            if !frames.is_empty() {
                targets[t].send_frames(self.id, &frames, &self.reply_tx);
            }
        }
    }

    /// Dispatch one reply envelope through the driver, buffering next-round
    /// frames and collecting completions.
    fn dispatch(&mut self, rep: ObjReply<R>, done: &mut Vec<OpResult<Out>>) {
        let now = self.now_us();
        for frame in rep.frames {
            match self.driver.on_reply_at(
                frame.op_nonce,
                rep.from,
                frame.round,
                &frame.payload,
                now,
            ) {
                Dispatch::Unknown | Dispatch::StaleRound | Dispatch::Wait => {}
                Dispatch::NextRound(b) => {
                    let target = self.routes[&b.nonce];
                    self.outbox.push((
                        target,
                        ReqFrame {
                            op_nonce: b.nonce,
                            round: b.round,
                            trace: b.trace,
                            payload: Arc::new(b.payload),
                        },
                    ));
                }
                Dispatch::Complete(c) => {
                    self.routes.remove(&c.nonce);
                    done.push(OpResult {
                        nonce: c.nonce,
                        trace: c.trace,
                        output: Some((c.output, c.rounds.get())),
                    });
                }
            }
        }
    }

    /// Reap overdue operations into `done` (as `output: None`).
    fn reap_overdue(&mut self, done: &mut Vec<OpResult<Out>>) {
        for t in self.driver.expire(self.now_us()) {
            self.routes.remove(&t.nonce);
            done.push(OpResult {
                nonce: t.nonce,
                trace: t.trace,
                output: None,
            });
        }
    }

    /// Drive the in-flight operations as far as they can go **without
    /// blocking**: flush pending frames (putting freshly submitted
    /// operations on the wire), ingest every reply already queued, flush
    /// the next-round frames that produced, and reap overdue deadlines.
    /// Returns whatever resolved, possibly nothing.
    ///
    /// `targets` is indexed by the `target` passed at submission. Targets
    /// may be any [`Transport`] substrate — in-process [`ThreadCluster`]s
    /// and socket-backed clusters drive identically.
    pub fn try_pump<T: Transport<Q, R> + ?Sized>(&mut self, targets: &[&T]) -> Vec<OpResult<Out>> {
        let mut done = Vec::new();
        self.flush(targets);
        // Drain whatever is already queued without blocking, so same-batch
        // next-round frames coalesce into one envelope.
        while let Ok(rep) = self.reply_rx.try_recv() {
            self.dispatch(rep, &mut done);
        }
        self.flush(targets);
        self.reap_overdue(&mut done);
        done
    }

    /// Drive the in-flight operations: flush pending frames, ingest
    /// replies, and block until **at least one** operation resolves
    /// (completes or times out). Returns every operation that resolved;
    /// returns an empty vector only when nothing is in flight.
    ///
    /// `targets` is indexed as in [`ThreadClient::try_pump`].
    pub fn pump<T: Transport<Q, R> + ?Sized>(&mut self, targets: &[&T]) -> Vec<OpResult<Out>> {
        let mut done = Vec::new();
        loop {
            done.extend(self.try_pump(targets));
            if !done.is_empty() || self.driver.in_flight() == 0 {
                return done;
            }
            // Nothing resolved yet: block until the next reply or the
            // earliest deadline.
            let now = self.now_us();
            let wait = self
                .driver
                .next_deadline()
                .map_or(Duration::from_secs(60), |d| {
                    Duration::from_micros(d.saturating_sub(now))
                });
            match self.reply_rx.recv_timeout(wait) {
                Ok(rep) => self.dispatch(rep, &mut done),
                Err(RecvTimeoutError::Timeout) => {}
                // Unreachable in practice (the client holds a sender clone),
                // but don't spin if it ever happens.
                Err(RecvTimeoutError::Disconnected) => std::thread::sleep(wait),
            }
        }
    }

    /// Drive one operation to completion over the cluster, blocking the
    /// calling thread — the closed-loop convenience built on the same
    /// driver as the pipelined path. Returns `None` if the cluster cannot
    /// supply enough replies (too many crashed objects) within `timeout` —
    /// a single deadline for the whole operation, not per reply.
    ///
    /// The driver-side kind metadata is fixed at [`OpKind::Read`] here —
    /// it is a statistics label this path never surfaces; use
    /// [`ThreadClient::submit_op`] when the kind matters.
    ///
    /// # Panics
    ///
    /// Panics if pipelined operations are still in flight on this client
    /// (drive them to quiescence with [`ThreadClient::pump`] first).
    pub fn run_op<T: Transport<Q, R> + ?Sized>(
        &mut self,
        cluster: &T,
        automaton: Box<dyn RoundClient<Q, R, Out = Out>>,
        timeout: Duration,
    ) -> Option<(Out, u32)> {
        assert!(
            self.driver.in_flight() == 0,
            "run_op on a client with pipelined operations in flight"
        );
        let nonce = self.submit_op(0, OpKind::Read, automaton, timeout);
        let targets = [cluster];
        loop {
            for r in self.pump(&targets) {
                if r.nonce == nonce {
                    return r.output;
                }
            }
            if !self.driver.is_live(nonce) {
                return None;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Echo;
    impl ObjectBehavior<u32, u32> for Echo {
        fn on_request(&mut self, _from: ClientId, req: &u32) -> Option<u32> {
            Some(req + 10)
        }
    }

    /// Echoes after sleeping — a straggling (but honest) object whose
    /// replies routinely arrive rounds late.
    struct DelayedEcho(Duration);
    impl ObjectBehavior<u32, u32> for DelayedEcho {
        fn on_request(&mut self, _from: ClientId, req: &u32) -> Option<u32> {
            std::thread::sleep(self.0);
            Some(req + 10)
        }
    }

    struct Collect {
        need: usize,
        got: usize,
    }
    impl RoundClient<u32, u32> for Collect {
        type Out = u32;
        fn start(&mut self) -> u32 {
            1
        }
        fn on_reply(
            &mut self,
            _from: ObjectId,
            _round: u32,
            reply: &u32,
        ) -> ClientAction<u32, u32> {
            self.got += 1;
            if self.got >= self.need {
                ClientAction::Complete(*reply)
            } else {
                ClientAction::Wait
            }
        }
    }

    // The panic-on-stale-round regression automaton (the
    // [`StalePolicy::DropLate`] guard) is shared with the driver's unit
    // tests.
    use crate::driver::StrictRounds;
    use crate::engine::{ClientAction, ObjectBehavior};
    use crate::host::EXECUTORS;
    use std::sync::atomic::{AtomicBool, Ordering};

    fn cluster(n: usize) -> ThreadCluster<u32, u32> {
        let behaviors: Vec<Box<dyn ObjectBehavior<u32, u32> + Send>> =
            (0..n).map(|_| Box::new(Echo) as _).collect();
        ThreadCluster::spawn(behaviors, None)
    }

    /// Blocks in `on_request` until released, and reports its own drop —
    /// makes "the envelope in flight" observable.
    struct Gate {
        entered: Sender<()>,
        release: std::sync::Mutex<Receiver<()>>,
        dropped: Arc<AtomicBool>,
    }
    impl ObjectBehavior<u32, u32> for Gate {
        fn on_request(&mut self, _from: ClientId, req: &u32) -> Option<u32> {
            let _ = self.entered.send(());
            let _ = self.release.lock().expect("gate lock").recv();
            Some(req + 10)
        }
    }
    impl Drop for Gate {
        fn drop(&mut self) {
            self.dropped.store(true, Ordering::SeqCst);
        }
    }

    fn frame(op_nonce: u64) -> ReqFrame<u32> {
        ReqFrame {
            op_nonce,
            round: 1,
            trace: trace::NO_TRACE,
            payload: Arc::new(1),
        }
    }

    #[test]
    fn cluster_runs_a_fixed_executor_pool() {
        // The in-process twin of the server's fixed-thread-count claim:
        // hosting 16x the objects must not grow the pool, and neither
        // must serving traffic.
        let small = cluster(1);
        let many = cluster(16);
        assert_eq!(small.thread_count(), EXECUTORS);
        assert_eq!(many.thread_count(), EXECUTORS);
        let mut client = ThreadClient::new(ClientId::reader(0));
        for _ in 0..4 {
            let res = client.run_op(
                &many,
                Box::new(Collect { need: 16, got: 0 }),
                Duration::from_secs(5),
            );
            assert!(res.is_some());
        }
        assert_eq!(many.thread_count(), EXECUTORS);
    }

    #[test]
    fn crash_lets_the_envelope_in_flight_finish_then_drops_the_behavior() {
        let (entered_tx, entered_rx) = channel();
        let (release_tx, release_rx) = channel();
        let dropped = Arc::new(AtomicBool::new(false));
        let gate = Gate {
            entered: entered_tx,
            release: std::sync::Mutex::new(release_rx),
            dropped: Arc::clone(&dropped),
        };
        let cl: Arc<ThreadCluster<u32, u32>> =
            Arc::new(ThreadCluster::spawn(vec![Box::new(gate) as _], None));
        let (reply_tx, reply_rx) = channel();
        cl.send_frames(ClientId::reader(0), &[frame(1)], &reply_tx);
        entered_rx
            .recv_timeout(Duration::from_secs(5))
            .expect("the envelope reaches the behavior");

        let crasher = {
            let cl = Arc::clone(&cl);
            std::thread::spawn(move || cl.crash_object(ObjectId(0)))
        };
        std::thread::sleep(Duration::from_millis(50));
        assert!(
            !crasher.is_finished(),
            "crash waits out the envelope in flight"
        );
        assert!(!dropped.load(Ordering::SeqCst));

        release_tx.send(()).expect("release the envelope");
        crasher.join().expect("crash returns");
        assert!(dropped.load(Ordering::SeqCst), "crash drops the behavior");
        assert!(cl.is_crashed(ObjectId(0)));
        let rep = reply_rx
            .recv_timeout(Duration::from_secs(5))
            .expect("the envelope in flight is answered");
        assert_eq!(rep.frames.len(), 1);
        assert_eq!(rep.frames[0].payload, 11);

        // Later envelopes vanish.
        cl.send_frames(ClientId::reader(0), &[frame(2)], &reply_tx);
        assert!(reply_rx.recv_timeout(Duration::from_millis(100)).is_err());
    }

    #[test]
    fn threaded_op_completes() {
        let cl = cluster(4);
        let mut client = ThreadClient::new(ClientId::reader(0));
        let (out, rounds) = client
            .run_op(
                &cl,
                Box::new(Collect { need: 3, got: 0 }),
                Duration::from_secs(5),
            )
            .expect("completes");
        assert_eq!(out, 11);
        assert_eq!(rounds, 1);
    }

    #[test]
    fn tolerates_crashed_minority() {
        let cl = cluster(4);
        cl.crash_object(ObjectId(3));
        let mut client = ThreadClient::new(ClientId::reader(0));
        let res = client.run_op(
            &cl,
            Box::new(Collect { need: 3, got: 0 }),
            Duration::from_secs(5),
        );
        assert!(res.is_some());
    }

    #[test]
    fn times_out_without_quorum() {
        let cl = cluster(3);
        cl.crash_object(ObjectId(1));
        cl.crash_object(ObjectId(2));
        let mut client = ThreadClient::new(ClientId::reader(0));
        let res = client.run_op(
            &cl,
            Box::new(Collect { need: 3, got: 0 }),
            Duration::from_millis(50),
        );
        assert!(res.is_none());
    }

    #[test]
    fn reused_reply_channel_discards_stragglers() {
        // Each op completes at 2 of 4 replies, leaving 2 stragglers queued
        // on the client's long-lived channel; the next op must skip them.
        let cl = cluster(4);
        let mut client = ThreadClient::new(ClientId::reader(0));
        for _ in 0..10 {
            let (out, rounds) = client
                .run_op(
                    &cl,
                    Box::new(Collect { need: 2, got: 0 }),
                    Duration::from_secs(5),
                )
                .expect("completes");
            assert_eq!(out, 11);
            assert_eq!(rounds, 1);
        }
    }

    #[test]
    fn restart_revives_a_crashed_slot() {
        let cl = cluster(3);
        cl.crash_object(ObjectId(1));
        cl.crash_object(ObjectId(2));
        assert!(cl.is_crashed(ObjectId(1)));
        let mut client = ThreadClient::new(ClientId::reader(0));
        // Quorum of 3 unreachable with 2 of 3 down.
        assert!(client
            .run_op(
                &cl,
                Box::new(Collect { need: 3, got: 0 }),
                Duration::from_millis(50),
            )
            .is_none());
        // Restarting one slot brings the quorum back.
        cl.restart_object(ObjectId(1), Box::new(Echo));
        assert!(!cl.is_crashed(ObjectId(1)));
        let res = client.run_op(
            &cl,
            Box::new(Collect { need: 2, got: 0 }),
            Duration::from_secs(5),
        );
        assert!(res.is_some());
    }

    #[test]
    fn jitter_does_not_break_completion() {
        let behaviors: Vec<Box<dyn ObjectBehavior<u32, u32> + Send>> =
            (0..5).map(|_| Box::new(Echo) as _).collect();
        let cl = ThreadCluster::spawn(behaviors, Some(Duration::from_millis(2)));
        let mut client = ThreadClient::new(ClientId::writer());
        let res = client.run_op(
            &cl,
            Box::new(Collect { need: 4, got: 0 }),
            Duration::from_secs(5),
        );
        assert!(res.is_some());
    }

    #[test]
    fn delayed_object_replies_never_reach_terminated_rounds() {
        // Regression for the round-staleness hardening: one object lags
        // every reply by 500 µs while three fast objects race the automaton
        // through 40 rounds at quorum 2. The laggard's replies arrive
        // rounds late for a still-live operation; `StrictRounds` panics if
        // any of them reaches it.
        let behaviors: Vec<Box<dyn ObjectBehavior<u32, u32> + Send>> = vec![
            Box::new(Echo),
            Box::new(Echo),
            Box::new(Echo),
            Box::new(DelayedEcho(Duration::from_micros(500))),
        ];
        let cl = ThreadCluster::spawn(behaviors, None);
        let mut client = ThreadClient::new(ClientId::reader(0));
        let (out, rounds) = client
            .run_op(
                &cl,
                Box::new(StrictRounds::new(2, 40)),
                Duration::from_secs(10),
            )
            .expect("completes despite the laggard");
        assert_eq!(out, 50); // round-40 payload (40) + 10
        assert_eq!(rounds, 40);
        // And the next operation still works over the same channel, with
        // the laggard's backlog draining into it as unknown nonces.
        let res = client.run_op(
            &cl,
            Box::new(Collect { need: 3, got: 0 }),
            Duration::from_secs(10),
        );
        assert!(res.is_some());
    }

    #[test]
    fn pipelined_ops_multiplex_one_channel() {
        let cl = cluster(4);
        let targets = [&cl];
        let mut client: ThreadClient<u32, u32, u32> = ThreadClient::new(ClientId::reader(0));
        let mut live: Vec<u64> = (0..8)
            .map(|_| {
                client.submit_op(
                    0,
                    OpKind::Read,
                    Box::new(StrictRounds::new(3, 3)),
                    Duration::from_secs(5),
                )
            })
            .collect();
        assert_eq!(client.in_flight(), 8);
        while !live.is_empty() {
            for r in client.pump(&targets) {
                let (out, rounds) = r.output.expect("no timeouts expected");
                assert_eq!(out, 13); // round-3 payload (3) + 10
                assert_eq!(rounds, 3);
                let idx = live.iter().position(|&n| n == r.nonce).expect("live nonce");
                live.remove(idx);
            }
        }
        assert_eq!(client.in_flight(), 0);
    }

    #[test]
    fn pipelined_timeouts_are_reported_per_op() {
        let cl = cluster(3);
        cl.crash_object(ObjectId(1));
        cl.crash_object(ObjectId(2));
        let targets = [&cl];
        let mut client: ThreadClient<u32, u32, u32> = ThreadClient::new(ClientId::reader(0));
        // One op that can complete on the lone survivor, one that cannot.
        let ok = client.submit_op(
            0,
            OpKind::Read,
            Box::new(Collect { need: 1, got: 0 }),
            Duration::from_secs(5),
        );
        let stuck = client.submit_op(
            0,
            OpKind::Read,
            Box::new(Collect { need: 3, got: 0 }),
            Duration::from_millis(80),
        );
        let mut seen = HashMap::new();
        while client.in_flight() > 0 {
            for r in client.pump(&targets) {
                seen.insert(r.nonce, r.output.is_some());
            }
        }
        assert_eq!(seen.get(&ok), Some(&true));
        assert_eq!(seen.get(&stuck), Some(&false));
    }
}
