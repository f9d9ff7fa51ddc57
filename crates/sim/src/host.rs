//! [`ObjectHost`]: the one real-time object host, shared by the
//! in-process [`ThreadCluster`](crate::runtime::ThreadCluster) and
//! `rastor_net`'s TCP `ObjectServer`.
//!
//! In the paper's model a base object is a passive automaton: it answers
//! requests over a reliable FIFO link, and it may crash and later rejoin.
//! Nothing in that model depends on whether the link is a channel or a
//! socket, so both substrates host objects here and differ only in the
//! [`ReplySink`] a request envelope carries: a client's reply channel
//! in-process, the requesting connection on a server.
//!
//! All hosted objects are served by one fixed pool of [`EXECUTORS`]
//! threads, so thread count is independent of how many objects the host
//! runs. Each object processes envelopes serially and in arrival order (a
//! per-object FIFO queue drained by one executor at a time). Optional
//! per-envelope service jitter delays an envelope's *release* to the
//! executors — a timer, not a sleep, so a "busy" object never holds a
//! thread. [`ObjectHost::crash_object`] lets the envelope in flight
//! finish, then drops the behavior, so queued and future requests to that
//! object vanish.
//!
//! Objects carry **cluster-global** ids `first_id ..`, so a logical
//! cluster may be split across several hosts (each hosting a slice of the
//! object range) and clients see one consistent id space.

use crate::engine::ObjectBehavior;
use crate::runtime::{ObjReply, RepFrame, ReqFrame};
use rastor_common::{ClientId, ObjectId, SplitMix64};
use rastor_obs::{trace, TimeRing};
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Executor threads per host: the pool that runs object behaviors
/// (including their durability I/O). Fixed — more objects never mean
/// more threads.
pub const EXECUTORS: usize = 2;

/// Where a hosted object's reply envelope goes: each request envelope
/// carries the sink its replies are owed to. Delivery is best-effort — a
/// departed client or a closed connection simply loses the reply.
pub trait ReplySink<R>: Clone + Send + 'static {
    /// Deliver object `from`'s replies to client `to`.
    fn deliver(&self, from: ObjectId, to: ClientId, frames: Vec<RepFrame<R>>);
}

/// The in-process sink: a client's reply channel.
impl<R: Send + 'static> ReplySink<R> for Sender<ObjReply<R>> {
    fn deliver(&self, from: ObjectId, _to: ClientId, frames: Vec<RepFrame<R>>) {
        // The client may have finished; ignore send errors.
        let _ = self.send(ObjReply { from, frames });
    }
}

/// One coalesced request envelope, queued for one hosted object.
struct Job<Q, S> {
    client: ClientId,
    /// Shared across the object fan-out: one allocation per envelope.
    frames: Arc<[ReqFrame<Q>]>,
    sink: S,
    /// When the envelope was submitted (trace clock µs; 0 when no frame
    /// in the envelope is traced) — start of the `server.queue` span.
    enqueued_us: u64,
}

/// One hosted object's serving state.
struct Slot<Q, R, S> {
    /// `None` = crashed. An executor holds this lock exactly while
    /// processing one envelope, so `crash_object` (which takes it to set
    /// `None`) waits out the envelope in flight and no longer.
    behavior: Mutex<Option<Box<dyn ObjectBehavior<Q, R> + Send>>>,
    /// Request envelopes served since (re)start.
    served: AtomicU64,
    /// Released envelopes awaiting an executor, in arrival order.
    queue: Mutex<VecDeque<Job<Q, S>>>,
    /// Whether the object is on the run queue or being drained — one
    /// executor at a time per object keeps processing serial and FIFO.
    scheduled: AtomicBool,
    /// Jitter bookkeeping: when the object's service "pipe" frees up, and
    /// the object's deterministic jitter stream.
    busy: Mutex<(Instant, SplitMix64)>,
}

/// Jitter-delayed envelopes by `(release time, sequence number)`, each
/// with the index of the object it is queued for.
type Timers<Q, S> = BTreeMap<(Instant, u64), (usize, Job<Q, S>)>;

/// The state the executor pool shares with the host handle.
struct State<Q, R, S> {
    first_id: u32,
    jitter: Option<Duration>,
    /// Where per-frame apply time goes, if the front end keeps a ring.
    apply_ring: Option<Arc<TimeRing>>,
    slots: Vec<Slot<Q, R, S>>,
    /// Object indices with released work, drained by the executor pool.
    runq: Mutex<VecDeque<usize>>,
    runq_cv: Condvar,
    /// Jitter-delayed envelopes, released by the executors themselves (a
    /// condvar `wait_timeout` to the next deadline), so no front end — in
    /// particular no socket readiness loop — has to spin on
    /// sub-millisecond ticks.
    timers: Mutex<Timers<Q, S>>,
    timer_seq: AtomicU64,
    /// Bumped under the `runq` lock on every timer push, so an executor
    /// that computed its wait deadline before the push notices the new
    /// (possibly earlier) timer instead of oversleeping it.
    timer_epoch: AtomicU64,
    shutdown: AtomicBool,
}

impl<Q, R, S: ReplySink<R>> State<Q, R, S> {
    /// Put `obj` on the run queue unless an executor already owns it.
    fn enqueue_run(&self, obj: usize) {
        if self.slots[obj]
            .scheduled
            .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
        {
            self.runq.lock().expect("run queue lock").push_back(obj);
            self.runq_cv.notify_one();
        }
    }

    /// Release every due jitter timer onto its object queue; returns the
    /// next release deadline, if any timers remain.
    fn flush_timers(&self, now: Instant) -> Option<Instant> {
        let mut timers = self.timers.lock().expect("timer lock");
        while let Some(entry) = timers.first_entry().filter(|e| e.key().0 <= now) {
            let (obj, job) = entry.remove();
            self.slots[obj]
                .queue
                .lock()
                .expect("object queue lock")
                .push_back(job);
            self.enqueue_run(obj);
        }
        timers.first_key_value().map(|(&(at, _), _)| at)
    }

    /// Claim the next object with released work, parking until there is
    /// one. `None` means "look again" (a wakeup is a hint, not a claim),
    /// or shutdown when the flag is set.
    fn next_runnable(&self) -> Option<usize> {
        let epoch = self.timer_epoch.load(Ordering::Acquire);
        let next_release = self.flush_timers(Instant::now());
        let mut runq = self.runq.lock().expect("run queue lock");
        if self.shutdown.load(Ordering::Acquire) {
            return None;
        }
        if let Some(obj) = runq.pop_front() {
            return Some(obj);
        }
        // Nothing runnable: park until new work (notified), a fresh timer
        // (epoch bump, checked under this lock), or the release deadline.
        if self.timer_epoch.load(Ordering::Acquire) == epoch {
            match next_release {
                Some(at) => {
                    let now = Instant::now();
                    if at > now {
                        let _ = self
                            .runq_cv
                            .wait_timeout(runq, at - now)
                            .expect("run queue condvar");
                    }
                }
                None => drop(self.runq_cv.wait(runq).expect("run queue condvar")),
            }
        }
        None
    }

    /// Drain `obj`'s queue serially, then hand the object back.
    fn drain(&self, obj: usize) {
        let slot = &self.slots[obj];
        let oid = ObjectId(self.first_id + obj as u32);
        loop {
            let job = slot.queue.lock().expect("object queue lock").pop_front();
            let Some(job) = job else { break };
            let mut behavior = slot.behavior.lock().expect("behavior lock");
            // Crashed object: the job vanishes, like a request to a dead
            // process.
            let Some(b) = behavior.as_mut() else { continue };
            slot.served.fetch_add(1, Ordering::Relaxed);
            let frames = self.apply(oid, b.as_mut(), &job);
            drop(behavior);
            if !frames.is_empty() {
                job.sink.deliver(oid, job.client, frames);
            }
        }
        slot.scheduled.store(false, Ordering::Release);
        // An envelope may have been released between the drain and the
        // flag clear; reclaim the object so it is never stranded.
        if !slot.queue.lock().expect("object queue lock").is_empty() {
            self.enqueue_run(obj);
        }
    }

    /// Run one envelope through a behavior. Traced frames get a
    /// `server.queue` span (submission to executor pickup) and a
    /// `server.apply` span around the behavior, with the thread trace
    /// context set so durable behaviors hang WAL spans under the same
    /// trace. Untraced frames skip the clock unless an apply ring wants
    /// the time.
    fn apply(
        &self,
        oid: ObjectId,
        b: &mut (dyn ObjectBehavior<Q, R> + Send),
        job: &Job<Q, S>,
    ) -> Vec<RepFrame<R>> {
        let dequeued_us = if job.enqueued_us != 0 {
            trace::epoch_us()
        } else {
            0
        };
        job.frames
            .iter()
            .filter_map(|f| {
                let traced = f.trace != trace::NO_TRACE;
                let rep = if !traced && self.apply_ring.is_none() {
                    b.on_request(job.client, &f.payload)
                } else {
                    let detail = u64::from(oid.0);
                    if traced {
                        let (from, to) = (job.enqueued_us, dequeued_us);
                        trace::global().record(
                            f.trace,
                            trace::span::SERVER_QUEUE,
                            detail,
                            from,
                            to,
                        );
                    }
                    let start = trace::epoch_us();
                    let prev = trace::set_current(f.trace);
                    let rep = b.on_request(job.client, &f.payload);
                    trace::set_current(prev);
                    let end = trace::epoch_us();
                    if traced {
                        trace::global().record(
                            f.trace,
                            trace::span::SERVER_APPLY,
                            detail,
                            start,
                            end,
                        );
                    }
                    if let Some(ring) = &self.apply_ring {
                        ring.record(end.saturating_sub(start));
                    }
                    rep
                };
                rep.map(|payload| RepFrame {
                    op_nonce: f.op_nonce,
                    round: f.round,
                    trace: f.trace,
                    payload,
                })
            })
            .collect()
    }
}

/// A set of storage objects served by a fixed executor pool (see the
/// module docs). Dropping the host stops the pool; queued envelopes are
/// discarded.
pub struct ObjectHost<Q, R, S> {
    state: Arc<State<Q, R, S>>,
    executors: Vec<JoinHandle<()>>,
}

impl<Q, R, S> ObjectHost<Q, R, S>
where
    Q: Send + Sync + 'static,
    R: Send + 'static,
    S: ReplySink<R>,
{
    /// Host `behaviors` as objects `0..` with no apply ring — see
    /// [`ObjectHost::spawn_at`].
    pub fn spawn(
        behaviors: Vec<Box<dyn ObjectBehavior<Q, R> + Send>>,
        jitter: Option<Duration>,
    ) -> ObjectHost<Q, R, S> {
        ObjectHost::spawn_at(behaviors, 0, jitter, None)
    }

    /// Start the executor pool and host `behaviors` as the objects
    /// `first_id .. first_id + behaviors.len()`. `jitter` optionally adds
    /// a random service delay up to the given duration **per envelope**
    /// (not per frame) at every object — one emulated network/storage
    /// round trip per coalesced batch, which is exactly why batching
    /// pays. `apply_ring`, when given, records every frame's apply time.
    pub fn spawn_at(
        behaviors: Vec<Box<dyn ObjectBehavior<Q, R> + Send>>,
        first_id: u32,
        jitter: Option<Duration>,
        apply_ring: Option<Arc<TimeRing>>,
    ) -> ObjectHost<Q, R, S> {
        let now = Instant::now();
        let slots = behaviors
            .into_iter()
            .enumerate()
            .map(|(i, b)| Slot {
                behavior: Mutex::new(Some(b)),
                served: AtomicU64::new(0),
                queue: Mutex::new(VecDeque::new()),
                scheduled: AtomicBool::new(false),
                busy: Mutex::new((now, SplitMix64::new(u64::from(first_id + i as u32)))),
            })
            .collect();
        let state = Arc::new(State {
            first_id,
            jitter,
            apply_ring,
            slots,
            runq: Mutex::new(VecDeque::new()),
            runq_cv: Condvar::new(),
            timers: Mutex::new(BTreeMap::new()),
            timer_seq: AtomicU64::new(0),
            timer_epoch: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
        });
        let executors = (0..EXECUTORS)
            .map(|_| {
                let state = Arc::clone(&state);
                std::thread::spawn(move || {
                    while !state.shutdown.load(Ordering::Acquire) {
                        if let Some(obj) = state.next_runnable() {
                            state.drain(obj);
                        }
                    }
                })
            })
            .collect();
        ObjectHost { state, executors }
    }

    /// Queue one request envelope for every hosted object (crashed ones
    /// drop it at pickup), through the jitter timer when the host runs
    /// with service delay. Replies go to `sink`.
    pub fn submit(&self, client: ClientId, frames: Arc<[ReqFrame<Q>]>, sink: &S) {
        let state = &*self.state;
        let now = Instant::now();
        // One clock read per envelope, skipped entirely when untraced.
        let enqueued_us = if frames.iter().any(|f| f.trace != trace::NO_TRACE) {
            trace::epoch_us()
        } else {
            0
        };
        for (i, slot) in state.slots.iter().enumerate() {
            let job = Job {
                client,
                frames: Arc::clone(&frames),
                sink: sink.clone(),
                enqueued_us,
            };
            let Some(j) = state.jitter else {
                slot.queue.lock().expect("object queue lock").push_back(job);
                state.enqueue_run(i);
                continue;
            };
            // The object serves envelopes one at a time, each taking a
            // random slice of `jitter`.
            let mut busy = slot.busy.lock().expect("busy lock");
            let start = busy.0.max(now);
            let release = start + j.mul_f64(busy.1.next_f64());
            busy.0 = release;
            drop(busy);
            let seq = state.timer_seq.fetch_add(1, Ordering::Relaxed);
            state
                .timers
                .lock()
                .expect("timer lock")
                .insert((release, seq), (i, job));
            // Epoch bump + notify under the runq lock: an executor
            // re-checks the epoch under the same lock before parking, so
            // this wakeup cannot be lost.
            let _runq = state.runq.lock().expect("run queue lock");
            state.timer_epoch.fetch_add(1, Ordering::Release);
            state.runq_cv.notify_one();
        }
    }

    /// The first cluster-global object id hosted here.
    pub fn first_id(&self) -> u32 {
        self.state.first_id
    }

    /// Number of hosted objects (including crashed ones).
    pub fn num_objects(&self) -> usize {
        self.state.slots.len()
    }

    /// Threads this host runs: always [`EXECUTORS`].
    pub fn thread_count(&self) -> usize {
        self.executors.len()
    }

    /// Whether hosted object `id` is currently crashed.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not hosted here.
    pub fn is_crashed(&self, id: ObjectId) -> bool {
        self.slot(id)
            .behavior
            .lock()
            .expect("behavior lock")
            .is_none()
    }

    /// Request envelopes object `id` served since it was (re)started.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not hosted here.
    pub fn served(&self, id: ObjectId) -> u64 {
        self.slot(id).served.load(Ordering::Relaxed)
    }

    /// Crash hosted object `id`: the envelope it is processing finishes,
    /// then the behavior is dropped (closing whatever it holds open), and
    /// queued and future requests to it are silently discarded. Waits
    /// for at most that one envelope, never for clients.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not hosted here.
    pub fn crash_object(&self, id: ObjectId) {
        *self.slot(id).behavior.lock().expect("behavior lock") = None;
    }

    /// Restart hosted object `id` with a fresh behavior: the old one is
    /// crashed first (if still live), then the new one takes over the id
    /// with the same service-jitter profile. Clients keep their links and
    /// simply see the object answering again.
    ///
    /// The host is behavior-agnostic, so *what state the object comes
    /// back with* is the caller's policy: pass a freshly recovered
    /// `rastor_store`-style durable behavior for kill-then-recover
    /// semantics, or a blank one to model an amnesiac rejoin (which counts
    /// against the fault budget like any other deviation from "correct").
    ///
    /// # Panics
    ///
    /// Panics if `id` is not hosted here.
    pub fn restart_object(&self, id: ObjectId, behavior: Box<dyn ObjectBehavior<Q, R> + Send>) {
        let slot = self.slot(id);
        *slot.behavior.lock().expect("behavior lock") = Some(behavior);
        slot.served.store(0, Ordering::Relaxed);
    }

    fn slot(&self, id: ObjectId) -> &Slot<Q, R, S> {
        id.0.checked_sub(self.state.first_id)
            .and_then(|i| self.state.slots.get(i as usize))
            .unwrap_or_else(|| panic!("object {} is not hosted here", id.0))
    }
}

impl<Q, R, S> Drop for ObjectHost<Q, R, S> {
    fn drop(&mut self) {
        self.state.shutdown.store(true, Ordering::SeqCst);
        // Notify under the runq lock so no executor can be between its
        // shutdown check and its park when the flag flips.
        let runq = self.state.runq.lock().expect("run queue lock");
        self.state.runq_cv.notify_all();
        drop(runq);
        for h in self.executors.drain(..) {
            let _ = h.join();
        }
    }
}
