//! The traced run's instruments. Each wrapper sits on a public seam of the
//! program — [`Transport::send_frames`] on the client side and
//! [`ObjectBehavior::on_request`] on the object side — and logs every call
//! with its timestamps, so the per-layer numbers come from the benchmark's
//! own code while the program itself stays untraced.
//!
//! Object requests are matched to the frames that caused them per
//! (client, object) in FIFO order: both substrates deliver one client's
//! frames to one object in send order (see [`match_frames`] for the
//! duplicates a socket client's resubmissions add).

use crate::stats::{mean, percentile_us};
use rastor_common::{ClientId, SplitMix64};
use rastor_core::msg::{Rep, Req};
use rastor_net::wire;
use rastor_sim::runtime::{ObjReply, ReqFrame, Transport};
use rastor_sim::ObjectBehavior;
use std::collections::HashMap;
use std::sync::mpsc::Sender;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Share of object requests whose messages are also re-encoded and decoded
/// to time the codec. Sampling keeps the codec's doubled cost out of most
/// traced requests; per-op figures are scaled back up by request count.
const WIRE_SAMPLE: f64 = 1.0 / 16.0;

/// The objects of one shard (t = 1).
pub const OBJECTS: usize = 4;

/// A round needs replies from at most `S - t` objects, so the third
/// object to finish applying a request is the one the client waits for.
const QUORUM: usize = 3;

/// One frame handed to `send_frames`.
struct FrameRec {
    client: ClientId,
    nonce: u64,
    /// Index of the `send_frames` call that carried it.
    call: u64,
    /// Entry into and return from that call.
    t0: u64,
    t1: u64,
    fingerprint: u64,
}

#[derive(Default)]
struct SendLog {
    calls: u64,
    frames: Vec<FrameRec>,
}

/// One `on_request` call at one object.
struct ObjRec {
    client: ClientId,
    fingerprint: u64,
    entry: u64,
    exit: u64,
    /// History entries in a collect reply (0 for acks).
    hist: u32,
    collect: bool,
}

/// Bytes, encode ns and decode ns of one message.
type Codec = (u64, u64, u64);

/// Codec work measured on one sampled request at one object.
struct WireSample {
    entry: u64,
    req: Codec,
    rep: Codec,
}

#[derive(Default)]
struct ObjLog {
    recs: Vec<ObjRec>,
    wire: Vec<WireSample>,
    /// Sampled messages that did not decode back to themselves.
    codec_errors: u64,
}

/// The shared sink of one traced deployment.
pub struct Probe {
    epoch: Instant,
    sends: Mutex<SendLog>,
    objects: Vec<Mutex<ObjLog>>,
}

impl Probe {
    /// A fresh probe whose timestamps count from `epoch`.
    pub fn new(epoch: Instant) -> Arc<Probe> {
        Arc::new(Probe {
            epoch,
            sends: Mutex::new(SendLog::default()),
            objects: (0..OBJECTS).map(|_| Mutex::default()).collect(),
        })
    }

    fn now(&self) -> u64 {
        crate::ns_since(self.epoch)
    }

    /// Wrap a shard transport.
    pub fn transport(
        self: &Arc<Probe>,
        inner: Box<dyn Transport<Req, Rep> + Send + Sync>,
    ) -> Box<dyn Transport<Req, Rep> + Send + Sync> {
        Box::new(ProbedTransport {
            inner,
            probe: Arc::clone(self),
        })
    }

    /// Wrap object `index`'s behavior.
    pub fn object(
        self: &Arc<Probe>,
        index: usize,
        inner: Box<dyn ObjectBehavior<Req, Rep> + Send>,
    ) -> Box<dyn ObjectBehavior<Req, Rep> + Send> {
        Box::new(ProbedObject {
            inner,
            probe: Arc::clone(self),
            index,
            rng: SplitMix64::new(index as u64 + 1),
        })
    }

    /// Wait (bounded) until every object has served every frame sent so
    /// far: an op completes on three replies, so the fourth object may
    /// still be working when the clients stop.
    pub fn settle(&self) {
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let sent = self.sends.lock().expect("send log lock").frames.len();
            let served = self
                .objects
                .iter()
                .map(|o| o.lock().expect("object log lock").recs.len())
                .min()
                .unwrap_or(0);
            if served >= sent || Instant::now() > deadline {
                return;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Reduce the logs to per-layer figures for the timed ops of `clients`
    /// (all in `[start, end]` ns since the epoch).
    pub fn analyze(&self, start: u64, end: u64, clients: &[TimedOps<'_>]) -> Layers {
        let sends = self.sends.lock().expect("send log lock");
        let objects: Vec<_> = self
            .objects
            .iter()
            .map(|o| o.lock().expect("object log lock"))
            .collect();
        let ops: usize = clients.iter().map(|c| c.invoked.len()).sum();
        let per_op = |total: f64| total / ops.max(1) as f64;

        // Each object's requests split per client, in arrival order.
        let mut by_client: Vec<HashMap<ClientId, Vec<&ObjRec>>> = vec![HashMap::new(); OBJECTS];
        for (o, log) in objects.iter().enumerate() {
            for r in &log.recs {
                by_client[o].entry(r.client).or_default().push(r);
            }
        }

        let mut calls = std::collections::HashSet::new();
        let mut rounds_us = Vec::new();
        let mut waits_us = Vec::new();
        let mut spreads_us = Vec::new();
        let mut gaps_us = Vec::new();
        let (mut send, mut wait, mut apply, mut gap) = (0u64, 0i64, 0u64, 0u64);
        let mut timed_frames = 0usize;
        for c in clients {
            let frames: Vec<&FrameRec> = sends
                .frames
                .iter()
                .filter(|f| f.client == c.client)
                .collect();
            // Nonces are issued in submission order, and the client's timed
            // ops were its last submissions: the n-th of its last nonces is
            // its n-th timed op.
            let mut nonces: Vec<u64> = frames.iter().map(|f| f.nonce).collect();
            nonces.sort_unstable();
            nonces.dedup();
            let first_timed = nonces.len().saturating_sub(c.invoked.len());
            let op_of: HashMap<u64, usize> = nonces[first_timed..]
                .iter()
                .enumerate()
                .map(|(i, &n)| (n, i))
                .collect();
            let served: Vec<Vec<Option<&ObjRec>>> = by_client
                .iter()
                .map(|m| match_frames(&frames, m.get(&c.client).map_or(&[], Vec::as_slice)))
                .collect();
            let mut next_send: HashMap<u64, u64> = HashMap::new();
            for (k, f) in frames.iter().enumerate().rev() {
                let Some(&op) = op_of.get(&f.nonce) else {
                    continue;
                };
                let until = next_send.insert(f.nonce, f.t0).unwrap_or(c.completed[op]);
                timed_frames += 1;
                calls.insert(f.call);
                rounds_us.push(until.saturating_sub(f.t0));
                send += f.t1 - f.t0;
                let mut at: Vec<(u64, u64)> = served
                    .iter()
                    .filter_map(|s| s[k])
                    .map(|r| (r.exit, r.entry))
                    .collect();
                // The object whose reply completed the round: the third to
                // finish applying, or the last to finish before the round
                // ended when the protocol needed fewer replies.
                at.sort_unstable();
                let done = at.iter().filter(|a| a.0 <= until).count().min(QUORUM);
                let Some(&(x3, e3)) = done.checked_sub(1).and_then(|i| at.get(i)) else {
                    continue;
                };
                let first = at.iter().map(|a| a.1).min().unwrap_or(e3);
                let last = at.iter().map(|a| a.1).max().unwrap_or(e3);
                waits_us.push(e3 - f.t0);
                spreads_us.push(last - first);
                gaps_us.push(until.saturating_sub(x3));
                wait += e3 as i64 - f.t1 as i64;
                apply += x3 - e3;
                gap += until.saturating_sub(x3);
            }
        }
        let latency: u64 = clients
            .iter()
            .flat_map(|c| c.invoked.iter().zip(c.completed).map(|(i, d)| d - i))
            .sum();

        // Object-side work inside the timed window.
        let tenth = (end - start) / 10;
        let (mut requests, mut busy, mut mutations, mut mutation_busy) = (0u64, 0u64, 0u64, 0u64);
        let mut hist = [Vec::new(), Vec::new(), Vec::new()];
        let (mut req_bytes, mut rep_bytes, mut enc, mut dec) = (0.0, 0.0, 0.0, 0.0);
        let mut codec_errors = 0;
        for (o, log) in objects.iter().enumerate() {
            let timed: Vec<&ObjRec> = log
                .recs
                .iter()
                .filter(|r| r.entry >= start && r.entry <= end)
                .collect();
            requests += timed.len() as u64;
            for r in &timed {
                busy += r.exit - r.entry;
                if r.collect {
                    hist[0].push(f64::from(r.hist));
                    if r.entry < start + tenth {
                        hist[1].push(f64::from(r.hist));
                    }
                    if r.entry > end - tenth {
                        hist[2].push(f64::from(r.hist));
                    }
                } else {
                    mutations += 1;
                    mutation_busy += r.exit - r.entry;
                }
            }
            // Scale the sampled codec work to every request this object
            // served. A request is encoded once per send and decoded once
            // by the server for all the objects it hosts, so requests count
            // at object 0 only; every object encodes its own reply.
            let samples: Vec<&WireSample> = log
                .wire
                .iter()
                .filter(|w| w.entry >= start && w.entry <= end)
                .collect();
            codec_errors += log.codec_errors;
            if samples.is_empty() {
                continue;
            }
            let scale = timed.len() as f64 / samples.len() as f64;
            let mut add = |c: Codec| {
                enc += c.1 as f64 * scale;
                dec += c.2 as f64 * scale;
                c.0 as f64 * scale
            };
            for w in samples {
                rep_bytes += add(w.rep);
                if o == 0 {
                    req_bytes += add(w.req);
                }
            }
        }
        let frames_timed = timed_frames as f64;
        let us = |ns: f64| ns / 1e3;
        Layers {
            frames_per_op: per_op(frames_timed),
            frames_per_send: frames_timed / calls.len().max(1) as f64,
            round_us_p50: percentile_us(&mut rounds_us, 0.5),
            requests_per_op: per_op(requests as f64),
            wait_us_p50: percentile_us(&mut waits_us, 0.5),
            wait_spread_us_p50: percentile_us(&mut spreads_us, 0.5),
            gap_us_p50: percentile_us(&mut gaps_us, 0.5),
            apply_us: us(per_op(busy as f64)),
            hist_entries: [mean(&hist[0]), mean(&hist[1]), mean(&hist[2])],
            req_bytes: per_op(req_bytes),
            rep_bytes: per_op(rep_bytes),
            encode_us: us(per_op(enc)),
            decode_us: us(per_op(dec)),
            mutation_apply_us: us(mutation_busy as f64 / mutations.max(1) as f64),
            codec_errors,
            budget: Budget {
                send: us(per_op(send as f64)),
                wait: us(per_op(wait as f64)),
                apply: us(per_op(apply as f64)),
                gap: us(per_op(gap as f64)),
                latency: us(per_op(latency as f64)),
            },
        }
    }
}

/// One client's timed ops in submission order (ns since the epoch).
pub struct TimedOps<'a> {
    pub client: ClientId,
    pub invoked: &'a [u64],
    pub completed: &'a [u64],
}

/// Where one op's time went, per op, in µs: the parts of each round on the
/// client's critical path, summed over the op's rounds.
#[derive(Clone, Copy, Default)]
pub struct Budget {
    /// Inside `send_frames`.
    pub send: f64,
    /// `send_frames` return → the object whose reply completed the round
    /// (the third to finish applying) starts the request.
    pub wait: f64,
    /// That object's `on_request`.
    pub apply: f64,
    /// Its apply end → the op's next send, or the op's completion.
    pub gap: f64,
    /// Client-observed op latency.
    pub latency: f64,
}

impl Budget {
    /// Latency the rounds do not account for: submission to first send.
    pub fn residual(&self) -> f64 {
        self.latency - self.send - self.wait - self.apply - self.gap
    }
}

/// Per-layer figures of one traced deployment (per op unless named
/// otherwise).
#[derive(Clone, Copy, Default)]
pub struct Layers {
    pub frames_per_op: f64,
    pub frames_per_send: f64,
    pub round_us_p50: f64,
    pub requests_per_op: f64,
    pub wait_us_p50: f64,
    pub wait_spread_us_p50: f64,
    pub gap_us_p50: f64,
    pub apply_us: f64,
    /// Mean history entries per collect reply: whole phase, first tenth,
    /// last tenth.
    pub hist_entries: [f64; 3],
    pub req_bytes: f64,
    pub rep_bytes: f64,
    pub encode_us: f64,
    pub decode_us: f64,
    /// Mean `on_request` time of one mutation (store, pre-write, commit).
    pub mutation_apply_us: f64,
    /// Sampled messages the codec did not round-trip.
    pub codec_errors: u64,
    pub budget: Budget,
}

/// A hash of a request's content, to tell one frame's request from the
/// others of its client.
fn fingerprint(req: &Req) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    match req {
        Req::Collect { regs } => (0u8, regs).hash(&mut h),
        Req::Store { reg, pair } => (1u8, reg, pair).hash(&mut h),
        Req::PreWrite { reg, pair } => (2u8, reg, pair).hash(&mut h),
        Req::Commit { reg, pair } => (3u8, reg, pair).hash(&mut h),
    }
    h.finish()
}

/// Match one client's frames, in send order, to one object's requests
/// from that client, in arrival order. Arrival follows send order, but a
/// socket client re-broadcasts a flush that stalls (`net::client`
/// resubmission), so the object may serve a request more than once:
/// each frame takes the first later request with its content that started
/// after the frame was sent, and the duplicates in between are skipped.
fn match_frames<'a>(frames: &[&FrameRec], recs: &[&'a ObjRec]) -> Vec<Option<&'a ObjRec>> {
    let mut next = 0;
    frames
        .iter()
        .map(|f| {
            let found = recs[next..]
                .iter()
                .position(|r| r.fingerprint == f.fingerprint && r.entry >= f.t0)?;
            next += found + 1;
            Some(recs[next - 1])
        })
        .collect()
}

struct ProbedTransport {
    inner: Box<dyn Transport<Req, Rep> + Send + Sync>,
    probe: Arc<Probe>,
}

impl Transport<Req, Rep> for ProbedTransport {
    fn send_frames(
        &self,
        from: ClientId,
        frames: &[ReqFrame<Req>],
        reply_to: &Sender<ObjReply<Rep>>,
    ) {
        let t0 = self.probe.now();
        self.inner.send_frames(from, frames, reply_to);
        let t1 = self.probe.now();
        let mut log = self.probe.sends.lock().expect("send log lock");
        let call = log.calls;
        log.calls += 1;
        log.frames.extend(frames.iter().map(|f| FrameRec {
            client: from,
            nonce: f.op_nonce,
            call,
            t0,
            t1,
            fingerprint: fingerprint(&f.payload),
        }));
    }
}

struct ProbedObject {
    inner: Box<dyn ObjectBehavior<Req, Rep> + Send>,
    probe: Arc<Probe>,
    index: usize,
    rng: SplitMix64,
}

/// Encode then decode one message: its cost, or `None` if it did not
/// decode back to itself.
fn codec<M: PartialEq>(
    msg: &M,
    encode: fn(&M, &mut Vec<u8>),
    decode: fn(&[u8]) -> rastor_common::Result<M>,
) -> Option<Codec> {
    let mut buf = Vec::new();
    let t = Instant::now();
    encode(msg, &mut buf);
    let encoded = t.elapsed();
    let t = Instant::now();
    let back = decode(&buf);
    let decoded = t.elapsed();
    (back.as_ref() == Ok(msg)).then_some((
        buf.len() as u64,
        encoded.as_nanos() as u64,
        decoded.as_nanos() as u64,
    ))
}

impl ObjectBehavior<Req, Rep> for ProbedObject {
    fn on_request(&mut self, from: ClientId, req: &Req) -> Option<Rep> {
        let entry = self.probe.now();
        let rep = self.inner.on_request(from, req);
        let exit = self.probe.now();
        let hist = match &rep {
            Some(Rep::Views { views }) => views.iter().map(|(_, v)| v.hist.len() as u32).sum(),
            _ => 0,
        };
        let sampled = self.rng.next_f64() < WIRE_SAMPLE;
        let wire_cost = sampled.then(|| {
            let req_cost = codec(req, wire::encode_req, wire::decode_req);
            let rep_cost = match &rep {
                Some(r) => codec(r, wire::encode_rep, wire::decode_rep),
                None => Some((0, 0, 0)),
            };
            req_cost.zip(rep_cost)
        });
        let mut log = self.probe.objects[self.index]
            .lock()
            .expect("object log lock");
        log.recs.push(ObjRec {
            client: from,
            fingerprint: fingerprint(req),
            entry,
            exit,
            hist,
            collect: matches!(req, Req::Collect { .. }),
        });
        match wire_cost {
            Some(Some((req, rep))) => log.wire.push(WireSample { entry, req, rep }),
            Some(None) => log.codec_errors += 1,
            None => {}
        }
        rep
    }
}
