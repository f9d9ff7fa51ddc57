//! [`ObjectServer`]: a TCP listener hosting one or more storage objects.
//!
//! The server is the [`crate::reactor`] in front of the same
//! [`rastor_sim::host::ObjectHost`] that serves the in-process
//! [`rastor_sim::runtime::ThreadCluster`]: the reactor decodes request
//! envelopes and hands them to the host, and the host's replies go back
//! through a [`ConnHandle`] sink that encodes them as [`RepEnvelope`]s on
//! the connection the request came in on, tagged with the requesting
//! client so one connection can be shared by many clients. All
//! connections and all hosted objects are served by two small fixed
//! pools — [`crate::reactor::DEFAULT_WORKERS`] reactor threads for frame
//! I/O plus the host's [`EXECUTORS`] executor threads for object work —
//! so thread count is independent of how many objects the server hosts or
//! how many connections are open.
//!
//! Object semantics are the host's: serial FIFO processing per object,
//! per-envelope service jitter as a release timer (so in-band status
//! queries stay responsive while objects are "busy"), and
//! [`ObjectServer::crash_object`] letting the envelope in flight finish
//! before queued and future requests to the object vanish.
//!
//! Objects carry **cluster-global** ids `first_id ..`, so a logical
//! cluster may be split across several servers (each hosting a slice of
//! the object range) and clients see one consistent id space.

use crate::reactor::{ConnHandle, Events, Reactor, ReactorHandle};
use crate::wire::{self, Frame, ObjectStatus, RepEnvelope, WireRepFrame};
use rastor_common::{ClientId, Error, ObjectId, Result};
use rastor_core::msg::{Rep, Req};
use rastor_obs::{names, trace, Counter, Registry};
use rastor_sim::host::{ObjectHost, ReplySink};
use rastor_sim::runtime::{RepFrame, ReqFrame};
use rastor_sim::ObjectBehavior;
use std::net::{SocketAddr, TcpListener};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// Executor threads per server: the object host's pool, decoupled from
/// the reactor threads that move frames.
pub use rastor_sim::host::EXECUTORS;

/// The `net.*` seam handles, resolved once per process (servers and
/// connections come and go; the counters accumulate across all of them).
struct NetMetrics {
    frames_in: Arc<Counter>,
    frames_out: Arc<Counter>,
    version_mismatches: Arc<Counter>,
    status_queries: Arc<Counter>,
    /// Per-minute envelope handling time — what `rastor watch` draws,
    /// so a pure serving process has a live ring even though the kv-seam
    /// rings live in its clients.
    envelopes_ring: Arc<rastor_obs::TimeRing>,
}

fn net_metrics() -> &'static NetMetrics {
    static METRICS: OnceLock<NetMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = Registry::global();
        NetMetrics {
            frames_in: r.counter(names::NET_FRAMES_IN),
            frames_out: r.counter(names::NET_FRAMES_OUT),
            version_mismatches: r.counter(names::NET_VERSION_MISMATCHES),
            status_queries: r.counter(names::NET_STATUS_QUERIES),
            envelopes_ring: r.ring(names::NET_ENVELOPES_RING_US, 60, Duration::from_secs(60)),
        }
    })
}

/// The reply sink of a served envelope: the requesting connection.
/// Each traced frame's server-side work is closed (`finish`) here —
/// server-side slow-op capture judges envelopes, not whole client ops.
/// (The in-process sink must not do this: there the trace is the
/// client's own, still open.)
impl ReplySink<Rep> for ConnHandle {
    fn deliver(&self, from: ObjectId, to: ClientId, frames: Vec<RepFrame<Rep>>) {
        if frames.iter().any(|f| f.trace != trace::NO_TRACE) {
            let end = trace::epoch_us();
            for f in &frames {
                trace::global().finish(f.trace, end);
            }
        }
        let frames = frames
            .into_iter()
            .map(|f| WireRepFrame {
                op_nonce: f.op_nonce,
                round: f.round,
                trace: f.trace,
                rep: f.payload,
            })
            .collect();
        reply(self, &Frame::Rep(RepEnvelope { to, from, frames }));
    }
}

/// Reply on a connection, counting the frame out.
fn reply(conn: &ConnHandle, frame: &Frame) {
    if conn.send(wire::encode_frame(frame)) {
        net_metrics().frames_out.inc();
    }
}

/// The hosted objects, replying on the requesting connection.
type Host = ObjectHost<Req, Rep, ConnHandle>;

fn object_statuses(host: &Host) -> Vec<ObjectStatus> {
    let first = host.first_id();
    (first..first + host.num_objects() as u32)
        .map(ObjectId)
        .map(|id| ObjectStatus {
            id,
            crashed: host.is_crashed(id),
            served: host.served(id),
        })
        .collect()
}

/// The server's frame handler: request envelopes go to the object host,
/// the ops plane is answered in-band.
impl Events for Host {
    fn on_frame(&self, conn: &ConnHandle, raw: &[u8]) {
        if wire::raw_version(raw) != wire::WIRE_VERSION {
            // The framing layer admitted the foreign frame whole, so the
            // stream is still aligned: tell the peer which version this
            // build speaks — echoing the refused frame's leading corr so a
            // multiplexed client can attribute the refusal — and keep
            // serving the connection.
            net_metrics().version_mismatches.inc();
            reply(
                conn,
                &Frame::VersionMismatch {
                    got: wire::raw_version(raw),
                    want: wire::WIRE_VERSION,
                    corr: wire::raw_corr(raw),
                },
            );
            return;
        }
        let frame = match wire::decode_frame(raw) {
            Ok((frame, _)) => frame,
            Err(_) => {
                conn.close();
                return;
            }
        };
        match frame {
            Frame::Req(env) => {
                net_metrics().frames_in.inc();
                let frames: Arc<[ReqFrame<Req>]> = env
                    .frames
                    .into_iter()
                    .map(|f| ReqFrame {
                        op_nonce: f.op_nonce,
                        round: f.round,
                        trace: f.trace,
                        payload: Arc::new(f.req),
                    })
                    .collect();
                self.submit(env.from, frames, conn);
            }
            // The ops plane, answered in-band so control replies
            // interleave with (never reorder within) the data stream.
            Frame::StatusReq { corr } => {
                net_metrics().status_queries.inc();
                reply(
                    conn,
                    &Frame::Status {
                        corr,
                        objects: object_statuses(self),
                    },
                );
            }
            Frame::MetricsReq { corr } => {
                net_metrics().status_queries.inc();
                reply(
                    conn,
                    &Frame::Metrics {
                        corr,
                        json: Registry::global().snapshot_json(),
                    },
                );
            }
            Frame::TraceReq { corr } => {
                net_metrics().status_queries.inc();
                reply(
                    conn,
                    &Frame::Trace {
                        corr,
                        json: trace::global().traces_json(),
                    },
                );
            }
            Frame::Report { corr, counts } => {
                let registry = Registry::global();
                for (name, n) in &counts {
                    // Remote input: invalid names are dropped, not fatal.
                    let _ = registry.add_counter(name, *n);
                }
                reply(conn, &Frame::Ack { corr });
            }
            Frame::AdminReq { corr, .. } => {
                // Admin verbs act on a whole deployment (durability,
                // proxies); they belong to the ops listener, not an
                // object server. Refuse politely instead of hanging up.
                reply(
                    conn,
                    &Frame::AdminRep {
                        corr,
                        ok: false,
                        detail: "object servers take no admin commands; \
                                 send them to the deployment's ops listener"
                            .into(),
                    },
                );
            }
            // A reply or negotiation frame from a client is a protocol
            // violation; the connection is done.
            _ => conn.close(),
        }
    }

    // No `on_tick`: the server keeps no reactor-side timers. Jitter
    // release runs on the host's executors, so the readiness loop parks
    // until actual socket readiness no matter how many connections it is
    // watching.
}

/// A TCP server hosting a slice of a cluster's storage objects.
///
/// Dropping the server shuts down the listener, every accepted connection
/// and the executor pool.
pub struct ObjectServer {
    addr: SocketAddr,
    host: Arc<Host>,
    reactor: Option<Reactor>,
    handle: ReactorHandle,
}

impl ObjectServer {
    /// Bind a loopback listener and serve `behaviors` from the fixed
    /// thread pools. Hosted objects take the cluster-global ids `first_id
    /// .. first_id + behaviors.len()`. `jitter`, as in
    /// [`rastor_sim::runtime::ThreadCluster::spawn`], adds a random
    /// service delay up to the given duration per envelope per object.
    ///
    /// # Errors
    ///
    /// [`Error::Io`] if the listener cannot bind.
    pub fn spawn(
        behaviors: Vec<Box<dyn ObjectBehavior<Req, Rep> + Send>>,
        first_id: u32,
        jitter: Option<Duration>,
    ) -> Result<ObjectServer> {
        let listener = TcpListener::bind(("127.0.0.1", 0))
            .map_err(|e| Error::io("binding an object server listener", &e))?;
        let addr = listener
            .local_addr()
            .map_err(|e| Error::io("reading the bound listener address", &e))?;
        let ring = Arc::clone(&net_metrics().envelopes_ring);
        let host = Arc::new(Host::spawn_at(behaviors, first_id, jitter, Some(ring)));
        let reactor = Reactor::spawn(Arc::clone(&host) as Arc<dyn Events>, Some(listener))?;
        let handle = reactor.handle();
        Ok(ObjectServer {
            addr,
            host,
            reactor: Some(reactor),
            handle,
        })
    }

    /// The address clients (or a chaos proxy) connect to.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Number of hosted objects (including crashed ones).
    pub fn num_objects(&self) -> usize {
        self.host.num_objects()
    }

    /// The first cluster-global object id hosted here.
    pub fn first_id(&self) -> u32 {
        self.host.first_id()
    }

    /// Threads this server runs, total: reactor workers plus executors.
    /// Fixed at spawn — hosting more objects or accepting more
    /// connections never grows it.
    pub fn thread_count(&self) -> usize {
        self.reactor.as_ref().map_or(0, Reactor::worker_count) + self.host.thread_count()
    }

    /// Sever every accepted connection, keeping the listener and the
    /// objects up — the mid-traffic socket-kill fault injector. Clients
    /// recover by reconnecting and resubmitting.
    pub fn drop_connections(&self) {
        self.handle.close_all();
    }

    /// Crash a hosted object (by cluster-global id): any envelope it is
    /// processing finishes, then queued and future requests to it are
    /// silently dropped — reachable while clients stay connected (see
    /// [`ObjectHost::crash_object`]).
    ///
    /// # Panics
    ///
    /// Panics if `id` is not hosted by this server.
    pub fn crash_object(&self, id: ObjectId) {
        self.host.crash_object(id);
    }

    /// Restart a hosted object (by cluster-global id) with a fresh
    /// behavior: connected clients keep talking to the same address and
    /// simply see the object answering again. Pass a
    /// `rastor_store`-recovered durable behavior for kill-then-recover
    /// semantics (see [`ObjectHost::restart_object`]).
    ///
    /// # Panics
    ///
    /// Panics if `id` is not hosted by this server.
    pub fn restart_object(&self, id: ObjectId, behavior: Box<dyn ObjectBehavior<Req, Rep> + Send>) {
        self.host.restart_object(id, behavior);
    }

    /// The status of every hosted object — the same view a
    /// [`Frame::StatusReq`] gets over the wire.
    pub fn object_statuses(&self) -> Vec<ObjectStatus> {
        object_statuses(&self.host)
    }

    /// Whether a hosted object is currently crashed.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not hosted by this server.
    pub fn is_crashed(&self, id: ObjectId) -> bool {
        self.host.is_crashed(id)
    }
}

impl Drop for ObjectServer {
    fn drop(&mut self) {
        // Reactor first: listener and connections close, frame intake
        // stops. The host's executor pool stops when the host drops.
        self.reactor.take();
    }
}
