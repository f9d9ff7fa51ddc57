//! Deploy-path glue: the socket substrate behind the same high-level entry
//! points as the in-process one.
//!
//! * [`NetDeploy`] extends [`StorageSystem`] with
//!   [`NetDeploy::spawn_net_cluster`], the socket sibling of
//!   [`StorageSystem::spawn_thread_cluster`]: honest objects behind a
//!   loopback listener plus a connected [`NetCluster`], ready for
//!   [`rastor_core::driver::drive_batch`].
//! * [`NetKv`] stands up a [`ShardedKvStore`] whose shards are reached
//!   over TCP — one [`ObjectServer`] per shard, optionally each behind its
//!   own [`ChaosProxy`] — via
//!   [`ShardedKvStore::over_transports`].

use crate::chaos::{ChaosCfg, ChaosProxy};
use crate::client::NetCluster;
use crate::server::ObjectServer;
use rastor_common::{ClusterConfig, Error, ObjectId, Result};
use rastor_core::msg::{Rep, Req};
use rastor_core::object::HonestObject;
use rastor_core::StorageSystem;
use rastor_kv::{restart_from_disk, ShardedKvStore, StoreConfig};
use rastor_sim::runtime::Transport;
use rastor_sim::ObjectBehavior;
use rastor_store::Durability;
use std::sync::Arc;
use std::time::Duration;

/// A single-cluster socket deployment: the server owning the objects and
/// a connected client endpoint.
pub struct NetHarness {
    /// The listener hosting the cluster's objects (drop it and the
    /// cluster is gone; crash objects through it).
    pub server: ObjectServer,
    /// The connected client endpoint; pass it anywhere a
    /// [`Transport`] is accepted.
    pub cluster: NetCluster,
}

/// Extension trait putting [`StorageSystem`] deployments on sockets.
pub trait NetDeploy {
    /// The same deployment as
    /// [`StorageSystem::spawn_thread_cluster`], but socket-backed: honest
    /// objects behind a loopback [`ObjectServer`], plus a [`NetCluster`]
    /// connected to it. Drive the automata from
    /// [`StorageSystem::write_client`] / [`StorageSystem::read_client`]
    /// over `harness.cluster` with [`rastor_core::driver::drive_batch`] —
    /// identical protocol code, third substrate.
    ///
    /// # Errors
    ///
    /// [`rastor_common::Error::Io`] if the listener or connection fails.
    fn spawn_net_cluster(&self, jitter: Option<Duration>) -> Result<NetHarness>;
}

impl NetDeploy for StorageSystem {
    fn spawn_net_cluster(&self, jitter: Option<Duration>) -> Result<NetHarness> {
        let behaviors: Vec<Box<dyn ObjectBehavior<Req, Rep> + Send>> =
            (0..self.config().num_objects())
                .map(|_| Box::new(HonestObject::new()) as _)
                .collect();
        let server = ObjectServer::spawn(behaviors, 0, jitter)?;
        let cluster = NetCluster::connect(&[server.local_addr()])?;
        Ok(NetHarness { server, cluster })
    }
}

/// A sharded kv store whose shards live behind TCP: one listener (and
/// optionally one chaos proxy) per shard — or per *object*, see
/// [`NetKv::spawn_per_object`] — with the store itself a plain
/// [`ShardedKvStore`] — the full pipelined handle API, unchanged.
pub struct NetKv {
    /// The store; clone it into worker threads as usual.
    pub store: ShardedKvStore,
    /// The deployment's servers in shard-major listener order (one per
    /// shard, or `3t + 1` consecutive per shard when spawned per-object)
    /// — the fault-injection surface ([`ObjectServer::crash_object`],
    /// [`ObjectServer::restart_object`]).
    pub servers: Vec<ObjectServer>,
    /// Chaos proxies in the same order as [`NetKv::servers`] (empty when
    /// spawned without chaos) — partition toggles live here.
    pub proxies: Vec<ChaosProxy>,
    /// Listeners per shard: 1, or `3t + 1` for per-object deployments.
    listeners_per_shard: usize,
    /// The durability policy the servers' honest objects were spawned
    /// with, kept for [`NetKv::restart_object`].
    durability: Arc<dyn Durability>,
}

impl NetKv {
    /// Stand up `cfg.num_shards` socket-backed shards of honest objects
    /// (each `3t + 1` objects behind its own listener; `cfg.jitter` is the
    /// server-side per-envelope service delay) and connect a
    /// [`ShardedKvStore`] to them. With `chaos = Some(c)`, every shard's
    /// connections run through an own [`ChaosProxy`] seeded `c.seed +
    /// shard`. `cfg.durability` applies at the servers: a wal-backed
    /// config gives every shard a data dir
    /// (`dir/shard-<s>/obj-<o>.{wal,snap}`) and unlocks
    /// [`NetKv::restart_object`]; it also persists the client-side key
    /// directory, so re-spawning on the same dir is a cold-start recovery
    /// of the whole deployment.
    ///
    /// # Errors
    ///
    /// Propagates [`ShardedKvStore::over_transports`] validation errors
    /// and [`rastor_common::Error::Io`] from listeners/connections.
    pub fn spawn(cfg: StoreConfig, chaos: Option<ChaosCfg>) -> Result<NetKv> {
        NetKv::spawn_impl(cfg, chaos, 1, false, |_, _| None)
    }

    /// As [`NetKv::spawn`], holding a pool of `conns_per_shard`
    /// connections to every shard's server (see
    /// [`NetCluster::connect_pooled`]): handles spread across each pool
    /// by client-id hash, and the connection-count sweep opens thousands
    /// of sockets without any per-connection threads.
    ///
    /// # Errors
    ///
    /// As [`NetKv::spawn`].
    pub fn spawn_pooled(
        cfg: StoreConfig,
        chaos: Option<ChaosCfg>,
        conns_per_shard: usize,
    ) -> Result<NetKv> {
        NetKv::spawn_impl(cfg, chaos, conns_per_shard, false, |_, _| None)
    }

    /// As [`NetKv::spawn`], choosing each object's behavior by `(shard,
    /// object)` — the server-side fault-injection hook, mirroring
    /// [`ShardedKvStore::spawn_with`]: `Some(byzantine)` overrides, `None`
    /// gets the default durability-managed honest object.
    ///
    /// # Errors
    ///
    /// As [`NetKv::spawn`].
    pub fn spawn_with(
        cfg: StoreConfig,
        chaos: Option<ChaosCfg>,
        behavior: impl FnMut(usize, ObjectId) -> Option<Box<dyn ObjectBehavior<Req, Rep> + Send>>,
    ) -> Result<NetKv> {
        NetKv::spawn_impl(cfg, chaos, 1, false, behavior)
    }

    /// As [`NetKv::spawn_with`], but every object gets its **own**
    /// listener (and, with chaos, its own proxy): `3t + 1` servers per
    /// shard, each hosting one object of the shard's id space.
    ///
    /// This is the paper's fault model on the wire. Behind a single
    /// shard listener every client flush rides one envelope over one
    /// link, so link faults hit all of a shard's objects *uniformly* —
    /// honest objects can never diverge, and a `t + 1` Byzantine cast
    /// has nothing to hide behind. Per-object listeners make each object
    /// an independent link fault domain: a chaos proxy can drop the
    /// commit to one honest object while its peer stores it, which is
    /// exactly the asymmetry Byzantine-boundary witnesses need.
    ///
    /// # Errors
    ///
    /// As [`NetKv::spawn`].
    pub fn spawn_per_object(
        cfg: StoreConfig,
        chaos: Option<ChaosCfg>,
        behavior: impl FnMut(usize, ObjectId) -> Option<Box<dyn ObjectBehavior<Req, Rep> + Send>>,
    ) -> Result<NetKv> {
        NetKv::spawn_impl(cfg, chaos, 1, true, behavior)
    }

    fn spawn_impl(
        cfg: StoreConfig,
        chaos: Option<ChaosCfg>,
        conns_per_shard: usize,
        per_object: bool,
        mut behavior: impl FnMut(usize, ObjectId) -> Option<Box<dyn ObjectBehavior<Req, Rep> + Send>>,
    ) -> Result<NetKv> {
        let cluster_cfg = ClusterConfig::byzantine(cfg.t)?;
        let num_objects = cluster_cfg.num_objects();
        let listeners_per_shard = if per_object { num_objects } else { 1 };
        let mut servers = Vec::with_capacity(cfg.num_shards * listeners_per_shard);
        let mut proxies = Vec::new();
        let mut transports: Vec<Box<dyn Transport<Req, Rep> + Send + Sync>> =
            Vec::with_capacity(cfg.num_shards);
        for s in 0..cfg.num_shards {
            let shard_durability = cfg.durability.for_shard(s);
            let mut addrs = Vec::with_capacity(listeners_per_shard);
            for l in 0..listeners_per_shard {
                let hosted = if per_object { l..l + 1 } else { 0..num_objects };
                let first_id = hosted.start as u32;
                let behaviors = hosted
                    .map(|o| {
                        let oid = ObjectId(o as u32);
                        match behavior(s, oid) {
                            Some(custom) => Ok(custom),
                            None => Ok(shard_durability.object(oid)?.0),
                        }
                    })
                    .collect::<Result<Vec<_>>>()?;
                let server = ObjectServer::spawn(behaviors, first_id, cfg.jitter)?;
                let addr = match &chaos {
                    None => server.local_addr(),
                    Some(c) => {
                        let proxy = ChaosProxy::spawn(
                            server.local_addr(),
                            c.clone()
                                .with_seed(c.seed + (s * listeners_per_shard + l) as u64),
                        )?;
                        let addr = proxy.local_addr();
                        proxies.push(proxy);
                        addr
                    }
                };
                addrs.push(addr);
                servers.push(server);
            }
            transports.push(Box::new(NetCluster::connect_pooled(
                &addrs,
                conns_per_shard,
            )?));
        }
        let store = ShardedKvStore::over_transports(
            cfg.t,
            cfg.num_handles,
            cfg.fast_reads,
            transports,
            Arc::clone(&cfg.durability),
            cfg.metrics.clone(),
        )?;
        Ok(NetKv {
            store,
            servers,
            proxies,
            listeners_per_shard,
            durability: cfg.durability,
        })
    }

    /// The data-plane address clients should dial for shard `shard` (its
    /// first listener, for per-object deployments): the chaos proxy when
    /// one fronts the link, the server itself otherwise.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn data_addr(&self, shard: usize) -> std::net::SocketAddr {
        let first = shard * self.listeners_per_shard;
        match self.proxies.get(first) {
            Some(proxy) => proxy.local_addr(),
            None => self.servers[first].local_addr(),
        }
    }

    /// The control-plane address of shard `shard` (its first listener,
    /// for per-object deployments): always the server itself, bypassing
    /// any chaos proxy — status queries must keep answering while the
    /// data link is partitioned.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn control_addr(&self, shard: usize) -> std::net::SocketAddr {
        self.servers[shard * self.listeners_per_shard].local_addr()
    }

    /// Index into [`NetKv::servers`] of the listener hosting `(shard,
    /// id)`.
    ///
    /// # Errors
    ///
    /// [`Error::InvariantViolation`] if `shard` is out of range or no
    /// listener of the shard hosts `id`.
    fn hosting_server(&self, shard: usize, id: ObjectId) -> Result<usize> {
        let first = shard * self.listeners_per_shard;
        if first >= self.servers.len() {
            return Err(Error::InvariantViolation {
                detail: format!("no shard {shard} in this deployment"),
            });
        }
        (first..first + self.listeners_per_shard)
            .find(|&i| {
                let s = &self.servers[i];
                id.0.checked_sub(s.first_id())
                    .is_some_and(|h| (h as usize) < s.num_objects())
            })
            .ok_or_else(|| Error::InvariantViolation {
                detail: format!("shard {shard} hosts no object {}", id.0),
            })
    }

    /// Crash one hosted object of one shard's server (no restart) — the
    /// checked twin of indexing [`NetKv::servers`] directly, for callers
    /// handling remote input.
    ///
    /// # Errors
    ///
    /// [`Error::InvariantViolation`] if `shard` or `id` is out of range.
    pub fn crash_object(&self, shard: usize, id: ObjectId) -> Result<()> {
        let idx = self.hosting_server(shard, id)?;
        self.servers[idx].crash_object(id);
        Ok(())
    }

    /// Kill one hosted object of one shard's server and restart it from
    /// disk while clients stay connected — the socket twin of
    /// [`ShardedKvStore::restart_object`], through the same
    /// [`restart_from_disk`]. Returns the wall-clock kill-to-serving-again
    /// time.
    ///
    /// # Errors
    ///
    /// [`Error::InvariantViolation`] if the deployment's durability is not
    /// recoverable (spawn with a wal-backed [`StoreConfig`]) or `shard` or
    /// `id` is out of range; recovery I/O and corruption errors otherwise.
    pub fn restart_object(&self, shard: usize, id: ObjectId) -> Result<Duration> {
        let server = &self.servers[self.hosting_server(shard, id)?];
        restart_from_disk(
            self.durability.as_ref(),
            shard,
            id,
            || server.crash_object(id),
            |behavior| server.restart_object(id, behavior),
        )
    }
}
