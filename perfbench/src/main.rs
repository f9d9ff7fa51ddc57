//! The rastor benchmark: four closed-loop kv workloads against one shard
//! (t = 1, four objects) driven by two client threads, each run in a fresh
//! process on a fresh data directory.
//!
//! `--trace 0` measures the end-to-end metrics against the program's
//! default configuration (metrics registry on, span tracing off).
//! `--trace 1` alternates untraced and traced deployments; the traced ones
//! wrap the program's public seams (see `probe`) to split each op's time
//! into layers. Both modes record every op and check atomicity per key.
//!
//! ```text
//! rastor_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> --data-dir <dir>
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. See README.md for the
//! workloads, the metrics and why they were chosen.

mod probe;
mod stats;

use probe::{Layers, Probe, TimedOps, OBJECTS};
use rastor_common::{ClientId, ObjectId, Result, SplitMix64, Value};
use rastor_core::checker::{History, ReadRec, WriteRec};
use rastor_kv::{KvOpId, KvOutput, ShardedKvStore, StoreConfig};
use rastor_net::{NetCluster, NetKv, ObjectServer};
use rastor_obs::{names, Registry};
use rastor_sim::runtime::{ThreadCluster, Transport};
use stats::{mean, median, percentile_us};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Client threads (one handle each) driving every workload.
const CLIENTS: u32 = 2;

/// Deployments per run. The timed phase is split evenly between them, and
/// each end-to-end metric is the median of their values, so a burst of
/// interference from outside the process moves a minority of cycles and
/// not the result. A traced run alternates untraced and traced cycles, so
/// that `trace.overhead_pct` compares neighbours in time.
const CYCLES: usize = 8;

/// Stationarity self-check: the most a fresh-key workload's mean history
/// entries per collect reply may grow from the first to the last tenth of
/// a timed phase…
const FRESH_DRIFT_MAX: f64 = 3.0;
/// …and the most `tcp-hot-history`'s may grow, as a share (the bound of
/// its `get_p50_us`).
const HOT_DRIFT_MAX: f64 = 0.25;

/// One traffic mix.
struct Workload {
    name: &'static str,
    /// Loopback TCP (`NetKv`) rather than the in-process thread cluster.
    tcp: bool,
    /// WAL-backed objects rather than in-memory ones.
    wal: bool,
    /// Ops each client keeps in flight.
    depth: usize,
    /// Share of ops that are gets.
    get_share: f64,
    /// Keys, all written during set-up.
    keys: usize,
    /// Writes per key during set-up (1 seeds fresh keys; more pre-grows
    /// the histories every later op ships).
    setup_writes: usize,
}

const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "tcp-get",
        tcp: true,
        wal: false,
        depth: 1,
        get_share: 0.9,
        keys: 4096,
        setup_writes: 1,
    },
    Workload {
        name: "tcp-wal-put",
        tcp: true,
        wal: true,
        depth: 1,
        get_share: 0.1,
        keys: 8192,
        setup_writes: 1,
    },
    Workload {
        name: "tcp-hot-history",
        tcp: true,
        wal: false,
        depth: 1,
        get_share: 0.95,
        keys: 8,
        setup_writes: 400,
    },
    Workload {
        name: "inproc-pipelined",
        tcp: false,
        wal: false,
        depth: 8,
        get_share: 0.5,
        keys: 24576,
        setup_writes: 1,
    },
];

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    data_dir: PathBuf,
}

fn parse_args() -> std::result::Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut flags = HashMap::new();
    for pair in argv.chunks(2) {
        match pair {
            [flag, value] if flag.starts_with("--") => {
                flags.insert(flag.trim_start_matches("--").to_string(), value.clone());
            }
            _ => return Err(format!("expected `--flag value` pairs, got {pair:?}")),
        }
    }
    let mut take = |name: &str| {
        flags
            .remove(name)
            .ok_or_else(|| format!("missing --{name}"))
    };
    let name = take("workload")?;
    let workload = WORKLOADS
        .iter()
        .find(|w| w.name == name)
        .ok_or_else(|| format!("unknown workload {name}"))?;
    let seed = take("seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = take("seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} out of range"));
    }
    let trace = match take("trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other}")),
    };
    let data_dir = PathBuf::from(take("data-dir")?);
    if let Some(extra) = flags.keys().next() {
        return Err(format!("unknown flag --{extra}"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        data_dir,
    })
}

/// Nanoseconds from `epoch` to now.
pub fn ns_since(epoch: Instant) -> u64 {
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// A running deployment; dropping it tears every thread down.
struct Deployment {
    store: ShardedKvStore,
    _net: Option<NetKv>,
    _server: Option<ObjectServer>,
}

/// Stand up one shard of `w`. Untraced deployments use the program's own
/// entry points (`NetKv::spawn`, `ShardedKvStore::spawn`); traced ones
/// assemble the same parts by hand so the probe can wrap the transport and
/// every object.
fn deploy(w: &Workload, dir: &Path, probe: Option<&Arc<Probe>>) -> Result<Deployment> {
    let mut cfg = StoreConfig::new(1, 1, CLIENTS);
    if w.wal {
        cfg = cfg.with_wal(dir);
    }
    let Some(probe) = probe else {
        return Ok(if w.tcp {
            let net = NetKv::spawn(cfg, None)?;
            Deployment {
                store: net.store.clone(),
                _net: Some(net),
                _server: None,
            }
        } else {
            Deployment {
                store: ShardedKvStore::spawn(cfg)?,
                _net: None,
                _server: None,
            }
        });
    };
    let shard = cfg.durability.for_shard(0);
    let behaviors = (0..OBJECTS)
        .map(|o| Ok(probe.object(o, shard.object(ObjectId(o as u32))?.0)))
        .collect::<Result<Vec<_>>>()?;
    let (transport, server): (Box<dyn Transport<_, _> + Send + Sync>, _) = if w.tcp {
        let server = ObjectServer::spawn(behaviors, 0, cfg.jitter)?;
        let cluster = NetCluster::connect(&[server.local_addr()])?;
        (Box::new(cluster), Some(server))
    } else {
        (Box::new(ThreadCluster::spawn(behaviors, cfg.jitter)), None)
    };
    let store = ShardedKvStore::over_transports(
        cfg.t,
        cfg.num_handles,
        cfg.fast_reads,
        vec![probe.transport(transport)],
        cfg.durability,
        cfg.metrics,
    )?;
    Ok(Deployment {
        store,
        _net: None,
        _server: server,
    })
}

/// What one client did in one deployment (times in ns since the epoch).
#[derive(Default)]
struct ClientLog {
    get_ns: Vec<u64>,
    put_ns: Vec<u64>,
    failed: u64,
    /// Gets that returned ⊥ although every key is written during set-up.
    bottom: u64,
    writes: Vec<(usize, WriteRec)>,
    reads: Vec<(usize, ReadRec)>,
    /// Timed ops in submission order.
    invoked: Vec<u64>,
    completed: Vec<u64>,
    get_rounds: (u64, u64),
    end: u64,
}

/// One op of the timed phase, as generated from the seed.
struct Op {
    key: usize,
    /// `None` for a get.
    put: Option<Value>,
}

/// A client's op stream: the workload's mix over uniformly chosen keys,
/// with a value unique to the client, so every read maps to one write.
struct OpGen {
    rng: SplitMix64,
    keys: usize,
    get_share: f64,
    client: u32,
    written: u64,
}

impl OpGen {
    fn value(&mut self) -> Value {
        self.written += 1;
        Value::from_u64(u64::from(self.client + 1) << 40 | self.written)
    }

    fn next(&mut self) -> Op {
        let key = self.rng.gen_range(0, self.keys as u64 - 1) as usize;
        let put = (self.rng.next_f64() >= self.get_share).then(|| self.value());
        Op { key, put }
    }
}

/// What a cycle's client threads share.
struct Shared<'a> {
    w: &'a Workload,
    keys: Vec<String>,
    epoch: Instant,
    barrier: Barrier,
    stop: AtomicBool,
}

impl ClientLog {
    fn record(
        &mut self,
        key: usize,
        put: Option<Value>,
        invoked: u64,
        done: u64,
        out: Result<KvOutput>,
        id: u32,
    ) {
        self.invoked.push(invoked);
        self.completed.push(done);
        match (out, put) {
            (Ok(KvOutput::Put(tag)), Some(val)) => {
                self.put_ns.push(done - invoked);
                self.writes.push((
                    key,
                    WriteRec {
                        ts: tag.to_timestamp(),
                        val,
                        invoked_at: invoked,
                        completed_at: Some(done),
                    },
                ));
            }
            (Ok(KvOutput::Get(pair)), None) => {
                self.get_ns.push(done - invoked);
                self.bottom += u64::from(pair.is_bottom());
                self.reads.push((
                    key,
                    ReadRec {
                        client: ClientId::reader(id),
                        invoked_at: invoked,
                        completed_at: done,
                        returned: pair,
                    },
                ));
            }
            _ => self.failed += 1,
        }
    }
}

/// Set-up writes: in round `r`, client `id` writes the keys `k` with
/// `(k + r) % CLIENTS == id`, pipelined through `put_batch`.
fn setup_writes(
    sh: &Shared,
    handle: &mut rastor_kv::KvHandle,
    gen: &mut OpGen,
    id: u32,
    log: &mut ClientLog,
) -> Result<()> {
    for round in 0..sh.w.setup_writes {
        let mine: Vec<usize> = (0..sh.w.keys)
            .filter(|k| (k + round) % CLIENTS as usize == id as usize)
            .collect();
        for chunk in mine.chunks(64) {
            let items: Vec<(&str, Value)> = chunk
                .iter()
                .map(|&k| (sh.keys[k].as_str(), gen.value()))
                .collect();
            let invoked = ns_since(sh.epoch);
            let tags = handle.put_batch(&items)?;
            let done = ns_since(sh.epoch);
            for ((&k, (_, val)), tag) in chunk.iter().zip(items).zip(tags) {
                log.writes.push((
                    k,
                    WriteRec {
                        ts: tag.to_timestamp(),
                        val,
                        invoked_at: invoked,
                        completed_at: Some(done),
                    },
                ));
            }
        }
    }
    Ok(())
}

fn run_client(sh: &Shared, store: &ShardedKvStore, id: u32, seed: u64) -> Result<ClientLog> {
    let mut log = ClientLog::default();
    let mut gen = OpGen {
        rng: SplitMix64::new(seed),
        keys: sh.w.keys,
        get_share: sh.w.get_share,
        client: id,
        written: 0,
    };
    let setup = store
        .handle(id)
        .and_then(|mut h| setup_writes(sh, &mut h, &mut gen, id, &mut log).map(|()| h));
    // Reach the barrier even on failure, so the run ends instead of hanging.
    sh.barrier.wait();
    let mut handle = setup?;
    handle.take_get_rounds();
    if sh.w.depth == 1 {
        while !sh.stop.load(Ordering::Relaxed) {
            let op = gen.next();
            let key = &sh.keys[op.key];
            let invoked = ns_since(sh.epoch);
            let out = match &op.put {
                Some(val) => handle.put(key, val.clone()).map(KvOutput::Put),
                None => handle.get_pair(key).map(KvOutput::Get),
            };
            log.record(op.key, op.put, invoked, ns_since(sh.epoch), out, id);
        }
    } else {
        handle.set_depth(sh.w.depth);
        // Ops in submission order, which the probe relies on.
        let mut submitted: Vec<(Op, u64)> = Vec::new();
        let mut results: Vec<Option<(u64, Result<KvOutput>)>> = Vec::new();
        let mut in_flight: HashMap<KvOpId, usize> = HashMap::new();
        loop {
            while in_flight.len() < sh.w.depth && !sh.stop.load(Ordering::Relaxed) {
                let op = gen.next();
                let key = &sh.keys[op.key];
                let invoked = ns_since(sh.epoch);
                let op_id = match &op.put {
                    Some(val) => handle.submit_put(key, val.clone())?,
                    None => handle.submit_get(key)?,
                };
                in_flight.insert(op_id, submitted.len());
                submitted.push((op, invoked));
                results.push(None);
            }
            if in_flight.is_empty() {
                break;
            }
            let done = handle.poll();
            let at = ns_since(sh.epoch);
            for (op_id, out) in done {
                let i = in_flight.remove(&op_id).expect("polled op was submitted");
                results[i] = Some((at, out));
            }
        }
        for ((op, invoked), result) in submitted.into_iter().zip(results) {
            let (done, out) = result.expect("every submitted op resolved");
            log.record(op.key, op.put, invoked, done, out, id);
        }
    }
    log.get_rounds = handle.take_get_rounds();
    log.end = ns_since(sh.epoch);
    Ok(log)
}

/// `getrusage(RUSAGE_SELF)`: CPU time (µs) and voluntary context switches
/// of every thread the process ever ran.
fn rusage() -> (f64, u64) {
    #[repr(C)]
    struct RUsage {
        utime: [i64; 2],
        stime: [i64; 2],
        // maxrss … nsignals, nvcsw, nivcsw
        rest: [i64; 14],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    }
    let mut ru = RUsage {
        utime: [0; 2],
        stime: [0; 2],
        rest: [0; 14],
    };
    // SAFETY: `RUsage` has the layout of Linux's `struct rusage` on 64-bit
    // targets (two `timeval`s, then fourteen `long`s), and getrusage only
    // writes that struct through the pointer, which is valid for writes.
    let rc = unsafe { getrusage(0, &mut ru) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail");
    let us = |tv: [i64; 2]| tv[0] as f64 * 1e6 + tv[1] as f64;
    (us(ru.utime) + us(ru.stime), ru.rest[12] as u64)
}

/// A field of `/proc/self/status`, in its own unit (kB for memory).
fn proc_status(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix(field)?.strip_prefix(':').map(str::to_owned))
        })
        .and_then(|v| v.split_whitespace().next()?.parse().ok())
        .unwrap_or(0.0)
}

/// Total bytes of the files under `dir` (0 if it does not exist).
fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// The outcome of one deployment.
struct Cycle {
    traced: bool,
    setup_s: f64,
    timed_s: f64,
    ops: u64,
    get_ns: Vec<u64>,
    put_ns: Vec<u64>,
    /// Failed ops, ⊥ reads and atomicity violations.
    errors: u64,
    disk_bytes: u64,
    snapshots: u64,
    resubmissions: u64,
    get_rounds: (u64, u64),
    cpu_us: f64,
    vol_switches: u64,
    /// `VmHWM` over the cycle, in MB.
    peak_rss_mb: f64,
    threads: f64,
    layers: Option<Layers>,
}

fn run_cycle(args: &Args, index: usize, seconds: f64, traced: bool) -> Result<Cycle> {
    let w = args.workload;
    let dir = args.data_dir.join(format!("cycle-{index}"));
    // Restart the process's peak-RSS mark, so each cycle reports its own.
    // Where the kernel refuses, the marks accumulate over the run instead.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
    let epoch = Instant::now();
    let probe = traced.then(|| Probe::new(epoch));
    let dep = deploy(w, &dir, probe.as_ref())?;
    let sh = Shared {
        w,
        keys: (0..w.keys).map(|k| format!("key:{k:06}")).collect(),
        epoch,
        barrier: Barrier::new(CLIENTS as usize + 1),
        stop: AtomicBool::new(false),
    };
    let counter = |name| Registry::global().counter_value(name);
    let counters = || [names::STORE_SNAPSHOTS, names::NET_RESUBMISSIONS].map(counter);
    let (start, disk0, counts0, ru0, threads, results) = std::thread::scope(|s| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|id| {
                let seed = args.seed ^ (index as u64) << 48 ^ u64::from(id) << 32;
                let (sh, store) = (&sh, &dep.store);
                s.spawn(move || run_client(sh, store, id, seed))
            })
            .collect();
        sh.barrier.wait();
        let start = ns_since(epoch);
        let (disk0, counts0, ru0) = (dir_bytes(&dir), counters(), rusage());
        let threads = proc_status("Threads");
        std::thread::sleep(Duration::from_secs_f64(seconds));
        sh.stop.store(true, Ordering::Relaxed);
        let results: Vec<_> = clients
            .into_iter()
            .map(|c| c.join().expect("client thread panicked"))
            .collect();
        (start, disk0, counts0, ru0, threads, results)
    });
    let ru1 = rusage();
    let peak_rss_mb = proc_status("VmHWM") / 1024.0;
    let logs = results.into_iter().collect::<Result<Vec<ClientLog>>>()?;
    let end = logs.iter().map(|l| l.end).max().unwrap_or(start);
    let disk_bytes = dir_bytes(&dir).saturating_sub(disk0);
    let counts = counters();

    let layers = probe.map(|p| {
        p.settle();
        let timed: Vec<TimedOps> = logs
            .iter()
            .zip(0..)
            .map(|(l, id)| TimedOps {
                client: ClientId::reader(id),
                invoked: &l.invoked,
                completed: &l.completed,
            })
            .collect();
        p.analyze(start, end, &timed)
    });
    drop(dep);
    if dir.exists() {
        std::fs::remove_dir_all(&dir)
            .map_err(|e| rastor_common::Error::io(format!("removing {}", dir.display()), &e))?;
    }

    let mut histories: HashMap<usize, History> = HashMap::new();
    let mut cycle = Cycle {
        traced,
        setup_s: start as f64 / 1e9,
        timed_s: (end - start) as f64 / 1e9,
        ops: 0,
        get_ns: Vec::new(),
        put_ns: Vec::new(),
        errors: layers.map_or(0, |l| l.codec_errors),
        disk_bytes,
        snapshots: counts[0] - counts0[0],
        resubmissions: counts[1] - counts0[1],
        get_rounds: (0, 0),
        cpu_us: ru1.0 - ru0.0,
        vol_switches: ru1.1 - ru0.1,
        peak_rss_mb,
        threads,
        layers,
    };
    for log in logs {
        cycle.ops += log.invoked.len() as u64;
        cycle.errors += log.failed + log.bottom;
        cycle.get_ns.extend(log.get_ns);
        cycle.put_ns.extend(log.put_ns);
        cycle.get_rounds.0 += log.get_rounds.0;
        cycle.get_rounds.1 += log.get_rounds.1;
        for (k, rec) in log.writes {
            histories.entry(k).or_default().push_write(rec);
        }
        for (k, rec) in log.reads {
            histories.entry(k).or_default().push_read(rec);
        }
    }
    for (k, h) in &histories {
        let violations = h.check_atomic();
        if !violations.is_empty() {
            println!("atomicity violations on {}: {violations:?}", sh.keys[*k]);
        }
        cycle.errors += violations.len() as u64;
    }
    Ok(cycle)
}

/// Sum of `f` over `cycles` per op.
fn per_op(cycles: &[&Cycle], f: impl Fn(&Cycle) -> f64) -> f64 {
    let ops: u64 = cycles.iter().map(|c| c.ops).sum();
    cycles.iter().map(|c| f(c)).sum::<f64>() / ops.max(1) as f64
}

fn ops_per_s(cycles: &[&Cycle]) -> f64 {
    let ops: u64 = cycles.iter().map(|c| c.ops).sum();
    ops as f64 / cycles.iter().map(|c| c.timed_s).sum::<f64>()
}

/// The mean of a per-layer figure over the traced cycles.
fn layer(cycles: &[&Cycle], f: impl Fn(&Layers) -> f64) -> f64 {
    let xs: Vec<f64> = cycles
        .iter()
        .filter_map(|c| c.layers.as_ref())
        .map(f)
        .collect();
    mean(&xs)
}

type Metric = (&'static str, f64, &'static str);

/// Each end-to-end metric: the median over the cycles of its per-cycle
/// value (for peak RSS, the smallest).
fn end_to_end(cycles: &[&Cycle]) -> Vec<Metric> {
    let med = |f: &dyn Fn(&Cycle) -> f64| median(&cycles.iter().map(|c| f(c)).collect::<Vec<_>>());
    let tail = |ns: &[u64], q| percentile_us(&mut ns.to_vec(), q);
    println!(
        "{} gets and {} puts timed over {:.1} s",
        cycles.iter().map(|c| c.get_ns.len()).sum::<usize>(),
        cycles.iter().map(|c| c.put_ns.len()).sum::<usize>(),
        cycles.iter().map(|c| c.timed_s).sum::<f64>()
    );
    vec![
        ("ops_per_s", med(&|c| ops_per_s(&[c])), "1/s"),
        ("get_p50_us", med(&|c| tail(&c.get_ns, 0.5)), "us"),
        ("get_p90_us", med(&|c| tail(&c.get_ns, 0.9)), "us"),
        ("put_p50_us", med(&|c| tail(&c.put_ns, 0.5)), "us"),
        ("put_p90_us", med(&|c| tail(&c.put_ns, 0.9)), "us"),
        ("setup_s", med(&|c| c.setup_s), "s"),
        // The smallest cycle's peak: the allocator keeps heap that earlier
        // cycles freed, which later cycles' peaks count on top of their own.
        (
            "peak_rss_mb",
            cycles
                .iter()
                .map(|c| c.peak_rss_mb)
                .fold(f64::INFINITY, f64::min),
            "MB",
        ),
    ]
}

/// Figures every run reports alongside its metrics: they are 0 on some
/// workloads by design, which a gated end-to-end metric must never be.
fn outcome(cycles: &[&Cycle]) -> Vec<Metric> {
    let ops: u64 = cycles.iter().map(|c| c.ops).sum();
    let errors: u64 = cycles.iter().map(|c| c.errors).sum();
    vec![
        ("error_pct", 100.0 * errors as f64 / ops.max(1) as f64, "%"),
        (
            "disk_bytes_per_op",
            per_op(cycles, |c| c.disk_bytes as f64),
            "B",
        ),
    ]
}

fn per_layer(cycles: &[&Cycle]) -> Vec<Metric> {
    let untraced: Vec<&Cycle> = cycles.iter().copied().filter(|c| !c.traced).collect();
    let traced: Vec<&Cycle> = cycles.iter().copied().filter(|c| c.traced).collect();
    let rounds: (u64, u64) = cycles
        .iter()
        .fold((0, 0), |a, c| (a.0 + c.get_rounds.0, a.1 + c.get_rounds.1));
    let t = &traced;
    let budget = |f: fn(&probe::Budget) -> f64| layer(t, |l| f(&l.budget));
    let overhead = 100.0 * (1.0 - ops_per_s(&traced) / ops_per_s(&untraced));
    let mut m = vec![
        (
            "kv.rounds_per_get",
            rounds.0 as f64 / rounds.1.max(1) as f64,
            "rounds",
        ),
        (
            "transport.frames_per_op",
            layer(t, |l| l.frames_per_op),
            "frames",
        ),
        (
            "transport.frames_per_send",
            layer(t, |l| l.frames_per_send),
            "frames",
        ),
        (
            "transport.resubmissions_per_kop",
            1e3 * per_op(cycles, |c| c.resubmissions as f64),
            "count",
        ),
        (
            "transport.send_us_per_op",
            layer(t, |l| l.budget.send),
            "us",
        ),
        ("transport.round_us_p50", layer(t, |l| l.round_us_p50), "us"),
        (
            "object.requests_per_op",
            layer(t, |l| l.requests_per_op),
            "requests",
        ),
        (
            "object.request_wait_us_p50",
            layer(t, |l| l.wait_us_p50),
            "us",
        ),
        (
            "object.request_wait_spread_us_p50",
            layer(t, |l| l.wait_spread_us_p50),
            "us",
        ),
        ("object.reply_gap_us_p50", layer(t, |l| l.gap_us_p50), "us"),
        ("object.apply_us_per_op", layer(t, |l| l.apply_us), "us"),
        (
            "object.reply_hist_entries",
            layer(t, |l| l.hist_entries[0]),
            "entries",
        ),
        (
            "object.reply_hist_entries.first_tenth",
            layer(t, |l| l.hist_entries[1]),
            "entries",
        ),
        (
            "object.reply_hist_entries.last_tenth",
            layer(t, |l| l.hist_entries[2]),
            "entries",
        ),
        ("wire.req_bytes_per_op", layer(t, |l| l.req_bytes), "B"),
        ("wire.rep_bytes_per_op", layer(t, |l| l.rep_bytes), "B"),
        ("wire.encode_us_per_op", layer(t, |l| l.encode_us), "us"),
        ("wire.decode_us_per_op", layer(t, |l| l.decode_us), "us"),
        (
            "store.apply_us_per_mutation",
            layer(t, |l| l.mutation_apply_us),
            "us",
        ),
        (
            "store.snapshots_per_kop",
            1e3 * per_op(cycles, |c| c.snapshots as f64),
            "count",
        ),
        ("proc.cpu_us_per_op", per_op(&untraced, |c| c.cpu_us), "us"),
        (
            "proc.vol_ctx_switches_per_op",
            per_op(&untraced, |c| c.vol_switches as f64),
            "count",
        ),
        (
            "proc.threads",
            mean(&untraced.iter().map(|c| c.threads).collect::<Vec<_>>()),
            "count",
        ),
        ("budget.request_wait_us_per_op", budget(|b| b.wait), "us"),
        ("budget.apply_us_per_op", budget(|b| b.apply), "us"),
        ("budget.reply_gap_us_per_op", budget(|b| b.gap), "us"),
        (
            "budget.residual_us_per_op",
            budget(probe::Budget::residual),
            "us",
        ),
        ("trace.overhead_pct", overhead, "%"),
    ];
    m.extend(outcome(cycles));
    m
}

/// The per-op budget table of the traced cycles.
fn print_budget(name: &str, traced: &[&Cycle]) {
    let b = |f: fn(&probe::Budget) -> f64| layer(traced, |l| f(&l.budget));
    println!("per-op budget, {name} (traced deployments, µs per op):");
    for (part, v) in [
        ("send (inside send_frames)", b(|b| b.send)),
        (
            "request wait (to the round's deciding object)",
            b(|b| b.wait),
        ),
        ("apply (deciding object)", b(|b| b.apply)),
        ("reply gap (to next send or completion)", b(|b| b.gap)),
        (
            "residual (submission to first send)",
            b(probe::Budget::residual),
        ),
        ("= op latency", b(|b| b.latency)),
    ] {
        println!("  {part:<46} {v:>10.1}");
    }
}

/// The stationarity self-check on the traced cycles: `Err` names the drift.
fn stationary(w: &Workload, traced: &[&Cycle]) -> std::result::Result<(), String> {
    for c in traced {
        let Some(l) = &c.layers else { continue };
        let [_, first, last] = l.hist_entries;
        let drifted = if w.setup_writes > 1 {
            last - first > HOT_DRIFT_MAX * first
        } else {
            last - first > FRESH_DRIFT_MAX
        };
        if drifted {
            return Err(format!(
                "history entries per collect reply drifted from {first:.1} to {last:.1}"
            ));
        }
    }
    Ok(())
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("rastor_perfbench: {e}");
            std::process::exit(2);
        }
    };
    let w = args.workload;
    let mut done = Vec::new();
    for i in 0..CYCLES {
        match run_cycle(
            &args,
            i,
            args.seconds / CYCLES as f64,
            args.trace && i % 2 == 1,
        ) {
            Ok(c) => {
                let mut all_ns: Vec<u64> = c.get_ns.iter().chain(&c.put_ns).copied().collect();
                println!(
                    "{} cycle {i}{}: set-up {:.3} s, {} ops in {:.2} s (p50 {:.0} µs, p90 {:.0} µs), {} errors, peak RSS {:.1} MB",
                    w.name,
                    if c.traced { " (traced)" } else { "" },
                    c.setup_s,
                    c.ops,
                    c.timed_s,
                    percentile_us(&mut all_ns, 0.5),
                    percentile_us(&mut all_ns, 0.9),
                    c.errors,
                    c.peak_rss_mb
                );
                done.push(c);
            }
            Err(e) => {
                eprintln!("rastor_perfbench: {} cycle {i} failed: {e}", w.name);
                std::process::exit(1);
            }
        }
    }
    let all: Vec<&Cycle> = done.iter().collect();
    let attempted: u64 = all.iter().map(|c| c.ops).sum();
    let failed: u64 = all.iter().map(|c| c.errors).sum::<u64>().min(attempted);
    let mut correct = failed == 0 && attempted > 0;
    let metrics = if args.trace {
        let traced: Vec<&Cycle> = all.iter().copied().filter(|c| c.traced).collect();
        print_budget(w.name, &traced);
        if let Err(why) = stationary(w, &traced) {
            println!("stationarity self-check failed on {}: {why}", w.name);
            correct = false;
        }
        per_layer(&all)
    } else {
        for (name, v, unit) in outcome(&all) {
            println!("{name}: {v:.3} {unit}");
        }
        end_to_end(&all)
    };
    for (name, v, unit) in &metrics {
        println!("{:<40} {:>14.3} {unit}", name, v);
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*v)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
}
