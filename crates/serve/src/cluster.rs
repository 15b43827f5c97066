//! Cluster mode: consistent-hash sharding, health-checked failover,
//! and client-side retry/hedging for `warped-serve`.
//!
//! A cluster is N identical nodes, each running the full service. The
//! versioned [`cell_fingerprint`] is the routing key: a [`HashRing`]
//! built from the (sorted) peer list maps every fingerprint to an
//! owner node, so the content-addressed cache is *partitioned* across
//! the fleet instead of duplicated — each node's disk cache holds its
//! shard of the grid. Because the fingerprint deliberately excludes
//! observe-only switches (watchdog, telemetry, clock backend), a
//! client and every server compute the same key for the same cell
//! regardless of per-node configuration.
//!
//! Each cell is routed once. Every request a cluster member or a
//! [`ClusterClient`] sends a peer carries `X-Warped-Forwarded`, and a
//! node serves such a request itself, whoever owns the cell:
//!
//! * **Client routing** ([`ClusterClient`]): the client picks the
//!   node — the ring owner, or a replica on retry or hedge — and that
//!   node answers. Bounded retries walk the ring's replica order with
//!   decorrelated-jitter exponential backoff and per-attempt
//!   timeouts; a sweep whose progress stalls re-dispatches the
//!   straggler cells to the next replica (once per cell), so a node
//!   killed mid-sweep costs extra work, never a failed or
//!   non-bit-identical grid.
//! * **Peer forwarding** (server side, for cluster-unaware clients): a
//!   node receiving an unmarked cell it does not own forwards it one
//!   hop to the owner, marked, so the owner serves it locally and a
//!   second hop is impossible. A failed forward degrades to local
//!   simulation, never to an error.
//! * **Circuit breakers**: every peer has a half-open breaker fed by
//!   active `/healthz` probes and passive 5xx/transport observations.
//!   `Closed` → `Open` after a failure streak, `Open` → `HalfOpen`
//!   after a cooldown (one trial request is let through), and the
//!   trial's outcome closes or re-opens the breaker.
//!
//! The tuning (virtual nodes, forward timeout, breaker streak and
//! cooldown, retry attempts and backoff) is fixed by the constants
//! below; only membership, the probe cadence and the client's seed,
//! attempt timeout and hedge trigger are settable.
//!
//! The chaos harness ([`chaos_plan`] + [`ChaosMode`]) injects
//! kill/stall/error faults on a seeded schedule — deterministic, so a
//! failing chaos run is reproducible from its seed.

use std::io;
use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use warped_gates::fingerprint::{cell_fingerprint, ConfigHasher};
use warped_gates::{Experiment, Technique};
use warped_gating::GatingParams;
use warped_workloads::rng::SplitMix64;
use warped_workloads::Benchmark;

use crate::client::{Client, Response};
use crate::service::read_report_line;

/// Domain tag separating ring-point hashes from every other use of
/// [`ConfigHasher`].
const RING_TAG: u64 = 0x7761_7270_6564_5f72;

/// The loop-guard header (lower-cased, as parsed requests store it).
/// A request carrying it is served locally, never forwarded again.
pub const FORWARDED_HEADER: &str = "x-warped-forwarded";

/// Virtual nodes per peer on the hash ring.
const VNODES: usize = 64;

/// The most peers a ring holds: [`Replicas`] marks the nodes it has
/// yielded in a `u128`.
const MAX_PEERS: usize = 128;

/// Per-request timeout of a server-side forward.
const FORWARD_TIMEOUT: Duration = Duration::from_secs(30);

/// Consecutive failures that trip a breaker `Closed` → `Open`.
const BREAKER_THRESHOLD: u32 = 3;

/// How long an open breaker holds before a half-open trial.
const BREAKER_COOLDOWN: Duration = Duration::from_secs(2);

/// Attempts per cell in [`ClusterClient`], the first try included.
const MAX_ATTEMPTS: u32 = 4;

/// The first retry backoff, and the floor of every later one.
const BACKOFF_BASE: Duration = Duration::from_millis(25);

/// The retry backoff ceiling.
const BACKOFF_CAP: Duration = Duration::from_secs(1);

// ---------------------------------------------------------------------------
// Hash ring
// ---------------------------------------------------------------------------

/// A consistent-hash ring with virtual nodes.
///
/// Every node contributes 64 points; a key is owned by the node of the
/// first point at or after the key's hash (wrapping). All cluster
/// members build the ring from the same sorted peer list, so ownership
/// is a pure function of (peer list, fingerprint) and every node and
/// client agree on it without coordination.
#[derive(Debug)]
pub struct HashRing {
    /// `(point, node index)` sorted by point.
    points: Vec<(u64, usize)>,
    nodes: usize,
}

impl HashRing {
    /// Builds the ring over `names` (one entry per node, order
    /// significant — callers sort first).
    ///
    /// # Panics
    ///
    /// Panics with more than 128 names.
    #[must_use]
    pub fn new(names: &[String]) -> Self {
        assert!(
            names.len() <= MAX_PEERS,
            "a ring holds at most {MAX_PEERS} nodes"
        );
        let mut points = Vec::with_capacity(names.len() * VNODES);
        for (node, name) in names.iter().enumerate() {
            for v in 0..VNODES {
                let mut h = ConfigHasher::new(RING_TAG);
                h.str(name).word(v as u64);
                points.push((h.finish(), node));
            }
        }
        points.sort_unstable();
        HashRing {
            points,
            nodes: names.len(),
        }
    }

    /// The node owning `key`.
    #[must_use]
    pub fn owner(&self, key: u64) -> usize {
        self.replicas(key)
            .next()
            .expect("ring always has at least one node")
    }

    /// Distinct nodes in ring order starting at the owner — the
    /// failover order for `key`.
    #[must_use]
    pub fn replicas(&self, key: u64) -> Replicas<'_> {
        let start = self.points.partition_point(|(p, _)| *p < key);
        Replicas {
            ring: self,
            pos: start,
            walked: 0,
            seen: 0,
            yielded: 0,
        }
    }
}

/// Iterator over a key's failover order (see [`HashRing::replicas`]).
#[derive(Debug)]
pub struct Replicas<'a> {
    ring: &'a HashRing,
    pos: usize,
    walked: usize,
    /// Bitset of node indices already yielded.
    seen: u128,
    yielded: usize,
}

impl Iterator for Replicas<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        while self.yielded < self.ring.nodes && self.walked < self.ring.points.len() {
            let (_, node) = self.ring.points[self.pos % self.ring.points.len()];
            self.pos += 1;
            self.walked += 1;
            let bit = 1u128 << node;
            if self.seen & bit == 0 {
                self.seen |= bit;
                self.yielded += 1;
                return Some(node);
            }
        }
        None
    }
}

// ---------------------------------------------------------------------------
// Circuit breaker
// ---------------------------------------------------------------------------

/// The three breaker states.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BreakerState {
    /// Healthy: requests flow.
    #[default]
    Closed,
    /// Tripped: requests are refused until the cooldown elapses.
    Open,
    /// One trial request is in flight; its outcome decides.
    HalfOpen,
}

#[derive(Debug, Default)]
struct BreakerInner {
    state: BreakerState,
    failures: u32,
    opened_at: Option<Instant>,
}

/// A half-open circuit breaker guarding one peer; starts closed.
#[derive(Debug, Default)]
pub struct Breaker {
    inner: Mutex<BreakerInner>,
}

impl Breaker {
    /// Whether a request may go to this peer right now. An `Open`
    /// breaker past its cooldown transitions to `HalfOpen` and admits
    /// the caller as the trial — so call this only when actually about
    /// to send.
    pub fn allow(&self) -> bool {
        let mut inner = self.inner.lock().expect("breaker lock poisoned");
        match inner.state {
            BreakerState::Closed => true,
            BreakerState::HalfOpen => false,
            BreakerState::Open => {
                let cooled = inner
                    .opened_at
                    .is_none_or(|at| at.elapsed() >= BREAKER_COOLDOWN);
                if cooled {
                    inner.state = BreakerState::HalfOpen;
                }
                cooled
            }
        }
    }

    /// Records a success: the breaker closes and the streak resets.
    pub fn record_success(&self) {
        let mut inner = self.inner.lock().expect("breaker lock poisoned");
        inner.state = BreakerState::Closed;
        inner.failures = 0;
        inner.opened_at = None;
    }

    /// Records a failure. Returns `true` when this failure tripped the
    /// breaker open (including a failed half-open trial re-opening it).
    pub fn record_failure(&self) -> bool {
        let mut inner = self.inner.lock().expect("breaker lock poisoned");
        match inner.state {
            BreakerState::Open => false,
            BreakerState::HalfOpen => {
                inner.state = BreakerState::Open;
                inner.opened_at = Some(Instant::now());
                true
            }
            BreakerState::Closed => {
                inner.failures += 1;
                if inner.failures >= BREAKER_THRESHOLD {
                    inner.state = BreakerState::Open;
                    inner.opened_at = Some(Instant::now());
                    true
                } else {
                    false
                }
            }
        }
    }

    /// The current state (for metrics and tests).
    #[must_use]
    pub fn state(&self) -> BreakerState {
        self.inner.lock().expect("breaker lock poisoned").state
    }
}

// ---------------------------------------------------------------------------
// Cluster
// ---------------------------------------------------------------------------

/// Cluster membership and probing.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Every node's address, self included. Sorted and deduplicated
    /// internally, so all members may pass the list in any order.
    pub peers: Vec<String>,
    /// Which peer is this process (server side); `None` for a pure
    /// client.
    pub self_addr: Option<String>,
    /// Active `/healthz` probe cadence; `None` disables the prober
    /// (breakers then learn only from passive observations).
    pub probe_interval: Option<Duration>,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            peers: Vec::new(),
            self_addr: None,
            probe_interval: Some(Duration::from_millis(500)),
        }
    }
}

/// Cluster-level counters, rendered under `/metrics`.
#[derive(Debug, Default)]
pub struct ClusterCounters {
    /// Mis-routed cells successfully forwarded to their owner.
    pub forwarded_requests: AtomicU64,
    /// Forwards that failed and fell back to local simulation.
    pub forward_failures: AtomicU64,
    /// Breaker trips (`Closed`/`HalfOpen` → `Open` transitions).
    pub breaker_open: AtomicU64,
    /// Failed peer health observations (probes and passive).
    pub peer_unhealthy: AtomicU64,
}

/// The per-peer state shared between the cluster and its prober
/// thread (the prober holds its own `Arc`, so dropping the cluster
/// can join it without a reference cycle).
#[derive(Debug)]
struct PeerTable {
    names: Vec<String>,
    addrs: Vec<SocketAddr>,
    breakers: Vec<Breaker>,
    counters: ClusterCounters,
}

impl PeerTable {
    /// A closing client to `node` whose connect and reads time out
    /// after `timeout`. It marks every request with the loop guard, so
    /// `node` answers it itself.
    fn client(&self, node: usize, timeout: Duration) -> Client {
        Client::new(self.addrs[node])
            .with_keep_alive(false)
            .with_read_timeout(Some(timeout))
            .with_connect_timeout(Some(timeout))
            .with_header("X-Warped-Forwarded", "1")
    }

    /// Books one exchange with `node` to its breaker: a success closes
    /// it, a failure counts in `peer_unhealthy` and toward a trip.
    fn book(&self, node: usize, ok: bool) {
        if ok {
            self.breakers[node].record_success();
            return;
        }
        self.counters.peer_unhealthy.fetch_add(1, Ordering::Relaxed);
        if self.breakers[node].record_failure() {
            self.counters.breaker_open.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Books a one-shot exchange with `node` and hands back its `200`
    /// body, or says what went wrong.
    fn settle(&self, node: usize, answer: io::Result<Response>) -> Result<Vec<u8>, String> {
        let name = &self.names[node];
        let outcome = match answer {
            Ok(r) if r.status == 200 => Ok(r.body),
            Ok(r) => Err(format!("{name} answered {}: {:.200}", r.status, r.text())),
            Err(e) => Err(format!("{name}: {e}")),
        };
        self.book(node, outcome.is_ok());
        outcome
    }
}

#[derive(Debug)]
struct Prober {
    stop: Arc<AtomicBool>,
    thread: JoinHandle<()>,
}

/// A cluster view: membership, the hash ring, per-peer breakers, and
/// (optionally) a background `/healthz` prober. Shared by the server
/// (forwarding) and the [`ClusterClient`].
#[derive(Debug)]
pub struct Cluster {
    self_index: Option<usize>,
    ring: HashRing,
    table: Arc<PeerTable>,
    prober: Option<Prober>,
}

impl Cluster {
    /// Builds a cluster view from the configuration, resolving every
    /// peer address and spawning the prober if one is configured.
    ///
    /// # Errors
    ///
    /// Returns a message when the peer list is empty or names more
    /// than 128 distinct peers, an address does not resolve, or
    /// `self_addr` is not in the list.
    pub fn new(config: &ClusterConfig) -> Result<Cluster, String> {
        let mut names = config.peers.clone();
        names.sort();
        names.dedup();
        if names.is_empty() {
            return Err("cluster needs at least one peer".to_owned());
        }
        if names.len() > MAX_PEERS {
            return Err(format!(
                "cluster takes at most {MAX_PEERS} peers, got {}",
                names.len()
            ));
        }
        let addrs = names
            .iter()
            .map(|name| {
                name.to_socket_addrs()
                    .map_err(|e| format!("cannot resolve peer {name}: {e}"))?
                    .next()
                    .ok_or_else(|| format!("peer {name} resolves to no address"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let self_index = match &config.self_addr {
            None => None,
            Some(own) => Some(
                names
                    .iter()
                    .position(|n| n == own)
                    .ok_or_else(|| format!("self address {own} is not in the peer list"))?,
            ),
        };
        let ring = HashRing::new(&names);
        let table = Arc::new(PeerTable {
            breakers: names.iter().map(|_| Breaker::default()).collect(),
            names,
            addrs,
            counters: ClusterCounters::default(),
        });
        let prober = config
            .probe_interval
            .map(|interval| spawn_prober(Arc::clone(&table), self_index, interval));
        Ok(Cluster {
            self_index,
            ring,
            table,
            prober,
        })
    }

    /// The sorted peer list the ring was built from.
    #[must_use]
    pub fn nodes(&self) -> &[String] {
        &self.table.names
    }

    /// This process's index in [`Cluster::nodes`], when it is a member.
    #[must_use]
    pub fn self_index(&self) -> Option<usize> {
        self.self_index
    }

    /// The resolved address of one node.
    #[must_use]
    pub fn addr(&self, node: usize) -> SocketAddr {
        self.table.addrs[node]
    }

    /// The hash ring (ownership and failover order).
    #[must_use]
    pub fn ring(&self) -> &HashRing {
        &self.ring
    }

    /// One node's breaker.
    #[must_use]
    pub fn breaker(&self, node: usize) -> &Breaker {
        &self.table.breakers[node]
    }

    /// The cluster counters.
    #[must_use]
    pub fn counters(&self) -> &ClusterCounters {
        &self.table.counters
    }

    /// Picks the node for `fingerprint` at failover position `offset`
    /// (0 = the owner), skipping ahead past peers whose breaker
    /// refuses. Falls back to the positional candidate when every
    /// breaker refuses — sending *somewhere* beats failing fast.
    #[must_use]
    pub fn route(&self, fingerprint: u64, offset: usize) -> usize {
        let order: Vec<usize> = self.ring.replicas(fingerprint).collect();
        let candidate = order[offset % order.len()];
        if self.table.breakers[candidate].allow() {
            return candidate;
        }
        for step in 1..order.len() {
            let next = order[(offset + step) % order.len()];
            if self.table.breakers[next].allow() {
                return next;
            }
        }
        candidate
    }

    /// The forward target for a fingerprint this node received: the
    /// owner, unless that is us, the breaker refuses, or this process
    /// is not a cluster member.
    #[must_use]
    pub fn forward_target(&self, fingerprint: u64) -> Option<usize> {
        let owner = self.ring.owner(fingerprint);
        if self.self_index == Some(owner) || self.self_index.is_none() {
            return None;
        }
        self.table.breakers[owner].allow().then_some(owner)
    }

    /// Forwards one `/run` body to `node`, which serves it itself.
    /// The outcome feeds the breaker and `forwarded_requests` or
    /// `forward_failures`; `None` (transport failure or a non-200
    /// answer) means the caller simulates locally.
    #[must_use]
    pub fn forward_run(&self, node: usize, body: &str) -> Option<Vec<u8>> {
        let answer = self
            .table
            .client(node, FORWARD_TIMEOUT)
            .post_json("/run", body);
        let bytes = self.table.settle(node, answer).ok();
        let counters = &self.table.counters;
        let counter = if bytes.is_some() {
            &counters.forwarded_requests
        } else {
            &counters.forward_failures
        };
        counter.fetch_add(1, Ordering::Relaxed);
        bytes
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        if let Some(prober) = self.prober.take() {
            prober.stop.store(true, Ordering::SeqCst);
            let _ = prober.thread.join();
        }
    }
}

/// The active health prober: a `GET /healthz` round over every peer
/// (skipping self) each interval, feeding breakers and counters.
fn spawn_prober(table: Arc<PeerTable>, self_index: Option<usize>, interval: Duration) -> Prober {
    let stop = Arc::new(AtomicBool::new(false));
    let stop_flag = Arc::clone(&stop);
    let probe_timeout = interval.min(Duration::from_millis(500));
    let thread = std::thread::Builder::new()
        .name("warped-cluster-probe".to_owned())
        .spawn(move || {
            let tick = Duration::from_millis(25);
            loop {
                for node in 0..table.addrs.len() {
                    if stop_flag.load(Ordering::SeqCst) {
                        return;
                    }
                    if self_index == Some(node) {
                        continue;
                    }
                    let answer = table.client(node, probe_timeout).get("/healthz");
                    let _ = table.settle(node, answer);
                }
                // Sleep the interval in short ticks so drop-time join
                // never waits a full cadence.
                let slept_until = Instant::now() + interval;
                while Instant::now() < slept_until {
                    if stop_flag.load(Ordering::SeqCst) {
                        return;
                    }
                    std::thread::sleep(tick);
                }
            }
        })
        .expect("spawn prober thread");
    Prober { stop, thread }
}

// ---------------------------------------------------------------------------
// Cluster client
// ---------------------------------------------------------------------------

/// One routable cell: the `/run` body and its routing fingerprint.
#[derive(Debug, Clone)]
pub struct ClusterCell {
    /// The canonical `/run` request body.
    pub body: String,
    /// The cell's [`cell_fingerprint`] — should match what the server
    /// computes for `body`, or the cell is served off its owner (the
    /// bytes are the same; the owner's cache shard is not used).
    pub fingerprint: u64,
}

/// Builds a [`ClusterCell`] for a default-parameter cell, computing
/// the same fingerprint the server will (scale folded in, observe-only
/// switches excluded).
#[must_use]
pub fn cell_for(benchmark: Benchmark, technique: Technique, scale: f64) -> ClusterCell {
    let experiment = Experiment::new(GatingParams::default()).with_scale(scale);
    let fingerprint = cell_fingerprint(&experiment, &benchmark.spec(), technique);
    ClusterCell {
        body: format!(
            "{{\"benchmark\":\"{}\",\"technique\":\"{}\",\"scale\":{scale}}}",
            benchmark.name(),
            technique.name()
        ),
        fingerprint,
    }
}

/// How long a cell may sit outstanding with no sweep-wide progress
/// before it is hedged to the next replica.
const DEFAULT_HEDGE_AFTER: Duration = Duration::from_secs(3);

/// Threads re-dispatching failed/hedged cells cell-by-cell.
const RETRY_WORKERS: usize = 4;

/// A resilient client over a [`Cluster`]: routes each cell to its
/// ring owner, retries across replicas with decorrelated-jitter
/// backoff, and hedges sweep stragglers. The node it picks serves the
/// cell; no server re-routes it.
#[derive(Debug)]
pub struct ClusterClient {
    cluster: Cluster,
    attempt_timeout: Duration,
    hedge_after: Duration,
    rng: Mutex<SplitMix64>,
    retries: AtomicU64,
    hedged_cells: AtomicU64,
}

/// Coordinator-side cell state during a sweep.
enum CellState {
    Outstanding,
    Done(Vec<u8>),
    Failed(String),
}

impl ClusterClient {
    /// A client over `cluster` with a fixed backoff seed (pass a
    /// different seed per process for decorrelation).
    #[must_use]
    pub fn new(cluster: Cluster, seed: u64) -> Self {
        ClusterClient {
            cluster,
            attempt_timeout: Duration::from_secs(60),
            hedge_after: DEFAULT_HEDGE_AFTER,
            rng: Mutex::new(SplitMix64::new(seed)),
            retries: AtomicU64::new(0),
            hedged_cells: AtomicU64::new(0),
        }
    }

    /// Overrides the per-attempt timeout (connect + read).
    #[must_use]
    pub fn with_attempt_timeout(mut self, timeout: Duration) -> Self {
        self.attempt_timeout = timeout;
        self
    }

    /// Overrides the hedging trigger.
    #[must_use]
    pub fn with_hedge_after(mut self, after: Duration) -> Self {
        self.hedge_after = after;
        self
    }

    /// The cluster view (counters, ring, breakers).
    #[must_use]
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// Cell re-dispatches so far: retry attempts after a failure, and
    /// cells a `/sweep` stream left unanswered.
    #[must_use]
    pub fn retries(&self) -> u64 {
        self.retries.load(Ordering::Relaxed)
    }

    /// Straggler sweep cells hedged to the next ring replica so far.
    #[must_use]
    pub fn hedged_cells(&self) -> u64 {
        self.hedged_cells.load(Ordering::Relaxed)
    }

    fn node_client(&self, node: usize) -> Client {
        self.cluster.table.client(node, self.attempt_timeout)
    }

    /// Decorrelated jitter (AWS style): the next delay is uniform in
    /// `[base, 3 × previous]`, capped.
    fn next_delay(&self, previous: Duration) -> Duration {
        let base = BACKOFF_BASE.as_secs_f64();
        let upper = (previous.as_secs_f64() * 3.0).max(base);
        let draw = self.rng.lock().expect("rng lock poisoned").next_f64();
        let next = base + draw * (upper - base);
        Duration::from_secs_f64(next).min(BACKOFF_CAP)
    }

    /// Runs one cell with retries across the ring's replica order.
    ///
    /// # Errors
    ///
    /// Returns the last failure after every attempt and backoff.
    pub fn run(&self, cell: &ClusterCell) -> Result<Vec<u8>, String> {
        self.run_from(cell, 0)
    }

    /// [`ClusterClient::run`] starting at failover position `start`
    /// (1 = skip the owner; used for re-dispatch when the owner is the
    /// suspected failure).
    fn run_from(&self, cell: &ClusterCell, start: usize) -> Result<Vec<u8>, String> {
        let mut delay = BACKOFF_BASE;
        let mut last_err = String::new();
        for attempt in 0..MAX_ATTEMPTS {
            if attempt > 0 {
                self.retries.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(delay);
                delay = self.next_delay(delay);
            }
            let node = self
                .cluster
                .route(cell.fingerprint, start + attempt as usize);
            let answer = self.node_client(node).post_json("/run", &cell.body);
            match self.cluster.table.settle(node, answer) {
                Ok(bytes) => return Ok(bytes),
                Err(e) => last_err = e,
            }
        }
        Err(last_err)
    }

    /// Runs a batch of cells across the cluster: each node streams its
    /// owned shard through one `/sweep`, dead or erroring shards are
    /// re-dispatched cell-by-cell to other replicas, and stalled
    /// stragglers are hedged (once per cell) to the next replica.
    /// Results come back in input order, byte-identical to what `/run`
    /// answers for each cell.
    ///
    /// # Errors
    ///
    /// Returns a message when any cell exhausted every replica and
    /// retry.
    pub fn sweep(&self, cells: &[ClusterCell]) -> Result<Vec<Vec<u8>>, String> {
        if cells.is_empty() {
            return Ok(Vec::new());
        }
        let n = cells.len();
        let node_count = self.cluster.nodes().len();
        let mut groups: Vec<Vec<usize>> = vec![Vec::new(); node_count];
        for (i, cell) in cells.iter().enumerate() {
            groups[self.cluster.route(cell.fingerprint, 0)].push(i);
        }

        // Events: (cell index, terminal outcome of one dispatch).
        let (event_tx, event_rx) = mpsc::channel::<(usize, Result<Vec<u8>, String>)>();
        // Retry queue: cells needing cell-by-cell re-dispatch.
        let (retry_tx, retry_rx) = mpsc::channel::<usize>();
        let retry_rx = Mutex::new(retry_rx);
        // Lets late retry workers skip cells the coordinator already
        // settled (a benign race: a duplicate event is ignored).
        let answered: Vec<AtomicBool> = (0..n).map(|_| AtomicBool::new(false)).collect();

        let state = std::thread::scope(|scope| {
            for (node, group) in groups.iter().enumerate() {
                if group.is_empty() {
                    continue;
                }
                let event_tx = event_tx.clone();
                let retry_tx = retry_tx.clone();
                scope.spawn(move || {
                    self.stream_group(node, group, cells, &event_tx, &retry_tx);
                });
            }
            for _ in 0..RETRY_WORKERS.min(n) {
                let event_tx = event_tx.clone();
                let (retry_rx, answered) = (&retry_rx, &answered);
                scope.spawn(move || loop {
                    let next = retry_rx.lock().expect("retry lock poisoned").recv();
                    let Ok(index) = next else { break };
                    if answered[index].load(Ordering::Acquire) {
                        continue;
                    }
                    // Skip the owner: it is the suspected failure.
                    let outcome = self.run_from(&cells[index], 1);
                    if event_tx.send((index, outcome)).is_err() {
                        break;
                    }
                });
            }
            drop(event_tx);

            let mut state: Vec<CellState> = (0..n).map(|_| CellState::Outstanding).collect();
            let mut hedged = vec![false; n];
            let mut open = n;
            while open > 0 {
                match event_rx.recv_timeout(self.hedge_after) {
                    Ok((i, Ok(bytes))) => {
                        // First success wins; a success may also
                        // overturn an earlier terminal failure (the
                        // original stream answered late).
                        match state[i] {
                            CellState::Done(_) => {}
                            CellState::Outstanding => {
                                state[i] = CellState::Done(bytes);
                                answered[i].store(true, Ordering::Release);
                                open -= 1;
                            }
                            CellState::Failed(_) => {
                                state[i] = CellState::Done(bytes);
                                answered[i].store(true, Ordering::Release);
                            }
                        }
                    }
                    Ok((i, Err(e))) => {
                        if matches!(state[i], CellState::Outstanding) {
                            state[i] = CellState::Failed(e);
                            answered[i].store(true, Ordering::Release);
                            open -= 1;
                        }
                    }
                    Err(mpsc::RecvTimeoutError::Timeout) => {
                        // No progress for a whole hedge window: assume
                        // the outstanding cells sit on a stalled node
                        // and hedge each to the next replica, once.
                        for i in 0..n {
                            if matches!(state[i], CellState::Outstanding) && !hedged[i] {
                                hedged[i] = true;
                                self.hedged_cells.fetch_add(1, Ordering::Relaxed);
                                let _ = retry_tx.send(i);
                            }
                        }
                    }
                    Err(mpsc::RecvTimeoutError::Disconnected) => break,
                }
            }
            drop(retry_tx);
            state
        });

        let mut results = Vec::with_capacity(n);
        let mut failures: Vec<(usize, String)> = Vec::new();
        for (i, cell_state) in state.into_iter().enumerate() {
            match cell_state {
                CellState::Done(bytes) => results.push(bytes),
                CellState::Failed(e) => failures.push((i, e)),
                CellState::Outstanding => {
                    failures.push((i, "cell never completed".to_owned()));
                }
            }
        }
        if let Some((index, first)) = failures.first() {
            return Err(format!(
                "{} of {n} cells failed; first: cell {index}: {first}",
                failures.len()
            ));
        }
        Ok(results)
    }

    /// Streams one node's shard through `POST /sweep`, forwarding each
    /// completed report to the coordinator and requeueing every cell
    /// the stream never answered (death mid-sweep, error lines, or a
    /// non-200) for cell-by-cell retry on other replicas.
    fn stream_group(
        &self,
        node: usize,
        group: &[usize],
        cells: &[ClusterCell],
        event_tx: &mpsc::Sender<(usize, Result<Vec<u8>, String>)>,
        retry_tx: &mpsc::Sender<usize>,
    ) {
        let bodies: Vec<&str> = group.iter().map(|&i| cells[i].body.as_str()).collect();
        let body = format!("{{\"cells\":[{}]}}", bodies.join(","));
        let mut seen = vec![false; group.len()];
        let outcome = self
            .node_client(node)
            .post_stream_lines("/sweep", &body, |line| {
                // Error lines stay unseen and take the retry path.
                let Some((sub, bytes)) = read_report_line(line) else {
                    return;
                };
                if let Some(&global) = group.get(sub) {
                    seen[sub] = true;
                    let _ = event_tx.send((global, Ok(bytes)));
                }
            });
        // A broken stream counts against the node and a complete one
        // for it; error lines in a 200 stream say neither.
        let ok = matches!(outcome, Ok(200));
        if !ok || seen.iter().all(|s| *s) {
            self.cluster.table.book(node, ok);
        }
        for (sub, &global) in group.iter().enumerate() {
            if !seen[sub] {
                self.retries.fetch_add(1, Ordering::Relaxed);
                let _ = retry_tx.send(global);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Chaos
// ---------------------------------------------------------------------------

/// Fault injected into a running node (`POST /chaos` sets it).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[repr(u8)]
pub enum ChaosMode {
    /// No fault: serve normally.
    #[default]
    None = 0,
    /// Answer every request with a typed `500`.
    Error = 1,
    /// Freeze every request until the mode clears (bounded).
    Stall = 2,
    /// Drop the connection mid-request — an in-process `kill -9`.
    Abort = 3,
}

impl ChaosMode {
    /// Every mode with its wire name, indexed by its byte.
    const TABLE: [(ChaosMode, &'static str); 4] = [
        (ChaosMode::None, "none"),
        (ChaosMode::Error, "error"),
        (ChaosMode::Stall, "stall"),
        (ChaosMode::Abort, "abort"),
    ];

    /// Stable wire encoding (for the atomic the service stores).
    #[must_use]
    pub fn as_u8(self) -> u8 {
        self as u8
    }

    /// Inverse of [`ChaosMode::as_u8`] (unknown values are `None`).
    #[must_use]
    pub fn from_u8(value: u8) -> Self {
        Self::TABLE
            .get(usize::from(value))
            .map_or(ChaosMode::None, |(mode, _)| *mode)
    }

    /// The lowercase wire name.
    #[must_use]
    pub fn name(self) -> &'static str {
        Self::TABLE[usize::from(self.as_u8())].1
    }

    /// Parses a wire name.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Self> {
        Self::TABLE
            .iter()
            .find(|(_, wire)| *wire == name)
            .map(|(mode, _)| *mode)
    }
}

/// One scheduled fault: which node, what fault, and when.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosPlan {
    /// Index of the victim node (into the sorted peer list).
    pub victim: usize,
    /// The injected fault.
    pub mode: ChaosMode,
    /// Delay from harness start to injection.
    pub after: Duration,
}

/// The deterministic chaos schedule for a seed: equal seeds give equal
/// (victim, fault, delay) triples, so a failing chaos run reproduces
/// from its seed alone.
///
/// # Panics
///
/// Panics when `nodes` is zero.
#[must_use]
pub fn chaos_plan(seed: u64, nodes: usize) -> ChaosPlan {
    assert!(nodes > 0, "a chaos plan needs at least one node");
    let mut rng = SplitMix64::new(seed ^ RING_TAG);
    ChaosPlan {
        victim: rng.index(nodes),
        mode: [ChaosMode::Abort, ChaosMode::Stall, ChaosMode::Error][rng.index(3)],
        after: Duration::from_millis(300 + rng.below(1500)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn ring_ownership_is_deterministic_and_total() {
        let nodes = names(&["10.0.0.1:1", "10.0.0.2:1", "10.0.0.3:1"]);
        let a = HashRing::new(&nodes);
        let b = HashRing::new(&nodes);
        let mut rng = SplitMix64::new(7);
        let mut owned = [0usize; 3];
        for _ in 0..3000 {
            let key = rng.next_u64();
            let owner = a.owner(key);
            assert_eq!(owner, b.owner(key), "same list, same ring");
            owned[owner] += 1;
        }
        for (node, count) in owned.iter().enumerate() {
            assert!(
                *count > 300,
                "node {node} owns a reasonable share: {owned:?}"
            );
        }
    }

    #[test]
    fn ring_replicas_are_distinct_and_start_at_the_owner() {
        let nodes = names(&["a:1", "b:1", "c:1", "d:1"]);
        let ring = HashRing::new(&nodes);
        let mut rng = SplitMix64::new(11);
        for _ in 0..200 {
            let key = rng.next_u64();
            let order: Vec<usize> = ring.replicas(key).collect();
            assert_eq!(order.len(), 4);
            assert_eq!(order[0], ring.owner(key));
            let mut sorted = order.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), 4, "every node appears once: {order:?}");
        }
    }

    #[test]
    fn removing_a_node_only_remaps_its_own_keys() {
        let three = names(&["a:1", "b:1", "c:1"]);
        let two = names(&["a:1", "b:1"]);
        let full = HashRing::new(&three);
        let reduced = HashRing::new(&two);
        let mut rng = SplitMix64::new(3);
        let mut moved = 0;
        let mut kept = 0;
        for _ in 0..2000 {
            let key = rng.next_u64();
            let before = full.owner(key);
            let after = reduced.owner(key);
            if before == 2 {
                // c's keys must land somewhere among the survivors.
                assert!(after < 2);
            } else if before == after {
                kept += 1;
            } else {
                moved += 1;
            }
        }
        // Consistent hashing: keys not owned by the removed node stay
        // put (name-keyed points are identical across the two rings).
        assert_eq!(moved, 0, "{kept} kept, {moved} moved");
    }

    /// Ages an open breaker past its cooldown.
    fn cool(breaker: &Breaker) {
        let mut inner = breaker.inner.lock().unwrap();
        inner.opened_at = inner.opened_at.map(|at| at - BREAKER_COOLDOWN);
    }

    #[test]
    fn breaker_walks_closed_open_halfopen_and_back() {
        let breaker = Breaker::default();
        assert_eq!(breaker.state(), BreakerState::Closed);
        for _ in 1..BREAKER_THRESHOLD {
            assert!(!breaker.record_failure());
            assert!(breaker.allow(), "a short streak stays closed");
        }
        assert!(
            breaker.record_failure(),
            "the streak's last failure trips it"
        );
        assert_eq!(breaker.state(), BreakerState::Open);
        assert!(!breaker.allow(), "open refuses before the cooldown");

        cool(&breaker);
        assert!(breaker.allow(), "cooldown admits one trial");
        assert_eq!(breaker.state(), BreakerState::HalfOpen);
        assert!(!breaker.allow(), "only one trial at a time");
        assert!(breaker.record_failure(), "failed trial re-opens");
        assert_eq!(breaker.state(), BreakerState::Open);
        assert!(!breaker.allow(), "a re-opened breaker cools down again");

        cool(&breaker);
        assert!(breaker.allow());
        breaker.record_success();
        assert_eq!(breaker.state(), BreakerState::Closed);
        assert!(breaker.allow());
    }

    #[test]
    fn cluster_membership_is_order_insensitive_and_validated() {
        let forward = Cluster::new(&ClusterConfig {
            peers: names(&["127.0.0.1:19001", "127.0.0.1:19002"]),
            self_addr: Some("127.0.0.1:19001".to_owned()),
            probe_interval: None,
        })
        .unwrap();
        let backward = Cluster::new(&ClusterConfig {
            peers: names(&["127.0.0.1:19002", "127.0.0.1:19001"]),
            self_addr: Some("127.0.0.1:19002".to_owned()),
            probe_interval: None,
        })
        .unwrap();
        assert_eq!(forward.nodes(), backward.nodes(), "sorted membership");
        assert_eq!(forward.self_index(), Some(0));
        assert_eq!(backward.self_index(), Some(1));
        let mut rng = SplitMix64::new(5);
        for _ in 0..100 {
            let key = rng.next_u64();
            assert_eq!(
                forward.ring().owner(key),
                backward.ring().owner(key),
                "every member agrees on ownership"
            );
        }

        assert!(Cluster::new(&ClusterConfig::default()).is_err(), "empty");
        assert!(
            Cluster::new(&ClusterConfig {
                peers: names(&["127.0.0.1:19001"]),
                self_addr: Some("127.0.0.1:9".to_owned()),
                probe_interval: None,
            })
            .is_err(),
            "self must be a member"
        );
    }

    #[test]
    fn cluster_takes_at_most_128_peers_and_fails_over_to_every_one() {
        let peers = |n: u16| ClusterConfig {
            peers: (0..n).map(|i| format!("127.0.0.1:{}", 20000 + i)).collect(),
            self_addr: None,
            probe_interval: None,
        };
        assert_eq!(
            Cluster::new(&peers(129)).unwrap_err(),
            "cluster takes at most 128 peers, got 129"
        );
        let cluster = Cluster::new(&peers(128)).expect("128 peers build");
        let mut rng = SplitMix64::new(17);
        for _ in 0..20 {
            let mut order: Vec<usize> = cluster.ring().replicas(rng.next_u64()).collect();
            order.sort_unstable();
            assert_eq!(order, (0..128).collect::<Vec<_>>(), "every node once");
        }
    }

    #[test]
    fn route_skips_open_breakers() {
        let cluster = Cluster::new(&ClusterConfig {
            peers: names(&["127.0.0.1:19011", "127.0.0.1:19012", "127.0.0.1:19013"]),
            self_addr: None,
            probe_interval: None,
        })
        .unwrap();
        let cell = cell_for(Benchmark::Nw, Technique::Baseline, 0.05);
        let owner = cluster.ring().owner(cell.fingerprint);
        assert_eq!(cluster.route(cell.fingerprint, 0), owner);
        for _ in 0..BREAKER_THRESHOLD {
            cluster.table.book(owner, false);
        }
        assert_eq!(cluster.breaker(owner).state(), BreakerState::Open);
        let rerouted = cluster.route(cell.fingerprint, 0);
        assert_ne!(rerouted, owner, "open breaker skips the owner");
        let order: Vec<usize> = cluster.ring().replicas(cell.fingerprint).collect();
        assert_eq!(rerouted, order[1], "…to the next replica in ring order");
        assert_eq!(cluster.counters().breaker_open.load(Ordering::Relaxed), 1);
        assert_eq!(
            cluster.counters().peer_unhealthy.load(Ordering::Relaxed),
            u64::from(BREAKER_THRESHOLD)
        );
    }

    #[test]
    fn forward_target_is_loop_free() {
        let peers = names(&["127.0.0.1:19021", "127.0.0.1:19022"]);
        let config = |own: Option<&str>| ClusterConfig {
            peers: peers.clone(),
            self_addr: own.map(str::to_owned),
            probe_interval: None,
        };
        let a = Cluster::new(&config(Some("127.0.0.1:19021"))).unwrap();
        let b = Cluster::new(&config(Some("127.0.0.1:19022"))).unwrap();
        let mut rng = SplitMix64::new(13);
        for _ in 0..200 {
            let key = rng.next_u64();
            // Exactly one of the two nodes forwards any given key; the
            // other (the owner) serves locally.
            let targets = [a.forward_target(key), b.forward_target(key)];
            assert_eq!(
                targets.iter().filter(|t| t.is_some()).count(),
                1,
                "{targets:?}"
            );
        }
        // A pure client never forwards.
        let client_view = Cluster::new(&config(None)).unwrap();
        assert_eq!(client_view.forward_target(rng.next_u64()), None);
    }

    #[test]
    fn chaos_plan_is_deterministic_per_seed() {
        for seed in 0..50 {
            assert_eq!(chaos_plan(seed, 3), chaos_plan(seed, 3));
            let plan = chaos_plan(seed, 3);
            assert!(plan.victim < 3);
            assert!(plan.mode != ChaosMode::None);
            assert!(plan.after >= Duration::from_millis(300));
            assert!(plan.after < Duration::from_millis(1800));
        }
        assert_ne!(
            (0..50).map(|s| chaos_plan(s, 3).victim).sum::<usize>(),
            0,
            "victims vary across seeds"
        );
    }

    #[test]
    fn chaos_mode_round_trips_names_and_bytes() {
        for (byte, name) in [(0, "none"), (1, "error"), (2, "stall"), (3, "abort")] {
            let mode = ChaosMode::from_u8(byte);
            assert_eq!((mode.as_u8(), mode.name()), (byte, name));
            assert_eq!(ChaosMode::from_name(name), Some(mode));
        }
        assert_eq!(ChaosMode::from_u8(4), ChaosMode::None);
        assert_eq!(ChaosMode::from_name("nope"), None);
    }

    #[test]
    fn cell_for_matches_the_server_side_fingerprint() {
        // The client fingerprint must equal what the service computes
        // (which folds in its own job_timeout — excluded from the
        // hash) or cells would be served off their owners.
        let cell = cell_for(Benchmark::Bfs, Technique::WarpedGates, 0.25);
        let with_watchdog = Experiment::new(GatingParams::default())
            .with_scale(0.25)
            .with_job_timeout(Some(Duration::from_secs(600)));
        assert_eq!(
            cell.fingerprint,
            cell_fingerprint(
                &with_watchdog,
                &Benchmark::Bfs.spec(),
                Technique::WarpedGates
            )
        );
        assert!(cell.body.contains("\"scale\":0.25"));
    }
}
