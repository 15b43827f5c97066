//! Cluster-mode tests over real sockets: consistent-hash forwarding
//! for cluster-unaware clients, dead-owner fallback, chaos-killed
//! nodes mid-sweep, straggler hedging (neither of which makes a node
//! forward a client-routed cell), and the health prober tripping
//! breakers.

use std::net::TcpListener;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use warped_gates::Technique;
use warped_serve::cluster::{
    cell_for, ChaosMode, Cluster, ClusterCell, ClusterClient, ClusterConfig,
};
use warped_serve::{client, spawn, ServerConfig, ServerHandle};
use warped_workloads::Benchmark;

const SCALE: f64 = 0.05;

fn spawn_node() -> ServerHandle {
    spawn(ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: 4,
        ..ServerConfig::default()
    })
    .expect("bind an ephemeral port")
}

/// Arms every node with the same peer list (their real ephemeral
/// addresses, unknowable before spawn) and returns that list.
fn arm(nodes: &[&ServerHandle]) -> Vec<String> {
    let peers: Vec<String> = nodes.iter().map(|n| n.addr().to_string()).collect();
    for node in nodes {
        let cluster = Cluster::new(&ClusterConfig {
            peers: peers.clone(),
            self_addr: Some(node.addr().to_string()),
            probe_interval: None,
        })
        .expect("a valid cluster");
        node.service().arm_cluster(cluster);
    }
    peers
}

/// The client routes every cell itself and the node it lands on
/// serves it: no node forwarded, or tried to.
fn assert_no_node_forwarded(nodes: &[ServerHandle]) {
    for node in nodes {
        let counters = node.service().cluster().expect("armed").counters();
        assert_eq!(
            (
                counters.forwarded_requests.load(Ordering::Relaxed),
                counters.forward_failures.load(Ordering::Relaxed),
            ),
            (0, 0),
            "node {} forwarded a client-routed cell",
            node.addr()
        );
    }
}

/// A pure-client cluster view over `peers` (no self, no prober).
fn client_cluster(peers: &[String]) -> Cluster {
    Cluster::new(&ClusterConfig {
        peers: peers.to_vec(),
        self_addr: None,
        probe_interval: None,
    })
    .expect("a valid cluster")
}

/// Every default-parameter cell at the test scale, in grid order.
fn all_cells() -> Vec<ClusterCell> {
    Benchmark::ALL
        .iter()
        .flat_map(|b| Technique::ALL.iter().map(|t| cell_for(*b, *t, SCALE)))
        .collect()
}

/// An address that refuses connections: bind an ephemeral port, then
/// drop the listener so nothing is behind it.
fn dead_addr() -> String {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    listener.local_addr().expect("addr").to_string()
}

#[test]
fn misrouted_cells_forward_one_hop_to_their_owner() {
    let mut a = spawn_node();
    let mut b = spawn_node();
    let _peers = arm(&[&a, &b]);

    // A cell whose ring owner is node B, posted to node A.
    let cluster_a = a.service().cluster().expect("armed");
    let addr_b = b.addr().to_string();
    let cell = all_cells()
        .into_iter()
        .find(|c| cluster_a.nodes()[cluster_a.ring().owner(c.fingerprint)] == addr_b)
        .expect("some cell is owned by the other node");

    let via_a = client::post_json(a.addr(), "/run", &cell.body).expect("request");
    assert_eq!(via_a.status, 200, "{}", via_a.text());

    // A forwarded; B simulated; the bytes are B's.
    let counters = cluster_a.counters();
    assert_eq!(counters.forwarded_requests.load(Ordering::Relaxed), 1);
    assert_eq!(counters.forward_failures.load(Ordering::Relaxed), 0);
    assert_eq!(a.service().metrics.simulations.load(Ordering::Relaxed), 0);
    assert_eq!(b.service().metrics.simulations.load(Ordering::Relaxed), 1);
    let direct = client::post_json(b.addr(), "/run", &cell.body).expect("request");
    assert_eq!(
        via_a.body, direct.body,
        "forwarded bytes must equal the owner's own answer"
    );

    // The forward landed in A's memory cache: a repeat is local.
    let again = client::post_json(a.addr(), "/run", &cell.body).expect("request");
    assert_eq!(again.body, via_a.body);
    assert_eq!(
        counters.forwarded_requests.load(Ordering::Relaxed),
        1,
        "cached repeats must not re-forward"
    );

    a.shutdown();
    b.shutdown();
}

#[test]
fn dead_owner_falls_back_to_local_simulation() {
    let mut node = spawn_node();
    let dead = dead_addr();
    let peers = vec![node.addr().to_string(), dead.clone()];
    let cluster = Cluster::new(&ClusterConfig {
        peers: peers.clone(),
        self_addr: Some(node.addr().to_string()),
        probe_interval: None,
    })
    .expect("a valid cluster");
    node.service().arm_cluster(cluster);

    let cluster = node.service().cluster().expect("armed");
    let cell = all_cells()
        .into_iter()
        .find(|c| cluster.nodes()[cluster.ring().owner(c.fingerprint)] == dead)
        .expect("some cell is owned by the dead peer");

    // The forward fails fast (connection refused) and the node
    // answers from its own simulator anyway.
    let response = client::post_json(node.addr(), "/run", &cell.body).expect("request");
    assert_eq!(response.status, 200, "{}", response.text());
    assert!(response.text().contains("\"cycles\":"));
    let counters = cluster.counters();
    assert_eq!(counters.forward_failures.load(Ordering::Relaxed), 1);
    assert!(counters.peer_unhealthy.load(Ordering::Relaxed) >= 1);
    assert_eq!(
        node.service().metrics.simulations.load(Ordering::Relaxed),
        1
    );

    node.shutdown();
}

#[test]
fn killed_node_mid_sweep_still_returns_every_cell_bit_identical() {
    let mut nodes = [spawn_node(), spawn_node(), spawn_node()];
    let peers = arm(&[&nodes[0], &nodes[1], &nodes[2]]);
    let mut reference = spawn_node();

    let cells = all_cells();
    let cluster = client_cluster(&peers);
    // The victim owns cells[0]'s group, so at least one stream dies.
    let victim_addr = cluster.nodes()[cluster.route(cells[0].fingerprint, 0)].clone();
    let victim = nodes
        .iter()
        .find(|n| n.addr().to_string() == victim_addr)
        .expect("the victim is one of ours");
    victim.service().set_chaos(ChaosMode::Abort);

    let client = ClusterClient::new(cluster, 0xC1A0)
        .with_attempt_timeout(Duration::from_secs(30))
        .with_hedge_after(Duration::from_secs(5));
    let results = client.sweep(&cells).expect("the sweep survives the kill");
    assert_eq!(results.len(), cells.len());

    // Every cell answered, bit-for-bit what an unclustered server says.
    for (cell, result) in cells.iter().zip(&results) {
        let direct = client::post_json(reference.addr(), "/run", &cell.body).expect("reference");
        assert_eq!(direct.status, 200, "{}", direct.text());
        assert_eq!(
            result, &direct.body,
            "cluster result for {} diverges from the reference",
            cell.body
        );
    }

    // The failover is visible: the dead streams were re-dispatched.
    assert!(
        client.retries() >= 1,
        "killed streams must requeue their cells as retries"
    );
    assert_no_node_forwarded(&nodes);

    victim.service().set_chaos(ChaosMode::None);
    for node in &mut nodes {
        node.shutdown();
    }
    reference.shutdown();
}

#[test]
fn stalled_node_is_hedged_to_a_replica() {
    let mut nodes = [spawn_node(), spawn_node(), spawn_node()];
    // Default (30 s) forward timeout: a replica that forwarded a hedged
    // cell to the stalled owner would outwait the whole sweep.
    let peers = arm(&[&nodes[0], &nodes[1], &nodes[2]]);

    let cells = all_cells();
    let cluster = client_cluster(&peers);
    let victim_addr = cluster.nodes()[cluster.route(cells[0].fingerprint, 0)].clone();
    let victim = nodes
        .iter()
        .find(|n| n.addr().to_string() == victim_addr)
        .expect("the victim is one of ours");
    victim.service().set_chaos(ChaosMode::Stall);

    // Hedge after 400ms of sweep-wide silence; the stalled stream's
    // own read timeout (2s) bounds how long sweep() waits to join it.
    let client = ClusterClient::new(cluster, 0x57A11)
        .with_attempt_timeout(Duration::from_secs(2))
        .with_hedge_after(Duration::from_millis(400));
    let results = client
        .sweep(&cells)
        .expect("the sweep routes around the stall");
    assert_eq!(results.len(), cells.len());
    for result in &results {
        assert!(
            String::from_utf8_lossy(result).contains("\"cycles\":"),
            "every cell carries a report"
        );
    }
    assert!(
        client.hedged_cells() >= 1,
        "stragglers behind the stall must be hedged"
    );
    assert_no_node_forwarded(&nodes);

    // Release the stalled workers before asking the victim to drain.
    victim.service().set_chaos(ChaosMode::None);
    for node in &mut nodes {
        node.shutdown();
    }
}

#[test]
fn prober_trips_the_breaker_on_a_dead_peer() {
    let mut live = spawn_node();
    let dead = dead_addr();
    let cluster = Cluster::new(&ClusterConfig {
        peers: vec![live.addr().to_string(), dead.clone()],
        self_addr: None,
        probe_interval: Some(Duration::from_millis(50)),
    })
    .expect("a valid cluster");
    let dead_index = cluster
        .nodes()
        .iter()
        .position(|n| *n == dead)
        .expect("the dead peer is a member");

    // Failed probes accumulate until the breaker trips open.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let counters = cluster.counters();
        if counters.peer_unhealthy.load(Ordering::Relaxed) >= 3
            && counters.breaker_open.load(Ordering::Relaxed) >= 1
        {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "the prober never tripped the breaker: unhealthy={} open={}",
            counters.peer_unhealthy.load(Ordering::Relaxed),
            counters.breaker_open.load(Ordering::Relaxed)
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(
        !cluster.breaker(dead_index).allow()
            || cluster.counters().breaker_open.load(Ordering::Relaxed) >= 1,
        "the dead peer's breaker is open (modulo a half-open trial)"
    );
    // The live peer stays closed: routing never detours around it.
    let live_index = 1 - dead_index;
    assert!(cluster.breaker(live_index).allow());

    drop(cluster);
    live.shutdown();
}
