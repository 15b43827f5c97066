//! Service counters, rendered as a plain-text exposition page.
//!
//! The format is the Prometheus text convention (`name value`, one per
//! line, `#`-prefixed help lines) without any client library — every
//! counter is a relaxed atomic, so `/metrics` is wait-free and safe to
//! poll from a watchdog at any frequency.

use std::sync::atomic::{AtomicU64, Ordering};

/// All service counters. Cheap to share behind an `Arc`.
#[derive(Debug, Default)]
pub struct Metrics {
    /// Requests accepted, any endpoint (including malformed ones).
    pub requests: AtomicU64,
    /// Requests answered 4xx.
    pub client_errors: AtomicU64,
    /// Requests answered 5xx.
    pub server_errors: AtomicU64,
    /// `/run` jobs currently simulating.
    pub in_flight: AtomicU64,
    /// `/run` cells that panicked inside the simulator.
    pub panicked_cells: AtomicU64,
    /// `/run` cells cut off by the wall-clock watchdog.
    pub timed_out_cells: AtomicU64,
    /// Simulations actually executed (cache layers bypassed nothing).
    pub simulations: AtomicU64,
    /// Connections that served a second request over the same socket
    /// (counted once per connection, at its first reuse).
    pub connections_reused: AtomicU64,
    /// Requests whose bytes were already buffered behind the previous
    /// request on the same connection (true pipelining).
    pub pipelined_requests: AtomicU64,
    /// Keep-alive sockets closed after idling past the keep-alive
    /// timeout.
    pub reaped_idle_sockets: AtomicU64,
    /// `/sweep` cells answered without a fresh simulation (memory
    /// cache hit or coalesced onto an in-flight computation).
    pub sweep_cells_deduped: AtomicU64,
    /// Cells submitted across all `/sweep` batches.
    pub sweep_cells: AtomicU64,
    /// Events dispatched by the simulator clock across all fresh
    /// simulations (cache hits re-serve bytes and add nothing).
    pub events_dispatched: AtomicU64,
    /// High-water mark of the event-queue population over all fresh
    /// simulations.
    pub heap_peak: AtomicU64,
    /// Idle cycles the event-queue core jumped over instead of
    /// stepping ([`SimStats::fast_forwarded_cycles`](warped_sim::SimStats)),
    /// across all fresh simulations.
    pub idle_cycles_skipped: AtomicU64,
    /// Connections refused with a `503` because the connection cap
    /// was reached (load shedding instead of blocking the acceptor).
    pub shed_requests: AtomicU64,
    /// Memory accesses issued by hierarchy-armed simulations (zero
    /// while every request uses the flat latency model).
    pub mem_accesses: AtomicU64,
    /// L1 hits across hierarchy-armed simulations.
    pub mem_l1_hits: AtomicU64,
    /// L1 misses (MSHR allocations + merges) across hierarchy-armed
    /// simulations.
    pub mem_l1_misses: AtomicU64,
    /// Loads coalesced onto an in-flight MSHR line.
    pub mem_mshr_merges: AtomicU64,
    /// Cache-line fills delivered by the hierarchy.
    pub mem_fills: AtomicU64,
    /// L2 misses that went to the DRAM interval queue.
    pub mem_l2_misses: AtomicU64,
    /// High-water mark of live L1 MSHR entries over all
    /// hierarchy-armed simulations.
    pub mem_mshr_peak: AtomicU64,
    /// WGT1 trace workloads loaded from the corpus directory at
    /// startup (zero while the server runs without `--trace-dir`).
    pub traces_loaded: AtomicU64,
    /// Corpus files skipped at startup because they failed to parse.
    pub trace_parse_errors: AtomicU64,
    /// `/run` and `/sweep` cells answered from a captured trace
    /// workload (through any cache layer or a fresh simulation).
    pub trace_cells_served: AtomicU64,
}

/// RAII guard bumping `in_flight` for the duration of a job.
pub struct InFlightGuard<'a>(&'a AtomicU64);

impl Drop for InFlightGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }
}

impl Metrics {
    /// Marks one simulation job as running until the guard drops.
    #[must_use]
    pub fn job_started(&self) -> InFlightGuard<'_> {
        self.in_flight.fetch_add(1, Ordering::Relaxed);
        InFlightGuard(&self.in_flight)
    }

    /// Folds one fresh simulation's event-core counters into the
    /// service totals (sums, except the queue peak which is a
    /// high-water mark).
    pub fn record_core_counters(&self, stats: &warped_sim::SimStats) {
        self.events_dispatched
            .fetch_add(stats.events_dispatched, Ordering::Relaxed);
        self.heap_peak.fetch_max(stats.heap_peak, Ordering::Relaxed);
        self.idle_cycles_skipped
            .fetch_add(stats.fast_forwarded_cycles, Ordering::Relaxed);
        // Memory-hierarchy counters stay zero while every request uses
        // the flat latency model, so scrapers see a stable series set.
        let mem = &stats.mem;
        if mem.hierarchy {
            self.mem_accesses.fetch_add(mem.accesses, Ordering::Relaxed);
            self.mem_l1_hits.fetch_add(mem.l1_hits, Ordering::Relaxed);
            self.mem_l1_misses
                .fetch_add(mem.l1_misses, Ordering::Relaxed);
            self.mem_mshr_merges
                .fetch_add(mem.mshr_merges, Ordering::Relaxed);
            self.mem_fills.fetch_add(mem.fills, Ordering::Relaxed);
            self.mem_l2_misses
                .fetch_add(mem.l2_misses, Ordering::Relaxed);
            self.mem_mshr_peak
                .fetch_max(u64::from(mem.mshr_peak), Ordering::Relaxed);
        }
    }

    /// Records the response status of one request.
    pub fn count_status(&self, status: u16) {
        match status {
            400..=499 => {
                self.client_errors.fetch_add(1, Ordering::Relaxed);
            }
            500..=599 => {
                self.server_errors.fetch_add(1, Ordering::Relaxed);
            }
            _ => {}
        }
    }

    /// Renders the exposition page, merging in the counters of the
    /// memory cache, (when persistence is on) the disk cache, and
    /// (when cluster mode is armed) the cluster layer.
    #[must_use]
    pub fn render<E>(
        &self,
        cache: &crate::cache::ResultCache<E>,
        disk: Option<&crate::disk::DiskCache>,
        cluster: Option<&crate::cluster::Cluster>,
    ) -> String {
        let mut out = String::new();
        let mut counter = |name: &str, help: &str, value: u64| {
            out.push_str(&format!("# HELP {name} {help}\n{name} {value}\n"));
        };
        counter(
            "warped_serve_requests_total",
            "Requests accepted on any endpoint.",
            self.requests.load(Ordering::Relaxed),
        );
        counter(
            "warped_serve_client_errors_total",
            "Requests answered with a 4xx status.",
            self.client_errors.load(Ordering::Relaxed),
        );
        counter(
            "warped_serve_server_errors_total",
            "Requests answered with a 5xx status.",
            self.server_errors.load(Ordering::Relaxed),
        );
        counter(
            "warped_serve_cache_hits_total",
            "Run results served from the cache (coalesced waiters included).",
            cache.hits(),
        );
        counter(
            "warped_serve_cache_misses_total",
            "Run results that required a fresh simulation.",
            cache.misses(),
        );
        counter(
            "warped_serve_cache_evictions_total",
            "Cached results evicted under byte pressure.",
            cache.evictions(),
        );
        counter(
            "warped_serve_cache_bytes",
            "Bytes currently held by cached results.",
            cache.bytes() as u64,
        );
        counter(
            "warped_serve_jobs_in_flight",
            "Simulations running right now.",
            self.in_flight.load(Ordering::Relaxed),
        );
        counter(
            "warped_serve_panicked_cells_total",
            "Run cells that panicked inside the simulator.",
            self.panicked_cells.load(Ordering::Relaxed),
        );
        counter(
            "warped_serve_timed_out_cells_total",
            "Run cells cut off by the wall-clock watchdog.",
            self.timed_out_cells.load(Ordering::Relaxed),
        );
        counter(
            "warped_serve_simulations_total",
            "Simulations actually executed (not served by any cache layer).",
            self.simulations.load(Ordering::Relaxed),
        );
        counter(
            "warped_serve_connections_reused_total",
            "Connections that served more than one request.",
            self.connections_reused.load(Ordering::Relaxed),
        );
        counter(
            "warped_serve_pipelined_requests_total",
            "Requests already buffered behind the previous one on the same socket.",
            self.pipelined_requests.load(Ordering::Relaxed),
        );
        counter(
            "warped_serve_reaped_idle_sockets_total",
            "Keep-alive sockets closed after idling past the keep-alive timeout.",
            self.reaped_idle_sockets.load(Ordering::Relaxed),
        );
        counter(
            "warped_serve_sweep_cells_total",
            "Cells submitted across all /sweep batches.",
            self.sweep_cells.load(Ordering::Relaxed),
        );
        counter(
            "warped_serve_sweep_cells_deduped_total",
            "/sweep cells served without a fresh simulation.",
            self.sweep_cells_deduped.load(Ordering::Relaxed),
        );
        counter(
            "warped_serve_disk_cache_hits_total",
            "Results served from the on-disk warm cache.",
            disk.map_or(0, crate::disk::DiskCache::hits),
        );
        counter(
            "warped_serve_disk_cache_misses_total",
            "Disk-cache lookups that found no usable entry.",
            disk.map_or(0, crate::disk::DiskCache::misses),
        );
        counter(
            "warped_serve_disk_cache_evictions_total",
            "Disk-cache entries deleted under byte pressure.",
            disk.map_or(0, crate::disk::DiskCache::evictions),
        );
        counter(
            "warped_serve_disk_cache_bytes",
            "Bytes currently held by on-disk cache entries.",
            disk.map_or(0, crate::disk::DiskCache::bytes),
        );
        counter(
            "warped_serve_sim_events_dispatched_total",
            "Clock events dispatched across all fresh simulations.",
            self.events_dispatched.load(Ordering::Relaxed),
        );
        counter(
            "warped_serve_sim_heap_peak",
            "High-water event-queue population over all fresh simulations.",
            self.heap_peak.load(Ordering::Relaxed),
        );
        counter(
            "warped_serve_sim_idle_cycles_skipped_total",
            "Idle cycles jumped by the event-queue core instead of stepped.",
            self.idle_cycles_skipped.load(Ordering::Relaxed),
        );
        counter(
            "warped_serve_shed_requests_total",
            "Connections answered 503 because the connection cap was reached.",
            self.shed_requests.load(Ordering::Relaxed),
        );
        counter(
            "warped_serve_sim_mem_accesses_total",
            "Memory accesses issued by hierarchy-armed simulations.",
            self.mem_accesses.load(Ordering::Relaxed),
        );
        counter(
            "warped_serve_sim_mem_l1_hits_total",
            "L1 hits across hierarchy-armed simulations.",
            self.mem_l1_hits.load(Ordering::Relaxed),
        );
        counter(
            "warped_serve_sim_mem_l1_misses_total",
            "L1 misses across hierarchy-armed simulations.",
            self.mem_l1_misses.load(Ordering::Relaxed),
        );
        counter(
            "warped_serve_sim_mem_mshr_merges_total",
            "Loads coalesced onto an in-flight MSHR line.",
            self.mem_mshr_merges.load(Ordering::Relaxed),
        );
        counter(
            "warped_serve_sim_mem_fills_total",
            "Cache-line fills delivered by the hierarchy.",
            self.mem_fills.load(Ordering::Relaxed),
        );
        counter(
            "warped_serve_sim_mem_l2_misses_total",
            "L2 misses that queued on the DRAM interval model.",
            self.mem_l2_misses.load(Ordering::Relaxed),
        );
        counter(
            "warped_serve_sim_mem_mshr_peak",
            "High-water live L1 MSHR entries over hierarchy-armed simulations.",
            self.mem_mshr_peak.load(Ordering::Relaxed),
        );
        // Trace-corpus counters render unconditionally — a stable set
        // of series whether or not a corpus is loaded, like the disk
        // and cluster blocks.
        counter(
            "warped_serve_trace_workloads_loaded",
            "WGT1 trace workloads loaded from the corpus directory.",
            self.traces_loaded.load(Ordering::Relaxed),
        );
        counter(
            "warped_serve_trace_parse_errors_total",
            "Corpus trace files skipped because they failed to parse.",
            self.trace_parse_errors.load(Ordering::Relaxed),
        );
        counter(
            "warped_serve_trace_cells_served_total",
            "Run/sweep cells answered from a captured trace workload.",
            self.trace_cells_served.load(Ordering::Relaxed),
        );
        // Cluster counters render as a stable set of series whether or
        // not cluster mode is armed, like the disk-cache block above.
        let cc = cluster.map(crate::cluster::Cluster::counters);
        let cluster_counter =
            |name: &'static str, help, f: fn(&crate::cluster::ClusterCounters) -> &AtomicU64| {
                (name, help, cc.map_or(0, |c| f(c).load(Ordering::Relaxed)))
            };
        for (name, help, value) in [
            cluster_counter(
                "warped_serve_cluster_forwarded_requests_total",
                "Mis-routed cells successfully forwarded to their ring owner.",
                |c| &c.forwarded_requests,
            ),
            cluster_counter(
                "warped_serve_cluster_forward_failures_total",
                "Peer forwards that failed and fell back to local simulation.",
                |c| &c.forward_failures,
            ),
            cluster_counter(
                "warped_serve_cluster_retries_total",
                "Cell dispatches retried on another replica.",
                |c| &c.retries,
            ),
            cluster_counter(
                "warped_serve_cluster_hedged_cells_total",
                "Straggler sweep cells hedged to the next ring replica.",
                |c| &c.hedged_cells,
            ),
            cluster_counter(
                "warped_serve_cluster_breaker_open_total",
                "Circuit-breaker trips (transitions to the open state).",
                |c| &c.breaker_open,
            ),
            cluster_counter(
                "warped_serve_cluster_peer_unhealthy_total",
                "Failed peer health observations (probes and passive).",
                |c| &c.peer_unhealthy,
            ),
        ] {
            counter(name, help, value);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::ResultCache;

    #[test]
    fn renders_every_counter_with_current_values() {
        let m = Metrics::default();
        let cache: ResultCache<String> = ResultCache::new(2, 1024);
        m.requests.fetch_add(3, Ordering::Relaxed);
        m.count_status(404);
        m.count_status(500);
        m.count_status(200);
        let (r, _) = cache.get_or_compute(1, || Ok(b"x".to_vec()));
        r.unwrap();
        let (r, _) = cache.get_or_compute(1, || unreachable!());
        r.unwrap();

        let mut stats = warped_sim::SimStats {
            events_dispatched: 40,
            heap_peak: 7,
            fast_forwarded_cycles: 9,
            ..Default::default()
        };
        // Flat-model runs leave every mem series untouched even with
        // nonzero legacy load counters.
        stats.mem.accesses = 11;
        m.record_core_counters(&stats);
        stats.heap_peak = 5; // lower peak must not regress the high-water
        m.record_core_counters(&stats);
        assert_eq!(m.mem_accesses.load(Ordering::Relaxed), 0);
        stats.mem = warped_sim::MemoryStats {
            hierarchy: true,
            accesses: 10,
            l1_hits: 6,
            l1_misses: 4,
            mshr_merges: 1,
            fills: 3,
            l2_misses: 2,
            mshr_peak: 3,
            ..Default::default()
        };
        stats.events_dispatched = 0;
        stats.fast_forwarded_cycles = 0;
        stats.heap_peak = 0;
        m.record_core_counters(&stats);
        stats.mem.mshr_peak = 2; // lower MSHR peak must not regress either
        m.record_core_counters(&stats);

        m.shed_requests.fetch_add(2, Ordering::Relaxed);

        let page = m.render(&cache, None, None);
        assert!(page.contains("warped_serve_requests_total 3"));
        assert!(page.contains("warped_serve_sim_events_dispatched_total 80"));
        assert!(page.contains("warped_serve_sim_heap_peak 7"));
        assert!(page.contains("warped_serve_sim_idle_cycles_skipped_total 18"));
        assert!(page.contains("warped_serve_client_errors_total 1"));
        assert!(page.contains("warped_serve_server_errors_total 1"));
        assert!(page.contains("warped_serve_cache_hits_total 1"));
        assert!(page.contains("warped_serve_cache_misses_total 1"));
        assert!(page.contains("warped_serve_cache_bytes 1"));
        assert!(page.contains("warped_serve_jobs_in_flight 0"));
        // Without persistence the disk counters render as zeros, so
        // scrapers see a stable set of series either way.
        assert!(page.contains("warped_serve_disk_cache_hits_total 0"));
        assert!(page.contains("warped_serve_connections_reused_total 0"));
        assert!(page.contains("warped_serve_pipelined_requests_total 0"));
        assert!(page.contains("warped_serve_reaped_idle_sockets_total 0"));
        assert!(page.contains("warped_serve_sweep_cells_deduped_total 0"));
        assert!(page.contains("warped_serve_simulations_total 0"));
        assert!(page.contains("warped_serve_shed_requests_total 2"));
        assert!(page.contains("warped_serve_sim_mem_accesses_total 20"));
        assert!(page.contains("warped_serve_sim_mem_l1_hits_total 12"));
        assert!(page.contains("warped_serve_sim_mem_l1_misses_total 8"));
        assert!(page.contains("warped_serve_sim_mem_mshr_merges_total 2"));
        assert!(page.contains("warped_serve_sim_mem_fills_total 6"));
        assert!(page.contains("warped_serve_sim_mem_l2_misses_total 4"));
        assert!(page.contains("warped_serve_sim_mem_mshr_peak 3"));
        // Trace counters are a stable series set: zeros while no
        // corpus is loaded.
        assert!(page.contains("warped_serve_trace_workloads_loaded 0"));
        assert!(page.contains("warped_serve_trace_parse_errors_total 0"));
        assert!(page.contains("warped_serve_trace_cells_served_total 0"));
        // Cluster counters are present (as zeros) even off-cluster.
        assert!(page.contains("warped_serve_cluster_forwarded_requests_total 0"));
        assert!(page.contains("warped_serve_cluster_retries_total 0"));
        assert!(page.contains("warped_serve_cluster_hedged_cells_total 0"));
        assert!(page.contains("warped_serve_cluster_breaker_open_total 0"));
        assert!(page.contains("warped_serve_cluster_peer_unhealthy_total 0"));
        assert!(page.contains("warped_serve_cluster_forward_failures_total 0"));
    }

    #[test]
    fn renders_live_cluster_counters_when_armed() {
        use crate::cluster::{Cluster, ClusterConfig};
        let m = Metrics::default();
        let cache: ResultCache<String> = ResultCache::new(2, 1024);
        let cluster = Cluster::new(&ClusterConfig {
            peers: vec!["127.0.0.1:19901".to_owned(), "127.0.0.1:19902".to_owned()],
            probe_interval: None,
            ..ClusterConfig::default()
        })
        .unwrap();
        cluster
            .counters()
            .hedged_cells
            .fetch_add(4, Ordering::Relaxed);
        let page = m.render(&cache, None, Some(&cluster));
        assert!(page.contains("warped_serve_cluster_hedged_cells_total 4"));
    }

    #[test]
    fn in_flight_guard_is_raii() {
        let m = Metrics::default();
        {
            let _g = m.job_started();
            assert_eq!(m.in_flight.load(Ordering::Relaxed), 1);
            let _g2 = m.job_started();
            assert_eq!(m.in_flight.load(Ordering::Relaxed), 2);
        }
        assert_eq!(m.in_flight.load(Ordering::Relaxed), 0);
    }
}
