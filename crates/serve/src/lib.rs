//! `warped-serve`: the experiment engine as a std-only HTTP service.
//!
//! The simulator is deterministic — a grid cell's report is a pure
//! function of its configuration — so serving it is mostly a caching
//! problem. This crate wraps the engine in a hand-rolled HTTP/1.1
//! server (no external dependencies, like the rest of the workspace)
//! with a sharded content-addressed result cache and single-flight
//! deduplication: N identical concurrent `POST /run` requests cost
//! exactly one simulation, and everyone gets byte-identical JSON.
//! Connections are persistent (HTTP/1.1 keep-alive with pipelining),
//! `POST /sweep` streams a whole batch of cells back as JSONL in
//! completion order, and an optional on-disk cache makes restarts
//! come up warm.
//!
//! Layering, transport-independent at the core:
//!
//! * [`json`] — the workspace's bounded JSON value parser and string
//!   escaper, re-exported from `warped_telemetry::json`.
//! * [`http`] — HTTP/1.1 framing (requests, responses, keep-alive
//!   rules, chunked bodies).
//! * [`cache`] — the sharded single-flight LRU result cache.
//! * [`cluster`] — consistent-hash sharding across peer nodes with
//!   health-checked failover, peer forwarding, circuit breakers, and
//!   a retrying/hedging cluster client plus the chaos harness.
//! * [`disk`] — the persistent `fingerprint → bytes` warm cache.
//! * [`metrics`] — wait-free counters and their `/metrics` exposition.
//! * [`service`] — routing and endpoint logic over `Request` + `Write`
//!   (no sockets; unit-testable against byte buffers).
//! * [`server`] — the TCP transport: an acceptor under a connection
//!   cap, one thread per connection blocking on its socket between
//!   keep-alive requests, and cooperative graceful shutdown.
//! * [`client`] — a blocking keep-alive client for tests, scripts,
//!   and the `loadgen` benchmark binary.
//!
//! See `DESIGN.md` §13 and §15 for the architecture discussion and
//! `README.md` for a quickstart.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod client;
pub mod cluster;
pub mod disk;
pub mod http;
pub mod metrics;
pub mod server;
pub mod service;

pub use server::{spawn, ServerConfig, ServerHandle};
pub use service::{Handled, Service, ServiceConfig};
pub use warped_telemetry::json;
