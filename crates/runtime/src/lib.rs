//! `sb-runtime`: the SkyBridge serving runtime.
//!
//! The core crates model one call; this crate turns the call primitive
//! into a *serving system* and asks the paper's throughput question at
//! scale: given a stream of millions of requests, how much offered load
//! can each IPC transport sustain before the server has to shed?
//!
//! The pieces:
//!
//! * [`Transport`] (from `sb-transport`) — `bind` / `call` / `reply` /
//!   `recover` over per-lane simulated cores, with the zero-copy
//!   [`sb_transport::wire`] message layout. [`SkyBridgeTransport`] serves
//!   via `direct_server_call` (one connection slot, and so one shared
//!   buffer, per server thread — §4.4's concurrency rule);
//!   [`TrapIpcTransport`] serves via `ipc_call` / `ipc_reply` under a
//!   seL4/Fiasco.OC/Zircon personality; [`MpkTransport`] (from
//!   `sb-transport`) crosses protection-key domains with two `WRPKRU`
//!   flips in a single address space; `FixedServiceTransport` is the
//!   synthetic backend for dispatcher tests, and [`Faulty`] wraps any of
//!   them with the chaos fault plane.
//! * [`ServerRuntime`] — a discrete-event dispatcher: per-tenant bounded
//!   queues in a [`TenantFabric`] drained onto the earliest-free lane,
//!   admission control ([`AdmissionPolicy::Shed`] vs
//!   [`AdmissionPolicy::Block`]), optional queue deadlines, and per-call
//!   DoS-timeout budgets via the existing `skybridge` §7 machinery.
//! * [`RingRuntime`] — the same server over [`RingTransport`] submission
//!   rings: the ring is the queue, and an adaptive doorbell batches
//!   crossings under load.
//! * Both runtimes share one private serving core: the tenant gate,
//!   deadline storms, retries with recovery and backoff, and outcome
//!   accounting into [`RunStats`], the SLO tracker and the fabric.
//! * [`PoissonArrivals`] / [`RequestFactory`] — open-loop Poisson and
//!   closed-loop load generation over `sb-ycsb` key mixes.
//! * [`RunStats`] — throughput, p50/p95/p99 latency in simulated cycles,
//!   queue depth, shed counts, marshalling bytes copied, per-core
//!   utilization (JSON serialization lives in `sb-bench`'s report
//!   module).

pub mod dispatch;
pub mod load;
pub mod ring_run;
mod serve;
pub mod sky;
pub mod stats;
pub mod tenant;
pub mod trap;

pub use sb_observe::Recorder;
pub use sb_sentinel::{SloHandle, SloSpec};
pub use sb_transport::{
    service::ServiceSpec, CallError, Faulty, FixedServiceTransport, MpkTransport, Request,
    RingConfig, RingTransport, TenantId, Transport,
};

pub use crate::{
    dispatch::{RetryPolicy, RuntimeConfig, ServerRuntime},
    load::{PoissonArrivals, RequestFactory},
    ring_run::RingRuntime,
    sky::SkyBridgeTransport,
    stats::{LatencyTrack, RunStats, TenantStats, EXACT_LATENCY_CAP},
    tenant::{
        AdmissionPolicy, Gate, RateLimit, TenantAction, TenantFabric, TenantRegistry, TenantSpec,
    },
    trap::TrapIpcTransport,
};
