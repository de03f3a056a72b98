//! What each workload runs: personalities, frozen rates and deadlines,
//! run sizes, and seed derivation.
//!
//! Offered rates and queue deadlines are constants, set once from the
//! service times the personalities had when the benchmark was defined
//! and never recalibrated by a run. A faster transport therefore shows
//! as lower latency at the same offered rate, not as a different load.

use sb_microkernel::Personality;
use sb_runtime::{
    AdmissionPolicy, MpkTransport, RingConfig, RuntimeConfig, ServiceSpec, SkyBridgeTransport,
    TenantRegistry, TenantSpec, Transport, TrapIpcTransport,
};
use sb_sim::Cycles;

/// The five IPC personalities.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Pers {
    /// SkyBridge `direct_server_call` over VMFUNC.
    SkyBridge,
    /// MPK protection-key crossing (two WRPKRU flips).
    Mpk,
    /// seL4 trap IPC.
    Sel4,
    /// Fiasco.OC trap IPC.
    Fiasco,
    /// Zircon trap IPC.
    Zircon,
}

impl Pers {
    /// Every personality, in report order.
    pub const ALL: [Pers; 5] = [
        Pers::SkyBridge,
        Pers::Mpk,
        Pers::Sel4,
        Pers::Fiasco,
        Pers::Zircon,
    ];

    /// Metric-name suffix.
    pub fn name(self) -> &'static str {
        match self {
            Pers::SkyBridge => "skybridge",
            Pers::Mpk => "mpk",
            Pers::Sel4 => "sel4",
            Pers::Fiasco => "fiasco",
            Pers::Zircon => "zircon",
        }
    }

    /// The host-time series this personality's chunks pool into: the
    /// three trap kernels share `trap`.
    pub fn series(self) -> &'static str {
        match self {
            Pers::SkyBridge | Pers::Mpk => self.name(),
            _ => "trap",
        }
    }

    /// The microkernel personality of a trap transport.
    pub fn trap_kernel(self) -> Option<Personality> {
        match self {
            Pers::Sel4 => Some(Personality::sel4()),
            Pers::Fiasco => Some(Personality::fiasco_oc()),
            Pers::Zircon => Some(Personality::zircon()),
            Pers::SkyBridge | Pers::Mpk => None,
        }
    }

    /// Builds this personality's transport: `lanes` server threads, one
    /// simulated core each, serving `spec`.
    pub fn build(self, spec: &ServiceSpec, lanes: usize) -> Box<dyn Transport> {
        match (self, self.trap_kernel()) {
            (_, Some(k)) => Box::new(TrapIpcTransport::new(k, lanes, spec)),
            (Pers::SkyBridge, None) => Box::new(SkyBridgeTransport::new(lanes, spec)),
            (_, None) => Box::new(MpkTransport::new(lanes, spec)),
        }
    }

    /// Simulated lane-busy cycles per KV request (64 B, YCSB-A) when
    /// the benchmark was defined, at low load.
    pub fn kv_service(self) -> f64 {
        match self {
            Pers::SkyBridge => 674.0,
            Pers::Mpk => 327.0,
            Pers::Sel4 => 2_952.0,
            Pers::Fiasco => 3_886.0,
            Pers::Zircon => 9_848.0,
        }
    }

    /// Simulated lane-busy cycles per graph request (the standard
    /// gateway → cache → db → fs graph, YCSB-A) when the benchmark was
    /// defined, at low load.
    pub fn graph_service(self) -> f64 {
        match self {
            Pers::SkyBridge => 8_171.0,
            Pers::Mpk => 5_406.0,
            Pers::Sel4 => 21_207.0,
            Pers::Fiasco => 26_754.0,
            Pers::Zircon => 62_190.0,
        }
    }
}

/// The four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Closed loop, one client on one lane, back-to-back calls.
    IpcCall,
    /// Open loop into the direct dispatcher with eight tenants.
    ServeDirect,
    /// Open loop through the ring pump (batch budget 8).
    ServeRing,
    /// Open loop through the gateway → cache → db → fs graph.
    GraphYcsb,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 4] = [
        Workload::IpcCall,
        Workload::ServeDirect,
        Workload::ServeRing,
        Workload::GraphYcsb,
    ];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::IpcCall => "ipc_call",
            Workload::ServeDirect => "serve_direct",
            Workload::ServeRing => "serve_ring",
            Workload::GraphYcsb => "graph_ycsb",
        }
    }

    /// Parses a `--workload` name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Offered load as a share of the frozen 2-lane capacity.
    pub fn rho(self) -> f64 {
        match self {
            Workload::IpcCall => 1.0, // closed loop: no offered rate
            Workload::ServeDirect => 0.9,
            Workload::ServeRing => 0.95,
            Workload::GraphYcsb => 0.7,
        }
    }

    /// Frozen service cycles per request for `p` in this workload.
    pub fn service(self, p: Pers) -> f64 {
        match self {
            Workload::GraphYcsb => p.graph_service(),
            _ => p.kv_service(),
        }
    }

    /// Frozen mean Poisson inter-arrival gap for `p`, in cycles.
    pub fn mean_gap(self, p: Pers) -> f64 {
        self.service(p) / (SERVE_LANES as f64 * self.rho())
    }

    /// Frozen queue deadline for `p`: [`DEADLINE_SERVICES`] service
    /// times.
    pub fn queue_deadline(self, p: Pers) -> Cycles {
        (self.service(p) * DEADLINE_SERVICES) as Cycles
    }

    /// The dispatcher configuration of a serving run on `p`.
    pub fn runtime_config(self, p: Pers) -> RuntimeConfig {
        let tenants = match self {
            Workload::GraphYcsb => None,
            _ => Some(TenantRegistry::new(TenantSpec {
                queue_capacity: TENANT_QUEUE,
                ..TenantSpec::default()
            })),
        };
        RuntimeConfig {
            queue_capacity: GRAPH_QUEUE,
            policy: AdmissionPolicy::Shed,
            queue_deadline: Some(self.queue_deadline(p)),
            tenants,
            ..RuntimeConfig::default()
        }
    }
}

/// Server threads (lanes) in every serving workload.
pub const SERVE_LANES: usize = 2;
/// Zipf-skewed tenants in the two KV serving workloads.
pub const TENANTS: u16 = 8;
/// Per-tenant queue capacity on the DRR fabric.
pub const TENANT_QUEUE: usize = 16;
/// Queue capacity of the single-tenant graph dispatcher.
pub const GRAPH_QUEUE: usize = 64;
/// Queue deadline, in frozen service times.
pub const DEADLINE_SERVICES: f64 = 16.0;
/// Ring geometry of `serve_ring`.
pub const RING: RingConfig = RingConfig {
    capacity: 64,
    batch_budget: 8,
    slot_bytes: 4096,
};
/// Records in the KV service's table.
pub const KV_RECORDS: u64 = 10_000;
/// Wire bytes of a KV serving request.
pub const KV_PAYLOAD: usize = 64;
/// Records in the graph's table (much larger than its cache tier).
pub const GRAPH_RECORDS: u64 = 4_096;
/// Entries in the graph's cache tier.
pub const GRAPH_CACHE: usize = 64;
/// Value bytes per graph record.
pub const GRAPH_VALUE: usize = 48;
/// `ipc_call` payload mix: (cumulative share, payload bytes). The
/// largest payload fills a 4 KiB wire image with its 24-byte header.
pub const PAYLOAD_MIX: [(f64, usize); 3] = [(0.75, 64), (0.95, 1024), (1.0, 4072)];

/// How much work one run does. [`Sizes::FULL`] is the benchmark;
/// tests run [`Sizes::SMALL`].
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
    /// Keys read once per transport before timing.
    pub warm_keys: u64,
    /// `ipc_call` requests per personality in the deterministic leg.
    pub ipc_stream: usize,
    /// Arrivals per personality in a KV serving deterministic leg.
    pub serve_arrivals: usize,
    /// Arrivals per personality in the graph deterministic leg.
    pub graph_arrivals: usize,
    /// Leading host rounds of `serve_direct` and `serve_ring` whose
    /// windows also give their simulated-clock metrics: a fixed count,
    /// so those metrics do not depend on host speed.
    pub serve_windows: usize,
    /// The same for `graph_ycsb`.
    pub graph_windows: usize,
    /// Scale of every host-round chunk (1 = full size).
    pub chunk_div: usize,
}

impl Sizes {
    /// The benchmark's sizes.
    pub const FULL: Sizes = Sizes {
        setups: 5,
        warm_keys: KV_RECORDS,
        ipc_stream: 8_192,
        serve_arrivals: 20_000,
        graph_arrivals: 3_000,
        serve_windows: 128,
        graph_windows: 40,
        chunk_div: 1,
    };

    /// Small sizes for tests.
    pub const SMALL: Sizes = Sizes {
        setups: 1,
        warm_keys: 256,
        ipc_stream: 256,
        serve_arrivals: 600,
        graph_arrivals: 120,
        serve_windows: 2,
        graph_windows: 2,
        chunk_div: 16,
    };
}

/// Host-round chunk size, in operations, for `p` in workload `w`. A
/// serving chunk is one open-loop window; every window holds at least
/// 1,000 arrivals, so its p99 has ten samples beyond it.
pub fn chunk_ops(w: Workload, p: Pers, sizes: &Sizes) -> usize {
    let trap = p.series() == "trap";
    let ops = match (w, trap) {
        (Workload::IpcCall, false) => 8_192,
        (Workload::IpcCall, true) => 2_048,
        (Workload::GraphYcsb, _) => 1_000,
        (_, false) => 6_000,
        (_, true) => 1_500,
    };
    (ops / sizes.chunk_div).max(8)
}

/// A sub-seed of `seed` for stream `tag` (SplitMix64 finaliser).
pub fn sub_seed(seed: u64, tag: u64) -> u64 {
    let mut z = seed ^ tag.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}
