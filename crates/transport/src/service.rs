//! The service work every transport personality performs per request.
//!
//! Lives in `sb-transport` so kernel-backed personalities implemented in
//! either crate (and `sb_runtime::ServiceSpec` users) compare on
//! identical service work.

use sb_mem::Gva;
use sb_sim::Cycles;

/// Base of the server's record region (one 64-byte line per record),
/// mapped into the server process by every kernel-backed transport.
pub const DATA_BASE: Gva = Gva(0x5100_0000);

/// Bytes per stored record line.
pub const RECORD_LINE: usize = 64;

/// What one request does inside the server, shared by every transport so
/// the personalities are compared on identical service work.
#[derive(Debug, Clone)]
pub struct ServiceSpec {
    /// Records in the server's table (the paper's YCSB setup uses 10,000).
    pub records: u64,
    /// Fixed per-request compute (parsing, hashing, record handling).
    pub cpu: Cycles,
    /// Server code bytes fetched per request (the handler footprint).
    pub footprint: usize,
    /// Per-call DoS-timeout budget (§7), enforced by the SkyBridge
    /// transport through the facility's watchdog.
    pub timeout: Option<Cycles>,
}

impl ServiceSpec {
    /// Replaces the record count.
    pub fn with_records(mut self, records: u64) -> Self {
        self.records = records;
        self
    }

    /// Replaces the per-request compute.
    pub fn with_cpu(mut self, cpu: Cycles) -> Self {
        self.cpu = cpu;
        self
    }

    /// Replaces the handler footprint.
    pub fn with_footprint(mut self, footprint: usize) -> Self {
        self.footprint = footprint;
        self
    }

    /// Replaces the DoS-timeout budget.
    pub fn with_timeout(mut self, timeout: Option<Cycles>) -> Self {
        self.timeout = timeout;
        self
    }
}

impl Default for ServiceSpec {
    fn default() -> Self {
        ServiceSpec {
            records: 10_000,
            cpu: 180,
            footprint: 2048,
            timeout: None,
        }
    }
}
