//! The service work every transport personality performs per request.
//!
//! Lives in `sb-transport` so kernel-backed personalities implemented in
//! either crate (and `sb_runtime::ServiceSpec` users) compare on
//! identical service work: they all run [`ServiceSpec::touch_record`],
//! and trap and MPK wrap it in [`ServiceSpec::serve_in_place`].

use sb_mem::{walk::Access, Gva, MemFault, PAGE_SIZE};
use sb_microkernel::{layout, Kernel, ThreadId};
use sb_sim::Cycles;

use crate::wire::OP_TAG_OFFSET;

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

    /// Pages the server maps at [`DATA_BASE`] for its record table (one
    /// spare page past the last line).
    pub fn data_pages(&self) -> usize {
        (self.records as usize * RECORD_LINE).div_ceil(PAGE_SIZE as usize) + 1
    }

    /// The record work, run as `tid` (which must be current on its
    /// core): the payload's key selects line `key % records`, op tag 1
    /// writes it and anything else reads it, then the per-request
    /// compute is charged.
    pub fn touch_record(
        &self,
        k: &mut Kernel,
        tid: ThreadId,
        payload: &[u8],
    ) -> Result<(), MemFault> {
        let key = u64::from_le_bytes(payload[..8].try_into().expect("wire payload"));
        let at = DATA_BASE.add((key % self.records.max(1)) * RECORD_LINE as u64);
        let mut line = [0u8; RECORD_LINE];
        if payload[OP_TAG_OFFSET] == 1 {
            k.user_write(tid, at, &line)?;
        } else {
            k.user_read(tid, at, &mut line)?;
        }
        k.compute(tid, self.cpu);
        Ok(())
    }

    /// The whole in-place service body for a `wire_len`-byte message in
    /// `tid`'s buffer at `buf`: fetch the handler's code, parse the
    /// message (charge-only — the bytes already sit in the lane's
    /// staging image, `payload`), [`ServiceSpec::touch_record`], then
    /// write the echo reply (charge-only — it is the payload half,
    /// already in the buffer). Returns the reply length.
    pub fn serve_in_place(
        &self,
        k: &mut Kernel,
        tid: ThreadId,
        buf: Gva,
        payload: &[u8],
        wire_len: usize,
    ) -> Result<usize, MemFault> {
        k.user_exec(tid, layout::CODE_BASE, self.footprint)?;
        k.user_touch(tid, buf, wire_len, Access::Read)?;
        self.touch_record(k, tid, payload)?;
        k.user_touch(tid, buf, wire_len, Access::Write)?;
        Ok(payload.len())
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
