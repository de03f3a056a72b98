//! The MPK (protection-key) transport: domain crossing by `WRPKRU`.
//!
//! The fifth personality answers SkyBridge's own question — "what is the
//! cheapest secure crossing?" — with Intel MPK instead of `VMFUNC`:
//! client and server live in **one address space**, their memory tagged
//! with different 4-bit protection keys, and a crossing is two user-mode
//! `WRPKRU` flips (≈28 cycles each in the Skylake model) around an
//! in-place handler dispatch. No mode switch, no CR3 write, no EPT
//! switch, no TLB shootdown: the pkey rides the TLB meta and is
//! re-checked against the live PKRU on every hit.
//!
//! Isolation is enforced by the memory model, not narrated: the server's
//! record region carries [`SERVER_KEY`], the client's private region
//! [`CLIENT_KEY`], and the charged walker faults any touch the active
//! PKRU denies ([`sb_mem::MemFault::PkeyDenied`]). A handler that strays
//! outside its permitted set faults deterministically; a
//! "forgot to restore PKRU" bug (the
//! [`sb_faultplane::FaultPoint::PkruStale`] chaos point) leaves the lane
//! faulting on its own records until [`Transport::recover`] re-arms the
//! rights.
//!
//! The caveat vs `VMFUNC` (DESIGN.md §17): `WRPKRU` is not a privilege
//! boundary — both domains share the kernel's Meltdown/KPTI exposure and
//! a compromised client that can execute arbitrary `WRPKRU` instructions
//! can un-deny any key. SkyBridge's EPT switch carries neither weakness;
//! MPK buys its speed by trusting binary inspection (the paper's §4.2
//! rewriter argument applies to `WRPKRU` occurrences just as to
//! `VMFUNC`).

use sb_mem::{walk::Access, Gva};
use sb_microkernel::{Kernel, KernelConfig, Personality, ThreadId};
use sb_observe::{Recorder, SpanKind};
use sb_rewriter::corpus;
use sb_sim::Cycles;

use crate::service::{ServiceSpec, DATA_BASE, RECORD_LINE};
use crate::transport::{BatchComplete, CallError, Lanes, Transport};
use crate::wire::{Request, WIRE_HEADER_LEN};

/// Protection key tagging the server's record region.
pub const SERVER_KEY: u8 = 1;

/// Protection key tagging the client's private region.
pub const CLIENT_KEY: u8 = 2;

/// Base of the client-private region (one page), the memory a handler
/// must *not* be able to reach from the server domain.
pub const CLIENT_BASE: Gva = Gva(0x5200_0000);

/// PKRU of the client domain: the server's records are denied, the
/// client's own region and the key-0 message buffers are reachable.
const CLIENT_PKRU: u32 = 0b11 << (2 * SERVER_KEY as u32);

/// PKRU of the server domain: the client-private region is denied, the
/// records and the key-0 message buffers are reachable.
const SERVER_PKRU: u32 = 0b11 << (2 * CLIENT_KEY as u32);

/// The "forgot to restore" value a
/// [`sb_faultplane::FaultPoint::PkruStale`] injection arms: it denies
/// *both* non-zero keys, so the handler faults on its own records at the
/// very next crossing.
const STALE_PKRU: u32 = CLIENT_PKRU | SERVER_PKRU;

/// The MPK transport. One process hosts both domains; lane `l` is one
/// migrating thread pinned to core `l` that flips PKRU around each
/// in-place handler dispatch.
pub struct MpkTransport {
    /// The kernel facade (exposed for PMU access in benches).
    pub k: Kernel,
    /// Lane `l`'s migrating thread.
    threads: Vec<ThreadId>,
    /// Per-lane staging images of the message buffers.
    lanes: Lanes,
    /// The PKRU value lane `l`'s entry flip loads — [`SERVER_PKRU`] when
    /// healthy, [`STALE_PKRU`] after an injected restore bug.
    lane_pkru: Vec<u32>,
    spec: ServiceSpec,
    label: String,
}

impl MpkTransport {
    /// Boots a native machine, creates the single two-domain process,
    /// tags its regions, and pins one migrating thread per lane.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is zero or exceeds the simulated core count.
    pub fn new(lanes: usize, spec: &ServiceSpec) -> Self {
        // The kernel is a facade for memory + threads here: no kernel
        // IPC is on the data path, so the trap personality is moot.
        let mut k = Kernel::boot(KernelConfig::native(Personality::sel4()));
        assert!(
            lanes >= 1 && lanes <= k.machine.num_cores(),
            "lanes must fit the machine's cores"
        );
        let pid = k.create_process(&corpus::generate(0x3b_99, 4096, 0));
        k.map_heap_keyed(pid, DATA_BASE, spec.data_pages(), SERVER_KEY);
        k.map_heap_keyed(pid, CLIENT_BASE, 1, CLIENT_KEY);

        let mut threads = Vec::with_capacity(lanes);
        for l in 0..lanes {
            let tid = k.create_thread(pid, l);
            k.run_thread(tid);
            // Every core starts in the client domain.
            k.wrpkru(l, CLIENT_PKRU);
            threads.push(tid);
        }
        MpkTransport {
            k,
            lanes: Lanes::new(threads.len()),
            lane_pkru: vec![SERVER_PKRU; threads.len()],
            threads,
            spec: spec.clone(),
            label: "mpk".to_string(),
        }
    }

    /// Has the handler stray outside its pkey-permitted set: from inside
    /// the server domain, touch the client-private region. The memory
    /// model must fault the touch; the restore flip runs either way.
    pub fn rogue_handler_touch(&mut self, lane: usize) -> Result<(), String> {
        let tid = self.threads[lane];
        self.k.wrpkru(lane, self.lane_pkru[lane]);
        let out = self
            .k
            .user_touch(tid, CLIENT_BASE, RECORD_LINE, Access::Read)
            .map_err(|e| e.to_string());
        self.k.wrpkru(lane, CLIENT_PKRU);
        out
    }

    /// The client domain touching its own private region — the control
    /// for [`MpkTransport::rogue_handler_touch`].
    pub fn client_private_touch(&mut self, lane: usize) -> Result<(), String> {
        let tid = self.threads[lane];
        self.k
            .user_touch(tid, CLIENT_BASE, RECORD_LINE, Access::Read)
            .map_err(|e| e.to_string())
    }

    /// The handler body, inside the server domain:
    /// [`ServiceSpec::serve_in_place`] on the lane's message buffer.
    fn serve(&mut self, lane: usize, wire_len: usize) -> Result<usize, String> {
        let tid = self.threads[lane];
        let buf = self.k.threads[tid].msg_buf;
        self.spec
            .serve_in_place(&mut self.k, tid, buf, self.lanes.reply(lane), wire_len)
            .map_err(|e| e.to_string())
    }

    /// One marshalling write: the wire image into the lane's message
    /// buffer (key 0 — reachable from both domains, like SkyBridge's
    /// shared buffer).
    fn marshal(&mut self, lane: usize, req: &Request) -> Result<usize, String> {
        let tid = self.threads[lane];
        let wire = self.lanes.encode(lane, req, 0);
        let buf = self.k.threads[tid].msg_buf;
        self.k
            .user_write(tid, buf, wire)
            .map_err(|e| e.to_string())?;
        Ok(wire.len())
    }

    /// Emits a `kind` span on `lane` from `t0` to the lane clock now.
    fn phase(&self, lane: usize, kind: SpanKind, t0: Cycles, corr: u64) {
        let now = self.k.machine.cpu(lane).tsc;
        self.lanes.recorder.span(lane, kind, t0, now, corr);
    }

    /// One `WRPKRU` flip on `lane`'s core, emitted as its own span so
    /// the observe layer attributes the crossing (the MPK analogue of
    /// SkyBridge's `Switch` span).
    fn flip(&mut self, lane: usize, pkru: u32, corr: u64) {
        let t0 = self.k.machine.cpu(lane).tsc;
        self.k.wrpkru(lane, pkru);
        self.phase(lane, SpanKind::Wrpkru, t0, corr);
    }

    /// The instrumented call body. Phase spans are emitted post-hoc (a
    /// complete span only once its section finished), so an error leaves
    /// that section's span out — never half-open. The restore flip runs
    /// even when the handler faults: the fault delivery re-enters the
    /// client domain, while the *armed* lane rights stay broken until
    /// [`Transport::recover`].
    fn call_inner(&mut self, lane: usize, req: &Request) -> Result<usize, CallError> {
        let t0 = self.k.machine.cpu(lane).tsc;
        let wire_len = self.marshal(lane, req).map_err(CallError::Failed)?;
        self.phase(lane, SpanKind::Marshal, t0, req.id);

        self.flip(lane, self.lane_pkru[lane], req.id);
        let t0 = self.k.machine.cpu(lane).tsc;
        let served = self.serve(lane, wire_len);
        if served.is_ok() {
            self.phase(lane, SpanKind::Handler, t0, req.id);
        }
        self.flip(lane, CLIENT_PKRU, req.id);
        let reply_len = served.map_err(CallError::Failed)?;

        let t0 = self.k.machine.cpu(lane).tsc;
        let tid = self.threads[lane];
        let buf = self.k.threads[tid].msg_buf;
        self.k
            .user_touch(
                tid,
                buf.add(WIRE_HEADER_LEN as u64),
                reply_len,
                Access::Read,
            )
            .map_err(|e| CallError::Failed(e.to_string()))?;
        self.phase(lane, SpanKind::Marshal, t0, req.id);
        Ok(reply_len)
    }
}

impl Transport for MpkTransport {
    fn label(&self) -> &str {
        &self.label
    }

    fn lanes(&self) -> usize {
        self.threads.len()
    }

    fn now(&mut self, lane: usize) -> Cycles {
        self.k.machine.cpu(lane).tsc
    }

    fn wait_until(&mut self, lane: usize, time: Cycles) {
        self.k.machine.wait_until(lane, time);
    }

    fn call(&mut self, lane: usize, req: &Request) -> Result<usize, CallError> {
        self.lanes.open(lane, req, self.k.machine.cpu(lane).tsc);
        let out = self.call_inner(lane, req);
        self.lanes
            .close(lane, req, out, self.k.machine.cpu(lane).tsc)
    }

    fn reply(&self, lane: usize) -> &[u8] {
        self.lanes.reply(lane)
    }

    /// The amortized crossing: the *batch* pays the two `WRPKRU` flips
    /// once, each entry inside is marshal + in-place handler dispatch
    /// (the message buffers carry key 0, so marshalling works from the
    /// server domain too). A handler fault closes the crossing early and
    /// leaves the tail unconsumed for the ring to retry after recovery.
    fn call_batch(&mut self, lane: usize, reqs: &[Request], complete: &mut BatchComplete) -> usize {
        if reqs.is_empty() {
            return 0;
        }
        self.flip(lane, self.lane_pkru[lane], reqs[0].id);
        let mut consumed = 0;
        for (i, req) in reqs.iter().enumerate() {
            let t0 = self.k.machine.cpu(lane).tsc;
            self.lanes.open(lane, req, t0);
            let out = self
                .marshal(lane, req)
                .and_then(|wire_len| self.serve(lane, wire_len))
                .map_err(CallError::Failed);
            self.phase(lane, SpanKind::Handler, t0, req.id);
            let out = self
                .lanes
                .close(lane, req, out, self.k.machine.cpu(lane).tsc);
            consumed = i + 1;
            match out {
                Ok(n) => complete(i, Ok(n), self.lanes.reply(lane)),
                Err(e) => {
                    complete(i, Err(e), &[]);
                    break;
                }
            }
        }
        self.flip(lane, CLIENT_PKRU, reqs[consumed - 1].id);
        consumed
    }

    fn recover(&mut self, lane: usize) -> bool {
        // Re-arm the lane's rights and return the core to the client
        // domain — the whole recovery for a stale-PKRU episode; there is
        // no endpoint or connection to rebuild.
        self.lane_pkru[lane] = SERVER_PKRU;
        self.k.wrpkru(lane, CLIENT_PKRU);
        true
    }

    fn inject_pkru_stale(&mut self, lane: usize) -> bool {
        self.lane_pkru[lane] = STALE_PKRU;
        true
    }

    fn bytes_copied(&self) -> u64 {
        self.lanes.bytes_copied()
    }

    fn attach_recorder(&mut self, recorder: Recorder) {
        self.lanes.recorder = recorder;
    }

    fn pmu(&self) -> Option<sb_sim::Pmu> {
        Some(self.k.machine.pmu_total())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(id: u64, key: u64, write: bool) -> Request {
        Request {
            id,
            arrival: 0,
            key,
            write,
            payload: 64,
            client: None,
            tenant: 0,
        }
    }

    #[test]
    fn echo_reply_served_in_place_with_two_flips() {
        let mut t = MpkTransport::new(2, &ServiceSpec::default());
        let r = req(1, 0xbeef, true);
        // Warm caches, then measure the steady state.
        t.call(0, &r).unwrap();
        let pmu0 = t.pmu().unwrap();
        let before = t.bytes_copied();
        let n = t.call(0, &r).unwrap();
        assert_eq!(n, 64);
        assert_eq!(t.reply(0), r.encode(), "echo contract");
        assert_eq!(
            t.bytes_copied() - before,
            r.wire_len() as u64,
            "one marshalling copy per call"
        );
        let d = t.pmu().unwrap().delta(&pmu0);
        assert_eq!(d.wrpkru_writes, 2, "exactly two WRPKRU per crossing");
        assert_eq!(d.mode_switches, 0, "no kernel entry on the data path");
        assert_eq!(d.vmfuncs, 0, "no EPT switch on the data path");
        assert_eq!(d.cr3_writes, 0, "no address-space switch ever");
    }

    #[test]
    fn lanes_are_independent() {
        let mut t = MpkTransport::new(2, &ServiceSpec::default());
        let w0 = t.now(0);
        t.call(1, &req(1, 3, false)).unwrap();
        assert!(t.now(1) > 0);
        assert_eq!(t.now(0), w0, "lane 0 untouched");
    }

    #[test]
    fn rogue_handler_touch_faults_deterministically() {
        let mut t = MpkTransport::new(1, &ServiceSpec::default());
        // The client can reach its own region...
        t.client_private_touch(0).unwrap();
        // ...but from the server domain the same touch must fault, every
        // time.
        for _ in 0..3 {
            let err = t.rogue_handler_touch(0).unwrap_err();
            assert!(err.contains("pkey"), "want a pkey fault, got: {err}");
        }
        // The transport still serves: the rogue probe restored rights.
        t.call(0, &req(9, 1, true)).unwrap();
    }

    #[test]
    fn stale_pkru_faults_until_recover() {
        let mut t = MpkTransport::new(1, &ServiceSpec::default());
        t.call(0, &req(1, 5, false)).unwrap();
        assert!(t.inject_pkru_stale(0));
        for i in 0..2 {
            let err = t.call(0, &req(2 + i, 5, false)).unwrap_err();
            assert!(
                matches!(&err, CallError::Failed(m) if m.contains("pkey")),
                "stale rights must surface as a pkey fault, got {err:?}"
            );
        }
        assert!(t.recover(0));
        t.call(0, &req(9, 5, false)).unwrap();
    }

    #[test]
    fn stale_reply_corr_is_refused() {
        let mut t = MpkTransport::new(1, &ServiceSpec::default());
        t.lanes.poison_next_reply_corr(0, 99);
        match t.call(0, &req(1, 7, false)) {
            Err(CallError::CorrMismatch { expected, got }) => {
                assert_eq!((expected, got), (1, 99));
            }
            other => panic!("expected CorrMismatch, got {other:?}"),
        }
        assert_eq!(t.call(0, &req(2, 7, false)).unwrap(), 64, "lane heals");
    }

    #[test]
    fn batch_pays_the_flips_once() {
        let mut t = MpkTransport::new(1, &ServiceSpec::default());
        let reqs: Vec<Request> = (0..8).map(|i| req(i, i, i % 2 == 0)).collect();
        // Warm, then measure.
        let mut sink = |_: usize, r: Result<usize, CallError>, _: &[u8]| {
            r.unwrap();
        };
        assert_eq!(t.call_batch(0, &reqs, &mut sink), 8);
        let pmu0 = t.pmu().unwrap();
        assert_eq!(t.call_batch(0, &reqs, &mut sink), 8);
        let d = t.pmu().unwrap().delta(&pmu0);
        assert_eq!(
            d.wrpkru_writes, 2,
            "the whole batch crosses on two WRPKRU flips"
        );
    }
}
