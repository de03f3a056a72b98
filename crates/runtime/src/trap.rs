//! The trap-based (synchronous kernel IPC) transport.
//!
//! The multi-threaded-server shape every microkernel personality uses in
//! the paper's throughput experiments: the server process runs one thread
//! per core, each receive-blocked on its own endpoint; lane `l`'s client
//! process runs on the same core, so each call takes the same-core IPC
//! path (the fastpath where the personality and message size allow it).
//! Serving a request is `ipc_call` → server-side work → `ipc_reply`.
//!
//! Unlike SkyBridge — where the wire header rides the trampoline's
//! register image — kernel IPC carries no registers across the boundary,
//! so the full wire image (header + payload) is written once into the
//! client's message buffer. The server parses it in place (charge-only
//! reads — the bytes are already staged host-side in the lane) and the
//! echo reply is the lane's payload half; no read-back copies anywhere.

use sb_mem::walk::Access;
use sb_microkernel::{Kernel, KernelConfig, Personality, ThreadId};
use sb_observe::{Recorder, SpanKind};
use sb_rewriter::corpus;
use sb_sim::Cycles;
use sb_transport::{
    service::{ServiceSpec, DATA_BASE},
    wire::WIRE_HEADER_LEN,
    CallError, Lanes, Request, Transport,
};

struct TrapWorker {
    client: ThreadId,
    server: ThreadId,
    cap: usize,
}

/// The kernel-IPC transport.
pub struct TrapIpcTransport {
    /// The kernel (exposed for PMU access in benches).
    pub k: Kernel,
    server_pid: usize,
    workers: Vec<TrapWorker>,
    lanes: Lanes,
    spec: ServiceSpec,
    label: String,
}

impl TrapIpcTransport {
    /// Boots a native (no hypervisor) machine under `personality` and
    /// wires `lanes` client/server thread pairs, one per core.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is zero or exceeds the simulated core count.
    pub fn new(personality: Personality, lanes: usize, spec: &ServiceSpec) -> Self {
        Self::with_kpti(personality, lanes, spec, false)
    }

    /// [`TrapIpcTransport::new`] with kernel page-table isolation
    /// switched on or off. The paper's baseline numbers disable KPTI;
    /// the five-way comparison re-runs the trap personalities with it
    /// enabled because the tax (two CR3 writes per kernel entry/exit
    /// pair) falls *only* on them — SkyBridge and MPK never enter the
    /// kernel on the data path.
    pub fn with_kpti(
        personality: Personality,
        lanes: usize,
        spec: &ServiceSpec,
        kpti: bool,
    ) -> Self {
        let label = if kpti {
            format!("{}+kpti", personality.name)
        } else {
            personality.name.to_string()
        };
        let mut k = Kernel::boot(KernelConfig {
            kpti,
            ..KernelConfig::native(personality)
        });
        assert!(
            lanes >= 1 && lanes <= k.machine.num_cores(),
            "lanes must fit the machine's cores"
        );
        let server_pid = k.create_process(&corpus::generate(0x7a_01, 4096, 0));
        k.map_heap(server_pid, DATA_BASE, spec.data_pages());

        let mut ws = Vec::with_capacity(lanes);
        for l in 0..lanes {
            let server_tid = k.create_thread(server_pid, l);
            let (ep, _recv_slot) = k.create_endpoint(server_pid);
            k.server_recv(server_tid, ep);
            let client_pid = k.create_process(&corpus::generate(0xc11e_7700 + l as u64, 2048, 0));
            let client_tid = k.create_thread(client_pid, l);
            let cap = k.grant_send(client_pid, ep);
            k.run_thread(client_tid);
            ws.push(TrapWorker {
                client: client_tid,
                server: server_tid,
                cap,
            });
        }
        TrapIpcTransport {
            k,
            server_pid,
            lanes: Lanes::new(ws.len()),
            workers: ws,
            spec: spec.clone(),
            label,
        }
    }

    /// Emits a `kind` span on `lane` from `t0` to the lane clock now.
    fn phase(&self, lane: usize, kind: SpanKind, t0: Cycles, corr: u64) {
        let now = self.k.machine.cpu(lane).tsc;
        self.lanes.recorder.span(lane, kind, t0, now, corr);
    }

    /// The instrumented call body. Phase spans are emitted post-hoc (a
    /// complete span only once its section finished), so an error `?`
    /// simply leaves that section's span out — never half-open.
    fn call_inner(&mut self, lane: usize, req: &Request) -> Result<usize, CallError> {
        let TrapWorker {
            client,
            server,
            cap,
        } = self.workers[lane];
        let fail = |e: String| CallError::Failed(e);

        // One marshalling write per call: the full wire image into the
        // lane's staging buffer (kernel IPC has no register channel, so
        // the header travels in the message too), then into the client's
        // message buffer — the single write of the wire bytes into
        // simulated memory.
        let t0 = self.k.machine.cpu(lane).tsc;
        let wire = self.lanes.encode(lane, req, 0);
        let client_buf = self.k.threads[client].msg_buf;
        self.k
            .user_write(client, client_buf, wire)
            .map_err(|e| fail(e.to_string()))?;
        let wire_len = wire.len();
        self.phase(lane, SpanKind::Marshal, t0, req.id);

        let t0 = self.k.machine.cpu(lane).tsc;
        self.k
            .ipc_call(client, cap, wire_len)
            .map_err(|e| fail(format!("{e:?}")))?;
        self.phase(lane, SpanKind::KernelIpc, t0, req.id);

        // Server side (the server thread is now current on this core):
        // the in-place service body. The server's reply write and the
        // client's read-back are charge-only.
        let t0 = self.k.machine.cpu(lane).tsc;
        let server_buf = self.k.threads[server].msg_buf;
        let reply_len = self
            .spec
            .serve_in_place(
                &mut self.k,
                server,
                server_buf,
                self.lanes.reply(lane),
                wire_len,
            )
            .map_err(|e| fail(e.to_string()))?;
        self.phase(lane, SpanKind::Handler, t0, req.id);

        let t0 = self.k.machine.cpu(lane).tsc;
        self.k
            .ipc_reply(server, client, wire_len)
            .map_err(|e| fail(format!("{e:?}")))?;
        self.phase(lane, SpanKind::KernelIpc, t0, req.id);

        let t0 = self.k.machine.cpu(lane).tsc;
        self.k
            .user_touch(
                client,
                client_buf.add(WIRE_HEADER_LEN as u64),
                reply_len,
                Access::Read,
            )
            .map_err(|e| fail(e.to_string()))?;
        self.phase(lane, SpanKind::Marshal, t0, req.id);
        Ok(reply_len)
    }
}

impl Transport for TrapIpcTransport {
    fn label(&self) -> &str {
        &self.label
    }

    fn lanes(&self) -> usize {
        self.workers.len()
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

    fn recover(&mut self, lane: usize) -> bool {
        // Supervisor restart: kill lane `l`'s server thread (if it is
        // somehow still scheduled) and respawn it receive-blocked on a
        // fresh endpoint, re-granting the client's send capability.
        let w = &self.workers[lane];
        let (old_server, client) = (w.server, w.client);
        self.k.kill_thread(old_server);
        let server_tid = self.k.create_thread(self.server_pid, lane);
        let (ep, _recv_slot) = self.k.create_endpoint(self.server_pid);
        self.k.server_recv(server_tid, ep);
        let client_pid = self.k.threads[client].process;
        let cap = self.k.grant_send(client_pid, ep);
        self.k.run_thread(client);
        self.workers[lane] = TrapWorker {
            client,
            server: server_tid,
            cap,
        };
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

    fn req(key: u64, write: bool) -> Request {
        Request {
            id: 0,
            arrival: 0,
            key,
            write,
            payload: 64,
            client: None,
            tenant: 0,
        }
    }

    #[test]
    fn round_trips_on_every_personality() {
        for p in Personality::all() {
            let mut t = TrapIpcTransport::new(p, 2, &ServiceSpec::default());
            let (t0, w0) = (t.now(1), t.now(0));
            t.call(1, &req(9, true)).unwrap();
            t.call(1, &req(9, false)).unwrap();
            assert_eq!(t.reply(1), req(9, false).encode(), "echo contract");
            assert!(t.now(1) > t0);
            assert_eq!(t.now(0), w0, "lane 0 untouched");
        }
    }

    #[test]
    fn stale_reply_corr_is_refused_on_every_personality() {
        for p in Personality::all() {
            let mut t = TrapIpcTransport::new(p, 1, &ServiceSpec::default());
            let label = t.label().to_string();
            t.lanes.poison_next_reply_corr(0, 3);
            let r = Request {
                id: 8,
                ..req(1, false)
            };
            match t.call(0, &r) {
                Err(CallError::CorrMismatch { expected, got }) => {
                    assert_eq!((expected, got), (8, 3), "{label}");
                }
                other => panic!("{label}: expected CorrMismatch, got {other:?}"),
            }
            assert_eq!(t.call(0, &r).unwrap(), 64, "{label}: lane heals");
        }
    }

    #[test]
    fn one_marshalling_copy_per_call() {
        let mut t = TrapIpcTransport::new(Personality::sel4(), 1, &ServiceSpec::default());
        let r = req(5, false);
        let before = t.bytes_copied();
        t.call(0, &r).unwrap();
        assert_eq!(t.bytes_copied() - before, r.wire_len() as u64);
    }

    #[test]
    fn trap_ipc_costs_more_than_skybridge_per_call() {
        // The headline claim, at the transport level: one request
        // through sel4's kernel IPC costs more cycles than the same
        // request through a direct server call.
        let spec = ServiceSpec::default();
        let mut trap = TrapIpcTransport::new(Personality::sel4(), 1, &spec);
        let mut sky = crate::SkyBridgeTransport::new(1, &spec);
        // Warm both, then measure.
        for t in [&mut trap as &mut dyn Transport, &mut sky] {
            for i in 0..32 {
                t.call(0, &req(i, i % 2 == 0)).unwrap();
            }
        }
        let measure = |t: &mut dyn Transport| {
            let t0 = t.now(0);
            for i in 0..64 {
                t.call(0, &req(i, i % 2 == 0)).unwrap();
            }
            (t.now(0) - t0) / 64
        };
        let trap_avg = measure(&mut trap);
        let sky_avg = measure(&mut sky);
        assert!(
            sky_avg < trap_avg,
            "skybridge {sky_avg} must beat trap IPC {trap_avg}"
        );
    }

    #[test]
    fn kpti_taxes_trap_ipc_per_call() {
        // The KPTI knob for the five-way comparison: kernel page-table
        // isolation adds CR3 traffic to every kernel entry/exit, so the
        // trap personalities slow down while SkyBridge and MPK — which
        // never enter the kernel on the data path — are untouched by
        // construction (their data paths record zero mode switches).
        let spec = ServiceSpec::default();
        let mut plain = TrapIpcTransport::new(Personality::sel4(), 1, &spec);
        let mut taxed = TrapIpcTransport::with_kpti(Personality::sel4(), 1, &spec, true);
        assert_eq!(taxed.label(), "seL4+kpti");
        for t in [&mut plain, &mut taxed] {
            for i in 0..32 {
                t.call(0, &req(i, false)).unwrap();
            }
        }
        let measure = |t: &mut TrapIpcTransport| {
            let t0 = t.now(0);
            let c0 = t.k.machine.pmu_total().cr3_writes;
            for i in 0..64 {
                t.call(0, &req(i, false)).unwrap();
            }
            (
                (t.now(0) - t0) / 64,
                t.k.machine.pmu_total().cr3_writes - c0,
            )
        };
        let (plain_avg, plain_cr3) = measure(&mut plain);
        let (taxed_avg, taxed_cr3) = measure(&mut taxed);
        assert!(
            taxed_avg > plain_avg,
            "KPTI must cost cycles: {taxed_avg} vs {plain_avg}"
        );
        assert!(
            taxed_cr3 > plain_cr3,
            "the tax is CR3 traffic: {taxed_cr3} vs {plain_cr3}"
        );
    }

    #[test]
    fn mpk_crossing_beats_skybridge_and_trap_per_call() {
        // The fifth personality's headline, at the transport level: two
        // WRPKRU flips (2 × 28 cycles in the model) undercut SkyBridge's
        // VMFUNC round trip, which in turn undercuts kernel IPC — on
        // identical service work.
        let spec = ServiceSpec::default();
        let mut mpk = sb_transport::MpkTransport::new(1, &spec);
        let mut sky = crate::SkyBridgeTransport::new(1, &spec);
        let mut trap = TrapIpcTransport::new(Personality::sel4(), 1, &spec);
        for t in [
            &mut mpk as &mut dyn Transport,
            &mut sky as &mut dyn Transport,
            &mut trap,
        ] {
            for i in 0..32 {
                t.call(0, &req(i, i % 2 == 0)).unwrap();
            }
        }
        let measure = |t: &mut dyn Transport| {
            let t0 = t.now(0);
            for i in 0..64 {
                t.call(0, &req(i, i % 2 == 0)).unwrap();
            }
            (t.now(0) - t0) / 64
        };
        let mpk_avg = measure(&mut mpk);
        let sky_avg = measure(&mut sky);
        let trap_avg = measure(&mut trap);
        assert!(
            mpk_avg < sky_avg && sky_avg < trap_avg,
            "per-call order must be mpk {mpk_avg} < skybridge {sky_avg} < trap {trap_avg}"
        );
    }
}
