//! Isolated layer rungs: each lower layer's public function called
//! directly, timed on the host clock and, where the layer has one, on
//! the simulated clock. Every traced run measures the whole ladder.

use std::hint::black_box;
use std::time::Instant;

use rand::{rngs::SmallRng, Rng, SeedableRng};
use sb_fs::RamDisk;
use sb_graph::{CellDisk, GraphSpec, GraphTransport, CELL_DISK_BLOCKS};
use sb_mem::{
    ept::{Ept, EptPerms, PageSize},
    paging::{AddressSpace, PteFlags},
    phys::RESERVED_BYTES,
    walk::{self, Access},
    Gva, HostMem, PAGE_SIZE,
};
use sb_microkernel::{Kernel, KernelConfig, Personality, ThreadId};
use sb_runtime::{RequestFactory, RingTransport, ServiceSpec, SkyBridgeTransport, Transport};
use sb_sim::{AccessKind, Machine};
use sb_transport::Request;
use sb_ycsb::WorkloadSpec;
use skybridge::{ServerId, SkyBridge};

use crate::host::{median, Probe};
use crate::plan::{sub_seed, Pers, RING};
use crate::report::Outcome;

/// The paper's single-core Figure 7 round trips, in cycles.
pub const FIG7_SKYBRIDGE: f64 = 396.0;

/// Figure 7 single-core bar of a trap personality.
fn fig7(p: Pers) -> f64 {
    match p {
        Pers::Sel4 => 986.0,
        Pers::Fiasco => 2_717.0,
        _ => 8_157.0,
    }
}

/// Repetitions per rung; the rung reports the median rep.
const REPS: usize = 7;

/// Median host ns per op of `reps` reps of `n` ops each, after one
/// untimed warm rep.
fn rung(n: u64, mut op: impl FnMut(u64)) -> f64 {
    for i in 0..n {
        op(i);
    }
    let mut per_op = Vec::with_capacity(REPS);
    for r in 0..REPS as u64 {
        let t0 = Instant::now();
        for i in 0..n {
            op((r + 1) * n + i);
        }
        per_op.push(t0.elapsed().as_nanos() as f64 / n as f64);
    }
    median(&per_op)
}

/// Runs every rung, recording its metrics into `out`. Host times are
/// scaled to the reference host by `probe`.
pub fn run(out: &mut Outcome, probe: &mut Probe, seed: u64, scale_n: u64) {
    let n = |full: u64| (full / scale_n).max(16);
    let mut host = Vec::new();

    host.push(("sim.mem_access_ns", mem_access(seed, n(200_000))));
    let (native, nested) = translate(seed, n(50_000));
    host.push(("mem.translate_ns.native", native));
    host.push(("mem.translate_ns.nested", nested));

    let mut sky = SkyRig::new();
    host.push(("rootkernel.vmfunc_ns", sky.vmfunc(n(200_000))));
    let (empty_ns, empty_cycles, empty_bar) = sky.call(&[], n(20_000));
    let (big_ns, _, _) = sky.call(&[9u8; 4096], n(5_000));
    host.push(("core.direct_server_call_ns.empty", empty_ns));
    host.push(("core.direct_server_call_ns.4k", big_ns));
    out.put(
        "core.direct_server_call_cycles.empty",
        empty_cycles,
        "cycles",
    );
    out.put(
        "fidelity.fig7_err.skybridge",
        (empty_bar / FIG7_SKYBRIDGE - 1.0).abs(),
        "1",
    );

    for p in [Pers::Sel4, Pers::Fiasco, Pers::Zircon] {
        let kernel = p.trap_kernel().expect("trap personality");
        let (ns, bar) = ipc_roundtrip(kernel, n(5_000));
        let name = format!("microkernel.ipc_roundtrip_ns.{}", p.name());
        out.put(name, ns * probe.scale(), "ns");
        out.put(
            format!("fidelity.fig7_err.{}", p.name()),
            (bar / fig7(p) - 1.0).abs(),
            "1",
        );
    }

    host.push(("ring.call_batch_ns_per_entry", ring_batch(seed, n(4_000))));

    let g = graph_ops(seed, n(256));
    host.push(("graph.read_ns", g.read_ns));
    host.push(("graph.write_ns", g.write_ns));
    out.put("graph.read_cycles", g.read_cycles, "cycles");
    out.put("graph.write_cycles", g.write_cycles, "cycles");

    let scale = probe.scale();
    for (name, ns) in host {
        out.put(name, ns * scale, "ns");
    }
}

/// `Machine::mem_access` over a seeded stream of lines in a 16 MiB
/// window, three reads to one write.
fn mem_access(seed: u64, n: u64) -> f64 {
    let mut rng = SmallRng::seed_from_u64(sub_seed(seed, 0x3e3));
    let stream: Vec<(u64, AccessKind)> = (0..4096)
        .map(|_| {
            let line = rng.gen::<u64>() % ((16 << 20) / 64);
            let kind = if rng.gen::<u64>() % 4 == 0 {
                AccessKind::DataWrite
            } else {
                AccessKind::DataRead
            };
            (RESERVED_BYTES + line * 64, kind)
        })
        .collect();
    let mut m = Machine::skylake();
    rung(n, |i| {
        let (hpa, kind) = stream[i as usize % stream.len()];
        black_box(m.mem_access(0, hpa, kind));
    })
}

/// `walk::translate` over a seeded stream of 512 mapped pages (far more
/// than the TLBs hold), natively and under a 2 MiB identity EPT.
fn translate(seed: u64, n: u64) -> (f64, f64) {
    let base = 0x4000_0000u64;
    let mut mem = HostMem::new();
    let asp = AddressSpace::new(&mut mem, 1);
    asp.alloc_and_map(&mut mem, Gva(base), 512, PteFlags::USER_DATA);
    let ept = Ept::new(&mut mem);
    ept.map_identity_range(
        &mut mem,
        RESERVED_BYTES,
        1 << 30,
        PageSize::Size2M,
        EptPerms::RWX,
    );
    let mut rng = SmallRng::seed_from_u64(sub_seed(seed, 0x7a1));
    let stream: Vec<Gva> = (0..4096)
        .map(|_| Gva(base + (rng.gen::<u64>() % 512) * PAGE_SIZE + rng.gen::<u64>() % PAGE_SIZE))
        .collect();
    let time = |nested: bool| {
        let mut m = Machine::skylake();
        m.cpu_mut(0).load_cr3(asp.root_gpa.0, 1);
        if nested {
            m.cpu_mut(0).load_eptp(ept.root.0);
        }
        rung(n, |i| {
            let gva = stream[i as usize % stream.len()];
            let hpa = walk::translate(&mut m, 0, &mem, gva, Access::Read, true);
            black_box(hpa.expect("mapped page"));
        })
    };
    (time(false), time(true))
}

/// A Rootkernel-backed machine with one SkyBridge server (empty handler)
/// and one bound client — the Figure 7 SkyBridge rig.
struct SkyRig {
    k: Kernel,
    sb: SkyBridge,
    client: ThreadId,
    server: ServerId,
}

impl SkyRig {
    fn new() -> Self {
        let mut k = Kernel::boot(KernelConfig::with_rootkernel(Personality::sel4()));
        let mut sb = SkyBridge::new();
        let code = sb_rewriter::corpus::generate(32, 2048, 0);
        let cp = k.create_process(&code);
        let sp = k.create_process(&code);
        let client = k.create_thread(cp, 0);
        let server_tid = k.create_thread(sp, 0);
        let server = sb
            .register_server(
                &mut k,
                server_tid,
                4,
                64,
                Box::new(|_, _, _, _| Ok(vec![].into())),
            )
            .expect("register the rung's server");
        sb.register_client(&mut k, client, server)
            .expect("bind the rung's client");
        k.run_thread(client);
        SkyRig {
            k,
            sb,
            client,
            server,
        }
    }

    /// `Rootkernel::vmfunc` to EPTP-list entry 0.
    fn vmfunc(&mut self, n: u64) -> f64 {
        let k = &mut self.k;
        rung(n, |_| {
            let rk = k.rootkernel.as_mut().expect("rootkernel booted");
            rk.vmfunc(&mut k.machine, 0, 0, 0).expect("vmfunc leaf 0");
        })
    }

    /// `SkyBridge::direct_server_call` with `req`: (host ns, client-core
    /// cycles, Figure 7 breakdown total) per call.
    fn call(&mut self, req: &[u8], n: u64) -> (f64, f64, f64) {
        let (sb, k) = (&mut self.sb, &mut self.k);
        let (client, server) = (self.client, self.server);
        let ns = rung(n, |_| {
            black_box(
                sb.direct_server_call(k, client, server, req)
                    .expect("rung call"),
            );
        });
        let c0 = k.machine.cpu(0).tsc;
        let mut bar = 0;
        for _ in 0..n {
            let (_, b) = sb
                .direct_server_call(k, client, server, req)
                .expect("rung call");
            bar += b.total();
        }
        let cycles = (k.machine.cpu(0).tsc - c0) as f64 / n as f64;
        (ns, cycles, bar as f64 / n as f64)
    }
}

/// `Kernel::ipc_roundtrip` on one core under `kernel`: (host ns, Figure
/// 7 breakdown total) per round trip.
fn ipc_roundtrip(kernel: Personality, n: u64) -> (f64, f64) {
    let mut k = Kernel::boot(KernelConfig::native(kernel));
    let code = sb_rewriter::corpus::generate(31, 2048, 0);
    let cp = k.create_process(&code);
    let sp = k.create_process(&code);
    let client = k.create_thread(cp, 0);
    let server = k.create_thread(sp, 0);
    let (ep, _) = k.create_endpoint(sp);
    let slot = k.grant_send(cp, ep);
    k.server_recv(server, ep);
    k.run_thread(client);
    let ns = rung(n, |_| {
        black_box(
            k.ipc_roundtrip(client, slot, server)
                .expect("rung roundtrip"),
        );
    });
    let mut bar = 0;
    for _ in 0..n {
        bar += k
            .ipc_roundtrip(client, slot, server)
            .expect("rung roundtrip")
            .total();
    }
    (ns, bar as f64 / n as f64)
}

/// One ring batch on SkyBridge: fill the submission ring to the batch
/// budget, ring the doorbell (one `call_batch` crossing), reap. Host ns
/// per entry.
fn ring_batch(seed: u64, n: u64) -> f64 {
    let mut ring = RingTransport::new(
        Box::new(SkyBridgeTransport::new(1, &ServiceSpec::default())) as Box<dyn Transport>,
        RING,
    );
    let mut spec = WorkloadSpec::ycsb_a(crate::plan::KV_RECORDS, 64);
    spec.seed = sub_seed(seed, 0x417);
    let mut f = RequestFactory::new(spec, 64);
    let budget = RING.batch_budget as u64;
    let per_batch = rung(n.div_ceil(budget), |_| {
        for _ in 0..budget {
            let r = f.make(ring.now(0), None);
            ring.submit(0, &r).expect("ring slot");
        }
        ring.doorbell(0);
        while let Some(c) = ring.pop_completion(0) {
            black_box(c.corr);
        }
    });
    per_batch / budget as f64
}

struct GraphOps {
    read_ns: f64,
    write_ns: f64,
    read_cycles: f64,
    write_cycles: f64,
}

/// One graph operation at a time through a small SkyBridge graph:
/// alternating reads and writes of seeded keys.
fn graph_ops(seed: u64, n: u64) -> GraphOps {
    let spec = GraphSpec::standard(512, crate::plan::GRAPH_VALUE, crate::plan::GRAPH_CACHE);
    let transports: Vec<Box<dyn Transport>> = spec
        .nodes
        .iter()
        .map(|node| {
            let svc = ServiceSpec::default()
                .with_records(spec.records)
                .with_cpu(node.cpu)
                .with_footprint(node.footprint);
            Pers::SkyBridge.build(&svc, 1)
        })
        .collect();
    let disk = CellDisk::Ram(RamDisk::new(CELL_DISK_BLOCKS));
    let mut g = GraphTransport::assemble_on("graph:rung", &spec, transports, 1, disk)
        .expect("standard graph validates");
    let payload = spec.nodes[0].payload;
    let mut rng = SmallRng::seed_from_u64(sub_seed(seed, 0x9a4));
    let mut ns = [Vec::new(), Vec::new()];
    let mut cycles = [0u64; 2];
    let mut count = [0u64; 2];
    for i in 0..2 * n {
        let write = i % 2 == 1;
        let req = Request {
            id: i + 1,
            arrival: g.now(0),
            key: rng.gen::<u64>() % spec.records,
            write,
            payload,
            client: None,
            tenant: 0,
        };
        let c0 = g.now(0);
        let t0 = Instant::now();
        g.call(0, &req).expect("rung graph call");
        let el = t0.elapsed().as_nanos() as f64;
        if i >= n / 2 {
            // The first quarter of the ops warm the cache tier.
            ns[write as usize].push(el);
            cycles[write as usize] += g.now(0) - c0;
            count[write as usize] += 1;
        }
    }
    GraphOps {
        read_ns: median(&ns[0]),
        write_ns: median(&ns[1]),
        read_cycles: cycles[0] as f64 / count[0].max(1) as f64,
        write_cycles: cycles[1] as f64 / count[1].max(1) as f64,
    }
}
