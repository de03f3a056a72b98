//! Criterion benches of the IPC hot paths (library wall-clock, i.e. how
//! fast the simulator itself executes the paper's operations).

use std::hint::black_box;

use criterion::{criterion_group, criterion_main, Criterion};
use sb_mem::{
    paging::{AddressSpace, PteFlags},
    phys::RESERVED_BYTES,
    walk::{self, Access},
    Gva, HostMem,
};
use sb_microkernel::{Kernel, KernelConfig, Personality, ThreadId};
use sb_sim::{AccessKind, Machine, Tlb, TlbConfig, TlbTag};
use skybridge::SkyBridge;

struct IpcRig {
    k: Kernel,
    client: ThreadId,
    server: ThreadId,
    slot: usize,
}

fn ipc_rig(personality: Personality, cross: bool) -> IpcRig {
    let mut k = Kernel::boot(KernelConfig::native(personality));
    let code = sb_rewriter::corpus::generate(61, 1024, 0);
    let cp = k.create_process(&code);
    let sp = k.create_process(&code);
    let client = k.create_thread(cp, 0);
    let server = k.create_thread(sp, if cross { 1 } else { 0 });
    let (ep, _) = k.create_endpoint(sp);
    let slot = k.grant_send(cp, ep);
    k.server_recv(server, ep);
    k.run_thread(client);
    IpcRig {
        k,
        client,
        server,
        slot,
    }
}

fn bench_ipc(c: &mut Criterion) {
    let mut group = c.benchmark_group("ipc_roundtrip");
    for (name, personality) in [
        ("sel4", Personality::sel4()),
        ("fiasco", Personality::fiasco_oc()),
        ("zircon", Personality::zircon()),
    ] {
        let mut rig = ipc_rig(personality.clone(), false);
        group.bench_function(format!("{name}_fastpath"), |b| {
            b.iter(|| {
                rig.k
                    .ipc_roundtrip(rig.client, rig.slot, rig.server)
                    .unwrap()
            })
        });
        let mut rig = ipc_rig(personality, true);
        group.bench_function(format!("{name}_cross_core"), |b| {
            b.iter(|| {
                rig.k
                    .ipc_roundtrip(rig.client, rig.slot, rig.server)
                    .unwrap()
            })
        });
    }
    group.finish();
}

fn bench_skybridge(c: &mut Criterion) {
    let mut k = Kernel::boot(KernelConfig::with_rootkernel(Personality::sel4()));
    let mut sb = SkyBridge::new();
    let code = sb_rewriter::corpus::generate(62, 1024, 0);
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
        .unwrap();
    sb.register_client(&mut k, client, server).unwrap();
    k.run_thread(client);
    let mut group = c.benchmark_group("skybridge");
    group.bench_function("direct_server_call_empty", |b| {
        b.iter(|| sb.direct_server_call(&mut k, client, server, &[]).unwrap())
    });
    let big = vec![9u8; 4096];
    group.bench_function("direct_server_call_4k", |b| {
        b.iter(|| sb.direct_server_call(&mut k, client, server, &big).unwrap())
    });
    group.finish();

    let mut group = c.benchmark_group("vmfunc");
    group.bench_function("switch", |b| {
        b.iter(|| {
            let rk = k.rootkernel.as_mut().unwrap();
            rk.vmfunc(&mut k.machine, 0, 0, 0).unwrap();
        })
    });
    group.finish();
}

/// The rungs below VMFUNC: one cache access, one TLB operation, one
/// translation.
fn bench_sim(c: &mut Criterion) {
    let mut group = c.benchmark_group("sim");
    let mut m = Machine::skylake();
    m.mem_access(0, RESERVED_BYTES, AccessKind::DataRead);
    group.bench_function("cache/l1_hit", |b| {
        b.iter(|| m.mem_access(0, black_box(RESERVED_BYTES), AccessKind::DataRead))
    });
    // Cycling through 16 MiB in line order, twice the L3, misses every
    // level on every access.
    let lines = (16 << 20) / 64;
    let mut i = 0u64;
    group.bench_function("cache/miss_to_dram", |b| {
        b.iter(|| {
            i = (i + 1) % lines;
            m.mem_access(0, RESERVED_BYTES + i * 64, AccessKind::DataRead)
        })
    });

    // Four translations in one set of the 4-way d-TLB, looked up in turn
    // so each hit moves an entry from the LRU end to the front.
    let tag = TlbTag::bare(1);
    let mut tlb = Tlb::new(TlbConfig::skylake_dtlb());
    let sets = TlbConfig::skylake_dtlb().sets() as u64;
    for k in 0..4 {
        tlb.insert(tag, k * sets, k, 0);
    }
    let mut k = 0u64;
    group.bench_function("tlb/lookup_hit", |b| {
        b.iter(|| {
            k = (k + 1) % 4;
            tlb.lookup(tag, black_box(k * sets)).expect("resident")
        })
    });
    // Eight pages cycled through one 4-way set: every insert evicts.
    group.bench_function("tlb/insert_evict", |b| {
        b.iter(|| {
            k = (k + 1) % 8;
            tlb.insert(tag, black_box(k * sets), k, 0)
        })
    });

    let mut mem = HostMem::new();
    let asp = AddressSpace::new(&mut mem, 1);
    let gva = Gva(0x4000_0000);
    asp.alloc_and_map(&mut mem, gva, 1, PteFlags::USER_DATA);
    let mut m = Machine::skylake();
    m.cpu_mut(0).load_cr3(asp.root_gpa.0, 1);
    walk::translate(&mut m, 0, &mem, gva, Access::Read, true).expect("mapped page");
    group.bench_function("walk/translate_tlb_hit", |b| {
        b.iter(|| walk::translate(&mut m, 0, &mem, black_box(gva), Access::Read, true))
    });
    group.finish();
}

criterion_group!(benches, bench_ipc, bench_skybridge, bench_sim);
criterion_main!(benches);
