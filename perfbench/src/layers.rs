//! The metric catalogue and the per-layer folds shared by the
//! workloads: PMU deltas and transport tallies from the [`Timed`]
//! decorators, phase cycles from the existing recorder.
//!
//! [`Timed`]: crate::timed::Timed

use sb_observe::{attribute, EventKind, PhaseProfile, Recorder, SpanKind};

use crate::plan::Pers;
use crate::report::{ratio, Outcome};
use crate::timed::Tally;

/// The end-to-end metrics every untraced run prints: (name, unit).
pub fn end_to_end() -> Vec<(String, &'static str)> {
    let mut v = vec![("setup_s".to_string(), "s")];
    for s in ["skybridge", "mpk", "trap"] {
        v.push((format!("host_ns_per_op.{s}"), "ns"));
    }
    for p in Pers::ALL {
        v.push((format!("sim_cycles_per_op.{}", p.name()), "cycles"));
    }
    v.push(("p50_cycles.skybridge".into(), "cycles"));
    for p in [Pers::SkyBridge, Pers::Mpk, Pers::Sel4] {
        v.push((format!("p99_cycles.{}", p.name()), "cycles"));
    }
    v.push(("goodput_ratio".into(), "1"));
    v.push(("peak_rss_mb".into(), "MiB"));
    v
}

/// Graph hops, in route order; `fs` is crossed from inside the db.
pub const HOPS: [&str; 4] = ["gateway", "cache", "db", "fs"];

/// Recorder phases reported per op.
const PHASES: [SpanKind; 9] = [
    SpanKind::Trampoline,
    SpanKind::Switch,
    SpanKind::Marshal,
    SpanKind::KernelIpc,
    SpanKind::Handler,
    SpanKind::Wrpkru,
    SpanKind::QueueWait,
    SpanKind::RingWait,
    SpanKind::Doorbell,
];

/// The per-layer metrics every traced run prints: (name, unit).
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = Vec::new();
    let mut add = |n: &str, u: &'static str| v.push((n.to_string(), u));
    for c in ["l1i", "l1d", "l2", "l3", "itlb", "dtlb"] {
        add(&format!("sim.{c}_miss_per_op"), "1/op");
    }
    add("sim.mem_access_ns", "ns");
    add("mem.page_walks_per_op", "1/op");
    add("mem.walk_accesses_per_op", "1/op");
    add("mem.translate_ns.native", "ns");
    add("mem.translate_ns.nested", "ns");
    add("rootkernel.vmfuncs_per_op", "1/op");
    add("rootkernel.vm_exits_per_op", "1/op");
    add("rootkernel.vmfunc_ns", "ns");
    add("microkernel.mode_switches_per_op", "1/op");
    add("microkernel.cr3_writes_per_op", "1/op");
    add("microkernel.ipis_per_op", "1/op");
    for p in [Pers::Sel4, Pers::Fiasco, Pers::Zircon] {
        add(&format!("microkernel.ipc_roundtrip_ns.{}", p.name()), "ns");
    }
    add("core.direct_server_call_ns.empty", "ns");
    add("core.direct_server_call_ns.4k", "ns");
    add("core.direct_server_call_cycles.empty", "cycles");
    for p in [Pers::SkyBridge, Pers::Sel4, Pers::Fiasco, Pers::Zircon] {
        add(&format!("fidelity.fig7_err.{}", p.name()), "1");
    }
    for p in Pers::ALL {
        add(&format!("transport.call_ns.{}", p.name()), "ns");
        add(&format!("transport.call_cycles.{}", p.name()), "cycles");
    }
    add("transport.bytes_copied_per_op", "B/op");
    add("transport.wrpkru_per_op", "1/op");
    add("transport.error_ratio", "1");
    for k in PHASES {
        add(&format!("phase.{}_cycles_per_op", k.name()), "cycles/op");
    }
    add("runtime.dispatch_ns_per_op", "ns/op");
    add("runtime.queue_wait_cycles_mean", "cycles");
    add("runtime.max_queue_depth", "count");
    add("runtime.lane_utilization", "1");
    add("runtime.shed_ratio", "1");
    add("runtime.retries_per_op", "1/op");
    add("runtime.tenant_jain", "1");
    add("runtime.tenant_p99_max_cycles", "cycles");
    add("ring.batch_mean", "1");
    add("ring.crossings_per_op", "1/op");
    add("ring.call_batch_ns_per_entry", "ns");
    add("ring.pump_ns_per_op", "ns/op");
    for h in HOPS {
        add(&format!("graph.hop_calls_per_op.{h}"), "1/op");
        add(&format!("graph.hop_ns_per_op.{h}"), "ns/op");
        add(&format!("graph.hop_cycles_per_op.{h}"), "cycles/op");
    }
    add("graph.cell_ns_per_op", "ns/op");
    add("graph.cache_hit_ratio", "1");
    add("graph.read_ns", "ns");
    add("graph.write_ns", "ns");
    add("graph.read_cycles", "cycles");
    add("graph.write_cycles", "cycles");
    add("load.gen_ns_per_op", "ns/op");
    add("trace_overhead", "1");
    v
}

/// Records, for every catalogue metric `out` lacks, a 0: the workload
/// does not cross that layer.
pub fn fill_absent(out: &mut Outcome, catalogue: &[(String, &'static str)]) {
    for (name, unit) in catalogue {
        if !out.metrics.contains_key(name) {
            out.put(name.clone(), 0.0, unit);
        }
    }
}

/// Records the PMU and copy-meter layer counts of `t` — every
/// transport-level tally of the run, summed — per completed workload op.
pub fn emit_counts(out: &mut Outcome, t: &Tally, ops: u64) {
    let per = |x: u64| ratio(x as f64, ops as f64);
    let p = &t.pmu;
    for (c, x) in [
        ("l1i", p.l1i_misses),
        ("l1d", p.l1d_misses),
        ("l2", p.l2_misses),
        ("l3", p.l3_misses),
        ("itlb", p.itlb_misses),
        ("dtlb", p.dtlb_misses),
    ] {
        out.put(format!("sim.{c}_miss_per_op"), per(x), "1/op");
    }
    out.put("mem.page_walks_per_op", per(p.page_walks), "1/op");
    out.put(
        "mem.walk_accesses_per_op",
        per(p.walk_memory_accesses),
        "1/op",
    );
    out.put("rootkernel.vmfuncs_per_op", per(p.vmfuncs), "1/op");
    out.put("rootkernel.vm_exits_per_op", per(p.vm_exits), "1/op");
    out.put(
        "microkernel.mode_switches_per_op",
        per(p.mode_switches),
        "1/op",
    );
    out.put("microkernel.cr3_writes_per_op", per(p.cr3_writes), "1/op");
    out.put("microkernel.ipis_per_op", per(p.ipis), "1/op");
    out.put("transport.bytes_copied_per_op", per(t.bytes), "B/op");
    out.put("transport.wrpkru_per_op", per(p.wrpkru_writes), "1/op");
    out.put(
        "transport.error_ratio",
        ratio(t.errors as f64, t.entries as f64),
        "1",
    );
}

/// Records `p`'s host ns (scaled to the reference host) and simulated
/// cycles per served entry.
pub fn emit_transport(out: &mut Outcome, p: Pers, t: &Tally, scale: f64) {
    let entries = t.entries as f64;
    out.put(
        format!("transport.call_ns.{}", p.name()),
        ratio(t.host_ns as f64, entries) * scale,
        "ns",
    );
    out.put(
        format!("transport.call_cycles.{}", p.name()),
        ratio(t.cycles as f64, entries),
        "cycles",
    );
}

/// Phase cycles folded out of traced legs.
#[derive(Debug, Default)]
pub struct Phases {
    /// The merged phase profile.
    pub profile: PhaseProfile,
    /// Queue-wait spans seen (served requests that queued).
    pub queue_waits: u64,
}

impl Phases {
    /// Drains `rec` and folds its events in.
    pub fn fold(&mut self, rec: &Recorder) {
        let lanes = rec.take_lane_events();
        for ev in lanes.iter().flatten() {
            if matches!(
                ev.kind,
                EventKind::End(SpanKind::QueueWait) | EventKind::Complete(SpanKind::QueueWait, _)
            ) {
                self.queue_waits += 1;
            }
        }
        self.profile.merge(&attribute(&lanes));
    }

    /// Records the phase metrics per completed workload op.
    pub fn emit(&self, out: &mut Outcome, ops: u64) {
        for k in PHASES {
            out.put(
                format!("phase.{}_cycles_per_op", k.name()),
                ratio(self.profile.get(k) as f64, ops as f64),
                "cycles/op",
            );
        }
        out.put(
            "runtime.queue_wait_cycles_mean",
            ratio(
                self.profile.get(SpanKind::QueueWait) as f64,
                self.queue_waits as f64,
            ),
            "cycles",
        );
    }
}
