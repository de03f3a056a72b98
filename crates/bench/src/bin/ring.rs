//! The ring sweep: what batching the VMFUNC boundary buys, and what it
//! must not cost.
//!
//! Two sections, both CI-enforced:
//!
//! 1. **Simulated sweep** — ρ ∈ {0.2, 0.6, 0.95} × batch budget
//!    ∈ {1, 4, 8, 16} × every IPC personality, identical Poisson
//!    arrival streams in ring mode and direct mode, all in deterministic
//!    simulated cycles. The **latency gate** reads off the low-ρ row:
//!    on SkyBridge at ρ = 0.2 the ring-mode p50 with the working budget
//!    (8) must sit within 5% of direct mode — the adaptive doorbell has
//!    to degrade to batch-of-one when the system is idle, or async
//!    submission would tax exactly the workloads that don't need it.
//! 2. **Amortization gate** — host ns/call driving a saturated
//!    SkyBridge ring directly (submit a full budget, one doorbell, reap),
//!    interleaved min-of-N against batch-of-one on the same transport
//!    instance. At budget ≥ 8 the amortized cost must come in under
//!    294 host-speed units/call — the committed direct-mode baseline
//!    (the 281-unit `skybridge` row of `results/BENCH_runtime.json`)
//!    plus ~5%: batching pays the per-crossing work
//!    (trampoline, function-list fetch, key check) once per batch, so
//!    anything *above* the direct baseline means the ring machinery
//!    leaks per-call overhead. The check is noise-robust and dual-unit:
//!    the gate value is the **smaller** of (a) ns/call divided by the
//!    freshly probed host speed unit and (b) ns/call rescaled through
//!    the committed `results/BENCH_runtime.json` ns→units ratio. A real
//!    regression inflates both together; host noise (a slow host, a
//!    lucky probe draw) moves them apart, so only coherent movement
//!    counts, and a breach earns up to two fresh re-measurements.
//!    The loop, the probe and the coherent test are
//!    [`sb_bench::harness`]'s.
//!
//! Knobs: `SB_RING_REQUESTS` (arrivals per sweep cell, default 2,000),
//! `SB_CALLS` (timed calls per rep, default 2,000), `SB_REPS`
//! (repetitions, default 5), `SB_BENCH_BASELINE` (baseline path,
//! default `results/BENCH_runtime.json`; `off` skips the rescale
//! signal).

use std::hint::black_box;
use std::time::Instant;

use sb_bench::harness::{drive, interleave, remeasure, BaseRow, Baseline, MinOfN, Verdict};
use sb_bench::{
    knob, print_table,
    report::{run_stats_json, Json},
};
use sb_runtime::{AdmissionPolicy, RingConfig, RingTransport, RuntimeConfig, Transport};
use skybridge_repro::scenarios::runtime::{
    build_ring_backend, cycles_per_call, run_open_loop, run_ring_open_loop, Backend,
    ServingScenario,
};

/// The amortization gate: saturated ring-mode SkyBridge at batch ≥ 8
/// must cost less than this many host units per call.
const AMORTIZED_UNITS_BUDGET: f64 = 294.0;
/// The low-ρ latency gate: ring-mode p50 within 5% of direct.
const LATENCY_TOLERANCE: f64 = 0.05;
/// The ρ row the latency gate reads.
const LOW_RHO: f64 = 0.2;
/// The batch budget both gates certify.
const GATE_BUDGET: usize = 8;

const RHOS: [f64; 3] = [0.2, 0.6, 0.95];
const BUDGETS: [usize; 4] = [1, 4, 8, 16];

fn sweep_cfg() -> RuntimeConfig {
    RuntimeConfig {
        queue_capacity: 64,
        policy: AdmissionPolicy::Shed,
        queue_deadline: None,
        ..RuntimeConfig::default()
    }
}

/// One timed repetition of the saturated ring hot path: fill the
/// submission ring to `budget`, one doorbell, reap every completion.
/// One call site for every budget (`inline(never)`), so batch-of-one
/// and batch-of-eight share machine code and the measured difference is
/// amortization, not layout.
#[inline(never)]
fn rep_ring(rt: &mut RingTransport<Box<dyn Transport>>, budget: usize, calls: u64) -> f64 {
    let mut f = ServingScenario::Kv.factory();
    let batches = (calls as usize).div_ceil(budget);
    let wall = Instant::now();
    for _ in 0..batches {
        for _ in 0..budget {
            let r = f.make(rt.now(0), None);
            rt.submit(0, &r).expect("ring slot");
        }
        rt.doorbell(0);
        while let Some(c) = rt.pop_completion(0) {
            black_box(c.corr);
        }
        black_box(rt.completion_reply(0));
    }
    wall.elapsed().as_nanos() as f64 / (batches * budget) as f64
}

struct Amortized {
    ns_batch1: f64,
    ns_batched: f64,
    unit_ns: f64,
    units_fresh: f64,
}

impl Amortized {
    /// The dual-unit gate value: fresh-probe units, or the committed
    /// ns→units rescale, whichever is *smaller*.
    fn gate_units(&self, base: Option<BaseRow>) -> f64 {
        match base {
            Some(base) => base.units * base.ratio(self.ns_batched, self.units_fresh),
            None => self.units_fresh,
        }
    }
}

/// The host-time section: batch-of-one vs the gate budget on one ring
/// instance, one interleaved min-of-N pass with unit probes between
/// rounds.
fn measure_amortized(calls: u64, reps: u64) -> Amortized {
    let mut rt = build_ring_backend(
        ServingScenario::Kv,
        &Backend::SkyBridge,
        1,
        RingConfig {
            capacity: 2 * GATE_BUDGET,
            batch_budget: GATE_BUDGET,
            slot_bytes: 4096,
        },
    );
    let mut f = ServingScenario::Kv.factory();
    drive(rt.inner_mut().as_mut(), &mut f, 25_000, "warm call");
    let MinOfN {
        ns: [ns_batch1, ns_batched],
        unit_ns,
    } = interleave(
        "skybridge",
        reps,
        1,
        true,
        |m| rep_ring(&mut rt, if m == 0 { 1 } else { GATE_BUDGET }, calls),
        |_| true,
    );
    Amortized {
        ns_batch1,
        ns_batched,
        unit_ns,
        units_fresh: ns_batched / unit_ns,
    }
}

fn main() {
    let requests = knob("SB_RING_REQUESTS", 2_000) as u64;
    let calls = knob("SB_CALLS", 2_000) as u64;
    let reps = knob("SB_REPS", 5) as u64;
    let seed = 0x51de_0007u64;
    let baseline = Baseline::load();
    let mut v = Verdict::default();

    // Section 1: the deterministic sweep.
    let mut rows = Vec::new();
    let mut sweep_json = Vec::new();
    let mut direct_json = Vec::new();
    let mut low_rho_gate: Option<(u64, u64)> = None; // (direct p50, ring p50)
    for backend in Backend::all() {
        let svc = cycles_per_call(ServingScenario::Kv, &backend);
        for &rho in &RHOS {
            let gap = svc / rho;
            let direct = run_open_loop(
                ServingScenario::Kv,
                &backend,
                1,
                sweep_cfg(),
                gap,
                requests,
                seed,
            );
            direct_json.push(
                run_stats_json(&direct)
                    .field("rho", rho)
                    .field("mean_gap_cycles", gap),
            );
            for &budget in &BUDGETS {
                let ring = run_ring_open_loop(
                    ServingScenario::Kv,
                    &backend,
                    1,
                    sweep_cfg(),
                    RingConfig {
                        capacity: 64.max(2 * budget),
                        batch_budget: budget,
                        slot_bytes: 4096,
                    },
                    gap,
                    requests,
                    seed,
                );
                let p50_vs_direct = if direct.p50() == 0 {
                    1.0
                } else {
                    ring.p50() as f64 / direct.p50() as f64
                };
                if matches!(backend, Backend::SkyBridge) && rho == LOW_RHO && budget == GATE_BUDGET
                {
                    low_rho_gate = Some((direct.p50(), ring.p50()));
                }
                rows.push(vec![
                    backend.label().to_string(),
                    format!("{rho:.2}"),
                    format!("{budget}"),
                    format!("{}", ring.p50()),
                    format!("{}", direct.p50()),
                    format!(
                        "{p50_vs_direct:+.1}%",
                        p50_vs_direct = (p50_vs_direct - 1.0) * 100.0
                    ),
                    format!("{:.2}", ring.throughput_per_mcycle()),
                    format!("{:.2}", direct.throughput_per_mcycle()),
                    format!("{}", ring.shed()),
                ]);
                sweep_json.push(
                    run_stats_json(&ring)
                        .field("rho", rho)
                        .field("batch_budget", budget)
                        .field("mean_gap_cycles", gap)
                        .field("p50_vs_direct", p50_vs_direct),
                );
                assert_eq!(
                    ring.offered,
                    ring.completed + ring.shed() + ring.timed_out + ring.failed,
                    "{}: ring sweep must conserve requests",
                    backend.label()
                );
            }
        }
    }
    print_table(
        &format!("ring sweep ({requests} arrivals/cell, 1 lane, simulated cycles)"),
        &[
            "transport",
            "rho",
            "budget",
            "ring p50",
            "direct p50",
            "p50 delta",
            "ring thr/Mcyc",
            "direct thr/Mcyc",
            "shed",
        ],
        &rows,
    );

    let (direct_p50, ring_p50) = low_rho_gate.expect("the sweep covers the gate cell");
    let latency_ratio = if direct_p50 == 0 {
        1.0
    } else {
        ring_p50 as f64 / direct_p50 as f64
    };
    if latency_ratio > 1.0 + LATENCY_TOLERANCE {
        v.fail(format!(
            "skybridge: ring p50 at rho={LOW_RHO} is {ring_p50} cycles vs {direct_p50} direct \
             ({:+.1}%, budget {:.0}%)",
            (latency_ratio - 1.0) * 100.0,
            LATENCY_TOLERANCE * 100.0
        ));
    }

    // Section 2: the amortization gate. A breach earns whole fresh
    // re-measurements, keeping the better one: host noise moves the two
    // unit signals apart, a real cost moves them together.
    let base = baseline.row("skybridge");
    let amortized = remeasure(
        measure_amortized(calls, reps),
        |a| a.gate_units(base) >= AMORTIZED_UNITS_BUDGET,
        |a| {
            eprintln!(
                "note: amortization gate breached ({:.0} units), re-measuring",
                a.gate_units(base)
            );
            let again = measure_amortized(calls, reps);
            if again.gate_units(base) < a.gate_units(base) {
                again
            } else {
                a
            }
        },
    );
    let units = amortized.gate_units(base);
    print_table(
        &format!("skybridge amortization ({calls} calls/rep, best of {reps})"),
        &["batch", "ns/call", "units/call", "budget"],
        &[
            vec![
                "1".to_string(),
                format!("{:.0}", amortized.ns_batch1),
                format!("{:.1}", amortized.ns_batch1 / amortized.unit_ns),
                "-".to_string(),
            ],
            vec![
                format!("{GATE_BUDGET}"),
                format!("{:.0}", amortized.ns_batched),
                format!("{units:.1}"),
                format!("< {AMORTIZED_UNITS_BUDGET:.0}"),
            ],
        ],
    );
    baseline.note_if_missing("fresh-probe units only");
    if units >= AMORTIZED_UNITS_BUDGET {
        v.fail(format!(
            "skybridge: amortized ring mode costs {units:.0} units/call at batch \
             {GATE_BUDGET} (budget < {AMORTIZED_UNITS_BUDGET:.0})"
        ));
    }

    let doc = Json::obj()
        .field("bench", "ring")
        .field("amortized_units_budget", AMORTIZED_UNITS_BUDGET)
        .field("latency_tolerance", LATENCY_TOLERANCE)
        .field("gate_budget", GATE_BUDGET)
        .field("requests", requests)
        .field("calls", calls)
        .field("reps", reps)
        .field(
            "latency_gate",
            Json::obj()
                .field("rho", LOW_RHO)
                .field("direct_p50", direct_p50)
                .field("ring_p50", ring_p50)
                .field("ratio", latency_ratio),
        )
        .field(
            "amortization_gate",
            Json::obj()
                .field("ns_per_call_batch1", amortized.ns_batch1)
                .field("ns_per_call_batched", amortized.ns_batched)
                .field("host_unit_ns", amortized.unit_ns)
                .field("units_fresh", amortized.units_fresh)
                .field("units_gate_value", units),
        )
        .field("sweep", Json::Arr(sweep_json))
        .field("direct", Json::Arr(direct_json));
    v.write("ring", &doc);
    v.finish(&format!(
        "ring gates hold: amortized {units:.0} units/call < {AMORTIZED_UNITS_BUDGET:.0}, \
         low-rho p50 {:+.1}% of direct",
        (latency_ratio - 1.0) * 100.0
    ));
}
