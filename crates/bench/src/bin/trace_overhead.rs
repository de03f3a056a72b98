//! The tracing tax: host ns per call with tracing absent, attached but
//! disabled, and fully enabled — plus the phase-attribution consistency
//! check (the software Figure 7 must decompose end-to-end cycles).
//!
//! Three modes per kernel-backed transport, all measured on the same
//! transport instance (separate instances differ by several percent
//! from allocation layout alone) by swapping the attached recorder:
//!
//! * `baseline` — the constructor-default off recorder (the state every
//!   transport is born with).
//! * `disabled` — a [`Recorder::off`] attached explicitly to every
//!   hook: each emit is one flag read, which must cost (statistically)
//!   nothing, and the attach itself must be free.
//! * `enabled` — a live recorder capturing every span of every call,
//!   with the cycle sampler enabled, so the tax gate bounds the whole
//!   always-on observability stack (spans + sampling).
//!
//! Each mode runs `SB_REPS` timed repetitions through
//! [`sb_bench::harness::interleave`] (order alternating every round,
//! min-of-N, up to four passes with the minima carried over), so a
//! one-off host spike can't fail CI but a real regression still does.
//! Gates, all CI-enforced:
//!
//! 1. `disabled` within 5% of `baseline` — attached-but-off is free;
//! 2. `enabled` within 5% of `disabled` — the always-on tax is bounded;
//! 3. the harness's phase identity: in-call phase self-times decompose
//!    end-to-end cycles within 5% over a well-formed span stream;
//! 4. the quiescent profiled capture loses nothing: zero ring
//!    overwrites, zero dropped/poisoned samples, zero export
//!    truncation;
//! 5. the Chrome trace export of the profiled run is valid JSON.
//!
//! Results go to `results/trace_overhead.json`, including the per-phase
//! cycle breakdown and a PMU metrics snapshot through the registry.
//!
//! Knobs: `SB_CALLS` (timed calls per rep, default 4,000), `SB_REPS`
//! (repetitions per mode, default 7), `SB_RING` (enabled-mode ring
//! capacity in events, default [`sb_observe::DEFAULT_RING_CAPACITY`]).

use sb_bench::harness::{drive, interleave, lossless, phase_identity, timed_calls, Verdict};
use sb_bench::{
    knob, print_table,
    report::{snapshot_json, Json},
};
use sb_microkernel::Personality;
use sb_observe::{chrome_trace, validate_json, Recorder, Registry, SamplerConfig};
use sb_runtime::{SkyBridgeTransport, Transport};
use skybridge_repro::scenarios::runtime::{build_backend, Backend, ServingScenario};

/// Host-noise guard on the two overhead gates: 5% relative.
const OVERHEAD_BUDGET: f64 = 0.05;

struct TransportResult {
    name: &'static str,
    baseline_ns: f64,
    disabled_ns: f64,
    enabled_ns: f64,
    phases: Json,
    phase_ratio: f64,
    trace_events: u64,
    trace_valid: bool,
    samples_taken: u64,
}

fn run_transport(
    name: &'static str,
    backend: &Backend,
    calls: u64,
    reps: u64,
    v: &mut Verdict,
) -> TransportResult {
    // All three modes run on ONE transport instance, swapping only the
    // attached recorder between repetitions: separate instances differ
    // by several percent from allocation layout alone, which would
    // drown the quantity under test. `baseline` is a transport whose
    // recorder is the constructor-default off handle, `disabled` an
    // explicitly attached off recorder (the attach must be free), and
    // `enabled` the live ring.
    let recorder = Recorder::new(knob("SB_RING", sb_observe::DEFAULT_RING_CAPACITY));
    // The enabled mode carries the cycle sampler too, so the ≤5% tax
    // gate bounds spans *and* sampling together — the full always-on
    // observability cost, not just the event writes. `SB_SAMPLE=0`
    // isolates the span-only tax when attributing a breach.
    if knob("SB_SAMPLE", 1) != 0 {
        recorder.enable_sampling(SamplerConfig {
            backend: name.to_string(),
            ..SamplerConfig::default()
        });
    }
    let modes: [Recorder; 3] = [Recorder::off(), Recorder::off(), recorder.clone()];
    let mut t = build_backend(ServingScenario::Kv, backend, 1);
    // Warm-up: populate caches, TLBs and lane allocations.
    drive(
        t.as_mut(),
        &mut ServingScenario::Kv.factory(),
        256,
        "warm call",
    );
    // Up to four passes keep the gate honest on busy shared hosts where
    // a single re-run still lands inside the same noise window.
    let within_budget = |cost: f64, base: f64| cost <= base * (1.0 + OVERHEAD_BUDGET);
    let [baseline_ns, disabled_ns, enabled_ns] = interleave(
        name,
        reps,
        4,
        false,
        |m| {
            t.attach_recorder(modes[m].clone());
            timed_calls(t.as_mut(), &mut ServingScenario::Kv.factory(), calls)
        },
        |ns| within_budget(ns[1], ns[0]) && within_budget(ns[2], ns[1]),
    )
    .ns;
    t.attach_recorder(recorder.clone());

    if !within_budget(disabled_ns, baseline_ns) {
        v.fail(format!(
            "{name}: disabled recorder costs {disabled_ns:.0} ns/call vs {baseline_ns:.0} baseline"
        ));
    }
    if !within_budget(enabled_ns, disabled_ns) {
        v.fail(format!(
            "{name}: enabled tracing costs {enabled_ns:.0} ns/call vs {disabled_ns:.0} disabled \
             (budget {:.0}%)",
            OVERHEAD_BUDGET * 100.0
        ));
    }

    // Phase attribution on a fresh, non-wrapping capture: the timed loop
    // overwrote the ring many times over, so profile a short run the
    // ring holds completely (a call emits at most ~12 events).
    recorder.clear();
    let profiled = (recorder.capacity() / 16).clamp(32, 512) as u64;
    drive(
        t.as_mut(),
        &mut ServingScenario::Kv.factory(),
        profiled,
        "profiled call",
    );
    let phases = phase_identity(name, &recorder, v);

    // A quiescent cell — a capture sized to fit its rings — must lose
    // nothing, export truncation included.
    if let Err(e) = lossless(&recorder) {
        v.fail(format!("{name}: quiescent {e}"));
    }
    let trace = chrome_trace(&recorder);
    let trace_valid = validate_json(&trace.json).is_ok() && !trace.truncated;
    if !trace_valid {
        v.fail(format!(
            "{name}: chrome trace export invalid or truncated ({} dropped)",
            trace.dropped
        ));
    }

    let prof = &phases.prof;
    TransportResult {
        name,
        baseline_ns,
        disabled_ns,
        enabled_ns,
        phases: Json::obj()
            .field("calls", prof.calls)
            .field(
                "end_to_end_cycles_per_call",
                prof.end_to_end as f64 / prof.calls.max(1) as f64,
            )
            .field("breakdown", phases.breakdown()),
        phase_ratio: phases.ratio,
        trace_events: trace.events,
        trace_valid,
        samples_taken: recorder.sample_stats().taken,
    }
}

fn main() {
    let calls = knob("SB_CALLS", 4_000) as u64;
    let reps = knob("SB_REPS", 7) as u64;

    let mut rows = Vec::new();
    let mut json_rows = Vec::new();
    let mut v = Verdict::default();

    for (name, backend) in [
        ("skybridge", Backend::SkyBridge),
        ("sel4-trap", Backend::Trap(Personality::sel4())),
    ] {
        let r = run_transport(name, &backend, calls, reps, &mut v);
        rows.push(vec![
            r.name.to_string(),
            format!("{:.0}", r.baseline_ns),
            format!("{:.0}", r.disabled_ns),
            format!("{:.0}", r.enabled_ns),
            format!("{:+.1}%", (r.enabled_ns / r.disabled_ns - 1.0) * 100.0),
            format!("{:.1}%", r.phase_ratio * 100.0),
        ]);
        json_rows.push(
            Json::obj()
                .field("transport", r.name)
                .field("calls", calls)
                .field("reps", reps)
                .field("baseline_ns_per_call", r.baseline_ns)
                .field("disabled_ns_per_call", r.disabled_ns)
                .field("enabled_ns_per_call", r.enabled_ns)
                .field("enabled_overhead", r.enabled_ns / r.disabled_ns - 1.0)
                .field("disabled_overhead", r.disabled_ns / r.baseline_ns - 1.0)
                .field("phase_sum_over_end_to_end", r.phase_ratio)
                .field("trace_events", r.trace_events)
                .field("trace_valid_json", r.trace_valid)
                .field("samples_taken", r.samples_taken)
                .field("profile", r.phases),
        );
    }
    print_table(
        &format!("tracing tax ({calls} calls/rep, best of {reps})"),
        &[
            "transport",
            "baseline ns",
            "disabled ns",
            "enabled ns",
            "enabled tax",
            "phase cover",
        ],
        &rows,
    );

    // The metrics side of the exporter story: surface the simulated
    // PMU of one traced SkyBridge run through the registry.
    let mut sky = SkyBridgeTransport::new(1, &ServingScenario::Kv.service_spec());
    let pmu_rec = Recorder::new(1 << 14);
    pmu_rec.enable_sampling(SamplerConfig {
        backend: "skybridge".to_string(),
        ..SamplerConfig::default()
    });
    sky.attach_recorder(pmu_rec.clone());
    let mut reg = Registry::new();
    let before = {
        reg.record_pmu("cpu0", &sky.k.machine.cpu(0).pmu);
        reg.snapshot()
    };
    drive(
        &mut sky,
        &mut ServingScenario::Kv.factory(),
        256,
        "pmu run call",
    );
    reg.record_pmu("cpu0", &sky.k.machine.cpu(0).pmu);
    // Fold the trace-completeness ledger into the same snapshot: ring
    // and sampler loss counters plus the exporter's truncation flag,
    // so the results file carries a `trace_loss` section.
    reg.record_trace_loss(&pmu_rec);
    reg.record_export(&chrome_trace(&pmu_rec));
    let pmu = reg.snapshot().diff(&before);

    let doc = Json::obj()
        .field("bench", "trace_overhead")
        .field("overhead_budget", OVERHEAD_BUDGET)
        .field("phase_tolerance", sb_bench::harness::PHASE_TOLERANCE)
        .field("rows", Json::Arr(json_rows))
        .field("pmu_delta", snapshot_json(&pmu));
    v.write("trace_overhead", &doc);
    v.finish("tracing tax within budget; phases decompose end-to-end; exports valid");
}
