//! The sentinel tax and the perf trajectory: host ns per call with the
//! full sentinel armed (tracing + online SLO tracking) against plain
//! always-on tracing, plus the critical-path decomposition of multi-hop
//! chains, plus the committed ns/call baseline gate.
//!
//! Three sections, all CI-enforced:
//!
//! 1. **Overhead gate** — on one transport instance per personality,
//!    interleaved min-of-N ([`sb_bench::harness::interleave`], up to
//!    three passes): `sentinel` mode (live recorder plus per-call SLO
//!    recording, the production configuration) must cost at most 5%
//!    over `traced` mode, the live recorder alone.
//! 2. **Critical path** — a depth-3 chain per personality, assembled
//!    into span trees; the critical path must cover end-to-end cycles
//!    within 5% on every request.
//! 3. **Perf trajectory** — fresh sentinel-armed ns/call per
//!    personality is compared against the committed baseline at
//!    `results/BENCH_runtime.json` — the single canonical copy — and
//!    then written back to the same path (the baseline is read before
//!    the write; refreshing it means committing the rewritten file).
//!    Any personality regressing more than 10% on the harness's
//!    coherent two-signal test ([`sb_bench::harness::BaseRow::ratio`]:
//!    raw ns/call and ns/call over the host speed unit must regress
//!    together) fails the run, after up to two re-measurements. These
//!    run in a *fresh child process* (`SB_ONLY=<transport>` re-exec):
//!    the residual run-to-run variance is the address-space layout
//!    drawn at process start, which no amount of in-process repetition
//!    re-rolls. Simulated cycles per call ride along in the rows as
//!    the fully machine-independent signal.
//!
//! Knobs: `SB_CALLS` (timed calls per rep, default 3,000), `SB_REPS`
//! (repetitions per mode, default 5), `SB_BENCH_BASELINE` (baseline
//! path, default `results/BENCH_runtime.json`; set to `off` to skip
//! the gate).

use std::hint::black_box;
use std::time::Instant;

use sb_bench::harness::{drive, interleave, remeasure, sim_cycles, Baseline, MinOfN, Verdict};
use sb_bench::{knob, print_table, report::Json};
use sb_observe::Recorder;
use sb_runtime::Transport;
use sb_sentinel::{assemble, SloHandle, SloSpec};
use skybridge_repro::scenarios::runtime::{build_backend, Backend, ServingScenario};
use skybridge_repro::scenarios::sentinel::chain_for;

/// The sentinel's ns/call budget over plain tracing: 5% relative.
const SENTINEL_BUDGET: f64 = 0.05;
/// Tolerance on critical-path coverage of end-to-end cycles.
const PATH_TOLERANCE: f64 = 0.05;
/// The perf-trajectory gate: >10% ns/call over the committed baseline
/// fails.
const REGRESSION_BUDGET: f64 = 0.10;

/// One timed repetition. Both modes execute this exact function — one
/// call site, `inline(never)` — so they share machine code, loop shape,
/// alignment, and per-call `now()` reads, and the measured difference
/// is the sentinel's SLO recording and nothing else. (Letting the two
/// modes inline separately skews a ~1 µs SkyBridge call by >10% from
/// code layout alone.) With `slo: None` this is the `traced` mode;
/// with `Some` it is the full production path the dispatcher runs.
#[inline(never)]
fn rep(t: &mut dyn Transport, calls: u64, slo: Option<&SloHandle>) -> f64 {
    let mut f = ServingScenario::Kv.factory();
    let wall = Instant::now();
    for _ in 0..calls {
        let r = f.make(t.now(0), None);
        match t.call(0, &r) {
            Ok(_) => {
                let done = t.now(0);
                if let Some(s) = slo {
                    s.complete(done, done.saturating_sub(r.arrival));
                }
                black_box(done);
            }
            Err(_) => {
                if let Some(s) = slo {
                    s.error(t.now(0));
                }
            }
        }
        black_box(t.reply(0));
    }
    wall.elapsed().as_nanos() as f64 / calls as f64
}

struct BackendResult {
    label: String,
    traced_ns: f64,
    sentinel_ns: f64,
    /// `min(sentinel rep ns) / min(unit probe ns)` over the whole
    /// interleaved run — the host-speed-normalized cost the
    /// trajectory gate compares.
    units_per_call: f64,
    /// The best (quiet-window) unit probe, for the record.
    unit_ns: f64,
    cycles_per_call: f64,
    path_cover: f64,
    dominant: String,
}

fn run_backend(backend: &Backend, calls: u64, reps: u64, v: &mut Verdict) -> BackendResult {
    let label = backend.label().to_string();

    // Both modes run on ONE transport instance (separate instances
    // differ by several percent from allocation layout alone), with up
    // to three interleaved passes.
    let mut t = build_backend(ServingScenario::Kv, backend, 1);
    let recorder = Recorder::new(sb_observe::DEFAULT_RING_CAPACITY);
    t.attach_recorder(recorder.clone());
    let slo = SloHandle::new(SloSpec::default());
    // The KV store behind the service grows until the 10k keyspace is
    // fully populated; warming must ride past that point or the
    // first-timed mode runs against a smaller, faster store and the
    // comparison is unfair.
    let mut f = ServingScenario::Kv.factory();
    drive(t.as_mut(), &mut f, 25_000, "warm call");
    let MinOfN {
        ns: [traced_ns, sentinel_ns],
        unit_ns,
    } = interleave(
        &label,
        reps,
        3,
        true,
        |m| rep(t.as_mut(), calls, (m == 1).then_some(&slo)),
        |ns| ns[1] <= ns[0] * (1.0 + SENTINEL_BUDGET),
    );
    if sentinel_ns > traced_ns * (1.0 + SENTINEL_BUDGET) {
        v.fail(format!(
            "{label}: sentinel costs {sentinel_ns:.0} ns/call vs {traced_ns:.0} traced \
             (budget {:.0}%)",
            SENTINEL_BUDGET * 100.0
        ));
    }

    // The machine-independent signal: simulated cycles per call on a
    // deterministic run.
    let mut f = ServingScenario::Kv.factory();
    let cycles_per_call = sim_cycles(t.as_mut(), &mut f, 512, "cycle-count call");

    // Critical path on a fresh multi-hop chain: the assembled tree must
    // cover the client-observed end-to-end cycles on every request.
    let chain_rec = Recorder::new(sb_observe::DEFAULT_RING_CAPACITY);
    let run = chain_for(backend, 3, 8, &chain_rec);
    let forest = assemble(&chain_rec);
    let mut worst = 1.0f64;
    let mut dominant = String::from("-");
    for &(corr, end_to_end) in &run.requests {
        match forest.request(corr) {
            Some(tr) => {
                let cover = if end_to_end == 0 {
                    1.0
                } else {
                    tr.critical_path_cycles() as f64 / end_to_end as f64
                };
                if (cover - 1.0).abs() > (worst - 1.0).abs() {
                    worst = cover;
                }
                if let Some(step) = tr.dominant() {
                    dominant = format!("{} ({} cyc)", step.kind.name(), step.cycles);
                }
            }
            None => v.fail(format!("{label}: request {corr} missing from the forest")),
        }
    }
    if (worst - 1.0).abs() > PATH_TOLERANCE {
        v.fail(format!(
            "{label}: critical path covers {:.1}% of end-to-end cycles",
            worst * 100.0
        ));
    }

    BackendResult {
        label,
        traced_ns,
        sentinel_ns,
        units_per_call: sentinel_ns / unit_ns,
        unit_ns,
        cycles_per_call,
        path_cover: worst,
        dominant,
    }
}

/// Re-times one backend in a fresh child process (`SB_ONLY` mode).
/// Once the unit calibration has divided host speed out, the dominant
/// run-to-run variance left is the address-space layout drawn at
/// process start — re-rolled only by a re-exec, never by repeating
/// the measurement in-process.
fn remeasure_child(label: &str, calls: u64, reps: u64) -> Option<(f64, f64)> {
    let exe = std::env::current_exe().ok()?;
    let out = std::process::Command::new(exe)
        .env("SB_ONLY", label)
        .env("SB_CALLS", calls.to_string())
        .env("SB_REPS", reps.to_string())
        .output()
        .ok()?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let field = |key: &str| -> Option<f64> {
        let prefix = format!("{key}:");
        let line = stdout.lines().find(|l| l.starts_with(&prefix))?;
        line[prefix.len()..].trim().parse().ok()
    };
    Some((field("ns_per_call")?, field("units_per_call")?))
}

fn main() {
    let calls = knob("SB_CALLS", 3_000) as u64;
    let reps = knob("SB_REPS", 5) as u64;
    if let Ok(only) = std::env::var("SB_ONLY") {
        // Child re-measure mode: one backend under a freshly drawn
        // address-space layout; the parent parses the line below.
        let backend = Backend::all()
            .into_iter()
            .find(|b| b.label() == only)
            .unwrap_or_else(|| panic!("SB_ONLY={only}: unknown transport"));
        let r = run_backend(&backend, calls, reps, &mut Verdict::default());
        println!("ns_per_call:{}", r.sentinel_ns);
        println!("units_per_call:{}", r.units_per_call);
        return;
    }
    let baseline = Baseline::load();

    let mut rows = Vec::new();
    let mut json_rows = Vec::new();
    let mut bench_rows = Vec::new();
    let mut v = Verdict::default();

    for backend in Backend::all() {
        let r = run_backend(&backend, calls, reps, &mut v);
        // A breach of the trajectory gate earns fresh re-measurements in
        // child processes, minima carried over: an unlucky layout draw
        // must not read as a code regression.
        let vs_baseline = baseline.row(&r.label).map(|base| {
            let (gate_ns, gate_units) = remeasure(
                (r.sentinel_ns, r.units_per_call),
                |&(ns, units)| base.ratio(ns, units) - 1.0 > REGRESSION_BUDGET,
                |(ns, units)| {
                    eprintln!(
                        "note: {}: baseline gate breached ({ns:.0} ns, {units:.0} units vs \
                         {:.0} ns, {:.0} units), re-measuring in a fresh process",
                        r.label, base.ns, base.units
                    );
                    let (ns2, units2) =
                        remeasure_child(&r.label, calls, reps).unwrap_or_else(|| {
                            // A host where re-exec is unavailable still gets
                            // an in-process retry for its burst-filtering
                            // value.
                            let again = run_backend(&backend, calls, reps, &mut Verdict::default());
                            (again.sentinel_ns, again.units_per_call)
                        });
                    (ns.min(ns2), units.min(units2))
                },
            );
            let ratio = base.ratio(gate_ns, gate_units) - 1.0;
            if ratio > REGRESSION_BUDGET {
                v.fail(format!(
                    "{}: {gate_ns:.0} ns/call and {gate_units:.0} units/call both \
                     regressed {:+.1}% over the committed {:.0} ns / {:.0} units \
                     (budget {:.0}%)",
                    r.label,
                    ratio * 100.0,
                    base.ns,
                    base.units,
                    REGRESSION_BUDGET * 100.0
                ));
            }
            ratio
        });
        rows.push(vec![
            r.label.clone(),
            format!("{:.0}", r.traced_ns),
            format!("{:.0}", r.sentinel_ns),
            format!("{:+.1}%", (r.sentinel_ns / r.traced_ns - 1.0) * 100.0),
            format!("{:.0}", r.cycles_per_call),
            format!("{:.1}%", r.path_cover * 100.0),
            vs_baseline.map_or("-".to_string(), |d| format!("{:+.1}%", d * 100.0)),
        ]);
        json_rows.push(
            Json::obj()
                .field("transport", r.label.as_str())
                .field("traced_ns_per_call", r.traced_ns)
                .field("sentinel_ns_per_call", r.sentinel_ns)
                .field("sentinel_overhead", r.sentinel_ns / r.traced_ns - 1.0)
                .field("cycles_per_call", r.cycles_per_call)
                .field("critical_path_cover", r.path_cover)
                .field("dominant_step", r.dominant.as_str()),
        );
        bench_rows.push(
            Json::obj()
                .field("transport", r.label.as_str())
                .field("ns_per_call", r.sentinel_ns)
                .field("units_per_call", r.units_per_call)
                .field("host_unit_ns", r.unit_ns)
                .field("cycles_per_call", r.cycles_per_call),
        );
    }
    print_table(
        &format!("sentinel tax ({calls} calls/rep, best of {reps})"),
        &[
            "transport",
            "traced ns",
            "sentinel ns",
            "sentinel tax",
            "sim cyc/call",
            "path cover",
            "vs baseline",
        ],
        &rows,
    );
    baseline.note_if_missing("regression gate skipped");

    let doc = Json::obj()
        .field("bench", "sentinel")
        .field("sentinel_budget", SENTINEL_BUDGET)
        .field("path_tolerance", PATH_TOLERANCE)
        .field("regression_budget", REGRESSION_BUDGET)
        .field("rows", Json::Arr(json_rows));
    v.write("sentinel", &doc);
    let bench_doc = Json::obj()
        .field("bench", "runtime_baseline")
        .field("calls", calls)
        .field("reps", reps)
        .field("rows", Json::Arr(bench_rows));
    v.write("BENCH_runtime", &bench_doc);
    v.finish("sentinel tax within budget; critical paths cover end-to-end; no regression");
}
