//! Serving-runtime scaling sweep: threads × offered load × IPC transport.
//!
//! For each of the five transports (seL4, Fiasco.OC, Zircon kernel IPC,
//! SkyBridge direct server calls, and MPK protection-key crossings) and
//! each worker-thread count (1/2/4/8 simulated cores), the sweep
//! calibrates the transport's base service time, then offers open-loop
//! Poisson load at multiples of the theoretical capacity
//! (ρ = offered / capacity) and records throughput, p50/p95/p99 latency,
//! shed counts, and per-core utilization. Results go to
//! `results/runtime_scaling.json`.
//!
//! A CI-enforced **five-way gate** closes the sweep: every personality's
//! traced phase self-times must decompose its end-to-end cycles (within
//! 5%, over a well-formed span stream — [`sb_bench::harness`]'s phase
//! identity), the trap kernels' calibrated service time must exceed
//! SkyBridge's, and MPK's must undercut it — two WRPKRU flips
//! (2 × 28 cycles) against a VMFUNC round trip (2 × 134). A breach
//! prints `FAIL:` lines and exits nonzero.
//!
//! Defaults simulate ~1.04M requests (80 cells × 13,000); `SB_REQUESTS`
//! scales the per-cell count.
//!
//! Set `SB_TRACE=1` (or `SB_TRACE=<backend label>`, e.g.
//! `SB_TRACE=fiasco`) to additionally run one traced cell with a live
//! recorder and dump `results/runtime_scaling_trace.json` — a Chrome
//! trace-event file: open <https://ui.perfetto.dev> and drag it in, or
//! load it at `chrome://tracing`.

use sb_bench::harness::{drive, phase_identity, sim_cycles, Verdict, PHASE_TOLERANCE};
use sb_bench::{
    knob, print_table,
    report::{run_stats_json, write_raw, Json},
};
use sb_observe::{chrome_trace, Recorder};
use sb_runtime::{AdmissionPolicy, RuntimeConfig, Transport};
use skybridge_repro::scenarios::runtime::{
    build_backend, ops_per_sec, run_open_loop, Backend, ServingScenario,
};

/// Mean service cycles of one request on `backend`'s warm lane.
fn calibrate(backend: &Backend) -> f64 {
    let mut t = build_backend(ServingScenario::Kv, backend, 1);
    let mut f = ServingScenario::Kv.factory();
    drive(t.as_mut(), &mut f, 64, "calibration call");
    sim_cycles(t.as_mut(), &mut f, 256, "calibration call")
}

/// `SB_TRACE` mode: one fully traced cell whose Chrome trace goes to
/// `results/traces/runtime_scaling_trace.json` for Perfetto (the
/// `traces/` subtree is scratch output and stays untracked; a small
/// checked-in sample lives at `results/sample_trace.json`). Uses a ring much
/// larger than the always-on default so a whole cell fits without
/// overwrites (and reports how many events were dropped if not).
fn dump_trace(which: &str, requests: u64, capacity: usize) {
    let which = which.to_ascii_lowercase();
    let backend = Backend::all()
        .into_iter()
        .find(|b| b.label().to_ascii_lowercase().starts_with(&which))
        .unwrap_or(Backend::SkyBridge);
    let recorder = Recorder::new(knob("SB_TRACE_RING", 1 << 15));
    let cfg = RuntimeConfig {
        queue_capacity: capacity,
        policy: AdmissionPolicy::Shed,
        queue_deadline: None,
        recorder: recorder.clone(),
        ..RuntimeConfig::default()
    };
    let svc = calibrate(&backend);
    let workers = 4;
    let traced = requests.min(2_000);
    let stats = run_open_loop(
        ServingScenario::Kv,
        &backend,
        workers,
        cfg,
        svc / (workers as f64 * 0.8),
        traced,
        0x7a_ced0_5eed,
    );
    let trace = chrome_trace(&recorder);
    match write_raw("traces/runtime_scaling_trace.json", &trace.json) {
        Ok(path) => {
            println!(
                "\ntraced kv/ycsb-a on {} ({} requests, {} events{}):\n  open https://ui.perfetto.dev and drag in {}",
                backend.label(),
                stats.completed,
                trace.events,
                if trace.truncated {
                    format!(", ring overwrote {} — raise SB_TRACE_RING", trace.dropped)
                } else {
                    String::new()
                },
                path.display()
            );
        }
        Err(e) => eprintln!("\ncould not write trace: {e}"),
    }
}

/// The five-way gate: every personality's traced phases must decompose
/// its end-to-end cycles, and the calibrated service times must order
/// the way the crossing costs say they should — each trap kernel above
/// SkyBridge, and MPK below it (two WRPKRU flips against a VMFUNC round
/// trip). `svcs` carries the (label, service cycles) pairs the sweep
/// calibrated; breaches land in `v`.
fn five_way_gate(svcs: &[(String, f64)], v: &mut Verdict) -> Json {
    let svc_of = |label: &str| svcs.iter().find(|(l, _)| l == label).map(|&(_, s)| s);
    let mut rows = Vec::new();
    for backend in Backend::all() {
        let recorder = Recorder::new(1 << 14);
        let mut t = build_backend(ServingScenario::Kv, &backend, 1);
        let mut f = ServingScenario::Kv.factory();
        drive(t.as_mut(), &mut f, 64, "warm call");
        t.attach_recorder(recorder.clone());
        drive(t.as_mut(), &mut f, 256, "traced call");
        let phases = phase_identity(backend.label(), &recorder, v);
        rows.push(
            Json::obj()
                .field("transport", backend.label())
                .field("service_cycles", svc_of(backend.label()).unwrap_or(0.0))
                .field("phase_sum_over_end_to_end", phases.ratio)
                .field("breakdown", phases.breakdown()),
        );
    }

    match (svc_of("skybridge"), svc_of("mpk")) {
        (Some(sky), Some(mpk)) => {
            if mpk >= sky {
                v.fail(format!(
                    "mpk: {mpk:.0} service cycles/call must undercut skybridge's {sky:.0} — \
                     two WRPKRU flips against a VMFUNC round trip"
                ));
            }
            for (label, svc) in svcs {
                if label != "skybridge" && label != "mpk" && *svc <= sky {
                    v.fail(format!(
                        "{label}: trap IPC at {svc:.0} cycles/call must cost more than \
                         skybridge's {sky:.0}"
                    ));
                }
            }
        }
        _ => v.fail("five-way gate: skybridge or mpk missing from the sweep"),
    }

    Json::obj()
        .field("phase_tolerance", PHASE_TOLERANCE)
        .field("rows", Json::Arr(rows))
}

fn main() {
    let requests = knob("SB_REQUESTS", 13_000) as u64;
    let capacity = knob("SB_QUEUE_CAPACITY", 64);
    let scenario = ServingScenario::Kv;
    let threads = [1usize, 2, 4, 8];
    let rhos = [0.5, 0.8, 1.0, 1.2, 1.5];
    let cells = Backend::all().len() * threads.len() * rhos.len();
    println!(
        "runtime_scaling: {} cells x {requests} requests = {} total simulated requests",
        cells,
        cells as u64 * requests
    );

    let mut json_rows: Vec<Json> = Vec::new();
    let mut svcs: Vec<(String, f64)> = Vec::new();
    for (ti, transport) in Backend::all().iter().enumerate() {
        let svc = calibrate(transport);
        svcs.push((transport.label().to_string(), svc));
        let mut rows = Vec::new();
        for (wi, &workers) in threads.iter().enumerate() {
            let mut row = vec![format!("{} threads", workers)];
            for (ri, &rho) in rhos.iter().enumerate() {
                let mean_ia = svc / (workers as f64 * rho);
                let cfg = RuntimeConfig {
                    queue_capacity: capacity,
                    policy: AdmissionPolicy::Shed,
                    queue_deadline: None,
                    ..RuntimeConfig::default()
                };
                let seed = 0x0005_ca1e_0000 + (ti * 1000 + wi * 100 + ri) as u64;
                let stats =
                    run_open_loop(scenario, transport, workers, cfg, mean_ia, requests, seed);
                row.push(format!(
                    "{:.1}/Mc p99={} shed={}",
                    stats.throughput_per_mcycle(),
                    stats.p99(),
                    stats.shed()
                ));
                json_rows.push(
                    Json::obj()
                        .field("transport", transport.label())
                        .field("workers", workers)
                        .field("rho", rho)
                        .field("service_cycles", svc)
                        .field("mean_inter_arrival", mean_ia)
                        .field("offered_per_mcycle", 1e6 / mean_ia)
                        .field("ops_per_sec", ops_per_sec(&stats))
                        .field("stats", run_stats_json(&stats)),
                );
            }
            rows.push(row);
        }
        print_table(
            &format!(
                "runtime scaling on {} (service ~{:.0} cycles) — throughput/Mcycle, p99 cycles, shed",
                transport.label(),
                svc
            ),
            &["workers", "rho=0.5", "rho=0.8", "rho=1.0", "rho=1.2", "rho=1.5"],
            &rows,
        );
    }

    let mut v = Verdict::default();
    let five_way = five_way_gate(&svcs, &mut v);
    let mut order = svcs.clone();
    order.sort_by(|a, b| a.1.total_cmp(&b.1));
    print_table(
        "five-way crossing comparison (calibrated service cycles/call, cheapest first)",
        &["transport", "service cycles"],
        &order
            .iter()
            .map(|(l, s)| vec![l.clone(), format!("{s:.0}")])
            .collect::<Vec<_>>(),
    );

    let doc = Json::obj()
        .field("bench", "runtime_scaling")
        .field("scenario", "kv")
        .field("workload", "ycsb-a")
        .field("requests_per_cell", requests)
        .field("queue_capacity", capacity)
        .field("five_way", five_way)
        .field("rows", Json::Arr(json_rows));
    v.write("runtime_scaling", &doc);
    println!(
        "\nShape to check: at every thread count SkyBridge's zero-shed\n\
         offered load sits above each trap-based kernel's with MPK's above\n\
         both, and p99 blows up past rho = 1.0 while the Shed policy\n\
         bounds queue depth."
    );

    if let Ok(which) = std::env::var("SB_TRACE") {
        dump_trace(&which, requests, capacity);
    }

    v.finish(
        "five-way gate holds: phases decompose on every personality; \
         traps > skybridge > mpk per crossing",
    );
}
