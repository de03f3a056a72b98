//! Serving-graph macro-benchmark: YCSB-A/B/C through the client →
//! gateway → cache → db → fs graph on all five IPC personalities, plus
//! the replay and power-loss drills the commit log buys.
//!
//! Four sections, all landing in `results/graph.json`:
//!
//! * **workloads** — open-loop throughput/latency per backend ×
//!   workload (YCSB-A 50/50, B 95/5, C read-only).
//! * **attribution** — per-hop critical-path attribution from the
//!   sentinel-assembled span trees of a traced run (no instrumentation
//!   added: the inner transports' recorders light up).
//! * **replay** — snapshot mid-run, replay `log.since(snapshot)`,
//!   compare disk digests. Divergence is a hard failure (exit 1).
//! * **chaos** — the power-loss matrix; a leaked fault or a recovered
//!   state diverging from the full-replay reference is a hard failure.
//!
//! A hard failure (or a traced request that does not assemble into one
//! connected tree) is recorded in the run's verdict: the JSON is written
//! with every row, then the bin exits 1.
//!
//! Knobs: `SB_GRAPH_OPS` (requests per workload cell, default 2000),
//! `SB_GRAPH_LANES` (server threads, default 2), `SB_GRAPH_RECORDS`
//! (table size, default 192), `SB_GRAPH_DRILL_OPS` (drill trace length,
//! default 160).

use sb_bench::harness::Verdict;
use sb_bench::{
    knob, print_table,
    report::{run_stats_json, Json},
};
use sb_graph::GraphSpec;
use sb_observe::Recorder;
use sb_runtime::{AdmissionPolicy, RuntimeConfig, Transport};
use sb_sentinel::assemble;
use sb_ycsb::WorkloadSpec;
use skybridge_repro::scenarios::graph::{
    build_graph, client_payload, drive_one, replay_drill, run_graph_chaos, run_graph_open_loop,
    DRILL_VALUE_LEN,
};
use skybridge_repro::scenarios::runtime::{ops_per_sec, Backend};

const CACHE_CAPACITY: usize = 32;
const CHAOS_SEEDS: [u64; 3] = [0xc0de_0001, 0xc0de_0002, 0xc0de_0003];

fn spec(records: usize) -> GraphSpec {
    GraphSpec::standard(records as u64, DRILL_VALUE_LEN, CACHE_CAPACITY)
}

/// Mean end-to-end service cycles of one graph request on a warm cell.
fn calibrate(backend: &Backend, spec: &GraphSpec) -> f64 {
    let mut t = build_graph(backend, spec, 1);
    let payload = client_payload(spec);
    let (warm, n) = (16u64, 48u64);
    for i in 0..warm {
        drive_one(&mut t, i + 1, i % spec.records, i % 2 == 0, payload);
    }
    let t0 = t.now(0);
    for i in 0..n {
        drive_one(
            &mut t,
            warm + i + 1,
            (i * 7) % spec.records,
            i % 2 == 0,
            payload,
        );
    }
    (t.now(0) - t0) as f64 / n as f64
}

type WorkloadCtor = fn(u64, usize) -> WorkloadSpec;

fn workload_sweep(records: usize, requests: u64, lanes: usize) -> (Vec<Json>, Vec<Vec<String>>) {
    let cfg = RuntimeConfig {
        queue_capacity: 64,
        policy: AdmissionPolicy::Shed,
        queue_deadline: None,
        ..RuntimeConfig::default()
    };
    let spec = spec(records);
    let workloads: [(&str, WorkloadCtor); 3] = [
        ("ycsb_a", WorkloadSpec::ycsb_a),
        ("ycsb_b", WorkloadSpec::ycsb_b),
        ("ycsb_c", WorkloadSpec::ycsb_c),
    ];
    let mut rows = Vec::new();
    let mut table = Vec::new();
    for backend in Backend::all() {
        // Offer ~70% of the calibrated capacity so queueing is visible
        // but the cell stays stable.
        let svc = calibrate(&backend, &spec);
        let mean_gap = svc / (lanes as f64 * 0.7);
        for (name, make) in workloads {
            let s = run_graph_open_loop(
                &backend,
                &spec,
                lanes,
                cfg.clone(),
                make(spec.records, spec.value_len),
                mean_gap,
                requests,
                0x6a_0001,
            );
            table.push(vec![
                backend.label().to_string(),
                name.to_string(),
                format!("{:.0}", ops_per_sec(&s)),
                format!("{}", s.p50()),
                format!("{}", s.p99()),
                format!("{}", s.shed()),
            ]);
            rows.push(
                run_stats_json(&s)
                    .field("backend", backend.label())
                    .field("workload", name)
                    .field("service_cycles", svc),
            );
        }
    }
    (rows, table)
}

/// Per-hop attribution from a traced run: drive a small fixed trace
/// with a live recorder, assemble the span forest, and attribute each
/// request's children in route order (gateway, cache, db) with
/// everything past the route being fs crossings made by the db's
/// pager I/O.
fn attribution(records: usize, v: &mut Verdict) -> (Vec<Json>, Vec<Vec<String>>) {
    let mut rows = Vec::new();
    let mut table = Vec::new();
    for backend in Backend::all() {
        let spec = spec(records);
        let mut t = build_graph(&backend, &spec, 1);
        let rec = Recorder::new(sb_observe::DEFAULT_RING_CAPACITY);
        t.attach_recorder(rec.clone());
        let hop_names = t.hop_names();
        let payload = client_payload(&spec);
        let traced = 32u64;
        for i in 0..traced {
            drive_one(&mut t, i + 1, (i * 5) % spec.records, i % 3 == 0, payload);
        }
        let forest = assemble(&rec);
        let mut per_hop: Vec<(String, u64, u64)> = hop_names
            .iter()
            .map(|n| (n.clone(), 0u64, 0u64))
            .chain(std::iter::once(("fs".to_string(), 0, 0)))
            .collect();
        let mut requests = 0u64;
        let mut path_total = 0u64;
        let mut end_to_end = 0u64;
        for corr in 1..=traced {
            let Some(tr) = forest.request(corr) else {
                continue;
            };
            if tr.roots.len() != 1 {
                v.fail(format!(
                    "{} corr {corr} assembled {} roots (want 1 connected tree)",
                    backend.label(),
                    tr.roots.len()
                ));
                continue;
            }
            requests += 1;
            end_to_end += tr.roots[0].dur;
            path_total += tr.critical_path_cycles();
            for (i, child) in tr.roots[0].children.iter().enumerate() {
                let slot = i.min(per_hop.len() - 1);
                per_hop[slot].1 += child.dur;
                per_hop[slot].2 += 1;
            }
        }
        if requests == 0 {
            v.fail(format!("{} traced run produced no spans", backend.label()));
            continue;
        }
        for (hop, cycles, crossings) in &per_hop {
            table.push(vec![
                backend.label().to_string(),
                hop.clone(),
                format!("{:.0}", *cycles as f64 / requests as f64),
                format!("{:.1}", *crossings as f64 / requests as f64),
            ]);
            rows.push(
                Json::obj()
                    .field("backend", backend.label())
                    .field("hop", hop.as_str())
                    .field("mean_cycles", *cycles as f64 / requests as f64)
                    .field("crossings_per_request", *crossings as f64 / requests as f64),
            );
        }
        rows.push(
            Json::obj()
                .field("backend", backend.label())
                .field("hop", "total")
                .field("mean_cycles", end_to_end as f64 / requests as f64)
                .field(
                    "critical_path_share",
                    path_total as f64 / end_to_end.max(1) as f64,
                ),
        );
    }
    (rows, table)
}

fn replay_section(ops: u64, v: &mut Verdict) -> Vec<Json> {
    let mut rows = Vec::new();
    for backend in Backend::all() {
        let d = replay_drill(&backend, ops, 0x5eed);
        if !d.ok() {
            v.fail(format!(
                "{} replay diverged: live {:#x} != replay {:#x} (caches match: {})",
                d.label, d.live_digest, d.replay_digest, d.cache_match
            ));
        }
        rows.push(
            Json::obj()
                .field("backend", d.label.as_str())
                .field("ops", d.ops)
                .field("snapshot_seq", d.snapshot_seq)
                .field("replayed", d.replayed)
                .field("disk_digest", format!("{:#018x}", d.live_digest))
                .field("log_digest", format!("{:#018x}", d.log_digest))
                .field("byte_identical", d.ok()),
        );
    }
    rows
}

fn chaos_section(ops: u64, v: &mut Verdict) -> Vec<Json> {
    let mut rows = Vec::new();
    let mut died_somewhere = false;
    for backend in Backend::all() {
        for seed in CHAOS_SEEDS {
            let o = run_graph_chaos(&backend, seed, ops);
            if !o.ok() {
                v.fail(format!(
                    "{} seed {seed:#x}: leaked {} faults, rows_match {}",
                    o.label, o.leaked, o.rows_match
                ));
            }
            died_somewhere |= o.died;
            rows.push(
                Json::obj()
                    .field("backend", o.label.as_str())
                    .field("seed", seed)
                    .field("ops_driven", o.ops)
                    .field("died", o.died)
                    .field("recovered_seq", o.recovered_seq)
                    .field("rolled_forward", o.rolled_forward)
                    .field("injected", o.injected)
                    .field("leaked", o.leaked)
                    .field("rows_match", o.rows_match),
            );
        }
    }
    if !died_somewhere {
        v.fail("no chaos seed ever cut the power — the matrix is vacuous");
    }
    rows
}

fn main() {
    let requests = knob("SB_GRAPH_OPS", 2000) as u64;
    let lanes = knob("SB_GRAPH_LANES", 2);
    let records = knob("SB_GRAPH_RECORDS", 192);
    let drill_ops = knob("SB_GRAPH_DRILL_OPS", 160) as u64;

    let mut v = Verdict::default();
    let (workload_rows, workload_table) = workload_sweep(records, requests, lanes);
    print_table(
        "YCSB over the serving graph (client → gateway → cache → db → fs)",
        &["backend", "workload", "ops/s", "p50", "p99", "shed"],
        &workload_table,
    );

    let (attr_rows, attr_table) = attribution(records, &mut v);
    print_table(
        "Per-hop attribution (sentinel-assembled span trees)",
        &["backend", "hop", "mean cycles", "crossings/req"],
        &attr_table,
    );

    let replay_rows = replay_section(drill_ops, &mut v);
    let chaos_rows = chaos_section(drill_ops, &mut v);
    let (replays, power_cuts) = (replay_rows.len(), chaos_rows.len());

    let doc = Json::obj()
        .field(
            "config",
            Json::obj()
                .field("requests", requests as u64)
                .field("lanes", lanes)
                .field("records", records)
                .field("drill_ops", drill_ops),
        )
        .field("workloads", workload_rows)
        .field("attribution", attr_rows)
        .field("replay", replay_rows)
        .field("chaos", chaos_rows);
    if !v.write("graph", &doc) {
        v.fail("could not write results/graph.json");
    }
    v.finish(&format!(
        "replay: {replays} cells byte-identical after snapshot + commit-log replay\n\
         chaos: {power_cuts} power-loss runs recovered with zero leaked faults"
    ));
}
