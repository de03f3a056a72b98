//! The chaos sweep: seeds × fault mixes × IPC personalities, plus the
//! file-system crash cells and the flight-recorder drill.
//!
//! Every serving cell is one open-loop run with retry-with-backoff and
//! transport recovery enabled, faults injected per a seeded
//! `sb_faultplane::FaultMix`; the bin prints the per-cell fault ledger
//! (injected / detected / recovered / leaked) next to the serving
//! outcome, and writes everything to `results/chaos.json`. Cells run
//! with the sentinel armed: an unrecovered fault or SLO breach must
//! produce a postmortem bundle under `results/postmortem/`, and the
//! drill cell proves the recorder fires end-to-end by leaking a fault on
//! purpose. The process exits non-zero on any leak, on an incident
//! without a bundle, or on a drill bundle that fails schema validation.
//!
//! Knobs: `SB_CHAOS_SEEDS` (seeds per cell, default 3), `SB_REQUESTS`
//! (arrivals per serving cell, default 400), `SB_FS_SEEDS` (seeds per FS
//! mix, default 64).

use sb_bench::harness::Verdict;
use sb_bench::{
    knob, print_table,
    report::{chaos_outcome_json, fs_chaos_json, results_dir, Json},
};
use sb_sentinel::PostmortemSpec;
use skybridge_repro::scenarios::chaos::{
    fs_mixes, run_chaos_cell_watched, run_fs_chaos, run_postmortem_drill, serving_mixes,
};
use skybridge_repro::scenarios::runtime::Backend;

fn main() {
    let seeds = knob("SB_CHAOS_SEEDS", 3) as u64;
    let requests = knob("SB_REQUESTS", 400) as u64;
    let fs_seeds = knob("SB_FS_SEEDS", 64) as u64;
    let flight = PostmortemSpec::in_dir(results_dir().join("postmortem"));

    let mut json_rows: Vec<Json> = Vec::new();
    let mut leaked_total = 0u64;
    let mut incidents = 0u64;
    let mut missing_bundles = 0u64;

    for transport in Backend::all() {
        let mut rows = Vec::new();
        for mix in serving_mixes() {
            let mut row = vec![mix.name.to_string()];
            for s in 0..seeds {
                let seed = 0xc4a0_5000 + s;
                let out = run_chaos_cell_watched(&transport, seed, &mix, requests, &flight);
                assert!(
                    out.conserved(),
                    "{}/{}/{seed:#x}: conservation violated",
                    transport.label(),
                    mix.name
                );
                assert!(
                    out.trace_matches_ledger(),
                    "{}/{}/{seed:#x}: trace counters {:?} disagree with the ledger {}",
                    transport.label(),
                    mix.name,
                    out.trace,
                    out.report
                );
                leaked_total += out.report.leaked();
                // The sentinel contract: every incident gets a bundle.
                if out.report.unrecovered() > 0 || out.slo.breached() {
                    incidents += 1;
                    if out.postmortem.is_none() {
                        missing_bundles += 1;
                        eprintln!(
                            "MISSING BUNDLE: {}/{}/{seed:#x} tripped the sentinel \
                             but wrote no postmortem",
                            transport.label(),
                            mix.name
                        );
                    }
                }
                if let Some(r) = &out.postmortem {
                    println!(
                        "postmortem: {} ({} events, {} clipped, {} overwritten)",
                        r.path.display(),
                        r.included_events,
                        r.truncated_events,
                        r.ring_dropped
                    );
                }
                row.push(format!(
                    "inj={} rec={} leak={} done={} shed={} fail={} slo={}",
                    out.report.injected(),
                    out.report.recovered(),
                    out.report.leaked(),
                    out.stats.completed,
                    out.stats.shed(),
                    out.stats.failed,
                    if out.slo.breached() { "BREACH" } else { "ok" },
                ));
                json_rows.push(
                    chaos_outcome_json(&out, mix.name, seed).field("transport", transport.label()),
                );
            }
            rows.push(row);
        }
        let header: Vec<String> = std::iter::once("mix".to_string())
            .chain((0..seeds).map(|s| format!("seed {s}")))
            .collect();
        print_table(
            &format!("chaos on {} ({requests} requests/cell)", transport.label()),
            &header,
            &rows,
        );
    }

    let mut fs_rows = Vec::new();
    let mut fs_json: Vec<Json> = Vec::new();
    for mix in fs_mixes() {
        let (mut torn, mut lost, mut replays) = (0u64, 0u64, 0u64);
        let mut leaked = 0u64;
        for s in 0..fs_seeds {
            let out = run_fs_chaos(0xf5ee_0000 + s, &mix, 12);
            torn += out.torn_discarded as u64;
            lost += (out.committed < out.attempted) as u64;
            replays += (out.replayed > 0) as u64;
            leaked += out.report.leaked();
            fs_json.push(fs_chaos_json(&out, mix.name, 0xf5ee_0000 + s));
        }
        leaked_total += leaked;
        fs_rows.push(vec![
            mix.name.to_string(),
            format!("{fs_seeds}"),
            format!("{torn}"),
            format!("{lost}"),
            format!("{replays}"),
            format!("{leaked}"),
        ]);
    }
    print_table(
        "fs chaos (committed-prefix across remount)",
        &[
            "mix",
            "cells",
            "torn hdrs",
            "txns lost",
            "replays",
            "leaked",
        ],
        &fs_rows,
    );

    // The flight-recorder drill: leak a fault on purpose and demand a
    // schema-clean bundle. Its deliberate leak does not count against
    // the suite's zero-leak gate.
    let mut v = Verdict::default();
    let drill = run_postmortem_drill(&Backend::SkyBridge, 0xd811_0001, 120, &flight);
    let drill_json = match &drill.postmortem {
        Some(r) => {
            let body = std::fs::read_to_string(&r.path).map_err(|e| e.to_string());
            if let Err(e) = body.and_then(|b| sb_observe::validate_json(&b)) {
                v.fail(format!(
                    "drill bundle {} is not valid JSON: {e}",
                    r.path.display()
                ));
            }
            println!(
                "flight-recorder drill: {} ({} events, {} clipped, {} overwritten)",
                r.path.display(),
                r.included_events,
                r.truncated_events,
                r.ring_dropped
            );
            Json::obj()
                .field("path", r.path.display().to_string())
                .field("included_events", r.included_events)
                .field("truncated_events", r.truncated_events)
                .field("ring_dropped", r.ring_dropped)
        }
        None => {
            v.fail(format!(
                "the drill leaked {} fault(s) but the flight recorder wrote no bundle",
                drill.report.unrecovered()
            ));
            Json::Null
        }
    };
    if leaked_total > 0 {
        v.fail(format!(
            "{leaked_total} faults leaked (injected but never detected/recovered)"
        ));
    }
    if missing_bundles > 0 {
        v.fail(format!(
            "{missing_bundles} incident(s) fired without a postmortem bundle"
        ));
    }

    let doc = Json::obj()
        .field("bench", "chaos")
        .field("requests_per_cell", requests)
        .field("seeds_per_cell", seeds)
        .field("leaked_total", leaked_total)
        .field("incidents", incidents)
        .field("missing_bundles", missing_bundles)
        .field("drill", drill_json)
        .field("serving_cells", Json::Arr(json_rows))
        .field("fs_cells", Json::Arr(fs_json));
    v.write("chaos", &doc);
    v.finish(&format!(
        "all injected faults detected and recovered; zero leaks\n\
         sentinel: {incidents} incident(s), every one with a postmortem bundle"
    ));
}
