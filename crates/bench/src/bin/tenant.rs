//! The tenant fabric sweep: fairness under production skew, and the
//! noisy-neighbor isolation gate.
//!
//! Two sections, both CI-enforced:
//!
//! 1. **Skew sweep** — tenant population ∈ {4, 64, 512} × arrival skew
//!    ∈ {uniform round-robin, scrambled-Zipfian} × every IPC
//!    personality, identical Poisson arrival streams at ρ ≈ 0.8, every
//!    tenant on the default contract (weight 1, 64-deep lane, shed).
//!    Each cell reports the busiest tenants' p99s and Jain's fairness
//!    index J = (Σx)²/(n·Σx²) over per-tenant completion ratios — J = 1
//!    is perfect fairness; the **fairness gate** requires J ≥ 0.95 on
//!    the uniform cells (equal offered load and equal weights must get
//!    equal service), and every cell must balance its per-tenant
//!    ledgers exactly ([`RunStats::tenants_conserved`]).
//! 2. **Noisy-neighbor gate** — the [`scenarios::tenant`] storm matrix
//!    across every personality × {direct, ring}: three victims run
//!    byte-identical streams solo and then against an aggressor
//!    offering 10× its contracted rate. The fabric must classify and
//!    quarantine the aggressor, and every victim's contended p99 must
//!    land within 10% (plus the service-quantization slack) of its solo
//!    p99 with zero SLO breach episodes. Any violated cell exits
//!    non-zero.
//!
//! Knobs: `SB_TENANT_REQUESTS` (arrivals per sweep cell, default
//! 4,000), `SB_TENANT_SEED` (stream seed, default 0x7e47).

use sb_bench::{
    knob, print_table,
    report::{run_stats_json, write_json, Json},
};
use sb_runtime::{
    AdmissionPolicy, PoissonArrivals, RequestFactory, RunStats, RuntimeConfig, ServerRuntime,
    TenantAction, TenantId, TenantRegistry, TenantSpec,
};
use skybridge_repro::scenarios::runtime::{
    build_backend, cycles_per_call, Backend, ServingScenario,
};
use skybridge_repro::scenarios::tenant::{run_noisy_neighbor, TenantOutcome};

/// The fairness gate: Jain's index on uniform cells must clear this.
const FAIRNESS_FLOOR: f64 = 0.95;
/// The isolation gate: victim contended p99 within 10% of solo.
const ISOLATION_HEADROOM: f64 = 1.10;
/// Offered load relative to the calibrated service rate.
const RHO: f64 = 0.8;
/// Tenant populations the sweep covers.
const TENANT_COUNTS: [u16; 3] = [4, 64, 512];
/// How many of the busiest tenants each cell prints.
const TOP_K: usize = 4;

/// Jain's fairness index over per-tenant completion ratios
/// (completed/offered). 1.0 means every tenant got the same fraction of
/// its offered load served; 1/n means one tenant got everything.
fn jain_index(stats: &RunStats) -> f64 {
    let ratios: Vec<f64> = stats
        .tenants
        .values()
        .filter(|t| t.offered > 0)
        .map(|t| t.completed as f64 / t.offered as f64)
        .collect();
    if ratios.is_empty() {
        return 1.0;
    }
    let sum: f64 = ratios.iter().sum();
    let sum_sq: f64 = ratios.iter().map(|x| x * x).sum();
    if sum_sq == 0.0 {
        return 1.0;
    }
    sum * sum / (ratios.len() as f64 * sum_sq)
}

/// Every tenant on the default contract, each with its own bounded lane.
fn sweep_registry() -> TenantRegistry {
    TenantRegistry::new(TenantSpec {
        weight: 1,
        queue_capacity: 64,
        policy: AdmissionPolicy::Shed,
        rate: None,
        slo: None,
    })
}

/// One skew-sweep cell: `requests` Poisson arrivals at ρ = [`RHO`]
/// against two lanes, tenants drawn uniform round-robin or Zipfian.
fn run_sweep_cell(
    backend: &Backend,
    tenants: u16,
    zipf: bool,
    gap: f64,
    requests: u64,
    seed: u64,
) -> RunStats {
    let scenario = ServingScenario::Kv;
    let mut factory = if zipf {
        RequestFactory::with_zipf_tenants(scenario.workload(), scenario.payload(), tenants, seed)
    } else {
        let schedule: Vec<TenantId> = (0..requests).map(|i| (i % tenants as u64) as u16).collect();
        RequestFactory::with_tenant_schedule(scenario.workload(), scenario.payload(), schedule)
    };
    let cfg = RuntimeConfig {
        tenants: Some(sweep_registry()),
        ..RuntimeConfig::default()
    };
    let mut transport = build_backend(scenario, backend, 2);
    let arrivals = PoissonArrivals::new(gap, seed).take(requests as usize);
    ServerRuntime::new(transport.as_mut(), cfg).run_open_loop(arrivals, &mut factory)
}

fn quarantine_count(out: &TenantOutcome) -> usize {
    out.actions
        .iter()
        .filter(|a| matches!(a, TenantAction::Quarantine { .. }))
        .count()
}

fn main() {
    let requests = knob("SB_TENANT_REQUESTS", 4_000) as u64;
    let seed = knob("SB_TENANT_SEED", 0x7e47) as u64;
    let mut failures: Vec<String> = Vec::new();

    // Section 1: the skew sweep.
    let mut rows = Vec::new();
    let mut sweep_json = Vec::new();
    for backend in Backend::all() {
        let gap = cycles_per_call(&backend) / RHO;
        for &tenants in &TENANT_COUNTS {
            for zipf in [false, true] {
                let skew = if zipf { "zipf" } else { "uniform" };
                let stats = run_sweep_cell(&backend, tenants, zipf, gap, requests, seed);
                let jain = jain_index(&stats);
                if !stats.tenants_conserved() {
                    failures.push(format!(
                        "{} {tenants} tenants {skew}: per-tenant ledgers do not balance",
                        backend.label()
                    ));
                }
                if !zipf && jain < FAIRNESS_FLOOR {
                    failures.push(format!(
                        "{} {tenants} tenants uniform: Jain index {jain:.4} below \
                         floor {FAIRNESS_FLOOR}",
                        backend.label()
                    ));
                }
                let top: Vec<String> = stats
                    .top_tenants(TOP_K)
                    .iter()
                    .map(|(id, t)| format!("t{id}:{}", t.p99()))
                    .collect();
                rows.push(vec![
                    backend.label().to_string(),
                    format!("{tenants}"),
                    skew.to_string(),
                    format!("{}", stats.completed),
                    format!("{}", stats.shed()),
                    format!("{}", stats.p99()),
                    format!("{jain:.4}"),
                    top.join(" "),
                ]);
                sweep_json.push(
                    run_stats_json(&stats)
                        .field("tenant_population", tenants as u64)
                        .field("skew", skew)
                        .field("jain_index", jain)
                        .field("mean_gap_cycles", gap),
                );
            }
        }
    }
    print_table(
        &format!("tenant skew sweep ({requests} arrivals/cell, 2 lanes, rho={RHO})"),
        &[
            "transport",
            "tenants",
            "skew",
            "completed",
            "shed",
            "p99",
            "jain",
            "busiest p99s",
        ],
        &rows,
    );

    // Section 2: the noisy-neighbor isolation matrix.
    let mut nn_rows = Vec::new();
    let mut nn_json = Vec::new();
    for backend in Backend::all() {
        for ring_mode in [false, true] {
            let out = run_noisy_neighbor(ServingScenario::Kv, &backend, ring_mode, seed);
            let isolated = out.isolated(ISOLATION_HEADROOM);
            let quarantined = out.aggressor_quarantined();
            if !out.solo.tenants_conserved() || !out.contended.tenants_conserved() {
                failures.push(format!(
                    "{} {}: noisy-neighbor ledgers do not balance",
                    out.backend, out.mode
                ));
            }
            if !quarantined {
                failures.push(format!(
                    "{} {}: storming aggressor was never quarantined",
                    out.backend, out.mode
                ));
            }
            if !isolated {
                failures.push(format!(
                    "{} {}: victim isolation breached (worst p99 ratio {:.3}, \
                     headroom {ISOLATION_HEADROOM}): {:?}",
                    out.backend,
                    out.mode,
                    out.worst_ratio(),
                    out.victims
                ));
            }
            let breaches: u64 = out.victims.iter().map(|v| v.breaches).sum();
            nn_rows.push(vec![
                out.backend.clone(),
                out.mode.to_string(),
                format!("{:.3}", out.worst_ratio()),
                format!("{breaches}"),
                format!("{}", out.contended.shed_rate_limit),
                format!("{}", quarantine_count(&out)),
                if isolated && quarantined {
                    "ok"
                } else {
                    "FAIL"
                }
                .to_string(),
            ]);
            let victims = out
                .victims
                .iter()
                .map(|v| {
                    Json::obj()
                        .field("tenant", v.tenant as u64)
                        .field("solo_p99", v.solo_p99)
                        .field("contended_p99", v.contended_p99)
                        .field("breaches", v.breaches)
                })
                .collect();
            nn_json.push(
                Json::obj()
                    .field("backend", out.backend.as_str())
                    .field("mode", out.mode)
                    .field("worst_p99_ratio", out.worst_ratio())
                    .field("aggressor_quarantined", quarantined)
                    .field("isolated", isolated)
                    .field("shed_rate_limit", out.contended.shed_rate_limit)
                    .field("victims", Json::Arr(victims))
                    .field("contended", run_stats_json(&out.contended))
                    .field("solo", run_stats_json(&out.solo)),
            );
        }
    }
    print_table(
        &format!("noisy neighbor: 3 victims vs one 10x storm (headroom {ISOLATION_HEADROOM})"),
        &[
            "transport",
            "mode",
            "worst ratio",
            "victim breaches",
            "rate shed",
            "quarantines",
            "verdict",
        ],
        &nn_rows,
    );

    let doc = Json::obj()
        .field("bench", "tenant")
        .field("requests", requests)
        .field("rho", RHO)
        .field("fairness_floor", FAIRNESS_FLOOR)
        .field("isolation_headroom", ISOLATION_HEADROOM)
        .field("sweep", Json::Arr(sweep_json))
        .field("noisy_neighbor", Json::Arr(nn_json));
    match write_json("tenant", &doc) {
        Ok(path) => println!("\nwrote {}", path.display()),
        Err(e) => eprintln!("\ncould not write results JSON: {e}"),
    }

    if !failures.is_empty() {
        for f in &failures {
            eprintln!("FAIL: {f}");
        }
        std::process::exit(1);
    }
    println!(
        "tenant gates hold: uniform Jain >= {FAIRNESS_FLOOR}, every noisy-neighbor cell \
         isolated within {ISOLATION_HEADROOM}x and the aggressor quarantined"
    );
}
