//! The sampling profiler's evaluation harness: five-way flamegraphs,
//! the sampled-vs-exact gate, and profile-diff regression attribution.
//!
//! One serving lane per IPC personality runs the KV workload with the
//! full observability stack on — span tracing plus the cycle sampler —
//! harvested in chunks the event ring holds completely, so the exact
//! [`PhaseProfile`] loses nothing no matter how long the run. Per
//! personality the bin then:
//!
//! 1. checks the capture was exact (zero ring overwrites, zero sample
//!    drops, zero poisoned or desynced stacks);
//! 2. gates the sampler against the exact profile: every in-call phase
//!    with at least 2% of self-time must be sampled within ±10%
//!    (relative) of its exact share;
//! 3. writes a collapsed-stack flamegraph
//!    (`results/flamegraphs/<backend>.collapsed`, the format
//!    `flamegraph.pl` and speedscope ingest) plus a per-tenant variant
//!    with the tenant as the root frame;
//! 4. diffs the per-phase cycle budget against
//!    `results/profile_baseline.json` in dual units — Δ cycles/call and
//!    relative percent (ns at the modeled 4 GHz are cycles/4) — and
//!    attributes any end-to-end movement to named phases.
//!
//! The diff gate is the regression-attribution contract: an end-to-end
//! regression beyond 1% whose residual (the part no named phase
//! explains) exceeds 5% of the baseline exits non-zero. A regression
//! that *is* attributed still prints its per-phase account but leaves
//! the verdict to the perf-trajectory gates; an unattributed one means
//! the instrumentation lost track of where cycles went, which is a bug
//! in its own right. Without a committed baseline the matrix runs
//! twice and diffs the second pass against the first (identical by
//! determinism — the mechanics stay exercised).
//!
//! Knobs: `SB_PROFILE_CALLS` (timed calls per personality, default
//! 65,536), `SB_PERIOD` (sample grid period, default
//! [`DEFAULT_SAMPLE_PERIOD`]), `SB_PROFILE_WRITE=1` rewrites
//! `results/profile_baseline.json` from this run.

use sb_bench::harness::{baseline_field, lossless, Verdict};
use sb_bench::report::{read_to_string, results_dir, write_raw, Json};
use sb_bench::{knob, print_table};
use sb_observe::{
    attribute, collapsed_lines, compare_shares, fold_samples, fold_samples_by_tenant, PhaseProfile,
    Recorder, Sample, SamplerConfig, ShareComparison, SpanKind, DEFAULT_RING_CAPACITY,
    DEFAULT_SAMPLE_PERIOD,
};
use sb_runtime::{RequestFactory, Transport};
use sb_ycsb::WorkloadSpec;
use skybridge_repro::scenarios::runtime::{build_backend, Backend, ServingScenario};

/// Phases below this exact self-time share are too small to gate.
const MIN_SHARE: f64 = 0.02;
/// Relative tolerance on sampled vs exact shares.
const SHARE_TOLERANCE: f64 = 0.10;
/// End-to-end movement below this fraction of the baseline is noise.
const REGRESSION_GATE: f64 = 0.01;
/// Largest unattributed share of a regression the gate tolerates.
const RESIDUAL_GATE: f64 = 0.05;
/// The modeled part runs at 4 GHz: ns = cycles / 4.
const CYCLES_PER_NS: f64 = 4.0;
/// Tenants in the profiled mix (Zipf-skewed, like the tenant bench).
const TENANTS: u16 = 4;

struct BackendProfile {
    label: String,
    prof: PhaseProfile,
    samples: Vec<Sample>,
    shares: Vec<ShareComparison>,
}

impl BackendProfile {
    fn e2e_per_call(&self) -> f64 {
        self.prof.end_to_end as f64 / self.prof.calls.max(1) as f64
    }
}

/// Profiles one personality exactly: chunked harvests sized so neither
/// the event ring nor the sample ring can wrap between drains.
fn profile_backend(backend: &Backend, calls: u64) -> Result<BackendProfile, String> {
    let label = backend.label().to_string();
    let mut t = build_backend(ServingScenario::Kv, backend, 1);
    let recorder = Recorder::new(knob("SB_RING", DEFAULT_RING_CAPACITY));
    recorder.enable_sampling(SamplerConfig {
        period: knob("SB_PERIOD", DEFAULT_SAMPLE_PERIOD as usize) as u64,
        backend: label.clone(),
        ..SamplerConfig::default()
    });
    t.attach_recorder(recorder.clone());

    let mut f = RequestFactory::with_zipf_tenants(WorkloadSpec::ycsb_a(10_000, 64), 64, TENANTS, 7);
    for _ in 0..256 {
        let r = f.make(t.now(0), None);
        t.call(0, &r)
            .map_err(|e| format!("{label}: warm call: {e:?}"))?;
    }
    recorder.clear();

    // A call emits at most ~12 events; a chunk of capacity/16 calls
    // keeps the ring under capacity with margin to spare.
    let chunk = (recorder.capacity() / 16).max(1) as u64;
    let mut prof = PhaseProfile::default();
    let mut samples: Vec<Sample> = Vec::new();
    let mut done = 0u64;
    while done < calls {
        let n = chunk.min(calls - done);
        for _ in 0..n {
            let r = f.make(t.now(0), None);
            t.call(0, &r).map_err(|e| format!("{label}: call: {e:?}"))?;
        }
        done += n;
        let by_lane = recorder.take_lane_events();
        prof.merge(&attribute(&by_lane));
        samples.extend(recorder.drain_samples());
    }

    // The capture must be exact: this bin sizes its chunks so the
    // rings never wrap between drains.
    lossless(&recorder).map_err(|e| format!("{label}: chunked {e}"))?;
    if prof.unmatched > 0 || prof.unclosed > 0 {
        return Err(format!(
            "{label}: malformed span stream ({} unmatched, {} unclosed)",
            prof.unmatched, prof.unclosed
        ));
    }

    let shares = compare_shares(&samples, &prof, MIN_SHARE, SHARE_TOLERANCE)
        .map_err(|e| format!("{label}: sampled shares diverge from exact: {e}"))?;

    Ok(BackendProfile {
        label,
        prof,
        samples,
        shares,
    })
}

/// One flat JSON row per personality, `baseline_field`-readable:
/// `"transport":"<label>"` then `e2e_cycles_per_call` and one
/// `phase_<name>_cycles_per_call` per observed phase.
fn profile_row(p: &BackendProfile) -> Json {
    let mut row = Json::obj()
        .field("transport", p.label.as_str())
        .field("calls", p.prof.calls)
        .field("e2e_cycles_per_call", p.e2e_per_call());
    for kind in SpanKind::ALL {
        if p.prof.get(kind) > 0 {
            row = row.field(
                &format!("phase_{}_cycles_per_call", kind.name()),
                p.prof.per_call(kind),
            );
        }
    }
    let shares: Vec<Json> = p
        .shares
        .iter()
        .map(|s| {
            Json::obj()
                .field("phase", s.phase)
                .field("exact_share", s.exact)
                .field("sampled_share", s.sampled)
        })
        .collect();
    row.field("samples", p.samples.len() as u64)
        .field("sampled_vs_exact", Json::Arr(shares))
}

/// One phase's movement against the baseline, in dual units.
struct PhaseDelta {
    name: &'static str,
    cycles: f64,
    pct: Option<f64>,
}

impl PhaseDelta {
    fn render(&self) -> String {
        match self.pct {
            Some(p) => format!("`{}` {:+.1}%", self.name, p),
            None => format!("`{}` new ({:+.1} cyc)", self.name, self.cycles),
        }
    }
}

struct BackendDiff {
    label: String,
    base_e2e: f64,
    cur_e2e: f64,
    deltas: Vec<PhaseDelta>,
    /// End-to-end movement no named phase explains.
    residual: f64,
    unattributed_regression: bool,
}

/// Diffs one personality's profile against the baseline document.
fn diff_backend(doc: &str, p: &BackendProfile) -> Option<BackendDiff> {
    let base_e2e = baseline_field(doc, &p.label, "e2e_cycles_per_call")?;
    let cur_e2e = p.e2e_per_call();
    let d_e2e = cur_e2e - base_e2e;
    let mut deltas = Vec::new();
    let mut attributed = 0.0;
    for kind in SpanKind::ALL {
        let field = format!("phase_{}_cycles_per_call", kind.name());
        let base = baseline_field(doc, &p.label, &field);
        let cur = if p.prof.get(kind) > 0 {
            Some(p.prof.per_call(kind))
        } else {
            None
        };
        let (b, c) = match (base, cur) {
            (None, None) => continue,
            (b, c) => (b.unwrap_or(0.0), c.unwrap_or(0.0)),
        };
        let d = c - b;
        // Wait phases overlap service and the doorbell is outside the
        // call: only in-call self-times add up to end-to-end.
        if !matches!(
            kind,
            SpanKind::QueueWait | SpanKind::Backoff | SpanKind::RingWait | SpanKind::Doorbell
        ) {
            attributed += d;
        }
        if d.abs() > 1e-9 {
            deltas.push(PhaseDelta {
                name: kind.name(),
                cycles: d,
                pct: (b > 0.0).then(|| (c / b - 1.0) * 100.0),
            });
        }
    }
    let residual = d_e2e - attributed;
    let unattributed_regression =
        d_e2e > base_e2e * REGRESSION_GATE && residual.abs() > base_e2e * RESIDUAL_GATE;
    Some(BackendDiff {
        label: p.label.clone(),
        base_e2e,
        cur_e2e,
        deltas,
        residual,
        unattributed_regression,
    })
}

fn diff_row(d: &BackendDiff) -> Json {
    let d_e2e = d.cur_e2e - d.base_e2e;
    let phases: Vec<Json> = d
        .deltas
        .iter()
        .map(|p| {
            Json::obj()
                .field("phase", p.name)
                .field("delta_cycles_per_call", p.cycles)
                .field("delta_ns_per_call", p.cycles / CYCLES_PER_NS)
                .field("delta_pct", p.pct.map(Json::Num).unwrap_or(Json::Null))
        })
        .collect();
    Json::obj()
        .field("transport", d.label.as_str())
        .field("baseline_e2e_cycles_per_call", d.base_e2e)
        .field("e2e_delta_cycles_per_call", d_e2e)
        .field("e2e_delta_ns_per_call", d_e2e / CYCLES_PER_NS)
        .field(
            "e2e_delta_pct",
            if d.base_e2e > 0.0 {
                Json::Num((d.cur_e2e / d.base_e2e - 1.0) * 100.0)
            } else {
                Json::Null
            },
        )
        .field("residual_cycles_per_call", d.residual)
        .field("unattributed_regression", d.unattributed_regression)
        .field("phases", Json::Arr(phases))
}

fn main() {
    let calls = knob("SB_PROFILE_CALLS", 65_536) as u64;
    let mut v = Verdict::default();

    let mut profiles = Vec::new();
    for backend in Backend::all() {
        match profile_backend(&backend, calls) {
            Ok(p) => profiles.push(p),
            Err(e) => v.fail(e),
        }
    }

    // The flamegraphs: one collapsed-stack file per personality, plus a
    // per-tenant variant rooted at the tenant.
    let mut gate_rows = Vec::new();
    for p in &profiles {
        let folds = fold_samples(&p.samples, &p.label);
        if let Err(e) = write_raw(
            &format!("flamegraphs/{}.collapsed", p.label),
            &collapsed_lines(&folds),
        ) {
            v.fail(format!("{}: could not write flamegraph: {e}", p.label));
        }
        let mut tenants = String::new();
        for (tenant, folds) in fold_samples_by_tenant(&p.samples, &p.label) {
            for (stack, count) in &folds {
                tenants.push_str(&format!("tenant{tenant};{stack} {count}\n"));
            }
        }
        if let Err(e) = write_raw(
            &format!("flamegraphs/{}.tenants.collapsed", p.label),
            &tenants,
        ) {
            v.fail(format!(
                "{}: could not write tenant flamegraph: {e}",
                p.label
            ));
        }
        let worst = p
            .shares
            .iter()
            .map(|s| (s.sampled / s.exact.max(1e-12) - 1.0).abs())
            .fold(0.0f64, f64::max);
        gate_rows.push(vec![
            p.label.clone(),
            format!("{:.0}", p.e2e_per_call()),
            format!("{}", p.samples.len()),
            format!("{}", p.shares.len()),
            format!("{:.1}%", worst * 100.0),
        ]);
    }
    print_table(
        &format!(
            "sampled-vs-exact gate ({calls} calls, ±{:.0}% on phases ≥{:.0}%)",
            SHARE_TOLERANCE * 100.0,
            MIN_SHARE * 100.0
        ),
        &[
            "transport",
            "e2e cyc/call",
            "samples",
            "phases gated",
            "worst err",
        ],
        &gate_rows,
    );

    let rows: Vec<Json> = profiles.iter().map(profile_row).collect();
    let rows_doc = Json::obj()
        .field("bench", "profile")
        .field("calls", calls)
        .field("rows", Json::Arr(rows.clone()));

    if knob("SB_PROFILE_WRITE", 0) != 0 && !v.write("profile_baseline", &rows_doc) {
        v.fail("could not write baseline");
    }

    // The diff: against the committed baseline when present, else a
    // deterministic second pass of the same matrix.
    let baseline = read_to_string(&results_dir().join("profile_baseline.json"))
        .ok()
        .or_else(|| {
            println!("\nno committed baseline; re-running the matrix for a self-diff");
            let rows: Vec<Json> = Backend::all()
                .iter()
                .filter_map(|b| profile_backend(b, calls).ok())
                .map(|p| profile_row(&p))
                .collect();
            Some(Json::obj().field("rows", Json::Arr(rows)).to_string())
        });

    let mut diffs = Vec::new();
    if let Some(doc) = &baseline {
        let mut diff_table = Vec::new();
        for p in &profiles {
            let Some(d) = diff_backend(doc, p) else {
                v.fail(format!("{}: no baseline row to diff against", p.label));
                continue;
            };
            let d_e2e = d.cur_e2e - d.base_e2e;
            let account = if d.deltas.is_empty() {
                "unchanged".to_string()
            } else {
                d.deltas
                    .iter()
                    .map(PhaseDelta::render)
                    .collect::<Vec<_>>()
                    .join(", ")
            };
            diff_table.push(vec![
                d.label.clone(),
                format!("{:+.1} cyc ({:+.1} ns)", d_e2e, d_e2e / CYCLES_PER_NS),
                format!(
                    "{:+.2}%",
                    if d.base_e2e > 0.0 {
                        (d.cur_e2e / d.base_e2e - 1.0) * 100.0
                    } else {
                        0.0
                    }
                ),
                format!("{:+.1} cyc", d.residual),
                account,
            ]);
            if d.unattributed_regression {
                v.fail(format!(
                    "{}: end-to-end regressed {:+.1} cycles/call but named phases explain \
                     only {:+.1} (residual {:+.1}, gate {:.0}% of baseline)",
                    d.label,
                    d_e2e,
                    d_e2e - d.residual,
                    d.residual,
                    RESIDUAL_GATE * 100.0
                ));
            }
            diffs.push(d);
        }
        print_table(
            "profile diff vs baseline (Δ per call; ns at 4 GHz)",
            &["transport", "e2e Δ", "e2e Δ%", "residual", "attribution"],
            &diff_table,
        );
    }

    let doc = rows_doc.field("diff", Json::Arr(diffs.iter().map(diff_row).collect()));
    v.write("profile", &doc);
    v.finish("sampled shares match exact profiles; every regression attributed");
}
