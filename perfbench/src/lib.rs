//! The repository benchmark.
//!
//! Four workloads drive the system only through its public API and
//! report end-to-end metrics on two clocks — simulated cycles, which are
//! deterministic per seed, and host time, normalised by an interleaved
//! reference probe. A separate traced run per workload wraps every transport
//! it builds in the [`timed::Timed`] decorator, switches on the existing
//! recorder, and times each lower layer's public functions in isolation
//! ([`ladder`]). See `README.md` in this directory for the metric table
//! and the layer → metric → workload map.

pub mod graph;
pub mod host;
pub mod ipc;
pub mod ladder;
pub mod layers;
pub mod plan;
pub mod report;
pub mod serve;
pub mod timed;

use std::time::Duration;

use sb_runtime::{PoissonArrivals, RequestFactory, RunStats};

use crate::host::{Chunk, Probe};
use crate::plan::{Sizes, Workload};
use crate::report::{ratio, Outcome};

/// One benchmark invocation.
#[derive(Debug, Clone, Copy)]
pub struct Run {
    /// Seed every input is derived from.
    pub seed: u64,
    /// Host time the measurement rounds fill.
    pub budget: Duration,
    /// Traced run (per-layer metrics) instead of untraced (end-to-end).
    pub trace: bool,
    /// Run sizes.
    pub sizes: Sizes,
}

/// Runs workload `w`, returning its metrics and checks.
pub fn run(w: Workload, r: &Run) -> Outcome {
    let mut out = match w {
        Workload::IpcCall => ipc::run(r),
        Workload::ServeDirect => serve::run(r, false),
        Workload::ServeRing => serve::run(r, true),
        Workload::GraphYcsb => graph::run(r),
    };
    let catalogue = if r.trace {
        layers::per_layer()
    } else {
        layers::end_to_end()
    };
    if r.trace {
        layers::fill_absent(&mut out, &catalogue);
    } else {
        out.put("peak_rss_mb", host::peak_rss_mb(), "MiB");
    }
    let printed: Vec<(String, &str)> = out
        .metrics
        .iter()
        .map(|(n, (_, u))| (n.clone(), *u))
        .collect();
    let mut expected = catalogue;
    expected.sort();
    out.check(printed == expected, || {
        format!("metric set differs from the catalogue: {printed:?}")
    });
    out
}

/// Median of `n` set-ups: builds with `build` `n` times, returning the
/// median host seconds and the last build.
pub fn setups<T>(n: usize, mut build: impl FnMut() -> T) -> (f64, T) {
    let mut secs = Vec::with_capacity(n);
    let mut last = None;
    for _ in 0..n.max(1) {
        drop(last.take());
        let (ns, t) = host::timed(&mut build);
        secs.push(ns as f64 / 1e9);
        last = Some(t);
    }
    (host::median(&secs), last.expect("at least one set-up"))
}

/// Checks a serving run's ledger and adds it to the op counts:
/// `offered == completed + shed + timed_out + failed`, and every
/// tenant's slice balances and sums to the totals.
pub fn account(out: &mut Outcome, what: &str, s: &RunStats) {
    out.attempted += s.offered;
    out.failed += s.timed_out + s.failed;
    let balanced = s.offered == s.completed + s.shed() + s.timed_out + s.failed;
    out.check(balanced, || {
        format!(
            "{what}: offered {} != completed {} + shed {} + timed out {} + failed {}",
            s.offered,
            s.completed,
            s.shed(),
            s.timed_out,
            s.failed
        )
    });
    out.check(s.tenants_conserved(), || {
        format!("{what}: tenant ledgers do not balance")
    });
    out.check(s.completed > 0, || format!("{what}: nothing completed"));
}

/// Alternates untraced and traced host rounds until `budget` has
/// elapsed and records `trace_overhead`: traced ÷ untraced host ns per
/// op. `chunks(out, traced, round)` times one chunk per personality on
/// the bare or the traced set.
pub fn trace_overhead(
    out: &mut Outcome,
    probe: &mut Probe,
    budget: Duration,
    mut chunks: impl FnMut(&mut Outcome, bool, usize) -> Vec<Chunk>,
) {
    let ns = host::rounds(probe, budget, 3, |i| {
        let mut v = Vec::new();
        for (name, traced) in [("bare", false), ("traced", true)] {
            let mut c = chunks(out, traced, i);
            c.iter_mut().for_each(|c| c.name = name);
            v.extend(host::pooled(c));
        }
        v
    });
    out.put("trace_overhead", ratio(ns["traced"], ns["bare"]), "1");
}

/// Host ns the benchmark itself spends drawing `n` Poisson arrivals and
/// making their requests with `factory`.
pub fn generation_ns(mut factory: RequestFactory, mean_gap: f64, seed: u64, n: usize) -> u64 {
    let (ns, ()) = host::timed(|| {
        for t in PoissonArrivals::new(mean_gap, seed).take(n) {
            std::hint::black_box(factory.make(t, None));
        }
    });
    ns
}
