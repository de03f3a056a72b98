//! The benchmark's simulated clock is a function of the seed alone; the
//! offered rates and queue deadlines are frozen constants.

use std::time::Duration;

use perfbench::plan::{sub_seed, Pers, Sizes, Workload, DEADLINE_SERVICES, SERVE_LANES};
use perfbench::report::Outcome;
use perfbench::Run;
use sb_runtime::PoissonArrivals;

fn run(w: Workload, seed: u64, trace: bool) -> Outcome {
    let out = perfbench::run(
        w,
        &Run {
            seed,
            budget: Duration::ZERO,
            trace,
            sizes: Sizes::SMALL,
        },
    );
    assert!(out.correct(), "{}: {:?}", w.name(), out.violations);
    assert!(out.attempted > 0);
    out
}

/// The metrics read off the simulated clock (or counted): everything
/// but host times, set-up time, memory and the trace overhead ratio.
fn simulated(out: &Outcome) -> Vec<(String, u64)> {
    out.metrics
        .iter()
        .filter(|(name, (_, unit))| {
            !matches!(*unit, "ns" | "ns/op" | "s" | "MiB") && name.as_str() != "trace_overhead"
        })
        .map(|(name, (v, _))| (name.clone(), v.to_bits()))
        .collect()
}

#[test]
fn same_seed_gives_bit_identical_simulated_metrics() {
    for w in Workload::ALL {
        let a = simulated(&run(w, 5, false));
        let b = simulated(&run(w, 5, false));
        assert_eq!(a.len(), 10, "{}: {a:?}", w.name());
        assert_eq!(a, b, "{}: untraced", w.name());
    }
    let a = simulated(&run(Workload::ServeRing, 5, true));
    let b = simulated(&run(Workload::ServeRing, 5, true));
    assert_eq!(a, b, "serve_ring: traced");
}

#[test]
fn another_seed_changes_arrivals_and_still_conserves() {
    for w in [Workload::ServeDirect, Workload::GraphYcsb] {
        // `run` asserts every output check, conservation included.
        let a = run(w, 1, false);
        let b = run(w, 2, false);
        let p99 = |o: &Outcome| o.metrics["p99_cycles.skybridge"].0;
        assert_ne!(p99(&a), p99(&b), "{}: seeds 1 and 2 look alike", w.name());
    }
    let first = |seed| {
        PoissonArrivals::new(100.0, sub_seed(seed, 13))
            .take(4)
            .collect::<Vec<_>>()
    };
    assert_ne!(first(1), first(2));
}

#[test]
fn offered_rates_and_deadlines_are_frozen_constants() {
    // (personality, KV service cycles, graph service cycles)
    let frozen = [
        (Pers::SkyBridge, 674.0, 8_171.0),
        (Pers::Mpk, 327.0, 5_406.0),
        (Pers::Sel4, 2_952.0, 21_207.0),
        (Pers::Fiasco, 3_886.0, 26_754.0),
        (Pers::Zircon, 9_848.0, 62_190.0),
    ];
    for (p, kv, graph) in frozen {
        for (w, rho, svc) in [
            (Workload::ServeDirect, 0.9, kv),
            (Workload::ServeRing, 0.95, kv),
            (Workload::GraphYcsb, 0.7, graph),
        ] {
            let gap = svc / (SERVE_LANES as f64 * rho);
            assert_eq!(w.mean_gap(p), gap, "{} {}", w.name(), p.name());
            let deadline = (svc * DEADLINE_SERVICES) as u64;
            assert_eq!(w.queue_deadline(p), deadline);
            assert_eq!(w.runtime_config(p).queue_deadline, Some(deadline));
        }
    }
    // The arrival stream a run draws really has the frozen mean gap.
    let w = Workload::ServeDirect;
    let n = 200_000;
    let last = PoissonArrivals::new(w.mean_gap(Pers::SkyBridge), 3)
        .take(n)
        .last()
        .expect("arrivals");
    let mean = last as f64 / n as f64;
    assert!(
        (mean / w.mean_gap(Pers::SkyBridge) - 1.0).abs() < 0.01,
        "{mean}"
    );
}
