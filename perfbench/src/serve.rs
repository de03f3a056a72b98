//! `serve_direct` and `serve_ring`: open-loop Poisson arrivals from
//! eight Zipf-skewed tenants into the direct dispatcher
//! ([`ServerRuntime`]) or the ring pump ([`RingRuntime`] over
//! [`RingTransport`], batch budget 8), two lanes, Shed admission and a
//! frozen queue deadline, on every personality.

use sb_observe::Recorder;
use sb_runtime::{
    PoissonArrivals, RequestFactory, RingRuntime, RingTransport, RunStats, RuntimeConfig,
    ServerRuntime, ServiceSpec, Transport,
};
use sb_transport::Request;
use sb_ycsb::WorkloadSpec;

use crate::host::{self, Chunk, Probe};
use crate::layers::{self, Phases};
use crate::plan::{
    chunk_ops, sub_seed, Pers, Sizes, Workload, KV_PAYLOAD, KV_RECORDS, RING, SERVE_LANES, TENANTS,
};
use crate::report::{jain, ratio, Outcome};
use crate::timed::{Tally, TallyHandle, Timed};
use crate::{account, setups, Run};

/// Recorder ring capacity per lane (grows on demand).
const TRACE_EVENTS: usize = 1 << 22;

/// The transport a serving run drives.
pub enum Server {
    /// Direct dispatch: one call per request.
    Direct(Box<dyn Transport>),
    /// Ring mode: submission/completion rings with a batched doorbell.
    Ring(Box<RingTransport<Box<dyn Transport>>>),
}

impl Server {
    /// One open-loop run of `arrivals` through this server's dispatcher.
    pub fn run(
        &mut self,
        cfg: RuntimeConfig,
        arrivals: impl IntoIterator<Item = u64>,
        factory: &mut RequestFactory,
    ) -> RunStats {
        match self {
            Server::Direct(t) => {
                ServerRuntime::new(t.as_mut(), cfg).run_open_loop(arrivals, factory)
            }
            Server::Ring(r) => RingRuntime::new(r.as_mut(), cfg).run_open_loop(arrivals, factory),
        }
    }
}

/// Builds `p`'s two-lane KV transport, reads each of the first
/// `warm_keys` keys once (alternating lanes), and wraps it in [`Timed`]
/// when `traced`.
fn warm_transport(
    p: Pers,
    warm_keys: u64,
    traced: bool,
) -> (Box<dyn Transport>, Option<TallyHandle>) {
    let mut t = p.build(&ServiceSpec::default(), SERVE_LANES);
    for key in 0..warm_keys {
        let lane = (key % SERVE_LANES as u64) as usize;
        let r = Request {
            id: key + 1,
            arrival: t.now(lane),
            key,
            write: false,
            payload: KV_PAYLOAD,
            client: None,
            tenant: 0,
        };
        t.call(lane, &r).expect("warm-up call");
    }
    if traced {
        let timed = Timed::new(t);
        let tally = timed.tally();
        (Box::new(timed), Some(tally))
    } else {
        (t, None)
    }
}

/// One personality's serving state.
pub struct Site {
    /// The personality.
    pub p: Pers,
    server: Server,
    factory: RequestFactory,
    tally: Option<TallyHandle>,
    recorder: Option<Recorder>,
}

/// The request factory of `seed`: YCSB-A keys, eight Zipf-skewed tenants.
fn factory(seed: u64) -> RequestFactory {
    let mut spec = WorkloadSpec::ycsb_a(KV_RECORDS, KV_PAYLOAD);
    spec.seed = sub_seed(seed, 11);
    RequestFactory::with_zipf_tenants(spec, KV_PAYLOAD, TENANTS, sub_seed(seed, 12))
}

impl Site {
    fn new(w: Workload, p: Pers, seed: u64, sizes: &Sizes, traced: bool) -> Self {
        let (t, tally) = warm_transport(p, sizes.warm_keys, traced);
        let server = match w {
            Workload::ServeRing => Server::Ring(Box::new(RingTransport::new(t, RING))),
            _ => Server::Direct(t),
        };
        let recorder = traced.then(|| Recorder::new(TRACE_EVENTS));
        Site {
            p,
            server,
            factory: factory(seed),
            tally,
            recorder,
        }
    }

    /// One open-loop run of `n` arrivals drawn from `arrival_seed` at
    /// the workload's frozen rate, traced when the site is.
    fn serve(&mut self, w: Workload, n: usize, arrival_seed: u64) -> RunStats {
        let mut cfg = w.runtime_config(self.p);
        if let Some(rec) = &self.recorder {
            cfg.recorder = rec.clone();
        }
        let arrivals = PoissonArrivals::new(w.mean_gap(self.p), arrival_seed).take(n);
        self.server.run(cfg, arrivals, &mut self.factory)
    }
}

/// Builds every personality's site.
pub fn sites(w: Workload, r: &Run, traced: bool) -> Vec<Site> {
    Pers::ALL
        .into_iter()
        .map(|p| Site::new(w, p, r.seed, &r.sizes, traced))
        .collect()
}

/// What the simulated-clock end-to-end metrics keep of one window: one
/// personality's open-loop run in one of the leading host rounds.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    /// The personality.
    pub p: Pers,
    /// Lane-busy cycles.
    pub busy: u64,
    /// Requests offered.
    pub offered: u64,
    /// Requests completed.
    pub completed: u64,
    /// Median arrival-to-completion cycles.
    pub p50: u64,
    /// 99th-percentile arrival-to-completion cycles.
    pub p99: u64,
}

impl Window {
    /// Summarises `s`, run on `p`.
    pub fn of(p: Pers, s: &RunStats) -> Self {
        Window {
            p,
            busy: s.busy.iter().sum(),
            offered: s.offered,
            completed: s.completed,
            p50: s.p50(),
            p99: s.p99(),
        }
    }
}

/// The simulated-clock end-to-end metrics of the leading windows:
/// lane-busy cycles per completed op and goodput pooled over windows,
/// and each percentile as its mean over the personality's windows.
pub fn emit_windows(out: &mut Outcome, windows: &[Window]) {
    let (mut offered, mut completed) = (0, 0);
    for p in Pers::ALL {
        let mine: Vec<&Window> = windows.iter().filter(|w| w.p == p).collect();
        let sum = |f: fn(&Window) -> u64| mine.iter().map(|w| f(w)).sum::<u64>() as f64;
        let n = mine.len() as f64;
        offered += sum(|w| w.offered) as u64;
        completed += sum(|w| w.completed) as u64;
        out.put(
            format!("sim_cycles_per_op.{}", p.name()),
            ratio(sum(|w| w.busy), sum(|w| w.completed)),
            "cycles",
        );
        if p == Pers::SkyBridge {
            out.put("p50_cycles.skybridge", ratio(sum(|w| w.p50), n), "cycles");
        }
        if matches!(p, Pers::SkyBridge | Pers::Mpk | Pers::Sel4) {
            out.put(
                format!("p99_cycles.{}", p.name()),
                ratio(sum(|w| w.p99), n),
                "cycles",
            );
        }
    }
    out.put(
        "goodput_ratio",
        ratio(completed as f64, offered as f64),
        "1",
    );
}

/// The dispatcher-layer metrics of the deterministic leg.
pub fn emit_runtime(out: &mut Outcome, runs: &[(Pers, RunStats)]) {
    let (mut offered, mut completed, mut shed, mut retries) = (0, 0, 0, 0);
    let (mut depth, mut tenant_p99) = (0, 0);
    let (mut util, mut fair) = (Vec::new(), Vec::new());
    for (_, s) in runs {
        offered += s.offered;
        completed += s.completed;
        shed += s.shed();
        retries += s.retries;
        depth = depth.max(s.max_queue_depth);
        util.extend(s.utilization());
        let goodputs: Vec<f64> = s
            .tenants
            .values()
            .map(|t| ratio(t.completed as f64, t.offered as f64))
            .collect();
        fair.push(jain(&goodputs));
        tenant_p99 = s
            .tenants
            .values()
            .map(|t| t.p99())
            .fold(tenant_p99, u64::max);
    }
    let mean = |v: &[f64]| ratio(v.iter().sum(), v.len() as f64);
    out.put("runtime.max_queue_depth", depth as f64, "count");
    out.put("runtime.lane_utilization", mean(&util), "1");
    out.put(
        "runtime.shed_ratio",
        ratio(shed as f64, offered as f64),
        "1",
    );
    out.put(
        "runtime.retries_per_op",
        ratio(retries as f64, completed as f64),
        "1/op",
    );
    out.put("runtime.tenant_jain", mean(&fair), "1");
    out.put("runtime.tenant_p99_max_cycles", tenant_p99 as f64, "cycles");
}

/// Times one window on each site, in the sites' current order,
/// appending each window's summary to `windows`.
fn chunks(
    out: &mut Outcome,
    w: Workload,
    sites: &mut [Site],
    r: &Run,
    round: usize,
    windows: &mut Vec<Window>,
) -> Vec<Chunk> {
    let mut v = Vec::new();
    for site in sites.iter_mut() {
        let n = chunk_ops(w, site.p, &r.sizes);
        let seed = sub_seed(r.seed, 0x1000 + round as u64);
        let (ns, s) = host::timed(|| site.serve(w, n, seed));
        account(out, &format!("{} round {round}", site.p.name()), &s);
        if let Some(rec) = &site.recorder {
            rec.take_lane_events();
        }
        windows.push(Window::of(site.p, &s));
        v.push(Chunk {
            name: site.p.series(),
            ns,
            ops: s.completed,
        });
    }
    v
}

/// Runs `serve_direct` (`ring` false) or `serve_ring`.
pub fn run(r: &Run, ring: bool) -> Outcome {
    let w = if ring {
        Workload::ServeRing
    } else {
        Workload::ServeDirect
    };
    let mut out = Outcome::default();
    let mut probe = Probe::default();
    let n_setups = if r.trace { 1 } else { r.sizes.setups };
    let (setup_s, mut sites) = setups(n_setups, || sites(w, r, r.trace));
    let n = r.sizes.serve_arrivals;
    let arrival_seed = sub_seed(r.seed, 13);
    if !r.trace {
        out.put("setup_s", setup_s, "s");
        let mut windows = Vec::new();
        let host = host::rounds(&mut probe, r.budget, r.sizes.serve_windows, |i| {
            sites.rotate_left(1);
            let mut kept = Vec::new();
            let c = chunks(&mut out, w, &mut sites, r, i, &mut kept);
            if i < r.sizes.serve_windows {
                windows.append(&mut kept);
            }
            host::pooled(c)
        });
        emit_windows(&mut out, &windows);
        for s in ["skybridge", "mpk", "trap"] {
            out.put(format!("host_ns_per_op.{s}"), host[s], "ns");
        }
        return out;
    }

    // Traced: the deterministic leg through the decorators with the
    // recorder on.
    let mut phases = Phases::default();
    let (mut sum, mut runs) = (Tally::default(), Vec::new());
    let (mut wall_ns, mut completed) = (0u64, 0u64);
    for site in sites.iter_mut() {
        let (ns, s) = host::timed(|| site.serve(w, n, arrival_seed));
        account(&mut out, site.p.name(), &s);
        let rec = site.recorder.as_ref().expect("traced");
        phases.fold(rec);
        out.check(rec.dropped() == 0, || {
            format!("{}: trace events lost", site.p.name())
        });
        let tally = site.tally.as_ref().expect("traced").borrow().clone();
        layers::emit_transport(&mut out, site.p, &tally, probe.scale());
        wall_ns += ns;
        completed += s.completed;
        sum.absorb(&tally);
        runs.push((site.p, s));
    }
    emit_runtime(&mut out, &runs);
    layers::emit_counts(&mut out, &sum, completed);
    phases.emit(&mut out, completed);
    let outside =
        ratio(wall_ns.saturating_sub(sum.host_ns) as f64, completed as f64) * probe.scale();
    if ring {
        out.put("ring.pump_ns_per_op", outside, "ns/op");
        out.put(
            "ring.batch_mean",
            ratio(sum.entries as f64, sum.batches as f64),
            "1",
        );
        out.put(
            "ring.crossings_per_op",
            ratio((sum.calls + sum.batches) as f64, completed as f64),
            "1/op",
        );
    } else {
        out.put("runtime.dispatch_ns_per_op", outside, "ns/op");
    }
    let gen_ns = crate::generation_ns(
        factory(r.seed),
        w.mean_gap(Pers::SkyBridge),
        arrival_seed,
        n,
    );
    out.put(
        "load.gen_ns_per_op",
        gen_ns as f64 / n as f64 * probe.scale(),
        "ns/op",
    );
    crate::ladder::run(&mut out, &mut probe, r.seed, r.sizes.chunk_div as u64);

    let mut bare = self::sites(w, r, false);
    crate::trace_overhead(&mut out, &mut probe, r.budget, |out, traced, i| {
        let set = if traced { &mut sites } else { &mut bare };
        chunks(out, w, set, r, i, &mut Vec::new())
    });
    out
}
