//! `graph_ycsb`: open-loop YCSB-A (50% reads, 50% updates, Zipfian)
//! through the gateway → cache → db → fs graph on every personality.
//! The table (4,096 records) is much larger than the cache tier (64
//! entries), so reads mostly take the cache-aside miss path and every
//! write goes through the db and its fs.

use sb_fs::RamDisk;
use sb_graph::{
    disk_digest, CellDisk, GraphCell, GraphSpec, GraphTransport, Snapshot, CELL_DISK_BLOCKS,
};
use sb_observe::Recorder;
use sb_runtime::{
    PoissonArrivals, RequestFactory, RunStats, ServerRuntime, ServiceSpec, Transport,
};
use sb_transport::Request;
use sb_ycsb::WorkloadSpec;

use crate::host::{self, Chunk, Probe};
use crate::layers::{self, Phases, HOPS};
use crate::plan::{
    chunk_ops, sub_seed, Pers, Workload, GRAPH_CACHE, GRAPH_RECORDS, GRAPH_VALUE, SERVE_LANES,
};
use crate::report::{ratio, Outcome};
use crate::serve::{emit_runtime, emit_windows, Window};
use crate::timed::{Tally, TallyHandle, Timed};
use crate::{account, setups, Run};

/// Recorder ring capacity per lane (grows on demand).
const TRACE_EVENTS: usize = 1 << 22;

/// Graph operations driven on lane 0 before timing.
const WARM_OPS: u64 = 256;

/// The graph every personality serves.
pub fn spec() -> GraphSpec {
    GraphSpec::standard(GRAPH_RECORDS, GRAPH_VALUE, GRAPH_CACHE)
}

/// A graph transport, bare or behind the decorator.
enum Graph {
    Bare(GraphTransport),
    Traced(Timed<GraphTransport>),
}

impl Graph {
    fn transport(&mut self) -> &mut dyn Transport {
        match self {
            Graph::Bare(g) => g,
            Graph::Traced(t) => t,
        }
    }

    fn graph(&mut self) -> &mut GraphTransport {
        match self {
            Graph::Bare(g) => g,
            Graph::Traced(t) => t.inner_mut(),
        }
    }
}

/// One personality's graph and its load.
pub struct Site {
    /// The personality.
    pub p: Pers,
    graph: Graph,
    factory: RequestFactory,
    /// Per-hop tallies in [`HOPS`] order, then the whole graph's.
    tallies: Vec<TallyHandle>,
    recorder: Option<Recorder>,
    /// The pre-run snapshot replay is checked from.
    before: Option<Snapshot>,
}

/// The request factory of `seed`.
fn factory(seed: u64) -> RequestFactory {
    let mut spec = WorkloadSpec::ycsb_a(GRAPH_RECORDS, GRAPH_VALUE);
    spec.seed = sub_seed(seed, 21);
    let payload = self::spec().nodes[0].payload;
    RequestFactory::new(spec, payload)
}

impl Site {
    /// Builds `p`'s graph — one inner transport per node, each wrapped in
    /// [`Timed`] when `traced` — loads the table, and warms the cell.
    pub fn new(p: Pers, seed: u64, traced: bool) -> Self {
        let spec = spec();
        let mut tallies = Vec::new();
        let transports: Vec<Box<dyn Transport>> = spec
            .nodes
            .iter()
            .map(|node| {
                let svc = ServiceSpec::default()
                    .with_records(spec.records)
                    .with_cpu(node.cpu)
                    .with_footprint(node.footprint);
                let t = p.build(&svc, SERVE_LANES);
                if !traced {
                    return t;
                }
                let timed = Timed::new(t);
                tallies.push(timed.tally());
                Box::new(timed) as Box<dyn Transport>
            })
            .collect();
        let disk = CellDisk::Ram(RamDisk::new(CELL_DISK_BLOCKS));
        let g = GraphTransport::assemble_on(
            format!("graph:{}", p.name()),
            &spec,
            transports,
            SERVE_LANES,
            disk,
        )
        .expect("the standard graph validates");
        let mut graph = if traced {
            let timed = Timed::new(g);
            tallies.push(timed.tally());
            Graph::Traced(timed)
        } else {
            Graph::Bare(g)
        };
        let t = graph.transport();
        for key in 0..WARM_OPS {
            let r = Request {
                id: key + 1,
                arrival: t.now(0),
                key,
                write: false,
                payload: spec.nodes[0].payload,
                client: None,
                tenant: 0,
            };
            t.call(0, &r).expect("warm-up graph call");
        }
        for tally in &tallies {
            *tally.borrow_mut() = Tally::default();
        }
        Site {
            p,
            graph,
            factory: factory(seed),
            tallies,
            recorder: traced.then(|| Recorder::new(TRACE_EVENTS)),
            before: None,
        }
    }

    fn serve(&mut self, n: usize, arrival_seed: u64) -> RunStats {
        let w = Workload::GraphYcsb;
        let mut cfg = w.runtime_config(self.p);
        if let Some(rec) = &self.recorder {
            cfg.recorder = rec.clone();
        }
        let arrivals = PoissonArrivals::new(w.mean_gap(self.p), arrival_seed).take(n);
        ServerRuntime::new(self.graph.transport(), cfg).run_open_loop(arrivals, &mut self.factory)
    }

    /// Takes the pre-run snapshot.
    fn snapshot(&mut self) {
        self.before = Some(self.graph.graph().snapshot());
    }

    /// Checks that replaying the commit log from the pre-run snapshot
    /// reproduces the live cell's disk and cache tier.
    fn check_replay(&mut self, out: &mut Outcome) {
        let before = self.before.take().expect("pre-run snapshot taken");
        let after = self.graph.graph().snapshot();
        let tail = self.graph.graph().cell().log.since(before.seq);
        let replica = GraphCell::replay(&before, tail, GRAPH_CACHE);
        let cache_match = replica.cache() == &after.cache;
        let replayed = disk_digest(replica.into_disk());
        let live = disk_digest(after.disk);
        out.check(replayed == live && cache_match, || {
            format!(
                "{}: replay of {} log entries diverged (disk {replayed:#x} vs {live:#x}, cache match {cache_match})",
                self.p.name(),
                tail.len()
            )
        });
    }
}

/// Builds every personality's site.
pub fn sites(r: &Run, traced: bool) -> Vec<Site> {
    Pers::ALL
        .into_iter()
        .map(|p| Site::new(p, r.seed, traced))
        .collect()
}

/// Times one window on each site, in the sites' current order,
/// appending each window's summary to `windows`.
fn chunks(
    out: &mut Outcome,
    sites: &mut [Site],
    r: &Run,
    round: usize,
    windows: &mut Vec<Window>,
) -> Vec<Chunk> {
    let mut v = Vec::new();
    for site in sites.iter_mut() {
        let n = chunk_ops(Workload::GraphYcsb, site.p, &r.sizes);
        let seed = sub_seed(r.seed, 0x2000 + round as u64);
        let (ns, s) = host::timed(|| site.serve(n, seed));
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

/// Runs `graph_ycsb`.
pub fn run(r: &Run) -> Outcome {
    let mut out = Outcome::default();
    let mut probe = Probe::default();
    let n_setups = if r.trace { 1 } else { r.sizes.setups };
    let (setup_s, mut sites) = setups(n_setups, || sites(r, r.trace));
    let n = r.sizes.graph_arrivals;
    let arrival_seed = sub_seed(r.seed, 23);
    if !r.trace {
        out.put("setup_s", setup_s, "s");
        sites.iter_mut().for_each(Site::snapshot);
        let mut windows = Vec::new();
        let k = r.sizes.graph_windows;
        let host = host::rounds(&mut probe, r.budget, k, |i| {
            sites.rotate_left(1);
            let mut kept = Vec::new();
            let c = chunks(&mut out, &mut sites, r, i, &mut kept);
            if i < k {
                windows.append(&mut kept);
            }
            if i + 1 == k {
                sites.iter_mut().for_each(|s| s.check_replay(&mut out));
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
    let mut runs = Vec::new();
    let mut hops = vec![Tally::default(); HOPS.len()];
    let (mut outer, mut wall_ns, mut completed) = (Tally::default(), 0u64, 0u64);
    let (mut hits, mut reads) = (0, 0);
    for site in sites.iter_mut() {
        site.snapshot();
        let cell0 = site.graph.graph().cell().stats;
        let (ns, s) = host::timed(|| site.serve(n, arrival_seed));
        let cell1 = site.graph.graph().cell().stats;
        site.check_replay(&mut out);
        let (h, rd) = (cell1.hits - cell0.hits, cell1.reads - cell0.reads);
        account(&mut out, site.p.name(), &s);
        let rec = site.recorder.as_ref().expect("traced");
        phases.fold(rec);
        out.check(rec.dropped() == 0, || {
            format!("{}: trace events lost", site.p.name())
        });
        let mut personality = Tally::default();
        for (i, tally) in site.tallies[..HOPS.len()].iter().enumerate() {
            let t = tally.borrow();
            hops[i].absorb(&t);
            personality.absorb(&t);
        }
        layers::emit_transport(&mut out, site.p, &personality, probe.scale());
        outer.absorb(&site.tallies[HOPS.len()].borrow());
        wall_ns += ns;
        completed += s.completed;
        hits += h;
        reads += rd;
        runs.push((site.p, s));
    }
    let scale = probe.scale();
    let mut inner = Tally::default();
    for (hop, t) in HOPS.iter().zip(&hops) {
        let per = |x: u64| ratio(x as f64, completed as f64);
        out.put(
            format!("graph.hop_calls_per_op.{hop}"),
            per(t.entries),
            "1/op",
        );
        out.put(
            format!("graph.hop_ns_per_op.{hop}"),
            per(t.host_ns) * scale,
            "ns/op",
        );
        out.put(
            format!("graph.hop_cycles_per_op.{hop}"),
            per(t.cycles),
            "cycles/op",
        );
        inner.absorb(t);
    }
    let per_op = |ns: u64| ratio(ns as f64, completed as f64) * scale;
    out.put(
        "graph.cell_ns_per_op",
        per_op(outer.host_ns.saturating_sub(inner.host_ns)),
        "ns/op",
    );
    out.put(
        "runtime.dispatch_ns_per_op",
        per_op(wall_ns.saturating_sub(outer.host_ns)),
        "ns/op",
    );
    out.put(
        "graph.cache_hit_ratio",
        ratio(hits as f64, reads as f64),
        "1",
    );
    emit_runtime(&mut out, &runs);
    layers::emit_counts(&mut out, &inner, completed);
    phases.emit(&mut out, completed);
    let gap = Workload::GraphYcsb.mean_gap(Pers::SkyBridge);
    let gen_ns = crate::generation_ns(factory(r.seed), gap, arrival_seed, n);
    out.put(
        "load.gen_ns_per_op",
        gen_ns as f64 / n as f64 * scale,
        "ns/op",
    );
    crate::ladder::run(&mut out, &mut probe, r.seed, r.sizes.chunk_div as u64);

    let mut bare = self::sites(r, false);
    crate::trace_overhead(&mut out, &mut probe, r.budget, |out, traced, i| {
        let set = if traced { &mut sites } else { &mut bare };
        chunks(out, set, r, i, &mut Vec::new())
    });
    out
}
