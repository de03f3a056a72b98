//! `ipc_call`: a closed loop, one client on one lane, making
//! back-to-back `Transport::call`s on all five personalities with the KV
//! service, Zipfian YCSB-A keys, and a seeded 64 B / 1 KiB / 4 KiB
//! payload mix.

use rand::{rngs::SmallRng, Rng, SeedableRng};
use sb_observe::Recorder;
use sb_runtime::{RequestFactory, ServiceSpec, Transport};
use sb_transport::{CallError, Request};
use sb_ycsb::WorkloadSpec;

use crate::host::{self, Chunk, Probe};
use crate::layers::{self, Phases};
use crate::plan::{
    chunk_ops, sub_seed, Pers, Sizes, Workload, KV_PAYLOAD, KV_RECORDS, PAYLOAD_MIX,
};
use crate::report::{percentile, ratio, Outcome};
use crate::timed::{Tally, TallyHandle, Timed};
use crate::{setups, Run};

/// Recorder ring capacity per lane (grows on demand).
const TRACE_EVENTS: usize = 1 << 20;

/// The request stream of `seed`: `n` YCSB-A requests with payloads
/// drawn from [`PAYLOAD_MIX`]. Ids and arrival stamps are set per call.
pub fn stream(seed: u64, n: usize) -> Vec<Request> {
    let mut spec = WorkloadSpec::ycsb_a(KV_RECORDS, KV_PAYLOAD);
    spec.seed = sub_seed(seed, 1);
    let mut f = RequestFactory::new(spec, KV_PAYLOAD);
    let mut rng = SmallRng::seed_from_u64(sub_seed(seed, 2));
    (0..n)
        .map(|_| {
            let mut r = f.make(0, None);
            let u: f64 = rng.gen();
            r.payload = PAYLOAD_MIX
                .iter()
                .find(|(share, _)| u < *share)
                .map_or(KV_PAYLOAD, |&(_, bytes)| bytes);
            r
        })
        .collect()
}

/// One personality's client: a one-lane transport and its call state.
pub struct Client {
    /// The personality.
    pub p: Pers,
    t: Box<dyn Transport>,
    tally: Option<TallyHandle>,
    recorder: Option<Recorder>,
    next_id: u64,
    cursor: usize,
}

impl Client {
    /// Builds `p`'s transport (wrapped in [`Timed`] when `traced`) and
    /// warms it by reading each of the first `warm_keys` keys once.
    pub fn new(p: Pers, traced: bool, warm_keys: u64) -> Self {
        let bare = p.build(&ServiceSpec::default(), 1);
        let (t, tally): (Box<dyn Transport>, _) = if traced {
            let timed = Timed::new(bare);
            let tally = timed.tally();
            (Box::new(timed), Some(tally))
        } else {
            (bare, None)
        };
        let mut c = Client {
            p,
            t,
            tally,
            recorder: None,
            next_id: 0,
            cursor: 0,
        };
        for key in 0..warm_keys {
            let r = Request {
                id: 0,
                arrival: 0,
                key,
                write: false,
                payload: KV_PAYLOAD,
                client: None,
                tenant: 0,
            };
            c.call(&r).expect("warm-up call");
        }
        if let Some(tally) = &c.tally {
            *tally.borrow_mut() = Tally::default();
        }
        c
    }

    /// Switches the recorder on for this client's transport.
    pub fn trace(&mut self) {
        let rec = Recorder::new(TRACE_EVENTS);
        self.t.attach_recorder(rec.clone());
        self.recorder = Some(rec);
    }

    /// One call of `template`, stamped with the next id and the lane's
    /// current clock as its arrival.
    pub fn call(&mut self, template: &Request) -> Result<usize, CallError> {
        self.next_id += 1;
        let req = Request {
            id: self.next_id,
            arrival: self.t.now(0),
            ..template.clone()
        };
        self.t.call(0, &req)
    }

    /// The lane's simulated clock.
    pub fn now(&mut self) -> u64 {
        self.t.now(0)
    }

    /// The last reply.
    pub fn reply(&self) -> &[u8] {
        self.t.reply(0)
    }

    /// Times `n` calls continuing round the stream: (host ns, failures).
    fn chunk(&mut self, stream: &[Request], n: usize) -> (u64, u64) {
        let mut failed = 0;
        let (ns, ()) = host::timed(|| {
            for _ in 0..n {
                let r = &stream[self.cursor];
                self.cursor = (self.cursor + 1) % stream.len();
                failed += self.call(r).is_err() as u64;
            }
        });
        if let Some(rec) = &self.recorder {
            rec.take_lane_events();
        }
        (ns, failed)
    }
}

/// One personality's pass over the stream on the simulated clock.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Leg {
    /// Issue-to-reply cycles of each call.
    pub latencies: Vec<u64>,
    /// FNV-1a digest of every reply, in order.
    pub digest: u64,
    /// Calls that returned an error.
    pub failed: u64,
}

/// Serves the whole stream once on `c`.
pub fn leg(c: &mut Client, stream: &[Request]) -> Leg {
    let mut leg = Leg {
        latencies: Vec::with_capacity(stream.len()),
        digest: 0xcbf2_9ce4_8422_2325,
        failed: 0,
    };
    for r in stream {
        let c0 = c.now();
        let ok = c.call(r).is_ok();
        leg.latencies.push(c.now() - c0);
        let bytes: &[u8] = if ok { c.reply() } else { b"error" };
        leg.failed += !ok as u64;
        for &b in bytes {
            leg.digest = (leg.digest ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }
    leg
}

/// Adds `legs` to the op counts and checks that every personality
/// answered the stream with the same bytes.
fn check_legs(out: &mut Outcome, legs: &[(Pers, Leg)]) {
    let (p0, first) = &legs[0];
    for (p, leg) in legs {
        out.attempted += leg.latencies.len() as u64;
        out.failed += leg.failed;
        out.check(leg.digest == first.digest, || {
            format!(
                "{}: reply digest {:#x} differs from {}'s {:#x}",
                p.name(),
                leg.digest,
                p0.name(),
                first.digest
            )
        });
    }
}

/// Records the simulated-clock end-to-end metrics of `legs`.
fn emit_legs(out: &mut Outcome, legs: &[(Pers, Leg)]) {
    let (mut calls, mut ok) = (0, 0);
    for (p, leg) in legs {
        let n = leg.latencies.len() as u64;
        calls += n;
        ok += n - leg.failed;
        let total: u64 = leg.latencies.iter().sum();
        out.put(
            format!("sim_cycles_per_op.{}", p.name()),
            ratio(total as f64, n as f64),
            "cycles",
        );
        let mut sorted = leg.latencies.clone();
        sorted.sort_unstable();
        if *p == Pers::SkyBridge {
            out.put(
                "p50_cycles.skybridge",
                percentile(&sorted, 50.0) as f64,
                "cycles",
            );
        }
        if matches!(p, Pers::SkyBridge | Pers::Mpk | Pers::Sel4) {
            out.put(
                format!("p99_cycles.{}", p.name()),
                percentile(&sorted, 99.0) as f64,
                "cycles",
            );
        }
    }
    out.put("goodput_ratio", ratio(ok as f64, calls as f64), "1");
}

/// Times one chunk on each client, in the clients' current order.
fn chunks(
    out: &mut Outcome,
    clients: &mut [Client],
    stream: &[Request],
    sizes: &Sizes,
) -> Vec<Chunk> {
    let mut v = Vec::new();
    for c in clients.iter_mut() {
        let n = chunk_ops(Workload::IpcCall, c.p, sizes);
        let (ns, failed) = c.chunk(stream, n);
        out.attempted += n as u64;
        out.failed += failed;
        v.push(Chunk {
            name: c.p.series(),
            ns,
            ops: n as u64 - failed,
        });
    }
    v
}

/// Runs `ipc_call`.
pub fn run(r: &Run) -> Outcome {
    let mut out = Outcome::default();
    let build = |traced| {
        let warm = r.sizes.warm_keys;
        Pers::ALL.map(|p| Client::new(p, traced, warm))
    };
    let mut probe = Probe::default();
    let n_setups = if r.trace { 1 } else { r.sizes.setups };
    let (setup_s, mut clients) = setups(n_setups, || build(r.trace));
    let stream = stream(r.seed, r.sizes.ipc_stream);
    if !r.trace {
        out.put("setup_s", setup_s, "s");
        let legs: Vec<(Pers, Leg)> = clients.iter_mut().map(|c| (c.p, leg(c, &stream))).collect();
        check_legs(&mut out, &legs);
        emit_legs(&mut out, &legs);
        let host = host::rounds(&mut probe, r.budget, 3, |_| {
            clients.rotate_left(1);
            host::pooled(chunks(&mut out, &mut clients, &stream, &r.sizes))
        });
        for s in ["skybridge", "mpk", "trap"] {
            out.put(format!("host_ns_per_op.{s}"), host[s], "ns");
        }
        return out;
    }

    // Traced: the deterministic leg through the decorators with the
    // recorder on, then the ladder, then untraced-vs-traced rounds.
    let mut phases = Phases::default();
    let mut sum = Tally::default();
    let mut ops = 0;
    let mut legs = Vec::new();
    for c in clients.iter_mut() {
        c.trace();
        legs.push((c.p, leg(c, &stream)));
        let rec = c.recorder.as_ref().expect("traced");
        phases.fold(rec);
        out.check(rec.dropped() == 0, || {
            format!("{}: trace events lost", c.p.name())
        });
        let tally = c.tally.as_ref().expect("traced").borrow().clone();
        layers::emit_transport(&mut out, c.p, &tally, probe.scale());
        sum.absorb(&tally);
        ops += stream.len() as u64;
    }
    check_legs(&mut out, &legs);
    layers::emit_counts(&mut out, &sum, ops);
    phases.emit(&mut out, ops);
    let (gen_ns, _) = host::timed(|| crate::ipc::stream(r.seed, r.sizes.ipc_stream));
    out.put(
        "load.gen_ns_per_op",
        gen_ns as f64 / stream.len() as f64 * probe.scale(),
        "ns/op",
    );
    crate::ladder::run(&mut out, &mut probe, r.seed, r.sizes.chunk_div as u64);

    let mut bare = build(false);
    crate::trace_overhead(&mut out, &mut probe, r.budget, |out, traced, _| {
        let set = if traced { &mut clients } else { &mut bare };
        chunks(out, set, &stream, &r.sizes)
    });
    out
}
