//! The `Transport` trait: one serving surface for every IPC personality.
//!
//! A [`Transport`] owns a set of *lanes* — per-server-thread connections,
//! each with its own shared buffer and its own simulated core clock
//! (§4.4's rule that connections bound concurrency). The dispatcher, the
//! retry/recovery machinery, the load generator, the chaos harness and
//! the differential suite are all generic over this trait, so the five
//! IPC personalities (SkyBridge direct server calls; seL4, Fiasco.OC and
//! Zircon kernel IPC; MPK protection-key crossings) differ only in how
//! `call` crosses the protection boundary — never in marshalling, buffer
//! handling or accounting. [`Lanes`] is the one home of that shared
//! envelope: the lane buffers, the copy meter, the `Call` span and the
//! reply-correlation check.

use sb_observe::{Recorder, SpanKind};
use sb_sim::Cycles;

use crate::wire::{CopyMeter, Lane, Request};

/// Why a call failed.
#[derive(Debug, Clone)]
pub enum CallError {
    /// The handler overran the per-call budget; carries the handler's
    /// elapsed simulated cycles.
    Timeout {
        /// Cycles the handler consumed before control was forced back.
        elapsed: Cycles,
    },
    /// Any other failure (fault, broken binding, kernel error).
    Failed(String),
    /// The reply left in the lane answers a *different* request: its
    /// wire-header correlation id does not match the outstanding call.
    /// Accepting it silently would hand one client another client's
    /// (or an earlier retry's) data, so the transport refuses instead.
    CorrMismatch {
        /// The outstanding request's id.
        expected: u64,
        /// The id stamped in the lane's reply header.
        got: u64,
    },
}

impl std::fmt::Display for CallError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CallError::Timeout { elapsed } => {
                write!(f, "call timed out after {elapsed} cycles")
            }
            CallError::Failed(why) => write!(f, "call failed: {why}"),
            CallError::CorrMismatch { expected, got } => write!(
                f,
                "reply correlation mismatch: expected {expected}, lane holds {got}"
            ),
        }
    }
}

/// Verifies that the reply sitting in `lane` answers request `corr`.
/// Every lane-buffered transport runs this at the tail of a successful
/// `call`; the helper lives here so the check (and its error shape) is
/// identical across personalities.
pub fn verify_reply_corr(lane: &Lane, corr: u64) -> Result<(), CallError> {
    match lane.reply_corr() {
        Some(got) if got == corr => Ok(()),
        Some(got) => Err(CallError::CorrMismatch {
            expected: corr,
            got,
        }),
        None => Err(CallError::Failed(
            "reply lane holds no parseable wire header".to_string(),
        )),
    }
}

/// The per-entry completion callback [`Transport::call_batch`] drives:
/// `(entry index, call outcome, reply bytes)` — the reply view is only
/// valid for the duration of the callback.
pub type BatchComplete<'a> = dyn FnMut(usize, Result<usize, CallError>, &[u8]) + 'a;

/// A serving transport: per-lane clocks plus the ability to execute one
/// call synchronously on one lane.
///
/// Lanes are indexed `0..lanes()`; each owns one simulated core, so
/// transport time only moves forward per lane and the dispatcher can
/// treat `now(lane)` as that lane's availability time.
pub trait Transport {
    /// Display label (personality).
    fn label(&self) -> &str;

    /// Number of serving lanes (worker connections).
    fn lanes(&self) -> usize;

    /// Lane `lane`'s current clock.
    fn now(&mut self, lane: usize) -> Cycles;

    /// Idles lane `lane` forward to at least `time`.
    fn wait_until(&mut self, lane: usize, time: Cycles);

    /// (Re-)establishes lane `lane`'s binding — rebind a dropped
    /// connection, respawn a dead endpoint. Returns whether anything was
    /// (re)bound; the default has nothing to bind.
    fn bind(&mut self, _lane: usize) -> bool {
        false
    }

    /// Executes one call to completion on `lane`: the request's wire
    /// image is placed in the lane's shared buffer exactly once, served
    /// in place, and the reply left in the caller-visible half. Advances
    /// the lane's clock by the full service time and returns the reply
    /// length.
    fn call(&mut self, lane: usize, req: &Request) -> Result<usize, CallError>;

    /// View of the last reply on `lane` — the caller-visible half of the
    /// lane's buffer. Valid until the next `call` on the same lane.
    fn reply(&self, lane: usize) -> &[u8];

    /// Serves a batch of requests on `lane`, invoking `complete` once
    /// per served entry — in order, with the entry index
    /// ([`BatchComplete`]), the call outcome, and a view of the reply
    /// bytes (empty on error; only valid for the duration of the
    /// callback).
    ///
    /// Returns the number of entries *consumed* from the front of
    /// `reqs`: `complete` is called exactly once for each of
    /// `0..consumed` and never for the rest, so a transport that aborts
    /// a batch mid-way (server death, forced timeout return) leaves the
    /// tail unserved for the caller to retry on a later crossing.
    ///
    /// The default serves each entry with its own [`Transport::call`] —
    /// one crossing per request, faults and accounting per entry —
    /// which keeps every personality (and fault decorators like
    /// `Faulty`) correct with zero extra work. Transports with a real
    /// batched crossing (SkyBridge's doorbell drain) override this to
    /// pay the boundary once per batch.
    fn call_batch(&mut self, lane: usize, reqs: &[Request], complete: &mut BatchComplete) -> usize {
        for (i, req) in reqs.iter().enumerate() {
            match self.call(lane, req) {
                Ok(n) => complete(i, Ok(n), self.reply(lane)),
                Err(e) => complete(i, Err(e), &[]),
            }
        }
        reqs.len()
    }

    /// Attempts to repair lane `lane`'s serving path after a
    /// [`CallError::Failed`] — revive a crashed server, then rebind. The
    /// default defers to [`Transport::bind`].
    fn recover(&mut self, lane: usize) -> bool {
        self.bind(lane)
    }

    /// Arms a "forgot to restore PKRU" bug on `lane`: the next domain
    /// crossing loads a stale rights value and the handler faults on its
    /// own records until [`Transport::recover`] re-arms the lane.
    /// Returns whether the transport actually has per-lane PKRU state to
    /// go stale — only the MPK personality does; the default cannot
    /// misbehave and returns `false`, so the chaos harness rescinds the
    /// injection.
    fn inject_pkru_stale(&mut self, _lane: usize) -> bool {
        false
    }

    /// Total bytes the transport's marshalling layer has physically
    /// copied since construction (the `transport_hotpath` bench's
    /// bytes-copied-per-call numerator).
    fn bytes_copied(&self) -> u64 {
        0
    }

    /// Hands the transport a [`Recorder`] to emit trace events into
    /// (lane `n` of the transport maps to recorder lane `n`). The
    /// default ignores it — a transport without instrumentation still
    /// satisfies the trait.
    fn attach_recorder(&mut self, _recorder: Recorder) {}

    /// Machine-wide PMU counters for the simulated cores underneath
    /// this transport, when it has real simulated hardware (the
    /// kernel-backed transports do; synthetic ones return `None`).
    /// Flight-recorder bundles attach this to postmortems.
    fn pmu(&self) -> Option<sb_sim::Pmu> {
        None
    }
}

/// Boxed transports forward every method — including overridden
/// `call_batch` fast paths — so `RingTransport<Box<dyn Transport>>`
/// and friends lose nothing to the indirection.
impl<T: Transport + ?Sized> Transport for Box<T> {
    fn label(&self) -> &str {
        (**self).label()
    }

    fn lanes(&self) -> usize {
        (**self).lanes()
    }

    fn now(&mut self, lane: usize) -> Cycles {
        (**self).now(lane)
    }

    fn wait_until(&mut self, lane: usize, time: Cycles) {
        (**self).wait_until(lane, time)
    }

    fn bind(&mut self, lane: usize) -> bool {
        (**self).bind(lane)
    }

    fn call(&mut self, lane: usize, req: &Request) -> Result<usize, CallError> {
        (**self).call(lane, req)
    }

    fn reply(&self, lane: usize) -> &[u8] {
        (**self).reply(lane)
    }

    fn call_batch(&mut self, lane: usize, reqs: &[Request], complete: &mut BatchComplete) -> usize {
        (**self).call_batch(lane, reqs, complete)
    }

    fn recover(&mut self, lane: usize) -> bool {
        (**self).recover(lane)
    }

    fn inject_pkru_stale(&mut self, lane: usize) -> bool {
        (**self).inject_pkru_stale(lane)
    }

    fn bytes_copied(&self) -> u64 {
        (**self).bytes_copied()
    }

    fn attach_recorder(&mut self, recorder: Recorder) {
        (**self).attach_recorder(recorder)
    }

    fn pmu(&self) -> Option<sb_sim::Pmu> {
        (**self).pmu()
    }
}

/// The call envelope every lane-buffered transport shares: one staging
/// [`Lane`] per serving lane, the [`CopyMeter`] over their marshalling,
/// the [`Recorder`] the `Call` span goes to, and a one-shot stale-reply
/// injection. A transport brackets its crossing with [`Lanes::open`]
/// and [`Lanes::close`]; everything in between is its own.
#[derive(Debug, Default)]
pub struct Lanes {
    lanes: Vec<Lane>,
    meter: CopyMeter,
    /// Trace sink for the `Call` span and the transport's interior
    /// phase spans.
    pub recorder: Recorder,
    poison: Option<(usize, u64)>,
}

impl Lanes {
    /// `n` empty lanes with tracing off.
    pub fn new(n: usize) -> Self {
        Lanes {
            lanes: (0..n).map(|_| Lane::new()).collect(),
            ..Lanes::default()
        }
    }

    /// Opens a call on `lane` at `now`: notes the request's tenant, then
    /// begins its `Call` span.
    pub fn open(&self, lane: usize, req: &Request, now: Cycles) {
        self.recorder.note_tenant(lane, req.tenant);
        self.recorder.begin(lane, SpanKind::Call, now, req.id);
    }

    /// Closes the call [`Lanes::open`] began: [`Lanes::seal`]s the
    /// outcome, then ends the `Call` span at `now`.
    pub fn close(
        &mut self,
        lane: usize,
        req: &Request,
        out: Result<usize, CallError>,
        now: Cycles,
    ) -> Result<usize, CallError> {
        let out = self.seal(lane, req.id, out);
        self.recorder.end(lane, SpanKind::Call, now, req.id);
        out
    }

    /// Applies a pending stale-reply injection on `lane`, then refuses a
    /// reply that answers a different request than `corr`. An error
    /// outcome passes through unchanged.
    pub fn seal(
        &mut self,
        lane: usize,
        corr: u64,
        out: Result<usize, CallError>,
    ) -> Result<usize, CallError> {
        if let Some((l, stale)) = self.poison {
            if l == lane {
                self.lanes[lane].set_reply_corr(stale);
                self.poison = None;
            }
        }
        out.and_then(|n| self.verify(lane, corr).map(|()| n))
    }

    /// Arranges for the *next* sealed reply on `lane` to carry `corr` in
    /// its header — the injection seam for proving the correlation check
    /// refuses a reply that answers a different request.
    pub fn poison_next_reply_corr(&mut self, lane: usize, corr: u64) {
        self.poison = Some((lane, corr));
    }

    /// Encodes `req` into `lane` — the call's one metered marshalling
    /// write — and returns the wire image. `deadline` travels in the
    /// header (0 = none).
    pub fn encode(&mut self, lane: usize, req: &Request, deadline: Cycles) -> &[u8] {
        self.lanes[lane].encode(req, deadline, &self.meter)
    }

    /// Copies a materialised (non-echo) reply into `lane`, metered, and
    /// returns its length.
    pub fn set_reply(&mut self, lane: usize, bytes: &[u8]) -> usize {
        self.meter.add(bytes.len());
        self.lanes[lane].set_reply(bytes);
        bytes.len()
    }

    /// The reply view of `lane` (the payload half of its buffer).
    pub fn reply(&self, lane: usize) -> &[u8] {
        self.lanes[lane].reply()
    }

    /// Total bytes metered across every lane.
    pub fn bytes_copied(&self) -> u64 {
        self.meter.total()
    }

    /// [`verify_reply_corr`] on `lane`.
    pub fn verify(&self, lane: usize, corr: u64) -> Result<(), CallError> {
        verify_reply_corr(&self.lanes[lane], corr)
    }
}

/// A synthetic transport with a constant service time and no kernel
/// underneath — deterministic, cheap, fast enough for property tests
/// over millions of arrivals.
#[derive(Debug, Default)]
pub struct FixedServiceTransport {
    clocks: Vec<Cycles>,
    lanes: Lanes,
    service: Cycles,
    label: String,
}

impl FixedServiceTransport {
    /// `lanes` parallel lanes, each serving any request in exactly
    /// `service` cycles.
    pub fn new(lanes: usize, service: Cycles) -> Self {
        assert!(lanes > 0, "at least one lane");
        FixedServiceTransport {
            clocks: vec![0; lanes],
            lanes: Lanes::new(lanes),
            service,
            label: format!("fixed:{service}"),
        }
    }
}

impl Transport for FixedServiceTransport {
    fn label(&self) -> &str {
        &self.label
    }

    fn lanes(&self) -> usize {
        self.clocks.len()
    }

    fn now(&mut self, lane: usize) -> Cycles {
        self.clocks[lane]
    }

    fn wait_until(&mut self, lane: usize, time: Cycles) {
        let c = &mut self.clocks[lane];
        *c = (*c).max(time);
    }

    fn call(&mut self, lane: usize, req: &Request) -> Result<usize, CallError> {
        let t0 = self.clocks[lane];
        self.lanes.recorder.note_tenant(lane, req.tenant);
        self.lanes.encode(lane, req, 0);
        self.clocks[lane] += self.service;
        self.lanes
            .recorder
            .span(lane, SpanKind::Call, t0, self.clocks[lane], req.id);
        self.lanes
            .seal(lane, req.id, Ok(self.lanes.reply(lane).len()))
    }

    fn reply(&self, lane: usize) -> &[u8] {
        self.lanes.reply(lane)
    }

    fn bytes_copied(&self) -> u64 {
        self.lanes.bytes_copied()
    }

    fn attach_recorder(&mut self, recorder: Recorder) {
        self.lanes.recorder = recorder;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(key: u64, write: bool, payload: usize) -> Request {
        Request {
            id: 0,
            arrival: 0,
            key,
            write,
            payload,
            client: None,
            tenant: 0,
        }
    }

    #[test]
    fn fixed_transport_advances_per_lane() {
        let mut t = FixedServiceTransport::new(2, 100);
        t.call(0, &req(0, false, 16)).unwrap();
        assert_eq!(t.now(0), 100);
        assert_eq!(t.now(1), 0);
        t.wait_until(1, 250);
        assert_eq!(t.now(1), 250);
        t.wait_until(1, 10); // Never moves backwards.
        assert_eq!(t.now(1), 250);
    }

    #[test]
    fn fixed_transport_replies_echo_in_place() {
        let mut t = FixedServiceTransport::new(1, 10);
        let r = req(0xfeed, true, 64);
        let n = t.call(0, &r).unwrap();
        assert_eq!(n, 64);
        assert_eq!(t.reply(0), r.encode());
        assert!(t.bytes_copied() > 0, "the single encode is metered");
    }

    #[test]
    fn stale_reply_is_refused_not_served() {
        let mut t = FixedServiceTransport::new(2, 10);
        let r = Request {
            id: 7,
            ..req(1, false, 16)
        };
        t.lanes.poison_next_reply_corr(0, 6);
        match t.call(0, &r) {
            Err(CallError::CorrMismatch { expected, got }) => {
                assert_eq!((expected, got), (7, 6));
            }
            other => panic!("stale reply must be refused, got {other:?}"),
        }
        // Poison is one-shot and lane-scoped: the same request succeeds
        // on the next attempt and the other lane was never affected.
        assert_eq!(t.call(0, &r).unwrap(), 16);
        assert_eq!(t.call(1, &r).unwrap(), 16);
    }

    fn lane_events(rec: &Recorder, lanes: usize) -> Vec<Vec<sb_observe::Event>> {
        (0..lanes).map(|l| rec.events(l)).collect()
    }

    #[test]
    fn close_pairs_the_call_span_on_every_outcome() {
        let mut lanes = Lanes::new(1);
        lanes.recorder = Recorder::new(64);
        let ok = Request {
            id: 1,
            ..req(3, false, 16)
        };
        lanes.open(0, &ok, 10);
        lanes.encode(0, &ok, 0);
        assert_eq!(lanes.close(0, &ok, Ok(16), 20).unwrap(), 16);
        let failed = Request {
            id: 2,
            ..ok.clone()
        };
        lanes.open(0, &failed, 20);
        let out = lanes.close(0, &failed, Err(CallError::Failed("fault".into())), 30);
        assert!(matches!(out, Err(CallError::Failed(_))));
        let profile = sb_observe::attribute(&lane_events(&lanes.recorder, 1));
        assert_eq!(profile.calls, 2, "both outcomes close their Call span");
        assert_eq!((profile.unmatched, profile.unclosed), (0, 0));
    }

    #[test]
    fn an_error_outcome_passes_through_the_corr_check() {
        let mut lanes = Lanes::new(1);
        let r = Request {
            id: 5,
            ..req(1, false, 16)
        };
        lanes.encode(0, &r, 0);
        // A poisoned header would fail the check on an `Ok`; a timeout
        // must still surface as the timeout, not as a corr mismatch.
        lanes.poison_next_reply_corr(0, 4);
        let out = lanes.seal(0, r.id, Err(CallError::Timeout { elapsed: 9 }));
        assert!(matches!(out, Err(CallError::Timeout { elapsed: 9 })));
    }

    #[test]
    fn poison_is_one_shot_and_scoped_to_one_lane() {
        let mut lanes = Lanes::new(2);
        let r = Request {
            id: 7,
            ..req(1, false, 16)
        };
        lanes.poison_next_reply_corr(1, 6);
        lanes.encode(0, &r, 0);
        assert_eq!(lanes.seal(0, r.id, Ok(16)).unwrap(), 16, "lane 0 untouched");
        lanes.encode(1, &r, 0);
        assert!(matches!(
            lanes.seal(1, r.id, Ok(16)),
            Err(CallError::CorrMismatch {
                expected: 7,
                got: 6
            })
        ));
        lanes.encode(1, &r, 0);
        assert_eq!(lanes.seal(1, r.id, Ok(16)).unwrap(), 16, "poison spent");
    }
}
