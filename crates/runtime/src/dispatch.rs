//! The serving loop: a discrete-event dispatcher over per-lane clocks.
//!
//! The runtime simulates an M/G/k server: arrivals (open-loop Poisson or
//! closed-loop clients) enter the [`TenantFabric`] — per-tenant bounded
//! queues under a deficit-round-robin scheduler; the dispatcher starts
//! each scheduled request on the earliest-free lane, never starting a
//! request before everything that starts earlier in simulated time has
//! been issued. Within a tenant, service is arrival-order; across
//! tenants the fabric's weights decide, and with a single tenant (the
//! default when no [`TenantRegistry`] is configured) the fabric
//! degenerates to the old global FIFO exactly. Lane clocks are the
//! transport's simulated cores, so service times (and their cache/TLB
//! history) come out of the machine model, not a distribution.
//!
//! This module is only the shared-queue discipline: which lane serves
//! next and when a full tenant queue blocks or sheds. The tenant gate,
//! deadline storms, retries and outcome accounting are the serving core
//! (`serve.rs`), which [`crate::RingRuntime`] shares.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use sb_faultplane::FaultHandle;
use sb_observe::{InstantKind, Recorder, SpanKind};
use sb_sentinel::SloHandle;
use sb_sim::Cycles;
use sb_transport::{Request, Transport};

use crate::{
    load::RequestFactory,
    serve::{Core, Outcome},
    stats::RunStats,
    tenant::{AdmissionPolicy, TenantFabric, TenantRegistry},
};

/// How the dispatcher retries failed calls.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Maximum re-attempts after the initial call.
    pub max_retries: u32,
    /// Backoff before retry `n` is `backoff_base << n` cycles (exponential,
    /// spent as lane idle time).
    pub backoff_base: Cycles,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 3,
            backoff_base: 1_000,
        }
    }
}

/// Dispatcher knobs.
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Bound on admitted-but-unserved requests. Zero is legal: under
    /// [`AdmissionPolicy::Shed`] every arrival is rejected; under
    /// [`AdmissionPolicy::Block`] arrivals rendezvous directly with the
    /// earliest-free lane (no buffering).
    pub queue_capacity: usize,
    /// What happens to arrivals that find the queue full.
    pub policy: AdmissionPolicy,
    /// Optional bound on time spent queued: a request that waits longer
    /// before service starts is dropped (counted in `shed_deadline`)
    /// without consuming lane time.
    pub queue_deadline: Option<Cycles>,
    /// Retry failed/timed-out calls with exponential backoff; a failure
    /// (crashed server, broken binding) additionally runs the transport's
    /// recovery path before the retry. `None` fails fast.
    pub retry: Option<RetryPolicy>,
    /// The chaos fault plane, for injected queue-deadline storms. `None`
    /// (the default) never injects.
    pub faults: Option<FaultHandle>,
    /// Trace recorder. The default is off (every emit site reduces to a
    /// flag check); pass `Recorder::new(..)` to trace a run. The
    /// dispatcher attaches it to the transport on construction, emits
    /// queue-wait spans on the serving lane, and admission/shed/retry
    /// instants on pseudo-lane `transport.lanes()` (the queue itself has
    /// no core).
    pub recorder: Recorder,
    /// Online SLO health tracking. `None` (the default) evaluates
    /// nothing; pass an [`SloHandle`] and the dispatcher records every
    /// outcome — completions with their arrival-to-done latency, and
    /// failures/timeouts/sheds as errors — as it happens.
    pub slo: Option<SloHandle>,
    /// The tenant contract registry. `None` (the default) builds a
    /// single-tenant fabric from `queue_capacity` and `policy`, which
    /// behaves exactly like the old global queue; pass a registry to get
    /// per-tenant queues, weights, rate limits, and SLO-driven actions.
    pub tenants: Option<TenantRegistry>,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            queue_capacity: 64,
            policy: AdmissionPolicy::Shed,
            queue_deadline: None,
            retry: None,
            faults: None,
            recorder: Recorder::off(),
            slo: None,
            tenants: None,
        }
    }
}

/// A dispatcher bound to a transport.
pub struct ServerRuntime<'a, T: Transport + ?Sized> {
    transport: &'a mut T,
    core: Core,
}

impl<'a, T: Transport + ?Sized> ServerRuntime<'a, T> {
    /// Wraps `transport` with the dispatcher configuration, handing the
    /// configured recorder down so call-path spans and dispatcher events
    /// land in the same trace.
    pub fn new(transport: &'a mut T, cfg: RuntimeConfig) -> Self {
        let capacity = cfg.queue_capacity;
        let core = Core::new(transport, cfg, capacity);
        ServerRuntime { transport, core }
    }

    /// The tenant fabric: per-tenant SLO health, quarantine state, and
    /// the SLO-burn action log accumulated over this runtime's runs.
    pub fn fabric(&self) -> &TenantFabric {
        &self.core.fabric
    }

    /// The earliest-free lane and its clock.
    fn min_lane(&mut self) -> (usize, Cycles) {
        let mut best = (0, self.transport.now(0));
        for l in 1..self.transport.lanes() {
            let t = self.transport.now(l);
            if t < best.1 {
                best = (l, t);
            }
        }
        best
    }

    /// Runs `req` on lane `l` (idling the lane to the arrival first),
    /// applying the queue deadline and the retry policy, and records the
    /// outcome. Closed-loop completions are reported through
    /// `completions`.
    fn serve_one(
        &mut self,
        l: usize,
        req: Request,
        stats: &mut RunStats,
        completions: &mut Vec<(usize, Cycles)>,
    ) {
        self.transport.wait_until(l, req.arrival);
        let start = self.transport.now(l);
        let rec = &self.core.cfg.recorder;
        rec.note_tenant(l, req.tenant);
        if start > req.arrival {
            // Time between arrival and service start is queueing delay —
            // recorded against the serving lane, outside the call span.
            rec.span(l, SpanKind::QueueWait, req.arrival, start, req.id);
        }
        let past_deadline = self
            .core
            .deadline(req.arrival)
            .is_some_and(|d| start - req.arrival > d);
        let outcome = if past_deadline {
            Outcome::ShedDeadline(l)
        } else {
            let mut res = self.transport.call(l, &req);
            for attempt in 0..self.core.max_retries() {
                let Err(e) = &res else { break };
                self.core
                    .retry(self.transport, l, e, attempt, req.id, stats);
                res = self.transport.call(l, &req);
            }
            stats.busy[l] += self.transport.now(l) - start;
            res.map_or_else(|e| Outcome::of(&e), |_| Outcome::Completed)
        };
        let done = self.transport.now(l);
        self.core.record(stats, outcome, &req, done);
        if let Some(c) = req.client {
            completions.push((c, done));
        }
    }

    /// Starts queued requests in fabric (DRR) order, earliest-free lane
    /// first, until no lane frees up at or before `horizon` (so no
    /// service start is issued out of order with arrivals at the
    /// horizon).
    fn drain_until(
        &mut self,
        horizon: Cycles,
        stats: &mut RunStats,
        completions: &mut Vec<(usize, Cycles)>,
    ) {
        while !self.core.fabric.is_empty() {
            let (l, t) = self.min_lane();
            if t > horizon {
                break;
            }
            let req = self.core.fabric.pop().expect("checked non-empty");
            self.serve_one(l, req, stats, completions);
        }
    }

    /// Queues a gated arrival on its tenant's lane, stamping the
    /// admission on the queue's pseudo-lane. A full lane applies the
    /// tenant's policy first. Returns `false` when the arrival was shed.
    fn admit(
        &mut self,
        req: Request,
        stats: &mut RunStats,
        completions: &mut Vec<(usize, Cycles)>,
    ) -> bool {
        let tenant = req.tenant;
        if self.core.fabric.is_full(tenant) {
            match self.core.fabric.policy(tenant) {
                AdmissionPolicy::Shed => {
                    self.core
                        .record(stats, Outcome::ShedQueueFull, &req, req.arrival);
                    return false;
                }
                AdmissionPolicy::Block if self.core.fabric.capacity(tenant) == 0 => {
                    // No slot can ever free: the arrival rendezvouses
                    // directly with the earliest-free lane.
                    let (l, _) = self.min_lane();
                    self.serve_one(l, req, stats, completions);
                    return true;
                }
                // Free a slot in this tenant's lane by force-running
                // fabric-scheduled requests on the earliest-free lane.
                // DRR rotation reaches every backlogged tenant, so the
                // loop always terminates.
                AdmissionPolicy::Block => {
                    while self.core.fabric.is_full(tenant) {
                        let (l, _) = self.min_lane();
                        let r = self.core.fabric.pop().expect("full lane implies work");
                        self.serve_one(l, r, stats, completions);
                    }
                }
            }
        }
        let (lane, rec) = (self.core.queue_lane, &self.core.cfg.recorder);
        rec.instant(lane, InstantKind::QueueAdmit, req.arrival, req.id);
        self.core.fabric.push(req);
        stats.max_queue_depth = stats.max_queue_depth.max(self.core.fabric.len());
        true
    }

    /// Open-loop run: `arrivals` yields monotone arrival times relative to
    /// server readiness (Poisson in the benches, arbitrary sequences in
    /// the property tests); each arrival takes its operation from
    /// `factory`. Arrivals are independent of service progress — under
    /// overload the queue fills and the admission policy decides.
    pub fn run_open_loop<I>(&mut self, arrivals: I, factory: &mut RequestFactory) -> RunStats
    where
        I: IntoIterator<Item = Cycles>,
    {
        let (mut stats, epoch) = self.core.begin(self.transport);
        let mut completions = Vec::new();
        let mut first = None;
        let mut clock = 0;
        for t in arrivals {
            let t = t.saturating_add(epoch).max(clock); // Never backwards.
            clock = t;
            first.get_or_insert(t);
            let req = factory.make(t, None);
            self.core.offer(&mut stats, &req);
            self.drain_until(t, &mut stats, &mut completions);
            if self.core.gate(&mut stats, &req) {
                self.admit(req, &mut stats, &mut completions);
            }
        }
        self.drain_until(Cycles::MAX, &mut stats, &mut completions);
        self.core.finish(self.transport, stats, first.unwrap_or(0))
    }

    /// Closed-loop run: `clients` issuers each keep exactly one request in
    /// flight, issuing the next one `think` cycles after the previous
    /// completion, `ops_per_client` times. Offered load self-adjusts to
    /// service capacity, so queue-full shedding only appears when
    /// `clients` exceeds `queue_capacity + lanes`.
    pub fn run_closed_loop(
        &mut self,
        clients: usize,
        ops_per_client: u64,
        think: Cycles,
        factory: &mut RequestFactory,
    ) -> RunStats {
        assert!(clients > 0);
        let (mut stats, epoch) = self.core.begin(self.transport);
        let mut completions: Vec<(usize, Cycles)> = Vec::new();
        // One-cycle stagger breaks the all-at-once tie deterministically.
        let mut ready: BinaryHeap<Reverse<(Cycles, usize)>> = (0..clients)
            .map(|c| Reverse((epoch + c as Cycles, c)))
            .collect();
        let mut remaining = vec![ops_per_client; clients];
        loop {
            for (c, done) in completions.drain(..) {
                if remaining[c] > 0 {
                    ready.push(Reverse((done.saturating_add(think), c)));
                }
            }
            let Some(&Reverse((t, c))) = ready.peek() else {
                if self.core.fabric.is_empty() {
                    break;
                }
                self.drain_until(Cycles::MAX, &mut stats, &mut completions);
                continue;
            };
            // Completions inside the drain may schedule arrivals earlier
            // than `t`; flush them into the heap before admitting.
            self.drain_until(t, &mut stats, &mut completions);
            if !completions.is_empty() {
                continue;
            }
            ready.pop();
            remaining[c] -= 1;
            let req = factory.make(t, Some(c));
            self.core.offer(&mut stats, &req);
            let admitted =
                self.core.gate(&mut stats, &req) && self.admit(req, &mut stats, &mut completions);
            // A shed client retries its next op after a think pause
            // rather than stopping forever.
            if !admitted && remaining[c] > 0 {
                ready.push(Reverse((t.saturating_add(think.max(1)), c)));
            }
        }
        self.core.finish(self.transport, stats, epoch)
    }
}

#[cfg(test)]
mod tests {
    use sb_transport::FixedServiceTransport;
    use sb_ycsb::WorkloadSpec;

    use super::*;

    fn factory() -> RequestFactory {
        RequestFactory::new(WorkloadSpec::ycsb_a(1000, 64), 64)
    }

    fn cfg(capacity: usize, policy: AdmissionPolicy) -> RuntimeConfig {
        RuntimeConfig {
            queue_capacity: capacity,
            policy,
            ..RuntimeConfig::default()
        }
    }

    /// offered must equal the sum of all outcome counters.
    fn assert_conserved(s: &RunStats) {
        assert_eq!(
            s.offered,
            s.completed + s.shed_queue_full + s.shed_deadline + s.timed_out + s.failed,
            "request conservation violated: {s:?}"
        );
    }

    #[test]
    fn underload_completes_everything_with_flat_latency() {
        let mut e = FixedServiceTransport::new(2, 100);
        let mut rt = ServerRuntime::new(&mut e, cfg(16, AdmissionPolicy::Shed));
        let arrivals: Vec<Cycles> = (0..50).map(|i| i * 100).collect();
        let s = rt.run_open_loop(arrivals, &mut factory());
        assert_eq!(s.completed, 50);
        assert_eq!(s.shed(), 0);
        assert_eq!(s.p50(), 100, "no queueing at half load");
        assert!(s.bytes_copied > 0, "completed calls meter their encode");
        assert_conserved(&s);
    }

    #[test]
    fn overload_sheds_and_respects_queue_bound() {
        let mut e = FixedServiceTransport::new(1, 1000);
        let mut rt = ServerRuntime::new(&mut e, cfg(4, AdmissionPolicy::Shed));
        let arrivals: Vec<Cycles> = (0..200).map(|i| i * 10).collect();
        let s = rt.run_open_loop(arrivals, &mut factory());
        assert!(s.shed_queue_full > 0, "10x overload must shed");
        assert!(s.max_queue_depth <= 4);
        assert!(s.completed > 0);
        assert_conserved(&s);
    }

    #[test]
    fn block_policy_never_sheds_but_latency_grows() {
        let mut e = FixedServiceTransport::new(1, 1000);
        let mut rt = ServerRuntime::new(&mut e, cfg(4, AdmissionPolicy::Block));
        let arrivals: Vec<Cycles> = (0..100).map(|i| i * 10).collect();
        let s = rt.run_open_loop(arrivals, &mut factory());
        assert_eq!(s.shed_queue_full, 0);
        assert_eq!(s.completed, 100);
        assert!(s.p99() > 50_000, "blocked waits show up in tail latency");
        assert_conserved(&s);
    }

    #[test]
    fn queue_deadline_drops_stale_requests() {
        let mut e = FixedServiceTransport::new(1, 1000);
        let mut rt = ServerRuntime::new(
            &mut e,
            RuntimeConfig {
                queue_capacity: 16,
                policy: AdmissionPolicy::Shed,
                queue_deadline: Some(500),
                ..RuntimeConfig::default()
            },
        );
        let s = rt.run_open_loop(vec![0, 1, 2, 3], &mut factory());
        assert_eq!(s.completed, 1, "only the first request starts in time");
        assert_eq!(s.shed_deadline, 3);
        assert_conserved(&s);
    }

    #[test]
    fn closed_loop_self_paces_to_capacity() {
        let mut e = FixedServiceTransport::new(2, 100);
        let mut rt = ServerRuntime::new(&mut e, cfg(16, AdmissionPolicy::Shed));
        let s = rt.run_closed_loop(4, 50, 0, &mut factory());
        assert_eq!(s.offered, 200);
        assert_eq!(s.completed, 200);
        assert_eq!(
            s.shed(),
            0,
            "closed loop cannot overrun 16 slots with 4 clients"
        );
        // 200 requests x 100 cycles over 2 lanes ~ 10_000 cycles.
        let tput = s.throughput_per_mcycle();
        assert!(
            (15_000.0..25_000.0).contains(&tput),
            "closed-loop throughput {tput} should sit near 2 lanes / 100 cycles"
        );
        assert_conserved(&s);
    }

    #[test]
    fn closed_loop_with_more_clients_than_slots_sheds() {
        let mut e = FixedServiceTransport::new(1, 1000);
        let mut rt = ServerRuntime::new(&mut e, cfg(2, AdmissionPolicy::Shed));
        let s = rt.run_closed_loop(8, 20, 0, &mut factory());
        assert!(s.shed_queue_full > 0);
        assert_conserved(&s);
    }

    #[test]
    fn zero_capacity_shed_rejects_everything() {
        let mut e = FixedServiceTransport::new(2, 100);
        let mut rt = ServerRuntime::new(&mut e, cfg(0, AdmissionPolicy::Shed));
        let s = rt.run_open_loop(vec![0, 100, 200, 300], &mut factory());
        assert_eq!(s.completed, 0);
        assert_eq!(s.shed_queue_full, 4, "no buffer, no admission");
        assert_conserved(&s);
    }

    #[test]
    fn zero_capacity_block_rendezvouses_directly() {
        let mut e = FixedServiceTransport::new(2, 100);
        let mut rt = ServerRuntime::new(&mut e, cfg(0, AdmissionPolicy::Block));
        let arrivals: Vec<Cycles> = (0..40).map(|i| i * 50).collect();
        let s = rt.run_open_loop(arrivals, &mut factory());
        assert_eq!(s.completed, 40, "every arrival is handed to a lane");
        assert_eq!(s.shed(), 0);
        assert_eq!(s.max_queue_depth, 0, "nothing is ever buffered");
        assert_conserved(&s);
    }

    #[test]
    fn zero_capacity_block_closed_loop_conserves() {
        let mut e = FixedServiceTransport::new(1, 100);
        let mut rt = ServerRuntime::new(&mut e, cfg(0, AdmissionPolicy::Block));
        let s = rt.run_closed_loop(3, 10, 0, &mut factory());
        assert_eq!(s.offered, 30);
        assert_eq!(s.completed, 30);
        assert_conserved(&s);
    }

    #[test]
    fn capacity_one_serializes_under_both_policies() {
        for policy in [AdmissionPolicy::Shed, AdmissionPolicy::Block] {
            let mut e = FixedServiceTransport::new(1, 1000);
            let mut rt = ServerRuntime::new(&mut e, cfg(1, policy));
            let arrivals: Vec<Cycles> = (0..50).map(|i| i * 10).collect();
            let s = rt.run_open_loop(arrivals, &mut factory());
            assert!(s.max_queue_depth <= 1);
            assert_conserved(&s);
            match policy {
                AdmissionPolicy::Shed => {
                    assert!(s.shed_queue_full > 0, "one slot under 100x load sheds")
                }
                AdmissionPolicy::Block => {
                    assert_eq!(s.shed_queue_full, 0);
                    assert_eq!(s.completed, 50);
                }
            }
        }
    }

    #[test]
    fn deadline_expiry_races_admission() {
        // Capacity 1 + a tight queue deadline: requests admitted into the
        // single slot can expire before a lane frees. Conservation must
        // hold and expired requests must burn no lane time.
        let mut e = FixedServiceTransport::new(1, 10_000);
        let mut rt = ServerRuntime::new(
            &mut e,
            RuntimeConfig {
                queue_capacity: 1,
                policy: AdmissionPolicy::Shed,
                queue_deadline: Some(100),
                ..RuntimeConfig::default()
            },
        );
        let arrivals: Vec<Cycles> = (0..30).map(|i| i * 50).collect();
        let s = rt.run_open_loop(arrivals, &mut factory());
        assert_conserved(&s);
        assert!(s.shed_deadline > 0, "queued requests must expire");
        assert!(s.completed >= 1, "the first request always starts in time");
        // Expired requests consume no service time: busy cycles must be
        // exactly completed * service.
        assert_eq!(s.busy[0], s.completed * 10_000);
    }

    #[test]
    fn retry_policy_recovers_injected_crashes() {
        use sb_faultplane::{FaultHandle, FaultMix, FaultPoint};
        use sb_transport::Faulty;

        let h = FaultHandle::new(0xc4a5, FaultMix::none().with(FaultPoint::HandlerPanic, 800));
        let mut e = Faulty::new(FixedServiceTransport::new(2, 100), h.clone(), 1_000);
        let mut rt = ServerRuntime::new(
            &mut e,
            RuntimeConfig {
                queue_capacity: 32,
                retry: Some(RetryPolicy::default()),
                ..RuntimeConfig::default()
            },
        );
        let arrivals: Vec<Cycles> = (0..300).map(|i| i * 200).collect();
        let s = rt.run_open_loop(arrivals, &mut factory());
        assert_conserved(&s);
        assert!(s.retries > 0, "an 8% crash rate over 300 calls must retry");
        assert!(s.recoveries > 0, "crashed lanes must be repaired");
        assert!(
            s.completed > s.offered - s.offered / 10,
            "retry-with-recovery should complete nearly everything: {s:?}"
        );
        // Close any lane still dead at end-of-run, then audit the ledger.
        h.disarm();
        for l in 0..2 {
            e.recover(l);
        }
        let r = h.report();
        assert!(r.injected() > 0, "the mix must actually have fired");
        assert_eq!(r.leaked(), 0, "{r}");
    }

    #[test]
    fn retries_fail_fast_without_a_policy() {
        use sb_faultplane::{FaultHandle, FaultMix, FaultPoint};
        use sb_transport::Faulty;

        // Crash on (nearly) every call with no retry policy: failures
        // surface directly and the run conserves through `failed`.
        let h = FaultHandle::new(7, FaultMix::none().with(FaultPoint::HandlerPanic, 10_000));
        let mut e = Faulty::new(FixedServiceTransport::new(1, 100), h.clone(), 1_000);
        let mut rt = ServerRuntime::new(&mut e, cfg(8, AdmissionPolicy::Shed));
        let s = rt.run_open_loop(vec![0, 500, 1_000], &mut factory());
        assert_eq!(s.completed, 0);
        assert_eq!(s.failed, 3);
        assert_eq!(s.retries, 0);
        assert_conserved(&s);
    }

    #[test]
    fn slo_tracker_sees_every_outcome_class() {
        use sb_sentinel::{SloHandle, SloSpec};

        // One slow lane, a tiny queue, and a queue deadline: the run
        // produces completions, queue-full sheds, and deadline sheds —
        // all of which must land in the tracker.
        let slo = SloHandle::new(SloSpec {
            latency_objective: 1_500,
            ..SloSpec::default()
        });
        let mut e = FixedServiceTransport::new(1, 1_000);
        let mut rt = ServerRuntime::new(
            &mut e,
            RuntimeConfig {
                queue_capacity: 2,
                policy: AdmissionPolicy::Shed,
                queue_deadline: Some(5_000),
                slo: Some(slo.clone()),
                ..RuntimeConfig::default()
            },
        );
        let arrivals: Vec<Cycles> = (0..100).map(|i| i * 100).collect();
        let s = rt.run_open_loop(arrivals, &mut factory());
        assert_conserved(&s);
        let h = slo.health();
        assert_eq!(
            h.good + h.bad,
            s.offered,
            "every offered request reaches the tracker: {h:?} vs {s:?}"
        );
        assert!(h.bad >= s.shed(), "sheds are never good");
        // The sustained overload must trip the burn-rate breach.
        assert!(slo.breached(), "90% sheds must breach: {h:?}");
    }

    #[test]
    fn deadline_storms_shed_and_settle_clean() {
        use sb_faultplane::{FaultHandle, FaultMix, FaultPoint};

        let h = FaultHandle::new(
            0x5708_0001,
            FaultMix::none().with(FaultPoint::DeadlineStorm, 2_500),
        );
        let mut e = FixedServiceTransport::new(1, 1_000);
        let mut rt = ServerRuntime::new(
            &mut e,
            RuntimeConfig {
                queue_capacity: 64,
                // Generous in calm weather; storms collapse it to zero.
                queue_deadline: Some(1_000_000),
                faults: Some(h.clone()),
                ..RuntimeConfig::default()
            },
        );
        // 4x overload on one lane: every queued request waits, so any
        // arrival inside a storm window is past its (zeroed) deadline.
        let arrivals: Vec<Cycles> = (0..400).map(|i| i * 250).collect();
        let s = rt.run_open_loop(arrivals, &mut factory());
        assert_conserved(&s);
        assert!(s.shed_deadline > 0, "storm windows must shed stale work");
        assert!(s.completed > 0, "calm stretches still complete");
        let r = h.report();
        assert!(r.injected() > 0, "storms must actually start");
        assert_eq!(r.leaked(), 0, "settle_storms closes every window: {r}");
    }
}
