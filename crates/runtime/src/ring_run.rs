//! The ring-mode serving loop: the submission ring *is* the queue.
//!
//! Where [`crate::ServerRuntime`] buffers arrivals in a dispatch queue
//! and starts each on the earliest-free lane, the ring pump submits
//! every admitted arrival straight into its lane's submission ring and
//! decides *when to ring the doorbell* — the ρ-aware adaptive policy:
//!
//! - **Latency mode (shallow rings):** whenever a lane would otherwise
//!   sit idle before the next arrival, its pending frames are drained
//!   immediately — batches of one, ring-wait ≈ 0, direct-mode latency.
//! - **Throughput mode (saturated):** while a lane is busy serving,
//!   arrivals accumulate in its ring; the doorbell fires when the
//!   occupancy reaches the batch budget, so a saturated lane pays one
//!   crossing per budget-sized batch instead of one per call.
//!
//! Under load the occupancy tracks ρ by construction — no estimator,
//! no tuning: an idle system drains eagerly, a saturated one batches
//! to the budget, and everything between interpolates.
//!
//! Admission, deadlines and SLO accounting keep their per-request
//! semantics, and run through the same serving core (`serve.rs`) as
//! direct mode: a full submission ring sheds (or, under
//! [`AdmissionPolicy::Block`], pumps the lane until a slot frees); the
//! queue deadline travels in the wire header as an absolute cycle
//! stamp and an expired frame completes as `CallError::Timeout` at
//! batch-cut time — counted as `shed_deadline`, burning no service
//! time, exactly like direct mode's start-time check; every completion
//! and error is recorded as it is reaped.
//!
//! Tenancy: arrivals pass the [`TenantFabric`] gate (rate limits,
//! quarantine windows) before touching a ring, and once a lane is
//! batching (occupancy at or past the budget) each tenant may hold at
//! most its weight's share of that lane's submission slots — so a
//! storming tenant cannot monopolize a batch; the slots it cannot take
//! stay available to everyone else. With a single tenant the share is
//! the whole ring and behavior is unchanged.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use sb_observe::InstantKind;
use sb_sim::Cycles;
use sb_transport::{Request, RingTransport, TenantId, Transport};

use crate::{
    dispatch::RuntimeConfig,
    load::RequestFactory,
    serve::{Core, Outcome},
    stats::RunStats,
    tenant::{AdmissionPolicy, TenantFabric},
};

/// A ring-mode dispatcher bound to a [`RingTransport`].
pub struct RingRuntime<'a, T: Transport> {
    ring: &'a mut RingTransport<T>,
    /// The serving core. Its fabric's queues are unused here — the
    /// submission ring is the queue.
    core: Core,
    /// Outstanding submissions: corr → (request, attempts so far).
    inflight: HashMap<u64, (Request, u32)>,
    /// Latest submit stamp per lane — a doorbell never rings before the
    /// frames it would drain were submitted.
    last_submit: Vec<Cycles>,
    /// Submission slots currently held, per (lane, tenant).
    held: BTreeMap<(usize, TenantId), usize>,
    /// Tenants seen so far; `total_weight` sums their registry weights
    /// for the share computation.
    seen: BTreeSet<TenantId>,
    total_weight: u64,
}

impl<'a, T: Transport> RingRuntime<'a, T> {
    /// Wraps `ring` with the dispatcher configuration. The
    /// `queue_capacity` knob is unused here — the submission ring's own
    /// capacity (fixed at [`RingTransport`] construction) bounds
    /// admitted-but-unserved requests instead.
    pub fn new(ring: &'a mut RingTransport<T>, cfg: RuntimeConfig) -> Self {
        let core = Core::new(ring, cfg, usize::MAX);
        RingRuntime {
            last_submit: vec![0; ring.lanes()],
            ring,
            core,
            inflight: HashMap::new(),
            held: BTreeMap::new(),
            seen: BTreeSet::new(),
            total_weight: 0,
        }
    }

    /// The tenant fabric: per-tenant SLO health, quarantine state, and
    /// the SLO-burn action log accumulated over this runtime's runs.
    pub fn fabric(&self) -> &TenantFabric {
        &self.core.fabric
    }

    fn note_tenant(&mut self, id: TenantId) {
        if self.seen.insert(id) {
            self.total_weight += self.core.fabric.registry().weight(id);
        }
    }

    /// The submission slots one tenant may hold on one lane while that
    /// lane is batching: its weight's share of the ring, at least one.
    fn share(&self, id: TenantId) -> usize {
        let capacity = self.ring.config().capacity as u64;
        let w = self.core.fabric.registry().weight(id);
        ((capacity * w) / self.total_weight.max(1)).max(1) as usize
    }

    fn held(&self, lane: usize, id: TenantId) -> usize {
        self.held.get(&(lane, id)).copied().unwrap_or(0)
    }

    /// Whether a submit by `id` on `lane` would exceed its batch share.
    /// Only binds once the lane is batching (occupancy at the budget) —
    /// an uncontended ring is work-conserving and any tenant may fill
    /// it.
    fn over_share(&self, lane: usize, id: TenantId) -> bool {
        self.ring.sq_len(lane) >= self.ring.config().batch_budget.max(1)
            && self.held(lane, id) >= self.share(id)
    }

    /// Submits `req` into `lane`'s ring. The queue deadline travels as
    /// an absolute wire stamp (floored at 1; 0 = none). Returns whether
    /// the ring took it.
    fn submit(&mut self, lane: usize, req: &Request) -> bool {
        let deadline = self
            .core
            .deadline(req.arrival)
            .map_or(0, |d| req.arrival.saturating_add(d).max(1));
        self.ring.submit_with_deadline(lane, req, deadline).is_ok()
    }

    /// Tracks a submitted `req` (stamped `at`) until its completion is
    /// reaped.
    fn track(&mut self, lane: usize, req: Request, attempts: u32, at: Cycles) {
        self.last_submit[lane] = self.last_submit[lane].max(at);
        *self.held.entry((lane, req.tenant)).or_insert(0) += 1;
        self.inflight.insert(req.id, (req, attempts));
    }

    /// The lane a fresh arrival submits to: least-occupied ring first,
    /// earliest clock breaking ties (deterministic).
    fn pick_lane(&mut self) -> usize {
        let mut best = 0usize;
        let mut best_key = (usize::MAX, Cycles::MAX);
        for l in 0..self.ring.lanes() {
            let key = (self.ring.sq_len(l), self.ring.now(l));
            if key < best_key {
                best_key = key;
                best = l;
            }
        }
        best
    }

    /// Rings `lane`'s doorbell (no earlier than its frames' submit
    /// stamps), charges the lane's busy time, and reaps every posted
    /// completion into `stats` — resubmitting retriable failures under
    /// the retry policy.
    fn drain_lane(&mut self, lane: usize, stats: &mut RunStats) {
        self.ring.wait_until(lane, self.last_submit[lane]);
        let before = self.ring.now(lane);
        self.ring.doorbell(lane);
        let after = self.ring.now(lane);
        stats.busy[lane] += after - before;
        self.reap(lane, stats);
    }

    /// Pops and accounts every completion waiting on `lane`. An expired
    /// frame completes as a deadline shed at batch-cut time, burning no
    /// service time, exactly like direct mode's start-time check.
    fn reap(&mut self, lane: usize, stats: &mut RunStats) {
        let mut resubmit: Vec<(Request, u32)> = Vec::new();
        while let Some(c) = self.ring.pop_completion(lane) {
            let now = self.ring.now(lane);
            let Some((req, attempts)) = self.inflight.remove(&c.corr) else {
                debug_assert!(false, "completion for unknown corr {}", c.corr);
                continue;
            };
            if let Some(h) = self.held.get_mut(&(lane, req.tenant)) {
                *h = h.saturating_sub(1);
            }
            let outcome = match c.result {
                _ if c.expired => Outcome::ShedDeadline(lane),
                Ok(_) => Outcome::Completed,
                Err(e) if attempts < self.core.max_retries() => {
                    self.core
                        .retry(self.ring, lane, &e, attempts, req.id, stats);
                    resubmit.push((req, attempts + 1));
                    continue;
                }
                Err(e) => Outcome::of(&e),
            };
            self.core.record(stats, outcome, &req, now);
        }
        // Re-queue retries. The doorbell freed at least as many slots
        // as it posted completions, so these always fit; a refused
        // resubmission would be a bookkeeping bug, not load.
        for (req, attempts) in resubmit {
            let t = self.ring.now(lane);
            if self.submit(lane, &req) {
                // Retries may briefly exceed a tenant's share; the cap
                // applies to fresh admissions only.
                self.track(lane, req, attempts, t);
            } else {
                self.core.record(stats, Outcome::Failed, &req, t);
            }
        }
    }

    /// Latency-mode drains: while any lane with pending frames would go
    /// idle at or before `horizon`, drain it — earliest lane first, so
    /// no batch is cut out of order with arrivals at the horizon.
    fn drain_idle_until(&mut self, horizon: Cycles, stats: &mut RunStats) {
        loop {
            let mut best: Option<(Cycles, usize)> = None;
            for l in 0..self.ring.lanes() {
                if self.ring.sq_len(l) == 0 {
                    continue;
                }
                let at = self.ring.now(l).max(self.last_submit[l]);
                if at <= horizon && best.is_none_or(|(bt, _)| at < bt) {
                    best = Some((at, l));
                }
            }
            let Some((_, l)) = best else { break };
            self.drain_lane(l, stats);
        }
    }

    /// Open-loop run: `arrivals` yields monotone arrival times relative
    /// to server readiness; each arrival takes its operation from
    /// `factory`, submits into the least-occupied ring, and the
    /// adaptive doorbell policy above decides when batches are cut.
    pub fn run_open_loop<I>(&mut self, arrivals: I, factory: &mut RequestFactory) -> RunStats
    where
        I: IntoIterator<Item = Cycles>,
    {
        let (mut stats, epoch) = self.core.begin(self.ring);
        let budget = self.ring.config().batch_budget.max(1);
        let mut first = None;
        let mut clock = 0;
        for t in arrivals {
            let t = t.saturating_add(epoch).max(clock);
            clock = t;
            first.get_or_insert(t);
            let req = factory.make(t, None);
            self.core.offer(&mut stats, &req);
            self.drain_idle_until(t, &mut stats);
            self.note_tenant(req.tenant);
            if !self.core.gate(&mut stats, &req) {
                continue;
            }
            let lane = self.pick_lane();
            self.core.cfg.recorder.note_tenant(lane, req.tenant);
            // A tenant past its batch share is refused exactly like a
            // full ring — the slots it cannot take stay open for others.
            let mut taken = !self.over_share(lane, req.tenant) && self.submit(lane, &req);
            if !taken && self.core.fabric.policy(req.tenant) == AdmissionPolicy::Block {
                // Pump the lane until a slot frees and the tenant is
                // back inside its share (retries are bounded, so this
                // terminates).
                while self.ring.sq_len(lane) >= self.ring.config().capacity
                    || self.over_share(lane, req.tenant)
                {
                    self.drain_lane(lane, &mut stats);
                }
                taken = self.submit(lane, &req);
            }
            if !taken {
                // Shed — or an oversized frame (or a zero-capacity
                // ring): the request cannot ever be admitted.
                self.core
                    .record(&mut stats, Outcome::ShedQueueFull, &req, t);
                continue;
            }
            let rec = &self.core.cfg.recorder;
            rec.instant(self.core.queue_lane, InstantKind::QueueAdmit, t, req.id);
            self.track(lane, req, 0, t);
            stats.max_queue_depth = stats.max_queue_depth.max(self.ring.sq_len(lane));
            // An *idle* lane whose ring just reached the budget is
            // drained now — one crossing, one full batch. A busy lane
            // keeps accumulating: its slots only free once the server
            // consumes them, so back-pressure (and shedding) works
            // exactly like the direct dispatch queue.
            if self.ring.sq_len(lane) >= budget
                && self.ring.now(lane).max(self.last_submit[lane]) <= t
            {
                self.drain_lane(lane, &mut stats);
            }
        }
        // Final drain: flush every ring (bounded retries terminate).
        self.drain_idle_until(Cycles::MAX, &mut stats);
        for l in 0..self.ring.lanes() {
            self.reap(l, &mut stats);
        }
        debug_assert!(
            self.inflight.is_empty(),
            "every submission reaps exactly one completion"
        );
        self.core.finish(self.ring, stats, first.unwrap_or(0))
    }
}

#[cfg(test)]
mod tests {
    use sb_faultplane::FaultPoint;
    use sb_transport::{FixedServiceTransport, RingConfig};
    use sb_ycsb::WorkloadSpec;

    use super::*;

    fn factory() -> RequestFactory {
        RequestFactory::new(WorkloadSpec::ycsb_a(1000, 64), 64)
    }

    fn ring(
        lanes: usize,
        service: Cycles,
        capacity: usize,
        budget: usize,
    ) -> RingTransport<FixedServiceTransport> {
        RingTransport::new(
            FixedServiceTransport::new(lanes, service),
            RingConfig {
                capacity,
                batch_budget: budget,
                slot_bytes: 4096,
            },
        )
    }

    fn assert_conserved(s: &RunStats) {
        assert_eq!(
            s.offered,
            s.completed + s.shed_queue_full + s.shed_deadline + s.timed_out + s.failed,
            "request conservation violated: {s:?}"
        );
    }

    #[test]
    fn underload_drains_eagerly_with_direct_latency() {
        let mut r = ring(2, 100, 16, 8);
        let mut rt = RingRuntime::new(&mut r, RuntimeConfig::default());
        let arrivals: Vec<Cycles> = (0..50).map(|i| i * 100).collect();
        let s = rt.run_open_loop(arrivals, &mut factory());
        assert_eq!(s.completed, 50);
        assert_eq!(s.shed(), 0);
        assert_eq!(s.p50(), 100, "shallow rings must not add batching delay");
        assert_conserved(&s);
    }

    #[test]
    fn overload_batches_and_sheds_at_ring_capacity() {
        let mut r = ring(1, 1000, 4, 4);
        let mut rt = RingRuntime::new(&mut r, RuntimeConfig::default());
        let arrivals: Vec<Cycles> = (0..200).map(|i| i * 10).collect();
        let s = rt.run_open_loop(arrivals, &mut factory());
        assert!(s.shed_queue_full > 0, "10x overload must shed at the ring");
        assert!(s.max_queue_depth <= 4);
        assert!(s.completed > 0);
        assert_conserved(&s);
    }

    #[test]
    fn block_policy_pumps_instead_of_shedding() {
        let mut r = ring(1, 1000, 4, 4);
        let mut rt = RingRuntime::new(
            &mut r,
            RuntimeConfig {
                policy: AdmissionPolicy::Block,
                ..RuntimeConfig::default()
            },
        );
        let arrivals: Vec<Cycles> = (0..100).map(|i| i * 10).collect();
        let s = rt.run_open_loop(arrivals, &mut factory());
        assert_eq!(s.shed_queue_full, 0);
        assert_eq!(s.completed, 100);
        assert_conserved(&s);
    }

    #[test]
    fn ring_deadline_expires_stale_frames_without_service() {
        let mut r = ring(1, 10_000, 16, 8);
        let mut rt = RingRuntime::new(
            &mut r,
            RuntimeConfig {
                queue_deadline: Some(100),
                ..RuntimeConfig::default()
            },
        );
        let arrivals: Vec<Cycles> = (0..30).map(|i| i * 50).collect();
        let s = rt.run_open_loop(arrivals, &mut factory());
        assert_conserved(&s);
        assert!(s.shed_deadline > 0, "queued frames must expire");
        assert!(s.completed >= 1);
        assert_eq!(
            s.busy[0],
            s.completed * 10_000,
            "expired frames burn no lane time"
        );
    }

    #[test]
    fn storms_collapse_ring_deadlines_and_settle() {
        use sb_faultplane::{FaultHandle, FaultMix};

        let h = FaultHandle::new(
            0x5708_0002,
            FaultMix::none().with(FaultPoint::DeadlineStorm, 2_500),
        );
        let mut r = ring(1, 1_000, 64, 8);
        let mut rt = RingRuntime::new(
            &mut r,
            RuntimeConfig {
                queue_deadline: Some(1_000_000),
                faults: Some(h.clone()),
                ..RuntimeConfig::default()
            },
        );
        let arrivals: Vec<Cycles> = (0..400).map(|i| i * 250).collect();
        let s = rt.run_open_loop(arrivals, &mut factory());
        assert_conserved(&s);
        assert!(s.shed_deadline > 0, "storm windows must expire stale work");
        assert!(s.completed > 0);
        let rep = h.report();
        assert!(rep.injected() > 0);
        assert_eq!(rep.leaked(), 0, "{rep}");
    }

    #[test]
    fn ring_slo_tracker_sees_every_outcome_class() {
        use sb_sentinel::{SloHandle, SloSpec};

        // One slow lane, a tiny ring, and a queue deadline: the run
        // produces completions, ring-full sheds, and deadline expiries —
        // all of which must land in the tracker.
        let slo = SloHandle::new(SloSpec {
            latency_objective: 1_500,
            ..SloSpec::default()
        });
        let mut r = ring(1, 1_000, 2, 2);
        let mut rt = RingRuntime::new(
            &mut r,
            RuntimeConfig {
                queue_deadline: Some(5_000),
                slo: Some(slo.clone()),
                ..RuntimeConfig::default()
            },
        );
        let arrivals: Vec<Cycles> = (0..100).map(|i| i * 100).collect();
        let s = rt.run_open_loop(arrivals, &mut factory());
        assert_conserved(&s);
        assert!(s.completed > 0 && s.shed_queue_full > 0);
        let h = slo.health();
        assert_eq!(
            h.good + h.bad,
            s.offered,
            "every offered request reaches the tracker: {h:?} vs {s:?}"
        );
        assert!(h.bad >= s.shed(), "sheds are never good");
        assert!(slo.breached(), "sustained ring sheds must breach: {h:?}");
    }

    #[test]
    fn ring_retry_policy_recovers_injected_crashes() {
        use sb_faultplane::{FaultHandle, FaultMix};
        use sb_transport::Faulty;

        use crate::RetryPolicy;

        let h = FaultHandle::new(0xc4a6, FaultMix::none().with(FaultPoint::HandlerPanic, 800));
        let mut r = RingTransport::new(
            Faulty::new(FixedServiceTransport::new(2, 100), h.clone(), 1_000),
            RingConfig {
                capacity: 32,
                batch_budget: 8,
                slot_bytes: 4096,
            },
        );
        let mut rt = RingRuntime::new(
            &mut r,
            RuntimeConfig {
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
            r.recover(l);
        }
        let rep = h.report();
        assert!(rep.injected() > 0, "the mix must actually have fired");
        assert_eq!(rep.leaked(), 0, "{rep}");
    }

    #[test]
    fn ring_retries_fail_fast_without_a_policy() {
        use sb_faultplane::{FaultHandle, FaultMix};
        use sb_transport::Faulty;

        // Crash on (nearly) every call with no retry policy: failures
        // surface directly and the run conserves through `failed`.
        let h = FaultHandle::new(7, FaultMix::none().with(FaultPoint::HandlerPanic, 10_000));
        let mut r = RingTransport::new(
            Faulty::new(FixedServiceTransport::new(1, 100), h.clone(), 1_000),
            RingConfig {
                capacity: 8,
                batch_budget: 4,
                slot_bytes: 4096,
            },
        );
        let mut rt = RingRuntime::new(&mut r, RuntimeConfig::default());
        let s = rt.run_open_loop(vec![0, 500, 1_000], &mut factory());
        assert_eq!(s.completed, 0);
        assert_eq!(s.failed, 3);
        assert_eq!(s.retries, 0);
        assert_conserved(&s);
    }
}
