//! The serving core under both queue disciplines.
//!
//! [`crate::ServerRuntime`] (one shared dispatch queue, earliest-free
//! lane) and [`crate::RingRuntime`] (per-lane submission rings, adaptive
//! doorbell) differ only in *where* an admitted request waits and *when*
//! it is served. Everything else a request meets on its way through is
//! the same, and lives here once: the tenant gate, injected deadline
//! storms and the queue deadline they collapse, recover-then-backoff
//! retries, outcome accounting into [`RunStats`], the SLO tracker and
//! the [`TenantFabric`], and the open/close of a run.

use sb_faultplane::FaultPoint;
use sb_observe::{InstantKind, SpanKind};
use sb_sim::Cycles;
use sb_transport::{CallError, Request, Transport};

use crate::{
    dispatch::RuntimeConfig,
    stats::RunStats,
    tenant::{Gate, TenantFabric, TenantRegistry},
};

/// Longest injected deadline-storm window, in cycles.
const STORM_WINDOW_MAX: Cycles = 20_000;

/// How one offered request left the server.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Outcome {
    /// Served; latency runs from arrival to the recorded instant.
    Completed,
    /// Refused at a full queue (or ring).
    ShedQueueFull,
    /// Refused at the tenant gate (rate limit or quarantine).
    ShedRateLimit,
    /// Expired on the given lane before service started.
    ShedDeadline(usize),
    /// The handler overran the per-call DoS budget.
    TimedOut,
    /// Any other call failure.
    Failed,
}

impl Outcome {
    /// The outcome a call error settles as once retries are exhausted.
    pub(crate) fn of(e: &CallError) -> Self {
        match e {
            CallError::Timeout { .. } => Outcome::TimedOut,
            CallError::Failed(_) | CallError::CorrMismatch { .. } => Outcome::Failed,
        }
    }
}

/// The latest lane clock.
fn latest<T: Transport + ?Sized>(tr: &mut T) -> Cycles {
    (0..tr.lanes()).map(|l| tr.now(l)).max().unwrap_or(0)
}

/// Configuration, tenant fabric and storm windows shared by a runtime's
/// runs.
pub(crate) struct Core {
    pub(crate) cfg: RuntimeConfig,
    /// Lives on the runtime (not the run) so per-tenant SLO state and
    /// the action log persist across runs.
    pub(crate) fabric: TenantFabric,
    /// Active/past injected deadline storms as `[start, end]` windows of
    /// arrival time: requests arriving inside one see their queue
    /// deadline collapse to zero.
    storms: Vec<(Cycles, Cycles)>,
    /// The pseudo-lane queue-side instants land on (`lanes()`: the queue
    /// has no core of its own).
    pub(crate) queue_lane: usize,
    /// The transport's copy meter when the current run began.
    copied_at_start: u64,
}

impl Core {
    /// Binds `cfg` to `tr`, handing the configured recorder down so
    /// call-path spans and runtime events land in the same trace. With
    /// no tenant registry configured, one tenant holds `capacity`
    /// queued requests under `cfg.policy`.
    pub(crate) fn new<T: Transport + ?Sized>(
        tr: &mut T,
        cfg: RuntimeConfig,
        capacity: usize,
    ) -> Self {
        assert!(tr.lanes() > 0);
        tr.attach_recorder(cfg.recorder.clone());
        let registry = cfg
            .tenants
            .clone()
            .unwrap_or_else(|| TenantRegistry::single(capacity, cfg.policy));
        Core {
            cfg,
            fabric: TenantFabric::new(registry),
            storms: Vec::new(),
            queue_lane: tr.lanes(),
            copied_at_start: 0,
        }
    }

    /// Opens a run: an empty record, and the instant the server is ready
    /// (the latest lane clock). Transport setup (boot, registration,
    /// binary rewriting) runs on the same simulated cores that serve
    /// requests, so arrival times are offsets from this epoch, not from
    /// machine power-on.
    pub(crate) fn begin<T: Transport + ?Sized>(&mut self, tr: &mut T) -> (RunStats, Cycles) {
        self.copied_at_start = tr.bytes_copied();
        (RunStats::new(tr.label(), tr.lanes()), latest(tr))
    }

    /// Counts an arrival and, at its instant, maybe starts a deadline
    /// storm. A storm is detected the moment it starts (the collapsed
    /// deadline is the runtime's own machinery) and recovered at
    /// [`Core::finish`], once the final drain has flushed every stale
    /// request.
    pub(crate) fn offer(&mut self, stats: &mut RunStats, req: &Request) {
        stats.offered += 1;
        stats.tenant_mut(req.tenant).offered += 1;
        let t = req.arrival;
        let Some(f) = &self.cfg.faults else { return };
        if self.in_storm(t) {
            return; // One storm at a time.
        }
        if f.fire(FaultPoint::DeadlineStorm) {
            let len = 1 + f.draw(STORM_WINDOW_MAX);
            f.detected(FaultPoint::DeadlineStorm);
            self.storms.push((t, t.saturating_add(len)));
        }
    }

    fn in_storm(&self, t: Cycles) -> bool {
        self.storms.iter().any(|&(s, e)| t >= s && t <= e)
    }

    /// Passes `req` through its tenant's rate limit and quarantine
    /// window; a refused arrival is recorded as shed and `false`
    /// returned.
    pub(crate) fn gate(&mut self, stats: &mut RunStats, req: &Request) -> bool {
        if self.fabric.gate(req.tenant, req.arrival) == Gate::Admit {
            return true;
        }
        self.record(stats, Outcome::ShedRateLimit, req, req.arrival);
        false
    }

    /// The queue deadline in force for an arrival at `arrival`: zero
    /// inside a storm window.
    pub(crate) fn deadline(&self, arrival: Cycles) -> Option<Cycles> {
        if self.in_storm(arrival) {
            return Some(0);
        }
        self.cfg.queue_deadline
    }

    /// Re-attempts a failed call may make (zero without a policy).
    pub(crate) fn max_retries(&self) -> u32 {
        self.cfg.retry.as_ref().map_or(0, |p| p.max_retries)
    }

    /// Readies lane `l` for re-attempt `attempt` of request `id` after
    /// error `e`. A failure (crashed server, broken binding) first runs
    /// the transport's recovery path (revive + rebind / respawn); a
    /// correlation mismatch means the lane holds a stale reply, so it
    /// takes the same route. Then the lane idles out an exponential
    /// backoff. Callers check [`Core::max_retries`] first.
    pub(crate) fn retry<T: Transport + ?Sized>(
        &self,
        tr: &mut T,
        l: usize,
        e: &CallError,
        attempt: u32,
        id: u64,
        stats: &mut RunStats,
    ) {
        let rec = &self.cfg.recorder;
        if matches!(e, CallError::Failed(_) | CallError::CorrMismatch { .. }) && tr.recover(l) {
            stats.recoveries += 1;
            rec.instant(l, InstantKind::Recovery, tr.now(l), id);
        }
        let backoff = self.cfg.retry.as_ref().map_or(0, |p| p.backoff_base) << attempt.min(32);
        let t = tr.now(l);
        tr.wait_until(l, t.saturating_add(backoff));
        let woke = tr.now(l);
        rec.span(l, SpanKind::Backoff, t, woke, id);
        rec.instant(l, InstantKind::Retry, woke, id);
        stats.retries += 1;
    }

    /// Settles `req` as `outcome` at instant `t`: run and tenant
    /// counters, latency, the SLO tracker and the fabric, plus a trace
    /// instant for sheds.
    pub(crate) fn record(
        &mut self,
        stats: &mut RunStats,
        outcome: Outcome,
        req: &Request,
        t: Cycles,
    ) {
        let ts = stats.tenants.entry(req.tenant).or_default();
        let shed = match outcome {
            Outcome::Completed => {
                let latency = t - req.arrival;
                stats.completed += 1;
                stats.latencies.push_tagged(latency, req.id);
                ts.completed += 1;
                ts.latencies.push_tagged(latency, req.id);
                if let Some(slo) = &self.cfg.slo {
                    slo.complete(t, latency);
                }
                self.fabric.complete(req.tenant, t, latency);
                return;
            }
            Outcome::ShedQueueFull => {
                stats.shed_queue_full += 1;
                ts.shed_queue_full += 1;
                Some((self.queue_lane, InstantKind::ShedQueueFull))
            }
            Outcome::ShedRateLimit => {
                stats.shed_rate_limit += 1;
                ts.shed_rate_limit += 1;
                Some((self.queue_lane, InstantKind::ShedRateLimit))
            }
            Outcome::ShedDeadline(l) => {
                stats.shed_deadline += 1;
                ts.shed_deadline += 1;
                Some((l, InstantKind::ShedDeadline))
            }
            Outcome::TimedOut => {
                stats.timed_out += 1;
                ts.timed_out += 1;
                None
            }
            Outcome::Failed => {
                stats.failed += 1;
                ts.failed += 1;
                None
            }
        };
        if let Some((l, kind)) = shed {
            self.cfg.recorder.instant(l, kind, t, req.id);
        }
        if let Some(slo) = &self.cfg.slo {
            slo.error(t);
        }
        self.fabric.error(req.tenant, t);
    }

    /// Closes a run whose queues have drained: every storm window has
    /// passed, so outstanding storm instances are recovered; the record
    /// gets its window and copy count, trackers tick to the end, and
    /// latencies are sealed.
    pub(crate) fn finish<T: Transport + ?Sized>(
        &mut self,
        tr: &mut T,
        mut stats: RunStats,
        start: Cycles,
    ) -> RunStats {
        if let Some(f) = &self.cfg.faults {
            if !self.storms.is_empty() {
                f.recover_all(FaultPoint::DeadlineStorm);
            }
        }
        self.storms.clear();
        stats.start = start;
        stats.end = latest(tr);
        stats.bytes_copied = tr.bytes_copied() - self.copied_at_start;
        if let Some(slo) = &self.cfg.slo {
            slo.tick(stats.end);
        }
        self.fabric.tick(stats.end);
        stats.seal();
        stats
    }
}
