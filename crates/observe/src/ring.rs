//! Typed trace events, the per-lane event ring, and the [`Recorder`].
//!
//! The recorder is the stack's one emit surface: every instrumented layer
//! (transports, the SkyBridge core, the dispatcher, the fault plane)
//! holds a cheap clone and pushes fixed-size [`Event`]s into per-lane
//! rings. Lanes are the transport's serving lanes — each owns a simulated
//! core, so a lane's events are timestamped by one monotone cycle clock
//! and need no cross-lane ordering. The dispatcher uses one extra lane
//! index (one past the last transport lane) as its own track.
//!
//! The emit path is lock-free in the only sense that matters for the
//! single-threaded simulation: one `enabled` flag read, one `RefCell`
//! borrow, one bounds-checked slot write — no heap traffic once a ring
//! has grown to capacity. A full ring overwrites its oldest events and
//! counts them in [`Recorder::dropped`], so exporters can refuse to
//! present a truncated trace as complete.
//!
//! With the crate's `trace` feature disabled every emit method compiles
//! to an empty inline function.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use sb_sim::Cycles;

use crate::profiler::{LaneSampler, Sample, SampleStats, Sampler, SamplerConfig};

/// Default per-lane ring capacity, in events.
///
/// Sized so the ring's working set stays cache-resident (4,096 events ≈
/// 96 KiB/lane — a few hundred calls of recent history): an always-on
/// flight recorder that cycles a multi-megabyte buffer turns every emit
/// into a cache miss and the tracing tax blows past the overhead budget
/// the `trace_overhead` bench gates on. Deliberate offline captures
/// (e.g. a Perfetto dump of a whole run) should pass a larger capacity
/// to [`Recorder::new`] instead.
pub const DEFAULT_RING_CAPACITY: usize = 1 << 12;

/// A timed section of a call, one of the paper's phases or the
/// dispatcher's wait states. Begin/End pairs of the same kind nest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpanKind {
    /// One whole transport call, entry to reply.
    Call,
    /// Time between a request's arrival and its service start.
    QueueWait,
    /// Client-side trampoline work: fetch, register save/restore,
    /// function-list lookup, return-key recheck.
    Trampoline,
    /// One EPTP switch (`VMFUNC`, including any fault + reinstall).
    Switch,
    /// A real marshalling copy into or out of a message buffer.
    Marshal,
    /// Server-side work: identity, key check, handler body.
    Handler,
    /// A kernel IPC leg (`ipc_call` / `ipc_reply`) on a trap transport.
    KernelIpc,
    /// Idle lane time spent backing off before a retry.
    Backoff,
    /// Time a submitted frame sat in a submission ring before its batch
    /// was drained (ring mode's analogue of `QueueWait`).
    RingWait,
    /// One doorbell drain: the shared crossing that serves a whole batch
    /// in ring mode. Per-entry `Call` spans nest inside it, so its
    /// self-time is exactly the amortized crossing overhead.
    Doorbell,
    /// One `WRPKRU` protection-domain flip on the MPK transport (the
    /// analogue of `Switch` when the crossing changes pkey rights
    /// instead of EPTPs). Nested inside `Call`, so the phase identity
    /// `in_call_total == end_to_end` stays closed.
    Wrpkru,
}

impl SpanKind {
    /// Every span kind, in display order.
    pub const ALL: [SpanKind; 11] = [
        SpanKind::Call,
        SpanKind::QueueWait,
        SpanKind::Trampoline,
        SpanKind::Switch,
        SpanKind::Marshal,
        SpanKind::Handler,
        SpanKind::KernelIpc,
        SpanKind::Backoff,
        SpanKind::RingWait,
        SpanKind::Doorbell,
        SpanKind::Wrpkru,
    ];

    /// Compact stable code (the index in [`SpanKind::ALL`]) — the form
    /// a [`Sample`](crate::profiler::Sample) stores its stack frames in.
    #[inline]
    pub fn code(self) -> u8 {
        // The variants are declared in `ALL` order, so the discriminant
        // is the index (a unit test pins the two together).
        self as u8
    }

    /// Decodes a [`SpanKind::code`] (None for an out-of-range code).
    pub fn from_code(code: u8) -> Option<SpanKind> {
        SpanKind::ALL.get(code as usize).copied()
    }

    /// Stable display name (trace and report keys).
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Call => "call",
            SpanKind::QueueWait => "queue_wait",
            SpanKind::Trampoline => "trampoline",
            SpanKind::Switch => "switch",
            SpanKind::Marshal => "marshal",
            SpanKind::Handler => "handler",
            SpanKind::KernelIpc => "kernel_ipc",
            SpanKind::Backoff => "backoff",
            SpanKind::RingWait => "ring_wait",
            SpanKind::Doorbell => "doorbell",
            SpanKind::Wrpkru => "wrpkru",
        }
    }
}

/// A point event with no duration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InstantKind {
    /// An arrival was admitted into the dispatch queue.
    QueueAdmit,
    /// An arrival was shed because the queue was full.
    ShedQueueFull,
    /// A queued request was dropped past its queue deadline.
    ShedDeadline,
    /// An arrival was shed at the tenant admission gate (rate limit or
    /// quarantine window).
    ShedRateLimit,
    /// A failed call is about to be re-attempted.
    Retry,
    /// A transport recovery (revive/rebind/respawn) succeeded.
    Recovery,
}

impl InstantKind {
    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            InstantKind::QueueAdmit => "queue_admit",
            InstantKind::ShedQueueFull => "shed_queue_full",
            InstantKind::ShedDeadline => "shed_deadline",
            InstantKind::ShedRateLimit => "shed_rate_limit",
            InstantKind::Retry => "retry",
            InstantKind::Recovery => "recovery",
        }
    }
}

/// Lifecycle stage of an injected fault, mirroring the fault-plane
/// ledger's transitions. The chaos suite's two-source check compares the
/// per-stage counts against the ledger's roll-up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultStage {
    /// The fault fired (an instance opened in the ledger).
    Fired,
    /// The instance was rescinded — it never actually misbehaved.
    Rescinded,
    /// The system observed the fault.
    Detected,
    /// A recovery path resolved the fault.
    Recovered,
}

impl FaultStage {
    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            FaultStage::Fired => "fired",
            FaultStage::Rescinded => "rescinded",
            FaultStage::Detected => "detected",
            FaultStage::Recovered => "recovered",
        }
    }
}

/// What an [`Event`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A span of `SpanKind` opened.
    Begin(SpanKind),
    /// The innermost open span of `SpanKind` closed.
    End(SpanKind),
    /// A point event.
    Instant(InstantKind),
    /// A completed **leaf** section recorded post-hoc as one event: it
    /// starts at [`Event::t`], runs `dur` cycles, and contains no child
    /// spans. [`Recorder::span`] emits this — one ring slot instead of a
    /// Begin/End pair, halving the hot path's ring traffic.
    Complete(SpanKind, u32),
}

/// One fixed-size trace event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Lane-clock timestamp in simulated cycles.
    pub t: Cycles,
    /// Correlation id — the request id for call-path events, zero where
    /// no request is in scope.
    pub corr: u64,
    /// What happened.
    pub kind: EventKind,
}

/// One fault-plane transition on the global track.
///
/// Kept as its own (wider) record so lane [`Event`]s stay small: fault
/// transitions are rare, call-path events are the hot ring traffic, and
/// a `&'static str` payload in [`EventKind`] would double every lane
/// event's footprint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// Monotone sequence number (fault events have no lane clock).
    pub seq: u64,
    /// The lifecycle stage.
    pub stage: FaultStage,
    /// The fault point's stable name.
    pub point: &'static str,
}

/// A fixed-capacity overwrite-oldest ring of events.
///
/// The backing storage grows on demand up to `capacity` and is then
/// reused forever; a push into a full ring overwrites the oldest event
/// and counts it as dropped.
#[derive(Debug)]
pub struct EventRing<T = Event> {
    buf: Vec<T>,
    capacity: usize,
    /// Next overwrite slot once the ring is full — the oldest held
    /// event. Kept as an explicit wrapping index so the hot push never
    /// divides.
    head: usize,
    /// Total events ever pushed.
    pushed: u64,
}

impl<T: Copy> EventRing<T> {
    /// An empty ring bounded at `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "a ring needs at least one slot");
        EventRing {
            buf: Vec::new(),
            capacity,
            head: 0,
            pushed: 0,
        }
    }

    /// Appends `ev`, overwriting the oldest event when full.
    #[inline]
    pub fn push(&mut self, ev: T) {
        if self.buf.len() < self.capacity {
            self.buf.push(ev);
        } else {
            self.buf[self.head] = ev;
            self.head += 1;
            if self.head == self.capacity {
                self.head = 0;
            }
        }
        self.pushed += 1;
    }

    /// Events currently held (≤ capacity).
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been pushed.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Total events ever pushed.
    pub fn pushed(&self) -> u64 {
        self.pushed
    }

    /// Events lost to overwrite.
    pub fn dropped(&self) -> u64 {
        self.pushed - self.buf.len() as u64
    }

    /// The held events, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        let start = if self.buf.len() < self.capacity {
            0
        } else {
            self.head
        };
        self.buf[start..].iter().chain(self.buf[..start].iter())
    }
}

/// Per-stage fault-event totals, maintained as live counters so they
/// survive ring overwrite (the two-source chaos check depends on that).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounts {
    /// Fault instances fired.
    pub fired: u64,
    /// Instances rescinded (never actually misbehaved).
    pub rescinded: u64,
    /// Instances detected.
    pub detected: u64,
    /// Instances recovered.
    pub recovered: u64,
}

impl FaultCounts {
    /// Instances that really happened: fired minus rescinded — the
    /// trace-side mirror of the ledger's `injected` total.
    pub fn injected(&self) -> u64 {
        self.fired - self.rescinded
    }
}

/// One lane's recording state: its event ring and its sampler half.
/// Keeping them in the same slot means the emit hot path pays one
/// borrow and one bounds check for both.
#[derive(Debug)]
struct LaneTrack {
    ring: EventRing,
    samp: LaneSampler,
}

impl LaneTrack {
    fn new(capacity: usize) -> Self {
        LaneTrack {
            ring: EventRing::new(capacity),
            samp: LaneSampler::default(),
        }
    }
}

#[derive(Debug)]
struct Inner {
    enabled: Cell<bool>,
    capacity: usize,
    lanes: RefCell<Vec<LaneTrack>>,
    global: RefCell<EventRing<FaultEvent>>,
    fault_seq: Cell<u64>,
    faults: Cell<FaultCounts>,
    /// Fast flag mirroring `sampler.is_some()` so the emit hot path
    /// skips the `RefCell` borrow when sampling is off.
    sampling: Cell<bool>,
    sampler: RefCell<Option<Sampler>>,
    /// Events removed by [`Recorder::take_lane_events`] and the drops
    /// they had already suffered — folded back into
    /// [`Recorder::recorded`] / [`Recorder::dropped`] so a chunked
    /// harvest keeps exact loss accounting.
    drained_events: Cell<u64>,
    drained_dropped: Cell<u64>,
}

/// The shared recorder handle every instrumented layer holds.
///
/// Cloning is an `Rc` bump; a clone records into the same rings. The
/// default recorder is **off**: emit methods return after one flag read
/// and nothing is ever allocated, so uninstrumented runs pay (almost)
/// nothing and a disabled-but-attached recorder is the overhead bench's
/// "disabled" mode.
#[derive(Debug, Clone)]
pub struct Recorder {
    inner: Rc<Inner>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::off()
    }
}

impl Recorder {
    /// An enabled recorder with `capacity` events per lane ring.
    pub fn new(capacity: usize) -> Self {
        Recorder::with_state(capacity, true)
    }

    /// A disabled recorder (the no-cost default every config starts
    /// with); [`Recorder::set_enabled`] can turn it on later.
    pub fn off() -> Self {
        Recorder::with_state(DEFAULT_RING_CAPACITY, false)
    }

    fn with_state(capacity: usize, enabled: bool) -> Self {
        Recorder {
            inner: Rc::new(Inner {
                enabled: Cell::new(enabled),
                capacity: capacity.max(1),
                lanes: RefCell::new(Vec::new()),
                global: RefCell::new(EventRing::new(capacity.max(1))),
                fault_seq: Cell::new(0),
                faults: Cell::new(FaultCounts::default()),
                sampling: Cell::new(false),
                sampler: RefCell::new(None),
                drained_events: Cell::new(0),
                drained_dropped: Cell::new(0),
            }),
        }
    }

    /// Whether emit calls record anything right now.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        #[cfg(feature = "trace")]
        {
            self.inner.enabled.get()
        }
        #[cfg(not(feature = "trace"))]
        {
            false
        }
    }

    /// Turns recording on or off at runtime (a no-op without the
    /// `trace` feature).
    pub fn set_enabled(&self, on: bool) {
        self.inner.enabled.set(on);
    }

    /// The per-lane ring capacity, in events.
    pub fn capacity(&self) -> usize {
        self.inner.capacity
    }

    /// The one funnel every emit site calls: the enabled check inlines
    /// into the site, so an off recorder costs one flag read and no call.
    #[cfg(feature = "trace")]
    #[inline]
    fn emit(&self, lane: usize, t: Cycles, corr: u64, kind: EventKind) {
        if self.inner.enabled.get() {
            self.record(lane, t, corr, kind);
        }
    }

    /// The recording half of [`Recorder::emit`], kept out of line:
    /// inlined into the emit sites, its body bloats the simulator's hot
    /// paths. The event arrives as scalars and is assembled here, so it
    /// reaches the ring from registers rather than through a
    /// caller-built stack copy, whose wide reload stalls on the narrow
    /// stores that built it.
    #[cfg(feature = "trace")]
    #[inline(never)]
    fn record(&self, lane: usize, t: Cycles, corr: u64, kind: EventKind) {
        let ev = Event { t, corr, kind };
        let mut lanes = self.inner.lanes.borrow_mut();
        if lanes.len() <= lane {
            let cap = self.inner.capacity;
            lanes.resize_with(lane + 1, || LaneTrack::new(cap));
        }
        let track = &mut lanes[lane];
        track.ring.push(ev);
        // The sampler rides the same funnel: it sees every event in
        // emit order, independently of event-ring overwrite (a sample
        // is taken even if the event it derives from is later lost).
        // Its per-lane state sits in the track borrowed above, so the
        // common no-grid-point case never touches the sampler cell.
        if self.inner.sampling.get() {
            crate::profiler::drive(&self.inner.sampler, lane, &mut track.samp, &ev);
        }
    }

    /// Opens a span of `kind` on `lane` at lane-clock `t`.
    #[inline]
    pub fn begin(&self, lane: usize, kind: SpanKind, t: Cycles, corr: u64) {
        #[cfg(feature = "trace")]
        self.emit(lane, t, corr, EventKind::Begin(kind));
        #[cfg(not(feature = "trace"))]
        let _ = (lane, kind, t, corr);
    }

    /// Closes the innermost open span of `kind` on `lane` at `t`.
    #[inline]
    pub fn end(&self, lane: usize, kind: SpanKind, t: Cycles, corr: u64) {
        #[cfg(feature = "trace")]
        self.emit(lane, t, corr, EventKind::End(kind));
        #[cfg(not(feature = "trace"))]
        let _ = (lane, kind, t, corr);
    }

    /// Records a completed **leaf** section as one [`EventKind::Complete`]
    /// event — the instrumentation pattern for sections with early-error
    /// exits: measure first, emit once the section's extent is known, so
    /// a `?` in the middle can never leave a span unclosed. A backwards
    /// `t1` clamps to a zero-length span; durations saturate at `u32::MAX`
    /// cycles (≈ one simulated second — far beyond any section).
    #[inline]
    pub fn span(&self, lane: usize, kind: SpanKind, t0: Cycles, t1: Cycles, corr: u64) {
        #[cfg(feature = "trace")]
        {
            let dur = t1.saturating_sub(t0).min(u32::MAX as Cycles) as u32;
            self.emit(lane, t0, corr, EventKind::Complete(kind, dur));
        }
        #[cfg(not(feature = "trace"))]
        let _ = (lane, kind, t0, t1, corr);
    }

    /// Records a point event on `lane` at `t`.
    #[inline]
    pub fn instant(&self, lane: usize, kind: InstantKind, t: Cycles, corr: u64) {
        #[cfg(feature = "trace")]
        self.emit(lane, t, corr, EventKind::Instant(kind));
        #[cfg(not(feature = "trace"))]
        let _ = (lane, kind, t, corr);
    }

    /// Records a fault-plane transition on the global track. `point` is
    /// the fault point's stable name; the timestamp is a monotone
    /// sequence number (fault events have no lane clock).
    pub fn fault(&self, point: &'static str, stage: FaultStage) {
        #[cfg(feature = "trace")]
        {
            if !self.inner.enabled.get() {
                return;
            }
            let mut c = self.inner.faults.get();
            match stage {
                FaultStage::Fired => c.fired += 1,
                FaultStage::Rescinded => c.rescinded += 1,
                FaultStage::Detected => c.detected += 1,
                FaultStage::Recovered => c.recovered += 1,
            }
            self.inner.faults.set(c);
            let seq = self.inner.fault_seq.get();
            self.inner.fault_seq.set(seq + 1);
            self.inner
                .global
                .borrow_mut()
                .push(FaultEvent { seq, stage, point });
        }
        #[cfg(not(feature = "trace"))]
        let _ = (point, stage);
    }

    /// Live per-stage fault totals (immune to ring overwrite).
    pub fn fault_counts(&self) -> FaultCounts {
        self.inner.faults.get()
    }

    /// Arms the cycle-sampling profiler: from now on every emitted
    /// event also drives the per-lane sampler, which records the live
    /// span stack at every `config.period` cycles of lane time. The
    /// recorder must be enabled for samples to be taken (sampling rides
    /// the emit funnel). A no-op without the `trace` feature.
    pub fn enable_sampling(&self, config: SamplerConfig) {
        #[cfg(feature = "trace")]
        {
            *self.inner.sampler.borrow_mut() = Some(Sampler::new(config));
            self.inner.sampling.set(true);
        }
        #[cfg(not(feature = "trace"))]
        let _ = config;
    }

    /// Whether a sampler is armed.
    pub fn sampling_enabled(&self) -> bool {
        self.inner.sampling.get()
    }

    /// The sampler's backend label (empty when sampling is off).
    pub fn sampler_backend(&self) -> String {
        self.inner
            .sampler
            .borrow()
            .as_ref()
            .map(|s| s.backend().to_string())
            .unwrap_or_default()
    }

    /// Notes the tenant lane `lane` is currently serving; subsequent
    /// samples on that lane carry it. Costs one flag read when sampling
    /// is off — cheap enough for every transport call path.
    #[inline]
    pub fn note_tenant(&self, lane: usize, tenant: u16) {
        #[cfg(feature = "trace")]
        {
            if !self.inner.sampling.get() || !self.inner.enabled.get() {
                return;
            }
            let mut lanes = self.inner.lanes.borrow_mut();
            if lanes.len() <= lane {
                let cap = self.inner.capacity;
                lanes.resize_with(lane + 1, || LaneTrack::new(cap));
            }
            lanes[lane].samp.tenant = tenant;
        }
        #[cfg(not(feature = "trace"))]
        let _ = (lane, tenant);
    }

    /// The samples currently held, oldest first (empty when sampling is
    /// off).
    pub fn samples(&self) -> Vec<Sample> {
        self.inner
            .sampler
            .borrow()
            .as_ref()
            .map(Sampler::samples)
            .unwrap_or_default()
    }

    /// Drains the sample ring (for chunked harvests over long runs);
    /// [`Recorder::sample_stats`] accounting survives the drain.
    pub fn drain_samples(&self) -> Vec<Sample> {
        self.inner
            .sampler
            .borrow_mut()
            .as_mut()
            .map(Sampler::drain)
            .unwrap_or_default()
    }

    /// Exact sampler accounting (zeroes when sampling is off).
    pub fn sample_stats(&self) -> SampleStats {
        let broken = self
            .inner
            .lanes
            .borrow()
            .iter()
            .map(|t| t.samp.broken_events)
            .sum();
        self.inner
            .sampler
            .borrow()
            .as_ref()
            .map(|s| s.stats(broken))
            .unwrap_or_default()
    }

    /// Drains every lane's event ring, returning the held events per
    /// lane (oldest first) — the chunked-capture primitive: harvest and
    /// fold into a [`PhaseProfile`](crate::phase::PhaseProfile) before
    /// the ring wraps, and an arbitrarily long run gets an exact
    /// profile from bounded memory. [`Recorder::recorded`] and
    /// [`Recorder::dropped`] keep counting across the drain.
    pub fn take_lane_events(&self) -> Vec<Vec<Event>> {
        let mut lanes = self.inner.lanes.borrow_mut();
        let cap = self.inner.capacity;
        let mut out = Vec::with_capacity(lanes.len());
        for track in lanes.iter_mut() {
            self.inner
                .drained_events
                .set(self.inner.drained_events.get() + track.ring.pushed());
            self.inner
                .drained_dropped
                .set(self.inner.drained_dropped.get() + track.ring.dropped());
            let drained = std::mem::replace(&mut track.ring, EventRing::new(cap));
            out.push(drained.iter().copied().collect());
        }
        out
    }

    /// Number of lane tracks that have recorded at least one event.
    pub fn lane_count(&self) -> usize {
        self.inner.lanes.borrow().len()
    }

    /// Lane `lane`'s held events, oldest first (empty for an unused
    /// lane).
    pub fn events(&self, lane: usize) -> Vec<Event> {
        let lanes = self.inner.lanes.borrow();
        match lanes.get(lane) {
            Some(t) => t.ring.iter().copied().collect(),
            None => Vec::new(),
        }
    }

    /// The global (fault) track's held events, oldest first.
    pub fn global_events(&self) -> Vec<FaultEvent> {
        self.inner.global.borrow().iter().copied().collect()
    }

    /// Events lane `lane` alone lost to ring overwrite (0 for an unused
    /// lane). Assemblers use this to tell *which* track was truncated,
    /// not just that some track was.
    pub fn lane_dropped(&self, lane: usize) -> u64 {
        self.inner
            .lanes
            .borrow()
            .get(lane)
            .map_or(0, |t| t.ring.dropped())
    }

    /// Total events lost to ring overwrite, across every track
    /// (including tracks already harvested by
    /// [`Recorder::take_lane_events`]).
    pub fn dropped(&self) -> u64 {
        let lanes = self.inner.lanes.borrow();
        lanes.iter().map(|t| t.ring.dropped()).sum::<u64>()
            + self.inner.global.borrow().dropped()
            + self.inner.drained_dropped.get()
    }

    /// Total events ever recorded, across every track (including
    /// events already harvested by [`Recorder::take_lane_events`]).
    pub fn recorded(&self) -> u64 {
        let lanes = self.inner.lanes.borrow();
        lanes.iter().map(|t| t.ring.pushed()).sum::<u64>()
            + self.inner.global.borrow().pushed()
            + self.inner.drained_events.get()
    }

    /// Empties every track and zeroes the drop/fault/sample
    /// accounting; the enabled flag and the sampler configuration are
    /// untouched.
    pub fn clear(&self) {
        self.inner.lanes.borrow_mut().clear();
        *self.inner.global.borrow_mut() = EventRing::new(self.inner.capacity);
        self.inner.fault_seq.set(0);
        self.inner.faults.set(FaultCounts::default());
        self.inner.drained_events.set(0);
        self.inner.drained_dropped.set(0);
        if let Some(s) = self.inner.sampler.borrow_mut().as_mut() {
            s.reset();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(t: Cycles) -> Event {
        Event {
            t,
            corr: t,
            kind: EventKind::Instant(InstantKind::QueueAdmit),
        }
    }

    #[test]
    fn event_stays_within_its_footprint_budget() {
        // The default ring's cache-residency math (and DESIGN.md §12)
        // assumes 24-byte lane events; growing Event silently would
        // inflate every ring's working set.
        assert!(std::mem::size_of::<Event>() <= 24);
        assert!(std::mem::size_of::<FaultEvent>() <= 32);
    }

    #[test]
    fn span_codes_are_indices_into_all() {
        for (i, &kind) in SpanKind::ALL.iter().enumerate() {
            assert_eq!(kind.code() as usize, i, "{kind:?}");
            assert_eq!(SpanKind::from_code(kind.code()), Some(kind));
        }
    }

    #[test]
    fn ring_grows_then_wraps_overwriting_oldest() {
        let mut r = EventRing::new(4);
        for t in 0..4 {
            r.push(ev(t));
        }
        assert_eq!(r.len(), 4);
        assert_eq!(r.dropped(), 0);
        let held: Vec<Cycles> = r.iter().map(|e| e.t).collect();
        assert_eq!(held, vec![0, 1, 2, 3]);

        r.push(ev(4));
        r.push(ev(5));
        assert_eq!(r.len(), 4, "capacity is a hard bound");
        assert_eq!(r.dropped(), 2, "the two oldest were overwritten");
        let held: Vec<Cycles> = r.iter().map(|e| e.t).collect();
        assert_eq!(held, vec![2, 3, 4, 5], "oldest-first across the wrap");
    }

    #[test]
    fn ring_iterates_in_push_order_at_every_fill_level() {
        for n in 0..12u64 {
            let mut r = EventRing::new(5);
            for t in 0..n {
                r.push(ev(t));
            }
            let held: Vec<Cycles> = r.iter().map(|e| e.t).collect();
            let expect: Vec<Cycles> = (n.saturating_sub(5)..n).collect();
            assert_eq!(held, expect, "fill level {n}");
            assert_eq!(r.pushed(), n);
        }
    }

    #[test]
    fn disabled_recorder_records_nothing_and_allocates_nothing() {
        let r = Recorder::off();
        r.begin(0, SpanKind::Call, 10, 1);
        r.end(0, SpanKind::Call, 20, 1);
        r.span(1, SpanKind::Handler, 5, 9, 2);
        r.instant(2, InstantKind::Retry, 7, 3);
        r.fault("handler_panic", FaultStage::Fired);
        assert_eq!(r.lane_count(), 0, "no ring was ever created");
        assert_eq!(r.recorded(), 0);
        assert_eq!(r.fault_counts(), FaultCounts::default());
    }

    #[cfg(feature = "trace")]
    #[test]
    fn enable_toggle_gates_emission() {
        let r = Recorder::off();
        r.set_enabled(true);
        r.span(0, SpanKind::Call, 0, 5, 1);
        r.set_enabled(false);
        r.span(0, SpanKind::Call, 6, 9, 2);
        assert_eq!(r.events(0).len(), 1, "only the enabled window recorded");
    }

    #[cfg(feature = "trace")]
    #[test]
    fn span_emits_one_complete_event_and_clamps_backwards_time() {
        let r = Recorder::new(8);
        r.span(0, SpanKind::Marshal, 100, 90, 7);
        let evs = r.events(0);
        assert_eq!(evs.len(), 1, "a leaf section costs one ring slot");
        assert_eq!(evs[0].t, 100);
        assert_eq!(
            evs[0].kind,
            EventKind::Complete(SpanKind::Marshal, 0),
            "a backwards end clamps to a zero-length span"
        );
    }

    #[cfg(feature = "trace")]
    #[test]
    fn fault_counts_survive_ring_overwrite() {
        let r = Recorder::new(2);
        for _ in 0..10 {
            r.fault("torn_write", FaultStage::Fired);
            r.fault("torn_write", FaultStage::Recovered);
        }
        assert_eq!(r.global_events().len(), 2, "ring holds only the newest");
        assert!(r.dropped() > 0);
        let c = r.fault_counts();
        assert_eq!((c.fired, c.recovered), (10, 10), "counters never drop");
        assert_eq!(c.injected(), 10);
    }

    #[cfg(feature = "trace")]
    #[test]
    fn clones_share_rings_and_clear_resets() {
        let r = Recorder::new(8);
        let r2 = r.clone();
        r2.span(3, SpanKind::Backoff, 0, 4, 1);
        assert_eq!(r.events(3).len(), 1, "clones record into the same rings");
        assert_eq!(r.lane_count(), 4);
        r.clear();
        assert_eq!(r.recorded(), 0);
        assert!(r.is_enabled(), "clear keeps the enabled flag");
    }
}
