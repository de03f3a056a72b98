//! The benchmark's timing/counting [`Transport`] decorator.
//!
//! [`Timed`] wraps any transport and forwards every trait method to it.
//! Around `call` and `call_batch` it reads the host clock, the lane's
//! simulated clock, the machine PMU and the copy meter, and adds the
//! differences to a shared [`Tally`]. Reading those never advances a
//! simulated clock or a counter, so a wrapped transport serves the same
//! cycles, PMU events and reply bytes as a bare one (the `decorator`
//! test checks this on all five personalities).

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use sb_observe::Recorder;
use sb_sim::{Cycles, Pmu};
use sb_transport::{BatchComplete, CallError, Request, Transport};

/// What one decorated transport did, summed over every call through it.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    /// `call` invocations.
    pub calls: u64,
    /// `call_batch` invocations.
    pub batches: u64,
    /// Requests served: one per `call`, the consumed entries of each batch.
    pub entries: u64,
    /// Entries that came back as an error.
    pub errors: u64,
    /// Host nanoseconds spent inside the wrapped transport.
    pub host_ns: u64,
    /// Simulated cycles the serving lane advanced inside it.
    pub cycles: Cycles,
    /// Machine PMU events counted inside it.
    pub pmu: Pmu,
    /// Marshalling bytes the wrapped transport copied.
    pub bytes: u64,
}

impl Tally {
    /// Adds `other` into this tally.
    pub fn absorb(&mut self, other: &Tally) {
        self.calls += other.calls;
        self.batches += other.batches;
        self.entries += other.entries;
        self.errors += other.errors;
        self.host_ns += other.host_ns;
        self.cycles += other.cycles;
        self.pmu = self.pmu.merge(&other.pmu);
        self.bytes += other.bytes;
    }
}

/// A shared handle on a [`Tally`]: the decorator writes it, the
/// benchmark reads it after the transport has been moved elsewhere (into
/// a ring, a graph, a dispatcher).
pub type TallyHandle = Rc<RefCell<Tally>>;

/// The readings taken just before a wrapped call.
struct Mark {
    at: Instant,
    cycles: Cycles,
    pmu: Option<Pmu>,
    bytes: u64,
}

/// The timing/counting decorator.
pub struct Timed<T> {
    inner: T,
    tally: TallyHandle,
}

impl<T: Transport> Timed<T> {
    /// Wraps `inner`, counting into a fresh tally.
    pub fn new(inner: T) -> Self {
        Timed {
            inner,
            tally: TallyHandle::default(),
        }
    }

    /// The tally this decorator counts into.
    pub fn tally(&self) -> TallyHandle {
        self.tally.clone()
    }

    /// The wrapped transport, mutably.
    pub fn inner_mut(&mut self) -> &mut T {
        &mut self.inner
    }

    fn mark(&mut self, lane: usize) -> Mark {
        let cycles = self.inner.now(lane);
        let pmu = self.inner.pmu();
        let bytes = self.inner.bytes_copied();
        Mark {
            // Start the host clock last so the reads above stay outside it.
            at: Instant::now(),
            cycles,
            pmu,
            bytes,
        }
    }

    fn settle(&mut self, lane: usize, mark: Mark) -> Tally {
        let host_ns = mark.at.elapsed().as_nanos() as u64;
        let cycles = self.inner.now(lane).saturating_sub(mark.cycles);
        let pmu = match (self.inner.pmu(), mark.pmu) {
            (Some(after), Some(before)) => after.delta(&before),
            _ => Pmu::default(),
        };
        let bytes = self.inner.bytes_copied() - mark.bytes;
        Tally {
            host_ns,
            cycles,
            pmu,
            bytes,
            ..Tally::default()
        }
    }
}

impl<T: Transport> Transport for Timed<T> {
    fn label(&self) -> &str {
        self.inner.label()
    }

    fn lanes(&self) -> usize {
        self.inner.lanes()
    }

    fn now(&mut self, lane: usize) -> Cycles {
        self.inner.now(lane)
    }

    fn wait_until(&mut self, lane: usize, time: Cycles) {
        self.inner.wait_until(lane, time)
    }

    fn bind(&mut self, lane: usize) -> bool {
        self.inner.bind(lane)
    }

    fn call(&mut self, lane: usize, req: &Request) -> Result<usize, CallError> {
        let mark = self.mark(lane);
        let out = self.inner.call(lane, req);
        let mut t = self.settle(lane, mark);
        t.calls = 1;
        t.entries = 1;
        t.errors = out.is_err() as u64;
        self.tally.borrow_mut().absorb(&t);
        out
    }

    fn reply(&self, lane: usize) -> &[u8] {
        self.inner.reply(lane)
    }

    fn call_batch(&mut self, lane: usize, reqs: &[Request], complete: &mut BatchComplete) -> usize {
        let mut errors = 0u64;
        let mark = self.mark(lane);
        let consumed = self.inner.call_batch(lane, reqs, &mut |i, out, reply| {
            errors += out.is_err() as u64;
            complete(i, out, reply)
        });
        let mut t = self.settle(lane, mark);
        t.batches = 1;
        t.entries = consumed as u64;
        t.errors = errors;
        self.tally.borrow_mut().absorb(&t);
        consumed
    }

    fn recover(&mut self, lane: usize) -> bool {
        self.inner.recover(lane)
    }

    fn inject_pkru_stale(&mut self, lane: usize) -> bool {
        self.inner.inject_pkru_stale(lane)
    }

    fn bytes_copied(&self) -> u64 {
        self.inner.bytes_copied()
    }

    fn attach_recorder(&mut self, recorder: Recorder) {
        self.inner.attach_recorder(recorder)
    }

    fn pmu(&self) -> Option<Pmu> {
        self.inner.pmu()
    }
}
