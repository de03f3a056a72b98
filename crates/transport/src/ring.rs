//! Asynchronous submission/completion rings: batch the crossing.
//!
//! Every direct-mode call pays the full trampoline + EPTP-switch (or
//! trap) cost per request. This module adds an io_uring-style doorbell
//! mode over any [`Transport`]: clients enqueue wire frames — the same
//! 24-byte [`WireHeader`] + payload image `Lane::encode` stages — into a
//! per-lane *submission ring* of fixed-size slots, one doorbell drains a
//! batch of them through the server domain, and completions post back
//! into a *completion ring* correlated by the header's `corr`.
//!
//! The adapter is personality-agnostic: the drain hands the batch to
//! [`Transport::call_batch`], whose default serves each entry with its
//! own crossing (so trap personalities and the `Faulty` decorator keep
//! per-entry fault injection untouched), while `SkyBridgeTransport`
//! overrides it to pay the trampoline + VMFUNC boundary once per batch —
//! the migrating-thread model makes serving consecutive frames inside
//! one crossing legal, since each frame is still handled to completion
//! in submission order by the one migrated thread.
//!
//! Accounting invariants the test battery pins down:
//!
//! - **Exactly one completion per submission.** A consumed entry posts
//!   exactly one completion; an entry the serving transport did not
//!   consume (batch aborted by a server death or a forced timeout
//!   return) goes *back to the ring front* in order and is drained by a
//!   later doorbell. Nothing is lost, nothing is duplicated — across
//!   wrap-around, capacity-1 rings, and arbitrary batch budgets.
//! - **Deadlines are completions, not drops.** A frame whose wire
//!   deadline passed before its batch was cut completes as
//!   [`CallError::Timeout`] with [`RingCompletion::expired`] set, and
//!   burns no service time.
//! - **Completions survive until acknowledged.** The completion ring
//!   holds an entry until the client pops it; a full completion ring
//!   back-pressures the doorbell (entries simply stay submitted) rather
//!   than overwriting unacknowledged completions.

use sb_observe::{Recorder, SpanKind};
use sb_sim::Cycles;

use crate::transport::{CallError, Transport};
use crate::wire::{CopyMeter, Request, WireHeader, WIRE_HEADER_LEN};

/// Ring geometry and drain policy.
#[derive(Debug, Clone, Copy)]
pub struct RingConfig {
    /// Slots per lane in each ring (submission and completion alike).
    pub capacity: usize,
    /// Maximum entries one doorbell drains — the throughput-mode batch.
    pub batch_budget: usize,
    /// Payload capacity of one slot in bytes (frames are the fixed
    /// 24-byte wire header plus up to this much payload).
    pub slot_bytes: usize,
}

impl Default for RingConfig {
    fn default() -> Self {
        RingConfig {
            capacity: 64,
            batch_budget: 8,
            slot_bytes: 4096,
        }
    }
}

/// Why a submission was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RingError {
    /// The lane's submission ring is at capacity.
    Full,
    /// The request payload exceeds the slot size.
    FrameTooLarge {
        /// Payload bytes the request needs.
        len: usize,
        /// Slot payload capacity.
        cap: usize,
    },
}

impl std::fmt::Display for RingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RingError::Full => write!(f, "submission ring full"),
            RingError::FrameTooLarge { len, cap } => {
                write!(f, "frame payload {len} exceeds slot capacity {cap}")
            }
        }
    }
}

/// One acknowledged completion popped from a completion ring. The reply
/// bytes stay readable via [`RingTransport::completion_reply`] until the
/// next pop on the same lane.
#[derive(Debug, Clone)]
pub struct RingCompletion {
    /// The submitter's correlation id, echoed from the wire header.
    pub corr: u64,
    /// Whether this entry expired in the ring (deadline passed before
    /// its batch was cut) and was completed without service.
    pub expired: bool,
    /// The call outcome: reply length, or the error the crossing (or
    /// the deadline) produced.
    pub result: Result<usize, CallError>,
}

/// A queued submission: the staged wire frame plus the request the
/// serving transport re-materialises it from.
#[derive(Debug)]
struct SqEntry {
    frame: Vec<u8>,
    req: Request,
    submitted: Cycles,
    deadline: Cycles,
}

#[derive(Debug)]
struct CqEntry {
    corr: u64,
    expired: bool,
    result: Result<usize, CallError>,
    reply: Vec<u8>,
}

/// The doorbell adapter: per-lane submission/completion rings over any
/// inner [`Transport`].
#[derive(Debug)]
pub struct RingTransport<T: Transport> {
    inner: T,
    cfg: RingConfig,
    sq: Vec<std::collections::VecDeque<SqEntry>>,
    cq: Vec<std::collections::VecDeque<CqEntry>>,
    /// Last acknowledged reply per lane (the `Transport::reply` view).
    last: Vec<Vec<u8>>,
    /// Total frames ever submitted / completions posted / completions
    /// acknowledged per lane — the power-loss drill's ledger.
    submitted_total: Vec<u64>,
    posted_total: Vec<u64>,
    acked_total: Vec<u64>,
    meter: CopyMeter,
    recorder: Recorder,
    label: String,
}

impl<T: Transport> RingTransport<T> {
    /// Wraps `inner` with fresh rings.
    pub fn new(inner: T, cfg: RingConfig) -> Self {
        assert!(cfg.capacity >= 1, "rings need at least one slot");
        assert!(cfg.batch_budget >= 1, "doorbell must drain something");
        let lanes = inner.lanes();
        let label = format!("ring:{}", inner.label());
        RingTransport {
            inner,
            cfg,
            sq: (0..lanes).map(|_| Default::default()).collect(),
            cq: (0..lanes).map(|_| Default::default()).collect(),
            last: vec![Vec::new(); lanes],
            submitted_total: vec![0; lanes],
            posted_total: vec![0; lanes],
            acked_total: vec![0; lanes],
            meter: CopyMeter::new(),
            recorder: Recorder::off(),
            label,
        }
    }

    /// Wraps `inner` with the default geometry.
    pub fn with_defaults(inner: T) -> Self {
        RingTransport::new(inner, RingConfig::default())
    }

    /// The ring geometry in force.
    pub fn config(&self) -> RingConfig {
        self.cfg
    }

    /// The wrapped transport.
    pub fn inner(&self) -> &T {
        &self.inner
    }

    /// The wrapped transport, mutably (probes, fault hookups).
    pub fn inner_mut(&mut self) -> &mut T {
        &mut self.inner
    }

    /// Unwraps the rings and returns the serving transport — the
    /// post-run path (quiesce probes run direct, not through a ring).
    pub fn into_inner(self) -> T {
        self.inner
    }

    /// Enqueues `req` into `lane`'s submission ring with no deadline.
    pub fn submit(&mut self, lane: usize, req: &Request) -> Result<(), RingError> {
        self.submit_with_deadline(lane, req, 0)
    }

    /// Enqueues `req` with an absolute wire `deadline` (0 = none). The
    /// frame — header and payload, exactly the bytes `Lane::encode`
    /// would stage — is written into the next free slot; `Err` when the
    /// ring is full or the payload outgrows the slot.
    pub fn submit_with_deadline(
        &mut self,
        lane: usize,
        req: &Request,
        deadline: Cycles,
    ) -> Result<(), RingError> {
        if req.payload_len() > self.cfg.slot_bytes {
            return Err(RingError::FrameTooLarge {
                len: req.payload_len(),
                cap: self.cfg.slot_bytes,
            });
        }
        if self.sq[lane].len() >= self.cfg.capacity {
            return Err(RingError::Full);
        }
        let mut frame = vec![0u8; req.wire_len()];
        WireHeader {
            opcode: req.write as u8,
            corr: req.id,
            deadline,
            len: req.payload_len() as u32,
            tenant: req.tenant,
        }
        .write_to(&mut frame[..WIRE_HEADER_LEN]);
        frame[WIRE_HEADER_LEN..WIRE_HEADER_LEN + 8].copy_from_slice(&req.key.to_le_bytes());
        frame[WIRE_HEADER_LEN + crate::wire::OP_TAG_OFFSET] = req.write as u8;
        self.meter.add(frame.len());
        self.sq[lane].push_back(SqEntry {
            frame,
            req: req.clone(),
            submitted: req.arrival,
            deadline,
        });
        self.submitted_total[lane] += 1;
        Ok(())
    }

    /// Rings `lane`'s doorbell: cuts a batch from the submission ring
    /// (up to the batch budget and the completion ring's free space),
    /// completes expired entries as [`CallError::Timeout`] without
    /// service, drains the live ones through one
    /// [`Transport::call_batch`], and posts completions. Entries the
    /// serving transport did not consume return to the ring front.
    /// Returns the number of completions posted.
    pub fn doorbell(&mut self, lane: usize) -> usize {
        let now = self.inner.now(lane);
        let mut cq_space = self.cfg.capacity.saturating_sub(self.cq[lane].len());
        // Cut the batch: up to the budget, one completion slot reserved
        // per entry, expiry judged once at cut time.
        let mut cut: Vec<SqEntry> = Vec::new();
        while cut.len() < self.cfg.batch_budget && cq_space > 0 && !self.sq[lane].is_empty() {
            cut.push(self.sq[lane].pop_front().expect("checked nonempty"));
            cq_space -= 1;
        }
        if cut.is_empty() {
            return 0;
        }
        let expired: Vec<bool> = cut
            .iter()
            .map(|e| e.deadline != 0 && now > e.deadline)
            .collect();
        // Only live entries cross the boundary; expired ones must not
        // burn service time.
        let reqs: Vec<Request> = cut
            .iter()
            .zip(&expired)
            .filter(|&(_, &x)| !x)
            .map(|(e, _)| e.req.clone())
            .collect();
        let mut live_done: Vec<CqEntry> = Vec::new();
        let consumed = if reqs.is_empty() {
            0
        } else {
            self.recorder.begin(lane, SpanKind::Doorbell, now, 0);
            let consumed = {
                let inner = &mut self.inner;
                let meter = &self.meter;
                let mut post = |i: usize, result: Result<usize, CallError>, reply: &[u8]| {
                    meter.add(reply.len());
                    live_done.push(CqEntry {
                        corr: reqs[i].id,
                        expired: false,
                        result,
                        reply: reply.to_vec(),
                    });
                };
                inner.call_batch(lane, &reqs, &mut post)
            };
            let end = self.inner.now(lane).max(now);
            self.recorder.end(lane, SpanKind::Doorbell, end, 0);
            consumed.min(reqs.len())
        };
        // Post completions in submission order. The completed prefix
        // runs up to the first live entry the server did not consume;
        // everything after it — expired or not — returns to the ring
        // front intact, so completions never overtake each other.
        let mut live_idx = 0usize;
        let mut restore_from = cut.len();
        for (i, is_expired) in expired.iter().enumerate() {
            if *is_expired {
                continue;
            }
            if live_idx < consumed {
                live_idx += 1;
            } else {
                restore_from = i;
                break;
            }
        }
        let tail = cut.split_off(restore_from);
        let mut posted = 0usize;
        let mut live_iter = live_done.into_iter();
        for (e, is_expired) in cut.into_iter().zip(expired) {
            if e.submitted < now {
                self.recorder
                    .span(lane, SpanKind::RingWait, e.submitted, now, e.req.id);
            }
            let entry = if is_expired {
                CqEntry {
                    corr: e.req.id,
                    expired: true,
                    result: Err(CallError::Timeout {
                        elapsed: now - e.deadline,
                    }),
                    reply: Vec::new(),
                }
            } else {
                live_iter
                    .next()
                    .expect("call_batch posts one completion per consumed entry")
            };
            self.cq[lane].push_back(entry);
            self.posted_total[lane] += 1;
            posted += 1;
        }
        debug_assert!(live_iter.next().is_none(), "surplus batch completions");
        for e in tail.into_iter().rev() {
            self.sq[lane].push_front(e);
        }
        posted
    }

    /// Acknowledges the oldest completion on `lane`, if any. The reply
    /// bytes move into the lane's acknowledged-reply buffer (readable
    /// via [`RingTransport::completion_reply`] / `Transport::reply`).
    pub fn pop_completion(&mut self, lane: usize) -> Option<RingCompletion> {
        let e = self.cq[lane].pop_front()?;
        self.last[lane].clear();
        self.last[lane].extend_from_slice(&e.reply);
        self.acked_total[lane] += 1;
        Some(RingCompletion {
            corr: e.corr,
            expired: e.expired,
            result: e.result,
        })
    }

    /// The last acknowledged reply on `lane` (valid until the next pop).
    pub fn completion_reply(&self, lane: usize) -> &[u8] {
        &self.last[lane]
    }

    /// Frames currently queued in `lane`'s submission ring.
    pub fn sq_len(&self, lane: usize) -> usize {
        self.sq[lane].len()
    }

    /// Completions currently waiting to be acknowledged on `lane`.
    pub fn cq_len(&self, lane: usize) -> usize {
        self.cq[lane].len()
    }

    /// Correlation ids of the frames still queued on `lane`, parsed out
    /// of the slots' wire headers — proof the ring really carries wire
    /// frames, and the power-loss drill's durable set.
    pub fn queued_corrs(&self, lane: usize) -> Vec<u64> {
        self.sq[lane]
            .iter()
            .filter_map(|e| WireHeader::parse(&e.frame).map(|h| h.corr))
            .collect()
    }

    /// Correlation ids of completions posted but not yet acknowledged.
    pub fn unacked_corrs(&self, lane: usize) -> Vec<u64> {
        self.cq[lane].iter().map(|e| e.corr).collect()
    }

    /// Total frames ever submitted on `lane`.
    pub fn submitted(&self, lane: usize) -> u64 {
        self.submitted_total[lane]
    }

    /// Total completions ever posted on `lane`.
    pub fn posted(&self, lane: usize) -> u64 {
        self.posted_total[lane]
    }

    /// Total completions ever acknowledged (popped) on `lane`.
    pub fn acked(&self, lane: usize) -> u64 {
        self.acked_total[lane]
    }
}

impl<T: Transport> Transport for RingTransport<T> {
    fn label(&self) -> &str {
        &self.label
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

    /// One synchronous call through the rings: submit, ring the
    /// doorbell until this request's completion posts, acknowledge it.
    /// Earlier unacknowledged traffic on the lane is drained first (and
    /// its completions discarded), so callers mixing `submit` and
    /// `call` should reap before calling.
    fn call(&mut self, lane: usize, req: &Request) -> Result<usize, CallError> {
        self.submit(lane, req)
            .map_err(|e| CallError::Failed(format!("ring submit refused: {e}")))?;
        loop {
            while let Some(c) = self.pop_completion(lane) {
                if c.corr == req.id {
                    return c.result;
                }
            }
            if self.doorbell(lane) == 0 {
                return Err(CallError::Failed(
                    "ring stalled: doorbell posted no completion".to_string(),
                ));
            }
        }
    }

    fn reply(&self, lane: usize) -> &[u8] {
        &self.last[lane]
    }

    fn recover(&mut self, lane: usize) -> bool {
        self.inner.recover(lane)
    }

    fn inject_pkru_stale(&mut self, lane: usize) -> bool {
        self.inner.inject_pkru_stale(lane)
    }

    fn bytes_copied(&self) -> u64 {
        self.inner.bytes_copied() + self.meter.total()
    }

    fn attach_recorder(&mut self, recorder: Recorder) {
        self.recorder = recorder.clone();
        self.inner.attach_recorder(recorder);
    }

    fn pmu(&self) -> Option<sb_sim::Pmu> {
        self.inner.pmu()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::FixedServiceTransport;

    fn req(id: u64, payload: usize) -> Request {
        Request {
            id,
            arrival: 0,
            key: id ^ 0xabcd,
            write: id.is_multiple_of(2),
            payload,
            client: None,
            tenant: 0,
        }
    }

    #[test]
    fn submit_doorbell_pop_round_trips() {
        let mut r = RingTransport::new(
            FixedServiceTransport::new(1, 100),
            RingConfig {
                capacity: 8,
                batch_budget: 4,
                slot_bytes: 256,
            },
        );
        for id in 0..3u64 {
            r.submit(0, &req(id, 32)).unwrap();
        }
        assert_eq!(r.sq_len(0), 3);
        assert_eq!(r.queued_corrs(0), vec![0, 1, 2]);
        let posted = r.doorbell(0);
        assert_eq!(posted, 3);
        for id in 0..3u64 {
            let c = r.pop_completion(0).unwrap();
            assert_eq!(c.corr, id);
            assert!(!c.expired);
            assert_eq!(c.result.unwrap(), 32);
            assert_eq!(r.completion_reply(0), req(id, 32).encode());
        }
        assert!(r.pop_completion(0).is_none());
    }

    #[test]
    fn full_ring_refuses_submission() {
        let mut r = RingTransport::new(
            FixedServiceTransport::new(1, 10),
            RingConfig {
                capacity: 2,
                batch_budget: 8,
                slot_bytes: 64,
            },
        );
        r.submit(0, &req(0, 16)).unwrap();
        r.submit(0, &req(1, 16)).unwrap();
        assert_eq!(r.submit(0, &req(2, 16)), Err(RingError::Full));
        assert_eq!(
            r.submit(0, &req(3, 1024)),
            Err(RingError::FrameTooLarge { len: 1024, cap: 64 })
        );
    }

    #[test]
    fn expired_entries_complete_as_timeout_without_service() {
        let mut r = RingTransport::with_defaults(FixedServiceTransport::new(1, 100));
        r.submit_with_deadline(0, &req(1, 16), 50).unwrap();
        r.inner_mut().wait_until(0, 200);
        let posted = r.doorbell(0);
        assert_eq!(posted, 1);
        let c = r.pop_completion(0).unwrap();
        assert!(c.expired);
        assert!(matches!(c.result, Err(CallError::Timeout { elapsed: 150 })));
        // No service was burned: the clock stands where we left it.
        assert_eq!(r.now(0), 200);
    }

    #[test]
    fn full_cq_backpressures_instead_of_overwriting() {
        let mut r = RingTransport::new(
            FixedServiceTransport::new(1, 10),
            RingConfig {
                capacity: 2,
                batch_budget: 8,
                slot_bytes: 64,
            },
        );
        r.submit(0, &req(0, 16)).unwrap();
        r.submit(0, &req(1, 16)).unwrap();
        assert_eq!(r.doorbell(0), 2);
        // CQ is now full; new submissions stay queued across doorbells.
        r.submit(0, &req(2, 16)).unwrap();
        assert_eq!(r.doorbell(0), 0);
        assert_eq!(r.sq_len(0), 1);
        assert_eq!(r.pop_completion(0).unwrap().corr, 0);
        assert_eq!(r.doorbell(0), 1);
        let corrs: Vec<u64> = std::iter::from_fn(|| r.pop_completion(0))
            .map(|c| c.corr)
            .collect();
        assert_eq!(corrs, vec![1, 2]);
    }

    #[test]
    fn transport_call_path_works_through_the_rings() {
        let mut r = RingTransport::with_defaults(FixedServiceTransport::new(2, 100));
        let rq = req(9, 48);
        let n = r.call(0, &rq).unwrap();
        assert_eq!(n, 48);
        assert_eq!(Transport::reply(&r, 0), rq.encode());
        assert_eq!(r.now(0), 100);
        assert_eq!(r.now(1), 0);
    }

    #[test]
    fn stale_pkru_reaches_the_transport_behind_the_rings() {
        let spec = crate::service::ServiceSpec::default();
        let mut r = RingTransport::with_defaults(crate::mpk::MpkTransport::new(1, &spec));
        r.call(0, &req(1, 64)).unwrap();
        assert!(
            r.inject_pkru_stale(0),
            "the MPK lane behind the rings goes stale"
        );
        let err = r.call(0, &req(2, 64)).unwrap_err();
        assert!(
            matches!(&err, CallError::Failed(m) if m.contains("pkey")),
            "stale rights must surface as a pkey fault, got {err:?}"
        );
        assert!(r.recover(0));
        r.call(0, &req(3, 64)).unwrap();
    }
}
