//! Wrapping a transport in the benchmark's `Timed` decorator changes no
//! simulated cycle, PMU count or reply byte, on every personality, for
//! single calls and for batches.

use perfbench::ipc::stream;
use perfbench::plan::Pers;
use perfbench::timed::Timed;
use sb_runtime::{ServiceSpec, Transport};
use sb_transport::Request;

fn numbered(reqs: &[Request], first_id: u64) -> Vec<Request> {
    reqs.iter()
        .enumerate()
        .map(|(i, r)| Request {
            id: first_id + i as u64,
            ..r.clone()
        })
        .collect()
}

#[test]
fn wrapping_changes_no_cycle_pmu_count_or_reply_byte() {
    let reqs = numbered(&stream(7, 96), 1);
    for p in Pers::ALL {
        let mut bare = p.build(&ServiceSpec::default(), 1);
        let mut timed = Timed::new(p.build(&ServiceSpec::default(), 1));
        let tally = timed.tally();
        let start = timed.now(0);
        for r in &reqs {
            let a = bare.call(0, r).expect("bare call");
            let b = timed.call(0, r).expect("wrapped call");
            assert_eq!(a, b, "{}: reply length", p.name());
            assert_eq!(bare.now(0), timed.now(0), "{}: lane clock", p.name());
            assert_eq!(bare.pmu(), timed.pmu(), "{}: PMU", p.name());
            assert_eq!(bare.reply(0), timed.reply(0), "{}: reply bytes", p.name());
        }
        assert_eq!(
            bare.bytes_copied(),
            timed.bytes_copied(),
            "{}: bytes",
            p.name()
        );
        let t = tally.borrow();
        assert_eq!(t.calls, reqs.len() as u64);
        assert_eq!(t.entries, reqs.len() as u64);
        assert_eq!(t.errors, 0);
        assert_eq!(t.cycles, timed.now(0) - start, "{}: tally cycles", p.name());
        assert!(t.host_ns > 0);
    }
}

#[test]
fn wrapping_forwards_batches_unchanged() {
    let reqs = numbered(&stream(9, 8), 1_000);
    for p in Pers::ALL {
        let mut bare = p.build(&ServiceSpec::default(), 1);
        let mut timed = Timed::new(p.build(&ServiceSpec::default(), 1));
        let tally = timed.tally();
        let mut replies = [Vec::new(), Vec::new()];
        for (i, t) in [&mut bare as &mut dyn Transport, &mut timed]
            .into_iter()
            .enumerate()
        {
            let consumed = t.call_batch(0, &reqs, &mut |_, out, reply| {
                assert!(out.is_ok());
                replies[i].push(reply.to_vec());
            });
            assert_eq!(consumed, reqs.len());
        }
        assert_eq!(replies[0], replies[1], "{}: batch replies", p.name());
        assert_eq!(bare.now(0), timed.now(0), "{}: lane clock", p.name());
        assert_eq!(bare.pmu(), timed.pmu(), "{}: PMU", p.name());
        let t = tally.borrow();
        assert_eq!((t.batches, t.entries), (1, reqs.len() as u64));
    }
}
