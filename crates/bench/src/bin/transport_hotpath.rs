//! Transport hot-path copy audit: bytes copied, host ns and simulated
//! cycles per call on the zero-copy wire path of every transport.
//!
//! Each call stages one encode into its [`Lane`](sb_transport::wire)
//! and is served in place from the lane's payload half, so at the
//! 64-byte KV payload the copy meter must read at most
//! [`WIRE_BYTES_BOUND`] bytes per call (request frame out, reply frame
//! back). The bin exits non-zero if any transport copies more — a
//! deterministic gate, independent of host speed. Host ns/call and
//! simulated cycles per call are recorded alongside in
//! `results/transport_hotpath.json`.
//!
//! `SB_CALLS` sets the per-transport call count (default 20,000 for the
//! synthetic transport, 2,000 for the kernel-backed ones).

use sb_bench::harness::{drive, timed_calls, Verdict};
use sb_bench::{knob, print_table, report::Json};
use sb_microkernel::Personality;
use sb_runtime::{FixedServiceTransport, Transport};
use skybridge_repro::scenarios::runtime::{build_backend, Backend, ServingScenario};

/// Most bytes the wire path may copy per call at the 64-byte payload.
const WIRE_BYTES_BOUND: f64 = 88.0;

struct Measured {
    bytes_per_call: f64,
    ns_per_call: f64,
    sim_cycles_per_call: f64,
}

/// Drives `calls` requests through lane 0 and returns the per-call
/// averages.
fn measure(t: &mut dyn Transport, calls: u64) -> Measured {
    let mut factory = ServingScenario::Kv.factory();
    // Warm: populate caches, TLBs and the lane allocation.
    drive(t, &mut factory, calls.min(256), "warm call");
    let bytes0 = t.bytes_copied();
    let cyc0 = t.now(0);
    let ns_per_call = timed_calls(t, &mut factory, calls);
    Measured {
        bytes_per_call: (t.bytes_copied() - bytes0) as f64 / calls as f64,
        ns_per_call,
        sim_cycles_per_call: (t.now(0) - cyc0) as f64 / calls as f64,
    }
}

fn main() {
    let kernel_calls = knob("SB_CALLS", 2_000) as u64;
    let kernel = |b: Backend| build_backend(ServingScenario::Kv, &b, 1);
    let targets: Vec<(&str, Box<dyn Transport>, u64)> = vec![
        (
            "fixed",
            Box::new(FixedServiceTransport::new(1, 200)),
            knob("SB_CALLS", 20_000) as u64,
        ),
        ("skybridge", kernel(Backend::SkyBridge), kernel_calls),
        ("mpk", kernel(Backend::Mpk), kernel_calls),
        (
            "sel4-trap",
            kernel(Backend::Trap(Personality::sel4())),
            kernel_calls,
        ),
        (
            "fiasco-trap",
            kernel(Backend::Trap(Personality::fiasco_oc())),
            kernel_calls,
        ),
        (
            "zircon-trap",
            kernel(Backend::Trap(Personality::zircon())),
            kernel_calls,
        ),
    ];

    let mut rows = Vec::new();
    let mut json_rows: Vec<Json> = Vec::new();
    let mut v = Verdict::default();
    for (name, mut t, calls) in targets {
        let m = measure(t.as_mut(), calls);
        if m.bytes_per_call > WIRE_BYTES_BOUND {
            v.fail(format!(
                "{name} copies more than {WIRE_BYTES_BOUND} B per call"
            ));
        }
        rows.push(vec![
            name.to_string(),
            format!("{:.0}", m.bytes_per_call),
            format!("{:.0}", m.ns_per_call),
            format!("{:.1}", m.sim_cycles_per_call),
        ]);
        json_rows.push(
            Json::obj()
                .field("transport", name)
                .field("calls", calls)
                .field("bytes_copied_per_call", m.bytes_per_call)
                .field("ns_per_call", m.ns_per_call)
                .field("sim_cycles_per_call", m.sim_cycles_per_call),
        );
    }
    print_table(
        "transport hot path: wire bytes, host ns and simulated cycles per call",
        &["transport", "B/call", "ns/call", "sim cycles/call"],
        &rows,
    );

    let doc = Json::obj()
        .field("bench", "transport_hotpath")
        .field("bytes_bound_per_call", WIRE_BYTES_BOUND)
        .field("rows", Json::Arr(json_rows));
    v.write("transport_hotpath", &doc);
    v.finish(&format!(
        "every wire path copies at most {WIRE_BYTES_BOUND} B per call"
    ));
}
