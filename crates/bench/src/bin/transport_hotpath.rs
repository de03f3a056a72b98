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

use std::hint::black_box;
use std::time::Instant;

use sb_bench::{
    knob, print_table,
    report::{write_json, Json},
};
use sb_microkernel::Personality;
use sb_runtime::{
    FixedServiceTransport, MpkTransport, RequestFactory, ServiceSpec, SkyBridgeTransport,
    Transport, TrapIpcTransport,
};
use sb_ycsb::WorkloadSpec;

/// Most bytes the wire path may copy per call at the 64-byte payload.
const WIRE_BYTES_BOUND: f64 = 88.0;

struct Measured {
    bytes_per_call: f64,
    ns_per_call: f64,
    sim_cycles_per_call: f64,
}

/// Drives `calls` requests through lane 0 and returns the per-call
/// averages.
fn drive(t: &mut dyn Transport, calls: u64) -> Measured {
    let mut factory = RequestFactory::new(WorkloadSpec::ycsb_a(10_000, 64), 64);
    // Warm: populate caches, TLBs and the lane allocation.
    for _ in 0..calls.min(256) {
        let r = factory.make(t.now(0), None);
        t.call(0, &r).expect("warm call");
    }
    let bytes0 = t.bytes_copied();
    let cyc0 = t.now(0);
    let wall = Instant::now();
    for _ in 0..calls {
        let r = factory.make(t.now(0), None);
        t.call(0, &r).expect("call");
        black_box(t.reply(0));
    }
    let ns = wall.elapsed().as_nanos() as f64;
    Measured {
        bytes_per_call: (t.bytes_copied() - bytes0) as f64 / calls as f64,
        ns_per_call: ns / calls as f64,
        sim_cycles_per_call: (t.now(0) - cyc0) as f64 / calls as f64,
    }
}

fn main() {
    let spec = ServiceSpec::default();
    let kernel_calls = knob("SB_CALLS", 2_000) as u64;
    let trap =
        |p: Personality| -> Box<dyn Transport> { Box::new(TrapIpcTransport::new(p, 1, &spec)) };
    let targets: Vec<(&str, Box<dyn Transport>, u64)> = vec![
        (
            "fixed",
            Box::new(FixedServiceTransport::new(1, 200)),
            knob("SB_CALLS", 20_000) as u64,
        ),
        (
            "skybridge",
            Box::new(SkyBridgeTransport::new(1, &spec)),
            kernel_calls,
        ),
        ("mpk", Box::new(MpkTransport::new(1, &spec)), kernel_calls),
        ("sel4-trap", trap(Personality::sel4()), kernel_calls),
        ("fiasco-trap", trap(Personality::fiasco_oc()), kernel_calls),
        ("zircon-trap", trap(Personality::zircon()), kernel_calls),
    ];

    let mut rows = Vec::new();
    let mut json_rows: Vec<Json> = Vec::new();
    let mut over = Vec::new();
    for (name, mut t, calls) in targets {
        let m = drive(t.as_mut(), calls);
        if m.bytes_per_call > WIRE_BYTES_BOUND {
            over.push(name);
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
    match write_json("transport_hotpath", &doc) {
        Ok(path) => println!("\nwrote {}", path.display()),
        Err(e) => eprintln!("\ncould not write results JSON: {e}"),
    }
    if !over.is_empty() {
        eprintln!(
            "FAIL: {} copy more than {WIRE_BYTES_BOUND} B per call",
            over.join(", ")
        );
        std::process::exit(1);
    }
    println!("every wire path copies at most {WIRE_BYTES_BOUND} B per call");
}
