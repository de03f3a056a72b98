//! The host clock: interleaved probe normalisation, medians, and
//! the process's peak resident set.
//!
//! Host time on a shared machine swings by 1.5x between processes. Each
//! measurement round therefore runs a fixed reference loop shaped like
//! the simulator's own work (see [`Probe`]) next to the chunks it times,
//! divides every chunk's ns/op by that round's probe, and takes the
//! median over all rounds. The result is multiplied by [`REF_PROBE_NS`],
//! so host figures read as nanoseconds on a host whose probe takes that
//! long.
//!
//! The repository's `sb_bench::unit_probe` (random reads and writes over
//! 4 MiB) was tried first. Over six fresh `serve_ring` processes it left
//! 10–11% spread (IQR ÷ median) in the normalised figures, no better than
//! raw time. The LRU/B-tree loop below left 1.3–2.3%.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Probe ns/iteration of the reference host the normalised figures are
/// expressed in (the median probe measured on a 2-vCPU x86-64 VM).
pub const REF_PROBE_NS: f64 = 200.0;

/// Median of `v` (0 for an empty slice).
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Wall nanoseconds `f` takes, with its result.
pub fn timed<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let t0 = Instant::now();
    let r = f();
    (t0.elapsed().as_nanos() as u64, r)
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The host-speed probe, sampled between timed chunks: a reference loop
/// shaped like the simulator's own hot paths.
#[derive(Debug, Default)]
pub struct Probe {
    samples: Vec<f64>,
}

impl Probe {
    /// One probe: ns per reference iteration right now.
    pub fn sample(&mut self) -> f64 {
        let ns = reference_loop();
        self.samples.push(ns);
        ns
    }

    /// Factor turning raw host ns into reference-host ns, from the
    /// median of every probe taken so far (at least five).
    pub fn scale(&mut self) -> f64 {
        while self.samples.len() < 5 {
            self.sample();
        }
        REF_PROBE_NS / median(&self.samples)
    }
}

/// One timed chunk of a measurement round: raw host ns over `ops`
/// completed operations of series `name`.
#[derive(Debug, Clone, Copy)]
pub struct Chunk {
    /// The series (metric suffix) the chunk belongs to.
    pub name: &'static str,
    /// Raw host nanoseconds.
    pub ns: u64,
    /// Operations completed in those nanoseconds.
    pub ops: u64,
}

/// Runs measurement rounds until `budget` has elapsed, and at least
/// `min_rounds` of them: each round samples the probe, then calls `round`
/// with the round index for its chunks. Returns, per series, the median
/// over rounds of probe-normalised ns/op, in reference-host ns.
pub fn rounds(
    probe: &mut Probe,
    budget: Duration,
    min_rounds: usize,
    mut round: impl FnMut(usize) -> Vec<Chunk>,
) -> BTreeMap<&'static str, f64> {
    let start = Instant::now();
    let mut ratios: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut i = 0;
    while i < min_rounds.max(1) || start.elapsed() < budget {
        let unit = probe.sample();
        for c in round(i) {
            if c.ops > 0 {
                ratios
                    .entry(c.name)
                    .or_default()
                    .push(c.ns as f64 / c.ops as f64 / unit);
            }
        }
        i += 1;
    }
    ratios
        .into_iter()
        .map(|(k, v)| (k, median(&v) * REF_PROBE_NS))
        .collect()
}

/// Sums chunks that share a series name (the trap kernels pool into
/// `trap`), keeping first-seen order.
pub fn pooled(chunks: Vec<Chunk>) -> Vec<Chunk> {
    let mut out: Vec<Chunk> = Vec::new();
    for c in chunks {
        match out.iter_mut().find(|o| o.name == c.name) {
            Some(o) => {
                o.ns += c.ns;
                o.ops += c.ops;
            }
            None => out.push(c),
        }
    }
    out
}

/// The reference loop, shaped like the simulator's own hot paths: an
/// 8-way strict-LRU set array updated by `position` + `remove` + `push`
/// (as the simulated caches and TLBs are), and a `BTreeMap` churned
/// under the same fixed key stream (as the db and the graph cell are).
/// It uses the standard library only, so no change to the repository
/// moves it. Returns ns per iteration.
fn reference_loop() -> f64 {
    const ITERS: u64 = 50_000;
    let mut sets: Vec<Vec<u64>> = vec![Vec::new(); 512];
    let mut map = BTreeMap::new();
    let mut x = 0x2545_f491_4f6c_dd1du64;
    let t0 = Instant::now();
    for _ in 0..ITERS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let tag = x % 4096;
        let set = &mut sets[(x >> 20) as usize % 512];
        match set.iter().position(|&t| t == tag) {
            Some(i) => {
                set.remove(i);
            }
            None if set.len() == 8 => {
                set.remove(0);
            }
            None => {}
        }
        set.push(tag);
        if map.insert(tag, x).is_some() {
            map.remove(&(tag ^ 1));
        }
    }
    std::hint::black_box((&sets, &map));
    t0.elapsed().as_nanos() as f64 / ITERS as f64
}
