//! Benchmark harness support: table formatting and paper reference
//! values.
//!
//! Every table and figure of the paper's evaluation has a binary in
//! `src/bin/` that regenerates it (`cargo run --release -p sb-bench --bin
//! table4`, …). This library holds the shared plumbing: aligned table
//! printing, paper-reference constants for side-by-side output,
//! environment knobs for run sizes, and — in [`harness`] — the one
//! measuring and gating loop under every gated bin.

use std::fmt::Display;

pub mod harness;
pub mod report;

/// Prints an aligned table: `header` then `rows`, all columns padded.
pub fn print_table<H: Display, C: Display>(title: &str, header: &[H], rows: &[Vec<C>]) {
    println!("\n=== {title} ===");
    let hdr: Vec<String> = header.iter().map(|h| h.to_string()).collect();
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| r.iter().map(|c| c.to_string()).collect())
        .collect();
    let cols = hdr.len();
    let mut widths: Vec<usize> = hdr.iter().map(|h| h.len()).collect();
    for row in &body {
        for (i, c) in row.iter().enumerate() {
            if i < cols {
                widths[i] = widths[i].max(c.len());
            }
        }
    }
    let line = |row: &[String]| {
        let cells: Vec<String> = row
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{c:>w$}", w = widths.get(i).copied().unwrap_or(8)))
            .collect();
        println!("  {}", cells.join("  "));
    };
    line(&hdr);
    println!(
        "  {}",
        widths
            .iter()
            .map(|w| "-".repeat(*w))
            .collect::<Vec<_>>()
            .join("  ")
    );
    for row in &body {
        line(row);
    }
}

/// Formats `measured` next to the paper's reference value.
pub fn with_ref(measured: impl Display, paper: impl Display) -> String {
    format!("{measured} (paper {paper})")
}

/// Relative speedup `a` over `b`, formatted the way the paper quotes it
/// ("81.9%" below 2x, "1.44x" above).
pub fn speedup(faster: f64, slower: f64) -> String {
    if slower <= 0.0 {
        return "n/a".into();
    }
    let s = faster / slower;
    if s < 2.0 {
        format!("{:.1}%", (s - 1.0) * 100.0)
    } else {
        format!("{:.2}x", s - 1.0)
    }
}

/// Reads a run-size knob from the environment.
pub fn knob(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speedup_formats_like_the_paper() {
        assert_eq!(speedup(11251.08, 6001.82), "87.5%");
        assert_eq!(speedup(5000.0, 1685.39), "1.97x");
        assert_eq!(speedup(1.0, 0.0), "n/a");
    }

    #[test]
    fn knob_defaults() {
        assert_eq!(knob("SB_DOES_NOT_EXIST_XYZ", 42), 42);
    }
}
