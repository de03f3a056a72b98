//! `BENCHMARK.json` at the repository root names exactly the metrics,
//! with the units, that the benchmark prints.

use perfbench::layers::{end_to_end, per_layer};
use perfbench::plan::Workload;

/// The (name, unit) pairs of the `section` array of `doc`, in order.
fn section(doc: &str, section: &str) -> Vec<(String, String)> {
    let start = doc
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("{section} missing"));
    let body = &doc[start..];
    let body = &body[..body.find(']').expect("array closes")];
    let field = |obj: &str, key: &str| -> String {
        let at = obj.find(&format!("\"{key}\"")).expect("field present") + key.len() + 2;
        let rest = &obj[at..];
        let open = rest.find('"').expect("string value") + 1;
        let len = rest[open..].find('"').expect("string closes");
        rest[open..open + len].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|obj| (field(obj, "name"), field(obj, "unit")))
        .collect()
}

fn sorted(mut v: Vec<(String, String)>) -> Vec<(String, String)> {
    v.sort();
    v
}

#[test]
fn benchmark_json_matches_the_printed_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
    let printed =
        |v: Vec<(String, &str)>| sorted(v.into_iter().map(|(n, u)| (n, u.to_string())).collect());
    assert_eq!(sorted(section(&doc, "end_to_end")), printed(end_to_end()));
    assert_eq!(sorted(section(&doc, "per_layer")), printed(per_layer()));
    for w in Workload::ALL {
        assert!(
            doc.contains(&format!("\"name\": \"{}\"", w.name())),
            "{}",
            w.name()
        );
    }
}
