//! Self-tests of the benchmark: a tiny traced pass of every workload
//! reports every declared metric with its unit and no failures, and the
//! metric tables agree with `BENCHMARK.json`.

use servebench::report::{Provenance, END_TO_END, PER_LAYER};
use servebench::{Options, WORKLOADS};
use std::path::PathBuf;

fn tiny_pass(workload: &str) {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("selftest-{workload}"));
    servebench::remove_dir(&dir);
    let opts = Options {
        seed: 7,
        seconds: 1.0,
        trace: true,
        smoke: true,
        dir: dir.clone(),
    };
    let report = servebench::run(workload, &opts).expect("a known workload");
    servebench::remove_dir(&dir);

    assert!(
        report.missing(END_TO_END).is_empty(),
        "{:?}",
        report.missing(END_TO_END)
    );
    assert!(
        report.missing(PER_LAYER).is_empty(),
        "{:?}",
        report.missing(PER_LAYER)
    );
    assert_eq!(report.get("failed_ratio"), Some(0.0), "{report:?}");
    assert_eq!(report.get("check.wrong_answers"), Some(0.0));
    assert!(report.correct(), "{report:?}");
    for (name, _) in END_TO_END {
        let v = report.get(name).expect("checked above");
        assert!(v > 0.0, "end-to-end metric {name} reads {v}");
    }

    // Both result lines carry every metric of their kind with its unit.
    for (trace, kind) in [(false, END_TO_END), (true, PER_LAYER)] {
        let line = report.result_line(trace);
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": "),
            "{line}"
        );
        for (name, unit) in kind {
            let field = format!("\"{name}\": {{\"value\": ");
            let at = line
                .find(&field)
                .unwrap_or_else(|| panic!("{name} missing"));
            let rest = &line[at..];
            let unit_field = format!("\"unit\": \"{unit}\"}}");
            assert!(rest.contains(&unit_field), "{name} lacks unit {unit}");
        }
    }
    let prov = Provenance::detect(workload, 7, 1.0, true, true);
    let record = report.record_line(&prov);
    assert!(record.contains("\"smoke\": true"));
    assert!(record.contains(&format!("\"kernel\": \"{}\"", prov.kernel)));
}

#[test]
fn serve_hot_tiny_pass() {
    tiny_pass("serve-hot");
}

#[test]
fn scan_1m_tiny_pass() {
    tiny_pass("scan-1m");
}

#[test]
fn ingest_cluster_tiny_pass() {
    tiny_pass("ingest-cluster");
}

/// `(name, unit)` pairs of one metric list in `BENCHMARK.json`.
fn declared(spec: &str, list: &str) -> Vec<(String, String)> {
    let start = spec
        .find(&format!("\"{list}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {list}"));
    let body = &spec[start..];
    let body = &body[..body.find(']').expect("a closed list")];
    let field = |obj: &str, key: &str| -> String {
        let at = obj.find(&format!("\"{key}\"")).expect("key present") + key.len() + 2;
        let rest = &obj[at..];
        let open = rest.find('"').expect("string value") + 1;
        let close = open + rest[open..].find('"').expect("closed string");
        rest[open..close].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|obj| (field(obj, "name"), field(obj, "unit")))
        .collect()
}

#[test]
fn metric_tables_match_benchmark_json() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let spec = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let owned = |t: &[(&str, &str)]| -> Vec<(String, String)> {
        t.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(declared(&spec, "end_to_end"), owned(END_TO_END));
    assert_eq!(declared(&spec, "per_layer"), owned(PER_LAYER));
    for w in WORKLOADS {
        assert!(
            spec.contains(&format!("\"name\": \"{w}\"")),
            "{w} not declared"
        );
    }
}
