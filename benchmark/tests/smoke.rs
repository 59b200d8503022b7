//! Runs every workload of `BENCHMARK.json` at smoke size, untraced and
//! traced, and checks each closing result line: the output checks pass,
//! and every metric the file names is present, finite and tagged with
//! its unit.

use std::path::Path;
use std::process::{Command, Stdio};

use rotsv_obs::Json;

fn names(list: &Json) -> Vec<(String, Option<String>)> {
    list.as_arr()
        .expect("a list")
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::as_str).expect("a name");
            let unit = m.get("unit").and_then(Json::as_str).map(str::to_owned);
            (name.to_owned(), unit)
        })
        .collect()
}

#[test]
fn every_workload_reports_every_metric_with_checks_passing() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives in the repository");
    let text = std::fs::read_to_string(root.join("BENCHMARK.json")).expect("BENCHMARK.json");
    let spec = rotsv_obs::json::parse(&text).expect("BENCHMARK.json parses");
    let workloads = names(spec.get("workloads").expect("workloads"));
    assert_eq!(workloads.len(), 4);
    // The runs share nothing, so they run at once to keep the test short;
    // every one is waited for before the first assertion.
    let mut children = Vec::new();
    for (workload, _) in &workloads {
        for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
            let child = Command::new(env!("CARGO_BIN_EXE_rotsv-benchmark"))
                .current_dir(root)
                .args(["run", "--workload", workload, "--smoke", "--trace", trace])
                .stdout(Stdio::piped())
                .stderr(Stdio::piped())
                .spawn()
                .expect("benchmark starts");
            children.push((workload, trace, list, child));
        }
    }
    let outputs: Vec<_> = children
        .into_iter()
        .map(|(w, t, l, child)| (w, t, l, child.wait_with_output().expect("benchmark runs")))
        .collect();
    for (workload, trace, list, out) in outputs {
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{workload} trace={trace}: {stderr}");
        let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
        let last = stdout.lines().last().expect("a result line");
        let result = rotsv_obs::json::parse(last).expect("the result line is JSON");
        assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{last}");
        assert_eq!(result.get("failed").and_then(Json::as_f64), Some(0.0));
        assert!(result.get("attempted").and_then(Json::as_f64) >= Some(1.0));
        let metrics = result.get("metrics").expect("metrics");
        let expected = names(spec.get(list).expect("metric list"));
        match metrics {
            Json::Obj(members) => assert_eq!(members.len(), expected.len(), "{last}"),
            _ => panic!("metrics must be an object"),
        }
        for (name, unit) in expected {
            let m = metrics
                .get(&name)
                .unwrap_or_else(|| panic!("{workload}: {name} missing"));
            let value = m.get("value").and_then(Json::as_f64);
            assert!(
                value.is_some_and(f64::is_finite),
                "{workload}: {name} = {value:?}"
            );
            assert_eq!(m.get("unit").and_then(Json::as_str), unit.as_deref());
        }
    }
}
