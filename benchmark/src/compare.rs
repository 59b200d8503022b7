//! Summaries over repeated runs, and the comparison of two sets of runs
//! against the bounds in `BENCHMARK.json`.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use rotsv_obs::Json;

use crate::report::{END_TO_END, PER_LAYER};
use crate::stats::quartiles;

/// The run documents (`*.json` written by `run --out`) in `dir`.
pub fn load_docs(dir: &Path) -> Result<Vec<(PathBuf, Json)>, String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("read {}: {e}", dir.display()))?;
    let mut paths: Vec<PathBuf> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    paths.sort();
    let mut docs = Vec::new();
    for path in paths {
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
        let doc =
            rotsv_obs::json::parse(&text).map_err(|e| format!("parse {}: {e}", path.display()))?;
        if doc.get("benchmark").and_then(Json::as_str) == Some("rotsv-benchmark") {
            docs.push((path, doc));
        }
    }
    Ok(docs)
}

fn workload_of(doc: &Json) -> &str {
    doc.get("workload").and_then(Json::as_str).unwrap_or("?")
}

fn metric(doc: &Json, name: &str) -> Option<f64> {
    doc.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// Values of `name` on `workload` across `docs`.
fn values(docs: &[&Json], workload: &str, name: &str) -> Vec<f64> {
    docs.iter()
        .filter(|d| workload_of(d) == workload)
        .filter_map(|d| metric(d, name))
        .collect()
}

fn workloads(docs: &[&Json]) -> Vec<String> {
    let mut w: Vec<String> = docs.iter().map(|d| workload_of(d).to_owned()).collect();
    w.sort();
    w.dedup();
    w
}

fn all_metrics() -> impl Iterator<Item = &'static str> {
    END_TO_END.iter().chain(PER_LAYER).map(|&(n, _)| n)
}

fn spread([q1, med, q3]: [f64; 3]) -> f64 {
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

/// Prints median and quartiles of every metric per workload.
pub fn summarize(docs: &[&Json]) {
    println!(
        "{:<11} {:<30} {:>3} {:>14} {:>14} {:>14} {:>8}",
        "workload", "metric", "n", "q1", "median", "q3", "iqr/med"
    );
    for w in workloads(docs) {
        for name in all_metrics() {
            let v = values(docs, &w, name);
            if v.is_empty() {
                continue;
            }
            let q = quartiles(&v);
            println!(
                "{w:<11} {name:<30} {:>3} {:>14.6e} {:>14.6e} {:>14.6e} {:>7.1}%",
                v.len(),
                q[0],
                q[1],
                q[2],
                spread(q) * 100.0
            );
        }
    }
}

/// Bound and direction of each end-to-end metric in `BENCHMARK.json`.
fn bounds(path: &Path) -> Result<BTreeMap<String, (f64, bool)>, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let doc =
        rotsv_obs::json::parse(&text).map_err(|e| format!("parse {}: {e}", path.display()))?;
    let mut out = BTreeMap::new();
    for m in doc
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?
    {
        let name = m
            .get("name")
            .and_then(Json::as_str)
            .ok_or("metric without name")?;
        let bound = m
            .get("bound")
            .and_then(Json::as_f64)
            .ok_or("metric without bound")?;
        let lower = m.get("better").and_then(Json::as_str) == Some("lower");
        out.insert(name.to_owned(), (bound, lower));
    }
    Ok(out)
}

/// Documents of one workload, seed and run length must report identical
/// simulated work; returns one line per disagreeing group.
fn count_mismatches(docs: &[&Json]) -> Vec<String> {
    let mut groups: BTreeMap<String, Vec<String>> = BTreeMap::new();
    for d in docs {
        let key = ["workload", "seed", "seconds", "smoke", "trace"]
            .iter()
            .map(|k| d.get(k).map_or("null".into(), Json::render))
            .collect::<Vec<_>>()
            .join(" ");
        let counts = d.get("counts").map_or("null".into(), Json::render);
        groups.entry(key).or_default().push(counts);
    }
    groups
        .into_iter()
        .filter(|(_, c)| c.windows(2).any(|w| w[0] != w[1]))
        .map(|(key, c)| format!("simulated counts differ for {key}: {}", c.join(" vs ")))
        .collect()
}

/// Compares run sets `a` (the parent) and `b` (the change). Returns
/// `Ok(true)` when no end-to-end metric is worse than its bound and the
/// simulated counts agree.
pub fn compare(a: &Path, b: &Path, benchmark_json: &Path) -> Result<bool, String> {
    let bounds = bounds(benchmark_json)?;
    let (da, db) = (load_docs(a)?, load_docs(b)?);
    let da: Vec<&Json> = da.iter().map(|(_, d)| d).collect();
    let db: Vec<&Json> = db.iter().map(|(_, d)| d).collect();
    println!(
        "{:<11} {:<30} {:>20} {:>20} {:>8} {:>6}  verdict",
        "workload", "metric", "A median (iqr/med)", "B median (iqr/med)", "change", "bound"
    );
    let mut ok = true;
    for w in workloads(&da) {
        for name in all_metrics() {
            let (va, vb) = (values(&da, &w, name), values(&db, &w, name));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let (qa, qb) = (quartiles(&va), quartiles(&vb));
            let change = if qa[1] == 0.0 {
                0.0
            } else {
                (qb[1] - qa[1]) / qa[1].abs()
            };
            let (bound, verdict) = match bounds.get(name) {
                None => ("-".to_owned(), "-"),
                Some(&(bound, lower)) => {
                    let worse = if lower { change } else { -change };
                    let b_always_better = if lower {
                        vb.iter().copied().fold(f64::MIN, f64::max)
                            < va.iter().copied().fold(f64::MAX, f64::min)
                    } else {
                        vb.iter().copied().fold(f64::MAX, f64::min)
                            > va.iter().copied().fold(f64::MIN, f64::max)
                    };
                    let verdict = if b_always_better {
                        "better"
                    } else if spread(qa) > bound || spread(qb) > bound {
                        "unresolved"
                    } else if worse > bound {
                        ok = false;
                        "worse"
                    } else {
                        "ok"
                    };
                    (format!("{:.0}%", bound * 100.0), verdict)
                }
            };
            println!(
                "{w:<11} {name:<30} {:>11.4e} ({:>4.1}%) {:>11.4e} ({:>4.1}%) {:>+7.1}% {bound:>6}  {verdict}",
                qa[1],
                spread(qa) * 100.0,
                qb[1],
                spread(qb) * 100.0,
                change * 100.0,
            );
        }
    }
    let all: Vec<&Json> = da.iter().chain(&db).copied().collect();
    let mismatches = count_mismatches(&all);
    for m in &mismatches {
        println!("{m}");
    }
    Ok(ok && mismatches.is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(seed: f64, newton: f64) -> Json {
        rotsv_obs::json::parse(&format!(
            r#"{{"benchmark":"rotsv-benchmark","workload":"mc_ladder","seed":{seed},
                "seconds":20,"smoke":false,"trace":false,"counts":{{"newton":{newton}}}}}"#
        ))
        .expect("valid document")
    }

    #[test]
    fn counts_must_repeat_per_seed() {
        let (a, b, c) = (doc(1.0, 10.0), doc(1.0, 10.0), doc(2.0, 11.0));
        assert!(count_mismatches(&[&a, &b, &c]).is_empty());
        let d = doc(1.0, 12.0);
        assert_eq!(count_mismatches(&[&a, &b, &d]).len(), 1);
    }
}
