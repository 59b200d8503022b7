//! Order statistics, process accounting from `/proc`, and a reader for
//! the daemon's Prometheus text exposition.

use std::collections::BTreeMap;

/// Median of `xs` (mean of the middle pair for an even count); 0 when
/// empty.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// First quartile, median and third quartile with the same rule as
/// Python's `statistics.quantiles(data, n=4)` (the "exclusive" method),
/// so spreads reported here match the ones computed from the raw runs.
/// A single value is its own quartiles; empty input gives zeros.
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return [x, x, x];
    }
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Nearest-rank percentile (`q` in 0..=1) of an unsorted sample; 0 when
/// empty.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

fn proc_path(pid: Option<u32>, file: &str) -> String {
    match pid {
        Some(p) => format!("/proc/{p}/{file}"),
        None => format!("/proc/self/{file}"),
    }
}

/// User + system CPU seconds consumed so far by `pid` (this process when
/// `None`), summed over all its threads. `/proc` reports clock ticks of
/// `USER_HZ`, which Linux fixes at 100.
pub fn cpu_seconds(pid: Option<u32>) -> Result<f64, String> {
    let path = proc_path(pid, "stat");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("read {path}: {e}"))?;
    // The command name may hold spaces; fields resume after its ')'.
    let rest = text
        .rfind(')')
        .map(|i| &text[i + 1..])
        .ok_or_else(|| format!("{path}: no command field"))?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // utime and stime are fields 14 and 15 of the full line, i.e. 12 and
    // 13 after the command.
    let tick = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .ok_or_else(|| format!("{path}: malformed field {i}"))
    };
    Ok((tick(11)? + tick(12)?) / 100.0)
}

/// Peak resident set size (`VmHWM`) of `pid` (this process when
/// `None`), in megabytes of 10⁶ bytes.
pub fn rss_peak_mb(pid: Option<u32>) -> Result<f64, String> {
    let path = proc_path(pid, "status");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("read {path}: {e}"))?;
    let kib = text
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or_else(|| format!("{path}: no VmHWM line"))?;
    Ok(kib * 1024.0 / 1e6)
}

/// One scrape of a Prometheus text exposition: plain samples by series
/// name, and the cumulative `(le, count)` buckets of each histogram.
#[derive(Debug, Default, Clone)]
pub struct Scrape {
    samples: BTreeMap<String, f64>,
    buckets: BTreeMap<String, Vec<(f64, f64)>>,
}

impl Scrape {
    /// Parses the `text` member of a daemon `metrics` response.
    pub fn parse(text: &str) -> Scrape {
        let mut out = Scrape::default();
        for line in text.lines() {
            if line.starts_with('#') {
                continue;
            }
            let Some((series, value)) = line.rsplit_once(' ') else {
                continue;
            };
            let value = match value {
                "+Inf" => f64::INFINITY,
                "NaN" => f64::NAN,
                v => match v.parse::<f64>() {
                    Ok(x) => x,
                    Err(_) => continue,
                },
            };
            if let Some((name, label)) = series.split_once("_bucket{le=\"") {
                let le = match label.trim_end_matches("\"}") {
                    "+Inf" => f64::INFINITY,
                    s => s.parse().unwrap_or(f64::INFINITY),
                };
                out.buckets
                    .entry(name.to_owned())
                    .or_default()
                    .push((le, value));
            } else {
                out.samples.insert(series.to_owned(), value);
            }
        }
        out
    }

    /// A counter or gauge by its registry name (`server.engine_sessions`);
    /// 0 when absent.
    pub fn value(&self, name: &str) -> f64 {
        self.samples.get(&prom_name(name)).copied().unwrap_or(0.0)
    }

    /// `(sum, count)` of a histogram by registry name; zeros when absent.
    pub fn hist_sum_count(&self, name: &str) -> (f64, f64) {
        let base = prom_name(name);
        let get = |suffix: &str| {
            self.samples
                .get(&format!("{base}{suffix}"))
                .copied()
                .unwrap_or(0.0)
        };
        (get("_sum"), get("_count"))
    }

    /// Upper bound of the first bucket holding the `q` quantile of the
    /// histogram's samples added between `before` and `self`; 0 when no
    /// sample was added.
    pub fn hist_quantile_since(&self, before: &Scrape, name: &str, q: f64) -> f64 {
        let base = prom_name(name);
        let empty = Vec::new();
        let now = self.buckets.get(&base).unwrap_or(&empty);
        let then = before.buckets.get(&base).unwrap_or(&empty);
        let earlier = |le: f64| {
            then.iter()
                .find(|&&(l, _)| l == le)
                .map_or(0.0, |&(_, c)| c)
        };
        let added: Vec<(f64, f64)> = now.iter().map(|&(le, c)| (le, c - earlier(le))).collect();
        let total = added.last().map_or(0.0, |&(_, c)| c);
        if total <= 0.0 {
            return 0.0;
        }
        let target = (q * total).ceil().max(1.0);
        added
            .iter()
            .find(|&&(_, c)| c >= target)
            .map_or(0.0, |&(le, _)| le)
    }
}

/// Registry name → exposition name (`mc.dt_drag` → `rotsv_mc_dt_drag`),
/// the mapping `rotsv_obs::prom` applies.
fn prom_name(name: &str) -> String {
    let mapped: String = name
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect();
    format!("rotsv_{mapped}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        assert_eq!(quartiles(&[4.0]), [4.0, 4.0, 4.0]);
    }

    #[test]
    fn percentile_and_median() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.5), 50.0);
        assert_eq!(percentile(&xs, 0.9), 90.0);
        assert_eq!(percentile(&xs, 0.99), 99.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }

    #[test]
    fn scrape_reads_counters_and_histogram_deltas() {
        let before = Scrape::parse(
            "# TYPE rotsv_mc_dt_drag histogram\n\
             rotsv_mc_dt_drag_bucket{le=\"1.25\"} 2\n\
             rotsv_mc_dt_drag_bucket{le=\"+Inf\"} 2\n\
             rotsv_mc_dt_drag_sum 2\nrotsv_mc_dt_drag_count 2\n",
        );
        let after = Scrape::parse(
            "# TYPE rotsv_server_engine_sessions counter\n\
             rotsv_server_engine_sessions 7\n\
             rotsv_mc_dt_drag_bucket{le=\"1.25\"} 4\n\
             rotsv_mc_dt_drag_bucket{le=\"2.5\"} 12\n\
             rotsv_mc_dt_drag_bucket{le=\"+Inf\"} 12\n\
             rotsv_mc_dt_drag_sum 20\nrotsv_mc_dt_drag_count 12\n",
        );
        assert_eq!(after.value("server.engine_sessions"), 7.0);
        assert_eq!(after.hist_sum_count("mc.dt_drag"), (20.0, 12.0));
        // 10 samples added: 2 at ≤ 1.25, 8 at ≤ 2.5.
        assert_eq!(after.hist_quantile_since(&before, "mc.dt_drag", 0.2), 1.25);
        assert_eq!(after.hist_quantile_since(&before, "mc.dt_drag", 0.9), 2.5);
        assert_eq!(before.hist_quantile_since(&before, "mc.dt_drag", 0.9), 0.0);
    }
}
