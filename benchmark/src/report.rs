//! Result rows: the metric ledger a workload fills, the provenance header
//! every row carries, the driver's result line, result files, and the
//! comparer that refuses to compare rows whose configs differ.

use crate::json::{obj, Json};
use crate::params::{metric_def, Better, MetricDef, END_TO_END, PER_LAYER};
use crate::stats;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One measured value.
#[derive(Clone, Debug, PartialEq)]
pub struct Value {
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value (1 for a single reading or a count).
    pub n: u64,
    /// Free-form qualifier ("reported at p95", "computed", …), may be empty.
    pub note: String,
}

/// The provenance header: ordered `(key, value)` strings. Keys listed in
/// [`NOT_CONFIG`] describe the occasion of a run; every other key is config,
/// and two rows are comparable only when their configs are equal.
pub type Provenance = Vec<(String, String)>;

/// Provenance keys that may differ between comparable rows.
pub const NOT_CONFIG: [&str; 4] = ["git_rev", "host.canary_ns", "seed", "notes"];

/// One workload run in one mode.
#[derive(Clone, Debug)]
pub struct Row {
    pub workload: String,
    pub traced: bool,
    pub provenance: Provenance,
    pub attempted: u64,
    pub failed: u64,
    /// Oracle verdict: no op failed and every set-up self-check held.
    pub correct: bool,
    pub metrics: BTreeMap<String, Value>,
}

impl Row {
    pub fn new(workload: &str, traced: bool, provenance: Provenance) -> Self {
        Row {
            workload: workload.to_string(),
            traced,
            provenance,
            attempted: 0,
            failed: 0,
            correct: true,
            metrics: BTreeMap::new(),
        }
    }

    /// Records a metric of the catalogue.
    ///
    /// # Panics
    /// Panics when `name` is not in the catalogue, or not a metric of this
    /// row's workload and mode — a bug in the benchmark, not in the program
    /// under test.
    pub fn put(&mut self, name: &str, value: f64, n: u64) {
        self.put_noted(name, value, n, "");
    }

    /// [`Row::put`] with a qualifier.
    pub fn put_noted(&mut self, name: &str, value: f64, n: u64, note: &str) {
        let def =
            metric_def(name).unwrap_or_else(|| panic!("metric {name} is not in the catalogue"));
        assert!(
            def.on.contains(&self.workload.as_str()),
            "{name} is not a {} metric",
            self.workload
        );
        assert_eq!(def.bound > 0.0, !self.traced, "{name} reported by the wrong run");
        self.metrics
            .insert(name.to_string(), Value { value, unit: def.unit, n, note: note.to_string() });
    }

    fn table(&self) -> &'static [MetricDef] {
        if self.traced {
            PER_LAYER
        } else {
            END_TO_END
        }
    }

    /// Catalogue metrics of this workload and mode that were never `put`.
    pub fn missing(&self) -> Vec<&'static str> {
        self.table()
            .iter()
            .filter(|d| {
                d.on.contains(&self.workload.as_str()) && !self.metrics.contains_key(d.name)
            })
            .map(|d| d.name)
            .collect()
    }

    pub fn fail_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The driver's result line: exactly `correct`, `attempted`, `failed`,
    /// `metrics`, the metrics being every catalogue metric of this mode. A
    /// metric this workload does not measure reads 0 there (the contract
    /// fixes the key set per mode, not per workload).
    pub fn driver_line(&self) -> String {
        let metrics = self.table().iter().map(|d| {
            let v = self.metrics.get(d.name).map_or(0.0, |v| v.value);
            (d.name, obj([("value", Json::Num(v)), ("unit", Json::Str(d.unit.into()))]))
        });
        obj([
            ("correct", Json::Bool(self.correct && self.failed == 0)),
            ("attempted", Json::Num(self.attempted.max(1) as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", obj(metrics)),
        ])
        .render()
    }

    /// The row as a result-file object (provenance header included).
    pub fn to_json(&self) -> Json {
        let metrics = self.metrics.iter().map(|(k, v)| {
            (
                k.clone(),
                obj([
                    ("value", Json::Num(v.value)),
                    ("unit", Json::Str(v.unit.into())),
                    ("n", Json::Num(v.n as f64)),
                    ("note", Json::Str(v.note.clone())),
                ]),
            )
        });
        let prov = self.provenance.iter().map(|(k, v)| (k.clone(), Json::Str(v.clone())));
        obj([
            ("workload", Json::Str(self.workload.clone())),
            ("traced", Json::Bool(self.traced)),
            ("provenance", obj(prov)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("correct", Json::Bool(self.correct)),
            ("metrics", obj(metrics)),
        ])
    }

    /// Reads a row back from [`Row::to_json`]'s form.
    pub fn from_json(j: &Json) -> Result<Row, String> {
        let field = |k: &str| j.get(k).ok_or_else(|| format!("row lacks '{k}'"));
        let workload = field("workload")?.as_str().ok_or("workload is not a string")?.to_string();
        let mut metrics = BTreeMap::new();
        for (name, v) in field("metrics")?.as_obj().ok_or("metrics is not an object")? {
            let def = metric_def(name).ok_or_else(|| format!("unknown metric '{name}'"))?;
            metrics.insert(
                name.clone(),
                Value {
                    value: v.get("value").and_then(Json::as_f64).ok_or("metric lacks value")?,
                    unit: def.unit,
                    n: v.get("n").and_then(Json::as_f64).unwrap_or(1.0) as u64,
                    note: v.get("note").and_then(Json::as_str).unwrap_or("").to_string(),
                },
            );
        }
        let provenance = field("provenance")?
            .as_obj()
            .ok_or("provenance is not an object")?
            .iter()
            .map(|(k, v)| (k.clone(), v.as_str().unwrap_or("").to_string()))
            .collect();
        Ok(Row {
            workload,
            traced: field("traced")?.as_bool().ok_or("traced is not a boolean")?,
            provenance,
            attempted: field("attempted")?.as_f64().ok_or("attempted is not a number")? as u64,
            failed: field("failed")?.as_f64().ok_or("failed is not a number")? as u64,
            correct: field("correct")?.as_bool().ok_or("correct is not a boolean")?,
            metrics,
        })
    }

    /// The config part of the provenance header, sorted by key.
    pub fn config(&self) -> BTreeMap<&str, &str> {
        self.provenance
            .iter()
            .filter(|(k, _)| !NOT_CONFIG.contains(&k.as_str()))
            .map(|(k, v)| (k.as_str(), v.as_str()))
            .collect()
    }

    /// Prints the row: provenance header, then every metric by name with
    /// its unit and sample count.
    pub fn render(&self) -> String {
        let mode = if self.traced { "traced, per-layer" } else { "untraced, end-to-end" };
        let mut out = format!("== {} ({mode}) ==\n", self.workload);
        let prov: Vec<String> = self.provenance.iter().map(|(k, v)| format!("{k}={v}")).collect();
        let _ = writeln!(out, "  provenance: {}", prov.join(" "));
        let _ = writeln!(
            out,
            "  {:<36} {:>16} {:<6} {:>9}  note",
            "metric", "value", "unit", "samples"
        );
        let _ = writeln!(
            out,
            "  {:<36} {:>16.6} {:<6} {:>9}  {} failed of {} attempted{}",
            "fail_ratio",
            self.fail_ratio(),
            "ratio",
            self.attempted,
            self.failed,
            self.attempted,
            if self.correct { "" } else { "; ORACLE SELF-CHECK FAILED" }
        );
        for d in self.table() {
            if let Some(v) = self.metrics.get(d.name) {
                let bound = if d.bound > 0.0 {
                    format!("bound {:.0}% {}", d.bound * 100.0, d.better.as_str())
                } else {
                    String::new()
                };
                let note = [bound.as_str(), v.note.as_str()]
                    .iter()
                    .filter(|s| !s.is_empty())
                    .copied()
                    .collect::<Vec<_>>()
                    .join("; ");
                let _ = writeln!(
                    out,
                    "  {:<36} {:>16.4} {:<6} {:>9}  {note}",
                    d.name, v.value, v.unit, v.n
                );
            }
        }
        out
    }
}

/// Writes rows as one result file.
pub fn write_rows(path: &std::path::Path, rows: &[Row]) -> std::io::Result<()> {
    let doc = obj([
        ("schema", Json::Num(1.0)),
        ("rows", Json::Arr(rows.iter().map(Row::to_json).collect())),
    ]);
    std::fs::write(path, doc.render() + "\n")
}

/// Reads a result file written by [`write_rows`].
pub fn read_rows(path: &std::path::Path) -> Result<Vec<Row>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let rows = doc.get("rows").and_then(Json::as_arr).ok_or("result file lacks 'rows'")?;
    rows.iter().map(Row::from_json).collect()
}

/// `true` when `b` is worse than `a` by more than `bound` of `a`.
pub fn worse_by_more_than(def: &MetricDef, a: f64, b: f64, bound: f64) -> bool {
    match def.better {
        Better::Lower => b > a * (1.0 + bound),
        Better::Higher => b < a * (1.0 - bound),
    }
}

/// Compares result set `b` against `a`, row by row (same workload, same
/// mode). Rows whose configs differ are **refused** — the differing keys are
/// listed and no ratio is printed for them. Returns the report and whether
/// every compared end-to-end metric stayed within its bound.
pub fn compare(a: &[Row], b: &[Row]) -> (String, bool) {
    let mut out = String::new();
    let mut ok = true;
    for ra in a {
        let Some(rb) = b.iter().find(|r| r.workload == ra.workload && r.traced == ra.traced) else {
            let _ = writeln!(out, "{}: no matching row in the second set", ra.workload);
            ok = false;
            continue;
        };
        let (ca, cb) = (ra.config(), rb.config());
        if ca != cb {
            ok = false;
            let _ = writeln!(out, "{}: REFUSED, configs differ:", ra.workload);
            let keys: std::collections::BTreeSet<&str> =
                ca.keys().chain(cb.keys()).copied().collect();
            for k in keys.into_iter().filter(|k| ca.get(k) != cb.get(k)) {
                let show =
                    |c: &BTreeMap<&str, &str>| c.get(k).copied().unwrap_or("(absent)").to_string();
                let _ = writeln!(out, "    {k}: {} vs {}", show(&ca), show(&cb));
            }
            continue;
        }
        let _ = writeln!(
            out,
            "{} ({}): failed {}/{} vs {}/{}",
            ra.workload,
            if ra.traced { "traced" } else { "untraced" },
            ra.failed,
            ra.attempted,
            rb.failed,
            rb.attempted
        );
        if rb.failed > ra.failed || !rb.correct {
            ok = false;
        }
        for (name, va) in &ra.metrics {
            let (Some(vb), Some(def)) = (rb.metrics.get(name), metric_def(name)) else { continue };
            let ratio = if va.value != 0.0 { vb.value / va.value } else { f64::NAN };
            let verdict = if def.bound == 0.0 {
                ""
            } else if worse_by_more_than(def, va.value, vb.value, def.bound) {
                ok = false;
                "WORSE THAN BOUND"
            } else {
                "within bound"
            };
            let _ = writeln!(
                out,
                "  {:<36} {:>14.4} -> {:>14.4} {:<6} x{:<8.4} {verdict}",
                name, va.value, vb.value, va.unit, ratio
            );
        }
    }
    (out, ok)
}

/// The `--repeat N` table: per metric the median, quartiles and spread
/// (interquartile range over median, the driver's measure) against a third
/// of the bound, which is where the driver's instructions want a steady
/// benchmark to sit.
pub fn repeat_table(runs: &[Row]) -> String {
    let Some(first) = runs.first() else { return String::new() };
    let mut out = format!(
        "-- {} ({}): {} runs --\n  {:<36} {:>14} {:>14} {:>14} {:>9} {:>9}\n",
        first.workload,
        if first.traced { "traced" } else { "untraced" },
        runs.len(),
        "metric",
        "q1",
        "median",
        "q3",
        "spread",
        "bound/3"
    );
    let failed: u64 = runs.iter().map(|r| r.failed).sum();
    let attempted: u64 = runs.iter().map(|r| r.attempted).sum();
    let _ = writeln!(out, "  fail_ratio: {failed} failed of {attempted} attempted over all runs");
    for d in first.table() {
        let vals: Vec<f64> =
            runs.iter().filter_map(|r| r.metrics.get(d.name)).map(|v| v.value).collect();
        let Some((q1, med, q3)) = stats::quartiles(&vals) else { continue };
        let spread = stats::spread(&vals).unwrap_or(0.0);
        let (limit, flag) = if d.bound > 0.0 {
            let lim = d.bound / 3.0;
            (
                format!("{:.2}%", lim * 100.0),
                if spread > lim && d.name != "setup_s" { " UNSTEADY" } else { "" },
            )
        } else {
            (String::from("-"), "")
        };
        let _ = writeln!(
            out,
            "  {:<36} {:>14.4} {:>14.4} {:>14.4} {:>8.2}% {:>9}{flag}",
            d.name,
            q1,
            med,
            q3,
            spread * 100.0,
            limit
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{DECODE, REMOTE};

    fn row(workload: &str, workers: &str, p50: f64) -> Row {
        let prov = vec![
            ("git_rev".to_string(), "abc".to_string()),
            ("seed".to_string(), "1".to_string()),
            ("workers".to_string(), workers.to_string()),
        ];
        let mut r = Row::new(workload, false, prov);
        r.attempted = 100;
        r.put("op_us_p50", p50, 100);
        r.put("ops_per_s", 1e6 / p50, 100);
        r
    }

    #[test]
    fn driver_line_has_exactly_the_contract_keys() {
        let r = row(DECODE, "2", 1500.25);
        let j = Json::parse(&r.driver_line()).unwrap();
        let keys: Vec<&str> = j.as_obj().unwrap().keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        let m = j.get("metrics").unwrap().as_obj().unwrap();
        assert_eq!(m.len(), END_TO_END.len(), "every end-to-end metric, nothing else");
        assert_eq!(m["op_us_p50"].get("value").unwrap().as_f64(), Some(1500.25));
        assert_eq!(m["op_us_p50"].get("unit").unwrap().as_str(), Some("us"));
        assert_eq!(j.get("correct").unwrap().as_bool(), Some(true));
    }

    #[test]
    fn a_failed_op_makes_the_line_incorrect() {
        let mut r = row(DECODE, "2", 1500.0);
        r.failed = 1;
        let j = Json::parse(&r.driver_line()).unwrap();
        assert_eq!(j.get("correct").unwrap().as_bool(), Some(false));
        assert_eq!(j.get("failed").unwrap().as_f64(), Some(1.0));
    }

    #[test]
    fn rows_round_trip_through_a_result_file() {
        let r = row(REMOTE, "2", 480.5);
        let back = Row::from_json(&Json::parse(&r.to_json().render()).unwrap()).unwrap();
        assert_eq!(back.metrics, r.metrics);
        assert_eq!(back.config(), r.config());
        assert_eq!((back.attempted, back.failed, back.correct), (100, 0, true));
    }

    #[test]
    fn comparer_refuses_rows_whose_configs_differ() {
        let (a, b) = (row(DECODE, "2", 100.0), row(DECODE, "4", 50.0));
        let (report, ok) = compare(&[a], &[b]);
        assert!(!ok);
        assert!(report.contains("REFUSED") && report.contains("workers: 2 vs 4"), "{report}");
        assert!(!report.contains("x0.5"), "no ratio for refused rows: {report}");
    }

    #[test]
    fn comparer_applies_each_metric_bound_in_its_direction() {
        let a = row(DECODE, "2", 100.0);
        let (report, ok) = compare(std::slice::from_ref(&a), &[row(DECODE, "2", 105.0)]);
        assert!(ok, "{report}");
        let (report, ok) = compare(std::slice::from_ref(&a), &[row(DECODE, "2", 130.0)]);
        assert!(!ok && report.contains("WORSE THAN BOUND"), "{report}");
        // Seeds and revisions may differ between comparable rows.
        let mut c = row(DECODE, "2", 100.0);
        c.provenance[0].1 = "def".into();
        c.provenance[1].1 = "2".into();
        assert!(compare(&[a], &[c]).1);
    }

    #[test]
    #[should_panic(expected = "not in the catalogue")]
    fn unknown_metric_is_a_bug() {
        row(DECODE, "2", 1.0).put("made.up", 1.0, 1);
    }

    #[test]
    fn missing_lists_unreported_metrics() {
        let r = row(DECODE, "2", 1.0);
        assert_eq!(r.missing(), ["setup_s", "peak_rss_mib"]);
    }
}
