//! `e2e --compare A.json B.json`: one row per workload × end-to-end
//! metric, B against the base A.

use crate::json::Json;
use crate::metrics::END_TO_END;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B is no worse than A by more than the bound.
    Ok,
    /// B is worse than A by more than the bound.
    Worse,
    /// One side's own spread (see `Rounds::spread`) is wider than the
    /// bound, so this pair of runs cannot tell a difference of that size.
    Unresolved,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: &'static str,
    pub unit: &'static str,
    pub a: f64,
    pub b: f64,
    /// `b / a`: the base is A.
    pub ratio: f64,
    pub bound: f64,
    pub spread: f64,
    pub verdict: Verdict,
}

/// All three metrics are lower-is-better, so worse means larger.
pub fn verdict(a: f64, b: f64, spread: f64, bound: f64) -> Verdict {
    // A spread above the bound is unresolved even when B reads better:
    // every round of B below every round of A would settle it, but a
    // document holds only the summary.
    if !(a.is_finite() && b.is_finite()) || a <= 0.0 || spread > bound {
        Verdict::Unresolved
    } else if b > a * (1.0 + bound) {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

/// Accept an `e2e` document, or a bundle that holds one under `"e2e"`.
fn e2e_part(doc: &Json) -> &Json {
    doc.get("e2e").unwrap_or(doc)
}

/// Rows for every workload of A, in A's order. A workload or metric
/// missing from B is unresolved, never silently dropped.
pub fn compare(a: &Json, b: &Json) -> Result<Vec<Row>, String> {
    let (a, b) = (e2e_part(a), e2e_part(b));
    let workloads = a
        .get("workloads")
        .ok_or("first document has no \"workloads\"")?
        .members();
    let mut rows = Vec::new();
    for (name, wa) in workloads {
        for metric in &END_TO_END {
            let read = |w: Option<&Json>, field: &str| {
                w.and_then(|w| w.at(&["metrics", metric.name, field]))
                    .and_then(Json::as_f64)
            };
            let wb = b.at(&["workloads", name]);
            let (va, vb) = (
                read(Some(wa), "value").unwrap_or(f64::NAN),
                read(wb, "value").unwrap_or(f64::NAN),
            );
            let spread = read(Some(wa), "spread")
                .unwrap_or(0.0)
                .max(read(wb, "spread").unwrap_or(0.0));
            rows.push(Row {
                workload: name.clone(),
                metric: metric.name,
                unit: metric.unit,
                a: va,
                b: vb,
                ratio: vb / va,
                bound: metric.bound,
                spread,
                verdict: verdict(va, vb, spread, metric.bound),
            });
        }
    }
    Ok(rows)
}

pub fn render(rows: &[Row]) -> String {
    let mut out = format!(
        "{:<14} {:<12} {:>12} {:>12} {:>11} {:>7} {:>7}  {}\n",
        "workload", "metric", "A (base)", "B", "B/A", "bound", "spread", "verdict"
    );
    for r in rows {
        out.push_str(&format!(
            "{:<14} {:<12} {:>9.4} {:<2} {:>9.4} {:<2} {:>9.3}xA {:>6.0}% {:>6.1}%  {}\n",
            r.workload,
            r.metric,
            r.a,
            r.unit,
            r.b,
            r.unit,
            r.ratio,
            r.bound * 100.0,
            r.spread * 100.0,
            r.verdict.name()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(setup: f64, exec: f64, exec_spread: f64, rss: f64) -> Json {
        Json::parse(&format!(
            r#"{{"workloads": {{"mttkrp-cube": {{"metrics": {{
                "setup_s": {{"value": {setup}, "spread": 0.01}},
                "exec_ms": {{"value": {exec}, "spread": {exec_spread}}},
                "peak_rss_mb": {{"value": {rss}, "spread": 0.0}}}}}}}}}}"#
        ))
        .unwrap()
    }

    #[test]
    fn verdicts_follow_bound_and_spread() {
        assert_eq!(verdict(100.0, 109.0, 0.02, 0.10), Verdict::Ok);
        assert_eq!(verdict(100.0, 110.0, 0.10, 0.10), Verdict::Ok);
        assert_eq!(verdict(100.0, 50.0, 0.02, 0.10), Verdict::Ok);
        assert_eq!(verdict(100.0, 111.0, 0.02, 0.10), Verdict::Worse);
        assert_eq!(verdict(100.0, 111.0, 0.12, 0.10), Verdict::Unresolved);
        assert_eq!(verdict(100.0, 100.0, 0.12, 0.10), Verdict::Unresolved);
        assert_eq!(verdict(100.0, f64::NAN, 0.0, 0.10), Verdict::Unresolved);
    }

    #[test]
    fn one_row_per_workload_and_metric_with_the_ratio_on_base_a() {
        let (a, b) = (doc(0.50, 110.0, 0.03, 40.0), doc(0.65, 112.0, 0.03, 40.1));
        let rows = compare(&a, &b).unwrap();
        assert_eq!(rows.len(), 3);
        let by = |m: &str| rows.iter().find(|r| r.metric == m).unwrap();
        assert_eq!(by("setup_s").verdict, Verdict::Worse); // +30 % against a 25 % bound
        assert!((by("setup_s").ratio - 1.3).abs() < 1e-12);
        assert_eq!(by("exec_ms").verdict, Verdict::Ok);
        assert_eq!(by("peak_rss_mb").verdict, Verdict::Ok);
        let text = render(&rows);
        assert!(text.contains("worse") && text.contains("xA"));
    }

    #[test]
    fn a_bundle_compares_like_its_e2e_part_and_missing_data_is_unresolved() {
        let a = doc(0.5, 110.0, 0.3, 40.0);
        let bundle =
            Json::parse(&format!(r#"{{"e2e": {}, "layers": {{}}}}"#, a.compact())).unwrap();
        let rows = compare(&bundle, &a).unwrap();
        assert_eq!(rows[1].verdict, Verdict::Unresolved); // exec spread 30 % > 25 %
        let empty = Json::parse(r#"{"workloads": {}}"#).unwrap();
        let rows = compare(&a, &empty).unwrap();
        assert!(rows.iter().all(|r| r.verdict == Verdict::Unresolved));
        assert!(compare(&Json::Null, &a).is_err());
    }
}
