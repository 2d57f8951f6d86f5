//! # spttn-bench
//!
//! A minimal, self-contained timing harness plus shared fixtures for
//! the workspace benchmarks.
//!
//! The build environment is fully offline, so the usual `criterion`
//! dev-dependency cannot be fetched; [`Harness`] mirrors the small
//! slice of its API the benches need (`bench_function` + `iter`) so the
//! bench sources can be ported to real criterion by swapping one
//! import once a registry is available. Results print as a fixed-width
//! table of per-iteration times (median / mean / min over timed runs).
//!
//! ## Machine-readable output
//!
//! When the `SPTTN_BENCH_JSON` environment variable names a file,
//! [`Harness::finish`] also records the group's results there as JSON —
//! per-bench median/mean/min nanoseconds plus any metadata attached
//! with [`Harness::note`] (benches attach their `ExecStats` this way).
//! The file holds a JSON **array of groups**: each `finish` appends,
//! so a binary (or bench run) with several harness groups loses
//! nothing — delete the file first for a fresh record. CI's
//! `bench-smoke` job uploads this artifact so the perf trajectory is
//! tracked across commits.

use std::time::Instant;

/// One recorded bench row.
struct Row {
    id: String,
    samples_ms: Vec<f64>,
    /// Raw JSON object string attached via [`Harness::note`].
    note: Option<String>,
}

/// Simple benchmark runner: warmup runs, timed runs, table output.
pub struct Harness {
    name: String,
    warmup: usize,
    runs: usize,
    results: Vec<Row>,
}

impl Harness {
    /// Create a harness for a named bench group.
    pub fn new(name: &str) -> Self {
        // Keep wall-clock modest: benches are a perf *baseline*, not a
        // statistics suite.
        Harness {
            name: name.to_string(),
            warmup: 3,
            runs: 10,
            results: Vec::new(),
        }
    }

    /// Override (warmup, timed) run counts.
    pub fn with_runs(mut self, warmup: usize, runs: usize) -> Self {
        self.warmup = warmup;
        self.runs = runs.max(1);
        self
    }

    /// Time one closure; the closure is one full iteration. Returns the
    /// timed samples in milliseconds.
    pub fn bench_function(&mut self, id: &str, mut f: impl FnMut()) -> &[f64] {
        for _ in 0..self.warmup {
            f();
        }
        let mut samples = Vec::with_capacity(self.runs);
        for _ in 0..self.runs {
            let t0 = Instant::now();
            f();
            samples.push(t0.elapsed().as_secs_f64() * 1e3);
        }
        self.results.push(Row {
            id: id.to_string(),
            samples_ms: samples,
            note: None,
        });
        &self.results[self.results.len() - 1].samples_ms
    }

    /// Attach a machine-readable metadata object (a raw JSON object
    /// string, e.g. serialized `ExecStats`) to an already-recorded
    /// bench id; it is embedded under `"stats"` in the JSON output.
    pub fn note(&mut self, id: &str, json_object: String) {
        if let Some(row) = self.results.iter_mut().rev().find(|r| r.id == id) {
            row.note = Some(json_object);
        }
    }

    /// Print the result table (and write the JSON artifact when
    /// `SPTTN_BENCH_JSON` is set) and return the raw samples.
    pub fn finish(self) -> Vec<(String, Vec<f64>)> {
        println!("\n== {} ==", self.name);
        println!(
            "{:<44} {:>10} {:>10} {:>10}",
            "bench", "median", "mean", "min"
        );
        for row in &self.results {
            let (median, mean, min) = summarize(&row.samples_ms);
            println!(
                "{:<44} {:>8.3}ms {:>8.3}ms {:>8.3}ms",
                row.id, median, mean, min
            );
        }
        if let Ok(path) = std::env::var("SPTTN_BENCH_JSON") {
            if !path.is_empty() {
                match append_group(&path, &self.to_json()) {
                    Ok(()) => println!("recorded group in {path}"),
                    Err(e) => eprintln!("could not write {path}: {e}"),
                }
            }
        }
        self.results
            .into_iter()
            .map(|r| (r.id, r.samples_ms))
            .collect()
    }

    /// Render the group's results as a JSON document.
    fn to_json(&self) -> String {
        let mut s = String::from("{\n");
        s.push_str(&format!("  \"group\": \"{}\",\n", escape(&self.name)));
        s.push_str(&format!("  \"runs\": {},\n", self.runs));
        s.push_str("  \"benches\": [\n");
        for (i, row) in self.results.iter().enumerate() {
            let (median, mean, min) = summarize(&row.samples_ms);
            s.push_str("    {");
            s.push_str(&format!("\"id\": \"{}\", ", escape(&row.id)));
            s.push_str(&format!(
                "\"median_ns\": {:.0}, \"mean_ns\": {:.0}, \"min_ns\": {:.0}",
                median * 1e6,
                mean * 1e6,
                min * 1e6
            ));
            if let Some(note) = &row.note {
                s.push_str(&format!(", \"stats\": {note}"));
            }
            s.push('}');
            if i + 1 < self.results.len() {
                s.push(',');
            }
            s.push('\n');
        }
        s.push_str("  ]\n}\n");
        s
    }
}

/// Append one group object to the JSON array at `path` (creating the
/// array if the file is absent or not already one), so multi-group
/// runs never silently overwrite each other.
fn append_group(path: &str, group: &str) -> std::io::Result<()> {
    let existing = std::fs::read_to_string(path).unwrap_or_default();
    let trimmed = existing.trim_end();
    let doc = if let Some(body) = trimmed
        .strip_prefix('[')
        .and_then(|r| r.strip_suffix(']'))
        .filter(|b| !b.trim().is_empty())
    {
        format!("[{},\n{group}]\n", body.trim_end())
    } else {
        format!("[\n{group}]\n")
    };
    std::fs::write(path, doc)
}

/// (median, mean, min) of a sample list in the list's unit.
fn summarize(samples: &[f64]) -> (f64, f64, f64) {
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let median = sorted[sorted.len() / 2];
    let mean: f64 = sorted.iter().sum::<f64>() / sorted.len() as f64;
    (median, mean, sorted[0])
}

/// Minimal JSON string escaping (quotes and backslashes; bench ids are
/// plain ASCII).
fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Black-box helper: keep the optimizer from eliding a computed value.
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harness_records_every_bench() {
        let mut h = Harness::new("unit").with_runs(1, 3);
        let mut n = 0u64;
        h.bench_function("count", || n += 1);
        h.bench_function("noop", || {});
        let results = h.finish();
        assert_eq!(results.len(), 2);
        assert_eq!(results[0].1.len(), 3);
        assert_eq!(n, 4); // 1 warmup + 3 timed
    }

    #[test]
    fn json_contains_rows_and_notes() {
        let mut h = Harness::new("json \"group\"").with_runs(0, 2);
        h.bench_function("a", || {});
        h.bench_function("b", || {});
        h.note("a", "{\"axpy\": 7}".to_string());
        let json = h.to_json();
        assert!(json.contains("\"group\": \"json \\\"group\\\"\""), "{json}");
        assert!(json.contains("\"id\": \"a\""));
        assert!(json.contains("\"stats\": {\"axpy\": 7}"));
        assert!(json.contains("\"median_ns\""));
        // Two rows, one comma between them.
        assert_eq!(json.matches("\"id\"").count(), 2);
    }

    #[test]
    fn append_group_accumulates_an_array() {
        let dir = std::env::temp_dir().join(format!("spttn-bench-json-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("out.json");
        let path = path.to_str().unwrap();
        let _ = std::fs::remove_file(path);
        append_group(path, "{\"group\": \"a\"}\n").unwrap();
        append_group(path, "{\"group\": \"b\"}\n").unwrap();
        let doc = std::fs::read_to_string(path).unwrap();
        assert!(doc.trim_start().starts_with('['), "{doc}");
        assert!(doc.trim_end().ends_with(']'), "{doc}");
        assert_eq!(doc.matches("\"group\"").count(), 2, "{doc}");
        std::fs::remove_file(path).unwrap();
    }
}
