//! The metric tables: what `e2e` gates and what `layers` reports.
//! `BENCHMARK.json` at the repo root lists the same names, units and
//! directions; a unit test holds the two together.

use crate::json::{obj, Json};
use crate::stats::Gate;

/// An end-to-end metric: what a user of the library sees.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    /// Share of the parent's value by which it may get worse.
    pub bound: f64,
    pub gate: Gate,
}

/// All lower-is-better.
pub const END_TO_END: [EndToEnd; 3] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        bound: 0.25,
        gate: Gate::Median,
    },
    EndToEnd {
        name: "exec_ms",
        unit: "ms",
        bound: 0.25,
        gate: Gate::PooledMin,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        bound: 0.05,
        gate: Gate::Median,
    },
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// A per-layer metric. `moves` is the prediction written down before
/// measuring: which end-to-end metric the number should move, where.
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub moves: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: Better, moves: &'static str) -> Layer {
    Layer {
        name,
        unit,
        better,
        moves,
    }
}

use Better::{Higher as Hi, Lower as Lo};

const DENOM: &str = "denominator only";
const INGEST: &str =
    "setup_s on the three 1M-nnz workloads (ingest + build is ~85 % of it), little on mttkrp-cube";
const NONE_SERIAL: &str = "none of the end-to-end rows (all run on 1 thread, pool bypassed)";
const NET_ONLY: &str = "net-factored only";
const REBIND: &str = "off the gated path (ALS callers pay it per sweep)";

/// Layer names are the repo's modules. Timings are the fastest of the
/// probe's samples (see the README: on a shared box noise only ever
/// slows a sample down) unless the name says otherwise; counts are exact.
pub const LAYERS: &[Layer] = &[
    m("machine.fma_gflops", "GFLOP/s", Hi, DENOM),
    m("machine.triad_gb_s", "GB/s", Hi, DENOM),
    m("machine.nproc", "count", Hi, DENOM),
    m("tensor.ingest_ms", "ms", Lo, INGEST),
    m("tensor.ingest_mb_s", "MB/s", Hi, INGEST),
    m("tensor.csf_build_ms", "ms", Lo, INGEST),
    m(
        "tensor.reorder_ms",
        "ms",
        Lo,
        "setup_s only once a plan picks a non-natural mode order (none of the five does today)",
    ),
    m(
        "tensor.walk_ms",
        "ms",
        Lo,
        "floor for exec_ms: one pass over the CSF",
    ),
    m(
        "tensor.csf_mb",
        "MB",
        Lo,
        "peak_rss_mb (computed from level sizes, not measured)",
    ),
    m("tensor.tile_imbalance", "x", Lo, NONE_SERIAL),
    m(
        "ir.parse_us",
        "us",
        Lo,
        "setup_s, negligible: prediction is that no workload moves",
    ),
    m("ir.paths", "count", Lo, "cost.plan_ms grows with it"),
    m("cost.plan_ms", "ms", Lo, "setup_s (8-30 % of it)"),
    m(
        "cost.plan_auto_ms",
        "ms",
        Lo,
        "setup_s only under ModeOrderPolicy::Auto (not the default)",
    ),
    m(
        "cost.auto_over_natural",
        "x",
        Lo,
        "exec_ms if Auto became the default; mttkrp-* only",
    ),
    m(
        "cost.modeled_flops",
        "flop",
        Lo,
        "what the planner minimised; compare with exec_ms",
    ),
    m(
        "cost.counted_over_modeled",
        "x",
        Lo,
        "observability: 1.0 means ExecStats sees the flops the model charges",
    ),
    m(
        "cost.exec_ms.blas-aware",
        "ms",
        Lo,
        "exec_ms (this is the default model)",
    ),
    m(
        "cost.exec_ms.cache-miss",
        "ms",
        Lo,
        "exec_ms if the default model changed",
    ),
    m(
        "cost.exec_ms.max-buffer-size",
        "ms",
        Lo,
        "exec_ms if the default model changed",
    ),
    m(
        "cost.exec_ms.max-buffer-dim",
        "ms",
        Lo,
        "exec_ms if the default model changed",
    ),
    m(
        "cost.regret",
        "x",
        Lo,
        "exec_ms on mttkrp-cube and tttp-mid; must stay 1.0 on mttkrp-hyper and ttmc-hyper",
    ),
    m(
        "exec.tape_compile_us",
        "us",
        Lo,
        "setup_s (inside bind), negligible",
    ),
    m(
        "exec.tape_verify_us",
        "us",
        Lo,
        "setup_s only with --verify",
    ),
    m(
        "exec.tape_instrs",
        "count",
        Lo,
        "exec_ms weakly (dispatch per instruction)",
    ),
    m(
        "exec.superinstructions",
        "count",
        Hi,
        "exec_ms on ttmc-hyper",
    ),
    m("exec.specialized", "count", Hi, "exec_ms on ttmc-hyper"),
    m(
        "exec.scalar_ms",
        "ms",
        Lo,
        "exec_ms on a CPU without the SIMD tiers",
    ),
    m(
        "exec.simd_speedup",
        "x",
        Hi,
        "exec_ms on ttmc-hyper (~1.5x), ~1.0 on mttkrp-cube",
    ),
    m(
        "exec.time_over_walk",
        "x",
        Lo,
        "exec_ms on mttkrp-cube (the default plan walks the tree ~32 times)",
    ),
    m("exec.mnnz_s", "Mnnz/s", Hi, "exec_ms, as a rate"),
    m(
        "exec.ref_gflops",
        "GFLOP/s",
        Hi,
        "exec_ms, as reference-loop flops per second",
    ),
    m(
        "exec.frac_fma_peak",
        "x",
        Hi,
        "exec_ms against machine.fma_gflops",
    ),
    m(
        "exec.dispatches",
        "count",
        Lo,
        "exec_ms on ttmc-hyper (per-dispatch overhead)",
    ),
    m(
        "exec.elems",
        "count",
        Lo,
        "exec_ms (elements through the microkernels)",
    ),
    m(
        "exec.p50_ms",
        "ms",
        Lo,
        "exec_ms (printed beside the gated minimum)",
    ),
    m("exec.p90_ms", "ms", Lo, "the tail; printed, not gated"),
    m(
        "exec.guard_overhead_pct",
        "%",
        Lo,
        "exec_ms if deadlines were on by default",
    ),
    m(
        "exec.simd.axpy_gflops",
        "GFLOP/s",
        Hi,
        "exec_ms on ttmc-hyper",
    ),
    m(
        "exec.simd.ger_gflops",
        "GFLOP/s",
        Hi,
        "exec_ms on ttmc-hyper",
    ),
    m("exec.simd.dot_gflops", "GFLOP/s", Hi, "exec_ms on tttp-mid"),
    m("parallel.tile_ms.max", "ms", Lo, NONE_SERIAL),
    m("parallel.tile_ms.sum", "ms", Lo, NONE_SERIAL),
    m(
        "parallel.sum_tiles_over_serial",
        "x",
        Lo,
        "above 1 is dense prologue recomputed per tile",
    ),
    m("parallel.reduce_us", "us", Lo, NONE_SERIAL),
    m(
        "parallel.critical_path_ms",
        "ms",
        Lo,
        "what 2 threads could reach: max tile + reduce",
    ),
    m(
        "parallel.exec_2t_ms",
        "ms",
        Lo,
        "noisy on 2 shared vCPUs: read with parallel.critical_path_ms",
    ),
    m("parallel.speedup_2t", "x", Hi, "noisy on 2 shared vCPUs"),
    m(
        "parallel.handoff_us",
        "us",
        Lo,
        "noisy: 2-thread time minus the critical path",
    ),
    m("net.search_ms", "ms", Lo, "setup_s on net-factored"),
    m("net.evaluated_pairs", "count", Lo, NET_ONLY),
    m("net.dense_steps", "count", Lo, NET_ONLY),
    m("net.dense_flops", "flop", Lo, NET_ONLY),
    m(
        "net.dense_ms",
        "ms",
        Lo,
        "exec_ms on net-factored (~60 % of it)",
    ),
    m("net.dense_gflops", "GFLOP/s", Hi, "exec_ms on net-factored"),
    m(
        "net.dense_share",
        "x",
        Lo,
        "exec_ms on net-factored: is it the loop or the order?",
    ),
    m("net.pool_created", "count", Lo, NET_ONLY),
    m("net.pool_reused", "count", Hi, NET_ONLY),
    m(
        "spttn.shapes_ms",
        "ms",
        Lo,
        "setup_s; its COO clone also shows in peak_rss_mb",
    ),
    m("spttn.bind_ms", "ms", Lo, "setup_s"),
    m(
        "spttn.plancache_miss_ms",
        "ms",
        Lo,
        "off the gated path (set-up is measured without a cache)",
    ),
    m("spttn.plancache_hit_us", "us", Lo, "off the gated path"),
    m("spttn.set_factor_us", "us", Lo, REBIND),
    m("spttn.set_sparse_values_us", "us", Lo, REBIND),
    m("spttn.output_template_us", "us", Lo, REBIND),
    m(
        "cli.run_s",
        "s",
        Lo,
        "what setup_s + one execute looks like from a shell",
    ),
    m(
        "cli.over_inproc",
        "x",
        Lo,
        "confirms setup_s is what a CLI user sees",
    ),
    m("trace.overhead_pct", "%", Lo, "none: the spans' own cost"),
];

/// The object the gate reads from the last line of standard output.
pub fn contract_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: impl IntoIterator<Item = (String, f64, &'static str)>,
) -> String {
    obj([
        ("correct", Json::from(correct)),
        ("attempted", Json::from(attempted.max(1))),
        ("failed", Json::from(failed)),
        (
            "metrics",
            obj(metrics.into_iter().map(|(name, value, unit)| {
                (
                    name,
                    obj([("value", Json::from(value)), ("unit", Json::from(unit))]),
                )
            })),
        ),
    ])
    .compact()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads;

    /// `BENCHMARK.json` is what the gate reads; these tables are what
    /// the binaries print. They must say the same thing.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let list = |key: &str| match doc.get(key) {
            Some(Json::Arr(items)) => items.clone(),
            other => panic!("{key}: {other:?}"),
        };
        let field =
            |item: &Json, key: &str| item.get(key).and_then(Json::as_str).map(str::to_string);

        let names: Vec<_> = list("workloads").iter().map(|w| field(w, "name")).collect();
        let whys: Vec<_> = list("workloads").iter().map(|w| field(w, "why")).collect();
        let ours = workloads::all();
        assert_eq!(
            names,
            ours.iter()
                .map(|w| Some(w.name.to_string()))
                .collect::<Vec<_>>()
        );
        assert_eq!(
            whys,
            ours.iter()
                .map(|w| Some(w.why.to_string()))
                .collect::<Vec<_>>()
        );
        assert!(ours
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));

        let e2e = list("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (item, ours) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(field(item, "name").as_deref(), Some(ours.name));
            assert_eq!(field(item, "unit").as_deref(), Some(ours.unit));
            assert_eq!(field(item, "better").as_deref(), Some("lower"));
            assert_eq!(item.get("bound").and_then(Json::as_f64), Some(ours.bound));
        }

        let layers = list("per_layer");
        assert_eq!(layers.len(), LAYERS.len());
        assert!(LAYERS.len() <= 128);
        for (item, ours) in layers.iter().zip(LAYERS) {
            assert_eq!(field(item, "name").as_deref(), Some(ours.name));
            assert_eq!(field(item, "unit").as_deref(), Some(ours.unit));
            assert_eq!(field(item, "better").as_deref(), Some(ours.better.name()));
        }
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let ok_name = |s: &str| {
            s.len() <= 64
                && s.starts_with(|c: char| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in LAYERS
            .iter()
            .map(|l| (l.name, l.unit))
            .chain(END_TO_END.iter().map(|e| (e.name, e.unit)))
            .chain(workloads::all().iter().map(|w| (w.name, "x")))
        {
            assert!(ok_name(name), "{name}");
            assert!(ok_unit(unit), "{name}: {unit}");
            assert!(seen.insert(name), "{name} used twice");
        }
    }

    #[test]
    fn contract_line_has_exactly_the_four_keys() {
        let line = contract_line(true, 0, 0, [("setup_s".to_string(), 0.5, "s")]);
        let doc = Json::parse(&line).unwrap();
        let keys: Vec<&str> = doc.members().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("attempted").and_then(Json::as_f64), Some(1.0));
        assert_eq!(
            doc.at(&["metrics", "setup_s", "unit"])
                .and_then(Json::as_str),
            Some("s")
        );
    }
}
