//! Generated-network suite for `spttn-net`'s order search: seeded
//! random networks of 3–7 tensors — a 2- or 3-mode sparse tensor and
//! dense factors of order 1–3 that share indices among themselves and
//! with it, some index on three or more tensors (a hyper index) — each
//! planned at budget 0 and at the default budget. Per plan:
//!
//! - at budget 0 the chosen order is the greedy one;
//! - when the exact sweep completes, the chosen order's modeled flops
//!   are the minimum over every pairwise order `enumerate_paths`
//!   yields, and the lowered path scores exactly that;
//! - the executed output matches the whole-network naive oracle to
//!   ≤1e-9.
//!
//! A generated expression the front end refuses is tallied by its
//! typed error and printed, never dropped silently; the suite asserts
//! how many cases ran and what they covered.

#[path = "common/networks.rs"]
mod networks;

use networks::Fixture;
use rand::prelude::*;
use spttn::ir::enumerate_paths;
use spttn::Shapes;
use spttn_net::{modeled_path_flops, NetOptions, Network};
use std::collections::BTreeMap;

const TOL: f64 = 1e-9;
/// (tensors, networks generated) per size. Brute force enumerates
/// 56 700 orders of a 7-tensor network, so that size runs fewest.
const SIZES: [(usize, usize); 5] = [(3, 8), (4, 8), (5, 8), (6, 8), (7, 3)];
/// Cap on the product of all extents: the naive oracle's work.
const MAX_CELLS: usize = 20_000;

/// One generated network.
struct Case {
    expr: String,
    dims: Vec<(String, usize)>,
    sparse_dims: Vec<usize>,
    nnz: usize,
    /// Some index is on two dense factors.
    shared: bool,
    /// Some index is on three or more tensors, the output included.
    hyper: bool,
}

fn written(name: &str, inds: &[char]) -> String {
    let names: Vec<String> = inds.iter().map(char::to_string).collect();
    format!("{name}[{}]", names.join(","))
}

/// `k` distinct entries of `pool`, in random order.
fn pick(rng: &mut StdRng, pool: &[char], k: usize) -> Vec<char> {
    let mut v = pool.to_vec();
    for i in (1..v.len()).rev() {
        v.swap(i, rng.gen_range(0..i + 1));
    }
    v.truncate(k);
    v
}

fn generate(rng: &mut StdRng, tensors: usize) -> Case {
    loop {
        let sparse: Vec<char> = ['i', 'j', 'k'][..rng.gen_range(2..4)].to_vec();
        let dense_only: Vec<char> = ['a', 'b', 'c', 'd'][..rng.gen_range(1..5)].to_vec();
        let pool: Vec<char> = [&sparse[..], &dense_only[..]].concat();
        // The first factor touches the sparse tensor, so it always has
        // a dense partner; the rest draw from every index.
        let mut factors: Vec<Vec<char>> = Vec::new();
        for f in 0..tensors - 1 {
            let order = rng.gen_range(1..4);
            let mut inds = pick(rng, &pool, order);
            if f == 0 && !inds.iter().any(|c| sparse.contains(c)) {
                inds[0] = sparse[rng.gen_range(0..sparse.len())];
            }
            factors.push(inds);
        }
        let used: Vec<char> = pool
            .iter()
            .copied()
            .filter(|c| sparse.contains(c) || factors.iter().any(|f| f.contains(c)))
            .collect();
        let outs = rng.gen_range(0..used.len().min(3) + 1);
        let out = pick(rng, &used, outs);

        let dims: Vec<(String, usize)> = used
            .iter()
            .map(|c| {
                (
                    c.to_string(),
                    rng.gen_range(2..if sparse.contains(c) { 7 } else { 5 }),
                )
            })
            .collect();
        if dims.iter().map(|d| d.1).product::<usize>() > MAX_CELLS {
            continue;
        }
        let extent = |c: char| dims.iter().find(|d| d.0 == c.to_string()).unwrap().1;
        let sparse_dims: Vec<usize> = sparse.iter().map(|&c| extent(c)).collect();
        let cells: usize = sparse_dims.iter().product();
        let nnz = rng.gen_range(1..cells / 2 + 2);

        let on = |c: char| {
            sparse.contains(&c) as usize
                + factors.iter().filter(|f| f.contains(&c)).count()
                + out.contains(&c) as usize
        };
        let shared = used
            .iter()
            .any(|&c| factors.iter().filter(|f| f.contains(&c)).count() >= 2);
        let hyper = used.iter().any(|&c| on(c) >= 3);
        let names = ["A", "B", "C", "D", "E", "F"];
        let rhs: Vec<String> = factors
            .iter()
            .zip(names)
            .map(|(f, n)| written(n, f))
            .collect();
        return Case {
            expr: format!(
                "{}*{} -> {}",
                written("T", &sparse),
                rhs.join("*"),
                written("O", &out)
            ),
            dims,
            sparse_dims,
            nnz,
            shared,
            hyper,
        };
    }
}

#[test]
fn generated_networks_plan_the_minimum_and_match_the_oracle() {
    let mut rng = StdRng::seed_from_u64(0x4E37_5EED);
    let default_budget = NetOptions::default().budget;
    let mut refused: BTreeMap<String, usize> = BTreeMap::new();
    let (mut ran, mut shared, mut hyper, mut completed, mut truncated) = (0, 0, 0, 0, 0);
    let mut cheaper_than_greedy = 0;
    for (tensors, cases) in SIZES {
        for case_no in 0..cases {
            let case = generate(&mut rng, tensors);
            let dims: Vec<(&str, usize)> =
                case.dims.iter().map(|(n, d)| (n.as_str(), *d)).collect();
            // The generator's expression through the same front end the
            // fixture uses; a refusal is counted by its typed error.
            let shapes = Shapes::new().with_dims(&dims);
            if let Err(e) = Network::parse(&case.expr).and_then(|n| n.kernel(&shapes)) {
                let kind = format!("{e:?}");
                let kind = kind.split(['(', ' ']).take(2).collect::<Vec<_>>().join(" ");
                *refused.entry(kind).or_default() += 1;
                continue;
            }
            let seed = (tensors * 100 + case_no) as u64;
            let fx = Fixture::new(&case.expr, &dims, &case.sparse_dims, case.nnz, seed);
            let kernel = fx.net.kernel(&fx.shapes).unwrap();
            let profile = fx
                .shapes
                .natural_profile(&fx.net.sparse_index_names())
                .unwrap();
            let what = |budget: u64| format!("{} (budget {budget}): {:?}", case.expr, case.dims);
            let mut greedy_flops = None;
            for budget in [0, default_budget] {
                let nplan = fx
                    .net
                    .plan(&fx.shapes, &NetOptions::default().with_budget(budget))
                    .unwrap_or_else(|e| panic!("{}: plan refused: {e}", what(budget)));
                let r = nplan.report();
                assert_eq!(
                    modeled_path_flops(&kernel, nplan.path(), &profile),
                    r.chosen_flops,
                    "{}: the lowered path does not score the reported cost",
                    what(budget)
                );
                assert_eq!(
                    *greedy_flops.get_or_insert(r.greedy_flops),
                    r.greedy_flops,
                    "{}: greedy differs between budgets",
                    what(budget)
                );
                if budget == 0 {
                    assert_eq!(r.chosen_flops, r.greedy_flops, "{}", what(budget));
                } else if r.truncated {
                    truncated += 1;
                } else {
                    completed += 1;
                    let brute = enumerate_paths(&kernel)
                        .iter()
                        .map(|p| modeled_path_flops(&kernel, p, &profile))
                        .min()
                        .unwrap();
                    assert_eq!(r.chosen_flops, brute, "{}", what(budget));
                    cheaper_than_greedy += (brute < r.greedy_flops) as usize;
                }
                let got = nplan
                    .bind(fx.csf.clone(), &fx.named())
                    .unwrap()
                    .execute()
                    .unwrap();
                assert!(
                    got.to_dense().approx_eq(&fx.want, TOL),
                    "{}: mismatch against the naive oracle\n{}",
                    what(budget),
                    nplan.describe()
                );
            }
            ran += 1;
            shared += case.shared as usize;
            hyper += case.hyper as usize;
        }
    }
    eprintln!(
        "random_networks: {ran} ran ({shared} with a shared dense index, {hyper} with a \
         hyper index); default budget: {completed} sweeps completed ({cheaper_than_greedy} \
         below greedy), {truncated} truncated; refused: {refused:?}"
    );
    let total: usize = SIZES.iter().map(|s| s.1).sum();
    assert_eq!(ran + refused.values().sum::<usize>(), total);
    assert!(
        ran * 4 >= total * 3,
        "refusals crowd out the cases: {refused:?}"
    );
    assert_eq!(
        completed, ran,
        "the default budget covers every network here"
    );
    assert!(
        shared * 2 >= ran && hyper * 2 >= ran,
        "{shared} / {hyper} of {ran}"
    );
    assert!(
        cheaper_than_greedy > 0,
        "no network separates greedy from the sweep"
    );
}
