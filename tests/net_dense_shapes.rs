//! Generated-shape differential suite for `spttn-net`'s dense-step
//! lowering: a seeded generator of dense-dense steps — operands of
//! order 1–4 in permuted index orders, every index class (batch, M, N,
//! K) present and absent, one and several K indices, extents that are
//! 1, a rank-specialized 8/16/32 and not (7, 33), and two-step chains
//! whose second step reads the first's output — each wrapped in a
//! network with a small, full sparse matrix on the spine and checked
//! against the whole-network naive oracle to ≤1e-9 on both microkernel
//! tiers.
//!
//! The order search decides what is materialized, so the suite reads
//! the chosen path back: it counts the off-spine steps that actually
//! ran and asserts the generator covered every class with them.

#[path = "common/networks.rs"]
mod networks;

use networks::Fixture;
use rand::prelude::*;
use spttn::ir::{IndexId, Operand};
use spttn::{Microkernels, PlanOptions};
use spttn_net::{NetOptions, NetworkPlan};

const TOL: f64 = 1e-9;
const EXTENTS: [usize; 9] = [1, 2, 3, 5, 7, 8, 16, 32, 33];
/// Cap on a step's iteration space (and so on the oracle's work).
const MAX_CELLS: usize = 6000;

/// What the off-spine steps of the plans that ran looked like.
#[derive(Default, Debug)]
struct Coverage {
    steps: usize,
    chained: usize,
    /// Steps with / without an index of each class.
    batch: [usize; 2],
    m: [usize; 2],
    n: [usize; 2],
    /// Steps with 0, 1, ≥2 contracted indices.
    k: [usize; 3],
    /// Steps whose output's unit-stride index is unit-stride in 0, 1,
    /// 2 of the operands.
    unit: [usize; 3],
    /// Steps that have an extent of each kind.
    one: usize,
    hinted: usize,
    unhinted: usize,
}

impl Coverage {
    fn record(&mut self, nplan: &NetworkPlan) {
        let (kernel, path) = (nplan.kernel(), nplan.path());
        let order = |op: Operand| -> Vec<IndexId> {
            match op {
                Operand::Input(i) => kernel.inputs[i].indices.clone(),
                Operand::Inter(u) => path.terms[u].out_inds.to_vec(),
            }
        };
        // Off the spine = no sparse lineage.
        for term in path.terms.iter().filter(|t| t.lineage().is_empty()) {
            let (l, r, out) = (order(term.left), order(term.right), term.out_inds.to_vec());
            self.steps += 1;
            if matches!(term.left, Operand::Inter(_)) || matches!(term.right, Operand::Inter(_)) {
                self.chained += 1;
            }
            let count = |on_l: bool, on_r: bool| {
                out.iter()
                    .filter(|i| l.contains(i) == on_l && r.contains(i) == on_r)
                    .count()
            };
            self.batch[(count(true, true) == 0) as usize] += 1;
            self.m[(count(true, false) == 0) as usize] += 1;
            self.n[(count(false, true) == 0) as usize] += 1;
            self.k[term.contracted().to_vec().len().min(2)] += 1;
            let v = out.last();
            self.unit[(l.last() == v) as usize + (r.last() == v) as usize] += 1;
            let extents: Vec<usize> = term
                .iter_inds()
                .to_vec()
                .iter()
                .map(|&i| kernel.dim(i))
                .collect();
            self.one += extents.contains(&1) as usize;
            self.hinted += extents.iter().any(|e| [8, 16, 32].contains(e)) as usize;
            self.unhinted += extents.iter().any(|e| [7, 33].contains(e)) as usize;
        }
    }
}

/// One generated network around a dense step (or a two-step chain).
struct Case {
    expr: String,
    dims: Vec<(String, usize)>,
    sparse_dims: [usize; 2],
}

fn shuffled(mut v: Vec<char>, rng: &mut StdRng) -> Vec<char> {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.gen_range(0..i + 1));
    }
    v
}

fn written(name: &str, inds: &[char]) -> String {
    let names: Vec<String> = inds.iter().map(char::to_string).collect();
    format!("{name}[{}]", names.join(","))
}

fn generate(rng: &mut StdRng, p_extent: usize) -> Case {
    loop {
        // Index classes of the step `L * R`.
        let (nb, nm, nn, nk) = (
            rng.gen_range(0..2usize),
            rng.gen_range(0..3usize),
            rng.gen_range(0..3usize),
            rng.gen_range(0..4usize),
        );
        if nb + nm + nn == 0
            || !(1..=4).contains(&(nb + nm + nk))
            || !(1..=4).contains(&(nb + nn + nk))
        {
            continue;
        }
        let mut letters = "abcdefghijkl".chars();
        let mut take = |n: usize| -> Vec<char> { letters.by_ref().take(n).collect() };
        let (batch, m, n, k) = (take(nb), take(nm), take(nn), take(nk));
        let mut dims: Vec<(String, usize)> = [&batch, &m, &n, &k]
            .into_iter()
            .flatten()
            .map(|c| (c.to_string(), EXTENTS[rng.gen_range(0..EXTENTS.len())]))
            .collect();
        if dims.iter().map(|d| d.1).product::<usize>() > MAX_CELLS {
            continue;
        }
        let left = shuffled([&batch[..], &m[..], &k[..]].concat(), rng);
        let right = shuffled([&batch[..], &n[..], &k[..]].concat(), rng);
        let mut inter: Vec<char> = [&batch[..], &m[..], &n[..]].concat();
        let mut factors = vec![written("L", &left), written("R", &right)];

        // One case in three chains a second step `X * S` onto the
        // first's output: S contracts one of X's indices away and
        // brings one of its own.
        if rng.gen_range(0..3) == 0 && inter.len() >= 2 {
            let gone = inter.remove(rng.gen_range(0..inter.len()));
            let kept = inter[rng.gen_range(0..inter.len())];
            let own = 'z';
            let extent = EXTENTS[rng.gen_range(0..EXTENTS.len())];
            if dims.iter().map(|d| d.1).product::<usize>() * extent > MAX_CELLS {
                continue;
            }
            dims.push((own.to_string(), extent));
            factors.push(written("S", &shuffled(vec![gone, kept, own], rng)));
            inter.push(own);
        }

        // The spine: a full P×Q sparse matrix on one of the
        // intermediate's indices, which the output keeps or not.
        let q = inter[rng.gen_range(0..inter.len())];
        let q_extent = dims.iter().find(|d| d.0 == q.to_string()).unwrap().1;
        dims.push(("p".to_string(), p_extent));
        let mut out: Vec<char> = inter.clone();
        if out.len() > 1 && rng.gen_range(0..2) == 0 {
            out.retain(|&c| c != q);
        }
        let mut out = shuffled(out, rng);
        out.insert(0, 'p');
        return Case {
            expr: format!(
                "{}*{} -> {}",
                written("T", &['p', q]),
                factors.join("*"),
                written("O", &out)
            ),
            dims,
            sparse_dims: [p_extent, q_extent],
        };
    }
}

#[test]
fn generated_dense_steps_match_the_oracle_on_both_tiers() {
    let mut rng = StdRng::seed_from_u64(0x5747_7E57);
    let mut cov = Coverage::default();
    let mut cases = 0;
    while cov.steps < 240 {
        cases += 1;
        assert!(
            cases <= 2000,
            "generator stopped producing dense steps: {cov:?}"
        );
        // A taller sparse block makes touching it first dearer; most
        // shapes materialize their steps at the small one already.
        let case = generate(&mut rng, [8, 48][cases % 2]);
        let dims: Vec<(&str, usize)> = case.dims.iter().map(|(n, d)| (n.as_str(), *d)).collect();
        let nnz = case.sparse_dims[0] * case.sparse_dims[1];
        let fx = Fixture::new(&case.expr, &dims, &case.sparse_dims, nnz, cases as u64);
        let plan = |micro: Microkernels| {
            let nopts = NetOptions::default()
                .with_plan_options(PlanOptions::default().with_microkernels(micro));
            fx.net.plan(&fx.shapes, &nopts).unwrap()
        };
        let nplan = plan(Microkernels::Auto);
        if nplan.num_dense_steps() == 0 {
            continue;
        }
        cov.record(&nplan);
        for (tier, nplan) in [("auto", nplan), ("scalar", plan(Microkernels::Scalar))] {
            let got = nplan
                .bind(fx.csf.clone(), &fx.named())
                .unwrap()
                .execute()
                .unwrap()
                .to_dense();
            assert!(
                got.approx_eq(&fx.want, TOL),
                "case {cases} ({tier}) is {:e} off the oracle\n{:?}\n{}",
                got.max_abs_diff(&fx.want),
                case.dims,
                nplan.describe()
            );
        }
    }

    // The generator must have reached every class with steps that ran.
    eprintln!("{cases} networks: {cov:?}");
    assert!(cov.steps >= 200 && cov.chained >= 20, "{cov:?}");
    for tally in [&cov.batch[..], &cov.m, &cov.n, &cov.k, &cov.unit] {
        assert!(tally.iter().all(|&c| c >= 5), "a class is missing: {cov:?}");
    }
    assert!(
        cov.one >= 5 && cov.hinted >= 5 && cov.unhinted >= 5,
        "{cov:?}"
    );
}
