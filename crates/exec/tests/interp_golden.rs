//! Tile-entry golden tests: the paper's listings — the nests the
//! loop-forest interpreter was once held to — run through
//! [`execute_tape_tile_into`] over a `Csf::partition`, one fresh
//! workspace per tile, dense partials summed in tile order and a
//! pattern-sharing output written through each tile's leaf range. The
//! 3-tile run must match the naive dense oracle at 1e-9, and a 1-tile
//! partition must reproduce the whole-tree scalar tape bit for bit
//! (`tape_golden` pins those bits to the committed digests).

mod common;

use rand::prelude::*;
use spttn_core::Result;
use spttn_exec::{
    execute_tape_into, execute_tape_tile_into, naive_einsum, ContractionOutput, ExecStats,
    OutputMut, Workspace,
};
use spttn_ir::{
    build_forest, parse_kernel, path_from_picks, ContractionPath, Kernel, LoopForest, NestSpec,
};
use spttn_tensor::{random_coo, random_dense, CooTensor, Csf, CsfTile, DenseTensor};

const TOL: f64 = 1e-9;

/// Densify every input (sparse first-slot included) for the oracle.
fn oracle(kernel: &Kernel, coo: &CooTensor, factors: &[DenseTensor]) -> DenseTensor {
    let sparse_dense = coo.to_dense();
    let mut all: Vec<&DenseTensor> = Vec::new();
    let mut next = 0usize;
    for slot in 0..kernel.inputs.len() {
        if slot == kernel.sparse_input {
            all.push(&sparse_dense);
        } else {
            all.push(&factors[next]);
            next += 1;
        }
    }
    naive_einsum(kernel, &all).unwrap()
}

/// Run the nest's scalar tape tile by tile over `csf.partition(n_tiles)`
/// into a fresh output, each tile from a fresh workspace; the dispatch
/// counters are merged across tiles.
fn run_tiles(
    kernel: &Kernel,
    path: &ContractionPath,
    forest: &LoopForest,
    csf: &Csf,
    slots: &[DenseTensor],
    n_tiles: usize,
) -> Result<(ContractionOutput, ExecStats)> {
    let tape = common::scalar_tape(kernel, path, forest);
    let mut stats = ExecStats::default();
    let out = common::fresh_output(kernel, csf, |out| {
        let tiles = csf.partition(n_tiles);
        let mut run = |tile: &CsfTile, out: OutputMut<'_>| -> Result<()> {
            let mut ws = Workspace::new(kernel, path, forest);
            execute_tape_tile_into(&tape, kernel, csf, tile, slots, &mut ws, out)?;
            stats.merge(&ws.stats());
            Ok(())
        };
        match out {
            OutputMut::Dense(d) => {
                for tile in &tiles {
                    let mut partial = DenseTensor::zeros(d.dims());
                    run(tile, OutputMut::Dense(&mut partial))?;
                    for (o, p) in d.as_mut_slice().iter_mut().zip(partial.as_slice()) {
                        *o += p;
                    }
                }
            }
            OutputMut::Sparse(vals) => {
                for tile in &tiles {
                    run(tile, OutputMut::Sparse(&mut vals[tile.leaf_range()]))?;
                }
            }
        }
        Ok(())
    })?;
    Ok((out, stats))
}

/// Run the nest `(picks, orders)` describe on 1 and on 3 tiles: the
/// 1-tile run must equal the whole-tree scalar tape bit for bit and in
/// its counters. Returns the 3-tile run.
fn run_counted(
    kernel: &Kernel,
    picks: &[(usize, usize)],
    orders: Vec<Vec<usize>>,
    coo: &CooTensor,
    factors: &[DenseTensor],
) -> (ContractionOutput, ExecStats) {
    let path = path_from_picks(kernel, picks);
    let forest = build_forest(kernel, &path, &NestSpec { orders }).unwrap();
    let order: Vec<usize> = (0..coo.order()).collect();
    let csf = Csf::from_coo(coo, &order).unwrap();
    let refs: Vec<&DenseTensor> = factors.iter().collect();
    let slots = common::by_slot(kernel, &refs);

    let tape = common::scalar_tape(kernel, &path, &forest);
    let mut ws = Workspace::new(kernel, &path, &forest);
    let whole = common::fresh_output(kernel, &csf, |out| {
        execute_tape_into(&tape, kernel, &csf, &slots, &mut ws, out)
    })
    .unwrap();
    let (one, one_stats) = run_tiles(kernel, &path, &forest, &csf, &slots, 1).unwrap();
    let bits = |o: &ContractionOutput| -> Vec<u64> {
        common::vals(o).iter().map(|v| v.to_bits()).collect()
    };
    assert_eq!(
        bits(&one),
        bits(&whole),
        "1-tile run diverged from the whole tree"
    );
    assert_eq!(one_stats, ws.stats(), "1-tile counters diverged");
    run_tiles(kernel, &path, &forest, &csf, &slots, 3).unwrap()
}

fn run(
    kernel: &Kernel,
    picks: &[(usize, usize)],
    orders: Vec<Vec<usize>>,
    coo: &CooTensor,
    factors: &[DenseTensor],
) -> ContractionOutput {
    run_counted(kernel, picks, orders, coo, factors).0
}

fn ttmc_setup(seed: u64) -> (Kernel, CooTensor, Vec<DenseTensor>) {
    let k = parse_kernel(
        "S(i,r,s) = T(i,j,k) * U(j,r) * V(k,s)",
        &[("i", 8), ("j", 9), ("k", 10), ("r", 4), ("s", 5)],
    )
    .unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    let coo = random_coo(&[8, 9, 10], 120, &mut rng).unwrap();
    let u = random_dense(&[9, 4], &mut rng);
    let v = random_dense(&[10, 5], &mut rng);
    (k, coo, vec![u, v])
}

/// Listing 3: 1-d buffer, sparse k loop, trailing dense s (AXPY path).
#[test]
#[cfg_attr(miri, ignore)] // too slow under the interpreter
fn ttmc_listing3_matches_oracle() {
    let (k, coo, f) = ttmc_setup(1);
    let (got, stats) = run_counted(
        &k,
        &[(0, 2), (0, 1)],
        vec![vec![0, 1, 2, 4], vec![0, 1, 4, 3]],
        &coo,
        &f,
    );
    assert!(stats.axpy > 0, "AXPY microkernel should dispatch");
    let want = oracle(&k, &coo, &f);
    assert!(got.to_dense().approx_eq(&want, TOL));
}

/// Listing 4: scalar buffer, dense s above sparse k.
#[test]
#[cfg_attr(miri, ignore)] // too slow under the interpreter
fn ttmc_listing4_matches_oracle() {
    let (k, coo, f) = ttmc_setup(2);
    let got = run(
        &k,
        &[(0, 2), (0, 1)],
        vec![vec![0, 1, 4, 2], vec![0, 1, 4, 3]],
        &coo,
        &f,
    );
    let want = oracle(&k, &coo, &f);
    assert!(got.to_dense().approx_eq(&want, TOL));
}

/// Listing 2 (unfused): 3-d materialized buffer; the consumer
/// re-descends the tile's part of the CSF below its own dense s loop.
#[test]
#[cfg_attr(miri, ignore)] // too slow under the interpreter
fn ttmc_unfused_matches_oracle() {
    let (k, coo, f) = ttmc_setup(3);
    let got = run(
        &k,
        &[(0, 2), (0, 1)],
        vec![vec![0, 1, 2, 4], vec![4, 0, 1, 3]],
        &coo,
        &f,
    );
    let want = oracle(&k, &coo, &f);
    assert!(got.to_dense().approx_eq(&want, TOL));
}

/// Fig. 1d: dense-first path (U·V materialized, then contracted with T).
#[test]
#[cfg_attr(miri, ignore)] // too slow under the interpreter
fn ttmc_dense_first_path_matches_oracle() {
    let (k, coo, f) = ttmc_setup(4);
    let got = run(
        &k,
        &[(1, 2), (0, 1)],
        vec![vec![1, 3, 2, 4], vec![0, 1, 2, 3, 4]],
        &coo,
        &f,
    );
    let want = oracle(&k, &coo, &f);
    assert!(got.to_dense().approx_eq(&want, TOL));
}

/// MTTKRP fused factorize schedule (paper Sec. 2.4.2).
#[test]
#[cfg_attr(miri, ignore)] // too slow under the interpreter
fn mttkrp_factorized_matches_oracle() {
    let k = parse_kernel(
        "A(i,a) = T(i,j,k) * B(j,a) * C(k,a)",
        &[("i", 7), ("j", 8), ("k", 9), ("a", 5)],
    )
    .unwrap();
    let mut rng = StdRng::seed_from_u64(5);
    let coo = random_coo(&[7, 8, 9], 100, &mut rng).unwrap();
    let b = random_dense(&[8, 5], &mut rng);
    let c = random_dense(&[9, 5], &mut rng);
    let f = vec![b, c];
    // Path (T*C) -> X(i,j,a); (X*B) -> A.
    let got = run(
        &k,
        &[(0, 2), (0, 1)],
        vec![vec![0, 1, 2, 3], vec![0, 1, 3]],
        &coo,
        &f,
    );
    let want = oracle(&k, &coo, &f);
    assert!(got.to_dense().approx_eq(&want, TOL));
}

/// TTTP: pattern-sharing output, each tile writing its own leaf range.
#[test]
#[cfg_attr(miri, ignore)] // too slow under the interpreter
fn tttp_sparse_output_matches_oracle() {
    let k = parse_kernel(
        "S(i,j,k) = T(i,j,k) * U(i,r) * V(j,r) * W(k,r)",
        &[("i", 6), ("j", 7), ("k", 8), ("r", 3)],
    )
    .unwrap();
    let mut rng = StdRng::seed_from_u64(6);
    let coo = random_coo(&[6, 7, 8], 80, &mut rng).unwrap();
    let f = vec![
        random_dense(&[6, 3], &mut rng),
        random_dense(&[7, 3], &mut rng),
        random_dense(&[8, 3], &mut rng),
    ];
    // Path: (U*V)->X0(i,j,r); (W*X0)->X1(i,j,k,r); (T*X1)->S.
    let got = run(
        &k,
        &[(1, 2), (1, 2), (0, 1)],
        vec![vec![0, 1, 3], vec![0, 1, 2, 3], vec![0, 1, 2]],
        &coo,
        &f,
    );
    let ContractionOutput::Sparse(out) = &got else {
        panic!("TTTP output must share the sparse pattern");
    };
    assert_eq!(out.nnz(), coo.nnz());
    let want = oracle(&k, &coo, &f);
    assert!(got.to_dense().approx_eq(&want, TOL));
}

/// Rank-1 outer product intermediate: exercises the GER dispatch.
#[test]
#[cfg_attr(miri, ignore)] // too slow under the interpreter
fn ger_dispatch_matches_oracle() {
    let k = parse_kernel(
        "S(i,r,s) = T(i) * U(r) * V(s)",
        &[("i", 6), ("r", 5), ("s", 4)],
    )
    .unwrap();
    let mut rng = StdRng::seed_from_u64(7);
    let coo = random_coo(&[6], 4, &mut rng).unwrap();
    let f = vec![random_dense(&[5], &mut rng), random_dense(&[4], &mut rng)];
    // Path (U*V) -> X0(r,s) [GER]; (T*X0) -> S.
    let (got, stats) = run_counted(
        &k,
        &[(1, 2), (0, 1)],
        vec![vec![1, 2], vec![0, 1, 2]],
        &coo,
        &f,
    );
    assert!(stats.ger > 0, "GER microkernel should dispatch");
    let want = oracle(&k, &coo, &f);
    assert!(got.to_dense().approx_eq(&want, TOL));
}

/// Matrix-times-vector intermediate: exercises the GEMV dispatch.
#[test]
#[cfg_attr(miri, ignore)] // too slow under the interpreter
fn gemv_dispatch_matches_oracle() {
    let k = parse_kernel(
        "C(i) = T(k) * A(i,j) * B(j)",
        &[("i", 6), ("j", 7), ("k", 5)],
    )
    .unwrap();
    let mut rng = StdRng::seed_from_u64(8);
    let coo = random_coo(&[5], 3, &mut rng).unwrap();
    let f = vec![
        random_dense(&[6, 7], &mut rng),
        random_dense(&[7], &mut rng),
    ];
    // Path (A*B) -> X0(i) [GEMV]; (T*X0) -> C. Index ids follow the
    // sparse tensor first: k=0, i=1, j=2.
    let (got, stats) = run_counted(
        &k,
        &[(1, 2), (0, 1)],
        vec![vec![1, 2], vec![0, 1]],
        &coo,
        &f,
    );
    assert!(stats.gemv > 0, "GEMV microkernel should dispatch");
    let want = oracle(&k, &coo, &f);
    assert!(got.to_dense().approx_eq(&want, TOL));
}

/// Order-4 TTMc with the Fig. 6 nest: two buffers, deep fusion.
#[test]
#[cfg_attr(miri, ignore)] // too slow under the interpreter
fn order4_ttmc_fig6_matches_oracle() {
    let k = parse_kernel(
        "S(i,r,s,t) = T(i,j,k,l) * U(j,r) * V(k,s) * W(l,t)",
        &[
            ("i", 5),
            ("j", 5),
            ("k", 5),
            ("l", 5),
            ("r", 3),
            ("s", 3),
            ("t", 3),
        ],
    )
    .unwrap();
    let mut rng = StdRng::seed_from_u64(10);
    let coo = random_coo(&[5, 5, 5, 5], 60, &mut rng).unwrap();
    let f = vec![
        random_dense(&[5, 3], &mut rng),
        random_dense(&[5, 3], &mut rng),
        random_dense(&[5, 3], &mut rng),
    ];
    let got = run(
        &k,
        &[(0, 3), (1, 2), (0, 1)],
        vec![
            vec![0, 1, 2, 3, 6],
            vec![0, 1, 2, 5, 6],
            vec![0, 1, 4, 5, 6],
        ],
        &coo,
        &f,
    );
    let want = oracle(&k, &coo, &f);
    assert!(got.to_dense().approx_eq(&want, TOL));
}

/// A workspace built for one forest must be rejected by the tile entry
/// when driven with a different forest of the same kernel/path — its
/// buffer shapes would silently disagree — on every tile.
#[test]
#[cfg_attr(miri, ignore)] // too slow under the interpreter
fn workspace_from_other_forest_is_rejected() {
    let (k, coo, factors) = ttmc_setup(78);
    let path = path_from_picks(&k, &[(0, 2), (0, 1)]);
    let fused = build_forest(
        &k,
        &path,
        &NestSpec {
            orders: vec![vec![0, 1, 2, 4], vec![0, 1, 4, 3]],
        },
    )
    .unwrap();
    let unfused = build_forest(
        &k,
        &path,
        &NestSpec {
            orders: vec![vec![0, 1, 2, 4], vec![4, 0, 1, 3]],
        },
    )
    .unwrap();
    let csf = Csf::from_coo(&coo, &[0, 1, 2]).unwrap();
    let refs: Vec<&DenseTensor> = factors.iter().collect();
    let slots = common::by_slot(&k, &refs);
    let mut out = DenseTensor::zeros(&k.ref_dims(&k.output));
    let tape = common::scalar_tape(&k, &path, &fused);
    for tile in &csf.partition(3) {
        let mut ws = Workspace::new(&k, &path, &unfused);
        let e = execute_tape_tile_into(
            &tape,
            &k,
            &csf,
            tile,
            &slots,
            &mut ws,
            OutputMut::Dense(&mut out),
        );
        assert!(e.is_err(), "mismatched workspace was accepted");
    }
}
