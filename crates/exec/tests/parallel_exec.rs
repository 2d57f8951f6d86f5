//! Exec-level tile-engine golden tests: the tape-backed
//! [`ParallelExecutor`] must match the whole-tree scalar tape — whose
//! bits the committed digests pin — on dense- and sparse-output nests,
//! at every tile count — one included — bitwise-deterministically.

mod common;

use common::digest::Digests;
use rand::prelude::*;
use spttn_exec::{
    execute_tape_into, execute_tape_tile_into, ContractionOutput, ExecStats, OutputMut,
    ParallelExecutor, Workspace,
};
use spttn_ir::{buffers_for_forest, build_forest, parse_kernel, path_from_picks, NestSpec};
use spttn_tensor::{random_coo, random_dense, Csf, DenseTensor};
use std::sync::Arc;

const TOL: f64 = 1e-9;

struct Fixture {
    kernel: spttn_ir::Kernel,
    path: spttn_ir::ContractionPath,
    forest: spttn_ir::LoopForest,
    csf: Csf,
    factors: Vec<DenseTensor>,
}

/// TTMc (Listing 3 orders): dense output, AXPY-heavy.
fn ttmc_fixture(seed: u64) -> Fixture {
    let kernel = parse_kernel(
        "S(i,r,s) = T(i,j,k) * U(j,r) * V(k,s)",
        &[("i", 20), ("j", 9), ("k", 10), ("r", 4), ("s", 5)],
    )
    .unwrap();
    let path = path_from_picks(&kernel, &[(0, 2), (0, 1)]);
    let spec = NestSpec {
        orders: vec![vec![0, 1, 2, 4], vec![0, 1, 4, 3]],
    };
    let forest = build_forest(&kernel, &path, &spec).unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    let coo = random_coo(&[20, 9, 10], 300, &mut rng).unwrap();
    let csf = Csf::from_coo(&coo, &[0, 1, 2]).unwrap();
    let factors = vec![
        random_dense(&[9, 4], &mut rng),
        random_dense(&[10, 5], &mut rng),
    ];
    Fixture {
        kernel,
        path,
        forest,
        csf,
        factors,
    }
}

/// TTTP-like: output shares the sparse pattern (disjoint-range path).
fn tttp_fixture(seed: u64) -> Fixture {
    let kernel = parse_kernel(
        "S(i,j,k) = T(i,j,k) * U(i,r) * V(j,r) * W(k,r)",
        &[("i", 18), ("j", 8), ("k", 9), ("r", 4)],
    )
    .unwrap();
    // Path: (U*V)->X0(i,j,r); (W*X0)->X1(i,j,k,r); (T*X1)->S.
    let path = path_from_picks(&kernel, &[(1, 2), (1, 2), (0, 1)]);
    let spec = NestSpec {
        orders: vec![vec![0, 1, 3], vec![0, 1, 2, 3], vec![0, 1, 2]],
    };
    let forest = build_forest(&kernel, &path, &spec).unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    let coo = random_coo(&[18, 8, 9], 220, &mut rng).unwrap();
    let csf = Csf::from_coo(&coo, &[0, 1, 2]).unwrap();
    let factors = vec![
        random_dense(&[18, 4], &mut rng),
        random_dense(&[8, 4], &mut rng),
        random_dense(&[9, 4], &mut rng),
    ];
    Fixture {
        kernel,
        path,
        forest,
        csf,
        factors,
    }
}

/// Slot-ordered factors (placeholder in the sparse slot), as the
/// executors consume them.
fn slotted(f: &Fixture) -> Vec<DenseTensor> {
    common::by_slot(&f.kernel, &f.factors.iter().collect::<Vec<_>>())
}

/// The reference: the fixture's scalar tape, one thread over the whole
/// tree, held to the committed digest line of `case` (the
/// interpreter's bits).
fn serial(f: &Fixture, case: &str) -> (ContractionOutput, ExecStats) {
    let slots = slotted(f);
    let tape = common::scalar_tape(&f.kernel, &f.path, &f.forest);
    let mut ws = Workspace::new(&f.kernel, &f.path, &f.forest);
    let out = common::fresh_output(&f.kernel, &f.csf, |out| {
        execute_tape_into(&tape, &f.kernel, &f.csf, &slots, &mut ws, out)
    })
    .unwrap();
    let mut digests = Digests::new("parallel_exec");
    digests.record(case, "-", true, 1, common::vals(&out), &ws.stats());
    digests.check();
    (out, ws.stats())
}

/// A pool of `threads` running the fixture's scalar tape — the program
/// the reference runs over the whole tree.
fn pool(f: &Fixture, threads: usize) -> ParallelExecutor {
    ParallelExecutor::new(
        &f.kernel,
        &f.path,
        &f.forest,
        &buffers_for_forest(&f.kernel, &f.path, &f.forest),
        Arc::new(common::scalar_tape(&f.kernel, &f.path, &f.forest)),
        &f.csf,
        threads,
    )
}

#[test]
fn parallel_executor_matches_serial_and_is_deterministic() {
    let fixture = ttmc_fixture(21);
    let want = serial(&fixture, "ttmc21").0.to_dense();
    let slots = slotted(&fixture);
    // 64 threads: far more than the tensor has root fibers. Miri runs
    // this test too, so it gets the short list.
    let counts: &[usize] = if cfg!(miri) {
        &[2, 4, 7]
    } else {
        &[1, 2, 3, 4, 7, 64]
    };
    for &threads in counts {
        let mut par = pool(&fixture, threads);
        let mut run = || {
            let mut out = DenseTensor::zeros(&[20, 4, 5]);
            par.execute_into(
                &fixture.kernel,
                &fixture.csf,
                &slots,
                OutputMut::Dense(&mut out),
                None,
            )
            .unwrap();
            out
        };
        let first = run();
        assert!(first.approx_eq(&want, TOL), "threads = {threads}");
        // Bitwise determinism across repeated executions.
        let second = run();
        assert_eq!(first.as_slice(), second.as_slice());
    }
}

/// Tile 0 is the caller at every tile count and accumulates straight
/// into the caller's output: a one-tile engine (no worker, no partial)
/// is bitwise the bare tape over the whole tree, on top of whatever
/// the output held, for dense and pattern-sharing outputs alike; with
/// more tiles the same prefill survives under the reduced partials.
/// Small enough for Miri, which tracks the borrows tile 0 runs on
/// beside the workers' raw-pointer jobs.
#[test]
fn tile0_accumulates_into_the_callers_output() {
    let fixture = ttmc_fixture(24);
    let slots = slotted(&fixture);
    let tape = common::scalar_tape(&fixture.kernel, &fixture.path, &fixture.forest);
    let prefilled = || {
        let mut t = DenseTensor::zeros(&[20, 4, 5]);
        t.fill(0.5);
        t
    };
    let mut want = prefilled();
    let mut ws = Workspace::new(&fixture.kernel, &fixture.path, &fixture.forest);
    execute_tape_into(
        &tape,
        &fixture.kernel,
        &fixture.csf,
        &slots,
        &mut ws,
        OutputMut::Dense(&mut want),
    )
    .unwrap();
    for (threads, exact) in [(1usize, true), (3, false)] {
        let mut par = pool(&fixture, threads);
        assert_eq!(par.n_tiles(), threads);
        for _ in 0..2 {
            let mut out = prefilled();
            let target = OutputMut::Dense(&mut out);
            par.execute_into(&fixture.kernel, &fixture.csf, &slots, target, None)
                .unwrap();
            if exact {
                assert_eq!(out.as_slice(), want.as_slice());
                assert_eq!(par.stats(), ws.stats());
            } else {
                assert!(out.approx_eq(&want, TOL), "threads = {threads}");
            }
        }
    }

    let fixture = tttp_fixture(25);
    let slots = slotted(&fixture);
    let tape = common::scalar_tape(&fixture.kernel, &fixture.path, &fixture.forest);
    let mut want = vec![0.25; fixture.csf.nnz()];
    let mut ws = Workspace::new(&fixture.kernel, &fixture.path, &fixture.forest);
    execute_tape_into(
        &tape,
        &fixture.kernel,
        &fixture.csf,
        &slots,
        &mut ws,
        OutputMut::Sparse(&mut want),
    )
    .unwrap();
    let mut par = pool(&fixture, 1);
    let mut vals = vec![0.25; fixture.csf.nnz()];
    let target = OutputMut::Sparse(&mut vals);
    par.execute_into(&fixture.kernel, &fixture.csf, &slots, target, None)
        .unwrap();
    assert_eq!(vals, want);
}

#[test]
#[cfg_attr(miri, ignore)] // too slow under the interpreter
fn parallel_executor_sparse_output_disjoint_ranges() {
    let fixture = tttp_fixture(22);
    let (ContractionOutput::Sparse(serial_coo), serial_stats) = serial(&fixture, "tttp22") else {
        panic!("TTTP output must be sparse");
    };
    let slots = slotted(&fixture);
    for threads in [1, 4, 64] {
        let mut par = pool(&fixture, threads);
        let mut vals = vec![0.0; fixture.csf.nnz()];
        par.execute_into(
            &fixture.kernel,
            &fixture.csf,
            &slots,
            OutputMut::Sparse(&mut vals),
            None,
        )
        .unwrap();
        // Exact equality with the reference: every leaf is written by
        // exactly one tile, with the same per-leaf accumulation order.
        assert_eq!(vals, serial_coo.vals(), "threads = {threads}");
        // Stats aggregate across tiles to the whole-tree counts.
        assert_eq!(par.stats(), serial_stats, "threads = {threads}");
    }
}

/// A tiling is valid only for the structure it was computed from: a
/// same-nnz tensor with a different pattern must be rejected, not
/// silently half-executed.
#[test]
#[cfg_attr(miri, ignore)] // too slow under the interpreter
fn parallel_executor_rejects_different_structure() {
    let fixture = ttmc_fixture(31);
    let slots = slotted(&fixture);
    let mut par = pool(&fixture, 4);
    // Same dims and nnz, different pattern (different seed).
    let mut rng = StdRng::seed_from_u64(99);
    let other = Csf::from_coo(
        &random_coo(&[20, 9, 10], 300, &mut rng).unwrap(),
        &[0, 1, 2],
    )
    .unwrap();
    assert_eq!(other.nnz(), fixture.csf.nnz());
    let mut out = DenseTensor::zeros(&[20, 4, 5]);
    let err = par
        .execute_into(
            &fixture.kernel,
            &other,
            &slots,
            OutputMut::Dense(&mut out),
            None,
        )
        .unwrap_err();
    assert!(
        format!("{err}").contains("different structure"),
        "unexpected error: {err}"
    );
    // Same-pattern value updates still execute fine.
    let mut same = fixture.csf.clone();
    same.vals_mut().iter_mut().for_each(|v| *v *= 2.0);
    par.execute_into(
        &fixture.kernel,
        &same,
        &slots,
        OutputMut::Dense(&mut out),
        None,
    )
    .unwrap();
}

#[test]
#[cfg_attr(miri, ignore)] // too slow under the interpreter
fn tile_partials_sum_to_full_output() {
    let fixture = ttmc_fixture(23);
    let want = serial(&fixture, "ttmc23").0.to_dense();
    let slots = slotted(&fixture);
    let tape = common::scalar_tape(&fixture.kernel, &fixture.path, &fixture.forest);
    let tiles = fixture.csf.partition(3);
    let mut acc = DenseTensor::zeros(&[20, 4, 5]);
    for tile in &tiles {
        let mut ws = Workspace::new(&fixture.kernel, &fixture.path, &fixture.forest);
        let mut partial = DenseTensor::zeros(&[20, 4, 5]);
        execute_tape_tile_into(
            &tape,
            &fixture.kernel,
            &fixture.csf,
            tile,
            &slots,
            &mut ws,
            OutputMut::Dense(&mut partial),
        )
        .unwrap();
        for (a, p) in acc.as_mut_slice().iter_mut().zip(partial.as_slice()) {
            *a += p;
        }
    }
    assert!(acc.approx_eq(&want, TOL));
}
