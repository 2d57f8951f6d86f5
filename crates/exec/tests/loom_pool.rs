//! Concurrency proofs for the worker-pool handshake in
//! [`spttn_exec::parallel`].
//!
//! The pool's protocol is small: each worker owns a `WorkerState`
//! (job slot + `submitted`/`finished` counters) behind a `Mutex` with a
//! `Condvar`. The submitter publishes a `Job` carrying raw pointers to
//! a workspace and an output region it promises not to touch until
//! `wait_all` observes `finished == submitted`; the worker takes the
//! job, writes through those pointers, then republishes the counters.
//! Soundness of the `unsafe impl Send for Job` rests entirely on this
//! handshake: the mutex/condvar pair must make the worker's writes
//! *happen-before* the submitter's reads.
//!
//! This file proves that claim two ways:
//!
//! - under `--cfg loom` (CI's `loom` job, which adds the `loom` dev
//!   dependency), [`loom::model`] exhaustively explores every
//!   interleaving of a faithful replica of the protocol — same state
//!   fields, same wait conditions, with the raw-pointer payload modeled
//!   by `loom::cell::UnsafeCell`;
//! - under plain `cargo test`, the same replicas run as std stress
//!   tests so the protocol shape is continuously exercised even where
//!   loom is unavailable.
//!
//! The replica is deliberately line-for-line parallel to
//! `WorkerPool::{submit, wait_all}` and `worker_loop`; if the real
//! protocol changes, change it here in lockstep.

#![allow(unexpected_cfgs)] // `--cfg loom` is injected by CI, not a feature

#[cfg(loom)]
use loom::{
    cell::UnsafeCell,
    sync::{Arc, Condvar, Mutex},
    thread,
};
#[cfg(not(loom))]
use std::{
    cell::UnsafeCell,
    sync::{Arc, Condvar, Mutex},
    thread,
};

/// Replica of `parallel::WorkerState`, with the job's pointer payload
/// reduced to the index of the cell the worker must write.
struct SlotState {
    job: Option<usize>,
    submitted: u64,
    finished: u64,
    shutdown: bool,
}

/// Replica of `parallel::WorkerShared` plus the memory the job's raw
/// pointers would target: one cell per possible job. The cells are
/// accessed without the mutex held — exactly like the real workspace
/// and partial-output writes — so loom will fail the model if the
/// handshake alone does not order them.
struct SlotShared {
    state: Mutex<SlotState>,
    cv: Condvar,
    cells: Vec<UnsafeCell<u64>>,
}

// SAFETY: each cell is written only by the worker that took the job
// naming it, strictly between `submit` and the `finished == submitted`
// republish; the submitter reads it only after observing that
// republish. This is precisely the discipline `Job`'s Send impl
// documents — the models below exist to prove it sound.
unsafe impl Sync for SlotShared {}

#[cfg(loom)]
fn cell_write(c: &UnsafeCell<u64>, v: u64) {
    c.with_mut(|p| {
        // SAFETY: exclusive by the handshake (see `Sync` impl above).
        unsafe { *p = v }
    });
}
#[cfg(loom)]
fn cell_read(c: &UnsafeCell<u64>) -> u64 {
    // SAFETY: the worker's republish happened-before this read.
    c.with(|p| unsafe { *p })
}
#[cfg(not(loom))]
fn cell_write(c: &UnsafeCell<u64>, v: u64) {
    // SAFETY: exclusive by the handshake (see `Sync` impl above).
    unsafe { *c.get() = v }
}
#[cfg(not(loom))]
fn cell_read(c: &UnsafeCell<u64>) -> u64 {
    // SAFETY: the worker's republish happened-before this read.
    unsafe { *c.get() }
}

fn new_shared(n_cells: usize) -> Arc<SlotShared> {
    Arc::new(SlotShared {
        state: Mutex::new(SlotState {
            job: None,
            submitted: 0,
            finished: 0,
            shutdown: false,
        }),
        cv: Condvar::new(),
        cells: (0..n_cells).map(|_| UnsafeCell::new(0)).collect(),
    })
}

/// Mirror of `WorkerPool::submit`.
fn submit(sh: &SlotShared, cell: usize) {
    let mut st = sh.state.lock().unwrap();
    assert!(st.job.is_none() && st.finished == st.submitted);
    st.job = Some(cell);
    st.submitted += 1;
    sh.cv.notify_all();
}

/// Mirror of one worker's slice of `WorkerPool::wait_all`.
fn wait_idle(sh: &SlotShared) {
    let mut st = sh.state.lock().unwrap();
    while st.finished != st.submitted {
        st = sh.cv.wait(st).unwrap();
    }
}

fn shut_down(sh: &SlotShared) {
    sh.state.lock().unwrap().shutdown = true;
    sh.cv.notify_all();
}

/// Mirror of `parallel::worker_loop`: block for a job, run it (here:
/// write `job_index + 1` into the job's cell, unlocked), republish.
fn worker_loop(sh: &SlotShared) {
    loop {
        let cell = {
            let mut st = sh.state.lock().unwrap();
            loop {
                if st.shutdown {
                    return;
                }
                if let Some(j) = st.job.take() {
                    break j;
                }
                st = sh.cv.wait(st).unwrap();
            }
        };
        cell_write(&sh.cells[cell], cell as u64 + 1);
        let mut st = sh.state.lock().unwrap();
        st.finished = st.submitted;
        sh.cv.notify_all();
    }
}

/// One publish/consume round trip: submit, wait, read the cell the
/// worker wrote without holding the lock. Loom proves the handshake
/// orders the unlocked write before the unlocked read; the stress
/// variant asserts the value over many iterations.
fn publish_consume_round(rounds: usize) {
    let sh = new_shared(rounds);
    let w = {
        let sh = Arc::clone(&sh);
        thread::spawn(move || worker_loop(&sh))
    };
    for r in 0..rounds {
        submit(&sh, r);
        wait_idle(&sh);
        assert_eq!(cell_read(&sh.cells[r]), r as u64 + 1, "lost worker write");
    }
    shut_down(&sh);
    w.join().unwrap();
}

/// Two workers race their private partials; the submitter reduces in
/// deterministic pair order only after both republish, mirroring
/// `execute_into`'s `wait_all` → `tree_reduce_partials` sequence.
fn reduce_after_wait_round() {
    let shs: Vec<Arc<SlotShared>> = (0..2).map(|_| new_shared(1)).collect();
    let handles: Vec<_> = shs
        .iter()
        .map(|sh| {
            let sh = Arc::clone(sh);
            thread::spawn(move || worker_loop(&sh))
        })
        .collect();
    for sh in &shs {
        submit(sh, 0);
    }
    // `wait_all`: worker order, each to quiescence, before any read.
    for sh in &shs {
        wait_idle(sh);
    }
    // The deterministic pairwise reduction: partials[0] += partials[1].
    let total: u64 = shs.iter().map(|sh| cell_read(&sh.cells[0])).sum();
    assert_eq!(total, 2, "reduction read a stale partial");
    for sh in &shs {
        shut_down(sh);
    }
    for h in handles {
        h.join().unwrap();
    }
}

#[cfg(loom)]
mod models {
    /// Exhaustive interleavings of one submit → run → wait cycle.
    #[test]
    fn loom_job_slot_publish_consume() {
        loom::model(|| super::publish_consume_round(1));
    }

    /// Two consecutive jobs through the same slot: the republish of
    /// round 1 must not satisfy round 2's wait.
    #[test]
    fn loom_job_slot_two_rounds() {
        loom::model(|| super::publish_consume_round(2));
    }

    /// Both workers' partial writes happen-before the reduction reads.
    #[test]
    fn loom_tree_reduce_sees_all_partials() {
        loom::model(super::reduce_after_wait_round);
    }
}

#[cfg(not(loom))]
mod stress {
    /// Std stand-in for the loom publish/consume model: many round
    /// trips through one slot, each asserting the worker's unlocked
    /// write is visible after `wait_idle`.
    #[test]
    fn job_slot_publish_consume_stress() {
        // Miri checks every iteration for data races; a handful is
        // plenty there, while native runs hammer the interleavings.
        let (iters, rounds) = if cfg!(miri) { (2, 3) } else { (64, 8) };
        for _ in 0..iters {
            super::publish_consume_round(rounds);
        }
    }

    /// Std stand-in for the loom reduction model.
    #[test]
    fn tree_reduce_sees_all_partials_stress() {
        let iters = if cfg!(miri) { 4 } else { 256 };
        for _ in 0..iters {
            super::reduce_after_wait_round();
        }
    }

    /// The real `tree_reduce_partials` on partials produced by real
    /// parallel execution is deterministic: same inputs, same thread
    /// count, bitwise-identical outputs across repeats.
    #[test]
    #[cfg_attr(miri, ignore)] // covered by parallel_exec's determinism test
    fn parallel_execution_is_deterministic() {
        use rand::{rngs::StdRng, SeedableRng};
        use spttn_exec::{CompiledTape, KernelSet, OutputMut, ParallelExecutor};
        use spttn_ir::{buffers_for_forest, build_forest, parse_kernel, path_from_picks, NestSpec};
        use spttn_tensor::{random_coo, random_dense, Csf, DenseTensor};
        use std::sync::Arc;

        let k = parse_kernel(
            "A(i,r) = T(i,j,k) * B(j,r) * C(k,r)",
            &[("i", 12), ("j", 10), ("k", 11), ("r", 6)],
        )
        .unwrap();
        let path = path_from_picks(&k, &[(0, 1), (0, 1)]);
        let spec = NestSpec {
            orders: vec![vec![0, 1, 2, 3], vec![0, 3, 2]],
        };
        let forest = build_forest(&k, &path, &spec).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let coo = random_coo(&[12, 10, 11], 180, &mut rng).unwrap();
        let csf = Csf::from_coo(&coo, &[0, 1, 2]).unwrap();
        let slots = [
            DenseTensor::zeros(&[]), // sparse slot placeholder
            random_dense(&[10, 6], &mut rng),
            random_dense(&[11, 6], &mut rng),
        ];
        let specs = buffers_for_forest(&k, &path, &forest);
        let tape =
            CompiledTape::compile_with_kernels(&k, &path, &forest, &specs, KernelSet::scalar())
                .unwrap();
        let mut par = ParallelExecutor::new(&k, &path, &forest, &specs, Arc::new(tape), &csf, 3);
        let mut run = || {
            let mut out = DenseTensor::zeros(&[12, 6]);
            par.execute_into(&k, &csf, &slots, OutputMut::Dense(&mut out), None)
                .unwrap();
            out
        };
        let base = run();
        for _ in 0..4 {
            assert_eq!(
                base.as_slice(),
                run().as_slice(),
                "nondeterministic reduction"
            );
        }
    }
}
