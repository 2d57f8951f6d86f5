//! Parallel tiled execution of planned loop nests.
//!
//! The CSF root level splits into contiguous tiles of complete root
//! subtrees ([`spttn_tensor::Csf::partition`]), and the contraction is
//! linear in the sparse tensor, so each tile's execution is an
//! independent additive contribution to the output. This module fans
//! those tiles out across threads: a [`ParallelExecutor`] owns the
//! tiles, per-thread workspaces, per-thread partial outputs, and a
//! persistent worker pool, so repeated
//! [`ParallelExecutor::execute_into`] calls perform **zero heap
//! allocations** — the same contract the serial
//! [`crate::execute_tape_into`] honors.
//!
//! **Determinism.** The tile partition is a deterministic function of
//! the tree and the thread count; each tile executes sequentially; and
//! dense partial outputs are combined by a fixed-shape pairwise *tree
//! reduction* in tile order ([`tree_reduce_partials`]). Two runs at the
//! same thread count are therefore bitwise identical. Pattern-sharing
//! sparse outputs (TTTP-like) need no reduction at all: tiles write
//! disjoint leaf ranges of the value array.

use crate::faults;
use crate::guard::RunGuard;
use crate::tape::{execute_tape_tile_into_guarded, CompiledTape};
use crate::workspace::{validate_output, ExecStats, OutputMut, Workspace};
use spttn_core::{Result, SpttnError};
use spttn_ir::{BufferSpec, ContractionPath, Kernel, LoopForest};
use spttn_tensor::{Csf, CsfTile, DenseTensor};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

/// Best-effort text of a panic payload, for [`SpttnError::WorkerPanic`].
fn panic_payload(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Deterministic pairwise tree reduction of per-tile partial outputs.
///
/// Combines `partials[i] += partials[i + gap]` for gaps 1, 2, 4, … in
/// ascending tile order, leaving the reduced sum in `partials[0]`. The
/// reduction shape depends only on `partials.len()`, so a fixed tile
/// count gives a bitwise-reproducible floating-point sum run to run.
pub fn tree_reduce_partials(partials: &mut [DenseTensor]) {
    let n = partials.len();
    let mut gap = 1usize;
    while gap < n {
        let mut i = 0usize;
        while i + gap < n {
            let (head, tail) = partials.split_at_mut(i + gap);
            let dst = head[i].as_mut_slice();
            let src = tail[0].as_slice();
            for (d, s) in dst.iter_mut().zip(src) {
                *d += s;
            }
            i += gap * 2;
        }
        gap *= 2;
    }
}

// ---------------------------------------------------------------------
// Persistent worker pool (the zero-allocation execute-many path)
// ---------------------------------------------------------------------

/// Where a worker writes its tile's contribution.
#[derive(Clone, Copy)]
enum JobOut {
    /// Private dense partial for the tile; the worker zeroes it before
    /// executing.
    Dense(*mut DenseTensor),
    /// The tile's disjoint leaf-range chunk of the shared sparse output
    /// (pointer + length). Not zeroed: `+=` accumulation is preserved.
    Sparse(*mut f64, usize),
}

/// One tile execution, packaged as plain pointers so submitting it to a
/// waiting worker stores a fixed-size value — no closure boxing, no
/// allocation.
#[derive(Clone, Copy)]
struct Job {
    kernel: *const Kernel,
    /// Compiled tape program shared by every worker.
    tape: *const CompiledTape,
    csf: *const Csf,
    tile: *const CsfTile,
    factors: *const DenseTensor,
    factors_len: usize,
    ws: *mut Workspace,
    out: JobOut,
    /// Cancellation/deadline guard shared by every tile of one
    /// execution; null means unguarded.
    guard: *const RunGuard,
}

// SAFETY: jobs are only created by `ParallelExecutor::execute_into`,
// which blocks on `WorkerPool::wait_all` before returning, so every
// pointer outlives the job; each `*mut` target (workspace, partial,
// sparse chunk) belongs to exactly one job, and the shared `*const`
// targets (incl. the guard — `RunGuard: Sync`, its only interior
// mutability an atomic flag) are safe to read from every worker.
unsafe impl Send for Job {}

fn run_job(job: Job) -> Result<()> {
    // SAFETY: see the `Send` impl for `Job` — pointers are valid for the
    // whole job and mutable targets are exclusive to it.
    unsafe {
        let kernel = &*job.kernel;
        let tape = &*job.tape;
        let csf = &*job.csf;
        let tile = &*job.tile;
        let factors = std::slice::from_raw_parts(job.factors, job.factors_len);
        let ws = &mut *job.ws;
        let guard: Option<&RunGuard> = job.guard.as_ref();
        let out = match job.out {
            JobOut::Dense(p) => {
                let partial = &mut *p;
                partial.fill_zero();
                OutputMut::Dense(partial)
            }
            JobOut::Sparse(p, len) => OutputMut::Sparse(std::slice::from_raw_parts_mut(p, len)),
        };
        execute_tape_tile_into_guarded(tape, kernel, csf, tile, factors, ws, out, guard)
    }
}

struct WorkerState {
    job: Option<Job>,
    /// Jobs handed to this worker so far.
    submitted: u64,
    /// Jobs this worker has finished; idle iff `finished == submitted`.
    finished: u64,
    /// Outcome of the most recent job.
    result: Result<()>,
    shutdown: bool,
    /// Set by a worker about to exit its thread (under the same lock
    /// that publishes its final result), so `respawn_dead` observes the
    /// death deterministically — `JoinHandle::is_finished` alone races
    /// with the OS-level thread teardown.
    dead: bool,
}

struct WorkerShared {
    state: Mutex<WorkerState>,
    cv: Condvar,
}

/// Lock a worker slot, shedding mutex poisoning instead of panicking.
///
/// SAFETY-style invariant: the slot holds plain data (an `Option<Job>`
/// of `Copy` pointers plus counters), and every critical section is a
/// handful of field assignments — no invariant can be left half-updated
/// by an unwinding holder. Discarding the poison flag is exactly what
/// keeps one panicking execution from bricking the pool for the next.
fn lock_worker(sh: &WorkerShared) -> MutexGuard<'_, WorkerState> {
    sh.state.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A fixed set of persistent worker threads, one job slot each.
///
/// Created once (at bind time); each execution submits one pre-packaged
/// [`Job`] per worker and waits for all of them. The job slot is a
/// plain `Option<Job>` behind a mutex, so the submit/wait cycle touches
/// no heap.
struct WorkerPool {
    shared: Vec<Arc<WorkerShared>>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl WorkerPool {
    fn new(n_workers: usize) -> WorkerPool {
        let mut shared = Vec::with_capacity(n_workers);
        let mut handles = Vec::with_capacity(n_workers);
        for slot in 0..n_workers {
            let sh = Arc::new(WorkerShared {
                state: Mutex::new(WorkerState {
                    job: None,
                    submitted: 0,
                    finished: 0,
                    result: Ok(()),
                    shutdown: false,
                    dead: false,
                }),
                cv: Condvar::new(),
            });
            handles.push(Self::spawn_worker(&sh, slot));
            shared.push(sh);
        }
        WorkerPool { shared, handles }
    }

    fn spawn_worker(sh: &Arc<WorkerShared>, slot: usize) -> std::thread::JoinHandle<()> {
        let worker_sh = Arc::clone(sh);
        std::thread::spawn(move || worker_loop(&worker_sh, slot))
    }

    fn len(&self) -> usize {
        self.shared.len()
    }

    /// Replace workers whose threads have exited (an injected thread
    /// death, or a real one via an abort-on-unwind payload that escaped
    /// `catch_unwind`). The slot state is reset to idle before the new
    /// thread starts, so a stale result can never leak into the next
    /// execution. Returns the number of workers replaced.
    fn respawn_dead(&mut self) -> usize {
        let mut replaced = 0usize;
        for (slot, h) in self.handles.iter_mut().enumerate() {
            let sh = &self.shared[slot];
            // `dead` is published under the slot lock before the thread
            // exits, so a just-died worker is seen even while the OS is
            // still tearing its thread down; `is_finished` covers any
            // exit path that never reached the flag.
            if !lock_worker(sh).dead && !h.is_finished() {
                continue;
            }
            {
                let mut st = lock_worker(sh);
                st.job = None;
                st.finished = st.submitted;
                st.result = Ok(());
                st.shutdown = false;
                st.dead = false;
            }
            let fresh = Self::spawn_worker(sh, slot);
            let dead = std::mem::replace(h, fresh);
            let _ = dead.join();
            replaced += 1;
        }
        replaced
    }

    /// Hand a job to an idle worker. Debug-asserts idleness: the
    /// executor submits exactly one job per worker per execution.
    fn submit(&self, worker: usize, job: Job) {
        let sh = &self.shared[worker];
        let mut st = lock_worker(sh);
        debug_assert!(
            st.job.is_none() && st.finished == st.submitted,
            "worker {worker} still busy"
        );
        st.job = Some(job);
        st.submitted += 1;
        sh.cv.notify_all();
    }

    /// Block until every submitted job has finished; the first error in
    /// worker order wins (deterministic, matching the reduction order).
    fn wait_all(&self) -> Result<()> {
        let mut first_err: Option<SpttnError> = None;
        for sh in &self.shared {
            let mut st = lock_worker(sh);
            while st.finished != st.submitted {
                st = sh.cv.wait(st).unwrap_or_else(PoisonError::into_inner);
            }
            if first_err.is_none() {
                if let Err(e) = std::mem::replace(&mut st.result, Ok(())) {
                    first_err = Some(e);
                }
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        for sh in &self.shared {
            lock_worker(sh).shutdown = true;
            sh.cv.notify_all();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(shared: &WorkerShared, slot: usize) {
    // Errors report the *tile* index; pool slot `s` runs tile `s + 1`
    // (tile 0 stays on the calling thread).
    let tile_id = slot + 1;
    loop {
        let job = {
            let mut st = lock_worker(shared);
            loop {
                if st.shutdown {
                    return;
                }
                if let Some(j) = st.job.take() {
                    break j;
                }
                st = shared.cv.wait(st).unwrap_or_else(PoisonError::into_inner);
            }
        };
        // Deterministic fault injection (tests/faults.rs). `die` also
        // exits this thread after reporting, exercising `respawn_dead`.
        let die = faults::claim_worker_fault(slot);
        // A panic inside the engines must not kill the worker (the
        // submitter would deadlock waiting for `finished`); surface it
        // as a structured `WorkerPanic` that fails only this execution.
        let res = catch_unwind(AssertUnwindSafe(|| {
            if die.is_some() {
                panic!("injected fault: worker panic");
            }
            run_job(job)
        }))
        .unwrap_or_else(|p| {
            Err(SpttnError::WorkerPanic {
                worker: tile_id,
                payload: panic_payload(p.as_ref()),
            })
        });
        let mut st = lock_worker(shared);
        st.result = res;
        st.finished = st.submitted;
        if die == Some(true) {
            // Simulated thread death: publish the death under the same
            // lock as the result, so the submitter is never left
            // waiting and the next execution's `respawn_dead` cannot
            // miss the still-tearing-down thread.
            st.dead = true;
        }
        shared.cv.notify_all();
        drop(st);
        if die == Some(true) {
            return;
        }
    }
}

/// The plan-once/execute-many parallel engine: leaf-balanced CSF root
/// tiles, one preallocated [`Workspace`] and private dense partial per
/// tile, and a persistent worker pool of `tiles − 1` threads (the
/// caller's thread executes tile 0).
///
/// After construction, [`ParallelExecutor::execute_into`] performs zero
/// heap allocations on the success path, and its output is
/// run-to-run deterministic at a fixed thread count (see the
/// [module docs](self)). The `spttn` facade's `Executor` owns one of
/// these when a plan is bound with more than one thread.
pub struct ParallelExecutor {
    tiles: Vec<CsfTile>,
    workspaces: Vec<Workspace>,
    /// One private dense partial per tile; empty for pattern-sharing
    /// sparse outputs, which reduce by disjoint leaf ranges instead.
    partials: Vec<DenseTensor>,
    pool: WorkerPool,
    /// Compiled tape shared by every tile (one immutable program,
    /// per-tile mutable state in each workspace).
    tape: Arc<CompiledTape>,
    /// Per-level node counts of the CSF the tiles were computed from:
    /// a cheap structural guard (O(order) to compare, allocation-free)
    /// that rejects execution against a tensor the tiling does not
    /// cover. Same-shape value updates (the supported rebinding) keep
    /// these counts; same-nnz pattern changes are caught here.
    level_nnz: Vec<usize>,
    /// Aggregated microkernel stats of the most recent execution.
    stats: ExecStats,
}

impl std::fmt::Debug for ParallelExecutor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ParallelExecutor")
            .field("tiles", &self.tiles.len())
            .field("workers", &self.pool.len())
            .field("level_nnz", &self.level_nnz)
            .finish()
    }
}

impl ParallelExecutor {
    /// Partition `csf` into at most `n_threads` leaf-balanced tiles and
    /// preallocate every per-tile resource (workspaces from the plan's
    /// buffer specs with `tape`'s driver state prepared, dense partials
    /// from the kernel's output shape) plus the persistent worker pool.
    /// `tape` must be compiled from the same `(kernel, path, forest,
    /// specs)`.
    pub fn new(
        kernel: &Kernel,
        path: &ContractionPath,
        forest: &LoopForest,
        specs: &[BufferSpec],
        tape: Arc<CompiledTape>,
        csf: &Csf,
        n_threads: usize,
    ) -> ParallelExecutor {
        let tiles = csf.partition(n_threads.max(1));
        let workspaces: Vec<Workspace> = tiles
            .iter()
            .map(|_| {
                let mut ws = Workspace::from_specs(kernel, path, forest, specs);
                ws.prepare_tape(&tape);
                ws
            })
            .collect();
        let partials: Vec<DenseTensor> = if kernel.output_sparse {
            Vec::new()
        } else {
            let odims = kernel.ref_dims(&kernel.output);
            tiles.iter().map(|_| DenseTensor::zeros(&odims)).collect()
        };
        let pool = WorkerPool::new(tiles.len().saturating_sub(1));
        ParallelExecutor {
            tiles,
            workspaces,
            partials,
            pool,
            tape,
            level_nnz: (0..csf.order()).map(|k| csf.level_nnz(k)).collect(),
            stats: ExecStats::default(),
        }
    }

    /// Number of tiles (= executing threads, counting the caller's).
    pub fn n_tiles(&self) -> usize {
        self.tiles.len()
    }

    /// The root tiles, in execution/reduction order.
    pub fn tiles(&self) -> &[CsfTile] {
        &self.tiles
    }

    /// The per-tile workspaces (exposed so callers can assert buffer
    /// stability across executions).
    pub fn workspaces(&self) -> &[Workspace] {
        &self.workspaces
    }

    /// Microkernel dispatch counters of the most recent execution,
    /// aggregated across all tiles/threads.
    pub fn stats(&self) -> ExecStats {
        self.stats
    }

    /// Execute the plan across the pool, **accumulating** into `out`
    /// (zero it first for `=` semantics). Tiles 1… run on the persistent
    /// workers while tile 0 runs on the calling thread; dense partials
    /// are then tree-reduced in fixed tile order and added into `out`,
    /// while sparse outputs were already written to disjoint leaf
    /// ranges. Zero heap allocations on the success path.
    ///
    /// A cancellation/deadline `guard` is shared by every tile: each
    /// worker checks it at its own root-iteration boundaries, so the
    /// whole fan-out stops within one root subtree per thread.
    pub fn execute_into(
        &mut self,
        kernel: &Kernel,
        csf: &Csf,
        factors_by_slot: &[DenseTensor],
        out: OutputMut<'_>,
        guard: Option<&RunGuard>,
    ) -> Result<()> {
        // Replace any workers that died since the last execution (a
        // no-op — `JoinHandle::is_finished` per worker — on the healthy
        // path, so the zero-allocation contract holds there).
        self.pool.respawn_dead();
        if csf.order() != self.level_nnz.len()
            || (0..csf.order()).any(|k| csf.level_nnz(k) != self.level_nnz[k])
        {
            return Err(SpttnError::Execution(
                "parallel executor was tiled for a CSF with a different structure; \
                 rebuild it for the new tensor (only same-pattern value updates reuse a tiling)"
                    .into(),
            ));
        }
        // Validate the caller's output up front, so a shape error leaves
        // the partials untouched and no worker starts.
        validate_output(kernel, &out, csf.nnz())?;
        let n = self.tiles.len();
        debug_assert_eq!(self.pool.len() + 1, n.max(1));
        // Raw bases for the per-tile exclusive targets; all derived
        // before any job is submitted so the borrows stay disjoint.
        let ws_base = self.workspaces.as_mut_ptr();
        let shared = Job {
            kernel,
            tape: Arc::as_ptr(&self.tape),
            csf,
            tile: std::ptr::null(),
            factors: factors_by_slot.as_ptr(),
            factors_len: factors_by_slot.len(),
            ws: std::ptr::null_mut(),
            out: JobOut::Sparse(std::ptr::null_mut(), 0),
            guard: guard.map_or(std::ptr::null(), |g| g as *const RunGuard),
        };
        match out {
            OutputMut::Dense(d) => {
                let part_base = self.partials.as_mut_ptr();
                for i in 1..n {
                    // SAFETY: each job gets a distinct workspace/partial.
                    let job = Job {
                        tile: &self.tiles[i],
                        ws: unsafe { ws_base.add(i) },
                        out: JobOut::Dense(unsafe { part_base.add(i) }),
                        ..shared
                    };
                    self.pool.submit(i - 1, job);
                }
                let job0 = Job {
                    tile: &self.tiles[0],
                    ws: ws_base,
                    out: JobOut::Dense(part_base),
                    ..shared
                };
                let r0 = run_tile0(&self.pool, job0);
                let rw = self.pool.wait_all();
                r0?;
                rw?;
                tree_reduce_partials(&mut self.partials);
                for (dv, sv) in d.as_mut_slice().iter_mut().zip(self.partials[0].as_slice()) {
                    *dv += sv;
                }
            }
            OutputMut::Sparse(v) => {
                let vp = v.as_mut_ptr();
                for i in 1..n {
                    let tile = &self.tiles[i];
                    // SAFETY: leaf ranges of distinct tiles are disjoint.
                    let job = Job {
                        tile,
                        ws: unsafe { ws_base.add(i) },
                        out: JobOut::Sparse(
                            unsafe { vp.add(tile.leaf_range().start) },
                            tile.leaf_nnz(),
                        ),
                        ..shared
                    };
                    self.pool.submit(i - 1, job);
                }
                let t0 = &self.tiles[0];
                // SAFETY: tile 0's leaf range starts inside `v` and is
                // disjoint from every range handed to the workers above.
                let job0 = Job {
                    tile: t0,
                    ws: ws_base,
                    out: JobOut::Sparse(unsafe { vp.add(t0.leaf_range().start) }, t0.leaf_nnz()),
                    ..shared
                };
                let r0 = run_tile0(&self.pool, job0);
                let rw = self.pool.wait_all();
                r0?;
                rw?;
            }
        }
        self.stats = ExecStats::default();
        for ws in &self.workspaces {
            let s = ws.stats();
            self.stats.merge(&s);
        }
        Ok(())
    }
}

/// Run tile 0's job on the calling thread, panic-safely: a panic here
/// must still wait for the in-flight workers (whose jobs point into the
/// executor's buffers) before control leaves the executor, and then
/// surfaces as a structured [`SpttnError::WorkerPanic`] (worker 0 = the
/// calling thread) instead of unwinding through the caller.
fn run_tile0(pool: &WorkerPool, job: Job) -> Result<()> {
    match catch_unwind(AssertUnwindSafe(|| {
        if faults::claim_tile0_fault() {
            panic!("injected fault: tile-0 panic");
        }
        run_job(job)
    })) {
        Ok(r) => r,
        Err(p) => {
            let _ = pool.wait_all();
            Err(SpttnError::WorkerPanic {
                worker: 0,
                payload: panic_payload(p.as_ref()),
            })
        }
    }
}

impl Clone for ParallelExecutor {
    /// Clones tiles, workspaces, and partials, and spawns a **fresh**
    /// worker pool of the same size (threads are not shareable state).
    fn clone(&self) -> ParallelExecutor {
        ParallelExecutor {
            tiles: self.tiles.clone(),
            workspaces: self.workspaces.clone(),
            partials: self.partials.clone(),
            pool: WorkerPool::new(self.pool.len()),
            tape: self.tape.clone(),
            level_nnz: self.level_nnz.clone(),
            stats: self.stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tree_reduce_is_a_sum() {
        for n in 1..=9usize {
            let mut partials: Vec<DenseTensor> = (0..n)
                .map(|i| {
                    let mut t = DenseTensor::zeros(&[3]);
                    t.fill((i + 1) as f64);
                    t
                })
                .collect();
            tree_reduce_partials(&mut partials);
            let want = (n * (n + 1) / 2) as f64;
            assert_eq!(partials[0].as_slice(), &[want, want, want]);
        }
    }

    #[test]
    fn pool_survives_reuse_and_drop() {
        // No public job API to exercise directly here (jobs need a full
        // plan); creating and dropping pools must not hang or leak.
        let pool = WorkerPool::new(3);
        assert_eq!(pool.len(), 3);
        drop(pool);
        let pool = WorkerPool::new(0);
        assert!(pool.wait_all().is_ok());
    }
}
