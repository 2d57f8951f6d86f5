//! The tile engine: every planned loop nest runs through here.
//!
//! The CSF root level splits into contiguous tiles of complete root
//! subtrees ([`spttn_tensor::Csf::partition`]), and the contraction is
//! linear in the sparse tensor, so each tile's execution is an
//! independent additive contribution to the output — the paper's
//! runtime (Sec. 5): one loop nest, a partition of the sparse tensor,
//! a reduction of the outputs. A [`ParallelExecutor`] owns the tiles,
//! one workspace per tile, one private dense partial per tile *after
//! the first*, and a persistent pool of `tiles − 1` worker threads.
//! Tile 0 always runs on the calling thread and accumulates straight
//! into the caller's output; tiles 1… run on the workers into their
//! partials, which are tree-reduced and added afterwards. One thread is
//! that scheme with one tile — no worker thread, no partial, no
//! reduction — not a second executor. Repeated
//! [`ParallelExecutor::execute_into`] calls perform **zero heap
//! allocations** at every tile count.
//!
//! **Determinism.** The tile partition is a deterministic function of
//! the tree and the thread count; each tile executes sequentially; and
//! the dense partials of tiles 1… are combined by a fixed-shape
//! pairwise *tree reduction* in tile order ([`tree_reduce_partials`])
//! before one add into the output tile 0 wrote: `p0 + reduce(p1…)`. Two
//! runs at the same tile count are therefore bitwise identical.
//! Pattern-sharing sparse outputs (TTTP-like) need no reduction at all:
//! tiles write disjoint leaf ranges of the value array.
//!
//! **Faults.** A panic inside any tile — the caller's included — is
//! caught and surfaces as a typed [`SpttnError::WorkerPanic`] naming
//! the tile; a cancelled or panicked run leaves the caller's output
//! partially written and nothing else behind.

use crate::faults;
use crate::guard::RunGuard;
use crate::tape::{run_tape_tile, CompiledTape};
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
/// ascending tile order, leaving the reduced sum in `partials[0]` (an
/// empty slice is a no-op). The reduction shape depends only on
/// `partials.len()`, so a fixed tile count gives a bitwise-reproducible
/// floating-point sum run to run.
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
// Persistent worker pool (tiles 1… of every execution)
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
        run_tape_tile(tape, kernel, csf, tile, factors, ws, out, guard)
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

/// The plan-once/execute-many tile engine: leaf-balanced CSF root
/// tiles, one preallocated [`Workspace`] per tile, a private dense
/// partial per tile after the first, and a persistent worker pool of
/// `tiles − 1` threads (the caller's thread executes tile 0, straight
/// into the caller's output).
///
/// After construction, [`ParallelExecutor::execute_into`] performs zero
/// heap allocations on the success path, and its output is
/// run-to-run deterministic at a fixed thread count (see the
/// [module docs](self)). Every `Executor` of the `spttn` facade owns
/// one of these; a 1-thread bind is the engine with one tile.
pub struct ParallelExecutor {
    tiles: Vec<CsfTile>,
    workspaces: Vec<Workspace>,
    /// One private dense partial per tile after the first
    /// (`partials[i − 1]` belongs to tile `i`); empty for a one-tile
    /// engine and for pattern-sharing sparse outputs, which reduce by
    /// disjoint leaf ranges instead.
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
        let n_workers = tiles.len() - 1;
        let partials: Vec<DenseTensor> = if kernel.output_sparse {
            Vec::new()
        } else {
            let odims = kernel.ref_dims(&kernel.output);
            (0..n_workers).map(|_| DenseTensor::zeros(&odims)).collect()
        };
        let pool = WorkerPool::new(n_workers);
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

    /// The compiled tape every tile runs.
    pub fn tape(&self) -> &CompiledTape {
        &self.tape
    }

    /// Microkernel dispatch counters of the most recent execution,
    /// aggregated across all tiles/threads.
    pub fn stats(&self) -> ExecStats {
        self.stats
    }

    /// Execute the plan over every tile, **accumulating** into `out`
    /// (zero it first for `=` semantics). Tile 0 runs on the calling
    /// thread straight into `out` while tiles 1… run on the persistent
    /// workers; their dense partials are then tree-reduced in fixed tile
    /// order and added into `out`, while sparse outputs were already
    /// written to disjoint leaf ranges. Zero heap allocations on the
    /// success path.
    ///
    /// A cancellation/deadline `guard` is shared by every tile: each
    /// thread checks it at its own root-iteration boundaries, so the
    /// whole fan-out stops within one root subtree per thread. A run
    /// that stops — cancelled, or a tile panicked
    /// ([`SpttnError::WorkerPanic`], tile 0 being the caller) — leaves
    /// `out` holding an unspecified part of the result and the engine
    /// ready for the next call.
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
        let (tile0, worker_tiles) = self
            .tiles
            .split_first()
            .expect("a partition holds at least one tile");
        let (ws0, worker_ws) = self
            .workspaces
            .split_first_mut()
            .expect("one workspace per tile");
        debug_assert_eq!(self.pool.len(), worker_tiles.len());
        // Raw base of the workers' exclusive workspaces, derived before
        // any job is submitted and disjoint from tile 0's `ws0`.
        let ws_base = worker_ws.as_mut_ptr();
        let tape: &CompiledTape = &self.tape;
        let shared = Job {
            kernel,
            tape,
            csf,
            tile: std::ptr::null(),
            factors: factors_by_slot.as_ptr(),
            factors_len: factors_by_slot.len(),
            ws: std::ptr::null_mut(),
            out: JobOut::Sparse(std::ptr::null_mut(), 0),
            guard: guard.map_or(std::ptr::null(), |g| g as *const RunGuard),
        };
        let pool = &self.pool;
        // Worker `w` runs tile `w + 1` on workspace `w + 1`.
        let submit = |w: usize, out: JobOut| {
            let tile = &worker_tiles[w];
            // SAFETY: one workspace per tile, so the offset is in bounds
            // and no two jobs share a workspace.
            let ws = unsafe { ws_base.add(w) };
            pool.submit(
                w,
                Job {
                    tile,
                    ws,
                    out,
                    ..shared
                },
            );
        };
        // Tile 0 runs here, on plain borrows, once the workers have
        // their jobs; they are always waited for before any result is
        // looked at, so no job outlives this call. The first error in
        // tile order wins.
        let run_tile0_and_wait = |ws0: &mut Workspace, out0: OutputMut<'_>| {
            let r0 = catch_tile0(|| {
                run_tape_tile(tape, kernel, csf, tile0, factors_by_slot, ws0, out0, guard)
            });
            r0.and(pool.wait_all())
        };
        match out {
            OutputMut::Dense(d) => {
                let part_base = self.partials.as_mut_ptr();
                for w in 0..worker_tiles.len() {
                    // SAFETY: one partial per tile after the first, so
                    // the offset is in bounds and worker `w`'s alone.
                    submit(w, JobOut::Dense(unsafe { part_base.add(w) }));
                }
                run_tile0_and_wait(ws0, OutputMut::Dense(&mut *d))?;
                tree_reduce_partials(&mut self.partials);
                if let Some(rest) = self.partials.first() {
                    for (dv, sv) in d.as_mut_slice().iter_mut().zip(rest.as_slice()) {
                        *dv += sv;
                    }
                }
            }
            OutputMut::Sparse(v) => {
                // Tiles cover ascending contiguous leaf ranges from 0:
                // tile 0 takes the head of `v`, the workers disjoint
                // chunks of the rest.
                let head = tile0.leaf_range().end;
                let (v0, rest) = v.split_at_mut(head);
                let rest_base = rest.as_mut_ptr();
                for (w, tile) in worker_tiles.iter().enumerate() {
                    // SAFETY: the structure guard makes the tiles' leaf
                    // ranges partition `0..v.len()`, so each chunk lies
                    // inside `rest` and overlaps no other.
                    let chunk = unsafe { rest_base.add(tile.leaf_range().start - head) };
                    submit(w, JobOut::Sparse(chunk, tile.leaf_nnz()));
                }
                run_tile0_and_wait(ws0, OutputMut::Sparse(v0))?;
            }
        }
        self.stats = ExecStats::default();
        for ws in &self.workspaces {
            self.stats.merge(&ws.stats());
        }
        Ok(())
    }
}

/// Run tile 0 on the calling thread, panic-safely: a panic must not
/// unwind out of the engine while workers still hold pointers into its
/// buffers (the caller waits for them next), and it surfaces as a
/// structured [`SpttnError::WorkerPanic`] (worker 0 = the calling
/// thread) at every tile count — one tile included.
fn catch_tile0(tile0: impl FnOnce() -> Result<()>) -> Result<()> {
    catch_unwind(AssertUnwindSafe(|| {
        if faults::claim_tile0_fault() {
            panic!("injected fault: tile-0 panic");
        }
        tile0()
    }))
    .unwrap_or_else(|p| {
        Err(SpttnError::WorkerPanic {
            worker: 0,
            payload: panic_payload(p.as_ref()),
        })
    })
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

    /// Tile 0 writes the caller's output, so an engine holds a dense
    /// partial (and a thread) only per tile after the first — none at
    /// all with one tile — and no partial for a pattern-sharing output.
    /// Construction only: executing here could claim a fault armed by
    /// `faults::tests`, which shares this process.
    #[test]
    fn partials_and_workers_are_one_per_tile_after_the_first() {
        use spttn_ir::{buffers_for_forest, build_forest, parse_kernel, path_from_picks, NestSpec};
        use spttn_tensor::CooTensor;

        let mut coo = CooTensor::new(&[6, 4]).unwrap();
        for e in 0..12usize {
            coo.push(&[e % 6, (e * 3) % 4], 1.0 + e as f64).unwrap();
        }
        let csf = Csf::from_coo(&coo, &[0, 1]).unwrap();
        let engine = |expr: &str, orders: Vec<Vec<usize>>, threads: usize| {
            let k = parse_kernel(expr, &[("i", 6), ("j", 4), ("r", 3)]).unwrap();
            let path = path_from_picks(&k, &[(0, 1)]);
            let forest = build_forest(&k, &path, &NestSpec { orders }).unwrap();
            let specs = buffers_for_forest(&k, &path, &forest);
            let tape = CompiledTape::compile_with_kernels(
                &k,
                &path,
                &forest,
                &specs,
                crate::KernelSet::scalar(),
            )
            .unwrap();
            ParallelExecutor::new(&k, &path, &forest, &specs, Arc::new(tape), &csf, threads)
        };
        for threads in [1usize, 2, 3, 64] {
            let dense = engine("O(i,r) = T(i,j) * B(j,r)", vec![vec![0, 1, 2]], threads);
            let n = dense.n_tiles();
            assert!((1..=threads.min(6)).contains(&n), "{n} tiles at {threads}");
            assert_eq!(dense.partials.len(), n - 1);
            assert_eq!(dense.pool.len(), n - 1);
            assert_eq!(dense.workspaces().len(), n);

            let sparse = engine("S(i,j) = T(i,j) * B(i,j)", vec![vec![0, 1]], threads);
            assert_eq!(sparse.n_tiles(), n);
            assert_eq!(sparse.partials.len(), 0);
            assert_eq!(sparse.pool.len(), n - 1);
        }
        let one = engine("O(i,r) = T(i,j) * B(j,r)", vec![vec![0, 1, 2]], 1);
        assert_eq!((one.n_tiles(), one.pool.handles.len()), (1, 0));
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
