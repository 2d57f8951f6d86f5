//! Deterministic fault injection for the robustness test suites.
//!
//! Test-only in purpose but always compiled, so the facade's
//! integration tests (`tests/faults.rs`) can arm faults through the
//! public API without a feature flag keeping them out of the default
//! `cargo test` surface. The disarmed cost is a single relaxed atomic
//! load per tile job — nothing on the per-element hot path.
//!
//! Faults are **one-shot**: arming [`Fault::WorkerPanic`] makes the
//! next job claimed by that pool worker panic exactly once (caught by
//! the pool's `catch_unwind`, surfaced as
//! [`spttn_core::SpttnError::WorkerPanic`]); [`Fault::WorkerDeath`]
//! additionally makes the worker thread exit after failing the job, so
//! the pool's respawn path is exercised; [`Fault::Tile0Panic`] panics
//! the calling thread's tile-0 job (also caught) — at any thread count,
//! since every execution has a tile 0. The registry is process-global —
//! suites that arm faults must not run their armed sections
//! concurrently with any other execution in the process (the facade
//! test binary runs them within one test each, and `clear` resets
//! stray state).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// An injectable failure, armed via [`inject`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// The next job on pool worker `worker` (0-based slot; slot `w`
    /// runs tile `w + 1`) panics. The pool catches it and the
    /// execution fails with `WorkerPanic`; the worker thread survives.
    WorkerPanic { worker: usize },
    /// Like `WorkerPanic`, but the worker thread also exits after
    /// reporting the failure — simulating thread death so the pool
    /// must respawn the worker before the next execution.
    WorkerDeath { worker: usize },
    /// The calling thread's tile-0 job panics (caught; surfaces as
    /// `WorkerPanic { worker: 0 }`).
    Tile0Panic,
}

/// Fast disarmed check: faults are pending iff this is true.
static ACTIVE: AtomicBool = AtomicBool::new(false);
static PENDING: Mutex<Vec<Fault>> = Mutex::new(Vec::new());

fn pending() -> std::sync::MutexGuard<'static, Vec<Fault>> {
    // A panic can never unwind while this lock is held (the claim
    // functions only mutate the Vec), so poison recovery is sound.
    PENDING
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Arm a one-shot fault. Multiple pending faults are allowed.
pub fn inject(f: Fault) {
    pending().push(f);
    ACTIVE.store(true, Ordering::Release);
}

/// Drop all pending faults (test hygiene between cases).
pub fn clear() {
    let mut p = pending();
    p.clear();
    ACTIVE.store(false, Ordering::Release);
}

/// Remove and return the first pending fault matching `pred`.
fn claim(pred: impl Fn(&Fault) -> bool) -> Option<Fault> {
    if !ACTIVE.load(Ordering::Acquire) {
        return None;
    }
    let mut p = pending();
    let i = p.iter().position(pred)?;
    let f = p.remove(i);
    if p.is_empty() {
        ACTIVE.store(false, Ordering::Release);
    }
    Some(f)
}

/// Pool-worker hook: claim a panic-class fault for `worker`. Returns
/// whether the worker should also exit its thread (`WorkerDeath`).
pub(crate) fn claim_worker_fault(worker: usize) -> Option<bool> {
    claim(|f| {
        matches!(f, Fault::WorkerPanic { worker: w } | Fault::WorkerDeath { worker: w } if *w == worker)
    })
    .map(|f| matches!(f, Fault::WorkerDeath { .. }))
}

/// Caller-thread hook: claim a pending tile-0 panic.
pub(crate) fn claim_tile0_fault() -> bool {
    claim(|f| matches!(f, Fault::Tile0Panic)).is_some()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn faults_are_one_shot_and_targeted() {
        clear();
        inject(Fault::WorkerPanic { worker: 1 });
        inject(Fault::Tile0Panic);
        assert_eq!(claim_worker_fault(0), None, "wrong worker must not claim");
        assert_eq!(claim_worker_fault(1), Some(false));
        assert_eq!(claim_worker_fault(1), None, "one-shot");
        assert!(claim_tile0_fault());
        assert!(!claim_tile0_fault());
        assert!(!ACTIVE.load(Ordering::Acquire));

        inject(Fault::WorkerDeath { worker: 2 });
        assert_eq!(claim_worker_fault(2), Some(true));
        clear();
    }
}
