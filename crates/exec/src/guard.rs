//! Cooperative cancellation and deadlines for running executions.
//!
//! Executions in this workspace are long, allocation-free loop nests;
//! nothing short of killing the thread can stop one from the outside.
//! This module adds the cooperative alternative: a [`CancelToken`] the
//! caller can flip from any thread, and a [`RunGuard`] built once per
//! execution that bundles the token with an optional deadline. The
//! drivers consult the guard at their natural iteration boundaries —
//! the compiled tape at root-frame advances, the network executor
//! between contraction steps and every ~64k lanes inside a dense one —
//! so cancellation latency is bounded by one root subtree, not one
//! whole execution.
//!
//! A fired guard surfaces as [`SpttnError::Cancelled`]. The output is
//! not rolled back: at every thread count tile 0 accumulates straight
//! into the caller's buffer, so a run stopped mid-way leaves it
//! partially written. What the contract does promise is that nothing
//! sticks: every execution resets its workspaces on entry (and a `=`
//! plan re-zeroes its output), so a cancelled-then-retried executor
//! produces results bitwise identical to a fresh run.
//!
//! Both types are allocation-free to construct apart from the token's
//! one shared flag, and [`RunGuard::check`] on the not-cancelled path
//! is a relaxed atomic load plus (when a deadline is set) one
//! monotonic-clock read — cheap enough for per-root-iteration use
//! without violating the zero-allocation execute contract.

use spttn_core::{Result, SpttnError};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A shareable cancellation flag. Clone it freely: all clones observe
/// the same flag, so a server can hand one clone to the execution and
/// keep another to fire on client disconnect.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Request cancellation. Running executions observe it at their
    /// next checkpoint and return [`SpttnError::Cancelled`].
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }

    /// Clear the flag so the same token (and the plans holding it) can
    /// be reused for a fresh execution.
    pub fn reset(&self) {
        self.flag.store(false, Ordering::Release);
    }
}

/// Tokens compare by identity: two tokens are equal when they share
/// one flag, which is what plan-cache option comparison needs — a
/// cached plan is reusable iff it would observe the same cancellations.
impl PartialEq for CancelToken {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.flag, &other.flag)
    }
}

impl Eq for CancelToken {}

/// Per-execution stop conditions: an optional [`CancelToken`] and an
/// optional deadline, stamped with the execution's start instant.
///
/// Built once at the top of an execution and passed by reference down
/// the drivers (including across the worker pool — the guard holds no
/// interior mutability beyond the token's atomic, so `&RunGuard` is
/// freely shared between threads). [`RunGuard::check`] is the single
/// checkpoint primitive every engine calls.
#[derive(Debug, Clone)]
pub struct RunGuard {
    cancel: Option<CancelToken>,
    deadline: Option<Instant>,
    started: Instant,
}

impl RunGuard {
    /// A guard starting now, with an optional token and an optional
    /// timeout measured from this call. A timeout too large to
    /// represent as an `Instant` means "no deadline".
    pub fn new(cancel: Option<CancelToken>, timeout: Option<Duration>) -> Self {
        let started = Instant::now();
        let deadline = timeout.and_then(|t| started.checked_add(t));
        RunGuard {
            cancel,
            deadline,
            started,
        }
    }

    /// Whether the guard can ever fire. Drivers skip checkpoint work
    /// entirely for no-op guards.
    pub fn is_noop(&self) -> bool {
        self.cancel.is_none() && self.deadline.is_none()
    }

    /// Wall time since the guard (= the execution) started.
    pub fn elapsed(&self) -> Duration {
        self.started.elapsed()
    }

    /// The checkpoint: `Ok(())` to keep running, or
    /// [`SpttnError::Cancelled`] naming `phase` once the token fired
    /// or the deadline passed.
    #[inline]
    pub fn check(&self, phase: &'static str) -> Result<()> {
        if let Some(c) = &self.cancel {
            if c.is_cancelled() {
                return Err(SpttnError::Cancelled {
                    phase,
                    elapsed: self.elapsed(),
                });
            }
        }
        if let Some(d) = self.deadline {
            if Instant::now() >= d {
                return Err(SpttnError::Cancelled {
                    phase,
                    elapsed: self.elapsed(),
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_fires_across_clones_and_resets() {
        let t = CancelToken::new();
        let u = t.clone();
        assert!(!u.is_cancelled());
        t.cancel();
        assert!(u.is_cancelled());
        u.reset();
        assert!(!t.is_cancelled());
    }

    #[test]
    fn tokens_compare_by_identity() {
        let t = CancelToken::new();
        assert_eq!(t, t.clone());
        assert_ne!(t, CancelToken::new());
    }

    #[test]
    fn guard_passes_then_fails_on_cancel() {
        let t = CancelToken::new();
        let g = RunGuard::new(Some(t.clone()), None);
        assert!(g.check("tape").is_ok());
        t.cancel();
        match g.check("tape") {
            Err(SpttnError::Cancelled { phase, .. }) => assert_eq!(phase, "tape"),
            other => panic!("expected Cancelled, got {other:?}"),
        }
    }

    #[test]
    fn zero_timeout_expires_immediately() {
        let g = RunGuard::new(None, Some(Duration::ZERO));
        assert!(matches!(
            g.check("network"),
            Err(SpttnError::Cancelled {
                phase: "network",
                ..
            })
        ));
    }

    #[test]
    fn noop_guard_never_fires() {
        let g = RunGuard::new(None, None);
        assert!(g.is_noop());
        assert!(g.check("tape").is_ok());
        // An absurd timeout saturates to "no deadline" rather than
        // wrapping into the past.
        let h = RunGuard::new(None, Some(Duration::from_secs(u64::MAX)));
        assert!(h.check("tape").is_ok());
    }

    // &RunGuard crosses the worker-pool boundary; keep that provable.
    const _: () = {
        const fn assert_sync<T: Sync + Send>() {}
        assert_sync::<RunGuard>();
        assert_sync::<CancelToken>();
    };
}
