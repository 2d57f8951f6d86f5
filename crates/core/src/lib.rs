//! # spttn-core
//!
//! Shared vocabulary for the spttn workspace: the unified error type
//! every layer converges to, and the scalar/result aliases the rest of
//! the stack builds on.
//!
//! The lower layers each define precise, local error enums
//! ([`spttn_ir::KernelError`], [`spttn_ir::FuseError`],
//! [`spttn_tensor::TensorError`]); this crate folds them into one
//! [`SpttnError`] so the `spttn` facade presents a single error surface
//! for the whole parse → plan → execute pipeline.

// Pure data and error plumbing: no unsafe code, ever.
#![forbid(unsafe_code)]

use spttn_ir::{FuseError, KernelError};
use spttn_tensor::TensorError;

/// Element type of every tensor in the workspace.
pub type Scalar = f64;

/// Result alias used across the facade and executor.
pub type Result<T> = std::result::Result<T, SpttnError>;

/// Unified error for the parse → plan → execute pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum SpttnError {
    /// Kernel specification or einsum parsing failed.
    Kernel(KernelError),
    /// Fused-forest construction rejected the loop orders.
    Fuse(FuseError),
    /// Tensor construction or validation failed.
    Tensor(TensorError),
    /// The planner could not produce a feasible loop nest.
    Planning(String),
    /// Bound operands disagree with the kernel's index structure.
    Shape(String),
    /// The executor was driven with inconsistent inputs.
    Execution(String),
    /// Execution stopped cooperatively before completion — a
    /// `CancelToken` fired or a deadline expired. `phase` names the
    /// checkpoint that observed the stop ("tape" or "network");
    /// `elapsed` is wall time since the execution started.
    /// The caller-visible output holds no partial results.
    Cancelled {
        phase: &'static str,
        elapsed: std::time::Duration,
    },
    /// A job panicked during parallel execution. Only the execution
    /// that owned the job fails; the worker pool recovers. `worker` is
    /// the tile index (0 = the calling thread), `payload` the panic
    /// message when it was a string.
    WorkerPanic { worker: usize, payload: String },
    /// Admission control rejected the bind: the plan's modeled demand
    /// for `resource` exceeds the configured `RunBudget`, even after
    /// degrading to the cheapest feasible configuration.
    BudgetExceeded {
        resource: &'static str,
        predicted: u128,
        allowed: u128,
    },
}

impl std::fmt::Display for SpttnError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpttnError::Kernel(e) => write!(f, "kernel error: {e}"),
            SpttnError::Fuse(e) => write!(f, "fusion error: {e}"),
            SpttnError::Tensor(e) => write!(f, "tensor error: {e}"),
            SpttnError::Planning(m) => write!(f, "planning error: {m}"),
            SpttnError::Shape(m) => write!(f, "shape error: {m}"),
            SpttnError::Execution(m) => write!(f, "execution error: {m}"),
            SpttnError::Cancelled { phase, elapsed } => {
                write!(f, "execution cancelled during {phase} after {elapsed:?}")
            }
            SpttnError::WorkerPanic { worker, payload } => {
                write!(
                    f,
                    "worker {worker} panicked during parallel execution: {payload}"
                )
            }
            SpttnError::BudgetExceeded {
                resource,
                predicted,
                allowed,
            } => {
                write!(
                    f,
                    "budget exceeded: predicted {resource} {predicted} > allowed {allowed}"
                )
            }
        }
    }
}

impl std::error::Error for SpttnError {}

impl From<KernelError> for SpttnError {
    fn from(e: KernelError) -> Self {
        SpttnError::Kernel(e)
    }
}

impl From<FuseError> for SpttnError {
    fn from(e: FuseError) -> Self {
        SpttnError::Fuse(e)
    }
}

impl From<TensorError> for SpttnError {
    fn from(e: TensorError) -> Self {
        SpttnError::Tensor(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_preserve_payload() {
        let k: SpttnError = KernelError::NoInputs.into();
        assert_eq!(k, SpttnError::Kernel(KernelError::NoInputs));
        let t: SpttnError = TensorError::ZeroDim.into();
        assert!(matches!(t, SpttnError::Tensor(TensorError::ZeroDim)));
        let u: SpttnError = FuseError::WrongArity.into();
        assert!(matches!(u, SpttnError::Fuse(FuseError::WrongArity)));
    }

    #[test]
    fn display_is_prefixed() {
        let e = SpttnError::Planning("no feasible nest".into());
        assert_eq!(e.to_string(), "planning error: no feasible nest");
        let k: SpttnError = KernelError::NoInputs.into();
        assert!(k.to_string().starts_with("kernel error:"));
    }

    #[test]
    fn robustness_variants_display_their_numbers() {
        let c = SpttnError::Cancelled {
            phase: "tape",
            elapsed: std::time::Duration::from_millis(12),
        };
        assert!(c.to_string().contains("cancelled during tape"));
        let w = SpttnError::WorkerPanic {
            worker: 3,
            payload: "index out of bounds".into(),
        };
        assert_eq!(
            w.to_string(),
            "worker 3 panicked during parallel execution: index out of bounds"
        );
        let b = SpttnError::BudgetExceeded {
            resource: "workspace bytes",
            predicted: 4096,
            allowed: 1024,
        };
        assert_eq!(
            b.to_string(),
            "budget exceeded: predicted workspace bytes 4096 > allowed 1024"
        );
    }

    #[test]
    fn question_mark_composes() {
        fn inner() -> Result<()> {
            Err(TensorError::ZeroDim)?;
            Ok(())
        }
        assert!(matches!(inner(), Err(SpttnError::Tensor(_))));
    }
}
