//! Per-query run control: cooperative cancellation and memory budgets.
//!
//! A [`RunContext`] travels inside [`ExecPolicy`](crate::ExecPolicy) into
//! every parallel operator. It is cheap to clone (two `Arc`s) and its
//! default is inert — uncancellable, unlimited — so the infallible
//! `Engine` methods pay nothing for it.
//!
//! **Cancellation latency is bounded by one morsel**: the token's flag is
//! checked at every morsel-claim boundary
//! ([`MorselQueue::claim`](crate::MorselQueue::claim) returns `None` once
//! cancelled), so each worker finishes at most the morsel it already
//! holds. The operator then observes the token after its scope joins and
//! returns [`EngineError::Cancelled`]; no kernel needs its own checks.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use crate::error::EngineError;

/// A shared cancellation flag. Cloning shares the flag.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, uncancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Request cancellation. Idempotent; never blocks. Workers observe it
    /// at their next morsel-claim boundary.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::SeqCst);
    }

    /// Whether cancellation was requested.
    #[inline]
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::SeqCst)
    }
}

#[derive(Debug)]
struct BudgetState {
    limit: u64,
    used: AtomicU64,
}

/// A byte budget gating large operator allocations (output buffers,
/// ping-pong columns, hash tables). `Default` is unlimited. Cloning
/// shares the accounting.
#[derive(Debug, Clone, Default)]
pub struct MemoryBudget {
    state: Option<Arc<BudgetState>>,
}

impl MemoryBudget {
    /// An unlimited budget (reservations always succeed).
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// A budget of `limit` bytes.
    pub fn bytes(limit: u64) -> Self {
        MemoryBudget {
            state: Some(Arc::new(BudgetState {
                limit,
                used: AtomicU64::new(0),
            })),
        }
    }

    /// Reserve `bytes` against the budget. Fails (without reserving) when
    /// the limit would be exceeded. The `exec.budget.reserve` failpoint
    /// can deny any reservation deterministically.
    pub fn reserve(&self, bytes: u64) -> Result<(), EngineError> {
        let injected = rsv_testkit::failpoint!("exec.budget.reserve");
        let Some(state) = &self.state else {
            return if injected {
                Err(EngineError::BudgetExceeded {
                    requested: bytes,
                    limit: 0,
                    used: 0,
                })
            } else {
                Ok(())
            };
        };
        // CAS loop: reserve only if the new total stays within the limit,
        // so concurrent reservations never overshoot and a failed attempt
        // leaves the accounting untouched.
        let mut used = state.used.load(Ordering::Relaxed);
        loop {
            let requested_total = used.saturating_add(bytes);
            if injected || requested_total > state.limit {
                return Err(EngineError::BudgetExceeded {
                    requested: bytes,
                    limit: state.limit,
                    used,
                });
            }
            match state.used.compare_exchange_weak(
                used,
                requested_total,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return Ok(()),
                Err(cur) => used = cur,
            }
        }
    }

    /// Return `bytes` to the budget (for buffers freed mid-query).
    pub fn release(&self, bytes: u64) {
        if let Some(state) = &self.state {
            let mut used = state.used.load(Ordering::Relaxed);
            loop {
                let next = used.saturating_sub(bytes);
                match state.used.compare_exchange_weak(
                    used,
                    next,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => return,
                    Err(cur) => used = cur,
                }
            }
        }
    }

    /// Reserve `bytes` as a [`Reservation`] that returns them when it is
    /// dropped, so every exit path — including an unwinding worker —
    /// releases what it held. Holding 0 bytes reserves nothing and
    /// cannot fail.
    pub fn hold(&self, bytes: u64) -> Result<Reservation, EngineError> {
        if bytes > 0 {
            self.reserve(bytes)?;
        }
        Ok(Reservation {
            budget: self.clone(),
            bytes,
        })
    }

    /// Bytes currently reserved (0 for an unlimited budget).
    pub fn used(&self) -> u64 {
        self.state
            .as_ref()
            .map_or(0, |s| s.used.load(Ordering::Relaxed))
    }

    /// The limit in bytes, if any.
    pub fn limit(&self) -> Option<u64> {
        self.state.as_ref().map(|s| s.limit)
    }
}

/// Bytes held against a [`MemoryBudget`] (see [`MemoryBudget::hold`]);
/// released on drop.
#[derive(Debug)]
pub struct Reservation {
    budget: MemoryBudget,
    bytes: u64,
}

impl Reservation {
    /// Hold `bytes` more; on failure the reservation is unchanged.
    pub fn grow(&mut self, bytes: u64) -> Result<(), EngineError> {
        self.budget.reserve(bytes)?;
        self.bytes += bytes;
        Ok(())
    }
}

impl Drop for Reservation {
    fn drop(&mut self) {
        self.budget.release(self.bytes);
    }
}

/// Everything a fallible operator run carries: a [`CancelToken`] and a
/// [`MemoryBudget`]. `Default` is inert (uncancellable, unlimited), which
/// is what the infallible `Engine` methods run under.
#[derive(Debug, Clone, Default)]
pub struct RunContext {
    /// The query's cancellation token.
    pub cancel: CancelToken,
    /// The query's memory budget.
    pub budget: MemoryBudget,
}

impl RunContext {
    /// An inert context: uncancellable, unlimited.
    pub fn new() -> Self {
        Self::default()
    }

    /// Replace the cancel token (lets several operator calls share one).
    pub fn with_cancel(mut self, cancel: CancelToken) -> Self {
        self.cancel = cancel;
        self
    }

    /// Limit the context to `limit` bytes of large-buffer allocations.
    pub fn with_memory_limit(mut self, limit: u64) -> Self {
        self.budget = MemoryBudget::bytes(limit);
        self
    }

    /// A clone of the cancel token (hand this to whoever may cancel).
    pub fn cancel_token(&self) -> CancelToken {
        self.cancel.clone()
    }

    /// Whether cancellation was requested.
    #[inline]
    pub fn is_cancelled(&self) -> bool {
        self.cancel.is_cancelled()
    }

    /// `Err(EngineError::Cancelled)` once cancellation was requested.
    pub fn check_cancelled(&self) -> Result<(), EngineError> {
        if self.is_cancelled() {
            Err(EngineError::Cancelled)
        } else {
            Ok(())
        }
    }

    /// Reserve `bytes` against the budget, first honouring cancellation.
    pub fn reserve(&self, bytes: u64) -> Result<(), EngineError> {
        self.check_cancelled()?;
        self.budget.reserve(bytes)
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;

    #[test]
    fn default_context_is_inert() {
        let ctx = RunContext::new();
        assert!(!ctx.is_cancelled());
        ctx.check_cancelled().unwrap();
        ctx.reserve(u64::MAX).unwrap();
        assert_eq!(ctx.budget.used(), 0);
        assert_eq!(ctx.budget.limit(), None);
    }

    #[test]
    fn cancel_is_shared_and_idempotent() {
        let ctx = RunContext::new();
        let token = ctx.cancel_token();
        token.cancel();
        token.cancel();
        assert!(ctx.is_cancelled());
        assert_eq!(ctx.check_cancelled(), Err(EngineError::Cancelled));
        assert_eq!(ctx.reserve(1), Err(EngineError::Cancelled));
    }

    #[test]
    fn budget_reserves_and_releases() {
        let b = MemoryBudget::bytes(100);
        b.reserve(60).unwrap();
        b.reserve(40).unwrap();
        let err = b.reserve(1).unwrap_err();
        assert_eq!(
            err,
            EngineError::BudgetExceeded {
                requested: 1,
                limit: 100,
                used: 100
            }
        );
        b.release(50);
        b.reserve(30).unwrap();
        assert_eq!(b.used(), 80);
    }

    #[test]
    fn failed_reserve_leaves_accounting_untouched() {
        let b = MemoryBudget::bytes(10);
        assert!(b.reserve(11).is_err());
        assert_eq!(b.used(), 0);
        b.reserve(10).unwrap();
        assert_eq!(b.used(), 10);
    }

    #[test]
    fn reservation_releases_on_drop() {
        let b = MemoryBudget::bytes(10);
        let mut held = b.hold(4).unwrap();
        held.grow(6).unwrap();
        assert!(held.grow(1).is_err());
        assert!(b.hold(1).is_err());
        assert_eq!(b.used(), 10);
        drop(held);
        assert_eq!(b.used(), 0);
    }
}
