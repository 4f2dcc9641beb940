//! [`BudgetPool`]: a service-level admission pool that per-request
//! [`Budgets`](crate::Budgets) are carved out of.
//!
//! A per-run [`Guard`](crate::Guard) protects one diff from itself; it
//! cannot stop a *service* from admitting fifty well-behaved requests
//! whose combined working set exceeds the host. The pool closes that gap
//! with two global ceilings — concurrent requests and total estimated
//! bytes in flight — enforced by lock-free reservation, so a panicking
//! request can never poison admission state. A successful admission
//! returns an RAII [`PoolGrant`] that releases its reservation on drop,
//! panic or not.
//!
//! ```
//! use hierdiff_guard::{BudgetPool, PoolExhausted, NODE_MEM_ESTIMATE};
//!
//! let pool = BudgetPool::new(10 * NODE_MEM_ESTIMATE, 8);
//! let grant = pool.try_admit(10).unwrap();
//! assert!(matches!(
//!     pool.try_admit(1),
//!     Err(PoolExhausted::Memory { .. })
//! ));
//! drop(grant);
//! assert!(pool.try_admit(1).is_ok());
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use crate::NODE_MEM_ESTIMATE;

/// Why [`BudgetPool::try_admit`] rejected a request. Rejection is
/// backpressure, not failure: the caller may shed, queue, or retry later.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PoolExhausted {
    /// The concurrent-request ceiling is reached.
    Concurrency {
        /// Requests currently admitted.
        active: usize,
        /// The ceiling.
        max: usize,
    },
    /// Admitting the request's memory estimate would overrun the pool.
    Memory {
        /// Bytes the request would reserve.
        requested: usize,
        /// Bytes currently reserved across admitted requests.
        in_use: usize,
        /// The pool's byte capacity.
        capacity: usize,
    },
}

impl std::fmt::Display for PoolExhausted {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PoolExhausted::Concurrency { active, max } => {
                write!(f, "admission pool full: {active}/{max} requests in flight")
            }
            PoolExhausted::Memory {
                requested,
                in_use,
                capacity,
            } => write!(
                f,
                "admission pool out of memory budget: \
                 {requested} B requested, {in_use}/{capacity} B reserved"
            ),
        }
    }
}

impl std::error::Error for PoolExhausted {}

#[derive(Debug)]
struct PoolInner {
    capacity_bytes: usize,
    max_concurrent: usize,
    in_use_bytes: AtomicUsize,
    active: AtomicUsize,
}

/// A shared admission pool. Cloning shares the pool (it is an `Arc`
/// handle); all admission state is atomic, so the pool has no lock to
/// poison.
#[derive(Clone, Debug)]
pub struct BudgetPool {
    inner: Arc<PoolInner>,
}

impl BudgetPool {
    /// A pool admitting at most `max_concurrent` requests and at most
    /// `capacity_bytes` of estimated memory at once.
    pub fn new(capacity_bytes: usize, max_concurrent: usize) -> BudgetPool {
        BudgetPool {
            inner: Arc::new(PoolInner {
                capacity_bytes,
                max_concurrent: max_concurrent.max(1),
                in_use_bytes: AtomicUsize::new(0),
                active: AtomicUsize::new(0),
            }),
        }
    }

    /// Tries to admit a request over `total_nodes` input nodes, reserving
    /// `total_nodes × NODE_MEM_ESTIMATE` bytes (the same estimate
    /// [`Guard::admit`](crate::Guard::admit) uses per run). On success the
    /// returned grant holds the reservation until dropped.
    pub fn try_admit(&self, total_nodes: usize) -> Result<PoolGrant, PoolExhausted> {
        let bytes = total_nodes.saturating_mul(NODE_MEM_ESTIMATE);
        // Reserve a concurrency slot first; roll it back if the byte
        // reservation fails. Both reservations are CAS loops so two
        // racing admissions can never jointly overshoot a ceiling.
        if self
            .inner
            .active
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |active| {
                (active < self.inner.max_concurrent).then_some(active + 1)
            })
            .is_err()
        {
            return Err(PoolExhausted::Concurrency {
                active: self.inner.active.load(Ordering::Acquire),
                max: self.inner.max_concurrent,
            });
        }
        if self
            .inner
            .in_use_bytes
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |in_use| {
                (in_use.saturating_add(bytes) <= self.inner.capacity_bytes)
                    .then_some(in_use + bytes)
            })
            .is_err()
        {
            self.inner.active.fetch_sub(1, Ordering::AcqRel);
            return Err(PoolExhausted::Memory {
                requested: bytes,
                in_use: self.inner.in_use_bytes.load(Ordering::Acquire),
                capacity: self.inner.capacity_bytes,
            });
        }
        Ok(PoolGrant {
            inner: Arc::clone(&self.inner),
            bytes,
        })
    }

    /// Bytes currently reserved by admitted requests.
    pub fn in_use_bytes(&self) -> usize {
        self.inner.in_use_bytes.load(Ordering::Acquire)
    }

    /// Requests currently admitted.
    pub fn active(&self) -> usize {
        self.inner.active.load(Ordering::Acquire)
    }

    /// The pool's byte capacity.
    pub fn capacity_bytes(&self) -> usize {
        self.inner.capacity_bytes
    }
}

/// An admitted request's reservation: one concurrency slot plus its
/// memory estimate. Released on drop — including an unwinding drop, so a
/// panicking request frees its slot.
#[derive(Debug)]
pub struct PoolGrant {
    inner: Arc<PoolInner>,
    bytes: usize,
}

impl Drop for PoolGrant {
    fn drop(&mut self) {
        self.inner
            .in_use_bytes
            .fetch_sub(self.bytes, Ordering::AcqRel);
        self.inner.active.fetch_sub(1, Ordering::AcqRel);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grants_release_on_drop() {
        let pool = BudgetPool::new(100 * NODE_MEM_ESTIMATE, 2);
        let g1 = pool.try_admit(40).expect("fits");
        assert_eq!(pool.active(), 1);
        assert_eq!(pool.in_use_bytes(), 40 * NODE_MEM_ESTIMATE);
        drop(g1);
        assert_eq!(pool.active(), 0);
        assert_eq!(pool.in_use_bytes(), 0);
    }

    #[test]
    fn concurrency_ceiling_rejects_typed() {
        let pool = BudgetPool::new(usize::MAX, 2);
        let _g1 = pool.try_admit(1).expect("slot 1");
        let _g2 = pool.try_admit(1).expect("slot 2");
        match pool.try_admit(1) {
            Err(PoolExhausted::Concurrency { active, max }) => {
                assert_eq!((active, max), (2, 2));
            }
            other => panic!("expected concurrency rejection, got {other:?}"),
        }
    }

    #[test]
    fn memory_ceiling_rejects_and_rolls_back_slot() {
        let pool = BudgetPool::new(10 * NODE_MEM_ESTIMATE, 8);
        let _g = pool.try_admit(8).expect("fits");
        match pool.try_admit(3) {
            Err(PoolExhausted::Memory {
                requested,
                in_use,
                capacity,
            }) => {
                assert_eq!(requested, 3 * NODE_MEM_ESTIMATE);
                assert_eq!(in_use, 8 * NODE_MEM_ESTIMATE);
                assert_eq!(capacity, 10 * NODE_MEM_ESTIMATE);
            }
            other => panic!("expected memory rejection, got {other:?}"),
        }
        // The failed admission must not leak its concurrency slot.
        assert_eq!(pool.active(), 1);
        let _g2 = pool.try_admit(2).expect("slot rolled back, fits again");
    }

    #[test]
    fn grant_released_during_unwind() {
        let pool = BudgetPool::new(usize::MAX, 1);
        let p2 = pool.clone();
        let _ = std::panic::catch_unwind(move || {
            let _g = p2.try_admit(5).expect("slot");
            panic!("request blew up");
        });
        assert_eq!(pool.active(), 0, "unwind must release the grant");
        assert_eq!(pool.in_use_bytes(), 0);
    }

    #[test]
    fn concurrent_admissions_never_overshoot() {
        let pool = BudgetPool::new(64 * NODE_MEM_ESTIMATE, 16);
        let admitted: Vec<_> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..32)
                .map(|_| {
                    let pool = pool.clone();
                    s.spawn(move || pool.try_admit(8).ok())
                })
                .collect();
            handles.into_iter().filter_map(|h| h.join().ok()).collect()
        });
        let granted = admitted.iter().flatten().count();
        assert!(
            granted <= 8,
            "byte ceiling allows at most 8×8 nodes, got {granted}"
        );
        assert!(pool.in_use_bytes() <= pool.capacity_bytes());
    }

    #[test]
    fn rejection_displays() {
        let e = PoolExhausted::Concurrency { active: 2, max: 2 };
        assert_eq!(e.to_string(), "admission pool full: 2/2 requests in flight");
    }
}
