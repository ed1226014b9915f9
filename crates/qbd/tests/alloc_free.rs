//! Proof that the G-matrix iteration loops perform **zero heap
//! allocation after setup**, via a counting global allocator.
//!
//! Method: run each algorithm with `tol = 0` (so it never converges and
//! performs exactly `max_iter` iterations before reporting
//! `NoConvergence`) and compare the total allocation counts for small and
//! large `max_iter`. Setup and the error path allocate a fixed number of
//! times; if the loop body allocated anything, the counts would differ by
//! a multiple of the iteration gap.
//!
//! This file contains a single `#[test]` on purpose: the libtest harness
//! runs tests of one binary concurrently, which would make a process-wide
//! allocation counter meaningless.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use slb_linalg::{Budget, Matrix};
use slb_qbd::{
    cyclic_reduction, functional_iteration, logarithmic_reduction, u_based_iteration, QbdBlocks,
    QbdError,
};

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::SeqCst);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::SeqCst);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn allocations_during<F: FnOnce()>(f: F) -> u64 {
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    f();
    ALLOCATIONS.load(Ordering::SeqCst) - before
}

fn blocks() -> QbdBlocks {
    let (l0, l1, mu, r) = (0.6, 1.1, 1.0, 0.4);
    let a0 = Matrix::from_rows(&[&[l0, 0.0], &[0.0, l1]]).unwrap();
    let a2 = Matrix::from_rows(&[&[mu, 0.0], &[0.0, mu]]).unwrap();
    let a1 = Matrix::from_rows(&[&[-(l0 + mu + r), r], &[r, -(l1 + mu + r)]]).unwrap();
    let r00 = Matrix::from_rows(&[&[-(l0 + r), r], &[r, -(l1 + r)]]).unwrap();
    QbdBlocks::new(r00, a0.clone(), a2.clone(), a0, a1, a2).unwrap()
}

#[test]
fn iteration_loops_allocate_nothing_after_setup() {
    let b = blocks();
    type Algo = fn(&QbdBlocks, f64, usize) -> Result<slb_qbd::GComputation, QbdError>;
    let algos: [(&str, Algo); 4] = [
        ("logarithmic_reduction", logarithmic_reduction),
        ("cyclic_reduction", cyclic_reduction),
        ("u_based_iteration", u_based_iteration),
        ("functional_iteration", |b, tol, max_iter| {
            functional_iteration(b, tol, max_iter, &Budget::unlimited())
        }),
    ];
    for (name, algo) in algos {
        // Warm up allocator-internal lazy state.
        let _ = algo(&b, 0.0, 2);
        let few = allocations_during(|| {
            assert!(matches!(
                algo(&b, 0.0, 3),
                Err(QbdError::NoConvergence { iterations: 3, .. })
            ));
        });
        // 20 forced iterations: well past convergence of the quadratic
        // methods, but before their iterates decay far enough to overflow
        // the diverged recurrences.
        let many = allocations_during(|| {
            assert!(matches!(
                algo(&b, 0.0, 20),
                Err(QbdError::NoConvergence { iterations: 20, .. })
            ));
        });
        assert_eq!(
            few, many,
            "{name}: allocation count grew with the iteration count \
             ({few} allocations over 3 iterations vs {many} over 20) — \
             the loop body is not allocation-free"
        );
        // Sanity: setup really is the only allocating phase, and it is
        // bounded (workspace + LU + result bookkeeping).
        assert!(few > 0, "{name}: counter not wired up");
        assert!(
            few < 64,
            "{name}: suspiciously many setup allocations ({few})"
        );
    }
}
