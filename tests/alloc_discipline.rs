//! Steady-state allocation discipline of the GAN trainer.
//!
//! The workspace-pooled trainer promises that after a one-step warmup —
//! which populates the activation caches, the Adam moment tensors, and
//! every workspace pool — a training step performs **zero heap
//! allocations**. This harness proves it with a counting `GlobalAlloc`
//! wrapper around the system allocator: the counter is armed after the
//! warmup step and every subsequent step must leave it at zero.
//!
//! The guarantee holds at one thread — the configuration the
//! determinism CI job pins — and, for the batched trainer, at eight
//! worker threads: the persistent worker pool dispatches regions without
//! allocating, and every per-worker scratch buffer (the thread-local
//! workspaces the batched backward draws its per-sample partials from,
//! and the packed-GEMM pack buffers) is warmed by the first step.
//!
//! The counter sees only the threads that run the step — the test thread
//! and the pool workers it dispatches to — so the test harness's own
//! bookkeeping on other threads cannot leak into a window, and a mutex
//! keeps the two tests' windows from overlapping.

use lergan::gan::topology::parse_network;
use lergan::gan::train::{build_trainable_with, Gan, UpdateRule};
use lergan::tensor::{parallel, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Counts every allocation and reallocation while armed; frees are not
/// counted (returning pooled buffers is allowed to be a no-op, and drops
/// of warmup-era buffers are not steady-state traffic).
struct CountingAlloc;

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Whether this thread runs the step under test.
    static TRACKED: Cell<bool> = const { Cell::new(false) };
}

/// Counts an allocation while armed, on a thread that runs the step.
fn count() {
    if ARMED.load(Ordering::Relaxed) && TRACKED.try_with(Cell::get).unwrap_or(false) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Serialises the tests: they share the one global counter, so two armed
/// windows running at once would count each other's allocations.
static COUNTER: Mutex<()> = Mutex::new(());

/// Exclusive use of the counter, with the calling thread and the first
/// `threads − 1` pool workers (the ones every region of at most `threads`
/// dispatches to) tracked. Dropping it untracks the calling thread before
/// the next test may arm.
struct Window {
    _lock: MutexGuard<'static, ()>,
}

impl Window {
    fn open(threads: usize) -> Self {
        let lock = COUNTER.lock().unwrap_or_else(|e| e.into_inner());
        TRACKED.with(|t| t.set(true));
        parallel::with_threads(threads, || {
            parallel::for_each_range(threads, 1, |_| TRACKED.with(|t| t.set(true)));
        });
        Window { _lock: lock }
    }
}

impl Drop for Window {
    fn drop(&mut self) {
        TRACKED.with(|t| t.set(false));
    }
}

#[test]
fn steady_state_train_step_performs_zero_heap_allocations() {
    let _window = Window::open(1);
    parallel::with_threads(1, || {
        // The same DCGAN-style topology the benchmark suite times.
        let mut rng = StdRng::seed_from_u64(1);
        let gen_spec = parse_network("g", "8f-(8t-4t)(3k2s)-t1", 2, 16).unwrap();
        let disc_spec = parse_network("d", "(1c-8c)(3k2s)-f1", 2, 16).unwrap();
        let g = build_trainable_with(&gen_spec, true, false, &mut rng);
        let d = build_trainable_with(&disc_spec, false, false, &mut rng);
        let mut gan = Gan::new(g, d, 8, 0.01, 2).with_optimizer(UpdateRule::dcgan_adam(0.01));
        let reals: Vec<Tensor> = (0..2).map(|_| Tensor::filled(&[1, 16, 16], 0.5)).collect();

        // One warmup step: fills the workspace pools, the activation
        // caches, the Adam moments, and the thread-local pack buffers.
        let _ = gan.train_step(&reals);

        ALLOCATIONS.store(0, Ordering::SeqCst);
        ARMED.store(true, Ordering::SeqCst);
        for _ in 0..5 {
            let stats = gan.train_step(&reals);
            assert!(stats.d_loss.is_finite() && stats.g_loss.is_finite());
        }
        ARMED.store(false, Ordering::SeqCst);

        assert_eq!(
            ALLOCATIONS.load(Ordering::SeqCst),
            0,
            "steady-state train steps must not touch the heap"
        );
    });
}

#[test]
fn steady_state_batched_step_is_alloc_free_at_eight_threads() {
    // The batched train step must hold the same zero-allocation promise
    // with the worker pool engaged: per-sample gradient partials live in
    // per-worker thread workspaces, and the fixed reduction tree runs in
    // buffers the warmup step already pooled. The dilated layer holds the
    // D-CONV lowering's cached class plans to the same promise.
    let _window = Window::open(8);
    parallel::with_threads(8, || {
        let mut rng = StdRng::seed_from_u64(3);
        let gen_spec = parse_network("g", "8f-(8t-4t)(3k2s)-t1", 2, 16).unwrap();
        let disc_spec = parse_network("d", "(1c-8c)(3k2s)-8c3k1s2d-f1", 2, 16).unwrap();
        let g = build_trainable_with(&gen_spec, true, false, &mut rng);
        let d = build_trainable_with(&disc_spec, false, false, &mut rng);
        let mut gan = Gan::new(g, d, 8, 0.01, 4).with_optimizer(UpdateRule::dcgan_adam(0.01));
        let reals = lergan::gan::train::pack_batch(
            &(0..8).map(|_| Tensor::filled(&[1, 16, 16], 0.5)).collect::<Vec<_>>(),
        )
        .unwrap();

        // Two warmup steps: the first fills pools and caches on whichever
        // workers take each region; the second catches any buffer whose
        // steady-state size differs from its first-step size.
        let _ = gan.train_step_batched(&reals).unwrap();
        let _ = gan.train_step_batched(&reals).unwrap();

        ALLOCATIONS.store(0, Ordering::SeqCst);
        ARMED.store(true, Ordering::SeqCst);
        for _ in 0..5 {
            let stats = gan.train_step_batched(&reals).unwrap();
            assert!(stats.d_loss.is_finite() && stats.g_loss.is_finite());
        }
        ARMED.store(false, Ordering::SeqCst);

        assert_eq!(
            ALLOCATIONS.load(Ordering::SeqCst),
            0,
            "steady-state batched train steps must not touch the heap at 8 threads"
        );
    });
}
