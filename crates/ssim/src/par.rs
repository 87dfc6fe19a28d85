//! A minimal deterministic thread pool for the emit stage of a round.
//!
//! [`ThreadPool`] is a *persistent broadcast pool*: `threads - 1` worker
//! threads are spawned once (the calling thread acts as the last worker) and
//! then reused for every round, parked on a condvar between calls. A
//! [`ThreadPool::broadcast`] wakes every worker, hands each one the same
//! borrowed closure, and blocks until all of them have finished — so the
//! closure's borrows provably outlive every use, and a steady-state round
//! performs **zero heap allocation and zero thread spawns** (the job is
//! passed as a two-word raw pointer through pre-existing shared state, not a
//! boxed task queue). Every broadcast on a pool with workers is one condvar
//! wake-up and one completion wait; [`ThreadPool::syncs`] counts them.
//!
//! # The executor
//!
//! [`for_each_selected_chunks_mut2`] runs a *selection* of slots in
//! density-aware, work-stealing chunks: the caller supplies chunk bounds
//! over the selection (sized by activation count, see
//! [`crate::sched::ChunkPlan`]) and one mutable *sink* per chunk; idle
//! threads steal whole chunks via an atomic claim counter. Because every
//! output lands in the sink of the chunk that produced it — not the sink of
//! the thread that happened to run it — results are independent of the
//! steal schedule, and the caller recovers canonical order by draining
//! sinks in chunk order. That drain (delivery, edge application, the
//! dirty-set marks) stays on the driving thread: it is where order is
//! observable.
//!
//! Chunks are disjoint by construction, which is the whole safety argument
//! for the small amount of `unsafe` below — see the `SAFETY` comments.
//! Determinism is by design: threads only ever write to slots and sinks of
//! chunks they exclusively claimed, so the round's outcome is independent
//! of scheduling.
//!
//! Panics raised inside a broadcast (e.g. a strict-mode model violation on a
//! worker's chunk) are caught, carried back, and re-raised on the calling
//! thread with their original payload, so `#[should_panic(expected = ...)]`
//! tests behave identically in sequential and parallel mode. The chunked
//! executor surfaces the panic of the **lowest** panicking chunk — the same
//! panic a sequential walk of the selection raises — regardless of which
//! thread ran it.
#![allow(unsafe_code)] // confined to this module; see SAFETY comments

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// Type-erased pointer to the borrowed broadcast job. Stored in the shared
/// state only for the duration of one `broadcast` call.
#[derive(Clone, Copy)]
struct Job(*const (dyn Fn(usize) + Sync));

// SAFETY: the pointee is `Sync` (so `&`-calls from any thread are fine) and
// `broadcast` does not return until every worker has finished calling it,
// so the pointer never outlives the borrow it was created from.
unsafe impl Send for Job {}

/// Shared pool state, all of it under one mutex.
struct State {
    /// Monotonic broadcast counter; a bump is the "new job" signal, and
    /// its value is the pool's [`ThreadPool::syncs`].
    generation: u64,
    /// The current job (only `Some` while a broadcast is in flight).
    job: Option<Job>,
    /// Workers still running the current generation.
    active: usize,
    /// Lowest-indexed worker panic of the current generation, carried to
    /// the caller. Keeping the *lowest thread index* (not the first in
    /// wall-clock) makes the surfaced panic deterministic: chunks are
    /// ascending slot ranges and each chunk runs its slots in order, so the
    /// lowest panicking thread holds the panic of the globally lowest
    /// violating slot — exactly the panic a sequential run raises.
    panic: Option<(usize, Box<dyn std::any::Any + Send>)>,
    /// Tells workers to exit (set on drop).
    shutdown: bool,
}

struct Shared {
    state: Mutex<State>,
    /// Workers wait here for a generation bump.
    work_cv: Condvar,
    /// The broadcasting thread waits here for `active` to reach zero.
    done_cv: Condvar,
}

/// Persistent worker pool; see the module docs for the execution model.
///
/// Created once per [`crate::Runtime`] (when
/// [`crate::Config::effective_threads`] is ≥ 2) and reused for every round.
pub struct ThreadPool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
    threads: usize,
}

impl std::fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadPool")
            .field("threads", &self.threads)
            .finish()
    }
}

impl ThreadPool {
    /// Build a pool that runs broadcasts on `threads` threads total: the
    /// broadcasting thread itself plus `threads - 1` spawned workers.
    ///
    /// # Panics
    /// Panics if `threads == 0`.
    pub fn new(threads: usize) -> Self {
        assert!(threads > 0, "ThreadPool::new: need at least one thread");
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                generation: 0,
                job: None,
                active: 0,
                panic: None,
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
        });
        let handles = (0..threads - 1)
            .map(|index| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("ssim-par-{index}"))
                    .spawn(move || worker_loop(&shared, index))
                    .expect("spawn pool worker")
            })
            .collect();
        Self {
            shared,
            handles,
            threads,
        }
    }

    /// Total number of threads that participate in a broadcast (including
    /// the calling thread).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Broadcasts that woke the workers since construction — every
    /// broadcast, unless the pool has none (a one-thread pool runs inline).
    /// Deterministic: a function of the call sequence, not of timing.
    pub fn syncs(&self) -> u64 {
        self.shared.state.lock().expect("pool lock").generation
    }

    /// Run `f(thread_index)` once for every index in `0..self.threads()`,
    /// concurrently, and return only when all calls have finished. The
    /// calling thread executes the last index itself. If any calls panic,
    /// the payload of the **lowest-indexed** panicking thread is re-raised
    /// here after every thread is done — a deterministic choice that, for
    /// workloads where thread `t` owns the `t`-th ascending range, surfaces
    /// the same panic a sequential run of `f(0); f(1); …` would.
    pub fn broadcast(&self, f: &(dyn Fn(usize) + Sync)) {
        let workers = self.threads - 1;
        if workers > 0 {
            // SAFETY: pure lifetime erasure of a fat reference so it can sit
            // in the shared state. `broadcast` blocks below until every
            // worker has finished its call, so no use outlives the borrow.
            let erased: &'static (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(f) };
            let mut st = self.shared.state.lock().expect("pool lock");
            st.job = Some(Job(erased as *const _));
            st.generation += 1;
            st.active = workers;
            drop(st);
            self.shared.work_cv.notify_all();
        }

        // The caller is worker `threads - 1`; catch its panic so we still
        // wait for the others (their borrows of `f` must end first).
        let mine = catch_unwind(AssertUnwindSafe(|| f(self.threads - 1)));

        let worker_panic = if workers > 0 {
            let st = self.shared.state.lock().expect("pool lock");
            let mut st = self
                .shared
                .done_cv
                .wait_while(st, |st| st.active > 0)
                .expect("pool lock");
            st.job = None;
            st.panic.take()
        } else {
            None
        };

        // The caller is the highest thread index, so any worker panic wins.
        if let Some((_, payload)) = worker_panic {
            resume_unwind(payload);
        }
        if let Err(payload) = mine {
            resume_unwind(payload);
        }
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        self.shared.state.lock().expect("pool lock").shutdown = true;
        self.shared.work_cv.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(shared: &Shared, index: usize) {
    let mut seen = 0u64;
    loop {
        let st = shared.state.lock().expect("pool lock");
        let st = shared
            .work_cv
            .wait_while(st, |st| !st.shutdown && st.generation == seen)
            .expect("pool lock");
        if st.shutdown {
            return;
        }
        seen = st.generation;
        let job = st.job.expect("job set with generation");
        drop(st);
        // SAFETY: `broadcast` keeps the closure borrowed (blocked on
        // `done_cv`) until this worker decrements `active` below, which
        // happens strictly after the call returns.
        let result = catch_unwind(AssertUnwindSafe(|| unsafe { (*job.0)(index) }));
        let mut st = shared.state.lock().expect("pool lock");
        if let Err(payload) = result {
            if st.panic.as_ref().is_none_or(|&(i, _)| index < i) {
                st.panic = Some((index, payload));
            }
        }
        st.active -= 1;
        if st.active == 0 {
            shared.done_cv.notify_one();
        }
    }
}

/// Raw-pointer wrapper that lets disjoint elements of a slice be written
/// from different threads.
struct SendPtr<T>(*mut T);

impl<T> Clone for SendPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SendPtr<T> {}

// SAFETY: every thread derives element pointers for index sets disjoint
// from every other thread's (see `for_each_selected_chunks_mut2`), and
// `T: Send` bounds the element transfer.
unsafe impl<T: Send> Send for SendPtr<T> {}
unsafe impl<T: Send> Sync for SendPtr<T> {}

impl<T> SendPtr<T> {
    /// The `i`-th element pointer. Going through a method (rather than the
    /// `.0` field) makes closures capture the whole `Send + Sync` wrapper,
    /// not the bare raw pointer. Computing it is safe; dereferencing it
    /// needs `i` in bounds and exclusive access to the element.
    fn at(self, i: usize) -> *mut T {
        self.0.wrapping_add(i)
    }
}

fn debug_assert_selection(sel: &[crate::topology::NodeSlot], len: usize) {
    #[cfg(debug_assertions)]
    {
        let mut seen = vec![false; len];
        for s in sel {
            assert!(s.index() < len, "selection index out of bounds");
            assert!(!seen[s.index()], "duplicate slot in selection");
            seen[s.index()] = true;
        }
    }
    #[cfg(not(debug_assertions))]
    let _ = (sel, len);
}

/// Density-aware, work-stealing selection executor: run
/// `f(i, &mut a[i], &mut b[i], &mut sinks[c])` for every slot `i` in `sel`,
/// where `c` is the chunk (from `bounds`) the slot's selection position
/// falls in. `bounds` has one entry per chunk edge (`sinks.len() + 1`
/// monotone values ending at `sel.len()`); the caller sizes chunks by
/// activation count, decoupled from the thread count (see
/// [`crate::sched::ChunkPlan`]). Threads claim chunks from an atomic
/// counter — natural work stealing for skewed per-slot costs.
///
/// Every output lands in the **chunk's** sink, so results are independent
/// of which thread ran which chunk; draining `sinks` in order recovers the
/// exact selection order a sequential run produces. Within a chunk, slots
/// run in selection order.
///
/// # Panics
/// Re-raises the panic of the **lowest** panicking chunk after all threads
/// finish (chunks are ascending selection ranges run in order, so this is
/// the panic a sequential walk raises; the lowest panicking chunk is always
/// executed — a chunk can only go unclaimed if every thread already
/// panicked on a *lower* chunk). Also panics on malformed `bounds` or
/// mismatched slice lengths.
///
/// The caller must guarantee `sel` contains distinct indices below the
/// slice length (debug-asserted), and that `bounds` is monotone.
pub fn for_each_selected_chunks_mut2<A, B, S, F>(
    pool: &ThreadPool,
    sel: &[crate::topology::NodeSlot],
    bounds: &[u32],
    sinks: &mut [S],
    a: &mut [A],
    b: &mut [B],
    f: F,
) where
    A: Send,
    B: Send,
    S: Send,
    F: Fn(usize, &mut A, &mut B, &mut S) + Sync,
{
    let len = a.len();
    assert_eq!(len, b.len(), "chunks_mut2: slice lengths differ");
    assert_eq!(
        sinks.len() + 1,
        bounds.len(),
        "chunks_mut2: need one sink per chunk"
    );
    assert_eq!(
        bounds.last().copied().unwrap_or(0) as usize,
        sel.len(),
        "chunks_mut2: bounds must cover the selection"
    );
    debug_assert!(
        bounds.windows(2).all(|w| w[0] <= w[1]),
        "chunks_mut2: bounds must be monotone"
    );
    debug_assert_selection(sel, len);

    let nchunks = sinks.len();
    let next = AtomicUsize::new(0);
    // Lowest-chunk panic of this call (chunk index, payload); mirrors the
    // pool's lowest-thread rule but keyed by chunk, since chunk→thread
    // assignment is the one thing stealing makes nondeterministic.
    let panic_cell: Mutex<Option<(usize, Box<dyn std::any::Any + Send>)>> = Mutex::new(None);
    let (pa, pb, ps) = (
        SendPtr(a.as_mut_ptr()),
        SendPtr(b.as_mut_ptr()),
        SendPtr(sinks.as_mut_ptr()),
    );
    pool.broadcast(&|_| loop {
        let ci = next.fetch_add(1, Ordering::Relaxed);
        if ci >= nchunks {
            break;
        }
        let lo = bounds[ci] as usize;
        let hi = bounds[ci + 1] as usize;
        let result = catch_unwind(AssertUnwindSafe(|| {
            // SAFETY: `ci < nchunks` came from a unique `fetch_add` claim,
            // so this thread holds the only `&mut` to `sinks[ci]`;
            // `broadcast` guarantees the slice outlives the access.
            let sink = unsafe { &mut *ps.at(ci) };
            for s in &sel[lo..hi] {
                let i = s.index();
                // SAFETY: selection indices are distinct and in bounds
                // (caller contract, debug-asserted) and chunks partition
                // the selection, so each `&mut` is unique.
                unsafe { f(i, &mut *pa.at(i), &mut *pb.at(i), sink) }
            }
        }));
        if let Err(payload) = result {
            let mut cell = panic_cell.lock().expect("panic cell");
            if cell.as_ref().is_none_or(|&(c, _)| ci < c) {
                *cell = Some((ci, payload));
            }
            break;
        }
    });
    if let Some((_, payload)) = panic_cell.into_inner().expect("panic cell") {
        resume_unwind(payload);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::NodeSlot;

    #[test]
    fn broadcast_runs_every_index_once() {
        let pool = ThreadPool::new(4);
        let hits: Vec<Mutex<u32>> = (0..4).map(|_| Mutex::new(0)).collect();
        for _ in 0..100 {
            pool.broadcast(&|t| *hits[t].lock().unwrap() += 1);
        }
        for h in &hits {
            assert_eq!(*h.lock().unwrap(), 100);
        }
    }

    #[test]
    fn single_thread_pool_runs_inline() {
        let pool = ThreadPool::new(1);
        let mut seen = Mutex::new(false);
        pool.broadcast(&|t| {
            assert_eq!(t, 0);
            *seen.lock().unwrap() = true;
        });
        assert!(*seen.get_mut().unwrap());
    }

    #[test]
    fn pool_survives_and_panic_payload_is_preserved() {
        let pool = ThreadPool::new(3);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            pool.broadcast(&|t| {
                if t == 0 {
                    panic!("round 7: node 3 sent to non-neighbor 9");
                }
            });
        }));
        let payload = caught.expect_err("broadcast must propagate the panic");
        let msg = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied())
            .unwrap_or("");
        assert!(msg.contains("non-neighbor"), "original payload kept: {msg}");
        // The pool is still usable after a panicking broadcast.
        let ok = Mutex::new(0u32);
        pool.broadcast(&|_| *ok.lock().unwrap() += 1);
        assert_eq!(*ok.lock().unwrap(), 3);
    }

    /// When several threads panic in one broadcast, the surfaced payload is
    /// the lowest-indexed thread's — deterministic, and (for ascending
    /// chunks) the same panic sequential execution raises.
    #[test]
    fn lowest_indexed_panic_wins() {
        let pool = ThreadPool::new(4);
        for _ in 0..50 {
            let caught = catch_unwind(AssertUnwindSafe(|| {
                pool.broadcast(&|t| panic!("thread {t} violated"));
            }));
            let payload = caught.expect_err("must panic");
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_default();
            assert_eq!(msg, "thread 0 violated");
        }
    }

    /// `syncs` is deterministic: one per broadcast on a pool with workers,
    /// panicking broadcasts included, none on a one-thread pool.
    #[test]
    fn syncs_count_every_broadcast_that_wakes_workers() {
        let work = Mutex::new(0u32);
        let pool = ThreadPool::new(2);
        for _ in 0..16 {
            pool.broadcast(&|_| *work.lock().unwrap() += 1);
        }
        let _ = catch_unwind(AssertUnwindSafe(|| pool.broadcast(&|_| panic!("boom"))));
        assert_eq!(pool.syncs(), 17);
        assert_eq!(*work.lock().unwrap(), 16 * 2);
        let inline = ThreadPool::new(1);
        inline.broadcast(&|_| *work.lock().unwrap() += 1);
        assert_eq!(inline.syncs(), 0);
    }

    /// The chunked executor writes each slot's output into its chunk's
    /// sink; draining sinks in chunk order recovers selection order exactly,
    /// for every thread count (including with stealing in play).
    #[test]
    fn chunked_executor_merges_in_selection_order() {
        let sel: Vec<NodeSlot> = [5usize, 2, 9, 0, 7, 4, 11, 1, 14, 3]
            .iter()
            .map(|&i| NodeSlot::new(i))
            .collect();
        for threads in 1..=4 {
            let pool = ThreadPool::new(threads);
            for nchunks in [1usize, 2, 3, 5, 10] {
                let bounds: Vec<u32> = (0..=nchunks)
                    .map(|c| (c * sel.len() / nchunks) as u32)
                    .collect();
                let mut sinks: Vec<Vec<u32>> = vec![Vec::new(); nchunks];
                let mut a = vec![0u32; 16];
                let mut b = vec![0u8; 16];
                for_each_selected_chunks_mut2(
                    &pool,
                    &sel,
                    &bounds,
                    &mut sinks,
                    &mut a,
                    &mut b,
                    |i, x, _, sink| {
                        *x += 1;
                        sink.push(i as u32);
                    },
                );
                let merged: Vec<u32> = sinks.into_iter().flatten().collect();
                let want: Vec<u32> = sel.iter().map(|s| s.index() as u32).collect();
                assert_eq!(merged, want, "threads {threads}, chunks {nchunks}");
                for s in &sel {
                    assert_eq!(a[s.index()], 1);
                }
            }
        }
    }

    /// Lowest-chunk panic wins in the stealing executor, repeatably — the
    /// same panic a sequential walk of the selection raises.
    #[test]
    fn chunked_executor_lowest_chunk_panic_wins() {
        let sel: Vec<NodeSlot> = (0..12).map(NodeSlot::new).collect();
        let bounds: Vec<u32> = (0..=6).map(|c| (c * 2) as u32).collect();
        let pool = ThreadPool::new(4);
        for _ in 0..20 {
            let mut sinks: Vec<Vec<u32>> = vec![Vec::new(); 6];
            let mut a = vec![0u32; 12];
            let mut b = vec![0u8; 12];
            let caught = catch_unwind(AssertUnwindSafe(|| {
                for_each_selected_chunks_mut2(
                    &pool,
                    &sel,
                    &bounds,
                    &mut sinks,
                    &mut a,
                    &mut b,
                    |i, _, _, _| {
                        if i >= 5 {
                            panic!("slot {i} violated");
                        }
                    },
                );
            }));
            let payload = caught.expect_err("must panic");
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_default();
            // Slot 5 lives in chunk 2 (slots 4–5), the lowest panicking
            // chunk; its first panicking slot is 5.
            assert_eq!(msg, "slot 5 violated");
        }
    }
}
