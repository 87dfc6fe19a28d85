//! A minimal deterministic thread pool for round execution.
//!
//! [`ThreadPool`] is a *persistent broadcast pool*: `threads - 1` worker
//! threads are spawned once (the calling thread acts as the last worker) and
//! then reused for every round, parked on a condvar between calls. A
//! [`ThreadPool::broadcast`] wakes every worker, hands each one the same
//! borrowed closure, and blocks until all of them have finished — so the
//! closure's borrows provably outlive every use, and a steady-state round
//! performs **zero heap allocation and zero thread spawns** (the job is
//! passed as a two-word raw pointer through pre-existing shared state, not a
//! boxed task queue).
//!
//! # Hot windows (batched generations)
//!
//! The condvar park/notify handshake costs microseconds — more than an
//! entire cheap round. A [`HotWindow`] (from [`ThreadPool::hot_window`])
//! switches the pool into *spin mode* for its lifetime: workers that finish
//! a generation spin-then-yield on an atomic generation counter instead of
//! parking, and the driver does the same while waiting for completion, so a
//! burst of K broadcasts pays the condvar synchronization once instead of K
//! times. Dropping the guard returns every thread to the condvar. The
//! [`ThreadPool::counters`] accounting is deterministic by construction:
//! `syncs` counts cold broadcasts plus the first broadcast of each hot
//! window (the generations that logically require a wakeup), not actual
//! condvar traffic, so committed `syncs/round` benchmark cells reproduce
//! exactly on any machine.
//!
//! # Executors
//!
//! [`for_each_selected_chunks_mut2`] runs a *selection* of slots in
//! density-aware, work-stealing chunks: the caller supplies chunk bounds
//! over the selection (sized by activation count, see
//! [`crate::sched::ChunkPlan`]) and one mutable *sink* per chunk; idle
//! threads steal whole chunks via an atomic claim counter. Because every
//! output lands in the sink of the chunk that produced it — not the sink of
//! the thread that happened to run it — results are independent of the
//! steal schedule, and the caller recovers canonical order by draining
//! sinks in chunk order. [`scatter_sharded`] is the deterministic *apply*
//! side: it moves items out of per-chunk lists into per-destination lists,
//! each destination owned by exactly one thread, preserving for every
//! destination the canonical (chunk-major, then in-chunk) order a
//! sequential drain would produce.
//!
//! Chunks and shards are disjoint by construction, which is the whole
//! safety argument for the small amount of `unsafe` below — see the
//! `SAFETY` comments. Determinism is by design: threads only ever write to
//! chunks/shards they exclusively claimed, so the round's outcome is
//! independent of scheduling; ordering decisions all happen in the caller's
//! canonical-ordered merge.
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
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// Type-erased pointer to the borrowed broadcast job. Stored in the shared
/// state only for the duration of one `broadcast` call.
struct Job(*const (dyn Fn(usize) + Sync));

// SAFETY: the pointee is `Sync` (so `&`-calls from any thread are fine) and
// `broadcast` does not return until every worker has finished calling it,
// so the pointer never outlives the borrow it was created from.
unsafe impl Send for Job {}

/// Shared pool state, updated under one mutex.
struct State {
    /// Monotonic broadcast counter; a bump is the "new job" signal.
    generation: u64,
    /// The current job (only `Some` while a broadcast is in flight).
    job: Option<Job>,
    /// Lowest-indexed worker panic of the current generation, carried to
    /// the caller. Keeping the *lowest thread index* (not the first in
    /// wall-clock) makes the surfaced panic deterministic: chunks are
    /// ascending slot ranges and each chunk runs its slots in order, so the
    /// lowest panicking thread holds the panic of the globally lowest
    /// violating slot — exactly the panic a sequential run raises.
    panic: Option<(usize, Box<dyn std::any::Any + Send>)>,
    /// Tells workers to exit (set on drop).
    shutdown: bool,
    /// Workers currently blocked on `work_cv`. `broadcast` only pays the
    /// `notify_all` syscall when this is non-zero (spinning workers in a
    /// hot window pick the generation bump up from `agen` instead).
    parked: usize,
    /// Whether the broadcasting thread is blocked on `done_cv`; the last
    /// finishing worker only notifies when it is.
    driver_parked: bool,
}

struct Shared {
    state: Mutex<State>,
    /// Workers wait here for a generation bump (cold mode only).
    work_cv: Condvar,
    /// The broadcasting thread waits here for `active` to reach zero.
    done_cv: Condvar,
    /// Hot-window flag: while set, finished workers spin on [`Self::agen`]
    /// instead of parking, and the driver spins on [`Self::active`].
    hot: AtomicBool,
    /// Set by [`ThreadPool::hot_window`], cleared by the first broadcast of
    /// the window — that broadcast still counts as a `sync` (workers were
    /// parked when the window opened).
    hot_fresh: AtomicBool,
    /// Mirror of `State::generation` for lock-free hot-mode polling.
    agen: AtomicU64,
    /// Workers still running the current generation.
    active: AtomicUsize,
    /// Mirror of `State::shutdown` so hot spinners can exit without the
    /// lock.
    shutdown: AtomicBool,
    /// Deterministic count of broadcasts that (logically) had to wake
    /// parked workers: every cold broadcast plus the first of each hot
    /// window. See the module docs.
    syncs: AtomicU64,
    /// Total broadcasts issued.
    generations: AtomicU64,
    /// Chunks executed by a thread other than their home thread in
    /// [`for_each_selected_chunks_mut2`] (timing-dependent; benchmark
    /// documents must treat it as unpinned).
    steals: AtomicU64,
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

/// RAII guard that keeps a [`ThreadPool`] in spin ("hot") mode; see the
/// module docs. Obtained from [`ThreadPool::hot_window`]; dropping it
/// returns the pool to condvar parking. Holds the pool's shared state by
/// `Arc`, so the guard does not borrow the pool — the runtime can hold one
/// across `&mut self` round steps. Windows do not nest: the first guard
/// dropped ends spin mode for all.
#[must_use = "a hot window only batches wakeups while the guard is alive"]
pub struct HotWindow {
    shared: Arc<Shared>,
}

impl std::fmt::Debug for HotWindow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HotWindow").finish_non_exhaustive()
    }
}

impl Drop for HotWindow {
    fn drop(&mut self) {
        // Spinning workers observe the cleared flag and park themselves;
        // nothing to notify.
        self.shared.hot.store(false, Ordering::Release);
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
                panic: None,
                shutdown: false,
                parked: 0,
                driver_parked: false,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            hot: AtomicBool::new(false),
            hot_fresh: AtomicBool::new(false),
            agen: AtomicU64::new(0),
            active: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            syncs: AtomicU64::new(0),
            generations: AtomicU64::new(0),
            steals: AtomicU64::new(0),
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

    /// Enter spin mode for the lifetime of the returned guard, so a burst
    /// of broadcasts pays the condvar wakeup once instead of per call. The
    /// driver should hold a window across a batch of rounds and drop it
    /// before going idle (spinning workers burn a core each).
    pub fn hot_window(&self) -> HotWindow {
        self.shared.hot_fresh.store(true, Ordering::Relaxed);
        self.shared.hot.store(true, Ordering::Release);
        HotWindow {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Lifetime counters `(syncs, generations, steals)`: condvar wakeup
    /// generations (deterministic; see module docs), total broadcasts, and
    /// stolen chunks (timing-dependent).
    pub fn counters(&self) -> (u64, u64, u64) {
        (
            self.shared.syncs.load(Ordering::Relaxed),
            self.shared.generations.load(Ordering::Relaxed),
            self.shared.steals.load(Ordering::Relaxed),
        )
    }

    /// Run `f(thread_index)` once for every index in `0..self.threads()`,
    /// concurrently, and return only when all calls have finished. The
    /// calling thread executes the last index itself. If any calls panic,
    /// the payload of the **lowest-indexed** panicking thread is re-raised
    /// here after every thread is done — a deterministic choice that, for
    /// workloads where thread `t` owns the `t`-th ascending range, surfaces
    /// the same panic a sequential run of `f(0); f(1); …` would.
    pub fn broadcast(&self, f: &(dyn Fn(usize) + Sync)) {
        self.shared.generations.fetch_add(1, Ordering::Relaxed);
        let workers = self.threads - 1;
        let hot = workers > 0 && self.shared.hot.load(Ordering::Relaxed);
        if workers > 0 {
            // Deterministic syncs accounting: cold broadcasts, plus the
            // first broadcast of each hot window, logically require waking
            // parked workers. (Whether a worker had *actually* parked is
            // timing-dependent; this count is not.)
            if !hot || self.shared.hot_fresh.swap(false, Ordering::Relaxed) {
                self.shared.syncs.fetch_add(1, Ordering::Relaxed);
            }
            // SAFETY: pure lifetime erasure of a fat reference so it can sit
            // in the shared state. `broadcast` blocks below until every
            // worker has finished its call, so no use outlives the borrow.
            let erased: &'static (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(f) };
            let mut st = self.shared.state.lock().expect("pool lock");
            st.job = Some(Job(erased as *const _));
            st.generation += 1;
            self.shared.active.store(workers, Ordering::Release);
            self.shared.agen.store(st.generation, Ordering::Release);
            // `parked` is updated under this same mutex, so a worker is
            // either already counted here (gets the notify) or has not yet
            // re-checked `generation` under the lock (sees the bump there,
            // or the `agen` store while spinning). No lost wakeups.
            let need_notify = st.parked > 0;
            drop(st);
            if need_notify {
                self.shared.work_cv.notify_all();
            }
        }

        // The caller is worker `threads - 1`; catch its panic so we still
        // wait for the others (their borrows of `f` must end first).
        let mine = catch_unwind(AssertUnwindSafe(|| f(self.threads - 1)));

        let worker_panic = if workers > 0 {
            if hot {
                let mut spins = 0u32;
                while self.shared.active.load(Ordering::Acquire) > 0 {
                    spins += 1;
                    if spins.is_multiple_of(64) {
                        std::thread::yield_now();
                    } else {
                        std::hint::spin_loop();
                    }
                }
            }
            let mut st = self.shared.state.lock().expect("pool lock");
            // Re-check under the lock: the last worker reads
            // `driver_parked` under this mutex, so it either sees us parked
            // (and notifies) or we see `active == 0` here first.
            while self.shared.active.load(Ordering::Acquire) > 0 {
                st.driver_parked = true;
                st = self.shared.done_cv.wait(st).expect("pool lock");
            }
            st.driver_parked = false;
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
        {
            let mut st = self.shared.state.lock().expect("pool lock");
            st.shutdown = true;
        }
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.work_cv.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(shared: &Shared, index: usize) {
    let mut seen = 0u64;
    loop {
        // Wait for the next generation: spin while the pool is hot, park on
        // the condvar otherwise.
        let job = 'wait: loop {
            let mut spins = 0u32;
            while shared.hot.load(Ordering::Acquire) {
                if shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
                if shared.agen.load(Ordering::Acquire) != seen {
                    break;
                }
                spins += 1;
                if spins.is_multiple_of(64) {
                    std::thread::yield_now();
                } else {
                    std::hint::spin_loop();
                }
            }
            let mut st = shared.state.lock().expect("pool lock");
            loop {
                if st.shutdown {
                    return;
                }
                if st.generation != seen {
                    seen = st.generation;
                    let Job(ptr) = *st.job.as_ref().expect("job set with generation");
                    break 'wait Job(ptr);
                }
                if shared.hot.load(Ordering::Acquire) {
                    // The window (re)opened while we held the lock; go back
                    // to spinning instead of parking.
                    break;
                }
                st.parked += 1;
                st = shared.work_cv.wait(st).expect("pool lock");
                st.parked -= 1;
            }
        };
        // SAFETY: `broadcast` keeps the closure borrowed (blocked on
        // `done_cv` / the `active` spin) until this worker decrements
        // `active` below, which happens strictly after the call returns.
        let result = catch_unwind(AssertUnwindSafe(|| unsafe { (*job.0)(index) }));
        if let Err(payload) = result {
            let mut st = shared.state.lock().expect("pool lock");
            if st.panic.as_ref().is_none_or(|&(i, _)| index < i) {
                st.panic = Some((index, payload));
            }
        }
        if shared.active.fetch_sub(1, Ordering::AcqRel) == 1 {
            // Last one out: wake the driver, but only if it actually
            // parked (it spins in hot mode). `driver_parked` is read under
            // the same mutex `broadcast` sets it under, so this either
            // observes the park or happens before it (and the driver then
            // sees `active == 0` before waiting).
            let driver_parked = shared.state.lock().expect("pool lock").driver_parked;
            if driver_parked {
                shared.done_cv.notify_one();
            }
        }
    }
}

/// Raw-pointer wrapper that lets disjoint chunks of a slice be written from
/// different threads. Crate-visible so [`crate::arena`]'s sharded scatter
/// (same disjointness discipline, page-granular) can reuse it.
pub(crate) struct SendPtr<T>(pub(crate) *mut T);

impl<T> Clone for SendPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SendPtr<T> {}

// SAFETY: `SendPtr` is only used by the executors below, where every thread
// derives element pointers for index sets disjoint from every other
// thread's (or, in `scatter_sharded`, performs only shared reads of
// elements it does not own), and `T: Send` bounds the element transfer.
unsafe impl<T: Send> Send for SendPtr<T> {}
unsafe impl<T: Send> Sync for SendPtr<T> {}

impl<T> SendPtr<T> {
    /// The `i`-th element pointer. Going through a method (rather than the
    /// `.0` field) makes closures capture the whole `Send + Sync` wrapper,
    /// not the bare raw pointer.
    ///
    /// # Safety
    /// `i` must be in bounds of the allocation, and the caller must hold
    /// exclusive access to that element (shared-read access suffices for
    /// `&*` uses).
    pub(crate) unsafe fn at(self, i: usize) -> *mut T {
        // SAFETY: forwarded to the caller's contract.
        unsafe { self.0.add(i) }
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
/// counter — natural work stealing for skewed per-slot costs — and a chunk
/// claimed by a non-home thread (`home = chunk % threads`) bumps the pool's
/// `steals` counter.
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
    let threads = pool.threads();
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
    let steals = &pool.shared.steals;
    pool.broadcast(&|t| loop {
        let ci = next.fetch_add(1, Ordering::Relaxed);
        if ci >= nchunks {
            break;
        }
        if ci % threads != t {
            steals.fetch_add(1, Ordering::Relaxed);
        }
        let lo = bounds[ci] as usize;
        let hi = bounds[ci + 1] as usize;
        let result = catch_unwind(AssertUnwindSafe(|| {
            // SAFETY: `ci` came from a unique `fetch_add` claim, so this
            // thread holds the only `&mut` to `sinks[ci]`; `broadcast`
            // guarantees the slice outlives the access.
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

/// Deterministic parallel scatter: move every item out of `lists` (via
/// `get`, e.g. a field projection) to a per-destination pair
/// `f(item, &mut a[k], &mut b[k])` where `k = key(&item)`. The destination
/// index space `0..a.len()` is partitioned by `cuts` (`threads + 1`
/// monotone bounds, `cuts[0] == 0`, `cuts[threads] == a.len()`): thread `t`
/// owns destinations `[cuts[t], cuts[t+1])`, scans **all** lists in order,
/// and consumes exactly the items whose key falls in its range. Every
/// destination is written by one thread, in list-major order — the same
/// order a sequential drain of the lists produces — so the result is
/// byte-identical to the serial path for any thread interleaving.
///
/// `key` must be a pure function of the item (it is evaluated by every
/// thread) yielding `k < a.len()`. After the call all lists are empty.
///
/// # Panics
/// Panics on malformed `cuts` or mismatched `a`/`b` lengths, and re-raises
/// the panic of the lowest panicking shard after all threads finish. If
/// `f` panics, items not yet consumed are **leaked** (never dropped twice).
#[allow(clippy::too_many_arguments)] // source lists + cut plan + split destinations
pub fn scatter_sharded<L, I, A, B, G, K, F>(
    pool: &ThreadPool,
    lists: &mut [L],
    mut get: G,
    cuts: &[usize],
    a: &mut [A],
    b: &mut [B],
    key: K,
    f: F,
) where
    L: Send,
    I: Send + Sync,
    A: Send,
    B: Send,
    G: FnMut(&mut L) -> &mut Vec<I>,
    K: Fn(&I) -> usize + Sync,
    F: Fn(I, &mut A, &mut B) + Sync,
{
    let n = a.len();
    assert_eq!(n, b.len(), "scatter_sharded: slice lengths differ");
    let threads = pool.threads();
    assert_eq!(
        cuts.len(),
        threads + 1,
        "scatter_sharded: need one cut per thread edge"
    );
    assert!(
        cuts[0] == 0 && cuts[threads] == n && cuts.windows(2).all(|w| w[0] <= w[1]),
        "scatter_sharded: cuts must partition the destination space"
    );
    // Capture each list's buffer while we hold `&mut` to all of them; the
    // pointers stay valid for the whole broadcast (no list is touched
    // through safe code until after it).
    let metas: Vec<(SendPtr<I>, usize)> = lists
        .iter_mut()
        .map(|l| {
            let v = get(l);
            (SendPtr(v.as_mut_ptr()), v.len())
        })
        .collect();
    let panic_cell: Mutex<Option<(usize, Box<dyn std::any::Any + Send>)>> = Mutex::new(None);
    let (pa, pb) = (SendPtr(a.as_mut_ptr()), SendPtr(b.as_mut_ptr()));
    pool.broadcast(&|t| {
        let (lo, hi) = (cuts[t], cuts[t + 1]);
        let result = catch_unwind(AssertUnwindSafe(|| {
            for &(ptr, m) in &metas {
                for idx in 0..m {
                    // SAFETY: shared read — `key` takes `&I`, no thread
                    // writes list elements during the broadcast, and
                    // `ptr::read` below is also only a read of the bytes.
                    let k = key(unsafe { &*ptr.at(idx) });
                    debug_assert!(k < n, "scatter_sharded: key out of range");
                    if k >= lo && k < hi {
                        // SAFETY: `cuts` ranges are disjoint, so exactly
                        // one thread consumes this element; the lists are
                        // truncated with `set_len(0)` after the broadcast,
                        // so the value is never dropped in place.
                        let item = unsafe { std::ptr::read(ptr.at(idx)) };
                        // SAFETY: destination `k` lies in this thread's
                        // exclusive cut range, so the `&mut`s are unique.
                        unsafe { f(item, &mut *pa.at(k), &mut *pb.at(k)) }
                    }
                }
            }
        }));
        if let Err(payload) = result {
            let mut cell = panic_cell.lock().expect("panic cell");
            if cell.as_ref().is_none_or(|&(s, _)| t < s) {
                *cell = Some((t, payload));
            }
        }
    });
    for l in lists.iter_mut() {
        let v = get(l);
        // SAFETY: every element was either moved out by `ptr::read` above
        // or (on a panicking shard) must not be dropped here because we
        // cannot tell which were consumed; truncating the length forgets
        // them without touching the buffer. Capacity is retained.
        unsafe { v.set_len(0) };
    }
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

    /// The syncs counter is deterministic: one per cold broadcast, one per
    /// hot window (its first broadcast), regardless of machine timing.
    #[test]
    fn hot_window_batches_sync_wakeups() {
        let pool = ThreadPool::new(2);
        let work = Mutex::new(0u32);
        for _ in 0..2 {
            let window = pool.hot_window();
            for _ in 0..8 {
                pool.broadcast(&|_| *work.lock().unwrap() += 1);
            }
            drop(window);
        }
        let (syncs, generations, _) = pool.counters();
        assert_eq!((syncs, generations), (2, 16));
        pool.broadcast(&|_| *work.lock().unwrap() += 1);
        let (syncs, generations, _) = pool.counters();
        assert_eq!((syncs, generations), (3, 17));
        assert_eq!(*work.lock().unwrap(), 17 * 2);
    }

    /// A panic raised mid-window propagates with its payload, and the pool
    /// (still hot) keeps serving broadcasts afterwards.
    #[test]
    fn panic_propagates_across_hot_window() {
        let pool = ThreadPool::new(3);
        let window = pool.hot_window();
        let ok = Mutex::new(0u32);
        pool.broadcast(&|_| *ok.lock().unwrap() += 1);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            pool.broadcast(&|t| {
                if t == 1 {
                    panic!("mid-window violation");
                }
            });
        }));
        let payload = caught.expect_err("must propagate");
        assert_eq!(
            payload.downcast_ref::<&str>().copied().unwrap_or(""),
            "mid-window violation"
        );
        pool.broadcast(&|_| *ok.lock().unwrap() += 1);
        drop(window);
        pool.broadcast(&|_| *ok.lock().unwrap() += 1);
        assert_eq!(*ok.lock().unwrap(), 9);
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

    /// `scatter_sharded` moves every element to its keyed destination in
    /// list-major order and leaves the source lists empty, for any thread
    /// count.
    #[test]
    fn scatter_sharded_moves_every_item_in_order() {
        for threads in 1..=4 {
            let pool = ThreadPool::new(threads);
            let n = 7usize;
            // Three lists; items are (dest, tag), tags unique and ascending
            // in list-major order per destination.
            let mut lists: Vec<Vec<(usize, u32)>> = vec![
                vec![(0, 1), (3, 2), (0, 3), (6, 4)],
                vec![(3, 5), (1, 6)],
                vec![(6, 7), (0, 8), (5, 9)],
            ];
            let cuts: Vec<usize> = (0..=threads).map(|t| t * n / threads).collect();
            let mut a: Vec<Vec<u32>> = vec![Vec::new(); n];
            let mut b = vec![0u32; n];
            scatter_sharded(
                &pool,
                &mut lists,
                |l| l,
                &cuts,
                &mut a,
                &mut b,
                |item| item.0,
                |item, dest, count| {
                    dest.push(item.1);
                    *count += 1;
                },
            );
            assert!(lists.iter().all(Vec::is_empty), "threads {threads}");
            assert_eq!(a[0], vec![1, 3, 8], "threads {threads}");
            assert_eq!(a[1], vec![6]);
            assert_eq!(a[3], vec![2, 5]);
            assert_eq!(a[5], vec![9]);
            assert_eq!(a[6], vec![4, 7]);
            assert_eq!(b, vec![3, 1, 0, 2, 0, 1, 2]);
        }
    }
}
