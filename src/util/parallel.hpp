// Deterministic task-level parallelism: one fan-out primitive over
// independent jobs (candidate detectors, ASS frames, k-means restarts,
// batch frames).
//
// A single lazily-initialized persistent thread pool backs `parallel_for`.
// The pool size comes from the ANOLE_THREADS environment variable (first
// use; an integer in [1, 1024]), `std::thread::hardware_concurrency()`
// otherwise, and can be overridden at runtime with `set_thread_count`.
//
// Threading rule: kernels (tensor, nn, cluster) run on their calling
// thread and never include this header; only task fan-outs use the pool.
// At this codebase's per-frame shapes waking the pool costs more than the
// kernel itself, so there is no intra-op threading and no cost heuristic
// deciding when to use it.
//
// Determinism contract: work is split into chunks whose boundaries depend
// only on (begin, end, grain) — never on the thread count — and each
// index writes only its own (disjoint) state, so results are
// bitwise-identical whether the pool has 1 thread or 64. Nested calls from
// inside a task run inline (serially), so nesting cannot change results
// either — it only limits extra parallelism.
#pragma once

#include <algorithm>
#include <cstddef>
#include <functional>

namespace anole::par {

/// Number of threads the pool will use (>= 1). Never spawns the pool.
std::size_t thread_count();

/// Overrides the pool size; 1 means fully serial execution. Passing 0
/// restores the default (ANOLE_THREADS, else hardware concurrency).
/// Joins any existing workers; must not be called from inside a task.
void set_thread_count(std::size_t count);

/// True when the calling thread is a pool worker executing a task.
bool in_parallel_region();

namespace detail {

/// Runs fn(chunk) for every chunk in [0, chunks) on the pool (the caller
/// participates) and blocks until all chunks finished. Rethrows the first
/// exception thrown by a chunk. Must not be called from a pool worker.
void run_chunks(std::size_t chunks,
                const std::function<void(std::size_t)>& fn);

}  // namespace detail

/// Calls fn(i) for every i in [begin, end), split into grain-sized chunks
/// executed across the pool. fn must write only per-index (disjoint)
/// state. Runs inline for a single chunk, a one-thread pool, or a call
/// from inside a task.
template <typename Fn>
void parallel_for(std::size_t begin, std::size_t end, std::size_t grain,
                  Fn&& fn) {
  if (end <= begin) return;
  const std::size_t g = grain == 0 ? 1 : grain;
  const std::size_t chunks = (end - begin + g - 1) / g;
  if (chunks == 1 || thread_count() == 1 || in_parallel_region()) {
    for (std::size_t i = begin; i < end; ++i) fn(i);
    return;
  }
  detail::run_chunks(chunks, [&](std::size_t c) {
    const std::size_t lo = begin + c * g;
    const std::size_t hi = std::min(end, lo + g);
    for (std::size_t i = lo; i < hi; ++i) fn(i);
  });
}

}  // namespace anole::par
