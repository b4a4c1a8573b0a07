// parallel_for, the one parallel primitive: it fans the per-connection
// analysis out for batch runs and for every live epoch.
//
// It runs on the calling thread plus jobs-1 helpers from one process-lifetime
// set, started lazily and grown to the largest count ever asked for. Helpers
// outlive a call, so their thread_local analysis scratch stays warm across
// runs and epochs. The set is never destroyed, so exit() never meets a
// joinable std::thread; a fork()ed child starts with a fresh, empty set.
//
// Work-stealing-free: indices are handed out through one shared atomic
// counter, and results land in caller-preallocated slots keyed by index,
// which makes parallel runs bit-identical to serial ones (DESIGN.md §6).
#pragma once

#include <cstddef>
#include <functional>

namespace tdat {

// Worker-count resolution used by the CLI and analyze_* entry points: an
// explicit non-zero value wins; 0 means "default": TDAT_JOBS when set (a
// positive count; anything else means 1), else hardware_concurrency().
[[nodiscard]] std::size_t default_jobs();

// Runs fn(0), ..., fn(n-1) on min(jobs, n) threads. jobs <= 1, n <= 1, or a
// call from inside another parallel_for's fn runs inline; concurrent
// top-level callers take turns. Index order is ascending within a thread
// and arbitrary across threads, so fn must only touch per-index state. The
// first exception thrown is rethrown on the caller after all threads finish.
void parallel_for(std::size_t n, std::size_t jobs,
                  const std::function<void(std::size_t)>& fn);

}  // namespace tdat
