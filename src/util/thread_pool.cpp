#include "util/thread_pool.hpp"

#include <pthread.h>
#include <signal.h>

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "util/metrics.hpp"
#include "util/parse.hpp"
#include "util/trace.hpp"

namespace tdat {

std::size_t default_jobs() {
  if (const char* env = std::getenv("TDAT_JOBS")) {
    return parse_uint(env, 1).value_or(1);  // unparsable or 0: stay serial
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

namespace {

// parallel_for holds `turn` for its whole run: it posts `drain` with jobs-1
// `seats`, drains on its own thread too, then withdraws the seats no helper
// took (nothing is left to hand out by then) and waits until none is seated.
struct WorkerSet {
  std::mutex turn;
  std::mutex mu;                     // guards the rest
  std::condition_variable wake;      // helpers: a dispatch was posted
  std::condition_variable idle;      // caller: the last seated helper left
  std::vector<std::thread> helpers;  // never shrinks, never joined
  std::uint64_t dispatch = 0;        // bumped by every post
  std::size_t seats = 0;
  std::size_t seated = 0;
  const std::function<void()>* drain = nullptr;
  std::int64_t posted_us = 0;
};

// Leaked like the trace Session: helpers wait on it until the process ends.
// A forked child inherits it without its threads (perhaps with a lock held
// by one of them), so the child handler swaps in a fresh set and leaves the
// inherited one alone.
WorkerSet* g_set = nullptr;

WorkerSet& worker_set() {
  static const bool ready = [] {
    g_set = new WorkerSet;
    pthread_atfork(nullptr, nullptr, [] { g_set = new WorkerSet; });
    return true;
  }();
  (void)ready;
  return *g_set;
}

thread_local bool t_in_drain = false;

void run_drain(const std::function<void()>& drain) {
  static Counter& tasks = metrics().counter("pool.tasks");
  tasks.inc();
  t_in_drain = true;
  {
    TDAT_TRACE_SPAN("pool.task", "pool");
    drain();
  }
  t_in_drain = false;
}

void helper_loop(WorkerSet& s, std::uint64_t seen) {
  // Signals (tdat watch's SIGTERM/SIGHUP) go to the program's own threads,
  // so a sleeping main loop is woken rather than an idle helper.
  sigset_t all;
  sigfillset(&all);
  pthread_sigmask(SIG_BLOCK, &all, nullptr);
  LatencyHistogram& wait_us = metrics().histogram("pool.queue_wait_us");
  std::unique_lock lock(s.mu);
  for (;;) {
    s.wake.wait(lock, [&] { return s.dispatch != seen; });
    seen = s.dispatch;
    if (s.seats == 0) continue;
    --s.seats;
    ++s.seated;
    const std::function<void()>& drain = *s.drain;
    const std::int64_t posted_us = s.posted_us;
    lock.unlock();
    wait_us.observe(monotonic_micros() - posted_us);
    run_drain(drain);
    trace_flush_thread();  // before the caller may return and stop the trace
    lock.lock();
    if (--s.seated == 0) s.idle.notify_one();
  }
}

}  // namespace

void parallel_for(std::size_t n, std::size_t jobs,
                  const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  if (jobs <= 1 || n == 1 || t_in_drain) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  if (jobs > n) jobs = n;

  std::atomic<std::size_t> next{0};
  std::mutex err_mu;
  std::exception_ptr first_error;
  const std::function<void()> drain = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      try {
        fn(i);
      } catch (...) {
        std::lock_guard lock(err_mu);
        if (!first_error) first_error = std::current_exception();
      }
    }
  };

  WorkerSet& s = worker_set();
  std::lock_guard turn(s.turn);
  {
    std::lock_guard lock(s.mu);
    while (s.helpers.size() < jobs - 1) {
      s.helpers.emplace_back(helper_loop, std::ref(s), s.dispatch);
    }
    static Gauge& workers = metrics().gauge("pool.workers");
    workers.set(static_cast<std::int64_t>(s.helpers.size()));
    s.drain = &drain;
    s.seats = jobs - 1;
    s.posted_us = monotonic_micros();
    ++s.dispatch;
  }
  s.wake.notify_all();
  run_drain(drain);
  {
    std::unique_lock lock(s.mu);
    s.seats = 0;
    s.idle.wait(lock, [&] { return s.seated == 0; });
  }
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace tdat
