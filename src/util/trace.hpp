// Structured tracing: RAII scoped-timer spans emitted as Chrome trace_event
// JSON (open the file in chrome://tracing or https://ui.perfetto.dev).
//
// Collection model:
//  - trace_start() arms a process-wide session; spans record into plain
//    thread_local buffers — no lock, no atomic RMW on the hot path, just one
//    relaxed load of the enabled flag plus two steady_clock reads per span.
//  - A thread's buffer is flushed into the session, lockless until then,
//    at thread exit, at trace_stop*() on the collecting thread, or at
//    trace_flush_thread(); the never-exiting parallel_for helpers call it
//    at the end of every dispatch, before the call returns.
//  - With tracing disarmed (the default) a TraceSpan costs one relaxed
//    atomic load; compiling with -DTDAT_TRACE_DISABLED removes the macros
//    entirely.
//
// Span names/categories/arg keys must be string literals (or otherwise
// outlive the session) — they are stored as const char*.
#pragma once

#include <cstdint>
#include <string>
#include <utility>

namespace tdat {

[[nodiscard]] bool trace_enabled() noexcept;

// Arms a new session: clears previously collected events, restarts the
// clock. Safe to call again after trace_stop* for a fresh session.
void trace_start();

// Disarms the session, flushes the calling thread's buffer plus every
// already-retired thread buffer, and returns the Chrome trace JSON
// ({"traceEvents":[...]}). Events are sorted by timestamp.
[[nodiscard]] std::string trace_stop_json();

// trace_stop_json written to `path`; false if the file cannot be written
// (the session is disarmed and drained either way).
[[nodiscard]] bool trace_stop(const std::string& path);

// Flushes the calling thread's events into the session now, not at exit.
void trace_flush_thread();

class TraceSpan {
 public:
  explicit TraceSpan(const char* name, const char* cat = "tdat") noexcept
      : name_(name), cat_(cat) {
    if (trace_enabled()) start();
  }
  TraceSpan(const char* name, const char* cat, const char* arg_key,
            std::int64_t arg_value) noexcept
      : name_(name), cat_(cat), arg_key_(arg_key), arg_int_(arg_value),
        arg_kind_(1) {
    if (trace_enabled()) start();
  }
  TraceSpan(const char* name, const char* cat, const char* arg_key,
            std::string arg_value)
      : name_(name), cat_(cat), arg_key_(arg_key),
        arg_str_(std::move(arg_value)), arg_kind_(2) {
    if (trace_enabled()) start();
  }
  // Lazy string arg: the callable runs only when tracing is armed, so a
  // disarmed span on a hot path never pays for building the string (e.g.
  // ConnectionKey::to_string allocating per connection).
  template <typename MakeArg,
            typename = decltype(std::string(std::declval<MakeArg&>()()))>
  TraceSpan(const char* name, const char* cat, const char* arg_key,
            MakeArg&& make_arg)
      : name_(name), cat_(cat), arg_key_(arg_key) {
    if (trace_enabled()) {
      arg_str_ = make_arg();
      arg_kind_ = 2;
      start();
    }
  }
  ~TraceSpan() {
    if (start_ts_ >= 0) finish();
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  void start() noexcept;
  void finish() noexcept;

  const char* name_;
  const char* cat_;
  const char* arg_key_ = nullptr;
  std::int64_t arg_int_ = 0;
  std::string arg_str_;
  std::uint8_t arg_kind_ = 0;  // 0 none, 1 int, 2 string
  std::int64_t start_ts_ = -1;  // monotonic µs; -1 = span not recording
};

// A zero-duration marker (ph:"i", thread scope).
void trace_instant(const char* name, const char* cat = "tdat");

#define TDAT_TRACE_CAT2_(a, b) a##b
#define TDAT_TRACE_CAT_(a, b) TDAT_TRACE_CAT2_(a, b)
#ifndef TDAT_TRACE_DISABLED
// TDAT_TRACE_SPAN("name"[, "cat"[, "arg_key", arg_value]]): scoped span
// covering the rest of the enclosing block.
#define TDAT_TRACE_SPAN(...) \
  ::tdat::TraceSpan TDAT_TRACE_CAT_(tdat_trace_span_, __LINE__){__VA_ARGS__}
#define TDAT_TRACE_INSTANT(...) ::tdat::trace_instant(__VA_ARGS__)
#else
#define TDAT_TRACE_SPAN(...) ((void)0)
#define TDAT_TRACE_INSTANT(...) ((void)0)
#endif

}  // namespace tdat
