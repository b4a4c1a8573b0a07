#include "util/trace.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <mutex>
#include <vector>

#include "util/metrics.hpp"

namespace tdat {
namespace {

struct Event {
  const char* name = nullptr;
  const char* cat = nullptr;
  const char* arg_key = nullptr;
  std::string arg_str;
  std::int64_t arg_int = 0;
  std::uint8_t arg_kind = 0;
  char ph = 'X';
  std::int64_t ts = 0;   // raw monotonic µs; normalized at serialization
  std::int64_t dur = 0;  // for ph == 'X'
  std::uint32_t tid = 0;
};

struct Session {
  std::mutex mu;
  std::vector<Event> retired;       // buffers flushed by their threads
  std::atomic<bool> enabled{false};
  std::atomic<std::uint64_t> gen{0};  // bumped by trace_start
  std::int64_t t0 = 0;                // session epoch (under mu)
};

// Leaked on purpose: thread_local buffer destructors of late-exiting
// threads must find the session alive during static destruction.
Session& session() {
  static Session* s = new Session;
  return *s;
}

struct ThreadBuffer {
  std::vector<Event> events;
  std::uint64_t gen = 0;

  ~ThreadBuffer() { retire(); }

  // The single synchronized moment of a buffer's life: move everything
  // collected for the current session into the shared retired list.
  void retire() {
    if (events.empty()) return;
    Session& s = session();
    std::lock_guard lock(s.mu);
    if (gen == s.gen.load(std::memory_order_relaxed)) {
      s.retired.insert(s.retired.end(),
                       std::make_move_iterator(events.begin()),
                       std::make_move_iterator(events.end()));
    }
    events.clear();
  }
};

ThreadBuffer& local_buffer() {
  thread_local ThreadBuffer buf;
  return buf;
}

void append(Event e) {
  Session& s = session();
  if (!s.enabled.load(std::memory_order_acquire)) return;
  ThreadBuffer& buf = local_buffer();
  const std::uint64_t g = s.gen.load(std::memory_order_acquire);
  if (buf.gen != g) {
    buf.events.clear();  // stale events from a previous session
    buf.gen = g;
  }
  e.tid = thread_index();
  buf.events.push_back(std::move(e));
}

void json_escape_into(std::string& out, const char* str) {
  for (const char* p = str; *p; ++p) {
    const char c = *p;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

void serialize_event(std::string& out, const Event& e, std::int64_t t0) {
  out += "{\"name\":\"";
  json_escape_into(out, e.name);
  out += "\",\"cat\":\"";
  json_escape_into(out, e.cat);
  out += "\",\"ph\":\"";
  out += e.ph;
  out += "\",\"pid\":1,\"tid\":" + std::to_string(e.tid) +
         ",\"ts\":" + std::to_string(e.ts - t0);
  if (e.ph == 'X') out += ",\"dur\":" + std::to_string(e.dur);
  if (e.ph == 'i') out += ",\"s\":\"t\"";
  if (e.arg_kind != 0 && e.arg_key != nullptr) {
    out += ",\"args\":{\"";
    json_escape_into(out, e.arg_key);
    out += "\":";
    if (e.arg_kind == 1) {
      out += std::to_string(e.arg_int);
    } else {
      out += '"';
      json_escape_into(out, e.arg_str.c_str());
      out += '"';
    }
    out += '}';
  }
  out += '}';
}

}  // namespace

bool trace_enabled() noexcept {
  return session().enabled.load(std::memory_order_acquire);
}

void trace_start() {
  Session& s = session();
  std::lock_guard lock(s.mu);
  s.retired.clear();
  s.gen.fetch_add(1, std::memory_order_release);
  s.t0 = monotonic_micros();
  s.enabled.store(true, std::memory_order_release);
}

std::string trace_stop_json() {
  Session& s = session();
  s.enabled.store(false, std::memory_order_release);
  local_buffer().retire();  // the collecting thread's own events

  std::vector<Event> events;
  std::int64_t t0 = 0;
  {
    std::lock_guard lock(s.mu);
    events.swap(s.retired);
    t0 = s.t0;
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const Event& a, const Event& b) { return a.ts < b.ts; });

  std::string out =
      "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"
      "{\"name\":\"process_name\",\"cat\":\"__metadata\",\"ph\":\"M\","
      "\"pid\":1,\"tid\":0,\"ts\":0,\"args\":{\"name\":\"tdat\"}}";
  for (const Event& e : events) {
    out += ",\n";
    serialize_event(out, e, t0);
  }
  out += "\n]}\n";
  return out;
}

bool trace_stop(const std::string& path) {
  const std::string json = trace_stop_json();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  const bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size();
  return std::fclose(f) == 0 && ok;
}

void trace_flush_thread() { local_buffer().retire(); }

void TraceSpan::start() noexcept { start_ts_ = monotonic_micros(); }

void TraceSpan::finish() noexcept {
  Event e;
  e.name = name_;
  e.cat = cat_;
  e.arg_key = arg_key_;
  e.arg_str = std::move(arg_str_);
  e.arg_int = arg_int_;
  e.arg_kind = arg_kind_;
  e.ph = 'X';
  e.ts = start_ts_;
  e.dur = monotonic_micros() - start_ts_;
  append(std::move(e));
}

void trace_instant(const char* name, const char* cat) {
  if (!trace_enabled()) return;
  Event e;
  e.name = name;
  e.cat = cat;
  e.ph = 'i';
  e.ts = monotonic_micros();
  append(std::move(e));
}

}  // namespace tdat
