#include "fleet/worker.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <thread>

#if defined(__unix__) || defined(__APPLE__)
#include <netdb.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>
#endif

#include "agg/sink.hpp"
#include "core/analyzer.hpp"
#include "core/report.hpp"
#include "core/trace_source.hpp"
#include "fleet/wire.hpp"

namespace tdat::fleet {

#if defined(__unix__) || defined(__APPLE__)

namespace {

// Periodic liveness pings while an assignment runs. Writes share the frame
// mutex with the result path, so heartbeat and result frames never interleave
// on the wire.
class Heartbeater {
 public:
  Heartbeater(int fd, std::mutex& write_mu, std::uint32_t worker_id,
              std::uint32_t shard_index, std::uint32_t interval_ms)
      : fd_(fd),
        write_mu_(write_mu),
        worker_id_(worker_id),
        shard_index_(shard_index),
        interval_ms_(interval_ms) {
    if (interval_ms_ != 0) thread_ = std::thread([this] { run(); });
  }

  ~Heartbeater() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
  }

  Heartbeater(const Heartbeater&) = delete;
  Heartbeater& operator=(const Heartbeater&) = delete;

 private:
  void run() {
    std::unique_lock<std::mutex> lock(mu_);
    while (!stop_) {
      if (cv_.wait_for(lock, std::chrono::milliseconds(interval_ms_),
                       [this] { return stop_; })) {
        return;
      }
      HeartbeatMessage hb;
      hb.worker_id = worker_id_;
      hb.shard_index = shard_index_;
      lock.unlock();
      {
        std::lock_guard<std::mutex> write_lock(write_mu_);
        // A failed heartbeat write means the coordinator is gone; the main
        // loop will find out on its next read, nothing to do here.
        (void)write_frame_fd(fd_, MsgType::kHeartbeat, hb.encode());
      }
      lock.lock();
    }
  }

  int fd_;
  std::mutex& write_mu_;
  std::uint32_t worker_id_;
  std::uint32_t shard_index_;
  std::uint32_t interval_ms_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
};

// The deterministic mid-shard crash for reassignment tests: die the moment
// the named assignment lands, before any work or reply.
void maybe_kill_self(std::uint32_t worker_id) {
  const char* kill = std::getenv("TDAT_FLEET_KILL_WORKER");
  if (kill != nullptr && std::strtoul(kill, nullptr, 10) == worker_id) {
    _exit(43);
  }
}

bool send_error(int fd, std::mutex& write_mu, const AssignMessage& assign,
                std::string message) {
  ErrorMessage err;
  err.worker_id = assign.worker_id;
  err.shard_index = assign.shard_index;
  err.message = std::move(message);
  std::lock_guard<std::mutex> lock(write_mu);
  return write_frame_fd(fd, MsgType::kError, err.encode());
}

bool serve_assignment(int fd, std::mutex& write_mu,
                      const AssignMessage& assign) {
  maybe_kill_self(assign.worker_id);
  Heartbeater heartbeat(fd, write_mu, assign.worker_id, assign.shard_index,
                        assign.heartbeat_ms);

  auto source = OffsetRunSource::open(assign.capture, assign.runs);
  if (!source.ok()) {
    return send_error(fd, write_mu, assign, source.error());
  }

  AnalyzerOptions opts;
  opts.location = static_cast<SnifferLocation>(assign.location);
  opts.jobs = assign.jobs == 0 ? 1 : assign.jobs;
  opts.verify_checksums = assign.verify_checksums != 0;
  opts.passes.bits = assign.pass_bits;

  const auto started = std::chrono::steady_clock::now();
  const TraceAnalysis analysis = run_pipeline(source.value(), opts);
  if (source.value().failed()) {
    // The plan no longer matches the capture image — a partial archive would
    // silently drop connections, so fail the whole shard instead.
    return send_error(fd, write_mu, assign, source.value().error());
  }
  const ReportModel model = build_report_model(analysis);
  const std::string archive =
      agg::build_archive(model, assign.run_id).serialize();

  ResultMessage result;
  result.worker_id = assign.worker_id;
  result.shard_index = assign.shard_index;
  result.records = analysis.stats.records;
  result.packets = analysis.stats.packets;
  result.connections = analysis.stats.connections;
  result.bytes_ingested = analysis.stats.bytes_ingested;
  result.wall_us = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - started)
          .count());
  result.archive.assign(archive.begin(), archive.end());
  std::lock_guard<std::mutex> lock(write_mu);
  return write_frame_fd(fd, MsgType::kResult, result.encode());
}

}  // namespace

int run_worker(int fd) {
  // A coordinator that died mid-write must surface as a failed write, not a
  // process-killing SIGPIPE.
  ::signal(SIGPIPE, SIG_IGN);
  std::mutex write_mu;
  {
    HelloMessage hello;
    char host[256] = {};
    if (::gethostname(host, sizeof(host) - 1) == 0) hello.host = host;
    std::lock_guard<std::mutex> lock(write_mu);
    if (!write_frame_fd(fd, MsgType::kHello, hello.encode())) return 1;
  }
  for (;;) {
    Frame frame;
    if (!read_frame_fd(fd, frame)) return 1;
    switch (frame.type) {
      case MsgType::kAssign: {
        auto assign = AssignMessage::decode(frame.payload);
        if (!assign.ok()) return 1;
        if (!serve_assignment(fd, write_mu, assign.value())) return 1;
        break;
      }
      case MsgType::kShutdown:
        return 0;
      case MsgType::kHeartbeat:
        break;  // coordinator pings are allowed, nothing to do
      default:
        return 1;  // a frame only workers send — the peer is confused
    }
  }
}

namespace {

// One resolve + connect attempt. Resolution is redone per attempt on purpose:
// a coordinator restarting behind a DNS name may come back elsewhere.
int dial_coordinator(const std::string& host, const std::string& port) {
  struct addrinfo hints = {};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  struct addrinfo* res = nullptr;
  if (::getaddrinfo(host.empty() ? "127.0.0.1" : host.c_str(), port.c_str(),
                    &hints, &res) != 0) {
    return -1;
  }
  int fd = -1;
  for (struct addrinfo* ai = res; ai != nullptr; ai = ai->ai_next) {
    fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) continue;
    if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) break;
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(res);
  return fd;
}

unsigned long env_ms(const char* name, unsigned long def) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return def;
  char* end = nullptr;
  const unsigned long n = std::strtoul(v, &end, 10);
  return end == v || *end != '\0' ? def : n;
}

}  // namespace

int run_worker_connect(const std::string& host_port) {
  const std::size_t colon = host_port.rfind(':');
  if (colon == std::string::npos || colon + 1 >= host_port.size()) {
    std::fprintf(stderr, "tdat fleet: --connect needs HOST:PORT\n");
    return 2;
  }
  const std::string host = host_port.substr(0, colon);
  const std::string port = host_port.substr(colon + 1);

  // A coordinator restart (or a worker started before the listener) must not
  // strand the worker: retry with exponential backoff + jitter, capped, until
  // the attempt budget runs out. Env knobs exist so tests can tighten the
  // schedule; the defaults give up after ~10 s of a genuinely absent peer.
  const unsigned long base_ms = env_ms("TDAT_FLEET_RECONNECT_BASE_MS", 50);
  const unsigned long cap_ms = env_ms("TDAT_FLEET_RECONNECT_MAX_MS", 2000);
  const unsigned long max_attempts =
      env_ms("TDAT_FLEET_RECONNECT_ATTEMPTS", 10);
  std::uint64_t jitter_state =
      static_cast<std::uint64_t>(::getpid()) * 0x9E3779B97F4A7C15ull + 1;
  const auto backoff_sleep = [&](unsigned failures) {
    unsigned long delay = base_ms;
    for (unsigned i = 1; i < failures && delay < cap_ms; ++i) delay *= 2;
    delay = std::min(delay, cap_ms);
    // xorshift jitter in [0, delay/4]: desynchronizes a fleet of workers all
    // retrying the same restarted listener.
    jitter_state ^= jitter_state << 13;
    jitter_state ^= jitter_state >> 7;
    jitter_state ^= jitter_state << 17;
    delay += delay == 0 ? 0 : jitter_state % (delay / 4 + 1);
    std::this_thread::sleep_for(std::chrono::milliseconds(delay));
  };

  unsigned failures = 0;
  for (;;) {
    const int fd = dial_coordinator(host, port);
    if (fd < 0) {
      if (++failures > max_attempts) {
        std::fprintf(stderr,
                     "tdat fleet: cannot connect to %s after %lu attempts\n",
                     host_port.c_str(), max_attempts);
        return 3;
      }
      backoff_sleep(failures);
      continue;
    }
    failures = 0;
    const int code = run_worker(fd);
    ::close(fd);
    if (code == 0) return 0;  // clean Shutdown from the coordinator
    // The connection died mid-session (coordinator crash or restart). Any
    // half-served shard is the coordinator's to reassign; reconnect and
    // offer to serve again.
    if (++failures > max_attempts) return code;
    backoff_sleep(failures);
  }
}

#else  // !unix

int run_worker(int fd) {
  (void)fd;
  return 1;
}

int run_worker_connect(const std::string& host_port) {
  (void)host_port;
  std::fprintf(stderr, "tdat fleet: not supported on this platform\n");
  return 1;
}

#endif

}  // namespace tdat::fleet
