// Benchmark drive program: times tdat from outside and records what the checks
// need. It never judges an output itself; run.py checks every record this
// program prints against the generator's oracle.
//
//   perfbench_drive measure --tdat BIN --capture PCAP --jobs J --seconds S
//       --out DIR --chunk BYTES --snapshot-every K --round NJ,N1,NL
//   perfbench_drive trace --capture PCAP --jobs J --seconds S --out DIR
//       --chunk BYTES --snapshot-every K
//
// measure: a warm-up round, then whole rounds of NJ
//   `tdat analyze --format json --jobs J` processes, N1 of the same at
//   --jobs 1, and NL in-process LiveEngine replays at jobs=J, until S
//   seconds have passed; plus one `tdat analyze --format agg` process that
//   the live replays' .tdagg is compared with. One operation at a time, no
//   sleeps, no polling.
// trace: the per-layer run. In-process at jobs=1 it times each layer's
//   public call per connection (summed over connections), counts
//   allocations, and records a span around every call; spans are written
//   as a Chrome trace to DIR/spans.json at exit.
//
// Distinct outputs are written once to DIR/out/<fnv64>.<ext>; records name
// them by hash. The last line of stdout is one JSON object.
#include <errno.h>
#include <fcntl.h>
#include <malloc.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "agg/sink.hpp"
#include "bgp/mct.hpp"
#include "core/analyzer.hpp"
#include "core/delay_report.hpp"
#include "core/live.hpp"
#include "core/live_source.hpp"
#include "core/pass.hpp"
#include "core/pcap2bgp.hpp"
#include "core/report.hpp"
#include "core/series_builder.hpp"
#include "core/trace_source.hpp"
#include "pcap/decode_batch.hpp"
#include "tcp/connection.hpp"
#include "tcp/profile.hpp"
#include "util/alloc_hook.hpp"

extern char** environ;

namespace {

using namespace tdat;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

// Thrown to main, so that unwinding stops and waits for the launcher.
[[noreturn]] void die(const std::string& what) { throw std::runtime_error(what); }

struct Args {
  std::string mode;
  std::string tdat;
  std::string capture;
  std::string out;
  std::size_t jobs = 1;
  double seconds = 1;
  std::size_t chunk = 4096;
  std::size_t snapshot_every = 16;
  std::size_t round_j = 1;
  std::size_t round_1 = 1;
  std::size_t round_live = 1;
};

Args parse_args(int argc, char** argv) {
  if (argc < 2) die("usage: perfbench_drive measure|trace --flag value ...");
  Args a;
  a.mode = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string v = argv[i + 1];
    if (flag == "--tdat") a.tdat = v;
    else if (flag == "--capture") a.capture = v;
    else if (flag == "--out") a.out = v;
    else if (flag == "--jobs") a.jobs = std::stoul(v);
    else if (flag == "--seconds") a.seconds = std::stod(v);
    else if (flag == "--chunk") a.chunk = std::stoul(v);
    else if (flag == "--snapshot-every") a.snapshot_every = std::stoul(v);
    else if (flag == "--round") {
      if (std::sscanf(v.c_str(), "%zu,%zu,%zu", &a.round_j, &a.round_1,
                      &a.round_live) != 3) {
        die("--round wants NJ,N1,NL");
      }
    } else {
      die("unknown flag " + flag);
    }
  }
  if (argc % 2 != 0) die("flag without a value");
  if (a.capture.empty() || a.out.empty() || a.jobs == 0 || a.chunk == 0 ||
      a.snapshot_every == 0) {
    die("missing --capture/--out or a zero --jobs/--chunk/--snapshot-every");
  }
  return a;
}

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) die("cannot read " + path);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

// Content-addressed output store: run.py checks each distinct output once.
class OutputStore {
 public:
  explicit OutputStore(std::string dir) : dir_(std::move(dir)) {
    std::filesystem::create_directories(dir_);
  }
  std::string put(const std::string& body, const char* ext) {
    std::uint64_t h = 1469598103934665603ULL;
    for (const char c : body) {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211ULL;
    }
    char name[32];
    std::snprintf(name, sizeof name, "%016llx", static_cast<unsigned long long>(h));
    const std::string path = dir_ + "/" + name + "." + ext;
    if (!std::filesystem::exists(path)) {
      std::ofstream f(path, std::ios::binary);
      f.write(body.data(), static_cast<std::streamsize>(body.size()));
      if (!f) die("cannot write " + path);
    }
    return name;
  }

 private:
  std::string dir_;
};

// ---- spans -----------------------------------------------------------------

// In-memory span recorder (name, start, end, parent), written as a Chrome
// trace at exit. Off in measure mode, where nothing is traced.
class Spans {
 public:
  struct Record {
    const char* name;
    std::int64_t parent;
    Clock::time_point start;
    Clock::time_point end;
  };
  class Scope {
   public:
    Scope(Spans& s, const char* name) : s_(s) { id_ = s_.open(name); }
    ~Scope() { s_.close(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Spans& s_;
    std::int64_t id_;
  };

  std::int64_t open(const char* name) {
    if (!on_) return -1;
    const auto id = static_cast<std::int64_t>(records_.size());
    records_.push_back({name, stack_.empty() ? -1 : stack_.back(), Clock::now(), {}});
    stack_.push_back(id);
    return id;
  }
  void close(std::int64_t id) {
    if (id < 0) return;
    records_[static_cast<std::size_t>(id)].end = Clock::now();
    stack_.pop_back();
  }
  void enable() { on_ = true; origin_ = Clock::now(); }
  [[nodiscard]] std::size_t size() const { return records_.size(); }

  void write(const std::string& path) const {
    std::string out = "{\"traceEvents\":[";
    for (std::size_t i = 0; i < records_.size(); ++i) {
      const Record& r = records_[i];
      if (i > 0) out += ",\n";
      out += "{\"name\":\"" + std::string(r.name) +
             "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" +
             num(std::chrono::duration<double, std::micro>(r.start - origin_).count()) +
             ",\"dur\":" +
             num(std::chrono::duration<double, std::micro>(r.end - r.start).count()) +
             ",\"args\":{\"id\":" + std::to_string(i) +
             ",\"parent\":" + std::to_string(r.parent) + "}}";
    }
    out += "],\"displayTimeUnit\":\"ms\"}\n";
    std::ofstream f(path, std::ios::binary);
    f << out;
    if (!f) die("cannot write " + path);
  }

 private:
  bool on_ = false;
  Clock::time_point origin_;
  std::vector<Record> records_;
  std::vector<std::int64_t> stack_;
};

Spans g_spans;
#define PB_SPAN(var, name) Spans::Scope var(g_spans, name)

// ---- operation records -----------------------------------------------------

// One JSON object per operation; run.py decides pass/fail from these facts.
struct OpRecord {
  std::string fields;
  void add(const char* key, const std::string& raw) {
    if (!fields.empty()) fields += ',';
    fields += '"';
    fields += key;
    fields += "\":";
    fields += raw;
  }
  void add_str(const char* key, const std::string& s) {
    std::string q = "\"";
    for (const char c : s) {
      if (c == '"' || c == '\\') q += '\\';
      if (static_cast<unsigned char>(c) >= 0x20) q += c;
    }
    add(key, q + "\"");
  }
  [[nodiscard]] std::string json() const { return "{" + fields + "}"; }
};

void add_stats(OpRecord& rec, const PipelineStats& st) {
  rec.add("bytes_ingested", std::to_string(st.bytes_ingested));
  rec.add("records", std::to_string(st.records));
  rec.add("connections", std::to_string(st.connections));
  rec.add("quarantined", std::to_string(st.quarantined));
  rec.add("ingest_errors", st.ingest.has_errors() ? "true" : "false");
}

// ---- spawned batch analysis ------------------------------------------------

struct SpawnResult {
  double wall_s = 0;
  long maxrss_kb = 0;
  int exit_code = -1;
  std::string out;
  std::string err;
};

bool read_all(int fd, void* buf, std::size_t n) {
  auto* p = static_cast<char*>(buf);
  while (n > 0) {
    const ssize_t got = read(fd, p, n);
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) return false;
    p += got;
    n -= static_cast<std::size_t>(got);
  }
  return true;
}

bool write_all(int fd, const void* buf, std::size_t n) {
  const auto* p = static_cast<const char*>(buf);
  while (n > 0) {
    const ssize_t put = write(fd, p, n);
    if (put < 0 && errno == EINTR) continue;
    if (put <= 0) return false;
    p += put;
    n -= static_cast<std::size_t>(put);
  }
  return true;
}

// Spawns the analyze processes from a small helper forked before the
// drive process allocates anything: a child's max-RSS as wait4 reports it is at
// least the RSS of the process that spawned it, and the drive process grows to
// hundreds of MB during live replays. The helper times each process from
// spawn to exit. It ends when its request pipe closes.
class Launcher {
 public:
  struct Reply {
    double wall_s;
    long maxrss_kb;
    int status;
    int spawn_errno;
  };

  Launcher() {
    int req[2];
    int resp[2];
    if (pipe(req) != 0 || pipe(resp) != 0) die("pipe failed");
    pid_ = fork();
    if (pid_ < 0) die("fork failed");
    if (pid_ == 0) {
      close(req[1]);
      close(resp[0]);
      serve(req[0], resp[1]);
      _exit(0);
    }
    close(req[0]);
    close(resp[1]);
    req_ = req[1];
    resp_ = resp[0];
  }
  ~Launcher() {
    close(req_);
    close(resp_);
    int status = 0;
    waitpid(pid_, &status, 0);
  }
  Launcher(const Launcher&) = delete;
  Launcher& operator=(const Launcher&) = delete;

  // argv[0] must be a path; stdout and stderr go to the named files.
  Reply run(const std::string& out_path, const std::string& err_path,
            const std::vector<std::string>& argv) {
    std::string msg = out_path + '\0' + err_path + '\0';
    for (const std::string& a : argv) msg += a + '\0';
    const auto len = static_cast<std::uint32_t>(msg.size());
    Reply r{};
    if (!write_all(req_, &len, sizeof len) || !write_all(req_, msg.data(), len) ||
        !read_all(resp_, &r, sizeof r)) {
      die("launcher died");
    }
    if (r.spawn_errno != 0) die("posix_spawn " + argv[0] + ": " + std::strerror(r.spawn_errno));
    return r;
  }

 private:
  static void serve(int in, int out) {
    for (;;) {
      std::uint32_t len = 0;
      if (!read_all(in, &len, sizeof len)) return;
      std::string msg(len, '\0');
      if (!read_all(in, msg.data(), len)) return;
      std::vector<std::string> parts;
      for (std::size_t at = 0; at < msg.size();) {
        const std::size_t nul = msg.find('\0', at);
        parts.push_back(msg.substr(at, nul - at));
        at = nul + 1;
      }
      std::vector<char*> argv;
      for (std::size_t i = 2; i < parts.size(); ++i) argv.push_back(parts[i].data());
      argv.push_back(nullptr);
      posix_spawn_file_actions_t fa;
      posix_spawn_file_actions_init(&fa);
      posix_spawn_file_actions_addopen(&fa, 1, parts[0].c_str(),
                                       O_WRONLY | O_CREAT | O_TRUNC, 0644);
      posix_spawn_file_actions_addopen(&fa, 2, parts[1].c_str(),
                                       O_WRONLY | O_CREAT | O_TRUNC, 0644);
      Reply r{};
      const auto t0 = Clock::now();
      pid_t pid = 0;
      r.spawn_errno = posix_spawn(&pid, argv[0], &fa, nullptr, argv.data(), environ);
      posix_spawn_file_actions_destroy(&fa);
      if (r.spawn_errno == 0) {
        rusage ru{};
        while (wait4(pid, &r.status, 0, &ru) < 0 && errno == EINTR) {
        }
        r.wall_s = seconds_since(t0);
        r.maxrss_kb = ru.ru_maxrss;
      }
      if (!write_all(out, &r, sizeof r)) return;
    }
  }

  pid_t pid_ = -1;
  int req_ = -1;
  int resp_ = -1;
};

SpawnResult spawn_tdat(Launcher& launcher, const Args& a,
                       const std::vector<std::string>& argv) {
  const std::string out_path = a.out + "/spawn.stdout";
  const std::string err_path = a.out + "/spawn.stderr";
  const Launcher::Reply reply = launcher.run(out_path, err_path, argv);
  SpawnResult r;
  r.wall_s = reply.wall_s;
  r.maxrss_kb = reply.maxrss_kb;
  r.exit_code = WIFEXITED(reply.status) ? WEXITSTATUS(reply.status)
                                        : 128 + WTERMSIG(reply.status);
  const auto o = read_file(out_path);
  const auto e = read_file(err_path);
  r.out.assign(o.begin(), o.end());
  r.err.assign(e.begin(), e.end());
  return r;
}

// The `--stats` line analyze prints on stderr: records, MB, connections.
void add_stats_line(OpRecord& rec, const std::string& err) {
  unsigned long long records = 0, packets = 0, conns = 0;
  char mb[32] = {0};
  const std::size_t at = err.find("[tdat] ");
  const bool ok =
      at != std::string::npos &&
      std::sscanf(err.c_str() + at,
                  "[tdat] %llu records (%31[0-9.] MB) -> %llu packets -> %llu connections",
                  &records, mb, &packets, &conns) == 4;
  rec.add("stats_line", ok ? "true" : "false");
  rec.add("records", std::to_string(records));
  rec.add_str("mb", mb);
  rec.add("connections", std::to_string(conns));
}

OpRecord batch_op(Launcher& launcher, const Args& a, OutputStore& store,
                  const char* kind, std::size_t jobs, const char* format,
                  double capture_bytes) {
  const SpawnResult r = spawn_tdat(
      launcher, a, {a.tdat, "analyze", a.capture, "--format", format, "--jobs",
          std::to_string(jobs)});
  OpRecord rec;
  rec.add_str("kind", kind);
  rec.add("exit", std::to_string(r.exit_code));
  rec.add("wall_s", num(r.wall_s));
  rec.add("mb_s", num(capture_bytes / r.wall_s / 1e6));
  rec.add("maxrss_kb", std::to_string(r.maxrss_kb));
  add_stats_line(rec, r.err);
  rec.add_str(std::strcmp(format, "agg") == 0 ? "agg" : "json",
              store.put(r.out, format));
  return rec;
}

// ---- live replay -----------------------------------------------------------

struct LiveSample {
  OpRecord rec;
  std::vector<double> update_ms;
  std::vector<double> snapshot_ms;
  PipelineStats stats;
  std::size_t retained_max = 0;
  std::uint64_t epochs = 0;
  double wall_s = 0;
};

// Appends the capture in fixed chunks; after each append runs epochs until
// the engine has nothing left, renders a JSON snapshot every
// `snapshot_every` chunks, then drains and renders the final snapshot.
LiveSample live_replay(const Args& a, OutputStore& store,
                       const std::vector<std::uint8_t>& image) {
  PB_SPAN(replay_span, "live.replay");
  LiveSample s;
  auto feed = std::make_shared<RingBufferFeed>();
  LiveOptions lopts;
  lopts.analyzer.jobs = a.jobs;
  RingBufferSource source(feed, lopts.analyzer.verify_checksums,
                          lopts.analyzer.ingest);
  LiveEngine engine(source, lopts);
  std::string snap;
  const auto t0 = Clock::now();
  std::size_t chunks = 0;
  for (std::size_t off = 0; off < image.size(); off += a.chunk) {
    const std::size_t n = std::min(a.chunk, image.size() - off);
    const auto u0 = Clock::now();
    {
      PB_SPAN(chunk_span, "live.chunk");
      feed->append(std::span(image.data() + off, n));
      while (engine.run_epoch() > 0) {
      }
    }
    s.update_ms.push_back(ms_between(u0, Clock::now()));
    s.retained_max = std::max(s.retained_max, engine.retained_packets());
    if (++chunks % a.snapshot_every == 0) {
      PB_SPAN(snap_span, "live.snapshot");
      const auto r0 = Clock::now();
      snap = engine.render_snapshot(ReportFormat::kJson);
      s.snapshot_ms.push_back(ms_between(r0, Clock::now()));
    }
  }
  feed->close();
  {
    PB_SPAN(drain_span, "live.drain");
    engine.drain();
  }
  {
    PB_SPAN(snap_span, "live.snapshot");
    const auto r0 = Clock::now();
    snap = engine.render_snapshot(ReportFormat::kJson);
    s.snapshot_ms.push_back(ms_between(r0, Clock::now()));
  }
  s.wall_s = seconds_since(t0);
  const std::string agg = engine.render_snapshot(ReportFormat::kAgg);
  s.stats = engine.pipeline_stats();
  s.epochs = engine.stats().epochs;
  s.rec.add_str("kind", "live");
  s.rec.add("wall_s", num(s.wall_s));
  s.rec.add("mb_s", num(static_cast<double>(image.size()) / s.wall_s / 1e6));
  add_stats(s.rec, s.stats);
  s.rec.add("source_failed", source.failed() ? "true" : "false");
  s.rec.add_str("json", store.put(snap, "json"));
  s.rec.add_str("agg", store.put(agg, "agg"));
  return s;
}

std::string join_ops(const std::vector<OpRecord>& ops) {
  std::string out = "[";
  for (std::size_t i = 0; i < ops.size(); ++i) {
    if (i > 0) out += ',';
    out += ops[i].json();
  }
  return out + "]";
}

std::string join_nums(const std::vector<double>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i > 0) out += ',';
    out += num(v[i]);
  }
  return out + "]";
}

int run_measure(const Args& a) {
  if (a.tdat.empty()) die("measure needs --tdat");
  Launcher launcher;
  OutputStore store(a.out + "/out");
  const std::vector<std::uint8_t> image = read_file(a.capture);
  const auto bytes = static_cast<double>(image.size());
  std::vector<OpRecord> ops;
  std::vector<double> update_ms;
  // The batch archive the live replays' .tdagg must equal; not timed.
  ops.push_back(batch_op(launcher, a, store, "batch_agg", a.jobs, "agg", bytes));
  // Round 0 is a warm-up: checked like every round, left out of the
  // metrics. The first few processes of a run are reliably slower.
  std::size_t rounds = 0;
  auto t0 = Clock::now();
  while (rounds < 2 || seconds_since(t0) < a.seconds) {
    const bool warmup = rounds == 0;
    const auto mark = [warmup](OpRecord rec) {
      rec.add("warmup", warmup ? "true" : "false");
      return rec;
    };
    for (std::size_t i = 0; i < a.round_j; ++i) {
      ops.push_back(mark(batch_op(launcher, a, store, "batch_j", a.jobs, "json", bytes)));
    }
    for (std::size_t i = 0; i < a.round_1; ++i) {
      ops.push_back(mark(batch_op(launcher, a, store, "batch_1", 1, "json", bytes)));
    }
    for (std::size_t i = 0; i < a.round_live; ++i) {
      LiveSample s = live_replay(a, store, image);
      if (!warmup) update_ms.insert(update_ms.end(), s.update_ms.begin(), s.update_ms.end());
      ops.push_back(mark(std::move(s.rec)));
    }
    if (warmup) t0 = Clock::now();
    ++rounds;
  }
  std::printf("{\"rounds\":%zu,\"ops\":%s,\"update_ms\":%s}\n", rounds,
              join_ops(ops).c_str(), join_nums(update_ms).c_str());
  return 0;
}

// ---- traced per-layer run --------------------------------------------------

std::size_t rss_bytes() {
  std::ifstream statm("/proc/self/statm");
  std::size_t pages = 0, resident = 0;
  statm >> pages >> resident;
  return resident * static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
}

OpRecord inproc_op(const char* kind, const TraceAnalysis& ta, OutputStore& store,
                   std::string* json_out = nullptr, std::string* agg_out = nullptr) {
  OpRecord rec;
  rec.add_str("kind", kind);
  add_stats(rec, ta.stats);
  const ReportModel model = build_report_model(ta);
  const std::string json = render_report(model, ReportFormat::kJson);
  rec.add_str("json", store.put(json, "json"));
  if (json_out != nullptr) *json_out = json;
  if (agg_out != nullptr) *agg_out = render_report(model, ReportFormat::kAgg);
  return rec;
}

TraceAnalysis analyze_or_die(const std::string& path, std::size_t jobs) {
  AnalyzerOptions opts;
  opts.jobs = jobs;
  Result<TraceAnalysis> r = analyze_file(path, opts);
  if (!r.ok()) die(r.error());
  return std::move(r).value();
}

// Per-layer sums over one sweep of every connection, in milliseconds.
struct Sweep {
  double ingest = 0, demux = 0, profile = 0, series = 0, extract = 0, mct = 0,
         passes = 0;
  std::uint64_t packets = 0, messages = 0, extract_allocs = 0;
  std::size_t connections = 0;
  bool matches_reference = true;
};

// Ingest (mmap open + batched decode of every record) and demux, timed
// apart, then each per-connection layer's public call in analyze order with
// one warm scratch, checked against the reference analysis's MCT results
// and factor ratios.
Sweep layer_sweep(const std::string& path, const TraceAnalysis& ref,
                  AnalysisScratch& scratch, std::vector<ConnectionAnalysis>& outs) {
  PB_SPAN(sweep_span, "sweep");
  Sweep s;
  const AnalyzerOptions opts;
  std::vector<Connection> conns;
  {
    ConnectionDemux demux;
    Clock::time_point t = Clock::now();
    std::optional<PcapStreamSource> source;
    {
      PB_SPAN(span, "pcap.ingest");
      auto opened = PcapStreamSource::open(path, opts.verify_checksums, opts.ingest);
      if (!opened.ok()) die(opened.error());
      source.emplace(std::move(opened).value());
    }
    s.ingest += ms_between(t, Clock::now());
    std::vector<StreamRecord> records(256);
    std::vector<DecodedPacket> pkts;
    DecodeScratch dscratch;
    std::size_t index = 0;
    for (;;) {
      t = Clock::now();
      {
        PB_SPAN(span, "pcap.ingest");
        const std::size_t n = source->next_raw_records(records);
        pkts.clear();
        for (std::size_t off = 0; off < n;) {
          off += decode_records(std::span(records.data() + off, n - off),
                                index + off, opts.verify_checksums, dscratch, pkts);
        }
        index += n;
        if (n == 0) {
          s.ingest += ms_between(t, Clock::now());
          break;
        }
      }
      const Clock::time_point t1 = Clock::now();
      s.ingest += ms_between(t, t1);
      {
        PB_SPAN(span, "tcp.demux");
        for (DecodedPacket& p : pkts) demux.add(std::move(p));
      }
      s.demux += ms_between(t1, Clock::now());
      s.packets += pkts.size();
    }
    t = Clock::now();
    {
      PB_SPAN(span, "tcp.demux");
      conns = demux.take();
    }
    s.demux += ms_between(t, Clock::now());
  }
  s.connections = conns.size();
  if (conns.size() != ref.results.size()) s.matches_reference = false;
  outs.resize(conns.size());
  if (scratch.passes.empty()) init_pass_states(scratch.passes);
  for (std::size_t i = 0; i < conns.size(); ++i) {
    PB_SPAN(conn_span, "connection");
    const Connection& conn = conns[i];
    ConnectionAnalysis& out = outs[i];
    auto t = Clock::now();
    {
      PB_SPAN(span, "tcp.profile");
      out.profile = compute_profile(conn, scratch.profile);
    }
    auto t1 = Clock::now();
    s.profile += ms_between(t, t1);
    {
      PB_SPAN(span, "core.series");
      build_series(conn, out.profile, opts, scratch.series, out.bundle);
    }
    t = Clock::now();
    s.series += ms_between(t1, t);
    {
      PB_SPAN(span, "bgp.extract");
      const std::uint64_t a0 = thread_alloc_count();
      scratch.extracted.messages.swap(out.messages);
      extract_bgp_messages_into(conn, out.profile.data_dir, scratch.extract,
                                scratch.extracted);
      out.messages.swap(scratch.extracted.messages);
      s.extract_allocs += thread_alloc_count() - a0;
    }
    t1 = Clock::now();
    s.extract += ms_between(t, t1);
    s.messages += out.messages.size();
    {
      PB_SPAN(span, "bgp.mct");
      out.mct = mct_transfer_end(out.messages, conn.start_time(), MctOptions{},
                                 scratch.mct_seen);
    }
    t = Clock::now();
    s.mct += ms_between(t1, t);
    out.transfer = out.mct.update_count > 0 && out.mct.end > conn.start_time()
                       ? TimeRange{conn.start_time(), out.mct.end}
                       : TimeRange{};
    {
      PB_SPAN(span, "core.passes");
      out.findings.reset();
      begin_delay_classification(out.report, out.transfer, scratch.delay);
      const AnalysisContext ctx{conn,         out.profile, out.bundle.registry,
                                out.transfer, opts,        scratch.delay};
      for (PassExecState& ps : scratch.passes) {
        if (opts.passes.enabled(ps.id)) ps.pass->run(ctx, ps.scratch.get(), out);
      }
      finalize_delay_groups(out.report, opts, scratch.delay);
    }
    s.passes += ms_between(t, Clock::now());
    if (i < ref.results.size()) {
      const MctResult& want = ref.results[i].mct;
      if (out.mct.update_count != want.update_count ||
          out.mct.prefix_count != want.prefix_count || out.mct.end != want.end ||
          out.report.factor_ratio != ref.results[i].report.factor_ratio) {
        s.matches_reference = false;
      }
    }
  }
  return s;
}

int run_trace(const Args& a) {
  g_spans.enable();
  OutputStore store(a.out + "/out");
  const std::vector<std::uint8_t> image = read_file(a.capture);
  std::vector<OpRecord> ops;

  // Retained memory of a finished jobs=1 analysis: RSS before and after,
  // measured first, before any other work grows the heap. malloc_trim
  // hands freed heap back to the system before each read, so memory that
  // analyze_file used only temporarily does not count.
  malloc_trim(0);
  const std::size_t rss0 = rss_bytes();
  TraceAnalysis ref;
  {
    PB_SPAN(span, "analyze_file.j1");
    ref = analyze_or_die(a.capture, 1);
  }
  malloc_trim(0);
  const double retained_mb = static_cast<double>(rss_bytes()) / 1e6 -
                             static_cast<double>(rss0) / 1e6;
  std::string ref_json, ref_agg;
  ops.push_back(inproc_op("inproc_1", ref, store, &ref_json, &ref_agg));
  OpRecord agg_rec;
  agg_rec.add_str("kind", "inproc_agg");
  add_stats(agg_rec, ref.stats);
  agg_rec.add_str("agg", store.put(ref_agg, "agg"));
  ops.push_back(std::move(agg_rec));

  AnalysisScratch scratch;
  std::vector<ConnectionAnalysis> outs;
  // Warm-up: the scratch and output slots reach their steady size.
  layer_sweep(a.capture, ref, scratch, outs);

  std::vector<double> ingest, demux, profile, series, extract, extract_allocs,
      mct, passes, report, agg_ms, analyze_allocs, pool_idle, live_ingest,
      live_analyze, live_snapshot, live_retained, live_mb_s, live_epochs;
  Sweep last;
  const AnalyzerOptions opts;
  std::size_t rounds = 0;
  const auto t0 = Clock::now();
  while (rounds == 0 || seconds_since(t0) < a.seconds) {
    last = layer_sweep(a.capture, ref, scratch, outs);
    OpRecord sweep_rec;
    sweep_rec.add_str("kind", "sweep");
    sweep_rec.add("connections", std::to_string(last.connections));
    sweep_rec.add("matches_reference", last.matches_reference ? "true" : "false");
    ops.push_back(std::move(sweep_rec));
    ingest.push_back(last.ingest);
    demux.push_back(last.demux);
    profile.push_back(last.profile);
    series.push_back(last.series);
    extract.push_back(last.extract);
    mct.push_back(last.mct);
    passes.push_back(last.passes);
    const double conns = std::max<double>(1, static_cast<double>(last.connections));
    extract_allocs.push_back(static_cast<double>(last.extract_allocs) / conns);

    {
      // Allocations per warm analyze_connection, over the same connections.
      PB_SPAN(span, "analyze_connection.warm");
      outs.resize(ref.connections.size());
      const std::uint64_t a0 = thread_alloc_count();
      for (std::size_t i = 0; i < ref.connections.size(); ++i) {
        analyze_connection(ref.connections[i], opts, scratch, outs[i]);
      }
      analyze_allocs.push_back(static_cast<double>(thread_alloc_count() - a0) / conns);
    }
    {
      auto r0 = Clock::now();
      std::string json;
      {
        PB_SPAN(span, "core.report");
        json = render_report(build_report_model(ref), ReportFormat::kJson);
      }
      auto r1 = Clock::now();
      report.push_back(ms_between(r0, r1));
      std::string agg;
      {
        PB_SPAN(span, "agg.render");
        agg = render_report(build_report_model(ref), ReportFormat::kAgg);
      }
      agg_ms.push_back(ms_between(r1, Clock::now()));
      OpRecord rec;
      rec.add_str("kind", "render");
      rec.add_str("json", store.put(json, "json"));
      rec.add_str("agg", store.put(agg, "agg"));
      ops.push_back(std::move(rec));
    }
    {
      TraceAnalysis par;
      {
        PB_SPAN(span, "analyze_file.jJ");
        par = analyze_or_die(a.capture, a.jobs);
      }
      const double idle_us =
          static_cast<double>(par.stats.jobs) * static_cast<double>(par.stats.analyze_wall) -
          static_cast<double>(par.stats.connection_us.sum);
      pool_idle.push_back(idle_us / 1e3);
      ops.push_back(inproc_op("inproc_j", par, store));
    }
    {
      LiveSample s = live_replay(a, store, image);
      live_ingest.push_back(static_cast<double>(s.stats.ingest_wall) / 1e3);
      live_analyze.push_back(static_cast<double>(s.stats.analyze_wall) / 1e3);
      live_snapshot.push_back(median(s.snapshot_ms));
      live_retained.push_back(static_cast<double>(s.retained_max));
      live_mb_s.push_back(static_cast<double>(image.size()) / s.wall_s / 1e6);
      live_epochs.push_back(static_cast<double>(s.epochs));
      ops.push_back(std::move(s.rec));
    }
    ++rounds;
  }
  g_spans.write(a.out + "/spans.json");

  std::string m;
  const auto metric = [&m](const char* name, double value, const char* unit) {
    if (!m.empty()) m += ',';
    m += std::string("\"") + name + "\":{\"value\":" + num(value) +
         ",\"unit\":\"" + unit + "\"}";
  };
  metric("pcap.ingest_ms", median(ingest), "ms");
  metric("tcp.demux_ms", median(demux), "ms");
  metric("tcp.profile_ms", median(profile), "ms");
  metric("core.series_ms", median(series), "ms");
  metric("bgp.extract_ms", median(extract), "ms");
  metric("bgp.extract_allocs_per_conn", median(extract_allocs), "count");
  metric("bgp.mct_ms", median(mct), "ms");
  metric("core.passes_ms", median(passes), "ms");
  metric("core.analyze_allocs_per_conn", median(analyze_allocs), "count");
  metric("core.retained_mb", retained_mb, "MB");
  metric("core.report_ms", median(report), "ms");
  metric("agg.render_ms", median(agg_ms), "ms");
  metric("util.pool_idle_ms", median(pool_idle), "ms");
  metric("core.live_ingest_ms", median(live_ingest), "ms");
  metric("core.live_analyze_ms", median(live_analyze), "ms");
  metric("core.live_snapshot_ms", median(live_snapshot), "ms");
  metric("core.live_retained_packets_max", median(live_retained), "count");
  metric("core.live_epochs", median(live_epochs), "count");
  metric("trace.live_replay_mb_s", median(live_mb_s), "MB/s");
  metric("tcp.connections", static_cast<double>(last.connections), "count");
  metric("pcap.packets", static_cast<double>(last.packets), "count");
  metric("bgp.messages", static_cast<double>(last.messages), "count");
  std::printf("{\"rounds\":%zu,\"spans\":%zu,\"ops\":%s,\"metrics\":{%s}}\n", rounds,
              g_spans.size(), join_ops(ops).c_str(), m.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args a = parse_args(argc, argv);
    agg::register_aggregate_sink();
    if (a.mode == "measure") return run_measure(a);
    if (a.mode == "trace") return run_trace(a);
    die("unknown mode " + a.mode);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_drive: %s\n", e.what());
    return 1;
  }
}
