// tdat — the analysis tool suite (paper Table VI) as one binary.
//
//   tdat analyze  <trace.pcap>... [--location receiver|sender|middle]
//                 [--format text|json|csv | --json] [--detectors LIST]
//                 [--jobs N] [--stats|--quiet-stats]
//                 [--trace FILE] [--metrics FILE]
//                 [--log-level LEVEL] [--progress]
//                 [--series NAME]...          T-DAT delay analysis
//   tdat passes                               list the registered passes
//   tdat pcap2mrt <trace.pcap> <out.mrt>      reconstruct BGP msgs -> MRT
//   tdat mrtcat   <archive.mrt> [-n N]        print an MRT archive
//   tdat timeseq  <trace.pcap> [conn-index]   time-sequence plot (BGPlot)
//   tdat simulate <scenario> <out.pcap>       generate a demo capture
//                 scenarios: baseline timer loss slow-collector window
//                            narrow-pipe probe-bug
//   tdat corrupt  <in.pcap> <out.pcap> --mode M [--seed S] [--count N]
//                 deterministically damage a capture (fault injection)
//   tdat metrics  <trace.pcap>...             analyze quietly, print the
//                 metrics registry in Prometheus text exposition format
//   tdat aggregate <in.tdagg>... [--output F] merge result archives, print
//                 fleet roll-ups, or diff against a baseline aggregate
//   tdat shard    <in.pcap> <outdir> [--shards N]
//                 split a capture into per-connection shards
//   tdat shard    <in.pcap> --plan [--shards N]
//                 print the zero-copy offset-run shard plan as JSON
//   tdat fleet    <trace.pcap> --workers N        multi-process analysis:
//                 plan shards, fork workers, merge streamed archives
//   tdat fleet    --connect HOST:PORT             join a remote coordinator
//   tdat watch    <growing.pcap> [--output F]     always-on incremental
//                 analysis of a capture still being written: periodic
//                 report snapshots, bounded memory, SIGTERM drains cleanly
//   tdat version                                  build identification
//
// Exit codes: 0 = clean run; 1 = analysis completed but the input had
// recoverable errors (ingest damage or quarantined connections) or a sidecar
// file could not be written (for `aggregate --diff`: regressions found);
// 2 = usage error; 3 = unreadable input.
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include "agg/archive.hpp"
#include "agg/rollup.hpp"
#include "agg/sink.hpp"
#include "bgp/table_gen.hpp"
#include "core/checkpoint.hpp"
#include "core/export.hpp"
#include "core/live.hpp"
#include "core/live_source.hpp"
#include "core/pass.hpp"
#include "core/report.hpp"
#include "core/series_names.hpp"
#include "core/timeseq.hpp"
#include "fleet/coordinator.hpp"
#include "fleet/shard_plan.hpp"
#include "fleet/worker.hpp"
#include "pcap/decode.hpp"
#include "pcap/fault_injector.hpp"
#include "sim/world.hpp"
#include "util/atomic_file.hpp"
#include "util/crash_point.hpp"
#include "util/log.hpp"
#include "util/metrics.hpp"
#include "util/parse.hpp"
#include "util/trace.hpp"
#include "util/version.hpp"

namespace {

using namespace tdat;

int usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  tdat analyze  <trace.pcap>... [--location"
               " receiver|sender|middle] [--series NAME]...\n"
               "                (several files, or a directory of rotated"
               " captures, analyze as one trace)\n"
               "                [--format text|json|csv|agg]  output format"
               " (--json = --format json;\n"
               "                 agg = binary .tdagg result archive for 'tdat"
               " aggregate')\n"
               "                [--run-id ID]      shard/run label stamped"
               " into --format agg archives\n"
               "                [--detectors LIST] all, none, or"
               " comma-separated pass names (see 'tdat passes')\n"
               "                [--jobs N] [--stats|--quiet-stats]"
               "   (default jobs: hardware threads, or $TDAT_JOBS)\n"
               "                [--trace FILE]     write a Chrome trace_event"
               " JSON (chrome://tracing, Perfetto)\n"
               "                [--metrics FILE]   write the metrics registry"
               " snapshot sidecar\n"
               "                [--metrics-format json|prometheus]  sidecar"
               " format (default json)\n"
               "                [--log-level L]    trace|debug|info|warn|error"
               "|off (default warn)\n"
               "                [--progress]       live progress ticker on"
               " stderr\n"
               "                [--strict]         stop at the first corrupt"
               " record (historical tail-drop)\n"
               "                [--max-errors N]   resync recovery budget per"
               " file (default 1000)\n"
               "                [--no-mmap]        force the chunked streaming"
               " reader (default: mmap regular files)\n"
               "                [--fleet N]        analyze with an N-worker"
               " process fleet (requires --format agg)\n"
               "  tdat passes   list the registered analysis passes\n"
               "  tdat pcap2mrt <trace.pcap> <out.mrt>\n"
               "  tdat mrtcat   <archive.mrt> [-n N]\n"
               "  tdat timeseq  <trace.pcap> [conn-index]\n"
               "  tdat simulate <scenario> <out.pcap> [--sessions N]\n"
               "      scenarios: baseline timer loss slow-collector window"
               " narrow-pipe probe-bug\n"
               "  tdat corrupt  <in.pcap> <out.pcap> --mode MODE [--seed S]"
               " [--count N]\n"
               "      deterministic capture damage; modes: bit-flip"
               " truncate-tail truncate-record\n"
               "      zero-incl-len overlong-incl-len duplicate-record"
               " reorder-records timestamp-jump\n"
               "      garbage-splice\n"
               "  tdat metrics  <trace.pcap>... [--jobs N]\n"
               "      analyze quietly, print Prometheus text exposition on"
               " stdout\n"
               "  tdat aggregate <in.tdagg>... [--output FILE]"
               " [--report text|json]\n"
               "                [--by peer|as|collector|run]  roll up one"
               " dimension (default: all)\n"
               "                [--diff BASELINE.tdagg]  regression report vs"
               " a baseline aggregate\n"
               "      merge is order-independent: any merge order of the same"
               " archives is byte-identical\n"
               "  tdat shard    <in.pcap> <outdir> [--shards N]  |  tdat"
               " shard <in.pcap> --plan [--shards N]\n"
               "      split records into shard-K.pcap by connection (same"
               " connection -> same shard);\n"
               "      --plan prints the zero-copy offset-run plan as JSON"
               " instead of writing shard files\n"
               "      (the file-writing mode is the portability fallback for"
               " workers without shared storage)\n"
               "  tdat fleet    <trace.pcap> [--workers N] [--shards M]"
               " [--output FILE] [--run-id ID]\n"
               "                [--jobs N] [--location receiver|sender|middle]"
               " [--detectors LIST]\n"
               "                [--heartbeat-ms N] [--timeout-ms N]"
               " [--max-respawns N] [--stats|--quiet-stats]\n"
               "                [--listen HOST:PORT]  accept remote workers"
               " instead of forking local ones\n"
               "                [--strict] [--max-errors N]\n"
               "      zero-copy shard plan -> N workers over the same capture"
               " -> merged .tdagg on stdout\n"
               "      (byte-identical to single-process 'analyze --format"
               " agg'; no shard pcaps written)\n"
               "  tdat fleet    --connect HOST:PORT\n"
               "      run as a remote worker for a '--listen' coordinator\n"
               "  tdat watch    <growing.pcap> [--output FILE]"
               " [--snapshot-dir DIR]\n"
               "                [--format text|json|csv|agg]"
               " [--snapshot-interval SECS] [--poll-ms N]\n"
               "                [--window SECS] [--idle-gc SECS]  bounded"
               " memory: evict packet history\n"
               "                 older than the window; retire connections"
               " idle past --idle-gc\n"
               "                [--run-id ID] [--jobs N] [--detectors LIST]"
               " [--location receiver|sender|middle]\n"
               "                [--strict] [--max-errors N] [--log-level L]"
               " [--stats|--quiet-stats] [--once]\n"
               "                [--checkpoint FILE]  durable .tdckpt resume"
               " state, rewritten with each\n"
               "                 snapshot; on restart a valid checkpoint"
               " resumes mid-capture (a torn,\n"
               "                 corrupt, or mismatched one falls back to full"
               " replay, never a crash)\n"
               "      tail a growing (and rotating) capture; emit a report"
               " snapshot every interval\n"
               "      (--output replaces FILE atomically; --snapshot-dir"
               " keeps one file per snapshot;\n"
               "       no sink flag prints to stdout). SIGINT/SIGTERM drain"
               " and write a final snapshot;\n"
               "      SIGHUP forces an immediate out-of-cycle snapshot +"
               " checkpoint;\n"
               "      --once drains what is on disk now and exits\n"
               "  tdat version  print version, git revision, build type\n"
               "exit codes: 0 clean, 1 completed with recoverable input"
               " errors (aggregate --diff: regressions), 2 usage,"
               " 3 unreadable input\n");
  return 2;
}

Result<PcapFile> load(const char* path) { return read_pcap_file(path); }

// Live pipeline ticker for `analyze --progress`: a sampling thread reads the
// global metric counters the pipeline already maintains (no analyzer hooks
// needed) and repaints one stderr line. On a TTY the line is redrawn in
// place a few times a second; piped to a file it appends a plain line every
// couple of seconds instead, so logs stay diff-friendly.
class ProgressTicker {
 public:
  ProgressTicker() {
#if defined(__unix__) || defined(__APPLE__)
    tty_ = isatty(fileno(stderr)) != 0;
#endif
    thread_ = std::thread([this] { run(); });
  }

  ~ProgressTicker() {
    stop_.store(true, std::memory_order_relaxed);
    thread_.join();
    if (drew_ && tty_) std::fprintf(stderr, "\r\033[K");
  }

  ProgressTicker(const ProgressTicker&) = delete;
  ProgressTicker& operator=(const ProgressTicker&) = delete;

 private:
  void run() {
    MetricsRegistry& reg = metrics();
    Counter& records = reg.counter("pcap.records");
    Counter& bytes = reg.counter("pcap.bytes");
    Counter& done = reg.counter("analyze.connections_done");
    const auto interval =
        std::chrono::milliseconds(tty_ ? 150 : 2000);
    auto next_paint = std::chrono::steady_clock::now() + interval;
    while (!stop_.load(std::memory_order_relaxed)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(25));
      if (std::chrono::steady_clock::now() < next_paint) continue;
      next_paint += interval;
      paint(records.value(), bytes.value(), done.value());
    }
  }

  void paint(std::uint64_t records, std::uint64_t bytes, std::uint64_t done) {
    if (!tty_ && records == last_records_ && done == last_done_) return;
    last_records_ = records;
    last_done_ = done;
    drew_ = true;
    std::fprintf(stderr,
                 "%s[tdat] %llu records (%.1f MB) read, %llu connections"
                 " analyzed%s",
                 tty_ ? "\r\033[K" : "",
                 static_cast<unsigned long long>(records),
                 static_cast<double>(bytes) / 1e6,
                 static_cast<unsigned long long>(done), tty_ ? "" : "\n");
    if (tty_) std::fflush(stderr);
  }

  std::thread thread_;
  std::atomic<bool> stop_{false};
  bool tty_ = false;
  bool drew_ = false;
  std::uint64_t last_records_ = 0;
  std::uint64_t last_done_ = 0;
};

// Writes the process-wide metrics snapshot to `path` — one JSON object, or
// the Prometheus text exposition when `prometheus` (for node_exporter's
// textfile collector and friends).
bool write_metrics_file(const std::string& path, bool prometheus) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  std::string body = prometheus ? metrics().to_prometheus() : metrics().to_json();
  if (!prometheus) body += '\n';
  const bool ok = std::fwrite(body.data(), 1, body.size(), f) == body.size();
  return std::fclose(f) == 0 && ok;
}

// Everything `tdat analyze` accepts, parsed by one loop so every flag gets
// the same treatment: unknown flags, missing values, and malformed numbers
// all come back as one-line errors instead of the generic usage dump.
struct AnalyzeCommand {
  AnalyzerOptions opts;
  std::vector<std::string> inputs;  // files and/or directories
  ReportFormat format = ReportFormat::kText;
  bool show_stats = true;
  bool progress = false;
  bool metrics_prometheus = false;
  std::size_t fleet_workers = 0;  // 0 = in-process (no fleet)
  std::string trace_path;
  std::string metrics_path;
  std::string log_level;
  ReportRenderOptions render;
};

// The one-line usage error (exit 2) for an integer flag value that
// parse_uint rejects, in the subcommands without a Result-based parser.
int bad_number(const char* cmd, const char* flag, const char* value) {
  std::fprintf(stderr, "tdat %s: %s: not a number: '%s'\n", cmd, flag, value);
  return 2;
}

// The one --location parser (analyze, watch, fleet).
Result<SnifferLocation> parse_location(std::string_view where) {
  if (where == "receiver") return SnifferLocation::kNearReceiver;
  if (where == "sender") return SnifferLocation::kNearSender;
  if (where == "middle") return SnifferLocation::kMiddle;
  return Err<SnifferLocation>("--location: unknown location '" +
                              std::string(where) +
                              "' (valid: receiver, sender, middle)");
}

// The value of flag argv[i]; `i` advances past it on success.
Result<std::string> flag_value(int argc, char** argv, int& i) {
  if (i + 1 >= argc) {
    return Err<std::string>(std::string("flag '") + argv[i] +
                            "' needs a value");
  }
  return std::string(argv[++i]);
}

// The value of flag argv[i] as a count. Every integer flag goes through
// parse_uint: digits only, so "-1" is an error rather than a huge count.
Result<std::uint64_t> flag_count(int argc, char** argv, int& i) {
  const std::string flag = argv[i];
  TDAT_TRY(v, flag_value(argc, argv, i));
  if (const auto n = parse_uint(v)) return *n;
  return Err<std::uint64_t>(flag + ": not a number: '" + v + "'");
}

// The analysis flags `analyze` and `watch` share; false if argv[i] is not
// one of them.
Result<bool> parse_analysis_flag(int argc, char** argv, int& i,
                                 AnalyzerOptions& opts) {
  const std::string_view arg = argv[i];
  if (arg == "--jobs") {
    TDAT_TRY(jobs, flag_count(argc, argv, i));
    opts.jobs = jobs;  // 0 = hardware default
  } else if (arg == "--max-errors") {
    TDAT_TRY(budget, flag_count(argc, argv, i));
    opts.ingest.max_errors = budget;
  } else if (arg == "--strict") {
    opts.ingest.strict = true;
  } else if (arg == "--location") {
    TDAT_TRY(where, flag_value(argc, argv, i));
    TDAT_TRY(location, parse_location(where));
    opts.location = location;
  } else if (arg == "--detectors") {
    TDAT_TRY(list, flag_value(argc, argv, i));
    auto selection = parse_detector_selection(list);
    if (!selection.ok()) return Err<bool>("--detectors: " + selection.error());
    opts.passes = selection.value();
  } else {
    return false;
  }
  return true;
}

Result<AnalyzeCommand> parse_analyze_args(int argc, char** argv) {
  AnalyzeCommand cmd;
  cmd.opts.jobs = 0;  // default: hardware concurrency (or $TDAT_JOBS)
  const auto value_of = [&](int& i) { return flag_value(argc, argv, i); };
  for (int i = 0; i < argc; ++i) {
    TDAT_TRY(shared, parse_analysis_flag(argc, argv, i, cmd.opts));
    if (shared) continue;
    const std::string_view arg = argv[i];
    if (arg == "--json") {
      cmd.format = ReportFormat::kJson;
    } else if (arg == "--format") {
      TDAT_TRY(value, value_of(i));
      auto format = parse_report_format(value);
      if (!format.ok()) return Err<AnalyzeCommand>("--format: " + format.error());
      cmd.format = format.value();
    } else if (arg == "--series") {
      TDAT_TRY(name, value_of(i));
      cmd.render.series.push_back(std::move(name));
    } else if (arg == "--stats") {
      cmd.show_stats = true;
    } else if (arg == "--quiet-stats") {
      cmd.show_stats = false;
    } else if (arg == "--trace") {
      TDAT_TRY(path, value_of(i));
      cmd.trace_path = std::move(path);
    } else if (arg == "--metrics") {
      TDAT_TRY(path, value_of(i));
      cmd.metrics_path = std::move(path);
    } else if (arg == "--metrics-format") {
      TDAT_TRY(fmt, value_of(i));
      if (fmt == "prometheus") {
        cmd.metrics_prometheus = true;
      } else if (fmt == "json") {
        cmd.metrics_prometheus = false;
      } else {
        return Err<AnalyzeCommand>("--metrics-format: unknown format '" + fmt +
                                   "' (valid: json, prometheus)");
      }
    } else if (arg == "--run-id") {
      TDAT_TRY(id, value_of(i));
      cmd.render.run_id = std::move(id);
    } else if (arg == "--log-level") {
      TDAT_TRY(level, value_of(i));
      cmd.log_level = std::move(level);
    } else if (arg == "--progress") {
      cmd.progress = true;
    } else if (arg == "--no-mmap") {
      cmd.opts.ingest.use_mmap = false;
    } else if (arg == "--fleet") {
      TDAT_TRY(workers, value_of(i));
      const auto v = parse_uint(workers, 1);
      if (!v) {
        return Err<AnalyzeCommand>("--fleet: need a positive worker count");
      }
      cmd.fleet_workers = *v;
    } else if (arg.size() >= 2 && arg.substr(0, 2) == "--") {
      return Err<AnalyzeCommand>("unknown flag '" + std::string(arg) + "'");
    } else {
      cmd.inputs.emplace_back(arg);
    }
  }
  if (cmd.inputs.empty()) {
    return Err<AnalyzeCommand>("no input capture given");
  }
  return cmd;
}

void print_fleet_stats(const fleet::FleetStats& st) {
  std::fprintf(stderr,
               "[tdat] fleet: %llu records (%.2f MB) over %zu shards,"
               " %zu workers (%zu reassignments, %zu respawns) in %.3fs"
               " (plan %.3fs): %.1f MB/s aggregate\n",
               static_cast<unsigned long long>(st.records),
               static_cast<double>(st.capture_bytes) / 1e6, st.shards,
               st.workers, st.reassignments, st.respawns,
               static_cast<double>(st.total_wall_us) / 1e6,
               static_cast<double>(st.plan_wall_us) / 1e6,
               st.bytes_per_sec() / 1e6);
  for (const fleet::WorkerStats& w : st.per_worker) {
    std::fprintf(stderr,
                 "[tdat]   worker %u%s: %zu shard(s), %llu records, %.2f MB"
                 " in %.3fs busy -> %.1f MB/s\n",
                 w.worker_id, w.remote ? " (remote)" : "", w.shards_done,
                 static_cast<unsigned long long>(w.records),
                 static_cast<double>(w.bytes_ingested) / 1e6,
                 static_cast<double>(w.busy_us) / 1e6,
                 w.bytes_per_sec() / 1e6);
  }
}

// Shared tail of `tdat fleet` and `analyze --fleet`: run the fleet, emit the
// merged archive, surface recoverable capture damage in the exit code the
// same way a single-process `analyze` run does.
int run_fleet_and_emit(const std::string& capture,
                       const fleet::FleetOptions& opts,
                       const std::string& output, bool show_stats,
                       const char* tool) {
  auto outcome = fleet::run_fleet(capture, opts);
  if (!outcome.ok()) {
    std::fprintf(stderr, "%s: %s\n", tool, outcome.error().c_str());
    return 3;
  }
  const std::string bytes = outcome.value().archive.serialize();
  if (output.empty()) {
    std::fwrite(bytes.data(), 1, bytes.size(), stdout);
  } else {
    std::FILE* f = std::fopen(output.c_str(), "wb");
    const bool wrote =
        f != nullptr && std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size();
    if (f != nullptr && std::fclose(f) != 0) {
      std::fprintf(stderr, "%s: cannot write %s\n", tool, output.c_str());
      return 1;
    }
    if (!wrote) {
      std::fprintf(stderr, "%s: cannot write %s\n", tool, output.c_str());
      return 1;
    }
  }
  if (show_stats) print_fleet_stats(outcome.value().stats);
  return outcome.value().archive.ingest.has_errors() ||
                 outcome.value().archive.quarantined() > 0
             ? 1
             : 0;
}

int cmd_analyze(int argc, char** argv) {
  auto parsed = parse_analyze_args(argc, argv);
  if (!parsed.ok()) {
    std::fprintf(stderr, "tdat analyze: %s (run 'tdat' for usage)\n",
                 parsed.error().c_str());
    return 2;
  }
  AnalyzeCommand& cmd = parsed.value();
  if (!cmd.log_level.empty() && !set_log_level(cmd.log_level)) {
    std::fprintf(stderr,
                 "tdat analyze: --log-level: unknown level '%s'"
                 " (run 'tdat' for usage)\n",
                 cmd.log_level.c_str());
    return 2;
  }
  // `--fleet N` sugar: plan + multi-process fleet + merged archive, the
  // byte-identical scale-out form of `--format agg` (see `tdat fleet`).
  if (cmd.fleet_workers > 0) {
    if (cmd.format != ReportFormat::kAgg) {
      std::fprintf(stderr,
                   "tdat analyze: --fleet requires --format agg (run 'tdat'"
                   " for usage)\n");
      return 2;
    }
    if (cmd.inputs.size() != 1 ||
        std::filesystem::is_directory(cmd.inputs.front())) {
      std::fprintf(stderr,
                   "tdat analyze: --fleet takes exactly one capture file\n");
      return 2;
    }
    fleet::FleetOptions fopts;
    fopts.workers = cmd.fleet_workers;
    fopts.run_id = cmd.render.run_id;
    fopts.analyzer = cmd.opts;
    const int rc = run_fleet_and_emit(cmd.inputs.front(), fopts, "",
                                      cmd.show_stats, "tdat analyze");
    if (!cmd.metrics_path.empty() &&
        !write_metrics_file(cmd.metrics_path, cmd.metrics_prometheus)) {
      std::fprintf(stderr, "cannot write metrics to %s\n",
                   cmd.metrics_path.c_str());
      return rc == 0 ? 1 : rc;
    }
    return rc;
  }
  // Observability sidecars never touch the analysis output: traces and
  // metrics go to their own files, progress goes to stderr, so a run with
  // these flags is byte-identical on stdout to a run without them.
  if (!cmd.trace_path.empty()) trace_start();
  // Streaming ingest: chunked read + decode + demux, then per-connection
  // analysis on the pool. A single capture file takes the single-stream
  // path; several files or a directory are concatenated in rotation order.
  // Every path produces identical results for identical packets.
  Result<TraceAnalysis> analyzed = [&] {
    std::optional<ProgressTicker> ticker;
    if (cmd.progress) ticker.emplace();
    if (cmd.inputs.size() == 1 &&
        !std::filesystem::is_directory(cmd.inputs.front())) {
      return analyze_file(cmd.inputs.front(), cmd.opts);
    }
    return analyze_files(cmd.inputs, cmd.opts);
  }();
  int rc = 0;
  if (!cmd.trace_path.empty() && !trace_stop(cmd.trace_path)) {
    std::fprintf(stderr, "cannot write trace to %s\n", cmd.trace_path.c_str());
    rc = 1;
  }
  if (!cmd.metrics_path.empty() &&
      !write_metrics_file(cmd.metrics_path, cmd.metrics_prometheus)) {
    std::fprintf(stderr, "cannot write metrics to %s\n",
                 cmd.metrics_path.c_str());
    rc = 1;
  }
  if (!analyzed.ok()) {
    std::fprintf(stderr, "%s\n", analyzed.error().c_str());
    return 3;  // unreadable input (exit-code contract, see usage)
  }
  const TraceAnalysis& analysis = analyzed.value();
  const ReportModel model = build_report_model(analysis);
  const std::string rendered = render_report(model, cmd.format, cmd.render);
  std::fwrite(rendered.data(), 1, rendered.size(), stdout);
  // The analysis completed, but with recoverable input damage: surface it in
  // the exit code so scripted runs notice without parsing the report.
  if (analysis.stats.ingest.has_errors() || analysis.stats.quarantined > 0) {
    rc = 1;
  }
  if (cmd.show_stats) {
    const PipelineStats& st = analysis.stats;
    std::fprintf(stderr,
                 "[tdat] %llu records (%.2f MB) -> %llu packets -> %llu"
                 " connections in %.3fs (ingest %.3fs + analyze %.3fs,"
                 " jobs=%zu): %.1f MB/s, %.0f pkt/s, %.2f conn/s\n"
                 "[tdat] stage rates: ingest %.1f MB/s,"
                 " decode %.1f MB/s, analysis %.1f MB/s\n",
                 static_cast<unsigned long long>(st.records),
                 static_cast<double>(st.bytes_ingested) / 1e6,
                 static_cast<unsigned long long>(st.packets),
                 static_cast<unsigned long long>(st.connections),
                 to_seconds(st.total_wall), to_seconds(st.ingest_wall),
                 to_seconds(st.analyze_wall), st.jobs,
                 st.bytes_per_sec() / 1e6, st.packets_per_sec(),
                 st.connections_per_sec(), st.ingest_bytes_per_sec() / 1e6,
                 st.decode_bytes_per_sec() / 1e6,
                 st.analysis_bytes_per_sec() / 1e6);
  }
  return rc;
}

int cmd_passes() {
  std::printf("registered analysis passes (run in this order):\n");
  for (std::size_t id = 0; id < pass_registry().size(); ++id) {
    const PassInfo& info = pass_registry().passes()[id]->info();
    std::printf("  %2zu  %-22s %-9s %s", id, info.name, to_string(info.kind),
                info.summary);
    if (!info.deps.empty()) {
      std::printf("  [reads:");
      for (const char* dep : info.deps) std::printf(" %s", dep);
      std::printf("]");
    }
    std::printf("\n");
  }
  std::printf(
      "factor passes always run; choose detectors with"
      " --detectors=all|none|name,name,...\n");
  return 0;
}

int cmd_pcap2mrt(int argc, char** argv) {
  if (argc != 2) return usage();
  const auto trace = load(argv[0]);
  if (!trace.ok()) {
    std::fprintf(stderr, "%s\n", trace.error().c_str());
    return 3;
  }
  std::vector<MrtRecord> all;
  for (const Connection& conn : split_connections(decode_pcap(trace.value()))) {
    const auto profile = compute_profile(conn);
    const auto result = extract_bgp_messages(conn, profile.data_dir);
    const auto records = to_mrt_records(conn, profile.data_dir, result.messages);
    std::printf("%s: %zu messages\n", conn.key.to_string().c_str(),
                records.size());
    all.insert(all.end(), records.begin(), records.end());
  }
  if (!write_mrt_file(argv[1], all)) {
    std::fprintf(stderr, "cannot write %s\n", argv[1]);
    return 1;
  }
  std::printf("wrote %zu MRT records to %s\n", all.size(), argv[1]);
  return 0;
}

int cmd_mrtcat(int argc, char** argv) {
  if (argc < 1) return usage();
  std::optional<std::uint64_t> limit;  // unset = every record
  if (argc >= 3 && std::strcmp(argv[1], "-n") == 0) {
    limit = parse_uint(argv[2]);
    if (!limit) return bad_number("mrtcat", "-n", argv[2]);
  }
  const auto records = read_mrt_file(argv[0]);
  if (!records.ok()) {
    std::fprintf(stderr, "%s\n", records.error().c_str());
    return 3;
  }
  std::uint64_t shown = 0;
  for (const MrtRecord& rec : records.value()) {
    if (limit && shown++ >= *limit) break;
    const auto msg = rec.parse();
    std::printf("%lld  AS%u -> AS%u  ", static_cast<long long>(rec.ts / kMicrosPerSec),
                rec.peer_as, rec.local_as);
    if (!msg.ok()) {
      std::printf("(unparseable: %s)\n", msg.error().c_str());
      continue;
    }
    std::printf("%s", to_string(msg.value().type()));
    if (const BgpUpdate* upd = msg.value().as_update()) {
      std::printf("  nlri=%zu withdrawn=%zu", upd->nlri.size(),
                  upd->withdrawn.size());
      if (!upd->nlri.empty()) {
        std::printf("  %s  path %s", upd->nlri.front().to_string().c_str(),
                    upd->attrs.as_path_string().c_str());
      }
    }
    std::printf("\n");
  }
  std::printf("(%zu records total)\n", records.value().size());
  return 0;
}

int cmd_timeseq(int argc, char** argv) {
  if (argc < 1) return usage();
  const auto index = argc >= 2 ? parse_uint(argv[1]) : std::uint64_t{0};
  if (!index) return bad_number("timeseq", "connection index", argv[1]);
  const auto trace = load(argv[0]);
  if (!trace.ok()) {
    std::fprintf(stderr, "%s\n", trace.error().c_str());
    return 3;
  }
  const auto conns = split_connections(decode_pcap(trace.value()));
  if (*index >= conns.size()) {
    std::fprintf(stderr, "connection %zu of %zu not found\n",
                 static_cast<std::size_t>(*index), conns.size());
    return 1;
  }
  const auto& conn = conns[*index];
  const auto profile = compute_profile(conn);
  const auto flow = classify_data_packets(conn, profile.data_dir, ClassifyOptions{});
  std::printf("%s\n", conn.key.to_string().c_str());
  std::printf("%s", render_time_sequence(
                        conn, flow, {conn.start_time(), conn.end_time() + 1})
                        .c_str());
  return 0;
}

int cmd_simulate(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string scenario = argv[0];
  std::size_t sessions = 1;
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--sessions") == 0 && i + 1 < argc) {
      const auto v = parse_uint(argv[++i], 1);
      if (!v) {
        std::fprintf(stderr, "--sessions: need a positive count\n");
        return 2;
      }
      sessions = *v;
    } else {
      return usage();
    }
  }
  SimWorld world(12345);
  SessionSpec spec;
  if (scenario == "timer") {
    spec.bgp.timer_driven = true;
    spec.bgp.timer_interval = 200 * kMicrosPerMilli;
    spec.bgp.msgs_per_tick = 60;
  } else if (scenario == "loss") {
    spec.up_fwd.random_loss = 0.03;
  } else if (scenario == "slow-collector") {
    spec.receiver_tcp.recv_buf_capacity = 8 * 1024;
    spec.collector.read_interval = 300 * kMicrosPerMilli;
    spec.collector.read_chunk = 8 * 1024;
  } else if (scenario == "window") {
    spec.receiver_tcp.recv_buf_capacity = 16 * 1024;
    spec.up_fwd.propagation_delay = 25 * kMicrosPerMilli;
    spec.up_rev.propagation_delay = 25 * kMicrosPerMilli;
  } else if (scenario == "narrow-pipe") {
    spec.up_fwd.rate_bytes_per_sec = 100'000;
    spec.up_fwd.queue_packets = 10'000;
  } else if (scenario == "probe-bug") {
    spec.sender_tcp.zero_window_probe_bug = true;
    spec.receiver_tcp.recv_buf_capacity = 4 * 1024;
    spec.collector.read_interval = 300 * kMicrosPerMilli;
    spec.collector.read_chunk = 2 * 1024;
  } else if (scenario != "baseline") {
    return usage();
  }
  Rng rng(54321);
  TableGenConfig tg;
  tg.prefix_count = 8'000;
  // Each extra session is its own BGP peer (distinct addresses are assigned
  // by add_session), so the capture demuxes into `sessions` connections —
  // handy for exercising the parallel analysis pool.
  for (std::size_t i = 0; i < sessions; ++i) {
    const auto s =
        world.add_session(spec, serialize_updates(generate_table(tg, rng)));
    world.start_session(s, static_cast<Micros>(i) * 10 * kMicrosPerMilli);
  }
  world.run_until(600 * kMicrosPerSec);
  const PcapFile trace = world.take_trace();
  if (!write_pcap_file(argv[1], trace)) {
    std::fprintf(stderr, "cannot write %s\n", argv[1]);
    return 1;
  }
  std::printf("wrote %zu packets (%s scenario) to %s\n", trace.records.size(),
              scenario.c_str(), argv[1]);
  return 0;
}

// Deterministic capture damage from the command line: the same fault
// injector the corruption-matrix test uses, so a recovery scenario seen in
// tests can be reproduced on a real capture (and vice versa).
int cmd_corrupt(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string in_path = argv[0];
  const std::string out_path = argv[1];
  FaultPlan plan;
  bool have_mode = false;
  for (int i = 2; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto value_of = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--mode") {
      const char* value = value_of();
      const auto mode = value ? parse_fault_mode(value) : std::nullopt;
      if (!mode) {
        std::fprintf(stderr, "tdat corrupt: --mode: unknown or missing mode"
                     " (run 'tdat' for the list)\n");
        return 2;
      }
      plan.mode = *mode;
      have_mode = true;
    } else if (arg == "--seed" || arg == "--count") {
      const char* value = value_of();
      if (value == nullptr) return usage();
      const auto v = parse_uint(value);
      if (!v) return bad_number("corrupt", argv[i - 1], value);
      if (arg == "--seed") {
        plan.seed = *v;
      } else {
        plan.count = *v;
      }
    } else {
      return usage();
    }
  }
  if (!have_mode) return usage();

  std::FILE* in = std::fopen(in_path.c_str(), "rb");
  if (in == nullptr) {
    std::fprintf(stderr, "tdat corrupt: cannot open %s\n", in_path.c_str());
    return 3;
  }
  std::vector<std::uint8_t> image;
  std::uint8_t buf[1 << 16];
  std::size_t got = 0;
  while ((got = std::fread(buf, 1, sizeof(buf), in)) > 0) {
    image.insert(image.end(), buf, buf + got);
  }
  std::fclose(in);

  const FaultReport report = inject_faults(image, plan);
  if (report.faults_applied == 0) {
    std::fprintf(stderr, "tdat corrupt: %s is not a pcap image with records"
                 " this mode can damage\n", in_path.c_str());
    return 3;
  }
  std::FILE* out = std::fopen(out_path.c_str(), "wb");
  bool wrote = out != nullptr &&
               std::fwrite(image.data(), 1, image.size(), out) == image.size();
  if (out != nullptr && std::fclose(out) != 0) wrote = false;
  if (!wrote) {
    std::fprintf(stderr, "tdat corrupt: cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("%s: applied %zu %s fault(s) touching %zu record(s) -> %s\n",
              in_path.c_str(), report.faults_applied, to_string(plan.mode),
              report.touched_records.size(), out_path.c_str());
  return 0;
}

// `tdat metrics`: run the analysis pipeline with its reports suppressed and
// print the metrics registry as Prometheus text exposition — the one-shot
// scrape form of `analyze --metrics F --metrics-format prometheus`.
int cmd_metrics(int argc, char** argv) {
  AnalyzerOptions opts;
  opts.jobs = 0;
  std::vector<std::string> inputs;
  for (int i = 0; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--jobs" && i + 1 < argc) {
      const auto v = parse_uint(argv[++i]);
      if (!v) return bad_number("metrics", "--jobs", argv[i]);
      opts.jobs = *v;
    } else if (arg.size() >= 2 && arg.substr(0, 2) == "--") {
      std::fprintf(stderr, "tdat metrics: unknown flag '%s'\n",
                   std::string(arg).c_str());
      return 2;
    } else {
      inputs.emplace_back(arg);
    }
  }
  if (inputs.empty()) return usage();
  const auto analyzed = analyze_files(inputs, opts);
  if (!analyzed.ok()) {
    std::fprintf(stderr, "%s\n", analyzed.error().c_str());
    return 3;
  }
  const std::string body = metrics().to_prometheus();
  std::fwrite(body.data(), 1, body.size(), stdout);
  return analyzed.value().stats.ingest.has_errors() ||
                 analyzed.value().stats.quarantined > 0
             ? 1
             : 0;
}

Result<agg::RollupBy> parse_rollup_by(const std::string& value) {
  if (value == "peer") return agg::RollupBy::kPeer;
  if (value == "as") return agg::RollupBy::kAs;
  if (value == "collector") return agg::RollupBy::kCollector;
  if (value == "run") return agg::RollupBy::kRun;
  return Err<agg::RollupBy>("unknown dimension '" + value +
                            "' (valid: peer, as, collector, run)");
}

// `tdat aggregate`: merge N archives (associative and order-independent —
// the merged bytes are a pure function of the input multiset), then either
// write the merged archive, print roll-ups, or diff against a baseline.
int cmd_aggregate(int argc, char** argv) {
  std::vector<std::string> inputs;
  std::string output;
  std::string diff_path;
  bool json = false;
  std::optional<agg::RollupBy> by;
  for (int i = 0; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto value_of = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--output") {
      const char* v = value_of();
      if (v == nullptr) return usage();
      output = v;
    } else if (arg == "--diff") {
      const char* v = value_of();
      if (v == nullptr) return usage();
      diff_path = v;
    } else if (arg == "--report") {
      const char* v = value_of();
      if (v == nullptr || (std::strcmp(v, "text") != 0 &&
                           std::strcmp(v, "json") != 0)) {
        std::fprintf(stderr,
                     "tdat aggregate: --report: valid formats: text, json\n");
        return 2;
      }
      json = std::strcmp(v, "json") == 0;
    } else if (arg == "--by") {
      const char* v = value_of();
      auto parsed = parse_rollup_by(v == nullptr ? "" : v);
      if (!parsed.ok()) {
        std::fprintf(stderr, "tdat aggregate: --by: %s\n",
                     parsed.error().c_str());
        return 2;
      }
      by = parsed.value();
    } else if (arg.size() >= 2 && arg.substr(0, 2) == "--") {
      std::fprintf(stderr, "tdat aggregate: unknown flag '%s'\n",
                   std::string(arg).c_str());
      return 2;
    } else {
      inputs.emplace_back(arg);
    }
  }
  if (inputs.empty()) return usage();
  agg::Archive merged;
  for (const std::string& path : inputs) {
    auto archive = agg::read_archive_file(path);
    if (!archive.ok()) {
      std::fprintf(stderr, "tdat aggregate: %s\n", archive.error().c_str());
      return 3;
    }
    merged.merge_from(archive.value());
  }
  if (!output.empty() && !agg::write_archive_file(output, merged)) {
    std::fprintf(stderr, "tdat aggregate: cannot write %s\n", output.c_str());
    return 1;
  }
  if (!diff_path.empty()) {
    auto baseline = agg::read_archive_file(diff_path);
    if (!baseline.ok()) {
      std::fprintf(stderr, "tdat aggregate: %s\n", baseline.error().c_str());
      return 3;
    }
    agg::DiffOptions opts;
    if (by) opts.by = *by;
    const agg::RollupDiff diff =
        agg::diff_rollups(baseline.value(), merged, opts);
    const std::string body =
        json ? agg::render_diff_json(diff) + "\n" : agg::render_diff_text(diff);
    std::fwrite(body.data(), 1, body.size(), stdout);
    return diff.regressed_count() > 0 ? 1 : 0;
  }
  {
    // Roll-up report: one dimension with --by, otherwise the §IV trio
    // (peer, AS, collector).
    const std::vector<agg::RollupBy> dims =
        by ? std::vector<agg::RollupBy>{*by}
           : std::vector<agg::RollupBy>{agg::RollupBy::kPeer,
                                        agg::RollupBy::kAs,
                                        agg::RollupBy::kCollector};
    std::string body;
    if (json) {
      body += '{';
      bool first = true;
      for (const agg::RollupBy dim : dims) {
        if (!first) body += ", ";
        first = false;
        body += '"';
        body += agg::to_string(dim);
        body += "\": ";
        body += agg::render_rollup_json(agg::build_rollup(merged, dim));
      }
      body += "}\n";
    } else {
      for (const agg::RollupBy dim : dims) {
        body += agg::render_rollup_text(agg::build_rollup(merged, dim));
      }
    }
    std::fwrite(body.data(), 1, body.size(), stdout);
  }
  return 0;
}

// `tdat shard`: split a capture into N per-connection shards — every packet
// of a connection lands in the same shard (conn_key_hash), so analyzing the
// shards separately and merging their archives must reproduce the whole-run
// archive byte for byte (the CI equivalence gate).
int cmd_shard(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string in_path = argv[0];
  std::string out_dir;
  bool plan_mode = false;
  std::size_t shards = 2;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--shards") == 0 && i + 1 < argc) {
      const auto v = parse_uint(argv[++i], 1);
      if (!v) {
        std::fprintf(stderr, "tdat shard: --shards: need a positive count\n");
        return 2;
      }
      shards = *v;
    } else if (std::strcmp(argv[i], "--plan") == 0) {
      plan_mode = true;
    } else if (out_dir.empty() && argv[i][0] != '-') {
      out_dir = argv[i];
    } else {
      return usage();
    }
  }
  if (plan_mode) {
    // Zero-copy mode: emit the offset-run plan the fleet coordinator uses —
    // no shard pcap is written, workers read the original capture in place.
    const auto plan = fleet::build_shard_plan(in_path, shards);
    if (!plan.ok()) {
      std::fprintf(stderr, "tdat shard: %s\n", plan.error().c_str());
      return 3;
    }
    const std::string body = plan.value().to_json() + "\n";
    std::fwrite(body.data(), 1, body.size(), stdout);
    return plan.value().ingest.has_errors() ? 1 : 0;
  }
  if (out_dir.empty()) return usage();
  const auto trace = read_pcap_file(in_path);
  if (!trace.ok()) {
    std::fprintf(stderr, "%s\n", trace.error().c_str());
    return 3;
  }
  std::error_code ec;
  std::filesystem::create_directories(out_dir, ec);
  std::vector<PcapFile> out(shards);
  for (PcapFile& f : out) {
    f.nanosecond = trace.value().nanosecond;
    f.snaplen = trace.value().snaplen;
  }
  std::size_t index = 0;
  for (const PcapRecord& rec : trace.value().records) {
    // Undecodable (non-TCP) records go to shard 0 so nothing is lost.
    std::size_t shard = 0;
    if (const auto pkt = decode_frame(rec.ts, index++, rec.data)) {
      shard = conn_key_hash(make_conn_key(*pkt)) % shards;
    }
    out[shard].records.push_back(rec);
  }
  for (std::size_t s = 0; s < shards; ++s) {
    const std::string path =
        out_dir + "/shard-" + std::to_string(s) + ".pcap";
    if (!write_pcap_file(path, out[s])) {
      std::fprintf(stderr, "tdat shard: cannot write %s\n", path.c_str());
      return 1;
    }
    std::printf("%s: %zu records\n", path.c_str(), out[s].records.size());
  }
  return 0;
}

// `tdat fleet`: the multi-process driver over the shard plan — fork N local
// workers (or accept remote `--connect` ones), ingest the same capture in
// parallel with zero shard files written, and merge the streamed archives
// into the byte-identical whole-run .tdagg.
int cmd_fleet(int argc, char** argv) {
  fleet::FleetOptions opts;
  std::string input;
  std::string output;
  std::string connect;
  bool show_stats = true;
  const auto fail = [](const std::string& message) {
    std::fprintf(stderr, "tdat fleet: %s (run 'tdat' for usage)\n",
                 message.c_str());
    return 2;
  };
  for (int i = 0; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto value_of = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const auto count_of = [&](const char* flag, std::size_t min,
                              std::optional<std::size_t>& out_v,
                              std::uint64_t max = SIZE_MAX) {
      const char* v = value_of();
      out_v = v == nullptr ? std::nullopt : parse_uint(v, min, max);
      if (!out_v) {
        fail(std::string(flag) + ": need a count >= " + std::to_string(min));
      }
      return out_v.has_value();
    };
    std::optional<std::size_t> n;
    if (arg == "--workers") {
      if (!count_of("--workers", 1, n)) return 2;
      opts.workers = *n;
    } else if (arg == "--shards") {
      if (!count_of("--shards", 1, n)) return 2;
      opts.shards = *n;
    } else if (arg == "--jobs") {
      if (!count_of("--jobs", 1, n)) return 2;
      opts.analyzer.jobs = *n;
    } else if (arg == "--heartbeat-ms") {
      if (!count_of("--heartbeat-ms", 1, n, UINT32_MAX)) return 2;
      opts.heartbeat_ms = static_cast<std::uint32_t>(*n);
    } else if (arg == "--timeout-ms") {
      if (!count_of("--timeout-ms", 1, n, UINT32_MAX)) return 2;
      opts.timeout_ms = static_cast<std::uint32_t>(*n);
    } else if (arg == "--max-respawns") {
      if (!count_of("--max-respawns", 0, n)) return 2;
      opts.max_respawns = *n;
    } else if (arg == "--max-errors") {
      if (!count_of("--max-errors", 0, n)) return 2;
      opts.analyzer.ingest.max_errors = *n;
    } else if (arg == "--strict") {
      opts.analyzer.ingest.strict = true;
    } else if (arg == "--run-id") {
      const char* v = value_of();
      if (v == nullptr) return fail("--run-id needs a value");
      opts.run_id = v;
    } else if (arg == "--output") {
      const char* v = value_of();
      if (v == nullptr) return fail("--output needs a value");
      output = v;
    } else if (arg == "--listen") {
      const char* v = value_of();
      if (v == nullptr) return fail("--listen needs HOST:PORT");
      opts.listen = v;
    } else if (arg == "--connect") {
      const char* v = value_of();
      if (v == nullptr) return fail("--connect needs HOST:PORT");
      connect = v;
    } else if (arg == "--location") {
      const char* v = value_of();
      const auto location = parse_location(v == nullptr ? "" : v);
      if (!location.ok()) return fail(location.error());
      opts.analyzer.location = location.value();
    } else if (arg == "--detectors") {
      const char* v = value_of();
      auto selection = parse_detector_selection(v == nullptr ? "" : v);
      if (!selection.ok()) return fail("--detectors: " + selection.error());
      opts.analyzer.passes = selection.value();
    } else if (arg == "--stats") {
      show_stats = true;
    } else if (arg == "--quiet-stats") {
      show_stats = false;
    } else if (arg.size() >= 2 && arg.substr(0, 2) == "--") {
      return fail("unknown flag '" + std::string(arg) + "'");
    } else {
      if (!input.empty()) return fail("only one capture file");
      input = arg;
    }
  }
  // Worker mode: dial the coordinator and serve assignments until shutdown.
  if (!connect.empty()) {
    if (!input.empty()) return fail("--connect takes no capture argument");
    return fleet::run_worker_connect(connect);
  }
  if (input.empty()) return fail("no input capture given");
  return run_fleet_and_emit(input, opts, output, show_stats, "tdat fleet");
}

// ------------------------------------------------------------- tdat watch --

// Set by SIGINT/SIGTERM; the watch loop checks it between epochs, drains,
// and writes a final snapshot — never a torn exit mid-analysis.
volatile std::sig_atomic_t g_watch_stop = 0;
// Set by SIGHUP; the watch loop forces an immediate out-of-cycle snapshot
// (and checkpoint, when configured) at the next epoch boundary.
volatile std::sig_atomic_t g_watch_flush = 0;

extern "C" void watch_signal(int) { g_watch_stop = 1; }
extern "C" void watch_flush_signal(int) { g_watch_flush = 1; }

struct WatchCommand {
  AnalyzerOptions opts;
  std::string input;
  std::string output;        // atomic-replace target ("" = stdout)
  std::string snapshot_dir;  // one numbered file per snapshot ("" = off)
  std::string checkpoint;    // durable .tdckpt resume state ("" = off)
  ReportFormat format = ReportFormat::kText;
  ReportRenderOptions render;
  double snapshot_interval_s = 10.0;
  double window_s = 0.0;   // capture-time eviction horizon (0 = keep all)
  double idle_gc_s = 0.0;  // capture-time idle retirement (0 = never)
  unsigned poll_ms = 200;
  bool once = false;
  bool show_stats = true;
  std::string log_level;
};

Result<WatchCommand> parse_watch_args(int argc, char** argv) {
  WatchCommand cmd;
  cmd.opts.jobs = 0;
  const auto value_of = [&](int& i) { return flag_value(argc, argv, i); };
  const auto seconds_of = [](const std::string& flag, const std::string& v,
                             double& out) -> Result<bool> {
    char* end = nullptr;
    const double secs = std::strtod(v.c_str(), &end);
    if (end == v.c_str() || *end != '\0' || secs < 0) {
      return Err<bool>(flag + ": not a non-negative seconds value: '" + v +
                       "'");
    }
    out = secs;
    return true;
  };
  for (int i = 0; i < argc; ++i) {
    TDAT_TRY(shared, parse_analysis_flag(argc, argv, i, cmd.opts));
    if (shared) continue;
    const std::string_view arg = argv[i];
    if (arg == "--output") {
      TDAT_TRY(v, value_of(i));
      cmd.output = std::move(v);
    } else if (arg == "--snapshot-dir") {
      TDAT_TRY(v, value_of(i));
      cmd.snapshot_dir = std::move(v);
    } else if (arg == "--checkpoint") {
      TDAT_TRY(v, value_of(i));
      cmd.checkpoint = std::move(v);
    } else if (arg == "--format") {
      TDAT_TRY(v, value_of(i));
      auto format = parse_report_format(v);
      if (!format.ok()) return Err<WatchCommand>("--format: " + format.error());
      cmd.format = format.value();
    } else if (arg == "--snapshot-interval") {
      TDAT_TRY(v, value_of(i));
      TDAT_TRY(ok, seconds_of("--snapshot-interval", v,
                              cmd.snapshot_interval_s));
      (void)ok;
    } else if (arg == "--window") {
      TDAT_TRY(v, value_of(i));
      TDAT_TRY(ok, seconds_of("--window", v, cmd.window_s));
      (void)ok;
    } else if (arg == "--idle-gc") {
      TDAT_TRY(v, value_of(i));
      TDAT_TRY(ok, seconds_of("--idle-gc", v, cmd.idle_gc_s));
      (void)ok;
    } else if (arg == "--poll-ms") {
      TDAT_TRY(v, value_of(i));
      const auto n = parse_uint(v, 1, std::numeric_limits<unsigned>::max());
      if (!n) return Err<WatchCommand>("--poll-ms: need a positive count");
      cmd.poll_ms = static_cast<unsigned>(*n);
    } else if (arg == "--run-id") {
      TDAT_TRY(v, value_of(i));
      cmd.render.run_id = std::move(v);
    } else if (arg == "--log-level") {
      TDAT_TRY(v, value_of(i));
      cmd.log_level = std::move(v);
    } else if (arg == "--once") {
      cmd.once = true;
    } else if (arg == "--stats") {
      cmd.show_stats = true;
    } else if (arg == "--quiet-stats") {
      cmd.show_stats = false;
    } else if (arg.size() >= 2 && arg.substr(0, 2) == "--") {
      return Err<WatchCommand>("unknown flag '" + std::string(arg) + "'");
    } else {
      if (!cmd.input.empty()) {
        return Err<WatchCommand>("watch takes exactly one capture path");
      }
      cmd.input = arg;
    }
  }
  if (cmd.input.empty()) return Err<WatchCommand>("no capture path given");
  return cmd;
}

const char* snapshot_extension(ReportFormat format) {
  switch (format) {
    case ReportFormat::kJson: return "json";
    case ReportFormat::kCsv: return "csv";
    case ReportFormat::kAgg: return "tdagg";
    default: return "txt";
  }
}

// Snapshot writes go through the durable atomic writer (temp + fsync +
// rename): a failed write — ENOSPC, short write, crash mid-rename — leaves
// the previous snapshot at `path` intact, and the next interval retries.
bool emit_snapshot(LiveEngine& engine, const WatchCommand& cmd,
                   std::size_t seq) {
  const std::string body = engine.render_snapshot(cmd.format, cmd.render);
  bool ok = true;
  if (!cmd.output.empty()) {
    auto wrote = write_file_atomic_durable(cmd.output, body);
    if (!wrote.ok()) {
      std::fprintf(stderr,
                   "tdat watch: snapshot write failed (previous snapshot"
                   " kept, retrying next interval): %s\n",
                   wrote.error().c_str());
      metrics().counter("live.snapshot.write_failures").inc();
      ok = false;
    }
  }
  if (!cmd.snapshot_dir.empty()) {
    char name[64];
    std::snprintf(name, sizeof(name), "/snapshot-%06zu.%s", seq,
                  snapshot_extension(cmd.format));
    auto wrote = write_file_atomic_durable(cmd.snapshot_dir + name, body);
    if (!wrote.ok()) {
      std::fprintf(stderr, "tdat watch: snapshot write failed: %s\n",
                   wrote.error().c_str());
      metrics().counter("live.snapshot.write_failures").inc();
      ok = false;
    }
  }
  if (cmd.output.empty() && cmd.snapshot_dir.empty()) {
    std::fwrite(body.data(), 1, body.size(), stdout);
    std::fflush(stdout);
  }
  return ok;
}

// Rewrites the .tdckpt after a snapshot. Best-effort by design: a rotated
// capture has no single resume offset (skipped, full replay on restart), and
// a failed write keeps the previous checkpoint — the restart just replays a
// little more.
void write_watch_checkpoint(LiveEngine& engine, const FollowSource& source,
                            const WatchCommand& cmd) {
  if (cmd.checkpoint.empty()) return;
  if (!source.checkpointable()) {
    metrics().counter("live.checkpoint.skipped_rotation").inc();
    TDAT_LOG_DEBUG("watch: checkpoint skipped (capture rotated)");
    return;
  }
  LiveCheckpoint ckpt;
  if (auto st = engine.checkpoint_state(ckpt); !st.ok()) {
    metrics().counter("live.checkpoint.skipped_state").inc();
    TDAT_LOG_WARN("watch: checkpoint skipped: %s", st.error().c_str());
    return;
  }
  auto id = compute_capture_identity(cmd.input);
  if (!id.ok()) {
    metrics().counter("live.checkpoint.skipped_state").inc();
    TDAT_LOG_WARN("watch: checkpoint skipped: %s", id.error().c_str());
    return;
  }
  ckpt.capture = id.value();
  const PcapStream::Resume resume = source.resume_state();
  ckpt.resume_offset = resume.offset;
  ckpt.records_seen = resume.records;
  ckpt.stream_last_ts = resume.last_ts;
  ckpt.diag = resume.diag;
  if (auto wrote = write_checkpoint_file(cmd.checkpoint, ckpt); !wrote.ok()) {
    std::fprintf(stderr,
                 "tdat watch: checkpoint write failed (previous checkpoint"
                 " kept, retrying next interval): %s\n",
                 wrote.error().c_str());
  }
}

// Loads, validates, and applies a checkpoint to a fresh engine; returns the
// resume state for the FollowSource. Every failure path degrades to full
// replay with a structured diagnostic — a damaged checkpoint must never take
// the daemon down.
std::optional<PcapStream::Resume> try_restore(
    const WatchCommand& cmd, const LiveOptions& lopts, LiveCheckpoint& out) {
  if (cmd.checkpoint.empty()) return std::nullopt;
  std::error_code ec;
  if (!std::filesystem::exists(cmd.checkpoint, ec)) {
    TDAT_LOG_INFO("watch: no checkpoint at %s; cold start",
                  cmd.checkpoint.c_str());
    return std::nullopt;
  }
  const auto fallback = [&](const std::string& why) {
    std::fprintf(stderr,
                 "tdat watch: checkpoint %s unusable (%s); falling back to"
                 " full replay\n",
                 cmd.checkpoint.c_str(), why.c_str());
    metrics().counter("live.restore.fallback_full_replay").inc();
    return std::nullopt;
  };
  auto loaded = read_checkpoint_file(cmd.checkpoint);
  if (!loaded.ok()) return fallback(loaded.error());
  out = std::move(loaded).value();
  if (auto id = validate_capture_identity(out.capture, cmd.input); !id.ok()) {
    return fallback(id.error());
  }
  LiveCheckpoint echo;
  echo.config.location = static_cast<std::uint8_t>(lopts.analyzer.location);
  echo.config.verify_checksums = lopts.analyzer.verify_checksums;
  echo.config.strict = lopts.analyzer.ingest.strict;
  echo.config.enable_ack_shift = lopts.analyzer.enable_ack_shift;
  echo.config.pass_bits = lopts.analyzer.passes.bits;
  echo.config.max_errors =
      static_cast<std::uint64_t>(lopts.analyzer.ingest.max_errors);
  echo.config.window = lopts.window;
  echo.config.idle_gc = lopts.idle_gc;
  if (!(echo.config == out.config)) {
    return fallback("engine configuration changed since the checkpoint");
  }
  PcapStream::Resume resume;
  resume.offset = out.resume_offset;
  resume.records = out.records_seen;
  resume.last_ts = out.stream_last_ts;
  resume.diag = out.diag;
  return resume;
}

// `tdat watch`: the always-on daemon. Tails the capture through
// FollowSource + LiveEngine, emits a report snapshot every interval, and on
// SIGINT/SIGTERM (or --once) drains to the true end of data — batch
// end-of-trace semantics, truncation tallies included — and writes one
// final snapshot before exiting.
int cmd_watch(int argc, char** argv) {
  auto parsed = parse_watch_args(argc, argv);
  if (!parsed.ok()) {
    std::fprintf(stderr, "tdat watch: %s (run 'tdat' for usage)\n",
                 parsed.error().c_str());
    return 2;
  }
  WatchCommand& cmd = parsed.value();
  if (!cmd.log_level.empty() && !set_log_level(cmd.log_level)) {
    std::fprintf(stderr, "tdat watch: --log-level: unknown level '%s'\n",
                 cmd.log_level.c_str());
    return 2;
  }
  if (!cmd.snapshot_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(cmd.snapshot_dir, ec);
  }

  LiveOptions lopts;
  lopts.analyzer = cmd.opts;
  lopts.window = static_cast<Micros>(cmd.window_s * kMicrosPerSec);
  lopts.idle_gc = static_cast<Micros>(cmd.idle_gc_s * kMicrosPerSec);

  // Restore-or-fallback: a valid checkpoint resumes the engine and the
  // stream mid-capture; any failure (torn file, replaced capture, changed
  // config, replay divergence) degrades to a fresh engine and full replay.
  // The engine holds the source by reference, so both live in optionals
  // that are rebuilt together on fallback.
  std::optional<FollowSource> source_store;
  std::optional<LiveEngine> engine_store;
  LiveCheckpoint ckpt;
  if (auto resume = try_restore(cmd, lopts, ckpt)) {
    source_store.emplace(cmd.input, cmd.opts.ingest, *resume);
    engine_store.emplace(*source_store, lopts);
    if (auto restored = engine_store->restore_state(ckpt, cmd.input);
        !restored.ok()) {
      std::fprintf(stderr,
                   "tdat watch: checkpoint %s unusable (%s); falling back to"
                   " full replay\n",
                   cmd.checkpoint.c_str(), restored.error().c_str());
      metrics().counter("live.restore.fallback_full_replay").inc();
      engine_store.reset();  // before the source it references
      source_store.reset();
    } else {
      metrics().counter("live.restore.resumed").inc();
      TDAT_LOG_INFO("watch: resumed from %s at offset %llu (%llu records)",
                    cmd.checkpoint.c_str(),
                    static_cast<unsigned long long>(ckpt.resume_offset),
                    static_cast<unsigned long long>(ckpt.records_seen));
    }
  }
  if (!engine_store.has_value()) {
    source_store.emplace(cmd.input, cmd.opts.ingest);
    engine_store.emplace(*source_store, lopts);
  }
  FollowSource& source = *source_store;
  LiveEngine& engine = *engine_store;

  g_watch_stop = 0;
  g_watch_flush = 0;
  std::signal(SIGINT, watch_signal);
  std::signal(SIGTERM, watch_signal);
#ifdef SIGHUP
  std::signal(SIGHUP, watch_flush_signal);
#endif

  using Clock = std::chrono::steady_clock;
  const auto interval = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(cmd.snapshot_interval_s));
  auto next_snapshot = Clock::now() + interval;
  std::size_t seq = 0;
  bool emit_ok = true;
  while (!cmd.once && g_watch_stop == 0) {
    const std::size_t records = engine.run_epoch();
    maybe_crash_at("epoch");  // deterministic chaos seam (TDAT_CRASH_AT)
    if (source.failed()) break;
    if (g_watch_flush != 0) {  // SIGHUP: out-of-cycle snapshot + checkpoint
      g_watch_flush = 0;
      next_snapshot = Clock::now();
    }
    if (Clock::now() >= next_snapshot) {
      emit_ok = emit_snapshot(engine, cmd, seq++) && emit_ok;
      write_watch_checkpoint(engine, source, cmd);
      next_snapshot = Clock::now() + interval;
    }
    if (records > 0) continue;  // backlog: keep ingesting at full speed
    if (!engine.source_live()) break;
    if (!engine.poll_source() && g_watch_stop == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(cmd.poll_ms));
    }
  }

  // Final drain: consume everything written so far with batch end-of-data
  // semantics, then one last snapshot so no analysis is lost.
  if (!source.failed()) engine.drain();
  if (source.failed()) {
    std::fprintf(stderr, "tdat watch: %s\n", source.error().c_str());
    return 3;
  }
  if (source.bytes_ingested() == 0 && !std::filesystem::exists(cmd.input)) {
    std::fprintf(stderr, "tdat watch: %s never appeared\n", cmd.input.c_str());
    return 3;
  }
  emit_ok = emit_snapshot(engine, cmd, seq++) && emit_ok;
  if (cmd.show_stats) {
    const LiveEngineStats& st = engine.stats();
    const PipelineStats ps = engine.pipeline_stats();
    std::fprintf(stderr,
                 "[tdat] watch: %llu records (%.2f MB) -> %llu packets in"
                 " %llu epochs; %llu connections (%llu active, %llu"
                 " retired), %llu packets evicted; %zu snapshots\n",
                 static_cast<unsigned long long>(st.records),
                 static_cast<double>(ps.bytes_ingested) / 1e6,
                 static_cast<unsigned long long>(st.packets),
                 static_cast<unsigned long long>(st.epochs),
                 static_cast<unsigned long long>(st.connections_total),
                 static_cast<unsigned long long>(st.connections_active),
                 static_cast<unsigned long long>(st.connections_gc),
                 static_cast<unsigned long long>(st.packets_evicted), seq);
  }
  if (!emit_ok) return 1;
  const PipelineStats ps = engine.pipeline_stats();
  return ps.ingest.has_errors() || ps.quarantined > 0 ? 1 : 0;
}

int cmd_version() {
  std::printf("%s\n", version_string().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Wire the .tdagg archive renderer behind `--format agg` before any
  // command can render a report (core dispatches through the hook).
  agg::register_aggregate_sink();
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  if (cmd == "analyze") return cmd_analyze(argc - 2, argv + 2);
  if (cmd == "passes") return cmd_passes();
  if (cmd == "pcap2mrt") return cmd_pcap2mrt(argc - 2, argv + 2);
  if (cmd == "mrtcat") return cmd_mrtcat(argc - 2, argv + 2);
  if (cmd == "timeseq") return cmd_timeseq(argc - 2, argv + 2);
  if (cmd == "simulate") return cmd_simulate(argc - 2, argv + 2);
  if (cmd == "corrupt") return cmd_corrupt(argc - 2, argv + 2);
  if (cmd == "metrics") return cmd_metrics(argc - 2, argv + 2);
  if (cmd == "aggregate") return cmd_aggregate(argc - 2, argv + 2);
  if (cmd == "shard") return cmd_shard(argc - 2, argv + 2);
  if (cmd == "fleet") return cmd_fleet(argc - 2, argv + 2);
  if (cmd == "watch") return cmd_watch(argc - 2, argv + 2);
  if (cmd == "version" || cmd == "--version" || cmd == "-V") {
    return cmd_version();
  }
  return usage();
}
