// Pipeline throughput: end-to-end analyze_trace over multi-session captures
// at 1/2/4/8 analysis workers, swept across workload sizes (16/64/256
// sessions), plus the streaming analyze_file path, emitting a
// machine-readable BENCH_pipeline.json (path overridable via argv[1]).
//
// The ingest stage (read + decode + demux) is also measured standing alone,
// over a real file through both readers (mmap and chunked streaming); the
// best rate is the file's headline_ingest_mb_per_s. Ingest is serial, so
// there is no job-count axis to sweep there.
// That headline is what CI gates on:
//
//   pipeline_throughput --gate BENCH_pipeline.json [--min-ratio 0.9]
//
// re-measures just the ingest stage and exits non-zero when the current rate
// falls below min-ratio of the committed baseline. The gate only binds on
// the same runner class (equal cpu_cores); otherwise it reports and passes.
//
// Besides the wall times it verifies the determinism contract: every job
// count must produce byte-identical analysis output (JSON export of every
// connection's report and all 34 series) to the jobs=1 serial baseline of
// the same workload — any mismatch makes the benchmark exit non-zero.
// Per-connection allocation counts (operator-new hook) are reported so
// regressions of the zero-steady-state-allocation property show up in the
// committed numbers, not just in the unit test.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bgp/table_gen.hpp"
#include "core/analyzer.hpp"
#include "core/export.hpp"
#include "core/ingest_pipeline.hpp"
#include "core/trace_source.hpp"
#include "sim/world.hpp"
#include "util/alloc_hook.hpp"
#include "util/metrics.hpp"

namespace {

using namespace tdat;

constexpr std::size_t kPrefixes = 10'000;

PcapFile make_trace(std::size_t sessions) {
  SimWorld world(7777 + sessions);
  std::vector<std::size_t> ids;
  for (std::size_t i = 0; i < sessions; ++i) {
    SessionSpec spec;
    // Vary the bottleneck so connections cost unequal analysis time — the
    // realistic (and scheduling-hostile) case for the index-handout pool.
    if (i % 4 == 1) spec.up_fwd.random_loss = 0.005;
    if (i % 4 == 2) spec.receiver_tcp.recv_buf_capacity = 16 * 1024;
    if (i % 4 == 3) {
      spec.bgp.timer_driven = true;
      spec.bgp.timer_interval = 200 * kMicrosPerMilli;
      spec.bgp.msgs_per_tick = 60;
    }
    Rng rng(8100 + 13 * i);
    TableGenConfig tg;
    tg.prefix_count = kPrefixes;
    ids.push_back(
        world.add_session(spec, serialize_updates(generate_table(tg, rng))));
  }
  for (std::size_t i = 0; i < ids.size(); ++i) {
    world.start_session(ids[i], static_cast<Micros>(i) * 20 * kMicrosPerMilli);
  }
  world.run_until(900 * kMicrosPerSec);
  return world.take_trace();
}

double wall_seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// Full analysis output as one string: byte-identity across job counts is
// the acceptance check, so include everything observable per connection.
std::string fingerprint(const TraceAnalysis& ta) {
  std::string out;
  for (const ConnectionAnalysis& conn : ta.results) {
    out += analysis_to_json(conn);
    out += registry_to_json(conn.series());
  }
  return out;
}

struct RunResult {
  std::size_t jobs = 0;
  double best_wall_s = 0;
  PipelineStats stats;
  bool identical = true;
  // Per-connection heap allocations during the best run's analysis stage
  // (operator-new hook; count == 0 when the hook is compiled out).
  HistogramSnapshot allocs;
};

struct SizeResult {
  std::size_t sessions = 0;
  std::size_t records = 0;
  std::uint64_t trace_bytes = 0;
  std::vector<RunResult> runs;
  RunResult streamed;
  bool streamed_ok = false;
};

HistogramSnapshot allocs_since(const HistogramSnapshot& before) {
  return metrics().histogram("analyze.allocs_per_conn").snapshot().since(
      before);
}

void print_run(const char* label, const RunResult& run, int reps) {
  std::printf(
      "%s jobs=%zu: %.3fs best of %d (ingest %.3fs + analyze %.3fs), "
      "allocs/conn mean %.1f, identical=%s\n",
      label, run.jobs, run.best_wall_s, reps, to_seconds(run.stats.ingest_wall),
      to_seconds(run.stats.analyze_wall), run.allocs.mean(),
      run.identical ? "yes" : "NO");
}

std::string alloc_json(const HistogramSnapshot& h) {
  char buf[128];
  std::snprintf(buf, sizeof(buf),
                "{\"connections\": %llu, \"mean\": %.2f, \"p90\": %lld}",
                static_cast<unsigned long long>(h.count), h.mean(),
                static_cast<long long>(h.quantile(0.9)));
  return buf;
}

// --- ingest-stage-only measurement (the CI-gated number) ------------------

struct IngestRun {
  bool mmap = false;
  double best_s = 1e100;
  std::uint64_t bytes = 0;
  std::uint64_t packets = 0;

  [[nodiscard]] double mb_per_s() const {
    return best_s > 0 ? static_cast<double>(bytes) / best_s / 1e6 : 0;
  }
};

struct IngestBench {
  std::vector<IngestRun> runs;
  double headline_mb_per_s = 0;  // best rate across the two readers
  bool agree = true;             // identical packet counts everywhere
};

// Drain run_ingest_stage over a real file, best of `reps`, through the mmap
// and the streaming reader. Uses the same 64-session workload in full and
// --gate mode so the committed headline and the gate measurement are
// comparable.
IngestBench bench_ingest_stage(const std::string& pcap_path, int reps) {
  IngestBench bench;
  for (const bool mmap : {true, false}) {
    IngestRun run;
    run.mmap = mmap;
    for (int rep = 0; rep < reps; ++rep) {
      IngestPolicy policy;
      policy.use_mmap = mmap;
      auto source = PcapStreamSource::open(pcap_path, false, policy);
      if (!source.ok()) {
        std::fprintf(stderr, "ingest bench: %s\n", source.error().c_str());
        bench.agree = false;
        return bench;
      }
      const auto t0 = std::chrono::steady_clock::now();
      const IngestStageResult got = run_ingest_stage(source.value(), false);
      const double wall = wall_seconds_since(t0);
      if (wall < run.best_s) run.best_s = wall;
      run.bytes = source.value().bytes_ingested();
      if (run.packets == 0) {
        run.packets = got.packets;
      } else if (run.packets != got.packets) {
        bench.agree = false;
      }
    }
    if (!bench.runs.empty() && run.packets != bench.runs.front().packets) {
      bench.agree = false;
    }
    std::printf("ingest stage %s: %8.1f MB/s (%llu bytes, %llu packets)\n",
                mmap ? "mmap  " : "stream", run.mb_per_s(),
                static_cast<unsigned long long>(run.bytes),
                static_cast<unsigned long long>(run.packets));
    if (run.mb_per_s() > bench.headline_mb_per_s) {
      bench.headline_mb_per_s = run.mb_per_s();
    }
    bench.runs.push_back(run);
  }
  return bench;
}

constexpr std::size_t kIngestSessions = 64;

IngestBench measure_ingest_workload(int reps) {
  std::printf("building %zu-session ingest workload...\n", kIngestSessions);
  const PcapFile trace = make_trace(kIngestSessions);
  const std::string tmp = "BENCH_ingest.tmp.pcap";
  if (!write_pcap_file(tmp, trace)) {
    std::fprintf(stderr, "cannot write %s\n", tmp.c_str());
    return {};
  }
  IngestBench bench = bench_ingest_stage(tmp, reps);
  std::remove(tmp.c_str());
  return bench;
}

// Minimal scanner for the two numbers the gate needs from the committed
// baseline: find `"key":` and parse the number after it. Good enough for
// JSON this benchmark wrote itself.
bool scan_number(const std::string& json, const std::string& key,
                 double& out) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = json.find(needle);
  if (at == std::string::npos) return false;
  out = std::strtod(json.c_str() + at + needle.size(), nullptr);
  return true;
}

// Analysis speedups measured below this many cores show the scheduler, not
// the code; the full-mode JSON says so.
constexpr unsigned kMinCoresForScaling = 4;

int run_gate(const std::string& baseline_path, double min_ratio) {
  std::FILE* f = std::fopen(baseline_path.c_str(), "rb");
  if (!f) {
    std::fprintf(stderr, "gate: cannot read %s\n", baseline_path.c_str());
    return 1;
  }
  std::string json;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) json.append(buf, n);
  std::fclose(f);

  double base_cores = 0, base_headline = 0;
  if (!scan_number(json, "cpu_cores", base_cores) ||
      !scan_number(json, "headline_ingest_mb_per_s", base_headline) ||
      base_headline <= 0) {
    std::fprintf(stderr,
                 "gate: %s has no usable headline_ingest_mb_per_s — "
                 "regenerate the baseline with this binary\n",
                 baseline_path.c_str());
    return 1;
  }

  const unsigned cores = std::thread::hardware_concurrency();
  const IngestBench bench = measure_ingest_workload(3);
  if (!bench.agree || bench.headline_mb_per_s <= 0) {
    std::fprintf(stderr, "gate: ingest measurement failed\n");
    return 1;
  }
  const double ratio = bench.headline_mb_per_s / base_headline;
  std::printf("gate: current %.1f MB/s vs baseline %.1f MB/s "
              "(ratio %.3f, floor %.2f)\n",
              bench.headline_mb_per_s, base_headline, ratio, min_ratio);

  bool ok = true;
  const bool comparable = static_cast<unsigned>(base_cores) == cores;
  if (!comparable) {
    std::printf("gate: baseline recorded on %u cores, this runner has %u — "
                "headline comparison is advisory only\n",
                static_cast<unsigned>(base_cores), cores);
  } else if (ratio < min_ratio) {
    std::fprintf(stderr,
                 "gate: FAIL — ingest throughput regressed below %.0f%% of "
                 "the committed baseline\n",
                 min_ratio * 100);
    ok = false;
  }

  // Record what this gate run actually measured, and on how many cores.
  if (std::FILE* gf = std::fopen("BENCH_gate.json", "w")) {
    std::fprintf(gf,
                 "{\n  \"cpu_cores\": %u,\n  \"baseline_cpu_cores\": %u,\n"
                 "  \"headline_ingest_mb_per_s\": %.1f,\n"
                 "  \"baseline_headline_mb_per_s\": %.1f,\n"
                 "  \"headline_ratio\": %.3f,\n"
                 "  \"headline_comparable\": %s,\n"
                 "  \"pass\": %s\n}\n",
                 cores, static_cast<unsigned>(base_cores),
                 bench.headline_mb_per_s, base_headline, ratio,
                 comparable ? "true" : "false", ok ? "true" : "false");
    std::fclose(gf);
    std::printf("gate: wrote BENCH_gate.json (cpu_cores=%u)\n", cores);
  }
  std::printf("gate: %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::string(argv[1]) == "--gate") {
    if (argc < 3) {
      std::fprintf(stderr,
                   "usage: pipeline_throughput --gate BASELINE.json "
                   "[--min-ratio R]\n");
      return 1;
    }
    double min_ratio = 0.9;
    if (argc > 4 && std::string(argv[3]) == "--min-ratio") {
      min_ratio = std::strtod(argv[4], nullptr);
    }
    return run_gate(argv[2], min_ratio);
  }

  const std::string out_path = argc > 1 ? argv[1] : "BENCH_pipeline.json";
  const unsigned cores = std::thread::hardware_concurrency();
  std::printf("cpu cores: %u, alloc hook: %s\n", cores,
              alloc_hook_active() ? "on" : "off");

  std::vector<SizeResult> sizes;
  bool all_identical = true;
  for (const std::size_t sessions : {16, 64, 256}) {
    const int reps = sessions >= 256 ? 2 : 3;
    std::printf("building %zu-session trace (%zu prefixes each)...\n",
                sessions, kPrefixes);
    const PcapFile trace = make_trace(sessions);
    SizeResult size;
    size.sessions = sessions;
    size.records = trace.records.size();
    size.trace_bytes = 24;  // pcap global header, matching bytes_ingested
    for (const auto& rec : trace.records) {
      size.trace_bytes += 16 + rec.data.size();
    }

    std::string baseline;
    for (const std::size_t jobs : {1, 2, 4, 8}) {
      AnalyzerOptions opts;
      opts.jobs = jobs;
      RunResult run;
      run.jobs = jobs;
      run.best_wall_s = 1e100;
      for (int rep = 0; rep < reps; ++rep) {
        const HistogramSnapshot a0 = allocs_since({});
        const auto t0 = std::chrono::steady_clock::now();
        const TraceAnalysis ta = analyze_trace(trace, opts);
        const double wall = wall_seconds_since(t0);
        if (wall < run.best_wall_s) {
          run.best_wall_s = wall;
          run.stats = ta.stats;
          run.allocs = allocs_since(a0);
        }
        if (rep == 0) {
          if (jobs == 1) {
            baseline = fingerprint(ta);
          } else {
            run.identical = fingerprint(ta) == baseline;
          }
        }
      }
      all_identical = all_identical && run.identical;
      size.runs.push_back(run);
      print_run("analyze_trace", run, reps);
    }

    // The streaming path, through an actual file.
    const std::string tmp_pcap = out_path + ".tmp.pcap";
    size.streamed.jobs = 8;
    size.streamed.best_wall_s = 1e100;
    if (write_pcap_file(tmp_pcap, trace)) {
      AnalyzerOptions opts;
      opts.jobs = 8;
      for (int rep = 0; rep < reps; ++rep) {
        const HistogramSnapshot a0 = allocs_since({});
        const auto t0 = std::chrono::steady_clock::now();
        auto ta = analyze_file(tmp_pcap, opts);
        const double wall = wall_seconds_since(t0);
        if (!ta.ok()) break;
        size.streamed_ok = true;
        if (wall < size.streamed.best_wall_s) {
          size.streamed.best_wall_s = wall;
          size.streamed.stats = ta.value().stats;
          size.streamed.allocs = allocs_since(a0);
        }
        if (rep == 0) {
          size.streamed.identical = fingerprint(ta.value()) == baseline;
        }
      }
      std::remove(tmp_pcap.c_str());
      all_identical = all_identical && size.streamed.identical;
      print_run("analyze_file", size.streamed, reps);
    }

    const double speedup =
        size.runs.front().best_wall_s / size.runs.back().best_wall_s;
    std::printf("sessions=%zu speedup jobs=8 vs jobs=1: %.2fx\n", sessions,
                speedup);
    sizes.push_back(std::move(size));
  }
  std::printf("all outputs identical to serial: %s\n",
              all_identical ? "yes" : "NO");

  const IngestBench ingest = measure_ingest_workload(5);
  std::printf("headline ingest rate: %.1f MB/s\n", ingest.headline_mb_per_s);
  all_identical = all_identical && ingest.agree;

  // speedup table on stdout, one row per workload size
  std::printf("\n%10s %10s %10s %10s %10s %8s\n", "sessions", "jobs=1",
              "jobs=2", "jobs=4", "jobs=8", "speedup");
  for (const SizeResult& size : sizes) {
    std::printf("%10zu %9.3fs %9.3fs %9.3fs %9.3fs %7.2fx\n", size.sessions,
                size.runs[0].best_wall_s, size.runs[1].best_wall_s,
                size.runs[2].best_wall_s, size.runs[3].best_wall_s,
                size.runs[0].best_wall_s / size.runs[3].best_wall_s);
  }

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f,
               "{\n  \"cpu_cores\": %u,\n"
               "  \"parallel_rates_meaningful\": %s,\n"
               "  \"alloc_hook\": %s,\n"
               "  \"prefixes_per_session\": %zu,\n  \"sizes\": [\n",
               cores, cores >= kMinCoresForScaling ? "true" : "false",
               alloc_hook_active() ? "true" : "false", kPrefixes);
  for (std::size_t s = 0; s < sizes.size(); ++s) {
    const SizeResult& size = sizes[s];
    std::fprintf(f,
                 "    {\"sessions\": %zu, \"records\": %zu, \"bytes\": %llu,\n"
                 "     \"runs\": [\n",
                 size.sessions, size.records,
                 static_cast<unsigned long long>(size.trace_bytes));
    for (std::size_t i = 0; i < size.runs.size(); ++i) {
      const RunResult& run = size.runs[i];
      std::fprintf(f,
                   "      {\"jobs\": %zu, \"best_wall_s\": %.6f, "
                   "\"identical_to_serial\": %s, \"allocs_per_conn\": %s, "
                   "\"stats\": %s}%s\n",
                   run.jobs, run.best_wall_s, run.identical ? "true" : "false",
                   alloc_json(run.allocs).c_str(), run.stats.to_json().c_str(),
                   i + 1 < size.runs.size() ? "," : "");
    }
    std::fprintf(f, "     ],\n");
    if (size.streamed_ok) {
      std::fprintf(f,
                   "     \"streaming\": {\"jobs\": %zu, \"best_wall_s\": %.6f,"
                   " \"identical_to_serial\": %s, \"allocs_per_conn\": %s, "
                   "\"stats\": %s},\n",
                   size.streamed.jobs, size.streamed.best_wall_s,
                   size.streamed.identical ? "true" : "false",
                   alloc_json(size.streamed.allocs).c_str(),
                   size.streamed.stats.to_json().c_str());
    }
    std::fprintf(f, "     \"speedup_jobs8_vs_jobs1\": %.4f}%s\n",
                 size.runs.front().best_wall_s / size.runs.back().best_wall_s,
                 s + 1 < sizes.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"ingest_stage\": {\n    \"sessions\": %zu,\n"
               "    \"runs\": [\n", kIngestSessions);
  for (std::size_t i = 0; i < ingest.runs.size(); ++i) {
    const IngestRun& run = ingest.runs[i];
    std::fprintf(f,
                 "      {\"reader\": \"%s\", "
                 "\"mb_per_s\": %.1f, \"bytes\": %llu, \"packets\": %llu}%s\n",
                 run.mmap ? "mmap" : "stream", run.mb_per_s(),
                 static_cast<unsigned long long>(run.bytes),
                 static_cast<unsigned long long>(run.packets),
                 i + 1 < ingest.runs.size() ? "," : "");
  }
  std::fprintf(f, "    ]\n  },\n  \"headline_ingest_mb_per_s\": %.1f,\n",
               ingest.headline_mb_per_s);
  std::fprintf(f, "  \"all_outputs_identical\": %s\n}\n",
               all_identical ? "true" : "false");
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());
  return all_identical ? 0 : 1;
}
