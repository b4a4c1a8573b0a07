// Live engine latency: replay a multi-session capture through LiveEngine in
// bounded chunks — the always-on daemon's steady state — and measure what an
// operator of `tdat watch` experiences: per-epoch latency (ingest + dirty
// re-analysis), snapshot render latency, and end-to-end throughput against
// the one-shot batch pipeline. Emits BENCH_live.json (path overridable via
// argv[1]).
//
// The numbers are only reported after the keystone invariant is checked:
// the drained live engine's .tdagg snapshot must be byte-identical to the
// batch archive over the same capture, or the benchmark exits non-zero —
// latency of a pipeline that disagrees with the batch truth is worthless.
// cpu_cores is recorded honestly so readers can judge the parallel
// re-analysis numbers.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "agg/sink.hpp"
#include "bgp/table_gen.hpp"
#include "core/analyzer.hpp"
#include "core/live.hpp"
#include "core/live_source.hpp"
#include "core/report.hpp"
#include "core/trace_source.hpp"
#include "pcap/pcap_file.hpp"
#include "sim/world.hpp"

namespace {

using namespace tdat;

constexpr std::size_t kSessions = 32;
constexpr std::size_t kPrefixes = 5'000;
constexpr std::size_t kChunk = 64 * 1024;   // bytes appended per epoch
constexpr std::size_t kSnapshotEvery = 16;  // epochs between renders

std::vector<std::uint8_t> make_image() {
  SimWorld world(4242);
  std::vector<std::size_t> ids;
  for (std::size_t i = 0; i < kSessions; ++i) {
    SessionSpec spec;
    if (i % 4 == 1) spec.up_fwd.random_loss = 0.005;
    if (i % 4 == 2) spec.receiver_tcp.recv_buf_capacity = 16 * 1024;
    Rng rng(9300 + 17 * i);
    TableGenConfig tg;
    tg.prefix_count = kPrefixes;
    ids.push_back(
        world.add_session(spec, serialize_updates(generate_table(tg, rng))));
  }
  for (std::size_t i = 0; i < ids.size(); ++i) {
    world.start_session(ids[i], static_cast<Micros>(i) * 20 * kMicrosPerMilli);
  }
  world.run_until(900 * kMicrosPerSec);
  return serialize_pcap(world.take_trace());
}

double wall_seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

struct LatencyStats {
  double mean_ms = 0;
  double p99_ms = 0;
  double max_ms = 0;
};

LatencyStats summarize(std::vector<double> samples_ms) {
  LatencyStats s;
  if (samples_ms.empty()) return s;
  double sum = 0;
  for (const double v : samples_ms) sum += v;
  s.mean_ms = sum / static_cast<double>(samples_ms.size());
  std::sort(samples_ms.begin(), samples_ms.end());
  s.p99_ms = samples_ms[samples_ms.size() * 99 / 100];
  s.max_ms = samples_ms.back();
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_live.json";
  const unsigned cores = std::thread::hardware_concurrency();
  std::printf("cpu cores: %u\n", cores);
  agg::register_aggregate_sink();

  std::printf("building %zu-session trace (%zu prefixes each)...\n", kSessions,
              kPrefixes);
  const std::vector<std::uint8_t> image = make_image();
  std::printf("capture: %.1f MB\n", static_cast<double>(image.size()) / 1e6);

  // The batch truth and its wall time.
  std::string batch_agg;
  double batch_wall_s = 1e100;
  for (int rep = 0; rep < 3; ++rep) {
    auto stream = PcapStream::from_memory(image);
    if (!stream.ok()) {
      std::fprintf(stderr, "from_memory: %s\n", stream.error().c_str());
      return 1;
    }
    PcapStreamSource source(std::move(stream).value());
    const auto t0 = std::chrono::steady_clock::now();
    const TraceAnalysis analysis = run_pipeline(source, AnalyzerOptions{});
    batch_agg = render_report(build_report_model(analysis), ReportFormat::kAgg);
    batch_wall_s = std::min(batch_wall_s, wall_seconds_since(t0));
  }
  std::printf("batch: %.3fs (%.1f MB/s)\n", batch_wall_s,
              static_cast<double>(image.size()) / batch_wall_s / 1e6);

  // The live replay: one epoch per appended chunk, a snapshot render every
  // kSnapshotEvery epochs — the daemon's steady state.
  std::vector<double> epoch_ms;
  std::vector<double> snapshot_ms;
  auto feed = std::make_shared<RingBufferFeed>();
  RingBufferSource source(feed, false);
  LiveOptions lopts;
  LiveEngine engine(source, lopts);
  const auto live_t0 = std::chrono::steady_clock::now();
  std::size_t off = 0;
  std::size_t epochs = 0;
  while (off < image.size()) {
    const std::size_t n = std::min(kChunk, image.size() - off);
    feed->append(std::span(image.data() + off, n));
    off += n;
    const auto t0 = std::chrono::steady_clock::now();
    while (engine.run_epoch() > 0) {
    }
    epoch_ms.push_back(wall_seconds_since(t0) * 1e3);
    if (++epochs % kSnapshotEvery == 0) {
      const auto s0 = std::chrono::steady_clock::now();
      const std::string snap = engine.render_snapshot(ReportFormat::kAgg);
      snapshot_ms.push_back(wall_seconds_since(s0) * 1e3);
      if (snap.empty()) {
        std::fprintf(stderr, "empty snapshot at epoch %zu\n", epochs);
        return 1;
      }
    }
  }
  feed->close();
  engine.drain();
  const double live_wall_s = wall_seconds_since(live_t0);

  const auto f0 = std::chrono::steady_clock::now();
  const std::string live_agg = engine.render_snapshot(ReportFormat::kAgg);
  snapshot_ms.push_back(wall_seconds_since(f0) * 1e3);

  const bool identical = live_agg == batch_agg;
  std::printf("live: %.3fs over %zu epochs (%.1f MB/s), identical=%s\n",
              live_wall_s, epochs,
              static_cast<double>(image.size()) / live_wall_s / 1e6,
              identical ? "yes" : "NO");
  if (!identical) {
    std::fprintf(stderr,
                 "live .tdagg differs from batch — refusing to report\n");
    return 1;
  }

  const LatencyStats epoch = summarize(std::move(epoch_ms));
  const LatencyStats snap = summarize(std::move(snapshot_ms));
  const PipelineStats pstats = engine.pipeline_stats();
  std::printf("epoch latency: mean %.2f ms, p99 %.2f ms, max %.2f ms\n",
              epoch.mean_ms, epoch.p99_ms, epoch.max_ms);
  std::printf("snapshot latency: mean %.2f ms, p99 %.2f ms, max %.2f ms\n",
              snap.mean_ms, snap.p99_ms, snap.max_ms);

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(
      f,
      "{\n  \"cpu_cores\": %u,\n"
      "  \"sessions\": %zu,\n  \"prefixes_per_session\": %zu,\n"
      "  \"capture_bytes\": %zu,\n  \"records\": %llu,\n"
      "  \"chunk_bytes\": %zu,\n  \"epochs\": %zu,\n"
      "  \"batch_wall_s\": %.6f,\n  \"live_wall_s\": %.6f,\n"
      "  \"live_identical_to_batch\": %s,\n"
      "  \"epoch_ms\": {\"mean\": %.3f, \"p99\": %.3f, \"max\": %.3f},\n"
      "  \"snapshot_ms\": {\"mean\": %.3f, \"p99\": %.3f, \"max\": %.3f},\n"
      "  \"ingest_wall_s\": %.6f,\n  \"analyze_wall_s\": %.6f\n}\n",
      cores, kSessions, kPrefixes, image.size(),
      static_cast<unsigned long long>(pstats.records), kChunk, epochs,
      batch_wall_s, live_wall_s, identical ? "true" : "false", epoch.mean_ms,
      epoch.p99_ms, epoch.max_ms, snap.mean_ms, snap.p99_ms, snap.max_ms,
      static_cast<double>(pstats.ingest_wall) / 1e6,
      static_cast<double>(pstats.analyze_wall) / 1e6);
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
