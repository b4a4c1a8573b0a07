// Checkpoint cost in the `tdat watch` hot loop: how much does writing a
// durable .tdckpt every snapshot interval add on top of the epoch itself?
// Replays a multi-session capture through LiveEngine over a FollowSource
// (the daemon's real source type — file-backed, so retained packets have
// capture offsets to serialize) and measures, per checkpoint: engine state
// extraction (checkpoint_state), encoding, and the atomic durable write
// (temp + fsync + rename). Emits BENCH_checkpoint.json (path overridable
// via argv[1]).
//
// The numbers are only reported after the crash-safety invariant is
// checked: a fresh engine restored from the LAST checkpoint and drained
// must render byte-identically to the uninterrupted run — latency of a
// checkpoint that cannot restore is worthless.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "agg/sink.hpp"
#include "bgp/table_gen.hpp"
#include "core/analyzer.hpp"
#include "core/checkpoint.hpp"
#include "core/live.hpp"
#include "core/live_source.hpp"
#include "core/report.hpp"
#include "pcap/pcap_file.hpp"
#include "sim/world.hpp"

namespace {

using namespace tdat;

constexpr std::size_t kSessions = 32;
constexpr std::size_t kPrefixes = 5'000;
constexpr std::size_t kEpochBatch = 256;      // records per epoch
constexpr std::size_t kCheckpointEvery = 2;   // epochs between checkpoints

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
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_checkpoint.json";
  std::printf("cpu cores: %u\n", std::thread::hardware_concurrency());
  agg::register_aggregate_sink();

  std::printf("building %zu-session trace (%zu prefixes each)...\n", kSessions,
              kPrefixes);
  const std::vector<std::uint8_t> image = make_image();
  std::printf("capture: %.1f MB\n", static_cast<double>(image.size()) / 1e6);

  const std::string cap_path = out_path + ".capture.pcap";
  const std::string ckpt_path = out_path + ".state.tdckpt";
  {
    std::FILE* f = std::fopen(cap_path.c_str(), "wb");
    if (!f || std::fwrite(image.data(), 1, image.size(), f) != image.size()) {
      std::fprintf(stderr, "cannot write %s\n", cap_path.c_str());
      return 1;
    }
    std::fclose(f);
  }

  std::vector<double> state_ms;
  std::vector<double> encode_ms;
  std::vector<double> write_ms;
  std::size_t ckpt_bytes = 0;
  std::size_t checkpoints = 0;
  LiveOptions lopts;
  lopts.epoch_batch_records = kEpochBatch;
  FollowSource source(cap_path);
  LiveEngine engine(source, lopts);
  LiveCheckpoint last;
  const auto live_t0 = std::chrono::steady_clock::now();
  std::size_t epochs = 0;
  while (engine.run_epoch() > 0) {
    if (++epochs % kCheckpointEvery != 0 || !source.checkpointable()) continue;
    LiveCheckpoint ckpt;
    const auto s0 = std::chrono::steady_clock::now();
    if (auto r = engine.checkpoint_state(ckpt); !r.ok()) {
      std::fprintf(stderr, "checkpoint_state: %s\n", r.error().c_str());
      return 1;
    }
    auto ident = compute_capture_identity(cap_path);
    if (!ident.ok()) {
      std::fprintf(stderr, "capture identity: %s\n", ident.error().c_str());
      return 1;
    }
    ckpt.capture = ident.value();
    const PcapStream::Resume resume = source.resume_state();
    ckpt.resume_offset = resume.offset;
    ckpt.records_seen = resume.records;
    ckpt.stream_last_ts = resume.last_ts;
    ckpt.diag = resume.diag;
    state_ms.push_back(wall_seconds_since(s0) * 1e3);

    const auto e0 = std::chrono::steady_clock::now();
    const std::vector<std::uint8_t> encoded = encode_checkpoint(ckpt);
    encode_ms.push_back(wall_seconds_since(e0) * 1e3);
    ckpt_bytes = std::max(ckpt_bytes, encoded.size());

    const auto w0 = std::chrono::steady_clock::now();
    if (auto r = write_checkpoint_file(ckpt_path, ckpt); !r.ok()) {
      std::fprintf(stderr, "write_checkpoint_file: %s\n", r.error().c_str());
      return 1;
    }
    write_ms.push_back(wall_seconds_since(w0) * 1e3);
    last = ckpt;
    ++checkpoints;
  }
  engine.drain();
  const double live_wall_s = wall_seconds_since(live_t0);
  const std::string full_agg = engine.render_snapshot(ReportFormat::kAgg);

  // Crash-safety invariant: restore from the last checkpoint and drain.
  if (checkpoints == 0) {
    std::fprintf(stderr, "capture too small: no checkpoint was taken\n");
    return 1;
  }
  FollowSource resumed(cap_path, IngestPolicy{},
                       PcapStream::Resume{last.resume_offset,
                                          last.records_seen,
                                          last.stream_last_ts, last.diag});
  LiveEngine fresh(resumed, lopts);
  if (auto r = fresh.restore_state(last, cap_path); !r.ok()) {
    std::fprintf(stderr, "restore_state: %s\n", r.error().c_str());
    return 1;
  }
  while (fresh.run_epoch() > 0) {
  }
  fresh.drain();
  const bool identical = fresh.render_snapshot(ReportFormat::kAgg) == full_agg;
  std::printf("restore from last checkpoint identical=%s\n",
              identical ? "yes" : "NO");
  if (!identical) {
    std::fprintf(stderr,
                 "restored .tdagg differs from the uninterrupted run — "
                 "refusing to report\n");
    return 1;
  }

  const LatencyStats state = summarize(std::move(state_ms));
  const LatencyStats encode = summarize(std::move(encode_ms));
  const LatencyStats write = summarize(std::move(write_ms));
  std::printf("%zu checkpoints over %zu epochs (%.3fs live), %.1f KB max\n",
              checkpoints, epochs, live_wall_s,
              static_cast<double>(ckpt_bytes) / 1e3);
  std::printf("state extraction: mean %.3f ms, p99 %.3f ms, max %.3f ms\n",
              state.mean_ms, state.p99_ms, state.max_ms);
  std::printf("encode: mean %.3f ms, p99 %.3f ms, max %.3f ms\n",
              encode.mean_ms, encode.p99_ms, encode.max_ms);
  std::printf("durable write: mean %.3f ms, p99 %.3f ms, max %.3f ms\n",
              write.mean_ms, write.p99_ms, write.max_ms);

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(
      f,
      "{\n  \"sessions\": %zu,\n  \"prefixes_per_session\": %zu,\n"
      "  \"capture_bytes\": %zu,\n  \"epochs\": %zu,\n"
      "  \"checkpoints\": %zu,\n  \"checkpoint_bytes_max\": %zu,\n"
      "  \"restore_identical\": %s,\n"
      "  \"state_ms\": {\"mean\": %.4f, \"p99\": %.4f, \"max\": %.4f},\n"
      "  \"encode_ms\": {\"mean\": %.4f, \"p99\": %.4f, \"max\": %.4f},\n"
      "  \"write_ms\": {\"mean\": %.4f, \"p99\": %.4f, \"max\": %.4f}\n}\n",
      kSessions, kPrefixes, image.size(), epochs, checkpoints, ckpt_bytes,
      identical ? "true" : "false", state.mean_ms, state.p99_ms, state.max_ms,
      encode.mean_ms, encode.p99_ms, encode.max_ms, write.mean_ms, write.p99_ms,
      write.max_ms);
  std::fclose(f);
  std::remove(cap_path.c_str());
  std::remove(ckpt_path.c_str());
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
