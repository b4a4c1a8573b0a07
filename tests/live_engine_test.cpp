// Live streaming engine equivalence and bounded-memory tests (DESIGN.md
// §15). The keystone invariant: replaying a finished capture through
// LiveEngine — in arbitrary append chunks, mid-record splits included, with
// eviction and GC disabled — then draining must reproduce the batch
// pipeline's `agg` and `json` output byte for byte, on clean captures and
// across the whole FaultInjector corruption matrix. On top of that: the
// FollowSource growing-file and rotation paths, the window/idle-GC memory
// bounds (checked with the allocation hooks where active), tail_truncated
// semantics, and the archive v2 tool-version stamp.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "agg/archive.hpp"
#include "agg/sink.hpp"
#include "core/analyzer.hpp"
#include "core/live.hpp"
#include "core/live_source.hpp"
#include "core/report.hpp"
#include "pcap/fault_injector.hpp"
#include "pcap/pcap_file.hpp"
#include "sim_scenarios.hpp"
#include "util/alloc_hook.hpp"
#include "util/version.hpp"

namespace tdat {
namespace {

// render_snapshot(kAgg) goes through the registered renderer, which the CLI
// normally installs at startup; tests install it themselves.
const bool kAggSinkRegistered = [] {
  agg::register_aggregate_sink();
  return true;
}();

// Same capture as the mmap equivalence matrix: three staggered BGP sessions,
// enough records that chunked appends split many record boundaries.
const std::vector<std::uint8_t>& clean_image() {
  static const std::vector<std::uint8_t> image = [] {
    SimWorld world(1312);
    for (int i = 0; i < 3; ++i) {
      const auto s =
          world.add_session(SessionSpec{}, test::table_messages(600, 40 + i));
      world.start_session(s, static_cast<Micros>(i) * 60 * kMicrosPerSec);
    }
    world.run_until(2500 * kMicrosPerSec);
    return serialize_pcap(world.take_trace());
  }();
  return image;
}

// A small capture for the byte-at-a-time append tests, where the big image
// would mean millions of epochs.
const std::vector<std::uint8_t>& small_image() {
  static const std::vector<std::uint8_t> image = [] {
    SimWorld world(7);
    const auto s = world.add_session(SessionSpec{}, test::table_messages(60, 9));
    world.start_session(s, 0);
    world.run_until(600 * kMicrosPerSec);
    return serialize_pcap(world.take_trace());
  }();
  return image;
}

std::string write_temp(const std::vector<std::uint8_t>& image,
                       const std::string& name) {
  const std::string path = ::testing::TempDir() + name;
  std::FILE* f = std::fopen(path.c_str(), "wb");
  EXPECT_NE(f, nullptr);
  EXPECT_EQ(std::fwrite(image.data(), 1, image.size(), f), image.size());
  std::fclose(f);
  return path;
}

struct RenderedRun {
  std::string agg;
  std::string json;
  IngestDiagnostics diag;
  std::uint64_t records = 0;
};

RenderedRun render_batch(const TraceAnalysis& ta) {
  const ReportModel model = build_report_model(ta);
  RenderedRun r;
  r.agg = render_report(model, ReportFormat::kAgg);
  r.json = render_report(model, ReportFormat::kJson);
  r.diag = ta.stats.ingest;
  r.records = ta.stats.records;
  return r;
}

// The batch baseline: the normal one-shot pipeline over the same image.
RenderedRun batch_run(const std::vector<std::uint8_t>& image,
                      const AnalyzerOptions& opts) {
  auto stream = PcapStream::from_memory(image, opts.ingest);
  EXPECT_TRUE(stream.ok()) << stream.error();
  PcapStreamSource source(std::move(stream).value());
  return render_batch(run_pipeline(source, opts));
}

// Replays `image` through the live engine via a RingBufferFeed, appending
// `chunk` bytes at a time with an epoch after every append — so records are
// routinely split mid-header and mid-body — then drains.
RenderedRun live_run(const std::vector<std::uint8_t>& image, std::size_t chunk,
                     const AnalyzerOptions& opts, LiveOptions policies = {}) {
  auto feed = std::make_shared<RingBufferFeed>();
  RingBufferSource source(feed, opts.verify_checksums, opts.ingest);
  LiveOptions lopts = policies;
  lopts.analyzer = opts;
  LiveEngine engine(source, lopts);
  std::size_t off = 0;
  while (off < image.size()) {
    const std::size_t n = std::min(chunk, image.size() - off);
    feed->append(std::span(image.data() + off, n));
    off += n;
    (void)engine.run_epoch();
  }
  feed->close();
  engine.drain();
  EXPECT_FALSE(source.failed()) << source.error();
  RenderedRun r;
  r.agg = engine.render_snapshot(ReportFormat::kAgg);
  r.json = engine.render_snapshot(ReportFormat::kJson);
  r.diag = source.diagnostics();
  r.records = engine.stats().records;
  return r;
}

void expect_equivalent(const RenderedRun& live, const RenderedRun& batch) {
  EXPECT_EQ(live.agg, batch.agg);
  EXPECT_EQ(live.json, batch.json);
  EXPECT_EQ(live.diag.to_json(), batch.diag.to_json());
  EXPECT_EQ(live.records, batch.records);
}

TEST(LiveEquivalence, CleanChunkedAppendsMatchBatch) {
  const AnalyzerOptions opts;
  const RenderedRun batch = batch_run(clean_image(), opts);
  ASSERT_GT(batch.records, 512u);
  for (const std::size_t chunk : {std::size_t{997}, std::size_t{64 * 1024 + 13}}) {
    SCOPED_TRACE("chunk=" + std::to_string(chunk));
    expect_equivalent(live_run(clean_image(), chunk, opts), batch);
  }
}

TEST(LiveEquivalence, ByteAtATimeAppendsMatchBatch) {
  const AnalyzerOptions opts;
  const RenderedRun batch = batch_run(small_image(), opts);
  for (const std::size_t chunk : {std::size_t{1}, std::size_t{7}}) {
    SCOPED_TRACE("chunk=" + std::to_string(chunk));
    expect_equivalent(live_run(small_image(), chunk, opts), batch);
  }
}

TEST(LiveEquivalence, EveryFaultModeMatchesBatch) {
  const AnalyzerOptions opts;
  for (const FaultMode mode : all_fault_modes()) {
    SCOPED_TRACE(to_string(mode));
    std::vector<std::uint8_t> image = clean_image();
    FaultPlan plan;
    plan.mode = mode;
    plan.seed = 11;
    ASSERT_EQ(inject_faults(image, plan).faults_applied, 1u);
    expect_equivalent(live_run(image, 8 * 1024 + 7, opts),
                      batch_run(image, opts));
  }
}

TEST(LiveEquivalence, StrictModeMatchesBatch) {
  std::vector<std::uint8_t> image = clean_image();
  FaultPlan plan;
  plan.mode = FaultMode::kZeroInclLen;
  plan.seed = 11;
  ASSERT_EQ(inject_faults(image, plan).faults_applied, 1u);
  AnalyzerOptions opts;
  opts.ingest = IngestPolicy::strict_mode();
  const RenderedRun batch = batch_run(image, opts);
  // A corrupt interior header under strict mode is a hard stop, not an
  // end-of-data truncation: `truncated` ticks, `tail_truncated` must not.
  EXPECT_EQ(batch.diag.truncated, 1u);
  EXPECT_EQ(batch.diag.tail_truncated, 0u);
  expect_equivalent(live_run(image, 4096 + 1, opts), batch);
}

TEST(LiveEquivalence, TailTruncationCountsAsTailTruncated) {
  std::vector<std::uint8_t> image = clean_image();
  FaultPlan plan;
  plan.mode = FaultMode::kTruncateTail;
  plan.seed = 11;
  ASSERT_EQ(inject_faults(image, plan).faults_applied, 1u);
  const AnalyzerOptions opts;
  const RenderedRun batch = batch_run(image, opts);
  // Genuine end-of-data truncation ticks both counters.
  EXPECT_GE(batch.diag.truncated, 1u);
  EXPECT_EQ(batch.diag.tail_truncated, batch.diag.truncated);
  expect_equivalent(live_run(image, 2048 + 3, opts), batch);
}

TEST(LiveEquivalence, CleanCaptureHasNoTailTruncated) {
  const RenderedRun batch = batch_run(clean_image(), AnalyzerOptions{});
  EXPECT_EQ(batch.diag.truncated, 0u);
  EXPECT_EQ(batch.diag.tail_truncated, 0u);
}

TEST(FollowSourceLive, GrowingFileMatchesBatch) {
  const std::vector<std::uint8_t>& image = clean_image();
  const std::string path = ::testing::TempDir() + "live_grow.pcap";
  std::remove(path.c_str());

  const AnalyzerOptions opts;
  FollowSource source(path, opts.ingest);
  LiveOptions lopts;
  lopts.analyzer = opts;
  LiveEngine engine(source, lopts);

  // The engine starts before the file even exists; the first epochs see
  // nothing.
  EXPECT_EQ(engine.run_epoch(), 0u);
  EXPECT_TRUE(engine.source_live());

  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::size_t off = 0;
  const std::size_t chunk = 8 * 1024 + 7;
  while (off < image.size()) {
    const std::size_t n = std::min(chunk, image.size() - off);
    ASSERT_EQ(std::fwrite(image.data() + off, 1, n, f), n);
    ASSERT_EQ(std::fflush(f), 0);
    off += n;
    (void)engine.poll_source();
    (void)engine.run_epoch();
  }
  std::fclose(f);
  (void)engine.poll_source();
  engine.drain();
  ASSERT_FALSE(source.failed()) << source.error();

  const RenderedRun batch = batch_run(image, opts);
  EXPECT_EQ(engine.render_snapshot(ReportFormat::kAgg), batch.agg);
  EXPECT_EQ(engine.render_snapshot(ReportFormat::kJson), batch.json);
  EXPECT_EQ(source.diagnostics().to_json(), batch.diag.to_json());
  std::remove(path.c_str());
}

TEST(FollowSourceLive, RotationMatchesMultiFileBatch) {
  // Segment A: the baseline capture. Segment B: a later world whose records
  // all start after A's, mirroring a log rotation.
  const std::vector<std::uint8_t>& image_a = clean_image();
  const std::vector<std::uint8_t> image_b = [] {
    SimWorld world(77);
    const auto s =
        world.add_session(SessionSpec{}, test::table_messages(120, 5));
    world.start_session(s, 3000 * kMicrosPerSec);
    world.run_until(4000 * kMicrosPerSec);
    return serialize_pcap(world.take_trace());
  }();

  const std::string path = ::testing::TempDir() + "live_rotate.pcap";
  const std::string rotated = path + ".1";
  std::remove(path.c_str());
  std::remove(rotated.c_str());

  const AnalyzerOptions opts;
  FollowSource source(path, opts.ingest);
  LiveOptions lopts;
  lopts.analyzer = opts;
  LiveEngine engine(source, lopts);

  // Write and consume segment A.
  write_temp(image_a, "live_rotate.pcap");
  (void)engine.poll_source();
  while (engine.run_epoch() > 0) {
  }
  EXPECT_EQ(source.segments_completed(), 0u);  // A is still the live segment

  // Rotate: A moves aside, a fresh file appears at the followed path.
  ASSERT_EQ(std::rename(path.c_str(), rotated.c_str()), 0);
  write_temp(image_b, "live_rotate.pcap");
  ASSERT_TRUE(engine.poll_source());  // new inode detected
  while (engine.run_epoch() > 0 || engine.poll_source()) {
  }
  EXPECT_EQ(source.segments_completed(), 1u);  // A finalized with batch semantics
  engine.drain();
  ASSERT_FALSE(source.failed()) << source.error();
  EXPECT_EQ(source.segments_completed(), 2u);

  // Batch baseline: the rotated pair analyzed as a multi-file capture.
  auto batch = analyze_files({rotated, path}, opts);
  ASSERT_TRUE(batch.ok()) << batch.error();
  const RenderedRun want = render_batch(std::move(batch).value());
  EXPECT_EQ(engine.render_snapshot(ReportFormat::kAgg), want.agg);
  EXPECT_EQ(engine.render_snapshot(ReportFormat::kJson), want.json);
  EXPECT_EQ(source.diagnostics().to_json(), want.diag.to_json());
  std::remove(path.c_str());
  std::remove(rotated.c_str());
}

// A capture with a long-idle first connection: session 0 finishes early,
// session 1 starts 1500s in, so idle GC has something to retire and the
// eviction window has a deep history to trim.
const std::vector<std::uint8_t>& idle_gc_image() {
  static const std::vector<std::uint8_t> image = [] {
    SimWorld world(99);
    const auto a =
        world.add_session(SessionSpec{}, test::table_messages(200, 40));
    world.start_session(a, 0);
    // Offset by a half keepalive interval: the two sessions' keepalives
    // interleave, so each connection is observably idle between the other's
    // packets.
    const auto b =
        world.add_session(SessionSpec{}, test::table_messages(200, 41));
    world.start_session(b, 1530 * kMicrosPerSec);
    world.run_until(3000 * kMicrosPerSec);
    return serialize_pcap(world.take_trace());
  }();
  return image;
}

TEST(LiveBoundedMemory, WindowEvictionAndIdleGcBoundRetainedState) {
  AnalyzerOptions opts;
  opts.jobs = 1;  // keep all analysis allocations on this thread

  auto replay = [&](Micros window, Micros idle_gc, LiveEngineStats* stats_out,
                    std::size_t* retained_out, std::string* json_out) {
    auto feed = std::make_shared<RingBufferFeed>();
    RingBufferSource source(feed, opts.verify_checksums, opts.ingest);
    LiveOptions lopts;
    lopts.analyzer = opts;
    lopts.window = window;
    lopts.idle_gc = idle_gc;
    LiveEngine engine(source, lopts);
    const std::vector<std::uint8_t>& image = idle_gc_image();
    std::size_t off = 0;
    // Small chunks so epochs land between the interleaved keepalives — an
    // epoch must observe one connection idle while the other speaks.
    const std::size_t chunk = 499;
    while (off < image.size()) {
      const std::size_t n = std::min(chunk, image.size() - off);
      feed->append(std::span(image.data() + off, n));
      off += n;
      (void)engine.run_epoch();
    }
    feed->close();
    engine.drain();
    EXPECT_FALSE(source.failed()) << source.error();
    if (stats_out != nullptr) *stats_out = engine.stats();
    if (retained_out != nullptr) *retained_out = engine.retained_packets();
    if (json_out != nullptr) {
      *json_out = engine.render_snapshot(ReportFormat::kJson);
    }
  };

  const std::uint64_t base_allocs = thread_alloc_bytes();
  LiveEngineStats unbounded_stats{};
  std::size_t unbounded_retained = 0;
  replay(0, 0, &unbounded_stats, &unbounded_retained, nullptr);
  const std::uint64_t unbounded_bytes = thread_alloc_bytes() - base_allocs;

  // The simulated sessions keepalive every 60s, so a sub-keepalive idle
  // threshold retires each connection between keepalives — and the next
  // keepalive on the same 4-tuple must open a brand-new connection (the
  // retire-then-reopen path).
  LiveEngineStats stats{};
  std::size_t retained = 0;
  std::string json;
  replay(/*window=*/10 * kMicrosPerSec, /*idle_gc=*/30 * kMicrosPerSec,
         &stats, &retained, &json);
  const std::uint64_t bounded_bytes =
      thread_alloc_bytes() - base_allocs - unbounded_bytes;

  // The unbounded replay keeps every packet; the policies must have fired
  // and left only a small fraction of them live.
  ASSERT_EQ(unbounded_stats.packets, stats.packets);
  EXPECT_EQ(unbounded_retained, unbounded_stats.packets);
  EXPECT_GT(stats.packets_evicted, 0u);
  EXPECT_GE(stats.connections_gc, 1u);
  EXPECT_GT(stats.connections_total, unbounded_stats.connections_total);
  EXPECT_LT(retained, unbounded_retained / 4);
  EXPECT_EQ(stats.connections_active,
            stats.connections_total - stats.connections_gc);

  // Retired connections still appear in snapshots (their finished analysis
  // survives GC).
  EXPECT_EQ(unbounded_stats.connections_total, 2u);
  EXPECT_NE(json.find("\"connections\":["), std::string::npos);
  EXPECT_GT(std::count(json.begin(), json.end(), '{'), 2);

  // With the allocation hooks live (they freeze under sanitizers), the
  // windowed replay — re-analyzing over trimmed packet lists — must allocate
  // less than the keep-everything replay.
  if (alloc_hook_active()) {
    EXPECT_LT(bounded_bytes, unbounded_bytes);
  }
}

// An open feed must size each refill's arena to the bytes it holds: retained
// records pin their arena, so a whole-chunk arena per small append would
// cost hundreds of times the capture's own size.
TEST(LiveBoundedMemory, SmallAppendsAllocateInProportionToBytesFed) {
  if (!alloc_hook_active()) {
    GTEST_SKIP() << "allocation hooks are compiled out in this build";
  }
  const std::vector<std::uint8_t>& image = clean_image();
  auto parsed = parse_pcap(image);
  ASSERT_TRUE(parsed.ok()) << parsed.error();
  std::vector<StreamRecord> kept;
  kept.reserve(parsed.value().records.size());
  std::vector<StreamRecord> batch(256);
  auto feed = std::make_shared<RingBufferFeed>();
  RingBufferSource source(feed, false);
  const auto keep_available = [&] {
    for (std::size_t n; (n = source.next_raw_records(batch)) > 0;) {
      kept.insert(kept.end(), batch.begin(),
                  batch.begin() + static_cast<std::ptrdiff_t>(n));
    }
  };

  const std::uint64_t before = thread_alloc_bytes();
  constexpr std::size_t kAppend = 4096;
  for (std::size_t off = 0; off < image.size(); off += kAppend) {
    feed->append(std::span(image).subspan(
        off, std::min(kAppend, image.size() - off)));
    keep_available();
  }
  feed->close();
  source.begin_drain();
  keep_available();
  const std::uint64_t allocated = thread_alloc_bytes() - before;

  EXPECT_FALSE(source.failed()) << source.error();
  EXPECT_EQ(kept.size(), parsed.value().records.size());
  EXPECT_LT(allocated, 3 * image.size());
}

TEST(LiveDemux, ForgetFreesTheKeyAndIgnoresStaleIndices) {
  auto packet = [](Micros ts, std::uint16_t sport) {
    DecodedPacket p;
    p.ts = ts;
    p.ip.src = 0x0a000001;
    p.ip.dst = 0x0a000002;
    p.ip.protocol = kIpProtoTcp;
    p.tcp.src_port = sport;
    p.tcp.dst_port = 179;
    return p;
  };
  ConnectionDemux demux;
  const std::size_t first = demux.add_indexed(packet(1, 40000));
  EXPECT_EQ(first, 0u);
  EXPECT_EQ(demux.add_indexed(packet(2, 40000)), first);

  // Forgetting the key means the same 4-tuple opens a brand-new connection,
  // while the old Connection object stays put (stable indices).
  demux.forget(first);
  const std::size_t second = demux.add_indexed(packet(3, 40000));
  EXPECT_EQ(second, 1u);
  ASSERT_EQ(demux.connections().size(), 2u);
  EXPECT_EQ(demux.connections()[first].packets.size(), 2u);
  EXPECT_EQ(demux.connections()[second].packets.size(), 1u);

  // A stale forget of the old index must not evict the new connection.
  demux.forget(first);
  EXPECT_EQ(demux.add_indexed(packet(4, 40000)), second);
  EXPECT_EQ(demux.connections()[second].packets.size(), 2u);

  // An unrelated key is untouched by all of this.
  const std::size_t other = demux.add_indexed(packet(5, 50000));
  EXPECT_EQ(other, 2u);
}

TEST(ArchiveV2, ToolVersionStampRoundTripsAndMerges) {
  // build_archive stamps the release that produced the archive — semver
  // only, never git describe.
  const agg::Archive built = agg::build_archive(ReportModel{}, "run");
  ASSERT_EQ(built.tool_versions.size(), 1u);
  EXPECT_EQ(built.tool_versions[0], version_semver());
  EXPECT_EQ(built.tool_versions[0].find("git"), std::string::npos);

  const std::string bytes = built.serialize();
  auto parsed = agg::parse_archive(std::span(
      reinterpret_cast<const std::uint8_t*>(bytes.data()), bytes.size()));
  ASSERT_TRUE(parsed.ok()) << parsed.error();
  EXPECT_EQ(parsed.value().tool_versions, built.tool_versions);

  // Merging unions the version sets, sorted and deduplicated; merging the
  // empty archive is the identity.
  agg::Archive a = built;
  agg::Archive other;
  other.tool_versions = {"9.9.9", version_semver()};
  a.merge_from(other);
  EXPECT_EQ(a.tool_versions,
            (std::vector<std::string>{version_semver(), "9.9.9"}));
  agg::Archive identity = built;
  identity.merge_from(agg::Archive{});
  EXPECT_EQ(identity.serialize(), bytes);
}

}  // namespace
}  // namespace tdat
