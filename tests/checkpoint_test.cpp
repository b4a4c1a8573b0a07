// Crash-safety tests (DESIGN.md §16). The extended keystone invariant: kill
// `tdat watch` at ANY epoch — the in-process stand-in is dropping the engine
// and source on the floor, state unflushed — restore from the last durable
// .tdckpt, drain, and the rendered `agg` + `json` bytes match the batch
// pipeline exactly. Around that sit the codec hostile-input matrix
// (every-prefix truncation, every single-bit flip, trailing garbage), the
// durable-write failure injection (a failed checkpoint write must keep the
// previous checkpoint byte-identical), capture identity validation, and the
// degradation ladder for the GC / windowed configurations.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "agg/sink.hpp"
#include "core/analyzer.hpp"
#include "core/checkpoint.hpp"
#include "core/live.hpp"
#include "core/live_source.hpp"
#include "core/report.hpp"
#include "pcap/fault_injector.hpp"
#include "pcap/pcap_file.hpp"
#include "sim_scenarios.hpp"
#include "util/atomic_file.hpp"

namespace tdat {
namespace {

const bool kAggSinkRegistered = [] {
  agg::register_aggregate_sink();
  return true;
}();

// Three staggered BGP sessions: long enough for multi-epoch sweeps with a
// small epoch batch, idle gaps long enough for the GC configurations to act.
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

// A capture with a long-idle first connection: session a finishes early,
// session b starts 1530s in (offset by half a keepalive interval so the two
// sessions' keepalives interleave and each connection is observably idle
// between the other's packets). Under idle_gc=30s the first connection is
// retired mid-run, so kill/restore sweeps over this image cross a GC event.
const std::vector<std::uint8_t>& gc_image() {
  static const std::vector<std::uint8_t> image = [] {
    SimWorld world(99);
    const auto a = world.add_session(SessionSpec{}, test::table_messages(200, 40));
    world.start_session(a, 0);
    const auto b = world.add_session(SessionSpec{}, test::table_messages(200, 41));
    world.start_session(b, 1530 * kMicrosPerSec);
    world.run_until(3000 * kMicrosPerSec);
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

LiveCheckpoint sample_checkpoint() {
  LiveCheckpoint ckpt;
  ckpt.capture = {0x801, 0x1234567, 1 << 20, 1024, 0xdeadbeef};
  ckpt.resume_offset = 524312;
  ckpt.records_seen = 4021;
  ckpt.stream_last_ts = 29 * kMicrosPerSec;
  ckpt.diag.truncated = 2;
  ckpt.diag.resynced = 1;
  ckpt.diag.skipped_bytes = 37;
  ckpt.diag.tail_truncated = 1;
  ckpt.diag.budget_exhausted = false;
  ckpt.next_index = 4021;
  ckpt.now_ts = ckpt.stream_last_ts;
  ckpt.config.location = 1;
  ckpt.config.verify_checksums = true;
  ckpt.config.strict = false;
  ckpt.config.enable_ack_shift = true;
  ckpt.config.pass_bits = 0x2f;
  ckpt.config.max_errors = 1000;
  ckpt.config.window = 5 * kMicrosPerSec;
  ckpt.config.idle_gc = 30 * kMicrosPerSec;
  ckpt.epochs = 17;
  ckpt.records = 4021;
  ckpt.packets = 3977;
  ckpt.connections_total = 3;
  ckpt.connections_gc = 1;
  ckpt.packets_evicted = 120;
  ckpt.conns.push_back({false, {{24, 900, 0}, {40000, 1200, 1800}}});
  ckpt.conns.push_back({true, {{90000, 400, 3000}}});
  ckpt.conns.push_back({false, {{120000, 621, 3400}}});
  return ckpt;
}

// ------------------------------------------------------------------ codec --

TEST(CheckpointCodec, RoundTrip) {
  const LiveCheckpoint ckpt = sample_checkpoint();
  const std::vector<std::uint8_t> image = encode_checkpoint(ckpt);
  auto parsed = parse_checkpoint(image);
  ASSERT_TRUE(parsed.ok()) << parsed.error();
  EXPECT_TRUE(parsed.value() == ckpt);
}

TEST(CheckpointCodec, EmptyCheckpointRoundTrips) {
  const LiveCheckpoint ckpt;
  auto parsed = parse_checkpoint(encode_checkpoint(ckpt));
  ASSERT_TRUE(parsed.ok()) << parsed.error();
  EXPECT_TRUE(parsed.value() == ckpt);
}

TEST(CheckpointCodec, EveryPrefixTruncationRejected) {
  const std::vector<std::uint8_t> image =
      encode_checkpoint(sample_checkpoint());
  for (std::size_t len = 0; len < image.size(); ++len) {
    auto parsed =
        parse_checkpoint(std::span(image.data(), len));
    EXPECT_FALSE(parsed.ok()) << "prefix of " << len << " bytes parsed";
  }
}

TEST(CheckpointCodec, EverySingleBitFlipRejected) {
  const std::vector<std::uint8_t> image =
      encode_checkpoint(sample_checkpoint());
  std::vector<std::uint8_t> mutant = image;
  for (std::size_t byte = 0; byte < image.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      mutant[byte] = image[byte] ^ static_cast<std::uint8_t>(1u << bit);
      auto parsed = parse_checkpoint(mutant);
      EXPECT_FALSE(parsed.ok())
          << "flip of byte " << byte << " bit " << bit << " parsed";
      mutant[byte] = image[byte];
    }
  }
}

TEST(CheckpointCodec, TrailingBytesRejected) {
  std::vector<std::uint8_t> image = encode_checkpoint(sample_checkpoint());
  image.push_back(0x00);
  EXPECT_FALSE(parse_checkpoint(image).ok());
}

TEST(CheckpointCodec, HostileConnCountRejectedWithoutAllocating) {
  // A payload whose connection count promises far more elements than the
  // bytes could hold must be rejected by arithmetic, not by attempting the
  // allocation (ASan would catch the latter as OOM).
  std::vector<std::uint8_t> image = encode_checkpoint(LiveCheckpoint{});
  // The conn-count u32 is the last 4 payload bytes of an empty checkpoint.
  for (std::size_t i = image.size() - 4; i < image.size(); ++i) {
    image[i] = 0xff;
  }
  EXPECT_FALSE(parse_checkpoint(image).ok());
}

// ------------------------------------------------------------------- file --

TEST(CheckpointFile, WriteReadRoundTrip) {
  const std::string path = ::testing::TempDir() + "ckpt_roundtrip.tdckpt";
  const LiveCheckpoint ckpt = sample_checkpoint();
  auto wrote = write_checkpoint_file(path, ckpt);
  ASSERT_TRUE(wrote.ok()) << wrote.error();
  auto loaded = read_checkpoint_file(path);
  ASSERT_TRUE(loaded.ok()) << loaded.error();
  EXPECT_TRUE(loaded.value() == ckpt);
  std::remove(path.c_str());
}

bool fail_every_write(const std::string&) { return false; }

TEST(CheckpointFile, FailedWriteKeepsPreviousCheckpoint) {
  const std::string path = ::testing::TempDir() + "ckpt_enospc.tdckpt";
  const LiveCheckpoint first = sample_checkpoint();
  ASSERT_TRUE(write_checkpoint_file(path, first).ok());

  LiveCheckpoint second = first;
  second.records_seen += 1000;
  set_atomic_write_failure_hook(&fail_every_write);
  auto wrote = write_checkpoint_file(path, second);
  set_atomic_write_failure_hook(nullptr);
  EXPECT_FALSE(wrote.ok());

  auto loaded = read_checkpoint_file(path);
  ASSERT_TRUE(loaded.ok()) << loaded.error();
  EXPECT_TRUE(loaded.value() == first);  // untouched by the failed replace
  std::remove(path.c_str());
}

// --------------------------------------------------------------- identity --

TEST(CaptureIdentityTest, AcceptsGrownRejectsShrunkOrEdited) {
  const std::string path =
      write_temp(clean_image(), "ckpt_identity.pcap");
  auto id = compute_capture_identity(path);
  ASSERT_TRUE(id.ok()) << id.error();
  EXPECT_TRUE(validate_capture_identity(id.value(), path).ok());

  // Growth (the normal case for a live capture) still validates.
  {
    std::FILE* f = std::fopen(path.c_str(), "ab");
    ASSERT_NE(f, nullptr);
    const std::uint8_t extra[32] = {};
    ASSERT_EQ(std::fwrite(extra, 1, sizeof(extra), f), sizeof(extra));
    std::fclose(f);
  }
  EXPECT_TRUE(validate_capture_identity(id.value(), path).ok());

  // Shrinking below the recorded size (rotation, truncation) does not.
  std::filesystem::resize_file(path, id.value().size - 1);
  EXPECT_FALSE(validate_capture_identity(id.value(), path).ok());

  // A different file renamed over the path (new inode — the replacement was
  // created while the original still held its inode) does not.
  const std::string staged = write_temp(clean_image(), "ckpt_identity2.pcap");
  ASSERT_EQ(std::rename(staged.c_str(), path.c_str()), 0);
  const std::string other = path;
  EXPECT_FALSE(validate_capture_identity(id.value(), other).ok());

  // Same inode, edited leading bytes does not.
  auto id2 = compute_capture_identity(other);
  ASSERT_TRUE(id2.ok());
  {
    std::FILE* f = std::fopen(other.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 64, SEEK_SET);
    std::fputc(0xee, f);
    std::fclose(f);
  }
  EXPECT_FALSE(validate_capture_identity(id2.value(), other).ok());
  std::remove(other.c_str());
}

// -------------------------------------------------------- kill + restore --

struct Rendered {
  std::string agg;
  std::string json;
  std::string diag;
  std::uint64_t records = 0;
  std::uint64_t gc = 0;  // connections retired by idle GC (live runs only)
};

Rendered render(LiveEngine& engine, TraceSource& source) {
  Rendered r;
  r.agg = engine.render_snapshot(ReportFormat::kAgg);
  r.json = engine.render_snapshot(ReportFormat::kJson);
  r.diag = source.diagnostics().to_json();
  r.records = engine.stats().records;
  r.gc = engine.stats().connections_gc;
  return r;
}

// The batch baseline over the same capture FILE (not a memory image), so
// the per-file ingest diagnostics in the JSON match what FollowSource
// reports for the followed path.
Rendered batch_run(const std::string& path, const AnalyzerOptions& opts) {
  auto opened = MultiFileSource::open({path}, opts.ingest);
  EXPECT_TRUE(opened.ok()) << opened.error();
  MultiFileSource source = std::move(opened).value();
  const TraceAnalysis ta = run_pipeline(source, opts);
  const ReportModel model = build_report_model(ta);
  Rendered r;
  r.agg = render_report(model, ReportFormat::kAgg);
  r.json = render_report(model, ReportFormat::kJson);
  r.diag = ta.stats.ingest.to_json();
  r.records = ta.stats.records;
  return r;
}

// The uninterrupted reference: follow the (already complete) file with the
// same epoch batch size the killed run uses, then drain.
Rendered follow_run(const std::string& path, const LiveOptions& lopts) {
  FollowSource source(path, lopts.analyzer.ingest);
  LiveEngine engine(source, lopts);
  while (engine.run_epoch() > 0) {
  }
  engine.drain();
  EXPECT_FALSE(source.failed()) << source.error();
  return render(engine, source);
}

// Runs `epochs_before_kill` epochs, checkpoints exactly the way `tdat watch`
// does, then abandons engine and source cold — the in-process SIGKILL. The
// returned checkpoint is what the next process finds on disk.
Result<LiveCheckpoint> run_and_kill(const std::string& path,
                                    const LiveOptions& lopts,
                                    std::size_t epochs_before_kill) {
  FollowSource source(path, lopts.analyzer.ingest);
  LiveEngine engine(source, lopts);
  for (std::size_t e = 0; e < epochs_before_kill; ++e) {
    (void)engine.run_epoch();
  }
  if (!source.checkpointable()) {
    return Err<LiveCheckpoint>("source not checkpointable");
  }
  LiveCheckpoint ckpt;
  TDAT_TRY(state, engine.checkpoint_state(ckpt));
  (void)state;
  TDAT_TRY(id, compute_capture_identity(path));
  ckpt.capture = id;
  const PcapStream::Resume resume = source.resume_state();
  ckpt.resume_offset = resume.offset;
  ckpt.records_seen = resume.records;
  ckpt.stream_last_ts = resume.last_ts;
  ckpt.diag = resume.diag;
  return ckpt;
}

// Restores a fresh engine from `ckpt`, continues to the end of the capture,
// drains, renders — the restart half of the kill/restore cycle.
Rendered restore_and_drain(const std::string& path, const LiveCheckpoint& ckpt,
                           const LiveOptions& lopts) {
  PcapStream::Resume resume;
  resume.offset = ckpt.resume_offset;
  resume.records = ckpt.records_seen;
  resume.last_ts = ckpt.stream_last_ts;
  resume.diag = ckpt.diag;
  FollowSource source(path, lopts.analyzer.ingest, resume);
  LiveEngine engine(source, lopts);
  auto restored = engine.restore_state(ckpt, path);
  EXPECT_TRUE(restored.ok()) << restored.error();
  while (engine.run_epoch() > 0) {
  }
  engine.drain();
  EXPECT_FALSE(source.failed()) << source.error();
  return render(engine, source);
}

void expect_same(const Rendered& a, const Rendered& b) {
  EXPECT_EQ(a.agg, b.agg);
  EXPECT_EQ(a.json, b.json);
  EXPECT_EQ(a.diag, b.diag);
  EXPECT_EQ(a.records, b.records);
}

TEST(ChaosRestore, KillAtEveryEpochMatchesBatch) {
  const std::string path = write_temp(clean_image(), "chaos_clean.pcap");
  const AnalyzerOptions opts;
  const Rendered batch = batch_run(path, opts);

  LiveOptions lopts;
  lopts.analyzer = opts;
  lopts.epoch_batch_records = 64;  // many epochs -> many kill points
  // Establish how many epochs the capture takes, then kill at each of them.
  std::size_t total_epochs = 0;
  {
    FollowSource source(path, opts.ingest);
    LiveEngine engine(source, lopts);
    while (engine.run_epoch() > 0) ++total_epochs;
  }
  ASSERT_GE(total_epochs, 4u) << "capture too small for a meaningful sweep";

  for (std::size_t kill = 1; kill <= total_epochs; ++kill) {
    SCOPED_TRACE("kill after epoch " + std::to_string(kill));
    auto ckpt = run_and_kill(path, lopts, kill);
    ASSERT_TRUE(ckpt.ok()) << ckpt.error();
    expect_same(restore_and_drain(path, ckpt.value(), lopts), batch);
  }
  std::remove(path.c_str());
}

TEST(ChaosRestore, KillAndRestoreOnDamagedCaptures) {
  // The checkpoint machinery must survive captures whose ingest needs the
  // resync/truncation paths: offsets still index the damaged image, and the
  // checkpointed diagnostics keep the final tallies batch-identical.
  const AnalyzerOptions opts;
  for (const FaultMode mode :
       {FaultMode::kTruncateRecord, FaultMode::kGarbageSplice,
        FaultMode::kBitFlip}) {
    SCOPED_TRACE(std::string("mode=") + to_string(mode));
    std::vector<std::uint8_t> image = clean_image();
    FaultPlan plan;
    plan.mode = mode;
    plan.seed = 11;
    const auto report = inject_faults(image, plan);
    ASSERT_GT(report.faults_applied, 0u);
    const std::string path =
        write_temp(image, std::string("chaos_") + to_string(mode) + ".pcap");
    const Rendered batch = batch_run(path, opts);

    LiveOptions lopts;
    lopts.analyzer = opts;
    lopts.epoch_batch_records = 128;
    for (const std::size_t kill : {std::size_t{1}, std::size_t{3}}) {
      SCOPED_TRACE("kill after epoch " + std::to_string(kill));
      auto ckpt = run_and_kill(path, lopts, kill);
      ASSERT_TRUE(ckpt.ok()) << ckpt.error();
      expect_same(restore_and_drain(path, ckpt.value(), lopts), batch);
    }
    std::remove(path.c_str());
  }
}

TEST(ChaosRestore, GcOnlyRestoreMatchesUninterrupted) {
  // window == 0 keeps every retained packet exact, so even with idle GC
  // retiring connections the restore ladder stays byte-identical to an
  // uninterrupted run (retired connections replay from their stashed runs).
  const std::string path = write_temp(gc_image(), "chaos_gc.pcap");
  const AnalyzerOptions opts;
  LiveOptions lopts;
  lopts.analyzer = opts;
  lopts.idle_gc = 30 * kMicrosPerSec;
  lopts.epoch_batch_records = 64;
  const Rendered uninterrupted = follow_run(path, lopts);
  ASSERT_GT(uninterrupted.gc, 0u)
      << "capture never leaves a connection idle long enough to retire";

  std::size_t total_epochs = 0;
  {
    FollowSource source(path, opts.ingest);
    LiveEngine engine(source, lopts);
    while (engine.run_epoch() > 0) ++total_epochs;
  }
  bool saw_gc = false;
  for (std::size_t kill = 2; kill <= total_epochs; kill += 3) {
    SCOPED_TRACE("kill after epoch " + std::to_string(kill));
    auto ckpt = run_and_kill(path, lopts, kill);
    ASSERT_TRUE(ckpt.ok()) << ckpt.error();
    saw_gc = saw_gc || ckpt.value().connections_gc > 0;
    const Rendered restored = restore_and_drain(path, ckpt.value(), lopts);
    expect_same(restored, uninterrupted);
    EXPECT_EQ(restored.gc, uninterrupted.gc);
  }
  EXPECT_TRUE(saw_gc) << "no kill point observed a retired connection";
  std::remove(path.c_str());
}

TEST(ChaosRestore, WindowedRestoreIsDeterministic) {
  // With window > 0 the restored analysis is a documented approximation
  // (DESIGN.md §16): re-analysis happens over the retained window. The
  // contract is determinism — two restores from one checkpoint agree bit for
  // bit — and a clean run to completion.
  const std::string path = write_temp(gc_image(), "chaos_window.pcap");
  const AnalyzerOptions opts;
  LiveOptions lopts;
  lopts.analyzer = opts;
  lopts.window = 5 * kMicrosPerSec;
  lopts.idle_gc = 30 * kMicrosPerSec;
  lopts.epoch_batch_records = 64;

  auto ckpt = run_and_kill(path, lopts, 6);
  ASSERT_TRUE(ckpt.ok()) << ckpt.error();
  const Rendered once = restore_and_drain(path, ckpt.value(), lopts);
  const Rendered twice = restore_and_drain(path, ckpt.value(), lopts);
  expect_same(once, twice);
  EXPECT_FALSE(once.agg.empty());
  std::remove(path.c_str());
}

TEST(ChaosRestore, RestoreRequiresFreshEngine) {
  const std::string path = write_temp(clean_image(), "chaos_fresh.pcap");
  const AnalyzerOptions opts;
  LiveOptions lopts;
  lopts.analyzer = opts;
  lopts.epoch_batch_records = 256;
  auto ckpt = run_and_kill(path, lopts, 2);
  ASSERT_TRUE(ckpt.ok()) << ckpt.error();

  FollowSource source(path, opts.ingest);
  LiveEngine engine(source, lopts);
  (void)engine.run_epoch();  // engine has state now
  EXPECT_FALSE(engine.restore_state(ckpt.value(), path).ok());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace tdat
