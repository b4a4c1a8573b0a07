// Fleet driver tests (DESIGN.md §14): wire-protocol framing and message
// codecs against truncated/garbage/trailing-byte inputs, shard-plan
// invariants (complete, disjoint, coalesced coverage of the capture),
// OffsetRunSource equivalence with the full stream, and in-process
// run_fleet byte-identity with the single-process archive — including a
// worker killed mid-fleet and its shard reassigned.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "agg/sink.hpp"
#include "bgp/table_gen.hpp"
#include "core/analyzer.hpp"
#include "core/report.hpp"
#include "core/trace_source.hpp"
#include "fleet/coordinator.hpp"
#include "fleet/shard_plan.hpp"
#include "fleet/wire.hpp"
#include "sim/world.hpp"

namespace tdat::fleet {
namespace {

// ------------------------------------------------------------------ framing

std::vector<std::uint8_t> bytes_of(std::initializer_list<int> xs) {
  std::vector<std::uint8_t> out;
  for (int x : xs) out.push_back(static_cast<std::uint8_t>(x));
  return out;
}

TEST(FleetWire, FrameRoundtrip) {
  const auto payload = bytes_of({1, 2, 3, 250, 251, 252});
  std::vector<std::uint8_t> buf;
  append_frame(buf, MsgType::kResult, payload);
  ASSERT_EQ(buf.size(), kFrameHeaderLen + payload.size());

  Frame frame;
  std::size_t consumed = 0;
  ASSERT_EQ(decode_frame(buf, frame, consumed), FrameStatus::kOk);
  EXPECT_EQ(consumed, buf.size());
  EXPECT_EQ(frame.type, MsgType::kResult);
  EXPECT_EQ(frame.payload, payload);
}

TEST(FleetWire, TwoFramesDecodeSequentially) {
  std::vector<std::uint8_t> buf;
  append_frame(buf, MsgType::kHeartbeat, bytes_of({9}));
  append_frame(buf, MsgType::kShutdown, {});

  Frame frame;
  std::size_t consumed = 0;
  ASSERT_EQ(decode_frame(buf, frame, consumed), FrameStatus::kOk);
  EXPECT_EQ(frame.type, MsgType::kHeartbeat);
  buf.erase(buf.begin(), buf.begin() + static_cast<std::ptrdiff_t>(consumed));
  ASSERT_EQ(decode_frame(buf, frame, consumed), FrameStatus::kOk);
  EXPECT_EQ(frame.type, MsgType::kShutdown);
  EXPECT_TRUE(frame.payload.empty());
}

TEST(FleetWire, TruncatedFrameNeedsMore) {
  std::vector<std::uint8_t> buf;
  append_frame(buf, MsgType::kError, bytes_of({1, 2, 3, 4}));
  // Every proper prefix is kNeedMore, never kBad and never kOk.
  for (std::size_t len = 0; len < buf.size(); ++len) {
    Frame frame;
    std::size_t consumed = 99;
    const auto status = decode_frame(
        std::span<const std::uint8_t>(buf.data(), len), frame, consumed);
    EXPECT_EQ(status, FrameStatus::kNeedMore) << "prefix length " << len;
    EXPECT_EQ(consumed, 0u);
  }
}

TEST(FleetWire, GarbageIsBadNotNeedMore) {
  // Wrong magic: rejected as soon as the first bytes disagree, even on a
  // buffer shorter than a header — a peer speaking HTTP must not hang the
  // coordinator waiting for "more" of a frame that will never be valid.
  const std::string http = "GET / HTTP/1.1\r\n\r\n";
  Frame frame;
  std::size_t consumed = 0;
  EXPECT_EQ(decode_frame(
                std::span<const std::uint8_t>(
                    reinterpret_cast<const std::uint8_t*>(http.data()), 4),
                frame, consumed),
            FrameStatus::kBad);

  // Right magic, unknown type.
  std::vector<std::uint8_t> buf;
  append_frame(buf, MsgType::kHello, {});
  buf[4] = 0x77;
  EXPECT_EQ(decode_frame(buf, frame, consumed), FrameStatus::kBad);

  // Right magic and type, implausible length.
  buf.clear();
  append_frame(buf, MsgType::kHello, {});
  for (std::size_t i = 8; i < 16; ++i) buf[i] = 0xff;
  EXPECT_EQ(decode_frame(buf, frame, consumed), FrameStatus::kBad);
}

// ----------------------------------------------------------------- messages

TEST(FleetWire, AssignRoundtrip) {
  AssignMessage in;
  in.worker_id = 7;
  in.shard_index = 3;
  in.capture = "/tmp/capture.pcap";
  in.run_id = "week-31";
  in.jobs = 2;
  in.location = 1;
  in.verify_checksums = 1;
  in.pass_bits = 0x5555;
  in.heartbeat_ms = 250;
  in.runs = {{24, 10}, {4096, 1}, {70000, 500}};

  const auto out = AssignMessage::decode(in.encode());
  ASSERT_TRUE(out.ok()) << out.error();
  EXPECT_EQ(out.value().worker_id, 7u);
  EXPECT_EQ(out.value().shard_index, 3u);
  EXPECT_EQ(out.value().capture, in.capture);
  EXPECT_EQ(out.value().run_id, in.run_id);
  EXPECT_EQ(out.value().pass_bits, 0x5555u);
  ASSERT_EQ(out.value().runs.size(), 3u);
  EXPECT_EQ(out.value().runs[2].offset, 70000u);
  EXPECT_EQ(out.value().runs[2].count, 500u);
}

TEST(FleetWire, ResultAndErrorRoundtrip) {
  ResultMessage r;
  r.worker_id = 1;
  r.shard_index = 2;
  r.records = 1'000'000;
  r.bytes_ingested = 1ull << 33;
  r.archive = bytes_of({0, 1, 2, 3, 255});
  const auto rr = ResultMessage::decode(r.encode());
  ASSERT_TRUE(rr.ok()) << rr.error();
  EXPECT_EQ(rr.value().bytes_ingested, 1ull << 33);
  EXPECT_EQ(rr.value().archive, r.archive);

  ErrorMessage e;
  e.worker_id = 4;
  e.message = "mmap failed";
  const auto ee = ErrorMessage::decode(e.encode());
  ASSERT_TRUE(ee.ok()) << ee.error();
  EXPECT_EQ(ee.value().message, "mmap failed");
}

TEST(FleetWire, DecodersRejectTruncationAndTrailingBytes) {
  AssignMessage assign;
  assign.capture = "x.pcap";
  assign.runs = {{24, 3}};
  std::vector<std::uint8_t> good = assign.encode();

  // Every truncation fails — a short read must never decode to a
  // plausible-but-wrong assignment.
  for (std::size_t len = 0; len < good.size(); ++len) {
    const auto got = AssignMessage::decode(
        std::span<const std::uint8_t>(good.data(), len));
    EXPECT_FALSE(got.ok()) << "decoded from " << len << " of " << good.size()
                           << " bytes";
  }
  // Trailing bytes fail too.
  good.push_back(0);
  EXPECT_FALSE(AssignMessage::decode(good).ok());

  HeartbeatMessage hb;
  auto hb_bytes = hb.encode();
  hb_bytes.push_back(0);
  EXPECT_FALSE(HeartbeatMessage::decode(hb_bytes).ok());

  // Pure garbage payloads for every decoder.
  const auto garbage = bytes_of({0xde, 0xad, 0xbe, 0xef, 0x01});
  EXPECT_FALSE(AssignMessage::decode(garbage).ok());
  EXPECT_FALSE(ResultMessage::decode(garbage).ok());
  EXPECT_FALSE(ErrorMessage::decode(garbage).ok());
  EXPECT_FALSE(HeartbeatMessage::decode(garbage).ok());
}

// ---------------------------------------------------------------- workloads

PcapFile make_trace(std::size_t sessions) {
  SimWorld world(5150 + sessions);
  std::vector<std::size_t> ids;
  for (std::size_t i = 0; i < sessions; ++i) {
    SessionSpec spec;
    if (i % 2 == 1) spec.up_fwd.random_loss = 0.01;
    Rng rng(6200 + 11 * i);
    TableGenConfig tg;
    tg.prefix_count = 800;
    ids.push_back(
        world.add_session(spec, serialize_updates(generate_table(tg, rng))));
  }
  for (std::size_t i = 0; i < ids.size(); ++i) {
    world.start_session(ids[i], static_cast<Micros>(i) * 10 * kMicrosPerMilli);
  }
  world.run_until(600 * kMicrosPerSec);
  return world.take_trace();
}

std::string write_trace(const char* name, const PcapFile& trace) {
  const std::string path = ::testing::TempDir() + "/" + name;
  EXPECT_TRUE(write_pcap_file(path, trace));
  return path;
}

std::string whole_archive(const std::string& path, const std::string& run_id) {
  auto source = PcapStreamSource::open(path, false);
  EXPECT_TRUE(source.ok()) << source.error();
  AnalyzerOptions opts;
  const TraceAnalysis analysis = run_pipeline(source.value(), opts);
  return agg::build_archive(build_report_model(analysis), run_id).serialize();
}

// --------------------------------------------------------------- shard plan

TEST(ShardPlan, CoversEveryRecordDisjointlyAndCoalesced) {
  const PcapFile trace = make_trace(4);
  const std::string path = write_trace("fleet_plan.pcap", trace);

  // Ground truth: the byte offset of every record, from a manual walk of
  // the same file the planner reads.
  std::vector<std::uint64_t> offsets;
  std::map<std::uint64_t, std::uint64_t> next_offset;  // offset -> successor
  {
    std::uint64_t at = 24;
    for (const auto& rec : trace.records) {
      offsets.push_back(at);
      const std::uint64_t next = at + 16 + rec.data.size();
      next_offset[at] = next;
      at = next;
    }
  }

  auto plan = build_shard_plan(path, 3);
  ASSERT_TRUE(plan.ok()) << plan.error();
  EXPECT_EQ(plan.value().records, trace.records.size());
  EXPECT_EQ(plan.value().shards.size(), 3u);

  // Walk every shard's runs: each run must start on a real record boundary
  // and cover `count` consecutive records; no record may appear twice.
  std::map<std::uint64_t, int> claimed;
  std::uint64_t total = 0;
  for (const ShardRuns& shard : plan.value().shards) {
    std::uint64_t shard_records = 0;
    for (std::size_t r = 0; r < shard.runs.size(); ++r) {
      const RecordRun& run = shard.runs[r];
      ASSERT_GT(run.count, 0u);
      std::uint64_t at = run.offset;
      for (std::uint64_t i = 0; i < run.count; ++i) {
        ASSERT_TRUE(next_offset.count(at)) << "run not on a record boundary";
        ++claimed[at];
        at = next_offset[at];
      }
      shard_records += run.count;
      // Coalesced: a run never starts where the previous run of the same
      // shard ended (they would have been one run).
      if (r > 0) {
        std::uint64_t prev_end = shard.runs[r - 1].offset;
        for (std::uint64_t i = 0; i < shard.runs[r - 1].count; ++i) {
          prev_end = next_offset[prev_end];
        }
        EXPECT_NE(run.offset, prev_end) << "adjacent runs not coalesced";
      }
    }
    EXPECT_EQ(shard.records, shard_records);
    total += shard_records;
  }
  EXPECT_EQ(total, trace.records.size());
  for (const auto& [offset, count] : claimed) {
    EXPECT_EQ(count, 1) << "record at " << offset << " claimed twice";
  }
  EXPECT_EQ(claimed.size(), offsets.size());
}

TEST(ShardPlan, JsonIsNonEmptyAndNamesTheCapture) {
  const std::string path = write_trace("fleet_plan_json.pcap", make_trace(2));
  auto plan = build_shard_plan(path, 2);
  ASSERT_TRUE(plan.ok()) << plan.error();
  const std::string json = plan.value().to_json();
  EXPECT_NE(json.find("\"shards\""), std::string::npos);
  EXPECT_NE(json.find("\"runs\""), std::string::npos);
  EXPECT_NE(json.find(path), std::string::npos);
}

TEST(ShardPlan, UnreadableCaptureFails) {
  EXPECT_FALSE(build_shard_plan("/nonexistent/nope.pcap", 2).ok());
}

// ---------------------------------------------------------- OffsetRunSource

TEST(OffsetRunSource, OneShardPlanReproducesTheFullStream) {
  const PcapFile trace = make_trace(3);
  const std::string path = write_trace("fleet_offsetrun.pcap", trace);

  auto plan = build_shard_plan(path, 1);
  ASSERT_TRUE(plan.ok()) << plan.error();
  ASSERT_EQ(plan.value().shards.size(), 1u);

  auto source = OffsetRunSource::open(path, plan.value().shards[0].runs);
  ASSERT_TRUE(source.ok()) << source.error();
  AnalyzerOptions opts;
  const TraceAnalysis via_runs = run_pipeline(source.value(), opts);
  EXPECT_FALSE(source.value().failed()) << source.value().error();

  auto stream = PcapStreamSource::open(path, false);
  ASSERT_TRUE(stream.ok()) << stream.error();
  const TraceAnalysis via_stream = run_pipeline(stream.value(), opts);

  EXPECT_EQ(via_runs.stats.records, via_stream.stats.records);
  EXPECT_EQ(via_runs.stats.packets, via_stream.stats.packets);
  EXPECT_EQ(via_runs.stats.connections, via_stream.stats.connections);
  EXPECT_EQ(agg::build_archive(build_report_model(via_runs), "x").serialize(),
            agg::build_archive(build_report_model(via_stream), "x")
                .serialize());
}

TEST(OffsetRunSource, StalePlanFailsInsteadOfSilentlyDroppingRecords) {
  const std::string path = write_trace("fleet_stale.pcap", make_trace(1));
  // A run pointing beyond the capture: the plan no longer matches the image.
  std::vector<RecordRun> runs = {{1ull << 40, 5}};
  auto source = OffsetRunSource::open(path, runs);
  ASSERT_TRUE(source.ok()) << source.error();
  std::vector<StreamRecord> records(16);
  while (source.value().next_raw_records(records) > 0) {
  }
  EXPECT_TRUE(source.value().failed());
  EXPECT_NE(source.value().error().find("outside the capture"),
            std::string::npos);
}

// ------------------------------------------------------------------- fleets

TEST(Fleet, MergedArchiveIsByteIdenticalAcrossWorkerCounts) {
  const std::string path = write_trace("fleet_equiv.pcap", make_trace(4));
  const std::string whole = whole_archive(path, "t");

  for (const std::size_t workers : {std::size_t{1}, std::size_t{2},
                                    std::size_t{3}}) {
    FleetOptions opts;
    opts.workers = workers;
    opts.run_id = "t";
    auto outcome = run_fleet(path, opts);
    ASSERT_TRUE(outcome.ok()) << outcome.error();
    EXPECT_EQ(outcome.value().archive.serialize(), whole)
        << "workers=" << workers;
    EXPECT_EQ(outcome.value().stats.shards, workers);
    EXPECT_EQ(outcome.value().stats.reassignments, 0u);
  }
}

TEST(Fleet, KilledWorkerShardIsReassignedAndOutputUnchanged) {
  const std::string path = write_trace("fleet_kill.pcap", make_trace(4));
  const std::string whole = whole_archive(path, "t");

  // Worker ids are handed out from 0; killing id 0 the moment its first
  // assignment lands forces a timeout, a reassignment, and (budget
  // permitting) a respawn — none of which may change the merged bytes.
  ::setenv("TDAT_FLEET_KILL_WORKER", "0", 1);
  FleetOptions opts;
  opts.workers = 2;
  opts.run_id = "t";
  opts.heartbeat_ms = 50;
  opts.timeout_ms = 400;
  auto outcome = run_fleet(path, opts);
  ::unsetenv("TDAT_FLEET_KILL_WORKER");
  ASSERT_TRUE(outcome.ok()) << outcome.error();
  EXPECT_EQ(outcome.value().archive.serialize(), whole);
  EXPECT_GE(outcome.value().stats.reassignments, 1u);
  EXPECT_GE(outcome.value().stats.respawns, 1u);
}

}  // namespace
}  // namespace tdat::fleet
