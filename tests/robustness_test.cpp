// Robustness: the analyzer is built for real-world captures, which contain
// garbage, truncation, and protocol corner cases. Nothing here may crash,
// assert, or hang — malformed input must degrade to empty/partial results.
#include <gtest/gtest.h>

#include <random>

#include "core/analyzer.hpp"
#include "core/detectors.hpp"
#include "core/export.hpp"
#include "helpers.hpp"
#include "sim_scenarios.hpp"

namespace tdat {
namespace {

using test::PacketFactory;

TEST(Robustness, RandomBytesAsPcap) {
  std::mt19937 rng(1);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<std::uint8_t> junk(static_cast<std::size_t>(rng() % 4096));
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng());
    const auto parsed = parse_pcap(junk);
    if (parsed.ok()) {
      // Valid-looking header by chance: analysis must still be safe.
      (void)analyze_trace(parsed.value(), AnalyzerOptions{});
    }
  }
}

TEST(Robustness, ValidHeaderRandomRecords) {
  std::mt19937 rng(2);
  for (int trial = 0; trial < 30; ++trial) {
    PcapFile file;
    const int n = 1 + static_cast<int>(rng() % 20);
    for (int i = 0; i < n; ++i) {
      PcapRecord rec;
      rec.ts = static_cast<Micros>(rng() % 1'000'000);
      rec.data.resize(rng() % 200);
      for (auto& b : rec.data) b = static_cast<std::uint8_t>(rng());
      rec.orig_len = static_cast<std::uint32_t>(rec.data.size());
      file.records.push_back(std::move(rec));
    }
    const auto round = parse_pcap(serialize_pcap(file));
    ASSERT_TRUE(round.ok());
    (void)analyze_trace(round.value(), AnalyzerOptions{});
  }
}

TEST(Robustness, CorruptedRealTraceStillAnalyzes) {
  auto run = test::run_single(SessionSpec{}, 1000, 91);
  std::mt19937 rng(3);
  // Flip bytes in a tenth of the records (checksums NOT verified by
  // default, as with most tcpdump workflows).
  for (auto& rec : run.trace.records) {
    if (rng() % 10 == 0 && !rec.data.empty()) {
      rec.data[rng() % rec.data.size()] ^= static_cast<std::uint8_t>(1 + rng() % 255);
    }
  }
  const auto ta = analyze_trace(run.trace, AnalyzerOptions{});
  // Corruption may split/garble connections; analysis must simply survive
  // and produce bounded ratios.
  for (const auto& a : ta.results) {
    for (double r : a.report.factor_ratio) {
      EXPECT_GE(r, 0.0);
      EXPECT_LE(r, 1.0 + 1e-9);
    }
    (void)detect_timer_gaps(a.series(), a.transfer);
    (void)detect_consecutive_losses(a.series(), a.transfer);
    (void)detect_zero_ack_bug(a.series(), a.transfer);
    (void)detect_peer_group_pause(a);
  }
}

TEST(Robustness, ChecksumVerificationDropsCorruptPackets) {
  auto run = test::run_single(SessionSpec{}, 500, 92);
  const std::size_t total = run.trace.records.size();
  for (std::size_t i = 0; i < run.trace.records.size(); i += 4) {
    auto& data = run.trace.records[i].data;
    if (!data.empty()) data.back() ^= 0xff;
  }
  AnalyzerOptions opts;
  opts.verify_checksums = true;
  const auto pkts = decode_pcap(run.trace, true);
  EXPECT_LT(pkts.size(), total);
  EXPECT_GT(pkts.size(), total / 2);
  (void)analyze_packets(pkts, opts);
}

TEST(Robustness, RstOnlyConnection) {
  PacketFactory f;
  TcpSegmentSpec spec;
  spec.src_ip = test::kSenderIp;
  spec.dst_ip = test::kReceiverIp;
  spec.src_port = test::kSenderPort;
  spec.dst_port = 179;
  spec.seq = 1;
  spec.flags = {.rst = true};
  std::vector<DecodedPacket> trace = {test::make_packet(0, 0, spec)};
  const auto ta = analyze_packets(trace, AnalyzerOptions{});
  ASSERT_EQ(ta.results.size(), 1u);
  EXPECT_TRUE(ta.results[0].transfer.empty());
}

TEST(Robustness, HalfOpenHandshakeOnly) {
  PacketFactory f;
  auto hs = f.handshake(0, 10'000);
  hs.pop_back();  // SYN + SYN/ACK, no final ACK
  const auto ta = analyze_packets(hs, AnalyzerOptions{});
  ASSERT_EQ(ta.results.size(), 1u);
  EXPECT_TRUE(ta.results[0].messages.empty());
}

TEST(Robustness, NonBgpPayloadYieldsNoTransfer) {
  PacketFactory f;
  std::vector<DecodedPacket> trace;
  // 10 KB of data that is not BGP-framed at all.
  for (int i = 0; i < 10; ++i) trace.push_back(f.data(i * 1000, i * 1024, 1024));
  const auto ta = analyze_packets(trace, AnalyzerOptions{});
  ASSERT_EQ(ta.results.size(), 1u);
  EXPECT_EQ(ta.results[0].mct.update_count, 0u);
  EXPECT_TRUE(ta.results[0].transfer.empty());
}

TEST(Robustness, GiantGapsDontOverflow) {
  PacketFactory f;
  std::vector<DecodedPacket> trace;
  trace.push_back(f.data(0, 0, 100));
  // Nearly 50 days later (microseconds still fit easily in int64).
  trace.push_back(f.data(4'000'000'000'000LL, 100, 100));
  const auto ta = analyze_packets(trace, AnalyzerOptions{});
  ASSERT_EQ(ta.results.size(), 1u);
  for (double r : ta.results[0].report.factor_ratio) {
    EXPECT_GE(r, 0.0);
  }
}

TEST(Robustness, AnalysisIsDeterministic) {
  const auto run = test::run_single(test::slow_collector(), 1500, 93);
  const auto a1 = analyze_trace(run.trace, AnalyzerOptions{});
  const auto a2 = analyze_trace(run.trace, AnalyzerOptions{});
  ASSERT_EQ(a1.results.size(), a2.results.size());
  for (std::size_t i = 0; i < a1.results.size(); ++i) {
    EXPECT_EQ(a1.results[i].transfer, a2.results[i].transfer);
    for (std::size_t fidx = 0; fidx < kFactorCount; ++fidx) {
      EXPECT_EQ(a1.results[i].report.factor_delay[fidx],
                a2.results[i].report.factor_delay[fidx]);
    }
  }
}

TEST(Robustness, SerializeParseAnalyzeRoundTrip) {
  const auto run = test::run_single(test::lossy_upstream(0.02), 2000, 94);
  const auto direct = analyze_trace(run.trace, AnalyzerOptions{});
  const auto round = parse_pcap(serialize_pcap(run.trace));
  ASSERT_TRUE(round.ok());
  const auto via_disk = analyze_trace(round.value(), AnalyzerOptions{});
  ASSERT_EQ(direct.results.size(), via_disk.results.size());
  for (std::size_t i = 0; i < direct.results.size(); ++i) {
    EXPECT_EQ(direct.results[i].transfer, via_disk.results[i].transfer);
    EXPECT_EQ(direct.results[i].mct.prefix_count,
              via_disk.results[i].mct.prefix_count);
  }
}

// analyze_packets demuxes pre-decoded packets straight into the analysis
// stage: it must report exactly what the capture path reports, and account
// ingest from the frames it was handed (no capture headers, so no records).
TEST(Robustness, PreDecodedPacketsAnalyzeLikeTheCapture) {
  SimWorld world(95);
  for (int i = 0; i < 3; ++i) {
    const auto s =
        world.add_session(SessionSpec{}, test::table_messages(400, 60 + i));
    world.start_session(s, static_cast<Micros>(i) * 20 * kMicrosPerSec);
  }
  world.run_until(900 * kMicrosPerSec);
  const PcapFile trace = world.take_trace();

  const TraceAnalysis want = analyze_trace(trace, AnalyzerOptions{});
  std::vector<DecodedPacket> packets = decode_pcap(trace);
  const std::size_t packet_count = packets.size();
  std::uint64_t frame_bytes = 0;
  for (const DecodedPacket& pkt : packets) frame_bytes += pkt.frame.size();
  const TraceAnalysis got =
      analyze_packets(std::move(packets), AnalyzerOptions{});

  ASSERT_EQ(got.results.size(), 3u);
  ASSERT_EQ(got.results.size(), want.results.size());
  for (std::size_t i = 0; i < got.results.size(); ++i) {
    EXPECT_EQ(analysis_to_json(got.results[i]),
              analysis_to_json(want.results[i]))
        << "connection " << i;
  }
  EXPECT_EQ(got.stats.records, 0u);
  EXPECT_EQ(got.stats.packets, packet_count);
  EXPECT_EQ(got.stats.bytes_ingested, frame_bytes);
  EXPECT_EQ(got.stats.connections, 3u);
}

}  // namespace
}  // namespace tdat
