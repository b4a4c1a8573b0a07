// The two guarantees behind the per-worker AnalysisScratch:
//  - rebuilding into a reused ConnectionAnalysis with a warm scratch yields
//    byte-identical output to a fresh analysis, across connections of
//    different shapes interleaved through the same scratch (reset bugs in
//    any pooled buffer would surface here);
//  - once warm, analyze_connection performs zero heap allocations for a
//    session whose retained output is allocation-free (OPEN + KEEPALIVEs
//    only), verified through the global operator-new counting hook.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/analyzer.hpp"
#include "core/export.hpp"
#include "helpers.hpp"
#include "pcap/pcap_file.hpp"
#include "sim_scenarios.hpp"
#include "tcp/connection.hpp"
#include "util/alloc_hook.hpp"
#include "util/assert.hpp"
#include "util/metrics.hpp"

namespace tdat {
namespace {

std::vector<Connection> sim_connections(std::size_t sessions,
                                        std::uint64_t seed) {
  SimWorld world(seed);
  std::vector<std::size_t> ids;
  for (std::size_t i = 0; i < sessions; ++i) {
    SessionSpec spec;
    switch (i % 4) {
      case 0: break;  // baseline
      case 1: spec = test::timer_paced_sender(); break;
      case 2: spec = test::lossy_upstream(0.01); break;
      case 3: spec = test::small_window_path(); break;
    }
    ids.push_back(world.add_session(
        spec, test::table_messages(600, seed ^ (0x100 + i))));
  }
  for (std::size_t i = 0; i < ids.size(); ++i) {
    world.start_session(ids[i], static_cast<Micros>(i) * 10 * kMicrosPerMilli);
  }
  world.run_until(900 * kMicrosPerSec);
  return split_connections(decode_pcap(world.take_trace()));
}

TEST(AnalysisScratch, ReusedScratchAndOutputMatchFreshAnalysis) {
  const auto conns = sim_connections(4, 2024);
  ASSERT_GE(conns.size(), 2u);
  AnalyzerOptions opts;
  AnalysisScratch scratch;
  ConnectionAnalysis reused;
  // Two rounds, alternating connection shapes through the SAME scratch and
  // output object: any state leaking across rebuilds breaks identity.
  for (int round = 0; round < 2; ++round) {
    for (std::size_t c = 0; c < conns.size(); ++c) {
      SCOPED_TRACE("round " + std::to_string(round) + " conn " +
                   std::to_string(c));
      const ConnectionAnalysis fresh = analyze_connection(conns[c], opts);
      analyze_connection(conns[c], opts, scratch, reused);

      EXPECT_EQ(fresh.key, reused.key);
      EXPECT_EQ(fresh.transfer.begin, reused.transfer.begin);
      EXPECT_EQ(fresh.transfer.end, reused.transfer.end);
      EXPECT_EQ(fresh.mct.end, reused.mct.end);
      EXPECT_EQ(fresh.mct.update_count, reused.mct.update_count);
      EXPECT_EQ(fresh.mct.prefix_count, reused.mct.prefix_count);
      ASSERT_EQ(fresh.messages.size(), reused.messages.size());
      for (std::size_t m = 0; m < fresh.messages.size(); ++m) {
        EXPECT_EQ(fresh.messages[m].ts, reused.messages[m].ts);
        EXPECT_EQ(fresh.messages[m].end_offset, reused.messages[m].end_offset);
      }
      EXPECT_EQ(fresh.series().names(), reused.series().names());
      EXPECT_EQ(registry_to_json(fresh.series()),
                registry_to_json(reused.series()));
      EXPECT_EQ(analysis_to_json(fresh), analysis_to_json(reused));
    }
  }
}

// --- zero-allocation steady state -----------------------------------------

std::vector<std::uint8_t> bgp_keepalive_bytes() {
  std::vector<std::uint8_t> b(19, 0xff);
  b[16] = 0;
  b[17] = 19;
  b[18] = 4;  // KEEPALIVE
  return b;
}

std::vector<std::uint8_t> bgp_open_bytes() {
  std::vector<std::uint8_t> b(16, 0xff);
  b.push_back(0);
  b.push_back(29);  // length: 19-byte header + 10-byte OPEN body
  b.push_back(1);   // OPEN
  b.push_back(4);   // version
  b.push_back(0xfd);
  b.push_back(0xe8);  // my AS 65000
  b.push_back(0);
  b.push_back(180);  // hold time
  b.push_back(10);
  b.push_back(0);
  b.push_back(1);
  b.push_back(1);  // BGP identifier
  b.push_back(0);  // no optional parameters
  return b;
}

// A session whose retained output allocates nothing: OPEN + KEEPALIVEs have
// no heap-owning message bodies, so with a warm scratch the whole analysis
// must run allocation-free.
Connection keepalive_session() {
  test::PacketFactory f;
  std::vector<DecodedPacket> packets = f.handshake(0, 2000);
  Micros t = 5000;
  std::int64_t off = 0;
  auto send = [&](const std::vector<std::uint8_t>& msg) {
    TcpSegmentSpec spec;
    spec.src_ip = test::kSenderIp;
    spec.dst_ip = test::kReceiverIp;
    spec.src_port = test::kSenderPort;
    spec.dst_port = test::kReceiverPort;
    spec.seq = f.sender_isn + 1 + static_cast<std::uint32_t>(off);
    spec.ack = f.receiver_isn + 1;
    spec.flags = {.ack = true, .psh = true};
    spec.window = 0xffff;
    spec.payload = msg;
    packets.push_back(test::make_packet(t, f.next_index++, spec));
    off += static_cast<std::int64_t>(msg.size());
    t += 2000;
    packets.push_back(f.ack(t, off));
    t += 3000;
  };
  send(bgp_open_bytes());
  const auto ka = bgp_keepalive_bytes();
  for (int i = 0; i < 8; ++i) send(ka);
  auto conns = split_connections(packets);
  TDAT_EXPECTS(conns.size() == 1);
  return std::move(conns.front());
}

TEST(AnalysisScratch, SteadyStateAnalysisIsAllocationFree) {
  if (!alloc_hook_active()) {
    GTEST_SKIP() << "allocation counting hook compiled out (sanitizer build)";
  }
  const Connection conn = keepalive_session();
  AnalyzerOptions opts;
  AnalysisScratch scratch;
  ConnectionAnalysis out;
  // First run sizes every pooled buffer; second settles any growth that
  // depended on first-run content (e.g. registry slot revival order).
  analyze_connection(conn, opts, scratch, out);
  analyze_connection(conn, opts, scratch, out);

  const std::uint64_t count0 = thread_alloc_count();
  const std::uint64_t bytes0 = thread_alloc_bytes();
  analyze_connection(conn, opts, scratch, out);
  const std::uint64_t count = thread_alloc_count() - count0;
  const std::uint64_t bytes = thread_alloc_bytes() - bytes0;
  EXPECT_EQ(count, 0u) << "steady-state analyze_connection made " << count
                       << " heap allocations (" << bytes << " bytes)";
}

// The per-run allocation histogram captures the same invariant through the
// metrics pipeline (visible in PipelineStats / BENCH output).
TEST(AnalysisScratch, AllocHistogramObservesWarmRuns) {
  if (!alloc_hook_active()) {
    GTEST_SKIP() << "allocation counting hook compiled out (sanitizer build)";
  }
  const Connection conn = keepalive_session();
  AnalyzerOptions opts;
  AnalysisScratch scratch;
  ConnectionAnalysis out;
  analyze_connection(conn, opts, scratch, out);
  analyze_connection(conn, opts, scratch, out);
  const HistogramSnapshot before =
      metrics().histogram("analyze.allocs_per_conn").snapshot();
  analyze_connection(conn, opts, scratch, out);
  const HistogramSnapshot delta =
      metrics().histogram("analyze.allocs_per_conn").snapshot().since(before);
  ASSERT_EQ(delta.count, 1u);
  // since() keeps min/max from the cumulative snapshot, so assert on the
  // exact per-run sum: one warm run observed, zero allocations recorded.
  EXPECT_EQ(delta.sum, 0);
}

// The same zero-allocation steady state at jobs=2: parallel_for's helper
// threads outlive each call, so their thread-local scratch stays warm from
// one analyze_connections run (a batch run, a live epoch) to the next.
TEST(AnalysisScratch, ParallelRunsStayAllocationFreeAcrossCalls) {
  if (!alloc_hook_active()) {
    GTEST_SKIP() << "allocation counting hook compiled out (sanitizer build)";
  }
  const std::vector<Connection> conns(64, keepalive_session());
  std::vector<std::uint32_t> which(conns.size());
  for (std::uint32_t i = 0; i < which.size(); ++i) which[i] = i;
  AnalyzerOptions opts;
  opts.jobs = 2;
  std::vector<ConnectionAnalysis> results(conns.size());
  ASSERT_EQ(analyze_connections(conns, which, opts, results), 2u);
  analyze_connections(conns, which, opts, results);

  const HistogramSnapshot before =
      metrics().histogram("analyze.allocs_per_conn").snapshot();
  analyze_connections(conns, which, opts, results);
  const HistogramSnapshot delta =
      metrics().histogram("analyze.allocs_per_conn").snapshot().since(before);
  ASSERT_EQ(delta.count, conns.size());
  EXPECT_EQ(delta.sum, 0) << "third jobs=2 run allocated";
}

}  // namespace
}  // namespace tdat
