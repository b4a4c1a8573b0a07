// Determinism and equivalence guarantees of the parallel streaming pipeline:
//  - analyze_trace at jobs=N is bit-identical to jobs=1 on multi-session
//    traces (including lossy and peer-group scenarios),
//  - the streaming pcap reader yields exactly what parse_pcap yields on
//    µs/ns fixtures of both endiannesses, at any chunk size,
//  - analyze_file (streaming ingest) equals analyze_trace (in-memory),
//  - ConnectionDemux fed incrementally equals batch split_connections,
//  - parallel_for behaves (coverage, exceptions, helper reuse across calls,
//    a working set after fork, TDAT_JOBS).
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <stdexcept>
#include <thread>

#include "core/export.hpp"
#include "helpers.hpp"
#include "pcap/pcap_stream.hpp"
#include "sim/peer_group.hpp"
#include "sim_scenarios.hpp"
#include "tcp/connection.hpp"
#include "util/bytes.hpp"
#include "util/metrics.hpp"
#include "util/thread_pool.hpp"

namespace tdat {
namespace {

// Several sessions with different injected bottlenecks in one capture, so
// per-connection analysis cost is uneven across workers.
PcapFile multi_session_trace(std::size_t sessions, std::uint64_t seed) {
  SimWorld world(seed);
  std::vector<std::size_t> ids;
  for (std::size_t i = 0; i < sessions; ++i) {
    SessionSpec spec;
    switch (i % 5) {
      case 0: break;  // baseline
      case 1: spec = test::timer_paced_sender(); break;
      case 2: spec = test::lossy_upstream(0.01); break;
      case 3: spec = test::slow_collector(); break;
      case 4: spec = test::small_window_path(); break;
    }
    ids.push_back(world.add_session(
        spec, test::table_messages(1'000, seed ^ (0x100 + i))));
  }
  for (std::size_t i = 0; i < ids.size(); ++i) {
    world.start_session(ids[i], static_cast<Micros>(i) * 30 * kMicrosPerMilli);
  }
  world.run_until(900 * kMicrosPerSec);
  return world.take_trace();
}

// Fig. 9 shape: two sessions share a peer group, one collector dies, plus a
// lossy independent session — connection count 3, very uneven work.
PcapFile peer_group_trace(std::uint64_t seed) {
  SimWorld world(seed);
  Rng rng(seed + 1);
  TableGenConfig tg;
  tg.prefix_count = 4'000;
  PeerGroup group(serialize_updates(generate_table(tg, rng)), 40);

  SessionSpec healthy;
  SessionSpec doomed;
  doomed.receiver_ip = 0x0a09090a;
  healthy.bgp.hold_time = 180 * kMicrosPerSec;
  doomed.bgp.hold_time = 180 * kMicrosPerSec;
  healthy.bgp.keepalive_interval = 30 * kMicrosPerSec;
  doomed.bgp.keepalive_interval = 30 * kMicrosPerSec;
  healthy.collector.keepalive_interval = 30 * kMicrosPerSec;
  doomed.collector.keepalive_interval = 30 * kMicrosPerSec;
  doomed.sender_tcp.send_buf_capacity = 8 * 1024;
  const auto a_id = world.add_session(healthy, &group);
  const auto b_id = world.add_session(doomed, &group);
  SessionSpec lossy = test::lossy_upstream(0.02);
  lossy.receiver_ip = 0x0a09090b;
  const auto c_id =
      world.add_session(lossy, test::table_messages(1'000, seed ^ 0x77));
  world.start_session(a_id, 0);
  world.start_session(b_id, 0);
  world.start_session(c_id, 0);
  world.run_until(kMicrosPerSec);
  world.receiver(b_id).die();
  world.run_until(600 * kMicrosPerSec);
  return world.take_trace();
}

// Bit-identity check: every observable analysis output must match, not just
// be close. Doubles are compared exactly — both runs execute the same
// arithmetic on the same inputs.
void expect_identical(const TraceAnalysis& a, const TraceAnalysis& b) {
  ASSERT_EQ(a.connections.size(), b.connections.size());
  ASSERT_EQ(a.results.size(), b.results.size());
  for (std::size_t i = 0; i < a.results.size(); ++i) {
    SCOPED_TRACE("connection " + std::to_string(i));
    const ConnectionAnalysis& ra = a.results[i];
    const ConnectionAnalysis& rb = b.results[i];
    EXPECT_EQ(ra.conn_index, rb.conn_index);
    EXPECT_EQ(ra.key, rb.key);
    EXPECT_EQ(a.connections[i].packets.size(), b.connections[i].packets.size());

    // Transfer range and MCT.
    EXPECT_EQ(ra.transfer.begin, rb.transfer.begin);
    EXPECT_EQ(ra.transfer.end, rb.transfer.end);
    EXPECT_EQ(ra.mct.end, rb.mct.end);
    EXPECT_EQ(ra.mct.update_count, rb.mct.update_count);
    EXPECT_EQ(ra.mct.prefix_count, rb.mct.prefix_count);

    // DelayReport, factor by factor.
    for (std::size_t fi = 0; fi < kFactorCount; ++fi) {
      EXPECT_EQ(ra.report.factor_ratio[fi], rb.report.factor_ratio[fi]);
      EXPECT_EQ(ra.report.factor_delay[fi], rb.report.factor_delay[fi]);
    }
    for (std::size_t g = 0; g < kGroupCount; ++g) {
      EXPECT_EQ(ra.report.group_ratio[g], rb.report.group_ratio[g]);
      EXPECT_EQ(ra.report.group_delay[g], rb.report.group_delay[g]);
      EXPECT_EQ(ra.report.group_major[g], rb.report.group_major[g]);
    }

    // Extracted messages.
    ASSERT_EQ(ra.messages.size(), rb.messages.size());
    for (std::size_t m = 0; m < ra.messages.size(); ++m) {
      EXPECT_EQ(ra.messages[m].ts, rb.messages[m].ts);
      EXPECT_EQ(ra.messages[m].end_offset, rb.messages[m].end_offset);
    }

    // Every series, event by event (Event has operator==).
    const auto names_a = ra.series().names();
    const auto names_b = rb.series().names();
    ASSERT_EQ(names_a, names_b);
    for (const std::string& name : names_a) {
      SCOPED_TRACE("series " + name);
      EXPECT_EQ(ra.series().get(name).events(), rb.series().get(name).events());
    }

    // Catch-all over profile and anything the field checks missed: the JSON
    // export must be byte-identical.
    EXPECT_EQ(analysis_to_json(ra), analysis_to_json(rb));
    EXPECT_EQ(registry_to_json(ra.series()), registry_to_json(rb.series()));
  }
}

TraceAnalysis analyze_with_jobs(const PcapFile& trace, std::size_t jobs) {
  AnalyzerOptions opts;
  opts.jobs = jobs;
  return analyze_trace(trace, opts);
}

TEST(ParallelAnalyzer, MultiSessionIdenticalAcrossJobCounts) {
  const PcapFile trace = multi_session_trace(6, 31337);
  const TraceAnalysis serial = analyze_with_jobs(trace, 1);
  ASSERT_GE(serial.results.size(), 6u);
  for (const std::size_t jobs : {2, 8}) {
    SCOPED_TRACE("jobs=" + std::to_string(jobs));
    expect_identical(serial, analyze_with_jobs(trace, jobs));
  }
}

TEST(ParallelAnalyzer, LossyAndPeerGroupScenariosIdentical) {
  const PcapFile trace = peer_group_trace(4242);
  const TraceAnalysis serial = analyze_with_jobs(trace, 1);
  ASSERT_GE(serial.results.size(), 3u);
  expect_identical(serial, analyze_with_jobs(trace, 8));
}

TEST(ParallelAnalyzer, StatsAreAccounted) {
  const PcapFile trace = multi_session_trace(5, 99);
  const TraceAnalysis ta = analyze_with_jobs(trace, 4);
  EXPECT_EQ(ta.stats.records, trace.records.size());
  EXPECT_EQ(ta.stats.connections, ta.connections.size());
  EXPECT_GT(ta.stats.packets, 0u);
  EXPECT_GT(ta.stats.bytes_ingested, 0u);
  EXPECT_LE(ta.stats.jobs, 4u);
  EXPECT_GE(ta.stats.total_wall, ta.stats.analyze_wall);
  EXPECT_GT(ta.stats.bytes_per_sec(), 0.0);
  EXPECT_NE(ta.stats.to_json().find("\"connections\": "), std::string::npos);
}

// --- streaming reader vs in-memory parser ---------------------------------

void expect_stream_matches_parse(std::span<const std::uint8_t> image,
                                 std::size_t chunk_size) {
  const auto parsed = parse_pcap(image);
  ASSERT_TRUE(parsed.ok());
  auto stream = PcapStream::from_memory(image, chunk_size);
  ASSERT_TRUE(stream.ok());
  EXPECT_EQ(stream.value().nanosecond(), parsed.value().nanosecond);
  EXPECT_EQ(stream.value().snaplen(), parsed.value().snaplen);
  StreamRecord rec;
  std::size_t i = 0;
  while (stream.value().next(rec)) {
    ASSERT_LT(i, parsed.value().records.size());
    const PcapRecord& want = parsed.value().records[i];
    EXPECT_EQ(rec.ts, want.ts);
    EXPECT_EQ(rec.orig_len, want.orig_len);
    ASSERT_EQ(rec.data.size(), want.data.size());
    EXPECT_TRUE(std::equal(rec.data.begin(), rec.data.end(), want.data.begin()));
    ++i;
  }
  EXPECT_EQ(i, parsed.value().records.size());
  EXPECT_EQ(stream.value().records_read(), parsed.value().records.size());
}

std::vector<std::uint8_t> fixture_image(bool big_endian, bool nanos,
                                        std::size_t records) {
  ByteWriter w;
  const std::uint32_t magic = nanos ? 0xa1b23c4d : 0xa1b2c3d4;
  const auto u16 = [&](std::uint16_t v) { big_endian ? w.u16be(v) : w.u16le(v); };
  const auto u32 = [&](std::uint32_t v) { big_endian ? w.u32be(v) : w.u32le(v); };
  u32(magic);
  u16(2);
  u16(4);
  u32(0);
  u32(0);
  u32(65535);
  u32(1);  // ethernet
  for (std::size_t i = 0; i < records; ++i) {
    std::vector<std::uint8_t> payload(20 + 7 * i, static_cast<std::uint8_t>(i));
    TcpSegmentSpec spec;
    spec.src_ip = test::kSenderIp;
    spec.dst_ip = test::kReceiverIp;
    spec.src_port = test::kSenderPort;
    spec.dst_port = test::kReceiverPort;
    spec.seq = 1000 + static_cast<std::uint32_t>(i);
    spec.flags = {.ack = true, .psh = true};
    spec.payload = payload;
    const auto frame = encode_tcp_frame(spec);
    u32(static_cast<std::uint32_t>(10 + i));                     // sec
    u32(nanos ? 123'456'000 : 123'456);                          // frac
    u32(static_cast<std::uint32_t>(frame.size()));
    u32(static_cast<std::uint32_t>(frame.size()));
    w.bytes(frame);
  }
  return w.take();
}

TEST(PcapStreamEquivalence, AllHeaderVariantsAndChunkSizes) {
  for (const bool big_endian : {false, true}) {
    for (const bool nanos : {false, true}) {
      const auto image = fixture_image(big_endian, nanos, 9);
      for (const std::size_t chunk : {std::size_t{31}, std::size_t{256},
                                      PcapStream::kDefaultChunkSize}) {
        SCOPED_TRACE((big_endian ? "BE" : "LE") + std::string(nanos ? "/ns" : "/us") +
                     " chunk=" + std::to_string(chunk));
        // Tiny chunks force records to straddle chunk boundaries.
        expect_stream_matches_parse(image, chunk);
      }
    }
  }
}

TEST(PcapStreamEquivalence, SimulatedTraceAndTruncatedTail) {
  const PcapFile trace = multi_session_trace(3, 555);
  auto image = serialize_pcap(trace);
  expect_stream_matches_parse(image, 4096);
  image.resize(image.size() - 11);  // cut into the last record
  expect_stream_matches_parse(image, 4096);
}

TEST(PcapStreamEquivalence, RejectsBadHeaders) {
  std::vector<std::uint8_t> junk(64, 0x42);
  EXPECT_FALSE(PcapStream::from_memory(junk).ok());
  std::vector<std::uint8_t> short_header(8, 0);
  EXPECT_FALSE(PcapStream::from_memory(short_header).ok());
}

TEST(PcapStreamEquivalence, ReadPcapFileMatchesParse) {
  const PcapFile trace = multi_session_trace(3, 556);
  const auto image = serialize_pcap(trace);
  const std::string path = ::testing::TempDir() + "/tdat_stream_eq.pcap";
  ASSERT_TRUE(write_pcap_file(path, trace));
  const auto from_file = read_pcap_file(path);
  const auto from_mem = parse_pcap(image);
  ASSERT_TRUE(from_file.ok());
  ASSERT_TRUE(from_mem.ok());
  ASSERT_EQ(from_file.value().records.size(), from_mem.value().records.size());
  for (std::size_t i = 0; i < from_mem.value().records.size(); ++i) {
    EXPECT_EQ(from_file.value().records[i].ts, from_mem.value().records[i].ts);
    EXPECT_EQ(from_file.value().records[i].data, from_mem.value().records[i].data);
  }
  std::remove(path.c_str());
}

TEST(AnalyzeFile, MatchesInMemoryAnalysis) {
  const PcapFile trace = multi_session_trace(5, 777);
  const std::string path = ::testing::TempDir() + "/tdat_analyze_file.pcap";
  ASSERT_TRUE(write_pcap_file(path, trace));
  const TraceAnalysis in_memory = analyze_with_jobs(trace, 1);
  for (const std::size_t jobs : {std::size_t{1}, std::size_t{8}}) {
    SCOPED_TRACE("jobs=" + std::to_string(jobs));
    AnalyzerOptions opts;
    opts.jobs = jobs;
    auto streamed = analyze_file(path, opts);
    ASSERT_TRUE(streamed.ok());
    expect_identical(in_memory, streamed.value());
    // Both ingest paths account the same capture bytes: 24-byte pcap global
    // header plus 16-byte record headers plus stored frames.
    std::uint64_t expected_bytes = 24;
    for (const PcapRecord& rec : trace.records) {
      expected_bytes += 16 + rec.data.size();
    }
    EXPECT_EQ(in_memory.stats.bytes_ingested, expected_bytes);
    EXPECT_EQ(streamed.value().stats.bytes_ingested, expected_bytes);
  }
  std::remove(path.c_str());
}

TEST(AnalyzeFile, MissingFileIsAnError) {
  EXPECT_FALSE(analyze_file("/nonexistent/trace.pcap", AnalyzerOptions{}).ok());
}

// --- demux and pool primitives --------------------------------------------

TEST(ConnectionDemux, IncrementalMatchesBatch) {
  const PcapFile trace = multi_session_trace(4, 888);
  const auto packets = decode_pcap(trace);
  const auto batch = split_connections(packets);
  ConnectionDemux demux;
  for (const DecodedPacket& pkt : packets) demux.add(pkt);
  EXPECT_EQ(demux.connection_count(), batch.size());
  const auto incremental = demux.take();
  ASSERT_EQ(incremental.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(incremental[i].key, batch[i].key);
    ASSERT_EQ(incremental[i].packets.size(), batch[i].packets.size());
    for (std::size_t p = 0; p < batch[i].packets.size(); ++p) {
      EXPECT_EQ(incremental[i].packets[p].index, batch[i].packets[p].index);
    }
  }
  EXPECT_EQ(demux.connection_count(), 0u);  // reusable after take()
}

TEST(ParallelFor, CoversEveryIndexOnce) {
  constexpr std::size_t kN = 1'000;
  std::vector<std::atomic<int>> hits(kN);
  parallel_for(kN, 8, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ParallelFor, InlineWhenSerialAndEmptyIsNoop) {
  std::size_t calls = 0;
  parallel_for(0, 8, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0u);
  parallel_for(5, 1, [&](std::size_t) { ++calls; });  // inline, same thread
  EXPECT_EQ(calls, 5u);
}

TEST(ParallelFor, MoreJobsThanItems) {
  std::vector<std::atomic<int>> hits(3);
  parallel_for(3, 16, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, PropagatesFirstException) {
  EXPECT_THROW(
      parallel_for(64, 4,
                   [](std::size_t i) {
                     if (i == 13) throw std::runtime_error("boom");
                   }),
      std::runtime_error);
}

// Helpers persist across calls: fifty jobs=4 calls run on the same threads
// (the helpers plus the caller) instead of starting new ones every time.
std::atomic<int> g_threads_seen{0};
struct CountThread {
  CountThread() { g_threads_seen.fetch_add(1); }
};

TEST(ParallelFor, ReusesWorkersAcrossCalls) {
  const auto body = [](std::size_t) {
    thread_local CountThread counted;
    (void)counted;
  };
  parallel_for(64, 4, body);
  // An earlier wider call in the same process may have grown the set past
  // three helpers; any of them may take a seat.
  const std::int64_t helpers = metrics().gauge("pool.workers").value();
  EXPECT_GE(helpers, 3);
  for (int call = 1; call < 50; ++call) parallel_for(64, 4, body);
  EXPECT_LE(g_threads_seen.load(), helpers + 1);
}

// Index 0 and 1 wait for each other, so the call finishes promptly only if a
// helper thread really runs alongside the caller.
bool ran_on_two_threads() {
  std::atomic<int> arrived{0};
  std::atomic<bool> met{true};
  parallel_for(2, 2, [&](std::size_t) {
    arrived.fetch_add(1);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (arrived.load() < 2) {
      if (std::chrono::steady_clock::now() > deadline) {
        met = false;
        return;
      }
      std::this_thread::yield();
    }
  });
  return met;
}

// A forked child inherits the parent's worker set but none of its threads;
// it must get a working set of its own.
TEST(ParallelFor, ForkedChildGetsWorkingHelpers) {
  std::vector<std::atomic<int>> hits(256);
  parallel_for(hits.size(), 4, [&](std::size_t i) { hits[i].fetch_add(1); });
  const pid_t pid = fork();
  ASSERT_NE(pid, -1);
  if (pid == 0) {
    alarm(30);  // never outlive the parent's bound below
    std::vector<std::atomic<int>> child_hits(256);
    parallel_for(child_hits.size(), 4,
                 [&](std::size_t i) { child_hits[i].fetch_add(1); });
    bool ok = ran_on_two_threads();
    for (const auto& h : child_hits) ok = ok && h.load() == 1;
    _exit(ok ? 0 : 1);
  }
  alarm(60);
  int status = 0;
  const pid_t waited = waitpid(pid, &status, 0);
  alarm(0);
  ASSERT_EQ(waited, pid);
  ASSERT_TRUE(WIFEXITED(status))
      << "child killed by signal "
      << (WIFSIGNALED(status) ? WTERMSIG(status) : 0);
  EXPECT_EQ(WEXITSTATUS(status), 0);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(DefaultJobs, RespectsEnvironment) {
  ASSERT_EQ(setenv("TDAT_JOBS", "3", 1), 0);
  EXPECT_EQ(default_jobs(), 3u);
  ASSERT_EQ(setenv("TDAT_JOBS", "junk", 1), 0);
  EXPECT_EQ(default_jobs(), 1u);  // set but unparsable: stay serial
  ASSERT_EQ(setenv("TDAT_JOBS", "-1", 1), 0);
  EXPECT_EQ(default_jobs(), 1u);  // not a huge count
  ASSERT_EQ(unsetenv("TDAT_JOBS"), 0);
  EXPECT_GE(default_jobs(), 1u);
}

}  // namespace
}  // namespace tdat
