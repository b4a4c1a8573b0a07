// Ingest-path equivalence matrix (DESIGN.md §12): the mmap zero-copy reader
// and the chunked streaming reader must produce bit-identical analyses on
// every input — clean captures, the full FaultInjector corruption matrix,
// strict mode, and an exhausted resync budget — at --jobs 1 and --jobs 8
// (analysis workers). This is the contract that lets open_auto pick the fast
// path silently: there is no observable difference except speed. Lives in
// the parallel test binary so the TSan CI leg races the analysis pool over
// packets from both readers.
#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "core/analyzer.hpp"
#include "core/export.hpp"
#include "core/report.hpp"
#include "pcap/fault_injector.hpp"
#include "pcap/pcap_file.hpp"
#include "sim_scenarios.hpp"

namespace tdat {
namespace {

// Three staggered BGP sessions, small enough that the 9-mode × 4-config
// matrix stays fast but with enough records that ingest spans many batches.
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

std::string write_temp(const std::vector<std::uint8_t>& image,
                       const std::string& name) {
  const std::string path = ::testing::TempDir() + name;
  std::FILE* f = std::fopen(path.c_str(), "wb");
  EXPECT_NE(f, nullptr);
  EXPECT_EQ(std::fwrite(image.data(), 1, image.size(), f), image.size());
  std::fclose(f);
  return path;
}

TraceAnalysis analyze_path(const std::string& path, const AnalyzerOptions& base,
                           bool mmap, std::size_t jobs) {
  AnalyzerOptions opts = base;
  opts.ingest.use_mmap = mmap;
  opts.jobs = jobs;
  auto got = analyze_file(path, opts);
  EXPECT_TRUE(got.ok()) << got.error();
  return std::move(got).value();
}

std::map<std::string, std::string> connection_json(const TraceAnalysis& ta) {
  std::map<std::string, std::string> out;
  for (const auto& a : ta.results) {
    const std::string key = ta.connections[a.conn_index].key.to_string();
    out[key] = a.quarantined()
                   ? std::string("quarantined:") + a.quarantine_reason
                   : analysis_to_json(a);
  }
  return out;
}

// Everything observable about a run, as one comparable blob: the rendered
// report, per-connection JSON, and the ingest accounting that must not
// depend on the reader or the job count.
std::string fingerprint(const TraceAnalysis& ta) {
  std::string out = render_report(build_report_model(ta), ReportFormat::kJson);
  for (const auto& [key, json] : connection_json(ta)) {
    out += "\n" + key + " => " + json;
  }
  out += "\nrecords=" + std::to_string(ta.stats.records);
  out += " packets=" + std::to_string(ta.stats.packets);
  out += " bytes=" + std::to_string(ta.stats.bytes_ingested);
  out += " connections=" + std::to_string(ta.stats.connections);
  out += " ingest=" + ta.stats.ingest.to_json();
  return out;
}

struct Config {
  bool mmap;
  std::size_t jobs;
};

constexpr Config kConfigs[] = {
    {true, 1}, {false, 1}, {true, 8}, {false, 8}};

void expect_all_configs_identical(const std::string& path,
                                  const AnalyzerOptions& opts) {
  const TraceAnalysis reference = analyze_path(path, opts, true, 1);
  const std::string want = fingerprint(reference);
  for (const Config& cfg : kConfigs) {
    SCOPED_TRACE(std::string(cfg.mmap ? "mmap" : "stream") + "/jobs=" +
                 std::to_string(cfg.jobs));
    const TraceAnalysis got = analyze_path(path, opts, cfg.mmap, cfg.jobs);
    EXPECT_EQ(fingerprint(got), want);
  }
}

TEST(MmapEquivalence, CleanCaptureIdenticalAcrossReadersAndJobs) {
  const std::string path = write_temp(clean_image(), "mmap_eq_clean.pcap");
  const TraceAnalysis ta = analyze_path(path, AnalyzerOptions{}, true, 1);
  ASSERT_EQ(ta.results.size(), 3u);
  // Multi-batch guarantee: ingest reads 256-record batches, so batch
  // boundaries are only exercised if the trace spans several.
  EXPECT_GT(ta.stats.records, 512u);
  EXPECT_FALSE(ta.stats.ingest.has_errors());
  expect_all_configs_identical(path, AnalyzerOptions{});
}

TEST(MmapEquivalence, EveryFaultModeIdenticalAcrossReadersAndJobs) {
  for (const FaultMode mode : all_fault_modes()) {
    SCOPED_TRACE(to_string(mode));
    std::vector<std::uint8_t> image = clean_image();
    FaultPlan plan;
    plan.mode = mode;
    plan.seed = 11;
    const FaultReport fr = inject_faults(image, plan);
    ASSERT_EQ(fr.faults_applied, 1u);
    const std::string path = write_temp(
        image, std::string("mmap_eq_") + to_string(mode) + ".pcap");
    expect_all_configs_identical(path, AnalyzerOptions{});
  }
}

TEST(MmapEquivalence, StrictModeIdenticalAcrossReadersAndJobs) {
  std::vector<std::uint8_t> image = clean_image();
  FaultPlan plan;
  plan.mode = FaultMode::kZeroInclLen;
  plan.seed = 11;
  ASSERT_EQ(inject_faults(image, plan).faults_applied, 1u);
  const std::string path = write_temp(image, "mmap_eq_strict.pcap");

  AnalyzerOptions opts;
  opts.ingest = IngestPolicy::strict_mode();
  const TraceAnalysis ta = analyze_path(path, opts, true, 1);
  EXPECT_EQ(ta.stats.ingest.truncated, 1u);
  EXPECT_EQ(ta.stats.ingest.resynced, 0u);
  expect_all_configs_identical(path, opts);
}

TEST(MmapEquivalence, ExhaustedErrorBudgetIdenticalAcrossReadersAndJobs) {
  std::vector<std::uint8_t> image = clean_image();
  FaultPlan plan;
  plan.mode = FaultMode::kTruncateRecord;
  plan.seed = 11;
  plan.count = 4;
  ASSERT_GT(inject_faults(image, plan).faults_applied, 0u);
  const std::string path = write_temp(image, "mmap_eq_budget.pcap");

  AnalyzerOptions opts;
  opts.ingest.max_errors = 1;  // give up after the first resync
  const TraceAnalysis ta = analyze_path(path, opts, true, 1);
  EXPECT_TRUE(ta.stats.ingest.budget_exhausted);
  expect_all_configs_identical(path, opts);
}

TEST(MmapEquivalence, ChecksumVerificationIdenticalAcrossReadersAndJobs) {
  // Bit-flips that land in packet bodies are exactly what checksum
  // verification rejects — the reject decision must be identical in the
  // batched decoder and decode_frame.
  std::vector<std::uint8_t> image = clean_image();
  FaultPlan plan;
  plan.mode = FaultMode::kBitFlip;
  plan.seed = 23;
  plan.count = 8;
  ASSERT_GT(inject_faults(image, plan).faults_applied, 0u);
  const std::string path = write_temp(image, "mmap_eq_cksum.pcap");

  AnalyzerOptions opts;
  opts.verify_checksums = true;
  expect_all_configs_identical(path, opts);
}

}  // namespace
}  // namespace tdat
