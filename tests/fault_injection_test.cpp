// Corruption-matrix test (DESIGN.md §10): every FaultMode is injected into a
// three-connection capture and the full pipeline must (a) not crash, (b) emit
// the diagnostics the damage class predicts, (c) produce bit-identical
// reports at --jobs 1 and --jobs 8, and (d) leave connections that finished
// before the damage byte-identical to the clean baseline. The quarantine
// tests drive the per-connection isolation paths — the fault_hook test seam,
// analysis exceptions, and the BGP-framing thresholds — and check that a
// quarantined connection never takes the rest of the run down with it.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/analyzer.hpp"
#include "core/export.hpp"
#include "core/report.hpp"
#include "core/trace_source.hpp"
#include "pcap/decode.hpp"
#include "pcap/fault_injector.hpp"
#include "pcap/pcap_file.hpp"
#include "pcap/pcap_stream.hpp"
#include "sim_scenarios.hpp"
#include "tcp/connection.hpp"

namespace tdat {
namespace {

// Three staggered table transfers in one capture, so damage to one
// connection leaves earlier ones fully intact. Built once; every test
// mutates its own copy.
const std::vector<std::uint8_t>& clean_image() {
  static const std::vector<std::uint8_t> image = [] {
    SimWorld world(4242);
    for (int i = 0; i < 3; ++i) {
      const auto s =
          world.add_session(SessionSpec{}, test::table_messages(1500, 100 + i));
      world.start_session(s, static_cast<Micros>(i) * 120 * kMicrosPerSec);
    }
    world.run_until(600 * kMicrosPerSec);
    return serialize_pcap(world.take_trace());
  }();
  return image;
}

TraceAnalysis analyze_image(const std::vector<std::uint8_t>& image,
                            const AnalyzerOptions& base, std::size_t jobs) {
  auto stream = PcapStream::from_memory(image, base.ingest);
  TDAT_EXPECTS(stream.ok());
  PcapStreamSource source(std::move(stream.value()));
  AnalyzerOptions opts = base;
  opts.jobs = jobs;
  return run_pipeline(source, opts);
}

// Connection key -> rendered result: the per-connection JSON for analyzed
// connections, or the quarantine reason. Byte-compared across runs.
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

std::string rendered(const TraceAnalysis& ta, ReportFormat format) {
  return render_report(build_report_model(ta), format);
}

// Per-record connection keys of the clean capture ("" for records that do
// not decode to TCP), used to map the injector's touched record indices to
// the connections they damage.
std::vector<std::string> record_keys(const std::vector<std::uint8_t>& image) {
  const auto parsed = parse_pcap(image);
  TDAT_EXPECTS(parsed.ok());
  std::vector<std::string> keys;
  keys.reserve(parsed.value().records.size());
  for (std::size_t i = 0; i < parsed.value().records.size(); ++i) {
    const auto& rec = parsed.value().records[i];
    const auto pkt = decode_frame(rec.ts, i, rec.data);
    keys.push_back(pkt ? make_conn_key(*pkt).to_string() : std::string());
  }
  return keys;
}

TEST(FaultMatrix, EveryModeRecoversDeterministically) {
  const auto& clean = clean_image();
  const AnalyzerOptions opts;  // default resynchronizing recovery
  const TraceAnalysis clean_ta = analyze_image(clean, opts, 1);
  ASSERT_EQ(clean_ta.results.size(), 3u);
  EXPECT_FALSE(clean_ta.stats.ingest.has_errors());
  const auto clean_json = connection_json(clean_ta);

  const auto keys = record_keys(clean);
  std::map<std::string, std::size_t> last_record_of_key;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    if (!keys[i].empty()) last_record_of_key[keys[i]] = i;
  }

  for (const FaultMode mode : all_fault_modes()) {
    SCOPED_TRACE(to_string(mode));
    std::vector<std::uint8_t> image = clean;
    FaultPlan plan;
    plan.mode = mode;
    plan.seed = 7;
    const FaultReport fr = inject_faults(image, plan);
    ASSERT_EQ(fr.faults_applied, 1u);
    ASSERT_FALSE(fr.touched_records.empty());

    const TraceAnalysis one = analyze_image(image, opts, 1);
    const TraceAnalysis eight = analyze_image(image, opts, 8);

    // The analysis stage must be order-independent even on damaged input.
    EXPECT_EQ(rendered(one, ReportFormat::kJson),
              rendered(eight, ReportFormat::kJson));
    EXPECT_EQ(rendered(one, ReportFormat::kText),
              rendered(eight, ReportFormat::kText));
    EXPECT_EQ(connection_json(one), connection_json(eight));

    const IngestDiagnostics& diag = one.stats.ingest;
    switch (mode) {
      case FaultMode::kTruncateTail:
        EXPECT_GE(diag.truncated, 1u);
        break;
      case FaultMode::kTruncateRecord:
        EXPECT_GE(diag.resynced, 1u);
        EXPECT_GT(diag.skipped_bytes, 0u);
        break;
      case FaultMode::kZeroInclLen:
      case FaultMode::kOverlongInclLen:
        // The damaged header is skipped but every connection survives.
        EXPECT_GE(diag.resynced, 1u);
        EXPECT_EQ(one.results.size(), clean_ta.results.size());
        break;
      default:
        // Content faults leave pcap framing intact: no ingest diagnostics.
        EXPECT_FALSE(diag.has_errors()) << diag.to_json();
        break;
    }

    // Connections whose records all precede the first damaged record must
    // come out byte-identical to the clean baseline.
    const std::size_t first_touched = fr.touched_records.front();
    const auto damaged_json = connection_json(one);
    for (const auto& [key, json] : clean_json) {
      if (last_record_of_key.at(key) >= first_touched) continue;
      const auto it = damaged_json.find(key);
      ASSERT_NE(it, damaged_json.end()) << key;
      EXPECT_EQ(it->second, json) << key;
    }
  }
}

TEST(FaultMatrix, StrictModeDropsTailInsteadOfResyncing) {
  std::vector<std::uint8_t> image = clean_image();
  FaultPlan plan;
  plan.mode = FaultMode::kZeroInclLen;
  plan.seed = 7;
  ASSERT_EQ(inject_faults(image, plan).faults_applied, 1u);

  AnalyzerOptions opts;
  opts.ingest = IngestPolicy::strict_mode();
  const TraceAnalysis ta = analyze_image(image, opts, 1);
  EXPECT_EQ(ta.stats.ingest.resynced, 0u);
  EXPECT_EQ(ta.stats.ingest.truncated, 1u);
  EXPECT_EQ(ta.stats.ingest.skipped_bytes, 0u);
}

// --- quarantine ------------------------------------------------------------

const char* quarantine_all(const Connection&) { return "injected fault"; }

ConnKey g_target_key;
const char* quarantine_target(const Connection& conn) {
  return conn.key == g_target_key ? "targeted fault" : nullptr;
}

const char* throwing_hook(const Connection&) {
  throw std::runtime_error("injected analysis failure");
}

TEST(Quarantine, FaultHookIsolatesEveryConnection) {
  AnalyzerOptions opts;
  opts.fault_hook = quarantine_all;
  const TraceAnalysis ta = analyze_image(clean_image(), opts, 1);
  ASSERT_EQ(ta.results.size(), 3u);
  EXPECT_EQ(ta.stats.quarantined, ta.results.size());
  for (const auto& a : ta.results) {
    ASSERT_TRUE(a.quarantined());
    EXPECT_STREQ(a.quarantine_reason, "injected fault");
    // Quarantined slots must not carry analysis output.
    EXPECT_TRUE(a.messages.empty());
  }
  // Every sink reports the isolation rather than silently dropping it.
  for (const auto format :
       {ReportFormat::kText, ReportFormat::kJson, ReportFormat::kCsv}) {
    EXPECT_NE(rendered(ta, format).find("quarantin"), std::string::npos);
  }
}

TEST(Quarantine, SelectiveHookLeavesOthersByteIdentical) {
  const AnalyzerOptions base;
  const TraceAnalysis clean_ta = analyze_image(clean_image(), base, 1);
  ASSERT_EQ(clean_ta.results.size(), 3u);
  const auto clean_json = connection_json(clean_ta);

  g_target_key = clean_ta.connections[1].key;
  AnalyzerOptions opts;
  opts.fault_hook = quarantine_target;
  const TraceAnalysis ta = analyze_image(clean_image(), opts, 8);
  EXPECT_EQ(ta.stats.quarantined, 1u);
  const auto json = connection_json(ta);
  for (const auto& [key, value] : json) {
    if (key == g_target_key.to_string()) {
      EXPECT_EQ(value, "quarantined:targeted fault");
    } else {
      EXPECT_EQ(value, clean_json.at(key)) << key;
    }
  }
}

TEST(Quarantine, AnalysisExceptionIsContained) {
  AnalyzerOptions opts;
  opts.fault_hook = throwing_hook;
  for (const std::size_t jobs : {std::size_t{1}, std::size_t{8}}) {
    SCOPED_TRACE(jobs);
    const TraceAnalysis ta = analyze_image(clean_image(), opts, jobs);
    ASSERT_EQ(ta.results.size(), 3u);
    EXPECT_EQ(ta.stats.quarantined, ta.results.size());
    for (const auto& a : ta.results) {
      ASSERT_TRUE(a.quarantined());
      EXPECT_STREQ(a.quarantine_reason, "analysis failed with an exception");
    }
  }
}

TEST(Quarantine, BgpFramingThresholdsIsolateSplicedConnection) {
  std::vector<std::uint8_t> image = clean_image();
  FaultPlan plan;
  plan.mode = FaultMode::kGarbageSplice;
  plan.seed = 7;
  plan.count = 6;
  const FaultReport fr = inject_faults(image, plan);
  ASSERT_GT(fr.faults_applied, 0u);

  const auto keys = record_keys(clean_image());
  std::set<std::string> touched_keys;
  for (const std::size_t idx : fr.touched_records) {
    if (idx < keys.size() && !keys[idx].empty()) touched_keys.insert(keys[idx]);
  }
  ASSERT_FALSE(touched_keys.empty());

  AnalyzerOptions opts;
  opts.quarantine_skipped_bytes = 0;  // any marker hunt quarantines
  opts.quarantine_parse_errors = 0;
  const TraceAnalysis ta = analyze_image(image, opts, 1);
  ASSERT_EQ(ta.results.size(), 3u);
  EXPECT_GE(ta.stats.quarantined, 1u);
  for (const auto& a : ta.results) {
    const std::string key = ta.connections[a.conn_index].key.to_string();
    if (a.quarantined()) {
      EXPECT_STREQ(a.quarantine_reason, "BGP framing unrecoverable");
      // Only spliced connections may trip the thresholds; a splice that only
      // hit payload-free ACKs legitimately leaves its connection analyzed.
      EXPECT_TRUE(touched_keys.count(key) != 0) << key;
    }
  }
}

}  // namespace
}  // namespace tdat
