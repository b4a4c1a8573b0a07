#include "core/analyzer.hpp"

#include <chrono>
#include <cstdio>
#include <numeric>

#include "core/ingest_pipeline.hpp"
#include "core/pass.hpp"
#include "core/trace_source.hpp"
#include "pcap/pcap_stream.hpp"
#include "util/alloc_hook.hpp"
#include "util/log.hpp"
#include "util/thread_pool.hpp"
#include "util/trace.hpp"

namespace tdat {
namespace {

Micros wall_now() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// The analysis stage shared by every batch entry point: `t0` is when ingest
// started, so the run's ingest and total walls are measured from it.
void run_analysis_stage(TraceAnalysis& out, const AnalyzerOptions& opts,
                        Micros t0) {
  const Micros t1 = wall_now();
  out.stats.ingest_wall = t1 - t0;
  // Scope the cumulative pool/analysis histograms to this run.
  const HistogramSnapshot qw0 =
      metrics().histogram("pool.queue_wait_us").snapshot();
  const HistogramSnapshot conn0 =
      metrics().histogram("analyze.connection_us").snapshot();
  out.results.clear();
  out.results.resize(out.connections.size());
  std::vector<std::uint32_t> all(out.connections.size());
  std::iota(all.begin(), all.end(), 0u);
  const std::size_t jobs =
      analyze_connections(out.connections, all, opts, out.results);
  out.stats.jobs = jobs;
  out.stats.connections = out.connections.size();
  out.stats.quarantined = 0;
  for (const ConnectionAnalysis& a : out.results) {
    if (a.quarantined()) ++out.stats.quarantined;
  }
  metrics().gauge("quarantine.connections")
      .set(static_cast<std::int64_t>(out.stats.quarantined));
  const Micros t2 = wall_now();
  out.stats.analyze_wall = t2 - t1;
  out.stats.queue_wait_us =
      metrics().histogram("pool.queue_wait_us").snapshot().since(qw0);
  out.stats.connection_us =
      metrics().histogram("analyze.connection_us").snapshot().since(conn0);
  TDAT_LOG_DEBUG("analysis stage: %zu connections on %zu workers in %.3fs",
                 out.connections.size(), jobs,
                 to_seconds(out.stats.analyze_wall));
  out.stats.total_wall = t2 - t0;
  out.stats.metrics_json = metrics().to_json();
}

double rate(std::uint64_t count, Micros wall) {
  return wall > 0 ? static_cast<double>(count) / to_seconds(wall) : 0.0;
}

}  // namespace

double PipelineStats::bytes_per_sec() const { return rate(bytes_ingested, total_wall); }
double PipelineStats::packets_per_sec() const { return rate(packets, total_wall); }
double PipelineStats::connections_per_sec() const { return rate(connections, total_wall); }
double PipelineStats::ingest_bytes_per_sec() const { return rate(bytes_ingested, ingest_wall); }
double PipelineStats::decode_bytes_per_sec() const { return rate(bytes_ingested, decode_busy); }
double PipelineStats::analysis_bytes_per_sec() const { return rate(bytes_ingested, analyze_wall); }

std::string PipelineStats::to_json() const {
  // Built with std::to_chars-backed json_double: snprintf("%f") renders the
  // decimal separator of the process locale, which is not valid JSON under
  // e.g. de_DE; this output must stay machine-parseable everywhere.
  std::string out;
  const auto field = [&out](const char* key, std::string value) {
    if (!out.empty()) out += ", ";
    out += '"';
    out += key;
    out += "\": ";
    out += value;
  };
  field("bytes_ingested", std::to_string(bytes_ingested));
  field("records", std::to_string(records));
  field("packets", std::to_string(packets));
  field("connections", std::to_string(connections));
  if (quarantined > 0) field("quarantined", std::to_string(quarantined));
  if (ingest.has_errors()) field("ingest_errors", ingest.to_json());
  field("jobs", std::to_string(jobs));
  field("ingest_wall_us", std::to_string(ingest_wall));
  field("decode_busy_us", std::to_string(decode_busy));
  field("analyze_wall_us", std::to_string(analyze_wall));
  field("total_wall_us", std::to_string(total_wall));
  field("bytes_per_sec", json_double(bytes_per_sec()));
  field("ingest_bytes_per_sec", json_double(ingest_bytes_per_sec()));
  field("decode_bytes_per_sec", json_double(decode_bytes_per_sec()));
  field("analysis_bytes_per_sec", json_double(analysis_bytes_per_sec()));
  field("packets_per_sec", json_double(packets_per_sec()));
  field("connections_per_sec", json_double(connections_per_sec()));
  if (queue_wait_us.count > 0) {
    field("queue_wait_us", queue_wait_us.to_json());
  }
  if (connection_us.count > 0) {
    field("connection_analysis_us", connection_us.to_json());
  }
  if (!metrics_json.empty()) field("metrics", metrics_json);
  return "{" + out + "}";
}

AnalysisScratch::AnalysisScratch()
    : conn_us(&metrics().histogram("analyze.connection_us")),
      allocs(&metrics().histogram("analyze.allocs_per_conn")),
      done(&metrics().counter("analyze.connections_done")) {}

AnalysisScratch::~AnalysisScratch() = default;

namespace {

// Leaves `out` holding only its key, index, and quarantine reason. The slot
// is reused across connections, so every analysis field must be reset — a
// quarantined entry must not carry a previous connection's series.
void quarantine_connection(ConnectionAnalysis& out, AnalysisScratch& scratch) {
  out.profile = ConnectionProfile{};
  out.bundle = SeriesBundle{};
  out.messages.clear();
  out.mct = MctResult{};
  out.transfer = {};
  out.report = DelayReport{};
  out.findings.reset();
  scratch.done->inc();
}

}  // namespace

ConnectionAnalysis analyze_connection(const Connection& conn,
                                      const AnalyzerOptions& opts) {
  thread_local AnalysisScratch scratch;
  ConnectionAnalysis out;
  analyze_connection(conn, opts, scratch, out);
  return out;
}

void analyze_connection(const Connection& conn, const AnalyzerOptions& opts,
                        AnalysisScratch& scratch, ConnectionAnalysis& out) {
  TDAT_TRACE_SPAN("analyze.connection", "analyze", "conn",
                  [&conn] { return conn.key.to_string(); });
  const std::int64_t t0 = monotonic_micros();
  const std::uint64_t a0 = thread_alloc_count();
  out.conn_index = 0;
  out.key = conn.key;
  out.quarantine_reason =
      opts.fault_hook != nullptr ? opts.fault_hook(conn) : nullptr;
  if (out.quarantined()) {
    quarantine_connection(out, scratch);
    return;
  }
  {
    TDAT_TRACE_SPAN("analyze.profile", "analyze");
    out.profile = compute_profile(conn, scratch.profile);
  }
  {
    TDAT_TRACE_SPAN("analyze.series", "analyze");
    build_series(conn, out.profile, opts, scratch.series, out.bundle);
  }
  {
    TDAT_TRACE_SPAN("analyze.extract_bgp", "analyze");
    // Donate out's warm message buffer to the staging result, extract, then
    // take the refilled buffer back — capacity circulates, nothing is freed.
    scratch.extracted.messages.swap(out.messages);
    extract_bgp_messages_into(conn, out.profile.data_dir, scratch.extract,
                              scratch.extracted);
    out.messages.swap(scratch.extracted.messages);
  }
  // BGP framing this far gone means the byte stream is not a BGP session any
  // more (hostile payloads, undetected capture damage): isolate the
  // connection instead of reporting series built over garbage.
  if (scratch.extracted.skipped_bytes > opts.quarantine_skipped_bytes ||
      scratch.extracted.parse_errors > opts.quarantine_parse_errors) {
    TDAT_LOG_WARN(
        "analyze: connection %s quarantined: BGP framing unrecoverable "
        "(%llu bytes skipped, %llu parse errors, %llu resyncs)",
        conn.key.to_string().c_str(),
        static_cast<unsigned long long>(scratch.extracted.skipped_bytes),
        static_cast<unsigned long long>(scratch.extracted.parse_errors),
        static_cast<unsigned long long>(scratch.extracted.frame_resyncs));
    out.quarantine_reason = "BGP framing unrecoverable";
    quarantine_connection(out, scratch);
    return;
  }

  // A table transfer starts right after the TCP connection is established
  // (RFC 4271); MCT estimates where it ends.
  const Micros start = conn.start_time();
  {
    TDAT_TRACE_SPAN("analyze.mct", "analyze");
    out.mct = mct_transfer_end(out.messages, start, MctOptions{},
                               scratch.mct_seen);
  }
  if (out.mct.update_count > 0 && out.mct.end > start) {
    out.transfer = {start, out.mct.end};
  } else {
    out.transfer = {};
  }
  {
    // The detection stage: every registered pass (core/pass.hpp) — the eight
    // factor passes bracketed by begin/finalize (together equivalent to
    // classify_delay bit for bit) plus the §II detectors — gated by the
    // pass selection and individually timed.
    TDAT_TRACE_SPAN("analyze.passes", "analyze");
    if (scratch.passes.empty()) init_pass_states(scratch.passes);
    out.findings.reset();
    begin_delay_classification(out.report, out.transfer, scratch.delay);
    const AnalysisContext ctx{conn,         out.profile, out.bundle.registry,
                              out.transfer, opts,        scratch.delay};
    for (PassExecState& ps : scratch.passes) {
      if (!opts.passes.enabled(ps.id)) continue;
      TDAT_TRACE_SPAN(ps.pass->info().name, "pass");
      const std::int64_t p0 = monotonic_micros();
      ps.pass->run(ctx, ps.scratch.get(), out);
      ps.us->observe(monotonic_micros() - p0);
      ps.runs->inc();
    }
    finalize_delay_groups(out.report, opts, scratch.delay);
  }
  // Per-connection accounting: a clock read plus relaxed RMWs on this
  // worker's metric shards. connections_done feeds the CLI --progress
  // ticker; allocs_per_conn guards the zero-allocation steady state.
  scratch.conn_us->observe(monotonic_micros() - t0);
  if (alloc_hook_active()) {
    scratch.allocs->observe(
        static_cast<std::int64_t>(thread_alloc_count() - a0));
  }
  scratch.done->inc();
}

std::size_t resolve_jobs(std::size_t requested, std::size_t tasks) {
  std::size_t jobs = requested == 0 ? default_jobs() : requested;
  if (tasks > 0 && jobs > tasks) jobs = tasks;
  return jobs > 0 ? jobs : 1;
}

std::size_t analyze_connections(const std::vector<Connection>& conns,
                                std::span<const std::uint32_t> which,
                                const AnalyzerOptions& opts,
                                std::vector<ConnectionAnalysis>& results) {
  const std::size_t jobs = resolve_jobs(opts.jobs, which.size());
  TDAT_TRACE_SPAN("analyze.stage", "analyze", "jobs",
                  static_cast<std::int64_t>(jobs));
  parallel_for(which.size(), jobs, [&](std::size_t t) {
    const std::size_t i = which[t];
    // One scratch per worker thread, warm across tasks and across runs: the
    // whole per-connection working set (classifier tables, series buffers,
    // range-set algebra, reassembly, MCT prefix table) is recycled, so the
    // stage's steady state performs no cross-core allocator traffic.
    thread_local AnalysisScratch scratch;
    // A pathological connection must not take the run down (parallel_for
    // would rethrow it and end the run): it is
    // quarantined in place and the stage moves on. Deep allocation failures
    // (bad_alloc / length_error from absurd reconstructed streams) are the
    // realistic throwers; contract violations still abort via TDAT_EXPECTS.
    try {
      analyze_connection(conns[i], opts, scratch, results[i]);
    } catch (const std::exception& e) {
      TDAT_LOG_WARN("analyze: connection %s quarantined: %s",
                    conns[i].key.to_string().c_str(), e.what());
      results[i] = ConnectionAnalysis{};
      results[i].key = conns[i].key;
      results[i].quarantine_reason = "analysis failed with an exception";
    } catch (...) {
      results[i] = ConnectionAnalysis{};
      results[i].key = conns[i].key;
      results[i].quarantine_reason = "analysis failed";
    }
    results[i].conn_index = i;
  });
  return jobs;
}

TraceAnalysis run_pipeline(TraceSource& source, const AnalyzerOptions& opts) {
  TraceAnalysis out;
  const Micros t0 = wall_now();
  {
    TDAT_TRACE_SPAN("ingest", "pcap");
    IngestStageResult ingested =
        run_ingest_stage(source, opts.verify_checksums);
    out.connections = std::move(ingested.connections);
    out.stats.packets = ingested.packets;
    out.stats.decode_busy = ingested.decode_busy;
  }
  out.stats.records = source.records_seen();
  out.stats.bytes_ingested = source.bytes_ingested();
  out.stats.ingest = source.diagnostics();
  source.collect_file_diagnostics(out.file_diags);
  run_analysis_stage(out, opts, t0);
  return out;
}

TraceAnalysis analyze_packets(std::vector<DecodedPacket> packets,
                              const AnalyzerOptions& opts) {
  TraceAnalysis out;
  const Micros t0 = wall_now();
  {
    // Already decoded: ingest is the demux alone. No capture headers were
    // seen, so bytes are frame bytes and records stay 0.
    TDAT_TRACE_SPAN("ingest", "pcap");
    ConnectionDemux demux;
    out.stats.packets = packets.size();
    for (DecodedPacket& pkt : packets) {
      out.stats.bytes_ingested += pkt.frame.size();
      demux.add(std::move(pkt));
    }
    out.connections = demux.take();
  }
  run_analysis_stage(out, opts, t0);
  return out;
}

TraceAnalysis analyze_trace(const PcapFile& file, const AnalyzerOptions& opts) {
  PcapFileSource source(file);
  return run_pipeline(source, opts);
}

Result<TraceAnalysis> analyze_file(const std::string& path,
                                   const AnalyzerOptions& opts) {
  return PcapStreamSource::open(path, opts.verify_checksums, opts.ingest)
      .and_then([&](PcapStreamSource source) -> Result<TraceAnalysis> {
        TDAT_LOG_INFO("analyze: streaming %s", path.c_str());
        return run_pipeline(source, opts);
      });
}

Result<TraceAnalysis> analyze_files(const std::vector<std::string>& inputs,
                                    const AnalyzerOptions& opts) {
  TDAT_TRY(source,
           MultiFileSource::open(inputs, opts.ingest));
  TDAT_LOG_INFO("analyze: %zu rotated capture files as one trace",
                source.file_count());
  return run_pipeline(source, opts);
}

}  // namespace tdat
