// T-DAT top level (Fig. 10): pre-process the raw packet trace (connection
// extraction, profiles, ACK shifting), generate the event series, locate the
// BGP table transfer (TCP start + MCT end, §II-A), and run the registered
// analysis passes (core/pass.hpp) — the eight delay factors plus the §II
// detectors — over the transfer window.
//
// One pipeline, many sources: run_pipeline consumes any TraceSource
// (core/trace_source.hpp), so the in-memory path (analyze_trace), the
// streaming path (analyze_file), and the rotated multi-file path
// (analyze_files) are thin wrappers around the same ingest loop and analysis
// stage; analyze_packets demuxes already-decoded packets straight into that
// stage. The stage runs analyze_connection per connection — serially for
// opts.jobs == 1, through parallel_for otherwise — with results written into
// pre-sized slots by connection index, so the output is bit-identical at any
// job count and across every ingest path.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "bgp/mct.hpp"
#include "core/delay_report.hpp"
#include "core/detector_results.hpp"
#include "core/pcap2bgp.hpp"
#include "core/series_builder.hpp"
#include "pcap/pcap_file.hpp"
#include "tcp/profile.hpp"
#include "util/metrics.hpp"
#include "util/result.hpp"

namespace tdat {

class TraceSource;
struct PassExecState;

struct ConnectionAnalysis {
  std::size_t conn_index = 0;  // into TraceAnalysis::connections
  ConnKey key;
  ConnectionProfile profile;
  SeriesBundle bundle;                   // the 34 series + labeled packets
  std::vector<TimedBgpMessage> messages; // extracted by pcap2bgp
  MctResult mct;
  TimeRange transfer;                    // the analysis period
  DelayReport report;
  DetectorFindings findings;             // §II detector-pass results

  // Set when the connection was isolated instead of analyzed (unrecoverable
  // BGP framing, analysis failure — see AnalyzerOptions quarantine knobs).
  // Always a static string, so the happy path never allocates for it.
  const char* quarantine_reason = nullptr;

  [[nodiscard]] bool quarantined() const { return quarantine_reason != nullptr; }
  [[nodiscard]] Micros transfer_duration() const { return transfer.length(); }
  [[nodiscard]] const SeriesRegistry& series() const { return bundle.registry; }
};

// Throughput accounting for one pipeline run (§V-C: the Perl prototype's
// 26 s/connection is the number to beat). Wall times come from a monotonic
// clock; the rates divide by total_wall.
struct PipelineStats {
  std::uint64_t bytes_ingested = 0;  // capture bytes consumed (incl. headers)
  std::uint64_t records = 0;         // pcap records seen
  std::uint64_t packets = 0;         // decoded TCP packets
  std::uint64_t connections = 0;
  std::uint64_t quarantined = 0;     // connections isolated by quarantine
  IngestDiagnostics ingest;          // capture damage tallied by the source
  std::size_t jobs = 1;              // effective analysis worker count
  Micros ingest_wall = 0;            // read + decode + connection demux
  Micros decode_busy = 0;            // wall time inside header decode
  Micros analyze_wall = 0;           // per-connection analysis stage
  Micros total_wall = 0;

  // Per-stage observability, scoped to this run (snapshot deltas of the
  // process-wide registry): how long parallel_for helpers took to start
  // after a dispatch and the distribution of per-connection analysis cost,
  // both in microseconds.
  HistogramSnapshot queue_wait_us;
  HistogramSnapshot connection_us;
  // Full metrics-registry snapshot taken when the run finished ("" when not
  // captured); embedded verbatim by to_json under "metrics".
  std::string metrics_json;

  [[nodiscard]] double bytes_per_sec() const;
  [[nodiscard]] double packets_per_sec() const;
  [[nodiscard]] double connections_per_sec() const;
  // Per-stage throughput over the same capture bytes: what each stage would
  // sustain standing alone. ingest = read + decode + demux wall;
  // decode = header-decode time; analysis = analysis-stage wall.
  [[nodiscard]] double ingest_bytes_per_sec() const;
  [[nodiscard]] double decode_bytes_per_sec() const;
  [[nodiscard]] double analysis_bytes_per_sec() const;
  // Locale-independent JSON (doubles via std::to_chars — the output never
  // depends on the process locale's decimal separator).
  [[nodiscard]] std::string to_json() const;
};

struct TraceAnalysis {
  std::vector<Connection> connections;
  std::vector<ConnectionAnalysis> results;  // parallel to connections
  PipelineStats stats;
  // Per-file ingest damage (empty for sources without file identity; clean
  // files included — the report layer filters).
  std::vector<FileIngestDiagnostics> file_diags;
};

// All reusable working state for one analysis worker. Owned by the caller
// (one per worker thread in run_analysis_stage); every sub-stage scratch in
// here is reset — never freed — between connections, so in steady state
// analyze_connection performs no heap allocation beyond the retained output
// it writes into ConnectionAnalysis.
struct AnalysisScratch {
  AnalysisScratch();
  ~AnalysisScratch();  // out of line: PassExecState is incomplete here

  ProfileScratch profile;
  SeriesScratch series;
  ExtractScratch extract;
  Pcap2BgpResult extracted;  // staging buffer; swapped with out.messages
  PrefixSet mct_seen;
  DelayScratch delay;

  // One execution slot per registered pass (warm pass scratch + resolved
  // metric handles), lazily built on the worker's first connection.
  std::vector<PassExecState> passes;

  // Metric handles resolved once per scratch so the per-connection path is
  // a clock read plus relaxed shard RMWs — no registry lock, no
  // function-local-static init guard.
  LatencyHistogram* conn_us = nullptr;
  LatencyHistogram* allocs = nullptr;
  Counter* done = nullptr;
};

[[nodiscard]] ConnectionAnalysis analyze_connection(const Connection& conn,
                                                    const AnalyzerOptions& opts);

// Scratch-reusing form: rebuilds `out` in place. With a warm scratch and a
// reused `out`, the steady state is allocation-free except for parsed BGP
// message bodies (retained output).
void analyze_connection(const Connection& conn, const AnalyzerOptions& opts,
                        AnalysisScratch& scratch, ConnectionAnalysis& out);

// Worker count for `tasks` units of work: `requested` (0 = default_jobs()),
// clamped to [1, tasks].
[[nodiscard]] std::size_t resolve_jobs(std::size_t requested,
                                       std::size_t tasks);

// The per-connection analysis driver shared by batch run_pipeline and the
// live engine: analyzes conns[i] into results[i] (pre-sized) for every i in
// `which`, on resolve_jobs(opts.jobs, which.size()) workers, each with a
// warm thread-local AnalysisScratch. Results land in index-keyed slots, so
// output never depends on the job count. A connection whose analysis throws
// is quarantined in place instead of taking the run down. Returns the
// worker count used.
std::size_t analyze_connections(const std::vector<Connection>& conns,
                                std::span<const std::uint32_t> which,
                                const AnalyzerOptions& opts,
                                std::vector<ConnectionAnalysis>& results);

// The one analysis pipeline every entry point funnels into: drain the
// source (decode + connection demux), then run the analysis stage. The
// source fully determines the packets, so two sources yielding the same
// packets produce bit-identical results.
[[nodiscard]] TraceAnalysis run_pipeline(TraceSource& source,
                                         const AnalyzerOptions& opts);

[[nodiscard]] TraceAnalysis analyze_packets(std::vector<DecodedPacket> packets,
                                            const AnalyzerOptions& opts);

[[nodiscard]] TraceAnalysis analyze_trace(const PcapFile& file,
                                          const AnalyzerOptions& opts);

// Streaming entry point: chunked pcap ingest with arena-backed zero-copy
// packets, batched decode feeding the connection demux, then the same
// (optionally parallel) analysis stage. Produces results identical to
// analyze_trace(read_pcap_file(path)) at a fraction of the peak memory.
[[nodiscard]] Result<TraceAnalysis> analyze_file(const std::string& path,
                                                 const AnalyzerOptions& opts);

// Rotated-capture entry point: `inputs` may mix capture files and
// directories of captures; the files are concatenated in first-record
// timestamp order (core/trace_source.hpp) and streamed through the same
// pipeline.
[[nodiscard]] Result<TraceAnalysis> analyze_files(
    const std::vector<std::string>& inputs, const AnalyzerOptions& opts);

}  // namespace tdat
