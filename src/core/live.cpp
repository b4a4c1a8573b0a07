#include "core/live.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include "core/ingest_pipeline.hpp"
#include "pcap/mmap_file.hpp"
#include "pcap/record_runs.hpp"
#include "util/log.hpp"
#include "util/metrics.hpp"
#include "util/trace.hpp"

namespace tdat {
namespace {

// Packets always retained at the front of a windowed connection: the
// handshake plus the first data packets, which anchor the RTT/MSS profile
// and the data direction. Without them a re-analysis of an evicted
// connection would lose the profile entirely instead of approximating it.
constexpr std::size_t kEvictKeepHead = 8;

Micros wall_now() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Coalesces a connection's retained packets into capture offset runs: a run
// extends while the next packet's record starts exactly where the previous
// one ended AND its global index is the successor — i.e. no other record
// (another connection's packet, a non-TCP record, a decode failure) sits
// between them in the file. False when any packet lacks a file position
// (in-memory source), which makes the connection uncheckpointable.
bool append_packet_runs(const std::vector<DecodedPacket>& pkts,
                        std::vector<CheckpointRun>& out) {
  std::uint64_t end_offset = 0;
  std::uint64_t next_index = 0;
  for (const DecodedPacket& pkt : pkts) {
    if (pkt.rec_len == 0) return false;
    if (!out.empty() && pkt.rec_offset == end_offset &&
        pkt.index == next_index) {
      ++out.back().count;
    } else {
      out.push_back({pkt.rec_offset, 1, pkt.index});
    }
    end_offset = pkt.rec_offset + pkt.rec_len;
    next_index = pkt.index + 1;
  }
  return true;
}

}  // namespace

LiveEngine::LiveEngine(TraceSource& source, LiveOptions opts)
    : source_(source), opts_(opts) {}

void LiveEngine::ingest_packet(DecodedPacket pkt) {
  const Micros ts = pkt.ts;
  const std::size_t i = demux_.add_indexed(std::move(pkt));
  if (i >= results_.size()) {
    results_.resize(i + 1);
    states_.resize(i + 1);
    ++stats_.connections_total;
  }
  ConnState& st = states_[i];
  st.last_ts = ts;
  if (ts > now_) now_ = ts;
  if (!st.dirty) {
    st.dirty = true;
    dirty_.push_back(static_cast<std::uint32_t>(i));
  }
  ++stats_.packets;
}

std::size_t LiveEngine::run_epoch() {
  const Micros t0 = wall_now();
  dirty_.clear();
  std::size_t total = 0;
  const std::size_t budget = std::max<std::size_t>(opts_.epoch_batch_records, 1);
  record_buf_.resize(kIngestBatch);
  while (total < budget) {
    const std::size_t want = std::min(kIngestBatch, budget - total);
    const std::size_t n =
        source_.next_raw_records(std::span(record_buf_).first(want));
    if (n == 0) break;
    packet_buf_.clear();
    decode_record_span(std::span(record_buf_).first(n), next_index_,
                       opts_.analyzer.verify_checksums, decode_scratch_,
                       packet_buf_);
    for (DecodedPacket& pkt : packet_buf_) ingest_packet(std::move(pkt));
    next_index_ += n;
    total += n;
  }
  const Micros t1 = wall_now();
  ingest_wall_ += t1 - t0;

  analyze_dirty();
  analyze_wall_ += wall_now() - t1;

  evict_window();
  gc_idle();

  if (total > 0) {
    stats_.records += total;
    ++stats_.epochs;
  }
  stats_.connections_active =
      static_cast<std::uint64_t>(results_.size() - retired_);
  stats_.newest_ts = now_;
  metrics().gauge("live.connections_active")
      .set(static_cast<std::int64_t>(stats_.connections_active));
  total_wall_ += wall_now() - t0;
  return total;
}

void LiveEngine::analyze_dirty() {
  if (dirty_.empty()) return;
  std::vector<Connection>& conns = demux_.connections();
  TDAT_TRACE_SPAN("live.analyze", "live", "dirty",
                  static_cast<std::int64_t>(dirty_.size()));
  analyze_connections(conns, dirty_, opts_.analyzer, results_);
  // Location inference reads the packet list, which eviction may trim later:
  // freeze the estimate while the evidence is at its freshest.
  for (const std::uint32_t i : dirty_) {
    states_[i].where = infer_sniffer_location(conns[i], results_[i].profile);
    states_[i].dirty = false;
  }
}

void LiveEngine::evict_window() {
  if (opts_.window <= 0 || now_ < 0) return;
  const Micros horizon = now_ - opts_.window;
  std::vector<Connection>& conns = demux_.connections();
  std::uint64_t evicted = 0;
  for (std::size_t i = 0; i < conns.size(); ++i) {
    if (states_[i].retired) continue;
    std::vector<DecodedPacket>& pkts = conns[i].packets;
    if (pkts.size() <= kEvictKeepHead + 1) continue;
    const std::size_t last = pkts.size() - 1;  // newest packet always stays
    std::size_t cut = kEvictKeepHead;
    while (cut < last && pkts[cut].ts < horizon) ++cut;
    if (cut > kEvictKeepHead) {
      pkts.erase(pkts.begin() + static_cast<std::ptrdiff_t>(kEvictKeepHead),
                 pkts.begin() + static_cast<std::ptrdiff_t>(cut));
      evicted += cut - kEvictKeepHead;
    }
  }
  if (evicted > 0) {
    stats_.packets_evicted += evicted;
    metrics().counter("live.packets_evicted").inc(evicted);
  }
}

void LiveEngine::gc_idle() {
  if (opts_.idle_gc <= 0 || now_ < 0) return;
  for (std::size_t i = 0; i < states_.size(); ++i) {
    if (states_[i].retired || states_[i].last_ts < 0) continue;
    if (states_[i].last_ts + opts_.idle_gc <= now_) retire(i);
  }
}

void LiveEngine::retire(std::size_t i) {
  // Free the slot first: a later packet on the same 4-tuple must open a
  // brand-new connection instead of reviving this one.
  demux_.forget(i);
  Connection& conn = demux_.connections()[i];
  // Stash the retained packets' capture positions before freeing them, so a
  // checkpoint taken after retirement can still name this connection's
  // evidence. Best-effort: an in-memory source yields no positions, and the
  // checkpoint path reports that when (and only when) a checkpoint is asked
  // for.
  states_[i].retired_runs.clear();
  if (!append_packet_runs(conn.packets, states_[i].retired_runs)) {
    // No file positions (in-memory source): leave the stash empty, which the
    // checkpoint path reports as uncheckpointable — a connection always has
    // at least one packet at retirement, so empty means invalid.
    states_[i].retired_runs.clear();
  }
  release_retired(i);
  states_[i].retired = true;
  ++retired_;
  ++stats_.connections_gc;
  metrics().counter("live.connections_gc").inc();
  TDAT_LOG_INFO("live: retired idle connection %s",
                results_[i].key.to_string().c_str());
}

void LiveEngine::release_retired(std::size_t i) {
  std::vector<DecodedPacket>& pkts = demux_.connections()[i].packets;
  pkts.clear();
  pkts.shrink_to_fit();
  ConnectionAnalysis& a = results_[i];
  a.bundle = SeriesBundle{};
  // Keep the OPENs: peer-AS attribution in snapshots survives GC, while the
  // UPDATE bodies — the bulk of retained message memory — are released.
  std::erase_if(a.messages, [](const TimedBgpMessage& m) {
    return m.msg.type() != BgpType::kOpen;
  });
  a.messages.shrink_to_fit();
}

void LiveEngine::drain() {
  source_.begin_drain();
  while (run_epoch() > 0) {
  }
}

std::string LiveEngine::render_snapshot(ReportFormat format,
                                        const ReportRenderOptions& ropts) {
  std::vector<Connection>& conns = demux_.connections();
  ReportModel model;
  model.entries.reserve(results_.size());
  for (std::size_t i = 0; i < results_.size(); ++i) {
    ReportEntry entry;
    entry.conn = &conns[i];
    entry.analysis = &results_[i];
    entry.where = states_[i].where;
    model.entries.push_back(entry);
    if (results_[i].quarantined()) ++model.quarantined;
  }
  model.ingest = source_.diagnostics();
  std::vector<FileIngestDiagnostics> files;
  source_.collect_file_diagnostics(files);
  for (FileIngestDiagnostics& f : files) {
    if (f.diag.has_errors()) model.files.push_back(std::move(f));
  }
  return render_report(model, format, ropts);
}

std::size_t LiveEngine::retained_packets() const {
  std::size_t n = 0;
  for (const Connection& conn : demux_.connections()) n += conn.packets.size();
  return n;
}

Result<Unit> LiveEngine::checkpoint_state(LiveCheckpoint& out) const {
  out.next_index = static_cast<std::uint64_t>(next_index_);
  out.now_ts = now_;

  out.config.location = static_cast<std::uint8_t>(opts_.analyzer.location);
  out.config.verify_checksums = opts_.analyzer.verify_checksums;
  out.config.strict = opts_.analyzer.ingest.strict;
  out.config.enable_ack_shift = opts_.analyzer.enable_ack_shift;
  out.config.pass_bits = opts_.analyzer.passes.bits;
  out.config.max_errors =
      static_cast<std::uint64_t>(opts_.analyzer.ingest.max_errors);
  out.config.window = opts_.window;
  out.config.idle_gc = opts_.idle_gc;

  out.epochs = stats_.epochs;
  out.records = stats_.records;
  out.packets = stats_.packets;
  out.connections_total = stats_.connections_total;
  out.connections_gc = stats_.connections_gc;
  out.packets_evicted = stats_.packets_evicted;

  const std::vector<Connection>& conns = demux_.connections();
  out.conns.clear();
  out.conns.reserve(conns.size());
  for (std::size_t i = 0; i < conns.size(); ++i) {
    CheckpointConn conn;
    conn.retired = states_[i].retired;
    if (conn.retired) {
      conn.runs = states_[i].retired_runs;
    } else if (!append_packet_runs(conns[i].packets, conn.runs)) {
      return Err<Unit>("checkpoint: connection " +
                       conns[i].key.to_string() +
                       " has packets with no capture-file backing");
    }
    if (conn.runs.empty()) {
      return Err<Unit>("checkpoint: connection " + conns[i].key.to_string() +
                       " has no capture-backed packets");
    }
    out.conns.push_back(std::move(conn));
  }
  return Unit{};
}

Result<Unit> LiveEngine::restore_state(const LiveCheckpoint& ckpt,
                                       const std::string& capture_path) {
  if (!results_.empty() || next_index_ != 0) {
    return Err<Unit>("restore: engine is not fresh");
  }
  auto mapped = MappedFile::map(capture_path);
  if (!mapped.ok()) {
    return Err<Unit>("restore: cannot map capture: " + mapped.error());
  }
  MappedFile& m = mapped.value();
  const std::shared_ptr<const void> pin = m.share();
  const std::span<const std::uint8_t> image = m.bytes();

  // Replay each connection's runs in connection order. The demux key->conn
  // contract makes this exact: two connections sharing a 4-tuple never
  // interleave in time (the second is born from a fresh-SYN remap or a
  // post-retirement packet), so replaying whole connections in creation
  // order reproduces slot evolution, the per-connection timestamp clamp,
  // and connection indices byte for byte.
  std::vector<StreamRecord> recs;
  std::vector<DecodedPacket> pkts;
  for (std::size_t ci = 0; ci < ckpt.conns.size(); ++ci) {
    const CheckpointConn& conn = ckpt.conns[ci];
    if (conn.runs.empty()) {
      return Err<Unit>("restore: connection " + std::to_string(ci) +
                       " has no runs");
    }
    std::vector<RecordRun> raw_runs;
    raw_runs.reserve(conn.runs.size());
    for (const CheckpointRun& run : conn.runs) {
      raw_runs.push_back({run.offset, run.count});
    }
    auto reader = RecordRunReader::open(pin, image, std::move(raw_runs));
    if (!reader.ok()) return Err<Unit>("restore: " + reader.error());
    RecordRunReader& rr = reader.value();

    for (const CheckpointRun& run : conn.runs) {
      std::uint64_t replayed = 0;
      while (replayed < run.count) {
        const std::uint64_t batch =
            std::min<std::uint64_t>(run.count - replayed, kIngestBatch);
        recs.clear();
        for (std::uint64_t k = 0; k < batch; ++k) {
          StreamRecord rec;
          if (!rr.next(rec)) {
            return Err<Unit>(rr.failed()
                                 ? "restore: " + rr.error()
                                 : "restore: run ended before its record "
                                   "count (capture changed?)");
          }
          recs.push_back(std::move(rec));
        }
        const std::uint64_t base_index = run.first_index + replayed;
        pkts.clear();
        decode_record_span(recs, static_cast<std::size_t>(base_index),
                           opts_.analyzer.verify_checksums, decode_scratch_,
                           pkts);
        // Every record in a run decoded to a packet of this connection when
        // the checkpoint was written; decode is deterministic, so a record
        // that no longer decodes means the capture changed underneath.
        if (pkts.size() != batch) {
          return Err<Unit>("restore: replay dropped records of a "
                           "checkpointed run (capture changed?)");
        }
        for (DecodedPacket& pkt : pkts) ingest_packet(std::move(pkt));
        replayed += batch;
      }
    }
    // The first packet of connection ci must have opened connection ci —
    // anything else means replay diverged from the original demux walk.
    if (demux_.connections().size() != ci + 1) {
      return Err<Unit>("restore: connection replay diverged from the "
                       "checkpointed demux order");
    }
    // Retired connections gave their slot back before any same-key successor
    // was born; reproduce that before the next connection replays.
    if (conn.retired) demux_.forget(ci);
  }

  // One analysis pass over everything (analyze_connection is pure, so this
  // equals the incremental analyses the uninterrupted run performed), then
  // re-trim the retired connections exactly as retire() does — without
  // touching the GC counters, which are restored from the checkpoint below.
  analyze_dirty();
  for (std::size_t ci = 0; ci < ckpt.conns.size(); ++ci) {
    if (!ckpt.conns[ci].retired) continue;
    release_retired(ci);
    states_[ci].retired = true;
    states_[ci].retired_runs = ckpt.conns[ci].runs;
    ++retired_;
  }

  next_index_ = static_cast<std::size_t>(ckpt.next_index);
  now_ = ckpt.now_ts;
  stats_.epochs = ckpt.epochs;
  stats_.records = ckpt.records;
  stats_.packets = ckpt.packets;
  stats_.connections_total = ckpt.connections_total;
  stats_.connections_gc = ckpt.connections_gc;
  stats_.packets_evicted = ckpt.packets_evicted;
  stats_.connections_active =
      static_cast<std::uint64_t>(results_.size() - retired_);
  stats_.newest_ts = now_;
  metrics().gauge("live.connections_active")
      .set(static_cast<std::int64_t>(stats_.connections_active));
  return Unit{};
}

PipelineStats LiveEngine::pipeline_stats() const {
  PipelineStats stats;
  stats.bytes_ingested = source_.bytes_ingested();
  stats.records = source_.records_seen();
  stats.packets = stats_.packets;
  stats.connections = results_.size();
  for (const ConnectionAnalysis& a : results_) {
    if (a.quarantined()) ++stats.quarantined;
  }
  stats.ingest = source_.diagnostics();
  stats.jobs = resolve_jobs(opts_.analyzer.jobs, results_.size());
  stats.ingest_wall = ingest_wall_;
  stats.analyze_wall = analyze_wall_;
  stats.total_wall = total_wall_;
  return stats;
}

}  // namespace tdat
