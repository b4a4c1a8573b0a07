#include "core/ingest_pipeline.hpp"

#include "core/trace_source.hpp"
#include "util/metrics.hpp"

namespace tdat {
namespace {

// On-disk pcap record header size, for rec_offset/rec_len bookkeeping.
constexpr std::size_t kRecordHeaderLen = 16;

}  // namespace

void decode_record_span(std::span<const StreamRecord> records,
                        std::size_t start_index, bool verify_checksums,
                        DecodeScratch& scratch,
                        std::vector<DecodedPacket>& out) {
  std::size_t off = 0;
  while (off < records.size()) {
    const std::size_t first = out.size();
    off += decode_records(records.subspan(off), start_index + off,
                          verify_checksums, scratch, out);
    for (std::size_t k = first; k < out.size(); ++k) {
      DecodedPacket& pkt = out[k];
      const StreamRecord& rec = records[pkt.index - start_index];
      pkt.rec_offset = rec.file_offset;
      pkt.rec_len =
          static_cast<std::uint32_t>(kRecordHeaderLen + rec.data.size());
    }
  }
}

IngestStageResult run_ingest_stage(TraceSource& source,
                                   bool verify_checksums) {
  IngestStageResult out;
  ConnectionDemux demux;
  std::vector<StreamRecord> records(kIngestBatch);
  std::vector<DecodedPacket> pkts;
  pkts.reserve(kIngestBatch);
  DecodeScratch scratch;
  std::size_t index = 0;
  for (;;) {
    const std::size_t n = source.next_raw_records(records);
    if (n == 0) break;
    pkts.clear();
    const std::int64_t t0 = monotonic_micros();
    decode_record_span(std::span(records).first(n), index, verify_checksums,
                       scratch, pkts);
    out.decode_busy += monotonic_micros() - t0;
    index += n;
    out.packets += pkts.size();
    for (DecodedPacket& pkt : pkts) demux.add(std::move(pkt));
  }
  out.connections = demux.take();
  return out;
}

}  // namespace tdat
