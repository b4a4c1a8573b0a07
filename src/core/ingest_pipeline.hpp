// The ingest stage of run_pipeline (DESIGN.md §12): drain a TraceSource into
// demultiplexed connections. One shape serves every source: pull raw records
// in batches (TraceSource::next_raw_records), run them through the SoA batch
// decoder (pcap/decode_batch.hpp), and feed the flat-table demux — one
// thread, no queues, no atomics. The live engine (core/live.hpp) ingests
// through the same decode_record_span, so batch, live, and restored live
// state see identical packets.
//
// Ingest is serial on purpose: it is a few percent of an analyze run (BGP
// extraction dominates), and a sharded multi-threaded shape measured no
// faster than this loop on 4 real cores. --jobs sizes the analysis stage
// only.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "pcap/decode_batch.hpp"
#include "tcp/connection.hpp"
#include "util/time.hpp"

namespace tdat {

class TraceSource;

// Raw records pulled from a source per ingest step, batch and live alike. A
// multiple of kDecodeBatch so the decoder runs full lanes.
inline constexpr std::size_t kIngestBatch = 4 * kDecodeBatch;

// Decodes `records` — record i gets trace index start_index + i — appending
// the packets that decode to `out` in record order, each stamped with its
// record's capture position (rec_offset, rec_len) so a live checkpoint can
// name it as an offset run instead of serializing its bytes. Records that
// fail to decode (truncated, non-TCP, checksum rejects) emit nothing.
void decode_record_span(std::span<const StreamRecord> records,
                        std::size_t start_index, bool verify_checksums,
                        DecodeScratch& scratch,
                        std::vector<DecodedPacket>& out);

struct IngestStageResult {
  std::vector<Connection> connections;  // first-seen order
  std::uint64_t packets = 0;            // decoded TCP packets
  // Wall time spent inside header decode; bytes / decode_busy is the decode
  // stage's standalone throughput.
  Micros decode_busy = 0;
};

// Drains `source` completely.
[[nodiscard]] IngestStageResult run_ingest_stage(TraceSource& source,
                                                 bool verify_checksums);

}  // namespace tdat
