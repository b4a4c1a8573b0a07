// Batched Ethernet/IPv4/TCP header decode (DESIGN.md §11). Where
// decode_frame walks one frame through a chain of early returns, the batch
// decoder runs a whole run of records through a branch-minimized extraction
// pass that loads every fixed header field into struct-of-arrays scratch and
// folds the ~15 reject conditions into one validity mask — the common case
// (a clean TCP frame) takes the same straight-line path as the rare rejects,
// so the branch predictor has almost nothing to mispredict. A second pass
// materializes DecodedPacket for the surviving lanes, with the variable-rate
// work (TCP options, checksum verification) done per lane; the ubiquitous
// NOP/NOP/Timestamps option layout gets a dedicated fast path and everything
// else falls through to the exact option walk decode_frame uses.
//
// Contract: for every record, the emitted packet (or the decision to skip
// it) is bit-identical to skipping truncated records (data shorter than
// orig_len) and calling decode_frame(rec.ts, index, rec.data, verify,
// rec.arena) on the rest — checksum-verification rejects and the
// copy-when-unpinned backing rule included. tests/decode_batch_test.cpp
// holds the two equal on adversarial corpora.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "pcap/packet.hpp"
#include "pcap/pcap_stream.hpp"

namespace tdat {

// Lanes per decode call. 64 keeps the validity mask in one register and the
// scratch arrays inside L1.
inline constexpr std::size_t kDecodeBatch = 64;

// Struct-of-arrays scratch for one batch. Plain arrays, no constructor cost;
// reuse one instance across calls.
struct DecodeScratch {
  std::uint8_t ihl[kDecodeBatch];        // IPv4 header length, bytes
  std::uint8_t ttl[kDecodeBatch];
  std::uint16_t total_len[kDecodeBatch];
  std::uint16_t ident[kDecodeBatch];
  std::uint32_t src[kDecodeBatch];
  std::uint32_t dst[kDecodeBatch];
  std::uint16_t sport[kDecodeBatch];
  std::uint16_t dport[kDecodeBatch];
  std::uint32_t seq[kDecodeBatch];
  std::uint32_t ack[kDecodeBatch];
  std::uint8_t doff[kDecodeBatch];       // TCP header length, bytes
  std::uint8_t flags[kDecodeBatch];      // raw TCP flag byte
  std::uint16_t window[kDecodeBatch];
};

// Decodes records[0..min(size, kDecodeBatch)) — lane i gets trace index
// start_index + i — appending the packets that decode to `out` in lane
// order. Returns the number of lanes consumed (so the caller advances its
// record cursor and index base by exactly that). Records that fail to decode
// consume their lane and index but emit nothing, matching the scalar path.
std::size_t decode_records(std::span<const StreamRecord> records,
                           std::size_t start_index, bool verify_checksums,
                           DecodeScratch& scratch,
                           std::vector<DecodedPacket>& out);

}  // namespace tdat
