// Connection extraction: splits a decoded trace into TCP connections and
// assigns each packet a direction. A new SYN on a (addr, port) pair that
// already has a finished connection starts a new connection — BGP sessions
// reset and re-establish on the same endpoint pair all the time (§II).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "pcap/packet.hpp"

namespace tdat {

// Canonical connection key: endpoint A is the numerically smaller
// (ip, port) pair so both directions map to the same key.
struct ConnKey {
  std::uint32_t ip_a = 0;
  std::uint16_t port_a = 0;
  std::uint32_t ip_b = 0;
  std::uint16_t port_b = 0;

  friend bool operator==(const ConnKey&, const ConnKey&) = default;
  friend auto operator<=>(const ConnKey&, const ConnKey&) = default;

  [[nodiscard]] std::string to_string() const;
};

[[nodiscard]] ConnKey make_conn_key(const DecodedPacket& pkt);

// 64-bit mix of the canonical key. The demux table below indexes by its low
// bits; fleet shard planning (fleet/shard_plan.hpp, `tdat shard`) assigns a
// connection to shard hash % shards.
[[nodiscard]] std::uint64_t conn_key_hash(const ConnKey& key);

enum class Dir : std::uint8_t { kAToB, kBToA };

[[nodiscard]] Dir packet_dir(const ConnKey& key, const DecodedPacket& pkt);
[[nodiscard]] constexpr Dir reverse(Dir d) {
  return d == Dir::kAToB ? Dir::kBToA : Dir::kAToB;
}

struct Connection {
  ConnKey key;
  // All packets of the connection in capture order; DecodedPacket::index
  // still refers to the position in the original trace.
  std::vector<DecodedPacket> packets;

  [[nodiscard]] Micros start_time() const {
    return packets.empty() ? 0 : packets.front().ts;
  }
  [[nodiscard]] Micros end_time() const {
    return packets.empty() ? 0 : packets.back().ts;
  }
};

// Incremental connection demultiplexer: accepts packets one at a time in
// capture order, so the streaming ingest path can demux while the trace is
// still being read. A SYN (without ACK) seen on a key whose current
// connection already carried data or a FIN/RST starts a new connection on
// that key. split_connections is the batch wrapper over this.
//
// The key -> connection lookup is an open-addressing linear-probe table in
// the style of bgp::PrefixSet (power-of-two capacity, load factor < 1/2,
// Fibonacci-mixed hash): the lookup is the hottest non-analysis operation in
// the pipeline and a node-based map was paying a pointer chase plus an
// allocation per connection for it. Batch runs never delete keys — take()
// clears the whole table — so probing needs no tombstones; the live
// engine's per-key forget() uses backward-shift deletion to keep it that
// way.
class ConnectionDemux {
 public:
  void add(DecodedPacket pkt) { (void)add_indexed(std::move(pkt)); }

  // Like add(), returning the index (into connections()/take() order) of
  // the connection the packet joined — the live engine uses it to mark
  // connections dirty for incremental re-analysis.
  std::size_t add_indexed(DecodedPacket pkt);

  [[nodiscard]] std::size_t connection_count() const { return conns_.size(); }

  // In-place view of the connections in first-seen order, for callers that
  // analyze incrementally without draining the demux. Indices are stable
  // for the demux's lifetime (forget() never erases from this vector).
  [[nodiscard]] std::vector<Connection>& connections() { return conns_; }
  [[nodiscard]] const std::vector<Connection>& connections() const {
    return conns_;
  }

  // Drops the key -> connection mapping for conns_[conn_index] (a no-op if
  // the key has already been remapped to a newer connection). The
  // Connection object itself stays in place — indices held by callers
  // remain valid — but the next packet on that key opens a brand-new
  // connection, exactly as if the key had never been seen. This is how the
  // live engine garbage-collects idle sessions without renumbering.
  void forget(std::size_t conn_index);

  // Finishes demultiplexing and yields the connections in first-seen order.
  // The demux is empty afterwards and may be reused; the slot array keeps
  // its capacity, so steady-state reuse does not allocate.
  [[nodiscard]] std::vector<Connection> take();

 private:
  struct Slot {
    ConnKey key;
    std::uint32_t conn_index = 0;
    bool saw_data_or_close = false;
    bool used = false;
  };

  // Probes for `key`; returns the index of its slot (used) or of the empty
  // slot where it belongs (unused). Grows first when at the load limit.
  [[nodiscard]] std::size_t probe(const ConnKey& key);
  void grow();

  std::vector<Connection> conns_;
  std::vector<Slot> slots_;     // power-of-two size; empty until first add
  std::size_t occupied_ = 0;    // used slots, governs the load-factor grow
};

// Splits trace packets (in capture order) into connections.
[[nodiscard]] std::vector<Connection> split_connections(
    const std::vector<DecodedPacket>& trace);

}  // namespace tdat
