// Analyzer configuration and the delay-factor taxonomy of §III-D: eight
// conclusive factors sorted into three top-level groups (sender, receiver,
// network). The sniffer location is a user-supplied setting (§III-C2): it
// decides whether upstream/downstream losses are interpreted as local to the
// sender, local to the receiver, or in-network.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "pcap/ingest.hpp"
#include "util/time.hpp"

namespace tdat {

struct Connection;

enum class SnifferLocation : std::uint8_t {
  kNearReceiver,  // the paper's monitoring setup (Fig. 2)
  kNearSender,
  kMiddle,
};

enum class Factor : std::uint8_t {
  // Sender-side group
  kBgpSenderApp = 0,        // SendAppLimited: the sending BGP process idles
  kTcpCongestionWindow = 1, // CwndBndOut
  kSenderLocalLoss = 2,     // UpstreamLoss when the sniffer sits at the sender
  // Receiver-side group
  kBgpReceiverApp = 3,      // small/zero advertised window: app can't keep up
  kTcpAdvertisedWindow = 4, // bounded by a LARGE advertised window: the
                            // configured maximum window itself is the limit
  kReceiverLocalLoss = 5,   // DownstreamLoss when the sniffer sits at the receiver
  // Network group
  kBandwidthLimited = 6,
  kNetworkLoss = 7,
};
inline constexpr std::size_t kFactorCount = 8;

enum class FactorGroup : std::uint8_t { kSender = 0, kReceiver = 1, kNetwork = 2 };
inline constexpr std::size_t kGroupCount = 3;

[[nodiscard]] const char* to_string(Factor f);
[[nodiscard]] const char* to_string(FactorGroup g);
[[nodiscard]] FactorGroup group_of(Factor f);
[[nodiscard]] std::array<Factor, 3> factors_in(FactorGroup g);  // padded with dup for network

// Which registered analysis passes run (core/pass.hpp). One bit per pass id
// (registration order: the eight factor passes, then the §II detectors).
// Defaults to everything; parse_detector_selection() builds a selection from
// the CLI's --detectors value.
struct PassSelection {
  std::uint64_t bits = ~0ull;

  [[nodiscard]] bool enabled(std::size_t pass_id) const {
    return pass_id < 64 && ((bits >> pass_id) & 1u) != 0;
  }
  void set(std::size_t pass_id, bool on) {
    if (pass_id >= 64) return;
    const std::uint64_t mask = std::uint64_t{1} << pass_id;
    bits = on ? (bits | mask) : (bits & ~mask);
  }
  [[nodiscard]] static PassSelection all() { return {}; }
  [[nodiscard]] static PassSelection none() { return {0}; }

  friend bool operator==(const PassSelection&, const PassSelection&) = default;
};

struct AnalyzerOptions {
  SnifferLocation location = SnifferLocation::kNearReceiver;

  // A group is a "major" delay contributor above this fraction of the
  // transfer duration (§IV-A; tested 0.3..0.5 without qualitative change).
  double major_threshold = 0.3;

  // Advertised window is "small" below small_window_mss * MSS and "large"
  // above max_advertised - small_window_mss * MSS (thresholds from [28, 38]).
  int small_window_mss = 3;
  // Outstanding counts as bounded by the advertised window when the gap is
  // under adv_bound_mss * MSS (§III-C3, from [28]).
  int adv_bound_mss = 3;

  // A new data/ACK flight starts after a gap exceeding this fraction of RTT
  // (floored at 1 ms).
  double flight_gap_rtt_fraction = 0.5;
  // "Emitted immediately upon the ACK": gap tolerance for declaring a flight
  // congestion-window-bounded.
  double immediate_rtt_fraction = 0.25;

  // Hole fills are reordering below this fraction of RTT (see ClassifyOptions).
  double reorder_rtt_fraction = 0.5;

  // Uniform-spacing tolerance for bandwidth-limited flights: a flight is
  // wire-paced when its max inter-packet gap <= factor * median gap.
  double bw_uniformity_factor = 2.0;
  std::size_t bw_min_flight_packets = 4;

  bool verify_checksums = false;

  // Worker threads for the per-connection analysis stage. 1 = fully serial
  // (no threads, no atomics); 0 = default_jobs() (TDAT_JOBS env override, else
  // hardware concurrency). Any value produces bit-identical results: work is
  // handed out by connection index into pre-sized slots, and nothing in the
  // per-connection analysis shares mutable state.
  std::size_t jobs = 1;

  // Ablation switch (§III-B1): disable the ACK-flight shift to measure how
  // much the sniffer-position correction matters. Leave on for analysis.
  bool enable_ack_shift = true;

  // Pass selection for the detection stage; defaults to every registered
  // factor and detector pass.
  PassSelection passes;

  // Corrupt-capture handling for the file-backed ingest paths (DESIGN.md
  // §10): strict tail-drop vs. resynchronizing recovery with an error budget.
  IngestPolicy ingest;

  // Per-connection quarantine thresholds: a connection whose BGP framing is
  // this far gone (bytes skipped hunting for markers / messages that failed
  // to parse) is isolated from the report instead of contributing garbage
  // series. Both are far beyond anything a healthy session produces.
  std::uint64_t quarantine_skipped_bytes = 4u << 20;
  std::uint64_t quarantine_parse_errors = 16384;

  // Test seam: when set, a non-null return quarantines the connection with
  // that reason before analysis runs. Lets fault-injection tests exercise
  // the quarantine path deterministically (and models analysis-stage faults
  // that are otherwise hard to provoke on demand).
  const char* (*fault_hook)(const Connection& conn) = nullptr;
};

}  // namespace tdat
