// Workload generator: simulates one workload's BGP sessions, writes the
// sniffer's capture to <out>/capture.pcap and the ground truth to
// <out>/oracle.json. The oracle is built from the simulator's own inputs and
// state (the 4-tuple it assigned, the UPDATEs it queued, the pathology it
// injected, the sender's finished_at, the upstream link's drops during the
// transfer) and never from tdat's analysis.
//
//   perfbench_gen --workload fullfeed|manypeers|livetail --seed N --jobs J
//                 --out DIR
//
// The seed is the only source of variation: the same (workload, seed, jobs)
// gives the same bytes. Make-ups keep their shape across seeds (fixed size
// ladders with seeded jitter and order) so that the cost of analysing a
// workload barely depends on the seed.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "bgp/table_gen.hpp"
#include "pcap/pcap_file.hpp"
#include "sim/world.hpp"

namespace {

using namespace tdat;

// The injected pathologies, configured as the single-session analyzer tests
// configure them, so the expected attribution is the one those tests assert.
enum class Pathology {
  kClean,
  kTimer,
  kUpstreamLoss,
  kSlowCollector,
  kSmallWindow,
  kNarrowPipe,
  kReceiverLocalLoss,
  kProbeBug,
};

const char* name(Pathology p) {
  switch (p) {
    case Pathology::kClean: return "clean";
    case Pathology::kTimer: return "timer";
    case Pathology::kUpstreamLoss: return "upstream-loss";
    case Pathology::kSlowCollector: return "slow-collector";
    case Pathology::kSmallWindow: return "small-window";
    case Pathology::kNarrowPipe: return "narrow-pipe";
    case Pathology::kReceiverLocalLoss: return "receiver-local-loss";
    case Pathology::kProbeBug: return "probe-bug";
  }
  return "?";
}

SessionSpec spec_for(Pathology p) {
  SessionSpec spec;
  switch (p) {
    case Pathology::kClean:
      break;
    case Pathology::kTimer:
      spec.bgp.timer_driven = true;
      spec.bgp.timer_interval = 200 * kMicrosPerMilli;
      spec.bgp.msgs_per_tick = 60;
      break;
    case Pathology::kUpstreamLoss:
      spec.up_fwd.random_loss = 0.05;
      break;
    case Pathology::kSlowCollector:
      spec.receiver_tcp.recv_buf_capacity = 8 * 1024;
      spec.collector.read_interval = 300 * kMicrosPerMilli;
      spec.collector.read_chunk = 8 * 1024;
      break;
    case Pathology::kSmallWindow:
      spec.receiver_tcp.recv_buf_capacity = 16 * 1024;
      spec.up_fwd.propagation_delay = 25 * kMicrosPerMilli;
      spec.up_rev.propagation_delay = 25 * kMicrosPerMilli;
      break;
    case Pathology::kNarrowPipe:
      spec.up_fwd.rate_bytes_per_sec = 60'000;
      spec.up_fwd.queue_packets = 10'000;
      spec.sender_tcp.window_scale = 3;
      spec.receiver_tcp.window_scale = 3;
      spec.receiver_tcp.recv_buf_capacity = 512 * 1024;
      spec.sender_tcp.send_buf_capacity = 512 * 1024;
      break;
    case Pathology::kReceiverLocalLoss:
      spec.down_fwd.queue_packets = 12;
      spec.down_fwd.rate_bytes_per_sec = 2'000'000;
      spec.sender_tcp.initial_cwnd_segments = 32;
      break;
    case Pathology::kProbeBug:
      spec.receiver_tcp.recv_buf_capacity = 4 * 1024;
      spec.collector.read_interval = 300 * kMicrosPerMilli;
      spec.collector.read_chunk = 2 * 1024;
      spec.sender_tcp.zero_window_probe_bug = true;
      break;
  }
  return spec;
}

// Table sizes at which the analyzer tests assert each pathology's
// attribution: large enough that the injected limit shapes the transfer.
std::size_t pathology_prefixes(Pathology p) {
  switch (p) {
    case Pathology::kUpstreamLoss: return 8'000;
    case Pathology::kSmallWindow: return 6'000;
    case Pathology::kNarrowPipe:
    case Pathology::kReceiverLocalLoss: return 4'000;
    default: return 3'000;
  }
}

struct PeerPlan {
  std::size_t prefixes = 0;
  Pathology pathology = Pathology::kClean;
  Micros start = 0;
};

struct Workload {
  std::vector<PeerPlan> peers;
  Micros run_for = 0;
  // Collector read period for clean peers; a longer one than the default
  // 10 ms keeps simulating long-lived sessions cheap.
  Micros clean_read_interval = BgpReceiverConfig{}.read_interval;
};

// `base` jittered by up to +-frac, seeded.
std::size_t jitter(std::size_t base, double frac, Rng& rng) {
  return static_cast<std::size_t>(
      std::llround(static_cast<double>(base) * rng.uniform_real(1 - frac, 1 + frac)));
}

// A handful of full tables over clean paths: per-byte BGP work dominates.
Workload fullfeed(std::size_t jobs) {
  Workload w;
  for (std::size_t i = 0; i < 2 * jobs; ++i) {
    w.peers.push_back({150'000, Pathology::kClean,
                       static_cast<Micros>(i) * 250 * kMicrosPerMilli});
  }
  w.run_for = 600 * kMicrosPerSec;
  return w;
}

// Hundreds of peers with heavy-tailed tables plus two peers per injected
// pathology: the per-connection and per-packet layers do the work.
Workload manypeers(Rng& rng) {
  Workload w;
  // Pareto(alpha = 1.2, xmin = 15) quantile ladder: most peers carry a few
  // hundred prefixes or fewer, the largest several thousand; two more carry
  // tens of thousands.
  constexpr std::size_t kSmall = 800;
  for (std::size_t i = 0; i < kSmall; ++i) {
    const double u = (static_cast<double>(i) + 0.5) / kSmall;
    const double size = 15.0 * std::pow(1.0 - u, -1.0 / 1.2);
    w.peers.push_back({jitter(static_cast<std::size_t>(size), 0.1, rng),
                       Pathology::kClean, 0});
  }
  for (const std::size_t big : {10'000, 20'000}) {
    w.peers.push_back({jitter(big, 0.1, rng), Pathology::kClean, 0});
  }
  const Pathology kinds[] = {Pathology::kTimer,         Pathology::kUpstreamLoss,
                             Pathology::kSlowCollector, Pathology::kSmallWindow,
                             Pathology::kNarrowPipe,    Pathology::kReceiverLocalLoss,
                             Pathology::kProbeBug};
  for (const Pathology p : kinds) {
    for (int k = 0; k < 2; ++k) {
      w.peers.push_back({jitter(pathology_prefixes(p), 0.1, rng), p, 0});
    }
  }
  std::shuffle(w.peers.begin(), w.peers.end(), rng.engine());
  for (std::size_t i = 0; i < w.peers.size(); ++i) {
    w.peers[i].start = static_cast<Micros>(i) * 20 * kMicrosPerMilli;
  }
  // Sessions stay up after their transfer, trading KEEPALIVEs as collector
  // sessions do: per-packet work with next to no BGP bytes.
  w.run_for = 2400 * kMicrosPerSec;
  w.clean_read_interval = 200 * kMicrosPerMilli;
  return w;
}

// A few dozen mixed mid-size peers appended a few KiB at a time, as a
// capture writer flushes them: hundreds of epochs per replay.
Workload livetail() {
  Workload w;
  // Pathologies whose timing does not hinge on random loss, so that which
  // connections each append touches barely depends on the seed.
  const Pathology mix[] = {Pathology::kClean, Pathology::kClean,
                           Pathology::kTimer, Pathology::kSlowCollector,
                           Pathology::kSmallWindow, Pathology::kClean};
  for (std::size_t i = 0; i < 48; ++i) {
    const Pathology p = mix[i % std::size(mix)];
    w.peers.push_back({p == Pathology::kClean ? 2'000 : pathology_prefixes(p),
                       p, static_cast<Micros>(i) * 10 * kMicrosPerMilli});
  }
  w.run_for = 300 * kMicrosPerSec;
  return w;
}

std::string ip_text(std::uint32_t ip) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%u.%u.%u.%u", ip >> 24, (ip >> 16) & 255,
                (ip >> 8) & 255, ip & 255);
  return buf;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_gen --workload fullfeed|manypeers|livetail"
               " --seed N --jobs J --out DIR\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string out;
  std::uint64_t seed = 0;
  std::size_t jobs = 0;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strcmp(argv[i], "--workload") == 0) {
      workload = argv[i + 1];
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      seed = std::strtoull(argv[i + 1], nullptr, 10);
    } else if (std::strcmp(argv[i], "--jobs") == 0) {
      jobs = std::strtoul(argv[i + 1], nullptr, 10);
    } else if (std::strcmp(argv[i], "--out") == 0) {
      out = argv[i + 1];
    } else {
      return usage();
    }
  }
  if (argc % 2 == 0 || out.empty() || jobs == 0) return usage();

  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 17);
  Workload w;
  if (workload == "fullfeed") {
    w = fullfeed(jobs);
  } else if (workload == "manypeers") {
    w = manypeers(rng);
  } else if (workload == "livetail") {
    w = livetail();
  } else {
    return usage();
  }

  struct Truth {
    std::uint32_t ip = 0;
    std::uint16_t port = 0;
    std::size_t prefixes = 0;
    std::size_t updates = 0;
  };
  std::vector<Truth> truth;
  SimWorld world(rng.engine()());
  for (std::size_t i = 0; i < w.peers.size(); ++i) {
    SessionSpec spec = spec_for(w.peers[i].pathology);
    if (w.peers[i].pathology == Pathology::kClean) {
      spec.collector.read_interval = w.clean_read_interval;
    }
    spec.sender_ip = 0x0a010000 + static_cast<std::uint32_t>(
                                      (i / 250) * 256 + i % 250 + 1);
    spec.sender_port = static_cast<std::uint16_t>(30000 + i);
    TableGenConfig tg;
    tg.prefix_count = w.peers[i].prefixes;
    Rng table_rng = rng.fork();
    const std::vector<BgpUpdate> table = generate_table(tg, table_rng);
    std::set<Prefix> distinct;
    for (const BgpUpdate& u : table) distinct.insert(u.nlri.begin(), u.nlri.end());
    truth.push_back({spec.sender_ip, spec.sender_port, distinct.size(), table.size()});
    const std::size_t s = world.add_session(spec, serialize_updates(table));
    world.start_session(s, w.peers[i].start);
  }
  // Stepped, so that each peer's upstream drops can be read one second after
  // its sender finished: drops of the transfer, not of later KEEPALIVEs.
  constexpr std::uint64_t kUnset = ~std::uint64_t{0};
  std::vector<std::uint64_t> transfer_drops(truth.size(), kUnset);
  for (Micros t = kMicrosPerSec;; t += kMicrosPerSec) {
    world.run_until(std::min(t, w.run_for));
    for (std::size_t i = 0; i < truth.size(); ++i) {
      if (transfer_drops[i] == kUnset && world.sender(i).finished_sending() &&
          world.sender(i).finished_at() + kMicrosPerSec <= t) {
        const Link::Stats& up = world.upstream_link(i).stats();
        transfer_drops[i] = up.dropped_random + up.dropped_queue;
      }
    }
    if (t >= w.run_for) break;
  }

  const PcapFile trace = world.take_trace();
  const std::string pcap_path = out + "/capture.pcap";
  if (!write_pcap_file(pcap_path, trace)) {
    std::fprintf(stderr, "perfbench_gen: cannot write %s\n", pcap_path.c_str());
    return 1;
  }
  const std::uint64_t capture_bytes = serialize_pcap(trace).size();

  std::string json = "{\"workload\":\"" + workload + "\",\"seed\":" +
                     std::to_string(seed) + ",\"jobs\":" + std::to_string(jobs) +
                     ",\"capture_bytes\":" + std::to_string(capture_bytes) +
                     ",\"records\":" + std::to_string(trace.records.size()) +
                     ",\"peers\":[";
  for (std::size_t i = 0; i < truth.size(); ++i) {
    if (i > 0) json += ',';
    const bool finished = world.sender(i).finished_sending();
    json += "{\"sender_ip\":\"" + ip_text(truth[i].ip) +
            "\",\"sender_port\":" + std::to_string(truth[i].port) +
            ",\"receiver_ip\":\"10.9.9.9\",\"receiver_port\":179" +
            ",\"prefixes\":" + std::to_string(truth[i].prefixes) +
            ",\"updates\":" + std::to_string(truth[i].updates) +
            ",\"pathology\":\"" + name(w.peers[i].pathology) + "\"" +
            ",\"finished\":" + (finished ? "true" : "false") +
            ",\"finished_at\":" + std::to_string(world.sender(i).finished_at()) +
            ",\"transfer_upstream_drops\":" +
            (transfer_drops[i] == kUnset ? std::string("null")
                                         : std::to_string(transfer_drops[i])) +
            "}";
  }
  json += "]}\n";
  const std::string oracle_path = out + "/oracle.json";
  std::FILE* f = std::fopen(oracle_path.c_str(), "wb");
  const bool written =
      f != nullptr && std::fwrite(json.data(), 1, json.size(), f) == json.size();
  if (f == nullptr || std::fclose(f) != 0 || !written) {
    std::fprintf(stderr, "perfbench_gen: cannot write %s\n", oracle_path.c_str());
    return 1;
  }
  return 0;
}
