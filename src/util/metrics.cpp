#include "util/metrics.hpp"

#include <charconv>
#include <chrono>
#include <cmath>
#include <map>
#include <memory>
#include <mutex>

namespace tdat {

std::string json_double(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

std::int64_t monotonic_micros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint32_t thread_index() {
  static std::atomic<std::uint32_t> next{1};
  thread_local const std::uint32_t id =
      next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

std::int64_t HistogramSnapshot::quantile(double q) const {
  if (count == 0) return 0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  const auto target =
      static_cast<std::uint64_t>(q * static_cast<double>(count - 1)) + 1;
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < kHistogramBuckets; ++i) {
    seen += buckets[i];
    if (seen >= target) {
      const std::int64_t bound = histogram_bucket_bound(i);
      return bound < max ? bound : max;
    }
  }
  return max;
}

HistogramSnapshot HistogramSnapshot::since(const HistogramSnapshot& base) const {
  HistogramSnapshot out;
  for (std::size_t i = 0; i < kHistogramBuckets; ++i) {
    out.buckets[i] = buckets[i] - base.buckets[i];
    out.count += out.buckets[i];
  }
  out.sum = sum - base.sum;
  out.min = min;
  out.max = max;
  if (out.count == 0) {
    out.min = 0;
    out.max = 0;
    return out;
  }
  // The cumulative extremes may belong to samples outside the delta. Clamp
  // them into the delta's occupied bucket span so a value sitting exactly on
  // a bucket bound lands the same here as in a fresh histogram — the
  // run-scoped histograms in the JSON report and the cumulative metrics
  // snapshot must agree at bucket edges. The saturation bucket has no upper
  // edge and bucket 0 no lower one, so those directions keep the carried
  // extreme.
  std::size_t lo = 0;
  while (out.buckets[lo] == 0) ++lo;
  std::size_t hi = kHistogramBuckets - 1;
  while (out.buckets[hi] == 0) --hi;
  if (lo > 0 && out.min < histogram_bucket_bound(lo - 1) + 1) {
    out.min = histogram_bucket_bound(lo - 1) + 1;
  }
  if (hi < kHistogramBuckets - 1 && out.max > histogram_bucket_bound(hi)) {
    out.max = histogram_bucket_bound(hi);
  }
  return out;
}

void HistogramSnapshot::merge_from(const HistogramSnapshot& other) {
  if (other.count == 0) return;
  for (std::size_t i = 0; i < kHistogramBuckets; ++i) {
    buckets[i] += other.buckets[i];
  }
  sum += other.sum;
  if (count == 0) {
    min = other.min;
    max = other.max;
  } else {
    if (other.min < min) min = other.min;
    if (other.max > max) max = other.max;
  }
  count += other.count;
}

std::string HistogramSnapshot::to_json() const {
  std::string out;
  const auto field = [&out](const char* key, std::string value) {
    out += key;
    out += value;
  };
  field("{\"count\": ", std::to_string(count));
  field(", \"sum\": ", std::to_string(sum));
  field(", \"min\": ", std::to_string(count > 0 ? min : 0));
  field(", \"max\": ", std::to_string(count > 0 ? max : 0));
  field(", \"mean\": ", json_double(mean()));
  field(", \"p50\": ", std::to_string(quantile(0.50)));
  field(", \"p90\": ", std::to_string(quantile(0.90)));
  field(", \"p99\": ", std::to_string(quantile(0.99)));
  out += ", \"buckets\": [";
  bool first = true;
  for (std::size_t i = 0; i < kHistogramBuckets; ++i) {
    if (buckets[i] == 0) continue;
    if (!first) out += ", ";
    out += '[';
    out += std::to_string(histogram_bucket_bound(i));
    out += ", ";
    out += std::to_string(buckets[i]);
    out += ']';
    first = false;
  }
  out += "]}";
  return out;
}

void LatencyHistogram::Shard::observe(std::int64_t v) noexcept {
  buckets[histogram_bucket_index(v)].fetch_add(1, std::memory_order_relaxed);
  sum.fetch_add(v, std::memory_order_relaxed);
  // min/max via CAS so concurrent observers never lose an extreme. The
  // first observation initializes both (count incremented last, so a
  // racing snapshot may briefly see count 0 with extremes set — harmless).
  if (count.load(std::memory_order_relaxed) == 0) {
    std::int64_t expected = 0;
    min.compare_exchange_strong(expected, v, std::memory_order_relaxed);
    expected = 0;
    max.compare_exchange_strong(expected, v, std::memory_order_relaxed);
  }
  std::int64_t cur = min.load(std::memory_order_relaxed);
  while (v < cur &&
         !min.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
  cur = max.load(std::memory_order_relaxed);
  while (v > cur &&
         !max.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
  count.fetch_add(1, std::memory_order_relaxed);
}

void LatencyHistogram::Shard::add(const HistogramSnapshot& s) noexcept {
  for (std::size_t i = 0; i < kHistogramBuckets; ++i) {
    if (s.buckets[i] > 0) {
      buckets[i].fetch_add(s.buckets[i], std::memory_order_relaxed);
    }
  }
  if (s.count == 0) return;
  sum.fetch_add(s.sum, std::memory_order_relaxed);
  if (count.load(std::memory_order_relaxed) == 0) {
    min.store(s.min, std::memory_order_relaxed);
    max.store(s.max, std::memory_order_relaxed);
  } else {
    std::int64_t cur = min.load(std::memory_order_relaxed);
    while (s.min < cur &&
           !min.compare_exchange_weak(cur, s.min, std::memory_order_relaxed)) {
    }
    cur = max.load(std::memory_order_relaxed);
    while (s.max > cur &&
           !max.compare_exchange_weak(cur, s.max, std::memory_order_relaxed)) {
    }
  }
  count.fetch_add(s.count, std::memory_order_relaxed);
}

HistogramSnapshot LatencyHistogram::Shard::snapshot() const noexcept {
  HistogramSnapshot out;
  for (std::size_t i = 0; i < kHistogramBuckets; ++i) {
    out.buckets[i] = buckets[i].load(std::memory_order_relaxed);
    out.count += out.buckets[i];
  }
  out.sum = sum.load(std::memory_order_relaxed);
  out.min = min.load(std::memory_order_relaxed);
  out.max = max.load(std::memory_order_relaxed);
  return out;
}

void LatencyHistogram::Shard::reset() noexcept {
  for (auto& b : buckets) b.store(0, std::memory_order_relaxed);
  count.store(0, std::memory_order_relaxed);
  sum.store(0, std::memory_order_relaxed);
  min.store(0, std::memory_order_relaxed);
  max.store(0, std::memory_order_relaxed);
}

void LatencyHistogram::merge_from(const LatencyHistogram& other) noexcept {
  // Fold into one shard: merge_from is a per-run bulk operation, never an
  // inner-loop write, so contention padding doesn't matter here.
  shards_[0].add(other.snapshot());
}

HistogramSnapshot LatencyHistogram::snapshot() const noexcept {
  HistogramSnapshot out = shards_[0].snapshot();
  for (std::size_t i = 1; i < kMetricShards; ++i) {
    const HistogramSnapshot s = shards_[i].snapshot();
    for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
      out.buckets[b] += s.buckets[b];
    }
    out.sum += s.sum;
    if (s.count > 0) {
      if (out.count == 0 || s.min < out.min) out.min = s.min;
      if (out.count == 0 || s.max > out.max) out.max = s.max;
    }
    out.count += s.count;
  }
  return out;
}

void LatencyHistogram::reset() noexcept {
  for (auto& s : shards_) s.reset();
}

struct MetricsRegistry::Impl {
  mutable std::mutex mu;
  // unique_ptr values keep metric addresses stable across rehash-free
  // map growth; std::less<> enables string_view lookup without a copy.
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges;
  std::map<std::string, std::unique_ptr<LatencyHistogram>, std::less<>> histograms;
};

MetricsRegistry::MetricsRegistry() : impl_(new Impl) {}
MetricsRegistry::~MetricsRegistry() { delete impl_; }

namespace {
template <typename Map, typename T>
T& find_or_create(Map& map, std::string_view name) {
  auto it = map.find(name);
  if (it == map.end()) {
    it = map.emplace(std::string(name), std::make_unique<T>()).first;
  }
  return *it->second;
}
}  // namespace

Counter& MetricsRegistry::counter(std::string_view name) {
  std::lock_guard lock(impl_->mu);
  return find_or_create<decltype(impl_->counters), Counter>(impl_->counters,
                                                            name);
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  std::lock_guard lock(impl_->mu);
  return find_or_create<decltype(impl_->gauges), Gauge>(impl_->gauges, name);
}

LatencyHistogram& MetricsRegistry::histogram(std::string_view name) {
  std::lock_guard lock(impl_->mu);
  return find_or_create<decltype(impl_->histograms), LatencyHistogram>(
      impl_->histograms, name);
}

void MetricsRegistry::reset() {
  std::lock_guard lock(impl_->mu);
  for (auto& [name, c] : impl_->counters) c->reset();
  for (auto& [name, g] : impl_->gauges) g->reset();
  for (auto& [name, h] : impl_->histograms) h->reset();
}

std::string MetricsRegistry::to_json() const {
  std::lock_guard lock(impl_->mu);
  std::string out = "{\"counters\": {";
  bool first = true;
  const auto append_key = [&out, &first](const std::string& name) {
    if (!first) out += ", ";
    out += '"';
    out += name;
    out += "\": ";
    first = false;
  };
  for (const auto& [name, c] : impl_->counters) {
    append_key(name);
    out += std::to_string(c->value());
  }
  out += "}, \"gauges\": {";
  first = true;
  for (const auto& [name, g] : impl_->gauges) {
    append_key(name);
    out += std::to_string(g->value());
  }
  out += "}, \"histograms\": {";
  first = true;
  for (const auto& [name, h] : impl_->histograms) {
    append_key(name);
    out += h->snapshot().to_json();
  }
  out += "}}";
  return out;
}

namespace {

// "pcap.records" -> "tdat_pcap_records"; anything outside [a-zA-Z0-9_]
// becomes '_' so every name is a valid Prometheus metric name.
std::string prometheus_name(const std::string& name) {
  std::string out = "tdat_";
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9');
    out += ok ? c : '_';
  }
  return out;
}

}  // namespace

std::string MetricsRegistry::to_prometheus() const {
  std::lock_guard lock(impl_->mu);
  std::string out;
  for (const auto& [name, c] : impl_->counters) {
    const std::string pname = prometheus_name(name);
    out += "# TYPE " + pname + " counter\n";
    out += pname + " " + std::to_string(c->value()) + "\n";
  }
  for (const auto& [name, g] : impl_->gauges) {
    const std::string pname = prometheus_name(name);
    out += "# TYPE " + pname + " gauge\n";
    out += pname + " " + std::to_string(g->value()) + "\n";
  }
  for (const auto& [name, h] : impl_->histograms) {
    const std::string pname = prometheus_name(name);
    const HistogramSnapshot s = h->snapshot();
    out += "# TYPE " + pname + " histogram\n";
    // Cumulative buckets up to the highest occupied one; `le` bounds are the
    // pow2 buckets' inclusive upper edges, so the exposition and the JSON
    // snapshot bucket samples identically at the edges.
    std::size_t top = 0;
    for (std::size_t i = 0; i < kHistogramBuckets; ++i) {
      if (s.buckets[i] > 0) top = i;
    }
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; s.count > 0 && i <= top; ++i) {
      cumulative += s.buckets[i];
      out += pname + "_bucket{le=\"" +
             std::to_string(histogram_bucket_bound(i)) + "\"} " +
             std::to_string(cumulative) + "\n";
    }
    out += pname + "_bucket{le=\"+Inf\"} " + std::to_string(s.count) + "\n";
    out += pname + "_sum " + std::to_string(s.sum) + "\n";
    out += pname + "_count " + std::to_string(s.count) + "\n";
  }
  return out;
}

MetricsRegistry& metrics() {
  // Leaked on purpose: worker threads may record into the registry from
  // thread_local destructors that run after static destruction begins.
  static MetricsRegistry* g = new MetricsRegistry;
  return *g;
}

}  // namespace tdat
