#include "pcap/pcap_stream.hpp"

#include <cstring>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/stat.h>
#endif

#include "pcap/mmap_file.hpp"
#include "util/log.hpp"
#include "util/metrics.hpp"
#include "util/trace.hpp"

namespace tdat {
namespace {

constexpr std::uint32_t kMagicMicrosLE = 0xa1b2c3d4;  // as read little-endian
constexpr std::uint32_t kMagicMicrosBE = 0xd4c3b2a1;
constexpr std::uint32_t kMagicNanosLE = 0xa1b23c4d;
constexpr std::uint32_t kMagicNanosBE = 0x4d3cb2a1;
constexpr std::uint32_t kLinkTypeEthernet = 1;
constexpr std::size_t kGlobalHeaderLen = 24;
constexpr std::size_t kRecordHeaderLen = 16;

// Resync plausibility window around the last good timestamp: captures can
// step backwards a little (multi-queue NICs reorder slightly) but a record
// claiming to predate the stream by seconds or postdate it by more than a
// day is a misparse, not data.
constexpr Micros kResyncPastSlack = 2 * kMicrosPerSec;
constexpr Micros kResyncFutureSlack = Micros{24} * 3600 * kMicrosPerSec;
// orig_len cap for resync candidates: jumbo frames exist, 1 MiB frames don't.
constexpr std::uint32_t kResyncMaxOrigLen = 1u << 20;

std::uint32_t read_u32(const std::uint8_t* p, bool swapped) {
  return swapped ? static_cast<std::uint32_t>(p[0]) << 24 |
                       static_cast<std::uint32_t>(p[1]) << 16 |
                       static_cast<std::uint32_t>(p[2]) << 8 | p[3]
                 : static_cast<std::uint32_t>(p[3]) << 24 |
                       static_cast<std::uint32_t>(p[2]) << 16 |
                       static_cast<std::uint32_t>(p[1]) << 8 | p[0];
}

// Size of the regular file behind `f`, or SIZE_MAX when it has none (pipe,
// socket, special file). fstat never moves the read position and costs one
// syscall, unlike the historical seek-to-end/seek-back dance.
std::size_t file_size_of(std::FILE* f) {
#if defined(__unix__) || defined(__APPLE__)
  struct stat st;
  if (fstat(fileno(f), &st) == 0 && S_ISREG(st.st_mode) && st.st_size >= 0) {
    return static_cast<std::size_t>(st.st_size);
  }
  return SIZE_MAX;
#else
  if (std::fseek(f, 0, SEEK_END) != 0) return SIZE_MAX;
  const long end = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  return end >= 0 ? static_cast<std::size_t>(end) : SIZE_MAX;
#endif
}

}  // namespace

Result<PcapStream> PcapStream::open(const std::string& path,
                                    std::size_t chunk_size) {
  return open(path, IngestPolicy{}, chunk_size);
}

Result<PcapStream> PcapStream::open(const std::string& path,
                                    const IngestPolicy& policy,
                                    std::size_t chunk_size) {
  PcapStream s;
  s.file_.reset(std::fopen(path.c_str(), "rb"));
  if (!s.file_) return Err<PcapStream>("pcap: cannot open " + path);
  // Learn the file size up front so refill can bound arena allocations by
  // what the source can actually deliver (unseekable sources stay unbounded).
  s.file_remaining_ = file_size_of(s.file_.get());
  s.policy_ = policy;
  s.chunk_size_ = chunk_size > kRecordHeaderLen ? chunk_size : kDefaultChunkSize;
  return init(std::move(s));
}

Result<PcapStream> PcapStream::from_memory(std::span<const std::uint8_t> image,
                                           std::size_t chunk_size) {
  return from_memory(image, IngestPolicy{}, chunk_size);
}

Result<PcapStream> PcapStream::from_memory(std::span<const std::uint8_t> image,
                                           const IngestPolicy& policy,
                                           std::size_t chunk_size) {
  PcapStream s;
  s.mem_ = image;
  s.policy_ = policy;
  // Tiny chunk sizes are allowed here so tests can force records to straddle
  // chunk boundaries.
  s.chunk_size_ = chunk_size >= kGlobalHeaderLen ? chunk_size : kGlobalHeaderLen;
  return init(std::move(s));
}

Result<PcapStream> PcapStream::from_image(std::shared_ptr<const void> pin,
                                          std::span<const std::uint8_t> image,
                                          const IngestPolicy& policy) {
  PcapStream s;
  s.mem_ = image;
  s.pin_ = std::move(pin);
  s.pinned_ = true;
  s.fill_ = image.size();  // the whole capture is "refilled" up front
  s.policy_ = policy;
  return init(std::move(s));
}

Result<PcapStream> PcapStream::from_feed(std::shared_ptr<ByteFeed> feed,
                                         const IngestPolicy& policy,
                                         std::size_t chunk_size) {
  PcapStream s;
  s.feed_ = std::move(feed);
  s.policy_ = policy;
  s.chunk_size_ = chunk_size >= kGlobalHeaderLen ? chunk_size : kGlobalHeaderLen;
  s.tail_ = true;
  return init(std::move(s));
}

Result<PcapStream> PcapStream::open_resumed(const std::string& path,
                                            const IngestPolicy& policy,
                                            const Resume& resume,
                                            std::size_t chunk_size) {
  if (resume.offset < kGlobalHeaderLen) {
    return Err<PcapStream>("pcap: resume offset inside global header");
  }
  auto opened = open(path, policy, chunk_size);
  if (!opened.ok()) return opened;
  PcapStream s = std::move(opened).value();
  // init() validated the global header and learned swapped_/nanos_/snaplen_
  // from the file itself; now jump to the checkpointed position and discard
  // the buffered prefix so the next refill starts clean at that byte.
  const std::size_t size = file_size_of(s.file_.get());
  if (size != SIZE_MAX && resume.offset > size) {
    return Err<PcapStream>("pcap: resume offset beyond end of " + path);
  }
  if (std::fseek(s.file_.get(), static_cast<long>(resume.offset), SEEK_SET) !=
      0) {
    return Err<PcapStream>("pcap: cannot seek to resume offset in " + path);
  }
  s.arena_.reset();
  s.spare_.reset();
  s.pos_ = 0;
  s.fill_ = 0;
  s.file_consumed_ = resume.offset;
  s.file_remaining_ =
      size == SIZE_MAX ? SIZE_MAX
                       : static_cast<std::size_t>(size - resume.offset);
  s.bytes_read_ = resume.offset;
  s.records_read_ = resume.records;
  s.last_ts_ = resume.last_ts;
  s.diag_ = resume.diag;
  return s;
}

Result<PcapStream> PcapStream::open_auto(const std::string& path,
                                         const IngestPolicy& policy,
                                         std::size_t chunk_size) {
  if (policy.use_mmap) {
    auto mapped = MappedFile::map(path);
    if (mapped.ok()) {
      MappedFile& m = mapped.value();
      metrics().counter("pcap.mmap_files").inc();
      metrics().counter("pcap.mmap_bytes").inc(m.bytes().size());
      return from_image(m.share(), m.bytes(), policy);
    }
    // Not mappable (pipe, device, empty file): the streaming reader decides
    // whether it is readable at all, with its usual error messages.
  }
  return open(path, policy, chunk_size);
}

Result<PcapStream> PcapStream::init(PcapStream s) {
  MetricsRegistry& reg = metrics();
  s.m_records_ = &reg.counter("pcap.records");
  s.m_bytes_ = &reg.counter("pcap.bytes");
  s.m_chunks_ = &reg.counter("pcap.chunk_refills");
  s.m_recycles_ = &reg.counter("pcap.arena_recycles");
  s.m_allocs_ = &reg.counter("pcap.arena_allocs");
  s.m_straddles_ = &reg.counter("pcap.straddle_relocations");
  s.m_err_truncated_ = &reg.counter("ingest.errors.truncated");
  s.m_err_resynced_ = &reg.counter("ingest.errors.resynced");
  s.m_err_skipped_ = &reg.counter("ingest.errors.skipped");
  s.m_refill_us_ = &reg.histogram("pcap.refill_us");
  if (!s.refill(4)) return Err<PcapStream>("pcap: file shorter than global header");
  // The magic is defined as read little-endian; it decides the order of
  // every later field.
  const std::uint8_t* m = s.base() + s.pos_;
  const std::uint32_t magic = static_cast<std::uint32_t>(m[0]) |
                              static_cast<std::uint32_t>(m[1]) << 8 |
                              static_cast<std::uint32_t>(m[2]) << 16 |
                              static_cast<std::uint32_t>(m[3]) << 24;
  s.pos_ += 4;
  switch (magic) {
    case kMagicMicrosLE: break;
    case kMagicNanosLE: s.nanos_ = true; break;
    case kMagicMicrosBE: s.swapped_ = true; break;
    case kMagicNanosBE: s.swapped_ = true; s.nanos_ = true; break;
    default: return Err<PcapStream>("pcap: bad magic number");
  }
  if (!s.refill(kGlobalHeaderLen - 4)) {
    return Err<PcapStream>("pcap: truncated global header");
  }
  const std::uint16_t major = s.u16();
  (void)s.u16();  // minor version
  (void)s.u32();  // thiszone
  (void)s.u32();  // sigfigs
  s.snaplen_ = s.u32();
  const std::uint32_t linktype = s.u32();
  if (major != 2) return Err<PcapStream>("pcap: unsupported version");
  if (linktype != kLinkTypeEthernet) {
    return Err<PcapStream>("pcap: unsupported link type " + std::to_string(linktype));
  }
  s.bytes_read_ = kGlobalHeaderLen;
  return s;
}

std::size_t PcapStream::read_source(std::uint8_t* dst, std::size_t n) {
  if (file_) {
    const std::size_t got = std::fread(dst, 1, n, file_.get());
    if (file_remaining_ != SIZE_MAX) {
      file_remaining_ -= std::min(got, file_remaining_);
    }
    file_consumed_ += got;
    return got;
  }
  if (feed_) return feed_->read(dst, n);
  const std::size_t got = std::min(n, mem_.size() - mem_pos_);
  std::memcpy(dst, mem_.data() + mem_pos_, got);
  mem_pos_ += got;
  return got;
}

std::size_t PcapStream::source_remaining() const {
  if (pinned_) return 0;  // the image is consumed in place, nothing left to read
  if (file_) return file_remaining_;
  // An open feed's future size is unknowable; once closed, what is buffered
  // is all there will ever be.
  if (feed_) return feed_->closed() ? feed_->available() : SIZE_MAX;
  return mem_.size() - mem_pos_;
}

bool PcapStream::poll_growth() {
  if (!file_) return false;
#if defined(__unix__) || defined(__APPLE__)
  struct stat st;
  if (fstat(fileno(file_.get()), &st) != 0 || !S_ISREG(st.st_mode)) {
    return false;
  }
  const std::uint64_t size =
      st.st_size >= 0 ? static_cast<std::uint64_t>(st.st_size) : 0;
  file_remaining_ = size > file_consumed_
                        ? static_cast<std::size_t>(size - file_consumed_)
                        : 0;
  if (file_remaining_ == 0) return false;
  // fread latches EOF the first time it hits the (then-)end of the file;
  // clear it so the next refill sees the appended bytes.
  std::clearerr(file_.get());
  return true;
#else
  return false;
#endif
}

bool PcapStream::refill(std::size_t n) {
  // Zero-copy mode: every byte is already in place; a "refill" is a bounds
  // check against the pinned image.
  if (pinned_) return fill_ - pos_ >= n;
  if (arena_ && fill_ - pos_ >= n) return true;
  // A drained source can never satisfy the request; in particular a hostile
  // record header may claim gigabytes the file does not contain — bound the
  // arena allocation below by what the source can still deliver instead of
  // trusting the claim.
  std::size_t remaining = source_remaining();
  if (remaining == 0) return false;
  const std::size_t tail = arena_ ? fill_ - pos_ : 0;
  if (feed_ && !feed_->closed()) {
    // An open feed can deliver what is buffered in it now, no more: size the
    // arena to that instead of a whole chunk — retained records pin their
    // arena, so a chunk-sized arena per small append is mostly waste. And
    // when the request cannot be satisfied yet, bail before touching the
    // arenas, so a tail-mode poll loop doesn't churn a relocation per poll.
    remaining = feed_->available();
    if (tail + remaining < n) return false;
  }
  TDAT_TRACE_SPAN("pcap.refill", "pcap");
  const std::int64_t t0 = monotonic_micros();
  std::size_t want = std::max(chunk_size_, n);
  if (remaining != SIZE_MAX && want > tail + remaining) {
    want = tail + remaining;
  }

  // A fresh arena is required even when the current one has spare capacity:
  // bytes already handed out as record views must never move. The previous
  // chunk is kept as a recycling candidate and reused once nothing
  // references it any more — steady-state streaming therefore ping-pongs
  // between two buffers instead of allocating per chunk.
  std::shared_ptr<Arena> next;
  if (spare_ && spare_.use_count() == 1 && spare_->size() >= want) {
    next = std::move(spare_);
    m_recycles_->inc();
  } else {
    next = std::make_shared<Arena>(want);
    m_allocs_->inc();
  }
  if (tail > 0) {
    std::memcpy(next->data(), arena_->data() + pos_, tail);
    m_straddles_->inc();
  }
  spare_ = std::move(arena_);
  arena_ = std::move(next);
  pos_ = 0;
  fill_ = tail + read_source(arena_->data() + tail, arena_->size() - tail);
  m_chunks_->inc();
  m_refill_us_->observe(monotonic_micros() - t0);
  return fill_ >= n;
}

std::uint16_t PcapStream::u16() {
  const std::uint8_t* p = base() + pos_;
  pos_ += 2;
  return swapped_ ? static_cast<std::uint16_t>(p[0] << 8 | p[1])
                  : static_cast<std::uint16_t>(p[1] << 8 | p[0]);
}

std::uint32_t PcapStream::u32() {
  const std::uint8_t* p = base() + pos_;
  pos_ += 4;
  return swapped_ ? static_cast<std::uint32_t>(p[0]) << 24 |
                        static_cast<std::uint32_t>(p[1]) << 16 |
                        static_cast<std::uint32_t>(p[2]) << 8 | p[3]
                  : static_cast<std::uint32_t>(p[3]) << 24 |
                        static_cast<std::uint32_t>(p[2]) << 16 |
                        static_cast<std::uint32_t>(p[1]) << 8 | p[0];
}

std::uint32_t PcapStream::effective_snaplen() const {
  // Some writers leave the snaplen field 0; treat that as the classic cap.
  return snaplen_ != 0 ? snaplen_ : 65535;
}

bool PcapStream::plausible_record_at(std::size_t at, Micros after) const {
  const std::uint8_t* p = base() + at;
  const std::uint32_t ts_sec = read_u32(p, swapped_);
  const std::uint32_t ts_frac = read_u32(p + 4, swapped_);
  const std::uint32_t incl = read_u32(p + 8, swapped_);
  const std::uint32_t orig = read_u32(p + 12, swapped_);
  if (incl == 0 || incl > effective_snaplen()) return false;
  if (orig < incl || orig > kResyncMaxOrigLen) return false;
  if (ts_frac >= (nanos_ ? 1000000000u : 1000000u)) return false;
  if (after >= 0) {
    const Micros ts = static_cast<Micros>(ts_sec) * kMicrosPerSec +
                      (nanos_ ? ts_frac / 1000 : ts_frac);
    if (ts + kResyncPastSlack < after || ts > after + kResyncFutureSlack) {
      return false;
    }
  }
  return true;
}

StreamStatus PcapStream::resync_step() {
  if (!resync_active_) {
    if (diag_.resynced >= policy_.max_errors) {
      diag_.budget_exhausted = true;
      TDAT_LOG_WARN("pcap: resync budget (%llu) exhausted after %llu records; "
                    "dropping tail",
                    static_cast<unsigned long long>(policy_.max_errors),
                    static_cast<unsigned long long>(records_read_));
      return StreamStatus::kEnd;
    }
    resync_active_ = true;
    resync_skipped_ = 1;  // the corrupt header's first byte
    ++pos_;
  }
  TDAT_TRACE_SPAN("pcap.resync", "pcap");
  // Slide a byte-granular window looking for the next header whose fields —
  // and, when the data is there, whose *successor's* fields — are plausible.
  // pos_ advances past every rejected byte, so refill never has to hold more
  // than a chunk of unvalidated tail and the scan is O(remaining bytes).
  // In tail mode every decision that would need bytes beyond the current end
  // of data pauses the scan (kNeedMore) instead of deciding early: a
  // candidate must be accepted or rejected on exactly the evidence the
  // batch reader would have, or live and batch replays would diverge.
  while (refill(kRecordHeaderLen)) {
    while (fill_ - pos_ >= kRecordHeaderLen) {
      if (plausible_record_at(pos_, last_ts_)) {
        const std::uint8_t* p = base() + pos_;
        const std::uint32_t ts_sec = read_u32(p, swapped_);
        const std::uint32_t ts_frac = read_u32(p + 4, swapped_);
        const std::uint32_t incl = read_u32(p + 8, swapped_);
        const Micros cand_ts = static_cast<Micros>(ts_sec) * kMicrosPerSec +
                               (nanos_ ? ts_frac / 1000 : ts_frac);
        // Chain check: the candidate's body must be present, and if another
        // header follows it, that one must be plausible too. A candidate
        // whose body runs past EOF is rejected but the scan continues — a
        // shorter real record may still start later in the remaining bytes.
        if (refill(kRecordHeaderLen + incl)) {
          // Each refill may relocate the tail to the front of a fresh arena
          // (resetting pos_), so the successor offset must be derived from
          // pos_ only after the last refill has run.
          const bool have_succ =
              refill(kRecordHeaderLen + incl + kRecordHeaderLen);
          if (!have_succ && tailing()) return StreamStatus::kNeedMore;
          const std::size_t succ = pos_ + kRecordHeaderLen + incl;
          if (!have_succ || plausible_record_at(succ, cand_ts)) {
            diag_.skipped_bytes += resync_skipped_;
            ++diag_.resynced;
            bytes_read_ += resync_skipped_;
            m_err_resynced_->inc();
            m_err_skipped_->inc(resync_skipped_);
            TDAT_LOG_WARN(
                "pcap: corrupt record header after %llu records; resynced "
                "after skipping %llu bytes",
                static_cast<unsigned long long>(records_read_),
                static_cast<unsigned long long>(resync_skipped_));
            resync_active_ = false;
            return StreamStatus::kOk;
          }
        } else if (tailing()) {
          // The candidate's body is not all here yet; it may be a real
          // record still being written. Pause at the candidate.
          return StreamStatus::kNeedMore;
        }
      }
      ++pos_;
      ++resync_skipped_;
    }
    if (tailing()) return StreamStatus::kNeedMore;
  }
  if (tailing()) return StreamStatus::kNeedMore;
  // Source exhausted without a plausible header: the remaining sub-header
  // bytes are garbage too.
  resync_skipped_ += fill_ - pos_;
  pos_ = fill_;
  diag_.skipped_bytes += resync_skipped_;
  bytes_read_ += resync_skipped_;
  m_err_skipped_->inc(resync_skipped_);
  TDAT_LOG_WARN("pcap: no plausible record found after corrupt header; "
                "dropped %llu trailing bytes",
                static_cast<unsigned long long>(resync_skipped_));
  resync_active_ = false;
  return StreamStatus::kEnd;
}

bool PcapStream::next(StreamRecord& out) {
  // Batch callers never tail, so kNeedMore cannot occur here.
  return next_live(out) == StreamStatus::kOk;
}

StreamStatus PcapStream::next_live(StreamRecord& out) {
  if (done_) return StreamStatus::kEnd;
  for (;;) {
    if (resync_active_) {
      const StreamStatus rs = resync_step();
      if (rs == StreamStatus::kNeedMore) return rs;
      if (rs == StreamStatus::kEnd) {
        done_ = true;
        return rs;
      }
      // kOk: pos_ sits on the recovered header; parse it below.
    }
    if (!pending_.have) {
      if (!refill(kRecordHeaderLen)) {
        if (tailing()) return StreamStatus::kNeedMore;
        if (fill_ - pos_ > 0) {
          // Partial record header at end of data.
          ++diag_.truncated;
          ++diag_.tail_truncated;
          m_err_truncated_->inc();
          TDAT_LOG_WARN("pcap: truncated record header after %llu records "
                        "(%llu bytes); dropping tail",
                        static_cast<unsigned long long>(records_read_),
                        static_cast<unsigned long long>(bytes_read_));
        }
        done_ = true;
        return StreamStatus::kEnd;
      }
      const std::size_t header_at = pos_;
      const std::uint32_t ts_sec = u32();
      const std::uint32_t ts_frac = u32();
      const std::uint32_t incl_len = u32();
      const std::uint32_t orig_len = u32();
      if (incl_len == 0 || incl_len > effective_snaplen()) {
        pos_ = header_at;
        if (policy_.strict) {
          // Interior corruption, not an end-of-data artifact: counts toward
          // truncated but not tail_truncated.
          ++diag_.truncated;
          m_err_truncated_->inc();
          TDAT_LOG_WARN("pcap: corrupt record header after %llu records "
                        "(%llu bytes); dropping tail (strict)",
                        static_cast<unsigned long long>(records_read_),
                        static_cast<unsigned long long>(bytes_read_));
          done_ = true;
          return StreamStatus::kEnd;
        }
        const StreamStatus rs = resync_step();
        if (rs == StreamStatus::kNeedMore) return rs;
        if (rs == StreamStatus::kEnd) {
          done_ = true;
          return rs;
        }
        continue;  // re-parse the recovered header
      }
      // Stash the parsed header before fetching the body: a tail-mode retry
      // cannot rewind to header_at because refill relocates only unconsumed
      // bytes — the 16 header bytes are gone from the arena.
      pending_.ts = static_cast<Micros>(ts_sec) * kMicrosPerSec +
                    (nanos_ ? ts_frac / 1000 : ts_frac);
      pending_.orig_len = orig_len;
      pending_.incl_len = incl_len;
      pending_.have = true;
    }
    if (!refill(pending_.incl_len)) {
      if (tailing()) return StreamStatus::kNeedMore;  // body still arriving
      // Body cut off at end of data: nothing after it to resync into.
      ++diag_.truncated;
      ++diag_.tail_truncated;
      m_err_truncated_->inc();
      TDAT_LOG_WARN("pcap: truncated record after %llu records "
                    "(%llu bytes); dropping tail",
                    static_cast<unsigned long long>(records_read_),
                    static_cast<unsigned long long>(bytes_read_));
      done_ = true;
      return StreamStatus::kEnd;
    }
    out.ts = pending_.ts;
    out.orig_len = pending_.orig_len;
    out.data = std::span<const std::uint8_t>(base() + pos_, pending_.incl_len);
    out.arena = pinned_ ? pin_ : std::static_pointer_cast<const void>(arena_);
    // bytes_read_ has tallied everything before this record (including any
    // resync skips), so right now it is the file offset of this record's
    // header.
    out.file_offset = bytes_read_;
    last_ts_ = out.ts;
    pos_ += pending_.incl_len;
    bytes_read_ += kRecordHeaderLen + pending_.incl_len;
    ++records_read_;
    m_records_->inc();
    m_bytes_->inc(kRecordHeaderLen + pending_.incl_len);
    pending_.have = false;
    return StreamStatus::kOk;
  }
}

PcapFile PcapStream::drain_to_file() {
  PcapFile out;
  out.nanosecond = nanos_;
  out.snaplen = snaplen_;
  // Heuristic capacity from the source size: BGP monitoring traces mix
  // ~70-byte pure ACKs with MSS-sized data segments, so ~100 bytes per
  // record on top of the 16-byte header keeps reallocation rare without
  // over-reserving on data-heavy captures. The size comes from the fstat
  // taken at open (source_remaining) plus what is already buffered — no
  // second pass over the file.
  std::uint64_t source_size = 0;
  const std::size_t remaining = source_remaining();
  if (remaining != SIZE_MAX) source_size = remaining;
  source_size += fill_ - pos_;
  out.records.reserve(source_size / (kRecordHeaderLen + 100) + 1);

  StreamRecord rec;
  while (next(rec)) {
    PcapRecord owned;
    owned.ts = rec.ts;
    owned.orig_len = rec.orig_len;
    owned.data.assign(rec.data.begin(), rec.data.end());
    out.records.push_back(std::move(owned));
  }
  out.ingest = diag_;
  return out;
}

}  // namespace tdat
