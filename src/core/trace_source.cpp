#include "core/trace_source.hpp"

#include <algorithm>
#include <filesystem>
#include <system_error>
#include <utility>

namespace tdat {

// ------------------------------------------------------- PcapFileSource --

PcapFileSource::PcapFileSource(const PcapFile& file) : file_(&file) {
  // Account ingest from the capture's view — the 24-byte pcap global header
  // plus record headers and stored bytes, matching PcapStream::bytes_read()
  // byte for byte.
  bytes_ = 24;
  for (const PcapRecord& rec : file.records) bytes_ += 16 + rec.data.size();
}

std::size_t PcapFileSource::next_raw_records(std::span<StreamRecord> out) {
  std::size_t n = 0;
  while (n < out.size() && next_ < file_->records.size()) {
    const PcapRecord& rec = file_->records[next_++];
    StreamRecord& r = out[n++];
    r.ts = rec.ts;
    r.orig_len = rec.orig_len;
    r.data = std::span<const std::uint8_t>(rec.data);
    // No pin: the file outlives the source by contract, and a null arena
    // makes the batch decoder copy the frame.
    r.arena = nullptr;
  }
  return n;
}

// ----------------------------------------------------- PcapStreamSource --

Result<PcapStreamSource> PcapStreamSource::open(const std::string& path,
                                                bool /*verify_checksums*/,
                                                const IngestPolicy& policy) {
  return PcapStream::open_auto(path, policy)
      .map([&path](PcapStream stream) {
        PcapStreamSource src(std::move(stream));
        src.path_ = path;
        return src;
      });
}

std::size_t PcapStreamSource::next_raw_records(std::span<StreamRecord> out) {
  std::size_t n = 0;
  while (n < out.size() && stream_.next(out[n])) ++n;
  return n;
}

// ------------------------------------------------------ MultiFileSource --

Result<MultiFileSource> MultiFileSource::open(
    const std::vector<std::string>& inputs, const IngestPolicy& policy) {
  std::vector<std::string> files;
  for (const std::string& input : inputs) {
    std::error_code ec;
    if (std::filesystem::is_directory(input, ec)) {
      // Directory of rotated captures: every regular file inside, in name
      // order (the timestamp sort below decides the final order; name order
      // only breaks first-timestamp ties deterministically).
      std::vector<std::string> entries;
      for (const auto& entry : std::filesystem::directory_iterator(input, ec)) {
        if (entry.is_regular_file()) entries.push_back(entry.path().string());
      }
      if (ec) return Err<MultiFileSource>("pcap: cannot list " + input);
      if (entries.empty()) {
        return Err<MultiFileSource>("pcap: no capture files in " + input);
      }
      std::sort(entries.begin(), entries.end());
      files.insert(files.end(), entries.begin(), entries.end());
    } else {
      files.push_back(input);
    }
  }
  if (files.empty()) return Err<MultiFileSource>("pcap: no input captures");

  MultiFileSource src;
  src.parts_.reserve(files.size());
  for (const std::string& file : files) {
    auto stream = PcapStream::open_auto(file, policy);
    if (!stream.ok()) return stream.take_error();
    Part part{std::move(stream).value(), file, {}, false};
    part.has_pending = part.stream.next(part.pending);
    src.parts_.push_back(std::move(part));
  }
  // Rotation order == first-record timestamp order; stable so equal
  // timestamps keep the (sorted) name order. Empty captures sort last and
  // are skipped by next_raw_records().
  std::stable_sort(src.parts_.begin(), src.parts_.end(),
                   [](const Part& a, const Part& b) {
                     if (a.has_pending != b.has_pending) return a.has_pending;
                     return a.has_pending && a.pending.ts < b.pending.ts;
                   });
  return src;
}

std::size_t MultiFileSource::next_raw_records(std::span<StreamRecord> out) {
  std::size_t n = 0;
  while (n < out.size() && current_ < parts_.size()) {
    Part& part = parts_[current_];
    if (!part.has_pending) {
      ++current_;
      continue;
    }
    out[n++] = std::move(part.pending);
    part.has_pending = part.stream.next(part.pending);
  }
  return n;
}

std::uint64_t MultiFileSource::bytes_ingested() const {
  std::uint64_t total = 0;
  for (const Part& part : parts_) total += part.stream.bytes_read();
  return total;
}

std::uint64_t MultiFileSource::records_seen() const {
  std::uint64_t total = 0;
  for (const Part& part : parts_) total += part.stream.records_read();
  return total;
}

IngestDiagnostics MultiFileSource::diagnostics() const {
  IngestDiagnostics total;
  for (const Part& part : parts_) total.add(part.stream.diagnostics());
  return total;
}

void MultiFileSource::collect_file_diagnostics(
    std::vector<FileIngestDiagnostics>& out) const {
  for (const Part& part : parts_) {
    out.push_back({part.path, part.stream.diagnostics()});
  }
}

// ------------------------------------------------------ OffsetRunSource --

Result<OffsetRunSource> OffsetRunSource::open(const std::string& path,
                                              std::vector<RecordRun> runs) {
  TDAT_TRY(mapped, MappedFile::map(path));
  TDAT_TRY(reader, RecordRunReader::open(mapped.share(), mapped.bytes(),
                                         std::move(runs)));
  return OffsetRunSource(std::move(reader));
}

std::size_t OffsetRunSource::next_raw_records(std::span<StreamRecord> out) {
  std::size_t n = 0;
  while (n < out.size() && reader_.next(out[n])) ++n;
  return n;
}

}  // namespace tdat
