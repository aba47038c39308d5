#include "src/storage/pager/column_cache.h"

#include <algorithm>
#include <cstring>

#include "src/observe/journal.h"
#include "src/observe/metrics.h"
#include "src/storage/column.h"
#include "src/storage/pager/crc32c.h"
#include "src/storage/pager/file_reader.h"
#include "src/storage/segment/segmented_stream.h"

namespace tde {
namespace pager {

namespace {

/// Budget charge of one cold (unloaded) segment descriptor in a lazily
/// opened segmented column's shell — an approximation of its in-memory
/// footprint (shape + loader closure).
constexpr uint64_t kSegmentShellCharge = 64;

/// Fetches one blob, verifies its checksum, and copies it into an owned
/// buffer. Errors name the table and column so a corrupt file is
/// diagnosable from the Status alone.
Result<std::vector<uint8_t>> FetchBlob(const ColdSource& src,
                                       const BlobRef& ref, const char* what,
                                       observe::Counter* checksum_failures) {
  std::vector<uint8_t> scratch;
  auto span_r = src.file->Read(ref.offset, ref.length, &scratch);
  if (!span_r.ok()) {
    return {Status::IOError("column " + src.table_name + "." +
                            src.column_name + " " + what + " blob: " +
                            span_r.status().message())};
  }
  const std::span<const uint8_t> span = span_r.value();
  if (Crc32c(span.data(), span.size()) != ref.crc32c) {
    if (checksum_failures != nullptr) checksum_failures->Add();
    return {Status::IOError("checksum mismatch in column " + src.table_name +
                            "." + src.column_name + " (" + what + " blob, " +
                            std::to_string(ref.length) + " bytes at offset " +
                            std::to_string(ref.offset) + ")")};
  }
  if (!scratch.empty()) return scratch;  // pread path already owns the bytes
  return std::vector<uint8_t>(span.begin(), span.end());
}

/// Self-contained loader for one cold segment. Captures everything by
/// value (the file reader by shared_ptr), so it stays valid for as long as
/// the SegmentedStream that holds it — independent of the ColdSource
/// reference it was built from.
SegmentedStream::Loader MakeSegmentLoader(
    const ColdSource& src, const ColdSegment& seg, size_t index,
    observe::Counter* checksum_failures) {
  std::shared_ptr<FileReader> file = src.file;
  const BlobRef blob = seg.blob;
  const uint64_t rows = seg.shape.rows;
  const std::string name =
      src.table_name + "." + src.column_name + " segment " +
      std::to_string(index);
  return [file, blob, rows, name,
          checksum_failures]() -> Result<std::shared_ptr<EncodedStream>> {
    std::vector<uint8_t> scratch;
    auto span_r = file->Read(blob.offset, blob.length, &scratch);
    if (!span_r.ok()) {
      return {Status::IOError("column " + name + " blob: " +
                              span_r.status().message())};
    }
    const std::span<const uint8_t> span = span_r.value();
    if (Crc32c(span.data(), span.size()) != blob.crc32c) {
      if (checksum_failures != nullptr) checksum_failures->Add();
      return {Status::IOError("checksum mismatch in column " + name + " (" +
                              std::to_string(blob.length) +
                              " bytes at offset " +
                              std::to_string(blob.offset) + ")")};
    }
    std::vector<uint8_t> owned =
        scratch.empty() ? std::vector<uint8_t>(span.begin(), span.end())
                        : std::move(scratch);
    auto stream_r = EncodedStream::Open(std::move(owned));
    if (!stream_r.ok()) {
      return {Status::IOError("column " + name + ": " +
                              stream_r.status().message())};
    }
    std::shared_ptr<EncodedStream> stream(stream_r.MoveValue());
    if (stream->size() != rows) {
      return {Status::IOError("column " + name + " holds " +
                              std::to_string(stream->size()) +
                              " rows, directory says " +
                              std::to_string(rows))};
    }
    observe::QueryCount(observe::QueryCounter::kCacheBytesRead, blob.length);
    return stream;
  };
}

/// Loads and verifies a column's blobs into a payload. No cache
/// bookkeeping: Ensure installs the result.
Result<std::shared_ptr<const LoadedColumn>> LoadPayload(
    const ColdSource& src, observe::Counter* checksum_failures) {
  auto payload = std::make_shared<LoadedColumn>();

  if (src.segments.empty()) {
    payload->compressed_bytes = src.CompressedBytes();
    TDE_ASSIGN_OR_RETURN(
        auto stream_bytes,
        FetchBlob(src, src.stream, "stream", checksum_failures));
    auto stream_r = EncodedStream::Open(std::move(stream_bytes));
    if (!stream_r.ok()) {
      return {Status::IOError("column " + src.table_name + "." +
                              src.column_name + " stream: " +
                              stream_r.status().message())};
    }
    payload->stream = std::shared_ptr<EncodedStream>(stream_r.MoveValue());
  } else {
    // Segmented (format v3): the shell is built from directory facts and
    // each segment's blob is deferred to first touch, so a pruned query
    // faults in only the segments it scans.
    auto seg = std::make_shared<SegmentedStream>();
    for (size_t i = 0; i < src.segments.size(); ++i) {
      const ColdSegment& s = src.segments[i];
      TDE_RETURN_NOT_OK(seg->AddCold(
          s.shape, MakeSegmentLoader(src, s, i, checksum_failures)));
    }
    // No segment blob is resident yet, but the shell itself (cold
    // descriptors + loaders) is, and it must carry a nonzero charge: a
    // zero-cost entry would survive any budget, leaving the column
    // permanently "resident" even at budget 0.
    payload->stream = std::move(seg);
    payload->compressed_bytes = (src.has_heap ? src.heap.length : 0) +
                                (src.has_dict ? src.dict.length : 0) +
                                src.segments.size() * kSegmentShellCharge;
  }
  observe::QueryCount(observe::QueryCounter::kCacheBytesRead,
                      payload->compressed_bytes);
  if (payload->stream->size() != src.rows) {
    return {Status::IOError("column " + src.table_name + "." +
                            src.column_name + " stream holds " +
                            std::to_string(payload->stream->size()) +
                            " rows, directory says " +
                            std::to_string(src.rows))};
  }

  if (src.has_heap) {
    TDE_ASSIGN_OR_RETURN(
        auto heap_bytes,
        FetchBlob(src, src.heap, "heap", checksum_failures));
    payload->heap = std::make_shared<StringHeap>(
        StringHeap::FromParts(std::move(heap_bytes), src.heap_entries,
                              src.heap_sorted, src.heap_collation));
  }

  if (src.has_dict) {
    if (src.dict.length != src.dict_entries * sizeof(Lane)) {
      return {Status::IOError("column " + src.table_name + "." +
                              src.column_name + " dictionary blob is " +
                              std::to_string(src.dict.length) +
                              " bytes, expected " +
                              std::to_string(src.dict_entries) + " entries")};
    }
    TDE_ASSIGN_OR_RETURN(
        auto dict_bytes,
        FetchBlob(src, src.dict, "dictionary", checksum_failures));
    auto dict = std::make_shared<ArrayDictionary>();
    dict->type = src.dict_type;
    dict->sorted = src.dict_sorted;
    dict->values.resize(src.dict_entries);
    std::memcpy(dict->values.data(), dict_bytes.data(), dict_bytes.size());
    payload->dict = std::move(dict);
  }
  return {std::shared_ptr<const LoadedColumn>(std::move(payload))};
}

}  // namespace

ColumnCache::ColumnCache(uint64_t budget_bytes) : budget_(budget_bytes) {
  auto& reg = observe::MetricsRegistry::Global();
  evictions_ = reg.GetCounter("pager.evictions");
  checksum_failures_ = reg.GetCounter("pager.checksum_failures");
  bytes_resident_gauge_ = reg.GetGauge("pager.bytes_resident");
}

ColumnCache::~ColumnCache() = default;

Status ColumnCache::Ensure(const Column* col) {
  const ColdSource* src = col->cold_source();
  if (src == nullptr) return Status::OK();  // hot columns are never cached
  {
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      if (col->resident()) {
        observe::QueryCount(observe::QueryCounter::kCacheHits);
        auto it = entries_.find(col);
        if (it != entries_.end()) {
          lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
        }
        return Status::OK();
      }
      // One loader per column: the first toucher claims the slot, racers
      // wait on the condvar and re-check. Touches of *other* columns —
      // LRU hits or their own loads — proceed unblocked.
      if (loading_.insert(col).second) break;
      load_cv_.wait(lock);
    }
    observe::QueryCount(observe::QueryCounter::kCacheMisses);
  }

  // Blob fetch, checksum and decode run outside the cache lock, so one slow
  // cold materialization never serializes unrelated queries.
  auto payload_r = LoadPayload(*src, checksum_failures_);
  if (payload_r.ok() && (*payload_r.value()).stream->segmented()) {
    // Segment fault-ins charge the cache as they happen. The cache outlives
    // every column it serves (each ColdSource holds a shared_ptr to it), so
    // capturing `this` raw mirrors the raw Column* keys in `entries_`.
    auto* seg = static_cast<SegmentedStream*>((*payload_r.value()).stream.get());
    seg->set_charge_hook(
        [this, col](uint64_t bytes) { AddSegmentBytes(col, bytes); });
  }

  std::lock_guard<std::mutex> lock(mu_);
  loading_.erase(col);
  load_cv_.notify_all();
  if (!payload_r.ok()) return payload_r.status();
  auto payload = payload_r.MoveValue();
  const uint64_t bytes = payload->compressed_bytes;
  col->SetResident(std::move(payload));
  auto it = entries_.find(col);
  if (it == entries_.end()) {
    lru_.push_front(col);
    entries_[col] = Entry{lru_.begin(), bytes};
    bytes_resident_ += bytes;
  } else {
    lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
    bytes_resident_ += bytes - it->second.bytes;
    it->second.bytes = bytes;
  }
  EvictLocked(/*keep=*/col);
  bytes_resident_gauge_->Set(static_cast<int64_t>(bytes_resident_));
  return Status::OK();
}

void ColumnCache::EvictLocked(const Column* keep) {
  // One pass from the cold end. Pinned payloads are skipped — they stay
  // charged against the budget until their queries finish.
  auto it = lru_.end();
  while (bytes_resident_ > budget_ && it != lru_.begin()) {
    --it;
    const Column* victim = *it;
    if (victim == keep) continue;
    if (!victim->TryUnload()) {
      // Whole-column eviction blocked (a query pins the payload). A
      // segmented column can still shed individual cold segments nobody is
      // reading right now.
      const uint64_t freed = victim->ReleaseEvictableSegments();
      if (freed > 0) {
        auto e = entries_.find(victim);
        if (e != entries_.end()) {
          const uint64_t delta = std::min(freed, e->second.bytes);
          e->second.bytes -= delta;
          bytes_resident_ -= delta;
          evictions_->Add();
        }
      }
      continue;
    }
    auto e = entries_.find(victim);
    bytes_resident_ -= e->second.bytes;
    it = lru_.erase(it);
    entries_.erase(e);
    evictions_->Add();
  }
}

void ColumnCache::AddSegmentBytes(const Column* col, uint64_t bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(col);
  if (it == entries_.end()) return;  // warmed/forgotten — not ours to track
  it->second.bytes += bytes;
  bytes_resident_ += bytes;
  lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
  EvictLocked(/*keep=*/col);
  bytes_resident_gauge_->Set(static_cast<int64_t>(bytes_resident_));
}

void ColumnCache::Forget(const Column* col) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(col);
  if (it == entries_.end()) return;
  bytes_resident_ -= it->second.bytes;
  lru_.erase(it->second.lru_pos);
  entries_.erase(it);
  bytes_resident_gauge_->Set(static_cast<int64_t>(bytes_resident_));
}

uint64_t ColumnCache::bytes_resident() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bytes_resident_;
}

uint64_t ColumnCache::budget_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return budget_;
}

std::vector<ColumnCache::EntrySnapshot> ColumnCache::EntriesSnapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<EntrySnapshot> out;
  out.reserve(lru_.size());
  for (const Column* col : lru_) {
    auto it = entries_.find(col);
    out.push_back({col, it != entries_.end() ? it->second.bytes : 0});
  }
  return out;
}

void ColumnCache::set_budget_bytes(uint64_t budget) {
  std::lock_guard<std::mutex> lock(mu_);
  budget_ = budget;
  EvictLocked(nullptr);
  bytes_resident_gauge_->Set(static_cast<int64_t>(bytes_resident_));
}

}  // namespace pager
}  // namespace tde
