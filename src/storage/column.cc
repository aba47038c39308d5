#include "src/storage/column.h"

#include "src/encoding/streams_internal.h"
#include "src/storage/pager/column_cache.h"
#include "src/storage/segment/segmented_stream.h"

namespace tde {

const char* ResidencyName(ColumnResidency r) {
  switch (r) {
    case ColumnResidency::kHot:
      return "hot";
    case ColumnResidency::kCold:
      return "cold";
    case ColumnResidency::kWarm:
      return "warm";
    case ColumnResidency::kPinned:
      return "pinned";
  }
  return "unknown";
}

Column::~Column() {
  // `cold_` is never cleared (Warm only flips `warmed_`), so a cold-born
  // column always detaches from its cache — including a payload a racing
  // Ensure installed after the warm.
  if (cold_ != nullptr && cold_->cache != nullptr) {
    cold_->cache->Forget(this);
  }
}

void Column::MakeCold(std::shared_ptr<const pager::ColdSource> src) {
  cold_ = std::move(src);
}

bool Column::cold() const {
  if (cold_ == nullptr) return false;
  std::lock_guard<std::mutex> lock(load_mu_);
  return !warmed_;
}

bool Column::resident() const {
  if (cold_ == nullptr) return true;
  std::lock_guard<std::mutex> lock(load_mu_);
  return warmed_ || resident_ != nullptr;
}

ColumnResidency Column::residency_state() const {
  if (cold_ == nullptr) return ColumnResidency::kHot;
  std::lock_guard<std::mutex> lock(load_mu_);
  if (warmed_) return ColumnResidency::kHot;
  if (resident_ == nullptr) return ColumnResidency::kCold;
  // The column's own reference is one; anything above it is a query pin
  // (or a load in flight, which counts as pinned for reporting purposes).
  return resident_.use_count() > 1 ? ColumnResidency::kPinned
                                   : ColumnResidency::kWarm;
}

Status Column::EnsureLoaded() const {
  if (cold_ == nullptr) return Status::OK();
  {
    std::lock_guard<std::mutex> lock(load_mu_);
    if (warmed_) return Status::OK();
  }
  // Never hold load_mu_ across a cache call: the cache locks its own mutex
  // first and then takes load_mu_ (SetResident/TryUnload), so the reverse
  // order would deadlock.
  if (cold_->cache == nullptr) {
    return Status::Internal("cold column '" + name_ + "' has no cache");
  }
  return cold_->cache->Ensure(this);
}

Result<std::shared_ptr<const pager::LoadedColumn>> Column::Pin() const {
  if (cold_ == nullptr) {
    return {std::shared_ptr<const pager::LoadedColumn>()};
  }
  // Ensure + copy race with eviction; retry until a copy sticks. Eviction
  // between the two calls is rare (it requires another thread loading past
  // the budget in the window), so this loop terminates promptly.
  for (int attempt = 0; attempt < 64; ++attempt) {
    TDE_RETURN_NOT_OK(EnsureLoaded());
    std::lock_guard<std::mutex> lock(load_mu_);
    // A warmed column pins like a hot one: null payload, direct members.
    if (warmed_) return {std::shared_ptr<const pager::LoadedColumn>()};
    if (resident_ != nullptr) return {resident_};
  }
  return {Status::Internal("column '" + name_ +
                           "' evicted faster than it could be pinned — "
                           "cache budget too small for the working set")};
}

std::shared_ptr<const pager::LoadedColumn> Column::PinIfResident() const {
  if (cold_ == nullptr) return nullptr;
  std::lock_guard<std::mutex> lock(load_mu_);
  if (warmed_) return nullptr;
  return resident_;
}

void Column::SetResident(
    std::shared_ptr<const pager::LoadedColumn> payload) const {
  std::lock_guard<std::mutex> lock(load_mu_);
  resident_ = std::move(payload);
}

bool Column::TryUnload() const {
  std::unique_lock<std::mutex> lock(load_mu_, std::try_to_lock);
  if (!lock.owns_lock()) return false;
  if (warmed_) {  // the column owns its data now — the entry is stale
    resident_.reset();
    return true;
  }
  if (resident_ == nullptr) return true;  // already gone — entry is stale
  if (resident_.use_count() > 1) return false;  // pinned by a query
  resident_.reset();
  return true;
}

Status Column::Warm() {
  if (cold_ == nullptr) return Status::OK();
  TDE_ASSIGN_OR_RETURN(auto pin, Pin());
  {
    std::lock_guard<std::mutex> lock(load_mu_);
    if (pin != nullptr && !warmed_) {
      // Adopt the payload's pieces; concurrent readers see either the cold
      // view or the warmed view, never a half-swapped mix.
      data_ = pin->stream;
      heap_ = pin->heap;
      array_dict_ = pin->dict;
      warmed_ = true;
      resident_.reset();
    }
  }
  // Outside load_mu_ — see the lock-order note in EnsureLoaded.
  if (cold_->cache != nullptr) cold_->cache->Forget(this);
  return Status::OK();
}

void Column::set_data(std::shared_ptr<EncodedStream> s) {
  std::lock_guard<std::mutex> lock(load_mu_);
  data_ = std::move(s);
}

void Column::set_heap(std::shared_ptr<StringHeap> h) {
  std::lock_guard<std::mutex> lock(load_mu_);
  heap_ = std::move(h);
  interner_.reset();
}

Lane Column::InternString(std::string_view s) {
  if (interner_ == nullptr) {
    interner_ = std::make_unique<HeapAccelerator>(heap_.get());
    interner_->IndexExisting();
  }
  return interner_->Add(s);
}

void Column::set_array_dict(std::shared_ptr<ArrayDictionary> d) {
  std::lock_guard<std::mutex> lock(load_mu_);
  array_dict_ = std::move(d);
}

const EncodedStream* Column::data() const {
  std::lock_guard<std::mutex> lock(load_mu_);
  if (cold_ != nullptr && !warmed_) {
    return resident_ != nullptr ? resident_->stream.get() : nullptr;
  }
  return data_.get();
}

std::shared_ptr<EncodedStream> Column::data_ptr() const {
  std::lock_guard<std::mutex> lock(load_mu_);
  if (cold_ != nullptr && !warmed_) return nullptr;
  return data_;
}

bool Column::segmented_storage() const {
  std::lock_guard<std::mutex> lock(load_mu_);
  if (cold_ != nullptr && !warmed_) return !cold_->segments.empty();
  return data_ != nullptr && data_->segmented();
}

const StringHeap* Column::heap() const {
  std::lock_guard<std::mutex> lock(load_mu_);
  if (cold_ != nullptr && !warmed_) {
    return resident_ != nullptr ? resident_->heap.get() : nullptr;
  }
  return heap_.get();
}

std::shared_ptr<StringHeap> Column::heap_ptr() const {
  std::lock_guard<std::mutex> lock(load_mu_);
  if (cold_ != nullptr && !warmed_) {
    return resident_ != nullptr ? resident_->heap : nullptr;
  }
  return heap_;
}

const ArrayDictionary* Column::array_dict() const {
  std::lock_guard<std::mutex> lock(load_mu_);
  if (cold_ != nullptr && !warmed_) {
    return resident_ != nullptr ? resident_->dict.get() : nullptr;
  }
  return array_dict_.get();
}

uint64_t Column::rows() const {
  std::lock_guard<std::mutex> lock(load_mu_);
  if (cold_ != nullptr && !warmed_) return cold_->rows;
  return data_ ? data_->size() : 0;
}

uint8_t Column::width() const {
  std::lock_guard<std::mutex> lock(load_mu_);
  if (cold_ != nullptr && !warmed_) return cold_->width;
  return data_ ? data_->width() : 8;
}

EncodingType Column::encoding_type() const {
  std::lock_guard<std::mutex> lock(load_mu_);
  if (cold_ != nullptr && !warmed_) return cold_->encoding;
  return data_ ? data_->type() : EncodingType::kUncompressed;
}

uint8_t Column::TokenWidth() const {
  std::lock_guard<std::mutex> lock(load_mu_);
  if (cold_ != nullptr && !warmed_) return cold_->token_width;
  if (data_ == nullptr) return 8;
  return data_->TokenWidthBytes();
}

std::vector<SegmentShape> Column::SegmentShapes() const {
  std::lock_guard<std::mutex> lock(load_mu_);
  const EncodedStream* stream = nullptr;
  bool from_cold = false;
  if (cold_ != nullptr && !warmed_) {
    stream = resident_ != nullptr ? resident_->stream.get() : nullptr;
    from_cold = true;
  } else {
    stream = data_.get();
  }
  if (stream != nullptr && stream->segmented()) {
    return static_cast<const SegmentedStream*>(stream)->Shapes();
  }
  if (stream == nullptr && from_cold && !cold_->segments.empty()) {
    // Segmented but not materialized: directory facts only.
    std::vector<SegmentShape> out;
    out.reserve(cold_->segments.size());
    for (const pager::ColdSegment& s : cold_->segments) {
      out.push_back(s.shape);
      out.back().resident = false;
    }
    return out;
  }
  // Monolithic: one pseudo-segment covering the whole column, with the
  // column-level metadata as its zone map.
  SegmentShape s;
  if (stream != nullptr) {
    s.rows = stream->size();
    s.encoding = stream->type();
    s.width = stream->width();
    s.bits = stream->bits();
    s.token_width = stream->TokenWidthBytes();
    s.physical_bytes = stream->PhysicalSize();
    s.resident = true;
  } else if (from_cold) {
    s.rows = cold_->rows;
    s.encoding = cold_->encoding;
    s.width = cold_->width;
    s.token_width = cold_->token_width;
    s.physical_bytes = cold_->stream.length;
    s.resident = false;
  } else {
    return {};
  }
  if (s.rows == 0) return {};
  s.zone.meta = meta_;
  s.zone.null_count =
      (meta_.null_known && !meta_.has_nulls) ? 0 : int64_t{-1};
  return {s};
}

uint64_t Column::ReleaseEvictableSegments() const {
  std::unique_lock<std::mutex> lock(load_mu_, std::try_to_lock);
  if (!lock.owns_lock()) return 0;
  if (warmed_ || resident_ == nullptr) return 0;
  EncodedStream* stream = resident_->stream.get();
  if (stream == nullptr || !stream->segmented()) return 0;
  return static_cast<SegmentedStream*>(stream)->ReleaseColdSegments();
}

uint64_t Column::PhysicalSize() const {
  std::lock_guard<std::mutex> lock(load_mu_);
  if (cold_ != nullptr && !warmed_) return cold_->CompressedBytes();
  uint64_t n = data_ ? data_->PhysicalSize() : 0;
  if (heap_) n += heap_->byte_size();
  if (array_dict_) n += array_dict_->values.size() * 8;
  return n;
}

uint64_t Column::LogicalSize() const {
  std::lock_guard<std::mutex> lock(load_mu_);
  if (cold_ != nullptr && !warmed_) {
    // Directory facts only: heap blob length is the heap byte size, the
    // dictionary is 8 bytes per entry.
    return cold_->rows * 8 + (cold_->has_heap ? cold_->heap.length : 0) +
           cold_->dict_entries * 8;
  }
  uint64_t n = (data_ ? data_->size() : 0) * 8;  // default 8-byte lanes
  if (heap_) n += heap_->byte_size();
  if (array_dict_) n += array_dict_->values.size() * 8;
  return n;
}

Status Column::GetLanes(uint64_t row, size_t count, Lane* out) const {
  // Pin first (materializes cold columns); a null pin means the direct
  // members hold the data. Copy the stream pointer under the lock rather
  // than calling data() so a concurrent set_data cannot free it mid-read.
  TDE_ASSIGN_OR_RETURN(auto pin, Pin());
  if (pin != nullptr) return pin->stream->Get(row, count, out);
  std::shared_ptr<EncodedStream> stream;
  {
    std::lock_guard<std::mutex> lock(load_mu_);
    stream = data_;
  }
  if (stream == nullptr) {
    return Status::Internal("column has no data stream");
  }
  return stream->Get(row, count, out);
}

}  // namespace tde
