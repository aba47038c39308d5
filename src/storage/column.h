#ifndef TDE_STORAGE_COLUMN_H_
#define TDE_STORAGE_COLUMN_H_

#include <memory>
#include <mutex>
#include <string>

#include "src/encoding/dynamic_encoder.h"
#include "src/encoding/metadata.h"
#include "src/encoding/stream.h"
#include "src/storage/dictionary.h"
#include "src/storage/heap_accelerator.h"
#include "src/storage/pager/pager_types.h"
#include "src/storage/string_heap.h"

namespace tde {

/// Column compression (Sect. 2.3.2) — distinct from *encoding*: traditional
/// dictionary compression with a per-column dictionary of fixed width
/// (array) or variable width (heap) data. The main data column is always
/// fixed width: uncompressed scalars, indexes into the array dictionary, or
/// offsets into the heap.
enum class CompressionKind : uint8_t {
  kNone = 0,       // lanes are the values
  kHeap = 1,       // lanes are byte offsets into a StringHeap
  kArrayDict = 2,  // lanes are indexes into an ArrayDictionary
};

/// Pager residency of a column's payload, as reported by introspection:
/// hot columns own their data directly; cold ones are either unloaded
/// (kCold), cached and evictable (kWarm), or cached and held by at least
/// one query pin (kPinned).
enum class ColumnResidency : uint8_t { kHot, kCold, kWarm, kPinned };

const char* ResidencyName(ColumnResidency r);

/// A stored column: a fixed-width encoded stream, optional dictionary
/// (array or heap), and the metadata extracted while it was built.
///
/// A column is either *hot* (built in memory, or warmed after an open — the
/// stream/heap/dictionary members are populated directly) or *cold* (opened
/// from a database file: only directory facts are resident and the data
/// blobs are materialized through the ColumnCache on first touch, and may
/// be evicted again under budget pressure). Everything the planner consults
/// — rows, widths, encoding type, metadata, physical/logical size — answers
/// from directory facts without faulting data in.
///
/// Thread-safety: every accessor and mutator that touches the stream/heap/
/// dictionary shared_ptrs or the cold residency state synchronizes on an
/// internal mutex, so readers racing a Warm()/set_data() never observe a
/// torn pointer. Raw pointers returned by data()/heap()/array_dict() on a
/// cold column are only guaranteed stable while the caller holds a Pin —
/// the scan operators pin for the duration of a query.
class Column {
 public:
  Column(std::string name, TypeId type)
      : name_(std::move(name)), type_(type) {}

  ~Column();

  const std::string& name() const { return name_; }
  void set_name(std::string n) { name_ = std::move(n); }
  TypeId type() const { return type_; }

  CompressionKind compression() const { return compression_; }
  void set_compression(CompressionKind k) { compression_ = k; }

  const EncodedStream* data() const;
  EncodedStream* mutable_data() { return data_.get(); }
  void set_data(std::shared_ptr<EncodedStream> s);
  /// Shared reference to the hot stream (null for unwarmed cold columns).
  /// Lets AppendRows adopt the current stream as a sealed segment.
  std::shared_ptr<EncodedStream> data_ptr() const;

  const StringHeap* heap() const;
  StringHeap* mutable_heap() { return heap_.get(); }
  std::shared_ptr<StringHeap> heap_ptr() const;
  void set_heap(std::shared_ptr<StringHeap> h);

  /// Token of `s` in this column's heap, appended only when the heap does
  /// not hold the string yet, so equal strings keep one token (the append
  /// path's HeapAccelerator, Sect. 5.1.4). The index over the heap is built
  /// on first use — O(heap) once — and kept until set_heap replaces the
  /// heap. Requires a heap; single writer, like every in-place mutation.
  Lane InternString(std::string_view s);

  const ArrayDictionary* array_dict() const;
  void set_array_dict(std::shared_ptr<ArrayDictionary> d);

  const ColumnMetadata& metadata() const { return meta_; }
  ColumnMetadata* mutable_metadata() { return &meta_; }

  uint64_t rows() const;

  /// Physical element width of the main stream.
  uint8_t width() const;

  /// Effective per-row token width in bytes: for dictionary-encoded
  /// streams the packed index width (what Fig. 8/9 report), otherwise the
  /// element width.
  uint8_t TokenWidth() const;

  /// Per-segment shapes (position, encoding, zone map, residency) for the
  /// planner's segment pruning and for introspection. Monolithic columns
  /// report one pseudo-segment covering every row. Never faults data in.
  std::vector<SegmentShape> SegmentShapes() const;

  /// True when the column's storage is genuinely segmented — from
  /// directory facts for cold columns; never faults data in.
  bool segmented_storage() const;

  /// Drops faulted-in payloads of unpinned cold segments (segmented cold
  /// columns only) and returns the bytes freed. Called by the column cache
  /// when whole-column eviction fails because the column itself is pinned.
  uint64_t ReleaseEvictableSegments() const;

  /// Encoding algorithm of the main stream — from the directory for cold
  /// columns, so the optimizers can consult it without faulting data in.
  EncodingType encoding_type() const;

  /// On-disk bytes: stream + heap + array dictionary.
  uint64_t PhysicalSize() const;
  /// Un-encoded bytes: rows * width (+ heap bytes for string columns).
  uint64_t LogicalSize() const;

  /// Decodes lanes [row, row+count). For string columns, lanes are heap
  /// tokens; for array-dict columns, dictionary indexes. Cold columns
  /// materialize (and self-pin for the duration of the call).
  Status GetLanes(uint64_t row, size_t count, Lane* out) const;

  /// Resolves a heap token (compression() must be kHeap).
  std::string_view GetString(Lane token) const { return heap()->Get(token); }

  /// Number of mid-stream encoding changes during the build (Sect. 3.2).
  int encoding_changes() const { return encoding_changes_; }
  void set_encoding_changes(int n) { encoding_changes_ = n; }

  // --- Cold (paged) state -------------------------------------------------

  /// Turns this column cold: drops nothing (the column must be empty) and
  /// records where its blobs live. Called by the v2 open path.
  void MakeCold(std::shared_ptr<const pager::ColdSource> src);

  bool cold() const;
  /// Cold column whose payload is currently materialized (hot columns are
  /// trivially resident).
  bool resident() const;
  /// Residency state for introspection; a single lock acquisition, never
  /// faults data in.
  ColumnResidency residency_state() const;
  const pager::ColdSource* cold_source() const { return cold_.get(); }

  /// Materializes a cold column's payload through the cache (no-op when hot
  /// or already resident).
  Status EnsureLoaded() const;

  /// Materializes (if needed) and returns a shared reference to the
  /// payload, preventing eviction while the reference is held. Returns a
  /// null payload for hot columns — callers treat null as "use the direct
  /// members, which never move".
  Result<std::shared_ptr<const pager::LoadedColumn>> Pin() const;

  /// Pin without materializing: null if cold and not resident.
  std::shared_ptr<const pager::LoadedColumn> PinIfResident() const;

  /// Promotes a cold column to a plain hot column (materializes, adopts the
  /// shared payload as the direct members, detaches from the cache). An
  /// eager load is an open followed by Warm(); in-place column
  /// transformations warm first too. The segments of a segmented column
  /// still fault in on first touch, now outside the cache. Safe to call
  /// while other threads read the column: the view swaps atomically under
  /// the internal mutex. Idempotent.
  Status Warm();

  /// Cache internals: installs a freshly materialized payload / attempts to
  /// drop an unpinned one. TryUnload returns false when the payload is
  /// pinned (or the column is briefly locked by a concurrent loader).
  void SetResident(std::shared_ptr<const pager::LoadedColumn> payload) const;
  bool TryUnload() const;

 private:
  std::string name_;
  TypeId type_;
  CompressionKind compression_ = CompressionKind::kNone;
  std::shared_ptr<EncodedStream> data_;
  std::shared_ptr<StringHeap> heap_;
  std::shared_ptr<ArrayDictionary> array_dict_;
  ColumnMetadata meta_;
  int encoding_changes_ = 0;
  std::unique_ptr<HeapAccelerator> interner_;  // over heap_; see InternString

  // Cold state. `cold_` is set once before the column is shared and then
  // immutable for the column's lifetime — Warm() flips `warmed_` instead of
  // clearing it, so a ColdSource pointer handed to the cache never dangles.
  // `resident_` and `warmed_` swap under `load_mu_`.
  std::shared_ptr<const pager::ColdSource> cold_;
  mutable std::mutex load_mu_;
  mutable std::shared_ptr<const pager::LoadedColumn> resident_;
  mutable bool warmed_ = false;
};

}  // namespace tde

#endif  // TDE_STORAGE_COLUMN_H_
