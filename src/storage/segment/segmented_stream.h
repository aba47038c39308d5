#ifndef TDE_STORAGE_SEGMENT_SEGMENTED_STREAM_H_
#define TDE_STORAGE_SEGMENT_SEGMENTED_STREAM_H_

#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "src/encoding/dynamic_encoder.h"
#include "src/encoding/stream.h"
#include "src/storage/segment/segment.h"

namespace tde {

/// A column stored as an ordered list of independently-encoded segments.
///
/// Presents the EncodedStream interface so every consumer (scans, index
/// builds, serializers, the cache) sees one logical stream, while each
/// segment keeps its own dynamic-encoding choice, its own zone map, and —
/// for lazily-opened v3 files — its own pager blob that faults in only
/// when a read actually touches it.
///
/// Lifecycle (DESIGN.md "segment lifecycle"): values Append() into an
/// uncompressed in-memory *open tail*; once the tail reaches the target
/// row count a full chunk is *sealed* — run through the dynamic encoder,
/// zone-mapped, immutable from then on. Finalize() seals the remainder.
/// Sealed segments are *optimized* in place by the usual Sect. 3.4 header
/// manipulations (width narrowing, heap sorting), applied per segment.
///
/// Thread safety: concurrent reads (Get/GetRuns/GetCodes), cold-segment
/// faulting, and segment release are safe against each other. Append and
/// Finalize must not run concurrently with reads of the same column —
/// the same single-writer contract every other stream has.
class SegmentedStream : public EncodedStream {
 public:
  /// Loads one cold segment's stream from its pager blob. Invoked without
  /// internal locks held; must be safe to call from any thread.
  using Loader = std::function<Result<std::shared_ptr<EncodedStream>>()>;
  /// Notifies the column cache that `bytes` just became resident (segment
  /// fault-in). Called without internal locks held.
  using ChargeHook = std::function<void(uint64_t bytes)>;

  /// `options` parameterizes the dynamic encoder used to seal segments;
  /// `target_rows` is the sealing threshold (0 = TDE_SEGMENT_ROWS /
  /// default).
  explicit SegmentedStream(DynamicEncoderOptions options = {},
                           uint64_t target_rows = 0);

  /// Adopts an already-encoded stream as the next sealed segment. The
  /// zone should describe exactly the stream's rows.
  Status AddSealed(std::shared_ptr<EncodedStream> stream, SegmentZone zone);

  /// Adds a cold (on-disk) segment: directory facts now, payload on first
  /// touch. `shape.start_row` is recomputed; the rest is trusted.
  Status AddCold(const SegmentShape& shape, Loader loader);

  /// Installs the cache-accounting hook for cold-segment fault-ins.
  void set_charge_hook(ChargeHook hook);

  /// The dynamic-encoder configuration segments seal under. A re-encode of
  /// the whole column (e.g. AlterColumnToDictionary's monolithic collapse)
  /// must use this, not defaults, or an encodings-off column would silently
  /// come back compressed.
  const DynamicEncoderOptions& encoder_options() const { return options_; }

  // EncodedStream interface ------------------------------------------------
  Status Append(const Lane* values, size_t count) override;
  Status Finalize() override;
  Status Get(uint64_t row, size_t count, Lane* out) const override;
  Status GetRuns(std::vector<RleRun>* out) const override;
  bool GetCodes(uint64_t row, size_t count, Lane* out) const override;
  std::vector<Lane> CodeEntries() const override;
  uint64_t size() const override;
  uint64_t PhysicalSize() const override;
  uint64_t ProjectedPhysicalSize() const override;
  uint8_t TokenWidthBytes() const override;
  bool segmented() const override { return true; }

  // Segment-level interface ------------------------------------------------
  /// Number of segments, the open tail included when non-empty.
  size_t segment_count() const;
  /// True when unsealed appended rows exist.
  bool has_open_tail() const;
  /// Shape snapshot of every segment (tail last, open_tail = true).
  /// Answers from directory facts for cold segments — never faults.
  std::vector<SegmentShape> Shapes() const;

  /// The decoded stream of sealed/cold segment `idx` (faults a cold one
  /// in). The returned shared_ptr pins the payload; a concurrent release
  /// cannot free it mid-read. Errors for the open tail.
  Result<std::shared_ptr<EncodedStream>> SegmentStreamForRead(
      size_t idx) const;

  /// Drops faulted cold-segment payloads nobody is reading (shared_ptr
  /// use-count of one) and returns the bytes freed. Called by the column
  /// cache under its own lock — must not call hooks back into the cache.
  uint64_t ReleaseColdSegments();

  /// Encodes a copy of the open tail without sealing it (const
  /// serialization of a database with in-progress appends). Errors if the
  /// tail is empty.
  Result<std::shared_ptr<EncodedStream>> EncodeTailCopy(
      SegmentZone* zone) const;

  /// Recomputes per-segment facts and the synthetic header after in-place
  /// segment-buffer manipulations (width narrowing, dictionary remaps).
  void RefreshSegmentFacts();

  /// Mutable buffer of resident sealed segment `idx` for the Sect. 3.4
  /// in-place manipulations; nullptr for cold or tail segments. Call
  /// RefreshSegmentFacts() when done.
  std::vector<uint8_t>* MutableSegmentBuffer(size_t idx);

  /// Total re-encode count across all seals (import telemetry).
  int encoding_changes() const;
  /// Total bytes written by segment encoders, rewrites included.
  uint64_t bytes_written() const;

 private:
  struct Slot {
    SegmentShape shape;
    std::shared_ptr<EncodedStream> stream;  // null while cold
    Loader loader;                          // set for cold segments
    bool cold = false;
    bool loading = false;
  };

  Status SealLocked(const Lane* values, uint64_t count);
  void RefreshHeaderLocked();
  Result<std::shared_ptr<EncodedStream>> StreamAtLocked(
      std::unique_lock<std::mutex>* lock, size_t idx) const;
  /// Index of the slot containing `row`; slots_.size() for tail rows.
  size_t SlotForRowLocked(uint64_t row) const;
  Status EnsureCodeTableLocked(std::unique_lock<std::mutex>* lock) const;

  DynamicEncoderOptions options_;
  uint64_t target_rows_;
  ChargeHook charge_;

  mutable std::mutex mu_;
  mutable std::condition_variable cv_;
  std::vector<Slot> slots_;
  uint64_t sealed_rows_ = 0;
  std::vector<Lane> tail_;
  int changes_ = 0;
  uint64_t bytes_written_ = 0;

  struct CodeTable {
    bool valid = false;
    std::vector<Lane> entries;             // global code -> decoded lane
    std::vector<std::vector<Lane>> remap;  // per segment: local -> global
  };
  mutable std::optional<CodeTable> codes_;
};

}  // namespace tde

#endif  // TDE_STORAGE_SEGMENT_SEGMENTED_STREAM_H_
