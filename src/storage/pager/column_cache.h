#ifndef TDE_STORAGE_PAGER_COLUMN_CACHE_H_
#define TDE_STORAGE_PAGER_COLUMN_CACHE_H_

#include <condition_variable>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/common/status.h"
#include "src/storage/pager/pager_types.h"

namespace tde {

class Column;

namespace observe {
class Counter;
class Gauge;
}  // namespace observe

namespace pager {

/// Byte-budget LRU cache over cold columns' materialized payloads.
///
/// The budget is charged in *compressed* bytes (the blobs' on-disk size):
/// keeping data compressed across the storage/execution boundary is exactly
/// where compression pays twice (MorphStore; Lin et al.), because the same
/// budget then holds several times the logical data.
///
/// Residency protocol: a cold Column's payload is a shared_ptr owned by the
/// column while resident; executing queries pin it by copying the pointer
/// (Column::Pin). Eviction walks the LRU cold end and drops only payloads
/// whose sole owner is the column itself, so a query never loses data under
/// its feet — a pinned column simply stays resident past the budget until
/// its pins drain.
///
/// Thread-safe. The cache mutex covers bookkeeping only; blob I/O,
/// checksumming and decoding happen outside it with a per-column in-flight
/// set, so concurrent touchers of the *same* column wait for its one
/// materialization while touches of other columns (hits or loads) proceed
/// in parallel. Corruption — checksum mismatch, truncated blob, undecodable
/// stream — surfaces as a Status naming the table and column, never a
/// crash.
///
/// Exported metrics (MetricsRegistry::Global, visible via tde_stats):
///   pager.hits / pager.misses       materializations avoided / performed
///   pager.evictions                 payloads reclaimed under budget
///   pager.bytes_read                blob bytes fetched from the file
///   pager.checksum_failures         corrupt blobs detected
///   pager.bytes_resident (gauge)    compressed bytes currently cached
class ColumnCache {
 public:
  explicit ColumnCache(uint64_t budget_bytes);
  ~ColumnCache();

  ColumnCache(const ColumnCache&) = delete;
  ColumnCache& operator=(const ColumnCache&) = delete;

  /// Ensures `col` is resident: LRU-bumps a resident column (hit), loads
  /// its blobs otherwise (miss), then evicts past-budget victims.
  Status Ensure(const Column* col);

  /// Drops a column's cache entry (column destroyed or warmed). The payload
  /// itself lives on as long as the column/pins reference it.
  void Forget(const Column* col);

  /// Charge hook for segment-granular faults: a cold segment of `col` just
  /// materialized `bytes` compressed bytes. Bumps the column's entry and
  /// LRU position and evicts past-budget victims. No-op if the column has
  /// no entry (warmed or forgotten — it owns its bytes then).
  void AddSegmentBytes(const Column* col, uint64_t bytes);

  uint64_t bytes_resident() const;
  uint64_t budget_bytes() const;
  /// Adjusts the budget and immediately evicts down to it.
  void set_budget_bytes(uint64_t budget);

  /// One resident entry as seen by introspection. The column pointer stays
  /// valid as long as the caller holds the owning Database's tables (cache
  /// entries are erased before their column is destroyed).
  struct EntrySnapshot {
    const Column* column = nullptr;
    uint64_t bytes = 0;
  };
  /// Residency snapshot in LRU order, most recently used first.
  std::vector<EntrySnapshot> EntriesSnapshot() const;

 private:
  void EvictLocked(const Column* keep);

  mutable std::mutex mu_;
  /// Front = most recently used. Entries are resident cold columns.
  std::list<const Column*> lru_;
  struct Entry {
    std::list<const Column*>::iterator lru_pos;
    uint64_t bytes = 0;
  };
  std::unordered_map<const Column*, Entry> entries_;
  /// Columns whose materialization is in flight outside the lock; waiters
  /// block on `load_cv_` until the loader finishes (or fails, in which
  /// case a waiter retries the load itself).
  std::unordered_set<const Column*> loading_;
  std::condition_variable load_cv_;
  uint64_t bytes_resident_ = 0;
  uint64_t budget_ = 0;

  // Hits/misses/bytes_read flow through observe::QueryCount so they are
  // attributed to the faulting query; only the cache-global observations
  // keep direct registry handles.
  observe::Counter* evictions_;
  observe::Counter* checksum_failures_;
  observe::Gauge* bytes_resident_gauge_;
};

}  // namespace pager
}  // namespace tde

#endif  // TDE_STORAGE_PAGER_COLUMN_CACHE_H_
