#ifndef TDE_STORAGE_HEAP_ACCELERATOR_H_
#define TDE_STORAGE_HEAP_ACCELERATOR_H_

#include <vector>

#include "src/storage/string_heap.h"

namespace tde {

/// The heap accelerator (Sect. 5.1.4): a hash table of every string seen so
/// far, keeping the heap minimal and tokens *distinct* for columns with
/// small (< 2^31) domains. Maintaining the table is an import hot spot, but
/// the reduced disk I/O pays for it. The accelerator gives up once the
/// element count passes the threshold (scaled down here; the TDE's is 2^31).
///
/// It also tracks two fortuitous statistics the paper calls out (Sect. 6.4):
/// the domain cardinality, and whether strings arrived in collation order —
/// the only metadata available when encodings are off.
class HeapAccelerator {
 public:
  /// `heap` must outlive the accelerator.
  explicit HeapAccelerator(StringHeap* heap,
                           uint64_t give_up_threshold = uint64_t{1} << 31);

  /// Returns the token for `s`, appending to the heap only if unseen.
  /// After the accelerator has given up, every call appends.
  Lane Add(std::string_view s);

  /// Indexes the entries the heap already holds (the first of equal
  /// strings wins), so Add hands out their tokens instead of appending
  /// duplicates: how appends to an imported column keep one token per
  /// string. O(heap) once. Arrival order is not tracked afterwards
  /// (arrived_sorted() turns false).
  void IndexExisting();

  /// False once the element threshold was passed.
  bool active() const { return active_; }

  uint64_t distinct_count() const { return distinct_; }

  /// True while strings were inserted in non-descending collation order.
  bool arrived_sorted() const { return arrived_sorted_; }

 private:
  struct Slot {
    Lane token;
    uint64_t hash;
    bool used = false;
  };

  void Grow();
  /// The slot holding `s`, or the empty slot where it belongs.
  Slot* Find(std::string_view s, uint64_t hash);
  Lane Probe(std::string_view s, uint64_t hash);

  StringHeap* heap_;
  uint64_t threshold_;
  std::vector<Slot> slots_;
  uint64_t mask_;
  uint64_t distinct_ = 0;
  bool active_ = true;
  bool arrived_sorted_ = true;
  bool have_prev_ = false;
  Lane prev_token_ = 0;
};

}  // namespace tde

#endif  // TDE_STORAGE_HEAP_ACCELERATOR_H_
