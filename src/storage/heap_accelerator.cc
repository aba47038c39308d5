#include "src/storage/heap_accelerator.h"

namespace tde {

HeapAccelerator::HeapAccelerator(StringHeap* heap, uint64_t give_up_threshold)
    : heap_(heap), threshold_(give_up_threshold) {
  slots_.resize(1u << 10);
  mask_ = slots_.size() - 1;
}

Lane HeapAccelerator::Add(std::string_view s) {
  Lane token;
  if (!active_) {
    token = heap_->Add(s);
  } else {
    const uint64_t h = CollationHash(Collation::kBinary, s);
    token = Probe(s, h);
    if (distinct_ > threshold_) {
      // Past the threshold hashing stops paying for itself (Sect. 5.1.4).
      active_ = false;
      slots_.clear();
      slots_.shrink_to_fit();
    }
  }
  if (have_prev_ && arrived_sorted_) {
    if (Collate(heap_->collation(), heap_->Get(prev_token_), heap_->Get(token)) >
        0) {
      arrived_sorted_ = false;
    }
  }
  prev_token_ = token;
  have_prev_ = true;
  return token;
}

void HeapAccelerator::IndexExisting() {
  arrived_sorted_ = false;
  for (const Lane token : heap_->AllTokens()) {
    const std::string_view s = heap_->Get(token);
    const uint64_t h = CollationHash(Collation::kBinary, s);
    if ((distinct_ + 1) * 2 > slots_.size()) Grow();
    Slot* slot = Find(s, h);
    if (slot->used) continue;
    *slot = {token, h, true};
    ++distinct_;
  }
}

HeapAccelerator::Slot* HeapAccelerator::Find(std::string_view s,
                                             uint64_t hash) {
  uint64_t idx = hash & mask_;
  while (slots_[idx].used) {
    if (slots_[idx].hash == hash && heap_->Get(slots_[idx].token) == s) {
      break;
    }
    idx = (idx + 1) & mask_;
  }
  return &slots_[idx];
}

Lane HeapAccelerator::Probe(std::string_view s, uint64_t hash) {
  if ((distinct_ + 1) * 2 > slots_.size()) Grow();
  Slot* slot = Find(s, hash);
  if (slot->used) return slot->token;
  const Lane token = heap_->Add(s);
  *slot = {token, hash, true};
  ++distinct_;
  return token;
}

void HeapAccelerator::Grow() {
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(old.size() * 2, Slot{});
  mask_ = slots_.size() - 1;
  for (const Slot& s : old) {
    if (!s.used) continue;
    uint64_t idx = s.hash & mask_;
    while (slots_[idx].used) idx = (idx + 1) & mask_;
    slots_[idx] = s;
  }
}

}  // namespace tde
