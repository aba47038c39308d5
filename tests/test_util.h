#ifndef TDE_TESTS_TEST_UTIL_H_
#define TDE_TESTS_TEST_UTIL_H_

#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/exec/block.h"
#include "src/exec/flow_table.h"
#include "src/storage/database_file.h"
#include "src/storage/heap_accelerator.h"
#include "src/storage/pager/column_cache.h"
#include "src/storage/pager/file_reader.h"
#include "src/storage/pager/format.h"
#include "src/storage/segment/segmented_stream.h"

namespace tde {
namespace testutil {

/// A flow operator backed by in-memory lanes (column-major).
class VectorSource : public Operator {
 public:
  VectorSource(Schema schema, std::vector<ColumnVector> columns)
      : schema_(std::move(schema)), columns_(std::move(columns)) {}

  static std::unique_ptr<VectorSource> Ints(
      std::vector<std::pair<std::string, std::vector<Lane>>> cols) {
    Schema schema;
    std::vector<ColumnVector> data;
    for (auto& [name, lanes] : cols) {
      schema.AddField({name, TypeId::kInteger});
      ColumnVector cv;
      cv.type = TypeId::kInteger;
      cv.lanes = std::move(lanes);
      data.push_back(std::move(cv));
    }
    return std::make_unique<VectorSource>(std::move(schema), std::move(data));
  }

  /// Adds a string column built from literal values.
  void AddStringColumn(const std::string& name,
                       const std::vector<std::string>& values) {
    schema_.AddField({name, TypeId::kString});
    ColumnVector cv;
    cv.type = TypeId::kString;
    auto heap = std::make_shared<StringHeap>();
    HeapAccelerator acc(heap.get());
    for (const auto& s : values) cv.lanes.push_back(acc.Add(s));
    cv.heap = std::move(heap);
    columns_.push_back(std::move(cv));
  }

  Status Open() override {
    row_ = 0;
    return Status::OK();
  }

  Status Next(Block* block, bool* eos) override {
    const uint64_t total = columns_.empty() ? 0 : columns_[0].lanes.size();
    if (row_ >= total) {
      block->columns.clear();
      *eos = true;
      return Status::OK();
    }
    const size_t take =
        static_cast<size_t>(std::min<uint64_t>(kBlockSize, total - row_));
    block->columns.clear();
    for (const ColumnVector& src : columns_) {
      ColumnVector cv;
      cv.type = src.type;
      cv.heap = src.heap;
      cv.lanes.assign(
          src.lanes.begin() + static_cast<ptrdiff_t>(row_),
          src.lanes.begin() + static_cast<ptrdiff_t>(row_ + take));
      block->columns.push_back(std::move(cv));
    }
    row_ += take;
    *eos = false;
    return Status::OK();
  }

  const Schema& output_schema() const override { return schema_; }

 private:
  Schema schema_;
  std::vector<ColumnVector> columns_;
  uint64_t row_ = 0;
};

/// Flattens one column of drained blocks into a lane vector.
inline std::vector<Lane> Flatten(const std::vector<Block>& blocks,
                                 size_t col) {
  std::vector<Lane> out;
  for (const Block& b : blocks) {
    out.insert(out.end(), b.columns[col].lanes.begin(),
               b.columns[col].lanes.end());
  }
  return out;
}

/// Runs `fn(thread_index)` on `n` threads simultaneously (a start barrier
/// maximizes interleaving) and returns the first failure, prefixed with
/// the failing thread's index so a seeded workload can be replayed:
/// "[thread 3] <status>". OK when every thread succeeded. gtest-free so
/// scheduler/engine stress drivers and benchmarks can share it; in a test,
/// assert `RunConcurrently(...).ok()`.
inline Status RunConcurrently(int n,
                              const std::function<Status(int)>& fn) {
  std::mutex mu;
  std::condition_variable cv;
  int ready = 0;
  bool go = false;
  Status first_failure;
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    threads.emplace_back([&, i]() {
      {
        std::unique_lock<std::mutex> lock(mu);
        if (++ready == n) {
          go = true;
          cv.notify_all();
        } else {
          cv.wait(lock, [&]() { return go; });
        }
      }
      Status st = fn(i);
      if (!st.ok()) {
        std::lock_guard<std::mutex> lock(mu);
        if (first_failure.ok()) {
          first_failure = Status(st.code(), "[thread " + std::to_string(i) +
                                                "] " + std::string(st.message()));
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  return first_failure;
}

/// Drains an operator, aborting on failure (gtest-free so benchmarks can
/// share this header).
inline std::vector<Block> Drain(Operator* op) {
  std::vector<Block> out;
  const Status st = DrainOperator(op, &out);
  if (!st.ok()) {
    std::fprintf(stderr, "Drain failed: %s\n", st.ToString().c_str());
    std::abort();
  }
  return out;
}

/// Loads an opened database whole: Column::Warm() on every column, plus
/// a fault-in of every segment of the segmented ones (Warm leaves those to
/// first touch), so each blob is read and checksum-verified now. Returns
/// the first failure.
inline Status WarmAll(const Database& db) {
  for (const auto& t : db.tables()) {
    for (size_t i = 0; i < t->num_columns(); ++i) {
      Column* col = t->mutable_column(i);
      TDE_RETURN_NOT_OK(col->Warm());
      const EncodedStream* stream = col->data();
      if (stream == nullptr || !stream->segmented()) continue;
      const auto* seg = static_cast<const SegmentedStream*>(stream);
      const std::vector<SegmentShape> shapes = seg->Shapes();
      for (size_t s = 0; s < shapes.size(); ++s) {
        if (shapes[s].open_tail) continue;
        TDE_RETURN_NOT_OK(seg->SegmentStreamForRead(s).status());
      }
    }
  }
  return Status::OK();
}

/// Reads a database image held in memory through the one opener
/// (pager::OpenDatabaseV2 over a bytes-backed FileReader) and loads it
/// whole with WarmAll.
inline Result<Database> LoadImage(std::vector<uint8_t> bytes) {
  auto cache = std::make_shared<pager::ColumnCache>(UINT64_MAX);
  TDE_ASSIGN_OR_RETURN(
      Database db,
      pager::OpenDatabaseV2(pager::FileReader::FromBytes(std::move(bytes)),
                            std::move(cache)));
  TDE_RETURN_NOT_OK(WarmAll(db));
  return db;
}

}  // namespace testutil
}  // namespace tde

#endif  // TDE_TESTS_TEST_UTIL_H_
