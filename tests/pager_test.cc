#include "src/storage/pager/format.h"

#include <cstdio>
#include <cstdlib>
#include <thread>

#include <gtest/gtest.h>

#include "src/core/engine.h"
#include "src/exec/flow_table.h"
#include "src/exec/table_scan.h"
#include "src/observe/metrics.h"
#include "src/storage/heap_accelerator.h"
#include "src/storage/pager/column_cache.h"
#include "src/storage/pager/crc32c.h"
#include "src/storage/pager/file_reader.h"
#include "tests/test_util.h"

namespace tde {
namespace {

using pager::ColumnCache;
using pager::Crc32c;

std::shared_ptr<Column> MakeIntColumn(const std::string& name,
                                      const std::vector<Lane>& v) {
  ColumnBuildInput in;
  in.name = name;
  in.type = TypeId::kInteger;
  in.lanes = v;
  auto r = BuildColumn(std::move(in), FlowTableOptions{});
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.MoveValue();
}

std::shared_ptr<Column> MakeStringColumn(
    const std::string& name, const std::vector<std::string>& strings) {
  ColumnBuildInput in;
  in.name = name;
  in.type = TypeId::kString;
  in.heap = std::make_shared<StringHeap>();
  HeapAccelerator acc(in.heap.get());
  for (const auto& s : strings) in.lanes.push_back(acc.Add(s));
  in.accel_active = true;
  in.accel_distinct = acc.distinct_count();
  in.accel_arrived_sorted = acc.arrived_sorted();
  auto r = BuildColumn(std::move(in), FlowTableOptions{});
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.MoveValue();
}

/// Indexes into an explicit fixed-width dictionary (array compression).
std::shared_ptr<Column> MakeDictColumn(const std::string& name,
                                       const std::vector<Lane>& dict_values,
                                       const std::vector<Lane>& indexes) {
  auto col = MakeIntColumn(name, indexes);
  auto d = std::make_shared<ArrayDictionary>();
  d->type = TypeId::kInteger;
  d->values = dict_values;
  d->sorted = true;
  col->set_array_dict(std::move(d));
  col->set_compression(CompressionKind::kArrayDict);
  return col;
}

Database MakeDatabase() {
  Database db;
  auto t = std::make_shared<Table>("facts");
  t->AddColumn(MakeIntColumn("id", {1, 2, 3, 4, 5}));
  t->AddColumn(MakeIntColumn("v", {90, 80, 70, 60, 50}));
  t->AddColumn(MakeStringColumn("tag", {"b", "a", "b", "c", "a"}));
  t->AddColumn(MakeDictColumn("dim", {100, 200, 300}, {0, 2, 1, 0, 2}));
  db.AddTable(t);
  return db;
}

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

void WriteFile(const std::string& path, const std::vector<uint8_t>& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
}

void CheckFactsTable(const Table& t) {
  ASSERT_EQ(t.num_columns(), 4u);
  EXPECT_EQ(t.rows(), 5u);

  auto id = t.ColumnByName("id").value();
  std::vector<Lane> lanes(5);
  ASSERT_TRUE(id->GetLanes(0, 5, lanes.data()).ok());
  EXPECT_EQ(lanes, (std::vector<Lane>{1, 2, 3, 4, 5}));
  EXPECT_TRUE(id->metadata().dense);
  EXPECT_TRUE(id->metadata().unique);

  auto tag = t.ColumnByName("tag").value();
  ASSERT_TRUE(tag->GetLanes(0, 5, lanes.data()).ok());
  auto pin = tag->Pin();
  ASSERT_TRUE(pin.ok()) << pin.status().ToString();
  EXPECT_EQ(tag->GetString(lanes[0]), "b");
  EXPECT_EQ(tag->GetString(lanes[3]), "c");
  EXPECT_EQ(tag->GetString(lanes[4]), "a");

  auto dim = t.ColumnByName("dim").value();
  ASSERT_TRUE(dim->GetLanes(0, 5, lanes.data()).ok());
  auto dim_pin = dim->Pin();
  ASSERT_TRUE(dim_pin.ok());
  const ArrayDictionary* d = dim->array_dict();
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->values[static_cast<size_t>(lanes[1])], 300);
  EXPECT_EQ(d->values[static_cast<size_t>(lanes[4])], 300);
}

TEST(Crc32cTest, KnownVectors) {
  // RFC 3720 test vector: 32 zero bytes.
  std::vector<uint8_t> zeros(32, 0);
  EXPECT_EQ(Crc32c(zeros.data(), zeros.size()), 0x8A9136AAu);
  const char* s = "123456789";
  EXPECT_EQ(Crc32c(reinterpret_cast<const uint8_t*>(s), 9), 0xE3069283u);
  EXPECT_EQ(Crc32c(nullptr, 0), 0u);
}

TEST(FileReaderTest, BytesBackendIsBoundsCheckedLikeAFile) {
  auto r = pager::FileReader::FromBytes({1, 2, 3, 4, 5});
  EXPECT_EQ(r->size(), 5u);
  EXPECT_FALSE(r->mmapped());
  auto span = r->Read(1, 3, nullptr);
  ASSERT_TRUE(span.ok()) << span.status().ToString();
  EXPECT_EQ(std::vector<uint8_t>(span.value().begin(), span.value().end()),
            (std::vector<uint8_t>{2, 3, 4}));
  EXPECT_EQ(r->Read(3, 3, nullptr).status().code(), StatusCode::kIOError);
  EXPECT_EQ(r->Read(UINT64_MAX, 1, nullptr).status().code(),
            StatusCode::kIOError);
}

TEST(FormatV2, EagerRoundTripOfAnInMemoryImage) {
  Database db = MakeDatabase();
  std::vector<uint8_t> bytes;
  ASSERT_TRUE(pager::SerializeDatabaseV2(db, &bytes).ok());

  // The image goes through the one opener (bytes-backed reader), then
  // every column is warmed: an eager load.
  auto back = testutil::LoadImage(std::move(bytes));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  auto t = back.value().GetTable("facts");
  ASSERT_TRUE(t.ok());
  for (size_t i = 0; i < t.value()->num_columns(); ++i) {
    EXPECT_FALSE(t.value()->column(i).cold());
  }
  CheckFactsTable(*t.value());
}

TEST(FormatV2, LazyOpenRoundTrip) {
  const std::string path = TempPath("pager_roundtrip.tde");
  ASSERT_TRUE(pager::WriteDatabaseV2(MakeDatabase(), path).ok());

  auto cache = std::make_shared<ColumnCache>(64ull << 20);
  auto db = pager::OpenDatabaseV2(path, cache);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  auto t = db.value().GetTable("facts");
  ASSERT_TRUE(t.ok());

  // Everything is cold after an O(directory) open.
  for (size_t i = 0; i < t.value()->num_columns(); ++i) {
    EXPECT_TRUE(t.value()->column(i).cold());
    EXPECT_FALSE(t.value()->column(i).resident());
  }
  CheckFactsTable(*t.value());
  std::remove(path.c_str());
}

TEST(FormatV2, DirectorySurvivesWithoutFaultingData) {
  const std::string path = TempPath("pager_meta.tde");
  ASSERT_TRUE(pager::WriteDatabaseV2(MakeDatabase(), path).ok());
  auto cache = std::make_shared<ColumnCache>(64ull << 20);
  auto db = pager::OpenDatabaseV2(path, cache);
  ASSERT_TRUE(db.ok());
  auto t = db.value().GetTable("facts").value();

  // Planner-facing facts answer from the directory; nothing materializes.
  auto id = t->ColumnByName("id").value();
  EXPECT_EQ(id->rows(), 5u);
  EXPECT_GT(id->PhysicalSize(), 0u);
  EXPECT_EQ(id->LogicalSize(), 40u);
  EXPECT_TRUE(id->metadata().unique);
  (void)id->encoding_type();
  (void)id->TokenWidth();
  for (size_t i = 0; i < t->num_columns(); ++i) {
    EXPECT_FALSE(t->column(i).resident());
  }
  EXPECT_EQ(cache->bytes_resident(), 0u);
  std::remove(path.c_str());
}

TEST(FormatV2, ColdOpenMaterializesOnlyTouchedColumns) {
  // The assertions below read pager counters, which only move with the
  // stats layer on (a TDE_STATS=0 CI pass runs this suite too).
  observe::SetStatsEnabled(true);
  const std::string path = TempPath("pager_cold.tde");
  ASSERT_TRUE(pager::WriteDatabaseV2(MakeDatabase(), path).ok());
  auto& reg = observe::MetricsRegistry::Global();
  reg.Reset();

  auto cache = std::make_shared<ColumnCache>(64ull << 20);
  auto db = pager::OpenDatabaseV2(path, cache);
  ASSERT_TRUE(db.ok());
  auto t = db.value().GetTable("facts").value();

  // Scan 2 of the 4 columns through the real operator.
  TableScanOptions opts;
  opts.columns = {"id", "tag"};
  TableScan scan(t, opts);
  ASSERT_TRUE(scan.Open().ok());
  Block b;
  bool eos = false;
  uint64_t rows = 0;
  while (!eos) {
    ASSERT_TRUE(scan.Next(&b, &eos).ok());
    if (!eos) rows += b.rows();
  }
  scan.Close();
  EXPECT_EQ(rows, 5u);

  EXPECT_TRUE(t->ColumnByName("id").value()->resident());
  EXPECT_TRUE(t->ColumnByName("tag").value()->resident());
  EXPECT_FALSE(t->ColumnByName("v").value()->resident());
  EXPECT_FALSE(t->ColumnByName("dim").value()->resident());
  EXPECT_EQ(reg.GetCounter("pager.misses")->value(), 2u);
  EXPECT_GT(reg.GetGauge("pager.bytes_resident")->value(), 0);
  std::remove(path.c_str());
}

TEST(FormatV2, EvictionUnderTightBudgetStillAnswersCorrectly) {
  const std::string path = TempPath("pager_evict.tde");
  ASSERT_TRUE(pager::WriteDatabaseV2(MakeDatabase(), path).ok());
  auto& reg = observe::MetricsRegistry::Global();
  reg.Reset();

  // A 1-byte budget: every materialization is over budget, so each new
  // load evicts whatever unpinned payload preceded it.
  auto cache = std::make_shared<ColumnCache>(1);
  auto db = pager::OpenDatabaseV2(path, cache);
  ASSERT_TRUE(db.ok());
  auto t = db.value().GetTable("facts").value();

  for (int round = 0; round < 3; ++round) {
    CheckFactsTable(*t);
  }
  EXPECT_GT(reg.GetCounter("pager.evictions")->value(), 0u);
  // With no pins outstanding, at most the last loaded column lingers.
  EXPECT_LE(cache->bytes_resident(),
            t->ColumnByName("tag").value()->PhysicalSize() +
                t->ColumnByName("dim").value()->PhysicalSize());
  std::remove(path.c_str());
}

TEST(FormatV2, CorruptBlobFailsWithStatusNamingTheColumn) {
  Database db = MakeDatabase();
  std::vector<uint8_t> bytes;
  pager::WriteOptionsV2 wopts;
  wopts.page_size = 512;
  ASSERT_TRUE(pager::SerializeDatabaseV2(db, &bytes, wopts).ok());

  // Flip one bit inside the first blob (the "id" stream at the first page).
  std::vector<uint8_t> bad = bytes;
  bad[512 + 9] ^= 0x40;
  const std::string path = TempPath("pager_corrupt.tde");
  WriteFile(path, bad);

  auto cache = std::make_shared<ColumnCache>(64ull << 20);
  auto opened = pager::OpenDatabaseV2(path, cache);
  ASSERT_TRUE(opened.ok()) << "open is O(directory), blobs unread";
  auto t = opened.value().GetTable("facts").value();
  auto id = t->ColumnByName("id").value();
  Lane lane;
  const Status st = id->GetLanes(0, 1, &lane);
  EXPECT_EQ(st.code(), StatusCode::kIOError);
  EXPECT_NE(st.message().find("facts.id"), std::string::npos)
      << st.ToString();
  EXPECT_NE(st.message().find("checksum"), std::string::npos);
  // Untouched columns still answer.
  auto tag = t->ColumnByName("tag").value();
  std::vector<Lane> lanes(5);
  EXPECT_TRUE(tag->GetLanes(0, 5, lanes.data()).ok());
  std::remove(path.c_str());
}

TEST(FormatV2, HeaderAndDirectoryCorruptionFailTheOpen) {
  Database db = MakeDatabase();
  std::vector<uint8_t> bytes;
  ASSERT_TRUE(pager::SerializeDatabaseV2(db, &bytes).ok());

  {  // Header bit flip: checksum catches it.
    std::vector<uint8_t> bad = bytes;
    bad[20] ^= 1;
    EXPECT_FALSE(pager::ParseDirectoryV2(bad).ok());
  }
  {  // Directory bit flip (last byte of the file is directory tail).
    std::vector<uint8_t> bad = bytes;
    bad[bad.size() - 1] ^= 1;
    EXPECT_FALSE(pager::ParseDirectoryV2(bad).ok());
  }
  {  // Truncations never crash, always IOError.
    for (size_t keep : {0ul, 7ul, 63ul, 64ul, 1000ul, bytes.size() - 1}) {
      if (keep >= bytes.size()) continue;
      std::vector<uint8_t> bad(bytes.begin(),
                               bytes.begin() + static_cast<ptrdiff_t>(keep));
      EXPECT_FALSE(pager::ParseDirectoryV2(bad).ok()) << keep;
    }
  }
}

TEST(FormatV2, PreadFallbackMatchesMmap) {
  const std::string path = TempPath("pager_pread.tde");
  ASSERT_TRUE(pager::WriteDatabaseV2(MakeDatabase(), path).ok());

  ::setenv("TDE_NO_MMAP", "1", 1);
  auto cache = std::make_shared<ColumnCache>(64ull << 20);
  auto db = pager::OpenDatabaseV2(path, cache);
  ::unsetenv("TDE_NO_MMAP");
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  auto t = db.value().GetTable("facts").value();
  CheckFactsTable(*t);
  std::remove(path.c_str());
}

TEST(FormatV2, ConcurrentQueriesUnderTightBudget) {
  const std::string path = TempPath("pager_threads.tde");
  ASSERT_TRUE(pager::WriteDatabaseV2(MakeDatabase(), path).ok());
  auto cache = std::make_shared<ColumnCache>(1);  // constant churn
  auto db = pager::OpenDatabaseV2(path, cache);
  ASSERT_TRUE(db.ok());
  auto t = db.value().GetTable("facts").value();

  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int w = 0; w < 4; ++w) {
    threads.emplace_back([&] {
      for (int i = 0; i < 50; ++i) {
        std::vector<Lane> lanes(5);
        auto id = t->ColumnByName("id").value();
        auto tag = t->ColumnByName("tag").value();
        if (!id->GetLanes(0, 5, lanes.data()).ok() ||
            lanes != std::vector<Lane>({1, 2, 3, 4, 5})) {
          ++failures;
        }
        auto pin = tag->Pin();
        if (!pin.ok() || !tag->GetLanes(0, 5, lanes.data()).ok() ||
            tag->GetString(lanes[3]) != "c") {
          ++failures;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  std::remove(path.c_str());
}

TEST(FormatV2, SaveOfLazyDatabaseCopiesThrough) {
  const std::string path = TempPath("pager_resave_src.tde");
  const std::string path2 = TempPath("pager_resave_dst.tde");
  ASSERT_TRUE(pager::WriteDatabaseV2(MakeDatabase(), path).ok());
  auto cache = std::make_shared<ColumnCache>(64ull << 20);
  auto db = pager::OpenDatabaseV2(path, cache);
  ASSERT_TRUE(db.ok());

  // Serializing a cold database pins each column in turn.
  ASSERT_TRUE(pager::WriteDatabaseV2(db.value(), path2).ok());
  auto back = pager::OpenDatabaseV2(path2, cache);
  ASSERT_TRUE(back.ok());
  CheckFactsTable(*back.value().GetTable("facts").value());
  std::remove(path.c_str());
  std::remove(path2.c_str());
}

TEST(FormatV2, SaveToSourcePathOfLazyDatabaseKeepsColdReadsValid) {
  const std::string path = TempPath("pager_inplace.tde");
  ASSERT_TRUE(pager::WriteDatabaseV2(MakeDatabase(), path).ok());
  auto cache = std::make_shared<ColumnCache>(64ull << 20);
  auto db = pager::OpenDatabaseV2(path, cache);
  ASSERT_TRUE(db.ok());
  auto t = db.value().GetTable("facts").value();

  // Materialize one column; the rest stay cold against the open file.
  std::vector<Lane> lanes(5);
  ASSERT_TRUE(t->ColumnByName("id").value()->GetLanes(0, 5, lanes.data()).ok());

  // The open→optimize→save flow: rewrite the file the engine is lazily
  // reading from. The temp-file + rename() switch keeps the old inode
  // alive under the engine's mmap/fd, so cold directory offsets stay valid.
  ASSERT_TRUE(pager::WriteDatabaseV2(db.value(), path).ok());
  std::FILE* leftover = std::fopen((path + ".tmp").c_str(), "rb");
  EXPECT_EQ(leftover, nullptr) << "temp file must not survive the rename";
  if (leftover != nullptr) std::fclose(leftover);

  // Still-cold columns fault in through the original mapping.
  CheckFactsTable(*t);

  // Evict everything and re-read: evicted columns also reload correctly
  // after the save (reads go to the original inode, not the new file).
  cache->set_budget_bytes(0);
  for (size_t i = 0; i < t->num_columns(); ++i) {
    EXPECT_FALSE(t->column(i).resident());
  }
  CheckFactsTable(*t);

  // And the rewritten file itself opens clean.
  auto cache2 = std::make_shared<ColumnCache>(64ull << 20);
  auto reopened = pager::OpenDatabaseV2(path, cache2);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  CheckFactsTable(*reopened.value().GetTable("facts").value());
  std::remove(path.c_str());
}

TEST(FormatV2, WarmRacesWithConcurrentReaders) {
  const std::string path = TempPath("pager_warmrace.tde");
  ASSERT_TRUE(pager::WriteDatabaseV2(MakeDatabase(), path).ok());
  for (int round = 0; round < 20; ++round) {
    auto cache = std::make_shared<ColumnCache>(1);  // constant churn
    auto db = pager::OpenDatabaseV2(path, cache);
    ASSERT_TRUE(db.ok());
    auto t = db.value().GetTable("facts").value();
    auto tag = t->ColumnByName("tag").value();

    std::atomic<int> failures{0};
    std::vector<std::thread> readers;
    for (int w = 0; w < 3; ++w) {
      readers.emplace_back([&] {
        for (int i = 0; i < 30; ++i) {
          std::vector<Lane> lanes(5);
          auto pin = tag->Pin();
          if (!pin.ok() || !tag->GetLanes(0, 5, lanes.data()).ok() ||
              tag->GetString(lanes[3]) != "c") {
            ++failures;
          }
          (void)tag->rows();
          (void)tag->PhysicalSize();
          (void)tag->encoding_type();
        }
      });
    }
    // Warm mid-flight, as OptimizeTable would on a live shared table.
    std::thread warmer([&] {
      if (!tag->Warm().ok()) ++failures;
    });
    for (auto& th : readers) th.join();
    warmer.join();
    EXPECT_EQ(failures.load(), 0);
    EXPECT_FALSE(tag->cold());
  }
  std::remove(path.c_str());
}

TEST(FormatV2, ConcurrentLoadsOfDistinctColumnsDoNotSerialize) {
  const std::string path = TempPath("pager_parallel.tde");
  ASSERT_TRUE(pager::WriteDatabaseV2(MakeDatabase(), path).ok());
  auto cache = std::make_shared<ColumnCache>(64ull << 20);
  auto db = pager::OpenDatabaseV2(path, cache);
  ASSERT_TRUE(db.ok());
  auto t = db.value().GetTable("facts").value();

  // Four threads fault in four different columns at once; each load runs
  // its I/O outside the cache lock, and every result must be correct.
  const char* names[] = {"id", "v", "tag", "dim"};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (const char* name : names) {
    threads.emplace_back([&, name] {
      auto col = t->ColumnByName(name).value();
      std::vector<Lane> lanes(5);
      for (int i = 0; i < 20; ++i) {
        if (!col->GetLanes(0, 5, lanes.data()).ok()) ++failures;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  for (const char* name : names) {
    EXPECT_TRUE(t->ColumnByName(name).value()->resident()) << name;
  }
  std::remove(path.c_str());
}

TEST(EngineV2, OpenDatabaseIsLazyAndStatsAreVisibleInSql) {
  Engine engine;
  std::vector<Lane> big(10000);
  for (size_t i = 0; i < big.size(); ++i) big[i] = static_cast<Lane>(i % 7);
  auto t = std::make_shared<Table>("t");
  t->AddColumn(MakeIntColumn("a", big));
  t->AddColumn(MakeIntColumn("b", big));
  engine.database()->AddTable(t);

  const std::string path = TempPath("pager_engine.tde");
  ASSERT_TRUE(engine.SaveDatabase(path).ok());

  observe::SetStatsEnabled(true);  // the test reads pager.misses below
  observe::MetricsRegistry::Global().Reset();
  Engine::OpenOptions oopts;
  oopts.cache_budget_bytes = 32ull << 20;
  auto reopened = Engine::OpenDatabase(path, oopts);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  Engine& e2 = reopened.value();
  ASSERT_NE(e2.column_cache(), nullptr);
  EXPECT_EQ(e2.column_cache()->bytes_resident(), 0u);

  // A single-column aggregate touches only column `a`.
  auto r = e2.ExecuteSql("SELECT SUM(a) AS s FROM t");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  auto t2 = e2.database()->GetTable("t").value();
  EXPECT_TRUE(t2->ColumnByName("a").value()->resident());
  EXPECT_FALSE(t2->ColumnByName("b").value()->resident());

  // The pager metrics are visible through the tde_stats virtual table.
  auto stats = e2.ExecuteSql(
      "SELECT metric, value FROM tde_stats WHERE metric = 'pager.misses'");
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  ASSERT_EQ(stats.value().num_rows(), 1u);
  const Block& sb = stats.value().blocks()[0];
  EXPECT_EQ(sb.columns[1].lanes[0], 1);  // exactly one column materialized
  std::remove(path.c_str());
}

TEST(EngineV2, OptimizeTableDoesNotDetachRejectedForCandidates) {
  Engine engine;
  // Range 65536 (16-bit FOR packing, > the 15-bit dictionary cap) and more
  // distinct values than the dictionary tracker follows, so the encoder
  // picks frame-of-reference and OptimizeTable must reject the column.
  std::vector<Lane> wide(70000);
  for (size_t i = 0; i < wide.size(); ++i) {
    wide[i] = 1000000 + static_cast<Lane>((i * 48271) % 65536);
  }
  auto t = std::make_shared<Table>("w");
  t->AddColumn(MakeIntColumn("a", wide));
  engine.database()->AddTable(t);
  ASSERT_EQ(t->column(0).encoding_type(), EncodingType::kFrameOfReference);
  ASSERT_GT(t->column(0).data()->bits(), 15);

  const std::string path = TempPath("pager_optreject.tde");
  ASSERT_TRUE(engine.SaveDatabase(path).ok());

  Engine::OpenOptions oopts;
  oopts.cache_budget_bytes = 32ull << 20;
  auto reopened = Engine::OpenDatabase(path, oopts);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  Engine& e2 = reopened.value();
  auto converted = e2.OptimizeTable("w");
  ASSERT_TRUE(converted.ok()) << converted.status().ToString();
  EXPECT_EQ(converted.value(), 0);

  // The bit-width peek used a transient pin, not Warm(): the rejected
  // candidate stays cold and its payload still answers to the budget.
  auto col = e2.database()->GetTable("w").value()->ColumnByName("a").value();
  EXPECT_TRUE(col->cold());
  ASSERT_NE(e2.column_cache(), nullptr);
  e2.column_cache()->set_budget_bytes(0);
  EXPECT_FALSE(col->resident());
  std::remove(path.c_str());
}

TEST(EngineV2, WarmPromotesAndDetachesFromCache) {
  const std::string path = TempPath("pager_warm.tde");
  ASSERT_TRUE(pager::WriteDatabaseV2(MakeDatabase(), path).ok());
  auto cache = std::make_shared<ColumnCache>(64ull << 20);
  auto db = pager::OpenDatabaseV2(path, cache);
  ASSERT_TRUE(db.ok());
  auto t = db.value().GetTable("facts").value();
  auto id = t->ColumnByName("id").value();
  ASSERT_TRUE(id->Warm().ok());
  EXPECT_FALSE(id->cold());
  EXPECT_EQ(cache->bytes_resident(), 0u);
  std::vector<Lane> lanes(5);
  ASSERT_TRUE(id->GetLanes(0, 5, lanes.data()).ok());
  EXPECT_EQ(lanes, (std::vector<Lane>{1, 2, 3, 4, 5}));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace tde
