#include "src/storage/database_file.h"

#include <cstdio>

#include <gtest/gtest.h>

#include "src/exec/flow_table.h"
#include "src/storage/heap_accelerator.h"
#include "src/storage/pager/column_cache.h"
#include "src/storage/pager/format.h"
#include "tests/test_util.h"

namespace tde {
namespace {

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

TEST(Column, WidthAndSizes) {
  auto col = MakeIntColumn("x", {1, 2, 3, 4, 5, 6, 7, 8});
  EXPECT_EQ(col->rows(), 8u);
  EXPECT_LE(col->TokenWidth(), 8);
  EXPECT_GT(col->PhysicalSize(), 0u);
  EXPECT_EQ(col->LogicalSize(), 64u);
}

TEST(Column, GetLanesDecodes) {
  std::vector<Lane> v = {10, 20, 30, 40};
  auto col = MakeIntColumn("x", v);
  std::vector<Lane> got(4);
  ASSERT_TRUE(col->GetLanes(0, 4, got.data()).ok());
  EXPECT_EQ(got, v);
}

TEST(Table, ColumnLookup) {
  Table t("demo");
  t.AddColumn(MakeIntColumn("a", {1}));
  t.AddColumn(MakeIntColumn("b", {2}));
  EXPECT_EQ(t.num_columns(), 2u);
  EXPECT_EQ(t.rows(), 1u);
  EXPECT_TRUE(t.ColumnIndex("b").ok());
  EXPECT_EQ(t.ColumnIndex("b").value(), 1u);
  EXPECT_EQ(t.ColumnIndex("zzz").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(t.GetSchema().ToString(), "(a: integer, b: integer)");
}

TEST(DatabaseFile, RoundTripsTablesColumnsAndMetadata) {
  Database db;
  auto t = std::make_shared<Table>("facts");
  t->AddColumn(MakeIntColumn("id", {1, 2, 3, 4, 5}));
  t->AddColumn(MakeIntColumn("v", {9, 9, 9, 9, 9}));
  t->AddColumn(MakeStringColumn("tag", {"b", "a", "b", "c", "a"}));
  db.AddTable(t);

  std::vector<uint8_t> bytes;
  ASSERT_TRUE(pager::SerializeDatabaseV2(db, &bytes).ok());
  auto back = testutil::LoadImage(std::move(bytes));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ASSERT_EQ(back.value().num_tables(), 1u);
  auto ft = back.value().GetTable("facts").value();
  EXPECT_EQ(ft->rows(), 5u);
  ASSERT_EQ(ft->num_columns(), 3u);

  // Metadata survives: id was dense/unique/sorted.
  auto id = ft->ColumnByName("id").value();
  EXPECT_TRUE(id->metadata().dense);
  EXPECT_TRUE(id->metadata().unique);
  EXPECT_EQ(id->metadata().min_value, 1);
  EXPECT_EQ(id->metadata().max_value, 5);

  // String column resolves through its restored heap.
  auto tag = ft->ColumnByName("tag").value();
  std::vector<Lane> lanes(5);
  ASSERT_TRUE(tag->GetLanes(0, 5, lanes.data()).ok());
  EXPECT_EQ(tag->GetString(lanes[0]), "b");
  EXPECT_EQ(tag->GetString(lanes[3]), "c");
}

TEST(DatabaseFile, SingleFileOnDisk) {
  Database db;
  auto t = std::make_shared<Table>("t");
  t->AddColumn(MakeIntColumn("x", {1, 2, 3}));
  db.AddTable(t);
  const std::string path = ::testing::TempDir() + "/tde_test.tde";
  ASSERT_TRUE(pager::WriteDatabaseV2(db, path).ok());
  auto back = pager::OpenDatabaseV2(
      path, std::make_shared<pager::ColumnCache>(1 << 20));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back.value().GetTable("t").value()->rows(), 3u);
  std::remove(path.c_str());
}

TEST(DatabaseFile, RejectsGarbage) {
  std::vector<uint8_t> garbage = {1, 2, 3, 4, 5, 6, 7, 8, 9};
  EXPECT_EQ(testutil::LoadImage(garbage).status().code(),
            StatusCode::kIOError);
}

TEST(DatabaseFile, RejectsTruncation) {
  Database db;
  auto t = std::make_shared<Table>("t");
  t->AddColumn(MakeIntColumn("x", {1, 2, 3}));
  db.AddTable(t);
  std::vector<uint8_t> bytes;
  ASSERT_TRUE(pager::SerializeDatabaseV2(db, &bytes).ok());
  bytes.resize(bytes.size() / 2);
  EXPECT_FALSE(testutil::LoadImage(bytes).ok());
}

TEST(DatabaseFile, CompressionShrinksTheSingleFileCopy) {
  // Sect. 2.3.3: the single-file copy is unavoidable; encodings shrink it.
  // Both columns stay monolithic whatever TDE_SEGMENT_ROWS the suite runs
  // under: every segment blob is padded to a page, which at tiny segment
  // sizes outweighs the encoding savings this test is about.
  std::vector<Lane> v(100000);
  for (size_t i = 0; i < v.size(); ++i) v[i] = static_cast<Lane>(i % 100);
  auto build = [&](bool encodings) {
    ColumnBuildInput in;
    in.name = "x";
    in.type = TypeId::kInteger;
    in.lanes = v;
    FlowTableOptions opt;
    opt.enable_encodings = encodings;
    opt.segment_rows = 1 << 20;
    auto t = std::make_shared<Table>(encodings ? "e" : "u");
    t->AddColumn(BuildColumn(std::move(in), opt).MoveValue());
    Database db;
    db.AddTable(t);
    return db;
  };
  const Database db_enc = build(true);
  const Database db_raw = build(false);

  std::vector<uint8_t> enc_bytes, raw_bytes;
  ASSERT_TRUE(pager::SerializeDatabaseV2(db_enc, &enc_bytes).ok());
  ASSERT_TRUE(pager::SerializeDatabaseV2(db_raw, &raw_bytes).ok());
  EXPECT_LT(enc_bytes.size() * 4, raw_bytes.size());
}

}  // namespace
}  // namespace tde
