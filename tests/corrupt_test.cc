// Failure injection: corrupt or truncated serialized streams and database
// files must fail with clean IOError statuses, never fault.

#include <cstdio>
#include <random>

#include <gtest/gtest.h>

#include "src/core/engine.h"
#include "src/encoding/stream.h"
#include "src/exec/flow_table.h"
#include "src/storage/database_file.h"
#include "src/storage/pager/column_cache.h"
#include "src/storage/pager/crc32c.h"
#include "src/storage/pager/format.h"
#include "src/textscan/text_scan.h"
#include "src/storage/heap_accelerator.h"
#include "tests/test_util.h"

namespace tde {
namespace {

std::vector<uint8_t> GoodStream(EncodingType type) {
  EncodingStats stats;
  std::vector<Lane> v(3000);
  for (size_t i = 0; i < v.size(); ++i) {
    v[i] = type == EncodingType::kAffine ? static_cast<Lane>(i)
                                         : static_cast<Lane>(i % 40);
  }
  stats.Update(v.data(), v.size());
  auto s = EncodedStream::Create(type, 8, true, stats, 0).MoveValue();
  EXPECT_TRUE(s->Append(v.data(), v.size()).ok());
  EXPECT_TRUE(s->Finalize().ok());
  return s->buffer();
}

class CorruptStream : public ::testing::TestWithParam<EncodingType> {};

TEST_P(CorruptStream, GoodBufferOpens) {
  EXPECT_TRUE(EncodedStream::Open(GoodStream(GetParam())).ok());
}

TEST_P(CorruptStream, TruncatedHeaderRejected) {
  auto buf = GoodStream(GetParam());
  buf.resize(16);
  EXPECT_EQ(EncodedStream::Open(buf).status().code(), StatusCode::kIOError);
}

TEST_P(CorruptStream, TruncatedDataRejected) {
  auto buf = GoodStream(GetParam());
  if (GetParam() == EncodingType::kAffine) GTEST_SKIP();  // no data section
  buf.resize(buf.size() - (buf.size() - 40) / 2);
  EXPECT_EQ(EncodedStream::Open(buf).status().code(), StatusCode::kIOError);
}

TEST_P(CorruptStream, BadAlgorithmByteRejected) {
  auto buf = GoodStream(GetParam());
  buf[20] = 99;
  EXPECT_FALSE(EncodedStream::Open(buf).ok());
}

TEST_P(CorruptStream, BadWidthRejected) {
  auto buf = GoodStream(GetParam());
  buf[21] = 3;
  EXPECT_EQ(EncodedStream::Open(buf).status().code(), StatusCode::kIOError);
}

TEST_P(CorruptStream, HugeDataOffsetRejected) {
  auto buf = GoodStream(GetParam());
  HeaderView(&buf).set_data_offset(uint64_t{1} << 40);
  EXPECT_EQ(EncodedStream::Open(buf).status().code(), StatusCode::kIOError);
}

TEST_P(CorruptStream, InflatedLogicalSizeRejected) {
  auto buf = GoodStream(GetParam());
  if (GetParam() == EncodingType::kAffine) GTEST_SKIP();
  HeaderView(&buf).set_logical_size(uint64_t{1} << 30);
  EXPECT_EQ(EncodedStream::Open(buf).status().code(), StatusCode::kIOError);
}

TEST_P(CorruptStream, BadBlockSizeRejected) {
  auto buf = GoodStream(GetParam());
  HeaderView(&buf).set_block_size(7);  // not a multiple of 32
  EXPECT_EQ(EncodedStream::Open(buf).status().code(), StatusCode::kIOError);
}

INSTANTIATE_TEST_SUITE_P(
    AllEncodings, CorruptStream,
    ::testing::Values(EncodingType::kUncompressed,
                      EncodingType::kFrameOfReference, EncodingType::kDelta,
                      EncodingType::kDictionary, EncodingType::kAffine,
                      EncodingType::kRunLength),
    [](const auto& info) {
      std::string n = EncodingName(info.param);
      for (char& c : n) {
        if (c == '-') c = '_';
      }
      return n;
    });

TEST(CorruptStream, DictBitsPastLimitRejected) {
  auto buf = GoodStream(EncodingType::kDictionary);
  HeaderView(&buf).set_bits(16);
  EXPECT_EQ(EncodedStream::Open(buf).status().code(), StatusCode::kIOError);
}

TEST(CorruptStream, DictEntryCountPastCapacityRejected) {
  auto buf = GoodStream(EncodingType::kDictionary);
  HeaderView(&buf).SetU64(24, uint64_t{1} << 20);
  EXPECT_EQ(EncodedStream::Open(buf).status().code(), StatusCode::kIOError);
}

TEST(CorruptStream, RleZeroFieldWidthRejected) {
  auto buf = GoodStream(EncodingType::kRunLength);
  buf[24] = 0;
  EXPECT_EQ(EncodedStream::Open(buf).status().code(), StatusCode::kIOError);
}

using testutil::LoadImage;

/// Parametrized over the directory version: the sweeps must hold for the
/// paged, checksummed v2 layout and the segmented v3 directory extension
/// alike. Each image is read through the one opener and loaded whole
/// (LoadImage), so every blob is checksum-verified.
class CorruptDatabase : public ::testing::TestWithParam<int> {
 protected:
  std::vector<uint8_t> GoodDatabase() {
    Database db;
    auto t = std::make_shared<Table>("t");
    FlowTableOptions fopt;
    // v3: segment the columns (2000 rows / 400 = 5 segments each). v2
    // pins a threshold above the row count so the fixture stays
    // monolithic whatever TDE_SEGMENT_ROWS the suite runs under.
    fopt.segment_rows = GetParam() == 3 ? 400 : 1 << 20;
    ColumnBuildInput in;
    in.name = "x";
    in.type = TypeId::kInteger;
    for (int i = 0; i < 2000; ++i) in.lanes.push_back(i % 10);
    t->AddColumn(BuildColumn(std::move(in), fopt).MoveValue());

    ColumnBuildInput sin;
    sin.name = "s";
    sin.type = TypeId::kString;
    sin.heap = std::make_shared<StringHeap>();
    HeapAccelerator acc(sin.heap.get());
    for (int i = 0; i < 2000; ++i) {
      sin.lanes.push_back(acc.Add("v" + std::to_string(i % 5)));
    }
    sin.accel_active = true;
    sin.accel_distinct = acc.distinct_count();
    sin.accel_arrived_sorted = acc.arrived_sorted();
    t->AddColumn(BuildColumn(std::move(sin), fopt).MoveValue());
    db.AddTable(t);
    // Small pages keep the sweep positions dense across real content.
    pager::WriteOptionsV2 opts;
    opts.page_size = 512;
    std::vector<uint8_t> bytes;
    EXPECT_TRUE(pager::SerializeDatabaseV2(db, &bytes, opts).ok());
    return bytes;
  }
};

TEST_P(CorruptDatabase, TruncationAtManyOffsetsFailsCleanly) {
  const auto good = GoodDatabase();
  ASSERT_TRUE(LoadImage(good).ok());
  for (size_t cut = 0; cut < good.size(); cut += good.size() / 37 + 1) {
    std::vector<uint8_t> bad(good.begin(),
                             good.begin() + static_cast<ptrdiff_t>(cut));
    const auto r = LoadImage(bad);
    EXPECT_FALSE(r.ok()) << "cut at " << cut;
  }
}

TEST_P(CorruptDatabase, BitFlipsInStreamHeadersFailCleanlyOrRoundTrip) {
  const auto good = GoodDatabase();
  // Flip a byte at a sweep of positions; each must either fail cleanly or
  // produce a database that can still be walked without faulting.
  for (size_t pos = 8; pos < good.size(); pos += good.size() / 53 + 1) {
    std::vector<uint8_t> bad = good;
    bad[pos] ^= 0x5A;
    auto r = LoadImage(bad);
    if (!r.ok()) continue;
    for (const auto& t : r.value().tables()) {
      for (size_t c = 0; c < t->num_columns(); ++c) {
        const Column& col = t->column(c);
        std::vector<Lane> lanes(
            std::min<uint64_t>(col.rows(), 64));
        (void)col.GetLanes(0, lanes.size(), lanes.data());
      }
    }
  }
}

TEST_P(CorruptDatabase, DenseBitFlipsNearTheFrontFailCleanlyOrRoundTrip) {
  // The first kilobyte holds the format's most load-bearing bytes: the
  // entire file header and the first column blobs. Walk it exhaustively
  // with every single-bit flip.
  const auto good = GoodDatabase();
  const size_t limit = std::min<size_t>(good.size(), 1024);
  for (size_t pos = 0; pos < limit; ++pos) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<uint8_t> bad = good;
      bad[pos] ^= static_cast<uint8_t>(1u << bit);
      auto r = LoadImage(bad);
      if (!r.ok()) continue;
      for (const auto& t : r.value().tables()) {
        for (size_t c = 0; c < t->num_columns(); ++c) {
          const Column& col = t->column(c);
          std::vector<Lane> lanes(std::min<uint64_t>(col.rows(), 16));
          (void)col.GetLanes(0, lanes.size(), lanes.data());
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Formats, CorruptDatabase,
                         ::testing::Values(2, 3),
                         [](const auto& info) {
                           return "v" + std::to_string(info.param);
                         });

TEST(CorruptDatabaseV2, BlobCorruptionIsCaughtByChecksumOnEagerLoad) {
  // v2 blob bytes are CRC-protected: any flip inside a column blob must be
  // rejected at materialization, naming the column it hit.
  Database db;
  auto t = std::make_shared<Table>("t");
  ColumnBuildInput in;
  in.name = "x";
  in.type = TypeId::kInteger;
  for (int i = 0; i < 2000; ++i) in.lanes.push_back(i);
  FlowTableOptions fopt;
  fopt.segment_rows = 1 << 20;  // monolithic whatever TDE_SEGMENT_ROWS is
  t->AddColumn(BuildColumn(std::move(in), fopt).MoveValue());
  db.AddTable(t);
  pager::WriteOptionsV2 opts;
  opts.page_size = 512;
  std::vector<uint8_t> good;
  ASSERT_TRUE(pager::SerializeDatabaseV2(db, &good, opts).ok());

  // Flip a byte inside the actual stream blob of "t.x" (located through
  // the directory — page padding is not CRC-covered, blob bytes are).
  const auto dir = pager::ParseDirectoryV2(good);
  ASSERT_TRUE(dir.ok());
  const pager::BlobRef& blob = dir.value().tables[0].columns[0].stream;
  ASSERT_GT(blob.length, 0u);
  std::vector<uint8_t> bad = good;
  bad[blob.offset + blob.length / 2] ^= 0x01;
  const auto r = LoadImage(bad);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIOError);
  EXPECT_NE(r.status().ToString().find("t.x"), std::string::npos)
      << r.status().ToString();
}

// ------------------------------------------------- v3 segment corruption

std::vector<uint8_t> GoodSegmentedV3() {
  Database db;
  auto t = std::make_shared<Table>("t");
  ColumnBuildInput in;
  in.name = "x";
  in.type = TypeId::kInteger;
  for (int i = 0; i < 2000; ++i) in.lanes.push_back(i);
  FlowTableOptions fopt;
  fopt.segment_rows = 400;
  auto col = BuildColumn(std::move(in), fopt);
  EXPECT_TRUE(col.ok()) << col.status().ToString();
  t->AddColumn(col.MoveValue());
  db.AddTable(t);
  pager::WriteOptionsV2 opts;
  opts.page_size = 512;
  std::vector<uint8_t> bytes;
  EXPECT_TRUE(pager::SerializeDatabaseV2(db, &bytes, opts).ok());
  return bytes;
}

TEST(CorruptDatabaseV3, SegmentBlobCorruptionCaughtByChecksum) {
  const auto good = GoodSegmentedV3();
  const auto dir = pager::ParseDirectoryV2(good);
  ASSERT_TRUE(dir.ok()) << dir.status().ToString();
  EXPECT_EQ(dir.value().version, pager::kFormatVersion3);
  const auto& segs = dir.value().tables[0].columns[0].segments;
  ASSERT_EQ(segs.size(), 5u);
  ASSERT_GT(segs[2].blob.length, 0u);

  // Flip one byte in the middle of segment 2's blob: the eager load must
  // reject the file, naming the column.
  std::vector<uint8_t> bad = good;
  bad[segs[2].blob.offset + segs[2].blob.length / 2] ^= 0x01;
  const auto r = LoadImage(bad);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIOError);
  EXPECT_NE(r.status().ToString().find("t.x"), std::string::npos)
      << r.status().ToString();
}

TEST(CorruptDatabaseV3, CorruptSegmentLeavesSiblingSegmentsReadable) {
  const auto good = GoodSegmentedV3();
  const auto dir = pager::ParseDirectoryV2(good);
  ASSERT_TRUE(dir.ok());
  const auto& segs = dir.value().tables[0].columns[0].segments;
  ASSERT_EQ(segs.size(), 5u);
  std::vector<uint8_t> bad = good;
  bad[segs[2].blob.offset + segs[2].blob.length / 2] ^= 0x01;

  const std::string path = ::testing::TempDir() + "/corrupt_seg_v3.tde";
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(bad.data(), 1, bad.size(), f), bad.size());
    std::fclose(f);
  }

  // On the lazy path a segment faults in only when touched: rows in the
  // corrupt segment fail with a clean Status, rows in its siblings keep
  // answering correctly.
  auto cache = std::make_shared<pager::ColumnCache>(64ull << 20);
  auto db = pager::OpenDatabaseV2(path, cache);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  auto col = db.value().GetTable("t").value()->ColumnByName("x").value();

  std::vector<Lane> lanes(64);
  ASSERT_TRUE(col->GetLanes(0, 64, lanes.data()).ok());      // segment 0
  EXPECT_EQ(lanes[63], 63);
  ASSERT_TRUE(col->GetLanes(1700, 64, lanes.data()).ok());   // segment 4
  EXPECT_EQ(lanes[0], 1700);
  const Status corrupt = col->GetLanes(900, 64, lanes.data());  // segment 2
  EXPECT_FALSE(corrupt.ok());
  EXPECT_EQ(corrupt.code(), StatusCode::kIOError);
  // The siblings stay readable afterwards too.
  EXPECT_TRUE(col->GetLanes(400, 64, lanes.data()).ok());    // segment 1
  std::remove(path.c_str());
}

TEST(CorruptDatabaseV3, DirectoryFlipsWithFixedCrcsFailCleanlyOrRoundTrip) {
  // Byte flips inside the segment directory with the directory and header
  // CRCs recomputed: this drives the structural validation itself —
  // truncated segment tables, segment row-count overflows, dangling blob
  // refs — rather than the checksum. Every flip must either be rejected
  // with a Status or produce a database that walks without faulting.
  const auto good = GoodSegmentedV3();
  auto u64 = [](const uint8_t* p) {
    uint64_t v;
    std::memcpy(&v, p, 8);
    return v;
  };
  const uint64_t dir_offset = u64(good.data() + 16);
  const uint64_t dir_length = u64(good.data() + 24);
  ASSERT_EQ(dir_offset + dir_length, good.size());

  for (uint64_t pos = dir_offset; pos < dir_offset + dir_length; ++pos) {
    std::vector<uint8_t> bad = good;
    bad[pos] ^= 0x5A;
    const uint32_t dir_crc =
        pager::Crc32c(bad.data() + dir_offset, dir_length);
    std::memcpy(bad.data() + 32, &dir_crc, 4);
    const uint32_t header_crc = pager::Crc32c(bad.data(), 56);
    std::memcpy(bad.data() + 56, &header_crc, 4);

    auto r = LoadImage(bad);
    if (!r.ok()) continue;
    for (const auto& t : r.value().tables()) {
      for (size_t c = 0; c < t->num_columns(); ++c) {
        const Column& col = t->column(c);
        std::vector<Lane> lanes(std::min<uint64_t>(col.rows(), 64));
        (void)col.GetLanes(0, lanes.size(), lanes.data());
      }
    }
  }
}

TEST(CorruptDatabase2, EmptyImageRejected) {
  EXPECT_EQ(LoadImage({}).status().code(), StatusCode::kIOError);
}

/// Engine::OpenDatabase on paths that hold no database it can read. Each
/// case must come back as an IOError Status, never a crash; the mmap and
/// pread FileReader backends both run this (TDE_NO_MMAP=1 picks pread).
class OpenDatabaseRejects : public ::testing::TestWithParam<std::string> {};

TEST_P(OpenDatabaseRejects, WithIOError) {
  const std::string kind = GetParam();
  const std::string dir = ::testing::TempDir();
  std::string path = dir + "/open_rejects_" + kind + ".tde";
  auto write = [&](const std::vector<uint8_t>& bytes) {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    if (!bytes.empty()) {
      ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
    }
    std::fclose(f);
  };
  if (kind == "v1") {
    // The retired v1 layout: its magic, then an empty table directory —
    // the whole image of a v1 database with no tables.
    write({'T', 'D', 'E', 'D', 'B', '0', '0', '1', 0, 0, 0, 0});
  } else if (kind == "empty") {
    write({});
  } else if (kind == "seven_bytes") {
    write({'T', 'D', 'E', 'D', 'B', '0', '0'});
  } else if (kind == "missing") {
    std::remove(path.c_str());
  } else {
    ASSERT_EQ(kind, "directory");
    path = dir;
  }
  const auto e = Engine::OpenDatabase(path);
  ASSERT_FALSE(e.ok());
  EXPECT_EQ(e.status().code(), StatusCode::kIOError) << e.status().ToString();
  if (kind == "v1") {
    EXPECT_NE(e.status().ToString().find("re-import"), std::string::npos)
        << e.status().ToString();
  }
  if (kind != "directory") std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(BadFiles, OpenDatabaseRejects,
                         ::testing::Values("v1", "empty", "seven_bytes",
                                           "missing", "directory"),
                         [](const auto& info) { return info.param; });

TEST(CorruptText, RandomGarbageImportsOrFailsCleanly) {
  // TextScan + inference over arbitrary bytes: any Status is acceptable,
  // crashing is not; a successful import must be walkable.
  std::mt19937_64 rng(2024);
  for (int trial = 0; trial < 200; ++trial) {
    std::string data;
    const size_t len = rng() % 400;
    for (size_t i = 0; i < len; ++i) {
      data.push_back(static_cast<char>(rng() % 256));
    }
    auto scan = TextScan::FromBuffer(data);
    if (!scan->Open().ok()) continue;
    std::vector<Block> blocks;
    (void)DrainOperator(scan.get(), &blocks);
  }
}

TEST(CorruptText, MisalignedRowsSurvive) {
  auto scan = TextScan::FromBuffer(
      "a,b,c\n1,2,3\n4,5\n6,7,8,9,10\n,,\n");
  ASSERT_TRUE(scan->Open().ok());
  std::vector<Block> blocks;
  ASSERT_TRUE(DrainOperator(scan.get(), &blocks).ok());
  uint64_t rows = 0;
  for (const Block& b : blocks) rows += b.rows();
  EXPECT_EQ(rows, 4u);
}

}  // namespace
}  // namespace tde
