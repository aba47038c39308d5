#ifndef TDE_STORAGE_PAGER_FORMAT_H_
#define TDE_STORAGE_PAGER_FORMAT_H_

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/encoding/metadata.h"
#include "src/storage/database_file.h"
#include "src/storage/pager/pager_types.h"

namespace tde {
namespace pager {

class ColumnCache;
class FileReader;

/// File format v2 ("TDEDB002"): a page-aligned single-file database whose
/// column blobs are independently addressable and verifiable, so a query
/// can fault in exactly the columns it touches.
///
///   [0, 64)        file header: magic, version, page size, directory
///                  offset/length/CRC, file size, header CRC
///   [page, ...)    column blobs — stream bytes, heap bytes, dictionary
///                  lanes — each aligned to the page size, each carrying a
///                  CRC32C in its directory entry
///   [dir_offset)   the directory: per table, per column — name, type,
///                  compression, encoding, widths, row count, min/max/
///                  sorted/cardinality metadata, and {offset, length, CRC}
///                  for every blob
///
/// The directory is everything the planner needs; opening a database is
/// O(directory) regardless of data volume.
///
/// Format v3 is a directory extension of v2 under the same magic: when any
/// column is segmented the header version reads 3 and every column entry
/// carries a trailing segment table — a u32 segment count (0 for
/// monolithic columns) followed by, per segment, its blob {offset, length,
/// CRC}, row count, physical encoding, width/bits/token width, and zone
/// map (metadata flags, min, max, cardinality, NULL count). Databases
/// without segmented columns serialize byte-identically to v2, and v2
/// readers are never handed a v3 file they would misparse (the version
/// gate rejects it).
constexpr uint8_t kMagicV2[8] = {'T', 'D', 'E', 'D', 'B', '0', '0', '2'};
constexpr uint32_t kFormatVersion2 = 2;
constexpr uint32_t kFormatVersion3 = 3;
constexpr size_t kHeaderSizeV2 = 64;

/// Directory entry for one segment of a segmented column (format v3).
struct SegmentEntry {
  BlobRef blob;
  uint64_t rows = 0;
  EncodingType encoding = EncodingType::kUncompressed;
  uint8_t width = 8;
  uint8_t bits = 0;
  uint8_t token_width = 8;
  /// Zone map: the segment's own EncodingStats-derived metadata.
  ColumnMetadata zone;
  int64_t null_count = -1;  // -1 = unknown
};

/// Directory entry for one column — the serialized twin of ColdSource.
struct ColumnEntry {
  std::string name;
  TypeId type = TypeId::kInteger;
  uint8_t compression = 0;  // CompressionKind
  EncodingType encoding = EncodingType::kUncompressed;
  uint8_t width = 8;
  uint8_t token_width = 8;
  ColumnMetadata metadata;
  uint32_t encoding_changes = 0;
  uint64_t rows = 0;

  BlobRef stream;

  /// Format v3: non-empty for segmented columns (`stream` is then empty —
  /// each segment owns its blob).
  std::vector<SegmentEntry> segments;

  bool has_heap = false;
  BlobRef heap;
  uint64_t heap_entries = 0;
  bool heap_sorted = false;
  uint8_t heap_collation = 0;

  bool has_dict = false;
  BlobRef dict;
  TypeId dict_type = TypeId::kInteger;
  bool dict_sorted = false;
  uint64_t dict_entries = 0;
};

struct TableEntry {
  std::string name;
  uint64_t rows = 0;
  std::vector<ColumnEntry> columns;
};

struct DirectoryV2 {
  uint32_t page_size = 0;
  uint64_t file_size = 0;
  /// 2 or 3; 3 means column entries carry segment tables.
  uint32_t version = kFormatVersion2;
  std::vector<TableEntry> tables;
};

struct WriteOptionsV2 {
  /// Alignment of every blob. Must be a power of two in [512, 1 << 20].
  uint32_t page_size = 4096;
};

/// Serializes the database in format v2. Cold columns are pinned and their
/// bytes copied through; the database is not mutated.
Status SerializeDatabaseV2(const Database& db, std::vector<uint8_t>* out,
                           const WriteOptionsV2& options = {});
Status WriteDatabaseV2(const Database& db, const std::string& path,
                       const WriteOptionsV2& options = {});

/// Parses and validates the header + directory of a v2 image. Every
/// length/offset is bounds-checked against the span; header and directory
/// CRCs must match. Blob contents are NOT read (that is the cache's job).
Result<DirectoryV2> ParseDirectoryV2(std::span<const uint8_t> file_bytes);

/// Lazy open: O(directory). Returns a database whose columns are cold and
/// materialize through `cache` on first touch. The returned tables keep the
/// file reader and cache alive via shared ownership. This is the only way
/// a database is read; an eager load is this open followed by
/// Column::Warm() on the columns it needs resident.
Result<Database> OpenDatabaseV2(const std::string& path,
                                std::shared_ptr<ColumnCache> cache);
/// Same, over an already-open reader (e.g. FileReader::FromBytes for an
/// image held in memory).
Result<Database> OpenDatabaseV2(std::shared_ptr<FileReader> file,
                                std::shared_ptr<ColumnCache> cache);

}  // namespace pager
}  // namespace tde

#endif  // TDE_STORAGE_PAGER_FORMAT_H_
