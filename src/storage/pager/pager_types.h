#ifndef TDE_STORAGE_PAGER_PAGER_TYPES_H_
#define TDE_STORAGE_PAGER_PAGER_TYPES_H_

#include <cstdint>
#include <memory>
#include <string>

#include "src/common/collation.h"
#include "src/common/types.h"
#include "src/encoding/header.h"
#include "src/encoding/stream.h"
#include "src/storage/dictionary.h"
#include "src/storage/segment/segment.h"
#include "src/storage/string_heap.h"

namespace tde {
namespace pager {

class ColumnCache;
class FileReader;

/// One independently addressable byte range of a v2 database file.
struct BlobRef {
  uint64_t offset = 0;
  uint64_t length = 0;
  uint32_t crc32c = 0;
};

/// Directory facts of one segment of a format-v3 segmented column: the
/// blob holding its encoded stream plus the SegmentShape (rows, encoding,
/// zone map) recorded at write time.
struct ColdSegment {
  BlobRef blob;
  SegmentShape shape;
};

/// The materialized pieces of one column, built from its blobs on first
/// touch. Shared ownership is the pin mechanism: the owning Column holds
/// one reference while resident, and every executing query pins another
/// (Column::Pin), so the cache can only reclaim a column whose payload is
/// referenced by nobody but the column itself.
struct LoadedColumn {
  std::shared_ptr<EncodedStream> stream;
  std::shared_ptr<StringHeap> heap;
  std::shared_ptr<ArrayDictionary> dict;
  /// Compressed (on-disk) bytes — the unit the cache budget is charged in:
  /// caching compressed data stretches the budget (Lin et al.).
  uint64_t compressed_bytes = 0;
};

/// Immutable description of where a cold column's bytes live, copied out of
/// the v2 directory at open time. Everything the planner needs (row count,
/// widths, encoding, blob sizes) is here, so tactical decisions never fault
/// in row data.
struct ColdSource {
  std::shared_ptr<FileReader> file;
  std::shared_ptr<ColumnCache> cache;
  std::string table_name;
  std::string column_name;

  uint64_t rows = 0;
  uint8_t width = 8;
  uint8_t token_width = 8;
  EncodingType encoding = EncodingType::kUncompressed;

  BlobRef stream;

  /// Format v3: the column is segmented — `stream` is empty and each
  /// segment has its own blob. Monolithic columns leave this empty.
  std::vector<ColdSegment> segments;

  bool has_heap = false;
  BlobRef heap;
  uint64_t heap_entries = 0;
  bool heap_sorted = false;
  Collation heap_collation = Collation::kLocale;

  bool has_dict = false;
  BlobRef dict;
  TypeId dict_type = TypeId::kInteger;
  bool dict_sorted = false;
  uint64_t dict_entries = 0;

  uint64_t CompressedBytes() const {
    uint64_t n = stream.length + (has_heap ? heap.length : 0) +
                 (has_dict ? dict.length : 0);
    for (const ColdSegment& s : segments) n += s.blob.length;
    return n;
  }
};

}  // namespace pager
}  // namespace tde

#endif  // TDE_STORAGE_PAGER_PAGER_TYPES_H_
