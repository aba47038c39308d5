#include "src/storage/pager/format.h"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "src/storage/column.h"
#include "src/storage/pager/column_cache.h"
#include "src/storage/pager/crc32c.h"
#include "src/storage/pager/file_reader.h"
#include "src/storage/segment/segmented_stream.h"
#include "src/storage/table.h"

namespace tde {
namespace pager {

namespace {

// Header byte layout (all little-endian):
//   [0,8) magic   [8,12) version   [12,16) page_size
//   [16,24) dir_offset   [24,32) dir_length   [32,36) dir_crc32c
//   [36,40) reserved   [40,48) file_size   [48,56) reserved
//   [56,60) header_crc32c over [0,56)   [60,64) reserved
constexpr size_t kVersionOff = 8;
constexpr size_t kPageSizeOff = 12;
constexpr size_t kDirOffsetOff = 16;
constexpr size_t kDirLengthOff = 24;
constexpr size_t kDirCrcOff = 32;
constexpr size_t kFileSizeOff = 40;
constexpr size_t kHeaderCrcOff = 56;

void PutU32(uint8_t* p, uint32_t v) { std::memcpy(p, &v, 4); }
void PutU64(uint8_t* p, uint64_t v) { std::memcpy(p, &v, 8); }
uint32_t GetU32(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}
uint64_t GetU64(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

/// True when `bytes` starts with the v2 magic.
bool IsV2Magic(const uint8_t* bytes, size_t n) {
  return n >= sizeof(kMagicV2) &&
         std::memcmp(bytes, kMagicV2, sizeof(kMagicV2)) == 0;
}

bool ValidPageSize(uint32_t ps) {
  return ps >= 512 && ps <= (1u << 20) && (ps & (ps - 1)) == 0;
}

/// Little-endian append-only writer for the directory.
class DirWriter {
 public:
  explicit DirWriter(std::vector<uint8_t>* out) : out_(out) {}
  void U8(uint8_t v) { out_->push_back(v); }
  void U32(uint32_t v) { Raw(&v, 4); }
  void U64(uint64_t v) { Raw(&v, 8); }
  void I64(int64_t v) { Raw(&v, 8); }
  void Str(const std::string& s) {
    U32(static_cast<uint32_t>(s.size()));
    Raw(s.data(), s.size());
  }
  void Blob(const BlobRef& b) {
    U64(b.offset);
    U64(b.length);
    U32(b.crc32c);
  }
  void Raw(const void* p, size_t n) {
    const size_t old = out_->size();
    out_->resize(old + n);
    std::memcpy(out_->data() + old, p, n);
  }

 private:
  std::vector<uint8_t>* out_;
};

/// Bounds-checked little-endian reader over the directory span. Every read
/// verifies there is room; a short or hostile directory yields IOError,
/// never an out-of-bounds access.
class DirReader {
 public:
  explicit DirReader(std::span<const uint8_t> in) : in_(in) {}
  Status U8(uint8_t* v) { return Raw(v, 1); }
  Status U32(uint32_t* v) { return Raw(v, 4); }
  Status U64(uint64_t* v) { return Raw(v, 8); }
  Status I64(int64_t* v) { return Raw(v, 8); }
  Status Str(std::string* s) {
    uint32_t n;
    TDE_RETURN_NOT_OK(U32(&n));
    if (n > in_.size() - pos_) return Corrupt("name");
    s->assign(reinterpret_cast<const char*>(in_.data() + pos_), n);
    pos_ += n;
    return Status::OK();
  }
  Status Blob(BlobRef* b) {
    TDE_RETURN_NOT_OK(U64(&b->offset));
    TDE_RETURN_NOT_OK(U64(&b->length));
    return U32(&b->crc32c);
  }
  Status Raw(void* p, size_t n) {
    if (n > in_.size() - pos_) return Corrupt("field");
    std::memcpy(p, in_.data() + pos_, n);
    pos_ += n;
    return Status::OK();
  }
  bool AtEnd() const { return pos_ == in_.size(); }
  static Status Corrupt(const char* what) {
    return Status::IOError(std::string("truncated or corrupt v2 directory (") +
                           what + ")");
  }

 private:
  std::span<const uint8_t> in_;
  size_t pos_ = 0;
};

uint8_t PackMetadataFlags(const ColumnMetadata& m) {
  uint8_t flags = 0;
  if (m.sorted) flags |= 1;
  if (m.dense) flags |= 2;
  if (m.unique) flags |= 4;
  if (m.min_max_known) flags |= 8;
  if (m.cardinality_known) flags |= 16;
  if (m.null_known) flags |= 32;
  if (m.has_nulls) flags |= 64;
  return flags;
}

void UnpackMetadataFlags(uint8_t flags, ColumnMetadata* m) {
  m->sorted = flags & 1;
  m->dense = flags & 2;
  m->unique = flags & 4;
  m->min_max_known = flags & 8;
  m->cardinality_known = flags & 16;
  m->null_known = flags & 32;
  m->has_nulls = flags & 64;
}

/// Pads `out` with zeros to the next multiple of `page_size` and appends
/// the blob, recording its placement and checksum.
void AppendBlob(std::vector<uint8_t>* out, uint32_t page_size,
                const void* data, uint64_t n, BlobRef* ref) {
  const uint64_t aligned =
      (out->size() + page_size - 1) / page_size * page_size;
  out->resize(aligned, 0);
  ref->offset = aligned;
  ref->length = n;
  ref->crc32c = Crc32c(static_cast<const uint8_t*>(data), n);
  const size_t old = out->size();
  out->resize(old + n);
  if (n > 0) std::memcpy(out->data() + old, data, n);
}

Status ValidateBlob(const BlobRef& b, uint64_t file_size, const char* what) {
  if (b.length > file_size || b.offset > file_size - b.length ||
      (b.length > 0 && b.offset < kHeaderSizeV2)) {
    return Status::IOError(std::string("v2 directory: ") + what +
                           " blob out of bounds (offset " +
                           std::to_string(b.offset) + ", length " +
                           std::to_string(b.length) + ", file size " +
                           std::to_string(file_size) + ")");
  }
  return Status::OK();
}

Status ReadColumnEntry(DirReader* r, uint64_t file_size, uint32_t version,
                       ColumnEntry* e) {
  TDE_RETURN_NOT_OK(r->Str(&e->name));
  uint8_t type_raw, comp_raw, enc_raw;
  TDE_RETURN_NOT_OK(r->U8(&type_raw));
  TDE_RETURN_NOT_OK(r->U8(&comp_raw));
  TDE_RETURN_NOT_OK(r->U8(&enc_raw));
  TDE_RETURN_NOT_OK(r->U8(&e->width));
  TDE_RETURN_NOT_OK(r->U8(&e->token_width));
  if (type_raw >= kNumTypes) {
    return Status::IOError("v2 directory: bad type byte for column '" +
                           e->name + "'");
  }
  if (comp_raw > static_cast<uint8_t>(CompressionKind::kArrayDict)) {
    return Status::IOError("v2 directory: bad compression byte for column '" +
                           e->name + "'");
  }
  // kSegmented (6) is a legal *representative* encoding byte in v3 — the
  // column must then carry a segment table, checked below.
  const bool segmented_enc =
      version >= kFormatVersion3 &&
      enc_raw == static_cast<uint8_t>(EncodingType::kSegmented);
  if (enc_raw > static_cast<uint8_t>(EncodingType::kRunLength) &&
      !segmented_enc) {
    return Status::IOError("v2 directory: bad encoding byte for column '" +
                           e->name + "'");
  }
  e->type = static_cast<TypeId>(type_raw);
  e->compression = comp_raw;
  e->encoding = static_cast<EncodingType>(enc_raw);

  uint8_t flags;
  TDE_RETURN_NOT_OK(r->U8(&flags));
  UnpackMetadataFlags(flags, &e->metadata);
  TDE_RETURN_NOT_OK(r->I64(&e->metadata.min_value));
  TDE_RETURN_NOT_OK(r->I64(&e->metadata.max_value));
  TDE_RETURN_NOT_OK(r->U64(&e->metadata.cardinality));
  TDE_RETURN_NOT_OK(r->U32(&e->encoding_changes));
  TDE_RETURN_NOT_OK(r->U64(&e->rows));

  TDE_RETURN_NOT_OK(r->Blob(&e->stream));
  TDE_RETURN_NOT_OK(ValidateBlob(e->stream, file_size, "stream"));

  uint8_t has_heap;
  TDE_RETURN_NOT_OK(r->U8(&has_heap));
  e->has_heap = has_heap != 0;
  if (e->has_heap) {
    TDE_RETURN_NOT_OK(r->Blob(&e->heap));
    TDE_RETURN_NOT_OK(ValidateBlob(e->heap, file_size, "heap"));
    TDE_RETURN_NOT_OK(r->U64(&e->heap_entries));
    uint8_t sorted, collation;
    TDE_RETURN_NOT_OK(r->U8(&sorted));
    TDE_RETURN_NOT_OK(r->U8(&collation));
    if (collation > static_cast<uint8_t>(Collation::kLocale)) {
      return Status::IOError("v2 directory: bad collation for column '" +
                             e->name + "'");
    }
    e->heap_sorted = sorted != 0;
    e->heap_collation = collation;
    // Each heap entry is at least its 4-byte length prefix.
    if (e->heap_entries > e->heap.length / 4) {
      return Status::IOError("v2 directory: heap of column '" + e->name +
                             "' claims " + std::to_string(e->heap_entries) +
                             " entries in " + std::to_string(e->heap.length) +
                             " bytes");
    }
  }

  uint8_t has_dict;
  TDE_RETURN_NOT_OK(r->U8(&has_dict));
  e->has_dict = has_dict != 0;
  if (e->has_dict) {
    TDE_RETURN_NOT_OK(r->Blob(&e->dict));
    TDE_RETURN_NOT_OK(ValidateBlob(e->dict, file_size, "dictionary"));
    uint8_t dtype, sorted;
    TDE_RETURN_NOT_OK(r->U8(&dtype));
    TDE_RETURN_NOT_OK(r->U8(&sorted));
    TDE_RETURN_NOT_OK(r->U64(&e->dict_entries));
    if (dtype >= kNumTypes) {
      return Status::IOError("v2 directory: bad dictionary type for column '" +
                             e->name + "'");
    }
    e->dict_type = static_cast<TypeId>(dtype);
    e->dict_sorted = sorted != 0;
    if (e->dict_entries != e->dict.length / sizeof(Lane) ||
        e->dict.length % sizeof(Lane) != 0) {
      return Status::IOError("v2 directory: dictionary of column '" + e->name +
                             "' claims " + std::to_string(e->dict_entries) +
                             " entries in " + std::to_string(e->dict.length) +
                             " bytes");
    }
  }

  if (version >= kFormatVersion3) {
    uint32_t segment_count;
    TDE_RETURN_NOT_OK(r->U32(&segment_count));
    if (segment_count > e->rows) {
      return Status::IOError("v3 directory: column '" + e->name +
                             "' claims " + std::to_string(segment_count) +
                             " segments over " + std::to_string(e->rows) +
                             " rows");
    }
    // Each serialized segment occupies >= 60 directory bytes, so a hostile
    // count cannot reserve past the directory length anyway; still, cap the
    // up-front reservation and let push_back grow.
    e->segments.reserve(std::min<uint32_t>(segment_count, 4096));
    uint64_t covered = 0;
    for (uint32_t si = 0; si < segment_count; ++si) {
      SegmentEntry s;
      TDE_RETURN_NOT_OK(r->Blob(&s.blob));
      TDE_RETURN_NOT_OK(ValidateBlob(s.blob, file_size, "segment"));
      TDE_RETURN_NOT_OK(r->U64(&s.rows));
      uint8_t senc;
      TDE_RETURN_NOT_OK(r->U8(&senc));
      TDE_RETURN_NOT_OK(r->U8(&s.width));
      TDE_RETURN_NOT_OK(r->U8(&s.bits));
      TDE_RETURN_NOT_OK(r->U8(&s.token_width));
      // Segment blobs are real stream blobs: never the container value.
      if (senc > static_cast<uint8_t>(EncodingType::kRunLength)) {
        return Status::IOError(
            "v3 directory: bad segment encoding byte for column '" + e->name +
            "'");
      }
      s.encoding = static_cast<EncodingType>(senc);
      uint8_t zflags;
      TDE_RETURN_NOT_OK(r->U8(&zflags));
      UnpackMetadataFlags(zflags, &s.zone);
      TDE_RETURN_NOT_OK(r->I64(&s.zone.min_value));
      TDE_RETURN_NOT_OK(r->I64(&s.zone.max_value));
      TDE_RETURN_NOT_OK(r->U64(&s.zone.cardinality));
      TDE_RETURN_NOT_OK(r->I64(&s.null_count));
      if (s.rows == 0) {
        return Status::IOError("v3 directory: empty segment in column '" +
                               e->name + "'");
      }
      if (s.rows > e->rows - covered) {
        return Status::IOError(
            "v3 directory: segment row counts of column '" + e->name +
            "' overflow its " + std::to_string(e->rows) + " rows");
      }
      covered += s.rows;
      e->segments.push_back(std::move(s));
    }
    if (segment_count > 0 && covered != e->rows) {
      return Status::IOError("v3 directory: segments of column '" + e->name +
                             "' cover " + std::to_string(covered) + " of " +
                             std::to_string(e->rows) + " rows");
    }
    if (!e->segments.empty() && e->stream.length != 0) {
      return Status::IOError("v3 directory: segmented column '" + e->name +
                             "' carries a monolithic stream blob");
    }
  }
  if (e->encoding == EncodingType::kSegmented && e->segments.empty()) {
    return Status::IOError("v3 directory: column '" + e->name +
                           "' marked segmented but has no segment table");
  }
  return Status::OK();
}

ColdSource MakeColdSource(const ColumnEntry& e, const std::string& table_name,
                          std::shared_ptr<FileReader> file,
                          std::shared_ptr<ColumnCache> cache) {
  ColdSource src;
  src.file = std::move(file);
  src.cache = std::move(cache);
  src.table_name = table_name;
  src.column_name = e.name;
  src.rows = e.rows;
  src.width = e.width;
  src.token_width = e.token_width;
  src.encoding = e.encoding;
  src.stream = e.stream;
  uint64_t start = 0;
  src.segments.reserve(e.segments.size());
  for (const SegmentEntry& s : e.segments) {
    ColdSegment cs;
    cs.blob = s.blob;
    cs.shape.start_row = start;
    cs.shape.rows = s.rows;
    cs.shape.encoding = s.encoding;
    cs.shape.width = s.width;
    cs.shape.bits = s.bits;
    cs.shape.token_width = s.token_width;
    cs.shape.physical_bytes = s.blob.length;
    cs.shape.resident = false;
    cs.shape.zone.meta = s.zone;
    cs.shape.zone.null_count = s.null_count;
    src.segments.push_back(std::move(cs));
    start += s.rows;
  }
  src.has_heap = e.has_heap;
  src.heap = e.heap;
  src.heap_entries = e.heap_entries;
  src.heap_sorted = e.heap_sorted;
  src.heap_collation = static_cast<Collation>(e.heap_collation);
  src.has_dict = e.has_dict;
  src.dict = e.dict;
  src.dict_type = e.dict_type;
  src.dict_sorted = e.dict_sorted;
  src.dict_entries = e.dict_entries;
  return src;
}

std::shared_ptr<Column> MakeColdColumn(const ColumnEntry& e,
                                       std::shared_ptr<const ColdSource> src) {
  auto col = std::make_shared<Column>(e.name, e.type);
  col->set_compression(static_cast<CompressionKind>(e.compression));
  *col->mutable_metadata() = e.metadata;
  col->set_encoding_changes(static_cast<int>(e.encoding_changes));
  col->MakeCold(std::move(src));
  return col;
}

/// Writes `bytes` to a sibling temp file, fsyncs, and rename()s it over
/// `path`. The switch is atomic: a crash mid-write leaves the old file
/// intact, and an engine lazily reading from `path` keeps its mmap/fd on
/// the old inode, so its directory offsets stay valid instead of dangling
/// over a truncated in-place rewrite.
Status WriteFileAtomic(const std::string& path,
                       const std::vector<uint8_t>& bytes) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) return Status::IOError("cannot open '" + tmp + "'");
  bool ok = std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size();
  ok = std::fflush(f) == 0 && ok;
  if (ok) ok = ::fsync(::fileno(f)) == 0;
  ok = (std::fclose(f) == 0) && ok;
  if (!ok) {
    std::remove(tmp.c_str());
    return Status::IOError("short write to '" + tmp + "'");
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::IOError("cannot rename '" + tmp + "' over '" + path +
                           "'");
  }
  return Status::OK();
}

}  // namespace

Status SerializeDatabaseV2(const Database& db, std::vector<uint8_t>* out,
                           const WriteOptionsV2& options) {
  if (!ValidPageSize(options.page_size)) {
    return Status::InvalidArgument("v2 page size must be a power of two in "
                                   "[512, 1MiB], got " +
                                   std::to_string(options.page_size));
  }
  out->assign(kHeaderSizeV2, 0);

  // Pass 1: blobs, collecting directory entries as they are placed.
  // The header version is decided here: any segmented column promotes the
  // whole file to v3; otherwise the bytes are identical to a v2 write.
  bool any_segmented = false;
  std::vector<TableEntry> tables;
  for (const auto& t : db.tables()) {
    TableEntry te;
    te.name = t->name();
    te.rows = t->rows();
    for (size_t i = 0; i < t->num_columns(); ++i) {
      const Column& c = t->column(i);
      // Pin cold columns so their bytes are resident for the copy-through.
      TDE_ASSIGN_OR_RETURN(auto pin, c.Pin());
      const EncodedStream* stream = c.data();
      if (stream == nullptr) {
        return Status::Internal("column '" + te.name + "." + c.name() +
                                "' has no data stream to serialize");
      }
      ColumnEntry e;
      e.name = c.name();
      e.type = c.type();
      e.compression = static_cast<uint8_t>(c.compression());
      e.encoding = stream->type();
      e.width = stream->width();
      e.token_width = c.TokenWidth();
      e.metadata = c.metadata();
      e.encoding_changes = static_cast<uint32_t>(c.encoding_changes());
      e.rows = stream->size();
      if (stream->segmented()) {
        any_segmented = true;
        const auto* seg = static_cast<const SegmentedStream*>(stream);
        const std::vector<SegmentShape> shapes = seg->Shapes();
        if (shapes.empty()) {
          return Status::Internal("segmented column '" + te.name + "." +
                                  c.name() + "' has no segments");
        }
        // `e.stream` stays empty — each segment owns a blob. The open tail
        // (if any) is encoded from a copy and written as the last sealed
        // entry; the in-memory column is not mutated.
        for (size_t si = 0; si < shapes.size(); ++si) {
          SegmentEntry se;
          std::shared_ptr<EncodedStream> sstream;
          if (shapes[si].open_tail) {
            SegmentZone zone;
            TDE_ASSIGN_OR_RETURN(sstream, seg->EncodeTailCopy(&zone));
            se.zone = zone.meta;
            se.null_count = zone.null_count;
          } else {
            TDE_ASSIGN_OR_RETURN(sstream, seg->SegmentStreamForRead(si));
            se.zone = shapes[si].zone.meta;
            se.null_count = shapes[si].zone.null_count;
          }
          se.rows = sstream->size();
          se.encoding = sstream->type();
          se.width = sstream->width();
          se.bits = sstream->bits();
          se.token_width = sstream->TokenWidthBytes();
          AppendBlob(out, options.page_size, sstream->buffer().data(),
                     sstream->buffer().size(), &se.blob);
          e.segments.push_back(std::move(se));
        }
      } else {
        AppendBlob(out, options.page_size, stream->buffer().data(),
                   stream->buffer().size(), &e.stream);
      }
      if (c.compression() == CompressionKind::kHeap) {
        const StringHeap* h = c.heap();
        if (h == nullptr) {
          return Status::Internal("heap column '" + te.name + "." + c.name() +
                                  "' has no heap to serialize");
        }
        e.has_heap = true;
        AppendBlob(out, options.page_size, h->buffer().data(),
                   h->buffer().size(), &e.heap);
        e.heap_entries = h->entry_count();
        e.heap_sorted = h->sorted();
        e.heap_collation = static_cast<uint8_t>(h->collation());
      } else if (c.compression() == CompressionKind::kArrayDict) {
        const ArrayDictionary* d = c.array_dict();
        if (d == nullptr) {
          return Status::Internal("dictionary column '" + te.name + "." +
                                  c.name() + "' has no dictionary");
        }
        e.has_dict = true;
        AppendBlob(out, options.page_size, d->values.data(),
                   d->values.size() * sizeof(Lane), &e.dict);
        e.dict_type = d->type;
        e.dict_sorted = d->sorted;
        e.dict_entries = d->values.size();
      }
      te.columns.push_back(std::move(e));
    }
    tables.push_back(std::move(te));
  }

  // Pass 2: the directory, page-aligned after the last blob.
  const uint64_t dir_offset =
      (out->size() + options.page_size - 1) / options.page_size *
      options.page_size;
  out->resize(dir_offset, 0);
  {
    DirWriter w(out);
    w.U32(static_cast<uint32_t>(tables.size()));
    for (const TableEntry& te : tables) {
      w.Str(te.name);
      w.U64(te.rows);
      w.U32(static_cast<uint32_t>(te.columns.size()));
      for (const ColumnEntry& e : te.columns) {
        w.Str(e.name);
        w.U8(static_cast<uint8_t>(e.type));
        w.U8(e.compression);
        w.U8(static_cast<uint8_t>(e.encoding));
        w.U8(e.width);
        w.U8(e.token_width);
        w.U8(PackMetadataFlags(e.metadata));
        w.I64(e.metadata.min_value);
        w.I64(e.metadata.max_value);
        w.U64(e.metadata.cardinality);
        w.U32(e.encoding_changes);
        w.U64(e.rows);
        w.Blob(e.stream);
        w.U8(e.has_heap ? 1 : 0);
        if (e.has_heap) {
          w.Blob(e.heap);
          w.U64(e.heap_entries);
          w.U8(e.heap_sorted ? 1 : 0);
          w.U8(e.heap_collation);
        }
        w.U8(e.has_dict ? 1 : 0);
        if (e.has_dict) {
          w.Blob(e.dict);
          w.U8(static_cast<uint8_t>(e.dict_type));
          w.U8(e.dict_sorted ? 1 : 0);
          w.U64(e.dict_entries);
        }
        if (any_segmented) {
          // v3 extension: every column carries a segment table (count 0
          // for monolithic columns).
          w.U32(static_cast<uint32_t>(e.segments.size()));
          for (const SegmentEntry& s : e.segments) {
            w.Blob(s.blob);
            w.U64(s.rows);
            w.U8(static_cast<uint8_t>(s.encoding));
            w.U8(s.width);
            w.U8(s.bits);
            w.U8(s.token_width);
            w.U8(PackMetadataFlags(s.zone));
            w.I64(s.zone.min_value);
            w.I64(s.zone.max_value);
            w.U64(s.zone.cardinality);
            w.I64(s.null_count);
          }
        }
      }
    }
  }
  const uint64_t dir_length = out->size() - dir_offset;

  // Header last: it seals the directory placement and both CRCs.
  uint8_t* h = out->data();
  std::memcpy(h, kMagicV2, sizeof(kMagicV2));
  PutU32(h + kVersionOff, any_segmented ? kFormatVersion3 : kFormatVersion2);
  PutU32(h + kPageSizeOff, options.page_size);
  PutU64(h + kDirOffsetOff, dir_offset);
  PutU64(h + kDirLengthOff, dir_length);
  PutU32(h + kDirCrcOff, Crc32c(out->data() + dir_offset, dir_length));
  PutU64(h + kFileSizeOff, out->size());
  PutU32(h + kHeaderCrcOff, Crc32c(h, kHeaderCrcOff));
  return Status::OK();
}

Status WriteDatabaseV2(const Database& db, const std::string& path,
                       const WriteOptionsV2& options) {
  std::vector<uint8_t> bytes;
  TDE_RETURN_NOT_OK(SerializeDatabaseV2(db, &bytes, options));
  return WriteFileAtomic(path, bytes);
}

namespace {

/// Validated header facts: where the directory lives and what it must hash
/// to. Produced from the 64 header bytes alone, before any blob is touched.
struct HeaderV2 {
  uint32_t version = kFormatVersion2;
  uint32_t page_size = 0;
  uint64_t file_size = 0;
  uint64_t dir_offset = 0;
  uint64_t dir_length = 0;
  uint32_t dir_crc32c = 0;
};

Status ParseHeaderV2(std::span<const uint8_t> header, uint64_t actual_size,
                     HeaderV2* out) {
  const uint8_t* h = header.data();
  if (!IsV2Magic(h, header.size())) {
    // Same magic stem, other version digit: a database written in a layout
    // this engine no longer reads (the v1 format was retired).
    if (header.size() >= sizeof(kMagicV2) &&
        std::memcmp(h, kMagicV2, sizeof(kMagicV2) - 1) == 0) {
      return Status::IOError(std::string("TDE database format '") +
                             static_cast<char>(h[7]) +
                             "' is not supported; re-import the source text");
    }
    return Status::IOError("not a TDE v2 database file");
  }
  if (header.size() < kHeaderSizeV2) {
    return Status::IOError("v2 file shorter than its header");
  }
  if (Crc32c(h, kHeaderCrcOff) != GetU32(h + kHeaderCrcOff)) {
    return Status::IOError("v2 header checksum mismatch");
  }
  const uint32_t version = GetU32(h + kVersionOff);
  if (version != kFormatVersion2 && version != kFormatVersion3) {
    return Status::IOError("unsupported v2 format version " +
                           std::to_string(version));
  }
  out->version = version;
  out->page_size = GetU32(h + kPageSizeOff);
  if (!ValidPageSize(out->page_size)) {
    return Status::IOError("v2 header: bad page size " +
                           std::to_string(out->page_size));
  }
  out->file_size = GetU64(h + kFileSizeOff);
  if (out->file_size != actual_size) {
    return Status::IOError("v2 file is " + std::to_string(actual_size) +
                           " bytes but header says " +
                           std::to_string(out->file_size) +
                           " (truncated or padded)");
  }
  out->dir_offset = GetU64(h + kDirOffsetOff);
  out->dir_length = GetU64(h + kDirLengthOff);
  if (out->dir_length > out->file_size ||
      out->dir_offset > out->file_size - out->dir_length ||
      out->dir_offset < kHeaderSizeV2) {
    return Status::IOError("v2 header: directory out of bounds");
  }
  out->dir_crc32c = GetU32(h + kDirCrcOff);
  return Status::OK();
}

Result<DirectoryV2> ParseDirectoryBody(const HeaderV2& header,
                                       std::span<const uint8_t> dir_span) {
  if (Crc32c(dir_span.data(), dir_span.size()) != header.dir_crc32c) {
    return {Status::IOError("v2 directory checksum mismatch")};
  }
  DirectoryV2 dir;
  dir.page_size = header.page_size;
  dir.file_size = header.file_size;
  dir.version = header.version;

  DirReader r(dir_span);
  uint32_t table_count;
  TDE_RETURN_NOT_OK(r.U32(&table_count));
  for (uint32_t ti = 0; ti < table_count; ++ti) {
    TableEntry te;
    TDE_RETURN_NOT_OK(r.Str(&te.name));
    TDE_RETURN_NOT_OK(r.U64(&te.rows));
    uint32_t column_count;
    TDE_RETURN_NOT_OK(r.U32(&column_count));
    for (uint32_t ci = 0; ci < column_count; ++ci) {
      ColumnEntry e;
      TDE_RETURN_NOT_OK(ReadColumnEntry(&r, dir.file_size, dir.version, &e));
      te.columns.push_back(std::move(e));
    }
    dir.tables.push_back(std::move(te));
  }
  if (!r.AtEnd()) {
    return {Status::IOError("v2 directory has trailing bytes")};
  }
  return dir;
}

}  // namespace

Result<DirectoryV2> ParseDirectoryV2(std::span<const uint8_t> file_bytes) {
  HeaderV2 header;
  TDE_RETURN_NOT_OK(
      ParseHeaderV2(file_bytes, file_bytes.size(), &header));
  return ParseDirectoryBody(
      header, file_bytes.subspan(static_cast<size_t>(header.dir_offset),
                                 static_cast<size_t>(header.dir_length)));
}

Result<Database> OpenDatabaseV2(const std::string& path,
                                std::shared_ptr<ColumnCache> cache) {
  TDE_ASSIGN_OR_RETURN(auto file, FileReader::Open(path));
  return OpenDatabaseV2(std::move(file), std::move(cache));
}

Result<Database> OpenDatabaseV2(std::shared_ptr<FileReader> file,
                                std::shared_ptr<ColumnCache> cache) {
  // Only the header + directory are read here: O(directory) open.
  std::vector<uint8_t> header_scratch;
  TDE_ASSIGN_OR_RETURN(
      auto header_span,
      file->Read(0, std::min<uint64_t>(kHeaderSizeV2, file->size()),
                 &header_scratch));
  HeaderV2 header;
  TDE_RETURN_NOT_OK(ParseHeaderV2(header_span, file->size(), &header));

  std::vector<uint8_t> dir_scratch;
  TDE_ASSIGN_OR_RETURN(
      auto dir_span,
      file->Read(header.dir_offset, header.dir_length, &dir_scratch));
  TDE_ASSIGN_OR_RETURN(DirectoryV2 dir,
                       ParseDirectoryBody(header, dir_span));

  Database db;
  for (const TableEntry& te : dir.tables) {
    auto table = std::make_shared<Table>(te.name);
    for (const ColumnEntry& e : te.columns) {
      auto src = std::make_shared<const ColdSource>(
          MakeColdSource(e, te.name, file, cache));
      table->AddColumn(MakeColdColumn(e, std::move(src)));
    }
    db.AddTable(std::move(table));
  }
  return db;
}

}  // namespace pager
}  // namespace tde
