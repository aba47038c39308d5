#ifndef TDE_STORAGE_PAGER_FILE_READER_H_
#define TDE_STORAGE_PAGER_FILE_READER_H_

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/common/status.h"

namespace tde {
namespace pager {

/// Read-only random access to a database file. The preferred backend is a
/// whole-file private mmap, which makes Read() a zero-copy bounds-checked
/// subspan — the OS pages column bytes in on first touch, so an open is
/// O(directory) and the resident set tracks the working set (Sect. 2.3.3's
/// memory-mapped single-file database). When mmap is unavailable (or
/// TDE_NO_MMAP=1 forces it, e.g. for tests), a pread fallback reads into a
/// caller-provided scratch buffer instead. A third backend serves a database
/// image already held in memory (FromBytes), so an in-memory image is read
/// through the same opener as a file.
class FileReader {
 public:
  ~FileReader();

  FileReader(const FileReader&) = delete;
  FileReader& operator=(const FileReader&) = delete;

  /// Opens a regular file; a missing path, a directory or any other
  /// non-regular file is an IOError.
  static Result<std::shared_ptr<FileReader>> Open(const std::string& path);

  /// A reader over an in-memory image. `name` stands in for the path in
  /// error messages.
  static std::shared_ptr<FileReader> FromBytes(std::vector<uint8_t> bytes,
                                               std::string name = "<memory>");

  uint64_t size() const { return size_; }
  const std::string& path() const { return path_; }
  /// True when Read() returns zero-copy views into the mapping.
  bool mmapped() const { return map_ != nullptr; }

  /// Returns file bytes [offset, offset + length). Zero-copy when mmapped
  /// or in memory; otherwise preads into `*scratch` and returns a span over
  /// it. The span is valid while this reader (and, for the fallback,
  /// `*scratch`) lives.
  Result<std::span<const uint8_t>> Read(uint64_t offset, uint64_t length,
                                        std::vector<uint8_t>* scratch) const;

 private:
  FileReader() = default;

  int fd_ = -1;
  void* map_ = nullptr;
  std::vector<uint8_t> bytes_;  // FromBytes backend (fd_ < 0)
  uint64_t size_ = 0;
  std::string path_;
};

}  // namespace pager
}  // namespace tde

#endif  // TDE_STORAGE_PAGER_FILE_READER_H_
