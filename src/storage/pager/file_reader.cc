#include "src/storage/pager/file_reader.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>

namespace tde {
namespace pager {

namespace {

bool MmapDisabled() {
  const char* e = std::getenv("TDE_NO_MMAP");
  return e != nullptr && e[0] != '\0' && e[0] != '0';
}

}  // namespace

FileReader::~FileReader() {
  if (map_ != nullptr) {
    ::munmap(map_, static_cast<size_t>(size_));
  }
  if (fd_ >= 0) {
    ::close(fd_);
  }
}

Result<std::shared_ptr<FileReader>> FileReader::Open(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return {Status::IOError("cannot open '" + path +
                            "': " + std::strerror(errno))};
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    const int err = errno;
    ::close(fd);
    return {Status::IOError("cannot stat '" + path +
                            "': " + std::strerror(err))};
  }
  if (!S_ISREG(st.st_mode)) {
    ::close(fd);
    return {Status::IOError("'" + path + "' is not a regular file")};
  }
  auto r = std::shared_ptr<FileReader>(new FileReader());
  r->fd_ = fd;
  r->size_ = static_cast<uint64_t>(st.st_size);
  r->path_ = path;
  if (r->size_ > 0 && !MmapDisabled()) {
    void* map = ::mmap(nullptr, static_cast<size_t>(r->size_), PROT_READ,
                       MAP_PRIVATE, fd, 0);
    if (map != MAP_FAILED) {
      r->map_ = map;
      // Column access is directory-directed, not sequential.
      (void)::madvise(map, static_cast<size_t>(r->size_), MADV_RANDOM);
    }
    // mmap failure is not fatal: fall through to the pread path.
  }
  return r;
}

std::shared_ptr<FileReader> FileReader::FromBytes(std::vector<uint8_t> bytes,
                                                  std::string name) {
  auto r = std::shared_ptr<FileReader>(new FileReader());
  r->size_ = bytes.size();
  r->bytes_ = std::move(bytes);
  r->path_ = std::move(name);
  return r;
}

Result<std::span<const uint8_t>> FileReader::Read(
    uint64_t offset, uint64_t length, std::vector<uint8_t>* scratch) const {
  if (length > size_ || offset > size_ - length) {
    return {Status::IOError("read past end of '" + path_ + "' (offset " +
                            std::to_string(offset) + ", length " +
                            std::to_string(length) + ", file size " +
                            std::to_string(size_) + ")")};
  }
  if (map_ != nullptr) {
    return std::span<const uint8_t>(
        static_cast<const uint8_t*>(map_) + offset,
        static_cast<size_t>(length));
  }
  if (fd_ < 0) {
    return std::span<const uint8_t>(bytes_.data() + offset,
                                    static_cast<size_t>(length));
  }
  if (scratch == nullptr) {
    return {Status::Internal("pread fallback requires a scratch buffer")};
  }
  scratch->resize(static_cast<size_t>(length));
  uint64_t done = 0;
  while (done < length) {
    const ssize_t n =
        ::pread(fd_, scratch->data() + done, static_cast<size_t>(length - done),
                static_cast<off_t>(offset + done));
    if (n < 0) {
      if (errno == EINTR) continue;
      return {Status::IOError("pread '" + path_ +
                              "' failed: " + std::strerror(errno))};
    }
    if (n == 0) {
      return {Status::IOError("unexpected EOF in '" + path_ + "'")};
    }
    done += static_cast<uint64_t>(n);
  }
  return std::span<const uint8_t>(scratch->data(), scratch->size());
}

}  // namespace pager
}  // namespace tde
