#include "io/mapped_file.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <utility>

namespace lumos::io {

namespace {

[[noreturn]] void fail(const std::string& what, const std::string& path) {
  throw std::runtime_error("io::MappedFile: " + what + " '" + path +
                           "': " + std::strerror(errno));
}

}  // namespace

MappedFile MappedFile::open(const std::string& path) {
  MappedFile file;
  const int fd = ::open(path.c_str(), O_RDONLY);  // NOLINT(hicpp-vararg)
  if (fd < 0) fail("cannot open", path);
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    // close(2) may overwrite errno even on success; preserve the cause
    // the exception message is meant to carry.
    const int cause = errno;
    ::close(fd);
    errno = cause;
    fail("cannot stat", path);
  }
  const auto size = static_cast<std::size_t>(st.st_size);
  if (size == 0) {
    // mmap(2) rejects zero-length mappings; an empty file is an empty
    // view.
    ::close(fd);
    return file;
  }
  void* mapping = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  // The mapping keeps the file contents alive on its own; the descriptor
  // is no longer needed either way.
  const int cause = errno;
  ::close(fd);
  if (mapping == MAP_FAILED) {
    errno = cause;
    fail("cannot mmap", path);
  }
  // One sequential front-to-back pass is the only access pattern the
  // parser has; tell the kernel so readahead is aggressive and pages are
  // dropped behind the scan. Advice is best-effort — ignore failure.
  ::madvise(mapping, size, MADV_SEQUENTIAL);
  file.mapping_ = mapping;
  file.size_ = size;
  return file;
}

MappedFile::~MappedFile() { reset(); }

MappedFile::MappedFile(MappedFile&& other) noexcept
    : mapping_(std::exchange(other.mapping_, nullptr)),
      size_(std::exchange(other.size_, 0)) {}

MappedFile& MappedFile::operator=(MappedFile&& other) noexcept {
  if (this != &other) {
    reset();
    mapping_ = std::exchange(other.mapping_, nullptr);
    size_ = std::exchange(other.size_, 0);
  }
  return *this;
}

void MappedFile::reset() noexcept {
  if (mapping_ != nullptr) ::munmap(mapping_, size_);
  mapping_ = nullptr;
  size_ = 0;
}

}  // namespace lumos::io
