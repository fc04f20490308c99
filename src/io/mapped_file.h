// io::MappedFile: zero-copy read-only file access for trace ingest.
//
// The SAX JSON reader (json::sax_parse) consumes a std::string_view and
// interns event strings straight out of the input buffer, so the only
// remaining copy on the ingest path was the ifstream -> std::string slurp
// that produced that buffer. MappedFile removes it: the file is mmap(2)'d
// read-only and advised MADV_SEQUENTIAL (the parser is one front-to-back
// pass), so file bytes flow from the page cache into the parser without
// ever being copied into an owning buffer. An empty file (which mmap(2)
// rejects) is an empty view.
//
// Ownership rules: the mapping lives exactly as long as the MappedFile
// object; every string_view derived from view() — parser tokens, staged
// rows — dies with it. Callers that keep strings past the file's lifetime
// must copy or intern them (the trace reader interns into TracePools, so
// nothing outlives the mapping). MappedFile is movable and not copyable;
// moving transfers the mapping.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>

namespace lumos::io {

class MappedFile {
 public:
  /// Opens `path` for reading and memory-maps its contents. Throws
  /// std::runtime_error with the errno text when the file cannot be
  /// opened, stat'ed or mapped.
  static MappedFile open(const std::string& path);

  MappedFile() = default;
  ~MappedFile();
  MappedFile(MappedFile&& other) noexcept;
  MappedFile& operator=(MappedFile&& other) noexcept;
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;

  /// The file contents. Valid until this MappedFile is destroyed or
  /// assigned over.
  std::string_view view() const {
    return {static_cast<const char*>(mapping_), size_};
  }
  std::size_t size() const { return size_; }

 private:
  void reset() noexcept;

  void* mapping_ = nullptr;  ///< null for an empty file
  std::size_t size_ = 0;     ///< mapping length
};

}  // namespace lumos::io
