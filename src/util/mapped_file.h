#ifndef QIKEY_UTIL_MAPPED_FILE_H_
#define QIKEY_UTIL_MAPPED_FILE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "util/status.h"

namespace qikey {

/// \brief RAII read-only memory mapping of a whole file.
///
/// The mapping is `PROT_READ`/`MAP_PRIVATE`: the pages come straight
/// from (and stay in) the page cache, shared with every other process
/// mapping the same file, and nothing here can write the file. The base
/// is page-aligned, which satisfies the 64-byte section alignment the
/// snapshot format is laid out for.
///
/// Truncating the file in place while it is mapped makes reads past the
/// new end raise SIGBUS; replacing it by rename is safe, because the
/// mapping pins the old inode.
class MappedFile {
 public:
  /// Maps a non-empty regular file: anything else is an error ("is not
  /// a regular file", "is empty").
  static Result<MappedFile> Open(const std::string& path);

  MappedFile() = default;
  ~MappedFile();

  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;
  MappedFile(MappedFile&& other) noexcept;
  MappedFile& operator=(MappedFile&& other) noexcept;

  const uint8_t* data() const { return data_; }
  size_t size() const { return size_; }

 private:
  friend class FileText;

  /// Maps `size` (> 0) bytes of the open file `fd`; does not close it.
  static Result<MappedFile> Map(int fd, size_t size, const std::string& path);

  const uint8_t* data_ = nullptr;
  size_t size_ = 0;
};

/// \brief The whole text of a file, read-only, for the CSV readers.
///
/// A non-empty regular file is mapped, so reading it copies nothing; an
/// empty one is an empty view. Any other readable file (a pipe, a FIFO)
/// has no size to map and is read into an owned string. A directory is
/// an IOError ("is a directory: PATH").
///
/// `view()` lives exactly as long as this object: copy out whatever
/// must outlive it.
class FileText {
 public:
  /// `cannot_open` prefixes the path in the error for a file that cannot
  /// be opened.
  static Result<FileText> Open(const std::string& path,
                               std::string_view cannot_open =
                                   "cannot open file: ");

  std::string_view view() const {
    if (mapping_.data() == nullptr) return owned_;
    return std::string_view(reinterpret_cast<const char*>(mapping_.data()),
                            mapping_.size());
  }

 private:
  MappedFile mapping_;
  std::string owned_;
};

}  // namespace qikey

#endif  // QIKEY_UTIL_MAPPED_FILE_H_
