#include "util/mapped_file.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

namespace qikey {

namespace {

/// Closes the descriptor on every return path; a mapping outlives it.
class ScopedFd {
 public:
  explicit ScopedFd(int fd) : fd_(fd) {}
  ~ScopedFd() {
    if (fd_ >= 0) ::close(fd_);
  }
  ScopedFd(const ScopedFd&) = delete;
  ScopedFd& operator=(const ScopedFd&) = delete;
  int get() const { return fd_; }

 private:
  int fd_;
};

/// Appends everything `fd` yields until end of input.
bool ReadToEnd(int fd, std::string* out) {
  char buffer[1 << 16];
  while (true) {
    ssize_t got = ::read(fd, buffer, sizeof buffer);
    if (got == 0) return true;
    if (got < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    out->append(buffer, static_cast<size_t>(got));
  }
}

}  // namespace

Result<MappedFile> MappedFile::Open(const std::string& path) {
  ScopedFd fd(::open(path.c_str(), O_RDONLY | O_CLOEXEC));
  if (fd.get() < 0) {
    return Status::IOError("cannot open '" + path +
                           "': " + std::strerror(errno));
  }
  struct stat st;
  if (::fstat(fd.get(), &st) != 0) {
    return Status::IOError("cannot stat '" + path +
                           "': " + std::strerror(errno));
  }
  if (!S_ISREG(st.st_mode)) {
    return Status::IOError("'" + path + "' is not a regular file");
  }
  if (st.st_size <= 0) {
    return Status::InvalidArgument("'" + path + "' is empty");
  }
  return Map(fd.get(), static_cast<size_t>(st.st_size), path);
}

Result<MappedFile> MappedFile::Map(int fd, size_t size,
                                   const std::string& path) {
  void* base = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  if (base == MAP_FAILED) {
    return Status::IOError("cannot mmap '" + path +
                           "': " + std::strerror(errno));
  }
  MappedFile file;
  file.data_ = static_cast<const uint8_t*>(base);
  file.size_ = size;
  return file;
}

MappedFile::~MappedFile() {
  if (data_ != nullptr) {
    ::munmap(const_cast<uint8_t*>(data_), size_);
  }
}

MappedFile::MappedFile(MappedFile&& other) noexcept
    : data_(other.data_), size_(other.size_) {
  other.data_ = nullptr;
  other.size_ = 0;
}

MappedFile& MappedFile::operator=(MappedFile&& other) noexcept {
  if (this != &other) {
    if (data_ != nullptr) {
      ::munmap(const_cast<uint8_t*>(data_), size_);
    }
    data_ = other.data_;
    size_ = other.size_;
    other.data_ = nullptr;
    other.size_ = 0;
  }
  return *this;
}

Result<FileText> FileText::Open(const std::string& path,
                                std::string_view cannot_open) {
  ScopedFd fd(::open(path.c_str(), O_RDONLY | O_CLOEXEC));
  if (fd.get() < 0) return Status::IOError(std::string(cannot_open) + path);
  struct stat st;
  if (::fstat(fd.get(), &st) != 0) {
    return Status::IOError("cannot stat '" + path +
                           "': " + std::strerror(errno));
  }
  if (S_ISDIR(st.st_mode)) return Status::IOError("is a directory: " + path);
  FileText text;
  if (!S_ISREG(st.st_mode)) {
    if (!ReadToEnd(fd.get(), &text.owned_)) {
      return Status::IOError("read failed: " + path);
    }
  } else if (st.st_size > 0) {
    Result<MappedFile> mapped =
        MappedFile::Map(fd.get(), static_cast<size_t>(st.st_size), path);
    if (!mapped.ok()) return mapped.status();
    text.mapping_ = std::move(*mapped);
  }
  return text;
}

}  // namespace qikey
