#include "data/wire_codec.h"

#include <fcntl.h>
#include <unistd.h>

#include <bit>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <string>

namespace qikey {

// The on-disk formats store fixed-width integers verbatim.
static_assert(std::endian::native == std::endian::little,
              "qikey serialization requires a little-endian target");

void ByteWriter::Raw(const void* src, size_t n) {
  if (n == 0) return;  // empty vectors may hand over a null pointer
  size_t at = out_.size();
  out_.resize(at + n);
  std::memcpy(out_.data() + at, src, n);
}

void ByteWriter::Str(std::string_view s) {
  U32(static_cast<uint32_t>(s.size()));
  Raw(s.data(), s.size());
}

void ByteWriter::Blob(std::string_view blob) {
  U64(blob.size());
  Raw(blob.data(), blob.size());
}

void ByteWriter::AlignTo(size_t alignment) {
  while (out_.size() % alignment != 0) out_.push_back('\0');
}

bool ByteReader::Raw(void* dst, size_t n) {
  if (n == 0) return true;  // empty targets may hand over a null pointer
  if (n > remaining()) return false;
  std::memcpy(dst, bytes_.data() + pos_, n);
  pos_ += n;
  return true;
}

bool ByteReader::Str(std::string* s) {
  uint32_t len = 0;
  if (!U32(&len)) return false;
  if (len > remaining()) return false;
  s->assign(bytes_.data() + pos_, len);
  pos_ += len;
  return true;
}

bool ByteReader::Blob(std::string_view* blob) {
  uint64_t len = 0;
  if (!U64(&len)) return false;
  if (len > remaining()) return false;
  *blob = bytes_.substr(pos_, static_cast<size_t>(len));
  pos_ += static_cast<size_t>(len);
  return true;
}

bool ByteReader::Skip(size_t n) {
  if (n > remaining()) return false;
  pos_ += n;
  return true;
}

uint64_t Fnv1a64(const void* data, size_t n, uint64_t seed) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  uint64_t h = seed;
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001B3ULL;
  }
  return h;
}

Result<std::string> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return Status::IOError("cannot open: " + path);
  std::streamoff size = in.tellg();
  if (size < 0) return Status::IOError("cannot size: " + path);
  std::string bytes(static_cast<size_t>(size), '\0');
  in.seekg(0);
  if (size > 0 && !in.read(bytes.data(), size)) {
    return Status::IOError("read failed: " + path);
  }
  return bytes;
}

namespace {

Status WriteAndSync(int fd, std::string_view bytes) {
  while (!bytes.empty()) {
    ssize_t n = ::write(fd, bytes.data(), bytes.size());
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return Status::IOError(std::strerror(errno));
    bytes.remove_prefix(static_cast<size_t>(n));
  }
  if (::fsync(fd) != 0) return Status::IOError(std::strerror(errno));
  return Status::OK();
}

}  // namespace

Status WriteFileBytes(std::string_view bytes, const std::string& path) {
  const std::string tmp = path + ".tmp." + std::to_string(::getpid());
  int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                  0666);
  if (fd < 0) return Status::IOError("cannot open for write: " + tmp);
  Status written = WriteAndSync(fd, bytes);
  if (::close(fd) != 0 && written.ok()) {
    written = Status::IOError(std::strerror(errno));
  }
  if (written.ok() && ::rename(tmp.c_str(), path.c_str()) != 0) {
    written = Status::IOError(std::strerror(errno));
  }
  if (!written.ok()) {
    ::unlink(tmp.c_str());
    return Status::IOError("write failed: " + path + ": " +
                           written.message());
  }
  // Make the rename itself durable.
  const size_t slash = path.rfind('/');
  const std::string dir = slash == std::string::npos ? "."
                          : slash == 0               ? "/"
                                                     : path.substr(0, slash);
  int dir_fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dir_fd < 0) return Status::IOError("cannot open directory: " + dir);
  const bool synced = ::fsync(dir_fd) == 0;
  ::close(dir_fd);
  if (!synced) return Status::IOError("directory fsync failed: " + dir);
  return Status::OK();
}

}  // namespace qikey
