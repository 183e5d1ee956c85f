#ifndef QIKEY_DATA_WIRE_CODEC_H_
#define QIKEY_DATA_WIRE_CODEC_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "util/status.h"

namespace qikey {

/// \brief Little-endian byte-stream writer shared by every on-disk
/// format (QIKD datasets, QIKS shard artifacts, QSNP snapshot metadata).
///
/// The formats are little-endian by construction; the supported targets
/// are little-endian, which wire_codec.cc asserts at build time.
class ByteWriter {
 public:
  void Raw(const void* src, size_t n);
  void U8(uint8_t v) { Raw(&v, sizeof(v)); }
  void U16(uint16_t v) { Raw(&v, sizeof(v)); }
  void U32(uint32_t v) { Raw(&v, sizeof(v)); }
  void U64(uint64_t v) { Raw(&v, sizeof(v)); }
  void F64(double v) { Raw(&v, sizeof(v)); }
  /// u32 length prefix + bytes.
  void Str(std::string_view s);
  /// u64 length prefix + bytes.
  void Blob(std::string_view blob);
  /// Zero bytes until `size()` is a multiple of `alignment`.
  void AlignTo(size_t alignment);

  size_t size() const { return out_.size(); }
  std::string Take() && { return std::move(out_); }

 private:
  std::string out_;
};

/// \brief Bounds-checked little-endian reader over a serialized
/// payload. Every accessor fails (returns false) instead of reading
/// past the end; nothing is allocated from attacker-declared sizes
/// before the declared bytes are known to be present.
class ByteReader {
 public:
  explicit ByteReader(std::string_view bytes) : bytes_(bytes) {}

  bool Raw(void* dst, size_t n);
  bool U8(uint8_t* v) { return Raw(v, sizeof(*v)); }
  bool U16(uint16_t* v) { return Raw(v, sizeof(*v)); }
  bool U32(uint32_t* v) { return Raw(v, sizeof(*v)); }
  bool U64(uint64_t* v) { return Raw(v, sizeof(*v)); }
  bool F64(double* v) { return Raw(v, sizeof(*v)); }
  /// u32 length prefix + bytes (copied; the length is checked first).
  bool Str(std::string* s);
  /// u64 length prefix; returns a view into the payload (no copy).
  bool Blob(std::string_view* blob);
  bool Skip(size_t n);

  size_t pos() const { return pos_; }
  size_t remaining() const { return bytes_.size() - pos_; }
  bool AtEnd() const { return pos_ == bytes_.size(); }

 private:
  std::string_view bytes_;
  size_t pos_ = 0;
};

/// 64-bit FNV-1a over `n` bytes — the section checksum of the snapshot
/// format. Not cryptographic; detects truncation and bit rot.
uint64_t Fnv1a64(const void* data, size_t n,
                 uint64_t seed = 0xcbf29ce484222325ULL);

/// Reads a whole file into memory (sized upfront via seek, not
/// byte-by-byte iteration). IOError when the file cannot be opened or
/// read.
Result<std::string> ReadFileBytes(const std::string& path);

/// Atomically replaces `path` with `bytes`: writes `path.tmp.<pid>`,
/// fsyncs it, `rename(2)`s it over `path`, then fsyncs the directory.
/// A reader that has the old file open or mapped keeps the old inode
/// intact, and a crash mid-write leaves the previous file in place. The
/// temp file is removed on error.
Status WriteFileBytes(std::string_view bytes, const std::string& path);

}  // namespace qikey

#endif  // QIKEY_DATA_WIRE_CODEC_H_
