#include "serve/conn.h"

#include <cstring>

#include "util/logging.h"

namespace qikey {

size_t LineSplitter::CopyCarry(char* dest) const {
  if (!carry_.empty()) std::memcpy(dest, carry_.data(), carry_.size());
  return carry_.size();
}

bool LineSplitter::Split(std::string_view bytes,
                         std::vector<std::string_view>* out) {
  if (overflowed_) return false;
  QIKEY_DCHECK(bytes.size() >= carry_.size());
  size_t pos = 0;
  while (true) {
    size_t eol = bytes.find('\n', pos);
    size_t end = eol == std::string_view::npos ? bytes.size() : eol;
    if (end - pos > max_line_bytes_) {
      // Framing is lost: we cannot tell where this line would have
      // ended, so no later bytes can be trusted either.
      carry_.clear();
      overflowed_ = true;
      return false;
    }
    if (eol == std::string_view::npos) break;
    std::string_view line = bytes.substr(pos, eol - pos);
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    out->push_back(line);
    pos = eol + 1;
  }
  carry_.assign(bytes.substr(pos));
  return true;
}

}  // namespace qikey
