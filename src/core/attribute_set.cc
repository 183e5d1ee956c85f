#include "core/attribute_set.h"

#include <algorithm>
#include <bit>
#include <sstream>

#include "util/logging.h"

namespace qikey {

AttributeSet::AttributeSet(size_t num_attributes)
    : num_attributes_(num_attributes),
      words_((num_attributes + 63) / 64, 0) {}

AttributeSet AttributeSet::FromIndices(
    size_t num_attributes, const std::vector<AttributeIndex>& indices) {
  AttributeSet s(num_attributes);
  for (AttributeIndex i : indices) s.Add(i);
  return s;
}

AttributeSet AttributeSet::All(size_t num_attributes) {
  AttributeSet s(num_attributes);
  for (size_t i = 0; i < num_attributes; ++i) {
    s.Add(static_cast<AttributeIndex>(i));
  }
  return s;
}

AttributeSet AttributeSet::Random(size_t num_attributes, double include_prob,
                                  Rng* rng) {
  QIKEY_CHECK(rng != nullptr);
  AttributeSet s(num_attributes);
  for (size_t i = 0; i < num_attributes; ++i) {
    if (rng->Bernoulli(include_prob)) s.Add(static_cast<AttributeIndex>(i));
  }
  return s;
}

AttributeSet AttributeSet::RandomOfSize(size_t num_attributes, size_t k,
                                        Rng* rng) {
  QIKEY_CHECK(rng != nullptr);
  QIKEY_CHECK(k <= num_attributes);
  AttributeSet s(num_attributes);
  for (uint64_t i : rng->SampleWithoutReplacement(num_attributes, k)) {
    s.Add(static_cast<AttributeIndex>(i));
  }
  return s;
}

size_t AttributeSet::size() const {
  size_t count = 0;
  for (uint64_t w : words_) count += static_cast<size_t>(std::popcount(w));
  return count;
}

bool AttributeSet::Contains(AttributeIndex i) const {
  QIKEY_DCHECK(i < num_attributes_);
  return (words_[i / 64] >> (i % 64)) & 1;
}

void AttributeSet::Add(AttributeIndex i) {
  QIKEY_CHECK(i < num_attributes_)
      << "attribute " << i << " out of range [0," << num_attributes_ << ")";
  words_[i / 64] |= uint64_t{1} << (i % 64);
}

void AttributeSet::Remove(AttributeIndex i) {
  QIKEY_DCHECK(i < num_attributes_);
  words_[i / 64] &= ~(uint64_t{1} << (i % 64));
}

void AttributeSet::Reset(size_t num_attributes) {
  num_attributes_ = num_attributes;
  words_.assign((num_attributes + 63) / 64, 0);
}

AttributeSet AttributeSet::Union(const AttributeSet& other) const {
  QIKEY_CHECK(num_attributes_ == other.num_attributes_);
  AttributeSet out(num_attributes_);
  for (size_t w = 0; w < words_.size(); ++w) {
    out.words_[w] = words_[w] | other.words_[w];
  }
  return out;
}

AttributeSet AttributeSet::Intersection(const AttributeSet& other) const {
  QIKEY_CHECK(num_attributes_ == other.num_attributes_);
  AttributeSet out(num_attributes_);
  for (size_t w = 0; w < words_.size(); ++w) {
    out.words_[w] = words_[w] & other.words_[w];
  }
  return out;
}

AttributeSet AttributeSet::Difference(const AttributeSet& other) const {
  QIKEY_CHECK(num_attributes_ == other.num_attributes_);
  AttributeSet out(num_attributes_);
  for (size_t w = 0; w < words_.size(); ++w) {
    out.words_[w] = words_[w] & ~other.words_[w];
  }
  return out;
}

bool AttributeSet::IsSubsetOf(const AttributeSet& other) const {
  QIKEY_CHECK(num_attributes_ == other.num_attributes_);
  for (size_t w = 0; w < words_.size(); ++w) {
    if ((words_[w] & ~other.words_[w]) != 0) return false;
  }
  return true;
}

std::vector<AttributeIndex> AttributeSet::ToIndices() const {
  std::vector<AttributeIndex> out;
  out.reserve(size());
  for (size_t w = 0; w < words_.size(); ++w) {
    uint64_t bits = words_[w];
    while (bits != 0) {
      int b = std::countr_zero(bits);
      out.push_back(static_cast<AttributeIndex>(w * 64 + b));
      bits &= bits - 1;
    }
  }
  return out;
}

std::string AttributeSet::ToString(const Schema* schema) const {
  std::ostringstream out;
  out << "{";
  bool first = true;
  for (AttributeIndex i : ToIndices()) {
    if (!first) out << ", ";
    first = false;
    if (schema != nullptr) {
      out << schema->name(i);
    } else {
      out << i;
    }
  }
  out << "}";
  return out.str();
}

bool AttributeSet::operator==(const AttributeSet& other) const {
  return num_attributes_ == other.num_attributes_ && words_ == other.words_;
}

uint64_t AttributeSet::Hash() const {
  uint64_t h = 0x9E3779B97F4A7C15ULL ^ num_attributes_;
  for (uint64_t w : words_) {
    h ^= w + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
    h *= 0xBF58476D1CE4E5B9ULL;
    h ^= h >> 29;
  }
  return h;
}

}  // namespace qikey
