// LINT-PATH: src/data/bad_mmap.cc
// EXPECT-LINT: QL008
// EXPECT-LINT: QL008
//
// A second file mapping outside util/mapped_file.cc: its checks (regular
// file, size, unmap on every return path) would have to be kept here
// too. Mentioning mmap( in a comment is fine.

#include <sys/mman.h>

#include <cstddef>

size_t SumMapped(int fd, size_t size) {
  void* base = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  if (base == MAP_FAILED) return 0;
  size_t sum = 0;
  for (size_t i = 0; i < size; ++i) sum += static_cast<unsigned char*>(base)[i];
  munmap(base, size);
  return sum;
}
