// LINT-PATH: src/util/mapped_file.cc
//
// Clean control for QL008: the mapped-file home may map and unmap.

#include <sys/mman.h>

#include <cstddef>

const void* MapWhole(int fd, size_t size) {
  void* base = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  return base == MAP_FAILED ? nullptr : base;
}

void UnmapWhole(const void* base, size_t size) {
  ::munmap(const_cast<void*>(base), size);
}
