#include "svm/pages.hpp"

#include <sys/mman.h>

#include <algorithm>

#include "util/status.hpp"

namespace fsim::svm {

void PagesUnmap::operator()(std::byte* p) const noexcept {
  ::munmap(p, bytes);
}

Pages map_pages(std::size_t bytes) {
  bytes = std::max<std::size_t>(bytes, 1);
  void* p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  FSIM_CHECK(p != MAP_FAILED);
  return Pages(static_cast<std::byte*>(p), PagesUnmap{bytes});
}

}  // namespace fsim::svm
