// Zeroed memory in anonymous mappings of its own.
//
// A simulated address space and the golden run's read stamps are large,
// sparse reservations: most of their bytes are never touched. Mapped pages
// are backed only where a write lands, and unmapping hands every page back
// to the system at once. Kept out of the malloc heap, they can neither
// fragment it nor stay resident in a thread's arena after they are freed.
#pragma once

#include <cstddef>
#include <memory>

namespace fsim::svm {

/// Unmaps a block of pages.
struct PagesUnmap {
  std::size_t bytes = 0;
  void operator()(std::byte* p) const noexcept;
};

using Pages = std::unique_ptr<std::byte[], PagesUnmap>;

/// `bytes` zeroed bytes (at least one page) in a private anonymous mapping;
/// a page is backed when first touched.
Pages map_pages(std::size_t bytes);

}  // namespace fsim::svm
