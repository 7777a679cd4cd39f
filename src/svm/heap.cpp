#include "svm/heap.hpp"

#include <algorithm>

#include "util/status.hpp"

namespace fsim::svm {

Heap::Heap(Memory& mem) : mem_(&mem) {
  const auto& e = mem.extent(Segment::kHeap);
  base_ = e.base;
  capacity_ = e.size;
}

void Heap::write_header(Addr header_addr, AllocTag tag, std::uint32_t size) {
  FSIM_CHECK(mem_->poke32(header_addr, static_cast<std::uint32_t>(tag)));
  FSIM_CHECK(mem_->poke32(header_addr + 4, size));
}

Addr Heap::malloc(std::uint32_t size, Addr site) {
  if (size == 0) size = 1;
  const std::uint32_t need =
      (size + kHeaderBytes + kAlign - 1) & ~(kAlign - 1);

  // First fit from the free list.
  std::vector<FreeBlock>& free_list = state_.free_list;
  for (std::size_t i = 0; i < free_list.size(); ++i) {
    FreeBlock& fb = free_list[i];
    if (fb.size < need) continue;
    const std::uint32_t off = fb.offset;
    if (fb.size - need >= kHeaderBytes + kAlign) {
      fb.offset += need;
      fb.size -= need;
    } else {
      free_list.erase(free_list.begin() + static_cast<std::ptrdiff_t>(i));
    }
    const AllocTag tag = state_.mpi_context ? AllocTag::kMpi : AllocTag::kUser;
    write_header(base_ + off, tag, size);
    const Addr payload = base_ + off + kHeaderBytes;
    state_.live[payload] = Chunk{payload, size, tag, site};
    return payload;
  }

  // Extend the brk.
  if (state_.brk + need > capacity_) return 0;  // arena exhausted
  const std::uint32_t off = state_.brk;
  state_.brk += need;
  state_.peak = std::max(state_.peak, state_.brk);
  const AllocTag tag = state_.mpi_context ? AllocTag::kMpi : AllocTag::kUser;
  write_header(base_ + off, tag, size);
  const Addr payload = base_ + off + kHeaderBytes;
  state_.live[payload] = Chunk{payload, size, tag, site};
  return payload;
}

void Heap::free(Addr payload) {
  auto it = state_.live.find(payload);
  if (it == state_.live.end()) return;
  const std::uint32_t payload_span =
      (it->second.size + kHeaderBytes + kAlign - 1) & ~(kAlign - 1);
  FreeBlock fb{payload - kHeaderBytes - base_, payload_span};
  state_.live.erase(it);

  // Insert in address order and coalesce with neighbours.
  auto pos = std::lower_bound(
      state_.free_list.begin(), state_.free_list.end(), fb,
      [](const FreeBlock& a, const FreeBlock& b) { return a.offset < b.offset; });
  pos = state_.free_list.insert(pos, fb);
  // Coalesce with the next block.
  if (pos + 1 != state_.free_list.end() &&
      pos->offset + pos->size == (pos + 1)->offset) {
    pos->size += (pos + 1)->size;
    state_.free_list.erase(pos + 1);
  }
  // Coalesce with the previous block.
  if (pos != state_.free_list.begin()) {
    auto prev = pos - 1;
    if (prev->offset + prev->size == pos->offset) {
      prev->size += pos->size;
      state_.free_list.erase(pos);
    }
  }
}

Addr Heap::realloc(Addr payload, std::uint32_t new_size) {
  if (payload == 0) return malloc(new_size);
  auto it = state_.live.find(payload);
  if (it == state_.live.end()) return 0;  // garbage pointer: refuse
  if (new_size == 0) {
    free(payload);
    return 0;
  }
  const Chunk old = it->second;
  if (new_size <= old.size) {
    // Shrink in place: update both the host record and the in-heap header.
    it->second.size = new_size;
    write_header(payload - kHeaderBytes, old.tag, new_size);
    return payload;
  }
  // Grow: allocate under the ORIGINAL tag, copy, free the old chunk.
  const bool saved_context = state_.mpi_context;
  state_.mpi_context = old.tag == AllocTag::kMpi;
  const Addr fresh = malloc(new_size);
  state_.mpi_context = saved_context;
  if (fresh == 0) return 0;
  std::vector<std::byte> bytes(old.size);
  FSIM_CHECK(mem_->peek_span(payload, bytes));
  FSIM_CHECK(mem_->poke_span(fresh, bytes));
  free(payload);
  return fresh;
}

std::vector<Heap::Chunk> Heap::live_chunks() const {
  std::vector<Chunk> out;
  out.reserve(state_.live.size());
  for (const auto& [addr, chunk] : state_.live) out.push_back(chunk);
  return out;
}

std::uint64_t Heap::live_bytes(AllocTag tag) const {
  std::uint64_t total = 0;
  for (const auto& [addr, chunk] : state_.live)
    if (chunk.tag == tag) total += chunk.size;
  return total;
}

}  // namespace fsim::svm
