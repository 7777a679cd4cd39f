#include "simmpi/snapshot.hpp"

#include <vector>

#include "simmpi/world.hpp"
#include "util/status.hpp"

namespace fsim::simmpi {

struct Snapshot::Impl {
  struct RankState {
    svm::Machine::CoreState core;
    svm::Memory::Contents memory;
    svm::Heap::State heap;
    svm::BasicEnv::IoState io;
    Channel::State channel;
    Process::State mpi;
  };
  std::vector<RankState> ranks;
  World::State world;
  std::uint64_t instructions = 0;
  svm::Pages memory;  // every rank's memory contents, back to back
};

Snapshot::Snapshot() : impl_(std::make_unique<Impl>()) {}
Snapshot::~Snapshot() = default;
Snapshot::Snapshot(Snapshot&&) noexcept = default;
Snapshot& Snapshot::operator=(Snapshot&&) noexcept = default;

Snapshot Snapshot::capture(const World& world) {
  Snapshot snap;
  snap.recapture(world);
  return snap;
}

void Snapshot::recapture(const World& world) {
  // World accessors are non-const by interface; the capture itself does not
  // mutate observable state.
  World& w = const_cast<World&>(world);
  Impl& im = *impl_;
  im.world = w.snapshot_state();
  // The memory contents of every rank go into one mapping of their own:
  // a ladder of them never enters the malloc heap.
  std::size_t total = 0;
  for (int r = 0; r < w.size(); ++r)
    total += w.machine(r).memory().contents_size();
  if (!im.memory || im.memory.get_deleter().bytes < total)
    im.memory = svm::map_pages(total);
  std::byte* at = im.memory.get();
  im.ranks.resize(static_cast<std::size_t>(w.size()));
  im.instructions = 0;
  for (int r = 0; r < w.size(); ++r) {
    const svm::Memory& mem = w.machine(r).memory();
    Impl::RankState& rs = im.ranks[static_cast<std::size_t>(r)];
    rs.core = w.machine(r).core_state();
    const std::size_t size = mem.contents_size();
    rs.memory = mem.snapshot_contents({at, size});
    at += size;
    rs.heap = w.process(r).heap().snapshot_state();
    rs.io = w.process(r).io_state();
    rs.channel = w.process(r).channel().snapshot_state();
    rs.mpi = w.process(r).snapshot_state();
    im.instructions += rs.core.icount;
  }
}

void Snapshot::restore(World& world) const {
  FSIM_CHECK(static_cast<int>(impl_->ranks.size()) == world.size());
  world.restore_state(impl_->world);
  for (int r = 0; r < world.size(); ++r) {
    const Impl::RankState& rs = impl_->ranks[static_cast<std::size_t>(r)];
    world.machine(r).restore_core_state(rs.core);
    world.machine(r).memory().restore_contents(rs.memory);
    world.process(r).heap().restore_state(rs.heap);
    world.process(r).restore_io_state(rs.io);
    world.process(r).channel().restore_state(rs.channel);
    world.process(r).restore_state(rs.mpi);
  }
}

svm::Match Snapshot::matches(const World& world,
                             const std::vector<svm::ReadLog>* oracle) const {
  World& w = const_cast<World&>(world);  // accessors only, as in capture()
  if (static_cast<int>(impl_->ranks.size()) != w.size() ||
      w.global_instructions() != impl_->instructions)
    return svm::Match::kDiffers;
  svm::Match result = svm::Match::kExact;
  // Folds one part's verdict in; false once the world differs.
  const auto fold = [&result](svm::Match part) {
    if (part == svm::Match::kObservable) result = part;
    return part != svm::Match::kDiffers;
  };
  // Registers and counts first: they differ soonest and cost least.
  for (int r = 0; r < w.size(); ++r)
    if (!fold(w.machine(r).core_state().compare(
            impl_->ranks[static_cast<std::size_t>(r)].core)))
      return svm::Match::kDiffers;
  if (!(w.snapshot_state() == impl_->world)) return svm::Match::kDiffers;
  for (int r = 0; r < w.size(); ++r) {
    const Impl::RankState& rs = impl_->ranks[static_cast<std::size_t>(r)];
    Process& p = w.process(r);
    if (!(p.snapshot_state() == rs.mpi) ||
        !(p.channel().snapshot_state() == rs.channel) ||
        !(p.heap().snapshot_state() == rs.heap) || !(p.io_state() == rs.io))
      return svm::Match::kDiffers;
  }
  for (int r = 0; r < w.size(); ++r) {
    const auto rank = static_cast<std::size_t>(r);
    const Impl::RankState& rs = impl_->ranks[rank];
    if (!fold(w.machine(r).memory().same_contents(
            rs.memory, oracle != nullptr ? &(*oracle)[rank] : nullptr,
            rs.core.icount)))
      return svm::Match::kDiffers;
  }
  return result;
}

std::uint64_t Snapshot::instructions() const noexcept {
  return impl_->instructions;
}

std::uint64_t Snapshot::received_bytes(int rank) const {
  return impl_->ranks.at(static_cast<std::size_t>(rank))
      .channel.received_bytes;
}

std::uint64_t Snapshot::size_bytes() const noexcept {
  std::uint64_t total = sizeof(Impl);
  for (const auto& rs : impl_->ranks) {
    total += sizeof(rs);
    for (const auto& seg : rs.memory.bytes) total += seg.size();
    total += rs.io.console.size() + rs.io.output.size();
    for (const auto& pkt : rs.channel.queue) total += pkt.size();
    total += rs.mpi.inbox.size() * sizeof(MsgHeader);
    total += rs.heap.live.size() * sizeof(svm::Heap::Chunk);
  }
  return total;
}

}  // namespace fsim::simmpi
