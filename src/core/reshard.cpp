#include "core/reshard.hpp"

#include <string>

#include "util/status.hpp"

namespace fsim::core {

GridSelection remaining_selection(const Checkpoint& ck) {
  GridSelection sel = ck.committed();
  for (std::size_t s = 0; s < sel.slots.size(); ++s)
    sel.slots[s] = sel.slots[s].minus(ck.slots[s].done);
  return sel;
}

GridSelection take_front(GridSelection& from, std::uint64_t n) {
  GridSelection taken;
  taken.slots.resize(from.slots.size());
  for (std::size_t s = 0; s < from.slots.size() && n > 0; ++s) {
    RunSet rest;
    for (const auto& [first, last] : from.slots[s].ranges()) {
      if (n == 0) {
        rest.append_range(first, last);
        continue;
      }
      const std::uint64_t len = static_cast<std::uint64_t>(last - first) + 1;
      if (len <= n) {
        taken.slots[s].append_range(first, last);
        n -= len;
      } else {
        const int cut = first + static_cast<int>(n) - 1;
        taken.slots[s].append_range(first, cut);
        rest.append_range(cut + 1, last);
        n = 0;
      }
    }
    from.slots[s] = std::move(rest);
  }
  return taken;
}

void fold_checkpoint(Checkpoint& master, const Checkpoint& delta) {
  // The master never executes runs itself, so it starts with placeholder
  // goldens and adopts the first delta's. Golden runs are deterministic
  // per (app, params), so every later delta must agree exactly. Any shard
  // of the batch folds: the done sets, not the coordinates, say what a
  // delta covers, and parsing has checked them against its shard.
  std::vector<Golden> goldens = master.goldens;
  for (std::size_t c = 0; c < goldens.size() && c < delta.goldens.size(); ++c)
    if (goldens[c].instructions == 0) goldens[c] = delta.goldens[c];
  require_same_batch("fold", delta, master.adaptive.has_value(), delta.shard,
                     master.specs, goldens);
  if (master.adaptive && !(*master.adaptive == *delta.adaptive))
    throw util::SetupError(
        "fold: adaptive policies differ (--ci, --confidence and --wave "
        "must match across shards)");

  // Overlap checks before any mutation: refusing the whole delta keeps
  // fold atomic — a rejected checkpoint leaves the master untouched.
  auto holds_cell = [](const CheckpointSlot& cs) {
    return cs.frontier > 0 || cs.stopped;
  };
  for (std::size_t s = 0; s < master.slots.size(); ++s) {
    const CheckpointSlot& ms = master.slots[s];
    const CheckpointSlot& ds = delta.slots[s];
    for (const auto& [first, last] : ds.done.ranges())
      for (int i = first; i <= last; ++i)
        if (ms.done.contains(i))
          throw util::SetupError(
              "fold: run " + std::to_string(i) + " of slot " +
              std::to_string(s) +
              " is already counted in the master (folded twice?)");
    if (master.adaptive && holds_cell(ms) && holds_cell(ds))
      throw util::SetupError("fold: adaptive cell " + std::to_string(s) +
                             " is already held by another input");
  }
  for (std::size_t s = 0; s < master.slots.size(); ++s) {
    CheckpointSlot& ms = master.slots[s];
    const CheckpointSlot& ds = delta.slots[s];
    for (const auto& [first, last] : ds.done.ranges())
      for (int i = first; i <= last; ++i) ms.done.insert(i);
    merge_region_counts(ms.counts, ds.counts);
    ms.counts.region = ds.counts.region;
    if (holds_cell(ds)) {
      ms.frontier = ds.frontier;
      ms.stopped = ds.stopped;
    }
  }
  master.goldens = std::move(goldens);
  if (delta.cursor > master.cursor) master.cursor = delta.cursor;
}

}  // namespace fsim::core
