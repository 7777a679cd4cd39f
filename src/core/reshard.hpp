// Checkpoint-aware elastic re-sharding (the service scheduler's planner).
//
// A campaign's master checkpoint records exactly which grid points are
// done; everything else is the *remaining grid*. The scheduler carves that
// remainder into disjoint GridSelections — one per worker assignment — and
// folds each worker's checkpoint sidecar back into the master as it
// arrives. Because every aggregate field is an integer sum over grid
// points and run seeds are pure functions of (campaign seed, region,
// index), any disjoint cover of the grid folds to the same master, bit for
// bit: workers may join, die and be replaced mid-campaign without
// perturbing the final counts (docs/SERVICE.md).
#pragma once

#include <cstdint>

#include "core/checkpoint.hpp"

namespace fsim::core {

/// Every committed grid point the checkpoint has NOT completed, as a
/// per-slot selection in enumeration order: the rest of a fixed-n shard,
/// or the unfinished part of an adaptive checkpoint's frontier waves.
/// Resume runs it first, whichever the scheduler.
GridSelection remaining_selection(const Checkpoint& checkpoint);

/// Split off the first `n` grid points of `from` (slot-major enumeration
/// order) into a new selection, removing them from `from`. Returns fewer
/// than `n` when the selection runs dry. The two selections are disjoint
/// and their union is the original — repeated take_front calls therefore
/// produce a disjoint cover, the invariant elastic re-sharding rests on.
GridSelection take_front(GridSelection& from, std::uint64_t n);

/// Fold a (possibly partial) checkpoint into the master — the one fold
/// behind the service's sidecars and `fsim merge`. The delta may come from
/// any shard of the master's batch: identity means the adaptive kind, the
/// specs, the golden runs (a fresh master with placeholder goldens adopts
/// the delta's) and, for adaptive checkpoints, an equal policy. Done sets
/// must be disjoint from the master's; they are unioned and the per-slot
/// counts summed. An adaptive cell takes its frontier and stop flag from
/// the one delta that holds it. Throws SetupError on any identity mismatch
/// or overlap, before touching the master — folding the same checkpoint
/// twice is always refused, so a crash between "fold" and "persist"
/// cannot double-count.
void fold_checkpoint(Checkpoint& master, const Checkpoint& delta);

}  // namespace fsim::core
