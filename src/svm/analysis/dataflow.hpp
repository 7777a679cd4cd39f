// The two fixpoint loops the passes in this directory share.
//
// `Dataflow` is the forward worklist solver over dense node ids (blocks,
// functions, or the positions in one function's block list). It keeps one
// entry state per node and a FIFO worklist with a queued bit: `flow(id, s)`
// joins `s` into the node's state with the pass's join and queues the node
// only when that changed it; `solve(transfer)` pops nodes in push order and
// hands each its entry state by value, and the transfer calls `flow` for
// its out-edges in whatever order the pass emits them. The visit order is
// therefore fixed by the pass alone — which matters to the passes that
// widen after a number of joins (valuerange) or stop at a round budget.
//
// `summary_rounds` is the Gauss-Seidel loop of the interprocedural passes
// (lint's FP-stack balance, the heap scan): each round recomputes every
// function's summary in index order, so a function sees the summaries its
// predecessors in the list already updated this round, until a round
// changes nothing or the budget runs out.
#pragma once

#include <cstdint>
#include <deque>
#include <utility>
#include <vector>

namespace fsim::svm::analysis {

template <class State, class Join>
class Dataflow {
 public:
  /// `join(State& cur, const In& s) -> bool` merges an incoming value into
  /// a node's state and returns true if the state changed.
  Dataflow(std::vector<State>& states, Join join)
      : states_(states), join_(std::move(join)), queued_(states.size()) {}

  template <class In>
  void flow(std::uint32_t id, const In& s) {
    if (join_(states_[id], s) && !queued_[id]) {
      queued_[id] = true;
      work_.push_back(id);
    }
  }

  /// Runs `transfer(id, State entry_state)` until the worklist drains.
  template <class Transfer>
  void solve(Transfer&& transfer) {
    while (!work_.empty()) {
      const std::uint32_t id = work_.front();
      work_.pop_front();
      queued_[id] = false;
      transfer(id, State(states_[id]));
    }
  }

 private:
  std::vector<State>& states_;
  Join join_;
  std::vector<bool> queued_;
  std::deque<std::uint32_t> work_;
};

/// Recomputes `summaries[f] = summarize(f)` for every f, round after round,
/// until a round changes none (returns true) or `max_rounds` rounds have
/// run (returns false).
template <class Summary, class Summarize>
bool summary_rounds(std::vector<Summary>& summaries, int max_rounds,
                    Summarize&& summarize) {
  for (int round = 0; round < max_rounds; ++round) {
    bool changed = false;
    for (std::uint32_t f = 0; f < summaries.size(); ++f) {
      Summary next = summarize(f);
      if (!(next == summaries[f])) {
        summaries[f] = std::move(next);
        changed = true;
      }
    }
    if (!changed) return true;
  }
  return false;
}

}  // namespace fsim::svm::analysis
