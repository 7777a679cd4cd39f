#include "svm/analysis/execgraph.hpp"

namespace fsim::svm::analysis {

ExecGraph::ExecGraph(const Cfg& cfg) {
  const auto& blocks = cfg.blocks();
  rev_.resize(blocks.size());
  unbounded_.assign(blocks.size(), false);
  if (blocks.empty()) return;

  std::vector<std::uint32_t> taken;
  for (Addr a : cfg.materialized()) {
    const std::uint32_t id = cfg.block_index_of(a);
    if (id != Cfg::kNoBlock) taken.push_back(id);
  }
  for (std::uint32_t id = 0; id < blocks.size(); ++id) {
    const Block& b = blocks[id];
    auto edge = [&](std::uint32_t t) { rev_[t].push_back(id); };
    if (b.falls_off_end) unbounded_[id] = true;
    switch (b.term) {
      case FlowKind::kCall:
        if (b.call_target >= 0 && !b.call_outside && !b.bad_target) {
          // Execution enters the callee; the return site is reached only
          // through the callee's rets (the precision over succ edges).
          edge(static_cast<std::uint32_t>(b.call_target));
        } else {
          unbounded_[id] = true;  // unknown callee: could do anything
        }
        break;
      case FlowKind::kIndirectCall:
        for (std::uint32_t t : taken) edge(t);
        // The continuation is not registered as a return site of any
        // particular function; keep it reachable directly.
        for (std::uint32_t t : b.succ) edge(t);
        break;
      case FlowKind::kIndirectJump:
        for (std::uint32_t t : taken) edge(t);
        break;
      case FlowKind::kRet:
        for (std::uint32_t fn_id : cfg.functions_of(id))
          for (std::uint32_t t : cfg.functions()[fn_id].return_sites)
            edge(t);
        break;
      case FlowKind::kIllegal:  // traps; nothing executes afterwards
        break;
      default:
        // An aborting syscall terminates the rank; any other terminator
        // (branch, jump, fallthrough, non-aborting sys) follows succ.
        if (!aborting_sys(decode(cfg.word_at(b.end - 4))))
          for (std::uint32_t t : b.succ) edge(t);
        break;
    }
  }
}

bool ReadWindow::dead_at(const Cfg& cfg, Addr pc) const noexcept {
  const std::uint32_t b = cfg.block_index_of(pc);
  if (b == Cfg::kNoBlock || live_out[b]) return false;
  const auto it = reads.find(b);
  return it == reads.end() || it->second.back() < pc;
}

}  // namespace fsim::svm::analysis
