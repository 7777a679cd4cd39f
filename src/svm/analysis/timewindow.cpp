#include "svm/analysis/timewindow.hpp"

#include <algorithm>

namespace fsim::svm::analysis {

TimeWindow::TimeWindow(const Cfg& cfg, const ExecGraph& graph,
                       const std::map<Addr, SymbolAccess>& access,
                       const MemLiveness& mem)
    : cfg_(&cfg) {
  if (cfg.blocks().empty()) return;

  // One backward reachability per tracked symbol with recorded read sites.
  for (const auto& [key, sa] : access) {
    if (sa.escaped || mem.pointer_published(key)) continue;
    if (!sa.read || sa.read_pcs.empty()) continue;
    windows_.emplace(key, graph.window(cfg, sa.read_pcs));
  }

  // Symbol extents, copied now: map node addresses are stable, and queries
  // must not touch cfg.program() (the Program object may have been moved
  // by the time the injector asks).
  for (const Symbol& s : cfg.program().symbols()) {
    auto it = windows_.find(s.address);
    if (it == windows_.end()) continue;
    ranges_.push_back(
        {s.address, s.address + (s.size ? s.size : 1), &it->second});
  }
  std::sort(ranges_.begin(), ranges_.end(),
            [](const Range& a, const Range& b) { return a.lo < b.lo; });
}

bool TimeWindow::dead_at(Addr addr, Addr pc) const noexcept {
  auto rit = std::upper_bound(
      ranges_.begin(), ranges_.end(), addr,
      [](Addr v, const Range& r) { return v < r.lo; });
  if (rit == ranges_.begin()) return false;
  --rit;
  return addr < rit->hi && rit->window->dead_at(*cfg_, pc);
}

}  // namespace fsim::svm::analysis
