#include "trace/profile.hpp"

#include <algorithm>
#include <cstdio>
#include <set>

#include "simmpi/stubs.hpp"
#include "simmpi/world.hpp"
#include "svm/analysis/analysis.hpp"
#include "svm/layout.hpp"
#include "util/status.hpp"
#include "util/table.hpp"

namespace fsim::trace {

namespace {

/// Static data/BSS access-site census: how often reachable code reads and
/// writes each symbol, with library (MPI) symbols tagged — the profile-side
/// view of the fault-dictionary's user/MPI split. Reads the same analysis
/// bundle a campaign prepares.
std::vector<ProcessProfile::SymbolTouch> scan_symbol_touches(
    const svm::Program& program,
    const svm::analysis::ProgramAnalysis& analysis,
    std::vector<ProcessProfile::HeapSiteCensus>& heap_sites) {
  // Allocation-site census from the heap rung's interprocedural scan: the
  // profile-side answer to "which mallocs could a heap flip ever reach?".
  const svm::analysis::HeapLiveness& heap = analysis.heapliveness();
  if (heap.tracked()) {
    for (const auto& [pc, site] : heap.sites()) {
      ProcessProfile::HeapSiteCensus c;
      c.pc = pc;
      c.function = site.symbol;
      c.mpi = !site.user;
      c.read_sites = static_cast<int>(site.read_pcs.size());
      c.written = site.written;
      c.klass = heap.site_dead(pc)  ? "write-only"
                : site.escaped      ? "escaped"
                                    : "windowed";
      heap_sites.push_back(std::move(c));
    }
  }

  std::set<std::string> library_names;
  for (const auto& name : simmpi::stub_symbol_names())
    library_names.insert(name);
  for (const auto& sym : program.symbols())
    if (svm::is_library_segment(sym.segment)) library_names.insert(sym.name);

  std::vector<ProcessProfile::SymbolTouch> touches;
  for (const auto& [addr, sa] : analysis.symbol_access()) {
    const svm::Symbol* sym = program.symbol_covering(addr);
    if (sym == nullptr) continue;
    ProcessProfile::SymbolTouch t;
    t.name = sym->name;
    t.segment = sym->segment;
    t.read_sites = sa.read_sites;
    t.write_sites = sa.write_sites;
    t.escaped = sa.escaped;
    t.mpi = library_names.count(sym->name) > 0;
    touches.push_back(std::move(t));
  }
  std::sort(touches.begin(), touches.end(),
            [](const ProcessProfile::SymbolTouch& a,
               const ProcessProfile::SymbolTouch& b) {
              if (a.sites() != b.sites()) return a.sites() > b.sites();
              return a.name < b.name;
            });
  return touches;
}

}  // namespace

ProcessProfile profile_app(const apps::App& app) {
  const svm::Program program = app.link();
  simmpi::World world(program, app.world);

  ProcessProfile p;
  p.app = app.name;
  p.ranks = app.world.nranks;
  p.text_size = program.segment_size(svm::Segment::kText);
  p.data_size = program.segment_size(svm::Segment::kData);
  p.bss_size = program.segment_size(svm::Segment::kBss);

  const svm::Addr stack_top =
      world.machine(0).memory().extent(svm::Segment::kStack).end();
  std::uint64_t min_sp = stack_top;

  // Sample heap composition and stack depth each scheduler round — the
  // paper's malloc wrapper similarly tracks the heap to its stable point.
  while (world.status() == simmpi::JobStatus::kRunning) {
    world.advance();
    for (int r = 0; r < world.size(); ++r) {
      const auto& heap = world.process(r).heap();
      p.heap_stable =
          std::max(p.heap_stable, heap.live_bytes(svm::AllocTag::kUser));
      p.heap_mpi_peak =
          std::max(p.heap_mpi_peak, heap.live_bytes(svm::AllocTag::kMpi));
      min_sp = std::min<std::uint64_t>(min_sp, world.machine(r).regs().sp());
    }
    if (world.global_instructions() > 2'000'000'000ull) break;
  }
  if (world.status() != simmpi::JobStatus::kCompleted)
    throw util::SetupError("profile run of '" + app.name +
                           "' did not complete cleanly");

  p.stack_peak = stack_top - min_sp;
  p.golden_instructions = world.global_instructions();

  for (int r = 0; r < world.size(); ++r) {
    const auto& s = world.process(r).channel().stats();
    p.traffic.control_messages += s.control_messages;
    p.traffic.data_messages += s.data_messages;
    p.traffic.header_bytes += s.header_bytes;
    p.traffic.payload_bytes += s.payload_bytes;
  }
  const double total = static_cast<double>(p.traffic.total_bytes());
  if (total > 0) {
    p.header_pct = 100.0 * static_cast<double>(p.traffic.header_bytes) / total;
    p.user_pct = 100.0 * static_cast<double>(p.traffic.payload_bytes) / total;
  }
  p.bytes_per_rank =
      p.traffic.total_bytes() / static_cast<std::uint64_t>(world.size());
  p.symbol_access = scan_symbol_touches(
      program, svm::analysis::ProgramAnalysis(program), p.heap_sites);
  return p;
}

std::string format_profiles(const std::vector<ProcessProfile>& profiles) {
  util::Table t("Per-Process Profiles of Test Applications (Table 1 analogue)");
  std::vector<std::string> head = {"Metric"};
  for (const auto& p : profiles) head.push_back(p.app);
  t.header(head);

  auto row = [&](const std::string& label, auto getter) {
    std::vector<std::string> cells = {label};
    for (const auto& p : profiles) cells.push_back(getter(p));
    t.row(std::move(cells));
  };
  row("Ranks", [](const ProcessProfile& p) { return std::to_string(p.ranks); });
  row("Text size",
      [](const ProcessProfile& p) { return util::fmt_bytes(p.text_size); });
  row("Data size",
      [](const ProcessProfile& p) { return util::fmt_bytes(p.data_size); });
  row("BSS size",
      [](const ProcessProfile& p) { return util::fmt_bytes(p.bss_size); });
  row("Heap size (stable, user)",
      [](const ProcessProfile& p) { return util::fmt_bytes(p.heap_stable); });
  row("Stack size (peak)",
      [](const ProcessProfile& p) { return util::fmt_bytes(p.stack_peak); });
  t.separator();
  row("Messages received / rank", [](const ProcessProfile& p) {
    return std::to_string(p.traffic.total_messages() /
                          static_cast<std::uint64_t>(p.ranks));
  });
  row("Message volume / rank", [](const ProcessProfile& p) {
    return util::fmt_bytes(p.bytes_per_rank);
  });
  row("Header %",
      [](const ProcessProfile& p) { return util::fmt_fixed(p.header_pct, 0); });
  row("User %",
      [](const ProcessProfile& p) { return util::fmt_fixed(p.user_pct, 0); });
  row("Control messages", [](const ProcessProfile& p) {
    return std::to_string(p.traffic.control_messages);
  });
  row("Data messages", [](const ProcessProfile& p) {
    return std::to_string(p.traffic.data_messages);
  });
  std::string out = t.ascii();

  // Static symbol-access census, one table per app, most-touched first.
  for (const auto& p : profiles) {
    if (p.symbol_access.empty()) continue;
    util::Table st("Data/BSS symbol access sites — " + p.app);
    st.header({"Symbol", "Segment", "Reads", "Writes", "Tag"});
    for (const auto& s : p.symbol_access) {
      st.row({s.name + (s.escaped ? " *" : ""), svm::segment_name(s.segment),
              std::to_string(s.read_sites), std::to_string(s.write_sites),
              s.mpi ? "mpi" : "user"});
    }
    out += "\n" + st.ascii();
    bool any_escaped = false;
    for (const auto& s : p.symbol_access) any_escaped |= s.escaped;
    if (any_escaped)
      out += "(* address escapes local tracking; counts are a lower bound)\n";
  }

  // Allocation-site census, one table per app that allocates: where each
  // chunk is born and the heap rung's classification of its readability.
  for (const auto& p : profiles) {
    if (p.heap_sites.empty()) continue;
    util::Table ht("Heap allocation sites — " + p.app);
    ht.header({"Site", "Function", "Tag", "Reads", "Written", "Class"});
    for (const auto& s : p.heap_sites) {
      char pc[16];
      std::snprintf(pc, sizeof pc, "0x%08x", s.pc);
      ht.row({pc, s.function, s.mpi ? "mpi" : "user",
              std::to_string(s.read_sites), s.written ? "yes" : "no",
              s.klass});
    }
    out += "\n" + ht.ascii();
  }
  return out;
}

}  // namespace fsim::trace
