// Static-fact pins: one FNV-1a digest per bundled app over every verdict
// the analysis layer hands the injector and lint. The digests were
// recorded before the solver machinery in svm/analysis was shared between
// passes, so any change to a register, FP-depth, text, data, time-window,
// heap, stack, value-range or lint verdict shows up here — including the
// ones no campaign digest happens to sample.
//
// A mismatch prints one digest per fact family, so the family that moved
// can be found by comparing against a build of the previous commit.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "apps/app.hpp"
#include "svm/analysis/analysis.hpp"
#include "svm/analysis/lint.hpp"

namespace fsim::svm::analysis {
namespace {

class Fnv {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xff;
      h_ *= 0x100000001b3ull;
    }
  }
  void add(const std::string& s) {
    add(s.size());
    for (unsigned char c : s) {
      h_ ^= c;
      h_ *= 0x100000001b3ull;
    }
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

void add_bounds(Fnv& f, const DepthBounds& b) {
  f.add(static_cast<std::uint64_t>(static_cast<std::uint8_t>(b.lo)) |
        static_cast<std::uint64_t>(static_cast<std::uint8_t>(b.hi)) << 8 |
        static_cast<std::uint64_t>(b.anchored) << 16 |
        static_cast<std::uint64_t>(b.reachable) << 17);
}

/// Every instruction address of user text, then library text.
std::vector<Addr> code_pcs(const Program& p) {
  std::vector<Addr> pcs;
  for (Segment s : {Segment::kText, Segment::kLibText})
    for (Addr a = p.segment_base(s); a < p.segment_base(s) + p.segment_size(s);
         a += 4)
      pcs.push_back(a);
  return pcs;
}

struct Facts {
  std::vector<std::pair<std::string, std::uint64_t>> families;
  std::uint64_t total() const {
    Fnv f;
    for (const auto& [name, d] : families) {
      f.add(name);
      f.add(d);
    }
    return f.value();
  }
  std::string describe() const {
    std::string s;
    for (const auto& [name, d] : families)
      s += "  " + name + " " + std::to_string(d) + "\n";
    return s;
  }
};

Facts collect(const std::string& app_name) {
  const apps::App app = apps::make_app(app_name);
  const Program program = app.link();
  const ProgramAnalysis an(program);
  const std::vector<Addr> pcs = code_pcs(program);
  Facts facts;
  auto family = [&](const std::string& name, auto&& fold) {
    Fnv f;
    fold(f);
    facts.families.emplace_back(name, f.value());
  };

  family("register_dead_at", [&](Fnv& f) {
    for (Addr pc : pcs)
      for (unsigned r = 0; r < kNumGpr; ++r) f.add(an.register_dead_at(pc, r));
  });
  family("fpu_slot_dead", [&](Fnv& f) {
    for (Addr pc : pcs)
      for (unsigned s = 0; s < kNumFpr; ++s) {
        f.add(an.fpu_slot_dead_at(pc, s));
        f.add(an.fpu_slot_dead_ctx(pc, s));
      }
  });
  family("fp_bounds", [&](Fnv& f) {
    for (Addr pc : pcs) {
      add_bounds(f, an.fpdepth().bounds_at(pc));
      add_bounds(f, an.fpdepth_ctx().bounds_at(pc));
    }
  });
  family("text_reachable", [&](Fnv& f) {
    const Addr base = program.segment_base(Segment::kText);
    for (Addr a = base; a < base + program.segment_size(Segment::kText);
         a += 4) {
      f.add(an.text_reachable(a));
      f.add(an.text_reachable_refined(a));
    }
  });
  std::vector<Addr> symbol_starts;
  family("data_byte_dead", [&](Fnv& f) {
    for (Segment s : {Segment::kData, Segment::kBss}) {
      const Addr base = program.segment_base(s);
      for (Addr a = base; a < base + program.segment_size(s); ++a)
        f.add(an.data_byte_dead(a));
    }
    for (const Symbol& s : program.symbols())
      if (s.segment == Segment::kData || s.segment == Segment::kBss)
        symbol_starts.push_back(s.address);
  });
  family("data_byte_dead_at", [&](Fnv& f) {
    for (Addr pc : pcs)
      for (Addr a : symbol_starts) f.add(an.data_byte_dead_at(a, pc));
  });
  family("heap_site_dead", [&](Fnv& f) {
    for (const auto& [site, info] : an.heapliveness().sites()) {
      f.add(site);
      f.add(an.heap_site_dead(site));
      for (Addr pc : pcs) f.add(an.heap_site_dead_at(site, pc));
    }
  });
  // Every pc, not only function entries: at an entry the frame is not set
  // up yet, so the windowed verdicts only show further in.
  family("stack_slot_dead", [&](Fnv& f) {
    for (Addr pc : pcs)
      for (std::int32_t off = -64; off < 8; ++off)
        f.add(an.stack_slot_dead(pc, off));
  });
  family("fpdepth_issues", [&](Fnv& f) {
    for (const FpDepthIssue& i : an.fpdepth().issues()) {
      f.add(i.is_error);
      f.add(i.code);
      f.add(i.addr);
      f.add(i.message);
    }
  });
  family("lint_json", [&](Fnv& f) {
    LintOptions opts;
    opts.suppress = app.lint_suppress;
    f.add(lint_json(run_lint(an, opts), app.name));
  });
  return facts;
}

void expect_facts(const std::string& app, std::uint64_t recorded) {
  const Facts facts = collect(app);
  EXPECT_EQ(facts.total(), recorded) << app << " fact families:\n"
                                     << facts.describe();
}

TEST(AnalysisFacts, Wavetoy) {
  expect_facts("wavetoy", 16621919871339744386ull);
}
TEST(AnalysisFacts, Minimd) {
  expect_facts("minimd", 1408420963185121637ull);
}
TEST(AnalysisFacts, Atmo) {
  expect_facts("atmo", 6993293063681756745ull);
}
TEST(AnalysisFacts, Jacobi) {
  expect_facts("jacobi", 1232553710941825746ull);
}

}  // namespace
}  // namespace fsim::svm::analysis
