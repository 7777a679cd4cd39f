#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>

#include "apps/app.hpp"
#include "simmpi/world.hpp"
#include "svm/assembler.hpp"
#include "svm/env.hpp"
#include "trace/mix.hpp"
#include "trace/profile.hpp"
#include "trace/working_set.hpp"

namespace fsim::trace {
namespace {

TEST(AccessTracer, CountsFetchesAndLoads) {
  svm::Program p = svm::assemble(R"(
.text
main:
    la r2, v
    ldw r1, [r2]
    ret
.data
v: .word 123
)");
  svm::Machine m(p, {});
  svm::BasicEnv env(m);
  AccessTracer tracer(m);
  m.step(100);
  ASSERT_EQ(m.state(), svm::RunState::kExited);
  // 4 instructions fetched (la expands to 2), plus the final ret's pop and
  // the load of v.
  EXPECT_EQ(tracer.fetches(), 4u);
  EXPECT_GE(tracer.loads(), 1u);
  EXPECT_EQ(tracer.touched_bytes(svm::Segment::kText), 16u);
  EXPECT_EQ(tracer.touched_bytes(svm::Segment::kData), 8u);  // 8 B granule
}

TEST(AccessTracer, ColdBytesStayUntouched) {
  svm::Program p = svm::assemble(R"(
.text
main:
    la r2, hot
    ldw r1, [r2]
    ret
.data
hot: .word 1
cold: .word 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17
)");
  svm::Machine m(p, {});
  svm::BasicEnv env(m);
  AccessTracer tracer(m);
  m.step(100);
  // Only the first granule of data was loaded.
  EXPECT_EQ(tracer.touched_bytes(svm::Segment::kData), 8u);
}

TEST(AccessTracer, WorkingSetSeriesIsNonIncreasing) {
  apps::App app = apps::make_wavetoy();
  svm::Program p = app.link();
  simmpi::World world(p, app.world);
  AccessTracer tracer(world.machine(1));  // trace one process, like Valgrind
  world.run(500'000'000ull);
  ASSERT_EQ(world.status(), simmpi::JobStatus::kCompleted);

  for (const auto& series :
       {tracer.text_series(30), tracer.data_combined_series(30)}) {
    ASSERT_EQ(series.times.size(), 30u);
    for (std::size_t i = 1; i < series.ws_pct.size(); ++i)
      EXPECT_LE(series.ws_pct[i], series.ws_pct[i - 1] + 1e-9)
          << series.label << " at " << i;
    EXPECT_GT(series.ws_pct.front(), 0.0);
    EXPECT_GE(series.ws_pct.front(), series.ws_pct.back());
  }
}

TEST(AccessTracer, PhaseDropVisibleInTextSeries) {
  // §6.1.2: the working set falls when the run leaves initialisation —
  // startup code stops being part of "accessed at or after t".
  apps::App app = apps::make_wavetoy();
  svm::Program p = app.link();
  simmpi::World world(p, app.world);
  AccessTracer tracer(world.machine(1));
  world.run(500'000'000ull);
  const auto text = tracer.text_series(40);
  // Computation-phase working set is well below the time-0 working set.
  const double at0 = text.ws_pct.front();
  const double mid = text.ws_pct[text.ws_pct.size() / 2];
  EXPECT_LT(mid, at0 * 0.8);
}

TEST(AccessTracer, TextWorkingSetIsSmallFractionOfText) {
  // Cold utility code keeps the executed fraction low (paper: 8-30%).
  apps::App app = apps::make_wavetoy();
  svm::Program p = app.link();
  simmpi::World world(p, app.world);
  AccessTracer tracer(world.machine(1));
  world.run(500'000'000ull);
  const auto text = tracer.text_series(10);
  EXPECT_LT(text.ws_pct.front(), 60.0);
  EXPECT_GT(text.ws_pct.front(), 5.0);
}

TEST(AccessTracer, FormatSeriesRendersTable) {
  apps::App app = apps::make_wavetoy();
  svm::Program p = app.link();
  simmpi::World world(p, app.world);
  AccessTracer tracer(world.machine(0));
  world.run(500'000'000ull);
  const std::string table = format_series(tracer.text_series(5));
  EXPECT_NE(table.find("Working set: text"), std::string::npos);
  EXPECT_NE(table.find("time (instructions)"), std::string::npos);
}

TEST(Profile, WavetoyMatchesTable1Shape) {
  const ProcessProfile p = profile_app(apps::make_wavetoy());
  EXPECT_EQ(p.app, "wavetoy");
  // Cactus: the overwhelming majority of received bytes are user data.
  EXPECT_GT(p.user_pct, 85.0);
  EXPECT_GT(p.heap_stable, 0u);
  EXPECT_GT(p.stack_peak, 100u);
  EXPECT_LT(p.stack_peak, 16384u);
  EXPECT_GT(p.golden_instructions, 100000u);
}

TEST(Profile, AtmoIsHeaderDominated) {
  const ProcessProfile p = profile_app(apps::make_atmo());
  // CAM: headers dominate (63% in the paper; we accept a tolerant band).
  EXPECT_GT(p.header_pct, 45.0);
  EXPECT_GT(p.traffic.control_messages, p.traffic.data_messages / 4);
}

TEST(Profile, MinimdBetweenTheTwo) {
  const ProcessProfile p = profile_app(apps::make_minimd());
  EXPECT_GT(p.user_pct, 70.0);
  EXPECT_LT(p.user_pct, 99.0);
}

/// FNV-1a over both static census tables of one profile: every symbol
/// touch and every allocation site, field by field, in table order.
std::uint64_t census_digest(const ProcessProfile& p) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  auto add = [&](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ull;
    }
  };
  auto add_str = [&](const std::string& s) {
    add(s.size());
    for (unsigned char c : s) add(c);
  };
  add(p.symbol_access.size());
  for (const auto& s : p.symbol_access) {
    add_str(s.name);
    add(static_cast<std::uint64_t>(s.segment));
    add(static_cast<std::uint64_t>(s.read_sites));
    add(static_cast<std::uint64_t>(s.write_sites));
    add(s.escaped);
    add(s.mpi);
  }
  add(p.heap_sites.size());
  for (const auto& s : p.heap_sites) {
    add(s.pc);
    add_str(s.function);
    add(s.mpi);
    add(static_cast<std::uint64_t>(s.read_sites));
    add(s.written);
    add_str(s.klass);
  }
  return h;
}

TEST(Profile, StaticCensusIsPinned) {
  // The symbol-access and allocation-site census `fsim profile` prints,
  // pinned per app so a change to how the profile obtains its static
  // analyses cannot move a count or a class unnoticed.
  const std::pair<const char*, std::uint64_t> pinned[] = {
      {"wavetoy", 6082287025127082440ull},
      {"minimd", 10139370698295169682ull},
      {"atmo", 13978227588148707088ull},
  };
  for (const auto& [name, digest] : pinned) {
    const ProcessProfile p = profile_app(apps::make_app(name));
    EXPECT_FALSE(p.symbol_access.empty()) << name;
    EXPECT_FALSE(p.heap_sites.empty()) << name;
    EXPECT_EQ(census_digest(p), digest) << name;
  }
}

TEST(Profile, FormatShowsAllApps) {
  std::vector<ProcessProfile> profiles;
  apps::WavetoyConfig small;
  small.ranks = 4;
  small.columns = 6;
  small.rows = 8;
  small.steps = 4;
  profiles.push_back(profile_app(apps::make_wavetoy(small)));
  const std::string table = format_profiles(profiles);
  EXPECT_NE(table.find("Per-Process Profiles"), std::string::npos);
  EXPECT_NE(table.find("wavetoy"), std::string::npos);
  EXPECT_NE(table.find("Header %"), std::string::npos);
}

TEST(InstructionMix, CountsAndCategoriesAreConsistent) {
  apps::App app = apps::make_wavetoy();
  svm::Program program = app.link();
  simmpi::World world(program, app.world);
  InstructionMixProfiler mix(program, world.machine(1));
  ASSERT_EQ(world.run(2'000'000'000ull), simmpi::JobStatus::kCompleted);

  EXPECT_GT(mix.total(), 10000u);
  std::uint64_t sum = 0;
  for (auto c : mix.opcode_counts()) sum += c;
  EXPECT_EQ(sum, mix.total());

  // Wavetoy's kernel is FPU-heavy; fractions are sane and disjoint-ish.
  EXPECT_GT(mix.fpu_fraction(), 0.3);
  EXPECT_LT(mix.fpu_fraction(), 0.9);
  EXPECT_GT(mix.control_fraction(), 0.02);
  EXPECT_LT(mix.control_fraction(), 0.3);
}

TEST(InstructionMix, HotSymbolsNameTheKernel) {
  apps::App app = apps::make_wavetoy();
  svm::Program program = app.link();
  simmpi::World world(program, app.world);
  InstructionMixProfiler mix(program, world.machine(2));
  ASSERT_EQ(world.run(2'000'000'000ull), simmpi::JobStatus::kCompleted);
  const auto hot = mix.hottest(3);
  ASSERT_FALSE(hot.empty());
  // The inner update loop dominates execution.
  EXPECT_EQ(hot[0].name, "uiloop");
  EXPECT_GT(hot[0].fraction, 0.5);
  // Cold utility code never appears among the hot symbols.
  for (const auto& h : hot) {
    EXPECT_EQ(h.name.find("wt_"), std::string::npos) << h.name;
  }
}

TEST(InstructionMix, FormatRendersTable) {
  apps::App app = apps::make_atmo();
  svm::Program program = app.link();
  simmpi::World world(program, app.world);
  InstructionMixProfiler mix(program, world.machine(0));
  ASSERT_EQ(world.run(2'000'000'000ull), simmpi::JobStatus::kCompleted);
  const std::string table = mix.format();
  EXPECT_NE(table.find("Instruction mix"), std::string::npos);
  EXPECT_NE(table.find("FPU share"), std::string::npos);
  EXPECT_NE(table.find("hot:"), std::string::npos);
}

}  // namespace
}  // namespace fsim::trace
