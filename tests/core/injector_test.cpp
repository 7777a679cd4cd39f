#include "core/injector.hpp"

#include <gtest/gtest.h>

#include "apps/app.hpp"
#include "core/campaign.hpp"
#include "svm/stackwalk.hpp"

namespace fsim::core {
namespace {

struct Paused {
  svm::Program program;
  simmpi::World world;
  explicit Paused(const apps::App& app, int rounds = 200)
      : program(app.link()), world(program, app.world) {
    for (int i = 0; i < rounds; ++i) world.advance();
    EXPECT_EQ(world.status(), simmpi::JobStatus::kRunning);
  }
};

// Snapshot helpers: count differing bits between two register files.
int gpr_diff_bits(const svm::RegFile& a, const svm::RegFile& b) {
  int bits = 0;
  for (unsigned i = 0; i < svm::kNumGpr; ++i)
    bits += std::popcount(a.gpr[i] ^ b.gpr[i]);
  return bits;
}

int fpu_diff_bits(const svm::Fpu& a, const svm::Fpu& b) {
  auto ca = a, cb = b;  // need non-const accessors
  int bits = 0;
  for (unsigned i = 0; i < svm::kNumFpr; ++i)
    bits += std::popcount(ca.raw(i) ^ cb.raw(i));
  bits += std::popcount(static_cast<unsigned>(ca.twd() ^ cb.twd()));
  bits += std::popcount(static_cast<unsigned>(ca.cwd() ^ cb.cwd()));
  bits += std::popcount(static_cast<unsigned>(ca.swd() ^ cb.swd()));
  bits += std::popcount(ca.fip() ^ cb.fip());
  bits += std::popcount(ca.fcs() ^ cb.fcs());
  bits += std::popcount(ca.foo() ^ cb.foo());
  bits += std::popcount(ca.fos() ^ cb.fos());
  return bits;
}

TEST(Injector, RegularRegisterFlipsExactlyOneBit) {
  Paused p(apps::make_wavetoy());
  util::Rng rng(11);
  std::vector<svm::RegFile> before;
  for (int r = 0; r < p.world.size(); ++r)
    before.push_back(p.world.machine(r).regs());

  Injector inj(Region::kRegularReg);
  auto fault = inj.inject(p.world, rng);
  ASSERT_TRUE(fault.has_value());
  int total = 0;
  for (int r = 0; r < p.world.size(); ++r)
    total += gpr_diff_bits(before[static_cast<std::size_t>(r)],
                           p.world.machine(r).regs());
  EXPECT_EQ(total, 1);
}

TEST(Injector, FpuFlipsExactlyOneBitOfFpuState) {
  Paused p(apps::make_wavetoy());
  util::Rng rng(12);
  std::vector<svm::RegFile> before;
  for (int r = 0; r < p.world.size(); ++r)
    before.push_back(p.world.machine(r).regs());

  Injector inj(Region::kFpReg);
  ASSERT_TRUE(inj.inject(p.world, rng).has_value());
  int fpu_bits = 0, gpr_bits = 0;
  for (int r = 0; r < p.world.size(); ++r) {
    fpu_bits += fpu_diff_bits(before[static_cast<std::size_t>(r)].fpu,
                              p.world.machine(r).regs().fpu);
    gpr_bits += gpr_diff_bits(before[static_cast<std::size_t>(r)],
                              p.world.machine(r).regs());
  }
  EXPECT_EQ(fpu_bits, 1);
  EXPECT_EQ(gpr_bits, 0);
}

TEST(Injector, HeapFaultHitsLiveUserChunk) {
  Paused p(apps::make_wavetoy());
  util::Rng rng(13);
  Injector inj(Region::kHeap);
  auto fault = inj.inject(p.world, rng);
  ASSERT_TRUE(fault.has_value());
  EXPECT_NE(fault->target.find("heap chunk"), std::string::npos);
  // The damaged byte lies inside a live user chunk of the targeted rank.
  const auto chunks =
      p.world.process(fault->rank).heap().live_chunks();
  EXPECT_FALSE(chunks.empty());
}

TEST(Injector, StackFaultHitsUserFrame) {
  Paused p(apps::make_wavetoy());
  util::Rng rng(14);
  Injector inj(Region::kStack);
  auto fault = inj.inject(p.world, rng);
  ASSERT_TRUE(fault.has_value());
  EXPECT_NE(fault->target.find("stack at"), std::string::npos);
}

/// A campaign's prepared dictionaries, 512 entries each.
Prepared prepared_wavetoy() {
  CampaignConfig cfg;
  cfg.dictionary_entries = 512;
  return prepare(apps::make_wavetoy(), cfg);
}

TEST(Injector, StaticRegionUsesDictionary) {
  const Prepared prepared = prepared_wavetoy();
  Paused p(prepared.app());
  util::Rng rng(16);
  Injector inj(Region::kData, prepared.dictionary(Region::kData));
  auto fault = inj.inject(p.world, rng);
  ASSERT_TRUE(fault.has_value());
  EXPECT_NE(fault->target.find("Data"), std::string::npos);
}

TEST(Injector, TextFaultChangesInstructionByte) {
  const Prepared prepared = prepared_wavetoy();
  Paused p(prepared.app());
  // Snapshot text of every rank.
  std::vector<std::vector<std::byte>> before;
  for (int r = 0; r < p.world.size(); ++r) {
    auto span = p.world.machine(r).memory().segment_bytes(svm::Segment::kText);
    before.emplace_back(span.begin(), span.end());
  }
  util::Rng rng(18);
  Injector inj(Region::kText, prepared.dictionary(Region::kText));
  auto fault = inj.inject(p.world, rng);
  ASSERT_TRUE(fault.has_value());
  std::uint64_t changed = 0;
  for (int r = 0; r < p.world.size(); ++r) {
    auto now = p.world.machine(r).memory().segment_bytes(svm::Segment::kText);
    for (std::size_t i = 0; i < now.size(); ++i)
      if (now[i] != before[static_cast<std::size_t>(r)][i]) ++changed;
  }
  EXPECT_EQ(changed, 1u);  // exactly one byte in exactly one rank
}

TEST(Injector, MessageRegionNotHandledHere) {
  Paused p(apps::make_wavetoy());
  util::Rng rng(19);
  Injector inj(Region::kMessage);
  EXPECT_FALSE(inj.inject(p.world, rng).has_value());
}

TEST(Injector, DeterministicGivenSeed) {
  apps::App app = apps::make_wavetoy();
  auto run_once = [&](std::uint64_t seed) {
    Paused p(app);
    util::Rng rng(seed);
    Injector inj(Region::kRegularReg);
    auto f = inj.inject(p.world, rng);
    return f ? f->target + "@" + std::to_string(f->rank) : "none";
  };
  EXPECT_EQ(run_once(77), run_once(77));
  EXPECT_NE(run_once(77), run_once(78));
}

}  // namespace
}  // namespace fsim::core
