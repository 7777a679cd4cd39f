#include "core/injector.hpp"

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "apps/app.hpp"
#include "core/campaign.hpp"
#include "simmpi/snapshot.hpp"
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


/// FNV-1a over whatever is mixed in.
struct Digest {
  std::uint64_t h = 0xcbf29ce484222325ull;
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) h = (h ^ b[i]) * 0x100000001b3ull;
  }
  template <typename T>
  void value(const T& v) {
    bytes(&v, sizeof v);
  }
};

/// Every register and every backed memory byte of every rank.
void mix_world(Digest& d, simmpi::World& w) {
  for (int r = 0; r < w.size(); ++r) {
    svm::Machine& m = w.machine(r);
    d.value(m.regs().gpr);
    d.value(m.regs().pc);
    svm::Fpu fpu = m.regs().fpu;
    for (unsigned i = 0; i < svm::kNumFpr; ++i) d.value(fpu.raw(i));
    d.value(fpu.twd()), d.value(fpu.cwd()), d.value(fpu.swd());
    d.value(fpu.fip()), d.value(fpu.fcs()), d.value(fpu.foo());
    d.value(fpu.fos());
    for (unsigned s = 0; s < svm::kNumSegments; ++s) {
      const auto seg = static_cast<svm::Segment>(s);
      const auto bytes = m.memory().segment_bytes(seg);
      d.value(m.memory().window(seg));
      d.bytes(bytes.data(), bytes.size());
    }
  }
}

TEST(Injector, DrawThenApplyEqualsInject) {
  // Draw-then-apply against the mutating inject() it replaced: for every
  // region of the three paper apps, at paused boundaries from the first
  // (no user heap chunk anywhere yet: every rank fails and the caller
  // retries) to the last ones (exited ranks rotate the draw onward), the
  // fault, the RNG state after it and every register and memory byte of
  // the world after the flip fold into one digest per app. The digests
  // were recorded from inject() before the split. The draw itself must
  // leave the world exactly as it found it.
  const std::map<std::string, std::uint64_t> recorded = {
      {"wavetoy", 11078121100200842596ull},
      {"minimd", 15593408092169934341ull},
      {"atmo", 17367378750282373599ull}};
  int retries = 0, rotations = 0;
  for (const auto& [name, digest] : recorded) {
    const Prepared prepared = prepare(apps::make_app(name), CampaignConfig{});
    simmpi::WorldOptions opts = prepared.app().world;
    opts.seed = 1;  // the injected runs' world
    int rounds = 0;
    {
      simmpi::World w(prepared.program(), opts);
      while (w.status() == simmpi::JobStatus::kRunning) {
        w.advance();
        ++rounds;
      }
    }
    std::set<int> paused = {rounds - 1, rounds - 2, rounds - 3};
    for (int r = 0; r < rounds; r = r * 2 + 1) paused.insert(r);
    paused.insert(0);

    Digest d;
    simmpi::World world(prepared.program(), opts);
    for (int round = 0; round < rounds; ++round) {
      if (paused.count(round) > 0) {
        const simmpi::Snapshot before = simmpi::Snapshot::capture(world);
        for (unsigned region = 0; region < kNumRegions; ++region)
          for (std::uint64_t seed = 1; seed <= 3; ++seed) {
            const auto reg = static_cast<Region>(region);
            const Injector injector(reg, prepared.dictionary(reg),
                                    &prepared.analysis());
            util::Rng rng(seed * 1000 + region);
            util::Rng first = rng;
            const auto start = first.below(
                static_cast<std::uint64_t>(world.size()));
            auto fault = injector.draw(world, rng);
            EXPECT_EQ(before.matches(world), svm::Match::kExact)
                << name << " " << region_name(reg) << " round " << round;
            if (fault) Injector::apply(world, *fault);
            d.value(region), d.value(round), d.value(fault.has_value());
            if (fault) {
              d.value(fault->region), d.value(fault->rank);
              d.bytes(fault->target.data(), fault->target.size());
              d.value(fault->activation), d.value(fault->rung);
              d.value(fault->address.value_or(0)), d.value(fault->inert);
              rotations += fault->rank != static_cast<int>(start);
            } else {
              retries += reg == Region::kHeap;
            }
            d.value(rng());
            mix_world(d, world);
            before.restore(world);
          }
      }
      world.advance();
    }
    EXPECT_EQ(d.h, digest) << name;
  }
  EXPECT_GE(retries, 1);
  EXPECT_GE(rotations, 1);
}

}  // namespace
}  // namespace fsim::core
