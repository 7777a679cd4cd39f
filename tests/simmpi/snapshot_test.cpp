// Checkpoint/restart: the Snapshot value must capture the complete job and
// restores must be exact (determinism makes equality testable).
#include "simmpi/snapshot.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "apps/app.hpp"
#include "core/injector.hpp"
#include "svm/exec/compiled.hpp"
#include "testutil.hpp"

namespace fsim::simmpi {
namespace {

using testing::Job;

apps::App small_app() {
  apps::WavetoyConfig cfg;
  cfg.ranks = 4;
  cfg.columns = 6;
  cfg.rows = 8;
  cfg.steps = 8;
  cfg.cold_functions = 5;
  cfg.cold_heap_arrays = 1;
  return apps::make_wavetoy(cfg);
}

TEST(Snapshot, RestoreReproducesIdenticalExecution) {
  apps::App app = small_app();
  svm::Program program = app.link();

  // Reference: run to completion uninterrupted.
  World ref(program, app.world);
  ASSERT_EQ(ref.run(1'000'000'000ull), JobStatus::kCompleted);
  const std::string want_output = ref.output();
  const std::uint64_t want_instr = ref.global_instructions();

  // Snapshot mid-run, keep running, then rewind and run again.
  World w(program, app.world);
  for (int i = 0; i < 60; ++i) w.advance();
  ASSERT_EQ(w.status(), JobStatus::kRunning);
  const Snapshot snap = Snapshot::capture(w);
  const std::uint64_t at = w.global_instructions();

  ASSERT_EQ(w.run(1'000'000'000ull), JobStatus::kCompleted);
  EXPECT_EQ(w.output(), want_output);

  snap.restore(w);
  EXPECT_EQ(w.status(), JobStatus::kRunning);
  EXPECT_EQ(w.global_instructions(), at);
  ASSERT_EQ(w.run(1'000'000'000ull), JobStatus::kCompleted);
  EXPECT_EQ(w.output(), want_output);
  EXPECT_EQ(w.global_instructions(), want_instr);
}

TEST(Snapshot, RecoversFromInjectedCrash) {
  // The classic scenario the paper motivates: a fault kills the job; the
  // checkpoint turns a total loss into a partial re-execution.
  apps::App app = small_app();
  svm::Program program = app.link();

  World ref(program, app.world);
  ASSERT_EQ(ref.run(1'000'000'000ull), JobStatus::kCompleted);

  World w(program, app.world);
  for (int i = 0; i < 50; ++i) w.advance();
  const Snapshot checkpoint = Snapshot::capture(w);

  // Crash it: wild frame pointer on rank 2.
  w.machine(2).regs().set_fp(0x10);
  w.machine(2).regs().set_sp(0x10);
  const JobStatus st = w.run(1'000'000'000ull);
  ASSERT_TRUE(st == JobStatus::kCrashed || st == JobStatus::kMpiFatal ||
              st == JobStatus::kDeadlocked);

  // Restore and finish cleanly.
  checkpoint.restore(w);
  ASSERT_EQ(w.run(1'000'000'000ull), JobStatus::kCompleted);
  EXPECT_EQ(w.output(), ref.output());
}

TEST(Snapshot, CapturesInFlightMessages) {
  // Snapshot taken while packets sit in a channel queue must preserve them.
  Job job(R"(
.text
main:
    enter 16
    call MPI_Init
    call MPI_Comm_rank
    mov r9, r1
    ldi r5, 0
    bne r9, r5, sender
    call MPI_Barrier
    addi r1, fp, -8
    ldi r2, 4
    ldi r3, 1
    ldi r4, 5
    call MPI_Recv
    call MPI_Finalize
    ldw r1, [fp-8]
    leave
    ret
sender:
    ldi r5, 1234
    stw [fp-8], r5
    addi r1, fp, -8
    ldi r2, 4
    ldi r3, 0
    ldi r4, 5
    call MPI_Send      ; lands in rank 0's queue before the barrier completes
    call MPI_Barrier
    call MPI_Finalize
    ldi r1, 0
    leave
    ret
)");
  // Advance until the message is in flight (queued or inboxed), snapshot,
  // finish, restore, finish again.
  while (job.world.status() == JobStatus::kRunning &&
         job.world.process(0).channel().queued_packets() == 0)
    job.world.advance();
  ASSERT_EQ(job.world.status(), JobStatus::kRunning);
  const Snapshot snap = Snapshot::capture(job.world);
  ASSERT_EQ(job.run(), JobStatus::kCompleted);
  EXPECT_EQ(job.world.machine(0).exit_code(), 1234);

  snap.restore(job.world);
  ASSERT_EQ(job.run(), JobStatus::kCompleted);
  EXPECT_EQ(job.world.machine(0).exit_code(), 1234);
}

/// Backed bytes of every rank's data segments (text stays pristine here).
std::uint64_t touched_bytes(World& w) {
  std::uint64_t total = 0;
  for (int r = 0; r < w.size(); ++r)
    for (unsigned s = 0; s < svm::kNumSegments; ++s) {
      const auto seg = static_cast<svm::Segment>(s);
      if (seg != svm::Segment::kText && seg != svm::Segment::kLibText)
        total += w.machine(r).memory().segment_bytes(seg).size();
    }
  return total;
}

TEST(Snapshot, SizeAccountsForMemory) {
  apps::App app = small_app();
  svm::Program program = app.link();
  World w(program, app.world);
  for (int i = 0; i < 20; ++i) w.advance();
  // Every touched byte and little else: untouched heap/stack capacity and
  // pristine text cost nothing, the rest is per-rank bookkeeping.
  constexpr std::uint64_t kPerRank = 4096;
  const std::uint64_t early = touched_bytes(w);
  const Snapshot snap = Snapshot::capture(w);
  EXPECT_GE(snap.size_bytes(), early);
  EXPECT_LE(snap.size_bytes(), early + kPerRank * w.size());
  EXPECT_GT(snap.instructions(), 0u);
  // Touching more memory costs proportionally more.
  while (w.run(w.global_instructions() + 20000) == JobStatus::kRunning &&
         touched_bytes(w) < 2 * early) {
  }
  const std::uint64_t late = touched_bytes(w);
  EXPECT_GT(late, early);
  const Snapshot later = Snapshot::capture(w);
  EXPECT_GE(later.size_bytes(), late);
  EXPECT_LE(later.size_bytes(), late + kPerRank * w.size());
}

TEST(Snapshot, RestoreRewritesTextOnlyWhereItDiffers) {
  apps::App app = small_app();
  svm::Program program = app.link();
  World ref(program, app.world);
  ASSERT_EQ(ref.run(1'000'000'000ull), JobStatus::kCompleted);

  World w(program, app.world);
  for (int i = 0; i < 30; ++i) w.advance();
  const Snapshot snap = Snapshot::capture(w);
  auto versions = [&] {
    std::vector<std::uint64_t> v;
    for (int r = 0; r < w.size(); ++r)
      v.push_back(w.machine(r).memory().code_version());
    return v;
  };
  // Pristine over pristine: compiled code stays valid everywhere.
  const std::vector<std::uint64_t> before = versions();
  snap.restore(w);
  EXPECT_EQ(versions(), before);
  // A text flip on rank 1 is undone by the restore, and only rank 1's code
  // is invalidated.
  const svm::Addr pc = w.machine(1).regs().pc;
  std::uint32_t word = 0;
  ASSERT_TRUE(w.machine(1).memory().peek32(pc, word));
  ASSERT_TRUE(w.machine(1).memory().flip_bit(pc, 17));
  (void)w.advance();
  snap.restore(w);
  const std::vector<std::uint64_t> after = versions();
  for (int r = 0; r < w.size(); ++r) {
    if (r != 1) {
      EXPECT_EQ(after[static_cast<std::size_t>(r)],
                before[static_cast<std::size_t>(r)]);
    }
  }
  EXPECT_NE(after[1], before[1]);
  std::uint32_t restored = 0;
  ASSERT_TRUE(w.machine(1).memory().peek32(pc, restored));
  EXPECT_EQ(restored, word);
  ASSERT_EQ(w.run(1'000'000'000ull), JobStatus::kCompleted);
  EXPECT_EQ(w.output(), ref.output());
}

TEST(Snapshot, RestoreToMismatchedWorldIsRejected) {
  apps::App app = small_app();
  svm::Program program = app.link();
  World w(program, app.world);
  const Snapshot snap = Snapshot::capture(w);

  simmpi::WorldOptions other = app.world;
  other.nranks = 2;
  World w2(program, other);
  EXPECT_DEATH(snap.restore(w2), "FSIM_CHECK");
}

TEST(Snapshot, RepeatedRestoreIsIdempotent) {
  apps::App app = small_app();
  svm::Program program = app.link();
  World w(program, app.world);
  for (int i = 0; i < 40; ++i) w.advance();
  const Snapshot snap = Snapshot::capture(w);

  snap.restore(w);
  ASSERT_EQ(w.run(1'000'000'000ull), JobStatus::kCompleted);
  const std::string first = w.output();
  snap.restore(w);
  ASSERT_EQ(w.run(1'000'000'000ull), JobStatus::kCompleted);
  EXPECT_EQ(w.output(), first);
}

// Every field of two worlds' state, rank by rank: what Snapshot captures,
// compared member by member, plus the memory windows and text state it
// only compares by what they read.
void expect_same_state(World& a, World& b) {
  ASSERT_EQ(a.size(), b.size());
  EXPECT_TRUE(a.snapshot_state() == b.snapshot_state());
  EXPECT_EQ(a.global_instructions(), b.global_instructions());
  for (int r = 0; r < a.size(); ++r) {
    SCOPED_TRACE("rank " + std::to_string(r));
    EXPECT_TRUE(a.machine(r).core_state() == b.machine(r).core_state());
    const svm::Memory& ma = a.machine(r).memory();
    const svm::Memory& mb = b.machine(r).memory();
    EXPECT_EQ(ma.code_pristine(), mb.code_pristine());
    for (unsigned s = 0; s < svm::kNumSegments; ++s) {
      const auto seg = static_cast<svm::Segment>(s);
      EXPECT_EQ(ma.window(seg), mb.window(seg)) << svm::segment_name(seg);
      const auto ba = ma.segment_bytes(seg), bb = mb.segment_bytes(seg);
      EXPECT_TRUE(std::equal(ba.begin(), ba.end(), bb.begin(), bb.end()))
          << svm::segment_name(seg);
    }
    EXPECT_TRUE(a.process(r).heap().snapshot_state() ==
                b.process(r).heap().snapshot_state());
    EXPECT_TRUE(a.process(r).io_state() == b.process(r).io_state());
    EXPECT_TRUE(a.process(r).channel().snapshot_state() ==
                b.process(r).channel().snapshot_state());
    EXPECT_TRUE(a.process(r).snapshot_state() == b.process(r).snapshot_state());
  }
}

TEST(Snapshot, RestoreIntoUsedWorldEqualsFresh) {
  // A campaign worker keeps one World and, for a run that starts before the
  // first ladder rung, restores the snapshot of a new World into it. The
  // used World must then equal a new one field for field, and run on
  // exactly as a new one does — after a text flip too, whose private
  // re-lowered code the restore must retire.
  apps::App app = small_app();
  svm::Program program = app.link();
  WorldOptions opts = app.world;
  opts.machine.compiled = std::make_shared<svm::exec::CompiledProgram>(program);
  World fresh(program, opts);
  const Snapshot start = Snapshot::capture(World(program, opts));

  World used(program, opts);
  for (int i = 0; i < 25; ++i) used.advance();
  const svm::Addr pc = used.machine(1).regs().pc;
  ASSERT_TRUE(used.machine(1).memory().flip_bit(pc, 3));
  ASSERT_TRUE(used.machine(2).memory().flip_bit(
      used.machine(2).memory().extent(svm::Segment::kHeap).base + 64, 5));
  used.process(0).channel().arm_fault(100, 2);
  used.run(used.global_instructions() + 200'000);
  ASSERT_NE(used.global_instructions(), fresh.global_instructions());

  start.restore(used);
  expect_same_state(used, fresh);
  EXPECT_EQ(start.matches(used), svm::Match::kExact);

  ASSERT_EQ(fresh.run(1'000'000'000ull), JobStatus::kCompleted);
  ASSERT_EQ(used.run(1'000'000'000ull), JobStatus::kCompleted);
  EXPECT_EQ(used.output(), fresh.output());
  EXPECT_EQ(used.console(), fresh.console());
  expect_same_state(used, fresh);
}

TEST(Snapshot, RecaptureRestoresLikeAFreshCapture) {
  // An injected walk recaptures one boundary snapshot in place point after
  // point, reusing its mapping when the new contents fit. Restored into a
  // used World, a recaptured snapshot must give exactly what a fresh
  // capture of the same state gives: after growing past its mapping and
  // after shrinking back inside it.
  apps::App app = small_app();
  svm::Program program = app.link();
  WorldOptions opts = app.world;
  opts.machine.compiled = std::make_shared<svm::exec::CompiledProgram>(program);
  World late(program, opts), early(program, opts);
  Snapshot kept = Snapshot::capture(early);  // a new World: the least
  for (int i = 0; i < 40; ++i) late.advance();
  for (int i = 0; i < 10; ++i) early.advance();

  for (World* at : {&late, &early}) {
    kept.recapture(*at);
    const Snapshot fresh = Snapshot::capture(*at);
    World a(program, opts), b(program, opts);
    for (World* used : {&a, &b}) {
      for (int i = 0; i < 25; ++i) used->advance();
      ASSERT_TRUE(used->machine(1).memory().flip_bit(
          used->machine(1).memory().extent(svm::Segment::kHeap).base + 8, 1));
      used->run(used->global_instructions() + 100'000);
    }
    kept.restore(a);
    fresh.restore(b);
    expect_same_state(a, b);
    EXPECT_EQ(kept.instructions(), fresh.instructions());
    EXPECT_EQ(fresh.matches(a), svm::Match::kExact);
    EXPECT_EQ(kept.matches(b), svm::Match::kExact);
    ASSERT_EQ(a.run(1'000'000'000ull), JobStatus::kCompleted);
    ASSERT_EQ(b.run(1'000'000'000ull), JobStatus::kCompleted);
    EXPECT_EQ(a.output(), b.output());
    expect_same_state(a, b);
  }
}

TEST(Snapshot, WorksMidFlatAllreduce) {
  // Rank r spins 200*r iterations before an allreduce of r+1, so the
  // contributions reach the root in different rounds. Snapshot once the
  // root has folded one in: its phase, counter and accum (and the waiting
  // ranks' phase) must come back exactly on restore.
  Job job(R"(
.text
main:
    enter 0
    call MPI_Init
    call MPI_Comm_rank
    addi r5, r1, 1
    muli r6, r1, 200
    ldi r7, 0
spin:
    addi r7, r7, 1
    blt r7, r6, spin
    i2f r5
    la r9, val
    fst [r9]
    la r1, val
    la r2, res
    ldi r3, 1
    call MPI_Allreduce_sum
    la r9, res
    fld [r9]
    f2i r9
    call MPI_Finalize
    mov r1, r9
    leave
    ret
.bss
val: .space 8
res: .space 8
)");
  World& w = job.world;
  while (w.status() == JobStatus::kRunning &&
         w.process(0).snapshot_state().coll.counter == 0)
    w.advance();
  ASSERT_EQ(w.status(), JobStatus::kRunning);
  const auto root = w.process(0).snapshot_state().coll;
  const auto waiting = w.process(1).snapshot_state().coll;
  ASSERT_EQ(root.phase, 0);
  ASSERT_EQ(root.counter, 1);
  ASSERT_EQ(root.accum, std::vector<double>{3.0});  // ranks 0 and 1
  ASSERT_EQ(waiting.phase, 1);
  const Snapshot snap = Snapshot::capture(w);

  auto finish = [&] {
    ASSERT_EQ(w.run(50'000'000), JobStatus::kCompleted);
    for (int r = 0; r < w.size(); ++r)
      EXPECT_EQ(w.machine(r).exit_code(), 10) << "rank " << r;
    EXPECT_EQ(w.process(0).snapshot_state().coll.counter, 0);
    EXPECT_TRUE(w.process(0).snapshot_state().coll.accum.empty());
  };
  finish();

  snap.restore(w);
  EXPECT_TRUE(w.process(0).snapshot_state().coll == root);
  EXPECT_TRUE(w.process(1).snapshot_state().coll == waiting);
  finish();
}

TEST(Snapshot, WorksWithOutstandingNonblockingRequests) {
  apps::App app = apps::make_jacobi();  // Isend/Irecv/Wait halo exchange
  svm::Program program = app.link();

  World ref(program, app.world);
  ASSERT_EQ(ref.run(1'000'000'000ull), JobStatus::kCompleted);

  World w(program, app.world);
  for (int i = 0; i < 200; ++i) w.advance();
  ASSERT_EQ(w.status(), JobStatus::kRunning);
  const Snapshot snap = Snapshot::capture(w);
  ASSERT_EQ(w.run(1'000'000'000ull), JobStatus::kCompleted);
  const std::string first = w.output();
  EXPECT_EQ(first, ref.output());

  snap.restore(w);
  ASSERT_EQ(w.run(1'000'000'000ull), JobStatus::kCompleted);
  EXPECT_EQ(w.output(), first);
}

TEST(Snapshot, ArmedChannelFaultSurvivesRestore) {
  // A pre-armed (not yet fired) message fault is part of the experiment
  // configuration and must survive a rewind.
  apps::App app = small_app();
  svm::Program program = app.link();
  World w(program, app.world);
  w.process(1).channel().arm_fault(1u << 29, 3);  // beyond traffic: benign
  for (int i = 0; i < 30; ++i) w.advance();
  const Snapshot snap = Snapshot::capture(w);
  ASSERT_EQ(w.run(1'000'000'000ull), JobStatus::kCompleted);
  snap.restore(w);
  EXPECT_TRUE(w.process(1).channel().fault().armed);
  EXPECT_FALSE(w.process(1).channel().fault().fired);
  ASSERT_EQ(w.run(1'000'000'000ull), JobStatus::kCompleted);
}

// Rung convergence (core/run.cpp) ends an injected run whose world matches
// a later golden rung. matches() must say kExact when the two are equal,
// kObservable when they differ only in state no later read observes (inert
// FPU fields, the bits of empty or zero FP slots, and, given the golden read
// oracle, granules never read again), and kDiffers otherwise.
struct SnapshotMatches : ::testing::Test {
  apps::App app = small_app();
  svm::Program program = app.link();
  World w{program, app.world};
  Snapshot snap;
  std::vector<svm::ReadLog> oracle;  // the same run's reads, to the end

  void SetUp() override {
    World golden(program, app.world);
    oracle.reserve(static_cast<std::size_t>(golden.size()));
    for (int r = 0; r < golden.size(); ++r) {
      oracle.emplace_back(golden.machine(r).memory());
      golden.machine(r).memory().set_read_log(&oracle.back());
    }
    ASSERT_EQ(golden.run(1'000'000'000ull), JobStatus::kCompleted);
    for (int r = 0; r < golden.size(); ++r)
      golden.machine(r).memory().set_read_log(nullptr);

    for (int i = 0; i < 60; ++i) w.advance();
    ASSERT_EQ(w.status(), JobStatus::kRunning);
    snap = Snapshot::capture(w);
  }

  svm::Match observed() const { return snap.matches(w, &oracle); }

  /// The first granule of `seg`'s window on `rank` that the golden run
  /// reads after the snapshot (`later`), or never again (`!later`). Rank 0
  /// has reads ahead in every segment; ranks 1-3 are near their end.
  std::optional<svm::Addr> granule(int rank, svm::Segment seg, bool later) {
    const svm::Memory& mem = w.machine(rank).memory();
    const svm::Addr base = mem.extent(seg).base;
    const std::uint64_t count = w.machine(rank).instructions();
    const svm::ReadLog& log = oracle[static_cast<std::size_t>(rank)];
    for (std::uint32_t off = mem.window(seg).lo & ~3u;
         off < mem.window(seg).hi; off += svm::ReadLog::kGranule)
      if (log.read_after(base + off, count) == later) return base + off;
    return std::nullopt;
  }

  /// A rank and physical FP slot tagged `tag` at the snapshot.
  std::optional<std::pair<int, unsigned>> slot(svm::FpuTag tag) {
    for (int r = 0; r < w.size(); ++r)
      for (unsigned p = 0; p < svm::kNumFpr; ++p)
        if (w.machine(r).regs().fpu.tag(p) == tag) return std::pair{r, p};
    return std::nullopt;
  }
};

TEST_F(SnapshotMatches, RestoredRungEqualsItself) {
  EXPECT_EQ(snap.matches(w), svm::Match::kExact);
  EXPECT_EQ(observed(), svm::Match::kExact);
  World fresh(program, app.world);
  EXPECT_EQ(snap.matches(fresh), svm::Match::kDiffers);
  snap.restore(fresh);
  EXPECT_EQ(snap.matches(fresh), svm::Match::kExact);
  fresh.advance();
  EXPECT_EQ(snap.matches(fresh, &oracle), svm::Match::kDiffers);
}

TEST_F(SnapshotMatches, SingleFlippedBitBreaksEquality) {
  svm::Memory& mem = w.machine(2).memory();
  const svm::Addr data = mem.extent(svm::Segment::kData).base;
  ASSERT_TRUE(mem.flip_bit(data + 3, 5));
  EXPECT_EQ(snap.matches(w), svm::Match::kDiffers);
  ASSERT_TRUE(mem.flip_bit(data + 3, 5));
  EXPECT_EQ(snap.matches(w), svm::Match::kExact);

  w.machine(0).regs().gpr[7] ^= 1u;
  EXPECT_EQ(observed(), svm::Match::kDiffers);
  w.machine(0).regs().gpr[7] ^= 1u;
  EXPECT_EQ(observed(), svm::Match::kExact);

  // FP registers compare by their bits wherever a read sees them: the sign
  // of a slot tagged valid counts. Every FP stack is empty at the fixture's
  // rung (and at every later round boundary), so capture one that holds a
  // valid value.
  ASSERT_FALSE(slot(svm::FpuTag::kValid));
  svm::Fpu& fpu = w.machine(1).regs().fpu;
  fpu.push(2.5);
  ASSERT_EQ(fpu.tag(fpu.top()), svm::FpuTag::kValid);
  const Snapshot holding = Snapshot::capture(w);
  fpu.raw(fpu.top()) ^= 1ull << 63;
  EXPECT_EQ(holding.matches(w, &oracle), svm::Match::kDiffers);
  fpu.raw(fpu.top()) ^= 1ull << 63;
  EXPECT_EQ(holding.matches(w, &oracle), svm::Match::kExact);
}

TEST_F(SnapshotMatches, InertFpuStateMatchesObservably) {
  svm::Fpu& fpu = w.machine(1).regs().fpu;
  const svm::Fpu before = fpu;
  fpu.fip() ^= 1u << 9;
  EXPECT_EQ(snap.matches(w), svm::Match::kObservable);
  EXPECT_EQ(observed(), svm::Match::kObservable);
  fpu = before;
  fpu.cwd() ^= 1u << 4;
  EXPECT_EQ(observed(), svm::Match::kObservable);
  fpu = before;
  EXPECT_EQ(observed(), svm::Match::kExact);

  // No read returns the bits under an empty tag.
  const auto empty = slot(svm::FpuTag::kEmpty);
  ASSERT_TRUE(empty);
  svm::Fpu& holder = w.machine(empty->first).regs().fpu;
  holder.raw(empty->second) ^= 1ull << 40;
  EXPECT_EQ(observed(), svm::Match::kObservable);
  // A register that differs as well breaks the match.
  w.machine(0).regs().gpr[3] ^= 1u;
  EXPECT_EQ(observed(), svm::Match::kDiffers);
}

TEST_F(SnapshotMatches, ReadFpuStateBreaksEquality) {
  svm::Fpu& fpu = w.machine(1).regs().fpu;
  const svm::Fpu before = fpu;
  fpu.twd() ^= 1u << 6;
  EXPECT_EQ(observed(), svm::Match::kDiffers);
  fpu = before;
  fpu.set_top(fpu.top() + 1);
  EXPECT_EQ(observed(), svm::Match::kDiffers);
  fpu = before;
  EXPECT_EQ(observed(), svm::Match::kExact);
}

TEST_F(SnapshotMatches, NeverReadAgainGranulesMatchObservably) {
  for (const svm::Segment seg : {svm::Segment::kData, svm::Segment::kHeap}) {
    SCOPED_TRACE(static_cast<int>(seg));
    const auto dead = granule(0, seg, false);
    ASSERT_TRUE(dead);
    svm::Memory& mem = w.machine(0).memory();
    ASSERT_TRUE(mem.flip_bit(*dead + 2, 6));
    EXPECT_EQ(observed(), svm::Match::kObservable);
    EXPECT_EQ(snap.matches(w), svm::Match::kDiffers);  // no oracle: strict
    ASSERT_TRUE(mem.flip_bit(*dead + 2, 6));
    EXPECT_EQ(observed(), svm::Match::kExact);
  }
}

TEST_F(SnapshotMatches, GranuleReadLaterBreaksEquality) {
  for (const svm::Segment seg : {svm::Segment::kData, svm::Segment::kHeap,
                                 svm::Segment::kStack}) {
    SCOPED_TRACE(static_cast<int>(seg));
    const auto live = granule(0, seg, true);
    ASSERT_TRUE(live);
    svm::Memory& mem = w.machine(0).memory();
    ASSERT_TRUE(mem.flip_bit(*live + 1, 0));
    EXPECT_EQ(observed(), svm::Match::kDiffers);
    ASSERT_TRUE(mem.flip_bit(*live + 1, 0));
  }
}

TEST_F(SnapshotMatches, WindowsDoNotCountOnlyBytes) {
  // Backing a zero byte past the heap's high-water mark grows the window
  // but reads the same; a nonzero one does not.
  svm::Memory& mem = w.machine(1).memory();
  const svm::Addr past = mem.extent(svm::Segment::kHeap).base +
                         mem.window(svm::Segment::kHeap).hi + 64;
  ASSERT_TRUE(mem.poke8(past, 0));
  EXPECT_EQ(snap.matches(w), svm::Match::kExact);
  ASSERT_TRUE(mem.poke8(past, 1));
  EXPECT_EQ(snap.matches(w), svm::Match::kDiffers);
}

TEST_F(SnapshotMatches, PendingFaultBreaksEqualityFiredDoesNot) {
  Channel& ch = w.process(1).channel();
  const Channel::State before = ch.snapshot_state();
  ch.arm_fault(1u << 29, 3);  // pending: it may still flip a byte
  EXPECT_EQ(observed(), svm::Match::kDiffers);
  // The same record once fired is spent: it can change nothing more.
  Channel::State spent = ch.snapshot_state();
  spent.fault.fired = true;
  spent.fault.offset_in_packet = 17;
  ch.restore_state(spent);
  EXPECT_EQ(snap.matches(w), svm::Match::kExact);
  ch.restore_state(before);
  EXPECT_EQ(snap.matches(w), svm::Match::kExact);
}

TEST_F(SnapshotMatches, ExtraConsoleByteBreaksEquality) {
  w.process(3).append_console("x");
  EXPECT_EQ(observed(), svm::Match::kDiffers);
}

}  // namespace
}  // namespace fsim::simmpi
