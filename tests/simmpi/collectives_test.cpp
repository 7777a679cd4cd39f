// The flat collectives across world sizes (including non-powers of two),
// nonzero roots and back-to-back calls kept apart by their epochs.
#include <gtest/gtest.h>

#include "testutil.hpp"

namespace fsim::simmpi {
namespace {

using testing::Job;

WorldOptions ranks(int n) {
  WorldOptions o;
  o.nranks = n;
  return o;
}

constexpr const char* kBarrierLoop = R"(
.text
main:
    enter 0
    call MPI_Init
    call MPI_Barrier
    call MPI_Barrier
    call MPI_Barrier
    call MPI_Finalize
    ldi r1, 0
    leave
    ret
)";

class BarrierSizes : public ::testing::TestWithParam<int> {};

TEST_P(BarrierSizes, CompletesAtEverySize) {
  Job job(kBarrierLoop, ranks(GetParam()));
  EXPECT_EQ(job.run(), JobStatus::kCompleted);
}

INSTANTIATE_TEST_SUITE_P(Sizes, BarrierSizes,
                         ::testing::Values(2, 3, 5, 7, 8, 13, 16));

constexpr const char* kAllreduce = R"(
.text
main:
    enter 0
    call MPI_Init
    call MPI_Comm_rank
    addi r5, r1, 1
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
)";

class AllreduceSizes : public ::testing::TestWithParam<int> {};

TEST_P(AllreduceSizes, SumsCorrectlyOnEveryRank) {
  const int n = GetParam();
  Job job(kAllreduce, ranks(n));
  ASSERT_EQ(job.run(), JobStatus::kCompleted);
  for (int r = 0; r < n; ++r)
    EXPECT_EQ(job.world.machine(r).exit_code(), n * (n + 1) / 2)
        << "rank " << r << " of " << n;
}

INSTANTIATE_TEST_SUITE_P(Sizes, AllreduceSizes,
                         ::testing::Values(2, 3, 5, 8, 11, 16));

TEST(Collectives, BcastDistributesFromNonzeroRoot) {
  Job job(R"(
.text
main:
    enter 0
    call MPI_Init
    call MPI_Comm_rank
    mov r9, r1
    ldi r5, 2
    bne r9, r5, recvside
    la r10, arr
    ldi r5, 7
    stw [r10+0], r5
    ldi r5, 28
    stw [r10+12], r5
recvside:
    la r1, arr
    ldi r2, 16
    ldi r3, 2
    call MPI_Bcast
    la r10, arr
    ldw r5, [r10+0]
    ldw r6, [r10+12]
    add r9, r5, r6
    call MPI_Finalize
    mov r1, r9
    leave
    ret
.bss
arr: .space 16
)",
          ranks(5));
  EXPECT_EQ(job.run(), JobStatus::kCompleted);
  for (int r = 0; r < 5; ++r)
    EXPECT_EQ(job.world.machine(r).exit_code(), 35) << "rank " << r;
}

TEST(Collectives, ReduceToNonzeroRoot) {
  Job job(R"(
.text
main:
    enter 0
    call MPI_Init
    call MPI_Comm_rank
    mov r10, r1
    addi r5, r1, 1
    i2f r5
    la r9, val
    fst [r9]
    la r1, val
    la r2, res
    ldi r3, 1
    ldi r4, 3
    call MPI_Reduce_sum
    ldi r5, 3
    bne r10, r5, notroot
    la r9, res
    fld [r9]
    f2i r9
    call MPI_Finalize
    mov r1, r9
    leave
    ret
notroot:
    call MPI_Finalize
    ldi r1, 0
    leave
    ret
.bss
val: .space 8
res: .space 8
)",
          ranks(6));
  EXPECT_EQ(job.run(), JobStatus::kCompleted);
  EXPECT_EQ(job.world.machine(3).exit_code(), 21);  // 1+..+6
}

TEST(Collectives, RepeatedMixedCollectivesStaySynchronised) {
  // Epochs must keep consecutive collectives apart.
  Job job(R"(
.text
main:
    enter 0
    call MPI_Init
    ldi r9, 0
loop:
    call MPI_Barrier
    la r1, val
    la r2, res
    ldi r3, 1
    call MPI_Allreduce_sum
    la r1, res
    ldi r2, 8
    ldi r3, 0
    call MPI_Bcast
    addi r9, r9, 1
    ldi r5, 5
    blt r9, r5, loop
    call MPI_Finalize
    ldi r1, 0
    leave
    ret
.data
val: .f64 1.0
.bss
res: .space 8
)",
          ranks(7));
  EXPECT_EQ(job.run(), JobStatus::kCompleted);
}

}  // namespace
}  // namespace fsim::simmpi
