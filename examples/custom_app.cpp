// Custom-application example: write your own MPI program in SVM assembly,
// link it against the simmpi stub library, run it, then re-run it with a
// message fault armed at the Channel layer — the full substrate API.
//
//   ./build/examples/custom_app [--byte=N] [--bit=B]
#include <cstdio>

#include "simmpi/stubs.hpp"
#include "simmpi/world.hpp"
#include "svm/assembler.hpp"
#include "util/cli.hpp"
#include "util/status.hpp"

// A two-rank program: rank 1 sends the vector {3,4,5} (as 32-bit words) to
// rank 0, which sums it and prints the total to its console.
static const char* kMyApp = R"(
.text
main:
    enter 16
    call MPI_Init
    call MPI_Comm_rank
    mov r9, r1
    ldi r5, 0
    bne r9, r5, sender

    ; receiver: sum three words
    la r1, buf
    ldi r2, 12
    ldi r3, 1
    ldi r4, 42
    call MPI_Recv
    la r10, buf
    ldw r5, [r10+0]
    ldw r6, [r10+4]
    add r5, r5, r6
    ldw r6, [r10+8]
    add r5, r5, r6
    la r1, msg
    ldi r2, 6
    sys 1             ; console <- "total "
    mov r1, r5
    sys 2             ; console <- sum
    call MPI_Finalize
    ldi r1, 0
    leave
    ret

sender:
    la r1, vec
    ldi r2, 12
    ldi r3, 0
    ldi r4, 42
    call MPI_Send
    call MPI_Finalize
    ldi r1, 0
    leave
    ret

.data
vec: .word 3, 4, 5
msg: .asciz "total "
.bss
buf: .space 12
)";

int main(int argc, char** argv) try {
  using namespace fsim;
  util::Cli cli(argc, argv);
  // Default fault: byte 48 (first payload byte) bit 3 -> 3 becomes 11.
  const auto byte = static_cast<std::uint64_t>(cli.count("byte", 48, 0));
  const auto bit = static_cast<unsigned>(cli.count("bit", 3, 0));
  cli.reject_unused();
  if (bit > 7)
    throw util::SetupError("option --bit expects 0 to 7, got " +
                           std::to_string(bit));

  // Assemble user code + MPI stub library into one image.
  svm::Program program =
      svm::assemble_units({kMyApp, simmpi::stub_library_asm()});
  std::printf("linked image: %zu symbols, text %u B, entry 0x%08x\n",
              program.symbols().size(),
              program.segment_size(svm::Segment::kText), program.entry());

  simmpi::WorldOptions opts;
  opts.nranks = 2;

  {
    simmpi::World world(program, opts);
    world.run(10'000'000);
    std::printf("\nfault-free run (%s):\n%s",
                world.status() == simmpi::JobStatus::kCompleted ? "completed"
                                                                : "FAILED",
                world.console().c_str());
  }
  {
    simmpi::World world(program, opts);
    world.process(0).channel().arm_fault(byte, bit);
    world.run(10'000'000);
    std::printf("\nwith a bit flip at stream byte %llu bit %u (%s):\n%s",
                static_cast<unsigned long long>(byte), bit,
                world.status() == simmpi::JobStatus::kCompleted
                    ? "completed"
                    : "failed as expected for header faults",
                world.console().c_str());
    const auto& f = world.process(0).channel().fault();
    if (f.fired)
      std::printf("(the flip landed in the %s, offset %llu of its packet)\n",
                  f.hit_header ? "header" : "payload",
                  static_cast<unsigned long long>(f.offset_in_packet));
  }
  return 0;
} catch (const fsim::util::SetupError& e) {
  std::fprintf(stderr, "custom_app: %s\n", e.what());
  return 1;
}
