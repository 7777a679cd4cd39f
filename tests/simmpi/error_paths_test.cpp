// The MPI library's error paths, pinned line by line: every argument check
// of the point-to-point calls (with and without a registered error handler,
// paper §6.2), truncated receives, and the size checks of the collectives.
// Each case asserts the job status and the exact console line the
// classifier greps.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "testutil.hpp"

namespace fsim::simmpi {
namespace {

using testing::Job;

struct ErrorCase {
  std::string name;
  std::string program;
  int nranks = 1;
  JobStatus status = JobStatus::kMpiFatal;
  std::string line;  // one whole console line, rank prefix included
};

void PrintTo(const ErrorCase& c, std::ostream* os) { *os << c.name; }

std::string wrap(const std::string& body) {
  return ".text\nmain:\n    enter 64\n    call MPI_Init\n" + body +
         "    call MPI_Finalize\n    ldi r1, 0\n    leave\n    ret\n";
}

/// Rank 0 runs `rank0`, rank 1 runs `rank1`.
std::string two_ranks(const std::string& rank0, const std::string& rank1) {
  return wrap("    call MPI_Comm_rank\n    ldi r5, 0\n    bne r1, r5, rank1\n" +
              rank0 + "    jmp out\nrank1:\n" + rank1 + "out:\n");
}

// Argument registers: a 16-byte stack buffer, a second one, a number.
const std::string kBuf = "addi r1, fp, -32";
const std::string kBuf2 = "addi r3, fp, -48";
std::string imm(int reg, long v) {
  return "li r" + std::to_string(reg) + ", " + std::to_string(v);
}

/// One call with its argument registers loaded by `setup`.
std::string call(const std::string& fn, const std::vector<std::string>& setup) {
  std::string out;
  for (const std::string& s : setup) out += "    " + s + "\n";
  return out + "    call " + fn + "\n";
}

std::vector<ErrorCase> argument_cases() {
  struct Check {
    const char* what;
    std::string buf;
    long count;
    long peer;
    long tag;
  };
  const Check checks[] = {
      {"BadPeer", kBuf, 4, 99, 5},
      {"BadCount", kBuf, 0x200000, 0, 5},
      {"BadTag", kBuf, 4, 0, -1},
      {"ReservedTag", kBuf, 4, 0, 0x40000000},
      {"BadBuffer", "li r1, 16", 4, 0, 5},  // far below the text segment
  };
  std::vector<ErrorCase> out;
  for (const std::string fn : {"MPI_Send", "MPI_Isend", "MPI_Recv",
                               "MPI_Irecv"}) {
    const bool send = fn == "MPI_Send" || fn == "MPI_Isend";
    for (const Check& c : checks) {
      const std::string what = c.what;
      std::string why = "invalid tag " + std::to_string(c.tag);
      if (what == "BadPeer")
        why = (send ? "invalid destination rank " : "invalid source rank ") +
              std::to_string(c.peer);
      if (what == "BadCount") why = "invalid count " + std::to_string(c.count);
      if (what == "BadBuffer")
        why = send ? "unreadable send buffer" : "unwritable receive buffer";
      for (bool handler : {false, true}) {
        ErrorCase e;
        e.name = fn.substr(4) + "_" + what + (handler ? "_Handler" : "_Fatal");
        e.program =
            wrap((handler ? call("MPI_Errhandler_set", {imm(1, 1)}) : "") +
                 call(fn, {c.buf, imm(2, c.count), imm(3, c.peer),
                           imm(4, c.tag)}));
        e.status = handler ? JobStatus::kMpiHandler : JobStatus::kMpiFatal;
        e.line = (handler ? "[rank 0] MPI ERROR HANDLER invoked: "
                          : "[rank 0] MPICH fatal error in rank 0: ") +
                 fn + ": " + why;
        out.push_back(std::move(e));
      }
    }
  }
  // A source below MPI_ANY_SOURCE (-1) is refused too.
  for (const std::string fn : {"MPI_Recv", "MPI_Irecv"}) {
    ErrorCase e;
    e.name = fn.substr(4) + "_NegativeSource_Fatal";
    e.program = wrap(call(fn, {kBuf, imm(2, 4), imm(3, -2), imm(4, 5)}));
    e.line = "[rank 0] MPICH fatal error in rank 0: " + fn +
             ": invalid source rank -2";
    out.push_back(std::move(e));
  }
  return out;
}

std::vector<ErrorCase> delivery_cases() {
  std::vector<ErrorCase> out;
  auto add = [&](std::string name, std::string program, int rank,
                 std::string why) {
    ErrorCase e;
    e.name = std::move(name);
    e.program = std::move(program);
    e.nranks = 2;
    const std::string r = std::to_string(rank);
    e.line = "[rank " + r + "] MPICH fatal error in rank " + r + ": " + why;
    out.push_back(std::move(e));
  };
  auto p2p = [](const std::string& fn, long count, long peer) {
    return call(fn, {kBuf, imm(2, count), imm(3, peer), imm(4, 5)});
  };
  add("Recv_Truncated", two_ranks(p2p("MPI_Send", 8, 1), p2p("MPI_Recv", 4, 0)),
      1, "message truncated (got 8 bytes, buffer holds 4)");
  add("Irecv_Truncated",
      two_ranks(p2p("MPI_Send", 8, 1),
                p2p("MPI_Irecv", 4, 0) + call("MPI_Wait", {})),
      1, "message truncated (posted receive)");
  // The collective cases name the flat algorithm they run. Root 0 uses 8
  // bytes (one double), rank 1 only 4 (half a double).
  auto bcast = [](long len) {
    return call("MPI_Bcast", {kBuf, imm(2, len), imm(3, 0)});
  };
  add("Bcast_SizeMismatch_Flat", two_ranks(bcast(8), bcast(4)), 1,
      "MPI_Bcast size mismatch");
  auto allreduce = [](long count) {
    return call("MPI_Allreduce_sum", {kBuf, "addi r2, fp, -48", imm(3, count)});
  };
  add("Allreduce_SizeMismatch_Flat", two_ranks(allreduce(2), allreduce(1)), 0,
      "MPI_Allreduce size mismatch");
  auto rooted = [](const std::string& fn, long bytes) {
    return call(fn, {kBuf, imm(2, bytes), kBuf2, imm(4, 0)});
  };
  add("Scatter_SizeMismatch_Flat",
      two_ranks(rooted("MPI_Scatter", 8), rooted("MPI_Scatter", 4)), 1,
      "MPI_Scatter size mismatch");
  add("Gather_SizeMismatch_Flat",
      two_ranks(rooted("MPI_Gather", 8), rooted("MPI_Gather", 4)), 0,
      "MPI_Gather size/source mismatch");
  return out;
}

class MpiErrorPath : public ::testing::TestWithParam<ErrorCase> {};

TEST_P(MpiErrorPath, StatusAndConsoleLine) {
  const ErrorCase& c = GetParam();
  WorldOptions opts;
  opts.nranks = c.nranks;
  Job job(c.program, opts);
  EXPECT_EQ(job.run(), c.status);
  std::vector<std::string> lines;
  std::istringstream console(job.world.console());
  for (std::string line; std::getline(console, line);) lines.push_back(line);
  EXPECT_NE(std::find(lines.begin(), lines.end(), c.line), lines.end())
      << "expected line: " << c.line << "\nconsole:\n"
      << job.world.console();
}

std::string case_name(const ::testing::TestParamInfo<ErrorCase>& info) {
  return info.param.name;
}

INSTANTIATE_TEST_SUITE_P(Arguments, MpiErrorPath,
                         ::testing::ValuesIn(argument_cases()), case_name);
INSTANTIATE_TEST_SUITE_P(Delivery, MpiErrorPath,
                         ::testing::ValuesIn(delivery_cases()), case_name);

}  // namespace
}  // namespace fsim::simmpi
