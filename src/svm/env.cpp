#include "svm/env.hpp"

#include <cstdio>

namespace fsim::svm {

BasicEnv::BasicEnv(Machine& machine, std::uint64_t rand_seed)
    : heap_(machine.memory()) {
  io_.rand = util::Rng(rand_seed);
  machine.set_handler(this);
}

std::uint32_t checksum_bytes(const Memory& mem, Addr addr, std::uint32_t len,
                             bool& ok) {
  std::uint32_t a = 1, b = 0;
  for (std::uint32_t i = 0; i < len; ++i) {
    std::uint8_t byte = 0;
    if (!mem.peek8(addr + i, byte)) {
      ok = false;
      return 0;
    }
    a = (a + byte) % 65521u;
    b = (b + a) % 65521u;
  }
  ok = true;
  return (b << 16) | a;
}

std::string BasicEnv::format_f64(double v, unsigned digits) {
  if (digits == 0) digits = 1;
  if (digits > 17) digits = 17;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*g", static_cast<int>(digits), v);
  return buf;
}

SysResult BasicEnv::read_f64(Machine& m, Addr addr, double& out) {
  std::uint64_t bits = 0;
  if (!m.memory().peek64(addr, bits)) {
    m.raise(Trap::kBadAddress, addr);
    return SysResult::kTrap;
  }
  out = std::bit_cast<double>(bits);
  return SysResult::kDone;
}

SysResult BasicEnv::on_syscall(Machine& m, std::uint16_t number) {
  const Sys sys = static_cast<Sys>(number);
  if (number >= 32) return on_mpi_syscall(m, sys);

  switch (sys) {
    case Sys::kExit:
      m.finish(static_cast<int>(m.arg(0)));
      return SysResult::kExit;

    case Sys::kPrintStr:
    case Sys::kOutStr: {
      const Addr addr = m.arg(0);
      const std::uint32_t len = m.arg(1);
      std::string text(len, '\0');
      for (std::uint32_t i = 0; i < len; ++i) {
        std::uint8_t byte = 0;
        if (!m.memory().peek8(addr + i, byte)) {
          m.raise(Trap::kBadAddress, addr + i);
          return SysResult::kTrap;
        }
        text[i] = static_cast<char>(byte);
      }
      (sys == Sys::kPrintStr ? io_.console : io_.output) += text;
      return SysResult::kDone;
    }

    case Sys::kPrintI32:
      io_.console += std::to_string(static_cast<std::int32_t>(m.arg(0)));
      return SysResult::kDone;

    case Sys::kOutI32:
      io_.output += std::to_string(static_cast<std::int32_t>(m.arg(0)));
      return SysResult::kDone;

    case Sys::kOutF64: {
      double v = 0;
      if (SysResult r = read_f64(m, m.arg(0), v); r != SysResult::kDone)
        return r;
      io_.output += format_f64(v, m.arg(1));
      return SysResult::kDone;
    }

    case Sys::kConF64: {
      double v = 0;
      if (SysResult r = read_f64(m, m.arg(0), v); r != SysResult::kDone)
        return r;
      io_.console += format_f64(v, m.arg(1));
      return SysResult::kDone;
    }

    case Sys::kOutBinF64: {
      std::uint64_t bits = 0;
      if (!m.memory().peek64(m.arg(0), bits)) {
        m.raise(Trap::kBadAddress, m.arg(0));
        return SysResult::kTrap;
      }
      // Hex-encoded full-precision dump: every bit of the value lands in the
      // output file, the binary-format ablation of §6.2.
      char buf[20];
      std::snprintf(buf, sizeof buf, "%016llx",
                    static_cast<unsigned long long>(bits));
      io_.output += buf;
      return SysResult::kDone;
    }

    case Sys::kMalloc: {
      // The pc still names the SYS word here (both engines advance it only
      // after the handler returns), so it is a stable allocation-site key.
      const Addr p = heap_.malloc(m.arg(0), m.regs().pc);
      if (p == 0) {
        m.raise(Trap::kHeapExhausted, 0);
        return SysResult::kTrap;
      }
      m.set_result(p);
      return SysResult::kDone;
    }

    case Sys::kFree:
      heap_.free(m.arg(0));
      return SysResult::kDone;

    case Sys::kClock:
      m.set_result(static_cast<std::uint32_t>(m.instructions()));
      return SysResult::kDone;

    case Sys::kAssertFail: {
      const Addr addr = m.arg(0);
      const std::uint32_t len = m.arg(1);
      std::string msg(len, '\0');
      for (std::uint32_t i = 0; i < len; ++i) {
        std::uint8_t byte = 0;
        if (!m.memory().peek8(addr + i, byte)) {
          // Even the abort path can be fed a corrupted pointer; that is a
          // plain crash, not a detected error.
          m.raise(Trap::kBadAddress, addr + i);
          return SysResult::kTrap;
        }
        msg[i] = static_cast<char>(byte);
      }
      io_.console += "APPLICATION ERROR: " + msg + "\n";
      m.finish(134, ExitKind::kAppAbort);
      return SysResult::kExit;
    }

    case Sys::kChecksum: {
      bool ok = true;
      const std::uint32_t len = m.arg(1);
      const std::uint32_t sum = checksum_bytes(m.memory(), m.arg(0), len, ok);
      if (!ok) {
        m.raise(Trap::kBadAddress, m.arg(0));
        return SysResult::kTrap;
      }
      m.set_result(sum);
      // Checksum work is proportional to message volume (~0.5 cycles/byte,
      // an Adler-class software checksum); this is what makes NAMD's
      // application checksums cost ~3% of runtime (§6.2).
      m.charge(len / 2);
      return SysResult::kDone;
    }

    case Sys::kRand:
      m.set_result(static_cast<std::uint32_t>(io_.rand() & 0x7fffffffu));
      return SysResult::kDone;

    case Sys::kRealloc:
      m.set_result(heap_.realloc(m.arg(0), m.arg(1)));
      return SysResult::kDone;

    default:
      m.raise(Trap::kBadSyscall, m.regs().pc);
      return SysResult::kTrap;
  }
}

SysResult BasicEnv::on_mpi_syscall(Machine& m, Sys) {
  m.raise(Trap::kBadSyscall, m.regs().pc);
  return SysResult::kTrap;
}

}  // namespace fsim::svm
