// Wire format of simmpi messages.
//
// Mirrors the MPICH traffic structure the paper profiles (§4.2): every
// message carries a fixed header (the paper measures 32-64 bytes; ours is 48)
// and is either a *control* message (header only — rendezvous handshakes,
// barrier tokens) or a *data* message (header + user payload). The header is
// serialised into the byte stream, so a Channel-level bit flip can corrupt
// either header fields or payload depending on where it lands — the basis of
// the §6.2 header-vs-data analysis.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

namespace fsim::simmpi {

inline constexpr std::uint32_t kHeaderMagic = 0x4d504948;  // "HIPM"
inline constexpr std::uint32_t kHeaderBytes = 48;

enum class MsgKind : std::uint32_t {
  kControl = 0,  // header only
  kData = 1,     // header + payload
};

enum class CtrlOp : std::uint32_t {
  kNone = 0,
  kRts = 1,         // rendezvous request-to-send (carries payload_len)
  kCts = 2,         // rendezvous clear-to-send
  kBarrier = 3,     // barrier arrival token
  kBarrierRel = 4,  // barrier release token
};

struct MsgHeader {
  std::uint32_t magic = kHeaderMagic;
  std::uint32_t kind = static_cast<std::uint32_t>(MsgKind::kControl);
  std::int32_t src = 0;
  std::int32_t dst = 0;
  std::int32_t tag = 0;
  std::uint32_t seq = 0;          // per-sender sequence number
  std::uint32_t payload_len = 0;  // bytes following the header
  std::uint32_t ctrl_op = 0;
  std::uint32_t ctrl_arg = 0;
  std::uint32_t reserved[3] = {0, 0, 0};

  MsgKind msg_kind() const noexcept { return static_cast<MsgKind>(kind); }
  CtrlOp control_op() const noexcept { return static_cast<CtrlOp>(ctrl_op); }
  bool operator==(const MsgHeader&) const = default;
};

static_assert(sizeof(MsgHeader) == kHeaderBytes,
              "wire header must be exactly 48 bytes");

/// Serialise header + payload into one contiguous packet buffer.
inline std::vector<std::byte> serialize_packet(
    const MsgHeader& h, std::span<const std::byte> payload) {
  std::vector<std::byte> out(kHeaderBytes + payload.size());
  std::memcpy(out.data(), &h, kHeaderBytes);
  if (!payload.empty())
    std::memcpy(out.data() + kHeaderBytes, payload.data(), payload.size());
  return out;
}

/// Deserialise the header from a packet buffer (buffer must hold >= 48 B).
inline MsgHeader parse_header(std::span<const std::byte> packet) {
  MsgHeader h;
  std::memcpy(&h, packet.data(), kHeaderBytes);
  return h;
}

/// Reserved tag space for library-internal traffic (collectives). User tags
/// must stay below this; MPICH likewise reserves context ids.
inline constexpr std::int32_t kReservedTagBase = 0x40000000;
inline constexpr std::int32_t kTagBarrier = kReservedTagBase + 1;
inline constexpr std::int32_t kTagBcast = kReservedTagBase + 2;
inline constexpr std::int32_t kTagReduce = kReservedTagBase + 3;
inline constexpr std::int32_t kTagGather = kReservedTagBase + 4;
inline constexpr std::int32_t kTagScatter = kReservedTagBase + 5;
inline constexpr std::int32_t kAnySource = -1;

}  // namespace fsim::simmpi
