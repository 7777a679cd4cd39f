#include "simmpi/channel.hpp"

namespace fsim::simmpi {

std::optional<std::vector<std::byte>> Channel::drain() {
  if (state_.queue.empty()) return std::nullopt;
  std::vector<std::byte> packet = std::move(state_.queue.front());
  state_.queue.pop_front();
  state_.pending_bytes -= packet.size();
  ChannelFault& fault = state_.fault;
  std::uint64_t& received = state_.received_bytes;
  TrafficStats& stats = state_.stats;

  // Apply an armed single-bit fault if the cumulative volume counter passes
  // the target inside this packet.
  if (fault.armed && !fault.fired &&
      fault.byte_index < received + packet.size()) {
    const std::uint64_t off =
        fault.byte_index >= received
            ? fault.byte_index - received
            : 0;  // target already passed (late arm): hit the first byte
    util::flip_bit(packet, off * 8 + fault.bit);
    fault.fired = true;
    fault.hit_header = off < kHeaderBytes;
    fault.offset_in_packet = off;
  }
  received += packet.size();

  // Traffic accounting uses the (possibly corrupted) header's kind field
  // only for classification robustness; fall back to size.
  if (packet.size() >= kHeaderBytes) {
    const MsgHeader h = parse_header(packet);
    stats.header_bytes += kHeaderBytes;
    stats.payload_bytes += packet.size() - kHeaderBytes;
    if (packet.size() == kHeaderBytes &&
        h.msg_kind() == MsgKind::kControl) {
      ++stats.control_messages;
    } else {
      ++stats.data_messages;
    }
  } else {
    stats.header_bytes += packet.size();
    ++stats.control_messages;
  }
  return packet;
}

}  // namespace fsim::simmpi
