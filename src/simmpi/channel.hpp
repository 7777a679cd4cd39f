// Channel layer: the network-facing bottom of the simmpi stack.
//
// Corresponds to MPICH's ch_p4 Channel (paper Figure 2). Each rank owns an
// inbound queue of serialised packets. The fault injector registers a
// {target byte, bit} pair against a rank; the flip is applied to the byte
// stream "immediately after the recv socket routine" — i.e. when the packet
// is drained from the queue into the ADI — once the cumulative received
// volume crosses the target. The channel also keeps the per-rank traffic
// statistics behind Table 1 (control vs data messages, header vs user
// bytes).
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "simmpi/header.hpp"
#include "util/bits.hpp"

namespace fsim::simmpi {

struct TrafficStats {
  std::uint64_t control_messages = 0;
  std::uint64_t data_messages = 0;
  std::uint64_t header_bytes = 0;
  std::uint64_t payload_bytes = 0;
  bool operator==(const TrafficStats&) const = default;

  std::uint64_t total_bytes() const noexcept {
    return header_bytes + payload_bytes;
  }
  std::uint64_t total_messages() const noexcept {
    return control_messages + data_messages;
  }
};

/// A single-bit fault armed against one rank's incoming byte stream.
struct ChannelFault {
  std::uint64_t byte_index = 0;  // cumulative offset in the received stream
  unsigned bit = 0;              // bit within that byte
  bool armed = false;
  bool fired = false;
  // Diagnostics filled in when the fault fires:
  bool hit_header = false;
  std::uint64_t offset_in_packet = 0;

  /// Armed and not yet fired: the only state in which it still acts.
  bool pending() const noexcept { return armed && !fired; }
};

class Channel {
 public:
  /// Enqueue a serialised packet for this rank (called by the sender side;
  /// the underlying transport is reliable and ordered, like TCP).
  void enqueue(std::vector<std::byte> packet) {
    state_.pending_bytes += packet.size();
    state_.queue.push_back(std::move(packet));
  }

  /// Drain the next packet, applying traffic accounting and any armed fault.
  /// Returns nothing when the queue is empty.
  std::optional<std::vector<std::byte>> drain();

  bool empty() const noexcept { return state_.queue.empty(); }
  std::size_t queued_packets() const noexcept { return state_.queue.size(); }
  std::uint64_t pending_bytes() const noexcept { return state_.pending_bytes; }

  /// Cumulative bytes drained so far (the paper's received-volume counter).
  std::uint64_t received_bytes() const noexcept {
    return state_.received_bytes;
  }

  const TrafficStats& stats() const noexcept { return state_.stats; }

  void arm_fault(std::uint64_t byte_index, unsigned bit) {
    state_.fault = ChannelFault{byte_index, bit, true, false, false, 0};
  }
  const ChannelFault& fault() const noexcept { return state_.fault; }

  // --- Checkpoint/restart support: the channel's whole state, one value ---
  struct State {
    std::deque<std::vector<std::byte>> queue;
    std::uint64_t received_bytes = 0;
    std::uint64_t pending_bytes = 0;
    TrafficStats stats;
    ChannelFault fault;
    /// Equal futures: a fault that has fired is spent and compares equal
    /// to none; a pending one differs from every other fault record.
    bool operator==(const State& o) const {
      if (fault.pending() || o.fault.pending()) {
        if (!(fault.pending() && o.fault.pending() &&
              fault.byte_index == o.fault.byte_index &&
              fault.bit == o.fault.bit))
          return false;
      }
      return received_bytes == o.received_bytes &&
             pending_bytes == o.pending_bytes && stats == o.stats &&
             queue == o.queue;
    }
  };
  const State& snapshot_state() const noexcept { return state_; }
  void restore_state(const State& s) { state_ = s; }

 private:
  State state_;
};

}  // namespace fsim::simmpi
