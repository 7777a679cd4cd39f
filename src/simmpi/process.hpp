// Process: one MPI rank — an SVM machine plus the simmpi library state.
//
// Implements the ADI (message matching, eager/rendezvous protocols,
// collectives built from point-to-point control messages) and the API
// (argument validation, error-handler semantics) on top of the Channel.
//
// Error-handler fidelity (paper §6.2): the user-registered error handler is
// invoked *only* when argument checks fail (a non-existent destination, an
// absurd count, an unreadable buffer) — exactly what the authors found in
// MPICH, LAM/MPI and LA-MPI source. Everything else (corrupted streams,
// peer death) aborts the job MPICH-style, which the classifier counts as a
// Crash.
//
// Incoming payloads are buffered in the *simulated* heap, tagged as
// MPI-owned chunks, so the heap's user/MPI composition matches the paper's
// malloc-wrapper picture and heap injection correctly skips them.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <deque>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "simmpi/channel.hpp"
#include "simmpi/header.hpp"
#include "svm/env.hpp"
#include "svm/machine.hpp"

namespace fsim::simmpi {

class World;

inline constexpr std::uint32_t kMaxMessageBytes = 1u << 20;

class Process : public svm::BasicEnv {
 public:
  Process(World& world, svm::Machine& machine, int rank,
          std::uint64_t rand_seed);

  svm::Machine& machine() noexcept { return *machine_; }
  const svm::Machine& machine() const noexcept { return *machine_; }
  Channel& channel() noexcept { return channel_; }
  const Channel& channel() const noexcept { return channel_; }
  int rank() const noexcept { return rank_; }

  /// Did any syscall complete (or any packet get drained) since the flag was
  /// last cleared? The scheduler's deadlock detector uses this.
  bool take_progress() noexcept {
    const bool p = state_.progress;
    state_.progress = false;
    return p;
  }

  bool errhandler_registered() const noexcept { return state_.errhandler; }

  /// ADI-level view of validated incoming traffic (Table 1 companion).
  const TrafficStats& adi_stats() const noexcept { return state_.adi_stats; }

 private:
  struct InMsg {
    MsgHeader header;
    svm::Addr buffer = 0;  // simulated-heap chunk holding the payload
    bool operator==(const InMsg&) const = default;
  };

  // --- Nonblocking requests (MPI 1.1 §3.7) ---
  struct Request {
    enum class Kind : std::uint8_t { kFree, kSend, kRecv };
    Kind kind = Kind::kFree;
    bool complete = false;
    // send side (rendezvous in flight):
    std::vector<std::byte> payload;
    std::uint32_t seq = 0;
    bool rts = false;
    bool auto_free = false;  // release the slot on completion (Sendrecv)
    // common envelope:
    int peer = -1;  // dest for sends; requested src (or any) for recvs
    std::int32_t tag = 0;
    // recv side:
    svm::Addr buf = 0;
    std::uint32_t cap = 0;
    std::uint32_t bytes = 0;  // delivered payload size
    bool operator==(const Request&) const = default;
  };

  // Rendezvous sender state (one outstanding blocking send).
  struct RndvState {
    bool active = false;
    std::uint32_t seq = 0;
    bool operator==(const RndvState&) const = default;
  };

  // Collective progress (one outstanding blocking collective).
  struct CollState {
    int phase = 0;      // op-specific progress
    int counter = 0;    // tokens/contributions received
    bool sent = false;  // this rank's token/contribution was sent
    std::vector<double> accum;
    /// Bitwise on `accum`: -0.0 and +0.0 sum differently.
    bool operator==(const CollState& o) const {
      return phase == o.phase && counter == o.counter && sent == o.sent &&
             accum.size() == o.accum.size() &&
             std::equal(accum.begin(), accum.end(), o.accum.begin(),
                        [](double a, double b) {
                          return std::bit_cast<std::uint64_t>(a) ==
                                 std::bit_cast<std::uint64_t>(b);
                        });
    }
  };

 public:
  // --- Checkpoint/restart support ---
  // The MPI library's complete per-rank state, kept as this one value: a
  // field added here is snapshotted with no further code. Opaque to
  // callers: hold it, copy it, hand it back to restore_state(); its member
  // types are implementation details.
  struct State {
    TrafficStats adi_stats;
    bool initialized = false;
    bool finalized = false;
    bool errhandler = false;
    bool progress = false;
    std::uint32_t send_seq = 0;
    std::deque<InMsg> inbox;
    RndvState rndv;
    std::vector<Request> requests;
    std::uint32_t blocking_sendrecv = 0;  // request id of an in-flight
                                          // MPI_Sendrecv receive half
    // CTS already issued for these (src, seq) pairs; cleared on data match.
    std::set<std::pair<int, std::uint32_t>> cts_sent;
    CollState coll;
    std::uint32_t barrier_epoch = 0;
    std::uint32_t bcast_epoch = 0;
    std::uint32_t reduce_epoch = 0;
    std::uint32_t gather_epoch = 0;
    std::uint32_t scatter_epoch = 0;
    bool operator==(const State&) const = default;
  };
  const State& snapshot_state() const noexcept { return state_; }
  void restore_state(const State& s) { state_ = s; }

 protected:
  svm::SysResult on_mpi_syscall(svm::Machine& m, svm::Sys number) override;

 private:
  /// The argument registers of Send/Isend and Recv/Irecv.
  struct P2pArgs {
    svm::Addr buf = 0;
    std::uint32_t count = 0;
    int peer = 0;  // destination, or source (kAnySource allowed)
    std::int32_t tag = 0;
  };
  static P2pArgs p2p_args(const svm::Machine& m);

  // --- API-level helpers ---
  svm::SysResult arg_error(const std::string& which, const std::string& why);
  svm::SysResult mpich_fatal(const std::string& why);
  svm::SysResult done() {
    state_.progress = true;
    return svm::SysResult::kDone;
  }
  /// The argument checks of MPI_Send and MPI_Isend (`call` names the
  /// routine in the error). On success `payload` holds the send buffer and
  /// nothing is returned; otherwise the result of the raised error.
  std::optional<svm::SysResult> check_send(const char* call, const P2pArgs& a,
                                           std::vector<std::byte>& payload);
  /// The argument checks of MPI_Recv and MPI_Irecv.
  std::optional<svm::SysResult> check_recv(const char* call, const P2pArgs& a);

  // --- Wire: the only code that fills a MsgHeader for sending ---
  /// Push a data packet (header + payload) from this rank to `dest`.
  void send_data(int dest, std::int32_t tag, std::uint32_t seq,
                 std::uint32_t ctrl_arg, std::span<const std::byte> payload);
  /// Push a header-only control packet from this rank to `dest`. An RTS
  /// takes the next sequence number, which the data packet answering its
  /// CTS reuses, and returns it; other control packets carry sequence 0.
  std::uint32_t send_control(int dest, CtrlOp op, std::int32_t tag,
                             std::uint32_t ctrl_arg);

  // --- ADI ---
  /// Drain and validate everything pending on the channel into the inbox.
  /// Returns false if a fatal protocol error was raised.
  bool pump_channel();
  /// Find-and-remove the first inbox message matching the predicate.
  template <typename Pred>
  std::optional<InMsg> match(Pred pred);
  /// Find-and-remove the CTS `peer` sent for our rendezvous `seq`.
  bool take_cts(int peer, std::uint32_t seq);
  /// Answer the first unanswered rendezvous request from `src` (or any
  /// source) with `tag` by a CTS, so its sender pushes the payload.
  void answer_rts(int src, std::int32_t tag);
  /// Read the payload of a data message match() found out of its MPI-owned
  /// heap buffer, and release the buffer.
  std::vector<std::byte> take_payload(const std::optional<InMsg>& msg);
  /// take_payload() into user memory at `dest`. False if `dest` is
  /// unwritable; the buffer is released on every path.
  bool deliver(const std::optional<InMsg>& msg, svm::Addr dest);
  /// Release a matched message the operation cannot accept and abort the
  /// job with `why`.
  svm::SysResult reject(const std::optional<InMsg>& msg,
                        const std::string& why);
  bool read_doubles(svm::Addr addr, std::uint32_t count,
                    std::vector<double>& out) const;
  bool write_doubles(svm::Addr addr, const std::vector<double>& in);

  std::uint32_t alloc_request();
  Request* request(std::uint32_t id);
  /// Drive pending nonblocking operations: finish rendezvous sends whose
  /// CTS arrived, deliver inbox messages to posted receives (in post
  /// order), and answer rendezvous requests for posted receives. Returns
  /// false if a fatal protocol error was raised.
  bool progress();

  // --- Individual operations ---
  svm::SysResult do_send(svm::Machine& m);
  svm::SysResult do_recv(svm::Machine& m);
  svm::SysResult do_barrier(svm::Machine& m);
  svm::SysResult do_bcast(svm::Machine& m);
  svm::SysResult do_reduce(svm::Machine& m, bool all);
  svm::SysResult do_isend(svm::Machine& m);
  svm::SysResult do_irecv(svm::Machine& m);
  svm::SysResult do_wait(svm::Machine& m, bool test);
  svm::SysResult do_probe(svm::Machine& m);
  svm::SysResult do_sendrecv(svm::Machine& m);
  svm::SysResult do_gather(svm::Machine& m);
  svm::SysResult do_scatter(svm::Machine& m);

  World* world_;
  svm::Machine* machine_;
  Channel channel_;
  int rank_ = 0;
  State state_;
};

}  // namespace fsim::simmpi
