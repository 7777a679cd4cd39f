#include "simmpi/process.hpp"

#include <cstring>

#include "simmpi/world.hpp"
#include "util/status.hpp"

namespace fsim::simmpi {

using svm::Addr;
using svm::ExitKind;
using svm::Machine;
using svm::Sys;
using svm::SysResult;

namespace {

// Reduction buffers travel as raw doubles in host byte order, the order of
// simulated memory.
std::vector<std::byte> to_bytes(const std::vector<double>& v) {
  std::vector<std::byte> out(v.size() * sizeof(double));
  if (!out.empty()) std::memcpy(out.data(), v.data(), out.size());
  return out;
}

std::vector<double> to_doubles(std::span<const std::byte> raw) {
  std::vector<double> out(raw.size() / sizeof(double));
  if (!out.empty())
    std::memcpy(out.data(), raw.data(), out.size() * sizeof(double));
  return out;
}

}  // namespace

Process::Process(World& world, Machine& machine, int rank,
                 std::uint64_t rand_seed)
    : BasicEnv(machine, rand_seed), world_(&world), machine_(&machine),
      rank_(rank) {}

// ---------------------------------------------------------------------------
// Error paths and argument checks
// ---------------------------------------------------------------------------

SysResult Process::arg_error(const std::string& which, const std::string& why) {
  // Paper §6.2: MPICH (and LAM/LA-MPI) raise the user-registered error
  // handler only for failed argument checks; without a handler the default
  // MPI_ERRORS_ARE_FATAL aborts the job.
  if (state_.errhandler) {
    append_console("MPI ERROR HANDLER invoked: " + which + ": " + why + "\n");
    machine_->finish(13, ExitKind::kMpiHandler);
    state_.progress = true;
    return SysResult::kExit;
  }
  return mpich_fatal(which + ": " + why);
}

SysResult Process::mpich_fatal(const std::string& why) {
  append_console("MPICH fatal error in rank " + std::to_string(rank_) + ": " +
                 why + "\n");
  machine_->finish(1, ExitKind::kMpiFatal);
  state_.progress = true;
  world_->post_fatal(rank_, why);
  return SysResult::kExit;
}

Process::P2pArgs Process::p2p_args(const Machine& m) {
  return {m.arg(0), m.arg(1), static_cast<std::int32_t>(m.arg(2)),
          static_cast<std::int32_t>(m.arg(3))};
}

std::optional<SysResult> Process::check_send(const char* call,
                                             const P2pArgs& a,
                                             std::vector<std::byte>& payload) {
  if (!state_.initialized || state_.finalized)
    return mpich_fatal(std::string(call) + " outside init/finalize window");
  if (a.peer < 0 || a.peer >= world_->size())
    return arg_error(call,
                     "invalid destination rank " + std::to_string(a.peer));
  if (a.count > kMaxMessageBytes)
    return arg_error(call, "invalid count " + std::to_string(a.count));
  if (a.tag < 0 || a.tag >= kReservedTagBase)
    return arg_error(call, "invalid tag " + std::to_string(a.tag));
  payload.resize(a.count);
  if (a.count > 0 && !machine_->memory().peek_span(a.buf, payload))
    return arg_error(call, "unreadable send buffer");
  return std::nullopt;
}

std::optional<SysResult> Process::check_recv(const char* call,
                                             const P2pArgs& a) {
  if (!state_.initialized || state_.finalized)
    return mpich_fatal(std::string(call) + " outside init/finalize window");
  if (a.peer < kAnySource || a.peer >= world_->size())
    return arg_error(call, "invalid source rank " + std::to_string(a.peer));
  if (a.count > kMaxMessageBytes)
    return arg_error(call, "invalid count " + std::to_string(a.count));
  if (a.tag < 0 || a.tag >= kReservedTagBase)
    return arg_error(call, "invalid tag " + std::to_string(a.tag));
  if (a.count > 0) {
    std::uint8_t probe = 0;
    if (!machine_->memory().peek8(a.buf, probe) ||
        !machine_->memory().peek8(a.buf + a.count - 1, probe))
      return arg_error(call, "unwritable receive buffer");
  }
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// Wire: every packet this rank sends is built here
// ---------------------------------------------------------------------------

void Process::send_data(int dest, std::int32_t tag, std::uint32_t seq,
                        std::uint32_t ctrl_arg,
                        std::span<const std::byte> payload) {
  MsgHeader h;
  h.kind = static_cast<std::uint32_t>(MsgKind::kData);
  h.src = rank_;
  h.dst = dest;
  h.tag = tag;
  h.seq = seq;
  h.payload_len = static_cast<std::uint32_t>(payload.size());
  h.ctrl_arg = ctrl_arg;
  world_->enqueue_to(dest, serialize_packet(h, payload));
}

std::uint32_t Process::send_control(int dest, CtrlOp op, std::int32_t tag,
                                    std::uint32_t ctrl_arg) {
  MsgHeader h;
  h.kind = static_cast<std::uint32_t>(MsgKind::kControl);
  h.ctrl_op = static_cast<std::uint32_t>(op);
  h.src = rank_;
  h.dst = dest;
  h.tag = tag;
  if (op == CtrlOp::kRts) h.seq = state_.send_seq++;
  h.ctrl_arg = ctrl_arg;
  world_->enqueue_to(dest, serialize_packet(h, {}));
  return h.seq;
}

// ---------------------------------------------------------------------------
// ADI: channel pump, matching, buffering
// ---------------------------------------------------------------------------

bool Process::pump_channel() {
  while (auto packet = channel_.drain()) {
    state_.progress = true;
    if (packet->size() < kHeaderBytes) {
      mpich_fatal("short read on channel (corrupted stream)");
      return false;
    }
    MsgHeader h = parse_header(*packet);
    const std::uint32_t actual_payload =
        static_cast<std::uint32_t>(packet->size()) - kHeaderBytes;
    // Header validation — the checks a real ADI performs while decoding the
    // byte stream. A corrupted header usually dies here (paper: header
    // perturbation has ~40% probability of corrupting the execution; the
    // remainder hits don't-care fields).
    if (h.magic != kHeaderMagic) {
      mpich_fatal("bad packet magic (corrupted stream)");
      return false;
    }
    if (h.kind != static_cast<std::uint32_t>(MsgKind::kControl) &&
        h.kind != static_cast<std::uint32_t>(MsgKind::kData)) {
      mpich_fatal("unknown message kind");
      return false;
    }
    // ch_p4 does not re-validate src/dst on receipt: the packet is already
    // in this rank's queue. A corrupted src simply fails to match posted
    // receives (hanging the job, or matching an ANY_SOURCE receive with the
    // wrong neighbour's identity); a corrupted dst is entirely harmless.
    if (h.payload_len != actual_payload) {
      mpich_fatal("payload length mismatch (header says " +
                  std::to_string(h.payload_len) + ", stream has " +
                  std::to_string(actual_payload) + ")");
      return false;
    }
    TrafficStats& stats = state_.adi_stats;
    if (h.msg_kind() == MsgKind::kControl) {
      if (h.control_op() == CtrlOp::kNone ||
          h.control_op() > CtrlOp::kBarrierRel) {
        mpich_fatal("unknown control opcode");
        return false;
      }
      if (actual_payload != 0) {
        mpich_fatal("control message with payload");
        return false;
      }
      ++stats.control_messages;
      stats.header_bytes += kHeaderBytes;
      state_.inbox.push_back(InMsg{h, 0});
      continue;
    }

    // Data message: buffer the payload in the simulated heap, tagged as an
    // MPI-library allocation (paper §3.2 malloc wrapper).
    Addr buf = 0;
    if (actual_payload > 0) {
      heap().set_mpi_context(true);
      buf = heap().malloc(actual_payload);
      heap().set_mpi_context(false);
      if (buf == 0) {
        mpich_fatal("out of memory buffering unexpected message");
        return false;
      }
      FSIM_CHECK(machine_->memory().poke_span(
          buf, std::span<const std::byte>(packet->data() + kHeaderBytes,
                                          actual_payload)));
    }
    ++stats.data_messages;
    stats.header_bytes += kHeaderBytes;
    stats.payload_bytes += actual_payload;
    state_.inbox.push_back(InMsg{h, buf});
  }
  return true;
}

template <typename Pred>
std::optional<Process::InMsg> Process::match(Pred pred) {
  for (auto it = state_.inbox.begin(); it != state_.inbox.end(); ++it) {
    if (pred(it->header)) {
      InMsg m = *it;
      state_.inbox.erase(it);
      state_.progress = true;
      return m;
    }
  }
  return std::nullopt;
}

bool Process::take_cts(int peer, std::uint32_t seq) {
  return match([&](const MsgHeader& h) {
           return h.msg_kind() == MsgKind::kControl &&
                  h.control_op() == CtrlOp::kCts && h.src == peer &&
                  h.ctrl_arg == seq;
         })
      .has_value();
}

void Process::answer_rts(int src, std::int32_t tag) {
  for (const InMsg& im : state_.inbox) {
    const MsgHeader& h = im.header;
    if (h.msg_kind() == MsgKind::kControl && h.control_op() == CtrlOp::kRts &&
        h.tag == tag && (src == kAnySource || h.src == src) &&
        h.src >= 0 && h.src < world_->size() &&  // corrupted src: no CTS
        !state_.cts_sent.count({h.src, h.seq})) {
      state_.cts_sent.insert({h.src, h.seq});
      send_control(h.src, CtrlOp::kCts, h.tag, h.seq);  // echo the RTS seq
      return;
    }
  }
}

std::vector<std::byte> Process::take_payload(
    const std::optional<InMsg>& msg) {
  std::vector<std::byte> bytes(msg->header.payload_len);
  if (!bytes.empty())
    FSIM_CHECK(machine_->memory().peek_span(msg->buffer, bytes));
  heap().free(msg->buffer);  // 0 (no payload) is ignored
  return bytes;
}

bool Process::deliver(const std::optional<InMsg>& msg, Addr dest) {
  const std::vector<std::byte> bytes = take_payload(msg);
  return bytes.empty() || machine_->memory().poke_span(dest, bytes);
}

SysResult Process::reject(const std::optional<InMsg>& msg,
                          const std::string& why) {
  heap().free(msg->buffer);
  return mpich_fatal(why);
}

bool Process::read_doubles(Addr addr, std::uint32_t count,
                           std::vector<double>& out) const {
  out.resize(count);
  std::vector<std::byte> raw(count * sizeof(double));
  if (!raw.empty() && !machine_->memory().peek_span(addr, raw)) return false;
  if (!raw.empty()) std::memcpy(out.data(), raw.data(), raw.size());
  return true;
}

bool Process::write_doubles(Addr addr, const std::vector<double>& in) {
  return in.empty() || machine_->memory().poke_span(addr, to_bytes(in));
}

// ---------------------------------------------------------------------------
// Syscall dispatch
// ---------------------------------------------------------------------------

SysResult Process::on_mpi_syscall(Machine& m, Sys number) {
  switch (number) {
    case Sys::kMpiInit:
      if (state_.initialized) return mpich_fatal("MPI_Init called twice");
      state_.initialized = true;
      return done();
    case Sys::kMpiFinalize:
      if (!state_.initialized)
        return mpich_fatal("MPI_Finalize before MPI_Init");
      if (state_.finalized) return mpich_fatal("MPI_Finalize called twice");
      state_.finalized = true;
      return done();
    case Sys::kMpiCommRank:
      if (!state_.initialized)
        return mpich_fatal("MPI_Comm_rank before MPI_Init");
      m.set_result(static_cast<std::uint32_t>(rank_));
      return done();
    case Sys::kMpiCommSize:
      if (!state_.initialized)
        return mpich_fatal("MPI_Comm_size before MPI_Init");
      m.set_result(static_cast<std::uint32_t>(world_->size()));
      return done();
    case Sys::kMpiSend:
      return do_send(m);
    case Sys::kMpiRecv:
      return do_recv(m);
    case Sys::kMpiBarrier:
      return do_barrier(m);
    case Sys::kMpiBcast:
      return do_bcast(m);
    case Sys::kMpiAllreduceSum:
      return do_reduce(m, /*all=*/true);
    case Sys::kMpiReduceSum:
      return do_reduce(m, /*all=*/false);
    case Sys::kMpiErrhandlerSet:
      if (!state_.initialized)
        return mpich_fatal("MPI_Errhandler_set before MPI_Init");
      state_.errhandler = m.arg(0) != 0;
      return done();
    case Sys::kMpiIsend:
      return do_isend(m);
    case Sys::kMpiIrecv:
      return do_irecv(m);
    case Sys::kMpiWait:
      return do_wait(m, /*test=*/false);
    case Sys::kMpiTest:
      return do_wait(m, /*test=*/true);
    case Sys::kMpiProbe:
      return do_probe(m);
    case Sys::kMpiSendrecv:
      return do_sendrecv(m);
    case Sys::kMpiGather:
      return do_gather(m);
    case Sys::kMpiScatter:
      return do_scatter(m);
    default:
      m.raise(svm::Trap::kBadSyscall, m.regs().pc);
      return SysResult::kTrap;
  }
}

// ---------------------------------------------------------------------------
// Point-to-point
// ---------------------------------------------------------------------------

SysResult Process::do_send(Machine& m) {
  const P2pArgs a = p2p_args(m);
  std::vector<std::byte> payload;
  if (auto err = check_send("MPI_Send", a, payload)) return *err;

  m.charge(40 + a.count / 32);  // library overhead model, on every retry

  if (a.count <= world_->eager_threshold()) {
    send_data(a.peer, a.tag, state_.send_seq++, 0, payload);
    return done();
  }

  // Rendezvous: RTS (advertising the size) -> (block) -> CTS -> DATA.
  RndvState& rndv = state_.rndv;
  if (!rndv.active) {
    rndv.seq = send_control(a.peer, CtrlOp::kRts, a.tag, a.count);
    rndv.active = true;
    return SysResult::kBlock;
  }
  if (!pump_channel()) return SysResult::kExit;
  if (!take_cts(a.peer, rndv.seq)) return SysResult::kBlock;
  const std::uint32_t seq = rndv.seq;
  rndv = {};
  send_data(a.peer, a.tag, seq, 0, payload);
  return done();
}

SysResult Process::do_recv(Machine& m) {
  const P2pArgs a = p2p_args(m);
  if (auto err = check_recv("MPI_Recv", a)) return *err;

  if (!pump_channel()) return SysResult::kExit;

  auto msg = match([&](const MsgHeader& h) {
    return h.msg_kind() == MsgKind::kData && h.tag == a.tag &&
           (a.peer == kAnySource || h.src == a.peer);
  });
  if (!msg) {
    // No data yet: answer a matching rendezvous request so the sender can
    // push the payload.
    answer_rts(a.peer, a.tag);
    return SysResult::kBlock;
  }
  state_.cts_sent.erase({msg->header.src, msg->header.seq});
  const std::uint32_t len = msg->header.payload_len;
  if (len > a.count)
    return reject(msg, "message truncated (got " + std::to_string(len) +
                           " bytes, buffer holds " + std::to_string(a.count) +
                           ")");
  if (!deliver(msg, a.buf))
    return arg_error("MPI_Recv", "unwritable receive buffer");
  m.charge(40 + len / 32);
  m.set_result(len);
  return done();
}

// ---------------------------------------------------------------------------
// Nonblocking point-to-point (MPI 1.1 Sec 3.7)
// ---------------------------------------------------------------------------

std::uint32_t Process::alloc_request() {
  std::vector<Request>& requests = state_.requests;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    if (requests[i].kind == Request::Kind::kFree) {
      requests[i] = Request{};
      return static_cast<std::uint32_t>(i + 1);
    }
  }
  requests.push_back(Request{});
  return static_cast<std::uint32_t>(requests.size());
}

Process::Request* Process::request(std::uint32_t id) {
  if (id == 0 || id > state_.requests.size()) return nullptr;
  Request* r = &state_.requests[id - 1];
  return r->kind == Request::Kind::kFree ? nullptr : r;
}

bool Process::progress() {
  if (!pump_channel()) return false;

  // 1. Rendezvous sends whose CTS arrived: push the data packet.
  for (Request& r : state_.requests) {
    if (r.kind != Request::Kind::kSend || r.complete || !r.rts) continue;
    if (!take_cts(r.peer, r.seq)) continue;
    send_data(r.peer, r.tag, r.seq, 0, r.payload);
    r.payload.clear();
    r.complete = true;
    if (r.auto_free) r = Request{};
  }

  // 2. Posted receives, in posting order (MPI matching semantics).
  for (Request& r : state_.requests) {
    if (r.kind != Request::Kind::kRecv || r.complete) continue;
    auto msg = match([&](const MsgHeader& h) {
      return h.msg_kind() == MsgKind::kData && h.tag == r.tag &&
             (r.peer == kAnySource || h.src == r.peer);
    });
    if (!msg) {
      // No data yet: answer one matching rendezvous request.
      answer_rts(r.peer, r.tag);
      continue;
    }
    state_.cts_sent.erase({msg->header.src, msg->header.seq});
    if (msg->header.payload_len > r.cap) {
      reject(msg, "message truncated (posted receive)");
      return false;
    }
    if (!deliver(msg, r.buf)) {
      mpich_fatal("unwritable buffer of posted receive");
      return false;
    }
    r.bytes = msg->header.payload_len;
    r.complete = true;
    machine_->charge(40 + r.bytes / 32);
  }
  return true;
}

SysResult Process::do_isend(Machine& m) {
  const P2pArgs a = p2p_args(m);
  std::vector<std::byte> payload;
  if (auto err = check_send("MPI_Isend", a, payload)) return *err;

  m.charge(40 + a.count / 32);
  const std::uint32_t id = alloc_request();
  Request& r = state_.requests[id - 1];
  r.kind = Request::Kind::kSend;
  r.peer = a.peer;
  r.tag = a.tag;

  if (a.count <= world_->eager_threshold()) {
    send_data(a.peer, a.tag, state_.send_seq++, 0, payload);
    r.complete = true;  // buffered: the payload is on the wire
  } else {
    r.seq = send_control(a.peer, CtrlOp::kRts, a.tag, a.count);
    r.rts = true;
    r.payload = std::move(payload);
  }
  m.set_result(id);
  return done();
}

SysResult Process::do_irecv(Machine& m) {
  const P2pArgs a = p2p_args(m);
  if (auto err = check_recv("MPI_Irecv", a)) return *err;

  const std::uint32_t id = alloc_request();
  Request& r = state_.requests[id - 1];
  r.kind = Request::Kind::kRecv;
  r.buf = a.buf;
  r.cap = a.count;
  r.peer = a.peer;
  r.tag = a.tag;
  m.set_result(id);
  return done();
}

/// MPI_Wait blocks until the request completes; MPI_Test returns ~0 instead.
SysResult Process::do_wait(Machine& m, bool test) {
  const std::string call = test ? "MPI_Test" : "MPI_Wait";
  if (!state_.initialized) return mpich_fatal(call + " before MPI_Init");
  const std::uint32_t id = m.arg(0);
  Request* r = request(id);
  if (r == nullptr)
    return arg_error(call, "invalid request " + std::to_string(id));
  if (!progress()) return SysResult::kExit;
  if (!r->complete) {
    if (!test) return SysResult::kBlock;
    m.set_result(0xffffffffu);
    return done();
  }
  m.set_result(r->bytes);
  *r = Request{};  // free the slot
  return done();
}

SysResult Process::do_probe(Machine& m) {
  const int src = static_cast<std::int32_t>(m.arg(0));
  const std::int32_t tag = static_cast<std::int32_t>(m.arg(1));
  if (!state_.initialized || state_.finalized)
    return mpich_fatal("MPI_Probe outside init/finalize window");
  if (src < kAnySource || src >= world_->size())
    return arg_error("MPI_Probe", "invalid source rank " + std::to_string(src));
  if (tag < 0 || tag >= kReservedTagBase)
    return arg_error("MPI_Probe", "invalid tag " + std::to_string(tag));
  if (!progress()) return SysResult::kExit;
  for (const InMsg& im : state_.inbox) {
    const MsgHeader& h = im.header;
    const bool src_ok = src == kAnySource || h.src == src;
    if (h.msg_kind() == MsgKind::kData && h.tag == tag && src_ok) {
      m.set_result(h.payload_len);
      return done();
    }
    if (h.msg_kind() == MsgKind::kControl &&
        h.control_op() == CtrlOp::kRts && h.tag == tag && src_ok) {
      m.set_result(h.ctrl_arg);  // the advertised rendezvous length
      return done();
    }
  }
  return SysResult::kBlock;
}

SysResult Process::do_sendrecv(Machine& m) {
  if (!state_.initialized || state_.finalized)
    return mpich_fatal("MPI_Sendrecv outside init/finalize window");
  // Parameters arrive as an 8-word block in simulated memory.
  const Addr block = m.arg(0);
  std::uint32_t p[8];
  for (int i = 0; i < 8; ++i) {
    if (!machine_->memory().peek32(block + 4 * static_cast<Addr>(i), p[i]))
      return arg_error("MPI_Sendrecv", "unreadable parameter block");
  }

  if (state_.blocking_sendrecv == 0) {
    // First execution: launch both halves through the request machinery by
    // reusing the Isend/Irecv argument registers.
    svm::RegFile saved = m.regs();
    m.regs().gpr[1] = p[0];
    m.regs().gpr[2] = p[1];
    m.regs().gpr[3] = p[2];
    m.regs().gpr[4] = p[3];
    SysResult sr = do_isend(m);
    const std::uint32_t send_id = m.regs().gpr[1];
    if (sr != SysResult::kDone) return sr;  // arg error path
    m.regs().gpr[1] = p[4];
    m.regs().gpr[2] = p[5];
    m.regs().gpr[3] = p[6];
    m.regs().gpr[4] = p[7];
    sr = do_irecv(m);
    const std::uint32_t recv_id = m.regs().gpr[1];
    if (sr != SysResult::kDone) return sr;
    m.regs() = saved;
    // The send half is buffered/asynchronous; only the receive half gates
    // completion. Remember it across retries.
    state_.blocking_sendrecv = recv_id;
    if (Request* send_req = request(send_id)) {
      if (send_req->complete)
        *send_req = Request{};
      else
        send_req->auto_free = true;  // reclaim once the rendezvous finishes
    }
  }

  if (!progress()) return SysResult::kExit;
  Request* r = request(state_.blocking_sendrecv);
  FSIM_CHECK(r != nullptr);
  if (!r->complete) return SysResult::kBlock;
  m.set_result(r->bytes);
  *r = Request{};
  state_.blocking_sendrecv = 0;
  return done();
}

// ---------------------------------------------------------------------------
// Collectives (flat algorithms over the same channels, so their handshakes
// appear as injectable control traffic — the source of CAM's header-heavy
// profile in Table 1)
// ---------------------------------------------------------------------------

SysResult Process::do_barrier(Machine& m) {
  if (!state_.initialized || state_.finalized)
    return mpich_fatal("MPI_Barrier outside init/finalize window");
  m.charge(20);
  const int n = world_->size();
  if (n == 1) return done();

  if (!pump_channel()) return SysResult::kExit;

  CollState& coll = state_.coll;
  const std::uint32_t epoch = state_.barrier_epoch;
  if (rank_ != 0) {
    if (!coll.sent) {
      coll.sent = true;
      send_control(0, CtrlOp::kBarrier, kTagBarrier, epoch);
    }
    auto rel = match([&](const MsgHeader& h) {
      return h.msg_kind() == MsgKind::kControl &&
             h.control_op() == CtrlOp::kBarrierRel && h.ctrl_arg == epoch;
    });
    if (!rel) return SysResult::kBlock;
    coll = {};
    ++state_.barrier_epoch;
    return done();
  }

  // Rank 0 gathers arrival tokens, then releases everyone.
  while (true) {
    auto tok = match([&](const MsgHeader& h) {
      return h.msg_kind() == MsgKind::kControl &&
             h.control_op() == CtrlOp::kBarrier && h.ctrl_arg == epoch;
    });
    if (!tok) break;
    ++coll.counter;
  }
  if (coll.counter < n - 1) return SysResult::kBlock;
  for (int r = 1; r < n; ++r)
    send_control(r, CtrlOp::kBarrierRel, kTagBarrier, epoch);
  coll = {};
  ++state_.barrier_epoch;
  return done();
}

SysResult Process::do_bcast(Machine& m) {
  const Addr buf = m.arg(0);
  const std::uint32_t len = m.arg(1);
  const int root = static_cast<std::int32_t>(m.arg(2));

  if (!state_.initialized || state_.finalized)
    return mpich_fatal("MPI_Bcast outside init/finalize window");
  if (root < 0 || root >= world_->size())
    return arg_error("MPI_Bcast", "invalid root " + std::to_string(root));
  if (len > kMaxMessageBytes)
    return arg_error("MPI_Bcast", "invalid count " + std::to_string(len));

  m.charge(30 + len / 32);
  const int n = world_->size();

  if (rank_ == root) {
    std::vector<std::byte> payload(len);
    if (len > 0 && !machine_->memory().peek_span(buf, payload))
      return arg_error("MPI_Bcast", "unreadable buffer");
    for (int r = 0; r < n; ++r) {
      if (r == root) continue;
      send_data(r, kTagBcast, state_.send_seq++, state_.bcast_epoch, payload);
    }
    ++state_.bcast_epoch;
    return done();
  }

  if (!pump_channel()) return SysResult::kExit;
  auto msg = match([&](const MsgHeader& h) {
    return h.msg_kind() == MsgKind::kData && h.tag == kTagBcast &&
           h.src == root && h.ctrl_arg == state_.bcast_epoch;
  });
  if (!msg) return SysResult::kBlock;
  if (msg->header.payload_len != len)
    return reject(msg, "MPI_Bcast size mismatch");
  if (!deliver(msg, buf)) return arg_error("MPI_Bcast", "unwritable buffer");
  ++state_.bcast_epoch;
  return done();
}

SysResult Process::do_reduce(Machine& m, bool all) {
  const Addr sendbuf = m.arg(0);
  const Addr recvbuf = m.arg(1);
  const std::uint32_t count = m.arg(2);
  const int root = all ? 0 : static_cast<std::int32_t>(m.arg(3));
  const std::string name = all ? "MPI_Allreduce" : "MPI_Reduce";

  if (!state_.initialized || state_.finalized)
    return mpich_fatal(name + " outside init/finalize window");
  if (root < 0 || root >= world_->size())
    return arg_error(name, "invalid root " + std::to_string(root));
  if (count > kMaxMessageBytes / 8)
    return arg_error(name, "invalid count " + std::to_string(count));

  const std::uint32_t bytes = count * 8;
  m.charge(30 + count);
  const int n = world_->size();

  if (!pump_channel()) return SysResult::kExit;

  CollState& coll = state_.coll;
  const std::uint32_t epoch = state_.reduce_epoch;
  const std::uint32_t result_epoch = epoch | 0x80000000u;  // result flag
  // Phase 0: contribute (non-root) or gather (root).
  if (coll.phase == 0) {
    if (rank_ != root) {
      if (!coll.sent) {
        std::vector<double> mine;
        if (!read_doubles(sendbuf, count, mine))
          return arg_error(name, "unreadable send buffer");
        coll.sent = true;
        send_data(root, kTagReduce, state_.send_seq++, epoch, to_bytes(mine));
      }
      if (!all) {  // plain reduce: non-roots are done after contributing
        coll = {};
        ++state_.reduce_epoch;
        return done();
      }
      coll.phase = 1;  // allreduce: wait for the result broadcast
    } else {
      if (coll.accum.empty() && !read_doubles(sendbuf, count, coll.accum))
        return arg_error(name, "unreadable send buffer");
      // Accumulate contributions in ARRIVAL order: with scheduler jitter the
      // order varies between seeds, so low-order floating-point bits differ —
      // the NAMD-style nondeterminism of §4.2.2.
      while (coll.counter < n - 1) {
        auto msg = match([&](const MsgHeader& h) {
          return h.msg_kind() == MsgKind::kData && h.tag == kTagReduce &&
                 h.ctrl_arg == epoch;
        });
        if (!msg) break;
        if (msg->header.payload_len != bytes)
          return reject(msg, name + " size mismatch");
        const std::vector<std::byte> raw = take_payload(msg);
        const std::vector<double> vals = to_doubles(raw);
        for (std::size_t i = 0; i < vals.size(); ++i) coll.accum[i] += vals[i];
        ++coll.counter;
      }
      if (coll.counter < n - 1) return SysResult::kBlock;
      if (!write_doubles(recvbuf, coll.accum))
        return arg_error(name, "unwritable receive buffer");
      if (all) {
        // Broadcast the result inline.
        const std::vector<std::byte> payload = to_bytes(coll.accum);
        for (int r = 0; r < n; ++r) {
          if (r == root) continue;
          send_data(r, kTagReduce, state_.send_seq++, result_epoch, payload);
        }
      }
      coll = {};
      ++state_.reduce_epoch;
      return done();
    }
  }

  // Phase 1 (allreduce non-root): receive the result broadcast.
  auto msg = match([&](const MsgHeader& h) {
    return h.msg_kind() == MsgKind::kData && h.tag == kTagReduce &&
           h.src == root && h.ctrl_arg == result_epoch;
  });
  if (!msg) return SysResult::kBlock;
  if (msg->header.payload_len != bytes)
    return reject(msg, name + " size mismatch");
  if (!deliver(msg, recvbuf))
    return arg_error(name, "unwritable receive buffer");
  coll = {};
  ++state_.reduce_epoch;
  return done();
}

// ---------------------------------------------------------------------------
// Gather / Scatter (flat, rank-ordered placement)
// ---------------------------------------------------------------------------

SysResult Process::do_gather(Machine& m) {
  const Addr sendbuf = m.arg(0);
  const std::uint32_t bytes = m.arg(1);
  const Addr recvbuf = m.arg(2);
  const int root = static_cast<std::int32_t>(m.arg(3));
  const int n = world_->size();

  if (!state_.initialized || state_.finalized)
    return mpich_fatal("MPI_Gather outside init/finalize window");
  if (root < 0 || root >= n)
    return arg_error("MPI_Gather", "invalid root " + std::to_string(root));
  if (bytes > kMaxMessageBytes)
    return arg_error("MPI_Gather", "invalid count " + std::to_string(bytes));

  m.charge(30 + bytes / 32);
  if (!pump_channel()) return SysResult::kExit;

  if (rank_ != root) {
    std::vector<std::byte> payload(bytes);
    if (bytes > 0 && !machine_->memory().peek_span(sendbuf, payload))
      return arg_error("MPI_Gather", "unreadable send buffer");
    send_data(root, kTagGather, state_.send_seq++, state_.gather_epoch,
              payload);
    ++state_.gather_epoch;
    return done();
  }

  // Root: place its own block, then consume contributions by source rank.
  CollState& coll = state_.coll;
  if (coll.phase == 0) {
    std::vector<std::byte> own(bytes);
    if (bytes > 0 && !machine_->memory().peek_span(sendbuf, own))
      return arg_error("MPI_Gather", "unreadable send buffer");
    if (bytes > 0 &&
        !machine_->memory().poke_span(
            recvbuf + static_cast<Addr>(rank_) * bytes, own))
      return arg_error("MPI_Gather", "unwritable receive buffer");
    coll.phase = 1;
  }
  while (coll.counter < n - 1) {
    auto msg = match([&](const MsgHeader& h) {
      return h.msg_kind() == MsgKind::kData && h.tag == kTagGather &&
             h.ctrl_arg == state_.gather_epoch;
    });
    if (!msg) return SysResult::kBlock;
    const std::int32_t src = msg->header.src;
    if (msg->header.payload_len != bytes || src < 0 || src >= n)
      return reject(msg, "MPI_Gather size/source mismatch");
    if (!deliver(msg, recvbuf + static_cast<Addr>(src) * bytes))
      return arg_error("MPI_Gather", "unwritable receive buffer");
    ++coll.counter;
  }
  coll = {};
  ++state_.gather_epoch;
  return done();
}

SysResult Process::do_scatter(Machine& m) {
  const Addr sendbuf = m.arg(0);
  const std::uint32_t bytes = m.arg(1);
  const Addr recvbuf = m.arg(2);
  const int root = static_cast<std::int32_t>(m.arg(3));
  const int n = world_->size();

  if (!state_.initialized || state_.finalized)
    return mpich_fatal("MPI_Scatter outside init/finalize window");
  if (root < 0 || root >= n)
    return arg_error("MPI_Scatter", "invalid root " + std::to_string(root));
  if (bytes > kMaxMessageBytes)
    return arg_error("MPI_Scatter", "invalid count " + std::to_string(bytes));

  m.charge(30 + bytes / 32);
  if (!pump_channel()) return SysResult::kExit;

  if (rank_ == root) {
    for (int r = 0; r < n; ++r) {
      std::vector<std::byte> block(bytes);
      if (bytes > 0 &&
          !machine_->memory().peek_span(
              sendbuf + static_cast<Addr>(r) * bytes, block))
        return arg_error("MPI_Scatter", "unreadable send buffer");
      if (r == rank_) {
        if (bytes > 0 && !machine_->memory().poke_span(recvbuf, block))
          return arg_error("MPI_Scatter", "unwritable receive buffer");
        continue;
      }
      send_data(r, kTagScatter, state_.send_seq++, state_.scatter_epoch,
                block);
    }
    ++state_.scatter_epoch;
    return done();
  }

  auto msg = match([&](const MsgHeader& h) {
    return h.msg_kind() == MsgKind::kData && h.tag == kTagScatter &&
           h.src == root && h.ctrl_arg == state_.scatter_epoch;
  });
  if (!msg) return SysResult::kBlock;
  if (msg->header.payload_len != bytes)
    return reject(msg, "MPI_Scatter size mismatch");
  if (!deliver(msg, recvbuf))
    return arg_error("MPI_Scatter", "unwritable receive buffer");
  ++state_.scatter_epoch;
  return done();
}

}  // namespace fsim::simmpi
