#include "service/server.hpp"

#include <poll.h>

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "service/protocol.hpp"
#include "service/queue.hpp"
#include "service/scheduler.hpp"
#include "util/json.hpp"
#include "util/socket.hpp"
#include "util/status.hpp"

namespace fsim::service {

namespace {

/// One accepted connection. Starts as a client; the first "worker" message
/// upgrades it to a persistent worker link whose EOF/POLLHUP means the
/// worker process died (the daemon's only death detector — no leases).
struct Conn {
  util::UnixSocket sock;
  bool is_worker = false;
};

class Server {
 public:
  explicit Server(const ServeOptions& opts)
      : store_(opts.state_dir),
        sched_(store_, opts.chunk, opts.encoding),
        listener_(opts.socket_path) {}

  int run() {
    // Crash recovery may have completed jobs whose final fold the old
    // daemon never persisted as a result document.
    sched_.finalize_idle_jobs();
    std::fprintf(stderr, "fsim serve: listening (%zu jobs loaded)\n",
                 store_.jobs().size());
    while (running_) {
      dispatch();
      wait_and_handle();
    }
    // Orderly shutdown: workers exit instead of blocking on a dead socket.
    for (auto& [fd, conn] : conns_) {
      if (!conn.is_worker) continue;
      try {
        util::JsonWriter w;
        w.begin_object();
        w.key("op").value("exit");
        w.end_object();
        conn.sock.write_line(w.str());
      } catch (const util::SetupError&) {
      }
    }
    return 0;
  }

 private:
  /// Hand every idle worker its next assignment (one in flight each).
  void dispatch() {
    std::vector<int> dead;
    for (auto& [fd, conn] : conns_) {
      if (!conn.is_worker) continue;
      const auto a = sched_.next_assignment(fd);
      if (!a) continue;
      try {
        conn.sock.write_line(assign_message(*a));
      } catch (const util::SetupError&) {
        dead.push_back(fd);  // died between accept and assign
      }
    }
    for (int fd : dead) drop(fd);
  }

  void wait_and_handle() {
    std::vector<pollfd> fds;
    fds.push_back(pollfd{listener_.fd(), POLLIN, 0});
    for (auto& [fd, conn] : conns_)
      fds.push_back(pollfd{fd, POLLIN, 0});
    if (::poll(fds.data(), fds.size(), -1) < 0) return;  // EINTR: retry

    if (fds[0].revents & POLLIN) {
      util::UnixSocket sock = listener_.accept();
      const int fd = sock.fd();
      conns_.emplace(fd, Conn{std::move(sock), false});
    }
    for (std::size_t i = 1; i < fds.size(); ++i) {
      if (fds[i].revents == 0) continue;
      handle_readable(fds[i].fd);
      if (!running_) return;
    }
  }

  /// Drain every complete line the connection has for us. A clean EOF or
  /// any protocol/socket error drops the connection (and, for a worker,
  /// reclaims its assignment).
  void handle_readable(int fd) {
    auto it = conns_.find(fd);
    if (it == conns_.end()) return;
    try {
      std::string line;
      do {
        if (!it->second.sock.read_line(line)) {
          drop(fd);
          return;
        }
        handle_message(fd, it->second, line);
        if (!running_) return;
        it = conns_.find(fd);  // handle_message may have dropped it
      } while (it != conns_.end() && it->second.sock.has_buffered_line());
    } catch (const util::SetupError& e) {
      std::fprintf(stderr, "fsim serve: connection %d: %s\n", fd, e.what());
      drop(fd);
    }
  }

  void handle_message(int fd, Conn& conn, const std::string& line) {
    const util::JsonValue msg = util::parse_json(line);
    const std::string op = msg.at("op").as_string();
    if (op == "worker") {
      conn.is_worker = true;
      try {
        sched_.worker_joined(fd);
      } catch (const util::SetupError& e) {
        // A second join: refuse it and drop the link, so the assignment
        // in flight is reclaimed rather than stranded.
        conn.sock.write_line(error_reply(e.what()));
        throw;
      }
      return;
    }
    if (op == "task_done") {
      sched_.task_done(fd, msg.at("job").as_string(),
                       msg.at("task").as_i32());
      return;
    }
    if (op == "submit") {
      try {
        Job& job = store_.create(msg.at("tenant").as_string(),
                                 msg.at("spec").as_string());
        std::fprintf(stderr, "fsim serve: job %s submitted (tenant %s, "
                     "%llu runs)\n",
                     job.id.c_str(), job.tenant.c_str(),
                     static_cast<unsigned long long>(job.pending.total()));
        sched_.finalize_idle_jobs();  // a zero-run spec is done on arrival
        util::JsonWriter w;
        w.begin_object();
        w.key("ok").value(true);
        w.key("job").value(job.id);
        w.end_object();
        conn.sock.write_line(w.str());
      } catch (const util::SetupError& e) {
        conn.sock.write_line(error_reply(e.what()));
      }
      return;
    }
    if (op == "status") {
      const util::JsonValue* jv = msg.find("job");
      util::JsonWriter w;
      w.begin_object();
      w.key("ok").value(true);
      w.key("jobs").begin_array();
      for (const auto& job : store_.jobs()) {
        if (jv && job->id != jv->as_string()) continue;
        w.begin_object();
        w.key("id").value(job->id);
        w.key("tenant").value(job->tenant);
        w.key("state").value(job->done ? "done"
                             : job->outstanding > 0 ? "running"
                                                    : "queued");
        w.key("checkpoint").value(core::checkpoint_json(job->master));
        w.end_object();
      }
      w.end_array();
      w.end_object();
      conn.sock.write_line(w.str());
      return;
    }
    if (op == "fetch") {
      try {
        Job* job = store_.find(msg.at("job").as_string());
        if (!job)
          throw util::SetupError("unknown job " + msg.at("job").as_string());
        const std::string result = store_.result_text(*job);
        util::JsonWriter w;
        w.begin_object();
        w.key("ok").value(true);
        w.key("result").value(result);
        w.end_object();
        conn.sock.write_line(w.str());
      } catch (const util::SetupError& e) {
        conn.sock.write_line(error_reply(e.what()));
      }
      return;
    }
    if (op == "shutdown") {
      util::JsonWriter w;
      w.begin_object();
      w.key("ok").value(true);
      w.end_object();
      conn.sock.write_line(w.str());
      running_ = false;
      return;
    }
    conn.sock.write_line(error_reply("unknown op '" + op + "'"));
  }

  void drop(int fd) {
    auto it = conns_.find(fd);
    if (it == conns_.end()) return;
    const bool was_worker = it->second.is_worker;
    conns_.erase(it);  // closes the fd; its number may be reused
    if (was_worker) sched_.worker_lost(fd);
  }

  JobStore store_;
  Scheduler sched_;
  util::UnixListener listener_;
  std::map<int, Conn> conns_;
  bool running_ = true;
};

}  // namespace

int serve(const ServeOptions& options) { return Server(options).run(); }

}  // namespace fsim::service
