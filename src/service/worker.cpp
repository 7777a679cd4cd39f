#include "service/worker.hpp"

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/campaign.hpp"
#include "core/report.hpp"
#include "service/protocol.hpp"
#include "util/json.hpp"
#include "util/socket.hpp"
#include "util/status.hpp"

namespace fsim::service {

int run_worker(const WorkerOptions& options) {
  util::UnixSocket sock = util::UnixSocket::connect(options.socket_path);
  {
    util::JsonWriter w;
    w.begin_object();
    w.key("op").value("worker");
    w.key("name").value(options.name);
    w.end_object();
    sock.write_line(w.str());
  }
  std::fprintf(stderr, "fsim worker %s: connected to %s\n",
               options.name.c_str(), options.socket_path.c_str());

  // Every chunk of a job runs through one session, prepared when the
  // worker first sees the job. The key is the job id plus its spec text,
  // so a restarted daemon that reuses an id for another spec is not
  // mistaken for the old job. An assignment of any other job drops the
  // session before preparing afresh: the worker holds one job's plans.
  std::string job, spec;
  std::vector<core::BatchEntry> entries;  // borrowed by `session`
  std::unique_ptr<core::BatchSession> session;

  std::string line;
  while (sock.read_line(line)) {
    const util::JsonValue msg = util::parse_json(line);
    const std::string op = msg.at("op").as_string();
    if (op == "exit") break;
    if (op != "assign")
      throw util::SetupError("worker: unexpected op '" + op + "'");

    const Assignment a = parse_assign(msg);
    std::fprintf(stderr, "fsim worker %s: job=%s task=%d runs=%llu\n",
                 options.name.c_str(), a.job.c_str(), a.task,
                 static_cast<unsigned long long>(a.selection.total()));

    if (!session || a.job != job || a.spec != spec) {
      session.reset();
      entries = core::entries_for_specs(core::parse_batch_spec(a.spec));
      std::fprintf(stderr, "fsim worker %s: prepare job=%s campaigns=%zu\n",
                   options.name.c_str(), a.job.c_str(), entries.size());
      session = std::make_unique<core::BatchSession>(entries, options.jobs);
      job = a.job;
      spec = a.spec;
    }
    core::BatchConfig bc;
    bc.selection = &a.selection;
    bc.checkpoint_path = a.sidecar;
    bc.checkpoint_every = options.checkpoint_every;
    bc.checkpoint_encoding = a.encoding;
    core::run_batch(*session, bc);

    util::JsonWriter w;
    w.begin_object();
    w.key("op").value("task_done");
    w.key("job").value(a.job);
    w.key("task").value(static_cast<std::int64_t>(a.task));
    w.end_object();
    sock.write_line(w.str());
  }
  std::fprintf(stderr, "fsim worker %s: exiting\n", options.name.c_str());
  return 0;
}

}  // namespace fsim::service
