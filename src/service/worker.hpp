// The fsim service worker: pulls assignments from a daemon and runs them.
#pragma once

#include <string>

namespace fsim::service {

struct WorkerOptions {
  std::string socket_path;  // daemon socket to connect to
  std::string name;         // label used in daemon logs
  int jobs = 1;             // local threads of the job's session
  /// Checkpoint cadence while executing an assignment. Small by default:
  /// the sidecar is what survives this process being killed.
  int checkpoint_every = 16;
};

/// Connect to the daemon, execute assignments until it says exit (or the
/// connection drops), return the process exit code. The worker prepares a
/// job once, on its first assignment of that job, and runs every later
/// chunk of the job through the same session; an assignment of another
/// job replaces it. Throws SetupError when the daemon is unreachable.
int run_worker(const WorkerOptions& options);

}  // namespace fsim::service
