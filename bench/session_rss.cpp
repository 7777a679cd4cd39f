// Heap retained from session to session: builds and destroys --sessions
// BatchSessions over the paper's three-app batch (wavetoy, minimd, atmo,
// every region) at --jobs workers, one after another in one process, and
// prints the process's VmRSS and VmHWM after each session is destroyed.
// A session frees everything it prepared, so a VmRSS that climbs from one
// session to the next is memory the allocator keeps but no longer uses —
// the cost a long-lived `fsim worker`, which builds one session per job,
// would pay without bound.
//
//   session_rss [--sessions=N] [--jobs=N]
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "apps/app.hpp"
#include "core/campaign.hpp"
#include "util/cli.hpp"
#include "util/status.hpp"

using namespace fsim;

namespace {

// A "VmRSS:" / "VmHWM:" line of /proc/self/status, in MB.
double status_mb(const std::string& key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind(key + ":", 0) == 0)
      return std::strtod(line.c_str() + key.size() + 1, nullptr) / 1024.0;
  return 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  int sessions = 0, jobs = 0;
  try {
    util::Cli cli(argc, argv);
    sessions = cli.count("sessions", 50);
    jobs = cli.count("jobs", 4);
    cli.reject_unused();
  } catch (const util::SetupError& e) {
    std::fprintf(stderr, "%s: %s\n",
                 std::filesystem::path(argv[0]).filename().c_str(), e.what());
    return 1;
  }

  std::vector<core::BatchEntry> entries(3);
  const char* const names[] = {"wavetoy", "minimd", "atmo"};
  for (std::size_t c = 0; c < entries.size(); ++c)
    entries[c].app = apps::make_app(names[c]);

  std::printf("session  VmRSS_MB  VmHWM_MB   (--jobs=%d)\n", jobs);
  std::printf("%7d  %8.1f  %8.1f\n", 0, status_mb("VmRSS"),
              status_mb("VmHWM"));
  for (int s = 1; s <= sessions; ++s) {
    { core::BatchSession session(entries, jobs); }
    std::printf("%7d  %8.1f  %8.1f\n", s, status_mb("VmRSS"),
                status_mb("VmHWM"));
    std::fflush(stdout);
  }
  return 0;
}
