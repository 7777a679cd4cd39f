#include "service/queue.hpp"

#include <dirent.h>
#include <sys/stat.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "core/report.hpp"
#include "core/reshard.hpp"
#include "util/file.hpp"
#include "util/json.hpp"
#include "util/status.hpp"

namespace fsim::service {

namespace {

void make_dir(const std::string& path) {
  if (::mkdir(path.c_str(), 0777) == 0 || errno == EEXIST) return;
  throw util::SetupError("cannot create directory '" + path +
                         "': " + std::strerror(errno));
}

bool file_exists(const std::string& path) {
  struct stat st{};
  return ::stat(path.c_str(), &st) == 0;
}

/// Directory entry names (excluding dot entries), sorted.
std::vector<std::string> list_dir(const std::string& path) {
  std::vector<std::string> names;
  DIR* d = ::opendir(path.c_str());
  if (!d) return names;
  while (dirent* e = ::readdir(d)) {
    const std::string name = e->d_name;
    if (name != "." && name != "..") names.push_back(name);
  }
  ::closedir(d);
  std::sort(names.begin(), names.end());
  return names;
}

/// "j<n>", the id of the n-th job created.
std::string job_id(int n) {
  std::string id = std::to_string(n);
  id.insert(id.begin(), 'j');
  return id;
}

}  // namespace

JobStore::JobStore(std::string state_dir) : state_dir_(std::move(state_dir)) {
  make_dir(state_dir_);
  make_dir(state_dir_ + "/jobs");
  load();
}

std::string JobStore::job_dir(const std::string& id) const {
  return state_dir_ + "/jobs/" + id;
}

std::string JobStore::sidecar_path(const Job& job, int task) const {
  return job_dir(job.id) + "/tasks/t" + std::to_string(task) + ".json";
}

Job& JobStore::create(const std::string& tenant,
                      const std::string& spec_text) {
  // Validate before any disk state exists: a malformed spec never leaves
  // a half-created job behind.
  const std::vector<core::CampaignSpec> specs =
      core::parse_batch_spec(spec_text);
  auto job = std::make_unique<Job>();
  job->id = job_id(next_id_++);
  job->tenant = tenant;
  job->spec_text = spec_text;
  // Placeholder goldens (all-zero): the daemon never executes runs; the
  // master adopts the first worker sidecar's goldens on fold.
  job->master = core::make_checkpoint(
      specs, std::vector<core::Golden>(specs.size()), core::ShardSpec{});
  job->pending = core::remaining_selection(job->master);

  const std::string dir = job_dir(job->id);
  make_dir(dir);
  make_dir(dir + "/tasks");
  util::write_file_atomic(dir + "/spec.json", spec_text);
  util::JsonWriter meta;
  meta.begin_object();
  meta.key("id").value(job->id);
  meta.key("tenant").value(job->tenant);
  meta.end_object();
  util::write_file_atomic(dir + "/meta.json", meta.str() + "\n");
  persist_master(*job);

  jobs_.push_back(std::move(job));
  return *jobs_.back();
}

Job* JobStore::find(const std::string& id) {
  for (auto& job : jobs_)
    if (job->id == id) return job.get();
  return nullptr;
}

void JobStore::persist_master(const Job& job) const {
  util::write_file_atomic(
      job_dir(job.id) + "/master.json",
      core::checkpoint_json(job.master) + "\n");
}

void JobStore::finalize(Job& job) const {
  util::write_file_atomic(
      job_dir(job.id) + "/result.json",
      core::batch_json(core::checkpoint_to_batch(job.master)) + "\n");
  job.done = true;
}

std::string JobStore::result_text(const Job& job) const {
  if (!job.done)
    throw util::SetupError("job " + job.id + " is not finished");
  return util::read_file(job_dir(job.id) + "/result.json");
}

void JobStore::load() {
  for (const std::string& id : list_dir(state_dir_ + "/jobs")) {
    load_job(id);
    // Keep the id allocator ahead of every loaded job.
    if (id.size() > 1 && id[0] == 'j') {
      const int n = std::atoi(id.c_str() + 1);
      if (n >= next_id_) next_id_ = n + 1;
    }
  }
  // Creation order == numeric id order (list_dir sorts lexically, which
  // breaks past j9; re-sort numerically).
  std::sort(jobs_.begin(), jobs_.end(),
            [](const std::unique_ptr<Job>& a, const std::unique_ptr<Job>& b) {
              return std::atoi(a->id.c_str() + 1) <
                     std::atoi(b->id.c_str() + 1);
            });
}

void JobStore::load_job(const std::string& id) {
  const std::string dir = job_dir(id);
  auto job = std::make_unique<Job>();
  const util::JsonValue meta = util::parse_json(
      util::read_file(dir + "/meta.json"));
  job->id = meta.at("id").as_string();
  job->tenant = meta.at("tenant").as_string();
  job->spec_text = util::read_file(dir + "/spec.json");
  job->master = core::parse_checkpoint_json(
      util::read_file(dir + "/master.json"));

  // Crash recovery: fold any task sidecar the master does not yet cover
  // (the daemon died between a worker's final write and the fold). An
  // overlapping sidecar was already folded — drop it; an unreadable one
  // is a torn write — its selection simply re-runs.
  bool folded = false;
  for (const std::string& t : list_dir(dir + "/tasks")) {
    try {
      const core::Checkpoint side = core::parse_checkpoint_json(
          util::read_file(dir + "/tasks/" + t));
      core::fold_checkpoint(job->master, side);
      folded = true;
    } catch (const util::SetupError&) {
      // Already folded, torn or stale — either way the master stands.
    }
    std::remove((dir + "/tasks/" + t).c_str());
  }
  if (folded) persist_master(*job);

  job->done = file_exists(dir + "/result.json");
  if (!job->done) {
    job->pending = core::remaining_selection(job->master);
    // Every task number below the allocator may still have a sidecar path
    // on disk from before the crash; start fresh above them.
    job->next_task = 0;
  }
  jobs_.push_back(std::move(job));
}

}  // namespace fsim::service
