// Wire protocol of the fsim service (docs/SERVICE.md).
//
// Line-delimited JSON over a Unix-domain socket: every message is one JSON
// object per '\n'-terminated line. Clients send request objects with an
// "op" key ("submit" | "status" | "fetch" | "shutdown") and read one reply
// object per request; workers upgrade their connection with op "worker"
// and then receive "assign" / "exit" messages, answering with "task_done".
// Nested documents (spec files, checkpoints, results) travel as JSON
// *strings*, so every line stays a flat self-contained object.
#pragma once

#include <string>

#include "core/checkpoint.hpp"
#include "util/json.hpp"

namespace fsim::service {

/// `{"ok": false, "error": message}` — the uniform failure reply.
std::string error_reply(const std::string& message);

/// GridSelection as a JSON value: an array of per-slot range lists,
/// `[[[first, last], ...], ...]`, mirroring the checkpoint "done" layout.
void write_selection(util::JsonWriter& w, const core::GridSelection& sel);
core::GridSelection read_selection(const util::JsonValue& v);

/// One re-shard assignment: job coordinates, the selection to execute and
/// the sidecar path the worker must checkpoint into.
struct Assignment {
  std::string job;     // job id
  int task = 0;        // task number within the job
  std::string spec;    // fsim-batch-v2 spec document text
  core::GridSelection selection;
  std::string sidecar;  // worker checkpoint sidecar path
  core::CheckpointEncoding encoding = core::CheckpointEncoding::kJson;
};

/// `{"op": "assign", ...}` daemon -> worker, and its inverse.
std::string assign_message(const Assignment& a);
Assignment parse_assign(const util::JsonValue& v);

}  // namespace fsim::service
