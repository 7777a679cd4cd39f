#include "service/protocol.hpp"

#include "util/status.hpp"

namespace fsim::service {

std::string error_reply(const std::string& message) {
  util::JsonWriter w;
  w.begin_object();
  w.key("ok").value(false);
  w.key("error").value(message);
  w.end_object();
  return w.str();
}

void write_selection(util::JsonWriter& w, const core::GridSelection& sel) {
  w.begin_array();
  for (const core::RunSet& slot : sel.slots) {
    w.begin_array();
    for (const auto& [first, last] : slot.ranges()) {
      w.begin_array();
      w.value(first);
      w.value(last);
      w.end_array();
    }
    w.end_array();
  }
  w.end_array();
}

core::GridSelection read_selection(const util::JsonValue& v) {
  core::GridSelection sel;
  for (const auto& sv : v.items()) {
    core::RunSet slot;
    for (const auto& rv : sv.items()) {
      const auto& pair = rv.items();
      if (pair.size() != 2)
        throw util::SetupError("selection: run range is not a pair");
      slot.append_range(pair[0].as_i32(), pair[1].as_i32());
    }
    sel.slots.push_back(std::move(slot));
  }
  return sel;
}

std::string assign_message(const Assignment& a) {
  util::JsonWriter w;
  w.begin_object();
  w.key("op").value("assign");
  w.key("job").value(a.job);
  w.key("task").value(a.task);
  w.key("spec").value(a.spec);
  w.key("selection");
  write_selection(w, a.selection);
  w.key("sidecar").value(a.sidecar);
  w.key("encoding").value(core::checkpoint_encoding_name(a.encoding));
  w.end_object();
  return w.str();
}

Assignment parse_assign(const util::JsonValue& v) {
  Assignment a;
  a.job = v.at("job").as_string();
  a.task = v.at("task").as_i32();
  a.spec = v.at("spec").as_string();
  a.selection = read_selection(v.at("selection"));
  a.sidecar = v.at("sidecar").as_string();
  const auto enc = core::parse_checkpoint_encoding(
      v.at("encoding").as_string());
  if (!enc) throw util::SetupError("assign: unknown checkpoint encoding");
  a.encoding = *enc;
  return a;
}

}  // namespace fsim::service
