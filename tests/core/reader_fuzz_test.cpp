// Reader fuzz: every document fsim reads back — a checkpoint in either
// encoding (files, and the job master a daemon's status reply carries)
// and a service assign line — is mutated (every truncation prefix, every
// single-bit flip, numbers swapped for out-of-range values, duplicated
// keys) and fed to its reader and the consumers behind it, the status
// table included. A mutant may be accepted or refused, but the only
// refusal allowed is util::SetupError: no other exception, no crash, no
// sanitizer report. tests/ci.sh runs this binary under AddressSanitizer.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "core/adaptive.hpp"
#include "core/campaign.hpp"
#include "core/checkpoint.hpp"
#include "core/report.hpp"
#include "core/reshard.hpp"
#include "service/protocol.hpp"
#include "util/codec.hpp"
#include "util/file.hpp"
#include "util/json.hpp"
#include "util/status.hpp"

namespace fsim {
namespace {

/// Runs `read` over mutants and records anything but a SetupError.
class Fuzzer {
 public:
  explicit Fuzzer(std::function<void(const std::string&)> read)
      : read_(std::move(read)) {}

  /// True when the mutant was refused (with a SetupError).
  bool feed(const std::string& mutant, const std::string& label) {
    ++fed_;
    try {
      read_(mutant);
      return false;
    } catch (const util::SetupError&) {
      return true;
    } catch (const std::exception& e) {
      fail(label + ": " + e.what());
    } catch (...) {
      fail(label + ": non-std exception");
    }
    return true;
  }

  int fed() const noexcept { return fed_; }
  const std::vector<std::string>& failures() const noexcept {
    return failures_;
  }

 private:
  void fail(const std::string& what) {
    if (failures_.size() < 5) failures_.push_back(what);
  }

  std::function<void(const std::string&)> read_;
  std::vector<std::string> failures_;
  int fed_ = 0;
};

/// One past the JSON value that starts at `i` (string-aware; stops at the
/// ',' or closing bracket that ends a member or element).
std::size_t value_end(const std::string& t, std::size_t i) {
  int depth = 0;
  bool in_string = false;
  for (; i < t.size(); ++i) {
    const char c = t[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
        if (depth == 0) return i + 1;
      }
      continue;
    }
    if (c == '"') {
      in_string = true;
    } else if (c == '{' || c == '[') {
      ++depth;
    } else if (c == '}' || c == ']') {
      if (depth == 0) return i;
      if (--depth == 0) return i + 1;
    } else if (c == ',' && depth == 0) {
      return i;
    }
  }
  return i;
}

/// Spans of the document outside strings: calls `on_key(start, colon)`
/// for every object key and `on_number(start, end)` for every number.
void scan(const std::string& t,
          const std::function<void(std::size_t, std::size_t)>& on_key,
          const std::function<void(std::size_t, std::size_t)>& on_number) {
  for (std::size_t i = 0; i < t.size(); ++i) {
    const char c = t[i];
    if (c == '"') {
      const std::size_t start = i;
      for (++i; i < t.size() && t[i] != '"'; ++i)
        if (t[i] == '\\') ++i;
      if (i + 1 < t.size() && t[i + 1] == ':') on_key(start, i + 1);
    } else if (c == '-' || (c >= '0' && c <= '9')) {
      const std::size_t start = i;
      while (i + 1 < t.size() && std::strchr("0123456789+-.eE", t[i + 1]))
        ++i;
      on_number(start, i + 1);
    }
  }
}

const char* const kHostileNumbers[] = {"2147483648", "4294967297",
                                       "18446744073709551616", "-1",
                                       "1e308"};

/// Every family of text mutations. Counts the truncations and how many
/// of them were refused (every one should be: no proper prefix of a JSON
/// document parses).
void mutate_text(Fuzzer& fuzz, const std::string& text, int& truncations,
                 int& truncations_refused) {
  for (std::size_t n = 0; n < text.size(); ++n) {
    ++truncations;
    if (fuzz.feed(text.substr(0, n), "truncate " + std::to_string(n)))
      ++truncations_refused;
  }
  for (std::size_t i = 0; i < text.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string m = text;
      m[i] = static_cast<char>(m[i] ^ (1 << bit));
      fuzz.feed(m, "flip " + std::to_string(i) + "." + std::to_string(bit));
    }
  }
  scan(
      text,
      [&](std::size_t key, std::size_t colon) {
        // "key":value becomes "key":value,"key":value.
        const std::size_t end = value_end(text, colon + 1);
        const std::string member = text.substr(key, end - key);
        fuzz.feed(text.substr(0, end) + "," + member + text.substr(end),
                  "duplicate " + member.substr(0, 24));
      },
      [&](std::size_t start, std::size_t end) {
        for (const char* v : kHostileNumbers)
          fuzz.feed(text.substr(0, start) + v + text.substr(end),
                    "number@" + std::to_string(start) + "=" + v);
      });
}

/// Mutate the decoded fnv-bin-v1 blob itself (re-encoded, so the
/// base64 layer passes and the varint reader sees the damage).
void mutate_blob(Fuzzer& fuzz, const std::string& wrapper) {
  const std::string open = "\"data\":\"";
  const std::size_t at = wrapper.find(open);
  ASSERT_NE(at, std::string::npos);
  const std::size_t from = at + open.size();
  const std::size_t to = wrapper.find('"', from);
  const std::string blob = util::base64_decode(wrapper.substr(from, to - from));
  auto wrap = [&](const std::string& b) {
    return wrapper.substr(0, from) + util::base64_encode(b) +
           wrapper.substr(to);
  };
  // Hostile varints: 2^31, 2^32 + 1, 2^64 - 1, and the raw bytes of 1e308.
  std::vector<std::string> hostile;
  for (std::uint64_t v : {std::uint64_t{1} << 31, (std::uint64_t{1} << 32) + 1,
                          ~std::uint64_t{0}}) {
    util::ByteWriter w;
    w.u64(v);
    hostile.push_back(w.take());
  }
  util::ByteWriter big;
  big.f64(1e308);
  hostile.push_back(big.take());

  for (std::size_t n = 0; n < blob.size(); ++n)
    EXPECT_TRUE(fuzz.feed(wrap(blob.substr(0, n)), "blob truncate"))
        << "a truncated blob was accepted (" << n << " bytes)";
  for (std::size_t i = 0; i < blob.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string m = blob;
      m[i] = static_cast<char>(m[i] ^ (1 << bit));
      fuzz.feed(wrap(m), "blob flip");
    }
    for (const std::string& h : hostile)
      fuzz.feed(wrap(blob.substr(0, i) + h + blob.substr(i + 1)),
                "blob number");
  }
}

void expect_clean(const Fuzzer& fuzz) {
  EXPECT_GT(fuzz.fed(), 0);
  for (const std::string& f : fuzz.failures())
    ADD_FAILURE() << "non-SetupError from a mutant: " << f;
}

/// What `fsim status` and `fsim merge` do with a checkpoint they parsed.
void read_checkpoint(const std::string& text) {
  const core::Checkpoint ck = core::parse_checkpoint_json(text);
  (void)core::format_checkpoint_status(core::checkpoint_status(ck));
  (void)core::batch_json(core::checkpoint_to_batch(ck));
  (void)core::remaining_selection(ck);
  core::Checkpoint master =
      core::make_checkpoint(ck.specs, ck.goldens, core::ShardSpec{});
  master.adaptive = ck.adaptive;
  core::fold_checkpoint(master, ck);
  (void)master.complete();
}

/// Real checkpoints of a small jacobi batch: fixed-n shard 0/2 and an
/// adaptive cell shard 1/2.
std::vector<std::string> real_checkpoints() {
  const auto specs = core::parse_batch_spec(
      R"({"format": "fsim-batch-v2", "runs": 4,
          "regions": ["regular", "message"],
          "campaigns": [{"app": "jacobi"}]})");
  const auto entries = core::entries_for_specs(specs);
  const std::string path = "reader_fuzz_test_ckpt.json";
  std::vector<std::string> docs;

  core::BatchConfig bc;
  bc.shard = core::ShardSpec{0, 2};
  bc.checkpoint_path = path;
  (void)core::run_batch(entries, bc);
  docs.push_back(util::read_file(path));

  core::AdaptiveConfig ac;
  ac.policy.ci = 0.4;
  ac.policy.wave = 2;
  ac.shard = core::ShardSpec{1, 2};
  ac.checkpoint_path = path;
  (void)core::run_adaptive(entries, ac);
  docs.push_back(util::read_file(path));
  std::remove(path.c_str());
  return docs;
}

TEST(ReaderFuzz, CheckpointsInBothEncodings) {
  for (const std::string& doc : real_checkpoints()) {
    const core::Checkpoint ck = core::parse_checkpoint_json(doc);
    for (const auto enc :
         {core::CheckpointEncoding::kJson, core::CheckpointEncoding::kBinary}) {
      const std::string text = core::checkpoint_serialize(ck, enc);
      Fuzzer fuzz(read_checkpoint);
      EXPECT_FALSE(fuzz.feed(text, "original")) << "the unmutated doc";
      int truncations = 0, refused = 0;
      mutate_text(fuzz, text, truncations, refused);
      EXPECT_EQ(refused, truncations) << "a truncated checkpoint parsed";
      if (enc == core::CheckpointEncoding::kBinary) mutate_blob(fuzz, text);
      expect_clean(fuzz);
    }
  }
}

TEST(ReaderFuzz, ServiceAssignLines) {
  service::Assignment a;
  a.job = "j1";
  a.task = 3;
  a.spec = R"({"format": "fsim-batch-v2", "runs": 4,
               "campaigns": [{"app": "jacobi", "ranks": 4}]})";
  a.selection.slots.resize(2);
  a.selection.slots[0].append_range(0, 1);
  a.selection.slots[1].append_range(2, 3);
  a.sidecar = "state/jobs/j1/tasks/t3.json";
  a.encoding = core::CheckpointEncoding::kBinary;
  const std::string line = service::assign_message(a);
  Fuzzer fuzz([](const std::string& t) {
    const service::Assignment got = service::parse_assign(util::parse_json(t));
    (void)core::parse_batch_spec(got.spec);
    (void)got.selection.total();
  });
  EXPECT_FALSE(fuzz.feed(line, "original"));
  int truncations = 0, refused = 0;
  mutate_text(fuzz, line, truncations, refused);
  EXPECT_EQ(refused, truncations) << "a truncated assign line parsed";
  expect_clean(fuzz);
}

}  // namespace
}  // namespace fsim
