#include "apps/app.hpp"

#include "simmpi/stubs.hpp"
#include "svm/assembler.hpp"
#include "util/status.hpp"

namespace fsim::apps {

namespace {
constexpr int kMaxSteps = 32767;
}  // namespace

svm::Program App::link() const {
  return svm::assemble_units({user_asm, simmpi::stub_library_asm()});
}

App make_app(const std::string& name) { return make_app(name, AppParams{}); }

App make_app(const std::string& name, const AppParams& params) {
  // 0 keeps the app's default. Every app exchanges halos or forces with
  // its neighbours, so a world needs two ranks.
  if (params.ranks != 0 && (params.ranks < 2 || params.ranks > 64))
    throw util::SetupError("app '" + name + "': ranks must be in [2, 64], got " +
                           std::to_string(params.ranks));
  if (params.steps < 0)
    throw util::SetupError("app '" + name + "': steps must be positive, got " +
                           std::to_string(params.steps));
  // The timestep apps load their step count with a 16-bit `ldi` immediate;
  // jacobi's steps cap max_iterations, a full int.
  if (name != "jacobi" && params.steps > kMaxSteps)
    throw util::SetupError("app '" + name + "': steps must be at most " +
                           std::to_string(kMaxSteps) + ", got " +
                           std::to_string(params.steps));
  if (name == "wavetoy") {
    WavetoyConfig cfg;
    if (params.ranks) cfg.ranks = params.ranks;
    if (params.steps) cfg.steps = params.steps;
    return make_wavetoy(cfg);
  }
  if (name == "minimd") {
    MinimdConfig cfg;
    if (params.ranks) cfg.ranks = params.ranks;
    if (params.steps) cfg.steps = params.steps;
    return make_minimd(cfg);
  }
  if (name == "atmo") {
    AtmoConfig cfg;
    if (params.ranks) cfg.ranks = params.ranks;
    if (params.steps) cfg.steps = params.steps;
    return make_atmo(cfg);
  }
  if (name == "jacobi") {
    JacobiConfig cfg;
    if (params.ranks) cfg.ranks = params.ranks;
    if (params.steps) cfg.max_iterations = params.steps;
    return make_jacobi(cfg);
  }
  throw util::SetupError("unknown app '" + name +
                         "' (expected wavetoy|minimd|atmo|jacobi)");
}

std::vector<std::string> app_names() { return {"wavetoy", "minimd", "atmo"}; }

}  // namespace fsim::apps
