#include "exec/config.h"

#include <climits>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <set>

#include "base/error.h"
#include "base/parse.h"
#include "exec/runner.h"
#include "obs/events.h"
#include "sim/network.h"

namespace simulcast::exec {

namespace {

RunConfig& installed() {
  static RunConfig config;
  return config;
}

std::terminate_handler g_default_terminate = nullptr;

/// A UsageError nobody caught is still a usage error: "error: <what>" and
/// exit 2, like a malformed knob.  Everything else keeps the default abort.
[[noreturn]] void on_terminate() noexcept {
  if (const std::exception_ptr uncaught = std::current_exception()) {
    try {
      std::rethrow_exception(uncaught);
    } catch (const UsageError& e) {
      std::fflush(stdout);
      std::fprintf(stderr, "error: %s\n", e.what());
      std::_Exit(2);
    } catch (...) {
      g_default_terminate();
    }
  }
  g_default_terminate();
  std::abort();
}

[[noreturn]] void malformed(std::string_view knob, const char* expected, std::string_view text) {
  throw UsageError(std::string(knob) + " must be " + expected + ", got '" + std::string(text) +
                   "'");
}

std::string path_value(std::string_view knob, const char* what, std::string_view text) {
  if (text.empty()) throw UsageError(std::string(knob) + " needs a " + what);
  return std::string(text);
}

std::uint64_t count_value(std::string_view knob, const char* expected, std::string_view text,
                          std::uint64_t min, std::uint64_t max = UINT64_MAX) {
  const std::optional<std::uint64_t> value = parse_uint(text);
  if (!value || *value < min || *value > max) malformed(knob, expected, text);
  return *value;
}

/// The longest duration a seconds knob takes: 10^6 s (11.6 days) lies far
/// inside the steady clock's range, so every later conversion to an
/// integer clock duration is exact and no deadline wraps into the past.
constexpr double kMaxSeconds = 1e6;

/// The one seconds parser: a positive number of seconds, at most
/// kMaxSeconds; `positive` names a tighter floor the caller checks.
double seconds_value(std::string_view knob, std::string_view text,
                     const char* positive = "a positive number of seconds") {
  const std::optional<double> seconds = parse_real(text);
  if (!seconds || !(*seconds > 0.0)) malformed(knob, positive, text);
  if (*seconds > kMaxSeconds) malformed(knob, "at most 1000000 seconds", text);
  return *seconds;
}

/// One command-line knob: `--flag=VALUE` (or a bare `--flag` when not
/// valued), the environment variable consulted when the command line does
/// not give it, and how a value lands in the config.  `apply` receives the
/// spelling the value came from (flag or variable) for its error message
/// and throws UsageError on a malformed value.
struct Knob {
  std::string_view flag;
  const char* env;
  bool valued;
  void (*apply)(RunConfig& config, std::string_view knob, std::string_view value);
};

const Knob kKnobs[] = {
    {"--threads", "SIMULCAST_THREADS", true,
     [](RunConfig& c, std::string_view knob, std::string_view v) {
       c.threads = count_value(knob, "a positive integer", v, 1);
     }},
    {"--transport", nullptr, true,
     [](RunConfig& c, std::string_view, std::string_view v) {
       c.transport = net::parse_transport_kind(v);
     }},
    {"--net-timeout", nullptr, true,
     [](RunConfig& c, std::string_view knob, std::string_view v) {
       // Fractional seconds are first-class (--net-timeout=0.5): chaos
       // suites want sub-second stall detection, and the transports keep
       // the deadline in whole milliseconds, so at least one.
       const char* const expected = "a positive number of seconds (>= 0.001)";
       const double ms = seconds_value(knob, v, expected) * 1000.0;
       if (!(ms >= 1.0)) malformed(knob, expected, v);
       c.net_timeout = std::chrono::milliseconds(static_cast<long>(ms));
     }},
    {"--chaos", nullptr, true,
     [](RunConfig& c, std::string_view, std::string_view v) {
       // "" parses to the inert spec (that is how the default summary
       // round-trips), but an explicitly empty knob is a CLI mistake.
       if (v.empty()) throw UsageError("--chaos needs a spec (see net/chaos.h for the grammar)");
       c.chaos = net::parse_chaos_spec(v);
     }},
    {"--json", "SIMULCAST_JSON", true,
     [](RunConfig& c, std::string_view knob, std::string_view v) {
       c.json_path = path_value(knob, "file or directory path", v);
     }},
    {"--trace", "SIMULCAST_TRACE", true,
     [](RunConfig& c, std::string_view knob, std::string_view v) {
       c.trace_path = path_value(knob, "file or directory path", v);
     }},
    {"--log", "SIMULCAST_LOG", true,
     [](RunConfig& c, std::string_view knob, std::string_view v) {
       c.log_path = path_value(knob, "file path", v);
     }},
    {"--status", "SIMULCAST_STATUS", true,
     [](RunConfig& c, std::string_view knob, std::string_view v) {
       c.status_path = path_value(knob, "file path", v);
     }},
    {"--status-interval", nullptr, true,
     [](RunConfig& c, std::string_view knob, std::string_view v) {
       c.status_interval = seconds_value(knob, v);
     }},
    {"--drop", nullptr, true,
     [](RunConfig& c, std::string_view knob, std::string_view v) {
       const std::optional<double> p = parse_real(v);
       if (!p || !(*p >= 0.0 && *p <= 1.0)) malformed(knob, "a probability in [0, 1]", v);
       c.faults.drop_probability = *p;
     }},
    {"--delay", nullptr, true,
     [](RunConfig& c, std::string_view knob, std::string_view v) {
       c.faults.max_delay = count_value(knob, "a round count >= 0", v, 0);
     }},
    {"--crash", nullptr, true,
     [](RunConfig& c, std::string_view, std::string_view v) {
       c.faults.crashes = sim::parse_crash_schedule(v);
     }},
    {"--checkpoint", nullptr, true,
     [](RunConfig& c, std::string_view knob, std::string_view v) {
       c.batch.checkpoint_path = path_value(knob, "file or directory path", v);
     }},
    {"--resume", nullptr, false,
     [](RunConfig& c, std::string_view, std::string_view) { c.batch.resume = true; }},
    {"--rep-timeout", nullptr, true,
     [](RunConfig& c, std::string_view knob, std::string_view v) {
       c.batch.rep_timeout = seconds_value(knob, v);
       c.batch.quarantine = true;  // a watchdog without quarantine would abort the batch
     }},
    {"--retries", nullptr, true,
     [](RunConfig& c, std::string_view knob, std::string_view v) {
       c.batch.retries = static_cast<int>(count_value(knob, "an integer >= 0", v, 0, INT_MAX));
       c.batch.quarantine = true;
     }},
    {"--stop-after", nullptr, true,
     [](RunConfig& c, std::string_view knob, std::string_view v) {
       c.stop_after = count_value(knob, "a positive repetition count", v, 1);
     }},
};

}  // namespace

RunConfig parse_run_config(int argc, char** argv,
                           std::initializer_list<std::string_view> pass_through) {
  const char* const program = argc > 0 ? argv[0] : "driver";
  const auto usage_exit = [program](const std::string& detail) {
    std::fprintf(stderr,
                 "error: %s\n"
                 "usage: %s [--threads=N] [--transport=inproc|socket|process] "
                 "[--net-timeout=S] [--chaos=SPEC] [--json=PATH] "
                 "[--trace=PATH] [--log=PATH] [--status=PATH] [--status-interval=S] "
                 "[--drop=P] [--delay=R] [--crash=party@round,...] "
                 "[--checkpoint=PATH] [--resume] [--rep-timeout=S] [--retries=N] "
                 "[--stop-after=K]\n",
                 detail.c_str(), program);
    std::exit(2);
  };
  RunConfig config;
  std::set<std::string_view> seen;
  const auto apply = [&](const Knob& knob, std::string_view spelling, std::string_view value) {
    try {
      knob.apply(config, spelling, value);
    } catch (const UsageError& e) {
      usage_exit(e.what());
    }
  };
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const Knob* match = nullptr;
    for (const Knob& knob : kKnobs) {
      const bool hit =
          knob.valued ? arg.size() > knob.flag.size() && arg.rfind(knob.flag, 0) == 0 &&
                            arg[knob.flag.size()] == '='
                      : arg == knob.flag;
      if (hit) match = &knob;
    }
    if (match == nullptr) {
      bool passed = false;
      for (const std::string_view prefix : pass_through)
        passed = passed || arg.rfind(prefix, 0) == 0;
      if (!passed) usage_exit("unrecognized argument '" + std::string(arg) + "'");
      continue;
    }
    if (!seen.insert(match->flag).second)
      usage_exit("duplicate argument '" + std::string(match->flag) + "'");
    apply(*match, match->flag, match->valued ? arg.substr(match->flag.size() + 1) : "");
  }
  for (const Knob& knob : kKnobs) {
    if (knob.env == nullptr || seen.count(knob.flag) != 0) continue;
    const char* const value = std::getenv(knob.env);
    if (value != nullptr && *value != '\0') apply(knob, knob.env, value);
  }
  if (config.batch.resume && config.batch.checkpoint_path.empty())
    usage_exit("--resume requires --checkpoint=PATH (nowhere to load the checkpoint from)");
  if (config.chaos.enabled() && config.transport == net::TransportKind::kInProcess)
    usage_exit("--chaos needs a wire to disturb: add --transport=socket or --transport=process "
               "(the in-process backend moves no bytes)");
  return config;
}

void install_run_config(RunConfig config) {
  net::set_default_transport_kind(config.transport);
  obs::set_trace_enabled(!config.trace_path.empty());
  obs::set_log_enabled(!config.log_path.empty());
  set_stop_after(config.stop_after);
  installed() = std::move(config);
}

RunConfig run_config() {
  RunConfig config = installed();
  config.transport = net::default_transport_kind();
  return config;
}

RunConfig configure(int argc, char** argv, std::initializer_list<std::string_view> pass_through) {
  if (const int worker_rc = sim::maybe_worker_main(argc, argv); worker_rc >= 0)
    std::exit(worker_rc);
  install_run_config(parse_run_config(argc, argv, pass_through));
  install_signal_handlers();
  if (g_default_terminate == nullptr) g_default_terminate = std::set_terminate(&on_terminate);
  return run_config();
}

}  // namespace simulcast::exec
