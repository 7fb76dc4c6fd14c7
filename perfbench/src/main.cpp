// main.cpp — perfbench entry point.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--smoke] [--out-dir DIR] [--commit SHA] [--source-digest HEX]
//
// Prints a provenance line, a notes line, the better-direction of every
// end-to-end metric, then (last) the result object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{..}}
// Exit code 0 only when every correctness gate passed; a run that cannot
// finish prints no result and exits 2.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <vector>

#include "obs/numfmt.h"
#include "perfbench.h"

extern char** environ;

namespace {

using perfbench::Args;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "rv32_canonical|route_congested|mesh_44k|served_mix --seed N "
               "--seconds S --trace 0|1 [--smoke] [--out-dir DIR]\n",
               why);
  std::exit(2);
}

/// Every FFET_* variable changes what the program does or records (the
/// route engine, thread counts, tracing, ledgers, reports, metrics, the
/// resource probe, worker counts, serve attribution, verbosity, test
/// crash hooks), so none may leak into a measurement: clear them all and
/// report which were set.
std::vector<std::string> clear_ffet_environment() {
  std::vector<std::string> names;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "FFET_", 5) != 0) continue;
    const char* eq = std::strchr(*e, '=');
    names.emplace_back(*e, eq ? static_cast<std::size_t>(eq - *e)
                              : std::strlen(*e));
  }
  for (const std::string& n : names) ::unsetenv(n.c_str());
  return names;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  ffet::obs::append_escaped(out, s);
  return out + "\"";
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  std::string commit = "unknown", digest = "unknown";
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    if (a == "--workload") {
      args.workload = value();
    } else if (a == "--seed") {
      args.seed = static_cast<unsigned>(std::strtoul(value().c_str(), nullptr, 10));
    } else if (a == "--seconds") {
      args.seconds = std::strtod(value().c_str(), nullptr);
    } else if (a == "--trace") {
      const std::string v = value();
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      args.trace = v == "1";
      have_trace = true;
    } else if (a == "--smoke") {
      args.smoke = true;
    } else if (a == "--out-dir") {
      args.out_dir = value();
    } else if (a == "--commit") {
      commit = value();
    } else if (a == "--source-digest") {
      digest = value();
    } else {
      usage(("unknown argument " + a).c_str());
    }
  }
  bool known = false;
  for (const char* w : perfbench::kWorkloads) known = known || args.workload == w;
  if (!known) usage("unknown or missing --workload");
  if (!have_trace) usage("missing --trace");
  if (!(args.seconds >= 0)) usage("--seconds must be >= 0");

  const std::vector<std::string> cleared = clear_ffet_environment();
  char host[256] = {};
  if (::gethostname(host, sizeof(host) - 1) != 0) std::strcpy(host, "unknown");
  std::string cleared_json = "[";
  for (const std::string& n : cleared) {
    cleared_json += (cleared_json.size() > 1 ? "," : "") + json_string(n);
  }
  cleared_json += "]";
  std::printf(
      "{\"provenance\":{\"commit\":%s,\"source_digest\":%s,\"host\":%s,"
      "\"build_type\":%s,\"nproc\":%d,\"threads\":%d,\"workload\":%s,"
      "\"seed\":%u,\"seconds\":%s,\"trace\":%d,\"smoke\":%s,"
      "\"cleared_env\":%s}}\n",
      json_string(commit).c_str(), json_string(digest).c_str(),
      json_string(host).c_str(), json_string(PERFBENCH_BUILD_TYPE).c_str(),
      perfbench::nproc(), perfbench::nproc(), json_string(args.workload).c_str(),
      args.seed, ffet::obs::format_double(args.seconds).c_str(),
      args.trace ? 1 : 0, args.smoke ? "true" : "false", cleared_json.c_str());
  std::fflush(stdout);

  perfbench::RunResult result;
  try {
    result = args.workload == "served_mix"
                 ? perfbench::run_served_workload(args)
                 : perfbench::run_flow_workload(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", args.workload.c_str(),
                 e.what());
    return 2;
  }
  if (result.attempted < 1) {
    std::fprintf(stderr, "perfbench: %s attempted no points\n",
                 args.workload.c_str());
    return 2;
  }

  std::string notes = "{\"notes\":{";
  for (const auto& [k, v] : result.notes) {
    notes += (notes.size() > 10 ? "," : "") + json_string(k) + ":" +
             json_string(v);
  }
  notes += "}}";
  std::printf("%s\n", notes.c_str());
  for (const std::string& g : result.gate_failures) {
    std::fprintf(stderr, "perfbench: GATE FAILED: %s\n", g.c_str());
  }
  std::printf("%s\n%s\n", perfbench::directions_json(result).c_str(),
              perfbench::result_json(result).c_str());
  std::fflush(stdout);
  return result.correct && result.failed == 0 ? 0 : 1;
}
