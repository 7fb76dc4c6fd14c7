// served.cpp — served_mix: an in-process serve::Server with nproc forked
// workers and a fresh cache directory, driven by nproc closed-loop client
// threads that each submit the next request of one seeded stream.
//
// Set-up is daemon start to first answered ping.  After the measured
// window the daemon is stopped (which reaps its workers, so their CPU time
// and peak RSS become visible to getrusage(RUSAGE_CHILDREN)), and every
// distinct served config is re-run in process and compared with
// report::diff_flow_reports in qor_only mode.

#include <atomic>
#include <filesystem>
#include <mutex>
#include <sstream>
#include <thread>

#include <unistd.h>

#include "flow/report_json.h"
#include "liberty/characterize.h"
#include "perfbench.h"
#include "report/qor.h"
#include "report/serve_stats.h"
#include "serve/client.h"
#include "serve/server.h"

namespace perfbench {

namespace ff = ffet::flow;
namespace fs = std::filesystem;

namespace {

struct ServedPoint {
  std::string label;
  std::string line;  ///< the ffet.flow_report.v1 line as served
  bool worker_died = false;
};

struct Window {
  std::vector<double> request_ms;
  std::vector<double> point_ms;  ///< request_ms / points in the request
  std::vector<ServedPoint> points;
  long long lost_points = 0;    ///< points of requests that failed
  long long died_points = 0;    ///< worker_died lines (all attempts died)
  std::vector<std::string> errors;
  double wall_ms = 0.0;
  std::size_t requests_done = 0;
};

class Daemon {
 public:
  Daemon(const Args& args, const std::string& tag, bool attribution,
         std::FILE* log) {
    const std::string base =
        args.out_dir + "/serve-" + std::to_string(::getpid()) + "-" + tag;
    opts_.socket_path = base + ".sock";
    opts_.cache_dir = base + ".cache";
    opts_.workers = nproc();
    opts_.attribution = attribution;
    opts_.log = log;
    fs::remove_all(opts_.cache_dir);
    fs::remove(opts_.socket_path);
    server_ = std::make_unique<ffet::serve::Server>(opts_);
  }
  ~Daemon() {
    stop();
    fs::remove_all(opts_.cache_dir);
  }

  /// Start and wait for the first answered ping; returns the set-up ms or
  /// a negative value on failure.
  double start(std::string* error) {
    const double t0 = now_ms();
    if (!server_->start(error)) return -1.0;
    for (int i = 0; i < 10000; ++i) {
      if (ffet::serve::ping(opts_.socket_path)) return now_ms() - t0;
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    *error = "daemon never answered a ping";
    return -1.0;
  }
  void stop() { server_->stop(); }
  const std::string& socket() const { return opts_.socket_path; }

 private:
  ffet::serve::ServeOptions opts_;
  std::unique_ptr<ffet::serve::Server> server_;
};

/// nproc clients, closed loop, over stream[0..limit) until `seconds` pass.
/// With `spans`, each request becomes one "serve.request" span (its trace
/// id is the request's stream index).
Window drive(const std::string& socket, const std::vector<Request>& stream,
             std::size_t limit, double seconds, SpanRecorder* spans = nullptr) {
  Window w;
  std::mutex mu;
  std::atomic<std::size_t> next{0};
  const double t0 = now_ms();
  const auto client = [&] {
    for (;;) {
      if (now_ms() - t0 >= seconds * 1e3) return;
      const std::size_t idx = next.fetch_add(1);
      if (idx >= limit) return;
      const Request& req = stream[idx];
      std::vector<ffet::serve::ResultLine> lines;
      ffet::serve::SubmitStats stats;
      std::string error;
      const double r0 = now_ms();
      const bool ok =
          ffet::serve::submit_sweep(socket, req, &lines, &stats, &error);
      const double r1 = now_ms();
      const double ms = r1 - r0;
      std::lock_guard<std::mutex> lk(mu);
      ++w.requests_done;
      if (spans != nullptr) {
        spans->add("serve.request", 0, static_cast<long long>(idx) + 1, r0, r1);
      }
      if (!ok || lines.size() != req.size()) {
        w.lost_points += static_cast<long long>(req.size());
        w.errors.push_back("request " + std::to_string(idx) + ": " +
                           (ok ? "short answer" : error));
        continue;
      }
      w.request_ms.push_back(ms);
      w.point_ms.push_back(ms / static_cast<double>(req.size()));
      for (std::size_t i = 0; i < lines.size(); ++i) {
        w.points.push_back({req[i].label(), lines[i].line, lines[i].worker_died});
        if (lines[i].worker_died) ++w.died_points;
      }
    }
  };
  std::vector<std::thread> clients;
  for (int c = 0; c < nproc(); ++c) clients.emplace_back(client);
  for (std::thread& t : clients) t.join();
  w.wall_ms = now_ms() - t0;
  return w;
}

Qor qor_of_record(const ffet::report::FlowRecord& r) {
  const auto get = [](const std::map<std::string, double>& m, const char* k) {
    const auto it = m.find(k);
    return it == m.end() ? 0.0 : it->second;
  };
  Qor q;
  q.valid = r.valid;
  q.freq_ghz = get(r.ppa, "achieved_freq_ghz");
  q.power_uw = get(r.ppa, "power_uw");
  q.efficiency_ghz_per_mw = get(r.ppa, "efficiency_ghz_per_mw");
  q.wirelength_um =
      get(r.ppa, "wirelength_front_um") + get(r.ppa, "wirelength_back_um");
  q.drv = static_cast<long long>(get(r.diagnostics, "drv"));
  return q;
}

std::vector<ffet::report::FlowRecord> parse_lines(const std::string& jsonl) {
  std::istringstream is(jsonl);
  return ffet::report::read_flow_reports(is);
}

/// Gates on the served points: repeats reproduce the first QoR of their
/// label, and every distinct label matches an in-process run of the same
/// config under diff_flow_reports(qor_only).
void check_served(const Window& w, const std::vector<Request>& stream,
                  QorLedger& ledger, RunResult& res) {
  std::map<std::string, std::string> first_line;
  for (const ServedPoint& p : w.points) {
    if (p.worker_died) continue;
    const auto recs = parse_lines(p.line + "\n");
    if (recs.size() != 1 || recs[0].label != p.label) {
      res.fail_gate("unreadable served line for " + p.label);
      continue;
    }
    ledger.record(p.label, qor_of_record(recs[0]), res);
    first_line.emplace(p.label, p.line);
  }

  // In-process reference: one prepared design per (tech, layers, pins).
  std::map<std::string, ff::FlowConfig> configs;
  for (const Request& req : stream) {
    for (const ff::FlowConfig& c : req) {
      if (first_line.count(c.label())) configs.emplace(c.label(), c);
    }
  }
  std::map<std::string, std::vector<ff::FlowConfig>> by_design;
  for (const auto& [label, c] : configs) {
    ff::FlowConfig key = c;
    key.utilization = 0.0;
    by_design[key.label()].push_back(c);
  }
  std::string inproc, served;
  for (const auto& [design, cs] : by_design) {
    const auto ctx = ff::prepare_design(cs.front());
    for (const ff::FlowResult& r : ff::run_sweep(*ctx, cs, nproc())) {
      inproc += ff::flow_report_json(r) + "\n";
      served += first_line.at(r.config.label()) + "\n";
    }
  }
  ffet::report::DiffOptions opts;
  opts.qor_only = true;
  const ffet::report::DiffReport d = ffet::report::diff_flow_reports(
      parse_lines(inproc), parse_lines(served), opts);
  if (d.pairs != static_cast<int>(configs.size()) || !d.deltas.empty() ||
      d.regressions != 0) {
    std::string what = "served QoR differs from in-process (" +
                       std::to_string(d.deltas.size()) + " deltas, " +
                       std::to_string(d.pairs) + "/" +
                       std::to_string(configs.size()) + " pairs)";
    if (!d.deltas.empty()) {
      what += ": " + d.deltas[0].label + " " + d.deltas[0].metric;
    }
    res.fail_gate(what);
  }
  res.notes["distinct_configs_checked"] = std::to_string(configs.size());
}

void add_serve_layer_metrics(const std::string& stats_json, const Window& w,
                             RunResult& res) {
  std::string error;
  const auto snap = ffet::report::parse_serve_stats(stats_json, &error);
  if (!snap) {
    res.fail_gate("unreadable STATS snapshot: " + error);
    return;
  }
  auto& m = res.metrics;
  const auto phase = [&](const char* key, const std::string& name) {
    const auto it = snap->phases.find(key);
    if (it == snap->phases.end()) return;
    m.set(name + ".p50", it->second.p50, "ms");
    m.set(name + ".p95", it->second.p95, "ms");
  };
  phase("queue_wait", "serve.queue_wait_ms");
  phase("cache_probe", "serve.cache_probe_ms");
  phase("worker_run", "serve.worker_run_ms");
  const auto counter = [&](const char* key) {
    const auto it = snap->counters.find(key);
    return it == snap->counters.end() ? 0.0 : static_cast<double>(it->second);
  };
  const double points = counter("points");
  m.set("serve.cache_hit_ratio", points > 0 ? counter("cache_hits") / points : 0,
        "ratio");
  m.set("serve.single_flight_joins", counter("single_flight_joins"), "count");
  m.set("serve.flow_runs", counter("flow_runs"), "count");
  m.set("serve.retries", counter("retries"), "count");
  m.set("serve.worker_deaths", counter("worker_deaths"), "count");

  // Cross-check the attribution every served line carries against STATS.
  long long attributed_hits = 0;
  for (const ServedPoint& p : w.points) {
    const auto recs = parse_lines(p.line + "\n");
    if (recs.size() == 1) {
      const auto it = recs[0].serve.find("cache_hit");
      if (it != recs[0].serve.end() && it->second != 0) ++attributed_hits;
    }
  }
  if (static_cast<double>(attributed_hits) != counter("cache_hits")) {
    res.fail_gate("attributed cache hits (" + std::to_string(attributed_hits) +
                  ") differ from STATS cache_hits");
  }
}

}  // namespace

RunResult run_served_workload(const Args& args) {
  RunResult res;
  fs::create_directories(args.out_dir);
  const std::string log_path = args.out_dir + "/serve.log";
  std::FILE* log = std::fopen(log_path.c_str(), "w");
  const std::vector<Request> stream =
      served_stream(args.seed, args.smoke ? 3 : 4000);

  // Set-up: daemon start to first ping, on a fresh cache each time.
  std::vector<double> setup_ms;
  for (int r = 0; r < (args.smoke ? 1 : 9); ++r) {
    Daemon d(args, "setup", false, log);
    std::string error;
    const double ms = d.start(&error);
    if (ms < 0) throw std::runtime_error("daemon start: " + error);
    setup_ms.push_back(ms);
  }

  QorLedger ledger;
  Window w;
  if (!args.trace) {
    const double cpu0 = self_cpu_ms(), child_cpu0 = children_cpu_ms();
    reset_peak_rss();
    {
      Daemon d(args, "timed", false, log);
      std::string error;
      if (d.start(&error) < 0) throw std::runtime_error("daemon: " + error);
      w = drive(d.socket(), stream, stream.size(),
                args.smoke ? 1e9 : args.seconds);
    }
    const double cpu_ms =
        (self_cpu_ms() - cpu0) + (children_cpu_ms() - child_cpu0);
    const double points = static_cast<double>(w.points.size());
    auto& m = res.metrics;
    m.set("setup_s", median(setup_ms) / 1e3, "s", "lower");
    m.set("point_ms.p50", percentile(w.point_ms, 50), "ms", "lower");
    m.set("request_ms.p50", percentile(w.request_ms, 50), "ms", "lower");
    m.set("points_per_s", points / (w.wall_ms / 1e3), "points/s", "higher");
    m.set("cpu_ms_per_point", points > 0 ? cpu_ms / points : 0.0, "ms",
          "lower");
    m.set("peak_rss_mb", std::max(peak_rss_mb(), children_peak_rss_mb()), "MB",
          "lower");
  } else {
    for (const auto& [name, unit] : layer_metric_units()) {
      res.metrics.set(name, 0.0, unit);
    }
    // Each job pays prepare_design: time it (cold) for the three designs.
    std::map<std::string, double> prepare_ms;
    for (const Request& req : stream) {
      for (ff::FlowConfig c : req) {
        c.utilization = 0.0;
        if (prepare_ms.size() == 3 || prepare_ms.count(c.label())) continue;
        ffet::liberty::clear_characterization_cache();
        const double t0 = now_ms();
        ff::prepare_design(c);
        prepare_ms[c.label()] = now_ms() - t0;
      }
    }
    std::vector<double> ms;
    for (const auto& [design, t] : prepare_ms) ms.push_back(t);
    res.metrics.set("flow.prepare_design.ms", median(ms), "ms");

    // Untraced, then traced (attribution on) over the same request prefix:
    // the wall-time ratio is the tracing overhead.
    Window plain;
    {
      Daemon d(args, "plain", false, log);
      std::string error;
      if (d.start(&error) < 0) throw std::runtime_error("daemon: " + error);
      plain = drive(d.socket(), stream, stream.size(),
                    args.smoke ? 1e9 : args.seconds / 2);
    }
    std::string stats_json;
    SpanRecorder spans;
    {
      Daemon d(args, "traced", true, log);
      std::string error;
      if (d.start(&error) < 0) throw std::runtime_error("daemon: " + error);
      w = drive(d.socket(), stream, plain.requests_done, 1e9, &spans);
      if (!ffet::serve::query_stats(d.socket(), &stats_json, &error)) {
        res.fail_gate("STATS query failed: " + error);
      }
    }
    add_serve_layer_metrics(stats_json, w, res);
    res.metrics.set("trace.overhead_ratio",
                    plain.wall_ms > 0 ? w.wall_ms / plain.wall_ms : 0.0,
                    "ratio");
    res.metrics.set("trace.points", static_cast<double>(w.points.size()),
                    "count");
    res.metrics.set("trace.point_ms", mean(w.point_ms), "ms");
    const std::string path = args.out_dir + "/spans-served_mix-" +
                             std::to_string(args.seed) + ".json";
    if (spans.write_chrome_trace(path)) res.notes["spans"] = path;

    // The untraced window's points go through the same gates below.
    w.points.insert(w.points.end(), plain.points.begin(), plain.points.end());
    w.lost_points += plain.lost_points;
    w.died_points += plain.died_points;
    w.errors.insert(w.errors.end(), plain.errors.begin(), plain.errors.end());
  }
  if (log != nullptr) std::fclose(log);

  res.attempted = static_cast<long long>(w.points.size()) + w.lost_points;
  res.failed = w.lost_points + w.died_points;
  for (const std::string& e : w.errors) res.fail_gate(e);
  if (w.died_points > 0) {
    res.fail_gate(std::to_string(w.died_points) + " worker_died points");
  }
  check_served(w, stream, ledger, res);
  add_qor_metrics(ledger, res.failed, res.attempted, res, args.trace);
  res.notes["requests"] = std::to_string(w.request_ms.size());
  return res;
}

}  // namespace perfbench
