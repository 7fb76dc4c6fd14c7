// support.cpp — statistics, metrics, process probes, spans, QoR and the
// seeded workload inputs shared by every perfbench workload.

#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <random>
#include <stdexcept>
#include <cstring>

#include "obs/numfmt.h"
#include "perfbench.h"

namespace perfbench {

using ffet::flow::FlowConfig;

// ---- statistics -------------------------------------------------------------

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank =
      std::clamp(p, 0.0, 100.0) / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (rank - static_cast<double>(lo));
}

double median(const std::vector<double>& values) {
  return percentile(values, 50.0);
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

// ---- metrics ----------------------------------------------------------------

bool valid_metric_name(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  if (!std::isalnum(static_cast<unsigned char>(name[0]))) return false;
  return std::all_of(name.begin(), name.end(), [](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
           c == '.' || c == '-';
  });
}

void MetricSet::set(const std::string& name, double value,
                    const std::string& unit, const std::string& better) {
  if (!valid_metric_name(name)) {
    throw std::invalid_argument("invalid metric name: " + name);
  }
  metrics_[name] = Metric{value, unit, better};
}

double MetricSet::value(const std::string& name) const {
  const auto it = metrics_.find(name);
  return it == metrics_.end() ? 0.0 : it->second.value;
}

std::string result_json(const RunResult& result) {
  std::string out = "{\"correct\":";
  out += result.correct ? "true" : "false";
  out += ",\"attempted\":" + std::to_string(result.attempted);
  out += ",\"failed\":" + std::to_string(result.failed);
  out += ",\"metrics\":{";
  bool first = true;
  for (const auto& [name, m] : result.metrics.all()) {
    if (!first) out += ',';
    first = false;
    out += '"' + name + "\":{\"value\":";
    ffet::obs::append_double(out, m.value);
    out += ",\"unit\":\"" + m.unit + "\"}";
  }
  out += "}}";
  return out;
}

std::string directions_json(const RunResult& result) {
  std::string out = "{\"better\":{";
  bool first = true;
  for (const auto& [name, m] : result.metrics.all()) {
    if (m.better.empty()) continue;
    if (!first) out += ',';
    first = false;
    out += '"' + name + "\":\"" + m.better + '"';
  }
  return out + "}}";
}

// ---- process probes ---------------------------------------------------------

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

double rusage_cpu_ms(int who) {
  rusage ru{};
  getrusage(who, &ru);
  const auto ms = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e3 +
           static_cast<double>(tv.tv_usec) / 1e3;
  };
  return ms(ru.ru_utime) + ms(ru.ru_stime);
}

}  // namespace

double self_cpu_ms() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

double children_cpu_ms() { return rusage_cpu_ms(RUSAGE_CHILDREN); }

double children_peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_CHILDREN, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in kB
}

bool reset_peak_rss() {
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  const bool wrote = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && wrote;
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

int nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
  return 1;
}

// ---- spans ------------------------------------------------------------------

long long SpanRecorder::begin(const std::string& name, long long parent,
                              long long trace_id) {
  Span s;
  s.name = name;
  s.id = static_cast<long long>(spans_.size()) + 1;
  s.parent = parent;
  s.trace_id = trace_id;
  s.start_ms = now_ms() - epoch_ms_;
  spans_.push_back(std::move(s));
  return spans_.back().id;
}

void SpanRecorder::end(long long id) {
  spans_.at(static_cast<std::size_t>(id - 1)).end_ms = now_ms() - epoch_ms_;
}

long long SpanRecorder::add(const std::string& name, long long parent,
                            long long trace_id, double start_ms,
                            double end_ms) {
  const long long id = begin(name, parent, trace_id);
  spans_.back().start_ms = start_ms - epoch_ms_;
  spans_.back().end_ms = end_ms - epoch_ms_;
  return id;
}

double SpanRecorder::self_ms(const Span& span) const {
  // Children of one parent run one after another here, so their covered
  // time is the sum of their durations.
  double covered = 0.0;
  for (const Span& s : spans_) {
    if (s.parent == span.id) covered += s.end_ms - s.start_ms;
  }
  return (span.end_ms - span.start_ms) - covered;
}

bool SpanRecorder::write_chrome_trace(const std::string& path) const {
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  for (const Span& s : spans_) {
    if (!first) out += ',';
    first = false;
    // One lane per point/request: spans of one trace id nest.
    out += "{\"name\":\"" + s.name + "\",\"ph\":\"X\",\"pid\":1,\"tid\":" +
           std::to_string(s.trace_id) + ",";
    out += "\"ts\":";
    ffet::obs::append_double(out, s.start_ms * 1e3);
    out += ",\"dur\":";
    ffet::obs::append_double(out, (s.end_ms - s.start_ms) * 1e3);
    out += ",\"args\":{\"id\":" + std::to_string(s.id) +
           ",\"parent\":" + std::to_string(s.parent) +
           ",\"trace_id\":" + std::to_string(s.trace_id) + ",\"self_ms\":";
    ffet::obs::append_double(out, self_ms(s));
    out += "}}";
  }
  out += "]}\n";
  std::ofstream f(path, std::ios::binary);
  f << out;
  return static_cast<bool>(f);
}

// ---- QoR --------------------------------------------------------------------

bool Qor::operator==(const Qor& o) const {
  const auto same = [](double a, double b) {
    return std::memcmp(&a, &b, sizeof(double)) == 0;
  };
  return valid == o.valid && drv == o.drv && same(freq_ghz, o.freq_ghz) &&
         same(power_uw, o.power_uw) &&
         same(efficiency_ghz_per_mw, o.efficiency_ghz_per_mw) &&
         same(wirelength_um, o.wirelength_um);
}

std::string Qor::str() const {
  std::string s = valid ? "valid" : "invalid";
  s += " freq=" + ffet::obs::format_double(freq_ghz);
  s += " power=" + ffet::obs::format_double(power_uw);
  s += " wl=" + ffet::obs::format_double(wirelength_um);
  s += " drv=" + std::to_string(drv);
  return s;
}

Qor qor_of(const ffet::flow::FlowResult& r) {
  Qor q;
  q.valid = r.valid();
  q.freq_ghz = r.achieved_freq_ghz;
  q.power_uw = r.power_uw;
  q.efficiency_ghz_per_mw = r.efficiency_ghz_per_mw;
  q.wirelength_um = r.wirelength_front_um + r.wirelength_back_um;
  q.drv = r.drv;
  return q;
}

bool QorLedger::record(const std::string& label, const Qor& qor,
                       RunResult& result) {
  if (!qor.valid) ++invalid_points_;
  const auto [it, inserted] = distinct_.emplace(label, qor);
  if (inserted || it->second == qor) return true;
  result.fail_gate("repeated config returned different QoR: " + label +
                   " [" + it->second.str() + "] vs [" + qor.str() + "]");
  return false;
}

void add_qor_metrics(const QorLedger& ledger, long long errored_points,
                     long long attempted, RunResult& result, bool trace) {
  std::vector<double> freq, eff, wl, drv;
  long long valid = 0;
  for (const auto& [label, q] : ledger.distinct()) {
    freq.push_back(q.freq_ghz);
    eff.push_back(q.efficiency_ghz_per_mw);
    wl.push_back(q.wirelength_um);
    drv.push_back(static_cast<double>(q.drv));
    if (q.valid) ++valid;
  }
  const double distinct = static_cast<double>(ledger.distinct().size());
  if (trace) {
    result.metrics.set("qor.drv", mean(drv), "count");
    result.metrics.set(
        "qor.fail_ratio",
        attempted > 0 ? static_cast<double>(ledger.invalid_points() +
                                            errored_points) /
                            static_cast<double>(attempted)
                      : 0.0,
        "ratio");
    return;
  }
  result.metrics.set("freq_ghz", mean(freq), "GHz", "higher");
  result.metrics.set("efficiency_ghz_per_mw", mean(eff), "GHz/mW", "higher");
  result.metrics.set("wirelength_um", mean(wl), "um", "lower");
  result.metrics.set("valid_ratio",
                     distinct > 0 ? static_cast<double>(valid) / distinct : 0.0,
                     "ratio", "higher");
}

// ---- workload inputs --------------------------------------------------------

FlowConfig canonical_config(int threads) {
  FlowConfig c;
  c.tech_kind = ffet::tech::TechKind::Ffet3p5T;
  c.front_layers = 12;
  c.back_layers = 12;
  c.backside_input_fraction = 0.5;
  c.utilization = 0.76;
  c.rv32_registers = 32;
  c.threads = threads;
  return c;
}

FlowConfig congested_config(int threads) {
  FlowConfig c = canonical_config(threads);
  c.front_layers = 2;
  c.back_layers = 2;
  c.utilization = 0.80;
  return c;
}

std::vector<FlowConfig> seed_block(const FlowConfig& base, unsigned first,
                                   int count) {
  std::vector<FlowConfig> out;
  for (int i = 0; i < count; ++i) {
    FlowConfig c = base;
    c.seed = first + static_cast<unsigned>(i);
    out.push_back(c);
  }
  return out;
}

std::vector<FlowConfig> congested_block(unsigned seed, int threads) {
  constexpr unsigned kBlock = 8;
  std::vector<FlowConfig> out;
  const unsigned start = (seed == 0 ? 0 : (seed - 1) % kBlock);
  for (unsigned i = 0; i < kBlock; ++i) {
    FlowConfig c = congested_config(threads);
    c.seed = 1 + (start + i) % kBlock;
    out.push_back(c);
  }
  return out;
}

std::vector<Request> served_stream(unsigned seed, int count) {
  // Raw engine output modulo n (not <random> distributions, whose mapping
  // is library-specific) so one seed gives one stream everywhere.  The
  // stream is stratified so every prefix has nearly the same make-up:
  // each run of 4 requests has sizes {1,2,3,4} in a seeded order, each run
  // of 4 points holds exactly one repeat of an earlier point, and each run
  // of 3 fresh points covers the three designs in a seeded order.  What
  // varies with the seed is the order, the utilizations and which point a
  // repeat names.
  std::mt19937_64 rng(0x5eedULL * 0x9E3779B97F4A7C15ULL + seed);
  const auto shuffled = [&](int n) {
    std::vector<int> v(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) v[static_cast<std::size_t>(i)] = i;
    for (int i = n - 1; i > 0; --i) {
      std::swap(v[static_cast<std::size_t>(i)],
                v[static_cast<std::size_t>(rng() % static_cast<unsigned>(i + 1))]);
    }
    return v;
  };
  FlowConfig cfet;
  cfet.tech_kind = ffet::tech::TechKind::Cfet4T;
  cfet.front_layers = 12;
  FlowConfig ffet_fm12;
  ffet_fm12.front_layers = 12;
  ffet_fm12.back_layers = 0;
  const FlowConfig designs[] = {cfet, ffet_fm12, canonical_config(0)};
  // 0.500, 0.502, ..., 0.760: fine enough that fresh draws rarely collide.
  constexpr unsigned kUtils = 131;

  std::vector<FlowConfig> fresh;
  std::vector<Request> stream;
  std::vector<int> sizes, repeat_slot, design_order;
  long long point = 0, fresh_count = 0;
  for (int r = 0; r < count; ++r) {
    if (r % 4 == 0) sizes = shuffled(4);
    Request req;
    for (int p = 0; p <= sizes[static_cast<std::size_t>(r % 4)]; ++p, ++point) {
      if (point % 4 == 0) repeat_slot = shuffled(4);
      if (!fresh.empty() && repeat_slot[0] == static_cast<int>(point % 4)) {
        req.push_back(fresh[rng() % fresh.size()]);
        continue;
      }
      if (fresh_count % 3 == 0) design_order = shuffled(3);
      FlowConfig c = designs[design_order[static_cast<std::size_t>(fresh_count % 3)]];
      ++fresh_count;
      c.threads = 0;  // the worker fleet owns the parallelism
      c.utilization = 0.5 + 0.002 * static_cast<double>(rng() % kUtils);
      fresh.push_back(c);
      req.push_back(c);
    }
    stream.push_back(std::move(req));
  }
  return stream;
}

}  // namespace perfbench
