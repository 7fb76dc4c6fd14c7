// test_perfbench.cpp — the benchmark's own tests: the percentile helper,
// seeded inputs, metric names (against BENCHMARK.json too), and a smoke
// run of every workload.

#include <gtest/gtest.h>

#include <fstream>
#include <regex>
#include <set>
#include <sstream>

#include "perfbench.h"

namespace {

using perfbench::percentile;

TEST(Percentile, InterpolatesBetweenClosestRanks) {
  EXPECT_EQ(percentile({}, 50), 0.0);
  EXPECT_EQ(percentile({7.0}, 90), 7.0);
  EXPECT_DOUBLE_EQ(percentile({1, 2, 3, 4}, 50), 2.5);
  EXPECT_DOUBLE_EQ(percentile({4, 3, 2, 1}, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile({4, 3, 2, 1}, 100), 4.0);
  // numpy.percentile(range(1, 11), 90) == 9.1
  EXPECT_DOUBLE_EQ(percentile({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 90), 9.1);
  EXPECT_DOUBLE_EQ(perfbench::median({5, 1, 3}), 3.0);
}

std::vector<std::string> labels(const std::vector<perfbench::Request>& s) {
  std::vector<std::string> out;
  for (const auto& req : s) {
    out.push_back("|");
    for (const auto& c : req) out.push_back(c.label());
  }
  return out;
}

TEST(Inputs, SameSeedSameServedStream) {
  EXPECT_EQ(labels(perfbench::served_stream(7, 50)),
            labels(perfbench::served_stream(7, 50)));
  EXPECT_NE(labels(perfbench::served_stream(7, 50)),
            labels(perfbench::served_stream(8, 50)));
}

TEST(Inputs, ServedStreamShape) {
  // About as many requests as one 10 s run consumes.
  const auto stream = perfbench::served_stream(3, 48);
  std::set<std::string> seen;
  int points = 0, repeats = 0;
  for (const auto& req : stream) {
    ASSERT_GE(req.size(), 1u);
    ASSERT_LE(req.size(), 4u);
    for (const auto& c : req) {
      ++points;
      if (!seen.insert(c.label()).second) ++repeats;
    }
  }
  // Three designs over the utilization grid; about a quarter (plus chance
  // collisions) of the points repeat an earlier one.
  EXPECT_LE(seen.size(), 3u * 131u);
  EXPECT_GE(repeats, points / 5);
  EXPECT_LE(repeats, points / 2);
}

TEST(Inputs, ServedStreamIsStratified) {
  const auto stream = perfbench::served_stream(11, 40);
  for (std::size_t r = 0; r + 4 <= stream.size(); r += 4) {
    std::multiset<std::size_t> sizes;
    for (std::size_t i = r; i < r + 4; ++i) sizes.insert(stream[i].size());
    EXPECT_EQ(sizes, (std::multiset<std::size_t>{1, 2, 3, 4})) << r;
  }
}

TEST(Inputs, SameSeedSameSeedBlock) {
  const auto base = perfbench::canonical_config(1);
  const auto a = perfbench::seed_block(base, 5, 4);
  const auto b = perfbench::seed_block(base, 5, 4);
  ASSERT_EQ(a.size(), 4u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].label(), b[i].label());
    EXPECT_EQ(a[i].seed, 5u + i);
  }
  const auto c1 = perfbench::congested_block(3, 1);
  const auto c2 = perfbench::congested_block(3, 1);
  ASSERT_EQ(c1.size(), 8u);
  EXPECT_EQ(c1[0].seed, 3u);
  std::set<unsigned> seeds;
  for (std::size_t i = 0; i < c1.size(); ++i) {
    EXPECT_EQ(c1[i].label(), c2[i].label());
    seeds.insert(c1[i].seed);
  }
  EXPECT_EQ(seeds, (std::set<unsigned>{1, 2, 3, 4, 5, 6, 7, 8}));
}

TEST(Metrics, NamesAreWellFormed) {
  EXPECT_TRUE(perfbench::valid_metric_name("point_ms.p50"));
  EXPECT_TRUE(perfbench::valid_metric_name("pnr.route.fastpath_ratio"));
  EXPECT_FALSE(perfbench::valid_metric_name(""));
  EXPECT_FALSE(perfbench::valid_metric_name(".hidden"));
  EXPECT_FALSE(perfbench::valid_metric_name("a b"));
  EXPECT_FALSE(perfbench::valid_metric_name(std::string(65, 'a')));
  const std::regex re("[A-Za-z0-9_.-]+");
  for (const auto& [name, unit] : perfbench::layer_metric_units()) {
    EXPECT_TRUE(std::regex_match(name, re)) << name;
    EXPECT_TRUE(perfbench::valid_metric_name(name)) << name;
  }
  perfbench::MetricSet m;
  EXPECT_THROW(m.set("bad name", 1.0, "ms"), std::invalid_argument);
}

/// Names listed under `key` in BENCHMARK.json (a flat scan: each metric
/// object carries one "name").
std::set<std::string> benchmark_names(const std::string& key) {
  std::ifstream f(PERFBENCH_REPO_ROOT "/BENCHMARK.json");
  std::stringstream ss;
  ss << f.rdbuf();
  const std::string text = ss.str();
  const auto start = text.find("\"" + key + "\"");
  EXPECT_NE(start, std::string::npos) << key;
  const auto end = text.find(']', start);
  const std::string section = text.substr(start, end - start);
  std::set<std::string> names;
  const std::regex re("\"name\"\\s*:\\s*\"([^\"]+)\"");
  for (auto it = std::sregex_iterator(section.begin(), section.end(), re);
       it != std::sregex_iterator(); ++it) {
    names.insert((*it)[1]);
  }
  return names;
}

std::set<std::string> names_of(const perfbench::RunResult& r) {
  std::set<std::string> out;
  for (const auto& [name, m] : r.metrics.all()) out.insert(name);
  return out;
}

perfbench::RunResult smoke(const std::string& workload, bool trace) {
  perfbench::Args a;
  a.workload = workload;
  a.seed = 2;
  a.seconds = 0;
  a.trace = trace;
  a.smoke = true;
  a.out_dir = ".perfbench-test";
  return workload == "served_mix" ? perfbench::run_served_workload(a)
                                  : perfbench::run_flow_workload(a);
}

class Smoke : public ::testing::TestWithParam<const char*> {};

TEST_P(Smoke, TimedRunPrintsEveryEndToEndMetric) {
  const auto r = smoke(GetParam(), false);
  EXPECT_TRUE(r.correct);
  for (const auto& g : r.gate_failures) ADD_FAILURE() << g;
  EXPECT_GE(r.attempted, 1);
  EXPECT_EQ(r.failed, 0);
  EXPECT_EQ(names_of(r), benchmark_names("end_to_end"));
  for (const auto& [name, m] : r.metrics.all()) {
    EXPECT_GT(m.value, 0.0) << name;
    EXPECT_FALSE(m.better.empty()) << name;
  }
}

TEST_P(Smoke, TracedRunPrintsEveryPerLayerMetric) {
  const auto r = smoke(GetParam(), true);
  EXPECT_TRUE(r.correct);
  for (const auto& g : r.gate_failures) ADD_FAILURE() << g;
  EXPECT_EQ(names_of(r), benchmark_names("per_layer"));
  EXPECT_GT(r.metrics.value("trace.overhead_ratio"), 0.0);
}

INSTANTIATE_TEST_SUITE_P(Workloads, Smoke,
                         ::testing::Values("rv32_canonical", "route_congested",
                                           "mesh_44k", "served_mix"));

}  // namespace
