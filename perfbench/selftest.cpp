// Tests of the benchmark's own logic: the percentile rule, span self time,
// and the determinism and validity of the seeded input generators.
#include <gtest/gtest.h>

#include <memory>

#include "analysis/lint.hpp"
#include "bench_lib.hpp"
#include "core/env_delta.hpp"
#include "core/env_loader.hpp"
#include "core/scenarios.hpp"

namespace perfbench {
namespace {

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

TEST(Percentile, ResolvedOnlyWithTenSamplesBeyond) {
  const Percentile p = percentile(one_to(1000), 0.99);
  EXPECT_EQ(p.value, 990.0);
  EXPECT_EQ(p.samples, 1000u);
  EXPECT_EQ(p.beyond, 10u);
  EXPECT_TRUE(p.resolved);

  const Percentile short_run = percentile(one_to(999), 0.99);
  EXPECT_EQ(short_run.beyond, 9u);
  EXPECT_FALSE(short_run.resolved);
  EXPECT_EQ(samples_needed(0.99), 1000u);
  EXPECT_EQ(samples_needed(0.5), 20u);
}

TEST(Percentile, SmallAndEmptyInputs) {
  const Percentile p = percentile(one_to(20), 0.99);
  EXPECT_EQ(p.value, 20.0);  // nearest rank: the maximum
  EXPECT_EQ(p.beyond, 0u);
  EXPECT_FALSE(p.resolved);
  EXPECT_FALSE(percentile({}, 0.5).resolved);
  EXPECT_EQ(percentile({}, 0.5).samples, 0u);
}

TEST(Spans, SelfTimeSubtractsTheUnionOfOverlappingChildren) {
  std::vector<Span> spans = {
      {"op", 0, 100, -1, 1},
      {"a", 10, 40, 0, 1},
      {"b", 30, 60, 0, 1},   // overlaps a
      {"c", 90, 120, 0, 1},  // runs past its parent: clipped to 100
      {"d", 15, 25, 1, 1},   // grandchild: counts against a only
  };
  const std::vector<std::int64_t> self = self_times_ns(spans);
  EXPECT_EQ(self[0], 100 - 50 - 10);
  EXPECT_EQ(self[1], 30 - 10);
  EXPECT_EQ(self[2], 30);
  EXPECT_EQ(self[3], 30);
  EXPECT_EQ(self[4], 10);
}

TEST(Spans, RecorderKeepsParentAndOp) {
  SpanRecorder rec;
  EXPECT_EQ(rec.begin("off", 1), -1);  // disabled by default
  rec.set_enabled(true);
  const int outer = rec.begin("outer", 7);
  rec.end(rec.begin("inner", 7, outer));
  rec.end(outer);
  const std::vector<Span> spans = rec.spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[1].parent, 0);
  EXPECT_EQ(spans[1].op, 7);
  EXPECT_LE(spans[0].start_ns, spans[1].start_ns);
  EXPECT_GE(spans[0].end_ns, spans[1].end_ns);
}

bool same(const std::vector<Arrival>& a, const std::vector<Arrival>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].due_ms != b[i].due_ms || a[i].kind != b[i].kind ||
        a[i].env != b[i].env || a[i].variant != b[i].variant ||
        a[i].ref != b[i].ref) {
      return false;
    }
  }
  return true;
}

TEST(Schedule, DeterministicForASeedAndWellFormed) {
  const std::vector<Arrival> a = make_schedule(11, 60.0, 20.0);
  EXPECT_TRUE(same(a, make_schedule(11, 60.0, 20.0)));
  EXPECT_FALSE(same(a, make_schedule(12, 60.0, 20.0)));
  // Poisson arrivals at the offered rate: ~1200 in 20 s.
  EXPECT_GT(a.size(), 1000u);
  EXPECT_LT(a.size(), 1400u);
  int resolves = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (i > 0) {
      EXPECT_GE(a[i].due_ms, a[i - 1].due_ms);
    }
    EXPECT_EQ(a[i].kind == Arrival::Kind::Stats,
              (i + 1) % static_cast<std::size_t>(kStatsEvery) == 0);
    if (a[i].kind != Arrival::Kind::Resolve) continue;
    ++resolves;
    const int back = static_cast<int>(i) - a[i].ref;
    EXPECT_GE(back, kChainBack);
    EXPECT_LT(back, kChainBack + kChainWindow);
    const Arrival& ref = a[static_cast<std::size_t>(a[i].ref)];
    EXPECT_EQ(ref.kind, Arrival::Kind::Design);
    EXPECT_EQ(ref.env, a[i].env);
    EXPECT_GE(a[i].variant, 0);
    EXPECT_LT(a[i].variant, kServeVariants);
  }
  EXPECT_GT(resolves, 0);
}

TEST(DriftSequence, DeterministicForASeedAndBounded) {
  const auto run = [](std::uint64_t seed) {
    auto env = std::make_shared<const depstor::Environment>(
        depstor::scenarios::multi_site(24, 6, 8));
    depstor::Rng rng(seed);
    int next_name = 0;
    std::vector<std::string> trail;
    for (int step = 0; step < 60; ++step) {
      const depstor::EnvDelta delta = make_drift_delta(*env, rng, &next_name);
      const int changes = static_cast<int>(
          delta.add.size() + delta.remove.size() + delta.resize.size());
      EXPECT_GE(changes, 1);
      EXPECT_LE(changes, 4);
      for (const auto& a : delta.add) trail.push_back("+" + a.name);
      for (const auto& r : delta.remove) trail.push_back("-" + r);
      for (const auto& r : delta.resize) {
        trail.push_back("~" + r.name + std::to_string(r.data_size_gb));
      }
      env = std::make_shared<const depstor::Environment>(
          depstor::apply_delta(*env, delta).env);
      EXPECT_GE(env->apps.size(), 18u);
      EXPECT_LE(env->apps.size(), 24u);
    }
    return trail;
  };
  const std::vector<std::string> a = run(5);
  EXPECT_EQ(a, run(5));
  EXPECT_NE(a, run(6));
}

TEST(GeneratedEnvironments, LintCleanAndResolvable) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    for (int apps = 2; apps <= 16; ++apps) {
      const std::string base = make_env_ini(seed, apps);
      EXPECT_EQ(base, make_env_ini(seed, apps));
      const auto report = depstor::analysis::lint_environment_text(base);
      EXPECT_EQ(report.error_count(), 0) << "seed " << seed << " apps " << apps;
      EXPECT_EQ(report.warning_count(), 0)
          << "seed " << seed << " apps " << apps;
      const depstor::Environment env = depstor::environment_from_ini(base);
      EXPECT_EQ(env.apps.size(), static_cast<std::size_t>(apps));
      for (std::uint64_t v : {0u, 1u, 2u, 3u}) {
        const std::string next = make_successor_ini(seed, apps, v);
        EXPECT_EQ(depstor::analysis::lint_environment_text(next).error_count(),
                  0);
        const depstor::EnvDelta delta = depstor::diff_environments(
            env, depstor::environment_from_ini(next));
        EXPECT_FALSE(delta.empty());
      }
    }
  }
}

}  // namespace
}  // namespace perfbench
