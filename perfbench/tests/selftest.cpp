// The benchmark's own tests: the order-statistics helpers, the negative
// controls (an injected SAN write failure and a deliberately wrong job
// result must each raise fail_frac), and the non-perturbation gate on
// shrunken workloads.
#include <gtest/gtest.h>

#include "harness.h"
#include "replay.h"
#include "stats.h"

namespace zapc::perfbench {
namespace {

Config small(const std::string& workload) {
  Config c;
  c.workload = workload;
  c.seed = 7;
  c.small = true;
  return c;
}

TEST(Stats, MedianOfOddAndEvenCounts) {
  EXPECT_EQ(median({}), 0);
  EXPECT_EQ(median({3, 1, 2}), 2);
  EXPECT_EQ(median({4, 1, 3, 2}), 2.5);
}

TEST(Stats, TailIsHighestRankWithTenSamplesBeyond) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(101 - i);  // unsorted input
  Tail t = tail(v);
  EXPECT_EQ(t.n, 100u);
  EXPECT_EQ(t.value, 90);  // ten samples (91..100) lie beyond it
  EXPECT_NEAR(t.pct, 100.0 * 89 / 99, 1e-9);

  std::vector<double> eleven;
  for (int i = 0; i < 11; ++i) eleven.push_back(i);
  EXPECT_EQ(tail(eleven).value, 0);
  EXPECT_EQ(tail(eleven).pct, 0);

  std::vector<double> twenty_one;
  for (int i = 0; i < 21; ++i) twenty_one.push_back(i);
  EXPECT_EQ(tail(twenty_one).value, 10);
  EXPECT_EQ(tail(twenty_one).pct, 50);
}

TEST(Stats, TailOfFewSamplesFallsBackToTheHighest) {
  Tail t = tail({5, 3, 9});
  EXPECT_EQ(t.value, 9);
  EXPECT_EQ(t.pct, 100);
  EXPECT_EQ(t.n, 3u);
  EXPECT_EQ(tail({4}).value, 4);
  EXPECT_EQ(tail({4}).pct, 100);
  EXPECT_EQ(tail({}).n, 0u);
}

TEST(NegativeControl, CleanRunsHaveNoFailures) {
  for (const auto& w : workload_names()) {
    RunOutput r = run_workload(small(w), nullptr);
    EXPECT_TRUE(r.job_ok) << w;
    EXPECT_EQ(r.failed, 0u) << w;
    EXPECT_GT(r.attempted, 0u) << w;
  }
}

TEST(NegativeControl, SanWriteFailureRaisesFailFrac) {
  for (const char* w : {"bulk-snapshot", "cow-delta-lazy"}) {
    Config c = small(w);
    c.inject_san_write_fail = true;
    RunOutput r = run_workload(c, nullptr);
    EXPECT_GT(r.failed, 0u) << w;
    EXPECT_TRUE(r.job_ok) << w << ": a failed checkpoint must not hurt the job";
  }
}

TEST(NegativeControl, WrongJobResultRaisesFailFrac) {
  Config c = small("bulk-snapshot");
  c.corrupt_first_result = true;
  RunOutput r = run_workload(c, nullptr);
  EXPECT_GT(r.failed, 0u);
  EXPECT_FALSE(r.job_ok);
}

TEST(NegativeControl, WrongResultInAnEarlierPassIsNotForgotten) {
  // Two passes on fresh beds; only the first pass's result is wrong.
  Config c = small("mesh-migrate");
  c.corrupt_first_result = true;
  RunOutput r = run_workload(c, nullptr);
  EXPECT_GE(r.results_checked, 2u);
  EXPECT_EQ(r.failed, 1u);
  EXPECT_FALSE(r.job_ok);
}

TEST(NonPerturbation, TracedPassReproducesTheUntracedOne) {
  for (const auto& w : workload_names()) {
    RunOutput plain = run_workload(small(w), nullptr);
    Tracer tracer;
    RunOutput traced = run_workload(small(w), &tracer);
    EXPECT_FALSE(plain.fingerprint.empty()) << w;
    EXPECT_EQ(plain.fingerprint, traced.fingerprint) << w;
    EXPECT_GT(tracer.layer_metrics().at("sim.events_per_op"), 0) << w;
  }
}

}  // namespace
}  // namespace zapc::perfbench
