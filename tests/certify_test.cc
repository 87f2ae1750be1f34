#include "robust/certify.h"

#include <gtest/gtest.h>

#include "summary/build_summary.h"
#include "workloads/auction.h"
#include "workloads/smallbank.h"
#include "workloads/tpcc.h"

namespace mvrc {
namespace {

SummaryGraph AttrDepFkGraph(const Workload& workload) {
  return BuildSummaryGraph(workload.programs, AnalysisSettings::AttrDepFk());
}

TEST(CertifyTest, AuctionCertifiedRobust) {
  const Workload auction = MakeAuction();
  const SummaryGraph graph = AttrDepFkGraph(auction);
  CertificationOutcome outcome = CertifyRobustness(graph);
  EXPECT_TRUE(outcome.IsCertifiedRobust());
  EXPECT_FALSE(outcome.IsCertifiedNonRobust());
  EXPECT_FALSE(outcome.IsPossibleFalseNegative());
  EXPECT_FALSE(outcome.witness.has_value());
  EXPECT_NE(outcome.Describe(graph, auction.schema).find("robust"), std::string::npos);
}

TEST(CertifyTest, WriteCheckCertifiedNonRobust) {
  Workload workload = MakeSmallBank();
  Workload wc_only;
  wc_only.name = "WC";
  wc_only.schema = workload.schema;
  wc_only.programs.push_back(workload.programs[4]);
  SearchOptions options;
  options.domain_size = 1;
  const SummaryGraph graph = AttrDepFkGraph(wc_only);
  CertificationOutcome outcome = CertifyRobustness(graph, options);
  EXPECT_FALSE(outcome.detector_robust);
  ASSERT_TRUE(outcome.witness.has_value());
  EXPECT_TRUE(outcome.IsCertifiedNonRobust());
  std::string description = outcome.Describe(graph, wc_only.schema);
  EXPECT_NE(description.find("certified"), std::string::npos);
}

TEST(CertifyTest, WitnessGuidedSearchFindsSmallBankAnomalyQuickly) {
  // {Am, Bal}: the witness cycle names exactly the participating programs,
  // so the guided phase certifies the rejection with few schedules.
  Workload workload = MakeSmallBank();
  Workload am_bal;
  am_bal.name = "AmBal";
  am_bal.schema = workload.schema;
  am_bal.programs.push_back(workload.programs[0]);
  am_bal.programs.push_back(workload.programs[1]);
  SearchOptions options;
  options.domain_size = 2;
  const SummaryGraph graph = AttrDepFkGraph(am_bal);
  CertificationOutcome outcome = CertifyRobustness(graph, options);
  EXPECT_TRUE(outcome.IsCertifiedNonRobust());
  EXPECT_GT(outcome.search_stats.bindings_checked, 0);
}

TEST(CertifyTest, DeliveryIsPossibleFalseNegativeUnderTinyBudget) {
  // With a search budget too small to exhaust the space, the outcome is
  // inconclusive: rejected by the detector, no counterexample found.
  Workload workload = MakeTpcc();
  Workload delivery_only;
  delivery_only.name = "Delivery";
  delivery_only.schema = workload.schema;
  delivery_only.programs.push_back(workload.programs[3]);
  SearchOptions options;
  options.domain_size = 1;
  options.enumerate_pred_subsets = false;
  options.max_schedules = 10;  // deliberately tiny
  const SummaryGraph graph = AttrDepFkGraph(delivery_only);
  CertificationOutcome outcome = CertifyRobustness(graph, options);
  EXPECT_FALSE(outcome.detector_robust);
  if (!outcome.counterexample.has_value()) {
    EXPECT_TRUE(outcome.IsPossibleFalseNegative());
    EXPECT_NE(outcome.Describe(graph, delivery_only.schema).find("false negative"),
              std::string::npos);
  }
}

}  // namespace
}  // namespace mvrc
