#include "service/workload_report.h"

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "robust/subsets.h"
#include "summary/build_summary.h"
#include "workloads/auction.h"
#include "workloads/smallbank.h"
#include "workloads/tpcc.h"

namespace mvrc {
namespace {

WorkloadReport ReportOf(const Workload& workload, bool analyze_subsets) {
  return BuildReport(workload, OpenReportSessions(workload, IsolationLevel::kMvrc).value(),
                     analyze_subsets);
}

TEST(ReportTest, AuctionReportShape) {
  WorkloadReport report = ReportOf(MakeAuction(), /*analyze_subsets=*/true);
  EXPECT_EQ(report.workload_name, "Auction");
  EXPECT_EQ(report.num_programs, 2);
  EXPECT_EQ(report.num_unfolded, 3);
  // 4 settings x 2 methods.
  ASSERT_EQ(report.verdicts.size(), 8u);
  // attr dep + FK / type-II must be robust; its type-I counterpart not.
  bool found_type2 = false, found_type1 = false;
  for (const VerdictEntry& entry : report.verdicts) {
    if (std::string(entry.settings.name()) != "attr dep + FK") continue;
    if (entry.method == Method::kTypeII) {
      EXPECT_TRUE(entry.robust);
      EXPECT_TRUE(entry.witness.empty());
      found_type2 = true;
    } else {
      EXPECT_FALSE(entry.robust);
      EXPECT_FALSE(entry.witness.empty());
      found_type1 = true;
    }
    EXPECT_EQ(entry.num_edges, 17);
    EXPECT_EQ(entry.num_counterflow_edges, 1);
  }
  EXPECT_TRUE(found_type2);
  EXPECT_TRUE(found_type1);
  ASSERT_TRUE(report.maximal_robust_subsets.has_value());
  EXPECT_EQ(*report.maximal_robust_subsets, std::vector<std::string>{"{FB, PB}"});
}

TEST(ReportTest, TextRenderingContainsEverything) {
  WorkloadReport report = ReportOf(MakeSmallBank(), /*analyze_subsets=*/true);
  std::string text = report.ToText();
  EXPECT_NE(text.find("SmallBank"), std::string::npos);
  EXPECT_NE(text.find("attr dep + FK"), std::string::npos);
  EXPECT_NE(text.find("{Am, DC, TS}"), std::string::npos);
  EXPECT_NE(text.find("type-II"), std::string::npos);
}

TEST(ReportTest, SubsetsSkippedWhenDisabled) {
  WorkloadReport report = ReportOf(MakeSmallBank(), /*analyze_subsets=*/false);
  EXPECT_FALSE(report.maximal_robust_subsets.has_value());
}

TEST(ReportTest, SessionAnswersMatchFromScratchAnalysis) {
  // The report reads every answer from sessions; a from-scratch build and
  // detection per setting is the oracle.
  for (const Workload& workload : {MakeSmallBank(), MakeTpcc(), MakeAuction(), MakeAuctionN(3)}) {
    for (IsolationLevel isolation : {IsolationLevel::kMvrc, IsolationLevel::kRc}) {
      const WorkloadReport report = BuildReport(
          workload, OpenReportSessions(workload, isolation).value(), /*analyze_subsets=*/true);
      ASSERT_EQ(report.verdicts.size(), 8u);
      for (const VerdictEntry& entry : report.verdicts) {
        const SummaryGraph graph = BuildSummaryGraph(workload.programs, entry.settings);
        const CycleTestOutcome expected =
            RunCycleTest(graph, entry.method, entry.settings.policy());
        EXPECT_EQ(entry.settings.isolation, isolation);
        EXPECT_EQ(entry.robust, expected.robust) << workload.name << " " << entry.settings.name();
        EXPECT_EQ(entry.witness, expected.witness) << workload.name << " " << entry.settings.name();
        EXPECT_EQ(entry.num_edges, graph.num_edges());
        EXPECT_EQ(entry.num_counterflow_edges, graph.num_counterflow_edges());
        EXPECT_EQ(report.num_unfolded, graph.num_programs());
      }
      const SubsetReport subsets =
          TryAnalyzeSubsets(workload.programs,
                            AnalysisSettings::AttrDepFk().WithIsolation(isolation), Method::kTypeII)
              .value();
      ASSERT_TRUE(report.maximal_robust_subsets.has_value());
      EXPECT_EQ(*report.maximal_robust_subsets, subsets.DescribeMaximal(workload.abbreviations))
          << workload.name;
    }
  }
}

TEST(ReportTest, EachSessionComputesItsCellsOnceAndBuildsNoGraph) {
  const Workload tpcc = MakeTpcc();
  Counter* builds = MetricsRegistry::Global().counter("summary.builds");
  const int64_t builds_before = builds->Value();
  Result<ReportSessions> sessions = OpenReportSessions(tpcc, IsolationLevel::kMvrc);
  ASSERT_TRUE(sessions.ok());
  const WorkloadReport report = BuildReport(tpcc, sessions.value(), /*analyze_subsets=*/true);
  EXPECT_EQ(builds->Value(), builds_before);
  ASSERT_EQ(sessions.value().size(), 4u);
  for (const std::unique_ptr<WorkloadSession>& session : sessions.value()) {
    const SessionStats stats = session->stats();
    EXPECT_EQ(stats.cells_computed, 25);  // 5 programs, each ordered pair once
    EXPECT_EQ(stats.graph_materializations, 1);
  }
  EXPECT_EQ(sessions.value().back()->settings(), AnalysisSettings::AttrDepFk());
  EXPECT_FALSE(report.Verdict(AnalysisSettings::AttrDepFk(), Method::kTypeII).robust);
}

TEST(ReportTest, DuplicateProgramNamesAreAnError) {
  Workload workload = MakeAuction();
  workload.programs.push_back(workload.programs.front());
  Result<ReportSessions> sessions = OpenReportSessions(workload, IsolationLevel::kMvrc);
  ASSERT_FALSE(sessions.ok());
  EXPECT_NE(sessions.error().find("duplicate program"), std::string::npos);
}

}  // namespace
}  // namespace mvrc
