// Assorted end-to-end consistency checks across the analysis stack.

#include <gtest/gtest.h>

#include "robust/subsets.h"
#include "service/workload_report.h"
#include "summary/build_summary.h"
#include "workloads/auction.h"
#include "workloads/tpcc.h"
#include "workloads/workload.h"

namespace mvrc {
namespace {

TEST(RobustnessMiscTest, SubsetAnalysisAgreesWithDirectDetection) {
  // The induced-subgraph fast path of AnalyzeSubsets must agree with the
  // per-subset detector on every mask.
  Workload workload = MakeTpcc();
  for (AnalysisSettings settings :
       {AnalysisSettings::AttrDep(), AnalysisSettings::AttrDepFk()}) {
    SubsetReport report = AnalyzeSubsets(workload.programs, settings, Method::kTypeII);
    for (uint32_t mask = 1; mask < (1u << workload.programs.size()); ++mask) {
      std::vector<Btp> subset;
      for (size_t i = 0; i < workload.programs.size(); ++i) {
        if ((mask >> i) & 1) subset.push_back(workload.programs[i]);
      }
      EXPECT_EQ(report.IsRobustSubset(mask), IsRobustUnder(subset, settings, Method::kTypeII))
          << settings.name() << " mask=" << mask;
    }
  }
}

TEST(RobustnessMiscTest, AuctionNSubsetsAllRobust) {
  // Auction(2): every subset of the four programs is robust under
  // attr dep + FK — the maximal subset is the whole benchmark.
  Workload workload = MakeAuctionN(2);
  SubsetReport report =
      AnalyzeSubsets(workload.programs, AnalysisSettings::AttrDepFk(), Method::kTypeII);
  EXPECT_EQ(report.robust_masks.size(), (1u << 4) - 1);
  ASSERT_EQ(report.maximal_masks.size(), 1u);
  EXPECT_EQ(report.maximal_masks[0], (1u << 4) - 1);
}

TEST(RobustnessMiscTest, InsertOnlyWorkloadIsRobust) {
  // Programs that only insert into distinct relations generate no edges at
  // all (ins x ins admits no dependency): trivially robust.
  Workload workload;
  workload.name = "inserts";
  RelationId rel = workload.schema.AddRelation("LogA", {"id", "x"}, {"id"});
  Btp a("WriterA");
  a.AddStatement(Statement::Insert("q1", workload.schema, rel));
  workload.programs.push_back(std::move(a));
  Btp b("WriterB");
  b.AddStatement(Statement::Insert("q2", workload.schema, rel));
  workload.programs.push_back(std::move(b));
  SummaryGraph graph =
      BuildSummaryGraph(workload.programs, AnalysisSettings::AttrDepFk());
  EXPECT_EQ(graph.num_edges(), 0);
  EXPECT_TRUE(IsRobust(graph, Method::kTypeII));
  EXPECT_TRUE(IsRobust(graph, Method::kTypeI));
}

TEST(RobustnessMiscTest, TpccReportHeadline) {
  const Workload tpcc = MakeTpcc();
  WorkloadReport report = BuildReport(
      tpcc, OpenReportSessions(tpcc, IsolationLevel::kMvrc).value(), /*analyze_subsets=*/true);
  EXPECT_EQ(report.num_unfolded, 13);
  ASSERT_TRUE(report.maximal_robust_subsets.has_value());
  ASSERT_EQ(report.maximal_robust_subsets->size(), 2u);
  EXPECT_EQ((*report.maximal_robust_subsets)[0], "{NO, Pay}");
  EXPECT_EQ((*report.maximal_robust_subsets)[1], "{Pay, OS, SL}");
}

TEST(RobustnessMiscTest, SingleProgramSubsetAnalysis) {
  Workload workload = MakeAuction();
  std::vector<Btp> find_bids_only{workload.programs[0]};
  SubsetReport report =
      AnalyzeSubsets(find_bids_only, AnalysisSettings::AttrDepFk(), Method::kTypeII);
  EXPECT_EQ(report.robust_masks, std::vector<uint32_t>{1});
  EXPECT_EQ(report.maximal_masks, std::vector<uint32_t>{1});
}

TEST(RobustnessMiscTest, EmptyInducedSubgraphIsRobust) {
  Workload workload = MakeAuction();
  SummaryGraph graph =
      BuildSummaryGraph(workload.programs, AnalysisSettings::AttrDepFk());
  SummaryGraph empty =
      graph.InducedSubgraph(std::vector<bool>(graph.num_programs(), false));
  EXPECT_EQ(empty.num_programs(), 0);
  EXPECT_EQ(empty.num_edges(), 0);
  EXPECT_TRUE(IsRobust(empty, Method::kTypeII));
}

}  // namespace
}  // namespace mvrc
