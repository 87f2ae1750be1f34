// Equivalence of the SQL-derived benchmark workloads with the hand-built
// ones: statement tables match Figures 2/10/17, summary graphs coincide
// edge-for-edge, and the robust-subset analysis is identical. This is the
// paper's claim (i) of §1: summary graphs can be constructed automatically
// from program text.

#include <algorithm>
#include <map>
#include <ostream>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "robust/subsets.h"
#include "sql/analyzer.h"
#include "summary/build_summary.h"
#include "workloads/auction.h"
#include "workloads/smallbank.h"
#include "workloads/sql_texts.h"
#include "workloads/tpcc.h"

namespace mvrc {
namespace {

Workload MustParse(const char* source) {
  Result<Workload> result = ParseWorkloadSql(source);
  EXPECT_TRUE(result.ok()) << result.error();
  return std::move(result).value();
}

const Btp& ProgramByName(const Workload& workload, const std::string& name) {
  for (const Btp& program : workload.programs) {
    if (program.name() == name) return program;
  }
  ADD_FAILURE() << "program " << name << " not found";
  return workload.programs.front();
}

// Compares the statement tables of two same-named programs (label, type,
// relation name, attribute sets by name).
void ExpectSameStatements(const Workload& expected_workload, const Btp& expected,
                          const Workload& actual_workload, const Btp& actual) {
  ASSERT_EQ(expected.num_statements(), actual.num_statements()) << expected.name();
  for (StmtId q = 0; q < expected.num_statements(); ++q) {
    EXPECT_EQ(expected.statement(q).ToDebugString(expected_workload.schema),
              actual.statement(q).ToDebugString(actual_workload.schema))
        << expected.name() << " statement " << q;
  }
}

// A summary graph as a multiset of readable edge strings (program names and
// statement labels are aligned across the two workload constructions).
std::multiset<std::string> EdgeStrings(const SummaryGraph& graph) {
  std::multiset<std::string> out;
  for (const SummaryEdge& edge : graph.edges()) {
    out.insert(graph.DescribeEdge(edge));
  }
  return out;
}

// One benchmark in both constructions: the hand-built workload and its SQL
// text. Printed by name only, so the test names carry no code addresses and
// stay the same from build to build.
struct SqlBenchmark {
  const char* name;
  Workload (*build)();
  const char* (*sql)();
};

void PrintTo(const SqlBenchmark& benchmark, std::ostream* os) { *os << benchmark.name; }

class SqlWorkloadEquivalence : public ::testing::TestWithParam<SqlBenchmark> {};

TEST_P(SqlWorkloadEquivalence, StatementTablesMatch) {
  Workload built = GetParam().build();
  Workload parsed = MustParse(GetParam().sql());
  ASSERT_EQ(built.programs.size(), parsed.programs.size());
  for (const Btp& program : built.programs) {
    ExpectSameStatements(built, program, parsed,
                         ProgramByName(parsed, program.name()));
  }
}

TEST_P(SqlWorkloadEquivalence, SummaryGraphsCoincide) {
  Workload built = GetParam().build();
  Workload parsed = MustParse(GetParam().sql());
  for (AnalysisSettings settings :
       {AnalysisSettings::TupleDep(), AnalysisSettings::AttrDep(),
        AnalysisSettings::TupleDepFk(), AnalysisSettings::AttrDepFk()}) {
    SummaryGraph built_graph = BuildSummaryGraph(built.programs, settings);
    SummaryGraph parsed_graph = BuildSummaryGraph(parsed.programs, settings);
    EXPECT_EQ(EdgeStrings(built_graph), EdgeStrings(parsed_graph)) << settings.name();
  }
}

TEST_P(SqlWorkloadEquivalence, RobustSubsetsCoincide) {
  Workload built = GetParam().build();
  Workload parsed = MustParse(GetParam().sql());
  // Align parsed program order to the built one before mask comparison.
  std::vector<Btp> aligned;
  for (const Btp& program : built.programs) {
    aligned.push_back(ProgramByName(parsed, program.name()));
  }
  for (Method method : {Method::kTypeI, Method::kTypeII}) {
    for (AnalysisSettings settings :
         {AnalysisSettings::AttrDep(), AnalysisSettings::AttrDepFk()}) {
      SubsetReport built_report = AnalyzeSubsets(built.programs, settings, method);
      SubsetReport parsed_report = AnalyzeSubsets(aligned, settings, method);
      EXPECT_EQ(built_report.robust_masks, parsed_report.robust_masks)
          << settings.name();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Benchmarks, SqlWorkloadEquivalence,
    ::testing::Values(SqlBenchmark{"Auction", &MakeAuction, &AuctionSql},
                      SqlBenchmark{"SmallBank", &MakeSmallBank, &SmallBankSql},
                      SqlBenchmark{"Tpcc", &MakeTpcc, &TpccSql}),
    [](const ::testing::TestParamInfo<SqlWorkloadEquivalence::ParamType>& info) {
      return std::string(info.param.name);
    });

TEST(SqlWorkloadDetails, AuctionFigure2SpotChecks) {
  Workload parsed = MustParse(AuctionSql());
  const Btp& find_bids = ProgramByName(parsed, "FindBids");
  EXPECT_EQ(find_bids.statement(0).ToDebugString(parsed.schema),
            "q1: key upd Buyer Read={calls} Write={calls}");
  EXPECT_EQ(find_bids.statement(1).ToDebugString(parsed.schema),
            "q2: pred sel Bids PRead={bid} Read={bid}");
  // "there is no foreign key constraint q1 = f1(q2) as q2 does not refer to
  // buyerId" (paper §5.1).
  EXPECT_TRUE(find_bids.fk_constraints().empty());

  const Btp& place_bid = ProgramByName(parsed, "PlaceBid");
  ASSERT_EQ(place_bid.fk_constraints().size(), 3u);
  EXPECT_FALSE(place_bid.IsLinear());
}

TEST(SqlWorkloadDetails, TpccFigure17SpotChecks) {
  Workload parsed = MustParse(TpccSql());
  const Btp& delivery = ProgramByName(parsed, "Delivery");
  EXPECT_EQ(delivery.statement(0).ToDebugString(parsed.schema),
            "q1: pred sel New_Order PRead={no_d_id, no_w_id} Read={no_o_id}");
  EXPECT_EQ(delivery.statement(4).ToDebugString(parsed.schema),
            "q5: pred upd Order_Line PRead={ol_o_id, ol_d_id, ol_w_id} Read={} "
            "Write={ol_delivery_d}");
  const Btp& payment = ProgramByName(parsed, "Payment");
  // q23's ReadSet excludes c_payment_cnt (set from a parameter) but includes
  // the RETURNING columns and the expression columns.
  const Statement& q23 = payment.statement(3);
  EXPECT_EQ(q23.label(), "q23");
  AttrSet read = *q23.read_set();
  RelationId customer = parsed.schema.FindRelation("Customer");
  EXPECT_FALSE(read.Contains(parsed.schema.relation(customer).FindAttr("c_payment_cnt")));
  EXPECT_TRUE(read.Contains(parsed.schema.relation(customer).FindAttr("c_balance")));
  EXPECT_TRUE(read.Contains(parsed.schema.relation(customer).FindAttr("c_since")));
  EXPECT_EQ(read.size(), 15);
  EXPECT_EQ(q23.write_set()->size(), 3);
}

TEST(SqlWorkloadDetails, GeneratedAuctionNMatchesBuilder) {
  // The generated Auction(n) SQL and the builder construction agree on
  // summary-graph size, counterflow count and the robustness verdict for
  // several n (edge labels differ: the builder reuses q1..q6 per item while
  // the SQL numbering is global, so counts rather than strings compare).
  for (int n : {1, 2, 3, 5}) {
    Workload built = MakeAuctionN(n);
    Workload parsed = MustParse(AuctionNSql(n).c_str());
    ASSERT_EQ(built.programs.size(), parsed.programs.size()) << n;
    for (AnalysisSettings settings :
         {AnalysisSettings::AttrDep(), AnalysisSettings::AttrDepFk()}) {
      SummaryGraph built_graph = BuildSummaryGraph(built.programs, settings);
      SummaryGraph parsed_graph = BuildSummaryGraph(parsed.programs, settings);
      EXPECT_EQ(built_graph.num_edges(), parsed_graph.num_edges()) << n;
      EXPECT_EQ(built_graph.num_counterflow_edges(),
                parsed_graph.num_counterflow_edges())
          << n;
      EXPECT_EQ(IsRobust(built_graph, Method::kTypeII),
                IsRobust(parsed_graph, Method::kTypeII))
          << n;
    }
  }
}

TEST(SqlWorkloadDetails, GeneratedAuctionNScalesThroughParser) {
  // Parse a large generated workload end to end (120 programs) and verify
  // the closed-form edge counts — a parser/analyzer stress test.
  constexpr int kN = 40;
  Workload parsed = MustParse(AuctionNSql(kN).c_str());
  SummaryGraph graph =
      BuildSummaryGraph(parsed.programs, AnalysisSettings::AttrDepFk());
  EXPECT_EQ(graph.num_programs(), 3 * kN);
  EXPECT_EQ(graph.num_edges(), 8 * kN + 9 * kN * kN);
  EXPECT_EQ(graph.num_counterflow_edges(), kN);
  EXPECT_TRUE(IsRobust(graph, Method::kTypeII));
}

TEST(SqlWorkloadDetails, TpccStockLevelIsReadOnlyPredicates) {
  Workload parsed = MustParse(TpccSql());
  const Btp& stock_level = ProgramByName(parsed, "StockLevel");
  EXPECT_EQ(stock_level.statement(1).type(), StatementType::kPredSelect);
  EXPECT_EQ(stock_level.statement(2).type(), StatementType::kPredSelect);
  EXPECT_EQ(*stock_level.statement(2).pread_set(),
            parsed.schema.MakeAttrSet(parsed.schema.FindRelation("Stock"),
                                      {"s_w_id", "s_quantity"}));
}

}  // namespace
}  // namespace mvrc
