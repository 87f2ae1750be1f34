// Differential test of the zero-copy MaskedDetector against the
// InducedSubgraph + FindTypeICycle/FindTypeIICycle oracle: for randomized
// (seeded) and builtin workloads, every mask must produce the same verdict
// AND the same witness (edges, paths — compared via Describe, which renders
// program names and statement labels and is therefore stable across the
// subgraph re-indexing). Also covers the allocation-free scratch contract:
// one scratch serves interleaved masks and methods.

#include <cstdint>
#include <optional>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "btp/unfold.h"
#include "robust/detector.h"
#include "robust/masked_detector.h"
#include "robust/subsets.h"
#include "summary/build_summary.h"
#include "workloads/auction.h"
#include "workloads/smallbank.h"
#include "workloads/tpcc.h"

namespace mvrc {
namespace {

// A full-graph-plus-ranges bundle, as the subset sweep sees it.
struct GraphUnderTest {
  SummaryGraph graph;
  std::vector<std::pair<int, int>> ltp_range;
};

GraphUnderTest Build(const std::vector<Btp>& programs, const AnalysisSettings& settings) {
  std::vector<Ltp> all_ltps;
  std::vector<std::pair<int, int>> ltp_range;
  for (const Btp& program : programs) {
    std::vector<Ltp> unfolded = UnfoldAtMost2(program);
    ltp_range.push_back({static_cast<int>(all_ltps.size()),
                         static_cast<int>(all_ltps.size() + unfolded.size())});
    for (Ltp& ltp : unfolded) all_ltps.push_back(std::move(ltp));
  }
  return {BuildSummaryGraph(std::move(all_ltps), settings), std::move(ltp_range)};
}

std::vector<bool> KeepFor(uint32_t mask, const GraphUnderTest& t) {
  std::vector<bool> keep(t.graph.num_programs(), false);
  for (size_t i = 0; i < t.ltp_range.size(); ++i) {
    if ((mask >> i) & 1) {
      for (int p = t.ltp_range[i].first; p < t.ltp_range[i].second; ++p) keep[p] = true;
    }
  }
  return keep;
}

// Compares verdict and witness for one mask under both methods.
void ExpectMaskAgrees(const GraphUnderTest& t, const MaskedDetector& detector,
                      DetectorScratch& scratch, uint32_t mask, const std::string& context) {
  SummaryGraph oracle_graph = t.graph.InducedSubgraph(KeepFor(mask, t));

  std::optional<TypeIWitness> oracle1 = FindTypeICycle(oracle_graph);
  std::optional<TypeIWitness> masked1 = detector.FindTypeICycle(mask, scratch);
  ASSERT_EQ(masked1.has_value(), oracle1.has_value()) << context << " mask=" << mask;
  EXPECT_EQ(detector.HasTypeICycle(mask, scratch), oracle1.has_value())
      << context << " mask=" << mask;
  EXPECT_EQ(detector.IsRobust(mask, Method::kTypeI, scratch), !oracle1.has_value())
      << context << " mask=" << mask;
  if (oracle1.has_value()) {
    EXPECT_EQ(masked1->Describe(t.graph), oracle1->Describe(oracle_graph))
        << context << " mask=" << mask;
  }

  std::optional<TypeIIWitness> oracle2 = FindTypeIICycle(oracle_graph);
  std::optional<TypeIIWitness> masked2 = detector.FindTypeIICycle(mask, scratch);
  ASSERT_EQ(masked2.has_value(), oracle2.has_value()) << context << " mask=" << mask;
  EXPECT_EQ(detector.HasTypeIICycle(mask, scratch), oracle2.has_value())
      << context << " mask=" << mask;
  EXPECT_EQ(detector.IsRobust(mask, Method::kTypeII, scratch), !oracle2.has_value())
      << context << " mask=" << mask;
  EXPECT_EQ(detector.IsRobust(mask, Method::kTypeIINaive, scratch),
            !FindTypeIICycleNaive(oracle_graph).has_value())
      << context << " mask=" << mask;
  if (oracle2.has_value()) {
    EXPECT_EQ(masked2->Describe(t.graph), oracle2->Describe(oracle_graph))
        << context << " mask=" << mask;
  }
}

void ExpectAllMasksAgree(const std::vector<Btp>& programs, const AnalysisSettings& settings,
                         const std::string& context) {
  GraphUnderTest t = Build(programs, settings);
  MaskedDetector detector(t.graph, t.ltp_range);
  ASSERT_EQ(detector.num_programs(), static_cast<int>(programs.size()));
  ASSERT_EQ(detector.num_ltps(), t.graph.num_programs());
  DetectorScratch scratch = detector.MakeScratch();
  const uint32_t full = (uint32_t{1} << programs.size()) - 1;
  for (uint32_t mask = 1; mask <= full; ++mask) {
    ExpectMaskAgrees(t, detector, scratch, mask, context);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// --- Randomized workloads. Mirrors the generator idiom of
// tests/random_property_test.cc, but tuned for subset analysis: 4-5
// programs (15-31 masks each) over 2-3 relations, with loops/branches so
// several programs unfold to more than one LTP and mask bits map to LTP
// *ranges*, not single nodes.

class RandomWorkloadGen {
 public:
  explicit RandomWorkloadGen(uint64_t seed) : rng_(seed) {}

  std::vector<Btp> Generate(Schema& schema) {
    const int num_relations = Pick(2, 3);
    for (int r = 0; r < num_relations; ++r) {
      std::vector<std::string> attrs;
      const int num_attrs = Pick(2, 4);
      for (int a = 0; a < num_attrs; ++a) {
        attrs.push_back("a" + std::to_string(r) + std::to_string(a));
      }
      schema.AddRelation("R" + std::to_string(r), attrs, {attrs[0]});
    }
    for (int r = 1; r < num_relations; ++r) {
      if (Chance(0.5)) schema.AddForeignKey("f" + std::to_string(r), r, {}, 0);
    }
    std::vector<Btp> programs;
    const int num_programs = Pick(4, 5);
    for (int p = 0; p < num_programs; ++p) programs.push_back(GenerateProgram(schema, p));
    return programs;
  }

 private:
  int Pick(int lo, int hi) { return lo + static_cast<int>(rng_() % (hi - lo + 1)); }
  bool Chance(double p) { return (rng_() % 1000) < p * 1000; }

  AttrSet RandomSubset(const Schema& schema, RelationId rel, bool non_empty) {
    AttrSet set;
    const int n = schema.relation(rel).num_attrs();
    for (int a = 0; a < n; ++a) {
      if (Chance(0.45)) set.Insert(a);
    }
    if (non_empty && set.empty()) set.Insert(static_cast<AttrId>(rng_() % n));
    return set;
  }

  Statement RandomStatement(const Schema& schema, const std::string& label) {
    RelationId rel = static_cast<RelationId>(rng_() % schema.num_relations());
    switch (rng_() % 7) {
      case 0:
        return Statement::Insert(label, schema, rel);
      case 1:
        return Statement::KeySelect(label, schema, rel, RandomSubset(schema, rel, false));
      case 2:
        return Statement::PredSelect(label, schema, rel, RandomSubset(schema, rel, false),
                                     RandomSubset(schema, rel, false));
      case 3:
        return Statement::KeyUpdate(label, schema, rel, RandomSubset(schema, rel, false),
                                    RandomSubset(schema, rel, true));
      case 4:
        return Statement::PredUpdate(label, schema, rel, RandomSubset(schema, rel, false),
                                     RandomSubset(schema, rel, false),
                                     RandomSubset(schema, rel, true));
      case 5:
        return Statement::KeyDelete(label, schema, rel);
      default:
        return Statement::PredDelete(label, schema, rel, RandomSubset(schema, rel, false));
    }
  }

  Btp GenerateProgram(const Schema& schema, int index) {
    Btp program("P" + std::to_string(index));
    const int num_statements = Pick(2, 4);
    std::vector<StmtId> ids;
    for (int q = 0; q < num_statements; ++q) {
      ids.push_back(program.AddStatement(RandomStatement(schema, "q" + std::to_string(q + 1))));
    }
    std::vector<Btp::NodeId> nodes;
    for (StmtId id : ids) nodes.push_back(program.Stmt(id));
    if (num_statements >= 2 && Chance(0.5)) {
      const int from = Pick(0, num_statements - 2);
      const int to = Pick(from + 1, num_statements - 1);
      std::vector<Btp::NodeId> inner(nodes.begin() + from, nodes.begin() + to + 1);
      Btp::NodeId wrapped;
      switch (rng_() % 3) {
        case 0:
          wrapped = program.Loop(program.Seq(inner));
          break;
        case 1:
          wrapped = program.Optional(program.Seq(inner));
          break;
        default:
          wrapped = program.Choice(program.Seq(inner), program.Stmt(ids[from]));
          break;
      }
      std::vector<Btp::NodeId> rebuilt(nodes.begin(), nodes.begin() + from);
      rebuilt.push_back(wrapped);
      rebuilt.insert(rebuilt.end(), nodes.begin() + to + 1, nodes.end());
      nodes = std::move(rebuilt);
    }
    program.Finish(program.Seq(nodes));
    return program;
  }

  std::mt19937_64 rng_;
};

class MaskedDetectorRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(MaskedDetectorRandomTest, AgreesWithInducedSubgraphOracleOnEveryMask) {
  RandomWorkloadGen gen(GetParam() * 6271 + 17);
  Schema schema;
  std::vector<Btp> programs = gen.Generate(schema);
  for (const AnalysisSettings& settings :
       {AnalysisSettings::TupleDep(), AnalysisSettings::AttrDepFk()}) {
    ExpectAllMasksAgree(programs, settings,
                        "seed=" + std::to_string(GetParam()) + " / " + settings.name());
    if (::testing::Test::HasFatalFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MaskedDetectorRandomTest, ::testing::Range(0, 20));

// --- Builtin workloads: the paper's benchmarks, all four settings.

TEST(MaskedDetectorBuiltinTest, AgreesOnSmallBankAndAuction) {
  for (const Workload& workload : {MakeSmallBank(), MakeAuction(), MakeAuctionN(3)}) {
    for (const AnalysisSettings& settings :
         {AnalysisSettings::TupleDep(), AnalysisSettings::AttrDep(),
          AnalysisSettings::TupleDepFk(), AnalysisSettings::AttrDepFk()}) {
      ExpectAllMasksAgree(workload.programs, settings, workload.name + " / " + settings.name());
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

TEST(MaskedDetectorBuiltinTest, AgreesOnTpcc) {
  Workload workload = MakeTpcc();
  ExpectAllMasksAgree(workload.programs, AnalysisSettings::AttrDepFk(), "tpcc/attr+fk");
}

// One scratch must serve arbitrarily interleaved masks and methods: run the
// mask space twice in opposite orders and alternate methods, expecting
// identical verdicts.

TEST(MaskedDetectorScratchTest, ScratchIsReusableAcrossMasksAndMethods) {
  Workload workload = MakeSmallBank();
  GraphUnderTest t = Build(workload.programs, AnalysisSettings::AttrDepFk());
  MaskedDetector detector(t.graph, t.ltp_range);
  DetectorScratch scratch = detector.MakeScratch();
  const uint32_t full = (uint32_t{1} << workload.programs.size()) - 1;
  std::vector<bool> forward;
  for (uint32_t mask = 1; mask <= full; ++mask) {
    forward.push_back(detector.IsRobust(mask, Method::kTypeII, scratch));
    detector.IsRobust(mask, Method::kTypeI, scratch);  // interleave the other method
  }
  for (uint32_t mask = full; mask >= 1; --mask) {
    EXPECT_EQ(detector.IsRobust(mask, Method::kTypeII, scratch), forward[mask - 1])
        << "mask=" << mask;
  }
}

// The sweep built on the detector must agree with a sweep-free full
// enumeration.

TEST(MaskedDetectorSweepTest, SweepMatchesFullEnumeration) {
  Workload workload = MakeAuctionN(3);
  GraphUnderTest t = Build(workload.programs, AnalysisSettings::AttrDepFk());
  MaskedDetector detector(t.graph, t.ltp_range);
  DetectorScratch scratch = detector.MakeScratch();

  std::vector<uint32_t> expected;
  const uint32_t full = (uint32_t{1} << workload.programs.size()) - 1;
  for (uint32_t mask = 1; mask <= full; ++mask) {
    if (detector.IsRobust(mask, Method::kTypeII, scratch)) expected.push_back(mask);
  }

  Result<SubsetReport> swept = AnalyzeSubsetsOnDetector(detector, Method::kTypeII);
  ASSERT_TRUE(swept.ok());
  EXPECT_EQ(swept.value().robust_masks, expected);
}

TEST(SubsetReportTest, IsRobustSubsetBinarySearchesSortedMasks) {
  SubsetReport report;
  report.num_programs = 4;
  report.robust_masks = {1, 2, 3, 5, 8, 12};
  for (uint32_t mask : report.robust_masks) EXPECT_TRUE(report.IsRobustSubset(mask));
  for (uint32_t mask : {0u, 4u, 6u, 7u, 9u, 15u}) EXPECT_FALSE(report.IsRobustSubset(mask));
}

}  // namespace
}  // namespace mvrc
