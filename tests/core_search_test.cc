// Differential test of the core-guided subset search against the exhaustive
// sweep oracle: on randomized (seeded) and builtin workloads within the
// exhaustive range, AnalyzeSubsetsCoreGuided must reproduce AnalyzeSubsets'
// verdicts bit-for-bit — robust_masks, maximal_masks, and IsRobustSubset
// answers — under both the MVRC and the lock-based-RC isolation policies,
// and its cores must be exactly the minimal non-robust subsets a brute
// force over the exhaustive verdicts finds. Beyond the exhaustive range,
// where no oracle exists, the lattice is checked against the detector
// directly: cores are non-robust and minimal, maximal sets are robust and
// maximal, and sampled subsets answer from the lattice exactly as the
// detector does. Also covers the ProgramSet wide-mask encoding itself and
// its parity with uint32_t masks on the MaskedDetector, witnesses included.

#include <algorithm>
#include <cstdint>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "btp/unfold.h"
#include "robust/core_search.h"
#include "robust/detector.h"
#include "robust/masked_detector.h"
#include "robust/program_set.h"
#include "robust/subsets.h"
#include "robust/verdict_cache.h"
#include "summary/build_summary.h"
#include "workloads/auction.h"
#include "workloads/smallbank.h"

namespace mvrc {
namespace {

// --- ProgramSet: the wide-mask encoding.

TEST(ProgramSetTest, BasicOperationsAcrossWordBoundaries) {
  ProgramSet set(70);  // two words, 6-bit tail
  EXPECT_EQ(set.num_programs(), 70);
  EXPECT_EQ(set.num_words(), 2);
  EXPECT_TRUE(set.Empty());
  EXPECT_EQ(set.Count(), 0);

  set.Set(0);
  set.Set(63);
  set.Set(64);
  set.Set(69);
  EXPECT_FALSE(set.Empty());
  EXPECT_EQ(set.Count(), 4);
  EXPECT_TRUE(set.Test(63));
  EXPECT_TRUE(set.Test(64));
  EXPECT_FALSE(set.Test(1));
  EXPECT_EQ(set.ToIndices(), (std::vector<int>{0, 63, 64, 69}));

  set.Reset(63);
  EXPECT_FALSE(set.Test(63));
  EXPECT_EQ(set.Count(), 3);

  EXPECT_EQ(set.With(7).Count(), 4);
  EXPECT_EQ(set.Without(0).Count(), 2);
  EXPECT_EQ(set, set.With(64));  // already a member
}

TEST(ProgramSetTest, ComplementStaysWithinDomain) {
  ProgramSet set(70);
  set.Set(3);
  set.Set(65);
  ProgramSet complement = set.Complement();
  EXPECT_EQ(complement.Count(), 68);
  EXPECT_FALSE(complement.Test(3));
  EXPECT_FALSE(complement.Test(65));
  EXPECT_TRUE(complement.Test(69));
  // Tail bits past num_programs stay zero, so double complement is exact.
  EXPECT_EQ(complement.Complement(), set);
  EXPECT_EQ(ProgramSet(70).Complement(), ProgramSet::Full(70));
  EXPECT_EQ(ProgramSet::Full(70).Complement(), ProgramSet(70));
}

TEST(ProgramSetTest, SubsetAndIntersectionTests) {
  ProgramSet a(100), b(100);
  a.Set(1);
  a.Set(70);
  b.Set(1);
  b.Set(70);
  b.Set(99);
  EXPECT_TRUE(b.ContainsAll(a));
  EXPECT_FALSE(a.ContainsAll(b));
  EXPECT_TRUE(a.ContainsAll(a));
  EXPECT_TRUE(a.Intersects(b));
  EXPECT_FALSE(a.Intersects(ProgramSet(100)));
  EXPECT_TRUE(ProgramSet::Full(100).ContainsAll(b));
}

TEST(ProgramSetTest, NarrowMaskRoundTripAndOrderParity) {
  const int n = 11;
  std::vector<uint32_t> masks = {0, 1, 5, 0x2a, 0x400, (uint32_t{1} << n) - 1, 0x123};
  for (uint32_t mask : masks) {
    ProgramSet set = ProgramSet::FromMask(mask, n);
    EXPECT_EQ(set.ToMask(), mask);
    EXPECT_EQ(set.Count(), __builtin_popcount(mask));
    for (int i = 0; i < n; ++i) EXPECT_EQ(set.Test(i), ((mask >> i) & 1) != 0);
  }
  // operator< is the numeric order of the encoded integer: sorting wide and
  // narrow representations of the same subsets yields aligned vectors.
  std::vector<ProgramSet> wide;
  for (uint32_t mask : masks) wide.push_back(ProgramSet::FromMask(mask, n));
  std::sort(wide.begin(), wide.end());
  std::sort(masks.begin(), masks.end());
  for (size_t i = 0; i < masks.size(); ++i) EXPECT_EQ(wide[i].ToMask(), masks[i]);
}

// --- Shared helpers (mirroring tests/masked_detector_test.cc).

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

// --- Wide-mask parity on the detector: same verdicts AND same witnesses as
// the uint32_t encoding, under both isolation policies.

void ExpectWideNarrowParity(const std::vector<Btp>& programs,
                            const AnalysisSettings& settings, const std::string& context) {
  GraphUnderTest t = Build(programs, settings);
  MaskedDetector detector(t.graph, t.ltp_range, settings.policy());
  DetectorScratch scratch = detector.MakeScratch();
  const uint32_t full = (uint32_t{1} << programs.size()) - 1;
  for (uint32_t mask = 1; mask <= full; ++mask) {
    const ProgramSet wide = ProgramSet::FromMask(mask, detector.num_programs());
    for (Method method : {Method::kTypeI, Method::kTypeII}) {
      EXPECT_EQ(detector.IsRobust(wide, method, scratch),
                detector.IsRobust(mask, method, scratch))
          << context << " mask=" << mask;
    }
    std::optional<TypeIWitness> narrow1 = detector.FindTypeICycle(mask, scratch);
    std::optional<TypeIWitness> wide1 = detector.FindTypeICycle(wide, scratch);
    ASSERT_EQ(narrow1.has_value(), wide1.has_value()) << context << " mask=" << mask;
    if (narrow1.has_value()) {
      EXPECT_EQ(wide1->Describe(t.graph), narrow1->Describe(t.graph))
          << context << " mask=" << mask;
    }
    if (detector.policy().closure() == CycleClosure::kDirect) {
      std::optional<RcSplitWitness> narrow2 = detector.FindRcSplitCycle(mask, scratch);
      std::optional<RcSplitWitness> wide2 = detector.FindRcSplitCycle(wide, scratch);
      ASSERT_EQ(narrow2.has_value(), wide2.has_value()) << context << " mask=" << mask;
      if (narrow2.has_value()) {
        EXPECT_EQ(wide2->Describe(t.graph), narrow2->Describe(t.graph))
            << context << " mask=" << mask;
      }
    } else {
      std::optional<TypeIIWitness> narrow2 = detector.FindTypeIICycle(mask, scratch);
      std::optional<TypeIIWitness> wide2 = detector.FindTypeIICycle(wide, scratch);
      ASSERT_EQ(narrow2.has_value(), wide2.has_value()) << context << " mask=" << mask;
      if (narrow2.has_value()) {
        EXPECT_EQ(wide2->Describe(t.graph), narrow2->Describe(t.graph))
            << context << " mask=" << mask;
      }
    }
  }
}

TEST(MaskedDetectorWideMaskTest, WideAndNarrowEncodingsAgreeIncludingWitnesses) {
  for (const Workload& workload : {MakeSmallBank(), MakeAuction()}) {
    for (IsolationLevel isolation : {IsolationLevel::kMvrc, IsolationLevel::kRc}) {
      for (const AnalysisSettings& base :
           {AnalysisSettings::TupleDep(), AnalysisSettings::AttrDepFk()}) {
        const AnalysisSettings settings = base.WithIsolation(isolation);
        ExpectWideNarrowParity(workload.programs, settings,
                               workload.name + " / " + settings.name());
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  }
}

// --- Core-guided vs exhaustive, within the exhaustive range.

// Brute-force minimal non-robust subsets from the exhaustive verdict list:
// non-robust masks all of whose delete-one submasks are robust (the empty
// set counts as robust).
std::vector<uint32_t> BruteForceCoreMasks(const std::set<uint32_t>& robust, int n) {
  std::vector<uint32_t> cores;
  const uint32_t full = (uint32_t{1} << n) - 1;
  for (uint32_t mask = 1; mask <= full; ++mask) {
    if (robust.count(mask) != 0) continue;
    bool minimal = true;
    for (int b = 0; b < n && minimal; ++b) {
      const uint32_t sub = mask & ~(uint32_t{1} << b);
      if (sub == mask) continue;
      if (sub != 0 && robust.count(sub) == 0) minimal = false;
    }
    if (minimal) cores.push_back(mask);
  }
  return cores;
}

void ExpectCoreGuidedMatchesExhaustive(const std::vector<Btp>& programs,
                                       const AnalysisSettings& settings, Method method,
                                       const std::string& context) {
  GraphUnderTest t = Build(programs, settings);
  MaskedDetector detector(t.graph, t.ltp_range, settings.policy());

  Result<SubsetReport> exhaustive = AnalyzeSubsetsOnDetector(detector, method);
  ASSERT_TRUE(exhaustive.ok()) << context;
  CoreSearchStats stats;
  Result<SubsetReport> result = AnalyzeSubsetsCoreGuided(detector, method, nullptr, &stats);
  ASSERT_TRUE(result.ok()) << context;
  const SubsetReport& report = result.value();

  // Bit-identical verdicts and maximal sets.
  EXPECT_TRUE(report.from_core_search) << context;
  EXPECT_EQ(report.robust_masks, exhaustive.value().robust_masks) << context;
  EXPECT_EQ(report.maximal_masks, exhaustive.value().maximal_masks) << context;
  ASSERT_EQ(report.maximal_sets.size(), report.maximal_masks.size()) << context;
  for (size_t i = 0; i < report.maximal_sets.size(); ++i) {
    EXPECT_EQ(report.maximal_sets[i].ToMask(), report.maximal_masks[i]) << context;
  }

  // The cores are exactly the minimal non-robust subsets.
  const std::set<uint32_t> robust(exhaustive.value().robust_masks.begin(),
                                  exhaustive.value().robust_masks.end());
  const int n = static_cast<int>(programs.size());
  std::vector<uint32_t> core_masks;
  for (const ProgramSet& core : report.cores) core_masks.push_back(core.ToMask());
  EXPECT_EQ(core_masks, BruteForceCoreMasks(robust, n)) << context;

  // Both IsRobustSubset overloads agree with the oracle on every mask, and
  // keep agreeing when only the lattice is available.
  SubsetReport lattice_only = report;
  lattice_only.robust_masks.clear();
  const uint32_t full = (uint32_t{1} << n) - 1;
  for (uint32_t mask = 0; mask <= full; ++mask) {
    const bool expected = robust.count(mask) != 0;
    EXPECT_EQ(report.IsRobustSubset(mask), expected) << context << " mask=" << mask;
    EXPECT_EQ(report.IsRobustSubset(ProgramSet::FromMask(mask, n)), expected)
        << context << " mask=" << mask;
    EXPECT_EQ(lattice_only.IsRobustSubset(mask), expected) << context << " mask=" << mask;
  }

  // Accounting: the stats decompose the total query count.
  EXPECT_EQ(stats.detector_queries, stats.candidate_queries + stats.shrink_queries) << context;
  EXPECT_EQ(report.detector_queries, stats.detector_queries) << context;
  EXPECT_GT(stats.rounds, 0) << context;
}

// The randomized generator of tests/masked_detector_test.cc, with a
// configurable program count so the wide regime can be exercised too.
class RandomWorkloadGen {
 public:
  explicit RandomWorkloadGen(uint64_t seed) : rng_(seed) {}

  std::vector<Btp> Generate(Schema& schema, int num_programs = 0) {
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
    if (num_programs == 0) num_programs = Pick(4, 5);
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

class CoreSearchRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(CoreSearchRandomTest, MatchesExhaustiveSweepUnderBothPolicies) {
  RandomWorkloadGen gen(GetParam() * 6271 + 17);
  Schema schema;
  std::vector<Btp> programs = gen.Generate(schema);
  for (IsolationLevel isolation : {IsolationLevel::kMvrc, IsolationLevel::kRc}) {
    for (const AnalysisSettings& base :
         {AnalysisSettings::TupleDep(), AnalysisSettings::AttrDepFk()}) {
      const AnalysisSettings settings = base.WithIsolation(isolation);
      const std::string context =
          "seed=" + std::to_string(GetParam()) + " / " + settings.name();
      ExpectCoreGuidedMatchesExhaustive(programs, settings, Method::kTypeII, context);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
  // Type-I coverage (the policy-independent witness path) on one setting.
  ExpectCoreGuidedMatchesExhaustive(programs, AnalysisSettings::AttrDepFk(), Method::kTypeI,
                                    "seed=" + std::to_string(GetParam()) + " / type1");
}

INSTANTIATE_TEST_SUITE_P(Seeds, CoreSearchRandomTest, ::testing::Range(0, 20));

TEST(CoreSearchBuiltinTest, MatchesExhaustiveOnSmallBankAndAuction) {
  for (const Workload& workload : {MakeSmallBank(), MakeAuction(), MakeAuctionN(3)}) {
    for (IsolationLevel isolation : {IsolationLevel::kMvrc, IsolationLevel::kRc}) {
      const AnalysisSettings settings = AnalysisSettings::AttrDepFk().WithIsolation(isolation);
      ExpectCoreGuidedMatchesExhaustive(workload.programs, settings, Method::kTypeII,
                                        workload.name + " / " + settings.name());
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

// --- Entry-point parity: TryAnalyzeSubsetsCoreGuided builds the same graph
// pipeline as TryAnalyzeSubsets.

TEST(CoreSearchEntryPointTest, TryAnalyzeMatchesSweepAndCountsQueries) {
  Workload workload = MakeAuctionN(3);
  const AnalysisSettings settings = AnalysisSettings::AttrDepFk();
  SubsetReport exhaustive = AnalyzeSubsets(workload.programs, settings, Method::kTypeII);
  CoreSearchStats stats;
  Result<SubsetReport> result =
      TryAnalyzeSubsetsCoreGuided(workload.programs, settings, Method::kTypeII, &stats);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().robust_masks, exhaustive.robust_masks);
  EXPECT_EQ(result.value().maximal_masks, exhaustive.maximal_masks);
  EXPECT_GT(stats.detector_queries, 0);
}

TEST(CoreSearchEntryPointTest, ProgramCountBoundsAreErrors) {
  Workload workload = MakeSmallBank();
  const std::vector<Btp> empty;
  Result<SubsetReport> none =
      TryAnalyzeSubsetsCoreGuided(empty, AnalysisSettings::AttrDepFk(), Method::kTypeII);
  EXPECT_FALSE(none.ok());

  std::vector<Btp> too_many;
  for (int i = 0; i < kMaxCoreSearchPrograms + 1; ++i) {
    too_many.insert(too_many.end(), workload.programs.begin(), workload.programs.end());
    if (static_cast<int>(too_many.size()) > kMaxCoreSearchPrograms) break;
  }
  too_many.resize(kMaxCoreSearchPrograms + 1, workload.programs[0]);
  Result<SubsetReport> over = TryAnalyzeSubsetsCoreGuided(
      too_many, AnalysisSettings::AttrDepFk(), Method::kTypeII);
  ASSERT_FALSE(over.ok());
  EXPECT_NE(over.error().find(std::to_string(kMaxCoreSearchPrograms)), std::string::npos);
}

// --- The wide regime (n > kMaxSubsetPrograms): no oracle can enumerate, so
// the lattice is verified against the detector directly.

void ExpectLatticeConsistent(const MaskedDetector& detector, const SubsetReport& report,
                             Method method, const std::string& context) {
  DetectorScratch scratch = detector.MakeScratch();
  const int n = detector.num_programs();

  // Every core is non-robust and minimal: dropping any single program makes
  // it robust.
  for (const ProgramSet& core : report.cores) {
    EXPECT_FALSE(detector.IsRobust(core, method, scratch)) << context;
    for (int p : core.ToIndices()) {
      EXPECT_TRUE(detector.IsRobust(core.Without(p), method, scratch))
          << context << " core minus " << p;
    }
  }

  // Every maximal set is robust and maximal: adding any program admits a
  // counterexample.
  for (const ProgramSet& maximal : report.maximal_sets) {
    EXPECT_TRUE(detector.IsRobust(maximal, method, scratch)) << context;
    for (int p = 0; p < n; ++p) {
      if (maximal.Test(p)) continue;
      EXPECT_FALSE(detector.IsRobust(maximal.With(p), method, scratch))
          << context << " maximal plus " << p;
    }
  }

  // Core and maximal families are antichains (pairwise incomparable).
  for (size_t i = 0; i < report.cores.size(); ++i) {
    for (size_t j = 0; j < report.cores.size(); ++j) {
      if (i != j) EXPECT_FALSE(report.cores[i].ContainsAll(report.cores[j])) << context;
    }
  }
  for (size_t i = 0; i < report.maximal_sets.size(); ++i) {
    for (size_t j = 0; j < report.maximal_sets.size(); ++j) {
      if (i != j) {
        EXPECT_FALSE(report.maximal_sets[i].ContainsAll(report.maximal_sets[j])) << context;
      }
    }
  }

  // Sampled subsets: the lattice answer equals the detector's.
  std::mt19937_64 rng(20230807);
  for (int sample = 0; sample < 200; ++sample) {
    ProgramSet subset(n);
    for (int p = 0; p < n; ++p) {
      if ((rng() & 1) != 0) subset.Set(p);
    }
    if (subset.Empty()) continue;
    EXPECT_EQ(report.IsRobustSubset(subset), detector.IsRobust(subset, method, scratch))
        << context << " sample=" << sample;
  }
}

TEST(CoreSearchWideTest, AuctionN12LatticeIsDetectorConsistent) {
  Workload workload = MakeAuctionN(12);  // 24 programs: past the exhaustive cap
  ASSERT_EQ(workload.programs.size(), 24u);
  // Without the foreign-key constraints Auction(n) is non-robust (the
  // attr+FK setting is the paper's positive result and would make every
  // subset robust — a trivial lattice).
  const AnalysisSettings settings = AnalysisSettings::AttrDep();
  GraphUnderTest t = Build(workload.programs, settings);
  MaskedDetector detector(t.graph, t.ltp_range, settings.policy());
  CoreSearchStats stats;
  Result<SubsetReport> result = AnalyzeSubsetsCoreGuided(detector, Method::kTypeII, nullptr, &stats);
  ASSERT_TRUE(result.ok());
  const SubsetReport& report = result.value();
  EXPECT_TRUE(report.from_core_search);
  EXPECT_TRUE(report.robust_masks.empty());  // past the materialization range
  EXPECT_FALSE(report.cores.empty());        // Auction(n) is never fully robust
  EXPECT_FALSE(report.maximal_sets.empty());
  // n <= 32: the mask mirror of the maximal sets is still provided.
  ASSERT_EQ(report.maximal_masks.size(), report.maximal_sets.size());
  for (size_t i = 0; i < report.maximal_sets.size(); ++i) {
    EXPECT_EQ(report.maximal_sets[i].ToMask(), report.maximal_masks[i]);
  }
  ExpectLatticeConsistent(detector, report, Method::kTypeII, "auction12");

  // The whole point: detector work is nowhere near the 2^24 - 1 sweeps the
  // exhaustive path would need.
  EXPECT_LT(stats.detector_queries, int64_t{1} << 20);
}

TEST(CoreSearchWideTest, RandomWideWorkloadsAreDetectorConsistent) {
  // Random 22-program workloads under both policies: structure-free cores.
  for (int seed : {1, 2}) {
    RandomWorkloadGen gen(seed * 9173 + 5);
    Schema schema;
    std::vector<Btp> programs = gen.Generate(schema, 22);
    for (IsolationLevel isolation : {IsolationLevel::kMvrc, IsolationLevel::kRc}) {
      const AnalysisSettings settings =
          AnalysisSettings::AttrDepFk().WithIsolation(isolation);
      GraphUnderTest t = Build(programs, settings);
      MaskedDetector detector(t.graph, t.ltp_range, settings.policy());
      Result<SubsetReport> result = AnalyzeSubsetsCoreGuided(detector, Method::kTypeII);
      ASSERT_TRUE(result.ok());
      ExpectLatticeConsistent(detector, result.value(), Method::kTypeII,
                              "wide seed=" + std::to_string(seed) + " / " + settings.name());
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

// The serial search's exact trajectory at the 128-program cap: Auction(64)
// under attr dep has one singleton core per bid program, found one per
// round. bench_core_search --pairs=64 reports the same counts.
TEST(CoreSearchWideTest, Auction64CountsArePinned) {
  Workload workload = MakeAuctionN(64);
  ASSERT_EQ(workload.programs.size(), static_cast<size_t>(kMaxCoreSearchPrograms));
  const AnalysisSettings settings = AnalysisSettings::AttrDep();
  GraphUnderTest t = Build(workload.programs, settings);
  MaskedDetector detector(t.graph, t.ltp_range, settings.policy());
  CoreSearchStats stats;
  Result<SubsetReport> result = AnalyzeSubsetsCoreGuided(detector, Method::kTypeII, nullptr, &stats);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(stats.detector_queries, 256);
  EXPECT_EQ(stats.candidate_queries, 65);
  EXPECT_EQ(stats.shrink_queries, 191);
  EXPECT_EQ(stats.rounds, 65);
  EXPECT_EQ(result.value().cores.size(), 64u);
  EXPECT_EQ(result.value().maximal_sets.size(), 1u);
}

// --- Wide verdict-cache hooks: a second search over a warm cache answers
// every query from the hooks and still produces the identical report.

TEST(CoreSearchWideHooksTest, WarmCacheAnswersEveryQuery) {
  Workload workload = MakeAuctionN(12);  // 24 programs: wide regime
  const AnalysisSettings settings = AnalysisSettings::AttrDep();
  GraphUnderTest t = Build(workload.programs, settings);
  MaskedDetector detector(t.graph, t.ltp_range, settings.policy());

  std::vector<std::pair<std::string, int64_t>> members;
  for (const Btp& program : workload.programs) members.emplace_back(program.name(), 1);
  const WideFingerprinter fingerprinter(settings.ToString(),
                                        static_cast<int>(Method::kTypeII), members);
  VerdictCache cache;
  SubsetSweepHooks hooks;
  hooks.wide_lookup = [&](const ProgramSet& subset) {
    return cache.Lookup(fingerprinter.Of(subset));
  };
  hooks.wide_store = [&](const ProgramSet& subset, bool robust) {
    cache.Store(fingerprinter.Of(subset), robust);
  };

  CoreSearchStats cold_stats;
  Result<SubsetReport> cold =
      AnalyzeSubsetsCoreGuided(detector, Method::kTypeII, &hooks, &cold_stats);
  ASSERT_TRUE(cold.ok());
  EXPECT_GT(cold_stats.detector_queries, 0);
  EXPECT_GT(cold_stats.cache_misses, 0);
  EXPECT_GT(cache.size(), 0u);

  // Warm run: every IsRobust evaluation — candidates and shrink tests —
  // hits the cache; the detector is never consulted and the report is
  // unchanged.
  CoreSearchStats warm_stats;
  Result<SubsetReport> warm =
      AnalyzeSubsetsCoreGuided(detector, Method::kTypeII, &hooks, &warm_stats);
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(warm_stats.detector_queries, 0);
  EXPECT_EQ(warm_stats.cache_misses, 0);
  EXPECT_GT(warm_stats.cache_hits, 0);
  EXPECT_GT(warm_stats.hook_hits, 0);
  EXPECT_EQ(warm.value().cores, cold.value().cores);
  EXPECT_EQ(warm.value().maximal_sets, cold.value().maximal_sets);
}

// --- Safety valve.

TEST(CoreSearchOptionsTest, LatticeBlowupIsAnErrorNotAnOom) {
  // SmallBank under tuple dep has three maximal robust subsets, so the
  // hitting-set family necessarily grows past a single hypothesis before the
  // search converges. (Auction would not do: its cores are singletons, so its
  // family never holds more than one set at a time.)
  Workload workload = MakeSmallBank();
  const AnalysisSettings settings = AnalysisSettings::TupleDep();
  GraphUnderTest t = Build(workload.programs, settings);
  MaskedDetector detector(t.graph, t.ltp_range, settings.policy());
  CoreSearchOptions options;
  options.max_lattice_sets = 1;  // below SmallBank's real family of 3
  Result<SubsetReport> result =
      AnalyzeSubsetsCoreGuided(detector, Method::kTypeII, nullptr, nullptr, options);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.error().find("max_lattice_sets"), std::string::npos);
}

}  // namespace
}  // namespace mvrc
