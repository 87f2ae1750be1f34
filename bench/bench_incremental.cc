// Measures the incremental analysis service against from-scratch analysis:
// on growing Auction(n) workloads (2n programs), one program is mutated and
// the workload re-checked (full-set verdict + subset sweep). From-scratch
// re-analysis rebuilds the summary graph over every LTP pair and re-sweeps
// every subset; the incremental session recomputes only the mutated
// program's row and column of dep-table cells and re-runs the detector only
// on subsets whose fingerprint changed.
//
// The work metric is dep-table statement pairs — one unit per (occurrence,
// occurrence) pair fed through Algorithm 1's condition tables, the measure
// SessionStats::stmt_pairs_evaluated accumulates — plus detector
// invocations and wall clock. The bench verifies the incremental re-check
// reproduces the from-scratch subset report bit for bit and exits non-zero
// if it does not, or if incremental dep-table work is not strictly less
// than from-scratch on every row (the acceptance bar is the 10-program
// workload, n = 5).
//
// Usage: bench_incremental [max_n]   (default 5, i.e. up to 10 programs)

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <utility>
#include <vector>

#include "btp/unfold.h"
#include "robust/subsets.h"
#include "service/workload_session.h"
#include "util/stopwatch.h"
#include "workloads/auction.h"

namespace mvrc {
namespace {

// The mutation under test: FindBids_1 loses its predicate read of Bids1,
// becoming a single key update of Buyer — incident edges change, so the
// session must invalidate exactly the verdicts involving it.
Btp MutateFirstProgram(const Btp& original) {
  Btp mutated(original.name());
  mutated.AddStatement(original.statement(0));
  return mutated;
}

int64_t ScratchStmtPairs(const std::vector<Btp>& programs) {
  int64_t total = 0;
  for (const Ltp& ltp : UnfoldAtMost2(programs)) total += ltp.size();
  return total * total;  // Algorithm 1 visits every ordered LTP pair
}

struct RunResult {
  double millis = 0;
  int64_t stmt_pairs = 0;
  int64_t detector_runs = 0;
  SubsetReport report;
};

// From-scratch mutation re-check: rebuild + full sweep on the mutated set.
// Counting store-hooks measure the sweep's actual (Proposition 5.2-pruned)
// detector invocations, mirroring how the incremental side is measured.
RunResult RunScratch(const std::vector<Btp>& mutated_programs,
                     const AnalysisSettings& settings) {
  RunResult result;
  SubsetSweepHooks hooks;
  hooks.store = [&result](uint32_t, bool) { ++result.detector_runs; };
  Stopwatch watch;
  Result<SubsetReport> report =
      TryAnalyzeSubsets(mutated_programs, settings, Method::kTypeII, &hooks);
  result.millis = watch.ElapsedMillis();
  if (!report.ok()) {
    std::fprintf(stderr, "scratch sweep failed: %s\n", report.error().c_str());
    std::exit(1);
  }
  result.report = std::move(report).value();
  result.stmt_pairs = ScratchStmtPairs(mutated_programs);
  return result;
}

// Incremental mutation re-check on a warm session.
RunResult RunIncremental(WorkloadSession& session, const Btp& replacement) {
  const SessionStats before = session.stats();
  RunResult result;
  Stopwatch watch;
  if (!session.ReplaceProgram(replacement).ok()) {
    std::fprintf(stderr, "replace failed\n");
    std::exit(1);
  }
  Result<SubsetReport> report = session.Subsets(Method::kTypeII);
  if (!report.ok()) {
    std::fprintf(stderr, "subsets failed: %s\n", report.error().c_str());
    std::exit(1);
  }
  result.millis = watch.ElapsedMillis();
  result.report = std::move(report).value();
  const SessionStats after = session.stats();
  result.stmt_pairs = after.stmt_pairs_evaluated - before.stmt_pairs_evaluated;
  result.detector_runs = after.detector_runs - before.detector_runs;
  return result;
}

}  // namespace
}  // namespace mvrc

int main(int argc, char** argv) {
  using namespace mvrc;
  int max_n = argc > 1 ? std::atoi(argv[1]) : 5;
  if (max_n < 1 || max_n > 10) {
    std::fprintf(stderr, "usage: bench_incremental [max_n in 1..10]\n");
    return 2;
  }
  const AnalysisSettings settings = AnalysisSettings::AttrDepFk();

  std::printf("Incremental re-check vs from-scratch after one program mutation\n");
  std::printf("(Auction(n), attr dep + FK, type-II; work = dep-table statement pairs)\n\n");
  std::printf("  %5s %9s | %12s %12s %9s | %12s %12s %9s | %10s %9s\n", "progs", "subsets",
              "scratch ms", "incr ms", "speedup", "scratch wk", "incr wk", "wk ratio",
              "detectors", "identical");

  bool all_identical = true;
  bool all_less_work = true;
  for (int n = 1; n <= max_n; ++n) {
    Workload workload = MakeAuctionN(n);
    const int programs = static_cast<int>(workload.programs.size());

    // Warm session: load every program and sweep once (a deployed session
    // has answered at least one check before it is mutated).
    WorkloadSession session(workload.name, settings);
    if (!session.LoadWorkload(workload).ok()) {
      std::fprintf(stderr, "load failed\n");
      return 1;
    }
    if (!session.Subsets(Method::kTypeII).ok()) {
      std::fprintf(stderr, "warm sweep failed\n");
      return 1;
    }

    Btp mutated = MutateFirstProgram(workload.programs[0]);
    std::vector<Btp> mutated_programs = workload.programs;
    mutated_programs[0] = mutated;

    RunResult scratch = RunScratch(mutated_programs, settings);
    RunResult incremental = RunIncremental(session, mutated);

    const bool identical =
        incremental.report.robust_masks == scratch.report.robust_masks &&
        incremental.report.maximal_masks == scratch.report.maximal_masks;
    all_identical = all_identical && identical;
    const bool less_work = incremental.stmt_pairs < scratch.stmt_pairs;
    all_less_work = all_less_work && less_work;

    std::printf("  %5d %9u | %12.2f %12.2f %8.1fx | %12lld %12lld %8.1fx | %5lld/%-4lld %9s\n",
                programs, (uint32_t{1} << programs) - 1, scratch.millis, incremental.millis,
                incremental.millis > 0 ? scratch.millis / incremental.millis : 0.0,
                static_cast<long long>(scratch.stmt_pairs),
                static_cast<long long>(incremental.stmt_pairs),
                incremental.stmt_pairs > 0
                    ? static_cast<double>(scratch.stmt_pairs) / incremental.stmt_pairs
                    : 0.0,
                static_cast<long long>(incremental.detector_runs),
                static_cast<long long>(scratch.detector_runs),
                identical ? "yes" : "NO");
  }

  if (!all_identical) {
    std::printf("\nFAIL: an incremental report diverged from from-scratch analysis\n");
    return 1;
  }
  if (!all_less_work) {
    std::printf("\nFAIL: incremental re-check did not do strictly less dep-table work\n");
    return 1;
  }
  std::printf("\nPASS: identical reports, strictly less dep-table work on every row\n");
  return 0;
}
