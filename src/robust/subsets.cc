#include "robust/subsets.h"

#include <algorithm>
#include <iterator>
#include <sstream>
#include <utility>

#include "btp/unfold.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "robust/core_search.h"
#include "robust/masked_detector.h"
#include "summary/build_summary.h"
#include "util/check.h"
#include "util/stopwatch.h"

namespace mvrc {

bool SubsetReport::IsRobustSubset(uint32_t mask) const {
  if (robust_masks.empty() && from_core_search) {
    return IsRobustSubset(ProgramSet::FromMask(mask, num_programs));
  }
  return std::binary_search(robust_masks.begin(), robust_masks.end(), mask);
}

bool SubsetReport::IsRobustSubset(const ProgramSet& subset) const {
  MVRC_CHECK(subset.num_programs() == num_programs);
  if (!from_core_search) return IsRobustSubset(subset.ToMask());
  // Lattice answer: robust iff non-empty and above no core (Proposition
  // 5.2's upward closure of non-robustness makes the cores decisive). The
  // empty subset is excluded to match the exhaustive sweep, which only
  // enumerates non-empty masks.
  if (subset.Empty()) return false;
  for (const ProgramSet& core : cores) {
    if (subset.ContainsAll(core)) return false;
  }
  return true;
}

std::string SubsetReport::DescribeMask(uint32_t mask,
                                       const std::vector<std::string>& names) const {
  MVRC_CHECK_MSG(num_programs <= 32,
                 "uint32_t subset masks encode at most 32 programs — wide subsets are "
                 "rendered by DescribeSet");
  std::ostringstream os;
  os << "{";
  bool first = true;
  for (int i = 0; i < num_programs; ++i) {
    if ((mask >> i) & 1) {
      if (!first) os << ", ";
      os << names.at(i);
      first = false;
    }
  }
  os << "}";
  return os.str();
}

std::string SubsetReport::DescribeSet(const ProgramSet& set,
                                      const std::vector<std::string>& names) const {
  std::ostringstream os;
  os << "{";
  bool first = true;
  for (int i : set.ToIndices()) {
    if (!first) os << ", ";
    os << names.at(i);
    first = false;
  }
  os << "}";
  return os.str();
}

std::vector<std::string> SubsetReport::DescribeMaximal(
    const std::vector<std::string>& names) const {
  std::vector<std::string> out;
  if (!maximal_sets.empty()) {
    out.reserve(maximal_sets.size());
    for (const ProgramSet& set : maximal_sets) out.push_back(DescribeSet(set, names));
    return out;
  }
  out.reserve(maximal_masks.size());
  for (uint32_t mask : maximal_masks) out.push_back(DescribeMask(mask, names));
  return out;
}

std::vector<std::string> SubsetReport::DescribeCores(
    const std::vector<std::string>& names) const {
  std::vector<std::string> out;
  out.reserve(cores.size());
  for (const ProgramSet& core : cores) out.push_back(DescribeSet(core, names));
  return out;
}

namespace {

// Maximal = robust with no robust strict superset. Sweep the robust masks in
// decreasing popcount order: any robust strict superset of `mask` has a
// strictly larger popcount and is contained in some maximal mask accepted
// earlier (Proposition 5.2's downward closure makes the maximal masks cover
// all robust masks), so comparing against the accepted maximal masks alone
// suffices — O(robust x maximal) instead of the old O(robust^2) all-pairs
// scan.
void ComputeMaximalMasks(SubsetReport& report) {
  std::vector<uint32_t> by_popcount = report.robust_masks;
  std::sort(by_popcount.begin(), by_popcount.end(), [](uint32_t a, uint32_t b) {
    int pa = __builtin_popcount(a), pb = __builtin_popcount(b);
    return pa != pb ? pa > pb : a < b;
  });
  for (uint32_t mask : by_popcount) {
    bool dominated = false;
    for (uint32_t maximal : report.maximal_masks) {
      if ((maximal & mask) == mask) {
        dominated = true;
        break;
      }
    }
    if (!dominated) report.maximal_masks.push_back(mask);
  }
  std::sort(report.maximal_masks.begin(), report.maximal_masks.end());
}

// Memoization shortcut: the cached verdict for `mask`, when hooks are wired.
std::optional<bool> Lookup(const SubsetSweepHooks* hooks, uint32_t mask) {
  if (hooks == nullptr || !hooks->lookup) return std::nullopt;
  return hooks->lookup(mask);
}

void Store(const SubsetSweepHooks* hooks, uint32_t mask, bool robust) {
  if (hooks != nullptr && hooks->store) hooks->store(mask, robust);
}

// The sweep: masks in decreasing popcount order, Proposition 5.2
// pruning applied as soon as a mask is found robust. Per-mask verdicts come
// from the MaskedDetector against one reused scratch — no graph copies, no
// per-mask allocation. robust_masks is sorted by the caller, so push order
// does not matter.
void Sweep(const MaskedDetector& detector, Method method, int n, const SubsetSweepHooks* hooks,
           SubsetReport& report) {
  const uint32_t full = (uint32_t{1} << n) - 1;
  std::vector<char> known_robust(full + 1, 0);
  std::vector<uint32_t> order;
  order.reserve(full);
  for (uint32_t mask = 1; mask <= full; ++mask) order.push_back(mask);
  std::sort(order.begin(), order.end(), [](uint32_t a, uint32_t b) {
    int pa = __builtin_popcount(a), pb = __builtin_popcount(b);
    return pa != pb ? pa > pb : a < b;
  });

  DetectorScratch scratch = detector.MakeScratch();
  for (uint32_t mask : order) {
    if (!known_robust[mask]) {
      std::optional<bool> verdict = Lookup(hooks, mask);
      if (!verdict.has_value()) {
        verdict = detector.IsRobust(mask, method, scratch);
        Store(hooks, mask, *verdict);
      }
      if (!*verdict) continue;
      // Mark this subset and all of its subsets robust (Proposition 5.2).
      for (uint32_t sub = mask; sub != 0; sub = (sub - 1) & mask) known_robust[sub] = 1;
    }
    report.robust_masks.push_back(mask);
  }
}

// The shared 1..kMaxSubsetPrograms bounds check; nullopt when `n` is fine.
std::optional<Result<SubsetReport>> CheckProgramCount(int n) {
  if (SubsetProgramCountOk(n)) return std::nullopt;
  return Result<SubsetReport>::Error(
      "exhaustive subset analysis supports 1.." + std::to_string(kMaxSubsetPrograms) +
      " programs (got " + std::to_string(n) +
      "): subsets are enumerated as 32-bit masks and 2^" +
      std::to_string(kMaxSubsetPrograms) +
      " is the largest exhaustive sweep that stays tractable — larger workloads take the "
      "core-guided search (AnalyzeSubsetsCoreGuided in robust/core_search.h, up to " +
      std::to_string(kMaxCoreSearchPrograms) +
      " programs), which the analysis service and `mvrcdet --subsets` select automatically");
}

}  // namespace

Result<SubsetReport> AnalyzeSubsetsOnDetector(const MaskedDetector& detector, Method method,
                                              const SubsetSweepHooks* hooks) {
  const int n = detector.num_programs();
  if (std::optional<Result<SubsetReport>> error = CheckProgramCount(n)) return *error;
  TraceSpan span("robust/sweep", "programs=" + std::to_string(n));
  Stopwatch timer;
  SubsetReport report;
  report.num_programs = n;
  Sweep(detector, method, n, hooks, report);
  std::sort(report.robust_masks.begin(), report.robust_masks.end());
  ComputeMaximalMasks(report);
  static Counter* sweeps = MetricsRegistry::Global().counter("robust.sweeps");
  static Counter* masks = MetricsRegistry::Global().counter("robust.masks_swept");
  static Histogram* sweep_us = MetricsRegistry::Global().histogram("robust.sweep_us");
  sweeps->Add(1);
  masks->Add((int64_t{1} << n) - 1);  // nonempty subsets of n programs
  sweep_us->Record(timer.ElapsedMicros());
  span.AppendArgs("robust_masks=" + std::to_string(report.robust_masks.size()));
  return report;
}

Result<SubsetReport> AnalyzeSubsetsOnGraph(const SummaryGraph& full_graph,
                                           const std::vector<std::pair<int, int>>& ltp_range,
                                           Method method, const SubsetSweepHooks* hooks,
                                           const IsolationPolicy& policy) {
  const int n = static_cast<int>(ltp_range.size());
  if (std::optional<Result<SubsetReport>> error = CheckProgramCount(n)) return *error;
  MaskedDetector detector(full_graph, ltp_range, policy);
  return AnalyzeSubsetsOnDetector(detector, method, hooks);
}

Result<SubsetReport> TryAnalyzeSubsets(const std::vector<Btp>& programs,
                                       const AnalysisSettings& settings, Method method,
                                       const SubsetSweepHooks* hooks) {
  const int n = static_cast<int>(programs.size());
  if (std::optional<Result<SubsetReport>> error = CheckProgramCount(n)) return *error;

  // Build the summary graph once for the full program set; every subset's
  // graph is an induced subgraph (Algorithm 1's conditions are local to the
  // two programs of an edge). Track which unfolded LTPs belong to which BTP.
  std::vector<Ltp> all_ltps;
  std::vector<std::pair<int, int>> ltp_range(n);  // [begin, end) per BTP
  for (int i = 0; i < n; ++i) {
    std::vector<Ltp> unfolded = UnfoldAtMost2(programs[i]);
    ltp_range[i] = {static_cast<int>(all_ltps.size()),
                    static_cast<int>(all_ltps.size() + unfolded.size())};
    all_ltps.insert(all_ltps.end(), std::make_move_iterator(unfolded.begin()),
                    std::make_move_iterator(unfolded.end()));
  }

  SummaryGraph full_graph = BuildSummaryGraph(std::move(all_ltps), settings);
  return AnalyzeSubsetsOnGraph(full_graph, ltp_range, method, hooks, settings.policy());
}

SubsetReport AnalyzeSubsets(const std::vector<Btp>& programs, const AnalysisSettings& settings,
                            Method method) {
  Result<SubsetReport> report = TryAnalyzeSubsets(programs, settings, method);
  MVRC_CHECK_MSG(report.ok(),
                 "subset analysis supports 1..20 programs: subsets are encoded as 32-bit "
                 "masks and 2^20 is the largest sweep that stays tractable — use "
                 "TryAnalyzeSubsets for a non-aborting error path");
  return std::move(report).value();
}

}  // namespace mvrc
