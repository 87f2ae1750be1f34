// Full workload analysis report: verdicts across settings and methods,
// maximal robust subsets, witnesses, and the summary-graph statistics —
// everything a developer needs to decide whether (and which part of) a
// workload can run under READ COMMITTED. `mvrcdet` renders it as text or
// JSON.
//
// The report holds no analysis of its own: every number in it is an answer
// of a WorkloadSession, the object `mvrcd` serves, so the CLI and the daemon
// share one route into the analysis.

#ifndef MVRC_SERVICE_WORKLOAD_REPORT_H_
#define MVRC_SERVICE_WORKLOAD_REPORT_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "robust/detector.h"
#include "service/workload_session.h"
#include "util/json.h"
#include "util/result.h"
#include "workloads/workload.h"

namespace mvrc {

/// One (setting, method) verdict.
struct VerdictEntry {
  AnalysisSettings settings;
  Method method = Method::kTypeII;
  bool robust = false;
  int num_edges = 0;
  int num_counterflow_edges = 0;
  std::string witness;  // empty when robust
};

/// The analysis report for a workload.
struct WorkloadReport {
  std::string workload_name;
  IsolationLevel isolation = IsolationLevel::kMvrc;
  int num_programs = 0;
  int num_unfolded = 0;
  std::vector<VerdictEntry> verdicts;
  // Maximal robust subsets under attr+FK / type-II, when subset analysis ran.
  std::optional<std::vector<std::string>> maximal_robust_subsets;

  /// The verdict of (`settings`, `method`); it must be in the report.
  const VerdictEntry& Verdict(const AnalysisSettings& settings, Method method) const;

  std::string ToText() const;

  /// Machine-readable rendering for `mvrcdet --json` and service clients:
  /// {"workload", "num_programs", "num_unfolded", "verdicts": [{"settings",
  /// "method", "robust", "num_edges", "num_counterflow_edges", "witness"}],
  /// "maximal_robust_subsets"?}. Witness members are present only when the
  /// verdict is not robust; the subsets member only when subset analysis ran.
  Json ToJson() const;
};

/// One session per granularity/FK setting, in the report's row order — tpl
/// dep, attr dep, tpl dep + FK, attr dep + FK — so back() is the attr dep +
/// FK session that answers subsets, the summary graph and certification.
using ReportSessions = std::vector<std::unique_ptr<WorkloadSession>>;

/// Loads `workload` into one fresh session per report setting at
/// `isolation`. Fails when a session rejects the workload (duplicate program
/// names).
Result<ReportSessions> OpenReportSessions(const Workload& workload, IsolationLevel isolation);

/// Reads the report from `sessions` (as OpenReportSessions made them): each
/// session's Check under both methods, then, when `analyze_subsets` is set,
/// the attr dep + FK session's Subsets — omitted when the program count is
/// outside the subset engines' range. The checks run first so that every
/// verdict carries its witness: a Subsets run settles the full set, and a
/// cached verdict has none.
WorkloadReport BuildReport(const Workload& workload, const ReportSessions& sessions,
                           bool analyze_subsets);

}  // namespace mvrc

#endif  // MVRC_SERVICE_WORKLOAD_REPORT_H_
