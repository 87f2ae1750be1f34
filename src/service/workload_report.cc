#include "service/workload_report.h"

#include <sstream>

#include "util/check.h"

namespace mvrc {

const VerdictEntry& WorkloadReport::Verdict(const AnalysisSettings& settings,
                                            Method method) const {
  for (const VerdictEntry& entry : verdicts) {
    if (entry.settings == settings && entry.method == method) return entry;
  }
  MVRC_CHECK_MSG(false, "no such verdict in the report");
  return verdicts.front();
}

std::string WorkloadReport::ToText() const {
  std::ostringstream os;
  os << "workload: " << workload_name << " (" << num_programs << " programs, "
     << num_unfolded << " unfolded)\n";
  os << "isolation: " << mvrc::ToString(isolation) << "\n";
  os << "verdicts:\n";
  for (const VerdictEntry& entry : verdicts) {
    os << "  " << entry.settings.name() << " / "
       << (entry.method == Method::kTypeII ? "type-II (Algorithm 2)" : "type-I [3]")
       << ": " << (entry.robust ? "robust" : "not robust") << "  [" << entry.num_edges
       << " edges, " << entry.num_counterflow_edges << " counterflow]\n";
    if (!entry.witness.empty()) {
      std::istringstream lines(entry.witness);
      std::string line;
      while (std::getline(lines, line)) os << "      " << line << "\n";
    }
  }
  if (maximal_robust_subsets.has_value()) {
    os << "maximal robust subsets (attr dep + FK, type-II):\n";
    for (const std::string& subset : *maximal_robust_subsets) {
      os << "  " << subset << "\n";
    }
  }
  return os.str();
}

Json WorkloadReport::ToJson() const {
  Json json = Json::Object();
  json.Set("workload", Json::Str(workload_name));
  json.Set("isolation", Json::Str(mvrc::ToString(isolation)));
  json.Set("num_programs", Json::Int(num_programs));
  json.Set("num_unfolded", Json::Int(num_unfolded));
  Json verdict_array = Json::Array();
  for (const VerdictEntry& entry : verdicts) {
    Json verdict = Json::Object();
    verdict.Set("settings", Json::Str(entry.settings.name()));
    verdict.Set("method", Json::Str(entry.method == Method::kTypeII ? "type-II" : "type-I"));
    verdict.Set("robust", Json::Bool(entry.robust));
    verdict.Set("num_edges", Json::Int(entry.num_edges));
    verdict.Set("num_counterflow_edges", Json::Int(entry.num_counterflow_edges));
    if (!entry.witness.empty()) verdict.Set("witness", Json::Str(entry.witness));
    verdict_array.Append(std::move(verdict));
  }
  json.Set("verdicts", std::move(verdict_array));
  if (maximal_robust_subsets.has_value()) {
    Json subsets = Json::Array();
    for (const std::string& subset : *maximal_robust_subsets) {
      subsets.Append(Json::Str(subset));
    }
    json.Set("maximal_robust_subsets", std::move(subsets));
  }
  return json;
}

Result<ReportSessions> OpenReportSessions(const Workload& workload, IsolationLevel isolation) {
  ReportSessions sessions;
  for (AnalysisSettings settings : {AnalysisSettings::TupleDep(), AnalysisSettings::AttrDep(),
                                    AnalysisSettings::TupleDepFk(), AnalysisSettings::AttrDepFk()}) {
    sessions.push_back(
        std::make_unique<WorkloadSession>(workload.name, settings.WithIsolation(isolation)));
    Status loaded = sessions.back()->LoadWorkload(workload);
    if (!loaded.ok()) return Result<ReportSessions>::Error(loaded.error());
  }
  return sessions;
}

WorkloadReport BuildReport(const Workload& workload, const ReportSessions& sessions,
                           bool analyze_subsets) {
  WorkloadReport report;
  report.workload_name = workload.name.empty() ? "(unnamed)" : workload.name;
  report.isolation = sessions.back()->settings().isolation;
  report.num_programs = static_cast<int>(workload.programs.size());

  for (const std::unique_ptr<WorkloadSession>& session : sessions) {
    for (Method method : {Method::kTypeII, Method::kTypeI}) {
      CheckResult check = session->Check(method);
      report.num_unfolded = check.num_unfolded;
      VerdictEntry entry;
      entry.settings = session->settings();
      entry.method = method;
      entry.robust = check.robust;
      entry.num_edges = check.num_edges;
      entry.num_counterflow_edges = check.num_counterflow_edges;
      entry.witness = std::move(check.witness);
      report.verdicts.push_back(std::move(entry));
    }
  }

  if (analyze_subsets) {
    Result<SubsetReport> subsets = sessions.back()->Subsets(Method::kTypeII);
    if (subsets.ok()) {
      std::vector<std::string> names = workload.abbreviations;
      if (names.size() != workload.programs.size()) {
        names.clear();
        for (const Btp& program : workload.programs) names.push_back(program.name());
      }
      report.maximal_robust_subsets = subsets.value().DescribeMaximal(names);
    }
  }
  return report;
}

}  // namespace mvrc
