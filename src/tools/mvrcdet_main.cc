// mvrcdet: command-line robustness checker.
//
// Usage:
//   mvrcdet [options] <workload.sql>
//   mvrcdet [options] --builtin=<smallbank|tpcc|auction|auction<N>>
//
// Every answer comes from WorkloadSessions, the objects mvrcd serves: one
// session per granularity/FK setting at the chosen isolation level, each
// loaded once (service/workload_report.h).
//
// Options:
//   --builtin=NAME a predefined workload (workloads/builtins.h); auction<N>
//                  is the Auction(N) scaling family, e.g. --builtin=auction3
//                  --dot prints the paper's Figure 19
//   --subsets      also compute maximal robust subsets (≤ 128 programs:
//                  exhaustive sweep through 20, core-guided search above)
//   --dot          print the summary graph (attr dep + FK) as Graphviz DOT
//   --certify      on rejection, search for a concrete counterexample
//                  (counterexample schedules are MVRC executions; under
//                  --isolation=rc the search is still reported but certifies
//                  against the broader MVRC semantics)
//   --programs     print the derived BTP statement tables
//   --isolation=L  isolation level to analyze against: mvrc (default) or rc
//                  (lock-based Read Committed, the transaction-template
//                  characterization)
//   --json         print the report as a single JSON object instead of text
//                  (see WorkloadReport::ToJson; --dot/--certify/--programs
//                  keep their text output and are best not combined). The
//                  object gains a "session_stats" block: the counters
//                  (workload_session.h SessionStats) of the attr dep + FK
//                  session that answered the report
//   --trace=FILE   record phase spans (cells/check/core-search) and dump
//                  Chrome trace_event JSON on exit — load in
//                  chrome://tracing or https://ui.perfetto.dev
//   --metrics-json=FILE
//                  dump the final metrics snapshot (counters/gauges/latency
//                  histograms, see docs/OBSERVABILITY.md) as JSON on exit
//
// Exit status: 0 when robust under attr dep + FK / type-II at the chosen
// isolation level, 1 when not, 2 on usage or parse errors.

#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "robust/certify.h"
#include "service/workload_report.h"
#include "sql/analyzer.h"
#include "workloads/builtins.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: mvrcdet [--subsets] [--dot] [--certify] [--programs]\n"
               "               [--isolation=mvrc|rc] [--json] [--trace=FILE]\n"
               "               [--metrics-json=FILE]\n"
               "               (<workload.sql> |\n"
               "                --builtin=<smallbank|tpcc|auction|auction<N>>)\n");
  return 2;
}

// Dumps the global metrics snapshot to `path`; exit-path best effort.
bool WriteMetricsJson(const std::string& path) {
  const std::string rendered = mvrc::MetricsRegistry::Global().ToJson().Dump();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs(rendered.c_str(), f);
  std::fputc('\n', f);
  std::fclose(f);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mvrc;
  bool subsets = false, dot = false, certify = false, print_programs = false, json = false;
  IsolationLevel isolation = IsolationLevel::kMvrc;
  std::string file, builtin, trace_path, metrics_path;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--subsets") {
      subsets = true;
    } else if (arg == "--dot") {
      dot = true;
    } else if (arg == "--certify") {
      certify = true;
    } else if (arg == "--programs") {
      print_programs = true;
    } else if (arg == "--json") {
      json = true;
    } else if (arg.rfind("--isolation=", 0) == 0) {
      std::optional<IsolationLevel> level =
          ParseIsolationLevel(arg.substr(std::strlen("--isolation=")));
      if (!level.has_value()) return Usage();
      isolation = *level;
    } else if (arg.rfind("--builtin=", 0) == 0) {
      builtin = arg.substr(std::strlen("--builtin="));
    } else if (arg.rfind("--trace=", 0) == 0) {
      trace_path = arg.substr(std::strlen("--trace="));
      if (trace_path.empty()) return Usage();
    } else if (arg.rfind("--metrics-json=", 0) == 0) {
      metrics_path = arg.substr(std::strlen("--metrics-json="));
      if (metrics_path.empty()) return Usage();
    } else if (!arg.empty() && arg[0] == '-') {
      return Usage();
    } else {
      file = arg;
    }
  }
  if (file.empty() == builtin.empty()) return Usage();

  if (!trace_path.empty()) TraceBuffer::Global().Start(size_t{1} << 16);

  Workload workload;
  if (!builtin.empty()) {
    std::optional<Workload> made = MakeBuiltinWorkload(builtin);
    if (!made.has_value()) return Usage();
    workload = std::move(*made);
  } else {
    std::ifstream input(file);
    if (!input) {
      std::fprintf(stderr, "mvrcdet: cannot open %s\n", file.c_str());
      return 2;
    }
    std::ostringstream text;
    text << input.rdbuf();
    Result<Workload> parsed = ParseWorkloadSql(text.str());
    if (!parsed.ok()) {
      std::fprintf(stderr, "mvrcdet: %s\n", parsed.error().c_str());
      return 2;
    }
    workload = std::move(parsed).value();
    workload.name = file;
  }

  if (print_programs) {
    for (const Btp& program : workload.programs) {
      std::printf("%s", program.ToDebugString(workload.schema).c_str());
    }
    std::printf("\n");
  }

  Result<ReportSessions> opened = OpenReportSessions(workload, isolation);
  if (!opened.ok()) {
    std::fprintf(stderr, "mvrcdet: %s\n", opened.error().c_str());
    return 2;
  }
  const ReportSessions& sessions = opened.value();
  WorkloadSession& attr_fk = *sessions.back();
  WorkloadReport report = BuildReport(workload, sessions, subsets);
  if (json) {
    Json doc = report.ToJson();
    doc.Set("session_stats", attr_fk.stats().ToJson());
    std::printf("%s\n", doc.Dump().c_str());
  } else {
    std::printf("%s", report.ToText().c_str());
  }

  const bool robust = report.Verdict(attr_fk.settings(), Method::kTypeII).robust;
  if (!robust && certify) {
    SearchOptions options;
    options.domain_size = 2;
    options.max_txns = 3;
    options.max_schedules = 2'000'000;
    const SummaryGraph graph = attr_fk.Graph();
    CertificationOutcome outcome = CertifyRobustness(graph, options);
    std::printf("\ncertification:\n%s", outcome.Describe(graph, workload.schema).c_str());
  }

  if (dot) std::printf("\n%s", attr_fk.Graph().ToDot(workload.name).c_str());

  if (!trace_path.empty()) {
    TraceBuffer::Global().Stop();
    if (!TraceBuffer::Global().WriteChromeJson(trace_path)) {
      std::fprintf(stderr, "mvrcdet: cannot write trace to %s\n", trace_path.c_str());
      return 2;
    }
  }
  if (!metrics_path.empty() && !WriteMetricsJson(metrics_path)) {
    std::fprintf(stderr, "mvrcdet: cannot write metrics to %s\n", metrics_path.c_str());
    return 2;
  }
  return robust ? 0 : 1;
}
