// The isolation matrix: per-policy robustness rates across workloads and
// settings — the end-to-end demonstration of the pluggable isolation-policy
// layer. For every workload (SmallBank, TPC-C, Auction, IsolationDemo, and
// the 48-program Auction(24), which exercises the wide regime), every
// granularity/FK setting, and both shipped policies (MVRC, lock-based RC),
// it reports the full-set verdict and the subset analysis' robust-subset
// count/rate — via the exhaustive sweep through kMaxSubsetPrograms and the
// core-guided lattice search beyond it — and enforces three correctness
// gates:
//
//   1. Monotonicity: every lock-based-RC schedule is MVRC-admissible, so
//      every MVRC-robust subset must also be RC-robust — per mask on
//      exhaustively swept cells, and per maximal MVRC-robust set on wide
//      cells (sufficient: robustness is downward-closed, so the maximal
//      sets dominate every MVRC-robust subset).
//   2. Separation: at least one (workload, setting) cell must differ
//      between the two policies (IsolationDemo guarantees this: not robust
//      under MVRC, robust under lock-based RC, on all four settings).
//   3. Graph sharing: MVRC and RC summary graphs differ only in
//      counterflow edges (non-counterflow generation is
//      isolation-independent).
//
// With --threads=T the cells fan across one T-worker pool (each cell runs
// its build and sweep serially inside its worker); gates and output are evaluated after the barrier in the fixed
// cell order, so every verdict, lattice, and printed line is identical at
// any thread count (only the timing fields vary).
//
// Exit status 0 and "ok": true in the JSON record only when every gate
// holds. Usage:
//   bench_isolation_matrix [--threads=T] [--json-out=PATH|-]

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_json.h"
#include "btp/unfold.h"
#include "robust/core_search.h"
#include "robust/detector.h"
#include "robust/masked_detector.h"
#include "robust/subsets.h"
#include "summary/build_summary.h"
#include "util/json.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"
#include "workloads/auction.h"
#include "workloads/policy_demo.h"
#include "workloads/smallbank.h"
#include "workloads/tpcc.h"

namespace mvrc {
namespace {

struct Options {
  int threads = 1;
  std::string json_out = "BENCH_isolation_matrix.json";
};

struct CellResult {
  bool robust = false;
  int num_edges = 0;
  int num_counterflow_edges = 0;
  double seconds = 0;
  std::vector<uint32_t> robust_masks;    // exhaustive regime
  std::vector<ProgramSet> cores;         // wide (core-guided) regime
  std::vector<ProgramSet> maximal_sets;  // wide regime
  int64_t detector_queries = 0;          // wide regime
  bool swept = false;  // exhaustive verdict list materialized
  bool wide = false;   // core-guided lattice materialized
};

// One (workload, settings, policy) cell, fully self-contained so cells can
// run concurrently on pool workers.
CellResult RunCell(const Workload& workload, const AnalysisSettings& settings) {
  CellResult cell;
  Stopwatch timer;
  // One graph build serves both the full-set verdict and the subset sweep
  // (the sweep only needs the per-BTP LTP ranges on top of it).
  std::vector<Ltp> all_ltps;
  std::vector<std::pair<int, int>> ltp_range;
  for (const Btp& program : workload.programs) {
    std::vector<Ltp> unfolded = UnfoldAtMost2(program);
    ltp_range.push_back({static_cast<int>(all_ltps.size()),
                         static_cast<int>(all_ltps.size() + unfolded.size())});
    for (Ltp& ltp : unfolded) all_ltps.push_back(std::move(ltp));
  }
  SummaryGraph graph = BuildSummaryGraph(std::move(all_ltps), settings);
  cell.num_edges = graph.num_edges();
  cell.num_counterflow_edges = graph.num_counterflow_edges();
  cell.robust = RunCycleTest(graph, Method::kTypeII, settings.policy()).robust;
  const int n = static_cast<int>(workload.programs.size());
  if (SubsetProgramCountOk(n)) {
    Result<SubsetReport> report =
        AnalyzeSubsetsOnGraph(graph, ltp_range, Method::kTypeII, nullptr, settings.policy());
    if (report.ok()) {
      cell.robust_masks = report.value().robust_masks;
      cell.swept = true;
    }
  } else if (CoreSearchProgramCountOk(n)) {
    // Past the exhaustive barrier the cell takes the core-guided search and
    // reports the lattice (cores + maximal sets) instead of a verdict list.
    MaskedDetector detector(graph, ltp_range, settings.policy());
    CoreSearchStats stats;
    Result<SubsetReport> report =
        AnalyzeSubsetsCoreGuided(detector, Method::kTypeII, nullptr, &stats);
    if (report.ok()) {
      cell.cores = std::move(report.value().cores);
      cell.maximal_sets = std::move(report.value().maximal_sets);
      cell.detector_queries = stats.detector_queries;
      cell.wide = true;
    }
  }
  cell.seconds = timer.ElapsedSeconds();
  return cell;
}

// Gates + report for one (workload, base-setting) pair, on cells computed
// beforehand. Runs on the main thread after the fan-out barrier.
bool ReportPair(const Workload& workload, const AnalysisSettings& base, const CellResult& mvrc,
                const CellResult& rc, Json& records, int& cells_differing) {
  const uint32_t full =
      workload.programs.size() >= 32
          ? ~uint32_t{0}
          : (uint32_t{1} << workload.programs.size()) - 1;

  // Gate 3: non-counterflow edge generation is isolation-independent.
  if (mvrc.num_edges - mvrc.num_counterflow_edges !=
      rc.num_edges - rc.num_counterflow_edges) {
    std::printf("FAIL: %s / %s: non-counterflow edge counts differ across policies\n",
                workload.name.c_str(), base.name());
    return false;
  }
  // Gate 1 (full set): MVRC-robust implies RC-robust.
  if (mvrc.robust && !rc.robust) {
    std::printf("FAIL: %s / %s: MVRC-robust but not RC-robust\n", workload.name.c_str(),
                base.name());
    return false;
  }
  // Gate 1 (per mask).
  if (mvrc.swept && rc.swept) {
    SubsetReport rc_report;
    rc_report.num_programs = static_cast<int>(workload.programs.size());
    rc_report.robust_masks = rc.robust_masks;
    for (uint32_t mask : mvrc.robust_masks) {
      if (!rc_report.IsRobustSubset(mask)) {
        std::printf("FAIL: %s / %s: mask %u MVRC-robust but not RC-robust\n",
                    workload.name.c_str(), base.name(), mask);
        return false;
      }
    }
  }
  // Gate 1 (wide): every maximal MVRC-robust set must be RC-robust, which
  // covers every MVRC-robust subset by downward closure. The RC lattice
  // answers membership from its cores alone.
  if (mvrc.wide && rc.wide) {
    SubsetReport rc_report;
    rc_report.num_programs = static_cast<int>(workload.programs.size());
    rc_report.cores = rc.cores;
    rc_report.from_core_search = true;
    for (const ProgramSet& set : mvrc.maximal_sets) {
      if (!rc_report.IsRobustSubset(set)) {
        std::printf("FAIL: %s / %s: a maximal MVRC-robust set is not RC-robust\n",
                    workload.name.c_str(), base.name());
        return false;
      }
    }
  }

  const bool differs =
      mvrc.robust != rc.robust ||
      (mvrc.swept && rc.swept && mvrc.robust_masks != rc.robust_masks) ||
      (mvrc.wide && rc.wide &&
       (mvrc.cores != rc.cores || mvrc.maximal_sets != rc.maximal_sets));
  cells_differing += differs ? 1 : 0;

  for (const auto& [policy_name, cell] :
       {std::pair<const char*, const CellResult*>{"mvrc", &mvrc},
        std::pair<const char*, const CellResult*>{"rc", &rc}}) {
    Json record = Json::Object();
    record.Set("workload", Json::Str(workload.name));
    record.Set("settings", Json::Str(base.ToString()));
    record.Set("isolation", Json::Str(policy_name));
    record.Set("num_programs", Json::Int(static_cast<int64_t>(workload.programs.size())));
    record.Set("num_edges", Json::Int(cell->num_edges));
    record.Set("num_counterflow_edges", Json::Int(cell->num_counterflow_edges));
    record.Set("robust", Json::Bool(cell->robust));
    record.Set("search", Json::Str(cell->wide ? "core_guided" : "exhaustive"));
    if (cell->swept) {
      record.Set("robust_subsets", Json::Int(static_cast<int64_t>(cell->robust_masks.size())));
      record.Set("total_subsets", Json::Int(static_cast<int64_t>(full)));
      record.Set("robust_rate",
                 Json::Number(full > 0 ? static_cast<double>(cell->robust_masks.size()) / full
                                       : 0));
    }
    if (cell->wide) {
      record.Set("cores_found", Json::Int(static_cast<int64_t>(cell->cores.size())));
      record.Set("maximal_found", Json::Int(static_cast<int64_t>(cell->maximal_sets.size())));
      record.Set("detector_queries", Json::Int(cell->detector_queries));
    }
    record.Set("seconds", Json::Number(cell->seconds));
    records.Append(std::move(record));
  }

  std::printf("%-14s %-16s mvrc: %-10s rc: %-10s", workload.name.c_str(), base.name(),
              mvrc.robust ? "robust" : "not robust", rc.robust ? "robust" : "not robust");
  if (mvrc.swept && rc.swept) {
    std::printf("  robust subsets %zu -> %zu of %u", mvrc.robust_masks.size(),
                rc.robust_masks.size(), full);
  }
  if (mvrc.wide && rc.wide) {
    std::printf("  cores %zu -> %zu, maximal %zu -> %zu", mvrc.cores.size(), rc.cores.size(),
                mvrc.maximal_sets.size(), rc.maximal_sets.size());
  }
  std::printf("%s\n", differs ? "  [differs]" : "");
  return true;
}

int Run(const Options& options) {
  std::unique_ptr<ThreadPool> pool;
  if (options.threads != 1) {
    pool = std::make_unique<ThreadPool>(ThreadPool::ResolveThreadCount(options.threads));
  }

  Json doc = Json::Object();
  doc.Set("bench", Json::Str("isolation_matrix"));

  // Flatten the matrix into independent cell jobs — (workload, setting,
  // policy) triples — and fan them across the pool; each cell runs serially
  // inside its worker. Without a pool the same jobs run inline.
  const std::vector<Workload> workloads = {MakeSmallBank(), MakeTpcc(), MakeAuction(),
                                           MakeIsolationDemo(), MakeAuctionN(24)};
  const AnalysisSettings bases[] = {
      AnalysisSettings::TupleDep(),
      AnalysisSettings::AttrDep(),
      AnalysisSettings::TupleDepFk(),
      AnalysisSettings::AttrDepFk(),
  };
  struct CellJob {
    const Workload* workload = nullptr;
    const AnalysisSettings* base = nullptr;
    AnalysisSettings settings;
  };
  std::vector<CellJob> jobs;
  for (const Workload& workload : workloads) {
    for (const AnalysisSettings& base : bases) {
      jobs.push_back({&workload, &base, base});
      jobs.push_back({&workload, &base, base.WithIsolation(IsolationLevel::kRc)});
    }
  }
  std::vector<CellResult> cells(jobs.size());
  Stopwatch wall;
  if (pool != nullptr) {
    pool->ParallelFor(static_cast<int64_t>(jobs.size()), [&](int64_t j) {
      cells[j] = RunCell(*jobs[j].workload, jobs[j].settings);
    });
  } else {
    for (size_t j = 0; j < jobs.size(); ++j) cells[j] = RunCell(*jobs[j].workload, jobs[j].settings);
  }
  const double wall_seconds = wall.ElapsedSeconds();

  // Gates and rendering run after the barrier, in job order — the output is
  // identical at every --threads value.
  Json records = Json::Array();
  int cells_differing = 0;
  bool ok = true;
  for (size_t j = 0; ok && j < jobs.size(); j += 2) {
    ok = ReportPair(*jobs[j].workload, *jobs[j].base, cells[j], cells[j + 1], records,
                    cells_differing);
  }

  // Gate 2: the policy layer must be observably pluggable — some cell must
  // separate the two levels (IsolationDemo exists for exactly this).
  if (ok && cells_differing == 0) {
    std::printf("FAIL: no (workload, settings) cell separates MVRC from RC\n");
    ok = false;
  }

  doc.Set("workloads", std::move(records));
  doc.Set("cells_differing", Json::Int(cells_differing));
  doc.Set("cells_total", Json::Int(static_cast<int64_t>(jobs.size())));
  doc.Set("wall_seconds", Json::Number(wall_seconds));
  return bench::FinishBenchJson(std::move(doc), ok, options.json_out, options.threads) ? 0 : 1;
}

}  // namespace
}  // namespace mvrc

int main(int argc, char** argv) {
  mvrc::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--threads=", 0) == 0) {
      options.threads = std::atoi(arg.c_str() + std::strlen("--threads="));
    } else if (arg.rfind("--json-out=", 0) == 0) {
      options.json_out = arg.substr(std::strlen("--json-out="));
    } else {
      std::fprintf(stderr, "usage: %s [--threads=T] [--json-out=PATH|-]\n", argv[0]);
      return 2;
    }
  }
  return mvrc::Run(options);
}
