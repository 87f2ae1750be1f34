// In-process traced replay of one benchmark request sequence.
//
//   perfbench_trace --requests=FILE --spans=FILE --state-dir=DIR
//                   [--daemon-state] [--min-seconds=S]
//
// FILE holds one {"request": {...}} object per line ("setup": true marks the
// base-session steps, "side": true the certify side stream). Every request
// is replayed three times over, each time timing calls into one layer's
// public functions with a span (name, start, end, parent, request id):
//
//   1. protocol: HandleRequestLine on a SessionManager configured like the
//      daemon (with a snapshot store when --daemon-state is given);
//   2. session:  the matching WorkloadSession call on a second, directly
//      driven session, followed by TrySnapshotSession after each mutation;
//   3. layers:   the from-scratch path on the same inputs —
//      ParseWorkloadSqlInto, UnfoldAtMost2, BuildSummaryGraph, RunCycleTest,
//      MaskedDetector construction, AnalyzeSubsetsOnDetector /
//      AnalyzeSubsetsCoreGuided, FindCounterexample.
//
// Self times come from subtraction on the same inputs: protocol.self_ms is
// the protocol call minus the session call (and minus the snapshot when the
// daemon keeps state). The setup and the first round are replayed once;
// later rounds repeat until --min-seconds have passed. Spans stay in memory
// and are written to --spans at the end. A last pass measures what the spans
// cost: the protocol-only replay with and without them, request by request,
// for half of --min-seconds. The last stdout line is a JSON object with the
// per-layer metrics, that tracing overhead, and the first round's
// independently computed totals (verdicts, edge counts, maximal sets, cores,
// detector queries, search counts), which the caller compares with the
// daemon's answers.

#include <sys/stat.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "btp/unfold.h"
#include "persist/session_snapshot.h"
#include "persist/snapshot_store.h"
#include "robust/core_search.h"
#include "robust/detector.h"
#include "robust/masked_detector.h"
#include "robust/subsets.h"
#include "search/counterexample.h"
#include "service/protocol.h"
#include "service/session_manager.h"
#include "service/workload_session.h"
#include "sql/analyzer.h"
#include "summary/build_summary.h"
#include "util/json.h"

namespace {

using mvrc::Json;
using Clock = std::chrono::steady_clock;

struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;
  int request = 0;
};

// Spans in memory, plus per-name totals of the measured layer calls.
class Tracer {
 public:
  Tracer() : origin_(Clock::now()) { spans_.reserve(1 << 16); }

  int Begin(std::string name, int parent, int request) {
    spans_.push_back({std::move(name), Now(), 0, parent, request});
    return static_cast<int>(spans_.size()) - 1;
  }

  // Closes span `index`; returns its duration in seconds and adds it to the
  // totals of its name when `measured` (i.e. it counts towards a metric).
  double End(int index, bool measured = true) {
    Span& span = spans_[index];
    span.end_ns = Now();
    const double seconds = (span.end_ns - span.start_ns) * 1e-9;
    if (measured) {
      totals_[span.name].seconds += seconds;
      totals_[span.name].calls += 1;
    }
    return seconds;
  }

  double Seconds(const std::string& name) const { return Find(name).seconds; }
  int64_t Calls(const std::string& name) const { return Find(name).calls; }
  double MeanMs(const std::string& name) const {
    const Total& total = Find(name);
    return total.calls == 0 ? 0.0 : 1e3 * total.seconds / static_cast<double>(total.calls);
  }
  void AddSeconds(const std::string& name, double seconds) {
    totals_[name].seconds += seconds;
    totals_[name].calls += 1;
  }

  bool Write(const std::string& path) const {
    std::ofstream out(path);
    out << "[";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (i == 0 ? "\n" : ",\n") << "{\"id\":" << i << ",\"name\":\"" << s.name
          << "\",\"start_us\":" << s.start_ns / 1000 << ",\"end_us\":" << s.end_ns / 1000
          << ",\"parent\":" << s.parent << ",\"request\":" << s.request << "}";
    }
    out << "\n]\n";
    return static_cast<bool>(out);
  }

 private:
  struct Total {
    double seconds = 0;
    int64_t calls = 0;
  };
  const Total& Find(const std::string& name) const {
    static const Total kNone;
    auto it = totals_.find(name);
    return it == totals_.end() ? kNone : it->second;
  }
  int64_t Now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_).count();
  }

  const Clock::time_point origin_;
  std::vector<Span> spans_;
  std::map<std::string, Total> totals_;
};

// Counts that become per-round metrics (only requests of the timed rounds
// are counted; the setup is not).
struct Counts {
  int64_t sql_bytes = 0;
  int64_t ltps = 0;
  int64_t edges = 0;
  int64_t edge_bytes = 0;
  int64_t detector_queries = 0;  // both regimes
  int64_t masks_swept = 0;       // exhaustive regime
  int64_t core_queries = 0;      // core-guided regime
  int64_t cores = 0;
  int64_t snapshot_bytes = 0;
  int64_t schedules = 0;
  int64_t bindings = 0;
  int64_t cells_computed = 0;
  int64_t stmt_pairs = 0;
  int64_t cache_hits = 0;
  int64_t cache_misses = 0;
  int64_t cache_entries = 0;
  double protocol_self_s = 0;
  int64_t requests = 0;
};

// The from-scratch view of one session: its schema and programs.
struct Shadow {
  mvrc::AnalysisSettings settings;
  mvrc::Schema schema;
  int label = 0;
  std::vector<mvrc::Btp> programs;
  std::vector<std::vector<mvrc::Ltp>> ltps;  // parallel to programs
};

mvrc::AnalysisSettings SettingsOf(const Json& request) {
  const std::string text = request.GetString("settings", "attr+fk");
  mvrc::Result<mvrc::AnalysisSettings> parsed = mvrc::AnalysisSettings::Parse(text);
  mvrc::AnalysisSettings settings =
      parsed.ok() ? parsed.value() : mvrc::AnalysisSettings::AttrDepFk();
  std::optional<mvrc::IsolationLevel> level =
      mvrc::ParseIsolationLevel(request.GetString("isolation", ""));
  if (level.has_value()) settings.isolation = *level;
  return settings;
}

mvrc::Method MethodOf(const Json& request) {
  return request.GetString("method") == "type1" ? mvrc::Method::kTypeI : mvrc::Method::kTypeII;
}

Json NamesOf(const std::vector<int>& indices, const std::vector<mvrc::Btp>& programs) {
  Json names = Json::Array();
  for (int i : indices) names.Append(Json::Str(programs[i].name()));
  return names;
}

int64_t FileBytes(const std::string& path) {
  struct stat st;
  return stat(path.c_str(), &st) == 0 ? static_cast<int64_t>(st.st_size) : 0;
}

class Replayer {
 public:
  Replayer(const std::string& state_dir, bool daemon_state)
      : session_store_(state_dir + "/session"),
        daemon_store_(state_dir + "/protocol") {
    mkdir(state_dir.c_str(), 0755);
    if (!session_store_.Init().ok()) std::fprintf(stderr, "session store init failed\n");
    if (daemon_state) {
      if (!daemon_store_.Init().ok()) std::fprintf(stderr, "protocol store init failed\n");
      options_.store = &daemon_store_;
    }
  }

  // Replays one request; `counted` adds its work to the per-round counts,
  // `totals` (optional) receives the independently computed answer.
  void Replay(const Json& request, int id, bool counted, Json* totals) {
    const std::string cmd = request.GetString("cmd");
    const std::string request_line = request.Dump();
    const int root = tracer_.Begin("request", -1, id);

    // 1. Protocol.
    const int protocol_span = tracer_.Begin("protocol.request", root, id);
    const std::string answer = mvrc::HandleRequestLine(manager_, request_line, options_);
    const double protocol_s = tracer_.End(protocol_span);

    // 2. Session (+ snapshot after mutations).
    double session_s = 0, persist_s = 0;
    SessionCall(request, cmd, root, id, counted, &session_s, &persist_s);

    // 3. Lower layers on the from-scratch path.
    if (totals != nullptr) *totals = Json::Object();
    LayerCalls(request, cmd, root, id, counted, totals);
    tracer_.End(root, false);

    if (counted) {
      counts_.requests += 1;
      counts_.protocol_self_s +=
          protocol_s - session_s - (options_.store != nullptr ? persist_s : 0.0);
    }
    if (totals != nullptr) {
      mvrc::Result<Json> response = Json::Parse(answer);
      if (response.ok()) totals->Set("protocol", std::move(response).value());
      totals->SetFront("cmd", Json::Str(cmd));
    }
  }

  const Tracer& tracer() const { return tracer_; }
  const Counts& counts() const { return counts_; }

 private:
  mvrc::WorkloadSession* Session(const Json& request) {
    const std::string name = request.GetString("session");
    auto it = sessions_.find(name);
    if (it == sessions_.end()) {
      it = sessions_
               .emplace(name, std::make_unique<mvrc::WorkloadSession>(name, SettingsOf(request)))
               .first;
    }
    return it->second.get();
  }

  void SessionCall(const Json& request, const std::string& cmd, int root, int id, bool counted,
                   double* session_s, double* persist_s) {
    mvrc::WorkloadSession* session = nullptr;
    if (cmd != "drop_session") session = Session(request);
    bool mutation = false;
    if (cmd == "load_sql" || cmd == "add_program") {
      const int span = tracer_.Begin("session.load", root, id);
      (void)session->LoadSql(request.GetString("sql"));
      *session_s = tracer_.End(span);
      mutation = true;
    } else if (cmd == "replace_program" || cmd == "remove_program") {
      const int span = tracer_.Begin("session.mutate", root, id);
      if (cmd == "replace_program") {
        (void)session->ReplaceProgramSql(request.GetString("sql"));
      } else {
        (void)session->RemoveProgram(request.GetString("name"));
      }
      *session_s = tracer_.End(span);
      mutation = true;
    } else if (cmd == "check") {
      const int span = tracer_.Begin("session.check", root, id);
      (void)session->Check(MethodOf(request));
      *session_s = tracer_.End(span);
    } else if (cmd == "subsets") {
      const int span = tracer_.Begin("session.subsets", root, id);
      (void)session->Subsets(MethodOf(request));
      *session_s = tracer_.End(span);
    } else if (cmd == "counterexample") {
      const int span = tracer_.Begin("session.counterexample", root, id);
      (void)session->SearchCounterexample(SearchOptionsOf(request), nullptr);
      *session_s = tracer_.End(span);
    } else if (cmd == "stats") {
      const int span = tracer_.Begin("session.stats", root, id);
      (void)session->stats();
      *session_s = tracer_.End(span);
    } else if (cmd == "drop_session") {
      const std::string name = request.GetString("session");
      auto it = sessions_.find(name);
      if (it != sessions_.end()) {
        if (counted) {
          const mvrc::SessionStats stats = it->second->stats();
          counts_.cells_computed += stats.cells_computed;
          counts_.stmt_pairs += stats.stmt_pairs_evaluated;
          counts_.cache_hits += stats.verdict_cache_hits;
          counts_.cache_misses += stats.verdict_cache_misses;
          counts_.cache_entries += stats.verdict_cache_size;
        }
        (void)session_store_.Remove(mvrc::SnapshotStore::EncodeKey(name));
        sessions_.erase(it);
      }
    }
    if (mutation) {
      const int span = tracer_.Begin("persist.snapshot", root, id);
      (void)mvrc::TrySnapshotSession(session_store_, *session);
      *persist_s = tracer_.End(span);
      if (counted) {
        counts_.snapshot_bytes += FileBytes(session_store_.PathForKey(
            mvrc::SnapshotStore::EncodeKey(session->name())));
      }
    }
  }

  static mvrc::SearchOptions SearchOptionsOf(const Json& request) {
    mvrc::SearchOptions options;
    options.domain_size = static_cast<int>(request.GetInt("domain_size", 2));
    options.max_txns = static_cast<int>(request.GetInt("max_txns", 3));
    options.max_schedules = request.GetInt("max_schedules", 2'000'000);
    return options;
  }

  void ParseInto(Shadow& shadow, const std::string& sql, int root, int id, bool counted,
                 bool replace) {
    const int parse_span = tracer_.Begin("sql.parse", root, id);
    mvrc::Result<mvrc::Workload> parsed =
        mvrc::ParseWorkloadSqlInto(sql, shadow.schema, shadow.label);
    tracer_.End(parse_span);
    if (!parsed.ok()) return;
    if (counted) counts_.sql_bytes += static_cast<int64_t>(sql.size());
    shadow.schema = parsed.value().schema;
    const int unfold_span = tracer_.Begin("btp.unfold", root, id);
    std::vector<std::vector<mvrc::Ltp>> unfolded;
    for (const mvrc::Btp& program : parsed.value().programs) {
      unfolded.push_back(mvrc::UnfoldAtMost2(program));
    }
    tracer_.End(unfold_span);
    for (size_t p = 0; p < unfolded.size(); ++p) {
      const mvrc::Btp& program = parsed.value().programs[p];
      shadow.label += program.num_statements();
      if (counted) counts_.ltps += static_cast<int64_t>(unfolded[p].size());
      size_t at = shadow.programs.size();
      if (replace) {
        for (size_t i = 0; i < shadow.programs.size(); ++i) {
          if (shadow.programs[i].name() == program.name()) at = i;
        }
      }
      if (at == shadow.programs.size()) {
        shadow.programs.push_back(program);
        shadow.ltps.push_back(std::move(unfolded[p]));
      } else {
        shadow.programs[at] = program;
        shadow.ltps[at] = std::move(unfolded[p]);
      }
    }
  }

  std::vector<mvrc::Ltp> AllLtps(const Shadow& shadow) const {
    std::vector<mvrc::Ltp> all;
    for (const auto& ltps : shadow.ltps) all.insert(all.end(), ltps.begin(), ltps.end());
    return all;
  }

  mvrc::SummaryGraph Build(const Shadow& shadow, int root, int id, bool counted) {
    const int span = tracer_.Begin("summary.build", root, id);
    mvrc::SummaryGraph graph = mvrc::BuildSummaryGraph(AllLtps(shadow), shadow.settings);
    tracer_.End(span);
    if (counted) {
      counts_.edges += graph.num_edges();
      counts_.edge_bytes += static_cast<int64_t>(graph.num_edges()) * sizeof(mvrc::SummaryEdge);
    }
    return graph;
  }

  void LayerCalls(const Json& request, const std::string& cmd, int root, int id, bool counted,
                  Json* totals) {
    const std::string name = request.GetString("session");
    if (cmd == "drop_session") {
      shadows_.erase(name);
      return;
    }
    if (cmd == "load_sql" || cmd == "add_program") {
      auto [it, created] = shadows_.try_emplace(name);
      if (created) it->second.settings = SettingsOf(request);
      ParseInto(it->second, request.GetString("sql"), root, id, counted, false);
      return;
    }
    auto it = shadows_.find(name);
    if (it == shadows_.end()) return;
    Shadow& shadow = it->second;
    if (cmd == "replace_program") {
      ParseInto(shadow, request.GetString("sql"), root, id, counted, true);
    } else if (cmd == "remove_program") {
      const std::string program = request.GetString("name");
      for (size_t i = 0; i < shadow.programs.size(); ++i) {
        if (shadow.programs[i].name() == program) {
          shadow.programs.erase(shadow.programs.begin() + i);
          shadow.ltps.erase(shadow.ltps.begin() + i);
          break;
        }
      }
    } else if (cmd == "check") {
      mvrc::SummaryGraph graph = Build(shadow, root, id, counted);
      const int span = tracer_.Begin("detect.cycle_test", root, id);
      mvrc::CycleTestOutcome outcome =
          mvrc::RunCycleTest(graph, MethodOf(request), shadow.settings.policy());
      tracer_.End(span);
      if (totals != nullptr) {
        totals->Set("robust", Json::Bool(outcome.robust));
        totals->Set("num_programs", Json::Int(static_cast<int64_t>(shadow.programs.size())));
        totals->Set("num_unfolded", Json::Int(graph.num_programs()));
        totals->Set("num_edges", Json::Int(graph.num_edges()));
        totals->Set("num_counterflow_edges", Json::Int(graph.num_counterflow_edges()));
      }
    } else if (cmd == "subsets") {
      Subsets(shadow, MethodOf(request), root, id, counted, totals);
    } else if (cmd == "counterexample") {
      mvrc::SearchStats stats;
      const std::vector<mvrc::Ltp> ltps = AllLtps(shadow);
      const int span = tracer_.Begin("search.find", root, id);
      std::optional<mvrc::Counterexample> found =
          mvrc::FindCounterexample(ltps, SearchOptionsOf(request), &stats);
      tracer_.End(span);
      if (counted) {
        counts_.schedules += stats.schedules_checked;
        counts_.bindings += stats.bindings_checked;
      }
      if (totals != nullptr) {
        totals->Set("found", Json::Bool(found.has_value()));
        totals->Set("schedules_checked", Json::Int(stats.schedules_checked));
        totals->Set("bindings_checked", Json::Int(stats.bindings_checked));
      }
    }
  }

  void Subsets(const Shadow& shadow, mvrc::Method method, int root, int id, bool counted,
               Json* totals) {
    const int n = static_cast<int>(shadow.programs.size());
    if (!mvrc::CoreSearchProgramCountOk(n)) return;
    mvrc::SummaryGraph graph = Build(shadow, root, id, counted);
    std::vector<std::pair<int, int>> ranges;
    int offset = 0;
    for (const auto& ltps : shadow.ltps) {
      ranges.push_back({offset, offset + static_cast<int>(ltps.size())});
      offset += static_cast<int>(ltps.size());
    }
    const int precompute_span = tracer_.Begin("detect.precompute", root, id);
    mvrc::MaskedDetector detector(graph, std::move(ranges), shadow.settings.policy());
    tracer_.End(precompute_span);

    // Hooks that count the detector evaluations and, in the core-guided
    // regime, memoize verdicts within this one search the way a cold
    // session cache does — so detector_queries is comparable with the
    // daemon's answer on a fresh session.
    const bool exhaustive = mvrc::SubsetProgramCountOk(n);
    int64_t queries = 0;
    std::map<mvrc::ProgramSet, bool> memo;
    mvrc::SubsetSweepHooks hooks;
    if (exhaustive) {
      hooks.lookup = [](uint32_t) { return std::optional<bool>(); };
      hooks.store = [&queries](uint32_t, bool) { ++queries; };
    } else {
      hooks.wide_lookup = [&memo](const mvrc::ProgramSet& set) {
        auto it = memo.find(set);
        return it == memo.end() ? std::optional<bool>() : std::optional<bool>(it->second);
      };
      hooks.wide_store = [&memo](const mvrc::ProgramSet& set, bool robust) {
        memo.emplace(set, robust);
      };
    }
    const int search_span = tracer_.Begin("lattice.search", root, id);
    mvrc::Result<mvrc::SubsetReport> report =
        exhaustive ? mvrc::AnalyzeSubsetsOnDetector(detector, method, nullptr, &hooks)
                   : mvrc::AnalyzeSubsetsCoreGuided(detector, method, nullptr, &hooks);
    const double search_s = tracer_.End(search_span);
    if (!report.ok()) return;
    if (!exhaustive) queries = report.value().detector_queries;
    if (queries > 0) tracer_.AddSeconds("detect.query", search_s / static_cast<double>(queries));
    if (counted) {
      counts_.detector_queries += queries;
      (exhaustive ? counts_.masks_swept : counts_.core_queries) += queries;
      counts_.cores += static_cast<int64_t>(report.value().cores.size());
    }
    if (totals == nullptr) return;
    Json maximal = Json::Array();
    if (exhaustive) {
      for (uint32_t mask : report.value().maximal_masks) {
        std::vector<int> members;
        for (int i = 0; i < n; ++i) {
          if ((mask >> i) & 1) members.push_back(i);
        }
        maximal.Append(NamesOf(members, shadow.programs));
      }
    } else {
      for (const mvrc::ProgramSet& set : report.value().maximal_sets) {
        maximal.Append(NamesOf(set.ToIndices(), shadow.programs));
      }
      Json cores = Json::Array();
      for (const mvrc::ProgramSet& core : report.value().cores) {
        cores.Append(NamesOf(core.ToIndices(), shadow.programs));
      }
      totals->Set("cores", std::move(cores));
      totals->Set("detector_queries", Json::Int(queries));
    }
    totals->Set("search", Json::Str(exhaustive ? "exhaustive" : "core_guided"));
    totals->Set("maximal", std::move(maximal));
  }

  Tracer tracer_;
  Counts counts_;
  mvrc::SessionManager manager_;
  mvrc::SnapshotStore session_store_;
  mvrc::SnapshotStore daemon_store_;
  mvrc::ProtocolOptions options_;
  std::map<std::string, std::unique_ptr<mvrc::WorkloadSession>> sessions_;
  std::map<std::string, Shadow> shadows_;
};

Json Metric(double value, const char* unit) {
  Json metric = Json::Object();
  metric.Set("value", Json::Number(value));
  metric.Set("unit", Json::Str(unit));
  return metric;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

Json Metrics(const Tracer& t, const Counts& c, int rounds) {
  const double r = rounds;
  Json m = Json::Object();
  m.Set("sql.parse_ms", Metric(t.MeanMs("sql.parse"), "ms"));
  m.Set("sql.mb_per_s", Metric(Ratio(c.sql_bytes / 1e6, t.Seconds("sql.parse")), "MB/s"));
  m.Set("btp.unfold_ms", Metric(t.MeanMs("btp.unfold"), "ms"));
  m.Set("btp.ltps", Metric(c.ltps / r, "count"));
  m.Set("summary.build_ms", Metric(t.MeanMs("summary.build"), "ms"));
  m.Set("summary.edges", Metric(c.edges / r, "count"));
  m.Set("summary.edges_per_s", Metric(Ratio(c.edges, t.Seconds("summary.build")), "1/s"));
  m.Set("summary.edge_mb",
        Metric(Ratio(c.edge_bytes / 1e6, t.Calls("summary.build")), "MB"));
  m.Set("detect.cycle_test_ms", Metric(t.MeanMs("detect.cycle_test"), "ms"));
  m.Set("detect.precompute_ms", Metric(t.MeanMs("detect.precompute"), "ms"));
  m.Set("detect.query_us", Metric(1e3 * t.MeanMs("detect.query"), "us"));
  m.Set("lattice.search_ms", Metric(t.MeanMs("lattice.search"), "ms"));
  m.Set("lattice.detector_queries", Metric(c.detector_queries / r, "count"));
  m.Set("lattice.masks_swept", Metric(c.masks_swept / r, "count"));
  m.Set("lattice.cores", Metric(c.cores / r, "count"));
  m.Set("lattice.queries_per_core",
        Metric(Ratio(static_cast<double>(c.core_queries), static_cast<double>(c.cores)),
               "count"));
  m.Set("session.load_ms", Metric(t.MeanMs("session.load"), "ms"));
  m.Set("session.mutate_ms", Metric(t.MeanMs("session.mutate"), "ms"));
  m.Set("session.check_ms", Metric(t.MeanMs("session.check"), "ms"));
  m.Set("session.subsets_ms", Metric(t.MeanMs("session.subsets"), "ms"));
  m.Set("session.cells_computed", Metric(c.cells_computed / r, "count"));
  m.Set("session.stmt_pairs", Metric(c.stmt_pairs / r, "count"));
  m.Set("session.cache_hit_ratio",
        Metric(Ratio(static_cast<double>(c.cache_hits),
                     static_cast<double>(c.cache_hits + c.cache_misses)),
               "ratio"));
  m.Set("session.cache_entries", Metric(c.cache_entries / r, "count"));
  m.Set("protocol.self_ms", Metric(1e3 * Ratio(c.protocol_self_s, c.requests), "ms"));
  m.Set("persist.snapshot_ms", Metric(t.MeanMs("persist.snapshot"), "ms"));
  m.Set("persist.snapshot_kb",
        Metric(Ratio(c.snapshot_bytes / 1024.0, t.Calls("persist.snapshot")), "KB"));
  m.Set("search.ms", Metric(t.MeanMs("search.find"), "ms"));
  m.Set("search.schedules", Metric(c.schedules / r, "count"));
  m.Set("search.bindings", Metric(c.bindings / r, "count"));
  m.Set("search.schedules_per_s",
        Metric(Ratio(static_cast<double>(c.schedules), t.Seconds("search.find")), "1/s"));
  return m;
}

// The tracing overhead: the same protocol-only replay on two fresh managers
// configured like the daemon, one recording the traced replay's request and
// protocol spans around every call and one recording nothing. Every request
// runs on both back to back (alternating which goes first), so a change in
// the host's speed falls on both. Returns the drop in request rate the
// spans cost, 100 * (traced - untraced) / traced time.
double TracingOverheadPct(const std::vector<Json>& setup, const std::vector<Json>& round,
                          const std::string& state_dir, bool daemon_state, double min_seconds) {
  struct Side {
    explicit Side(const std::string& dir) : store(dir) {}
    mvrc::SessionManager manager;
    mvrc::SnapshotStore store;
    mvrc::ProtocolOptions options;
    double seconds = 0;
  };
  std::vector<std::string> setup_lines, round_lines;
  for (const Json& entry : setup) setup_lines.push_back(entry.Find("request")->Dump());
  for (const Json& entry : round) round_lines.push_back(entry.Find("request")->Dump());
  std::unique_ptr<Side> sides[2] = {std::make_unique<Side>(state_dir + "/untraced"),
                                    std::make_unique<Side>(state_dir + "/traced")};
  for (const std::unique_ptr<Side>& side : sides) {
    if (daemon_state) {
      if (!side->store.Init().ok()) std::fprintf(stderr, "overhead store init failed\n");
      side->options.store = &side->store;
    }
    for (const std::string& line : setup_lines) {
      (void)mvrc::HandleRequestLine(side->manager, line, side->options);
    }
  }
  Tracer tracer;
  int id = 0, rounds = 0;
  const auto start = Clock::now();
  do {
    for (const std::string& line : round_lines) {
      for (int turn = 0; turn < 2; ++turn) {
        const bool traced = (turn + id) % 2 == 1;
        Side& side = *sides[traced ? 1 : 0];
        const auto begin = Clock::now();
        if (traced) {
          const int root = tracer.Begin("request", -1, id);
          const int span = tracer.Begin("protocol.request", root, id);
          (void)mvrc::HandleRequestLine(side.manager, line, side.options);
          tracer.End(span);
          tracer.End(root, false);
        } else {
          (void)mvrc::HandleRequestLine(side.manager, line, side.options);
        }
        side.seconds += std::chrono::duration<double>(Clock::now() - begin).count();
      }
      ++id;
    }
    ++rounds;
  } while (rounds < 2 ||
           std::chrono::duration<double>(Clock::now() - start).count() < min_seconds);
  return 100.0 * Ratio(sides[1]->seconds - sides[0]->seconds, sides[1]->seconds);
}

std::string Flag(int argc, char** argv, const std::string& name, const std::string& fallback) {
  const std::string prefix = "--" + name + "=";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind(prefix, 0) == 0) return arg.substr(prefix.size());
    if (arg == "--" + name) return "1";
  }
  return fallback;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string requests_path = Flag(argc, argv, "requests", "");
  const std::string spans_path = Flag(argc, argv, "spans", "");
  const std::string state_dir = Flag(argc, argv, "state-dir", "");
  const double min_seconds = std::stod(Flag(argc, argv, "min-seconds", "1"));
  if (requests_path.empty() || spans_path.empty() || state_dir.empty()) {
    std::fprintf(stderr,
                 "usage: perfbench_trace --requests=FILE --spans=FILE --state-dir=DIR "
                 "[--daemon-state] [--min-seconds=S]\n");
    return 2;
  }
  std::vector<Json> setup, round;  // {"request": {...}, "setup"/"side": true}
  {
    std::ifstream in(requests_path);
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty()) continue;
      mvrc::Result<Json> entry = Json::Parse(line);
      if (!entry.ok() || entry.value().Find("request") == nullptr) {
        std::fprintf(stderr, "bad request line: %s\n", line.c_str());
        return 2;
      }
      (entry.value().GetBool("setup") ? setup : round).push_back(std::move(entry).value());
    }
  }
  if (round.empty()) {
    std::fprintf(stderr, "no round requests in %s\n", requests_path.c_str());
    return 2;
  }

  const bool daemon_state = Flag(argc, argv, "daemon-state", "") == "1";
  Json out = Json::Object();
  {
    Replayer replayer(state_dir, daemon_state);
    Json totals = Json::Array();
    int id = 0;
    for (const Json& entry : setup) {
      Json total;
      replayer.Replay(*entry.Find("request"), id++, false, &total);
      totals.Append(std::move(total));
    }
    const auto start = Clock::now();
    int rounds = 0;
    do {
      for (const Json& entry : round) {
        Json total;
        replayer.Replay(*entry.Find("request"), id++, true, rounds == 0 ? &total : nullptr);
        if (rounds == 0) {
          if (entry.GetBool("side")) total.Set("side", Json::Bool(true));
          totals.Append(std::move(total));
        }
      }
      ++rounds;
    } while (std::chrono::duration<double>(Clock::now() - start).count() < min_seconds);

    if (!replayer.tracer().Write(spans_path)) {
      std::fprintf(stderr, "cannot write %s\n", spans_path.c_str());
      return 1;
    }
    out.Set("rounds", Json::Int(rounds));
    out.Set("metrics", Metrics(replayer.tracer(), replayer.counts(), rounds));
    out.Set("totals", std::move(totals));
  }
  out.Set("tracing_overhead_pct",
          Json::Number(TracingOverheadPct(setup, round, state_dir, daemon_state,
                                          min_seconds / 2)));
  std::cout << out.Dump() << std::endl;
  return 0;
}
