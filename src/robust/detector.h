// Robustness detection (paper §6.3), dispatched through the isolation
// policy of summary/isolation_policy.h.
//
// MVRC type-II test (Algorithm 2 / Theorem 6.4): a set of LTPs is reported
// robust when the summary graph contains no cycle with at least one
// non-counterflow edge and either (1) two adjacent counterflow edges, or
// (2) a non-counterflow edge (P_{i-1}, q_{i-1}, nc, q_i, P_i) immediately
// followed by a counterflow edge (P_i, q'_i, cf, q_{i+1}, P_{i+1}) where
// q'_i <_{P_i} q_i or type(q_{i-1}) ∈ {key sel, pred sel, pred upd,
// pred del}.
//
// Lock-based RC test (CycleClosure::kDirect policies): robust when no cycle
// has the split-schedule shape — a counterflow edge (P_1, b_1, cf, a_2, P_2)
// out of a split program P_1, a program path P_2 ~> P_n, and a closing
// non-counterflow edge (P_n, b_n, nc, a_1, P_1) with b_1 <_{P_1} a_1. See
// isolation_policy.h for the derivation from the transaction-template
// characterization.
//
// Type-I test (baseline, Alomari & Fekete [3]): robust when no cycle
// contains a counterflow edge. Policy-independent.
//
// All tests are sound but incomplete: `false` does not imply the workload
// is actually non-robust (Proposition 6.5).
//
// Two MVRC type-II implementations are provided: FindTypeIICycleNaive
// follows Algorithm 2 literally (O(|E|^3) edge triples with per-pair
// reachability); FindTypeIICycle factors the reachability conjunction
// through boolean matrix products and is the default. They are
// equivalence-tested in tests/detector_test.cc.
//
// The Find* functions are the per-closure building blocks; IsRobust and
// RunCycleTest are the policy-correct entry points that pick the right
// search for the policy's CycleClosure.

#ifndef MVRC_ROBUST_DETECTOR_H_
#define MVRC_ROBUST_DETECTOR_H_

#include <optional>
#include <string>
#include <vector>

#include "btp/program.h"
#include "schema/schema.h"
#include "summary/build_summary.h"
#include "summary/isolation_policy.h"
#include "summary/summary_graph.h"

namespace mvrc {

/// Witness of a type-I cycle: a counterflow edge lying on a cycle.
struct TypeIWitness {
  SummaryEdge edge;
  std::vector<int> return_path;  // program path edge.to_program -> edge.from_program

  std::string Describe(const SummaryGraph& graph) const;
};

/// Witness of a type-II cycle, in Algorithm 2's terms: a non-counterflow
/// edge e1 = (P1,q1,nc,q2,P2), an edge e3 = (P3,q3,c,q4,P4) with P3 reachable
/// from P2, and a counterflow edge e4 = (P4,q4',cf,q5,P5) with P1 reachable
/// from P5, such that c = cf, or q4' <_{P4} q4, or type(q3) is a (predicate)
/// read type.
struct TypeIIWitness {
  SummaryEdge e1;
  SummaryEdge e3;
  SummaryEdge e4;
  std::vector<int> path_p2_to_p3;  // program path, inclusive
  std::vector<int> path_p5_to_p1;  // program path, inclusive

  std::string Describe(const SummaryGraph& graph) const;
};

/// Witness of a lock-based-RC split cycle: the split program P_1 =
/// outgoing.from_program is interrupted after its read b_1 = outgoing
/// source occurrence; the closing dependency re-enters P_1 at incoming's
/// target occurrence a_1, strictly after b_1.
struct RcSplitWitness {
  SummaryEdge incoming;  // (P_n, b_n, nc, a_1, P_1), non-counterflow
  SummaryEdge outgoing;  // (P_1, b_1, cf, a_2, P_2), counterflow, b_1 < a_1
  std::vector<int> return_path;  // program path P_2 ~> P_n, inclusive

  std::string Describe(const SummaryGraph& graph) const;
};

/// Detection methods.
enum class Method {
  kTypeI,        // baseline [3]
  kTypeII,       // policy cycle test, optimized implementation
  kTypeIINaive,  // policy cycle test, literal implementation (MVRC only;
                 // kDirect policies share the optimized search)
};

/// Algorithm 2's innermost disjunct for an adjacent edge pair e3 =
/// (P3,q3,c,q4,P4) and e4 = (P4,q4',cf,q5,P5), dispatched through `policy`
/// (see IsolationPolicy::DangerousAdjacentPair). Shared by the cycle
/// searches and the MaskedDetector precomputation (robust/masked_detector.h).
bool AdjacentPairCondition(const SummaryGraph& graph, const SummaryEdge& e3,
                           const SummaryEdge& e4, const IsolationPolicy& policy);

/// MVRC-policy shorthand (the pre-policy behavior).
bool AdjacentPairCondition(const SummaryGraph& graph, const SummaryEdge& e3,
                           const SummaryEdge& e4);

/// Returns a type-I cycle witness, or nullopt when none exists.
std::optional<TypeIWitness> FindTypeICycle(const SummaryGraph& graph);

/// Returns a type-II cycle witness, or nullopt when none exists. Runs the
/// through-nc closure search; meaningful for
/// CycleClosure::kThroughNonCounterflowEdge policies.
std::optional<TypeIIWitness> FindTypeIICycle(
    const SummaryGraph& graph,
    const IsolationPolicy& policy = GetPolicy(IsolationLevel::kMvrc));

/// Literal Algorithm 2. Equivalent to FindTypeIICycle (the found witnesses
/// may differ; existence agrees).
std::optional<TypeIIWitness> FindTypeIICycleNaive(
    const SummaryGraph& graph,
    const IsolationPolicy& policy = GetPolicy(IsolationLevel::kMvrc));

/// Returns a split-cycle witness under a CycleClosure::kDirect policy, or
/// nullopt when none exists.
std::optional<RcSplitWitness> FindRcSplitCycle(
    const SummaryGraph& graph, const IsolationPolicy& policy = GetPolicy(IsolationLevel::kRc));

/// True when `graph` passes the chosen test under `policy`.
bool IsRobust(const SummaryGraph& graph, Method method,
              const IsolationPolicy& policy = GetPolicy(IsolationLevel::kMvrc));

/// Verdict plus rendered witness (empty when robust) — the shared
/// check-and-describe path of the report builder and the analysis service.
struct CycleTestOutcome {
  bool robust = true;
  std::string witness;
};
CycleTestOutcome RunCycleTest(const SummaryGraph& graph, Method method,
                              const IsolationPolicy& policy);

/// End-to-end: Unfold≤2, Algorithm 1, then the cycle test of
/// settings.isolation's policy.
bool IsRobustUnder(const std::vector<Btp>& programs, const AnalysisSettings& settings,
                   Method method = Method::kTypeII);

}  // namespace mvrc

#endif  // MVRC_ROBUST_DETECTOR_H_
