// Certification: combine the sound-but-incomplete detector with the
// exhaustive counterexample search. A workload rejected by Algorithm 2
// either gets a concrete MVRC-allowed non-serializable schedule (the
// rejection is certainly correct) or the bounded search stays clean and the
// verdict may be a false negative (like TPC-C's {Delivery}, §7.2).

#ifndef MVRC_ROBUST_CERTIFY_H_
#define MVRC_ROBUST_CERTIFY_H_

#include <optional>
#include <string>

#include "robust/detector.h"
#include "schema/schema.h"
#include "search/counterexample.h"
#include "summary/summary_graph.h"

namespace mvrc {

struct CertificationOutcome {
  /// Algorithm 2's verdict.
  bool detector_robust = false;
  /// The summary-graph witness when not robust.
  std::optional<TypeIIWitness> witness;
  /// A concrete counterexample schedule, when the search found one.
  std::optional<Counterexample> counterexample;
  SearchStats search_stats;

  /// The three possible outcomes.
  bool IsCertifiedRobust() const { return detector_robust; }
  bool IsCertifiedNonRobust() const { return counterexample.has_value(); }
  bool IsPossibleFalseNegative() const {
    return !detector_robust && !counterexample.has_value();
  }

  /// Renders the outcome; `graph` is the one certified, `schema` the
  /// workload's (for the counterexample's tuples).
  std::string Describe(const SummaryGraph& graph, const Schema& schema) const;
};

/// Runs the type-II detector on `graph` — a summary graph over Unfold≤2 of
/// the workload, e.g. WorkloadSession::Graph() — and, when it rejects,
/// attempts to certify the rejection by searching for a counterexample over
/// the graph's LTPs within `search_options`. Both halves use MVRC semantics
/// (the schedule search knows no other); the graph's edges do not depend on
/// the isolation level it was built for.
CertificationOutcome CertifyRobustness(const SummaryGraph& graph,
                                       const SearchOptions& search_options = {});

}  // namespace mvrc

#endif  // MVRC_ROBUST_CERTIFY_H_
