// Algorithm 1 (paper §6.2): constructSuG — builds the summary graph for a
// set of LTPs under the chosen analysis settings.
//
// The default builder is the *interned* one: statements are hash-consed
// into shapes (summary/statement_interner.h), a per-relation shape-pair
// verdict matrix is precomputed, and the per-occurrence-pair work of
// Algorithm 1 collapses to a bucket join plus one byte lookup (plus a
// foreign-key suppression check only on kCounterflowFkCheck entries). The
// edge sequence is bit-identical to the legacy per-pair path, which
// tests/interned_build_test.cc and bench/bench_build_throughput.cc enforce
// differentially against BuildSummaryGraphLegacy.

#ifndef MVRC_SUMMARY_BUILD_SUMMARY_H_
#define MVRC_SUMMARY_BUILD_SUMMARY_H_

#include <vector>

#include "btp/ltp.h"
#include "btp/program.h"
#include "summary/dep_tables.h"
#include "summary/summary_graph.h"

namespace mvrc {

/// The dep-table work unit of Algorithm 1: the edges admitted between one
/// ordered pair of LTPs (non-counterflow before counterflow per statement
/// pair, statement pairs in (q_i, q_j) order). `from_index`/`to_index` are
/// echoed into the edges' from_program/to_program fields, so callers choose
/// the index space. Pass the same Ltp (and index) twice for the diagonal
/// self-pair. This is the *legacy* per-pair evaluator — it runs
/// ncDepTable/cDepTable + ncDepConds/cDepConds per statement pair — kept as
/// the differential oracle for the interned path and for one-off pair
/// queries where building an interner is not worth it.
std::vector<SummaryEdge> SummaryEdgesBetween(const Ltp& from, int from_index, const Ltp& to,
                                             int to_index, const AnalysisSettings& settings);

/// Algorithm 1 via statement-shape interning: for every ordered pair of
/// programs (including P_i = P_j) and every pair of statement occurrences
/// over the same relation, adds a non-counterflow and/or counterflow edge
/// according to the precomputed shape-pair verdict matrix. The returned
/// graph has its CSR index finalized.
SummaryGraph BuildSummaryGraph(std::vector<Ltp> programs, const AnalysisSettings& settings);

/// Convenience wrapper: Unfold≤2 then Algorithm 1.
SummaryGraph BuildSummaryGraph(const std::vector<Btp>& programs,
                               const AnalysisSettings& settings);

/// The pre-interning builder: SummaryEdgesBetween over every program pair,
/// serially. Kept as the baseline the interned builder is differentially
/// gated against (bit-identical edge sequence) and benchmarked against
/// (bench_build_throughput).
SummaryGraph BuildSummaryGraphLegacy(std::vector<Ltp> programs,
                                     const AnalysisSettings& settings);

}  // namespace mvrc

#endif  // MVRC_SUMMARY_BUILD_SUMMARY_H_
