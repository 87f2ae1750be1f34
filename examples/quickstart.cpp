// Quickstart: model two transaction programs as BTPs through the builder
// API, run the robustness detector, and inspect the summary graph.
//
// The programs are the paper's running example (§2): an auction service
// with FindBids (predicate read over current bids) and PlaceBid
// (conditional bid update plus an audit-log insert). The set is robust
// against MVRC — every interleaving read-committed allows is serializable —
// even though the baseline type-I analysis cannot see it.

#include <cstdio>

#include "btp/program.h"
#include "robust/detector.h"
#include "schema/schema.h"
#include "summary/build_summary.h"

using namespace mvrc;

int main() {
  // 1. Declare the schema: relations with attributes and keys, foreign keys.
  Schema schema;
  RelationId buyer = schema.AddRelation("Buyer", {"id", "calls"}, {"id"});
  RelationId bids = schema.AddRelation("Bids", {"buyerId", "bid"}, {"buyerId"});
  RelationId log = schema.AddRelation("Log", {"id", "buyerId", "bid"}, {"id"});
  ForeignKeyId f1 = schema.AddForeignKey("f1", bids, {"buyerId"}, buyer);
  ForeignKeyId f2 = schema.AddForeignKey("f2", log, {"buyerId"}, buyer);

  // 2. Model the programs. Each statement carries its type, relation and
  //    the attribute sets the analysis needs (Figure 2 of the paper).
  Btp find_bids("FindBids");
  find_bids.AddStatement(Statement::KeyUpdate("q1", schema, buyer,
                                              schema.MakeAttrSet(buyer, {"calls"}),
                                              schema.MakeAttrSet(buyer, {"calls"})));
  find_bids.AddStatement(Statement::PredSelect("q2", schema, bids,
                                               schema.MakeAttrSet(bids, {"bid"}),
                                               schema.MakeAttrSet(bids, {"bid"})));

  Btp place_bid("PlaceBid");
  StmtId q3 = place_bid.AddStatement(Statement::KeyUpdate(
      "q3", schema, buyer, schema.MakeAttrSet(buyer, {"calls"}),
      schema.MakeAttrSet(buyer, {"calls"})));
  StmtId q4 = place_bid.AddStatement(
      Statement::KeySelect("q4", schema, bids, schema.MakeAttrSet(bids, {"bid"})));
  StmtId q5 = place_bid.AddStatement(Statement::KeyUpdate(
      "q5", schema, bids, AttrSet{}, schema.MakeAttrSet(bids, {"bid"})));
  StmtId q6 = place_bid.AddStatement(Statement::Insert("q6", schema, log));
  // Control flow: q5 runs only when the new bid is higher -> (q5 | eps).
  place_bid.Finish(place_bid.Seq({place_bid.Stmt(q3), place_bid.Stmt(q4),
                                  place_bid.Optional(place_bid.Stmt(q5)),
                                  place_bid.Stmt(q6)}));
  // Foreign-key annotations: the Bids and Log rows belong to the buyer
  // updated by q3.
  place_bid.AddFkConstraint(schema, q3, f1, q4);
  place_bid.AddFkConstraint(schema, q3, f1, q5);
  place_bid.AddFkConstraint(schema, q3, f2, q6);

  std::vector<Btp> workload;
  workload.push_back(std::move(find_bids));
  workload.push_back(std::move(place_bid));

  // 3. Run the detector.
  bool robust = IsRobustUnder(workload, AnalysisSettings::AttrDepFk(), Method::kTypeII);
  bool type1_robust = IsRobustUnder(workload, AnalysisSettings::AttrDepFk(), Method::kTypeI);
  std::printf("{FindBids, PlaceBid} robust against MVRC (Algorithm 2): %s\n",
              robust ? "yes" : "no");
  std::printf("  ... the type-I baseline [3] would say:               %s\n",
              type1_robust ? "yes" : "no");

  // 4. Inspect the summary graph (Figure 4); counterflow edges are dashed.
  SummaryGraph graph = BuildSummaryGraph(workload, AnalysisSettings::AttrDepFk());
  std::printf("\nsummary graph: %d programs, %d edges (%d counterflow)\n",
              graph.num_programs(), graph.num_edges(), graph.num_counterflow_edges());
  for (const SummaryEdge& edge : graph.edges()) {
    if (edge.counterflow) {
      std::printf("counterflow edge: %s\n", graph.DescribeEdge(edge).c_str());
    }
  }
  std::printf("\n%s", graph.ToDot("auction").c_str());
  return robust ? 0 : 1;
}
