#include "btp/program.h"

#include <gtest/gtest.h>

#include <thread>

#include "btp/unfold.h"

namespace mvrc {
namespace {

class BtpTest : public ::testing::Test {
 protected:
  BtpTest() {
    parent_ = schema_.AddRelation("P", {"p", "v"}, {"p"});
    child_ = schema_.AddRelation("C", {"c", "p"}, {"c"});
    fk_ = schema_.AddForeignKey("f", child_, {"p"}, parent_);
  }

  Statement Sel(const std::string& label, RelationId rel) {
    return Statement::KeySelect(label, schema_, rel, AttrSet{1});
  }

  Schema schema_;
  RelationId parent_ = -1, child_ = -1;
  ForeignKeyId fk_ = -1;
};

TEST_F(BtpTest, DefaultStructureIsLinearSequence) {
  Btp program("P");
  program.AddStatement(Sel("q1", parent_));
  program.AddStatement(Sel("q2", child_));
  // No Finish() call: the effective root is the all-statements sequence.
  EXPECT_TRUE(program.IsLinear());
  std::vector<Ltp> ltps = UnfoldAtMost2(program);
  ASSERT_EQ(ltps.size(), 1u);
  EXPECT_EQ(ltps[0].size(), 2);
}

TEST_F(BtpTest, ConcurrentUnfoldOfOneConstProgram) {
  // A program without Finish() is the default linear sequence; unfolding it
  // must only read the shared const Btp, so two threads may do it at once
  // (run under ThreadSanitizer in CI).
  Btp program("P");
  for (int i = 0; i < 8; ++i) program.AddStatement(Sel("q" + std::to_string(i), parent_));
  const Btp& shared = program;
  std::vector<Ltp> unfolded[2];
  std::thread first([&] {
    for (int round = 0; round < 200; ++round) unfolded[0] = UnfoldAtMost2(shared);
  });
  std::thread second([&] {
    for (int round = 0; round < 200; ++round) unfolded[1] = UnfoldAtMost2(shared);
  });
  first.join();
  second.join();
  for (const std::vector<Ltp>& ltps : unfolded) {
    ASSERT_EQ(ltps.size(), 1u);
    EXPECT_EQ(ltps[0].size(), 8);
  }
  EXPECT_EQ(shared.root(), -1);
  EXPECT_TRUE(shared.IsLinear());
}

TEST_F(BtpTest, IsLinearDetectsControlFlow) {
  Btp with_loop("L");
  StmtId q = with_loop.AddStatement(Sel("q1", parent_));
  with_loop.Finish(with_loop.Loop(with_loop.Stmt(q)));
  EXPECT_FALSE(with_loop.IsLinear());

  Btp with_choice("C");
  StmtId a = with_choice.AddStatement(Sel("q1", parent_));
  StmtId b = with_choice.AddStatement(Sel("q2", parent_));
  with_choice.Finish(with_choice.Choice(with_choice.Stmt(a), with_choice.Stmt(b)));
  EXPECT_FALSE(with_choice.IsLinear());
}

TEST_F(BtpTest, FkConstraintValidation) {
  Btp program("P");
  StmtId qp = program.AddStatement(
      Statement::KeyUpdate("qp", schema_, parent_, AttrSet{}, AttrSet{1}));
  StmtId qc = program.AddStatement(Sel("qc", child_));
  program.AddFkConstraint(schema_, qp, fk_, qc);
  ASSERT_EQ(program.fk_constraints().size(), 1u);
  EXPECT_EQ(program.fk_constraints()[0], (FkConstraint{qp, fk_, qc}));
}

TEST_F(BtpTest, FkConstraintRejectsWrongRelations) {
  Btp program("P");
  StmtId qp = program.AddStatement(Sel("qp", parent_));
  StmtId qc = program.AddStatement(Sel("qc", child_));
  // Swapped parent/child relations: rel(child) must be dom(f).
  EXPECT_DEATH(program.AddFkConstraint(schema_, qc, fk_, qp), "dom");
}

TEST_F(BtpTest, FkConstraintRejectsPredicateParent) {
  Btp program("P");
  StmtId qp = program.AddStatement(
      Statement::PredSelect("qp", schema_, parent_, AttrSet{1}, AttrSet{1}));
  StmtId qc = program.AddStatement(Sel("qc", child_));
  EXPECT_DEATH(program.AddFkConstraint(schema_, qp, fk_, qc), "key-based");
}

TEST_F(BtpTest, DoubleFinishAborts) {
  Btp program("P");
  StmtId q = program.AddStatement(Sel("q1", parent_));
  program.Finish(program.Stmt(q));
  EXPECT_DEATH(program.Finish(program.Stmt(q)), "twice");
}

TEST_F(BtpTest, DebugStringListsStatementsAndConstraints) {
  Btp program("Prog");
  StmtId qp = program.AddStatement(
      Statement::KeyUpdate("qp", schema_, parent_, AttrSet{}, AttrSet{1}));
  StmtId qc = program.AddStatement(Sel("qc", child_));
  program.AddFkConstraint(schema_, qp, fk_, qc);
  std::string text = program.ToDebugString(schema_);
  EXPECT_NE(text.find("BTP Prog"), std::string::npos);
  EXPECT_NE(text.find("qp: key upd P"), std::string::npos);
  EXPECT_NE(text.find("constraint: qp = f(qc)"), std::string::npos);
}

TEST_F(BtpTest, LtpDebugString) {
  Btp program("P");
  program.AddStatement(Sel("q1", parent_));
  program.AddStatement(Sel("q2", child_));
  std::vector<Ltp> ltps = UnfoldAtMost2(program);
  EXPECT_EQ(ltps[0].ToDebugString(), "P = q1; q2");

  Btp empty("E");
  StmtId q = empty.AddStatement(Sel("q1", parent_));
  empty.Finish(empty.Optional(empty.Stmt(q)));
  std::vector<Ltp> unfolded = UnfoldAtMost2(empty);
  ASSERT_EQ(unfolded.size(), 2u);
  EXPECT_EQ(unfolded[1].ToDebugString(), "E2 = <empty>");
}

}  // namespace
}  // namespace mvrc
