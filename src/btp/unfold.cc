#include "btp/unfold.h"

#include <algorithm>
#include <string>
#include <utility>

#include "util/check.h"

namespace mvrc {

namespace {

// A partial unfolding: a sequence of occurrences.
using Fragment = std::vector<Occurrence>;

// Appends (loop_id, iteration) to every occurrence path in `fragment`.
// Paths are stored flattened as pairs of ints, outermost loop first; here we
// prepend because unfolding proceeds bottom-up.
Fragment WithLoopMarker(Fragment fragment, int loop_id, int iteration) {
  for (Occurrence& occ : fragment) {
    occ.loop_path.insert(occ.loop_path.begin(), {loop_id, iteration});
  }
  return fragment;
}

Fragment Concat(Fragment a, const Fragment& b) {
  a.insert(a.end(), b.begin(), b.end());
  return a;
}

std::vector<Fragment> UnfoldNode(const Btp& program, Btp::NodeId id) {
  const Btp::Node& node = program.node(id);
  switch (node.kind) {
    case Btp::NodeKind::kStmt: {
      Occurrence occ{program.statement(node.stmt), node.stmt, {}};
      return {Fragment{std::move(occ)}};
    }
    case Btp::NodeKind::kSeq: {
      std::vector<Fragment> result{Fragment{}};
      for (Btp::NodeId child : node.children) {
        std::vector<Fragment> child_fragments = UnfoldNode(program, child);
        std::vector<Fragment> next;
        next.reserve(result.size() * child_fragments.size());
        for (const Fragment& prefix : result) {
          for (const Fragment& suffix : child_fragments) {
            next.push_back(Concat(prefix, suffix));
          }
        }
        result = std::move(next);
      }
      return result;
    }
    case Btp::NodeKind::kChoice: {
      std::vector<Fragment> result = UnfoldNode(program, node.children[0]);
      std::vector<Fragment> second = UnfoldNode(program, node.children[1]);
      result.insert(result.end(), std::make_move_iterator(second.begin()),
                    std::make_move_iterator(second.end()));
      return result;
    }
    case Btp::NodeKind::kOptional: {
      std::vector<Fragment> result = UnfoldNode(program, node.children[0]);
      result.push_back(Fragment{});  // the eps branch
      return result;
    }
    case Btp::NodeKind::kLoop: {
      std::vector<Fragment> body = UnfoldNode(program, node.children[0]);
      std::vector<Fragment> result;
      // Zero repetitions.
      result.push_back(Fragment{});
      // One repetition: each body unfolding, marked as iteration 0.
      for (const Fragment& f : body) {
        result.push_back(WithLoopMarker(f, id, 0));
      }
      // Two repetitions: every ordered pair of body unfoldings.
      for (const Fragment& f1 : body) {
        for (const Fragment& f2 : body) {
          result.push_back(
              Concat(WithLoopMarker(f1, id, 0), WithLoopMarker(f2, id, 1)));
        }
      }
      return result;
    }
  }
  MVRC_CHECK_MSG(false, "unreachable node kind");
  return {};
}

int CommonPathPrefix(const std::vector<int>& a, const std::vector<int>& b) {
  int n = static_cast<int>(std::min(a.size(), b.size()));
  int len = 0;
  while (len < n && a[len] == b[len]) ++len;
  return len;
}

// Re-binds the BTP's statement-level constraints to occurrence positions.
// For each occurrence of the child statement, the parent occurrence sharing
// the longest loop-path prefix is chosen (ties broken towards the earliest
// position); this binds per-iteration when both statements sit in the same
// loop, and to the unique outer occurrence otherwise.
std::vector<OccFkConstraint> BindConstraints(const Btp& program, const Fragment& fragment) {
  std::vector<OccFkConstraint> bound;
  for (const FkConstraint& c : program.fk_constraints()) {
    for (int child_pos = 0; child_pos < static_cast<int>(fragment.size()); ++child_pos) {
      if (fragment[child_pos].source_stmt != c.child) continue;
      int best_parent = -1;
      int best_prefix = -1;
      for (int parent_pos = 0; parent_pos < static_cast<int>(fragment.size()); ++parent_pos) {
        if (fragment[parent_pos].source_stmt != c.parent) continue;
        int prefix = CommonPathPrefix(fragment[parent_pos].loop_path,
                                      fragment[child_pos].loop_path);
        if (prefix > best_prefix) {
          best_prefix = prefix;
          best_parent = parent_pos;
        }
      }
      if (best_parent >= 0) {
        bound.push_back({best_parent, c.fk, child_pos});
      }
    }
  }
  return bound;
}

// The unfoldings of the whole program: its declared root's, or the one
// all-statements sequence of a program that never called Finish().
std::vector<Fragment> UnfoldProgram(const Btp& program) {
  MVRC_CHECK_MSG(program.num_statements() > 0, "program has no statements");
  if (program.root() >= 0) return UnfoldNode(program, program.root());
  Fragment linear;
  for (StmtId q = 0; q < program.num_statements(); ++q) {
    linear.push_back(Occurrence{program.statement(q), q, {}});
  }
  return {std::move(linear)};
}

}  // namespace

std::vector<Ltp> UnfoldAtMost2(const Btp& program) {
  std::vector<Fragment> fragments = UnfoldProgram(program);
  std::vector<Ltp> ltps;
  ltps.reserve(fragments.size());
  for (size_t i = 0; i < fragments.size(); ++i) {
    std::string name = program.name();
    if (fragments.size() > 1) name += std::to_string(i + 1);
    std::vector<OccFkConstraint> constraints = BindConstraints(program, fragments[i]);
    ltps.emplace_back(std::move(name), program.name(), std::move(fragments[i]),
                      std::move(constraints));
  }
  return ltps;
}

std::vector<Ltp> UnfoldAtMost2(const std::vector<Btp>& programs) {
  std::vector<Ltp> ltps;
  for (const Btp& program : programs) {
    std::vector<Ltp> unfolded = UnfoldAtMost2(program);
    ltps.insert(ltps.end(), std::make_move_iterator(unfolded.begin()),
                std::make_move_iterator(unfolded.end()));
  }
  return ltps;
}

}  // namespace mvrc
