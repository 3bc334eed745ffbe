// Compile-time value-join planning.
//
// A nested loop such as XMark Q8's
//
//   for $p in /site/people/person return
//     … for $t in /site/closed_auctions/closed_auction return
//         if ($t/buyer/person = $p/id) then $t/itemref else ()
//
// re-scans the same buffered match set once per outer binding: quadratic
// time although the buffer itself grows only linearly. When the inner loop
// chain reads nothing that changes between outer iterations, its binding
// tuples and their key values are the same on every pass, so the evaluator
// can record them once and answer every later pass from a hash index
// (eval/evaluator.cc). The planner decides, on the rewritten query, where
// that is safe; the query text, its AST and the signOff placement stay
// untouched, and the plans live in a side table of AnalyzedQuery.
//
// A for-expression is planned when all of these hold:
//  * it heads a chain of for-loops, each iterating a single step below the
//    head's scope variable or an earlier chain variable, and the scope is
//    bound outside at least one loop that encloses the head (so the chain
//    runs more than once per scope binding);
//  * every chain loop's body is exactly the next chain loop, and the last
//    body is exactly `if (K = P) then E else ()` — no signOff, output or
//    other expression in between;
//  * K reads only chain variables and P reads only variables bound outside
//    the chain;
//  * every chain variable's node is kept alive by a role (its binding role
//    or a whole-subtree dependency) whose signOff sits outside the chain,
//    i.e. its first straight ancestor (Def. 4) is not a chain variable.
//    That is the Fig. 9 placement of non-straight variables: the indexed
//    nodes and their key subtrees cannot be purged while the index lives.

#ifndef GCX_ANALYSIS_JOIN_PLAN_H_
#define GCX_ANALYSIS_JOIN_PLAN_H_

#include <string>
#include <vector>

#include "analysis/roles.h"
#include "analysis/variable_tree.h"
#include "xq/ast.h"

namespace gcx {

/// One planned value join. Pointers borrow from the analyzed query.
struct JoinPlan {
  const Expr* head = nullptr;  ///< the planned for (the side-table key)
  /// Variable the head iterates below. The chain's tuples depend only on
  /// its binding, so an index lives until that binding ends.
  VarId scope = kRootVar;
  /// The chain's for-expressions, head first; the last one's body is `join`.
  std::vector<const Expr*> chain;
  const Expr* join = nullptr;      ///< if (K = P) then E else ()
  const Operand* key = nullptr;    ///< K: reads chain variables only
  const Operand* probe = nullptr;  ///< P: reads outer variables only
};

/// Plans every eligible chain of the rewritten query (after InsertSignOffs)
/// in pre-order. Chains are not searched inside a planned chain, only in
/// its then-branch E.
std::vector<JoinPlan> PlanJoins(const Query& query, const VariableTree& vars,
                                const RoleCatalog& catalog);

/// One line per plan, for explain output.
std::string JoinPlansToString(const std::vector<JoinPlan>& plans,
                              const std::vector<std::string>& var_names);

}  // namespace gcx

#endif  // GCX_ANALYSIS_JOIN_PLAN_H_
