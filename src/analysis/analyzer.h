// Static-analysis driver (Sec. 4 + the Sec. 6 compile-time optimizations).
//
// Pipeline over a *normalized* query:
//   1. Build the variable tree, dependencies and role catalog.
//   2. Redundant-role elimination (Sec. 6), optional.
//   3. Aggregate-role marking (Sec. 6), optional.
//   4. Derive the projection tree (Sec. 4).
//   5. Insert signOff-statements via algorithm suQ (Fig. 8).
//   6. Plan hash-indexed value joins (analysis/join_plan.h).
//
// Theorem 1 (correctness) is exercised end-to-end by the differential test
// suite: evaluating the rewritten query on the projected document equals
// evaluating the original query on the full document.

#ifndef GCX_ANALYSIS_ANALYZER_H_
#define GCX_ANALYSIS_ANALYZER_H_

#include <string>
#include <vector>

#include "analysis/join_plan.h"
#include "analysis/projection_tree.h"
#include "analysis/roles.h"
#include "analysis/variable_tree.h"
#include "common/status.h"
#include "xq/ast.h"

namespace gcx {

/// Compile-time toggles for the Sec. 6 optimizations (ablation knobs).
struct AnalysisOptions {
  bool aggregate_roles = true;
  bool eliminate_redundant_roles = true;
};

/// The full static-analysis result for one query.
struct AnalyzedQuery {
  Query query;          ///< rewritten query with signOff-statements
  RoleCatalog roles;
  VariableTree vars;
  ProjectionTree projection;
  /// Side table of value-join plans over `query`, keyed by the planned
  /// for's Expr*. Empty for most queries; the evaluator then pays one
  /// empty() test per for-loop.
  std::vector<JoinPlan> join_plans;

  /// Multi-section human-readable dump (variable tree, roles, projection
  /// tree, rewritten query, and join plans when there are any).
  std::string Explain() const;
};

/// Runs the pipeline. `normalized` must have passed xq::Normalize.
Result<AnalyzedQuery> Analyze(Query normalized,
                              const AnalysisOptions& options = {});

// Exposed pieces (unit-tested separately):

/// True if `path` is exactly the single step dos::node() (a whole-subtree
/// dependency).
bool IsWholeSubtreeDep(const RelativePath& path);

/// Sec. 6 redundant-role elimination. Marks binding roles as eliminated when
/// (a) the variable has a whole-subtree dependency 〈dos::node(), r〉 which
/// keeps the bound node alive over exactly the same scope, or (b) the loop
/// body is existential-positive in the variable: its output consists solely
/// of path outputs rooted (transitively, through nested for-loops over the
/// variable) at the variable, so skipping a purged, match-free binding can
/// never change the result.
void EliminateRedundantRoles(const VariableTree& vars, RoleCatalog* catalog);

/// Marks dependency roles whose path ends in dos::node() as aggregate.
void MarkAggregateRoles(const VariableTree& vars, RoleCatalog* catalog);

/// Derives the projection tree (Sec. 4, three-step construction).
ProjectionTree DeriveProjectionTree(const VariableTree& vars,
                                    const RoleCatalog& catalog);

/// Inserts signOff-statements into `query` (algorithm suQ, Fig. 8, with the
/// Fig. 9 placement for non-straight variables: a variable's roles are
/// signed off at the end of the scope of its first straight ancestor).
void InsertSignOffs(Query* query, const VariableTree& vars,
                    const RoleCatalog& catalog);

}  // namespace gcx

#endif  // GCX_ANALYSIS_ANALYZER_H_
