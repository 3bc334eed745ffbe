// The pull-based XQ evaluator (Sec. 3 semantics + Sec. 5 runtime).
//
// Evaluates the rewritten query strictly sequentially. Whenever data is
// missing from the buffer the evaluator pulls input through the projector
// ("blocks", in the paper's architecture). signOff-statements remove roles
// and trigger active garbage collection.

#ifndef GCX_EVAL_EVALUATOR_H_
#define GCX_EVAL_EVALUATOR_H_

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "analysis/analyzer.h"
#include "common/status.h"
#include "eval/cursor.h"
#include "eval/exec_context.h"
#include "xml/writer.h"

namespace gcx {

/// Per-shard aggregate partials (sharded execution, core/shard.h). The
/// executor combines partials across shards: counts add; sum keeps the RAW
/// matched values so the combined list can be folded once, in document
/// order, with exactly the solo fold (per-shard partial doubles would
/// round differently).
struct AggregateParts {
  uint64_t count = 0;
  std::vector<std::string> values;
};

/// Runtime toggles.
struct EvalOptions {
  /// Execute signOff-statements (active GC). Off = the "static analysis
  /// alone" ablation: projection still limits what enters the buffer, but
  /// nothing is ever purged.
  bool execute_signoffs = true;
  /// When set, a root-rooted aggregate records its partial here INSTEAD of
  /// writing text. Evaluation (including signoffs) is otherwise unchanged,
  /// so the Sec. 3 buffer invariants still hold.
  AggregateParts* aggregate_capture = nullptr;
};

/// Evaluator-side counters of one run (ExecStats carries them out).
struct EvalStats {
  /// if-conditions evaluated, including those a join's first pass
  /// evaluates; a pass answered from a join index evaluates none.
  uint64_t conditions = 0;
  /// Binding tuples recorded into join indexes (analysis/join_plan.h).
  uint64_t join_index_rows = 0;
  /// Chain executions answered from a join index instead of a re-scan.
  uint64_t join_probes = 0;
  /// High-water mark of the live join indexes' estimated heap bytes. Kept
  /// apart from the buffer peak: the index holds pointers and key copies,
  /// not buffered nodes.
  uint64_t join_index_peak_bytes = 0;
};

/// One evaluation of one query over one input stream.
class Evaluator {
 public:
  Evaluator(const AnalyzedQuery* query, ExecContext* ctx, XmlWriter* writer,
            EvalOptions options = {});

  /// Runs the query to completion, producing output through the writer.
  Status Run();

  const EvalStats& stats() const { return stats_; }

 private:
  /// Runtime state of one join plan, index-aligned with
  /// AnalyzedQuery::join_plans. Built by the chain's first execution within
  /// a binding of the plan's scope, cleared when that binding ends.
  struct JoinIndex {
    bool built = false;
    /// Binding tuples in nested-loop order, one node per chain variable.
    std::vector<BufferNode*> rows;
    /// Key value → row, split by the `=` rule: values that parse as
    /// numbers compare numerically (−0 folded to 0; NaN is never inserted,
    /// it equals nothing), all others bytewise.
    std::unordered_multimap<double, uint32_t> numeric;
    std::unordered_multimap<std::string, uint32_t> text;
    uint64_t bytes = 0;  ///< estimated heap footprint
  };

  Status EvalExpr(const Expr& expr);
  Result<bool> EvalCond(const Cond& cond);
  /// General comparison of two value lists: true if some pair satisfies
  /// `op`. Each value is parsed as a number once.
  bool AnyComparison(const std::vector<std::string>& lhs, RelOp op,
                     const std::vector<std::string>& rhs);

  Status EvalFor(const Expr& expr);
  /// Binds `loop`'s variable to each match in turn and runs `body`.
  template <typename Body>
  Status ForEachBinding(const Expr& loop, const Body& body) {
    BufferNode* scope = env_[static_cast<size_t>(loop.var)];
    GCX_CHECK(scope != nullptr && loop.path.steps.size() == 1);
    StepCursor cursor(ctx_, scope, loop.path.steps[0]);
    while (true) {
      GCX_ASSIGN_OR_RETURN(BufferNode* node, cursor.Next());
      if (node == nullptr) break;
      env_[static_cast<size_t>(loop.loop_var)] = node;
      GCX_RETURN_IF_ERROR(body());
    }
    env_[static_cast<size_t>(loop.loop_var)] = nullptr;
    return Status::Ok();
  }
  /// EvalFor for a query with join plans: a planned chain runs through its
  /// index; any other loop runs as usual and, after each binding, drops
  /// the indexes scoped to its variable.
  Status EvalPlannedFor(const Expr& expr);
  /// First execution of a planned chain: the nested loop itself, recording
  /// each binding tuple and its key values on the way.
  Status RecordJoin(const JoinPlan& plan, JoinIndex* index, size_t level);
  /// Later executions: probe the index with P's values and evaluate E for
  /// each hit row, in nested-loop order.
  Status ProbeJoin(const JoinPlan& plan, JoinIndex* index);
  /// Drops the indexes whose scope variable is `var` (its binding ended).
  void EndScope(VarId var);
  Status EvalAggregate(const Expr& expr);

  /// Counts matches of path steps [step_index..) from `base`,
  /// nested-iteration semantics, pulling input as needed.
  Result<uint64_t> CountMatches(BufferNode* base, const RelativePath& path,
                                size_t step_index);
  Status EvalSignOff(const Expr& expr);
  Status EvalPathOutput(BufferNode* base, const RelativePath& path,
                        size_t step_index);

  /// Serializes the (finished) subtree of `node`; pulls to finish it first.
  Status EmitSubtree(BufferNode* node);

  /// Existence probe with pulls: is some node reachable from `base` via
  /// path steps [step_index..)?
  Result<bool> ExistsPath(BufferNode* base, const RelativePath& path,
                          size_t step_index);

  /// Collects the string values of an operand (pulls until the operand's
  /// base binding is finished so the match set is complete).
  Status OperandValues(const Operand& operand, std::vector<std::string>* out);
  Status PathValues(VarId var, const RelativePath& path,
                    std::vector<std::string>* out);

  /// Buffer-only path evaluation with match multiplicities (signOff
  /// semantics, Sec. 3): multiplicities mirror the DFA's role-assignment
  /// multiplicities so removals balance assignments exactly.
  void CollectWithMultiplicity(BufferNode* base, const RelativePath& path,
                               size_t step_index, uint32_t mult,
                               std::vector<std::pair<BufferNode*, uint32_t>>* out);

  const AnalyzedQuery* query_;
  ExecContext* ctx_;
  XmlWriter* writer_;
  EvalOptions options_;
  std::vector<BufferNode*> env_;  ///< VarId → current binding
  EvalStats stats_;
  std::vector<JoinIndex> joins_;
  uint64_t join_bytes_ = 0;  ///< live bytes over all built indexes
  std::vector<std::optional<double>> rhs_numbers_;  ///< AnyComparison scratch
};

/// Compares two untyped values with XQuery-style general-comparison
/// pragmatics: numerically when both parse as numbers, else bytewise. A
/// numeric NaN satisfies only `!=`.
bool CompareValues(const std::string& lhs, RelOp op, const std::string& rhs);

/// The sum() fold over matched string values (XPath 1.0 pragmatics: empty
/// sums to "0", any non-numeric value poisons the sum to NaN). Exposed so
/// the sharded executor can fold concatenated per-shard value lists with
/// byte-identical formatting.
std::string FoldSumValues(const std::vector<std::string>& values);

}  // namespace gcx

#endif  // GCX_EVAL_EVALUATOR_H_
