// The evaluator's hash-join runtime (plans: analysis/join_plan.h).
//
// A planned chain's first execution within a binding of its scope is the
// nested loop itself, recording each binding tuple and its key values;
// later executions probe the index. Kept apart from evaluator.cc so the
// plain evaluation paths compile exactly as they do without joins.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/strings.h"
#include "eval/evaluator.h"

namespace gcx {

namespace {

/// The numeric join key of a value, or nullopt when the value joins
/// bytewise. Sets *never_equal for NaN, which equals nothing.
std::optional<double> NumericKey(const std::string& value, bool* never_equal) {
  std::optional<double> number = ParseNumber(value);
  *never_equal = number.has_value() && std::isnan(*number);
  if (number.has_value() && *number == 0) number = 0.0;  // −0 = 0
  return number;
}

/// Estimated heap bytes of a built join index: the row table, one hash
/// node per key (next pointer + entry, plus the cached hash and any
/// out-of-line characters for text keys) and the bucket arrays.
uint64_t JoinIndexBytes(
    const std::vector<BufferNode*>& rows,
    const std::unordered_multimap<double, uint32_t>& numeric,
    const std::unordered_multimap<std::string, uint32_t>& text) {
  uint64_t bytes = rows.capacity() * sizeof(BufferNode*);
  bytes += numeric.size() *
           (sizeof(void*) + sizeof(std::pair<const double, uint32_t>));
  bytes += (numeric.bucket_count() + text.bucket_count()) * sizeof(void*);
  for (const auto& entry : text) {
    bytes += 2 * sizeof(void*) + sizeof(entry) + entry.first.size();
  }
  return bytes;
}

}  // namespace

Status Evaluator::EvalPlannedFor(const Expr& expr) {
  const std::vector<JoinPlan>& plans = query_->join_plans;
  for (size_t i = 0; i < plans.size(); ++i) {
    if (plans[i].head != &expr) continue;
    JoinIndex* index = &joins_[i];
    if (index->built) return ProbeJoin(plans[i], index);
    GCX_RETURN_IF_ERROR(RecordJoin(plans[i], index, 0));
    index->built = true;
    index->bytes = JoinIndexBytes(index->rows, index->numeric, index->text);
    join_bytes_ += index->bytes;
    stats_.join_index_rows += index->rows.size() / plans[i].chain.size();
    stats_.join_index_peak_bytes =
        std::max(stats_.join_index_peak_bytes, join_bytes_);
    return Status::Ok();
  }
  return ForEachBinding(expr, [&] {
    Status status = EvalExpr(*expr.body);
    EndScope(expr.loop_var);
    return status;
  });
}

Status Evaluator::RecordJoin(const JoinPlan& plan, JoinIndex* index,
                             size_t level) {
  if (level < plan.chain.size()) {
    const Expr& link = *plan.chain[level];
    return ForEachBinding(link, [&] {
      Status status = RecordJoin(plan, index, level + 1);
      EndScope(link.loop_var);
      return status;
    });
  }
  // The innermost binding: exactly the nested loop's `if`, operands in
  // its order, keeping K's values for the index.
  ++stats_.conditions;
  std::vector<std::string> lhs;
  std::vector<std::string> rhs;
  const Cond& cond = *plan.join->cond;
  GCX_RETURN_IF_ERROR(PathValues(cond.lhs.var, cond.lhs.path, &lhs));
  GCX_RETURN_IF_ERROR(PathValues(cond.rhs.var, cond.rhs.path, &rhs));
  const bool hit = AnyComparison(lhs, RelOp::kEq, rhs);
  const uint32_t row =
      static_cast<uint32_t>(index->rows.size() / plan.chain.size());
  for (const Expr* link : plan.chain) {
    index->rows.push_back(env_[static_cast<size_t>(link->loop_var)]);
  }
  for (std::string& key : plan.key == &cond.lhs ? lhs : rhs) {
    bool never_equal = false;
    std::optional<double> number = NumericKey(key, &never_equal);
    if (never_equal) continue;
    if (number.has_value()) {
      index->numeric.emplace(*number, row);
    } else {
      index->text.emplace(std::move(key), row);
    }
  }
  if (!hit) return Status::Ok();
  return EvalExpr(*plan.join->then_branch);
}

Status Evaluator::ProbeJoin(const JoinPlan& plan, JoinIndex* index) {
  ++stats_.join_probes;
  // No binding tuple: the nested loop would evaluate nothing, P included.
  if (index->rows.empty()) return Status::Ok();
  std::vector<std::string> probes;
  GCX_RETURN_IF_ERROR(PathValues(plan.probe->var, plan.probe->path, &probes));
  std::vector<uint32_t> hits;
  for (const std::string& probe : probes) {
    bool never_equal = false;
    std::optional<double> number = NumericKey(probe, &never_equal);
    if (never_equal) continue;
    if (number.has_value()) {
      auto [begin, end] = index->numeric.equal_range(*number);
      for (auto it = begin; it != end; ++it) hits.push_back(it->second);
    } else {
      auto [begin, end] = index->text.equal_range(probe);
      for (auto it = begin; it != end; ++it) hits.push_back(it->second);
    }
  }
  // A row whose key values match several probe values (or one probe value
  // several times) still binds once; rows run in nested-loop order.
  std::sort(hits.begin(), hits.end());
  hits.erase(std::unique(hits.begin(), hits.end()), hits.end());
  const size_t width = plan.chain.size();
  for (uint32_t row : hits) {
    for (size_t i = 0; i < width; ++i) {
      env_[static_cast<size_t>(plan.chain[i]->loop_var)] =
          index->rows[row * width + i];
    }
    GCX_RETURN_IF_ERROR(EvalExpr(*plan.join->then_branch));
    for (const Expr* link : plan.chain) EndScope(link->loop_var);
  }
  for (const Expr* link : plan.chain) {
    env_[static_cast<size_t>(link->loop_var)] = nullptr;
  }
  return Status::Ok();
}

void Evaluator::EndScope(VarId var) {
  const std::vector<JoinPlan>& plans = query_->join_plans;
  for (size_t i = 0; i < plans.size(); ++i) {
    if (plans[i].scope != var || !joins_[i].built) continue;
    join_bytes_ -= joins_[i].bytes;
    joins_[i] = JoinIndex();
  }
}

}  // namespace gcx
