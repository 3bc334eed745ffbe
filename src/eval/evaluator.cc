#include "eval/evaluator.h"

#include "common/strings.h"
#include "eval/cursor.h"

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace gcx {

namespace {

/// `lhs op rhs` given each side's ParseNumber result: numeric when both
/// parse (IEEE: NaN satisfies only `!=`), else bytewise.
bool CompareParsed(std::string_view lhs, const std::optional<double>& ln,
                   RelOp op, std::string_view rhs,
                   const std::optional<double>& rn) {
  if (ln.has_value() && rn.has_value()) {
    double l = *ln;
    double r = *rn;
    switch (op) {
      case RelOp::kEq:
        return l == r;
      case RelOp::kNe:
        return l != r;
      case RelOp::kLt:
        return l < r;
      case RelOp::kLe:
        return l <= r;
      case RelOp::kGt:
        return l > r;
      case RelOp::kGe:
        return l >= r;
    }
    return false;
  }
  int cmp = lhs.compare(rhs);
  switch (op) {
    case RelOp::kEq:
      return cmp == 0;
    case RelOp::kNe:
      return cmp != 0;
    case RelOp::kLt:
      return cmp < 0;
    case RelOp::kLe:
      return cmp <= 0;
    case RelOp::kGt:
      return cmp > 0;
    case RelOp::kGe:
      return cmp >= 0;
  }
  return false;
}

}  // namespace

bool CompareValues(const std::string& lhs, RelOp op, const std::string& rhs) {
  return CompareParsed(lhs, ParseNumber(lhs), op, rhs, ParseNumber(rhs));
}

Evaluator::Evaluator(const AnalyzedQuery* query, ExecContext* ctx,
                     XmlWriter* writer, EvalOptions options)
    : query_(query), ctx_(ctx), writer_(writer), options_(options) {
  env_.assign(query_->query.var_names.size(), nullptr);
  env_[kRootVar] = ctx_->buffer().root();
  joins_.resize(query_->join_plans.size());
}

Status Evaluator::Run() { return EvalExpr(*query_->query.body); }

Status Evaluator::EvalExpr(const Expr& expr) {
  switch (expr.kind) {
    case ExprKind::kEmpty:
      return Status::Ok();
    case ExprKind::kSequence:
      for (const auto& item : expr.items) GCX_RETURN_IF_ERROR(EvalExpr(*item));
      return Status::Ok();
    case ExprKind::kElement:
      writer_->StartElement(expr.tag);
      GCX_RETURN_IF_ERROR(EvalExpr(*expr.child));
      writer_->EndElement(expr.tag);
      return Status::Ok();
    case ExprKind::kOpenTag:
      writer_->StartElement(expr.tag);
      return Status::Ok();
    case ExprKind::kCloseTag:
      writer_->EndElement(expr.tag);
      return Status::Ok();
    case ExprKind::kTextLiteral:
      writer_->Text(expr.text);
      return Status::Ok();
    case ExprKind::kVarRef:
      return EmitSubtree(env_[static_cast<size_t>(expr.var)]);
    case ExprKind::kPathOutput:
      return EvalPathOutput(env_[static_cast<size_t>(expr.var)], expr.path, 0);
    case ExprKind::kFor:
      return EvalFor(expr);
    case ExprKind::kIf: {
      ++stats_.conditions;
      GCX_ASSIGN_OR_RETURN(bool truth, EvalCond(*expr.cond));
      return EvalExpr(truth ? *expr.then_branch : *expr.else_branch);
    }
    case ExprKind::kSignOff:
      return EvalSignOff(expr);
    case ExprKind::kAggregate:
      return EvalAggregate(expr);
  }
  return Status::Ok();
}

std::string FoldSumValues(const std::vector<std::string>& values) {
  double total = 0;
  for (const std::string& value : values) {
    if (auto number = ParseNumber(value)) {
      total += *number;
    } else {
      total = std::numeric_limits<double>::quiet_NaN();
      break;
    }
  }
  return FormatNumber(total);
}

Status Evaluator::EvalAggregate(const Expr& expr) {
  BufferNode* base = env_[static_cast<size_t>(expr.var)];
  GCX_CHECK(base != nullptr);
  // Sharded partial capture intercepts only the final text emission; the
  // match enumeration (and its pulls) run identically either way.
  AggregateParts* capture =
      expr.var == kRootVar ? options_.aggregate_capture : nullptr;
  if (expr.agg == AggKind::kCount) {
    if (expr.path.empty()) {
      writer_->Text("1");  // count($x): the binding itself
      return Status::Ok();
    }
    GCX_ASSIGN_OR_RETURN(uint64_t count, CountMatches(base, expr.path, 0));
    if (capture != nullptr) {
      capture->count = count;
    } else {
      writer_->Text(std::to_string(count));
    }
    return Status::Ok();
  }
  // sum: gather string values (complete once the binding is finished) and
  // add them up with XPath 1.0 pragmatics: an empty match set sums to 0,
  // any non-numeric value makes the sum NaN. (XQuery would raise a type
  // error; NaN keeps the streaming and DOM engines trivially in agreement
  // and is what XPath 1.0 number() semantics prescribe.) All four engine
  // configurations share this rule — the DOM reference implements the
  // identical loop in core/dom_engine.cc.
  std::vector<std::string> values;
  GCX_RETURN_IF_ERROR(PathValues(expr.var, expr.path, &values));
  if (capture != nullptr) {
    capture->values = std::move(values);
    return Status::Ok();
  }
  writer_->Text(FoldSumValues(values));
  return Status::Ok();
}

Result<uint64_t> Evaluator::CountMatches(BufferNode* base,
                                         const RelativePath& path,
                                         size_t step_index) {
  if (step_index == path.steps.size()) return uint64_t{1};
  StepCursor cursor(ctx_, base, path.steps[step_index]);
  uint64_t total = 0;
  while (true) {
    GCX_ASSIGN_OR_RETURN(BufferNode* node, cursor.Next());
    if (node == nullptr) return total;
    GCX_ASSIGN_OR_RETURN(uint64_t below,
                         CountMatches(node, path, step_index + 1));
    total += below;
  }
}

Status Evaluator::EvalFor(const Expr& expr) {
  if (!query_->join_plans.empty()) return EvalPlannedFor(expr);
  return ForEachBinding(expr, [&] { return EvalExpr(*expr.body); });
}

Status Evaluator::EvalSignOff(const Expr& expr) {
  if (!options_.execute_signoffs) return Status::Ok();
  BufferNode* base = env_[static_cast<size_t>(expr.var)];
  GCX_CHECK(base != nullptr);
  // Role assignment happens while the projector reads the input; removing
  // roles relative to an unfinished binding would let late-arriving matches
  // acquire the role after its signOff. Reading the binding to its end
  // costs nothing extra: the very next binding lies behind it in the
  // stream. The $root scope is the exception — it is signed off at query
  // end, where the remaining input will simply never be read (or matched).
  if (expr.var != kRootVar) {
    GCX_RETURN_IF_ERROR(ctx_->EnsureFinished(base));
  }
  std::vector<std::pair<BufferNode*, uint32_t>> targets;
  CollectWithMultiplicity(base, expr.path, 0, 1, &targets);
  for (auto& [node, mult] : targets) {
    ctx_->buffer().RemoveRole(node, expr.role, mult);
  }
  return Status::Ok();
}

void Evaluator::CollectWithMultiplicity(
    BufferNode* base, const RelativePath& path, size_t step_index,
    uint32_t mult, std::vector<std::pair<BufferNode*, uint32_t>>* out) {
  if (step_index == path.steps.size()) {
    // Accumulate (a node can be reached via several contexts).
    for (auto& entry : *out) {
      if (entry.first == base) {
        entry.second += mult;
        return;
      }
    }
    out->push_back({base, mult});
    return;
  }
  const Step& step = path.steps[step_index];
  auto matches = [&](const BufferNode* n) {
    if (n->marked_deleted) return false;
    if (n->is_text) return step.test.MatchesText();
    // The virtual root is only reachable via dos::node() self-matches.
    if (n->parent == nullptr) return step.test.kind == NodeTestKind::kAnyNode;
    return step.test.MatchesElement(ctx_->tags().Name(n->tag));
  };
  switch (step.axis) {
    case Axis::kChild: {
      for (BufferNode* c = base->first_child; c != nullptr;
           c = c->next_sibling) {
        if (!matches(c)) continue;
        CollectWithMultiplicity(c, path, step_index + 1, mult, out);
        if (step.predicate == StepPredicate::kFirst) break;
      }
      return;
    }
    case Axis::kDescendant:
    case Axis::kDescendantOrSelf: {
      bool first_only = step.predicate == StepPredicate::kFirst;
      if (step.axis == Axis::kDescendantOrSelf && matches(base)) {
        CollectWithMultiplicity(base, path, step_index + 1, mult, out);
        if (first_only) return;
      }
      // Pre-order walk of the subtree; marked (condemned) nodes root
      // role-free subtrees and are skipped wholesale.
      std::vector<BufferNode*> stack;
      for (BufferNode* c = base->last_child; c != nullptr;
           c = c->prev_sibling) {
        if (!c->marked_deleted) stack.push_back(c);
      }
      while (!stack.empty()) {
        BufferNode* n = stack.back();
        stack.pop_back();
        if (matches(n)) {
          CollectWithMultiplicity(n, path, step_index + 1, mult, out);
          if (first_only) return;
        }
        for (BufferNode* c = n->last_child; c != nullptr; c = c->prev_sibling) {
          if (!c->marked_deleted) stack.push_back(c);
        }
      }
      return;
    }
  }
}

Status Evaluator::EmitSubtree(BufferNode* node) {
  GCX_RETURN_IF_ERROR(ctx_->EnsureFinished(node));
  if (node->is_text) {
    writer_->Text(node->text);
    return Status::Ok();
  }
  bool is_root = node->parent == nullptr;
  if (!is_root) writer_->StartElement(ctx_->tags().Name(node->tag));
  for (BufferNode* c = node->first_child; c != nullptr; c = c->next_sibling) {
    GCX_RETURN_IF_ERROR(EmitSubtree(c));
  }
  if (!is_root) writer_->EndElement(ctx_->tags().Name(node->tag));
  return Status::Ok();
}

Status Evaluator::EvalPathOutput(BufferNode* base, const RelativePath& path,
                                 size_t step_index) {
  if (step_index == path.steps.size()) return EmitSubtree(base);
  StepCursor cursor(ctx_, base, path.steps[step_index]);
  while (true) {
    GCX_ASSIGN_OR_RETURN(BufferNode* node, cursor.Next());
    if (node == nullptr) return Status::Ok();
    GCX_RETURN_IF_ERROR(EvalPathOutput(node, path, step_index + 1));
  }
}

Result<bool> Evaluator::ExistsPath(BufferNode* base, const RelativePath& path,
                                   size_t step_index) {
  if (step_index == path.steps.size()) return true;
  StepCursor cursor(ctx_, base, path.steps[step_index]);
  while (true) {
    GCX_ASSIGN_OR_RETURN(BufferNode* node, cursor.Next());
    if (node == nullptr) return false;
    GCX_ASSIGN_OR_RETURN(bool found, ExistsPath(node, path, step_index + 1));
    if (found) return true;
  }
}

Status Evaluator::OperandValues(const Operand& operand,
                                std::vector<std::string>* out) {
  GCX_CHECK(!operand.is_literal);
  return PathValues(operand.var, operand.path, out);
}

Status Evaluator::PathValues(VarId var, const RelativePath& path,
                             std::vector<std::string>* out) {
  BufferNode* base = env_[static_cast<size_t>(var)];
  GCX_CHECK(base != nullptr);
  // General comparison / sum needs the complete match set; the matches
  // carry dos::node() roles, so everything needed is buffered once the
  // binding is finished.
  GCX_RETURN_IF_ERROR(ctx_->EnsureFinished(base));
  std::vector<std::pair<BufferNode*, uint32_t>> matches;
  CollectWithMultiplicity(base, path, 0, 1, &matches);
  for (auto& [node, mult] : matches) {
    (void)mult;
    // XPath string value: concatenated descendant text.
    std::string value;
    std::vector<const BufferNode*> stack;
    stack.push_back(node);
    while (!stack.empty()) {
      const BufferNode* n = stack.back();
      stack.pop_back();
      if (n->is_text) value += n->text;
      for (const BufferNode* c = n->last_child; c != nullptr;
           c = c->prev_sibling) {
        stack.push_back(const_cast<BufferNode*>(c));
      }
    }
    out->push_back(std::move(value));
  }
  return Status::Ok();
}

bool Evaluator::AnyComparison(const std::vector<std::string>& lhs, RelOp op,
                              const std::vector<std::string>& rhs) {
  if (lhs.empty() || rhs.empty()) return false;
  rhs_numbers_.clear();
  for (const std::string& r : rhs) rhs_numbers_.push_back(ParseNumber(r));
  for (const std::string& l : lhs) {
    std::optional<double> ln = ParseNumber(l);
    for (size_t j = 0; j < rhs.size(); ++j) {
      if (CompareParsed(l, ln, op, rhs[j], rhs_numbers_[j])) return true;
    }
  }
  return false;
}

Result<bool> Evaluator::EvalCond(const Cond& cond) {
  switch (cond.kind) {
    case CondKind::kTrue:
      return true;
    case CondKind::kExists: {
      if (cond.lhs.path.empty()) return true;  // exists($x): always bound
      BufferNode* base = env_[static_cast<size_t>(cond.lhs.var)];
      GCX_CHECK(base != nullptr);
      return ExistsPath(base, cond.lhs.path, 0);
    }
    case CondKind::kCompare: {
      std::vector<std::string> lhs;
      std::vector<std::string> rhs;
      if (cond.lhs.is_literal) {
        lhs.push_back(cond.lhs.literal);
      } else {
        GCX_RETURN_IF_ERROR(OperandValues(cond.lhs, &lhs));
      }
      if (cond.rhs.is_literal) {
        rhs.push_back(cond.rhs.literal);
      } else {
        GCX_RETURN_IF_ERROR(OperandValues(cond.rhs, &rhs));
      }
      return AnyComparison(lhs, cond.op, rhs);
    }
    case CondKind::kAnd: {
      GCX_ASSIGN_OR_RETURN(bool left, EvalCond(*cond.left));
      if (!left) return false;
      return EvalCond(*cond.right);
    }
    case CondKind::kOr: {
      GCX_ASSIGN_OR_RETURN(bool left, EvalCond(*cond.left));
      if (left) return true;
      return EvalCond(*cond.right);
    }
    case CondKind::kNot: {
      GCX_ASSIGN_OR_RETURN(bool inner, EvalCond(*cond.left));
      return !inner;
    }
  }
  return EvalError("unknown condition kind");
}

}  // namespace gcx
