#include "analysis/join_plan.h"

#include <algorithm>
#include <string>
#include <vector>

#include "analysis/analyzer.h"  // IsWholeSubtreeDep

namespace gcx {

namespace {

bool Contains(const std::vector<VarId>& vars, VarId v) {
  return std::find(vars.begin(), vars.end(), v) != vars.end();
}

/// True if some role that is not eliminated keeps `v`'s bound node in the
/// buffer: its binding role, or a whole-subtree dependency 〈dos::node()〉
/// (the rule (a) replacement of an eliminated binding role).
bool BindingKeptAlive(VarId v, const VariableTree& vars,
                      const RoleCatalog& catalog) {
  const VarInfo& info = vars.info(v);
  if (!catalog.at(info.binding_role).eliminated) return true;
  for (const Dependency& dep : info.deps) {
    if (IsWholeSubtreeDep(dep.path) && !catalog.at(dep.role).eliminated) {
      return true;
    }
  }
  return false;
}

class Planner {
 public:
  Planner(const VariableTree& vars, const RoleCatalog& catalog)
      : vars_(vars), catalog_(catalog) {}

  void Walk(const Expr& expr) {
    switch (expr.kind) {
      case ExprKind::kSequence:
        for (const auto& item : expr.items) Walk(*item);
        return;
      case ExprKind::kElement:
        Walk(*expr.child);
        return;
      case ExprKind::kIf:
        Walk(*expr.then_branch);
        Walk(*expr.else_branch);
        return;
      case ExprKind::kFor: {
        if (TryPlan(expr)) {
          // Keep searching in E only, with the chain variables in scope.
          const JoinPlan& plan = plans_.back();
          for (const Expr* link : plan.chain) {
            loops_.push_back(link->loop_var);
          }
          Walk(*plan.join->then_branch);
          loops_.resize(loops_.size() - plan.chain.size());
          return;
        }
        loops_.push_back(expr.loop_var);
        Walk(*expr.body);
        loops_.pop_back();
        return;
      }
      default:
        return;
    }
  }

  std::vector<JoinPlan> TakePlans() { return std::move(plans_); }

 private:
  bool TryPlan(const Expr& head) {
    // The scope must be bound outside some loop enclosing the head: $root
    // (bound outside everything) or a loop variable that is not the
    // innermost enclosing loop.
    auto bound_at = std::find(loops_.begin(), loops_.end(), head.var);
    if (head.var == kRootVar) {
      if (loops_.empty()) return false;
    } else if (bound_at == loops_.end() || bound_at + 1 == loops_.end()) {
      return false;
    }

    JoinPlan plan;
    plan.head = &head;
    plan.scope = head.var;
    std::vector<VarId> chain_vars;
    const Expr* link = &head;
    while (true) {
      plan.chain.push_back(link);
      chain_vars.push_back(link->loop_var);
      const Expr& body = *link->body;
      if (body.kind != ExprKind::kFor || !Contains(chain_vars, body.var)) {
        break;
      }
      link = &body;
    }

    const Expr& join = *link->body;
    if (join.kind != ExprKind::kIf ||
        join.else_branch->kind != ExprKind::kEmpty) {
      return false;
    }
    const Cond& cond = *join.cond;
    if (cond.kind != CondKind::kCompare || cond.op != RelOp::kEq ||
        cond.lhs.is_literal || cond.rhs.is_literal) {
      return false;
    }
    bool lhs_inner = Contains(chain_vars, cond.lhs.var);
    bool rhs_inner = Contains(chain_vars, cond.rhs.var);
    if (lhs_inner == rhs_inner) return false;
    plan.join = &join;
    plan.key = lhs_inner ? &cond.lhs : &cond.rhs;
    plan.probe = lhs_inner ? &cond.rhs : &cond.lhs;

    // Every role of a chain variable (binding and dependencies, K's
    // included) is signed off at the end of its fsa's scope; outside the
    // chain means after the index is dropped.
    for (VarId v : chain_vars) {
      if (Contains(chain_vars, vars_.info(v).fsa) ||
          !BindingKeptAlive(v, vars_, catalog_)) {
        return false;
      }
    }
    plans_.push_back(std::move(plan));
    return true;
  }

  const VariableTree& vars_;
  const RoleCatalog& catalog_;
  std::vector<VarId> loops_;  ///< enclosing loop variables, outermost first
  std::vector<JoinPlan> plans_;
};

std::string OperandText(const Operand& op,
                        const std::vector<std::string>& var_names) {
  std::string out = var_names[static_cast<size_t>(op.var)];
  if (!op.path.empty()) out += "/" + op.path.ToString();
  return out;
}

}  // namespace

std::vector<JoinPlan> PlanJoins(const Query& query, const VariableTree& vars,
                                const RoleCatalog& catalog) {
  Planner planner(vars, catalog);
  planner.Walk(*query.body);
  return planner.TakePlans();
}

std::string JoinPlansToString(const std::vector<JoinPlan>& plans,
                              const std::vector<std::string>& var_names) {
  std::string out;
  for (const JoinPlan& plan : plans) {
    out += "hash join " + OperandText(*plan.key, var_names) + " = " +
           OperandText(*plan.probe, var_names) + ": index chain";
    for (const Expr* link : plan.chain) {
      out += " " + var_names[static_cast<size_t>(link->loop_var)];
    }
    out += " once per binding of " +
           var_names[static_cast<size_t>(plan.scope)] + "\n";
  }
  return out;
}

}  // namespace gcx
