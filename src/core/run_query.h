// The run-one-query step of every engine path. The solo engine wires a
// StreamExecContext over a private scanner, a batch one BatchQueryContext
// per query over the shared replay log (core/multi_engine.h), a shard
// worker one per segment over its shard log; then each query runs here.

#ifndef GCX_CORE_RUN_QUERY_H_
#define GCX_CORE_RUN_QUERY_H_

#include <chrono>
#include <cstdint>
#include <ostream>

#include "common/budget.h"
#include "core/engine.h"
#include "eval/evaluator.h"
#include "eval/exec_context.h"
#include "xml/dom.h"

namespace gcx {

/// Evaluates `analyzed` (a compiled query or a shard-local segment) over
/// `ctx`, whose projector is `projector`: GC rule, the materialized
/// pre-pull, the evaluator, the final governor checkpoint, the stats and
/// the Theorem-1 role balance. `scanner` is a private input pass (null in a
/// batch, whose one scan MultiQueryStats::shared accounts). Shard-local
/// segments pass charge_output = false (the merge writer charges their
/// bytes) and may `capture` aggregate partials (eval/evaluator.h).
Result<ExecStats> EvaluateOne(const AnalyzedQuery& analyzed,
                              const EngineOptions& options, ExecContext& ctx,
                              StreamProjector& projector,
                              const XmlScanner* scanner, std::ostream* out,
                              RunGovernor* governor, bool charge_output = true,
                              AggregateParts* capture = nullptr);

/// Evaluates `query` over the parsed `doc` of DomSubtreeBytes `dom_bytes`
/// (its peak_bytes) through a governed writer, with the final checkpoint.
/// No input accounting; wall_seconds counts from `start`.
Result<ExecStats> EvaluateOnDom(const CompiledQuery& query, DomDocument* doc,
                                uint64_t dom_bytes,
                                std::chrono::steady_clock::time_point start,
                                std::ostream* out, RunGovernor* governor);

}  // namespace gcx

#endif  // GCX_CORE_RUN_QUERY_H_
