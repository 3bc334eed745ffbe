#include "core/engine.h"

#include <chrono>
#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/dom_engine.h"
#include "core/run_query.h"
#include "core/stats_publish.h"
#include "eval/evaluator.h"
#include "eval/exec_context.h"
#include "xml/fd_source.h"
#include "xml/writer.h"
#include "xq/normalize.h"
#include "xq/parser.h"
#include "xq/printer.h"

namespace gcx {

std::vector<NamedEngineConfig> StandardEngineConfigs() {
  std::vector<NamedEngineConfig> out;
  out.push_back({"GCX", {}});
  EngineOptions no_gc;
  no_gc.enable_gc = false;
  out.push_back({"GCX-noGC", no_gc});
  EngineOptions projection;
  projection.mode = EngineMode::kMaterializedProjection;
  out.push_back({"Projection", projection});
  EngineOptions naive;
  naive.mode = EngineMode::kNaiveDom;
  out.push_back({"NaiveDom", naive});
  return out;
}

Result<CompiledQuery> CompiledQuery::Compile(std::string_view text,
                                             const EngineOptions& options) {
  GCX_ASSIGN_OR_RETURN(Query parsed, ParseQuery(text));
  return CompileParsed(std::move(parsed), options);
}

Result<CompiledQuery> CompiledQuery::CompileParsed(Query parsed,
                                                   const EngineOptions& options) {
  auto impl = std::make_shared<Impl>();
  impl->options = options;
  impl->parsed = parsed.Clone();
  impl->canonical_text = PrintQuery(impl->parsed);
  NormalizeOptions norm;
  norm.early_updates = options.early_updates;
  GCX_RETURN_IF_ERROR(Normalize(&parsed, norm));
  AnalysisOptions analysis;
  analysis.aggregate_roles = options.aggregate_roles;
  analysis.eliminate_redundant_roles = options.eliminate_redundant_roles;
  GCX_ASSIGN_OR_RETURN(impl->analyzed, Analyze(std::move(parsed), analysis));
  // Approximate residency cost: the compilation keeps two AST copies
  // (pre-normalization + rewritten) whose node count tracks the query
  // text, plus per-node analysis records. Deliberately coarse — the cache
  // byte budget needs monotone-with-size, not exact.
  impl->approx_bytes =
      sizeof(Impl) + 6 * impl->canonical_text.size() +
      impl->analyzed.projection.size() * (sizeof(ProjNode) + 48) +
      impl->analyzed.roles.size() * 96 + impl->analyzed.vars.size() * 64;
  CompiledQuery out;
  out.impl_ = std::move(impl);
  return out;
}

Result<ExecStats> Engine::Execute(const CompiledQuery& query,
                                  std::string_view input,
                                  std::ostream* out) const {
  return Execute(query, std::make_unique<StringSource>(input), out);
}

Result<ExecStats> Engine::Execute(const CompiledQuery& query,
                                  std::unique_ptr<ByteSource> input,
                                  std::ostream* out) const {
  if (query.options().mode == EngineMode::kNaiveDom) {
    return ExecuteNaiveDom(query, std::move(input), out);
  }
  return ExecuteStreaming(query, std::move(input), out);
}

Result<ExecStats> Engine::ExecuteStreaming(const CompiledQuery& query,
                                           std::unique_ptr<ByteSource> input,
                                           std::ostream* out) const {
  StreamExecContext ctx(&query.analyzed().projection, &query.analyzed().roles,
                        std::move(input), query.options().scanner);
  ctx.set_governor(governor_);
  if (trace_) {
    ctx.projector().set_trace([this, &ctx](const XmlEvent& event) {
      trace_(event, ctx.buffer(), ctx.tags());
    });
  }
  GCX_ASSIGN_OR_RETURN(
      ExecStats stats,
      EvaluateOne(query.analyzed(), query.options(), ctx, ctx.projector(),
                  &ctx.scanner(), out, governor_));
  PublishExecStats(stats, GlobalMetrics(), query.canonical_text());
  return stats;
}

Result<ExecStats> EvaluateOne(const AnalyzedQuery& analyzed,
                              const EngineOptions& options, ExecContext& ctx,
                              StreamProjector& projector,
                              const XmlScanner* scanner, std::ostream* out,
                              RunGovernor* governor, bool charge_output,
                              AggregateParts* capture) {
  auto start = std::chrono::steady_clock::now();
  // Nothing reaches a context's buffer before its own evaluator pulls, so
  // the GC rule is applied here for every path.
  ctx.buffer().set_gc_enabled(options.active_gc());

  if (options.mode == EngineMode::kMaterializedProjection) {
    // Static projection à la Marian & Siméon: materialize the projected
    // document completely, then evaluate on it.
    while (true) {
      GCX_ASSIGN_OR_RETURN(bool more, ctx.Pull());
      if (!more) break;
    }
  }

  XmlWriter writer(out);
  if (charge_output) writer.set_governor(governor);
  EvalOptions eval_options;
  eval_options.execute_signoffs = options.active_gc();
  eval_options.aggregate_capture = capture;
  Evaluator evaluator(&analyzed, &ctx, &writer, eval_options);
  GCX_RETURN_IF_ERROR(evaluator.Run());
  if (governor != nullptr) {
    // Final checkpoint: an output that landed exactly on the cap passes,
    // one byte past it trips — even when the overrun happened after the
    // last input pull.
    GCX_RETURN_IF_ERROR(governor->CheckAll(/*force_clock=*/true));
  }

  ExecStats stats = MakeExecStats(start, writer.bytes_written(), &ctx.buffer(),
                                  &projector, scanner, &evaluator.stats());
  if (eval_options.execute_signoffs) {
    // Paper requirement (2): every assigned role was removed again.
    GCX_CHECK(ctx.buffer().live_role_instances() == 0);
  }
  return stats;
}

namespace {
void SerializeBufferNode(const BufferNode* node, const SymbolTable& tags,
                         XmlWriter* writer) {
  if (node->is_text) {
    writer->Text(node->text);
    return;
  }
  bool is_root = node->parent == nullptr;
  if (!is_root) writer->StartElement(tags.Name(node->tag));
  for (const BufferNode* c = node->first_child; c != nullptr;
       c = c->next_sibling) {
    SerializeBufferNode(c, tags, writer);
  }
  if (!is_root) writer->EndElement(tags.Name(node->tag));
}
}  // namespace

Result<ExecStats> Engine::Project(const CompiledQuery& query,
                                  std::string_view input,
                                  std::ostream* out) const {
  return Project(query, std::make_unique<StringSource>(input), out);
}

Result<ExecStats> Engine::Project(const CompiledQuery& query,
                                  std::unique_ptr<ByteSource> input,
                                  std::ostream* out) const {
  auto start = std::chrono::steady_clock::now();
  StreamExecContext ctx(&query.analyzed().projection, &query.analyzed().roles,
                        std::move(input), query.options().scanner);
  ctx.set_governor(governor_);
  ctx.buffer().set_gc_enabled(false);
  while (true) {
    GCX_ASSIGN_OR_RETURN(bool more, ctx.Pull());
    if (!more) break;
  }
  XmlWriter writer(out);
  writer.set_governor(governor_);
  SerializeBufferNode(ctx.buffer().root(), ctx.tags(), &writer);
  if (governor_ != nullptr) {
    GCX_RETURN_IF_ERROR(governor_->CheckAll(/*force_clock=*/true));
  }

  ExecStats stats = MakeExecStats(start, writer.bytes_written(), &ctx.buffer(),
                                  &ctx.projector(), &ctx.scanner());
  PublishExecStats(stats, GlobalMetrics(), query.canonical_text());
  return stats;
}

Result<ExecStats> Engine::ExecuteNaiveDom(const CompiledQuery& query,
                                          std::unique_ptr<ByteSource> input,
                                          std::ostream* out) const {
  auto start = std::chrono::steady_clock::now();
  // Read the entire input (Galax-like engines buffer everything), waiting
  // out any would-block stalls — bounded by the governor's deadline and
  // arena budget when one is installed.
  std::string document;
  GCX_RETURN_IF_ERROR(ReadAll(input.get(), &document, governor_));
  GCX_ASSIGN_OR_RETURN(std::unique_ptr<DomDocument> doc,
                       ParseDom(document, query.options().scanner));
  GCX_ASSIGN_OR_RETURN(ExecStats stats,
                       EvaluateOnDom(query, doc.get(),
                                     DomSubtreeBytes(doc->root()), start, out,
                                     governor_));
  stats.scan_passes = 1;
  stats.input_bytes = document.size();
  PublishExecStats(stats, GlobalMetrics(), query.canonical_text());
  return stats;
}

Result<ExecStats> EvaluateOnDom(const CompiledQuery& query, DomDocument* doc,
                                uint64_t dom_bytes,
                                std::chrono::steady_clock::time_point start,
                                std::ostream* out, RunGovernor* governor) {
  XmlWriter writer(out);
  writer.set_governor(governor);
  GCX_RETURN_IF_ERROR(EvalQueryOnDom(query.parsed(), doc, &writer));
  if (governor != nullptr) {
    GCX_RETURN_IF_ERROR(governor->CheckAll(/*force_clock=*/true));
  }
  ExecStats stats = MakeExecStats(start, writer.bytes_written());
  stats.peak_bytes = dom_bytes;
  return stats;
}

}  // namespace gcx
