// Public API of the GCX reproduction.
//
// Typical use:
//   auto compiled = gcx::CompiledQuery::Compile(query_text);
//   if (!compiled.ok()) { … }
//   gcx::Engine engine;                       // default: full GCX
//   std::ostringstream out;
//   auto stats = engine.Execute(*compiled, input_xml, &out);
//
// EngineOptions exposes every technique from the paper as a toggle, which
// is how the benchmark harness builds its baselines:
//   * mode kStreaming + enable_gc        → GCX (the paper's system)
//   * mode kStreaming + !enable_gc       → incremental projection, no purge
//   * mode kMaterializedProjection       → Marian&Siméon-style static
//                                          projection (project all, then run)
//   * mode kNaiveDom                     → buffer-everything in-memory engine
//                                          (Galax-like reference)

#ifndef GCX_CORE_ENGINE_H_
#define GCX_CORE_ENGINE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "analysis/analyzer.h"
#include "buffer/buffer_tree.h"
#include "common/budget.h"
#include "common/status.h"
#include "projection/projector.h"
#include "xml/scanner.h"
#include "xq/ast.h"

namespace gcx {

/// Execution strategy.
enum class EngineMode {
  kStreaming,              ///< pull-based streaming evaluation (GCX)
  kMaterializedProjection, ///< project the full stream, then evaluate
  kNaiveDom,               ///< load the full document, then evaluate
};

/// All engine knobs (paper techniques are individually switchable).
struct EngineOptions {
  EngineMode mode = EngineMode::kStreaming;
  /// Execute signOff-statements and purge buffers (Sec. 5). Off = "static
  /// analysis alone".
  bool enable_gc = true;
  /// Sec. 6 optimizations.
  bool aggregate_roles = true;
  bool eliminate_redundant_roles = true;
  bool early_updates = true;
  ScannerOptions scanner;

  /// True when runs execute signOff-statements and purge the buffer: GC is
  /// on and evaluation streams (static projection buffers everything).
  bool active_gc() const { return enable_gc && mode == EngineMode::kStreaming; }
};

/// Execution statistics (one Execute call).
struct ExecStats {
  BufferStats buffer;        ///< streaming modes
  ProjectorStats projector;  ///< streaming modes
  uint64_t peak_bytes = 0;   ///< headline memory: buffer peak (streaming) or
                             ///< DOM size (kNaiveDom)
  uint64_t input_bytes = 0;
  uint64_t output_bytes = 0;
  uint64_t dfa_states = 0;
  /// Would-block suspensions the scanner took (non-blocking sources only).
  uint64_t stalls = 0;
  double wall_seconds = 0;
  /// Raw input passes attributable to this execution: 1 for a solo run,
  /// 0 for a query inside a batch (the batch's single shared pass is
  /// accounted in MultiQueryStats::shared — see core/multi_engine.h).
  uint64_t scan_passes = 0;
  /// Events this query's projector processed (solo: every scanner event;
  /// batched: the shared-scan events remaining after the merged-DFA filter
  /// up to the point this query's evaluation completed).
  uint64_t events_delivered = 0;
  // Final buffer state, for checking the Sec. 3 safety requirements after a
  // complete run: with GC on, every assigned role must have been removed
  // (live_roles_final == 0) and the buffer must be drained down to its
  // virtual root (buffer_nodes_final == 1). Streaming modes only.
  uint64_t live_roles_final = 0;
  uint64_t buffer_nodes_final = 0;
  /// if-conditions the evaluator ran (a join pass answered from its index
  /// runs none).
  uint64_t conditions_evaluated = 0;
  // Hash-indexed value joins (analysis/join_plan.h): binding tuples
  // indexed, chain executions answered from an index, and the indexes'
  // estimated peak heap bytes — reported beside peak_bytes, not in it,
  // because the paper's memory figure counts buffered nodes.
  uint64_t join_index_rows = 0;
  uint64_t join_probes = 0;
  uint64_t join_index_peak_bytes = 0;
};

/// One named engine configuration of the paper's Table 1 column set.
struct NamedEngineConfig {
  const char* name;
  EngineOptions options;
};

/// The four standard configurations every cross-engine harness iterates:
/// GCX (streaming + GC), GCX-noGC, static projection, naive DOM. Shared by
/// the benchmarks and the conformance suite so their column sets cannot
/// drift apart.
std::vector<NamedEngineConfig> StandardEngineConfigs();

/// A query compiled against a fixed set of EngineOptions (the options
/// affect normalization and static analysis, so they bind at compile time).
///
/// A CompiledQuery is immutable after Compile and cheap to copy: copies
/// share one compilation (shared ownership of the analysis result), so a
/// cache can hand the same compilation to many concurrent executions. All
/// execution-time state (scanner, DFA, buffer, tag table) lives in the
/// per-run ExecContext — concurrent Engine::Execute calls over one
/// CompiledQuery never write through it.
class CompiledQuery {
 public:
  /// Parses, normalizes and statically analyzes `text`.
  static Result<CompiledQuery> Compile(std::string_view text,
                                       const EngineOptions& options = {});

  /// Compiles an already-parsed query. QueryCache uses this to avoid a
  /// second parse after probing its canonical-text key.
  static Result<CompiledQuery> CompileParsed(Query parsed,
                                             const EngineOptions& options = {});

  const AnalyzedQuery& analyzed() const { return impl_->analyzed; }
  /// The query as parsed (pre-normalization) — the baseline engines
  /// evaluate this form.
  const Query& parsed() const { return impl_->parsed; }
  const EngineOptions& options() const { return impl_->options; }

  /// The parsed query rendered back to text: a canonical spelling that is
  /// identical for all submissions differing only in formatting. QueryCache
  /// keys on this, so `<r>{count(/a)}</r>` and `<r>{ count( /a ) }</r>`
  /// share one compilation.
  const std::string& canonical_text() const { return impl_->canonical_text; }

  /// Human-readable compilation dump (variable tree, roles, projection
  /// tree, rewritten query).
  std::string Explain() const { return impl_->analyzed.Explain(); }

  /// Approximate resident size of this compilation in bytes (two AST
  /// copies, analysis structures, canonical text). Computed once at
  /// compile time; QueryCache's byte budget is accounted in these units.
  size_t ApproxBytes() const { return impl_->approx_bytes; }

 private:
  struct Impl {
    AnalyzedQuery analyzed;
    Query parsed;
    EngineOptions options;
    std::string canonical_text;
    size_t approx_bytes = 0;
  };
  CompiledQuery() = default;
  std::shared_ptr<const Impl> impl_;
};

/// Per-token trace callback: (event, buffer, tags). Used by examples/tests
/// to reproduce the paper's Fig. 2 execution trace.
using TraceFn =
    std::function<void(const XmlEvent&, const BufferTree&, const SymbolTable&)>;

/// Stateless execution façade.
class Engine {
 public:
  /// Runs `query` over `input`, writing the result to `out`.
  Result<ExecStats> Execute(const CompiledQuery& query, std::string_view input,
                            std::ostream* out) const;

  /// Stream variant: consumes an arbitrary byte source.
  Result<ExecStats> Execute(const CompiledQuery& query,
                            std::unique_ptr<ByteSource> input,
                            std::ostream* out) const;

  /// Standalone document projection: materializes Π_{P[t](T)}(T) — the
  /// projection of the input w.r.t. the query's projection tree (Sec. 2) —
  /// and serializes it to `out` instead of evaluating the query. By
  /// Theorem 1, evaluating the query over this projected document yields
  /// the same result as over the original. Governed like Execute.
  Result<ExecStats> Project(const CompiledQuery& query, std::string_view input,
                            std::ostream* out) const;

  /// Stream variant of Project.
  Result<ExecStats> Project(const CompiledQuery& query,
                            std::unique_ptr<ByteSource> input,
                            std::ostream* out) const;

  /// Installs a per-input-token trace (streaming modes only).
  void set_trace(TraceFn trace) { trace_ = std::move(trace); }

  /// Installs a resource governor for subsequent Execute and Project calls:
  /// deadline, buffer-byte and output-byte budgets are enforced at the pull
  /// checkpoints with typed kDeadlineExceeded/kResourceExhausted errors.
  /// Null (the default) governs nothing. Not owned; must outlive the runs.
  void set_governor(RunGovernor* governor) { governor_ = governor; }

 private:
  Result<ExecStats> ExecuteStreaming(const CompiledQuery& query,
                                     std::unique_ptr<ByteSource> input,
                                     std::ostream* out) const;
  Result<ExecStats> ExecuteNaiveDom(const CompiledQuery& query,
                                    std::unique_ptr<ByteSource> input,
                                    std::ostream* out) const;

  TraceFn trace_;
  RunGovernor* governor_ = nullptr;
};

}  // namespace gcx

#endif  // GCX_CORE_ENGINE_H_
