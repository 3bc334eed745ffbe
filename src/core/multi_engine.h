// Multi-query batched execution: one document scan, N queries.
//
// A production deployment of the paper's engine rarely evaluates one query
// at a time — many concurrent queries hit the same document stream. The
// MultiQueryEngine accepts N compiled queries, merges their projection DFAs
// into one shared prefilter (projection/merged_dfa.h), scans the input
// exactly ONCE, and demultiplexes the surviving events across N independent
// projector/buffer/evaluator pipelines, so each query produces byte-exactly
// the output it would have produced alone.
//
// Architecture (extends Fig. 11 to a batch):
//
//   scanner ──► merged-DFA prefilter ──► shared replay log ──► projector 1 ─ evaluator 1
//              (skips subtrees dead                       ├──► projector 2 ─ evaluator 2
//               for EVERY query)                          └──► …
//
// Evaluators run sequentially; each pulls through the shared log at its own
// position. Whoever reaches the head of the log advances the single
// scanner; everyone behind replays buffered events. A subtree no query can
// match is consumed by the prefilter without ever entering the log (the
// shared analog of the per-query fast-skip). Events already replayed by
// every still-active query are dropped from the log's tail — in practice
// that frees little before the last query runs (earlier queries pin
// position 0 until they evaluate); see the memory note below.
//
// Memory: the log retains the union-projected event stream until the last
// query has replayed it — the inherent cost of evaluating N pull-based
// queries against one sequential scan. The resumable MultiQueryRun pumps the
// whole stream before any evaluator runs, so a one-query run retains it too
// (charged to its governor's replay ledgers), where Execute's lone evaluator
// trims each event as it replays it. A sharded run (ExecuteSharded) keeps
// every shard's log and arena until the batch ends: the merge-and-replay
// log is spliced from them (entries moved, text left in the shard arenas),
// and the shard demuxes release their ledger charges when destroyed. Each
// query evaluates through the solo engine's own routine (EvaluateOne,
// core/run_query.h), so its buffer behaves exactly as in a solo run
// (projection + active GC), and the paper's Sec. 3 safety requirements
// hold and are re-checked per query.

#ifndef GCX_CORE_MULTI_ENGINE_H_
#define GCX_CORE_MULTI_ENGINE_H_

#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/merged_projection.h"
#include "common/status.h"
#include "core/engine.h"
#include "core/shard.h"
#include "xml/scanner.h"

namespace gcx {

/// Counters of the one shared scan a batch performs.
struct SharedScanStats {
  uint64_t scan_passes = 0;    ///< raw input passes for the whole batch (1)
  uint64_t bytes_scanned = 0;  ///< bytes consumed from the input source
  uint64_t events_scanned = 0; ///< events produced by the single scanner
  /// Events that survived the merged-DFA prefilter into the replay log.
  uint64_t events_forwarded = 0;
  /// Events consumed inside shared skips (subtrees and text no query needs).
  uint64_t events_shared_skipped = 0;
  uint64_t shared_subtrees_skipped = 0;  ///< whole subtrees skipped
  /// Event deliveries summed over all queries (≤ queries × events_forwarded).
  uint64_t events_demuxed = 0;
  uint64_t merged_dfa_states = 0;  ///< materialized product states
  uint64_t replay_log_peak = 0;    ///< peak buffered events in the log
  /// High-water mark of the replay log's text arena (the log stores event
  /// payloads as arena views; trimming releases whole chunks back). For a
  /// sharded run: the sum of the per-shard arena peaks.
  uint64_t replay_arena_peak_bytes = 0;
  /// Would-block suspensions the shared scan took (0 for always-ready
  /// sources: each stall is one scanner rewind-to-event-boundary).
  uint64_t stalls = 0;
  /// Parallel shards the scan ran on (0: ordinary single scan).
  uint64_t shards = 0;
  /// Queries of the batch the classifier proved subtree-independent and the
  /// sharded executor therefore evaluated INSIDE the shard workers, merging
  /// per-query results instead of replaying merged events (0 for unsharded
  /// runs and for batches where no query qualified).
  uint64_t shard_local_queries = 0;
};

/// Result of one batched execution.
struct MultiQueryStats {
  SharedScanStats shared;
  /// Static union shape of the batch's projection trees (shared vs private).
  MergedProjectionStats projection;
  /// Per-query statistics, index-aligned with the submitted batch. Their
  /// scan_passes are 0: the single shared pass is accounted above.
  std::vector<ExecStats> per_query;
  /// Replay-arena high-water mark per shard, index-aligned with the planned
  /// shards (empty for unsharded runs). Sums to shared.replay_arena_peak_bytes.
  std::vector<uint64_t> per_shard_arena_peak_bytes;
};

/// True when two option sets may share one batch: same EngineMode and the
/// same scanner tokenization (analysis toggles may differ per query). The
/// admission layer (core/admission.h) groups arriving requests on exactly
/// this predicate; Execute enforces it.
bool BatchCompatibleOptions(const EngineOptions& a, const EngineOptions& b);

/// Stable grouping key for BatchCompatibleOptions: two option sets are
/// batch-compatible iff their fingerprints are equal.
std::string BatchCompatibilityFingerprint(const EngineOptions& options);

/// Outcome of pumping the shared scan (SharedScanDemux::PumpOne and the
/// resumable MultiQueryRun report progress in these terms).
enum class PumpState {
  kEvent,    ///< one event entered the replay log
  kStalled,  ///< the source would block — resume when it is readable
  kDone,     ///< end-of-document reached the log; the scan is complete
};

/// Batched execution façade. All queries of a batch must have been compiled
/// with the same EngineMode and scanner options (analysis toggles may
/// differ per query); Execute rejects mixed batches.
///
/// Modes:
///   kStreaming / kMaterializedProjection — shared scan + merged-DFA
///       prefilter + per-query projector/buffer/evaluator (see above);
///   kNaiveDom — the document is read and DOM-parsed once, then every
///       query is evaluated against the shared DOM.
class MultiQueryEngine {
 public:
  /// Runs every query of `queries` over `input`, writing query i's result
  /// to `*outs[i]`. The input is scanned exactly once.
  Result<MultiQueryStats> Execute(
      const std::vector<const CompiledQuery*>& queries, std::string_view input,
      const std::vector<std::ostream*>& outs) const;

  /// Stream variant: consumes an arbitrary byte source.
  Result<MultiQueryStats> Execute(
      const std::vector<const CompiledQuery*>& queries,
      std::unique_ptr<ByteSource> input,
      const std::vector<std::ostream*>& outs) const;

  /// Sharded variant over a STORED document (core/shard.h): plans subtree
  /// boundaries and scans the slices in parallel on a worker pool, each
  /// worker pumping its own shared-scan demux (scanner + merged DFA +
  /// replay log) over the one shared tag table. Queries the classifier
  /// (analysis/shard_classifier.h) proves subtree-independent are
  /// evaluated INSIDE the workers — the ordinary projector/buffer/evaluator
  /// pipeline per dynamic query part over the shard's framed log — and only
  /// per-query *results* are concatenated in document order (aggregate
  /// partials combined for count/sum). The shard logs are then spliced into
  /// one replay log, minus their synthetic wrappers, and the remaining
  /// queries evaluate over it through the same pipeline as an unsharded
  /// batch (MultiQueryRun), so per-query buffer peaks match Execute's; both
  /// paths are byte-identical to Execute. Falls back to the single-scan
  /// Execute when the planner declines (small/unshardable document,
  /// shards <= 1, kNaiveDom), which also preserves exact scanner errors for
  /// malformed input.
  Result<MultiQueryStats> ExecuteSharded(
      const std::vector<const CompiledQuery*>& queries, std::string_view input,
      const std::vector<std::ostream*>& outs,
      const ShardOptions& shard_options) const;

  /// Installs a resource governor for subsequent executions: the shared
  /// scan, the shard workers and every evaluator then check the deadline,
  /// cancellation and the arena/replay/output budgets at their existing
  /// checkpoints. A sharded run whose scan trips a *resource* budget falls
  /// back to the serial single-scan path under a fresh child attempt (the
  /// serial replay log trims as the lone stream advances, so it can fit
  /// where N simultaneous shard arenas did not). Null (the default)
  /// governs nothing. Not owned; must outlive the runs.
  void set_governor(RunGovernor* governor) { governor_ = governor; }

 private:
  RunGovernor* governor_ = nullptr;
};

/// Resumable batched execution over a readiness-aware source: the control
/// flow is inverted from Execute's "pull until EOF" to "pump while ready".
/// It is the one unsharded batch pipeline: MultiQueryEngine::Execute builds
/// the same run and evaluates it straight away, so both produce the same
/// outputs and per-query peak_bytes by construction.
///
/// Step() advances the shared scan while the source produces data. When the
/// source reports would-block, Step returns kStalled WITHOUT blocking — the
/// caller (typically the admission scheduler) parks this run, works on
/// other batches, and calls Step again once ReadyFd() is readable. When the
/// scan completes, Step runs every evaluator — the replay log is complete
/// at that point, so evaluation can never stall — writes all outputs, and
/// returns kDone.
///
/// Compared with MultiQueryEngine::Execute (evaluator-driven pull), the
/// replay log here buffers the complete union-projected stream before the
/// first evaluator runs. For N >= 2 that is the same peak the pull path
/// reaches (queries behind the head pin the log tail until they evaluate).
/// A one-query run retains its union-projected log too, charged to the
/// replay ledgers, where Execute trims each event as it is replayed; its
/// buffer peak is still the solo engine's, since evaluation pulls lazily.
class MultiQueryRun {
 public:
  enum class State {
    kRunnable,  ///< work available now — call Step()
    kStalled,   ///< source would block: wait on ReadyFd(), then Step again
    kDone,      ///< every query evaluated; TakeStats() is ready
    kFailed,    ///< execution failed; status() carries the error
  };

  /// Validates like MultiQueryEngine::Execute; on a validation error the
  /// run starts in kFailed with status() set. All three engine modes are
  /// supported (kNaiveDom drains the source incrementally and parses once
  /// at EOF). `governor`, when non-null, bounds the run: every pump and
  /// evaluator checkpoint consults it, and a trip fails the run with its
  /// typed status. Not owned; must outlive the run.
  MultiQueryRun(std::vector<const CompiledQuery*> queries,
                std::unique_ptr<ByteSource> input,
                std::vector<std::ostream*> outs,
                RunGovernor* governor = nullptr);
  ~MultiQueryRun();

  MultiQueryRun(const MultiQueryRun&) = delete;
  MultiQueryRun& operator=(const MultiQueryRun&) = delete;

  /// Pumps until the source stalls, the run fails, or everything is done
  /// (in which case the evaluators have already run). Calling Step on a
  /// stalled run simply retries the read; on a finished run it is a no-op.
  State Step();

  State state() const;
  /// The execution error when state() == kFailed.
  Status status() const;
  /// True once any evaluator has started (output may have been written).
  /// The admission layer's split-retry consults this: a resource trip
  /// during the scan phase is retryable (nothing was emitted yet), one
  /// after evaluation began is not.
  bool evaluation_started() const;
  /// The source's readiness descriptor (-1: not pollable, just retry).
  int ReadyFd() const;
  /// Moves the collected statistics out; valid exactly once, after kDone.
  Result<MultiQueryStats> TakeStats();

 private:
  friend class MultiQueryEngine;  // Execute drives impl_ without Step
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace gcx

#endif  // GCX_CORE_MULTI_ENGINE_H_
