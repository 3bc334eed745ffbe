// Query admission: turn a stream of (query, document) requests into
// well-formed multi-query batches.
//
// PR 2's MultiQueryEngine executes a batch over one shared scan but leaves
// batch formation to the caller (and rejects mixed batches). The admission
// controller closes that gap for server-shaped workloads:
//
//   Submit(text, options, doc, out)   — compile through the shared
//       QueryCache (repeat texts reuse one compilation; malformed queries
//       are rejected here and never reach a batch), then enqueue the
//       request in the group of batch-compatible peers (same document,
//       same EngineMode + scanner tokenization — see
//       BatchCompatibleOptions in core/multi_engine.h).
//   Run()                             — per group, cut the pending requests
//       into batches and execute each over one shared document scan,
//       writing every query's result to its Submit-time stream.
//
// Scheduling (PR 5): Run is a ready-batch scheduler, not a strict queue.
// Groups are visited round-robin; each group's current batch is pumped
// while its document source produces data (MultiQueryRun) and PARKED the
// moment the source reports would-block, letting every other runnable
// batch proceed. Parked batches resume when their source's ReadyFd()
// signals readiness (poll). One stalled socket/FIFO therefore no longer
// serializes the batches queued behind it — only its own group waits.
// Within a group, batches still run sequentially: they re-scan the same
// document, and a group's submission order is the order its results are
// written in.
//
// Admission limits bound what one batch may cost:
//   * max_batch_queries — hard cap on queries per batch;
//   * max_replay_log_events — a buffer-memory budget. The shared replay
//     log is the batch's dominant memory cost (its peak is reported by
//     SharedScanStats::replay_log_peak); the controller divides observed
//     peaks by the batch size to maintain a per-query event estimate and
//     cuts batches so (estimate × batch size) stays within the budget.
//     The model is adaptive: the first batch runs under the size cap only,
//     every executed batch refines the estimate (max-of-observations, so
//     the bound is conservative).
//
// Error contract: a request whose query does not compile is rejected at
// Submit (the error names the query; nothing else is affected). A batch
// whose *execution* fails (e.g. malformed document) fails the whole Run —
// execution is one shared scan, so per-query recovery is impossible — and
// drops all still-pending requests so the controller stays reusable.

#ifndef GCX_CORE_ADMISSION_H_
#define GCX_CORE_ADMISSION_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/budget.h"
#include "common/status.h"
#include "core/engine.h"
#include "core/query_cache.h"
#include "xml/scanner.h"

namespace gcx {

struct SharedScanStats;  // core/multi_engine.h

/// Per-batch admission limits.
struct AdmissionLimits {
  /// Hard cap on queries per batch. Must be >= 1.
  size_t max_batch_queries = 16;
  /// Replay-log budget in buffered events (0 = unlimited). Enforced through
  /// the adaptive per-query estimate described above.
  uint64_t max_replay_log_events = 0;
  /// Parallel scan shards (core/shard.h) for batches whose document was
  /// registered as in-memory content (RegisterDocument(string)); <= 1
  /// disables. Opener/async documents always use the single scan — their
  /// bytes are not stored, and sharding needs the whole document.
  size_t shards = 1;
  /// Worker threads for the sharded scan (0 = one per shard, capped at
  /// hardware concurrency).
  size_t shard_threads = 0;
  /// Release every document a successful Run() executed batches for —
  /// opener AND retained in-memory content — so long-lived controllers do
  /// not accumulate document bytes across register/run cycles. Off
  /// (default): documents stay registered until replaced or explicitly
  /// UnregisterDocument'ed, and repeat submissions need no re-register.
  bool release_documents_on_drain = false;

  // --- Self-tuning (closed feedback loop over the controller's own
  // metrics). When `adaptive` is on, every completed Run() reviews what it
  // observed and nudges the EFFECTIVE batch cap and shard count the next
  // run will use. Batch formation changes only; each query's output is
  // byte-identical regardless of how the stream was cut into batches.
  //
  //   * Stall pressure — parked batches per executed batch at or above
  //     `adaptive_stall_threshold` — halves the effective cap (multiplic-
  //     ative decrease: fewer queries pinned behind one stalled source),
  //     bounded below by adaptive_min_batch_queries.
  //   * Memory pressure — the run's peak replay-arena bytes above
  //     `adaptive_arena_budget_bytes` (0 disables the signal) — also
  //     halves the cap, and after `adaptive_hysteresis` consecutive
  //     pressured runs halves the effective shard count too (each shard
  //     retains a private arena, so fewer shards directly shrink the
  //     resident working set), bounded below by 1.
  //   * Calm runs (neither signal) grow the cap back by 1 per
  //     `adaptive_hysteresis` consecutive calm runs (additive increase);
  //     once the cap is fully restored, the shard count recovers the same
  //     way. Ceilings are the configured max_batch_queries / shards.
  //
  // The decision trail is recorded in AdmissionStats (adaptive_* fields)
  // and published as admission.adaptive.* metrics.
  bool adaptive = false;
  /// Floor the adaptive controller never cuts the batch cap below.
  size_t adaptive_min_batch_queries = 1;
  /// Replay-arena budget in bytes for the memory-pressure signal
  /// (0 = stall signal only).
  uint64_t adaptive_arena_budget_bytes = 0;
  /// Parked-batches-per-batch ratio that counts as stall pressure.
  double adaptive_stall_threshold = 0.5;
  /// Consecutive calm runs before a grow step, and consecutive pressured
  /// runs before the shard count shrinks (must be >= 1).
  size_t adaptive_hysteresis = 2;

  // --- Resource governance (common/budget.h). A non-empty budget arms a
  // root RunGovernor per Run(): the wall-clock deadline and the output-byte
  // ledger span the whole run, while each batch executes under a child
  // attempt with its own cancel token and arena/replay ledgers.
  //
  // Degradation policy: a batch whose *scan phase*
  // trips a memory budget (kResourceExhausted before any evaluator ran) is
  // re-formed at half size from the same cursor — bounded exponential
  // backoff down to singletons. A tripping singleton is SHED: its typed
  // rejection is recorded in AdmissionRunStats (first_shed_error /
  // queries_shed) and the run continues — never a stall, never a crash. A
  // deadline trip fails the whole run with kDeadlineExceeded: the deadline
  // watchdog also reaps parked batches whose source never becomes
  // readable, so a dead FIFO can no longer pin Run() forever. Every
  // split/shed/reap publishes through the robustness.* metrics family.
  RunBudget budget;
};

/// Lifetime counters of one controller.
struct AdmissionStats {
  uint64_t submitted = 0;  ///< Submit calls
  uint64_t rejected = 0;   ///< compile failures at admission
  uint64_t admitted = 0;   ///< requests that joined a pending group
  uint64_t batches_formed = 0;
  uint64_t solo_runs = 0;  ///< single-query batches executed without demux
  /// Batches executed over the parallel sharded scan (the planner accepted
  /// the document; fallback runs are not counted here).
  uint64_t sharded_runs = 0;
  uint64_t splits_by_size = 0;    ///< batch cuts forced by max_batch_queries
  uint64_t splits_by_memory = 0;  ///< batch cuts forced by the event budget
  uint64_t replay_log_peak_observed = 0;  ///< max over all executed batches
  /// Adaptive memory model: max observed replay-log events per batched
  /// query (0 until the first multi-query batch ran).
  uint64_t events_per_query_estimate = 0;
  /// Scheduler counters. batches_parked: transitions into the parked
  /// state (a batch observed would-block). batch_resumes: times a parked
  /// batch was stepped again — every scheduler sweep retries parked
  /// batches, so this counts retries (a retry may find the source still
  /// stalled), not confirmed readiness events.
  uint64_t batches_parked = 0;
  uint64_t batch_resumes = 0;
  /// Documents dropped (opener + content) via release-on-drain or explicit
  /// UnregisterDocument.
  uint64_t documents_released = 0;
  /// Bytes currently retained for in-memory documents
  /// (RegisterDocument(string)) — the sharded scan path's working set.
  uint64_t content_bytes_resident = 0;
  /// Self-tuning decision trail (AdmissionLimits::adaptive). The effective
  /// caps the NEXT run will use (0 while adaptation is off), and how often
  /// each adjustment fired.
  uint64_t adaptive_batch_cap = 0;
  uint64_t adaptive_shards = 0;
  uint64_t adaptive_increases = 0;
  uint64_t adaptive_decreases_by_stalls = 0;
  uint64_t adaptive_decreases_by_memory = 0;
  uint64_t adaptive_shard_decreases = 0;
  /// Resource-governance decision trail (AdmissionLimits::budget).
  uint64_t budget_splits = 0;   ///< batches re-formed at half size
  uint64_t budget_sheds = 0;    ///< singletons rejected with a typed error
  uint64_t watchdog_reaps = 0;  ///< parked batches reaped at the deadline
};

/// Totals of one Run call.
struct AdmissionRunStats {
  uint64_t queries = 0;
  uint64_t batches = 0;
  uint64_t scan_passes = 0;   ///< document scans paid (== batches)
  uint64_t bytes_scanned = 0;
  uint64_t replay_log_peak = 0;  ///< max over this run's batches
  /// Max replay-arena bytes over this run's batches (sharded batches: the
  /// sum of their per-shard arena peaks) — the adaptive memory signal.
  uint64_t replay_arena_peak_bytes = 0;
  uint64_t stalls = 0;  ///< would-block parks the scheduler absorbed
  /// Queries rejected by the degradation policy (memory-tripping
  /// singletons). The run itself still succeeds; the first typed rejection
  /// is preserved so callers can surface it.
  uint64_t queries_shed = 0;
  Status first_shed_error = Status::Ok();
};

/// Groups arriving requests into MultiQueryEngine batches. Thread-safe:
/// Submit may race from many threads; Run serializes against both Submit
/// and other Run calls.
class AdmissionController {
 public:
  /// Re-openable document source: each batch over the document opens one
  /// fresh ByteSource (a group may need several batches, hence scans).
  using DocumentOpener = std::function<std::unique_ptr<ByteSource>()>;
  /// Async-capable opener variant: may fail (surfacing e.g. a vanished
  /// FIFO as a clean Run error), and is expected to hand out
  /// readiness-aware sources (ReadyFd() >= 0, Read may report
  /// would-block) that the scheduler can park batches on.
  using AsyncDocumentOpener =
      std::function<Result<std::unique_ptr<ByteSource>>()>;

  /// `cache` is borrowed and shared: concurrent controllers (or direct
  /// GetOrCompile users) deduplicate compilations through it.
  explicit AdmissionController(QueryCache* cache, AdmissionLimits limits = {});
  /// Unregisters the admission.* metrics collector.
  ~AdmissionController();

  AdmissionController(const AdmissionController&) = delete;
  AdmissionController& operator=(const AdmissionController&) = delete;

  /// Registers (or replaces) a document under `doc_id`.
  void RegisterDocument(std::string doc_id, DocumentOpener opener);
  /// Convenience: the document is this in-memory string.
  void RegisterDocument(std::string doc_id, std::string content);
  /// Async variant: the opener may fail and its sources may stall; the
  /// Run scheduler parks batches over them instead of blocking.
  void RegisterDocumentAsync(std::string doc_id, AsyncDocumentOpener opener);

  /// Drops `doc_id` (opener and any retained in-memory content). Returns
  /// false when the document is unknown or still referenced by pending
  /// submissions (those must Run() or be dropped first). Subsequent
  /// Submits against the id are rejected until it is re-registered.
  bool UnregisterDocument(std::string_view doc_id);

  /// Admits one request against `doc_id`, compiling through the cache.
  /// On a compile failure the request is rejected and nothing is enqueued.
  Status Submit(std::string_view query_text, const EngineOptions& options,
                std::string_view doc_id, std::ostream* out);

  /// Executes every pending request. Results are written to the Submit-time
  /// streams. Runnable batches are scheduled round-robin across groups and
  /// stalled batches are parked until their source is ready. Within a
  /// group, batches always run (and write) in submission order.
  Result<AdmissionRunStats> Run();

  AdmissionStats stats() const;

 private:
  struct Request {
    CompiledQuery query;
    std::ostream* out = nullptr;
  };
  struct Group {
    std::string doc_id;
    std::vector<Request> pending;
    size_t order = 0;  ///< first-submission order of the group
  };

  struct GroupWork;

  /// Current batch-size cap from the limits and the adaptive estimate.
  /// `*memory_bound` is set when the event budget (not the size cap) binds.
  size_t BatchCap(bool* memory_bound) const;
  /// Folds one executed batch's shared-scan counters into the model.
  void ObserveBatch(size_t batch_queries, uint64_t replay_log_peak);
  /// Forms the next batch of `work` and either executes it inline (solo
  /// fast path) or leaves it as `work.current` for the scheduler to pump.
  /// `root`, when non-null, is the run's root governor; the batch executes
  /// under a child attempt derived from it. Caller holds mu_.
  Status StartNextBatch(GroupWork* work, AdmissionRunStats* run,
                        RunGovernor* root);
  /// Degradation decision for a batch that failed under a governor: true
  /// when the failure was absorbed (split scheduled or singleton shed) and
  /// the run should continue; false when it must fail the run. Caller
  /// holds mu_.
  bool AbsorbBudgetFailure(GroupWork* work, const Status& failure,
                           size_t batch_queries, bool evaluation_started,
                           AdmissionRunStats* run);
  /// Books `batch_queries` executed queries of `work` with their shared-scan
  /// counters into the stats and model, advances the cursor and clears the
  /// batch state — the one bookkeeping step of every execution path.
  /// Caller holds mu_.
  void BookBatch(GroupWork* work, size_t batch_queries,
                 const SharedScanStats& shared, AdmissionRunStats* run);
  /// Drops one document's opener + content, maintaining the release stats.
  /// Caller holds mu_.
  bool ReleaseDocumentLocked(const std::string& doc_id);
  /// Effective shard count for the next batch (adaptive may have shrunk it).
  size_t EffectiveShards() const;
  /// Reviews a completed Run and adjusts the effective batch
  /// cap / shard count (see AdmissionLimits). Caller holds mu_.
  void AdaptAfterRun(const AdmissionRunStats& run);

  mutable std::mutex mu_;
  QueryCache* cache_;
  AdmissionLimits limits_;
  std::unordered_map<std::string, AsyncDocumentOpener> documents_;
  /// Stored bytes of documents registered via RegisterDocument(string):
  /// the sharded scan path needs the whole document, not a stream.
  std::unordered_map<std::string, std::shared_ptr<const std::string>>
      contents_;
  /// Group key: doc_id + '\n' + BatchCompatibilityFingerprint.
  std::map<std::string, Group> groups_;
  size_t next_group_order_ = 0;
  AdmissionStats stats_;
  // Self-tuning state: the effective caps (seeded from the limits) and the
  // consecutive calm/pressured run counters the hysteresis is keyed on.
  size_t adaptive_batch_cap_ = 0;
  size_t adaptive_shards_ = 0;
  size_t calm_runs_ = 0;
  size_t pressured_runs_ = 0;
  /// Snapshot-time metrics sampler over stats_ (see common/metrics.h).
  int metrics_collector_id_ = 0;
};

}  // namespace gcx

#endif  // GCX_CORE_ADMISSION_H_
