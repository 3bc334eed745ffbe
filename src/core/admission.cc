#include "core/admission.h"

#include <sched.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "core/multi_engine.h"
#include "core/shard.h"
#include "xml/fd_source.h"

namespace gcx {

namespace {
/// ByteSource over a shared immutable string (keeps the content alive for
/// as long as any open source views it).
class SharedStringSource : public ByteSource {
 public:
  explicit SharedStringSource(std::shared_ptr<const std::string> data)
      : data_(std::move(data)) {}
  ReadResult Read(char* buffer, size_t capacity) override {
    size_t n = std::min(capacity, data_->size() - pos_);
    if (n == 0) return ReadResult::Eof();
    std::copy_n(data_->data() + pos_, n, buffer);
    pos_ += n;
    return ReadResult::Ok(n);
  }

 private:
  std::shared_ptr<const std::string> data_;
  size_t pos_ = 0;
};
}  // namespace

/// One group's progress through Run(): the snapshot of its requests, a
/// cursor past the already-executed ones, and the batch currently being
/// pumped (null between batches). `parked` marks a batch that reported
/// would-block and is waiting for its source to become readable.
struct AdmissionController::GroupWork {
  Group group;
  AsyncDocumentOpener* opener = nullptr;
  size_t next = 0;
  size_t batch_size = 0;
  std::unique_ptr<MultiQueryRun> current;
  bool parked = false;
  /// Attempt-scoped child governor of the run's root (null when the run is
  /// unbudgeted). Fresh per batch: a tripped attempt's cancel token must
  /// not poison the split-retry that follows it.
  std::unique_ptr<RunGovernor> governor;
  /// Split-retry cap: after a memory trip the next batch from this group
  /// is at most this many queries (0 = no retry pending). Halved again on
  /// every successive trip — bounded exponential backoff down to 1.
  size_t retry_cap = 0;

  bool finished() const {
    return next >= group.pending.size() && current == nullptr;
  }
};

AdmissionController::AdmissionController(QueryCache* cache,
                                         AdmissionLimits limits)
    : cache_(cache), limits_(limits) {
  GCX_CHECK(cache_ != nullptr);
  GCX_CHECK(limits_.max_batch_queries >= 1);
  if (limits_.adaptive) GCX_CHECK(limits_.adaptive_hysteresis >= 1);
  adaptive_batch_cap_ = limits_.max_batch_queries;
  adaptive_shards_ = limits_.shards;
  if (limits_.adaptive) {
    stats_.adaptive_batch_cap = adaptive_batch_cap_;
    stats_.adaptive_shards = adaptive_shards_;
  }
  metrics_collector_id_ = MetricsRegistry::Global().RegisterCollector(
      [this](MetricsSampleSet& samples) {
        AdmissionStats s = stats();
        samples.Add("admission.submitted", s.submitted);
        samples.Add("admission.rejected", s.rejected);
        samples.Add("admission.admitted", s.admitted);
        samples.Add("admission.batches_formed", s.batches_formed);
        samples.Add("admission.solo_runs", s.solo_runs);
        samples.Add("admission.sharded_runs", s.sharded_runs);
        samples.Add("admission.splits_by_size", s.splits_by_size);
        samples.Add("admission.splits_by_memory", s.splits_by_memory);
        samples.Max("admission.replay_log_peak_observed",
                    s.replay_log_peak_observed);
        samples.Max("admission.events_per_query_estimate",
                    s.events_per_query_estimate);
        samples.Add("admission.batches_parked", s.batches_parked);
        samples.Add("admission.batch_resumes", s.batch_resumes);
        samples.Add("admission.documents_released", s.documents_released);
        // Point-in-time state (resident bytes, effective caps): Set samples
        // vanish with the controller; the counters above are lifetime
        // totals and survive via the registry's retired baseline.
        samples.Set("admission.content_bytes_resident",
                    s.content_bytes_resident);
        samples.Set("admission.adaptive.batch_cap", s.adaptive_batch_cap);
        samples.Set("admission.adaptive.shards", s.adaptive_shards);
        samples.Add("admission.adaptive.increases", s.adaptive_increases);
        samples.Add("admission.adaptive.decreases_by_stalls",
                    s.adaptive_decreases_by_stalls);
        samples.Add("admission.adaptive.decreases_by_memory",
                    s.adaptive_decreases_by_memory);
        samples.Add("admission.adaptive.shard_decreases",
                    s.adaptive_shard_decreases);
        samples.Add("admission.budget_splits", s.budget_splits);
        samples.Add("admission.budget_sheds", s.budget_sheds);
        samples.Add("admission.watchdog_reaps", s.watchdog_reaps);
      });
}

AdmissionController::~AdmissionController() {
  MetricsRegistry::Global().UnregisterCollector(metrics_collector_id_);
}

void AdmissionController::RegisterDocument(std::string doc_id,
                                           DocumentOpener opener) {
  RegisterDocumentAsync(
      std::move(doc_id),
      [opener = std::move(opener)]() -> Result<std::unique_ptr<ByteSource>> {
        return opener();
      });
}

void AdmissionController::RegisterDocument(std::string doc_id,
                                           std::string content) {
  auto shared = std::make_shared<const std::string>(std::move(content));
  std::string id = doc_id;
  RegisterDocument(std::move(doc_id), [shared] {
    return std::make_unique<SharedStringSource>(shared);
  });
  // Retain the bytes AFTER the opener registration (which clears stale
  // content): the sharded scan path needs the whole stored document.
  std::lock_guard<std::mutex> lock(mu_);
  stats_.content_bytes_resident += shared->size();
  contents_[std::move(id)] = std::move(shared);
}

void AdmissionController::RegisterDocumentAsync(std::string doc_id,
                                                AsyncDocumentOpener opener) {
  std::lock_guard<std::mutex> lock(mu_);
  // Re-registration may change the document kind; drop any retained
  // content so the sharded path can never serve stale bytes.
  auto stale = contents_.find(doc_id);
  if (stale != contents_.end()) {
    stats_.content_bytes_resident -= stale->second->size();
    contents_.erase(stale);
  }
  documents_[std::move(doc_id)] = std::move(opener);
}

bool AdmissionController::UnregisterDocument(std::string_view doc_id) {
  std::lock_guard<std::mutex> lock(mu_);
  std::string id(doc_id);
  // Pending submissions hold the registration contract (Run asserts the
  // opener exists): refuse to pull the document out from under them.
  for (const auto& [key, group] : groups_) {
    if (!group.pending.empty() && group.doc_id == id) return false;
  }
  return ReleaseDocumentLocked(id);
}

bool AdmissionController::ReleaseDocumentLocked(const std::string& doc_id) {
  auto content = contents_.find(doc_id);
  if (content != contents_.end()) {
    stats_.content_bytes_resident -= content->second->size();
    contents_.erase(content);
  }
  auto doc = documents_.find(doc_id);
  if (doc == documents_.end()) return false;
  documents_.erase(doc);
  ++stats_.documents_released;
  return true;
}

Status AdmissionController::Submit(std::string_view query_text,
                                   const EngineOptions& options,
                                   std::string_view doc_id,
                                   std::ostream* out) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.submitted;
    if (documents_.find(std::string(doc_id)) == documents_.end()) {
      ++stats_.rejected;
      return InvalidArgumentError("admission: unknown document '" +
                                  std::string(doc_id) + "'");
    }
  }
  // Compile outside the controller lock: the cache has its own locking and
  // in-flight latching, and a slow compile must not stall other Submits.
  Result<CompiledQuery> compiled = cache_->GetOrCompile(query_text, options);
  std::lock_guard<std::mutex> lock(mu_);
  if (!compiled.ok()) {
    ++stats_.rejected;
    return compiled.status();
  }
  std::string key =
      std::string(doc_id) + '\n' + BatchCompatibilityFingerprint(options);
  Group& group = groups_[key];
  if (group.pending.empty() && group.doc_id.empty()) {
    group.doc_id = std::string(doc_id);
    group.order = next_group_order_++;
  }
  group.pending.push_back(Request{std::move(compiled).value(), out});
  ++stats_.admitted;
  return Status::Ok();
}

size_t AdmissionController::EffectiveShards() const {
  return limits_.adaptive ? adaptive_shards_ : limits_.shards;
}

void AdmissionController::AdaptAfterRun(const AdmissionRunStats& run) {
  if (!limits_.adaptive || run.batches == 0) return;
  // Stall pressure: at least one parked batch per two executed batches.
  bool stall_pressure = 2 * run.stalls >= run.batches;
  bool memory_pressure =
      limits_.adaptive_arena_budget_bytes > 0 &&
      run.replay_arena_peak_bytes > limits_.adaptive_arena_budget_bytes;

  if (stall_pressure || memory_pressure) {
    calm_runs_ = 0;
    ++pressured_runs_;
    // Multiplicative decrease on the batch cap: smaller batches park fewer
    // queries behind one stalled source and retain a smaller replay log.
    size_t next = std::max<size_t>(1, adaptive_batch_cap_ / 2);
    if (next < adaptive_batch_cap_) {
      adaptive_batch_cap_ = next;
      if (memory_pressure) {
        ++stats_.adaptive_decreases_by_memory;
      } else {
        ++stats_.adaptive_decreases_by_stalls;
      }
    }
    // Sustained memory pressure also sheds shards (each holds a private
    // replay arena) — but only after the hysteresis window, so one spiky
    // document cannot collapse the scan parallelism.
    if (memory_pressure && pressured_runs_ >= limits_.adaptive_hysteresis &&
        adaptive_shards_ > 1) {
      adaptive_shards_ = std::max<size_t>(1, adaptive_shards_ / 2);
      ++stats_.adaptive_shard_decreases;
      pressured_runs_ = 0;
    }
  } else {
    pressured_runs_ = 0;
    ++calm_runs_;
    // Additive increase, one notch per hysteresis window: the cap recovers
    // first, then the shard count.
    if (calm_runs_ >= limits_.adaptive_hysteresis) {
      if (adaptive_batch_cap_ < limits_.max_batch_queries) {
        ++adaptive_batch_cap_;
        ++stats_.adaptive_increases;
        calm_runs_ = 0;
      } else if (adaptive_shards_ < limits_.shards) {
        ++adaptive_shards_;
        ++stats_.adaptive_increases;
        calm_runs_ = 0;
      }
    }
  }
  stats_.adaptive_batch_cap = adaptive_batch_cap_;
  stats_.adaptive_shards = adaptive_shards_;
}

size_t AdmissionController::BatchCap(bool* memory_bound) const {
  *memory_bound = false;
  size_t cap =
      limits_.adaptive ? adaptive_batch_cap_ : limits_.max_batch_queries;
  if (limits_.max_replay_log_events > 0 &&
      stats_.events_per_query_estimate > 0) {
    uint64_t by_memory = std::max<uint64_t>(
        1, limits_.max_replay_log_events / stats_.events_per_query_estimate);
    if (by_memory < cap) {
      cap = static_cast<size_t>(by_memory);
      *memory_bound = true;
    }
  }
  return cap;
}

void AdmissionController::ObserveBatch(size_t batch_queries,
                                       uint64_t replay_log_peak) {
  stats_.replay_log_peak_observed =
      std::max(stats_.replay_log_peak_observed, replay_log_peak);
  if (batch_queries == 0) return;
  uint64_t per_query =
      (replay_log_peak + batch_queries - 1) / batch_queries;  // ceil
  stats_.events_per_query_estimate =
      std::max(stats_.events_per_query_estimate, per_query);
}

Status AdmissionController::StartNextBatch(GroupWork* work,
                                           AdmissionRunStats* run,
                                           RunGovernor* root) {
  std::vector<Request>& pending = work->group.pending;
  GCX_CHECK(work->current == nullptr && work->next < pending.size());

  bool memory_bound = false;
  size_t cap = BatchCap(&memory_bound);
  // A pending split-retry shrinks this one batch; the cap recovers once a
  // batch completes (BookBatch) or the backoff bottoms out in a shed.
  if (work->retry_cap > 0) cap = std::min(cap, work->retry_cap);
  size_t n = std::min(cap, pending.size() - work->next);
  if (work->next + n < pending.size()) {
    if (memory_bound) {
      ++stats_.splits_by_memory;
    } else {
      ++stats_.splits_by_size;
    }
  }

  // Every path runs under a fresh child attempt of the run's root governor:
  // a tripped attempt's cancel token must not poison the retry after it.
  if (root != nullptr) work->governor = std::make_unique<RunGovernor>(root);
  std::vector<const CompiledQuery*> batch;
  std::vector<std::ostream*> outs;
  for (size_t j = work->next; j < work->next + n; ++j) {
    batch.push_back(&pending[j].query);
    outs.push_back(pending[j].out);
  }
  // The blocking paths below complete the batch in this call, so whatever
  // they report is final for it: a resource-tripping singleton is shed,
  // and a larger batch is NOT split — the sharded executor's internal
  // serial retry may have emitted output, and a re-run would duplicate it.
  auto complete = [&](const Status& failure, const SharedScanStats& shared) {
    if (failure.ok()) {
      BookBatch(work, n, shared, run);
      return Status::Ok();
    }
    if (root != nullptr && n == 1 &&
        AbsorbBudgetFailure(work, failure, n, /*evaluation_started=*/true,
                            run)) {
      return Status::Ok();
    }
    return failure;
  };

  auto content = contents_.end();
  if (EffectiveShards() > 1) content = contents_.find(work->group.doc_id);
  if (content != contents_.end()) {
    // Stored document + sharding enabled: fan the scan out across the
    // worker pool and fan back in (ExecuteSharded blocks until every shard
    // finished — the bytes are in memory, so nothing can stall). Falls back
    // to the single scan internally when the planner declines, and retries
    // resource trips of the parallel scan on the serial path.
    ShardOptions shard_options;
    shard_options.shards = EffectiveShards();
    MultiQueryEngine engine;
    engine.set_governor(work->governor.get());
    Result<MultiQueryStats> sharded =
        engine.ExecuteSharded(batch, *content->second, outs, shard_options);
    return complete(sharded.status(),
                    sharded.ok() ? sharded->shared : SharedScanStats{});
  }

  GCX_ASSIGN_OR_RETURN(std::unique_ptr<ByteSource> source, (*work->opener)());
  GCX_CHECK(source != nullptr);

  if (n == 1 && source->ReadyFd() < 0) {
    // Always-ready singleton: the solo engine skips the merged-DFA/replay
    // machinery entirely. (A pollable singleton goes through MultiQueryRun
    // instead so the scheduler can park it.) It has no replay log: only
    // its private pass is booked.
    Engine solo;
    solo.set_governor(work->governor.get());
    Result<ExecStats> stats =
        solo.Execute(*batch.front(), std::move(source), outs.front());
    SharedScanStats shared;
    if (stats.ok()) {
      shared.scan_passes = stats->scan_passes;
      shared.bytes_scanned = stats->input_bytes;
      ++stats_.solo_runs;
    }
    return complete(stats.status(), shared);
  }

  work->current = std::make_unique<MultiQueryRun>(
      std::move(batch), std::move(source), std::move(outs),
      work->governor.get());
  work->batch_size = n;
  work->parked = false;
  return Status::Ok();
}

bool AdmissionController::AbsorbBudgetFailure(GroupWork* work,
                                              const Status& failure,
                                              size_t batch_queries,
                                              bool evaluation_started,
                                              AdmissionRunStats* run) {
  if (!IsResourceExhausted(failure)) return false;
  // Tear down the failed attempt first: a retry or the next batch must
  // start from the same cursor with a fresh child governor.
  work->current.reset();
  work->governor.reset();
  work->parked = false;
  work->batch_size = 0;
  if (batch_queries > 1 && !evaluation_started) {
    // Memory trip during the scan phase: nothing was emitted, so the batch
    // can be re-formed at half size from the same cursor.
    work->retry_cap = std::max<size_t>(1, batch_queries / 2);
    ++stats_.budget_splits;
    GlobalMetrics().Sub("robustness").Add("batch_splits_total", 1);
    return true;
  }
  if (batch_queries == 1) {
    // Backoff bottomed out: shed this one request with its typed rejection
    // and let the rest of the run proceed.
    work->next += 1;
    work->retry_cap = 0;
    ++stats_.budget_sheds;
    GlobalMetrics().Sub("robustness").Add("sheds_total", 1);
    ++run->queries_shed;
    if (run->first_shed_error.ok()) run->first_shed_error = failure;
    return true;
  }
  // A multi-query batch that tripped after evaluation began cannot be
  // retried (output may have been emitted): the run fails with the typed
  // error.
  return false;
}

void AdmissionController::BookBatch(GroupWork* work, size_t batch_queries,
                                    const SharedScanStats& shared,
                                    AdmissionRunStats* run) {
  ObserveBatch(batch_queries, shared.replay_log_peak);
  ++stats_.batches_formed;
  if (shared.shards > 0) ++stats_.sharded_runs;
  ++run->batches;
  run->queries += batch_queries;
  run->scan_passes += shared.scan_passes;
  run->bytes_scanned += shared.bytes_scanned;
  run->replay_log_peak = std::max(run->replay_log_peak, shared.replay_log_peak);
  run->replay_arena_peak_bytes =
      std::max(run->replay_arena_peak_bytes, shared.replay_arena_peak_bytes);
  work->next += batch_queries;
  work->batch_size = 0;
  work->retry_cap = 0;
  work->current.reset();
  work->governor.reset();
  work->parked = false;
}

Result<AdmissionRunStats> AdmissionController::Run() {
  std::lock_guard<std::mutex> lock(mu_);

  // Snapshot the pending groups in first-submission order and clear them:
  // whatever happens below, the controller is reusable afterwards.
  std::vector<GroupWork> works;
  for (auto& [key, group] : groups_) {
    if (group.pending.empty()) continue;
    GroupWork work;
    work.group = std::move(group);
    works.push_back(std::move(work));
  }
  groups_.clear();
  std::sort(works.begin(), works.end(),
            [](const GroupWork& a, const GroupWork& b) {
              return a.group.order < b.group.order;
            });
  for (GroupWork& work : works) {
    auto doc = documents_.find(work.group.doc_id);
    GCX_CHECK(doc != documents_.end());  // Submit verified registration
    work.opener = &doc->second;
  }

  AdmissionRunStats run;

  // Root governor for the whole run. Null when the budget is empty so an
  // unbudgeted run takes exactly the pre-governor code paths. Children
  // (one per batch attempt) pulse their own cancel tokens; the root's
  // token stays untouched, so a root Check() failing means the run
  // deadline itself expired — the watchdog signal.
  std::unique_ptr<RunGovernor> root;
  if (limits_.budget.any()) {
    root = std::make_unique<RunGovernor>(limits_.budget);
  }

  // Release-on-drain: once every snapshotted batch completed, the drained
  // documents' openers and retained content are dead weight for a
  // register-run-discard workload. Only successful runs release (a failed
  // run leaves documents registered so the caller can retry); duplicate
  // doc_ids across groups release once.
  auto release_drained = [&] {
    if (!limits_.release_documents_on_drain) return;
    for (const GroupWork& work : works) {
      ReleaseDocumentLocked(work.group.doc_id);
    }
  };
  // Per-run fold into the registry (the cumulative admission.* state is
  // sampled from stats_ by the collector registered at construction).
  auto publish_run = [&] {
    MetricsSink admission = GlobalMetrics().Sub("admission");
    admission.Add("runs_total", 1);
    admission.Add("run_queries_total", run.queries);
    admission.Add("run_batches_total", run.batches);
    admission.Add("scan_passes_total", run.scan_passes);
    admission.Add("bytes_scanned_total", run.bytes_scanned);
    admission.Add("stalls_total", run.stalls);
    admission.Max("replay_log_peak", run.replay_log_peak);
    admission.Max("replay_arena_peak_bytes", run.replay_arena_peak_bytes);
  };

  // Ready-batch scheduler: sweep the groups round-robin, pumping each
  // group's current batch while its source produces data and parking it on
  // would-block. When a whole sweep makes no progress, every remaining
  // batch is stalled — sleep until some source signals readiness.
  while (true) {
    // Deadline watchdog. Children pulse only their own tokens, so a root
    // Check() failure here means the run deadline expired — including the
    // case where every remaining batch is parked on an fd that never
    // becomes readable (previously an unbounded stall). Reap the parked
    // batches and fail the run with the typed deadline error.
    if (root != nullptr) {
      Status check = root->Check(/*force_clock=*/true);
      if (!check.ok()) {
        uint64_t reaped = 0;
        for (GroupWork& work : works) {
          if (work.current != nullptr) ++reaped;
        }
        stats_.watchdog_reaps += reaped;
        if (reaped > 0) {
          GlobalMetrics().Sub("robustness").Add("watchdog_reaps_total",
                                                reaped);
        }
        return check;
      }
    }
    bool progressed = false;
    bool all_done = true;
    std::vector<int> stalled_fds;
    for (GroupWork& work : works) {
      if (work.finished()) continue;
      all_done = false;
      if (work.current == nullptr) {
        GCX_RETURN_IF_ERROR(StartNextBatch(&work, &run, root.get()));
        progressed = true;  // formed a batch (or the solo fast path ran)
        if (work.current == nullptr) continue;
      }
      if (work.parked) ++stats_.batch_resumes;
      MultiQueryRun::State state = work.current->Step();
      switch (state) {
        case MultiQueryRun::State::kStalled:
          if (!work.parked) {
            work.parked = true;
            ++run.stalls;
            ++stats_.batches_parked;
          }
          stalled_fds.push_back(work.current->ReadyFd());
          break;
        case MultiQueryRun::State::kDone: {
          GCX_ASSIGN_OR_RETURN(MultiQueryStats stats,
                               work.current->TakeStats());
          BookBatch(&work, work.batch_size, stats.shared, &run);
          progressed = true;
          break;
        }
        case MultiQueryRun::State::kFailed: {
          // Graceful degradation: a scan-phase memory trip re-forms the
          // batch at half size (same cursor — BookBatch never ran, so
          // work.next is unmoved); backoff bottoms out in a singleton
          // shed. Anything else fails the run. Capture batch facts before
          // AbsorbBudgetFailure resets work.current.
          Status failure = work.current->status();
          size_t batch_queries = work.batch_size;
          bool evaluation_started = work.current->evaluation_started();
          if (root != nullptr &&
              AbsorbBudgetFailure(&work, failure, batch_queries,
                                  evaluation_started, &run)) {
            progressed = true;
            break;
          }
          return failure;
        }
        case MultiQueryRun::State::kRunnable:
          break;
      }
    }
    if (all_done) break;
    if (!progressed) {
      // Everything runnable is parked. 50ms caps the sleep so an
      // unpollable stalled source (ReadyFd < 0) still gets retried, and
      // the run deadline (when set) caps it further so the watchdog at
      // the sweep top fires on time. A kError wait (bad descriptor)
      // degrades to a yield: the next sweep's Step() reads surface the
      // real failure.
      int wait_ms = root != nullptr ? root->BoundedWaitMs(50) : 50;
      if (WaitAnyReadable(stalled_fds, wait_ms) == WaitStatus::kError) {
        ::sched_yield();
      }
    }
  }
  release_drained();
  AdaptAfterRun(run);
  publish_run();
  return run;
}

AdmissionStats AdmissionController::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace gcx
