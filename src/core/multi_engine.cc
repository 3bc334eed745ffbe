#include "core/multi_engine.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <deque>
#include <future>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "analysis/shard_classifier.h"
#include "common/arena.h"
#include "common/budget.h"
#include "common/symbol_table.h"
#include "common/thread_pool.h"
#include "core/dom_engine.h"
#include "core/event_filter.h"
#include "core/shard.h"
#include "core/stats_publish.h"
#include "eval/evaluator.h"
#include "eval/exec_context.h"
#include "projection/merged_dfa.h"
#include "xml/fd_source.h"
#include "xml/writer.h"

namespace gcx {

namespace {

class SharedScanDemux;

/// One query's slice of a batch: its own buffer and projector (identical to
/// a solo StreamExecContext), pulling through the shared demultiplexer
/// instead of a private scanner. The tag table is the batch's shared one:
/// the scanner interns each tag exactly once and every per-query DFA and
/// buffer consumes the shared TagIds. A context subscribes to its demux for
/// exactly its lifetime.
class BatchQueryContext final : public ExecContext {
 public:
  BatchQueryContext(const AnalyzedQuery* query, SymbolTable* tags,
                    SharedScanDemux* demux);
  ~BatchQueryContext() override;

  BufferTree& buffer() override { return buffer_; }
  SymbolTable& tags() override { return *tags_; }
  Result<bool> Pull() override;

  StreamProjector& projector() { return projector_; }
  /// Tells the demux this query stopped consuming (its position no longer
  /// pins the log tail).
  void Detach();

  /// Next event index in the shared stream (replay-log position).
  uint64_t position = 0;
  /// Set once this query's evaluation completed: its buffer is frozen and
  /// its position no longer retains the log tail.
  bool detached = false;

 private:
  SymbolTable* tags_;
  BufferTree buffer_;
  StreamProjector projector_;
  SharedScanDemux* demux_;
  /// This context's contribution to the governor's arena ledger (the
  /// query's buffered tree bytes). Released on destruction.
  uint64_t arena_lease_ = 0;
};

/// Owns the single scanner, the merged-DFA prefilter and the replay log.
/// The log stores events as (kind, tag, arena view): the scanner's text
/// views are only valid until its next event, so surviving payloads are
/// copied once into an arena and released as every query replays past them
/// (FIFO, so chunks recycle front-first).
class SharedScanDemux {
 public:
  SharedScanDemux(std::unique_ptr<ByteSource> input,
                  ScannerOptions scanner_options, SymbolTable* tags,
                  const std::vector<MergedDfaInput>& inputs)
      : scanner_(std::move(input), scanner_options, tags),
        merged_(inputs, tags),
        filter_(&merged_) {}

  ~SharedScanDemux() {
    if (governor_ != nullptr) {
      governor_->ReleaseArenaBytes(&arena_lease_);
      governor_->ReleaseReplayEvents(&replay_lease_);
    }
  }

  void Register(BatchQueryContext* ctx) { subscribers_.push_back(ctx); }
  void Unregister(BatchQueryContext* ctx) {
    subscribers_.erase(
        std::find(subscribers_.begin(), subscribers_.end(), ctx));
  }

  /// Installs the run's resource governor: every pumped event becomes a
  /// cooperative checkpoint, and the replay log/arena charge its ledgers.
  void set_governor(RunGovernor* governor) { governor_ = governor; }
  RunGovernor* governor() const { return governor_; }

  /// Marks `ctx` finished; its log position stops pinning the tail.
  void Detach(BatchQueryContext* ctx) {
    ctx->detached = true;
    Trim();
  }

  /// Delivers the next event for `ctx`, advancing the shared scanner when
  /// `ctx` is at the head of the log. Returns false once `ctx`'s projector
  /// has consumed the end-of-document event; returns WouldBlockStatus()
  /// (with nothing delivered) when advancing the scanner stalled.
  Result<bool> PullFor(BatchQueryContext* ctx) {
    StreamProjector& projector = ctx->projector();
    if (projector.done()) return false;
    if (ctx->position == log_base_ + log_.size()) {
      // At the head and not done: end-of-document cannot be in the log yet.
      GCX_CHECK(!scan_done_);
      GCX_ASSIGN_OR_RETURN(PumpState pumped, PumpOne());
      if (pumped == PumpState::kStalled) return WouldBlockStatus();
    }
    bool at_front = ctx->position == log_base_;
    const LogEvent& entry =
        log_[static_cast<size_t>(ctx->position - log_base_)];
    XmlEvent event;
    event.kind = entry.kind;
    event.tag = entry.tag;
    event.text = entry.text;
    // event.tags stays null: demuxed consumers work on the TagId.
    ++ctx->position;
    ++stats_.events_demuxed;
    Result<bool> more = projector.ProcessEvent(event);
    // Only the consumer of the front entry can advance the trim point;
    // checking every subscriber on every delivery would be O(N²) per scan.
    if (at_front) Trim();
    return more;
  }

  XmlScanner& scanner() { return scanner_; }
  uint64_t events_scanned() const { return stats_.events_scanned; }
  size_t log_size() const { return log_.size(); }
  /// The scan's counters: this demux's own plus whatever Splice merged in.
  SharedScanStats stats() const {
    SharedScanStats stats = stats_;
    stats.bytes_scanned += scanner_.bytes_consumed();
    stats.events_shared_skipped += filter_.events_skipped();
    stats.shared_subtrees_skipped += filter_.subtrees_skipped();
    stats.merged_dfa_states =
        std::max<uint64_t>(stats.merged_dfa_states, merged_.num_states());
    return stats;
  }

  /// Pump-while-ready driver: advances the scan until the source stalls or
  /// the end-of-document event enters the log. Never blocks. Nothing is
  /// delivered: the log retains the union-projected stream (charged to the
  /// replay ledgers) until the evaluators replay it.
  Result<PumpState> PumpUntilStalledOrDone() {
    while (true) {
      GCX_ASSIGN_OR_RETURN(PumpState state, PumpOne());
      if (state != PumpState::kEvent) return state;
    }
  }

  /// Reads scanner events until one survives the prefilter into the log
  /// (kEvent), the scan completes (kDone), or the source stalls (kStalled —
  /// the scanner rewound to the event boundary and the filter state,
  /// including an in-progress shared skip, resumes on the next call).
  /// Never blocks.
  Result<PumpState> PumpOne() {
    while (true) {
      if (governor_ != nullptr) {
        GCX_RETURN_IF_ERROR(governor_->Check());
      }
      XmlEvent event;
      Status next = scanner_.Next(&event);
      if (IsWouldBlock(next)) {
        ++stats_.stalls;
        return PumpState::kStalled;
      }
      GCX_RETURN_IF_ERROR(next);
      ++stats_.events_scanned;
      GCX_ASSIGN_OR_RETURN(ProjectedEventFilter::Action action,
                           filter_.Apply(event));
      if (action == ProjectedEventFilter::Action::kSkip) continue;
      if (event.kind == XmlEvent::Kind::kEndOfDocument) {
        scan_done_ = true;
        GCX_RETURN_IF_ERROR(Append(event));
        return PumpState::kDone;
      }
      GCX_RETURN_IF_ERROR(Append(event));
      return PumpState::kEvent;
    }
  }

  /// Merge step of a sharded batch: moves the completed log of `shard`
  /// (which scanned `slice`) onto the back of this log, which then replays
  /// like any completed scan. The synthetic wrappers framing the slice are
  /// dropped by their seam counts: the first `lead_in` entries (logged entry
  /// wrappers) and, unless the shard is the document's last, the last
  /// `lead_out` + 1 (logged exit wrappers and the shard's end-of-document).
  /// Text stays in the shard's arena, so `shard` must outlive this log and
  /// keeps its arena-ledger charge until destroyed; its replay-ledger charge
  /// moves here. The scan counters accumulate net of the wrappers.
  void Splice(SharedScanDemux* shard, const ShardSlice& slice,
              size_t lead_in, size_t lead_out, bool last) {
    std::deque<LogEvent>& from = shard->log_;
    const size_t drop_back = last ? 0 : lead_out + 1;
    GCX_CHECK(shard->scan_done_ && shard->log_base_ == 0 &&
              shard->governor_ == governor_ &&
              lead_in + drop_back <= from.size());
    SymbolTable& tags = scanner_.tags();
    for (size_t j = 0; j < lead_in; ++j) {
      GCX_CHECK(from[j].kind == XmlEvent::Kind::kStartElement &&
                tags.Name(from[j].tag) == slice.entry_path[j]);
    }
    if (!last) {
      GCX_CHECK(from.back().kind == XmlEvent::Kind::kEndOfDocument);
      for (size_t j = 0; j < lead_out; ++j) {
        const LogEvent& end = from[from.size() - 2 - j];
        GCX_CHECK(end.kind == XmlEvent::Kind::kEndElement &&
                  tags.Name(end.tag) == slice.exit_path[j]);
      }
    }
    // With no active subscriber (every query evaluated shard-locally) the
    // entries are trimmed on arrival, exactly as Trim would drop them.
    const bool replayed = std::any_of(
        subscribers_.begin(), subscribers_.end(),
        [](const BatchQueryContext* sub) { return !sub->detached; });
    if (replayed) {
      for (size_t j = lead_in; j + drop_back < from.size(); ++j) {
        LogEvent entry = from[j];
        entry.chunk = ByteArena::kNullChunk;  // released with the shard arena
        log_.push_back(entry);
      }
    } else {
      log_base_ += from.size() - lead_in - drop_back;
    }
    from.clear();
    scan_done_ = true;

    const SharedScanStats part = shard->stats();
    const size_t entry_events = slice.entry_path.size();
    const size_t exit_events = slice.exit_path.size();
    stats_.events_scanned +=
        part.events_scanned - entry_events - exit_events - (last ? 0 : 1);
    stats_.events_forwarded += part.events_forwarded - lead_in - drop_back;
    stats_.events_shared_skipped += part.events_shared_skipped -
                                    (entry_events - lead_in) -
                                    (exit_events - lead_out);
    stats_.shared_subtrees_skipped += part.shared_subtrees_skipped;
    stats_.events_demuxed += part.events_demuxed;
    stats_.stalls += part.stalls;
    stats_.replay_arena_peak_bytes += part.replay_arena_peak_bytes;
    stats_.merged_dfa_states =
        std::max(stats_.merged_dfa_states, part.merged_dfa_states);
    // The spliced stream's length, whether or not its entries were kept.
    stats_.replay_log_peak =
        std::max<uint64_t>(stats_.replay_log_peak, log_base_ + log_.size());

    replay_lease_ += shard->replay_lease_;
    shard->replay_lease_ = 0;
    if (governor_ != nullptr) {
      // The dropped wrappers shrink the moved charge: cannot trip.
      (void)governor_->UpdateReplayEvents(&replay_lease_, log_.size());
    }
  }

 private:
  /// One replay-log entry. Text lives in `arena_` until trimmed.
  struct LogEvent {
    XmlEvent::Kind kind = XmlEvent::Kind::kEndOfDocument;
    TagId tag = kInvalidTag;
    std::string_view text;
    uint32_t chunk = ByteArena::kNullChunk;
  };

  Status Append(const XmlEvent& event) {
    LogEvent entry;
    entry.kind = event.kind;
    entry.tag = event.tag;
    if (!event.text.empty()) {
      // The checked append is byte-identical to Append unless the fault
      // harness armed the ArenaFaultInjector, in which case the injected
      // allocation failure surfaces as a typed resource error (first-wins
      // through the governor so every worker reports the same status).
      if (!arena_.AppendChecked(event.text, &entry.text, &entry.chunk)) {
        Status failed = ResourceExhaustedError(
            "replay arena allocation failed (injected fault)");
        return governor_ != nullptr ? governor_->TripExternal(std::move(failed))
                                    : failed;
      }
    }
    log_.push_back(entry);
    ++stats_.events_forwarded;
    stats_.replay_log_peak =
        std::max<uint64_t>(stats_.replay_log_peak, log_.size());
    stats_.replay_arena_peak_bytes = arena_.stats().bytes_peak;
    if (governor_ != nullptr) {
      GCX_RETURN_IF_ERROR(
          governor_->UpdateArenaBytes(&arena_lease_, arena_.stats().bytes_live));
      GCX_RETURN_IF_ERROR(
          governor_->UpdateReplayEvents(&replay_lease_, log_.size()));
    }
    return Status::Ok();
  }

  /// Drops log entries every still-active query has already replayed.
  void Trim() {
    uint64_t min_pos = std::numeric_limits<uint64_t>::max();
    bool any_active = false;
    for (const BatchQueryContext* sub : subscribers_) {
      if (sub->detached) continue;
      any_active = true;
      min_pos = std::min(min_pos, sub->position);
    }
    if (!any_active) min_pos = log_base_ + log_.size();
    while (log_base_ < min_pos && !log_.empty()) {
      arena_.Release(log_.front().chunk, log_.front().text.size());
      log_.pop_front();
      ++log_base_;
    }
    if (governor_ != nullptr) {
      // Shrinking contributions can never newly trip a ledger; the statuses
      // are discarded so Trim stays infallible for its callers.
      (void)governor_->UpdateArenaBytes(&arena_lease_,
                                        arena_.stats().bytes_live);
      (void)governor_->UpdateReplayEvents(&replay_lease_, log_.size());
    }
  }

  XmlScanner scanner_;
  MergedDfa merged_;
  ProjectedEventFilter filter_;
  ByteArena arena_;
  std::deque<LogEvent> log_;
  uint64_t log_base_ = 0;  ///< global index of log_.front()
  bool scan_done_ = false;
  std::vector<BatchQueryContext*> subscribers_;
  SharedScanStats stats_;
  RunGovernor* governor_ = nullptr;
  uint64_t arena_lease_ = 0;    ///< ledger cursor: live replay-arena bytes
  uint64_t replay_lease_ = 0;   ///< ledger cursor: buffered log events
};

BatchQueryContext::BatchQueryContext(const AnalyzedQuery* query,
                                     SymbolTable* tags,
                                     SharedScanDemux* demux)
    : tags_(tags),
      projector_(&query->projection, &query->roles, tags,
                 /*scanner=*/nullptr, &buffer_),
      demux_(demux) {
  demux_->Register(this);
}

BatchQueryContext::~BatchQueryContext() {
  demux_->Unregister(this);
  if (demux_->governor() != nullptr) {
    demux_->governor()->ReleaseArenaBytes(&arena_lease_);
  }
}

void BatchQueryContext::Detach() { demux_->Detach(this); }

Result<bool> BatchQueryContext::Pull() {
  // The synchronous Execute path cannot suspend its evaluator, so a stall
  // becomes a readiness wait + retry (PullFor delivered nothing and the
  // scanner rewound, so the retry is exact). The resumable MultiQueryRun
  // reaches this only after the scan completed, when PullFor can never
  // stall.
  RunGovernor* governor = demux_->governor();
  while (true) {
    if (governor != nullptr) {
      GCX_RETURN_IF_ERROR(governor->CheckAll());
      GCX_RETURN_IF_ERROR(governor->UpdateArenaBytes(
          &arena_lease_, buffer_.stats().bytes_current));
    }
    Result<bool> more = demux_->PullFor(this);
    if (more.ok() || !IsWouldBlock(more.status())) return more;
    WaitReadable(demux_->scanner().ReadyFd(),
                 governor != nullptr ? governor->BoundedWaitMs(-1) : -1);
    if (governor != nullptr) {
      // The wait may have ended on the deadline, not on data: force a
      // clocked check so a stalled source cannot spin past the deadline.
      GCX_RETURN_IF_ERROR(governor->CheckAll(/*force_clock=*/true));
    }
  }
}

/// Zero-copy three-part source: synthetic entry wrapper, the document
/// slice (viewed, not copied), synthetic exit wrapper.
class SliceSource : public ByteSource {
 public:
  SliceSource(std::string prefix, std::string_view body, std::string suffix)
      : prefix_(std::move(prefix)), body_(body), suffix_(std::move(suffix)) {}

  ReadResult Read(char* buffer, size_t capacity) override {
    while (part_ < 3) {
      std::string_view current = part_ == 0   ? std::string_view(prefix_)
                                 : part_ == 1 ? body_
                                              : std::string_view(suffix_);
      if (pos_ < current.size()) {
        size_t n = std::min(capacity, current.size() - pos_);
        std::memcpy(buffer, current.data() + pos_, n);
        pos_ += n;
        return ReadResult::Ok(n);
      }
      ++part_;
      pos_ = 0;
    }
    return ReadResult::Eof();
  }

 private:
  std::string prefix_;
  std::string_view body_;
  std::string suffix_;
  int part_ = 0;
  size_t pos_ = 0;
};

/// One shard's scan: its demux (the shard log, its arena and the scan
/// counters) and its seam count `lead`, the number of leading log entries
/// that are synthetic entry wrappers.
struct ShardScan {
  Status status;
  std::unique_ptr<SharedScanDemux> demux;
  size_t lead = 0;
};

/// Scans one slice of a sharded batch into `scan`: frames the slice,
/// builds a private SharedScanDemux over it (one per worker: MergedDfa
/// memoizes transitions in place) with document-accurate line numbers, and
/// pumps it to kDone. Safe to run concurrently for distinct shards over one
/// shared thread-safe SymbolTable. Every pumped event is the demux's own
/// governor checkpoint, and its log and arena charge the run's ledgers
/// until the demux is destroyed. Stalls wait boundedly (poll with an fd,
/// yield/sleep without), and `abort` is checked between pumps, so a
/// failure in an earlier shard is noticed promptly; an aborted scan ends
/// with an error the in-order sweep never reports (the earlier shard's own
/// error surfaces first).
void ScanShard(std::string_view doc, const ShardSlice& slice,
               ScannerOptions scanner_options,
               const std::vector<MergedDfaInput>& dfa_inputs,
               SymbolTable* tags, const ShardOptions& options,
               size_t shard_index, ShardAbort* abort, RunGovernor* governor,
               ShardScan* scan) {
  // Synthetic wrappers: attribute-free tags, so each contributes exactly
  // one scanner event in either attribute mode, and no newlines, so the
  // slice's line numbers stay document-accurate.
  std::string prefix;
  for (const std::string& name : slice.entry_path) {
    prefix += '<';
    prefix += name;
    prefix += '>';
  }
  std::string suffix;
  for (auto it = slice.exit_path.rbegin(); it != slice.exit_path.rend();
       ++it) {
    suffix += "</";
    suffix += *it;
    suffix += '>';
  }
  std::string_view body = doc.substr(slice.begin, slice.end - slice.begin);
  std::unique_ptr<ByteSource> source;
  if (options.wrap_source) {
    std::string composite;
    composite.reserve(prefix.size() + body.size() + suffix.size());
    composite += prefix;
    composite.append(body.data(), body.size());
    composite += suffix;
    source = options.wrap_source(std::move(composite));
  } else {
    source = std::make_unique<SliceSource>(std::move(prefix), body,
                                           std::move(suffix));
  }

  scanner_options.start_line = slice.start_line;
  scan->demux = std::make_unique<SharedScanDemux>(
      std::move(source), scanner_options, tags, dfa_inputs);
  SharedScanDemux& demux = *scan->demux;
  demux.set_governor(governor);

  // A failure (scan error, governor trip, injected arena fault) marks this
  // shard failed so later shards stop; a governor trip has also pulsed the
  // shared cancel token, so every sibling reports the same reason.
  auto fail = [&](Status status) {
    scan->status = std::move(status);
    abort->Fail(shard_index);
  };
  const size_t wrapper_events = slice.entry_path.size();
  uint64_t stall_spins = 0;
  while (true) {
    if (abort->ShouldAbort(shard_index)) {
      scan->status =
          IoError("shard scan cancelled after an earlier shard failed");
      return;
    }
    // One event at a time through the entry wrappers, so the seam count is
    // exact; then the rest of the slice in one pump.
    const bool in_wrappers = demux.events_scanned() < wrapper_events;
    Result<PumpState> pumped =
        in_wrappers ? demux.PumpOne() : demux.PumpUntilStalledOrDone();
    if (!pumped.ok()) return fail(pumped.status());
    if (*pumped == PumpState::kStalled) {
      int fd = demux.scanner().ReadyFd();
      if (fd >= 0) {
        // Bounded wait so an abort (or a deadline armed on the governor)
        // signalled meanwhile is still noticed.
        WaitReadable(fd, governor != nullptr ? governor->BoundedWaitMs(20)
                                             : 20);
      } else if (++stall_spins <= 64) {
        // Non-pollable source: yield while the stall looks transient, then
        // sleep so a long stall doesn't monopolize a core.
        std::this_thread::yield();
      } else {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
      if (governor != nullptr) {
        // The wait may have ended on the deadline, not on data.
        Status check = governor->Check(/*force_clock=*/true);
        if (!check.ok()) return fail(std::move(check));
      }
      continue;
    }
    stall_spins = 0;
    if (in_wrappers) {
      // An entry logged past the wrappers is the slice's own.
      scan->lead = demux.log_size() -
                   (demux.events_scanned() > wrapper_events ? 1 : 0);
    }
    if (*pumped == PumpState::kDone) return;
  }
}

/// Evaluates one analyzed query to completion (materialized-projection
/// pre-pull, evaluator run, detach, per-query stats). Every batch query
/// runs through here: the unsharded pipeline (MultiQueryRun::Impl), which
/// a sharded batch's merge-and-replay queries share, and the shard workers'
/// local segments over their own shard log. `analyzed` is a full compiled
/// query or one shard-local query segment; `capture`, when set, diverts a
/// root-rooted aggregate's result into partials (eval/evaluator.h) for
/// cross-shard combination.
Result<ExecStats> EvaluateOne(const AnalyzedQuery& analyzed,
                              const EngineOptions& options,
                              BatchQueryContext& ctx, std::ostream* out,
                              AggregateParts* capture = nullptr,
                              RunGovernor* governor = nullptr,
                              bool charge_output = true) {
  auto start = std::chrono::steady_clock::now();
  // Nothing reaches a context's buffer before its own evaluator pulls, so
  // the GC rule is applied here for every path.
  ctx.buffer().set_gc_enabled(options.active_gc());

  if (options.mode == EngineMode::kMaterializedProjection) {
    // Static projection: materialize this query's projected document
    // completely (replaying the shared log), then evaluate on it.
    while (true) {
      GCX_ASSIGN_OR_RETURN(bool more, ctx.Pull());
      if (!more) break;
    }
  }

  XmlWriter writer(out);
  // charge_output is false for worker-local segment evaluation: those
  // bytes reach the client through the final merge writer, which charges
  // them — charging both would double-count the output ledger.
  if (charge_output && governor != nullptr) writer.set_governor(governor);
  EvalOptions eval_options;
  eval_options.execute_signoffs = options.active_gc();
  eval_options.aggregate_capture = capture;
  Evaluator evaluator(&analyzed, &ctx, &writer, eval_options);
  GCX_RETURN_IF_ERROR(evaluator.Run());
  if (governor != nullptr) {
    // Final checkpoint: an output landing exactly on the cap passes, one
    // byte past it trips — even when the overrun happened after the last
    // pull checkpoint.
    GCX_RETURN_IF_ERROR(governor->CheckAll(/*force_clock=*/true));
  }
  // Freeze this query's pipeline exactly where a solo run would have
  // stopped pulling; later queries continue the shared scan without it.
  ctx.Detach();

  // No scanner: the batch's one pass is accounted in MultiQueryStats::shared.
  ExecStats stats = MakeExecStats(start, writer.bytes_written(), &ctx.buffer(),
                                  &ctx.projector());
  if (eval_options.execute_signoffs) {
    // Paper requirement (2), per batched query: every assigned role was
    // removed again.
    GCX_CHECK(ctx.buffer().live_role_instances() == 0);
  }
  return stats;
}

Status ValidateBatch(const std::vector<const CompiledQuery*>& queries,
                     const std::vector<std::ostream*>& outs) {
  if (queries.empty()) {
    return InvalidArgumentError("multi-query batch is empty");
  }
  if (outs.size() != queries.size()) {
    return InvalidArgumentError(
        "multi-query batch needs one output stream per query");
  }
  const EngineOptions& base = queries.front()->options();
  for (const CompiledQuery* query : queries) {
    if (!BatchCompatibleOptions(base, query->options())) {
      return InvalidArgumentError(
          "multi-query batch mixes engine modes or scanner options; compile "
          "every query of a batch with the same EngineMode and tokenization "
          "(see BatchCompatibleOptions)");
    }
  }
  return Status::Ok();
}

}  // namespace

bool BatchCompatibleOptions(const EngineOptions& a, const EngineOptions& b) {
  return a.mode == b.mode &&
         a.scanner.attribute_mode == b.scanner.attribute_mode &&
         a.scanner.skip_whitespace_text == b.scanner.skip_whitespace_text &&
         a.scanner.max_token_bytes == b.scanner.max_token_bytes;
}

std::string BatchCompatibilityFingerprint(const EngineOptions& options) {
  std::string out;
  out += static_cast<char>('0' + static_cast<int>(options.mode));
  out += static_cast<char>('0' + static_cast<int>(options.scanner.attribute_mode));
  out += options.scanner.skip_whitespace_text ? '1' : '0';
  // The token cap decides which documents tokenize at all, so two caps
  // must never share a scan.
  out += ':';
  out += std::to_string(options.scanner.max_token_bytes);
  return out;
}

Result<MultiQueryStats> MultiQueryEngine::Execute(
    const std::vector<const CompiledQuery*>& queries, std::string_view input,
    const std::vector<std::ostream*>& outs) const {
  return Execute(queries, std::make_unique<StringSource>(input), outs);
}

// --- MultiQueryRun: the one unsharded batch pipeline -------------------------

/// Builds, evaluates and finishes every unsharded batch. Step() pumps the
/// input while the source is ready and evaluates once it is complete;
/// MultiQueryEngine::Execute evaluates straight away instead, its pulls
/// advancing the shared scan and waiting out stalls. A sharded batch builds
/// one over an empty source and splices the shard logs into its demux, so
/// its merge-and-replay queries evaluate and finish here too.
struct MultiQueryRun::Impl {
  std::vector<const CompiledQuery*> queries;
  std::vector<std::ostream*> outs;
  RunGovernor* governor = nullptr;
  EngineMode mode = EngineMode::kStreaming;
  State state = State::kRunnable;
  Status error;
  bool evaluation_started = false;

  // Streaming / materialized-projection machinery (null in kNaiveDom).
  std::vector<MergedDfaInput> dfa_inputs;
  SymbolTable tags;
  std::unique_ptr<SharedScanDemux> demux;
  std::vector<std::unique_ptr<BatchQueryContext>> contexts;

  // kNaiveDom: the document accumulates here until EOF, is parsed once, and
  // every query evaluates against the shared DOM.
  std::unique_ptr<ByteSource> dom_source;
  std::string dom_buffer;
  uint64_t dom_lease = 0;  ///< arena-ledger cursor for dom_buffer bytes

  MultiQueryStats stats;
  bool stats_taken = false;

  Impl(std::vector<const CompiledQuery*> batch,
       std::unique_ptr<ByteSource> input, std::vector<std::ostream*> streams,
       RunGovernor* run_governor);

  ~Impl() {
    if (governor != nullptr) governor->ReleaseArenaBytes(&dom_lease);
  }

  void Fail(Status status) {
    error = std::move(status);
    state = State::kFailed;
  }

  /// Advances the input while the source is ready, never blocking: true
  /// once the document is complete (the end-of-document event is in the
  /// replay log, or the DOM source reached EOF).
  Result<bool> Pump() {
    if (mode == EngineMode::kNaiveDom) {
      return ReadAvailable(dom_source.get(), &dom_buffer, governor,
                           &dom_lease);
    }
    GCX_ASSIGN_OR_RETURN(PumpState pumped, demux->PumpUntilStalledOrDone());
    return pumped == PumpState::kDone;
  }

  /// Evaluator-driven run to completion (MultiQueryEngine::Execute).
  Result<MultiQueryStats> Execute() {
    if (state == State::kFailed) return error;
    if (mode == EngineMode::kNaiveDom) {
      GCX_RETURN_IF_ERROR(
          ReadAll(dom_source.get(), &dom_buffer, governor, &dom_lease));
    }
    GCX_RETURN_IF_ERROR(Evaluate());
    return std::move(stats);
  }

  /// Runs every query, in submission order, then finishes the batch.
  Status Evaluate();

  /// The streaming evaluation loop: every query in submission order over
  /// the replay log, except those already detached (a sharded batch's
  /// shard-local queries, evaluated inside the shard workers).
  Status EvaluateStreaming();

  /// Summarizes the batch's projection, counts its one scan pass and
  /// publishes its stats.
  void Finish();
};

MultiQueryRun::Impl::Impl(std::vector<const CompiledQuery*> batch,
                          std::unique_ptr<ByteSource> input,
                          std::vector<std::ostream*> streams,
                          RunGovernor* run_governor)
    : queries(std::move(batch)),
      outs(std::move(streams)),
      governor(run_governor) {
  Status valid = ValidateBatch(queries, outs);
  if (!valid.ok()) {
    Fail(std::move(valid));
    return;
  }
  mode = queries.front()->options().mode;
  if (mode == EngineMode::kNaiveDom) {
    dom_source = std::move(input);
    return;
  }

  for (const CompiledQuery* query : queries) {
    dfa_inputs.push_back(
        {&query->analyzed().projection, &query->analyzed().roles});
  }
  // One tag table for the whole batch: the scanner interns each element
  // name once, and every per-query DFA/buffer consumes the shared ids.
  demux = std::make_unique<SharedScanDemux>(
      std::move(input), queries.front()->options().scanner, &tags, dfa_inputs);
  demux->set_governor(governor);
  for (const CompiledQuery* query : queries) {
    contexts.push_back(std::make_unique<BatchQueryContext>(
        &query->analyzed(), &tags, demux.get()));
  }
}

Status MultiQueryRun::Impl::Evaluate() {
  evaluation_started = true;
  if (mode == EngineMode::kNaiveDom) {
    GCX_ASSIGN_OR_RETURN(
        std::unique_ptr<DomDocument> doc,
        ParseDom(dom_buffer, queries.front()->options().scanner));
    uint64_t dom_bytes = DomSubtreeBytes(doc->root());
    for (size_t i = 0; i < queries.size(); ++i) {
      auto start = std::chrono::steady_clock::now();
      XmlWriter writer(outs[i]);
      writer.set_governor(governor);
      GCX_RETURN_IF_ERROR(
          EvalQueryOnDom(queries[i]->parsed(), doc.get(), &writer));
      if (governor != nullptr) {
        GCX_RETURN_IF_ERROR(governor->CheckAll(/*force_clock=*/true));
      }
      // As in the streaming batch, input accounting lives in stats.shared.
      ExecStats one = MakeExecStats(start, writer.bytes_written());
      one.peak_bytes = dom_bytes;
      stats.per_query.push_back(one);
    }
    stats.shared.bytes_scanned = dom_buffer.size();
  } else {
    GCX_RETURN_IF_ERROR(EvaluateStreaming());
    stats.shared = demux->stats();
  }
  Finish();
  return Status::Ok();
}

Status MultiQueryRun::Impl::EvaluateStreaming() {
  stats.per_query.resize(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    BatchQueryContext& ctx = *contexts[i];
    if (ctx.detached) continue;
    GCX_ASSIGN_OR_RETURN(
        stats.per_query[i],
        EvaluateOne(queries[i]->analyzed(), queries[i]->options(), ctx,
                    outs[i], /*capture=*/nullptr, governor));
  }
  return Status::Ok();
}

void MultiQueryRun::Impl::Finish() {
  std::vector<const ProjectionTree*> trees;
  for (const CompiledQuery* query : queries) {
    trees.push_back(&query->analyzed().projection);
  }
  stats.projection = SummarizeMergedProjection(trees);
  stats.shared.scan_passes = 1;
  PublishMultiQueryStats(stats, GlobalMetrics(), &queries);
}

Result<MultiQueryStats> MultiQueryEngine::Execute(
    const std::vector<const CompiledQuery*>& queries,
    std::unique_ptr<ByteSource> input,
    const std::vector<std::ostream*>& outs) const {
  // The pipeline a resumable run steps through, driven by the evaluators
  // instead of the pump: a pull at the head of the replay log advances the
  // scan (waiting out stalls), so a one-query batch trims each event as
  // soon as it is replayed.
  MultiQueryRun run(queries, std::move(input), outs, governor_);
  return run.impl_->Execute();
}

MultiQueryRun::MultiQueryRun(std::vector<const CompiledQuery*> queries,
                             std::unique_ptr<ByteSource> input,
                             std::vector<std::ostream*> outs,
                             RunGovernor* governor)
    : impl_(std::make_unique<Impl>(std::move(queries), std::move(input),
                                   std::move(outs), governor)) {}

MultiQueryRun::~MultiQueryRun() = default;

MultiQueryRun::State MultiQueryRun::Step() {
  Impl& im = *impl_;
  if (im.state == State::kDone || im.state == State::kFailed) return im.state;

  Result<bool> complete = im.Pump();
  if (complete.ok() && !*complete) {
    im.state = State::kStalled;
    return im.state;
  }
  // Input complete: the replay log (or DOM buffer) holds the whole
  // document, so no evaluator can stall.
  Status status = complete.ok() ? im.Evaluate() : complete.status();
  if (status.ok()) {
    im.state = State::kDone;
  } else {
    im.Fail(std::move(status));
  }
  return im.state;
}

MultiQueryRun::State MultiQueryRun::state() const { return impl_->state; }

bool MultiQueryRun::evaluation_started() const {
  return impl_->evaluation_started;
}

Status MultiQueryRun::status() const {
  return impl_->state == State::kFailed ? impl_->error : Status::Ok();
}

int MultiQueryRun::ReadyFd() const {
  const Impl& im = *impl_;
  if (im.mode == EngineMode::kNaiveDom) {
    return im.dom_source != nullptr ? im.dom_source->ReadyFd() : -1;
  }
  return im.demux != nullptr ? im.demux->scanner().ReadyFd() : -1;
}

Result<MultiQueryStats> MultiQueryRun::TakeStats() {
  Impl& im = *impl_;
  if (im.state == State::kFailed) return im.error;
  GCX_CHECK(im.state == State::kDone && !im.stats_taken);
  im.stats_taken = true;
  return std::move(im.stats);
}

// --- Sharded batches ----------------------------------------------------------

namespace {

/// One dynamic segment of a shard-local query, analyzed and ready to run
/// standalone inside a worker.
struct LocalDynamic {
  size_t segment_index = 0;  ///< index into LocalQuery::plan.segments
  AnalyzedQuery analyzed;
};

/// One query of the batch that evaluates inside the shard workers.
struct LocalQuery {
  size_t query_index = 0;  ///< index into the submitted batch
  ShardQueryPlan plan;
  std::vector<LocalDynamic> dynamics;
};

/// What one worker produced for one (local query, dynamic segment) pair.
struct LocalSegmentResult {
  std::string text;     ///< kLoop: stripped per-shard output
  AggregateParts agg;   ///< kAggregate: this shard's partial
  ExecStats stats;
};

/// Strips the fixed `<s>`/`</s>` affixes a segment query's wrapper element
/// contributes (XmlWriter never collapses empty elements, so both are
/// always present).
std::string StripSegmentWrapper(std::string text) {
  GCX_CHECK(text.size() >= 7);
  return text.substr(3, text.size() - 7);
}

}  // namespace

Result<MultiQueryStats> MultiQueryEngine::ExecuteSharded(
    const std::vector<const CompiledQuery*>& queries, std::string_view input,
    const std::vector<std::ostream*>& outs,
    const ShardOptions& shard_options) const {
  GCX_RETURN_IF_ERROR(ValidateBatch(queries, outs));
  if (queries.front()->options().mode == EngineMode::kNaiveDom) {
    return Execute(queries, input, outs);  // one DOM parse; nothing to shard
  }
  // Classify each query for shard-local evaluation; eligible queries donate
  // their scatter paths as planner avoid-hints so boundaries land between
  // their matches (a boundary inside a match subtree would demote them).
  std::vector<ShardQueryPlan> class_plans(queries.size());
  std::vector<RelativePath> avoid_paths;
  if (shard_options.local_eval) {
    for (size_t i = 0; i < queries.size(); ++i) {
      NormalizeOptions normalize;
      normalize.early_updates = queries[i]->options().early_updates;
      class_plans[i] = ClassifyForShardEval(queries[i]->parsed(), normalize);
      if (!class_plans[i].eligible) continue;
      for (const ShardQuerySegment& segment : class_plans[i].segments) {
        if (!segment.scatter_path.steps.empty()) {
          avoid_paths.push_back(segment.scatter_path);
        }
      }
    }
  }

  ShardPlan plan = PlanShards(input, shard_options, avoid_paths);
  // The avoid-hints can make a plannable document unplannable (every
  // candidate boundary rejected). Re-plan without them and demote every
  // query to merge-and-replay — the scan-parallel win is kept either way.
  bool demote_all = false;
  if (!plan.sharded && !avoid_paths.empty()) {
    plan = PlanShards(input, shard_options);
    demote_all = true;
  }
  if (!plan.sharded) {
    // The fallback Execute publishes its own batch metrics; only the
    // decline itself is sharding-specific.
    GlobalMetrics().Sub("shard").Add("plan_declines_total", 1);
    return Execute(queries, input, outs);
  }

  const size_t n = plan.slices.size();

  // The merge-and-replay half is an ordinary unsharded batch whose replay
  // log is spliced from the shard logs instead of scanned (its own scanner
  // reads an empty source and never runs). Its tag table is the one every
  // shard worker interns into: SymbolTable interning is thread-safe, and
  // downstream consumers need one coherent id space.
  MultiQueryRun replay(queries,
                       std::make_unique<StringSource>(std::string_view()),
                       outs, governor_);
  MultiQueryRun::Impl& batch = *replay.impl_;

  // Final per-query decision. Belt to the planner hints' suspenders: the
  // plan may have been produced without hints (demote_all) or with hints
  // for OTHER queries' paths, so re-check every boundary against this
  // query's scatter paths before committing it to worker-side evaluation.
  std::vector<LocalQuery> locals;
  if (shard_options.local_eval && !demote_all) {
    for (size_t i = 0; i < queries.size(); ++i) {
      if (!class_plans[i].eligible) continue;
      bool safe = true;
      for (const ShardQuerySegment& segment : class_plans[i].segments) {
        if (segment.scatter_path.steps.empty()) continue;
        for (size_t s = 1; s < n && safe; ++s) {
          if (EntryPathCompletesPath(segment.scatter_path,
                                     plan.slices[s].entry_path)) {
            safe = false;
          }
        }
        if (!safe) break;
      }
      if (!safe) continue;
      LocalQuery local;
      local.query_index = i;
      local.plan = std::move(class_plans[i]);
      AnalysisOptions analysis;
      analysis.aggregate_roles = queries[i]->options().aggregate_roles;
      analysis.eliminate_redundant_roles =
          queries[i]->options().eliminate_redundant_roles;
      bool analyzed_ok = true;
      for (size_t j = 0; j < local.plan.segments.size(); ++j) {
        ShardQuerySegment& segment = local.plan.segments[j];
        if (segment.kind != ShardQuerySegment::Kind::kLoop &&
            segment.kind != ShardQuerySegment::Kind::kAggregate) {
          continue;
        }
        Result<AnalyzedQuery> analyzed =
            Analyze(std::move(segment.query), analysis);
        if (!analyzed.ok()) {
          analyzed_ok = false;  // unprovable segment: keep merge-and-replay
          break;
        }
        LocalDynamic dynamic;
        dynamic.segment_index = j;
        dynamic.analyzed = std::move(analyzed).value();
        local.dynamics.push_back(std::move(dynamic));
      }
      if (!analyzed_ok) continue;
      batch.contexts[i]->Detach();  // never replays the spliced log
      locals.push_back(std::move(local));
    }
  }

  // Fan out: one task per slice — scan, then (when local queries exist)
  // evaluate every local dynamic segment over the shard log. The result
  // vectors are pre-sized so workers write disjoint slots without
  // synchronization; `abort` lets shards AFTER a failure stop early while
  // shards before it always complete (exact error, document order).
  std::vector<ShardScan> scans(n);
  std::vector<Status> local_status(n);
  // local_results[shard][local query][dynamic segment]
  std::vector<std::vector<std::vector<LocalSegmentResult>>> local_results(n);
  for (size_t i = 0; i < n; ++i) {
    local_results[i].resize(locals.size());
    for (size_t q = 0; q < locals.size(); ++q) {
      local_results[i][q].resize(locals[q].dynamics.size());
    }
  }
  ShardAbort abort;
  size_t threads = shard_options.threads;
  if (threads == 0) {
    threads = n;
    unsigned hw = std::thread::hardware_concurrency();
    if (hw > 0) threads = std::min<size_t>(threads, hw);
  }
  {
    ThreadPool pool(threads);
    std::vector<std::future<void>> futures;
    futures.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      futures.push_back(pool.Submit([&, i] {
        ScanShard(input, plan.slices[i], queries.front()->options().scanner,
                  batch.dfa_inputs, &batch.tags, shard_options, i, &abort,
                  governor_, &scans[i]);
        if (!scans[i].status.ok() || locals.empty() || abort.ShouldAbort(i)) {
          return;
        }
        // The shard log is already the framed stream the ordinary pipelines
        // expect (see core/shard.h). Every segment's context subscribes
        // before any evaluates, and a never-pulled pin keeps the whole log
        // for the splice below.
        SharedScanDemux* demux = scans[i].demux.get();
        BatchQueryContext pin(&queries.front()->analyzed(), &batch.tags,
                              demux);
        std::vector<std::unique_ptr<BatchQueryContext>> contexts;
        for (const LocalQuery& local : locals) {
          for (const LocalDynamic& dynamic : local.dynamics) {
            contexts.push_back(std::make_unique<BatchQueryContext>(
                &dynamic.analyzed, &batch.tags, demux));
          }
        }
        auto context = contexts.begin();
        for (size_t q = 0; q < locals.size(); ++q) {
          const LocalQuery& local = locals[q];
          const CompiledQuery& owner = *queries[local.query_index];
          for (size_t d = 0; d < local.dynamics.size(); ++d, ++context) {
            const LocalDynamic& dynamic = local.dynamics[d];
            const ShardQuerySegment& segment =
                local.plan.segments[dynamic.segment_index];
            LocalSegmentResult& slot = local_results[i][q][d];
            AggregateParts* capture =
                segment.kind == ShardQuerySegment::Kind::kAggregate
                    ? &slot.agg
                    : nullptr;
            std::ostringstream out;
            Result<ExecStats> stats =
                EvaluateOne(dynamic.analyzed, owner.options(), **context,
                            &out, capture, governor_,
                            /*charge_output=*/false);
            context->reset();  // frees the segment's buffer
            if (!stats.ok()) {
              local_status[i] = stats.status();
              abort.Fail(i);
              return;
            }
            slot.stats = std::move(stats).value();
            if (capture == nullptr) {
              slot.text = StripSegmentWrapper(std::move(out).str());
            }
          }
        }
      }));
    }
    for (std::future<void>& future : futures) future.get();
  }
  // The unsharded scan would have stopped at the first error, so the
  // earliest failing shard in document order owns the reported error (its
  // line numbers are document-accurate via ScannerOptions::start_line).
  // Shards after it may carry a cancellation status — never reported,
  // because the sweep hits the real error first.
  for (size_t i = 0; i < n; ++i) {
    if (!scans[i].status.ok()) {
      GlobalMetrics().Sub("shard").Add("aborts_scan_total", 1);
      if (IsResourceExhausted(scans[i].status) && governor_ != nullptr) {
        // Graceful degradation: N simultaneous shard arenas tripped a
        // resource budget during the scan phase — before any output — so
        // retry on the serial single-scan path, whose replay log trims as
        // the lone stream advances. The retry runs under a fresh child
        // attempt: the tripped token must not poison it, while the
        // deadline and output ledger keep their run-wide scope.
        local_results.clear();
        scans.clear();  // releases the shard logs and their ledger charges
        GlobalMetrics().Sub("robustness").Add("serial_fallbacks_total", 1);
        RunGovernor serial_attempt(governor_);
        MultiQueryEngine serial;
        serial.set_governor(&serial_attempt);
        return serial.Execute(queries, input, outs);
      }
      return scans[i].status;
    }
    if (!local_status[i].ok()) {
      GlobalMetrics().Sub("shard").Add("aborts_local_eval_total", 1);
      return local_status[i];
    }
  }

  // Splice the shard logs in document order: the result is exactly the log
  // the single shared scan would have forwarded (see core/shard.h). Shard
  // i + 1's seam count is also the number of exit wrappers shard i logged.
  MultiQueryStats& stats = batch.stats;
  for (size_t i = 0; i < n; ++i) {
    stats.per_shard_arena_peak_bytes.push_back(
        scans[i].demux->stats().replay_arena_peak_bytes);
    const bool last = i + 1 == n;
    batch.demux->Splice(scans[i].demux.get(), plan.slices[i], scans[i].lead,
                        last ? 0 : scans[i + 1].lead, last);
  }
  GCX_RETURN_IF_ERROR(batch.EvaluateStreaming());

  // Result merge for the shard-local queries: walk the segment list in
  // output order — constants replay through the same writer operations the
  // solo evaluator uses, loop outputs concatenate in shard order, and
  // aggregate partials combine (count: sum; sum: refold the concatenated
  // raw values with the solo fold) — so the bytes match by construction.
  for (size_t q = 0; q < locals.size(); ++q) {
    const LocalQuery& local = locals[q];
    const size_t qi = local.query_index;
    auto start = std::chrono::steady_clock::now();
    XmlWriter writer(outs[qi]);
    if (governor_ != nullptr) writer.set_governor(governor_);
    size_t dyn = 0;
    for (const ShardQuerySegment& segment : local.plan.segments) {
      switch (segment.kind) {
        case ShardQuerySegment::Kind::kOpenTag:
          writer.StartElement(segment.text);
          break;
        case ShardQuerySegment::Kind::kCloseTag:
          writer.EndElement(segment.text);
          break;
        case ShardQuerySegment::Kind::kText:
          writer.Text(segment.text);
          break;
        case ShardQuerySegment::Kind::kLoop: {
          for (size_t s = 0; s < n; ++s) {
            writer.Raw(local_results[s][q][dyn].text);
          }
          ++dyn;
          break;
        }
        case ShardQuerySegment::Kind::kAggregate: {
          if (segment.agg == AggKind::kCount) {
            uint64_t count = 0;
            for (size_t s = 0; s < n; ++s) {
              count += local_results[s][q][dyn].agg.count;
            }
            writer.Text(std::to_string(count));
          } else {
            std::vector<std::string> values;
            for (size_t s = 0; s < n; ++s) {
              AggregateParts& parts = local_results[s][q][dyn].agg;
              for (std::string& value : parts.values) {
                values.push_back(std::move(value));
              }
            }
            writer.Text(FoldSumValues(values));
          }
          ++dyn;
          break;
        }
      }
    }
    writer.Flush();
    if (governor_ != nullptr) {
      GCX_RETURN_IF_ERROR(governor_->CheckAll(/*force_clock=*/true));
    }
    ExecStats merged = MakeExecStats(start, writer.bytes_written());
    for (size_t s = 0; s < n; ++s) {
      for (const LocalSegmentResult& slot : local_results[s][q]) {
        merged.events_delivered += slot.stats.events_delivered;
        merged.live_roles_final += slot.stats.live_roles_final;
        merged.buffer_nodes_final =
            std::max(merged.buffer_nodes_final, slot.stats.buffer_nodes_final);
        merged.peak_bytes = std::max(merged.peak_bytes, slot.stats.peak_bytes);
        merged.dfa_states = std::max(merged.dfa_states, slot.stats.dfa_states);
        merged.buffer.bytes_peak =
            std::max(merged.buffer.bytes_peak, slot.stats.buffer.bytes_peak);
        merged.projector.events_read += slot.stats.projector.events_read;
      }
    }
    stats.per_query[qi] = std::move(merged);
  }

  stats.shared = batch.demux->stats();
  // The slices tile the document (the shard scanners also read the
  // synthetic wrappers, which the document does not contain).
  stats.shared.bytes_scanned = input.size();
  stats.shared.shards = n;
  stats.shared.shard_local_queries = locals.size();
  batch.Finish();
  return std::move(stats);
}

}  // namespace gcx
