// Execution contexts: wire scanner → projector → buffer for one run
// (Fig. 11's component architecture, realized as a synchronous pull chain).
//
// "The query evaluator blocks and requests further input" (Sec. 1) is
// implemented as the evaluator calling Pull() — process one input event —
// in a loop until the datum it needs appears in the buffer.
//
// ExecContext is the abstract surface the evaluator and cursors pull
// through; StreamExecContext is the classic one-query-one-scanner wiring,
// and the multi-query engine's (core/multi_engine.h) Pull() demultiplexes
// one shared scan across N per-query buffers. Every path then evaluates
// through one routine, EvaluateOne (core/run_query.h).

#ifndef GCX_EVAL_EXEC_CONTEXT_H_
#define GCX_EVAL_EXEC_CONTEXT_H_

#include <memory>
#include <utility>

#include "buffer/buffer_tree.h"
#include "common/budget.h"
#include "common/status.h"
#include "common/symbol_table.h"
#include "projection/projector.h"
#include "xml/fd_source.h"
#include "xml/scanner.h"

namespace gcx {

/// The runtime state one evaluation pulls against: a buffer, the tag table
/// its node tags are interned in, and a way to request more input.
class ExecContext {
 public:
  virtual ~ExecContext() = default;

  virtual BufferTree& buffer() = 0;
  virtual SymbolTable& tags() = 0;

  /// Processes one input event. Returns false once the input is exhausted.
  virtual Result<bool> Pull() = 0;

  /// Pulls until `node`'s closing tag has been processed (or EOS, which by
  /// scanner well-formedness implies every open element was closed).
  Status EnsureFinished(BufferNode* node) {
    while (!node->finished) {
      GCX_ASSIGN_OR_RETURN(bool more, Pull());
      if (!more) break;
    }
    GCX_CHECK(node->finished);
    return Status::Ok();
  }
};

/// Owns the runtime state of one single-query streaming execution.
class StreamExecContext final : public ExecContext {
 public:
  StreamExecContext(const ProjectionTree* tree, const RoleCatalog* roles,
                    std::unique_ptr<ByteSource> input,
                    ScannerOptions scanner_options)
      : scanner_(std::move(input), scanner_options, &tags_),
        projector_(tree, roles, &tags_, &scanner_, &buffer_) {}

  BufferTree& buffer() override { return buffer_; }
  SymbolTable& tags() override { return tags_; }
  StreamProjector& projector() { return projector_; }
  XmlScanner& scanner() { return scanner_; }

  ~StreamExecContext() override {
    if (governor_ != nullptr) governor_->ReleaseArenaBytes(&arena_lease_);
  }

  /// Installs the run's resource governor: every Pull becomes a
  /// cooperative checkpoint (deadline, cancellation, output cap, buffer
  /// bytes against the arena budget) and readiness waits are bounded by
  /// the remaining deadline. Null (the default) leaves the pull loop
  /// byte-identical to ungoverned execution.
  void set_governor(RunGovernor* governor) { governor_ = governor; }

  /// The evaluator cannot suspend mid-expression, so the solo loop turns a
  /// would-block from the (resumable) scanner into a readiness wait and
  /// retries: the scanner rewound to the event boundary, Advance() is
  /// side-effect-free on would-block, and the event stream stays
  /// byte-identical to a blocking source. Interleaving across stalls
  /// happens one level up, in the admission scheduler (core/admission.h).
  Result<bool> Pull() override {
    while (true) {
      if (governor_ != nullptr) {
        GCX_RETURN_IF_ERROR(governor_->CheckAll());
        GCX_RETURN_IF_ERROR(governor_->UpdateArenaBytes(
            &arena_lease_, buffer_.stats().bytes_current));
      }
      Result<bool> more = projector_.Advance();
      if (more.ok() || !IsWouldBlock(more.status())) return more;
      // A kError wait (bad descriptor, poll failure) falls through to the
      // retry: the read itself then surfaces the real failure.
      WaitReadable(scanner_.ReadyFd(),
                   governor_ != nullptr ? governor_->BoundedWaitMs(-1) : -1);
      if (governor_ != nullptr) {
        // The wait may have ended because the deadline ran out, not
        // because data arrived: force a clocked check so a stalled source
        // cannot spin pull/wait past the deadline.
        GCX_RETURN_IF_ERROR(governor_->CheckAll(/*force_clock=*/true));
      }
    }
  }

 private:
  SymbolTable tags_;
  BufferTree buffer_;
  XmlScanner scanner_;
  StreamProjector projector_;
  RunGovernor* governor_ = nullptr;
  uint64_t arena_lease_ = 0;
};

}  // namespace gcx

#endif  // GCX_EVAL_EXEC_CONTEXT_H_
