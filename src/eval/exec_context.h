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

/// The one governed pull loop, shared by the solo context and a batch
/// query's context. With a governor every pull is a cooperative checkpoint
/// (deadline, cancellation, output cap) that also charges `buffer`'s bytes
/// to the arena budget through the ledger cursor `lease`. The evaluator
/// cannot suspend mid-expression, so a would-block from `advance` becomes
/// an AwaitInput on `input`'s descriptor and a retry: a stalled advance
/// delivered nothing (the scanner rewound to the event boundary), so the
/// event stream stays byte-identical to a blocking source. Interleaving
/// across stalls happens one level up, in the admission scheduler
/// (core/admission.h). A null governor leaves only advance and wait.
/// Always inlined, so each Pull override is one self-contained loop, as a
/// hand-written one would be: a thin forwarding Pull would invite the
/// compiler to devirtualize it speculatively into every evaluator call site.
template <typename Advance>
[[gnu::always_inline]] inline Result<bool> GovernedPull(
    RunGovernor* governor, uint64_t* lease, const BufferTree& buffer,
    const XmlScanner& input, Advance advance) {
  while (true) {
    if (governor != nullptr) {
      GCX_RETURN_IF_ERROR(governor->CheckAll());
      GCX_RETURN_IF_ERROR(
          governor->UpdateArenaBytes(lease, buffer.stats().bytes_current));
    }
    Result<bool> more = advance();
    if (more.ok() || !IsWouldBlock(more.status())) return more;
    GCX_RETURN_IF_ERROR(AwaitInput(input.ReadyFd(), governor));
  }
}

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

  /// Installs the run's resource governor (see GovernedPull). Null (the
  /// default) leaves the pull loop byte-identical to ungoverned execution.
  void set_governor(RunGovernor* governor) { governor_ = governor; }

  Result<bool> Pull() override {
    return GovernedPull(governor_, &arena_lease_, buffer_, scanner_,
                        [this] { return projector_.Advance(); });
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
