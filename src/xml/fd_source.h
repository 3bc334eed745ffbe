// Non-blocking file-descriptor ByteSource (pipes, FIFOs, sockets) and the
// readiness helpers consumers use to wait on stalled sources.
//
// FdSource is the "real" would-block producer of the readiness-aware source
// API (xml/scanner.h): it reads a descriptor in O_NONBLOCK mode and maps
// EAGAIN/EWOULDBLOCK to ReadState::kWouldBlock, exposing the descriptor
// through ReadyFd() so a scheduler can poll it. StringSource/IstreamSource
// remain trivially always-ready.

#ifndef GCX_XML_FD_SOURCE_H_
#define GCX_XML_FD_SOURCE_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "xml/scanner.h"

namespace gcx {

/// ByteSource over a non-blocking POSIX file descriptor.
class FdSource : public ByteSource {
 public:
  /// Wraps `fd`, switching it to O_NONBLOCK. Closes it on destruction when
  /// `owns_fd` (the default).
  explicit FdSource(int fd, bool owns_fd = true);
  ~FdSource() override;

  FdSource(const FdSource&) = delete;
  FdSource& operator=(const FdSource&) = delete;

  ReadResult Read(char* buffer, size_t capacity) override;
  /// -1 for regular files: they are always ready (a read never returns
  /// EAGAIN), so consumers take their cheap always-ready paths — e.g. the
  /// admission scheduler's solo fast path — instead of treating the fd as
  /// stall-capable. Pipes/FIFOs/sockets/devices report the descriptor.
  int ReadyFd() const override { return pollable_ ? fd_ : -1; }

  /// Opens `path` (a FIFO, character device or regular file) read-only;
  /// the descriptor is then switched to non-blocking. For a FIFO the open
  /// itself BLOCKS until the first writer connects (matching `cat fifo`) —
  /// a non-blocking open would race the writer: reads on a writer-less
  /// FIFO return EOF, not would-block, truncating the document to empty.
  /// After the open, reads report kWouldBlock between the writer's bursts.
  static Result<std::unique_ptr<FdSource>> Open(const std::string& path);

 private:
  int fd_;
  bool owns_fd_;
  bool pollable_ = true;
  bool eof_ = false;
};

/// Outcome of a readiness wait. kReady means a Read will make progress (if
/// only to observe EOF); kTimeout means the deadline passed with no data;
/// kError means poll() itself failed (errno is left set) or the descriptor
/// is invalid (POLLNVAL) — waiting longer cannot help, and the caller
/// should surface or re-check rather than assume readability.
enum class WaitStatus { kReady, kTimeout, kError };

/// Blocks until `fd` is readable (or has hung up / errored — both mean a
/// Read will make progress, if only to observe EOF). `timeout_ms` < 0 waits
/// indefinitely. EINTR retries deduct the time already waited, so a
/// signal-heavy process still observes its deadline. An `fd` < 0 (a source
/// without a pollable descriptor) yields the CPU briefly and reports
/// kReady: the caller's retry loop stays correct, it just polls.
WaitStatus WaitReadable(int fd, int timeout_ms);

/// Multi-source variant for schedulers parking several stalled pipelines:
/// kReady once ANY of `fds` is readable (or hung up), kTimeout on deadline,
/// or kReady immediately when some entry is < 0 (an unpollable source must
/// be retried, so there is nothing to sleep on). `fds` may be empty
/// (yields). Same EINTR deadline accounting and error surfacing as
/// WaitReadable.
WaitStatus WaitAnyReadable(const std::vector<int>& fds, int timeout_ms);

class RunGovernor;

/// The stall step of every governed input loop (the stream contexts' pulls,
/// ReadAll, the shard scans): waits until `fd` is readable, for at most
/// `want_ms` (< 0: no limit of its own) and never past the governor's
/// deadline, then runs a clocked checkpoint, since the wait may have ended
/// on the deadline rather than on data. A failed wait (poll error, closed
/// descriptor) is an IoError: no amount of waiting will help. An `fd` < 0
/// yields once and returns, so the caller's retry loop polls.
Status AwaitInput(int fd, RunGovernor* governor, int want_ms = -1);

/// Appends whatever `source` has ready to `*out` without blocking: true at
/// EOF, false once the source would block. With a governor every read is a
/// checkpoint, and `out->size()` is charged against the arena budget through
/// the ledger cursor `*lease`, which the caller releases.
Result<bool> ReadAvailable(ByteSource* source, std::string* out,
                           RunGovernor* governor, uint64_t* lease);

/// Drains `source` to EOF into `*out`, waiting on readiness across stalls
/// (the blocking convenience for consumers that need the whole document,
/// e.g. the DOM engines). With a governor, waits are bounded by the
/// remaining deadline and the materialized bytes are charged against the
/// arena budget, so a stalled or oversized source surfaces a typed error
/// instead of hanging or growing without limit. The charge is released on
/// return unless `lease` is given, in which case it stays on that cursor
/// for the caller to release.
Status ReadAll(ByteSource* source, std::string* out,
               RunGovernor* governor = nullptr, uint64_t* lease = nullptr);

}  // namespace gcx

#endif  // GCX_XML_FD_SOURCE_H_
