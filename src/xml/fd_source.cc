#include "xml/fd_source.h"

#include "common/budget.h"

#include <cerrno>
#include <cstring>
#include <ctime>
#include <memory>
#include <string>
#include <utility>

#include <fcntl.h>
#include <poll.h>
#include <sched.h>
#include <sys/stat.h>
#include <unistd.h>

namespace gcx {

FdSource::FdSource(int fd, bool owns_fd) : fd_(fd), owns_fd_(owns_fd) {
  GCX_CHECK(fd_ >= 0);
  int flags = ::fcntl(fd_, F_GETFL, 0);
  if (flags >= 0 && (flags & O_NONBLOCK) == 0) {
    ::fcntl(fd_, F_SETFL, flags | O_NONBLOCK);
  }
  // Regular files never return EAGAIN: report them as always ready so
  // consumers keep their cheap non-parking paths (see ReadyFd()).
  struct stat st;
  if (::fstat(fd_, &st) == 0 && S_ISREG(st.st_mode)) pollable_ = false;
}

FdSource::~FdSource() {
  if (owns_fd_ && fd_ >= 0) ::close(fd_);
}

ByteSource::ReadResult FdSource::Read(char* buffer, size_t capacity) {
  if (eof_ || capacity == 0) return ReadResult::Eof();
  while (true) {
    ssize_t n = ::read(fd_, buffer, capacity);
    if (n > 0) return ReadResult::Ok(static_cast<size_t>(n));
    if (n == 0) {
      eof_ = true;
      return ReadResult::Eof();
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return ReadResult::WouldBlock();
    }
    if (errno == EINTR) continue;
    // Hard read error (reset connection, I/O failure): there will never
    // be more data. Report it as kError with the errno — consumers
    // surface the cause instead of mistaking the truncation for EOF.
    eof_ = true;
    return ReadResult::Error(errno);
  }
}

Result<std::unique_ptr<FdSource>> FdSource::Open(const std::string& path) {
  // Deliberately a BLOCKING open: on a FIFO it waits until the first
  // writer connects. An O_NONBLOCK open would return immediately, and a
  // read on a writer-less FIFO yields 0 (EOF, not EAGAIN) — racing the
  // writer's own open() and mistaking "no writer yet" for an empty
  // stream. The constructor switches the fd to O_NONBLOCK for the reads,
  // where EOF is unambiguous (a writer existed and closed).
  int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return IoError("cannot open '" + path + "': " + std::strerror(errno));
  }
  return std::make_unique<FdSource>(fd);
}

namespace {

int64_t MonotonicMs() {
  struct timespec ts;
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000 + ts.tv_nsec / 1000000;
}

/// Shared poll loop: retries EINTR with the REMAINING deadline (not the
/// original timeout — a signal-heavy process must still time out on
/// schedule) and surfaces non-EINTR poll failures and POLLNVAL instead of
/// claiming readability.
WaitStatus PollLoop(struct pollfd* polls, size_t n, int timeout_ms) {
  int remaining = timeout_ms;
  while (true) {
    int64_t start = remaining > 0 ? MonotonicMs() : 0;
    int r = ::poll(polls, n, remaining);
    if (r > 0) {
      // Readable, hung up or errored all mean a Read proceeds — but an
      // invalid descriptor means the caller is waiting on a closed fd and
      // no amount of waiting will help.
      for (size_t i = 0; i < n; ++i) {
        if (polls[i].revents & POLLNVAL) {
          errno = EBADF;
          return WaitStatus::kError;
        }
      }
      return WaitStatus::kReady;
    }
    if (r == 0) return WaitStatus::kTimeout;
    if (errno != EINTR) return WaitStatus::kError;
    if (remaining > 0) {
      int64_t elapsed = MonotonicMs() - start;
      remaining = elapsed >= remaining
                      ? 0  // deadline spent: one final non-blocking check
                      : remaining - static_cast<int>(elapsed);
    }
  }
}

}  // namespace

WaitStatus WaitReadable(int fd, int timeout_ms) {
  if (fd < 0) {
    // Not pollable: yield so a producer thread can run, then let the caller
    // retry. This turns the wait into a polite spin.
    ::sched_yield();
    return WaitStatus::kReady;
  }
  struct pollfd p;
  p.fd = fd;
  p.events = POLLIN;
  p.revents = 0;
  return PollLoop(&p, 1, timeout_ms);
}

WaitStatus WaitAnyReadable(const std::vector<int>& fds, int timeout_ms) {
  std::vector<struct pollfd> polls;
  polls.reserve(fds.size());
  for (int fd : fds) {
    if (fd < 0) {
      ::sched_yield();
      return WaitStatus::kReady;
    }
    polls.push_back({fd, POLLIN, 0});
  }
  if (polls.empty()) {
    ::sched_yield();
    return WaitStatus::kReady;
  }
  return PollLoop(polls.data(), polls.size(), timeout_ms);
}

Result<bool> ReadAvailable(ByteSource* source, std::string* out,
                           RunGovernor* governor, uint64_t* lease) {
  char chunk[1 << 16];
  while (true) {
    if (governor != nullptr) {
      GCX_RETURN_IF_ERROR(governor->Check());
      GCX_RETURN_IF_ERROR(governor->UpdateArenaBytes(lease, out->size()));
    }
    ByteSource::ReadResult r = source->Read(chunk, sizeof(chunk));
    switch (r.state) {
      case ByteSource::ReadState::kOk:
        out->append(chunk, r.bytes);
        break;
      case ByteSource::ReadState::kWouldBlock:
        return false;
      case ByteSource::ReadState::kEof:
        return true;
      case ByteSource::ReadState::kError:
        return IoError(std::string("source read error: ") +
                       std::strerror(r.error));
    }
  }
}

Status AwaitInput(int fd, RunGovernor* governor, int want_ms) {
  int timeout_ms =
      governor != nullptr ? governor->BoundedWaitMs(want_ms) : want_ms;
  if (WaitReadable(fd, timeout_ms) == WaitStatus::kError) {
    return IoError(std::string("poll failed waiting for input: ") +
                   std::strerror(errno));
  }
  if (governor == nullptr) return Status::Ok();
  return governor->CheckAll(/*force_clock=*/true);
}

namespace {

Status DrainToEof(ByteSource* source, std::string* out, RunGovernor* governor,
                  uint64_t* lease) {
  while (true) {
    GCX_ASSIGN_OR_RETURN(bool eof,
                         ReadAvailable(source, out, governor, lease));
    if (eof) return Status::Ok();
    GCX_RETURN_IF_ERROR(AwaitInput(source->ReadyFd(), governor));
  }
}

}  // namespace

Status ReadAll(ByteSource* source, std::string* out, RunGovernor* governor,
               uint64_t* lease) {
  if (lease != nullptr) return DrainToEof(source, out, governor, lease);
  uint64_t own_lease = 0;
  Status status = DrainToEof(source, out, governor, &own_lease);
  if (governor != nullptr) governor->ReleaseArenaBytes(&own_lease);
  return status;
}

}  // namespace gcx
