// Tests for the readiness-aware source layer (xml/fd_source) and the
// resumable execution paths built on it: FdSource over real pipes, the
// WaitReadable/ReadAll helpers, a scanner suspending mid-token on an empty
// pipe, and MultiQueryRun parking and resuming on pipe readiness.

#include <gtest/gtest.h>

#include <cerrno>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <csignal>

#include <sys/time.h>
#include <unistd.h>

#include "core/engine.h"
#include "core/multi_engine.h"
#include "xml/fd_source.h"
#include "xml/scanner.h"

namespace gcx {
namespace {

/// RAII pipe pair; the write end is closed explicitly to signal EOF.
struct Pipe {
  int read_fd = -1;
  int write_fd = -1;
  Pipe() { EXPECT_EQ(::pipe(&read_fd), 0); }
  ~Pipe() { CloseWrite(); }
  void Write(const std::string& bytes) {
    ASSERT_EQ(::write(write_fd, bytes.data(), bytes.size()),
              static_cast<ssize_t>(bytes.size()));
  }
  void CloseWrite() {
    if (write_fd >= 0) {
      ::close(write_fd);
      write_fd = -1;
    }
  }
};

TEST(FdSource, ReportsWouldBlockThenDataThenEof) {
  Pipe pipe;
  FdSource source(pipe.read_fd);  // takes ownership of the read end
  EXPECT_EQ(source.ReadyFd(), pipe.read_fd);

  char buffer[64];
  ByteSource::ReadResult r = source.Read(buffer, sizeof(buffer));
  EXPECT_EQ(r.state, ByteSource::ReadState::kWouldBlock);

  pipe.Write("hello");
  r = source.Read(buffer, sizeof(buffer));
  ASSERT_EQ(r.state, ByteSource::ReadState::kOk);
  EXPECT_EQ(std::string(buffer, r.bytes), "hello");

  r = source.Read(buffer, sizeof(buffer));
  EXPECT_EQ(r.state, ByteSource::ReadState::kWouldBlock);

  pipe.CloseWrite();
  r = source.Read(buffer, sizeof(buffer));
  EXPECT_EQ(r.state, ByteSource::ReadState::kEof);
  // EOF is sticky.
  EXPECT_EQ(source.Read(buffer, sizeof(buffer)).state,
            ByteSource::ReadState::kEof);
}

TEST(FdSource, OpenFailsCleanlyOnMissingPath) {
  auto source = FdSource::Open("/nonexistent/fifo/path");
  ASSERT_FALSE(source.ok());
  EXPECT_EQ(source.status().code(), StatusCode::kIoError);
}

TEST(WaitReadable, SignalsDataAndRespectsTimeout) {
  Pipe pipe;
  EXPECT_EQ(WaitReadable(pipe.read_fd, /*timeout_ms=*/0),
            WaitStatus::kTimeout);
  pipe.Write("x");
  EXPECT_EQ(WaitReadable(pipe.read_fd, /*timeout_ms=*/1000),
            WaitStatus::kReady);
  // Unpollable sources never sleep forever.
  EXPECT_EQ(WaitReadable(-1, /*timeout_ms=*/-1), WaitStatus::kReady);
  ::close(pipe.read_fd);
  pipe.read_fd = -1;
}

TEST(WaitReadable, Hangup_IsReadiness) {
  Pipe pipe;
  pipe.CloseWrite();
  // A hung-up pipe must report readable (the Read will observe EOF), or a
  // parked batch whose writer died would sleep forever.
  EXPECT_EQ(WaitReadable(pipe.read_fd, /*timeout_ms=*/1000),
            WaitStatus::kReady);
  ::close(pipe.read_fd);
  pipe.read_fd = -1;
}

TEST(WaitReadable, InvalidDescriptorIsAnErrorNotReadiness) {
  // Waiting on a closed fd used to report "readable" — a parked batch
  // would then spin on a Read that can never progress. POLLNVAL must
  // surface as kError instead.
  Pipe pipe;
  int fd = pipe.read_fd;
  ::close(fd);
  pipe.read_fd = -1;
  EXPECT_EQ(WaitReadable(fd, /*timeout_ms=*/100), WaitStatus::kError);
  EXPECT_EQ(WaitAnyReadable({fd}, /*timeout_ms=*/100), WaitStatus::kError);
}

TEST(WaitReadable, EintrRetriesDeductElapsedTime) {
  // A 30ms repeating interval timer interrupts every poll. The old code
  // re-armed each retry with the FULL original timeout, so the wait never
  // ended; the fix deducts elapsed time, so the deadline holds (modulo
  // scheduling slack).
  struct sigaction action {};
  struct sigaction old_action {};
  action.sa_handler = [](int) {};
  sigemptyset(&action.sa_mask);
  action.sa_flags = 0;  // deliberately no SA_RESTART: poll returns EINTR
  ASSERT_EQ(sigaction(SIGALRM, &action, &old_action), 0);
  struct itimerval timer {};
  timer.it_interval.tv_usec = 30000;
  timer.it_value.tv_usec = 30000;
  ASSERT_EQ(setitimer(ITIMER_REAL, &timer, nullptr), 0);

  Pipe pipe;  // never written: the wait can only time out
  auto start = std::chrono::steady_clock::now();
  WaitStatus status = WaitReadable(pipe.read_fd, /*timeout_ms=*/200);
  auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                     std::chrono::steady_clock::now() - start)
                     .count();

  struct itimerval stop {};
  setitimer(ITIMER_REAL, &stop, nullptr);
  sigaction(SIGALRM, &old_action, nullptr);

  EXPECT_EQ(status, WaitStatus::kTimeout);
  EXPECT_GE(elapsed, 150);   // the deadline was honored, not cut short
  EXPECT_LT(elapsed, 2000);  // and not re-armed indefinitely
}

TEST(ReadAll, DrainsAcrossStallsFromAWriterThread) {
  Pipe pipe;
  auto source = std::make_unique<FdSource>(pipe.read_fd);
  std::string expected;
  for (int i = 0; i < 200; ++i) expected += "chunk-" + std::to_string(i) + ";";
  std::thread writer([&] {
    for (size_t off = 0; off < expected.size(); off += 97) {
      std::string piece = expected.substr(off, 97);
      ASSERT_EQ(::write(pipe.write_fd, piece.data(), piece.size()),
                static_cast<ssize_t>(piece.size()));
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    pipe.CloseWrite();
  });
  std::string drained;
  Status status = ReadAll(source.get(), &drained);
  writer.join();
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(drained, expected);
}

TEST(ScannerOverPipe, SuspendsMidTokenAndResumes) {
  Pipe pipe;
  XmlScanner scanner(std::make_unique<FdSource>(pipe.read_fd));
  XmlEvent event;

  // Nothing written yet: the very first Next suspends.
  EXPECT_TRUE(IsWouldBlock(scanner.Next(&event)));

  // A start tag split across writes, suspended mid-name.
  pipe.Write("<roo");
  EXPECT_TRUE(IsWouldBlock(scanner.Next(&event)));
  pipe.Write("t><b>hi");
  ASSERT_TRUE(scanner.Next(&event).ok());
  EXPECT_EQ(event.kind, XmlEvent::Kind::kStartElement);
  EXPECT_EQ(event.name(), "root");
  ASSERT_TRUE(scanner.Next(&event).ok());
  EXPECT_EQ(event.kind, XmlEvent::Kind::kStartElement);
  EXPECT_EQ(event.name(), "b");
  // "hi" is buffered but the text token may extend — must suspend, not
  // deliver a partial text event.
  EXPECT_TRUE(IsWouldBlock(scanner.Next(&event)));

  pipe.Write("!</b></root>");
  pipe.CloseWrite();
  ASSERT_TRUE(scanner.Next(&event).ok());
  EXPECT_EQ(event.kind, XmlEvent::Kind::kText);
  EXPECT_EQ(event.text, "hi!");
  ASSERT_TRUE(scanner.Next(&event).ok());
  EXPECT_EQ(event.kind, XmlEvent::Kind::kEndElement);
  ASSERT_TRUE(scanner.Next(&event).ok());
  EXPECT_EQ(event.kind, XmlEvent::Kind::kEndElement);
  ASSERT_TRUE(scanner.Next(&event).ok());
  EXPECT_EQ(event.kind, XmlEvent::Kind::kEndOfDocument);
}

TEST(ScannerOverPipe, WriterClosingMidDocumentIsATruncationError) {
  Pipe pipe;
  XmlScanner scanner(std::make_unique<FdSource>(pipe.read_fd));
  pipe.Write("<a><b>partial");
  pipe.CloseWrite();
  XmlEvent event;
  Status status;
  while ((status = scanner.Next(&event)).ok()) {
    ASSERT_NE(event.kind, XmlEvent::Kind::kEndOfDocument);
  }
  EXPECT_FALSE(IsWouldBlock(status));
  EXPECT_NE(status.message().find("unexpected end of input"),
            std::string::npos)
      << status.ToString();
}

TEST(FdSource, RegularFilesReportAlwaysReady) {
  // A regular file never returns EAGAIN, so FdSource must not advertise a
  // pollable fd — consumers (e.g. the admission solo fast path) then keep
  // their cheap always-ready behavior.
  std::string path = ::testing::TempDir() + "/fd_regular.xml";
  {
    std::ofstream f(path);
    f << "<a/>";
  }
  auto source = FdSource::Open(path);
  ASSERT_TRUE(source.ok());
  EXPECT_EQ((*source)->ReadyFd(), -1);
  char buffer[16];
  auto r = (*source)->Read(buffer, sizeof(buffer));
  ASSERT_EQ(r.state, ByteSource::ReadState::kOk);
  EXPECT_EQ(std::string(buffer, r.bytes), "<a/>");
}

/// Source producing a prefix, then a hard I/O error.
class FailingSource : public ByteSource {
 public:
  explicit FailingSource(std::string prefix) : prefix_(std::move(prefix)) {}
  ReadResult Read(char* buffer, size_t capacity) override {
    if (!sent_) {
      sent_ = true;
      size_t n = std::min(capacity, prefix_.size());
      std::memcpy(buffer, prefix_.data(), n);
      return ReadResult::Ok(n);
    }
    return ReadResult::Error(EIO);
  }

 private:
  std::string prefix_;
  bool sent_ = false;
};

TEST(ReadErrors, ScannerNamesTheIoCauseInsteadOfPlainTruncation) {
  XmlScanner scanner(std::make_unique<FailingSource>("<a><b>cut"));
  XmlEvent event;
  Status status;
  while ((status = scanner.Next(&event)).ok()) {
    ASSERT_NE(event.kind, XmlEvent::Kind::kEndOfDocument);
  }
  EXPECT_NE(status.message().find("unexpected end of input"),
            std::string::npos)
      << status.ToString();
  EXPECT_NE(status.message().find(std::strerror(EIO)), std::string::npos)
      << status.ToString();
}

TEST(ReadErrors, ReadAllSurfacesAnIoErrorNotASilentTruncation) {
  FailingSource source("half a document");
  std::string out;
  Status status = ReadAll(&source, &out);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kIoError);
  EXPECT_NE(status.message().find(std::strerror(EIO)), std::string::npos)
      << status.ToString();
}

TEST(MultiQueryRunOverPipe, ParksOnStallAndResumesToByteIdenticalOutput) {
  const std::string doc = "<a><b>1</b><b>2</b><c>xyz</c></a>";
  const std::vector<std::string> queries = {
      "<r>{ for $x in /a/b return $x }</r>",
      "<r>{ count(/a/b) }</r>",
  };
  // Reference: blocking execution over a string.
  std::vector<CompiledQuery> compiled;
  for (const std::string& q : queries) {
    auto one = CompiledQuery::Compile(q, {});
    ASSERT_TRUE(one.ok());
    compiled.push_back(std::move(one).value());
  }
  std::vector<const CompiledQuery*> batch{&compiled[0], &compiled[1]};
  std::vector<std::ostringstream> expected(2);
  {
    MultiQueryEngine engine;
    auto stats = engine.Execute(batch, doc, {&expected[0], &expected[1]});
    ASSERT_TRUE(stats.ok());
  }

  Pipe pipe;
  std::vector<std::ostringstream> actual(2);
  MultiQueryRun run(batch, std::make_unique<FdSource>(pipe.read_fd),
                    {&actual[0], &actual[1]});
  ASSERT_EQ(run.state(), MultiQueryRun::State::kRunnable);
  EXPECT_GE(run.ReadyFd(), 0);

  // Empty pipe: the run parks without blocking and without writing output.
  EXPECT_EQ(run.Step(), MultiQueryRun::State::kStalled);
  EXPECT_TRUE(actual[0].str().empty());

  // Feed the document in pieces; every prefix leaves the run parked.
  for (size_t off = 0; off < doc.size(); off += 5) {
    pipe.Write(doc.substr(off, 5));
    // The scan may or may not stall again depending on what is buffered —
    // but it must never finish before EOF (the epilog could continue).
    EXPECT_EQ(run.Step(), MultiQueryRun::State::kStalled);
  }
  pipe.CloseWrite();
  EXPECT_EQ(run.Step(), MultiQueryRun::State::kDone);

  auto stats = run.TakeStats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->shared.scan_passes, 1u);
  EXPECT_EQ(stats->shared.bytes_scanned, doc.size());
  for (int i = 0; i < 2; ++i) {
    EXPECT_EQ(actual[i].str(), expected[i].str()) << "query " << i;
  }
}

TEST(MultiQueryRun, ValidationFailureSurfacesAsFailedState) {
  auto q1 = CompiledQuery::Compile("<r>{ count(/a) }</r>", {});
  ASSERT_TRUE(q1.ok());
  EngineOptions dom;
  dom.mode = EngineMode::kNaiveDom;
  auto q2 = CompiledQuery::Compile("<r>{ count(/a) }</r>", dom);
  ASSERT_TRUE(q2.ok());
  std::ostringstream o1, o2;
  MultiQueryRun run({&*q1, &*q2}, std::make_unique<StringSource>("<a/>"),
                    {&o1, &o2});
  EXPECT_EQ(run.state(), MultiQueryRun::State::kFailed);
  EXPECT_FALSE(run.status().ok());
  EXPECT_EQ(run.Step(), MultiQueryRun::State::kFailed);
}

TEST(MultiQueryRun, DomModeDrainsIncrementallyThenEvaluates) {
  EngineOptions dom;
  dom.mode = EngineMode::kNaiveDom;
  auto q = CompiledQuery::Compile("<r>{ count(/a/b) }</r>", dom);
  ASSERT_TRUE(q.ok());
  Pipe pipe;
  std::ostringstream out;
  MultiQueryRun run({&*q}, std::make_unique<FdSource>(pipe.read_fd), {&out});
  EXPECT_EQ(run.Step(), MultiQueryRun::State::kStalled);
  pipe.Write("<a><b/><b/>");
  EXPECT_EQ(run.Step(), MultiQueryRun::State::kStalled);
  pipe.Write("<b/></a>");
  pipe.CloseWrite();
  EXPECT_EQ(run.Step(), MultiQueryRun::State::kDone);
  EXPECT_EQ(out.str(), "<r>3</r>");
  auto stats = run.TakeStats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->shared.bytes_scanned, std::string("<a><b/><b/><b/></a>").size());
}

TEST(SoloEngineOverPipe, BlockingExecuteWaitsOutAStallingWriter) {
  auto q = CompiledQuery::Compile("<r>{ sum(/a/b) }</r>", {});
  ASSERT_TRUE(q.ok());
  Pipe pipe;
  std::thread writer([&] {
    const std::string doc = "<a><b>1</b><b>2</b><b>39</b></a>";
    for (size_t off = 0; off < doc.size(); off += 7) {
      ASSERT_EQ(::write(pipe.write_fd, doc.data() + off,
                        std::min<size_t>(7, doc.size() - off)),
                static_cast<ssize_t>(std::min<size_t>(7, doc.size() - off)));
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    pipe.CloseWrite();
  });
  Engine engine;
  std::ostringstream out;
  auto stats = engine.Execute(*q, std::make_unique<FdSource>(pipe.read_fd),
                              &out);
  writer.join();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(out.str(), "<r>42</r>");
}

/// Would-block forever, naming a closed descriptor as its readiness fd:
/// no wait on it can ever succeed.
class ClosedFdStallSource : public ByteSource {
 public:
  explicit ClosedFdStallSource(int fd) : fd_(fd) {}
  ReadResult Read(char*, size_t) override { return ReadResult::WouldBlock(); }
  int ReadyFd() const override { return fd_; }

 private:
  int fd_;
};

TEST(AwaitInput, ClosedReadinessFdIsOneIoErrorOnEveryPath) {
  // No deadline is set, so a loop that dropped the failed wait and retried
  // would spin forever: every pull, drain and batch path must surface it.
  Pipe pipe;
  int fd = pipe.read_fd;
  ::close(fd);
  pipe.read_fd = -1;
  const std::string expected =
      "IoError: poll failed waiting for input: " +
      std::string(std::strerror(EBADF));
  for (EngineMode mode : {EngineMode::kStreaming,
                          EngineMode::kMaterializedProjection,
                          EngineMode::kNaiveDom}) {
    EngineOptions options;
    options.mode = mode;
    auto q = CompiledQuery::Compile("<r>{ count(/a/b) }</r>", options);
    ASSERT_TRUE(q.ok());
    std::ostringstream out;
    auto solo = Engine().Execute(
        *q, std::make_unique<ClosedFdStallSource>(fd), &out);
    ASSERT_FALSE(solo.ok());
    EXPECT_EQ(solo.status().ToString(), expected);
    auto batch = MultiQueryEngine().Execute(
        {&*q}, std::make_unique<ClosedFdStallSource>(fd), {&out});
    ASSERT_FALSE(batch.ok());
    EXPECT_EQ(batch.status().ToString(), expected);
  }
}

}  // namespace
}  // namespace gcx
