// Integration tests for the `gcx` command-line tool: drives the real
// binary through a shell, covering the query/input plumbing, the option
// surface and the exit-code contract.

#include <gtest/gtest.h>

#include <array>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <string>

#include "xmark/queries.h"

namespace gcx {
namespace {

/// Runs `command`, captures stdout(+stderr if merged by the caller) and the
/// exit code.
struct RunResult {
  int exit_code = -1;
  std::string output;
};

RunResult Shell(const std::string& command) {
  RunResult result;
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) return result;
  std::array<char, 4096> chunk;
  while (size_t n = fread(chunk.data(), 1, chunk.size(), pipe)) {
    result.output.append(chunk.data(), n);
  }
  int status = pclose(pipe);
  result.exit_code = WEXITSTATUS(status);
  return result;
}

std::string BinaryPath() {
  // ctest runs test binaries from the build tree; the tool sits next to it.
  const char* env = std::getenv("GCX_CLI_PATH");
  if (env != nullptr) return env;
  for (const char* candidate :
       {"./tools/gcx", "../tools/gcx", "build/tools/gcx"}) {
    std::ifstream probe(candidate);
    if (probe.good()) return candidate;
  }
  return "./tools/gcx";
}

class CliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Skip the whole suite when the binary is not where we expect it
    // (e.g. when the test is run manually from another directory).
    std::ifstream probe(BinaryPath());
    if (!probe.good()) {
      GTEST_SKIP() << "gcx binary not found at " << BinaryPath();
    }
  }
};

TEST_F(CliTest, InlineQueryOverStdin) {
  RunResult r = Shell("echo '<a><b>hi</b><c/></a>' | " + BinaryPath() +
                      " -q '<r>{ for $x in /a/b return $x }</r>' -");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_EQ(r.output, "<r><b>hi</b></r>\n");
}

TEST_F(CliTest, QueryAndInputFiles) {
  std::string dir = ::testing::TempDir();
  {
    std::ofstream q(dir + "/q.xq");
    q << "<r>{ count(/a/b) }</r>";
    std::ofstream d(dir + "/d.xml");
    d << "<a><b/><b/><b/></a>";
  }
  RunResult r = Shell(BinaryPath() + " " + dir + "/q.xq " + dir + "/d.xml");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_EQ(r.output, "<r>3</r>\n");
}

TEST_F(CliTest, OutputFileFlag) {
  std::string dir = ::testing::TempDir();
  RunResult r = Shell("echo '<a><b>x</b></a>' | " + BinaryPath() +
                      " -q '<r>{ for $x in /a/b return $x }</r>' -o " + dir +
                      "/out.xml -");
  EXPECT_EQ(r.exit_code, 0);
  std::ifstream out(dir + "/out.xml");
  std::string content((std::istreambuf_iterator<char>(out)),
                      std::istreambuf_iterator<char>());
  EXPECT_EQ(content, "<r><b>x</b></r>\n");
}

TEST_F(CliTest, ExplainPrintsAnalysis) {
  RunResult r = Shell(BinaryPath() +
                      " -q '<r>{ for $x in /a/b return $x }</r>' --explain");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("projection tree"), std::string::npos);
  EXPECT_NE(r.output.find("signOff"), std::string::npos);
}

// XMark Q8 is the one benchmark query with a value join; the explain dump
// names its hash-join plan, and no other XMark query gets one.
TEST_F(CliTest, ExplainShowsTheJoinPlanForXMarkQ8Only) {
  std::string dir = ::testing::TempDir();
  for (const NamedQuery& q : AllXMarkQueries()) {
    std::string path = dir + "/xmark_" + q.name + ".xq";
    {
      std::ofstream file(path);
      file << q.text;
    }
    RunResult r = Shell(BinaryPath() + " --explain " + path);
    EXPECT_EQ(r.exit_code, 0) << q.name;
    EXPECT_NE(r.output.find("== rewritten query =="), std::string::npos);
    bool q8 = std::string(q.name) == "Q8";
    EXPECT_EQ(r.output.find("== join plans ==") != std::string::npos, q8)
        << q.name << "\n" << r.output;
    if (q8) {
      EXPECT_NE(r.output.find("hash join $t/buyer/person = $p/id"),
                std::string::npos)
          << r.output;
    }
  }
}

TEST_F(CliTest, ProjectOnlyEmitsProjectedDocument) {
  RunResult r = Shell("echo '<a><b><v>1</v><w/></b><z/></a>' | " +
                      BinaryPath() +
                      " -q '<r>{ for $x in /a/b return $x/v }</r>' "
                      "--project-only -");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_EQ(r.output, "<a><b><v>1</v></b></a>\n");
}

TEST_F(CliTest, StatsGoToStderr) {
  RunResult r = Shell("echo '<a><b/></a>' | " + BinaryPath() +
                      " -q '<r>{ for $x in /a/b return $x }</r>' --stats - "
                      "2>&1");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("peak buffer bytes:"), std::string::npos);
  EXPECT_NE(r.output.find("GC runs:"), std::string::npos);
}

TEST_F(CliTest, SoloStatsReportProjectorCounters) {
  RunResult r = Shell("echo '<a><b>hi</b><c>zz</c></a>' | " + BinaryPath() +
                      " -q '<r>{ for $x in /a/b return $x }</r>' --stats - "
                      "2>&1");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("events read:"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("elements kept:"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("text kept:"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("scanner stalls:"), std::string::npos) << r.output;
}

TEST_F(CliTest, ModeFlagsProduceSameResult) {
  for (const char* mode : {"streaming", "project", "dom"}) {
    RunResult r = Shell("echo '<a><b>k</b></a>' | " + BinaryPath() +
                        " -q '<r>{ for $x in /a/b return $x }</r>' --mode=" +
                        mode + " -");
    EXPECT_EQ(r.exit_code, 0) << mode;
    EXPECT_EQ(r.output, "<r><b>k</b></r>\n") << mode;
  }
}

TEST_F(CliTest, CompileErrorExitsNonZero) {
  RunResult r = Shell("echo '<a/>' | " + BinaryPath() +
                      " -q 'not a query' - 2>/dev/null");
  EXPECT_NE(r.exit_code, 0);
}

TEST_F(CliTest, MalformedInputExitsNonZero) {
  RunResult r = Shell("echo '<a><b></a>' | " + BinaryPath() +
                      " -q '<r>{ for $x in /a/b return $x }</r>' - "
                      "2>/dev/null");
  EXPECT_NE(r.exit_code, 0);
}

TEST_F(CliTest, MissingQueryShowsUsage) {
  RunResult r = Shell(BinaryPath() + " 2>&1");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("usage:"), std::string::npos);
}

TEST_F(CliTest, UnknownOptionRejected) {
  RunResult r = Shell(BinaryPath() + " --frobnicate -q '<r/>' 2>&1");
  EXPECT_NE(r.exit_code, 0);
  EXPECT_NE(r.output.find("unknown option"), std::string::npos);
}

TEST_F(CliTest, HelpExitsZero) {
  RunResult r = Shell(BinaryPath() + " --help");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("options:"), std::string::npos);
}

TEST_F(CliTest, MissingValueForInlineQueryShowsUsage) {
  RunResult r = Shell(BinaryPath() + " -q 2>&1");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("usage:"), std::string::npos);
}

TEST_F(CliTest, MissingValueForOutputFileShowsUsage) {
  RunResult r = Shell(BinaryPath() + " -q '<r/>' -o 2>&1");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("usage:"), std::string::npos);
}

TEST_F(CliTest, UnknownModeRejected) {
  RunResult r = Shell("echo '<a/>' | " + BinaryPath() +
                      " -q '<r/>' --mode=warp - 2>&1");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("unknown mode"), std::string::npos);
}

TEST_F(CliTest, MissingQueryFileExitsNonZero) {
  RunResult r = Shell(BinaryPath() + " /nonexistent/q.xq 2>&1");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("cannot read query file"), std::string::npos);
}

TEST_F(CliTest, MissingInputFileExitsNonZero) {
  RunResult r = Shell(BinaryPath() +
                      " -q '<r>{ for $x in /a return $x }</r>' "
                      "/nonexistent/d.xml 2>&1");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("cannot read input file"), std::string::npos);
}

TEST_F(CliTest, ExtraPositionalArgumentShowsUsage) {
  std::string dir = ::testing::TempDir();
  {
    std::ofstream q(dir + "/extra.xq");
    q << "<r/>";
  }
  RunResult r = Shell(BinaryPath() + " " + dir + "/extra.xq a.xml b.xml 2>&1");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("usage:"), std::string::npos);
}

TEST_F(CliTest, LargeStdinStream) {
  // 2000 elements through stdin: exercises the chunked IstreamSource path
  // (well past one 64KB read) rather than a one-shot string.
  RunResult r = Shell(
      "{ printf '<root>'; for i in $(seq 2000); do printf '<b><v>1</v></b>'; "
      "done; printf '</root>'; } | " +
      BinaryPath() + " -q '<r>{ count(/root/b) }</r>' -");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_EQ(r.output, "<r>2000</r>\n");
}

TEST_F(CliTest, TechniqueTogglesPreserveResult) {
  // Sec. 5/6 ablation flags must not change the result (Theorem 1).
  for (const char* flag :
       {"--no-gc", "--no-aggregate", "--no-redundant", "--no-early",
        "--no-gc --no-aggregate --no-redundant --no-early"}) {
    RunResult r = Shell("echo '<a><b>k</b><c/></a>' | " + BinaryPath() +
                        " -q '<r>{ for $x in /a/b return $x }</r>' " + flag +
                        " -");
    EXPECT_EQ(r.exit_code, 0) << flag;
    EXPECT_EQ(r.output, "<r><b>k</b></r>\n") << flag;
  }
}

TEST_F(CliTest, KeepWhitespaceFlag) {
  RunResult r = Shell("printf '<a><b>k</b> </a>' | " + BinaryPath() +
                      " -q '<r>{ for $x in /a return $x }</r>' --keep-ws -");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_EQ(r.output, "<r><a><b>k</b> </a></r>\n");
}

TEST_F(CliTest, DropAttributesFlagDiscardsAttributeSubelements) {
  // By default an attribute becomes a subelement the query can read.
  const std::string pipeline = "echo '<a><b y=\"2\">k</b></a>' | " +
                               BinaryPath() +
                               " -q '<r>{ for $x in /a/b/y return $x }</r>'";
  RunResult kept = Shell(pipeline + " -");
  EXPECT_EQ(kept.exit_code, 0);
  EXPECT_EQ(kept.output, "<r><y>2</y></r>\n");
  RunResult dropped = Shell(pipeline + " --drop-attributes -");
  EXPECT_EQ(dropped.exit_code, 0);
  EXPECT_EQ(dropped.output, "<r></r>\n");
}

TEST_F(CliTest, TraceDumpsTheBufferAfterEveryToken) {
  // Fig. 2 style: each input token, then the buffer with its role and pin
  // annotations, on stderr; the result on stdout is unchanged.
  const std::string command = "echo '<a><b>hi</b><c/></a>' | " +
                              BinaryPath() +
                              " -q '<r>{ for $x in /a/b return $x }</r>' ";
  RunResult plain = Shell(command + "- 2>&1");
  EXPECT_EQ(plain.exit_code, 0);
  EXPECT_EQ(plain.output, "<r><b>hi</b></r>\n");
  RunResult traced = Shell(command + "--trace - 2>&1 >/dev/null");
  EXPECT_EQ(traced.exit_code, 0);
  for (const char* token : {"-- <a>\n", "-- <b>\n", "-- text(2 bytes)\n",
                            "-- </b>\n", "-- <c>\n", "-- end-of-document\n"}) {
    EXPECT_NE(traced.output.find(token), std::string::npos)
        << token << "\n" << traced.output;
  }
  // After <b>: b holds the for-loop's role; the dump ends with the buffer
  // purged down to the pinned document element.
  EXPECT_NE(traced.output.find("-- <b>\n/ (open)\n  a{pin} (open)\n    b{r"),
            std::string::npos)
      << traced.output;
  const std::string last = "-- end-of-document\n/\n  a{pin}\n";
  ASSERT_GE(traced.output.size(), last.size());
  EXPECT_EQ(traced.output.substr(traced.output.size() - last.size()), last)
      << traced.output;
}

TEST_F(CliTest, RepeatedQueryFlagRunsABatch) {
  RunResult r = Shell("echo '<a><b>hi</b><c>3</c><c>4</c></a>' | " +
                      BinaryPath() +
                      " -q '<r>{ for $x in /a/b return $x }</r>'"
                      " -q '<r>{ sum(/a/c) }</r>'"
                      " -q '<r>{ count(/a/c) }</r>' -");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_EQ(r.output, "<r><b>hi</b></r>\n<r>7</r>\n<r>2</r>\n");
}

TEST_F(CliTest, QueryFlagAcceptsFiles) {
  std::string dir = ::testing::TempDir();
  {
    std::ofstream a(dir + "/a.xq");
    a << "<r>{ count(/a/b) }</r>";
    std::ofstream b(dir + "/b.xq");
    b << "<r>{ for $x in /a/b return $x }</r>";
    std::ofstream d(dir + "/d.xml");
    d << "<a><b>1</b><b>2</b></a>";
  }
  RunResult r = Shell(BinaryPath() + " -q " + dir + "/a.xq -q " + dir +
                      "/b.xq " + dir + "/d.xml");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_EQ(r.output, "<r>2</r>\n<r><b>1</b><b>2</b></r>\n");
}

TEST_F(CliTest, BatchStatsReportOneSharedScan) {
  RunResult r = Shell("echo '<a><b/><c/></a>' | " + BinaryPath() +
                      " -q '<r>{ count(/a/b) }</r>'"
                      " -q '<r>{ count(/a/c) }</r>' --stats - 2>&1");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("scan passes:       1"), std::string::npos);
  EXPECT_NE(r.output.find("merged DFA states:"), std::string::npos);
}

TEST_F(CliTest, BatchMalformedInputExitsNonZero) {
  RunResult r = Shell("echo '<a><b></a>' | " + BinaryPath() +
                      " -q '<r>{ count(//x) }</r>'"
                      " -q '<r>{ count(//y) }</r>' - 2>/dev/null");
  EXPECT_NE(r.exit_code, 0);
}

// --- error-path contract ----------------------------------------------------
//
// Batch compile semantics (documented in README): ALL queries compile
// before ANY executes, so a malformed query fails the whole invocation
// cleanly — nonzero exit, a one-line diagnostic naming the offending
// submission, and no partial output from the well-formed queries.

TEST_F(CliTest, MalformedQueryInBatchFailsCleanlyAndNamesTheQuery) {
  RunResult r = Shell("echo '<a><b/></a>' | " + BinaryPath() +
                      " -q '<r>{ count(/a/b) }</r>'"
                      " -q '<r>{ broken' -q '<r/>' - 2>&1");
  EXPECT_EQ(r.exit_code, 3);
  EXPECT_NE(r.output.find("compile error in query 2 of 3"), std::string::npos)
      << r.output;
  // The well-formed first query must not have produced output.
  EXPECT_EQ(r.output.find("<r>1</r>"), std::string::npos) << r.output;
}

TEST_F(CliTest, MalformedQueryFileInBatchNamesThePath) {
  std::string dir = ::testing::TempDir();
  {
    std::ofstream bad(dir + "/bad.xq");
    bad << "<r>{ oops";
  }
  RunResult r = Shell("echo '<a/>' | " + BinaryPath() +
                      " -q '<r>{ count(/a) }</r>' -q " + dir +
                      "/bad.xq - 2>&1");
  EXPECT_EQ(r.exit_code, 3);
  EXPECT_NE(r.output.find("bad.xq"), std::string::npos) << r.output;
}

TEST_F(CliTest, EmptyDocumentExitsNonZeroWithDiagnostic) {
  for (const char* mode : {"streaming", "project", "dom"}) {
    RunResult r = Shell("printf '' | " + BinaryPath() +
                        " -q '<r>{ count(/a) }</r>' --mode=" + mode +
                        " - 2>&1");
    EXPECT_EQ(r.exit_code, 1) << mode;
    EXPECT_NE(r.output.find("empty document"), std::string::npos)
        << mode << ": " << r.output;
  }
}

TEST_F(CliTest, EmptyDocumentInBatchExitsNonZero) {
  RunResult r = Shell("printf '' | " + BinaryPath() +
                      " -q '<r>{ count(/a) }</r>' -q '<s/>' - 2>&1");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("empty document"), std::string::npos) << r.output;
}

TEST_F(CliTest, DirectoryAsQueryFileRejected) {
  RunResult r = Shell(BinaryPath() + " -q /tmp 2>&1");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("cannot read query file"), std::string::npos)
      << r.output;
}

TEST_F(CliTest, FifoAsQueryFileWorks) {
  // Process-substitution-style inputs (FIFOs, /dev/stdin) are legitimate
  // query sources; only directories are rejected up front.
  std::string dir = ::testing::TempDir();
  std::string fifo = dir + "/query_fifo";
  std::remove(fifo.c_str());
  // The FIFO must exist before gcx starts, and only the writer may be
  // backgrounded: if `mkfifo && echo > fifo` is backgrounded as a unit,
  // gcx can race ahead of mkfifo, fail to open the path, and leave the
  // readerless background writer blocked forever holding the pipe open.
  RunResult r = Shell("mkfifo " + fifo +
                      " && { echo '<r>{ count(/a/b) }</r>' > " + fifo +
                      " & } && echo '<a><b/><b/></a>' | " + BinaryPath() +
                      " " + fifo + " -");
  std::remove(fifo.c_str());
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_EQ(r.output, "<r>2</r>\n");
}

// --- compiled-query cache + admission surface -------------------------------

TEST_F(CliTest, CacheStatsReportsHitsForRepeatedQueries) {
  // The same text three times: one compile, two exact hits.
  RunResult r = Shell("echo '<a><b/></a>' | " + BinaryPath() +
                      " -q '<r>{ count(/a/b) }</r>'"
                      " -q '<r>{ count(/a/b) }</r>'"
                      " -q '<r>{ count(/a/b) }</r>' --cache-stats - 2>&1");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("cache: lookups=3 hits=2"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("compiles=1"), std::string::npos) << r.output;
}

TEST_F(CliTest, CacheStatsReportsCanonicalHitForFormattingVariant) {
  RunResult r = Shell("echo '<a><b/></a>' | " + BinaryPath() +
                      " -q '<r>{ count(/a/b) }</r>'"
                      " -q '<r>{   count( /a/b )   }</r>' --cache-stats - "
                      "2>&1");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("canonical_hits=1"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("compiles=1"), std::string::npos) << r.output;
}

TEST_F(CliTest, AdmissionMatchesHandBuiltBatchOutput) {
  std::string dir = ::testing::TempDir();
  {
    std::ofstream d(dir + "/adm.xml");
    d << "<a><b>hi</b><c>3</c><c>4</c></a>";
  }
  const std::string queries =
      " -q '<r>{ for $x in /a/b return $x }</r>'"
      " -q '<r>{ sum(/a/c) }</r>'"
      " -q '<r>{ count(/a/c) }</r>' ";
  RunResult hand = Shell(BinaryPath() + queries + dir + "/adm.xml");
  RunResult admitted =
      Shell(BinaryPath() + queries + "--admission " + dir + "/adm.xml");
  EXPECT_EQ(hand.exit_code, 0);
  EXPECT_EQ(admitted.exit_code, 0);
  EXPECT_EQ(admitted.output, hand.output);
  EXPECT_EQ(hand.output, "<r><b>hi</b></r>\n<r>7</r>\n<r>2</r>\n");
}

TEST_F(CliTest, AdmissionOverStdinMatchesHandBuilt) {
  const std::string pipeline = "echo '<a><b>k</b></a>' | " + BinaryPath() +
                               " -q '<r>{ count(/a/b) }</r>'"
                               " -q '<r>{ for $x in /a/b return $x }</r>'";
  RunResult hand = Shell(pipeline + " -");
  RunResult admitted = Shell(pipeline + " --admission -");
  EXPECT_EQ(admitted.exit_code, 0);
  EXPECT_EQ(admitted.output, hand.output);
}

// --- non-blocking fd input (--follow / --input-fd) --------------------------

TEST_F(CliTest, FollowStreamsAFifoFedByASlowWriter) {
  std::string dir = ::testing::TempDir();
  std::string fifo = dir + "/doc_follow";
  std::remove(fifo.c_str());
  // The writer drips the document into the FIFO; gcx --follow must consume
  // it as it arrives (a blocking open/read would also pass here — the
  // stall-handling is pinned by the unit suites — but a wrong EOF-on-EAGAIN
  // would truncate the document and fail).
  RunResult r = Shell(
      "mkfifo " + fifo + " && { { printf '<a><b>1</b>'; sleep 0.1; printf "
      "'<b>2</b></a>'; } > " + fifo + " & } && " + BinaryPath() +
      " -q '<r>{ count(/a/b) }</r>' --follow " + fifo);
  std::remove(fifo.c_str());
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_EQ(r.output, "<r>2</r>\n");
}

TEST_F(CliTest, FollowEmptyFifoIsAnEmptyDocumentError) {
  std::string dir = ::testing::TempDir();
  std::string fifo = dir + "/doc_empty";
  std::remove(fifo.c_str());
  // The writer opens and closes without writing a byte.
  RunResult r = Shell("mkfifo " + fifo + " && { : > " + fifo + " & } && " +
                      BinaryPath() + " -q '<r>{ count(/a) }</r>' --follow " +
                      fifo + " 2>&1");
  std::remove(fifo.c_str());
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("empty document"), std::string::npos) << r.output;
}

TEST_F(CliTest, FollowWriterClosingMidDocumentReportsTruncation) {
  std::string dir = ::testing::TempDir();
  std::string fifo = dir + "/doc_truncated";
  std::remove(fifo.c_str());
  RunResult r = Shell("mkfifo " + fifo + " && { printf '<a><b>x</b>' > " +
                      fifo + " & } && " + BinaryPath() +
                      " -q '<r>{ count(/a/b) }</r>' --follow " + fifo +
                      " 2>&1");
  std::remove(fifo.c_str());
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("unexpected end of input"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("unclosed element <a>"), std::string::npos)
      << r.output;
}

TEST_F(CliTest, FollowEofMidTokenAfterStallReportsTheSpillError) {
  // The PR 4 spill-finalization regression through the CLI: the writer
  // stalls (forcing a would-block suspension mid-CDATA), then closes
  // mid-token. The error must be the CDATA one, not a hang or a crash.
  std::string dir = ::testing::TempDir();
  std::string fifo = dir + "/doc_midtoken";
  std::remove(fifo.c_str());
  RunResult r = Shell("mkfifo " + fifo +
                      " && { { printf '<a><![CDATA[spill'; sleep 0.1; printf "
                      "'ed-but-never-closed'; } > " + fifo + " & } && " +
                      BinaryPath() + " -q '<r>{ count(/a) }</r>' --follow " +
                      fifo + " 2>&1");
  std::remove(fifo.c_str());
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("unterminated CDATA"), std::string::npos)
      << r.output;
}

TEST_F(CliTest, InputFdReadsAnInheritedDescriptor) {
  // Feed the document through inherited fd 3 (plain POSIX redirection, so
  // the test does not depend on bash process substitution).
  std::string dir = ::testing::TempDir();
  {
    std::ofstream d(dir + "/fd3.xml");
    d << "<a><b>20</b><b>22</b></a>";
  }
  RunResult r = Shell(BinaryPath() +
                      " -q '<r>{ sum(/a/b) }</r>' --input-fd=3 3< " + dir +
                      "/fd3.xml 2>&1");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_EQ(r.output, "<r>42</r>\n");
}

TEST_F(CliTest, FollowFeedsTheAdmissionSchedulerInOneBatch) {
  std::string dir = ::testing::TempDir();
  std::string fifo = dir + "/doc_admission";
  std::remove(fifo.c_str());
  RunResult r = Shell(
      "mkfifo " + fifo + " && { { printf '<a><b>5</b>'; sleep 0.1; printf "
      "'<b>6</b></a>'; } > " + fifo + " & } && " + BinaryPath() +
      " -q '<r>{ count(/a/b) }</r>' -q '<s>{ sum(/a/b) }</s>'"
      " --admission --stats --follow " + fifo + " 2>&1");
  std::remove(fifo.c_str());
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("<r>2</r>\n<s>11</s>"), std::string::npos)
      << r.output;
  // The scheduler stats line is reported (parked is timing-dependent here;
  // the deterministic park/resume assertions live in admission_test).
  EXPECT_NE(r.output.find("parked="), std::string::npos) << r.output;
}

TEST_F(CliTest, AdmissionBatchLimitSplitsAndStaysCorrect) {
  std::string dir = ::testing::TempDir();
  {
    std::ofstream d(dir + "/split.xml");
    d << "<a><b>1</b><b>2</b></a>";
  }
  RunResult r = Shell(BinaryPath() +
                      " -q '<r>{ count(/a/b) }</r>'"
                      " -q '<s>{ count(/a/b) }</s>'"
                      " -q '<t>{ count(/a/b) }</t>'"
                      " --admission-batch=1 --stats " +
                      dir + "/split.xml 2>&1");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("<r>2</r>\n<s>2</s>\n<t>2</t>"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("batches=3"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("solo=3"), std::string::npos) << r.output;
}

TEST_F(CliTest, BareAdmissionFlagRoutesThroughTheController) {
  // Same output as the hand-built batch, but --stats now reports the
  // admission controller's counters instead of the batch's scan counters.
  const std::string command = "echo '<a><b>1</b><b>2</b></a>' | " +
                              BinaryPath() +
                              " -q '<r>{ count(/a/b) }</r>'"
                              " -q '<s>{ for $x in /a/b return $x }</s>'"
                              " --stats ";
  RunResult hand = Shell(command + "- 2>&1");
  EXPECT_EQ(hand.exit_code, 0);
  EXPECT_EQ(hand.output.find("admission:"), std::string::npos) << hand.output;
  RunResult admitted = Shell(command + "--admission - 2>&1");
  EXPECT_EQ(admitted.exit_code, 0);
  EXPECT_EQ(admitted.output.find("<r>2</r>\n<s><b>1</b><b>2</b></s>\n"), 0u)
      << admitted.output;
  EXPECT_NE(admitted.output.find("admission: submitted=2 admitted=2 "
                                 "rejected=0 batches=1 solo=0"),
            std::string::npos)
      << admitted.output;
  EXPECT_NE(admitted.output.find("splits_size=0 splits_memory=0"),
            std::string::npos)
      << admitted.output;
}

TEST_F(CliTest, AdmissionMemoryBudgetForcesAMemorySplit) {
  // The first batch (cap 2) teaches the controller ~5 replay events per
  // query; a one-event budget then cuts every later batch to one query.
  const std::string command =
      "echo '<a><b>1</b><b>2</b></a>' | " + BinaryPath() +
      " -q '<r>{ count(/a/b) }</r>' -q '<s>{ for $x in /a/b return $x }</s>'"
      " -q '<t>{ count(/a/b) }</t>' -q '<u>{ count(/a/b) }</u>'"
      " --admission-batch=2 --stats ";
  const std::string expected =
      "<r>2</r>\n<s><b>1</b><b>2</b></s>\n<t>2</t>\n<u>2</u>\n";
  RunResult by_size = Shell(command + "- 2>&1");
  EXPECT_EQ(by_size.exit_code, 0);
  EXPECT_EQ(by_size.output.find(expected), 0u) << by_size.output;
  EXPECT_NE(by_size.output.find("batches=2 solo=0 sharded=0 splits_size=1 "
                                "splits_memory=0"),
            std::string::npos)
      << by_size.output;
  RunResult by_memory = Shell(command + "--admission-memory=1 - 2>&1");
  EXPECT_EQ(by_memory.exit_code, 0);
  EXPECT_EQ(by_memory.output.find(expected), 0u) << by_memory.output;
  EXPECT_NE(by_memory.output.find("batches=3 solo=2 sharded=0 splits_size=1 "
                                  "splits_memory=1"),
            std::string::npos)
      << by_memory.output;
}

TEST_F(CliTest, AdmissionArenaBudgetHalvesTheAdaptiveBatchCap) {
  // The budget implies --admission-adaptive; a run whose replay arena peaks
  // above it counts as memory pressure and halves the batch cap (16 -> 8).
  const std::string command = "echo '<a><b>1</b><b>2</b></a>' | " +
                              BinaryPath() +
                              " -q '<r>{ count(/a/b) }</r>'"
                              " -q '<s>{ for $x in /a/b return $x }</s>'"
                              " --stats ";
  RunResult tight = Shell(command + "--admission-arena-budget=1 - 2>&1");
  EXPECT_EQ(tight.exit_code, 0);
  EXPECT_NE(tight.output.find("adaptive: batch_cap=8 shards=1 increases=0 "
                              "decreases_stalls=0 decreases_memory=1"),
            std::string::npos)
      << tight.output;
  RunResult roomy = Shell(command + "--admission-arena-budget=100000 - 2>&1");
  EXPECT_EQ(roomy.exit_code, 0);
  EXPECT_NE(roomy.output.find("adaptive: batch_cap=16 shards=1 increases=0 "
                              "decreases_stalls=0 decreases_memory=0"),
            std::string::npos)
      << roomy.output;
}

// --- metrics export ---------------------------------------------------------

/// Writes a document big enough for the shard planner to accept a 2-way
/// split (>= 2 * 64 KiB) to `path`; every item matches /site/item.
void WriteShardableDoc(const std::string& path) {
  std::ofstream d(path);
  d << "<site>";
  for (int i = 0; i < 4000; ++i) {
    d << "<item><name>n" << i << "</name><price>" << (i % 9) << "</price>"
      << "</item>";
  }
  d << "</site>";
}

TEST_F(CliTest, MetricsJsonToStdout) {
#ifdef GCX_METRICS_OFF
  GTEST_SKIP() << "MetricsSink publishes are compiled out";
#endif
  RunResult r = Shell("echo '<a><b>1</b></a>' | " + BinaryPath() +
                      " -q '<r>{ count(/a/b) }</r>' --metrics-json=- -");
  EXPECT_EQ(r.exit_code, 0);
  // Query result first, then one JSON snapshot on stdout.
  EXPECT_NE(r.output.find("<r>1</r>"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("\"engine\""), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("\"scanner\""), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("\"projector\""), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("\"buffer\""), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("\"runs_total\": 1"), std::string::npos) << r.output;
  // The scan-kernel backend gauge (xml/simd_scan.h numeric values) and the
  // per-query latency histogram keyed by canonical query text.
  EXPECT_NE(r.output.find("\"simd_backend\""), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("\"query\""), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("\"wall_ms\""), std::string::npos) << r.output;
}

TEST_F(CliTest, MetricsJsonFileCoversAllLayersForShardedAdmissionRun) {
#ifdef GCX_METRICS_OFF
  GTEST_SKIP() << "MetricsSink publishes are compiled out";
#endif
  std::string dir = ::testing::TempDir();
  WriteShardableDoc(dir + "/shardable.xml");
  RunResult r = Shell(BinaryPath() +
                      " -q '<r>{ count(/site/item) }</r>'"
                      " -q '<s>{ sum(/site/item/price) }</s>'"
                      " --admission --admission-adaptive --shards=2"
                      " --metrics-json=" + dir + "/metrics.json " +
                      dir + "/shardable.xml");
  ASSERT_EQ(r.exit_code, 0) << r.output;
  // 4000 items, prices cycle 0..8: 444 full cycles (36 each) + 0+1+2+3.
  EXPECT_EQ(r.output, "<r>4000</r>\n<s>15990</s>\n");

  std::ifstream in(dir + "/metrics.json");
  std::string json((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  // One snapshot covering every layer of the sharded admission run.
  for (const char* family : {"\"scanner\"", "\"projector\"", "\"buffer\"",
                             "\"cache\"", "\"admission\"", "\"batch\"",
                             "\"shard\"", "\"adaptive\""}) {
    EXPECT_NE(json.find(family), std::string::npos) << family << "\n" << json;
  }
}

TEST_F(CliTest, ShardedBatchStatsReportPerShardArenaPeaks) {
  std::string dir = ::testing::TempDir();
  WriteShardableDoc(dir + "/shardstats.xml");
  RunResult r = Shell(BinaryPath() +
                      " -q '<r>{ for $i in /site/item return $i/name }</r>'"
                      " --shards=2 --stats " + dir + "/shardstats.xml "
                      "2>&1 >/dev/null");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("shard arena peaks:"), std::string::npos)
      << r.output;
}

// --- resource governance: budget flags & the exit-code contract --------------
//
// Exit codes: 0 success, 1 runtime error, 2 usage error, 3 compile error,
// 4 deadline/resource rejection (including queries shed by admission).

TEST_F(CliTest, CompileErrorExitsThree) {
  RunResult r = Shell("echo '<a/>' | " + BinaryPath() +
                      " -q '<r>{ for $x in }</r>' - 2>&1");
  EXPECT_EQ(r.exit_code, 3);
  EXPECT_NE(r.output.find("compile error"), std::string::npos) << r.output;
}

TEST_F(CliTest, RuntimeErrorStaysExitOne) {
  RunResult r = Shell("echo '<a><b></a>' | " + BinaryPath() +
                      " -q '<r>{ count(/a/b) }</r>' - 2>/dev/null");
  EXPECT_EQ(r.exit_code, 1);
}

TEST_F(CliTest, OutputBudgetTripExitsFour) {
  RunResult r = Shell("echo '<a><b>payload</b><b>payload</b></a>' | " +
                      BinaryPath() +
                      " -q '<r>{ for $x in /a/b return $x }</r>'"
                      " --max-output-bytes=2 - 2>&1 >/dev/null");
  EXPECT_EQ(r.exit_code, 4);
  EXPECT_NE(r.output.find("output byte budget of 2 bytes exceeded"),
            std::string::npos)
      << r.output;
}

TEST_F(CliTest, GenerousBudgetLeavesOutputAndExitUntouched) {
  RunResult r = Shell("echo '<a><b>hi</b></a>' | " + BinaryPath() +
                      " -q '<r>{ for $x in /a/b return $x }</r>'"
                      " --deadline-ms=60000 --max-arena-bytes=100000000"
                      " --max-output-bytes=100000000 -");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_EQ(r.output, "<r><b>hi</b></r>\n");
}

TEST_F(CliTest, DeadlineOnStalledFifoExitsFourPromptly) {
  // A FIFO whose writer holds the stream open but never sends a byte: the
  // run must terminate with the typed deadline error shortly after the
  // deadline instead of hanging. The shell holds the write end open for
  // longer than the deadline, then gives up.
  std::string dir = ::testing::TempDir();
  std::string fifo = dir + "/gcx_stall_fifo";
  std::string cmd = "rm -f " + fifo + " && mkfifo " + fifo +
                    " && (sleep 3 > " + fifo + " &) && " + BinaryPath() +
                    " -q '<r>{ count(/a) }</r>' --follow --deadline-ms=300 " +
                    fifo + " 2>&1 >/dev/null";
  RunResult r = Shell(cmd);
  EXPECT_EQ(r.exit_code, 4);
  EXPECT_NE(r.output.find("run deadline of 300 ms exceeded"),
            std::string::npos)
      << r.output;
}

TEST_F(CliTest, ProjectOnlyOutputBudgetTripExitsFour) {
  RunResult r = Shell("echo '<a><b>hello</b></a>' | " + BinaryPath() +
                      " -q '<r>{ for $x in /a/b return $x }</r>'"
                      " --project-only --max-output-bytes=2 - 2>&1 >/dev/null");
  EXPECT_EQ(r.exit_code, 4);
  EXPECT_NE(r.output.find(
                "ResourceExhausted: output byte budget of 2 bytes exceeded"),
            std::string::npos)
      << r.output;
}

TEST_F(CliTest, DeadlineOnStalledInputFdHoldsForShardsAndProjectOnly) {
  // --shards reads the whole document before it splits it, and
  // --project-only streams it: both must stop at the deadline, not when
  // the writer gives up 3 s later.
  std::string dir = ::testing::TempDir();
  std::string fifo = dir + "/gcx_stall_fd_fifo";
  for (const char* flag : {"--shards=2", "--project-only"}) {
    std::string cmd = "rm -f " + fifo + " && mkfifo " + fifo +
                      " && (sleep 3 > " + fifo + " &) && " + BinaryPath() +
                      " -q '<r>{ count(/a) }</r>' " + flag +
                      " --input-fd=3 --deadline-ms=200 3< " + fifo +
                      " 2>&1 >/dev/null";
    auto start = std::chrono::steady_clock::now();
    RunResult r = Shell(cmd);
    auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                       std::chrono::steady_clock::now() - start)
                       .count();
    EXPECT_EQ(r.exit_code, 4) << flag << ": " << r.output;
    EXPECT_NE(r.output.find("DeadlineExceeded: run deadline of 200 ms exceeded"),
              std::string::npos)
        << flag << ": " << r.output;
    EXPECT_LT(elapsed, 2000) << flag;
  }
}

TEST_F(CliTest, AdmissionShedReportsTypedErrorAndExitsFour) {
  RunResult r = Shell("echo '<a><b>payload</b></a>' | " + BinaryPath() +
                      " -q '<r>{ for $x in /a/b return $x }</r>'"
                      " --admission --max-output-bytes=2 - 2>&1 >/dev/null");
  EXPECT_EQ(r.exit_code, 4);
  EXPECT_NE(r.output.find("queries shed"), std::string::npos) << r.output;
}

TEST_F(CliTest, BudgetFlagsRejectNegativeValues) {
  for (const char* flag :
       {"--deadline-ms=-1", "--max-arena-bytes=-5", "--max-output-bytes=-2"}) {
    RunResult r = Shell("echo '<a/>' | " + BinaryPath() + " -q '<r/>' " +
                        flag + " - 2>/dev/null");
    EXPECT_EQ(r.exit_code, 2) << flag;
  }
}

TEST_F(CliTest, BudgetTripStillDumpsMetricsWithRobustnessCounters) {
  std::string dir = ::testing::TempDir();
  std::string metrics = dir + "/robustness_metrics.json";
  RunResult r = Shell("echo '<a><b>payload</b></a>' | " + BinaryPath() +
                      " -q '<r>{ for $x in /a/b return $x }</r>'"
                      " --max-output-bytes=2 --metrics-json=" + metrics +
                      " - 2>/dev/null >/dev/null");
  EXPECT_EQ(r.exit_code, 4);
  std::ifstream in(metrics);
  ASSERT_TRUE(in.good()) << "metrics file missing after a budget trip";
  std::string json((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  EXPECT_NE(json.find("\"robustness\""), std::string::npos) << json;
  EXPECT_NE(json.find("resource_trips_total"), std::string::npos) << json;
}

}  // namespace
}  // namespace gcx
