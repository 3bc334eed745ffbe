// Robustness sweep: fault injection, resource budgets, deadlines.
//
// Three families of guarantees, asserted corpus-wide where possible:
//
//  1. Fault tolerance — scripted mid-stream faults (short reads, stall
//     bursts, read errors, premature EOF) via FaultInjectingSource, plus
//     opt-in ByteArena allocation-failure injection. The engine must never
//     crash, hang or leak (the suite runs under ASan in CI); every failing
//     run must produce a typed status with deterministic, source-attributed
//     error text (each scripted case runs TWICE and the outcomes are
//     compared byte-for-byte); slow-but-honest scripts must leave output
//     byte-identical to the blocking path.
//
//  2. Budget edges — a run exactly AT a cap completes; one unit past it
//     trips with the canonical error text. Checked for replay-log events
//     and output bytes (measured from an unbudgeted reference run), plus
//     trip/pass extremes for the arena-byte cap.
//
//  3. Deadlines — a run parked on a never-ready source terminates within
//     deadline + 100 ms with the typed deadline error; a deadline expiring
//     mid-evaluation (forced, no wall-clock wait) surfaces the same text.
//     Shard-local and merge-and-replay sharding must agree byte-for-byte
//     on budget-trip error text with each other and with the serial path.
//
// The conformance corpus is found through GCX_CONFORMANCE_DIR (set by
// CTest); run by hand, the usual source-tree locations are probed.

#include <gtest/gtest.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/arena.h"
#include "common/budget.h"
#include "core/engine.h"
#include "core/multi_engine.h"
#include "test_sources.h"

namespace gcx {
namespace {

namespace fs = std::filesystem;

std::string CorpusDir() {
  const char* env = std::getenv("GCX_CONFORMANCE_DIR");
  if (env != nullptr) return env;
  for (const char* candidate :
       {"tests/conformance/cases", "../tests/conformance/cases",
        "../../tests/conformance/cases", "conformance/cases"}) {
    if (fs::is_directory(candidate)) return candidate;
  }
  return "tests/conformance/cases";
}

std::string ReadFileIfAny(const fs::path& path, bool* readable) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) {
    *readable = false;
    return "";
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

struct Case {
  std::string name;
  std::string query;
  std::string document;
  std::string expected;
  std::string expected_error;
  bool is_error = false;
  bool complete = true;
};

std::vector<Case> LoadCorpus() {
  std::vector<Case> cases;
  fs::path dir = CorpusDir();
  if (!fs::is_directory(dir)) return cases;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() != ".xq") continue;
    Case c;
    c.name = entry.path().stem().string();
    c.query = ReadFileIfAny(entry.path(), &c.complete);
    c.document = ReadFileIfAny(
        fs::path(entry.path()).replace_extension(".xml"), &c.complete);
    fs::path error_path = fs::path(entry.path()).replace_extension(".error");
    if (fs::exists(error_path)) {
      c.is_error = true;
      c.expected_error = ReadFileIfAny(error_path, &c.complete);
      while (!c.expected_error.empty() && c.expected_error.back() == '\n') {
        c.expected_error.pop_back();
      }
    } else {
      c.expected = ReadFileIfAny(
          fs::path(entry.path()).replace_extension(".expected"), &c.complete);
    }
    cases.push_back(std::move(c));
  }
  return cases;
}

/// Options matching the conformance harness: the err_oversized_token_*
/// fixtures hold ~20 KB tokens and are pinned against a 16 KiB cap.
EngineOptions OptionsFor(const Case& c) {
  EngineOptions options;
  if (c.name.rfind("err_oversized_token", 0) == 0) {
    options.scanner.max_token_bytes = 16384;
  }
  return options;
}

/// One solo run of `c` through `source`; returns (status-string, output).
std::pair<std::string, std::string> RunOnce(
    const Case& c, std::unique_ptr<ByteSource> source) {
  auto compiled = CompiledQuery::Compile(c.query, OptionsFor(c));
  EXPECT_TRUE(compiled.ok()) << c.name;
  Engine engine;
  std::ostringstream out;
  auto stats = engine.Execute(*compiled, std::move(source), &out);
  return {stats.ok() ? std::string() : stats.status().ToString(), out.str()};
}

// --- 1. fault-injection sweeps ----------------------------------------------

TEST(FaultSweep, CorruptingScriptsAreDeterministicAndTyped) {
  std::vector<Case> corpus = LoadCorpus();
  ASSERT_FALSE(corpus.empty());
  size_t failing_runs = 0;
  size_t read_error_attributed = 0;
  for (const Case& c : corpus) {
    if (!c.complete) continue;
    size_t half = c.document.size() / 2;
    std::vector<std::vector<FaultOp>> scripts = {
        // premature EOF halfway through the document
        {FaultOp::Read(half), FaultOp::Eof()},
        // mid-stream read error, with stalls around it for good measure
        {FaultOp::Read(half), FaultOp::Stall(2), FaultOp::Error(EIO)},
        // read error on the very first byte
        {FaultOp::Error(ECONNRESET)},
    };
    for (size_t s = 0; s < scripts.size(); ++s) {
      auto first = RunOnce(c, std::make_unique<FaultInjectingSource>(
                                  c.document, scripts[s]));
      auto second = RunOnce(c, std::make_unique<FaultInjectingSource>(
                                   c.document, scripts[s]));
      // Determinism: the same (data, script) pair must produce the same
      // status text and the same output bytes, run after run.
      EXPECT_EQ(first.first, second.first)
          << c.name << " script " << s << ": error text not deterministic";
      EXPECT_EQ(first.second, second.second)
          << c.name << " script " << s << ": output not deterministic";
      if (!first.first.empty()) {
        ++failing_runs;
        if (first.first.find("input read error") != std::string::npos) {
          ++read_error_attributed;
        }
      }
    }
  }
  // The sweep must not be vacuous: corrupted streams have to actually fail,
  // and scripted read errors must be attributed to the source in the text.
  EXPECT_GT(failing_runs, corpus.size())
      << "corrupting scripts should fail most corpus cases";
  EXPECT_GT(read_error_attributed, 0u)
      << "scripted read errors should surface as 'input read error' text";
}

TEST(FaultSweep, SlowScriptsMatchTheBlockingPath) {
  std::vector<Case> corpus = LoadCorpus();
  ASSERT_FALSE(corpus.empty());
  for (const Case& c : corpus) {
    if (!c.complete) continue;
    // Honest but adversarially slow: stall bursts and short reads over the
    // whole prefix, then a normal tail.
    std::vector<FaultOp> script = {
        FaultOp::Stall(3), FaultOp::Read(1),  FaultOp::Stall(1),
        FaultOp::Read(7),  FaultOp::Stall(2), FaultOp::Read(3),
        FaultOp::Stall(1),
    };
    auto [error, output] =
        RunOnce(c, std::make_unique<FaultInjectingSource>(c.document, script));
    if (c.is_error) {
      ASSERT_FALSE(error.empty()) << c.name;
      EXPECT_NE(error.find(c.expected_error), std::string::npos)
          << c.name << ": '" << error << "' does not contain '"
          << c.expected_error << "'";
      continue;
    }
    ASSERT_TRUE(error.empty()) << c.name << ": " << error;
    EXPECT_EQ(output, c.expected)
        << c.name << ": output diverges under slow-source injection";
  }
}

// --- arena allocation-failure injection --------------------------------------

/// Disarms the process-global injector even on assertion failure.
struct InjectorGuard {
  ~InjectorGuard() { ArenaFaultInjector::Disarm(); }
};

// A document big enough that the batched engine's replay arena takes
// several fresh chunks, so every countdown in the sweep below has an
// allocation to land on.
std::string BigDocument() {
  std::string doc = "<a>";
  for (int i = 0; i < 400; ++i) {
    doc += "<b><c>payload-" + std::to_string(i) + "</c></b>";
  }
  doc += "</a>";
  return doc;
}

TEST(ArenaInjection, InjectedFailuresSurfaceTypedErrorsOrLeaveOutputIntact) {
  InjectorGuard guard;
  std::string doc = BigDocument();
  auto q1 = CompiledQuery::Compile("<r>{ count(//c) }</r>", {});
  auto q2 = CompiledQuery::Compile("<r>{ for $x in /a/b return $x }</r>", {});
  ASSERT_TRUE(q1.ok() && q2.ok());

  // Unpoisoned reference outputs.
  std::ostringstream ref1, ref2;
  {
    MultiQueryEngine engine;
    auto stats = engine.Execute({&*q1, &*q2}, doc, {&ref1, &ref2});
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  }

  size_t injected_runs = 0;
  for (int64_t countdown : {0, 1, 2, 4, 8, 1000000}) {
    ArenaFaultInjector::Arm(countdown);
    std::ostringstream o1, o2;
    MultiQueryEngine engine;
    auto stats = engine.Execute({&*q1, &*q2}, doc, {&o1, &o2});
    uint64_t failures = ArenaFaultInjector::injected_failures();
    ArenaFaultInjector::Disarm();
    if (stats.ok()) {
      // The countdown outlived the run's fallible allocations: output must
      // be untouched by the armed-but-silent injector.
      EXPECT_EQ(o1.str(), ref1.str()) << "countdown " << countdown;
      EXPECT_EQ(o2.str(), ref2.str()) << "countdown " << countdown;
      continue;
    }
    ++injected_runs;
    EXPECT_GT(failures, 0u) << "countdown " << countdown;
    EXPECT_TRUE(IsResourceExhausted(stats.status())) << "countdown "
                                                     << countdown;
    EXPECT_NE(stats.status().ToString().find(
                  "replay arena allocation failed (injected fault)"),
              std::string::npos)
        << "countdown " << countdown << ": " << stats.status().ToString();
  }
  EXPECT_GT(injected_runs, 0u)
      << "no countdown hit a fallible allocation — the sweep is vacuous";
}

// --- 2. budget edges ---------------------------------------------------------

TEST(BudgetEdges, ReplayEventCapExactlyMetPassesExceededByOneTrips) {
  std::string doc = BigDocument();
  auto q1 = CompiledQuery::Compile("<r>{ count(//c) }</r>", {});
  auto q2 = CompiledQuery::Compile("<r>{ for $x in /a/b return $x }</r>", {});
  ASSERT_TRUE(q1.ok() && q2.ok());

  // Measure the run's true peak from an unbudgeted reference.
  std::ostringstream ref1, ref2;
  uint64_t peak = 0;
  {
    MultiQueryEngine engine;
    auto stats = engine.Execute({&*q1, &*q2}, doc, {&ref1, &ref2});
    ASSERT_TRUE(stats.ok());
    peak = stats->shared.replay_log_peak;
  }
  ASSERT_GE(peak, 2u) << "fixture too small to probe the cap edge";

  {
    // Exactly met: completes, byte-identical.
    RunBudget budget;
    budget.max_replay_log_events = peak;
    RunGovernor governor(budget);
    MultiQueryEngine engine;
    engine.set_governor(&governor);
    std::ostringstream o1, o2;
    auto stats = engine.Execute({&*q1, &*q2}, doc, {&o1, &o2});
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_EQ(o1.str(), ref1.str());
    EXPECT_EQ(o2.str(), ref2.str());
  }
  {
    // One below the peak: the peak moment exceeds the cap by one — trips.
    RunBudget budget;
    budget.max_replay_log_events = peak - 1;
    RunGovernor governor(budget);
    MultiQueryEngine engine;
    engine.set_governor(&governor);
    std::ostringstream o1, o2;
    auto stats = engine.Execute({&*q1, &*q2}, doc, {&o1, &o2});
    ASSERT_FALSE(stats.ok());
    EXPECT_TRUE(IsResourceExhausted(stats.status()));
    EXPECT_EQ(stats.status().ToString(),
              "ResourceExhausted: replay log budget of " +
                  std::to_string(peak - 1) + " events exceeded");
  }
}

TEST(BudgetEdges, OutputByteCapExactlyMetPassesExceededByOneTrips) {
  std::string doc = BigDocument();
  auto compiled =
      CompiledQuery::Compile("<r>{ for $x in /a/b/c return $x }</r>", {});
  ASSERT_TRUE(compiled.ok());

  std::ostringstream ref;
  uint64_t output_bytes = 0;
  {
    Engine engine;
    auto stats = engine.Execute(*compiled, doc, &ref);
    ASSERT_TRUE(stats.ok());
    output_bytes = stats->output_bytes;
  }
  ASSERT_GE(output_bytes, 2u);

  {
    RunBudget budget;
    budget.max_output_bytes = output_bytes;
    RunGovernor governor(budget);
    Engine engine;
    engine.set_governor(&governor);
    std::ostringstream out;
    auto stats = engine.Execute(*compiled, doc, &out);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_EQ(out.str(), ref.str());
  }
  {
    RunBudget budget;
    budget.max_output_bytes = output_bytes - 1;
    RunGovernor governor(budget);
    Engine engine;
    engine.set_governor(&governor);
    std::ostringstream out;
    auto stats = engine.Execute(*compiled, doc, &out);
    ASSERT_FALSE(stats.ok());
    EXPECT_TRUE(IsResourceExhausted(stats.status()));
    EXPECT_EQ(stats.status().ToString(),
              "ResourceExhausted: output byte budget of " +
                  std::to_string(output_bytes - 1) + " bytes exceeded");
  }
}

TEST(BudgetEdges, ArenaByteCapTripsTinyPassesGenerous) {
  std::string doc = BigDocument();
  auto q1 = CompiledQuery::Compile("<r>{ count(//c) }</r>", {});
  auto q2 = CompiledQuery::Compile("<r>{ for $x in /a/b return $x }</r>", {});
  ASSERT_TRUE(q1.ok() && q2.ok());
  {
    RunBudget budget;
    budget.max_arena_bytes = 1;
    RunGovernor governor(budget);
    MultiQueryEngine engine;
    engine.set_governor(&governor);
    std::ostringstream o1, o2;
    auto stats = engine.Execute({&*q1, &*q2}, doc, {&o1, &o2});
    ASSERT_FALSE(stats.ok());
    EXPECT_TRUE(IsResourceExhausted(stats.status()));
    EXPECT_EQ(stats.status().ToString(),
              "ResourceExhausted: arena byte budget of 1 bytes exceeded");
  }
  {
    RunBudget budget;
    budget.max_arena_bytes = 1ull << 30;
    RunGovernor governor(budget);
    MultiQueryEngine engine;
    engine.set_governor(&governor);
    std::ostringstream o1, o2;
    auto stats = engine.Execute({&*q1, &*q2}, doc, {&o1, &o2});
    EXPECT_TRUE(stats.ok()) << stats.status().ToString();
  }
}

TEST(BudgetEdges, DomBatchArenaCapAgreesAcrossExecuteAndResumableRun) {
  // A kNaiveDom batch materializes the document once and charges it to the
  // arena ledger once, whichever driver runs the batch pipeline: a cap of
  // 1.5x the document fits both.
  std::string doc = "<a>";
  for (int i = 0; i < 9000; ++i) {
    doc += "<b><c>payload-" + std::to_string(i) + "</c></b>";
  }
  doc += "</a>";
  EngineOptions dom;
  dom.mode = EngineMode::kNaiveDom;
  auto q1 = CompiledQuery::Compile("<r>{ count(//c) }</r>", dom);
  auto q2 = CompiledQuery::Compile("<r>{ for $x in /a/b return $x }</r>", dom);
  ASSERT_TRUE(q1.ok() && q2.ok());
  RunBudget budget;
  budget.max_arena_bytes = doc.size() * 3 / 2;

  std::ostringstream ref1, ref2;
  {
    RunGovernor governor(budget);
    MultiQueryEngine engine;
    engine.set_governor(&governor);
    auto stats = engine.Execute({&*q1, &*q2}, doc, {&ref1, &ref2});
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  }
  {
    RunGovernor governor(budget);
    std::ostringstream o1, o2;
    MultiQueryRun run({&*q1, &*q2},
                      std::make_unique<WouldBlockEveryNSource>(doc, 4096),
                      {&o1, &o2}, &governor);
    while (run.Step() == MultiQueryRun::State::kStalled) {
    }
    ASSERT_EQ(run.state(), MultiQueryRun::State::kDone)
        << run.status().ToString();
    EXPECT_EQ(o1.str(), ref1.str());
    EXPECT_EQ(o2.str(), ref2.str());
  }
}

// --- 3. deadlines & cancellation ---------------------------------------------

/// A source that never produces a byte and never reaches EOF.
class NeverReadySource : public ByteSource {
 public:
  ReadResult Read(char*, size_t) override { return ReadResult::WouldBlock(); }
};

TEST(Deadline, StalledRunTerminatesWithinDeadlinePlusGrace) {
  auto compiled = CompiledQuery::Compile("<r>{ count(//a) }</r>", {});
  ASSERT_TRUE(compiled.ok());
  RunBudget budget;
  budget.deadline_ms = 300;
  RunGovernor governor(budget);
  Engine engine;
  engine.set_governor(&governor);
  std::ostringstream out;
  auto start = std::chrono::steady_clock::now();
  auto stats =
      engine.Execute(*compiled, std::make_unique<NeverReadySource>(), &out);
  auto elapsed_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                        std::chrono::steady_clock::now() - start)
                        .count();
  ASSERT_FALSE(stats.ok());
  EXPECT_TRUE(IsDeadlineExceeded(stats.status()));
  EXPECT_EQ(stats.status().ToString(),
            "DeadlineExceeded: run deadline of 300 ms exceeded");
  // The acceptance bound: a parked run must notice the deadline promptly.
  EXPECT_LT(elapsed_ms, 300 + 100)
      << "stalled run overshot the deadline by more than the 100 ms grace";
  EXPECT_GE(elapsed_ms, 295) << "run gave up before the deadline";
}

TEST(Deadline, ExpiryDuringEvaluationSurfacesTheSameText) {
  // Forced expiry instead of a wall-clock wait: the deadline fires at the
  // next clocked checkpoint inside evaluation, no sleeping required.
  std::string doc = BigDocument();
  auto compiled = CompiledQuery::Compile("<r>{ count(//c) }</r>", {});
  ASSERT_TRUE(compiled.ok());
  RunBudget budget;
  budget.deadline_ms = 60000;
  RunGovernor governor(budget);
  governor.ForceExpireForTesting();
  Engine engine;
  engine.set_governor(&governor);
  std::ostringstream out;
  auto stats = engine.Execute(*compiled, doc, &out);
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().ToString(),
            "DeadlineExceeded: run deadline of 60000 ms exceeded");
}

TEST(Deadline, ChildGovernorsInheritTheParentForcedExpiry) {
  RunBudget budget;
  budget.deadline_ms = 60000;
  RunGovernor root(budget);
  RunGovernor child(&root);
  EXPECT_TRUE(child.Check(/*force_clock=*/true).ok());
  root.ForceExpireForTesting();
  Status status = child.Check(/*force_clock=*/true);
  ASSERT_FALSE(status.ok());
  EXPECT_TRUE(IsDeadlineExceeded(status));
}

// --- shard-path error parity -------------------------------------------------

TEST(ShardParity, BudgetTripTextIdenticalAcrossExecutionPaths) {
  // The same replay-event budget must produce byte-identical error text
  // whether the trip fires in the serial demux, a shard worker under
  // merge-and-replay, or a shard worker under shard-local evaluation
  // (ISSUE: shard-local vs merge-and-replay error parity).
  // Two queries so the serial demux must RETAIN events for the second
  // consumer (a promptly-trimmed single-query log never reaches the cap).
  std::string doc = BigDocument();
  auto q1 = CompiledQuery::Compile("<r>{ count(//c) }</r>", {});
  auto q2 = CompiledQuery::Compile("<r>{ for $x in /a/b return $x }</r>", {});
  ASSERT_TRUE(q1.ok() && q2.ok());
  RunBudget budget;
  budget.max_replay_log_events = 5;

  auto serial_error = [&] {
    RunGovernor governor(budget);
    MultiQueryEngine engine;
    engine.set_governor(&governor);
    std::ostringstream o1, o2;
    auto stats = engine.Execute({&*q1, &*q2}, doc, {&o1, &o2});
    EXPECT_FALSE(stats.ok());
    return stats.status().ToString();
  }();

  for (bool local_eval : {true, false}) {
    RunGovernor governor(budget);
    MultiQueryEngine engine;
    engine.set_governor(&governor);
    ShardOptions options;
    options.shards = 4;
    options.min_shard_bytes = 1;
    options.local_eval = local_eval;
    std::ostringstream o1, o2;
    auto stats = engine.ExecuteSharded({&*q1, &*q2}, doc, {&o1, &o2}, options);
    ASSERT_FALSE(stats.ok()) << "local_eval=" << local_eval;
    EXPECT_EQ(stats.status().ToString(), serial_error)
        << "local_eval=" << local_eval
        << ": sharded budget error diverges from the serial path";
  }
  EXPECT_EQ(serial_error,
            "ResourceExhausted: replay log budget of 5 events exceeded");
}

TEST(ShardParity, GenerousBudgetShardedOutputMatchesUnbudgeted) {
  // A budget nobody trips must leave the sharded paths byte-identical to
  // the ungoverned run.
  std::string doc = BigDocument();
  auto compiled = CompiledQuery::Compile("<r>{ count(//c) }</r>", {});
  ASSERT_TRUE(compiled.ok());
  ShardOptions options;
  options.shards = 4;
  options.min_shard_bytes = 1;

  std::ostringstream ref;
  {
    MultiQueryEngine engine;
    auto stats = engine.ExecuteSharded({&*compiled}, doc, {&ref}, options);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  }
  RunBudget budget;
  budget.deadline_ms = 60000;
  budget.max_arena_bytes = 1ull << 30;
  budget.max_replay_log_events = 1ull << 20;
  budget.max_output_bytes = 1ull << 30;
  RunGovernor governor(budget);
  MultiQueryEngine engine;
  engine.set_governor(&governor);
  std::ostringstream out;
  auto stats = engine.ExecuteSharded({&*compiled}, doc, {&out}, options);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(out.str(), ref.str());
}

TEST(ShardParity, BackToBackGovernedShardedRunsStaySharded) {
  // Shard logs charge the governor's replay and arena ledgers. The charges
  // must be released when the batch ends: a leak would start the next run
  // on the same governor over budget, and it would quietly fall back to
  // the serial scan.
  std::string doc = "<a>";
  for (int i = 0; i < 2000; ++i) {
    doc += "<b><c>payload-" + std::to_string(i) + "</c></b>";
  }
  doc += "</a>";
  // $root inside the loop body: the classifier keeps it merge-and-replay.
  auto compiled = CompiledQuery::Compile(
      "<r>{ for $x in /a/b return <o>{ count(/a/b) }</o> }</r>", {});
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  ShardOptions options;
  options.shards = 4;
  options.min_shard_bytes = 1;

  std::ostringstream ref;
  uint64_t one_run_peak = 0;
  {
    MultiQueryEngine engine;
    auto stats = engine.ExecuteSharded({&*compiled}, doc, {&ref}, options);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    ASSERT_EQ(stats->shared.shards, 4u);
    ASSERT_EQ(stats->shared.shard_local_queries, 0u);
    one_run_peak = stats->shared.replay_log_peak;
  }
  RunBudget budget;
  budget.max_replay_log_events = one_run_peak * 3 / 2;
  RunGovernor governor(budget);
  MultiQueryEngine engine;
  engine.set_governor(&governor);
  MetricsCounter* fallbacks = MetricsRegistry::Global().Counter(
      "robustness.serial_fallbacks_total");
  const uint64_t fallbacks_before = fallbacks->value();
  for (int run = 0; run < 3; ++run) {
    std::ostringstream out;
    auto stats = engine.ExecuteSharded({&*compiled}, doc, {&out}, options);
    ASSERT_TRUE(stats.ok()) << "run " << run << ": "
                            << stats.status().ToString();
    EXPECT_EQ(stats->shared.shards, 4u) << "run " << run;
    EXPECT_EQ(out.str(), ref.str()) << "run " << run;
  }
  EXPECT_EQ(fallbacks->value(), fallbacks_before);
}

}  // namespace
}  // namespace gcx
