// Tests for the admission controller (core/admission): grouping by
// document/scanner compatibility, batch-size and replay-log memory limits,
// rejection of malformed queries at Submit, equivalence with hand-built
// batches, and concurrent submission.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/admission.h"
#include "core/engine.h"
#include "core/multi_engine.h"
#include "core/query_cache.h"
#include "xml/fd_source.h"

#include <unistd.h>

namespace gcx {
namespace {

std::string SoloRun(const std::string& query, const std::string& doc,
                    const EngineOptions& options = {}) {
  auto compiled = CompiledQuery::Compile(query, options);
  EXPECT_TRUE(compiled.ok()) << compiled.status().ToString();
  Engine engine;
  std::ostringstream out;
  auto stats = engine.Execute(*compiled, doc, &out);
  EXPECT_TRUE(stats.ok()) << stats.status().ToString();
  return out.str();
}

TEST(Admission, SingleGroupMatchesSoloRuns) {
  const std::string doc = "<a><b>1</b><b>2</b><c>9</c></a>";
  const std::vector<std::string> queries = {
      "<r>{ for $x in /a/b return $x }</r>",
      "<r>{ count(/a/b) }</r>",
      "<r>{ sum(/a/c) }</r>",
  };
  QueryCache cache;
  AdmissionController controller(&cache);
  controller.RegisterDocument("doc", doc);
  std::vector<std::ostringstream> outs(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    ASSERT_TRUE(controller.Submit(queries[i], {}, "doc", &outs[i]).ok());
  }
  auto run = controller.Run();
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run->queries, queries.size());
  EXPECT_EQ(run->batches, 1u);
  EXPECT_EQ(run->scan_passes, 1u);
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(outs[i].str(), SoloRun(queries[i], doc)) << i;
  }
}

TEST(Admission, GroupsByDocument) {
  const std::string doc1 = "<a><b>1</b></a>";
  const std::string doc2 = "<a><b>1</b><b>2</b></a>";
  QueryCache cache;
  AdmissionController controller(&cache);
  controller.RegisterDocument("d1", doc1);
  controller.RegisterDocument("d2", doc2);
  std::ostringstream o1, o2, o3;
  ASSERT_TRUE(
      controller.Submit("<r>{ count(/a/b) }</r>", {}, "d1", &o1).ok());
  ASSERT_TRUE(
      controller.Submit("<r>{ count(/a/b) }</r>", {}, "d2", &o2).ok());
  ASSERT_TRUE(
      controller.Submit("<s>{ count(/a/b) }</s>", {}, "d1", &o3).ok());
  auto run = controller.Run();
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run->batches, 2u);  // one per document
  EXPECT_EQ(o1.str(), "<r>1</r>");
  EXPECT_EQ(o2.str(), "<r>2</r>");
  EXPECT_EQ(o3.str(), "<s>1</s>");
  // The same query text against both documents compiled once.
  EXPECT_EQ(cache.stats().compiles, 2u);
}

TEST(Admission, GroupsByScannerCompatibility) {
  // Incompatible tokenizations (keep-ws vs skip-ws) cannot share a scan:
  // the controller must place them in separate batches, where the caller
  // would get an InvalidArgument from a hand-built mixed batch.
  const std::string doc = "<a><b>k</b> </a>";
  EngineOptions keep_ws;
  keep_ws.scanner.skip_whitespace_text = false;
  QueryCache cache;
  AdmissionController controller(&cache);
  controller.RegisterDocument("doc", doc);
  std::ostringstream o1, o2;
  const std::string q = "<r>{ for $x in /a return $x }</r>";
  ASSERT_TRUE(controller.Submit(q, {}, "doc", &o1).ok());
  ASSERT_TRUE(controller.Submit(q, keep_ws, "doc", &o2).ok());
  auto run = controller.Run();
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run->batches, 2u);
  EXPECT_EQ(o1.str(), SoloRun(q, doc));
  EXPECT_EQ(o2.str(), SoloRun(q, doc, keep_ws));
  EXPECT_NE(o1.str(), o2.str());  // the whitespace actually differs
}

TEST(Admission, BatchSizeLimitSplits) {
  const std::string doc = "<a><b>1</b><b>2</b></a>";
  AdmissionLimits limits;
  limits.max_batch_queries = 2;
  QueryCache cache;
  AdmissionController controller(&cache, limits);
  controller.RegisterDocument("doc", doc);
  std::vector<std::ostringstream> outs(5);
  for (size_t i = 0; i < outs.size(); ++i) {
    std::string tag = "q" + std::to_string(i);
    ASSERT_TRUE(controller
                    .Submit("<" + tag + ">{ count(/a/b) }</" + tag + ">", {},
                            "doc", &outs[i])
                    .ok());
  }
  auto run = controller.Run();
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run->batches, 3u);  // 2 + 2 + 1
  EXPECT_EQ(run->scan_passes, 3u);
  AdmissionStats stats = controller.stats();
  EXPECT_EQ(stats.splits_by_size, 2u);
  EXPECT_EQ(stats.solo_runs, 1u);
  for (size_t i = 0; i < outs.size(); ++i) {
    std::string tag = "q" + std::to_string(i);
    EXPECT_EQ(outs[i].str(), "<" + tag + ">2</" + tag + ">");
  }
}

TEST(Admission, ReplayLogBudgetAdaptsAcrossRuns) {
  // A document whose replay log is a few dozen events per batch. The first
  // run has no estimate (runs under the size cap alone) and observes the
  // peak; the second run must respect the tiny budget and split.
  std::string doc = "<a>";
  for (int i = 0; i < 20; ++i) doc += "<b>x" + std::to_string(i) + "</b>";
  doc += "</a>";

  AdmissionLimits limits;
  limits.max_batch_queries = 8;
  limits.max_replay_log_events = 30;  // far below one batch's union stream
  QueryCache cache;
  AdmissionController controller(&cache, limits);
  controller.RegisterDocument("doc", doc);

  auto submit_all = [&](std::vector<std::ostringstream>* outs) {
    for (size_t i = 0; i < outs->size(); ++i) {
      std::string tag = "q" + std::to_string(i);
      ASSERT_TRUE(controller
                      .Submit("<" + tag + ">{ for $x in /a/b return $x }</" +
                                  tag + ">",
                              {}, "doc", &(*outs)[i])
                      .ok());
    }
  };

  std::vector<std::ostringstream> first(4);
  submit_all(&first);
  auto run1 = controller.Run();
  ASSERT_TRUE(run1.ok());
  EXPECT_EQ(run1->batches, 1u);  // no estimate yet: size cap only
  AdmissionStats after1 = controller.stats();
  EXPECT_GT(after1.events_per_query_estimate, 0u);
  EXPECT_GT(after1.replay_log_peak_observed, limits.max_replay_log_events);

  std::vector<std::ostringstream> second(4);
  submit_all(&second);
  auto run2 = controller.Run();
  ASSERT_TRUE(run2.ok());
  EXPECT_GT(run2->batches, 1u) << "the learned estimate must cut batches";
  EXPECT_GT(controller.stats().splits_by_memory, 0u);
  for (size_t i = 0; i < second.size(); ++i) {
    EXPECT_EQ(second[i].str(), first[i].str());
  }
}

TEST(Admission, MalformedQueryRejectedOthersRun) {
  QueryCache cache;
  AdmissionController controller(&cache);
  controller.RegisterDocument("doc", std::string("<a><b>1</b></a>"));
  std::ostringstream good_out, bad_out;
  ASSERT_TRUE(
      controller.Submit("<r>{ count(/a/b) }</r>", {}, "doc", &good_out).ok());
  Status rejected = controller.Submit("<r>{ broken", {}, "doc", &bad_out);
  EXPECT_FALSE(rejected.ok());
  auto run = controller.Run();
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run->queries, 1u);
  EXPECT_EQ(good_out.str(), "<r>1</r>");
  EXPECT_EQ(bad_out.str(), "");
  AdmissionStats stats = controller.stats();
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(stats.admitted, 1u);
}

TEST(Admission, UnknownDocumentRejected) {
  QueryCache cache;
  AdmissionController controller(&cache);
  std::ostringstream out;
  Status status =
      controller.Submit("<r>{ count(/a) }</r>", {}, "nope", &out);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.ToString().find("unknown document"), std::string::npos);
}

TEST(Admission, MalformedDocumentFailsTheRunAndStaysReusable) {
  QueryCache cache;
  AdmissionController controller(&cache);
  controller.RegisterDocument("bad", std::string("<a><b></a>"));
  controller.RegisterDocument("good", std::string("<a><b/></a>"));
  std::ostringstream o1, o2;
  ASSERT_TRUE(controller.Submit("<r>{ count(/a/b) }</r>", {}, "bad", &o1).ok());
  ASSERT_TRUE(controller.Submit("<r>{ count(//x) }</r>", {}, "bad", &o2).ok());
  auto run = controller.Run();
  EXPECT_FALSE(run.ok());

  // Pending state was dropped; the controller keeps working.
  std::ostringstream o3;
  ASSERT_TRUE(
      controller.Submit("<r>{ count(/a/b) }</r>", {}, "good", &o3).ok());
  auto run2 = controller.Run();
  ASSERT_TRUE(run2.ok());
  EXPECT_EQ(run2->queries, 1u);
  EXPECT_EQ(o3.str(), "<r>1</r>");
}

TEST(Admission, ReleaseOnDrainKeepsResidentBytesBounded) {
  // Long-lived controller, repeated register/run cycles: with
  // release_documents_on_drain every successful Run drops the documents it
  // executed — resident content bytes must not accumulate across cycles.
  const std::string doc = "<a><b>1</b><b>2</b></a>";
  QueryCache cache;
  AdmissionLimits limits;
  limits.release_documents_on_drain = true;
  AdmissionController controller(&cache, limits);
  for (int cycle = 0; cycle < 3; ++cycle) {
    controller.RegisterDocument("doc", doc);
    EXPECT_EQ(controller.stats().content_bytes_resident, doc.size());
    std::ostringstream o1, o2;
    ASSERT_TRUE(
        controller.Submit("<r>{ count(/a/b) }</r>", {}, "doc", &o1).ok());
    ASSERT_TRUE(
        controller.Submit("<s>{ sum(/a/b) }</s>", {}, "doc", &o2).ok());
    auto run = controller.Run();
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    EXPECT_EQ(o1.str(), "<r>2</r>");
    EXPECT_EQ(o2.str(), "<s>3</s>");
    EXPECT_EQ(controller.stats().content_bytes_resident, 0u)
        << "cycle " << cycle << " retained document bytes";
    EXPECT_EQ(controller.stats().documents_released,
              static_cast<uint64_t>(cycle + 1));
    // The document is really gone: submissions need a re-register.
    std::ostringstream o3;
    EXPECT_FALSE(
        controller.Submit("<r>{ count(/a/b) }</r>", {}, "doc", &o3).ok());
  }
}

TEST(Admission, DocumentsStayResidentWithoutReleaseOnDrain) {
  const std::string doc = "<a><b>1</b></a>";
  QueryCache cache;
  AdmissionController controller(&cache);  // default: no release
  controller.RegisterDocument("doc", doc);
  std::ostringstream out;
  ASSERT_TRUE(
      controller.Submit("<r>{ count(/a/b) }</r>", {}, "doc", &out).ok());
  ASSERT_TRUE(controller.Run().ok());
  EXPECT_EQ(controller.stats().content_bytes_resident, doc.size());
  EXPECT_EQ(controller.stats().documents_released, 0u);
  // Repeat submissions keep working without a re-register.
  std::ostringstream again;
  ASSERT_TRUE(
      controller.Submit("<r>{ count(/a/b) }</r>", {}, "doc", &again).ok());
  ASSERT_TRUE(controller.Run().ok());
  EXPECT_EQ(again.str(), "<r>1</r>");
}

TEST(Admission, UnregisterDocumentRefusesWhilePendingThenReleases) {
  const std::string doc = "<a><b>1</b></a>";
  QueryCache cache;
  AdmissionController controller(&cache);
  controller.RegisterDocument("doc", doc);
  std::ostringstream out;
  ASSERT_TRUE(
      controller.Submit("<r>{ count(/a/b) }</r>", {}, "doc", &out).ok());
  // Pending submissions reference the document: refuse to pull it out from
  // under them.
  EXPECT_FALSE(controller.UnregisterDocument("doc"));
  ASSERT_TRUE(controller.Run().ok());
  EXPECT_EQ(out.str(), "<r>1</r>");
  // Drained: the explicit unregister drops opener and content.
  EXPECT_TRUE(controller.UnregisterDocument("doc"));
  EXPECT_EQ(controller.stats().content_bytes_resident, 0u);
  EXPECT_EQ(controller.stats().documents_released, 1u);
  std::ostringstream rejected;
  EXPECT_FALSE(
      controller.Submit("<r>{ count(/a/b) }</r>", {}, "doc", &rejected).ok());
  // Unknown ids report false rather than crashing.
  EXPECT_FALSE(controller.UnregisterDocument("never-registered"));
}

TEST(Admission, MatchesHandBuiltBatchByteForByte) {
  const std::string doc =
      "<shop><item><price>3</price></item><item><price>5</price></item>"
      "<sold>1</sold></shop>";
  const std::vector<std::string> queries = {
      "<r>{ for $i in /shop/item return $i/price }</r>",
      "<r>{ sum(/shop/item/price) }</r>",
      "<r>{ count(//item) }</r>",
      "<r>{ for $s in /shop/sold return $s }</r>",
  };
  for (const NamedEngineConfig& config : StandardEngineConfigs()) {
    // Hand-built batch.
    std::vector<CompiledQuery> compiled;
    for (const std::string& q : queries) {
      auto one = CompiledQuery::Compile(q, config.options);
      ASSERT_TRUE(one.ok());
      compiled.push_back(std::move(one).value());
    }
    std::vector<const CompiledQuery*> batch;
    std::vector<std::ostringstream> hand(queries.size());
    std::vector<std::ostream*> hand_outs;
    for (size_t i = 0; i < queries.size(); ++i) {
      batch.push_back(&compiled[i]);
      hand_outs.push_back(&hand[i]);
    }
    MultiQueryEngine engine;
    ASSERT_TRUE(engine.Execute(batch, doc, hand_outs).ok());

    // Admission-built batches.
    QueryCache cache;
    AdmissionController controller(&cache);
    controller.RegisterDocument("doc", doc);
    std::vector<std::ostringstream> admitted(queries.size());
    for (size_t i = 0; i < queries.size(); ++i) {
      ASSERT_TRUE(
          controller.Submit(queries[i], config.options, "doc", &admitted[i])
              .ok());
    }
    ASSERT_TRUE(controller.Run().ok());

    for (size_t i = 0; i < queries.size(); ++i) {
      EXPECT_EQ(admitted[i].str(), hand[i].str())
          << config.name << " query " << i;
    }
  }
}

TEST(Admission, BackToBackRunsReportFreshRunStats) {
  // AdmissionRunStats are per-Run totals, not lifetime accumulators: a
  // reused controller must report the second run from zero, not fold the
  // first run's counters in.
  const std::string doc = "<a><b>1</b><b>2</b></a>";
  const std::vector<std::string> queries = {
      "<r>{ count(/a/b) }</r>",
      "<s>{ for $x in /a/b return $x }</s>",
  };
  QueryCache cache;
  AdmissionController controller(&cache);
  controller.RegisterDocument("doc", doc);

  auto run_once = [&]() -> AdmissionRunStats {
    std::vector<std::ostringstream> outs(queries.size());
    for (size_t i = 0; i < queries.size(); ++i) {
      EXPECT_TRUE(controller.Submit(queries[i], {}, "doc", &outs[i]).ok());
    }
    auto run = controller.Run();
    EXPECT_TRUE(run.ok()) << run.status().ToString();
    for (size_t i = 0; i < queries.size(); ++i) {
      EXPECT_EQ(outs[i].str(), SoloRun(queries[i], doc)) << i;
    }
    return run.ok() ? run.value() : AdmissionRunStats{};
  };

  AdmissionRunStats first = run_once();
  AdmissionRunStats second = run_once();
  EXPECT_EQ(second.queries, first.queries);
  EXPECT_EQ(second.batches, first.batches);
  EXPECT_EQ(second.scan_passes, first.scan_passes);
  EXPECT_EQ(second.bytes_scanned, first.bytes_scanned);
  EXPECT_EQ(second.replay_log_peak, first.replay_log_peak);
  EXPECT_EQ(second.replay_arena_peak_bytes, first.replay_arena_peak_bytes);

  // Lifetime stats, by contrast, do accumulate across the two runs.
  EXPECT_EQ(controller.stats().submitted, 2 * queries.size());
  EXPECT_EQ(controller.stats().batches_formed, first.batches + second.batches);
}

TEST(AdmissionAdaptive, MemoryPressureShrinksCapAndShardsCalmRecovers) {
  // Closed-loop self-tuning: a run whose replay-arena peak exceeds the
  // budget halves the effective batch cap (and, past the hysteresis
  // window, the shard count); calm runs grow the cap back one notch at a
  // time. Outputs stay byte-identical to solo runs throughout — adaptation
  // only changes how the stream is cut into batches.
  const std::string hot_doc = "<a><b>1</b><b>2</b></a>";   // kept text > 1 B
  const std::string calm_doc = "<a><b/><b/></a>";          // no arena use
  const std::vector<std::string> queries = {
      "<r>{ count(/a/b) }</r>",
      "<s>{ for $x in /a/b return $x }</s>",
  };
  AdmissionLimits limits;
  limits.max_batch_queries = 4;
  limits.shards = 2;
  limits.adaptive = true;
  limits.adaptive_arena_budget_bytes = 1;
  limits.adaptive_hysteresis = 1;
  QueryCache cache;
  AdmissionController controller(&cache, limits);

  auto run_against = [&](const std::string& doc) {
    controller.RegisterDocument("doc", doc);
    std::vector<std::ostringstream> outs(queries.size());
    for (size_t i = 0; i < queries.size(); ++i) {
      ASSERT_TRUE(controller.Submit(queries[i], {}, "doc", &outs[i]).ok());
    }
    auto run = controller.Run();
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    for (size_t i = 0; i < queries.size(); ++i) {
      EXPECT_EQ(outs[i].str(), SoloRun(queries[i], doc)) << i;
    }
  };

  // Effective caps start at the configured ceilings.
  EXPECT_EQ(controller.stats().adaptive_batch_cap, 4u);
  EXPECT_EQ(controller.stats().adaptive_shards, 2u);

  // Pressured run: the batch retains "1","2" in the replay arena (> 1 B
  // budget) — multiplicative decrease, and with hysteresis 1 the shard
  // count sheds in the same review.
  run_against(hot_doc);
  EXPECT_EQ(controller.stats().adaptive_batch_cap, 2u);
  EXPECT_EQ(controller.stats().adaptive_shards, 1u);
  EXPECT_EQ(controller.stats().adaptive_decreases_by_memory, 1u);
  EXPECT_EQ(controller.stats().adaptive_shard_decreases, 1u);

  // Still pressured: cap halves again; shards are already at the floor.
  run_against(hot_doc);
  EXPECT_EQ(controller.stats().adaptive_batch_cap, 1u);
  EXPECT_EQ(controller.stats().adaptive_shards, 1u);
  EXPECT_EQ(controller.stats().adaptive_decreases_by_memory, 2u);
  EXPECT_EQ(controller.stats().adaptive_shard_decreases, 1u);

  // Calm runs (no text => empty replay arena): additive increase, one
  // notch per run at hysteresis 1.
  run_against(calm_doc);
  EXPECT_EQ(controller.stats().adaptive_batch_cap, 2u);
  EXPECT_EQ(controller.stats().adaptive_increases, 1u);
  run_against(calm_doc);
  EXPECT_EQ(controller.stats().adaptive_batch_cap, 3u);
  EXPECT_EQ(controller.stats().adaptive_increases, 2u);
}

TEST(AdmissionConcurrency, ParallelSubmitsThroughOneSharedCache) {
  constexpr int kThreads = 8;
  constexpr int kPerThread = 16;
  const std::string doc = "<a><b>1</b><b>2</b></a>";
  QueryCache cache;
  AdmissionController controller(&cache);
  controller.RegisterDocument("doc", doc);

  // Each thread submits the same 4 query texts repeatedly into its own
  // output slots; the cache must end up with exactly 4 compilations.
  std::vector<std::string> queries;
  for (int k = 0; k < 4; ++k) {
    std::string tag = "q" + std::to_string(k);
    queries.push_back("<" + tag + ">{ count(/a/b) }</" + tag + ">");
  }
  std::vector<std::vector<std::ostringstream>> outs(kThreads);
  for (auto& slots : outs) slots = std::vector<std::ostringstream>(kPerThread);
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const std::string& q =
            queries[static_cast<size_t>((t + i) % 4)];
        if (!controller.Submit(q, {}, "doc", &outs[t][i]).ok()) ++failures;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  ASSERT_EQ(failures.load(), 0);
  EXPECT_EQ(cache.stats().compiles, 4u);

  auto run = controller.Run();
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run->queries, static_cast<uint64_t>(kThreads * kPerThread));
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kPerThread; ++i) {
      const std::string& q = queries[static_cast<size_t>((t + i) % 4)];
      std::string tag = q.substr(1, q.find('>') - 1);
      EXPECT_EQ(outs[t][i].str(), "<" + tag + ">2</" + tag + ">");
    }
  }
}

// --- ready-batch scheduling over stalling sources ---------------------------

/// ostream whose buffer stamps a global completion sequence number the
/// first time anything is written to it (batch results are written at
/// evaluation time, so the stamp orders batch completions).
class StampedStream : public std::ostream {
 public:
  explicit StampedStream(std::atomic<int>* counter)
      : std::ostream(&buf_), buf_(counter) {}
  std::string str() const { return buf_.str(); }
  int stamp() const { return buf_.stamp; }

 private:
  struct Buf : std::stringbuf {
    explicit Buf(std::atomic<int>* counter) : counter(counter) {}
    std::streamsize xsputn(const char* s, std::streamsize n) override {
      if (stamp < 0 && n > 0) stamp = (*counter)++;
      return std::stringbuf::xsputn(s, n);
    }
    int_type overflow(int_type c) override {
      if (stamp < 0 && c != traits_type::eof()) stamp = (*counter)++;
      return std::stringbuf::overflow(c);
    }
    std::atomic<int>* counter;
    int stamp = -1;
  };
  Buf buf_;
};

/// Registers `doc_id` as a pipe-backed async document; the returned write
/// fd is the test's to feed (the opener hands the single read end out
/// once).
int RegisterPipeDocument(AdmissionController* controller,
                         const std::string& doc_id) {
  int fds[2];
  EXPECT_EQ(::pipe(fds), 0);
  auto source = std::make_shared<std::unique_ptr<ByteSource>>(
      std::make_unique<FdSource>(fds[0]));
  controller->RegisterDocumentAsync(
      doc_id, [source]() -> Result<std::unique_ptr<ByteSource>> {
        if (*source == nullptr) {
          return IoError("pipe document supports a single batch");
        }
        return std::move(*source);
      });
  return fds[1];
}

TEST(AdmissionScheduling, ReadyGroupsFinishAheadOfAStalledOne) {
  const std::string doc = "<a><b>1</b><b>2</b></a>";
  QueryCache cache;
  AdmissionController controller(&cache);
  // The slow group is submitted FIRST: a strict first-submission order
  // would gate everything behind its stalled pipe.
  int slow_fd = RegisterPipeDocument(&controller, "slow");
  controller.RegisterDocument("fast", doc);

  std::atomic<int> sequence{0};
  StampedStream slow_out(&sequence);
  StampedStream fast1(&sequence), fast2(&sequence);
  ASSERT_TRUE(
      controller.Submit("<r>{ count(/a/b) }</r>", {}, "slow", &slow_out).ok());
  ASSERT_TRUE(
      controller.Submit("<r>{ count(/a/b) }</r>", {}, "fast", &fast1).ok());
  ASSERT_TRUE(
      controller.Submit("<s>{ sum(/a/b) }</s>", {}, "fast", &fast2).ok());

  // The writer feeds the slow document only after a long stall.
  std::thread writer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    ASSERT_EQ(::write(slow_fd, doc.data(), doc.size()),
              static_cast<ssize_t>(doc.size()));
    ::close(slow_fd);
  });
  auto run = controller.Run();
  writer.join();
  ASSERT_TRUE(run.ok()) << run.status().ToString();

  EXPECT_EQ(run->queries, 3u);
  EXPECT_GE(run->stalls, 1u);
  EXPECT_EQ(slow_out.str(), "<r>2</r>");
  EXPECT_EQ(fast1.str(), "<r>2</r>");
  EXPECT_EQ(fast2.str(), "<s>3</s>");
  // The interleaving win: both fast results were written while the slow
  // group was parked.
  ASSERT_GE(slow_out.stamp(), 0);
  ASSERT_GE(fast1.stamp(), 0);
  EXPECT_LT(fast1.stamp(), slow_out.stamp());
  EXPECT_LT(fast2.stamp(), slow_out.stamp());

  AdmissionStats stats = controller.stats();
  EXPECT_GE(stats.batches_parked, 1u);
  EXPECT_GE(stats.batch_resumes, 1u);
}

TEST(AdmissionScheduling, PollableSingletonIsParkedNotBlocking) {
  // A single query over a pipe-backed document goes through the resumable
  // path (not the blocking solo engine), so the scheduler can park it.
  QueryCache cache;
  AdmissionController controller(&cache);
  int fd = RegisterPipeDocument(&controller, "doc");
  std::ostringstream out;
  ASSERT_TRUE(controller.Submit("<r>{ count(/a/b) }</r>", {}, "doc", &out).ok());
  std::thread writer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    const std::string doc = "<a><b/><b/></a>";
    ASSERT_EQ(::write(fd, doc.data(), doc.size()),
              static_cast<ssize_t>(doc.size()));
    ::close(fd);
  });
  auto run = controller.Run();
  writer.join();
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(out.str(), "<r>2</r>");
  AdmissionStats stats = controller.stats();
  EXPECT_EQ(stats.solo_runs, 0u);  // pollable → resumable path
  EXPECT_GE(stats.batches_parked, 1u);
}

TEST(AdmissionScheduling, AsyncOpenerFailureFailsTheRunCleanly) {
  QueryCache cache;
  AdmissionController controller(&cache);
  controller.RegisterDocumentAsync(
      "doc", []() -> Result<std::unique_ptr<ByteSource>> {
        return IoError("fifo vanished");
      });
  std::ostringstream out;
  ASSERT_TRUE(controller.Submit("<r>{ count(/a) }</r>", {}, "doc", &out).ok());
  auto run = controller.Run();
  ASSERT_FALSE(run.ok());
  EXPECT_NE(run.status().message().find("fifo vanished"), std::string::npos);
  // The controller stays reusable afterwards.
  controller.RegisterDocument("ok", std::string("<a/>"));
  std::ostringstream out2;
  ASSERT_TRUE(controller.Submit("<r>{ count(/a) }</r>", {}, "ok", &out2).ok());
  ASSERT_TRUE(controller.Run().ok());
  EXPECT_EQ(out2.str(), "<r>1</r>");
}

// --- resource governance: deadline watchdog & graceful degradation -----------

TEST(AdmissionGovernance, DeadlineWatchdogReapsANeverReadyBatch) {
  // Liveness regression: a batch parked on a pipe whose writer never sends
  // a byte used to park the scheduler forever (WaitAnyReadable with no
  // deadline). With a run deadline the watchdog must reap the parked batch
  // and fail the run with the typed error, within deadline + grace.
  QueryCache cache;
  AdmissionLimits limits;
  limits.budget.deadline_ms = 250;
  AdmissionController controller(&cache, limits);
  int feed_fd = RegisterPipeDocument(&controller, "never");
  std::ostringstream out;
  ASSERT_TRUE(
      controller.Submit("<r>{ count(/a/b) }</r>", {}, "never", &out).ok());

  auto start = std::chrono::steady_clock::now();
  auto run = controller.Run();
  auto elapsed_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                        std::chrono::steady_clock::now() - start)
                        .count();
  ASSERT_FALSE(run.ok());
  EXPECT_TRUE(IsDeadlineExceeded(run.status()));
  EXPECT_EQ(run.status().ToString(),
            "DeadlineExceeded: run deadline of 250 ms exceeded");
  EXPECT_LT(elapsed_ms, 250 + 100)
      << "parked run overshot the deadline by more than the grace period";
  EXPECT_GE(controller.stats().watchdog_reaps, 1u);
  ::close(feed_fd);
}

TEST(AdmissionGovernance, ReplayTrippedBatchSplitsDownToSingletonsAndFinishes) {
  // Graceful degradation: a stored-document batch whose shared replay log
  // trips the memory budget during the pump phase (no output yet) is
  // re-formed at half size from the same cursor, bottoming out in solo
  // singleton runs that carry no replay log at all — the run completes
  // with correct output and never stalls or crashes.
  std::string doc = "<a>";
  for (int i = 0; i < 300; ++i) {
    doc += "<b><c>payload-" + std::to_string(i) + "</c></b>";
  }
  doc += "</a>";
  const std::vector<std::string> queries = {
      "<r>{ count(//c) }</r>",
      "<r>{ for $x in /a/b return $x }</r>",
      "<r>{ sum(/a/b/c) }</r>",
      "<r>{ count(/a/b) }</r>",
  };
  QueryCache cache;
  AdmissionLimits limits;
  limits.budget.max_replay_log_events = 5;  // any real batch trips this
  AdmissionController controller(&cache, limits);
  controller.RegisterDocument("doc", doc);
  std::vector<std::ostringstream> outs(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    ASSERT_TRUE(controller.Submit(queries[i], {}, "doc", &outs[i]).ok());
  }
  auto run = controller.Run();
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run->queries, queries.size());
  EXPECT_EQ(run->queries_shed, 0u);
  EXPECT_GE(controller.stats().budget_splits, 1u);
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(outs[i].str(), SoloRun(queries[i], doc)) << i;
  }
}

TEST(AdmissionGovernance, OutputCappedSingletonsAreShedWithATypedRejection) {
  // Backoff bottoming out: with singleton batches and an output budget no
  // result fits in, every query is shed with the typed rejection — the run
  // itself still completes (never a stall, never a crash) and reports the
  // first shed error.
  const std::string doc = "<a><b>payload</b><b>payload</b></a>";
  QueryCache cache;
  AdmissionLimits limits;
  limits.max_batch_queries = 1;
  limits.budget.max_output_bytes = 2;
  AdmissionController controller(&cache, limits);
  controller.RegisterDocument("doc", doc);
  std::ostringstream o1, o2;
  ASSERT_TRUE(
      controller.Submit("<r>{ for $x in /a/b return $x }</r>", {}, "doc", &o1)
          .ok());
  ASSERT_TRUE(controller.Submit("<s>{ count(/a/b) }</s>", {}, "doc", &o2).ok());
  auto run = controller.Run();
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run->queries_shed, 2u);
  ASSERT_FALSE(run->first_shed_error.ok());
  EXPECT_TRUE(IsResourceExhausted(run->first_shed_error));
  EXPECT_EQ(run->first_shed_error.ToString(),
            "ResourceExhausted: output byte budget of 2 bytes exceeded");
  EXPECT_GE(controller.stats().budget_sheds, 2u);
}

TEST(AdmissionGovernance, UnbudgetedRunsAreUnaffectedByGovernancePlumbing) {
  // A default (empty) budget must leave the admission path byte-identical
  // to the pre-governor behavior.
  const std::string doc = "<a><b>1</b><b>2</b></a>";
  QueryCache cache;
  AdmissionController controller(&cache);
  controller.RegisterDocument("doc", doc);
  std::ostringstream o1, o2;
  ASSERT_TRUE(
      controller.Submit("<r>{ for $x in /a/b return $x }</r>", {}, "doc", &o1)
          .ok());
  ASSERT_TRUE(controller.Submit("<s>{ count(/a/b) }</s>", {}, "doc", &o2).ok());
  auto run = controller.Run();
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run->queries_shed, 0u);
  EXPECT_EQ(o1.str(), SoloRun("<r>{ for $x in /a/b return $x }</r>", doc));
  EXPECT_EQ(o2.str(), SoloRun("<s>{ count(/a/b) }</s>", doc));
  EXPECT_EQ(controller.stats().budget_splits, 0u);
  EXPECT_EQ(controller.stats().budget_sheds, 0u);
  EXPECT_EQ(controller.stats().watchdog_reaps, 0u);
}

}  // namespace
}  // namespace gcx
