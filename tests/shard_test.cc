// Sharded document execution (core/shard.h): planner unit tests, sharded
// vs unsharded differentials, and a threaded stress for the sanitizer
// jobs (concurrent sharded executions sharing nothing but the allocator).

#include "core/shard.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "core/multi_engine.h"
#include "test_sources.h"
#include "xmark/generator.h"
#include "xmark/queries.h"

namespace gcx {
namespace {

/// A flat document with `items` equal-sized children under /site/items.
std::string ItemDoc(size_t items, const std::string& filler = "xxxx") {
  std::string doc = "<site><items>";
  for (size_t i = 0; i < items; ++i) {
    doc += "<item><price>" + std::to_string(i % 97) + "</price><desc>" +
           filler + "</desc></item>";
  }
  doc += "</items></site>";
  return doc;
}

ShardOptions SmallDocOptions(size_t shards) {
  ShardOptions options;
  options.shards = shards;
  options.min_shard_bytes = 1;  // test documents are tiny
  return options;
}

/// Non-pollable source (ReadyFd() == -1) that reports `burst` consecutive
/// would-blocks before every chunk — the shape that used to make
/// ScanShard's stall wait spin on WaitReadable(-1, -1).
class BurstyWouldBlockSource : public ByteSource {
 public:
  BurstyWouldBlockSource(std::string data, size_t burst, size_t chunk)
      : data_(std::move(data)), burst_(burst), chunk_(chunk),
        stalls_left_(burst) {}
  ReadResult Read(char* buffer, size_t capacity) override {
    if (stalls_left_ > 0) {
      --stalls_left_;
      return ReadResult::WouldBlock();
    }
    stalls_left_ = burst_;
    size_t len = std::min({chunk_, capacity, data_.size() - pos_});
    if (len == 0) return ReadResult::Eof();
    std::memcpy(buffer, data_.data() + pos_, len);
    pos_ += len;
    return ReadResult::Ok(len);
  }

 private:
  std::string data_;
  size_t burst_;
  size_t chunk_;
  size_t pos_ = 0;
  size_t stalls_left_;
};

/// Reports would-block forever without ever producing a byte. A shard over
/// this source can only finish through the shared abort flag.
class StallForeverSource : public ByteSource {
 public:
  ReadResult Read(char*, size_t) override { return ReadResult::WouldBlock(); }
};

// --- planner ----------------------------------------------------------------

TEST(ShardPlanner, SplitsAtContiguousSubtreeBoundaries) {
  std::string doc = ItemDoc(200);
  ShardPlan plan = PlanShards(doc, SmallDocOptions(4));
  ASSERT_TRUE(plan.sharded);
  ASSERT_GE(plan.slices.size(), 2u);
  ASSERT_LE(plan.slices.size(), 4u);

  EXPECT_EQ(plan.slices.front().begin, 0u);
  EXPECT_EQ(plan.slices.back().end, doc.size());
  EXPECT_TRUE(plan.slices.front().entry_path.empty());
  EXPECT_TRUE(plan.slices.back().exit_path.empty());
  for (size_t i = 0; i < plan.slices.size(); ++i) {
    const ShardSlice& slice = plan.slices[i];
    EXPECT_LT(slice.begin, slice.end);
    if (i > 0) {
      // Contiguous, and the handoff paths agree.
      EXPECT_EQ(plan.slices[i - 1].end, slice.begin);
      EXPECT_EQ(plan.slices[i - 1].exit_path, slice.entry_path);
      // Boundaries sit at the '<' of an element start (any eligible
      // subtree, e.g. <item> or <price>), never mid-token or at markup.
      EXPECT_EQ(doc[slice.begin], '<');
      EXPECT_TRUE(std::isalpha(static_cast<unsigned char>(
          doc[slice.begin + 1])))
          << "boundary at offset " << slice.begin << " is not a start tag";
      ASSERT_FALSE(slice.entry_path.empty());
      EXPECT_EQ(slice.entry_path.front(), "site");
    }
  }
}

TEST(ShardPlanner, TracksDocumentLines) {
  std::string doc = "<site>\n<items>\n";
  for (size_t i = 0; i < 100; ++i) {
    doc += "<item>\n<price>1</price>\n</item>\n";
  }
  doc += "</items>\n</site>\n";
  ShardPlan plan = PlanShards(doc, SmallDocOptions(3));
  ASSERT_TRUE(plan.sharded);
  EXPECT_EQ(plan.slices.front().start_line, 1);
  for (const ShardSlice& slice : plan.slices) {
    int expected = 1 + static_cast<int>(std::count(
                           doc.begin(), doc.begin() + slice.begin, '\n'));
    EXPECT_EQ(slice.start_line, expected);
  }
}

TEST(ShardPlanner, DeclinesSmallAndUnshardableInput) {
  // Too small for the default byte floor.
  ShardOptions default_floor;
  default_floor.shards = 4;
  EXPECT_FALSE(PlanShards(ItemDoc(4), default_floor).sharded);
  // shards <= 1 disables.
  EXPECT_FALSE(PlanShards(ItemDoc(200), SmallDocOptions(1)).sharded);
  // A single root child offers no boundary inside max depth 0.
  ShardOptions no_depth = SmallDocOptions(2);
  no_depth.max_boundary_depth = 0;
  EXPECT_FALSE(PlanShards(ItemDoc(200), no_depth).sharded);
}

TEST(ShardPlanner, DeclinesStructuralAnomalies) {
  // Mismatched close, unbalanced stack, content after the root: all cases
  // where the planner must hand the document to the single scan (which
  // owns the error message).
  EXPECT_FALSE(PlanShards("<a><b></a></b>", SmallDocOptions(2)).sharded);
  EXPECT_FALSE(PlanShards("<a><b></b>", SmallDocOptions(2)).sharded);
  EXPECT_FALSE(PlanShards("<a></a><b></b>", SmallDocOptions(2)).sharded);
  EXPECT_FALSE(PlanShards("<a><!-- never closed", SmallDocOptions(2)).sharded);
}

TEST(ShardPlanner, IgnoresMarkupInsideCommentsAndCdata) {
  // Fake tags inside comments/CDATA must not corrupt the element stack.
  std::string doc = "<site><items>";
  for (size_t i = 0; i < 100; ++i) {
    doc += "<item><!-- <fake> --><d><![CDATA[</item><x>]]></d></item>";
  }
  doc += "</items></site>";
  ShardPlan plan = PlanShards(doc, SmallDocOptions(4));
  ASSERT_TRUE(plan.sharded);
  for (size_t i = 1; i < plan.slices.size(); ++i) {
    // Boundaries land at the real start tags only, never inside the
    // comment or CDATA payloads (whose fake tags would start with the
    // same '<').
    size_t begin = plan.slices[i].begin;
    EXPECT_TRUE(doc.compare(begin, 6, "<item>") == 0 ||
                doc.compare(begin, 3, "<d>") == 0)
        << "boundary at offset " << begin << ": "
        << doc.substr(begin, 12);
  }
}

TEST(ShardPlanner, RespectsMaxBoundaryDepth) {
  std::string doc = ItemDoc(200);
  ShardOptions options = SmallDocOptions(4);
  options.max_boundary_depth = 2;  // at most <item> level, never inside one
  ShardPlan plan = PlanShards(doc, options);
  ASSERT_TRUE(plan.sharded);
  for (const ShardSlice& slice : plan.slices) {
    EXPECT_LE(slice.entry_path.size(), 2u);
  }
  // Depth 1 leaves only the single <items> child eligible — no way to cut
  // after the byte targets, so the planner declines entirely.
  options.max_boundary_depth = 1;
  EXPECT_FALSE(PlanShards(doc, options).sharded);
}

TEST(ShardPlanner, KeepsSliceSizesEven) {
  // The boundary targets must not drift: `size / want * k` truncates once
  // and multiplies the loss, systematically oversizing the final slice.
  std::string doc = ItemDoc(800);
  ShardPlan plan = PlanShards(doc, SmallDocOptions(8));
  ASSERT_TRUE(plan.sharded);
  ASSERT_EQ(plan.slices.size(), 8u);
  size_t smallest = doc.size(), largest = 0;
  for (const ShardSlice& slice : plan.slices) {
    smallest = std::min(smallest, slice.end - slice.begin);
    largest = std::max(largest, slice.end - slice.begin);
  }
  EXPECT_LE(largest, smallest + smallest / 2)
      << "slice skew: " << smallest << " .. " << largest;
}

// --- sharded vs unsharded differential --------------------------------------

void ExpectShardedMatchesUnsharded(const std::string& doc,
                                   const std::string& query,
                                   const ShardOptions& shard_options,
                                   bool expect_sharded) {
  for (const NamedEngineConfig& config : StandardEngineConfigs()) {
    if (config.options.mode == EngineMode::kNaiveDom) continue;
    auto compiled = CompiledQuery::Compile(query, config.options);
    ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
    MultiQueryEngine engine;

    std::ostringstream plain;
    auto plain_stats = engine.Execute({&*compiled}, doc, {&plain});
    ASSERT_TRUE(plain_stats.ok()) << plain_stats.status().ToString();

    std::ostringstream sharded;
    auto sharded_stats =
        engine.ExecuteSharded({&*compiled}, doc, {&sharded}, shard_options);
    ASSERT_TRUE(sharded_stats.ok()) << sharded_stats.status().ToString();

    EXPECT_EQ(sharded.str(), plain.str())
        << config.name << ": sharded output diverges";

    // Merge-and-replay for every query: the spliced log replays through the
    // unsharded pipeline, so each query's buffer peak is the plain run's.
    ShardOptions replay_only = shard_options;
    replay_only.local_eval = false;
    std::ostringstream replayed;
    auto replay_stats =
        engine.ExecuteSharded({&*compiled}, doc, {&replayed}, replay_only);
    ASSERT_TRUE(replay_stats.ok()) << replay_stats.status().ToString();
    EXPECT_EQ(replayed.str(), plain.str())
        << config.name << ": merge-and-replay output diverges";

    if (expect_sharded) {
      for (const MultiQueryStats* stats : {&*sharded_stats, &*replay_stats}) {
        const SharedScanStats& shared = stats->shared;
        EXPECT_GT(shared.shards, 0u)
            << config.name << ": planner unexpectedly declined";
        EXPECT_EQ(shared.bytes_scanned, doc.size());
        EXPECT_EQ(shared.scan_passes, 1u);
        // The spliced log carries the same surviving events the single
        // shared scan forwards, and the wrappers count nowhere.
        EXPECT_EQ(shared.events_forwarded,
                  plain_stats->shared.events_forwarded);
        EXPECT_EQ(shared.events_scanned, plain_stats->shared.events_scanned);
        EXPECT_EQ(shared.events_scanned,
                  shared.events_forwarded + shared.events_shared_skipped)
            << config.name;
      }
      EXPECT_EQ(replay_stats->per_query[0].peak_bytes,
                plain_stats->per_query[0].peak_bytes)
          << config.name;
    }
  }
}

TEST(ShardedExecution, MatchesUnshardedAcrossShardCounts) {
  std::string doc = ItemDoc(500);
  std::string query =
      "<r>{ for $i in /site/items/item where $i/price = \"5\" "
      "return $i/desc }</r>";
  for (size_t shards : {size_t{2}, size_t{3}, size_t{8}}) {
    ExpectShardedMatchesUnsharded(doc, query, SmallDocOptions(shards),
                                  /*expect_sharded=*/true);
  }
}

TEST(ShardedExecution, MatchesUnshardedOnXMark) {
  std::string doc = GenerateXMark(XMarkOptions{0.2, 42});
  ExpectShardedMatchesUnsharded(doc, std::string(XMarkQ6()),
                                SmallDocOptions(4),
                                /*expect_sharded=*/true);
}

TEST(ShardedExecution, StalledShardSourcesProduceIdenticalOutput) {
  // wrap_source turns every shard's composite byte stream into a
  // would-block stall injector; workers must absorb the stalls without
  // changing a byte of output.
  std::string doc = ItemDoc(300);
  std::string query = "<c>{ count(/site/items/item) }</c>";
  ShardOptions options = SmallDocOptions(4);
  options.wrap_source = [](std::string data) {
    return std::make_unique<WouldBlockEveryNSource>(std::move(data), 7);
  };
  ExpectShardedMatchesUnsharded(doc, query, options, /*expect_sharded=*/true);
}

TEST(ShardedExecution, AbsorbsWouldBlockBurstsWithoutReadyFd) {
  // Regression: a non-pollable source reporting long would-block bursts
  // (ReadyFd() == -1) used to send the worker into WaitReadable(-1, -1) —
  // a busy spin. The bounded yield/sleep backoff must absorb the bursts
  // and still produce identical bytes.
  std::string doc = ItemDoc(300);
  std::string query = "<c>{ count(/site/items/item) }</c>";
  ShardOptions options = SmallDocOptions(4);
  options.wrap_source = [](std::string data) {
    return std::make_unique<BurstyWouldBlockSource>(std::move(data),
                                                    /*burst=*/80,
                                                    /*chunk=*/1024);
  };
  ExpectShardedMatchesUnsharded(doc, query, options, /*expect_sharded=*/true);
}

TEST(ShardedExecution, FailFastReleasesStalledShards) {
  // Shard 1 carries a scan error; a later shard stalls forever (its source
  // never produces a byte, and has no fd to poll). Without the shared
  // abort flag this run would hang; with it, the stalled shard cancels and
  // the reported error is exactly the single scan's.
  std::string doc = "<site><items>";
  for (size_t i = 0; i < 400; ++i) {
    if (i == 150) {
      doc += "<item>&bogus;</item>";
    } else if (i == 340) {
      doc += "<item>STALLMARKER</item>";
    } else {
      doc += "<item>ok</item>";
    }
  }
  doc += "</items></site>";

  auto compiled = CompiledQuery::Compile("<c>{ /site/items/item }</c>", {});
  ASSERT_TRUE(compiled.ok());
  MultiQueryEngine engine;

  std::ostringstream plain;
  auto plain_stats = engine.Execute({&*compiled}, doc, {&plain});
  ASSERT_FALSE(plain_stats.ok());

  ShardOptions options = SmallDocOptions(4);
  options.threads = 4;  // stall and failure must coexist, even on 1 core
  options.wrap_source = [](std::string data) -> std::unique_ptr<ByteSource> {
    if (data.find("STALLMARKER") != std::string::npos) {
      return std::make_unique<StallForeverSource>();
    }
    return std::make_unique<WouldBlockEveryNSource>(std::move(data), 512);
  };
  std::ostringstream sharded;
  auto sharded_stats =
      engine.ExecuteSharded({&*compiled}, doc, {&sharded}, options);
  ASSERT_FALSE(sharded_stats.ok());
  EXPECT_EQ(sharded_stats.status().ToString(),
            plain_stats.status().ToString());
}

TEST(ShardedExecution, ScanErrorsKeepDocumentAccurateLines) {
  // The entity error sits in the second half of the document: the failing
  // shard's scanner starts mid-document but must report the original line.
  std::string doc = "<site>\n<items>\n";
  for (size_t i = 0; i < 200; ++i) {
    doc += "<item>ok</item>\n";
  }
  doc += "<item>&bogus;</item>\n</items>\n</site>";
  auto compiled = CompiledQuery::Compile("<c>{ /site/items/item }</c>", {});
  ASSERT_TRUE(compiled.ok());
  MultiQueryEngine engine;

  std::ostringstream plain;
  auto plain_stats = engine.Execute({&*compiled}, doc, {&plain});
  ASSERT_FALSE(plain_stats.ok());

  std::ostringstream sharded;
  auto sharded_stats =
      engine.ExecuteSharded({&*compiled}, doc, {&sharded}, SmallDocOptions(4));
  ASSERT_FALSE(sharded_stats.ok());
  EXPECT_EQ(sharded_stats.status().ToString(),
            plain_stats.status().ToString());
}

TEST(ShardedExecution, FallsBackWhenPlannerDeclines) {
  // Tiny document under the default byte floor: same outputs, shards == 0.
  std::string doc = ItemDoc(3);
  auto compiled = CompiledQuery::Compile("<c>{ count(//item) }</c>", {});
  ASSERT_TRUE(compiled.ok());
  MultiQueryEngine engine;
  std::ostringstream plain, sharded;
  auto plain_stats = engine.Execute({&*compiled}, doc, {&plain});
  ASSERT_TRUE(plain_stats.ok());
  ShardOptions options;
  options.shards = 4;
  auto sharded_stats =
      engine.ExecuteSharded({&*compiled}, doc, {&sharded}, options);
  ASSERT_TRUE(sharded_stats.ok());
  EXPECT_EQ(sharded_stats->shared.shards, 0u);
  EXPECT_EQ(sharded.str(), plain.str());
}

TEST(ShardedExecution, MultiQueryBatchMatchesPerQueryGoldens) {
  std::string doc = ItemDoc(400);
  std::vector<std::string> queries = {
      "<c>{ count(/site/items/item) }</c>",
      "<r>{ for $i in /site/items/item where $i/price = \"3\" "
      "return $i/price }</r>",
      "<s>{ sum(/site/items/item/price) }</s>",
  };
  std::vector<CompiledQuery> compiled;
  for (const std::string& q : queries) {
    auto one = CompiledQuery::Compile(q, {});
    ASSERT_TRUE(one.ok()) << one.status().ToString();
    compiled.push_back(std::move(one).value());
  }
  std::vector<const CompiledQuery*> batch;
  std::vector<std::ostringstream> plain(queries.size()), sharded(queries.size());
  std::vector<std::ostream*> plain_outs, sharded_outs;
  for (size_t i = 0; i < compiled.size(); ++i) {
    batch.push_back(&compiled[i]);
    plain_outs.push_back(&plain[i]);
    sharded_outs.push_back(&sharded[i]);
  }
  MultiQueryEngine engine;
  auto plain_stats = engine.Execute(batch, doc, plain_outs);
  ASSERT_TRUE(plain_stats.ok()) << plain_stats.status().ToString();
  auto sharded_stats =
      engine.ExecuteSharded(batch, doc, sharded_outs, SmallDocOptions(4));
  ASSERT_TRUE(sharded_stats.ok()) << sharded_stats.status().ToString();
  EXPECT_GT(sharded_stats->shared.shards, 0u);
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(sharded[i].str(), plain[i].str()) << "query " << i;
  }
}

// --- shard-local evaluation -------------------------------------------------

TEST(ShardLocalEval, ActivatesForEligibleQueries) {
  std::string doc = ItemDoc(500);
  std::string eligible = "<c>{ count(/site/items/item) }</c>";
  // $root inside the loop body reads outside the item subtree: replay-only.
  std::string ineligible =
      "<r>{ for $i in /site/items/item return "
      "<o>{ count(/site/items/item) }</o> }</r>";
  MultiQueryEngine engine;
  for (const std::string& query : {eligible, ineligible}) {
    auto compiled = CompiledQuery::Compile(query, {});
    ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
    std::ostringstream plain;
    ASSERT_TRUE(engine.Execute({&*compiled}, doc, {&plain}).ok());

    std::ostringstream sharded;
    auto stats =
        engine.ExecuteSharded({&*compiled}, doc, {&sharded}, SmallDocOptions(4));
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_GT(stats->shared.shards, 0u);
    EXPECT_EQ(stats->shared.shard_local_queries,
              query == eligible ? 1u : 0u);
    EXPECT_EQ(sharded.str(), plain.str());

    // The seam forces merge-and-replay even for eligible queries.
    ShardOptions replay_only = SmallDocOptions(4);
    replay_only.local_eval = false;
    std::ostringstream replayed;
    auto replay_stats =
        engine.ExecuteSharded({&*compiled}, doc, {&replayed}, replay_only);
    ASSERT_TRUE(replay_stats.ok()) << replay_stats.status().ToString();
    EXPECT_EQ(replay_stats->shared.shard_local_queries, 0u);
    EXPECT_EQ(replayed.str(), plain.str());
  }
}

TEST(ShardLocalEval, MixedBatchSplitsPerQuery) {
  // Local and replay queries coexist in ONE batch over one sharded scan.
  std::string doc = ItemDoc(400);
  std::vector<std::string> queries = {
      "<c>{ count(/site/items/item) }</c>",  // local: aggregate partials
      "<r>{ for $i in /site/items/item where $i/price = \"3\" "
      "return $i/price }</r>",  // local: loop concatenation
      "<r>{ for $i in /site/items/item return "
      "<o>{ count(/site/items/item) }</o> }</r>",  // replay: reads $root
  };
  std::vector<CompiledQuery> compiled;
  for (const std::string& q : queries) {
    auto one = CompiledQuery::Compile(q, {});
    ASSERT_TRUE(one.ok()) << one.status().ToString();
    compiled.push_back(std::move(one).value());
  }
  std::vector<const CompiledQuery*> batch;
  std::vector<std::ostringstream> plain(queries.size()),
      sharded(queries.size());
  std::vector<std::ostream*> plain_outs, sharded_outs;
  for (size_t i = 0; i < compiled.size(); ++i) {
    batch.push_back(&compiled[i]);
    plain_outs.push_back(&plain[i]);
    sharded_outs.push_back(&sharded[i]);
  }
  MultiQueryEngine engine;
  auto plain_stats = engine.Execute(batch, doc, plain_outs);
  ASSERT_TRUE(plain_stats.ok()) << plain_stats.status().ToString();
  auto sharded_stats =
      engine.ExecuteSharded(batch, doc, sharded_outs, SmallDocOptions(4));
  ASSERT_TRUE(sharded_stats.ok()) << sharded_stats.status().ToString();
  EXPECT_GT(sharded_stats->shared.shards, 0u);
  EXPECT_EQ(sharded_stats->shared.shard_local_queries, 2u);
  // Forwarded-event accounting stays comparable with the plain shared scan
  // whether or not a merged log was materialized.
  EXPECT_EQ(sharded_stats->shared.events_forwarded,
            plain_stats->shared.events_forwarded);
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(sharded[i].str(), plain[i].str()) << "query " << i;
  }
}

TEST(ShardLocalEval, SumPartialsRefoldExactly) {
  // Non-numeric values poison a sum into NaN at a specific fold position;
  // the partial-merge must refold the concatenated raw values and produce
  // byte-identical output (including the poisoned case).
  std::string numeric = ItemDoc(400);
  std::string poisoned = "<site><items>";
  for (size_t i = 0; i < 400; ++i) {
    poisoned += "<item><price>" +
                (i == 250 ? std::string("abc") : std::to_string(i % 97)) +
                "</price></item>";
  }
  poisoned += "</items></site>";
  std::string query = "<s>{ sum(/site/items/item/price) }</s>";
  for (const std::string& doc : {numeric, poisoned}) {
    for (size_t shards : {size_t{2}, size_t{8}}) {
      ExpectShardedMatchesUnsharded(doc, query, SmallDocOptions(shards),
                                    /*expect_sharded=*/true);
    }
  }
  // And the partial path really is active for this query shape.
  auto compiled = CompiledQuery::Compile(query, {});
  ASSERT_TRUE(compiled.ok());
  MultiQueryEngine engine;
  std::ostringstream out;
  auto stats =
      engine.ExecuteSharded({&*compiled}, numeric, {&out}, SmallDocOptions(4));
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->shared.shard_local_queries, 1u);
}

// --- threaded stress (sanitizer fodder) -------------------------------------

TEST(ShardedExecution, ConcurrentShardedRunsAreIndependent) {
  // Several sharded executions at once: each run owns its SymbolTable and
  // worker pool, so the only shared state is the immutable document and
  // the compiled queries. The batch mixes a shard-local query (worker-side
  // evaluation) with a replay-only one so both merge paths race under
  // TSan; outputs must stay exact.
  std::string doc = ItemDoc(300);
  std::vector<std::string> queries = {
      "<c>{ count(/site/items/item) }</c>",  // shard-local
      "<r>{ for $i in /site/items/item return "
      "<o>{ count(/site/items/item) }</o> }</r>",  // merge-and-replay
  };
  std::vector<CompiledQuery> compiled;
  std::vector<const CompiledQuery*> batch;
  for (const std::string& q : queries) {
    auto one = CompiledQuery::Compile(q, {});
    ASSERT_TRUE(one.ok()) << one.status().ToString();
    compiled.push_back(std::move(one).value());
  }
  for (const CompiledQuery& q : compiled) batch.push_back(&q);

  std::vector<std::string> golden(queries.size());
  {
    std::vector<std::ostringstream> outs(queries.size());
    std::vector<std::ostream*> ptrs;
    for (auto& out : outs) ptrs.push_back(&out);
    MultiQueryEngine engine;
    ASSERT_TRUE(engine.Execute(batch, doc, ptrs).ok());
    for (size_t i = 0; i < outs.size(); ++i) golden[i] = outs[i].str();
  }

  constexpr int kRuns = 8;
  std::vector<std::vector<std::string>> outputs(kRuns);
  // char, not bool: vector<bool> packs bits, and concurrent writes to
  // different elements would be a real data race.
  std::vector<char> ok(kRuns, 0);
  {
    std::vector<std::thread> threads;
    threads.reserve(kRuns);
    for (int i = 0; i < kRuns; ++i) {
      threads.emplace_back([&, i] {
        MultiQueryEngine local;
        std::vector<std::ostringstream> outs(batch.size());
        std::vector<std::ostream*> ptrs;
        for (auto& out : outs) ptrs.push_back(&out);
        auto stats = local.ExecuteSharded(batch, doc, ptrs,
                                          SmallDocOptions(4));
        ok[i] = stats.ok() && stats->shared.shards > 0 &&
                stats->shared.shard_local_queries == 1;
        for (auto& out : outs) outputs[i].push_back(out.str());
      });
    }
    for (std::thread& t : threads) t.join();
  }
  for (int i = 0; i < kRuns; ++i) {
    EXPECT_TRUE(ok[i]) << "run " << i;
    EXPECT_EQ(outputs[i], golden) << "run " << i;
  }
}

}  // namespace
}  // namespace gcx
