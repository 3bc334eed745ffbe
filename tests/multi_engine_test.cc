// Unit tests for multi-query batched execution (src/core/multi_engine):
// batched output must be byte-identical to solo output for every query in
// the batch, the input must be scanned exactly once, the merged-DFA
// prefilter must skip subtrees no query needs, and the Sec. 3 safety
// requirements must hold per batched query.

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/merged_projection.h"
#include "core/engine.h"
#include "core/multi_engine.h"
#include "projection/merged_dfa.h"
#include "test_sources.h"
#include "xmark/generator.h"
#include "xmark/queries.h"

namespace gcx {
namespace {

struct Batch {
  std::vector<CompiledQuery> compiled;
  std::vector<const CompiledQuery*> pointers;
};

Batch CompileBatch(const std::vector<std::string>& queries,
                   const EngineOptions& options = {}) {
  Batch batch;
  batch.compiled.reserve(queries.size());
  for (const std::string& text : queries) {
    auto compiled = CompiledQuery::Compile(text, options);
    GCX_CHECK(compiled.ok());
    batch.compiled.push_back(std::move(compiled).value());
  }
  for (const CompiledQuery& query : batch.compiled) {
    batch.pointers.push_back(&query);
  }
  return batch;
}

std::string SoloOutput(const CompiledQuery& query, const std::string& doc) {
  Engine engine;
  std::ostringstream out;
  auto stats = engine.Execute(query, doc, &out);
  GCX_CHECK(stats.ok());
  return out.str();
}

/// Runs the batch and checks every query's output against its solo run.
MultiQueryStats RunAndCompare(const Batch& batch, const std::string& doc) {
  std::vector<std::ostringstream> streams(batch.pointers.size());
  std::vector<std::ostream*> outs;
  for (std::ostringstream& s : streams) outs.push_back(&s);
  MultiQueryEngine engine;
  auto stats = engine.Execute(batch.pointers, doc, outs);
  GCX_CHECK(stats.ok());
  for (size_t i = 0; i < batch.pointers.size(); ++i) {
    EXPECT_EQ(streams[i].str(), SoloOutput(*batch.pointers[i], doc))
        << "query " << i << " diverges from its solo run";
  }
  return std::move(stats).value();
}

const char kDoc[] =
    "<site>"
    "<people><person><name>alice</name><age>7</age></person>"
    "<person><name>bob</name><age>9</age></person></people>"
    "<items><item><price>3</price></item><item><price>5</price></item>"
    "</items>"
    "<noise><blob>xxxxxxxx</blob><blob>yyyyyyyy</blob></noise>"
    "</site>";

TEST(MultiEngine, BatchMatchesSoloOutputs) {
  Batch batch = CompileBatch({
      "<r>{ for $p in /site/people/person return $p/name }</r>",
      "<r>{ count(/site/items/item) }</r>",
      "<r>{ sum(/site/items/item/price) }</r>",
      "<r>{ for $p in /site/people/person return "
      "if ($p/age > 8) then $p/name else () }</r>",
  });
  MultiQueryStats stats = RunAndCompare(batch, kDoc);
  ASSERT_EQ(stats.per_query.size(), 4u);

  // One shared pass over the raw input; no query paid a private pass.
  EXPECT_EQ(stats.shared.scan_passes, 1u);
  EXPECT_EQ(stats.shared.bytes_scanned, std::string(kDoc).size());
  for (const ExecStats& q : stats.per_query) {
    EXPECT_EQ(q.scan_passes, 0u);
  }

  // Sec. 3 safety requirements per batched query (GC is on by default).
  for (const ExecStats& q : stats.per_query) {
    EXPECT_EQ(q.live_roles_final, 0u);
    EXPECT_EQ(q.buffer.roles_assigned, q.buffer.roles_removed);
  }
}

TEST(MultiEngine, ReusedEngineReportsPerRunStats) {
  // SharedScanStats/MultiQueryStats are per-Execute returns: a second
  // Execute on the same engine must report the run from zero rather than
  // accumulate the first run's counters.
  Batch batch = CompileBatch({
      "<r>{ count(/site/items/item) }</r>",
      "<r>{ for $p in /site/people/person return $p/name }</r>",
  });
  MultiQueryEngine engine;
  auto run_once = [&]() -> MultiQueryStats {
    std::vector<std::ostringstream> streams(batch.pointers.size());
    std::vector<std::ostream*> outs;
    for (std::ostringstream& s : streams) outs.push_back(&s);
    auto stats = engine.Execute(batch.pointers, kDoc, outs);
    GCX_CHECK(stats.ok());
    for (size_t i = 0; i < batch.pointers.size(); ++i) {
      EXPECT_EQ(streams[i].str(), SoloOutput(*batch.pointers[i], kDoc)) << i;
    }
    return std::move(stats).value();
  };
  MultiQueryStats first = run_once();
  MultiQueryStats second = run_once();
  EXPECT_EQ(second.shared.scan_passes, 1u);
  EXPECT_EQ(second.shared.scan_passes, first.shared.scan_passes);
  EXPECT_EQ(second.shared.bytes_scanned, first.shared.bytes_scanned);
  EXPECT_EQ(second.shared.events_scanned, first.shared.events_scanned);
  EXPECT_EQ(second.shared.events_forwarded, first.shared.events_forwarded);
  EXPECT_EQ(second.shared.events_demuxed, first.shared.events_demuxed);
  EXPECT_EQ(second.shared.replay_log_peak, first.shared.replay_log_peak);
  ASSERT_EQ(second.per_query.size(), first.per_query.size());
  for (size_t i = 0; i < second.per_query.size(); ++i) {
    EXPECT_EQ(second.per_query[i].events_delivered,
              first.per_query[i].events_delivered)
        << i;
    EXPECT_EQ(second.per_query[i].output_bytes, first.per_query[i].output_bytes)
        << i;
  }
}

TEST(MultiEngine, PrefilterSkipsSubtreesNoQueryNeeds) {
  Batch batch = CompileBatch({
      "<r>{ for $p in /site/people/person return $p/name }</r>",
      "<r>{ count(/site/items/item) }</r>",
  });
  MultiQueryStats stats = RunAndCompare(batch, kDoc);
  // The <noise> subtree matches neither projection: the merged DFA must
  // drop it before it reaches any per-query projector.
  EXPECT_GE(stats.shared.shared_subtrees_skipped, 1u);
  EXPECT_GT(stats.shared.events_shared_skipped, 0u);
  EXPECT_EQ(stats.shared.events_scanned,
            stats.shared.events_forwarded + stats.shared.events_shared_skipped);
  // Every query sees only forwarded events.
  for (const ExecStats& q : stats.per_query) {
    EXPECT_LE(q.events_delivered, stats.shared.events_forwarded);
  }
}

TEST(MultiEngine, SingleQueryBatchMatchesSolo) {
  Batch batch =
      CompileBatch({"<r>{ for $i in /site/items/item return $i/price }</r>"});
  MultiQueryStats stats = RunAndCompare(batch, kDoc);
  EXPECT_EQ(stats.shared.scan_passes, 1u);
}

TEST(MultiEngine, DuplicateQueriesProduceIdenticalOutputs) {
  Batch batch = CompileBatch({
      "<r>{ sum(/site/items/item/price) }</r>",
      "<r>{ sum(/site/items/item/price) }</r>",
      "<r>{ sum(/site/items/item/price) }</r>",
  });
  RunAndCompare(batch, kDoc);
}

TEST(MultiEngine, AllStandardConfigsMatchSolo) {
  const std::vector<std::string> queries = {
      "<r>{ for $p in /site/people/person return $p/name }</r>",
      "<r>{ count(/site/items/item) }</r>",
      "<r>{ $root }</r>",
  };
  for (const NamedEngineConfig& config : StandardEngineConfigs()) {
    Batch batch = CompileBatch(queries, config.options);
    MultiQueryStats stats = RunAndCompare(batch, kDoc);
    EXPECT_EQ(stats.shared.scan_passes, 1u) << config.name;
  }
}

TEST(MultiEngine, WholeDocumentQueryDisablesSharedSkipping) {
  // {$root} keeps everything via an aggregate role on the root: nothing may
  // be skipped, and the other query must still see its data.
  Batch batch = CompileBatch({
      "<r>{ $root }</r>",
      "<r>{ count(/site/noise/blob) }</r>",
  });
  MultiQueryStats stats = RunAndCompare(batch, kDoc);
  EXPECT_EQ(stats.shared.shared_subtrees_skipped, 0u);
}

TEST(MultiEngine, MixedModeBatchIsRejected) {
  auto streaming = CompiledQuery::Compile("<r>{ count(/a/b) }</r>", {});
  EngineOptions dom;
  dom.mode = EngineMode::kNaiveDom;
  auto naive = CompiledQuery::Compile("<r>{ count(/a/b) }</r>", dom);
  ASSERT_TRUE(streaming.ok() && naive.ok());
  std::ostringstream o1, o2;
  MultiQueryEngine engine;
  auto stats = engine.Execute({&*streaming, &*naive}, "<a><b/></a>",
                              {&o1, &o2});
  EXPECT_FALSE(stats.ok());
}

TEST(MultiEngine, EmptyBatchIsRejected) {
  MultiQueryEngine engine;
  auto stats = engine.Execute({}, "<a/>", {});
  EXPECT_FALSE(stats.ok());
}

TEST(MultiEngine, MalformedInputFailsTheBatch) {
  Batch batch = CompileBatch({
      "<r>{ count(/a/b) }</r>",
      "<r>{ for $x in /a/b return $x }</r>",
  });
  std::ostringstream o1, o2;
  MultiQueryEngine engine;
  auto stats = engine.Execute(batch.pointers, "<a><b></a>", {&o1, &o2});
  EXPECT_FALSE(stats.ok());
}

TEST(MultiQueryRun, SoloRunMatchesTheSoloEngineBufferPeak) {
  // A one-query batch routed through MultiQueryRun (how the admission
  // scheduler executes a pollable singleton) must buffer exactly what the
  // solo engine buffers: the evaluator pulls lazily from the replay log, so
  // signOff GC keeps the buffer at one item however long the document is.
  // The replay log itself retains the union-projected stream until the
  // evaluator runs; that cost is charged to the replay ledgers.
  std::string doc = "<site><items>";
  for (int i = 0; i < 8000; ++i) {
    doc += "<item><price>5</price><desc>";
    doc.append(64, 'x');
    doc += "</desc></item>";
  }
  doc += "</items></site>";

  Batch batch =
      CompileBatch({"<r>{ for $i in /site/items/item return $i/desc }</r>"});
  Engine solo;
  std::ostringstream expected;
  auto solo_stats = solo.Execute(*batch.pointers.front(), doc, &expected);
  ASSERT_TRUE(solo_stats.ok());

  for (size_t stall_every : {size_t{0}, size_t{4096}}) {
    std::unique_ptr<ByteSource> source;
    if (stall_every == 0) {
      source = std::make_unique<StringSource>(doc);
    } else {
      source = std::make_unique<WouldBlockEveryNSource>(doc, stall_every);
    }
    std::ostringstream out;
    MultiQueryRun run(batch.pointers, std::move(source), {&out});
    while (true) {
      MultiQueryRun::State state = run.Step();
      if (state == MultiQueryRun::State::kDone) break;
      ASSERT_NE(state, MultiQueryRun::State::kFailed) << run.status().message();
      // kStalled: the stall source is ready again on the very next read.
    }
    auto stats = run.TakeStats();
    ASSERT_TRUE(stats.ok());
    EXPECT_EQ(out.str(), expected.str());
    ASSERT_EQ(stats->per_query.size(), 1u);
    EXPECT_EQ(stats->per_query[0].peak_bytes, solo_stats->peak_bytes)
        << "stall_every=" << stall_every;
    EXPECT_EQ(stats->per_query[0].live_roles_final, 0u);
  }
}

TEST(MultiQueryRun, OneQueryBatchReportsTheSoloEngineStats) {
  // The solo engine and a batch evaluate each query through the same
  // routine, so a one-query batch must report what the solo run reports for
  // everything that routine measures. Input-side counters are excluded: the
  // batch's projector only sees the events its merged-DFA prefilter
  // forwards, and the batch's one scan is accounted in MultiQueryStats.
  const std::string doc = GenerateXMark(XMarkOptions{0.05, 7});
  for (const NamedEngineConfig& config : StandardEngineConfigs()) {
    if (config.options.mode == EngineMode::kNaiveDom) continue;
    for (const NamedQuery& query : AllXMarkQueries()) {
      SCOPED_TRACE(std::string(config.name) + " " + query.name);
      Batch batch = CompileBatch({std::string(query.text)}, config.options);
      std::ostringstream solo_out;
      auto solo = Engine().Execute(*batch.pointers[0], doc, &solo_out);
      ASSERT_TRUE(solo.ok());
      std::ostringstream batch_out;
      auto batched =
          MultiQueryEngine().Execute(batch.pointers, doc, {&batch_out});
      ASSERT_TRUE(batched.ok());
      EXPECT_EQ(batch_out.str(), solo_out.str());
      const ExecStats& a = *solo;
      const ExecStats& b = batched->per_query[0];
      EXPECT_EQ(a.peak_bytes, b.peak_bytes);
      EXPECT_EQ(a.output_bytes, b.output_bytes);
      EXPECT_EQ(a.buffer.nodes_current, b.buffer.nodes_current);
      EXPECT_EQ(a.buffer.nodes_peak, b.buffer.nodes_peak);
      EXPECT_EQ(a.buffer.bytes_current, b.buffer.bytes_current);
      EXPECT_EQ(a.buffer.bytes_peak, b.buffer.bytes_peak);
      EXPECT_EQ(a.buffer.nodes_created, b.buffer.nodes_created);
      EXPECT_EQ(a.buffer.nodes_purged, b.buffer.nodes_purged);
      EXPECT_EQ(a.buffer.roles_assigned, b.buffer.roles_assigned);
      EXPECT_EQ(a.buffer.roles_removed, b.buffer.roles_removed);
      EXPECT_EQ(a.buffer.gc_runs, b.buffer.gc_runs);
      EXPECT_EQ(a.buffer.gc_nodes_visited, b.buffer.gc_nodes_visited);
      EXPECT_EQ(a.buffer.text_arena_peak_bytes, b.buffer.text_arena_peak_bytes);
      EXPECT_EQ(a.buffer.text_arena_reserved_bytes,
                b.buffer.text_arena_reserved_bytes);
      EXPECT_EQ(a.live_roles_final, b.live_roles_final);
      EXPECT_EQ(a.buffer_nodes_final, b.buffer_nodes_final);
      EXPECT_EQ(a.conditions_evaluated, b.conditions_evaluated);
      EXPECT_EQ(a.join_index_rows, b.join_index_rows);
      EXPECT_EQ(a.join_probes, b.join_probes);
      EXPECT_EQ(a.join_index_peak_bytes, b.join_index_peak_bytes);
      // The solo run owns a scan pass; the batched query does not.
      EXPECT_EQ(a.scan_passes, 1u);
      EXPECT_EQ(b.scan_passes, 0u);
    }
  }
}

TEST(MergedProjection, SummarizesSharedAndPrivatePaths) {
  Batch batch = CompileBatch({
      "<r>{ for $p in /site/people/person return $p/name }</r>",
      "<r>{ for $p in /site/people/person return $p/age }</r>",
  });
  std::vector<const ProjectionTree*> trees;
  for (const CompiledQuery* q : batch.pointers) {
    trees.push_back(&q->analyzed().projection);
  }
  MergedProjectionStats stats = SummarizeMergedProjection(trees);
  // site/people/person prefix chains are shared; name vs age tails differ.
  EXPECT_GT(stats.shared_paths, 0u);
  EXPECT_GT(stats.private_paths, 0u);
  EXPECT_EQ(stats.union_paths, stats.shared_paths + stats.private_paths);
  ASSERT_EQ(stats.per_query_paths.size(), 2u);
  EXPECT_GT(stats.SharedFraction(), 0.0);
}

TEST(MergedDfa, ProductStatesCombinePerQueryDfas) {
  Batch batch = CompileBatch({
      "<r>{ count(/a/b) }</r>",
      "<r>{ count(/a/c) }</r>",
  });
  std::vector<MergedDfaInput> inputs;
  for (const CompiledQuery* q : batch.pointers) {
    inputs.push_back({&q->analyzed().projection, &q->analyzed().roles});
  }
  SymbolTable tags;
  MergedDfa dfa(inputs, &tags);
  ASSERT_EQ(dfa.num_queries(), 2u);
  MergedDfa::State* a = dfa.Transition(dfa.initial(), tags.Intern("a"));
  ASSERT_EQ(a->parts.size(), 2u);
  EXPECT_FALSE(a->skippable);
  // Under <a>, <z> is dead for both queries; <b> is alive for the first.
  MergedDfa::State* z = dfa.Transition(a, tags.Intern("z"));
  EXPECT_TRUE(z->skippable);
  MergedDfa::State* b = dfa.Transition(a, tags.Intern("b"));
  EXPECT_FALSE(b->skippable);
  // Memoization: the same transition yields the same state object.
  EXPECT_EQ(dfa.Transition(dfa.initial(), tags.Intern("a")), a);
  EXPECT_GE(dfa.num_states(), 3u);
}

}  // namespace
}  // namespace gcx
