// Hash-indexed value joins (analysis/join_plan.h, eval/evaluator.cc): which
// loop chains the planner indexes, and what indexing changes at run time.
// Output, input pulls and buffer peaks must not move; the conditions and
// GC runs of the per-outer-binding re-scans disappear, which turns XMark
// Q8 from quadratic into linear work.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "analysis/analyzer.h"
#include "common/prng.h"
#include "core/engine.h"
#include "core/multi_engine.h"
#include "eval/evaluator.h"
#include "eval/exec_context.h"
#include "xmark/generator.h"
#include "xmark/queries.h"
#include "xml/fd_source.h"
#include "xml/writer.h"
#include "xq/normalize.h"
#include "xq/parser.h"

namespace gcx {
namespace {

size_t PlanCount(std::string_view query, const EngineOptions& options = {}) {
  auto compiled = CompiledQuery::Compile(query, options);
  EXPECT_TRUE(compiled.ok()) << compiled.status().ToString() << "\n" << query;
  return compiled.ok() ? compiled->analyzed().join_plans.size() : 0;
}

TEST(JoinPlanner, PlansXMarkQ8AndNoOtherXMarkQuery) {
  for (const NamedQuery& q : AllXMarkQueries()) {
    EXPECT_EQ(PlanCount(q.text), std::string_view(q.name) == "Q8" ? 1u : 0u)
        << q.name;
  }
  auto compiled = CompiledQuery::Compile(XMarkQ8());
  ASSERT_TRUE(compiled.ok());
  const AnalyzedQuery& analyzed = compiled->analyzed();
  const JoinPlan& plan = analyzed.join_plans.front();
  const std::vector<std::string>& names = analyzed.query.var_names;
  // site → closed_auctions → closed_auction ($t) → itemref, below $root.
  EXPECT_EQ(plan.scope, kRootVar);
  ASSERT_EQ(plan.chain.size(), 4u);
  EXPECT_EQ(plan.head, plan.chain.front());
  EXPECT_EQ(names[static_cast<size_t>(plan.chain[2]->loop_var)], "$t");
  EXPECT_EQ(names[static_cast<size_t>(plan.key->var)], "$t");
  EXPECT_EQ(plan.key->path.ToString(), "buyer/person");
  EXPECT_EQ(names[static_cast<size_t>(plan.probe->var)], "$p");
  EXPECT_EQ(plan.probe->path.ToString(), "id");
  EXPECT_NE(compiled->Explain().find("== join plans ==\nhash join "
                                     "$t/buyer/person = $p/id"),
            std::string::npos)
      << compiled->Explain();
}

TEST(JoinPlanner, PlansQ8UnderEveryAnalysisToggle) {
  for (int mask = 0; mask < 16; ++mask) {
    EngineOptions options;
    options.enable_gc = (mask & 1) != 0;
    options.aggregate_roles = (mask & 2) != 0;
    options.eliminate_redundant_roles = (mask & 4) != 0;
    options.early_updates = (mask & 8) != 0;
    EXPECT_EQ(PlanCount(XMarkQ8(), options), 1u) << "mask " << mask;
  }
}

TEST(JoinPlanner, DeclinesShapesTheIndexCannotAnswer) {
  struct Shape {
    const char* why;
    const char* query;
  };
  const Shape shapes[] = {
      {"output between the loop and the if",
       "<r>{ for $p in /d/p return for $t in /d/t return "
       "($t/v, if ($t/k = $p/k) then $t/v else ()) }</r>"},
      {"non-empty else branch",
       "<r>{ for $p in /d/p return for $t in /d/t return "
       "if ($t/k = $p/k) then $t/v else <miss/> }</r>"},
      {"not an equality",
       "<r>{ for $p in /d/p return for $t in /d/t return "
       "if ($t/k < $p/k) then $t/v else () }</r>"},
      {"compound condition",
       "<r>{ for $p in /d/p return for $t in /d/t return "
       "if ($t/k = $p/k and exists($t/v)) then $t/v else () }</r>"},
      {"literal operand",
       "<r>{ for $p in /d/p return for $t in /d/t return "
       "if ($t/k = \"1\") then $t/v else () }</r>"},
      {"both operands read the chain",
       "<r>{ for $p in /d/p return for $t in /d/t return "
       "if ($t/k = $t/v) then $t/v else () }</r>"},
      {"both operands read outer variables",
       "<r>{ for $p in /d/p return for $t in /d/t return "
       "if ($p/k = $p/v) then $t/v else () }</r>"},
      {"no loop encloses the chain",
       "<r>{ for $t in /d/t return if ($t/k = $t/v) then $t/v else () }</r>"},
      {"the chain's scope is the innermost enclosing loop",
       "<r>{ for $p in /d/p return for $t in $p/t return "
       "if ($t/k = $p/k) then $t/v else () }</r>"},
      {"a constructor in E splits the if (rule NC)",
       "<r>{ for $p in /d/p return for $t in /d/t return "
       "if ($t/k = $p/k) then <hit>{ $t/v }</hit> else () }</r>"},
  };
  for (const Shape& shape : shapes) {
    EXPECT_EQ(PlanCount(shape.query), 0u) << shape.why;
  }
  // The positive control of the shapes above.
  EXPECT_EQ(PlanCount("<r>{ for $p in /d/p return for $t in /d/t return "
                      "if ($t/k = $p/k) then $t/v else () }</r>"),
            1u);
}

/// Analysis exactly as CompiledQuery::Compile runs it with default options.
AnalyzedQuery AnalyzeDefault(std::string_view text) {
  auto parsed = ParseQuery(text);
  GCX_CHECK(parsed.ok());
  Query query = std::move(parsed).value();
  GCX_CHECK(Normalize(&query, NormalizeOptions{}).ok());
  auto analyzed = Analyze(std::move(query));
  GCX_CHECK(analyzed.ok());
  return std::move(analyzed).value();
}

/// A solo streaming pipeline that counts the evaluator's input pulls.
class CountingContext final : public ExecContext {
 public:
  CountingContext(const AnalyzedQuery& query, std::string_view doc)
      : inner_(&query.projection, &query.roles,
               std::make_unique<StringSource>(doc), ScannerOptions{}) {}
  BufferTree& buffer() override { return inner_.buffer(); }
  SymbolTable& tags() override { return inner_.tags(); }
  Result<bool> Pull() override {
    ++pulls_;
    return inner_.Pull();
  }
  uint64_t pulls() const { return pulls_; }

 private:
  StreamExecContext inner_;
  uint64_t pulls_ = 0;
};

struct EvalRun {
  std::string output;
  uint64_t pulls = 0;
  BufferStats buffer;
  uint64_t live_roles = 0;
  EvalStats eval;
};

EvalRun RunEvaluator(const AnalyzedQuery& query, std::string_view doc) {
  EvalRun run;
  std::ostringstream out;
  CountingContext ctx(query, doc);
  {
    XmlWriter writer(&out);
    Evaluator evaluator(&query, &ctx, &writer);
    Status status = evaluator.Run();
    EXPECT_TRUE(status.ok()) << status.ToString();
    writer.Flush();
    run.eval = evaluator.stats();
  }
  run.output = out.str();
  run.pulls = ctx.pulls();
  run.buffer = ctx.buffer().stats();
  run.live_roles = ctx.buffer().live_role_instances();
  return run;
}

TEST(JoinRuntime, IndexChangesOnlyTheRescanWork) {
  const std::string doc = GenerateXMark(XMarkOptions{0.5, 7});
  AnalyzedQuery planned = AnalyzeDefault(XMarkQ8());
  AnalyzedQuery nested = AnalyzeDefault(XMarkQ8());
  ASSERT_EQ(planned.join_plans.size(), 1u);
  nested.join_plans.clear();

  EvalRun with = RunEvaluator(planned, doc);
  EvalRun without = RunEvaluator(nested, doc);
  EXPECT_EQ(with.output, without.output);
  EXPECT_EQ(with.pulls, without.pulls);
  EXPECT_EQ(with.buffer.bytes_peak, without.buffer.bytes_peak);
  EXPECT_EQ(with.buffer.nodes_peak, without.buffer.nodes_peak);
  EXPECT_EQ(with.buffer.nodes_created, without.buffer.nodes_created);
  EXPECT_EQ(with.buffer.roles_assigned, without.buffer.roles_assigned);
  EXPECT_EQ(with.live_roles, 0u);
  EXPECT_EQ(without.live_roles, 0u);
  EXPECT_EQ(with.buffer.nodes_current, 1u);

  const uint64_t people = ShapeForFactor(0.5).people;
  EXPECT_EQ(with.eval.join_probes, people - 1);  // all but the first person
  EXPECT_GT(with.eval.join_index_rows, 0u);
  EXPECT_GT(with.eval.join_index_peak_bytes, 0u);
  // The first pass evaluates one condition per row; the probes none.
  EXPECT_EQ(with.eval.conditions, with.eval.join_index_rows);
  EXPECT_EQ(without.eval.conditions, people * with.eval.join_index_rows);
  EXPECT_LT(with.buffer.gc_runs * 10, without.buffer.gc_runs);
  EXPECT_EQ(without.eval.join_probes, 0u);
}

/// Q8 through one execution path; checks the Sec. 3 safety requirements
/// and returns the per-query stats.
ExecStats RunQ8(const CompiledQuery& q8, const std::string& doc,
                const std::string& path, std::string* output) {
  std::vector<const CompiledQuery*> batch = {&q8};
  std::ostringstream out;
  std::vector<std::ostream*> outs = {&out};
  ExecStats stats;
  if (path == "solo") {
    auto result = Engine().Execute(q8, doc, &out);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    if (result.ok()) stats = *result;
  } else if (path == "batch") {
    auto result = MultiQueryEngine().Execute(batch, doc, outs);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    if (result.ok()) stats = result->per_query[0];
  } else if (path == "resumable") {
    MultiQueryRun run(batch, std::make_unique<StringSource>(doc), outs);
    while (run.Step() == MultiQueryRun::State::kRunnable) {
    }
    EXPECT_EQ(run.state(), MultiQueryRun::State::kDone)
        << run.status().ToString();
    auto result = run.TakeStats();
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    if (result.ok()) stats = result->per_query[0];
  } else {
    ShardOptions options;
    options.shards = 4;
    options.min_shard_bytes = 1;
    auto result = MultiQueryEngine().ExecuteSharded(batch, doc, outs, options);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    if (result.ok()) stats = result->per_query[0];
  }
  EXPECT_EQ(stats.live_roles_final, 0u) << path;
  EXPECT_EQ(stats.buffer_nodes_final, 1u) << path;
  *output = out.str();
  return stats;
}

// The guard against the plan silently not firing: the nested loop gives
// the same output, so only the work counts tell the two apart. Without the
// index, conditions and GC runs grow 4x per doubling (264k → 1.05M → 4.17M
// GC runs across factors 1/2/4).
TEST(JoinRuntime, XMarkQ8WorkGrowsLinearlyOnEveryPath) {
  auto q8 = CompiledQuery::Compile(XMarkQ8());
  ASSERT_TRUE(q8.ok());
  const char* paths[] = {"solo", "batch", "resumable", "sharded"};
  for (const char* path : paths) {
    std::vector<ExecStats> runs;
    std::string reference;
    for (double factor : {1.0, 2.0, 4.0}) {
      const std::string doc = GenerateXMark(XMarkOptions{factor, 42});
      std::string output;
      runs.push_back(RunQ8(*q8, doc, path, &output));
      if (factor == 1.0) reference = output;
    }
    for (size_t i = 1; i < runs.size(); ++i) {
      const ExecStats& small = runs[i - 1];
      const ExecStats& large = runs[i];
      ASSERT_GT(small.buffer.gc_runs, 0u) << path;
      EXPECT_LE(static_cast<double>(large.buffer.gc_runs),
                2.3 * static_cast<double>(small.buffer.gc_runs))
          << path << " doubling " << i;
      if (std::string(path) == "sharded") continue;
      ASSERT_GT(small.conditions_evaluated, 0u) << path;
      EXPECT_LE(static_cast<double>(large.conditions_evaluated),
                2.3 * static_cast<double>(small.conditions_evaluated))
          << path << " doubling " << i;
      EXPECT_GT(large.join_probes, 0u) << path;
    }
  }
}

TEST(JoinRuntime, Q8MatchesTheOracleOnEveryPath) {
  const std::string doc = GenerateXMark(XMarkOptions{1.0, 3});
  EngineOptions dom;
  dom.mode = EngineMode::kNaiveDom;
  auto oracle_query = CompiledQuery::Compile(XMarkQ8(), dom);
  ASSERT_TRUE(oracle_query.ok());
  std::ostringstream expected;
  ASSERT_TRUE(Engine().Execute(*oracle_query, doc, &expected).ok());
  auto q8 = CompiledQuery::Compile(XMarkQ8());
  ASSERT_TRUE(q8.ok());
  for (const char* path : {"solo", "batch", "resumable", "sharded"}) {
    std::string output;
    RunQ8(*q8, doc, path, &output);
    EXPECT_EQ(output, expected.str()) << path;
  }
}

// An index lives for one binding of its scope variable. Here the scope is
// $g, re-bound inside an outer $z loop; freed group nodes are recycled by
// the buffer's node pool, so an index that outlived its binding would be
// probed against a different group at the same address.
TEST(JoinRuntime, ScopedIndexesNeverOutliveTheirBinding) {
  const char* queries[] = {
      "<r>{ for $z in /d/z return for $g in $z/g return "
      "for $p in /d/ps/p return <m>{ for $t in $g/t return "
      "if ($t/k = $p/k) then $t/v else () }</m> }</r>",
      "<r>{ for $z in /d/z return for $g in $z/g return "
      "for $p in $g/p return <m>{ for $t in $g/t return "
      "if ($p/k = $t/k) then $t/v else () }</m> }</r>",
  };
  Prng rng(11);
  std::string doc = "<d><ps>";
  for (int i = 0; i < 6; ++i) {
    doc += "<p><k>" + std::to_string(rng.Below(5)) + "</k></p>";
  }
  doc += "</ps>";
  for (int z = 0; z < 40; ++z) {
    doc += "<z>";
    for (uint64_t g = 0, groups = 1 + rng.Below(3); g < groups; ++g) {
      doc += "<g>";
      for (uint64_t i = 0, n = rng.Below(4); i < n; ++i) {
        doc += "<p><k>" + std::to_string(rng.Below(5)) + "</k></p>";
      }
      for (uint64_t i = 0, n = rng.Below(4); i < n; ++i) {
        doc += "<t><k>" + std::to_string(rng.Below(5)) + "</k><v>" +
               std::to_string(z) + "." + std::to_string(g) + "." +
               std::to_string(i) + "</v></t>";
      }
      doc += "</g>";
    }
    doc += "</z>";
  }
  doc += "</d>";
  for (const char* query : queries) {
    EngineOptions dom;
    dom.mode = EngineMode::kNaiveDom;
    auto oracle_query = CompiledQuery::Compile(query, dom);
    ASSERT_TRUE(oracle_query.ok());
    std::ostringstream expected;
    ASSERT_TRUE(Engine().Execute(*oracle_query, doc, &expected).ok());
    for (const NamedEngineConfig& config : StandardEngineConfigs()) {
      if (config.options.mode == EngineMode::kNaiveDom) continue;
      auto compiled = CompiledQuery::Compile(query, config.options);
      ASSERT_TRUE(compiled.ok());
      ASSERT_EQ(compiled->analyzed().join_plans.size(), 1u) << query;
      std::ostringstream out;
      auto stats = Engine().Execute(*compiled, doc, &out);
      ASSERT_TRUE(stats.ok()) << stats.status().ToString();
      EXPECT_EQ(out.str(), expected.str()) << config.name << "\n" << query;
      EXPECT_GT(stats->join_probes, 0u) << config.name;
    }
  }
}

}  // namespace
}  // namespace gcx
