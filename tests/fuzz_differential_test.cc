// Randomized query fuzzing: generates random XQ queries (not just random
// documents) and differentially checks GCX against the NaiveDom oracle.
// This is the strongest empirical check of Theorem 1 in the suite — the
// query generator composes for-loops, conditions, constructors, outputs
// and aggregates in arbitrary nestings.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <functional>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/prng.h"
#include "core/engine.h"
#include "core/multi_engine.h"
#include "xq/parser.h"

namespace gcx {
namespace {

class QueryFuzzer {
 public:
  explicit QueryFuzzer(uint64_t seed) : rng_(seed) {}

  std::string Generate() {
    vars_ = {"$root"};
    depth_ = 0;
    return "<r>{ " + Expr() + " }</r>";
  }

 private:
  const char* Tag() {
    static const char* tags[] = {"a", "b", "c", "d", "p", "v"};
    return tags[rng_.Below(6)];
  }

  std::string Path(int max_steps) {
    std::string out;
    int steps = 1 + static_cast<int>(rng_.Below(static_cast<uint64_t>(max_steps)));
    for (int i = 0; i < steps; ++i) {
      if (i > 0) out += "/";
      if (rng_.Chance(250)) out += "/";  // doubles the slash: descendant
      if (i == steps - 1 && rng_.Chance(150)) {
        out += "text()";
        break;
      }
      out += rng_.Chance(150) ? "*" : Tag();
    }
    return out;
  }

  std::string VarPath(int max_steps) {
    const std::string& var = vars_[rng_.Below(vars_.size())];
    if (var == "$root") return "/" + Path(max_steps);
    return var + "/" + Path(max_steps);
  }

  std::string Operand() {
    if (rng_.Chance(400)) return std::to_string(rng_.Below(20));
    if (rng_.Chance(300)) return "\"w" + std::string(1, static_cast<char>('a' + rng_.Below(4))) + "\"";
    return VarPath(2);
  }

  std::string Cond(int budget) {
    if (budget <= 0 || rng_.Chance(350)) {
      if (rng_.Chance(500)) return "exists(" + VarPath(2) + ")";
      static const char* ops[] = {"=", "!=", "<", "<=", ">", ">="};
      return Operand() + " " + ops[rng_.Below(6)] + " " + Operand();
    }
    switch (rng_.Below(3)) {
      case 0:
        return "not(" + Cond(budget - 1) + ")";
      case 1:
        return "(" + Cond(budget - 1) + " and " + Cond(budget - 1) + ")";
      default:
        return "(" + Cond(budget - 1) + " or " + Cond(budget - 1) + ")";
    }
  }

  std::string Expr() {
    ++depth_;
    std::string out = ExprInner();
    --depth_;
    return out;
  }

  std::string ExprInner() {
    uint64_t pick = rng_.Below(depth_ > 3 ? 4u : 11u);
    switch (pick) {
      case 0:
        return "()";
      case 1:
        return VarPath(2);  // path output
      case 2:
        return rng_.Chance(500) ? "count(" + VarPath(2) + ")"
                                : "sum(" + VarPath(2) + ")";
      case 3:
        return "<" + std::string(Tag()) + "/>";
      case 4:
      case 5: {  // for-loop
        std::string var = "$v" + std::to_string(vars_.size());
        std::string source = VarPath(2);
        // text() steps cannot be iterated into sub-paths meaningfully but
        // are legal; keep them.
        vars_.push_back(var);
        std::string body = Expr();
        vars_.pop_back();
        return "for " + var + " in " + source + " return " + body;
      }
      case 6: {  // if
        std::string cond = Cond(1);
        std::string then_branch = Expr();
        std::string else_branch = rng_.Chance(500) ? Expr() : "()";
        return "if (" + cond + ") then " + then_branch + " else " +
               else_branch;
      }
      case 7: {  // constructor with content
        return "<w>{ " + Expr() + " }</w>";
      }
      case 8:
        return Join();
      default: {  // sequence
        return "(" + Expr() + ", " + Expr() + ")";
      }
    }
  }

  /// A value join between two bound variables: an outer loop, and inside
  /// it a loop over a source bound outside the outer one, filtered by
  /// `if ($inner/path = $outer/path)` — the shape the join planner
  /// indexes (analysis/join_plan.h) when the rest of the query allows it.
  std::string Join() {
    std::string inner_source = VarPath(2);  // bound outside the outer loop
    std::string outer = "$v" + std::to_string(vars_.size());
    std::string outer_source = VarPath(2);
    vars_.push_back(outer);
    std::string inner = "$v" + std::to_string(vars_.size());
    vars_.push_back(inner);
    std::string key = inner + "/" + Path(1);
    std::string probe = outer + "/" + Path(1);
    std::string cond = rng_.Chance(500) ? key + " = " + probe
                                        : probe + " = " + key;
    std::string then_branch =
        rng_.Chance(500) ? inner + "/" + Path(2) : Expr();
    vars_.pop_back();
    vars_.pop_back();
    return "for " + outer + " in " + outer_source + " return for " + inner +
           " in " + inner_source + " return if (" + cond + ") then " +
           then_branch + " else ()";
  }

  Prng rng_;
  std::vector<std::string> vars_;
  int depth_ = 0;
};

std::string RandomDocument(uint64_t seed) {
  Prng rng(seed);
  const char* tags[] = {"a", "b", "c", "d", "p", "v"};
  std::string out;
  std::function<void(int)> emit = [&](int depth) {
    const char* tag = tags[rng.Below(6)];
    out += "<";
    out += tag;
    out += ">";
    if (rng.Chance(350)) {
      // Numeric spellings that compare equal, or never equal (NaN), under
      // the `=` rule, next to plain integers for the ordering operators.
      static const char* spellings[] = {"1",   "1.0", "01",  " 1 ", "0x1",
                                        "-0",  "0",   "nan", "inf", "Infinity"};
      if (rng.Chance(500)) {
        out += std::to_string(rng.Below(20));
      } else {
        out += spellings[rng.Below(10)];
      }
    }
    if (rng.Chance(200)) {
      out += "w";
      out += static_cast<char>('a' + rng.Below(4));
    }
    if (depth < 5) {
      uint64_t children = rng.Below(4);
      for (uint64_t i = 0; i < children; ++i) emit(depth + 1);
    }
    out += "</";
    out += tag;
    out += ">";
  };
  out += "<root>";
  uint64_t top = 2 + rng.Below(4);
  for (uint64_t i = 0; i < top; ++i) emit(0);
  out += "</root>";
  return out;
}

/// The four analysis toggles as bits: 1 GC, 2 aggregate roles,
/// 4 redundant-role elimination, 8 early updates.
EngineOptions MaskOptions(int mask) {
  EngineOptions options;
  options.enable_gc = (mask & 1) != 0;
  options.aggregate_roles = (mask & 2) != 0;
  options.eliminate_redundant_roles = (mask & 4) != 0;
  options.early_updates = (mask & 8) != 0;
  return options;
}

class FuzzDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FuzzDifferentialTest, RandomQueriesMatchOracle) {
  QueryFuzzer fuzzer(GetParam());
  for (int round = 0; round < 8; ++round) {
    std::string query = fuzzer.Generate();
    auto parsed = ParseQuery(query);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString() << "\n" << query;

    std::string doc = RandomDocument(GetParam() * 131 + round);
    if (std::getenv("GCX_FUZZ_VERBOSE") != nullptr) {
      std::cerr << "QUERY: " << query << "\nDOC: " << doc << "\n";
    }

    EngineOptions naive;
    naive.mode = EngineMode::kNaiveDom;
    auto oracle = CompiledQuery::Compile(query, naive);
    ASSERT_TRUE(oracle.ok()) << oracle.status().ToString() << "\n" << query;
    Engine engine;
    std::ostringstream expected;
    auto oracle_stats = engine.Execute(*oracle, doc, &expected);
    ASSERT_TRUE(oracle_stats.ok())
        << oracle_stats.status().ToString() << "\n" << query;

    for (int mask : {0, 3, 7, 15}) {
      auto compiled = CompiledQuery::Compile(query, MaskOptions(mask));
      ASSERT_TRUE(compiled.ok())
          << compiled.status().ToString() << "\n" << query;
      std::ostringstream actual;
      auto stats = engine.Execute(*compiled, doc, &actual);
      ASSERT_TRUE(stats.ok()) << stats.status().ToString() << "\n"
                              << query << "\n" << doc;
      ASSERT_EQ(actual.str(), expected.str())
          << "mask=" << mask << "\nquery: " << query << "\ndoc: " << doc;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzDifferentialTest,
                         ::testing::Range<uint64_t>(0, 30));

// Non-vacuity for the join path: the seeds above generate queries the join
// planner indexes, so the hash join is checked against the oracle.
TEST(FuzzJoinCoverage, GeneratedQueriesReachThePlannedJoin) {
  size_t planned = 0;
  uint64_t probes = 0;
  for (uint64_t seed = 0; seed < 30; ++seed) {
    QueryFuzzer fuzzer(seed);
    for (int round = 0; round < 8; ++round) {
      auto compiled = CompiledQuery::Compile(fuzzer.Generate(), {});
      ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
      if (compiled->analyzed().join_plans.empty()) continue;
      ++planned;
      std::ostringstream out;
      auto stats =
          Engine().Execute(*compiled, RandomDocument(seed * 131 + round), &out);
      ASSERT_TRUE(stats.ok()) << stats.status().ToString();
      probes += stats->join_probes;
    }
  }
  EXPECT_GE(planned, 10u);
  EXPECT_GT(probes, 0u);  // some outer loop really ran a second time
}

// --- batched vs solo multi-query execution ----------------------------------
//
// The same seeded generator drives the multi-query engine: a random batch
// of queries over one random document, executed through one shared scan,
// must reproduce every query's solo streaming output byte-for-byte (which
// the suite above has already tied to the NaiveDom oracle).

class FuzzMultiQueryTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FuzzMultiQueryTest, BatchedExecutionMatchesSoloRuns) {
  QueryFuzzer fuzzer(GetParam() * 7919 + 17);
  for (int round = 0; round < 4; ++round) {
    const size_t batch_size = 2 + (GetParam() + round) % 4;  // 2..5 queries
    std::vector<std::string> queries;
    for (size_t i = 0; i < batch_size; ++i) queries.push_back(fuzzer.Generate());
    std::string doc = RandomDocument(GetParam() * 977 + round);
    if (std::getenv("GCX_FUZZ_VERBOSE") != nullptr) {
      for (const std::string& q : queries) std::cerr << "QUERY: " << q << "\n";
      std::cerr << "DOC: " << doc << "\n";
    }

    std::vector<CompiledQuery> compiled;
    compiled.reserve(queries.size());
    for (const std::string& q : queries) {
      auto one = CompiledQuery::Compile(q, {});
      ASSERT_TRUE(one.ok()) << one.status().ToString() << "\n" << q;
      compiled.push_back(std::move(one).value());
    }

    Engine solo;
    std::vector<std::string> solo_outputs;
    for (const CompiledQuery& query : compiled) {
      std::ostringstream out;
      auto stats = solo.Execute(query, doc, &out);
      ASSERT_TRUE(stats.ok()) << stats.status().ToString() << "\n" << doc;
      solo_outputs.push_back(out.str());
    }

    std::vector<const CompiledQuery*> batch;
    std::vector<std::ostringstream> buffers(compiled.size());
    std::vector<std::ostream*> outs;
    for (size_t i = 0; i < compiled.size(); ++i) {
      batch.push_back(&compiled[i]);
      outs.push_back(&buffers[i]);
    }
    MultiQueryEngine engine;
    auto stats = engine.Execute(batch, doc, outs);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString() << "\n" << doc;

    for (size_t i = 0; i < compiled.size(); ++i) {
      ASSERT_EQ(buffers[i].str(), solo_outputs[i])
          << "batched query " << i << " diverges\nquery: " << queries[i]
          << "\ndoc: " << doc;
    }
    // One shared pass; no query scanned privately; every query's role
    // bookkeeping balanced (GC is on in the default options).
    ASSERT_EQ(stats->shared.scan_passes, 1u);
    for (const ExecStats& q : stats->per_query) {
      ASSERT_EQ(q.scan_passes, 0u);
      ASSERT_EQ(q.live_roles_final, 0u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzMultiQueryTest,
                         ::testing::Range<uint64_t>(0, 20));

// --- sharded vs solo execution ------------------------------------------------
//
// The same generator drives ExecuteSharded with a one-byte shard floor, so
// the small fuzzed documents really split. Both sharded paths — shard-local
// evaluation behind the classifier, and merge-and-replay over the spliced
// shard logs — must reproduce every query's solo output byte-for-byte.

TEST(FuzzShardedTest, ShardedExecutionMatchesSoloRuns) {
  uint64_t runs = 0;
  uint64_t runs_sharded = 0;
  uint64_t local_queries = 0;
  for (uint64_t seed = 0; seed < 60; ++seed) {
    QueryFuzzer fuzzer(seed * 104729 + 31);
    const size_t batch_size = 1 + seed % 4;  // 1..4 queries
    std::vector<std::string> queries;
    for (size_t i = 0; i < batch_size; ++i) queries.push_back(fuzzer.Generate());
    std::string doc = RandomDocument(seed * 613 + 5);
    if (std::getenv("GCX_FUZZ_VERBOSE") != nullptr) {
      for (const std::string& q : queries) std::cerr << "QUERY: " << q << "\n";
      std::cerr << "DOC: " << doc << "\n";
    }

    for (int mask : {0, 15}) {
      std::vector<CompiledQuery> compiled;
      compiled.reserve(queries.size());
      for (const std::string& q : queries) {
        auto one = CompiledQuery::Compile(q, MaskOptions(mask));
        ASSERT_TRUE(one.ok()) << one.status().ToString() << "\n" << q;
        compiled.push_back(std::move(one).value());
      }
      Engine solo;
      std::vector<std::string> solo_outputs;
      for (const CompiledQuery& query : compiled) {
        std::ostringstream out;
        auto stats = solo.Execute(query, doc, &out);
        ASSERT_TRUE(stats.ok()) << stats.status().ToString() << "\n" << doc;
        solo_outputs.push_back(out.str());
      }
      std::vector<const CompiledQuery*> batch;
      for (const CompiledQuery& query : compiled) batch.push_back(&query);

      for (size_t shards : {size_t{2}, size_t{4}}) {
        for (bool local_eval : {true, false}) {
          ShardOptions options;
          options.shards = shards;
          options.min_shard_bytes = 1;
          options.local_eval = local_eval;
          std::vector<std::ostringstream> buffers(compiled.size());
          std::vector<std::ostream*> outs;
          for (std::ostringstream& buffer : buffers) outs.push_back(&buffer);
          MultiQueryEngine engine;
          auto stats = engine.ExecuteSharded(batch, doc, outs, options);
          ASSERT_TRUE(stats.ok()) << stats.status().ToString() << "\n" << doc;
          ++runs;
          if (stats->shared.shards > 0) ++runs_sharded;
          local_queries += stats->shared.shard_local_queries;
          for (size_t i = 0; i < compiled.size(); ++i) {
            ASSERT_EQ(buffers[i].str(), solo_outputs[i])
                << "seed=" << seed << " mask=" << mask << " shards=" << shards
                << " local_eval=" << local_eval << "\nquery: " << queries[i]
                << "\ndoc: " << doc;
          }
        }
      }
    }
  }
  // Non-vacuity: the fuzzed documents really shard, and the classifier
  // really sends some queries to the workers.
  EXPECT_GT(runs_sharded, runs / 2) << runs_sharded << " of " << runs;
  EXPECT_GT(local_queries, 0u);
}

}  // namespace
}  // namespace gcx
