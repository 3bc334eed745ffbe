// Tests for standalone document projection (Engine::Project): the paper's
// Sec. 2 projection semantics as a user-facing tool, and the Theorem 1
// round-trip — evaluating Q over Π_{P[t](T)}(T) equals evaluating Q over T.

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/budget.h"
#include "common/prng.h"
#include "core/engine.h"
#include "test_sources.h"

namespace gcx {
namespace {

std::string ProjectDoc(std::string_view query, std::string_view doc) {
  auto compiled = CompiledQuery::Compile(query);
  if (!compiled.ok()) {
    ADD_FAILURE() << compiled.status().ToString();
    return "";
  }
  Engine engine;
  std::ostringstream out;
  auto stats = engine.Project(*compiled, doc, &out);
  if (!stats.ok()) {
    ADD_FAILURE() << stats.status().ToString();
    return "";
  }
  return out.str();
}

std::string Evaluate(std::string_view query, std::string_view doc) {
  auto compiled = CompiledQuery::Compile(query);
  if (!compiled.ok()) {
    ADD_FAILURE() << compiled.status().ToString();
    return "";
  }
  Engine engine;
  std::ostringstream out;
  auto stats = engine.Execute(*compiled, doc, &out);
  if (!stats.ok()) {
    ADD_FAILURE() << stats.status().ToString() << "\ndoc: " << doc;
    return "";
  }
  return out.str();
}

TEST(ProjectMode, KeepsOnlyRelevantPaths) {
  EXPECT_EQ(ProjectDoc("<r>{ for $x in /a/b return $x/v }</r>",
                       "<a><b><v>1</v><w>drop</w></b><c>drop</c></a>"),
            "<a><b><v>1</v></b></a>");
}

TEST(ProjectMode, DescendantProjectionDropsAncestors) {
  // Sec. 2: unlike Galax projection, ancestors of //b matches are not kept.
  EXPECT_EQ(ProjectDoc("<r>{ for $x in //b return <h/> }</r>",
                       "<a><c/><d><b/></d><a/></a>"),
            "<b></b>");
}

TEST(ProjectMode, SimultaneousPathsKeepWholeFig4Tree) {
  // Fig. 4: projecting for /a/b and /a//b together must keep the inner a.
  EXPECT_EQ(ProjectDoc(
                "<r>{ for $x in /a return ($x/b, for $y in $x//b return "
                "<h/>) }</r>",
                "<a><a><b/></a><b/></a>"),
            "<a><a><b></b></a><b></b></a>");
}

TEST(ProjectMode, FirstWitnessOnlyWithoutDescendants) {
  // "only the first price node – without descendants – needs to be
  // buffered" (Sec. 1): the witness is kept as a childless stub.
  EXPECT_EQ(ProjectDoc("<r>{ for $x in /a return "
                       "if (exists($x/p)) then <y/> else () }</r>",
                       "<a><p>1</p><p>2</p></a>"),
            "<a><p></p></a>");
}

TEST(ProjectMode, Theorem1RoundTripOnExamples) {
  struct Case {
    const char* query;
    const char* doc;
  };
  const Case cases[] = {
      {"<r>{ for $bib in /bib return ((for $x in $bib/* return "
       "if (not(exists($x/price))) then $x else ()), (for $b in $bib/book "
       "return $b/title)) }</r>",
       "<bib><book><title>T1</title><author>A1</author></book>"
       "<cd><title>T2</title><price>10</price></cd></bib>"},
      // Note: queries that discard the document element can project to a
      // multi-rooted fragment (Sec. 2's //b example); round-trip cases here
      // keep the document element so the projection re-parses as XML.
      {"<r>{ for $x in /a return for $y in $x//b return $y }</r>",
       "<a><b>1</b><c><b>2</b></c></a>"},
      {"<r>{ for $x in /s/p return if ($x/v > 3) then $x else () }</r>",
       "<s><p><v>2</v></p><p><v>7</v>keep</p></s>"},
      {"<r>{ count(/a//b) }</r>", "<a><b><b/></b><c><b/></c></a>"},
  };
  for (const Case& c : cases) {
    std::string projected = ProjectDoc(c.query, c.doc);
    ASSERT_FALSE(projected.empty()) << c.query;
    // Theorem 1: JQK(T) == JQ′K(T′).
    EXPECT_EQ(Evaluate(c.query, projected), Evaluate(c.query, c.doc))
        << c.query << "\nprojected: " << projected;
  }
}

TEST(ProjectMode, ProjectionIsIdempotent) {
  const char* query = "<r>{ for $x in /a/b return $x/v }</r>";
  const char* doc = "<a><b><v>1</v><w/></b><b><v>2</v></b><z/></a>";
  std::string once = ProjectDoc(query, doc);
  EXPECT_EQ(ProjectDoc(query, once), once);
}

TEST(ProjectMode, RandomizedTheorem1RoundTrip) {
  // Random documents; the Theorem 1 equality must hold on every one.
  const char* query =
      "<r>{ for $x in /root/* return "
      "(if (exists($x/p)) then $x/v else (), "
      "for $y in $x//b return $y/text()) }</r>";
  for (uint64_t seed = 0; seed < 10; ++seed) {
    Prng rng(seed);
    const char* tags[] = {"a", "b", "p", "v"};
    std::string doc;
    std::function<void(int)> emit = [&](int depth) {
      const char* tag = tags[rng.Below(4)];
      doc += "<";
      doc += tag;
      doc += ">";
      if (rng.Chance(300)) doc += std::to_string(rng.Below(9));
      if (depth < 4) {
        uint64_t children = rng.Below(4);
        for (uint64_t i = 0; i < children; ++i) emit(depth + 1);
      }
      doc += "</";
      doc += tag;
      doc += ">";
    };
    doc += "<root>";
    for (int i = 0; i < 4; ++i) emit(0);
    doc += "</root>";

    std::string projected = ProjectDoc(query, doc);
    if (projected.empty()) {
      // Projection may legitimately be empty (nothing relevant): then the
      // query result must equal the result over an empty-rooted document.
      continue;
    }
    EXPECT_EQ(Evaluate(query, projected), Evaluate(query, doc))
        << "seed " << seed << "\ndoc " << doc;
  }
}

TEST(ProjectMode, StatsReflectProjectionSize) {
  auto compiled =
      CompiledQuery::Compile("<r>{ for $x in /a/b return $x }</r>");
  ASSERT_TRUE(compiled.ok());
  Engine engine;
  std::ostringstream out;
  auto stats = engine.Project(*compiled, "<a><b>x</b><c>y</c></a>", &out);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->projector.elements_kept, 2u);   // a, b
  EXPECT_EQ(stats->projector.elements_skipped, 1u);  // c
  EXPECT_EQ(stats->output_bytes, out.str().size());
}

TEST(ProjectMode, StreamOverloadWaitsOutStallsToTheSameBytes) {
  auto compiled =
      CompiledQuery::Compile("<r>{ for $x in /a/b return $x }</r>");
  ASSERT_TRUE(compiled.ok());
  const std::string doc = "<a><b>x</b><c>y</c><b>z</b></a>";
  Engine engine;
  std::ostringstream out;
  auto stats = engine.Project(
      *compiled, std::make_unique<WouldBlockEveryNSource>(doc, 3), &out);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(out.str(), ProjectDoc("<r>{ for $x in /a/b return $x }</r>", doc));
}

TEST(ProjectMode, BudgetsTripWithTheMaterializedProjectionText) {
  // Project materializes the projected document exactly as the
  // kMaterializedProjection engine does before it evaluates, so each budget
  // must trip both with the same typed text.
  std::string doc = "<a>";
  for (int i = 0; i < 200; ++i) {
    doc += "<b>payload-" + std::to_string(i) + "</b><c>skipped</c>";
  }
  doc += "</a>";
  EngineOptions options;
  options.mode = EngineMode::kMaterializedProjection;
  auto compiled =
      CompiledQuery::Compile("<r>{ for $x in /a/b return $x }</r>", options);
  ASSERT_TRUE(compiled.ok());

  RunBudget output;
  output.max_output_bytes = 10;
  RunBudget arena;
  arena.max_arena_bytes = 64;
  RunBudget deadline;
  deadline.deadline_ms = 60000;
  const std::vector<std::pair<RunBudget, std::string>> cases = {
      {output, "ResourceExhausted: output byte budget of 10 bytes exceeded"},
      {arena, "ResourceExhausted: arena byte budget of 64 bytes exceeded"},
      {deadline, "DeadlineExceeded: run deadline of 60000 ms exceeded"}};
  for (const auto& [budget, expected] : cases) {
    std::vector<std::string> texts;
    for (bool project : {true, false}) {
      RunGovernor governor(budget);
      if (budget.deadline_ms != 0) governor.ForceExpireForTesting();
      Engine engine;
      engine.set_governor(&governor);
      std::ostringstream out;
      auto stats = project ? engine.Project(*compiled, doc, &out)
                           : engine.Execute(*compiled, doc, &out);
      ASSERT_FALSE(stats.ok()) << (project ? "Project" : "Execute");
      texts.push_back(stats.status().ToString());
    }
    EXPECT_EQ(texts[0], expected);
    EXPECT_EQ(texts[1], expected);
  }
}

}  // namespace
}  // namespace gcx
