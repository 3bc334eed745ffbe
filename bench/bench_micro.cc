// Micro-benchmarks of the substrates: DOM parsing, projection, DFA
// transition cost, buffer role/GC operations (scanner throughput is
// bench_gcx's L0 scan rung). Backs the paper's claim that "the
// overhead imposed by the buffer cleanup algorithm is small in practice"
// (Sec. 5).

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "buffer/buffer_tree.h"
#include "projection/dfa.h"
#include "xml/dom.h"
#include "xml/scanner.h"
#include "xq/normalize.h"
#include "xq/parser.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace {

using namespace gcx;
using namespace gcx::bench;

const std::string& Doc() {
  static const std::string* doc =
      new std::string(GenerateXMark(XMarkOptions{2 * BenchScale(), 42}));
  return *doc;
}

void BM_DomParse(benchmark::State& state) {
  for (auto _ : state) {
    auto doc = ParseDom(Doc());
    GCX_CHECK(doc.ok());
    benchmark::DoNotOptimize(doc);
  }
  state.SetBytesProcessed(
      static_cast<int64_t>(state.iterations() * Doc().size()));
}
BENCHMARK(BM_DomParse)->Unit(benchmark::kMillisecond);

void BM_ProjectionOnly(benchmark::State& state) {
  // Projection + role assignment without evaluation (materialize mode
  // without the evaluator): isolates projector + buffer insert cost.
  auto compiled = CompiledQuery::Compile(XMarkQ1());
  GCX_CHECK(compiled.ok());
  for (auto _ : state) {
    SymbolTable tags;
    BufferTree buffer;
    XmlScanner scanner(std::make_unique<StringSource>(Doc()));
    StreamProjector projector(&compiled->analyzed().projection,
                              &compiled->analyzed().roles, &tags, &scanner,
                              &buffer);
    while (true) {
      auto more = projector.Advance();
      GCX_CHECK(more.ok());
      if (!*more) break;
    }
    benchmark::DoNotOptimize(buffer.stats().nodes_created);
  }
  state.SetBytesProcessed(
      static_cast<int64_t>(state.iterations() * Doc().size()));
}
BENCHMARK(BM_ProjectionOnly)->Unit(benchmark::kMillisecond);

void BM_BufferRoleChurn(benchmark::State& state) {
  // Hot add/remove of roles on a fixed tree: the per-signOff cost.
  for (auto _ : state) {
    BufferTree buffer;
    BufferNode* parent = buffer.root();
    std::vector<BufferNode*> nodes;
    for (int depth = 0; depth < 8; ++depth) {
      parent = buffer.AppendElement(parent, depth);
      nodes.push_back(parent);
    }
    for (int round = 0; round < 1000; ++round) {
      for (BufferNode* node : nodes) {
        buffer.AddRole(node, 1, 1, false);
      }
      for (BufferNode* node : nodes) {
        buffer.RemoveRole(node, 1, 1);
      }
    }
    benchmark::DoNotOptimize(buffer.stats().gc_runs);
  }
}
BENCHMARK(BM_BufferRoleChurn);

void BM_GcPurgeChains(benchmark::State& state) {
  // Builds sibling chains and purges them one by one (Fig. 10 loop).
  for (auto _ : state) {
    BufferTree buffer;
    std::vector<BufferNode*> leaves;
    for (int i = 0; i < 1000; ++i) {
      BufferNode* mid = buffer.AppendElement(buffer.root(), 0);
      BufferNode* leaf = buffer.AppendElement(mid, 1);
      buffer.AddRole(leaf, 1, 1, false);
      buffer.Finish(leaf);
      buffer.Finish(mid);
      leaves.push_back(leaf);
    }
    for (BufferNode* leaf : leaves) buffer.RemoveRole(leaf, 1, 1);
    GCX_CHECK(buffer.stats().nodes_current == 1);  // only the root remains
  }
}
BENCHMARK(BM_GcPurgeChains);

void BM_CompileXMarkQueries(benchmark::State& state) {
  for (auto _ : state) {
    for (const NamedQuery& query : AllXMarkQueries()) {
      auto compiled = CompiledQuery::Compile(query.text);
      GCX_CHECK(compiled.ok());
      benchmark::DoNotOptimize(compiled);
    }
  }
}
BENCHMARK(BM_CompileXMarkQueries);

void BM_DfaTransitions(benchmark::State& state) {
  // Transition lookups over a memoized DFA (the per-start-tag cost).
  auto compiled = CompiledQuery::Compile(XMarkQ6());
  GCX_CHECK(compiled.ok());
  SymbolTable tags;
  LazyDfa dfa(&compiled->analyzed().projection, &compiled->analyzed().roles,
              &tags);
  TagId site = tags.Intern("site");
  TagId regions = tags.Intern("regions");
  TagId africa = tags.Intern("africa");
  TagId item = tags.Intern("item");
  TagId name = tags.Intern("name");
  for (auto _ : state) {
    DfaState* s0 = dfa.initial();
    DfaState* s1 = dfa.Transition(s0, site);
    DfaState* s2 = dfa.Transition(s1, regions);
    DfaState* s3 = dfa.Transition(s2, africa);
    DfaState* s4 = dfa.Transition(s3, item);
    DfaState* s5 = dfa.Transition(s4, name);
    benchmark::DoNotOptimize(s5);
  }
}
BENCHMARK(BM_DfaTransitions);

}  // namespace

BENCHMARK_MAIN();
