// bench_gcx — the benchmark every performance claim in this repository is
// measured with (README.md in this directory is the metric dictionary).
//
// Four workloads run one after another, single-threaded, as a closed loop
// with one client: the next execution starts only when the previous one has
// returned — the batch / stored-document use of the public API
// (Engine::Execute and MultiQueryEngine::Execute over a string_view).
// Per workload:
//   1. preparation: generate the XMark document from --seed, compile the
//      queries and hash the kNaiveDom oracle's output once per query;
//   2. warm-up: 3 untimed rounds;
//   3. timed window: rounds for the window's seconds, every output hashed
//      (FNV-1a) and compared with the oracle — a failed or wrong output is
//      counted, never fatal. Before each round the reference kernel runs
//      and set-up (cold compilation + engine construction) is timed;
//   4. untraced ladder: L0 = scan only, L1 = scan + merged-DFA prefilter;
//   5. traced pass: rounds of traced executions through TracedExecContext,
//      each alternated with an untraced one, spans kept in memory and
//      written to TRACE_gcx_<workload>.json at exit.
// A round is one execution of the workload: the queries of a solo mix run
// back to back, or the whole batch runs in one MultiQueryEngine::Execute.
//
// Nothing under src/ is instrumented: every layer is timed from outside,
// around calls into public functions.
//
// Usage:
//   bench_gcx [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//             [--out DIR]
//   bench_gcx --smoke --benchmark-json PATH
// Without --workload all four run. --trace 0 runs only phases 1-3 (the
// end-to-end metrics); --trace 1 halves the window and adds phases 4-5
// (the per-layer metrics); without --trace every phase runs. With one
// workload the last stdout line is the JSON result object
// {"correct", "attempted", "failed", "metrics"}.

#define GCX_BENCH_COUNT_ALLOCS 1

#if defined(__x86_64__)
#include <x86intrin.h>
#endif

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <map>
#include <memory>
#include <ostream>
#include <regex>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "core/engine.h"
#include "core/event_filter.h"
#include "core/multi_engine.h"
#include "eval/evaluator.h"
#include "eval/exec_context.h"
#include "projection/merged_dfa.h"
#include "sample_window.h"
#include "xml/simd_scan.h"
#include "xml/writer.h"
#include "xmark/generator.h"
#include "xmark/queries.h"

namespace {

using Clock = std::chrono::steady_clock;
using gcx::bench::SampleWindow;

constexpr int kWarmupRounds = 3;
// Set-up is timed this many times before each round of the window.
constexpr int kSetupRepsPerRound = 5;
// End-to-end figures are the lower quartile, over kBlocks time blocks of
// the window, of each block's quantile (see SampleWindow::BlockQuantile).
constexpr int kBlocks = 10;
constexpr double kAcross = 0.25;
// Median time of ReferenceKernelMs() on the 4-vCPU 2.0 GHz Xeon virtual
// machine the committed baselines were recorded on. End-to-end times are
// reported at this reference speed (see ReferenceKernelMs).
constexpr double kReferenceMs = 0.6;
// One pull in 16 is timed: timing every pull tripled Q1's wall time, this
// stride costs about 5-10%.
constexpr uint64_t kTraceStride = 16;
constexpr double kBytesPerMb = 1e6;

int64_t Ns(Clock::duration d) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(d).count();
}
double Ms(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}
double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// User + system CPU time of the process. CLOCK_PROCESS_CPUTIME_ID counts
/// the same time getrusage splits into ru_utime + ru_stime, at nanosecond
/// rather than microsecond resolution, so single rounds can be timed.
double CpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

volatile uint64_t g_reference_sink = 0;

/// A fixed integer kernel that shares no code with the system under test:
/// an LCG indexing a 64 KB table into an FNV-style hash chain, serially
/// dependent so no compiler flag vectorises it. The window runs it before
/// every round. On a shared machine the whole process speeds up and slows
/// down by 10-20% over tens of seconds as other tenants come and go, and
/// this kernel's time tracks that drift to within ~2% of gcx's own, so
/// dividing each time block's figures by the kernel's median time in the
/// same block (times kReferenceMs) removes the drift while leaving any
/// change in gcx's own speed fully visible.
double ReferenceKernelMs() {
  static const std::vector<uint32_t> table = [] {
    std::vector<uint32_t> t(1 << 14);
    for (size_t i = 0; i < t.size(); ++i) {
      t[i] = static_cast<uint32_t>(i) * 2654435761u;
    }
    return t;
  }();
  const Clock::time_point t0 = Clock::now();
  uint64_t h = 0xcbf29ce484222325ull;
  uint32_t x = 1;
  for (int i = 0; i < 400000; ++i) {
    x = x * 1664525u + 1013904223u;
    h = (h ^ table[x >> 18]) * 0x100000001b3ull;
  }
  g_reference_sink = h;
  return Ms(Clock::now() - t0);
}

/// The clock of the traced pass's layer timers. On x86-64 it reads the
/// time-stamp counter: a steady_clock read costs ~35 ns on a virtual
/// machine and serialises the pipeline, which inflated each ~50 ns sampled
/// scanner interval by about a quarter even after subtracting the read's
/// own cost. Elsewhere it falls back to steady_clock. Calibrated once at
/// start-up: nanoseconds per tick against steady_clock, and the cost of one
/// read, which is subtracted from every timed interval.
class LayerClock {
 public:
  LayerClock() {
#if defined(__x86_64__)
    const Clock::time_point c0 = Clock::now();
    const uint64_t t0 = Now();
    while (Ns(Clock::now() - c0) < 20'000'000) {
    }
    ns_per_tick_ = static_cast<double>(Ns(Clock::now() - c0)) /
                   static_cast<double>(Now() - t0);
#endif
    constexpr int kReads = 100000;
    std::vector<double> per_read;
    for (int trial = 0; trial < 5; ++trial) {
      const uint64_t start = Now();
      uint64_t last = start;
      for (int i = 0; i < kReads; ++i) last = Now();
      per_read.push_back(static_cast<double>(last - start) / kReads);
    }
    cost_ticks_ = static_cast<int64_t>(
        SampleWindow::QuantileOf(std::move(per_read), 0.5));
  }

  static uint64_t Now() {
#if defined(__x86_64__)
    return __rdtsc();
#else
    return static_cast<uint64_t>(Ns(Clock::now().time_since_epoch()));
#endif
  }
  /// Ticks of the interval [t0, t1) with the read cost removed.
  int64_t Interval(uint64_t t0, uint64_t t1) const {
    return static_cast<int64_t>(t1 - t0) - cost_ticks_;
  }
  double ToNs(double ticks) const { return ticks * ns_per_tick_; }
  double cost_ns() const { return ToNs(static_cast<double>(cost_ticks_)); }

 private:
  double ns_per_tick_ = 1.0;
  int64_t cost_ticks_ = 0;
};

/// Output sink: FNV-1a over every byte written. With a clock it also times
/// each write; XmlWriter flushes in 32 KB blocks, so that is a few hundred
/// clock reads even for Q6's output.
class HashSink : public std::streambuf {
 public:
  explicit HashSink(const LayerClock* clock = nullptr) : clock_(clock) {}

  uint64_t hash() const { return hash_; }
  double busy_ns() const {
    return clock_ ? clock_->ToNs(static_cast<double>(busy_ticks_)) : 0;
  }
  uint64_t calls() const { return calls_; }

 protected:
  int overflow(int c) override {
    if (c == traits_type::eof()) return traits_type::not_eof(c);
    char ch = static_cast<char>(c);
    xsputn(&ch, 1);
    return c;
  }
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    const uint64_t t0 = clock_ ? LayerClock::Now() : 0;
    uint64_t h = hash_;
    for (std::streamsize i = 0; i < n; ++i) {
      h ^= static_cast<unsigned char>(s[i]);
      h *= 0x100000001b3ull;
    }
    hash_ = h;
    if (clock_) {
      busy_ticks_ += clock_->Interval(t0, LayerClock::Now());
      ++calls_;
    }
    return n;
  }

 private:
  const LayerClock* clock_;
  uint64_t hash_ = 0xcbf29ce484222325ull;
  int64_t busy_ticks_ = 0;
  uint64_t calls_ = 0;
};

// ---------------------------------------------------------------------------
// Workloads

struct Workload {
  const char* name;
  double factor;  ///< XMark size factor (1.0 ≈ 1 MB)
  bool batch;     ///< one MultiQueryEngine::Execute over all of `queries`
  std::vector<const char*> queries;  ///< XMark query names, in round order
};

// Documents are sized so a 20 s window collects over 100 rounds.
const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> workloads = {
      // Selective queries the projector fast-skips almost entirely: the
      // scanner dominates, the buffer peak stays in the kilobytes.
      {"xmark_scan", 8, false, {"Q1", "Q13"}},
      // Evaluator, signOff GC and writer do most of the work (Q6 writes
      // ~4 MB per execution).
      {"xmark_eval", 6, false, {"Q6", "Q20"}},
      // One shared scan feeding the merged-DFA prefilter, the replay log
      // and 8 per-query pipelines; the only workload running that code.
      {"xmark_batch8",
       4,
       true,
       {"Q1", "Q6", "Q13", "Q20", "Q1", "Q6", "Q13", "Q20"}},
      // The buffer as a retained store (value join): peak grows with the
      // document and GC visits grow quadratically.
      {"xmark_join", 2, false, {"Q8"}},
  };
  return workloads;
}

std::string_view QueryText(std::string_view name) {
  for (const gcx::NamedQuery& q : gcx::AllXMarkQueries()) {
    if (name == q.name) return q.text;
  }
  std::fprintf(stderr, "unknown XMark query %.*s\n",
               static_cast<int>(name.size()), name.data());
  std::exit(1);
}

gcx::CompiledQuery CompileOrDie(std::string_view text,
                                const gcx::EngineOptions& options) {
  auto compiled = gcx::CompiledQuery::Compile(text, options);
  if (!compiled.ok()) {
    std::fprintf(stderr, "compile failed: %s\n",
                 compiled.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(compiled).value();
}

/// A workload ready to run: document, compiled queries, oracle hashes.
struct Prepared {
  const Workload* spec = nullptr;
  std::string doc;
  std::vector<std::string> names;            ///< per round slot
  std::vector<gcx::CompiledQuery> distinct;  ///< one per distinct query
  std::vector<const gcx::CompiledQuery*> slots;
  std::vector<uint64_t> oracle;  ///< expected output hash per slot
};

Prepared Prepare(const Workload& spec, uint64_t seed, double scale) {
  Prepared p;
  p.spec = &spec;
  p.doc = gcx::GenerateXMark(gcx::XMarkOptions{spec.factor * scale, seed});
  std::map<std::string, size_t> index;
  for (const char* name : spec.queries) {
    if (index.count(name) == 0) {
      index[name] = p.distinct.size();
      p.distinct.push_back(CompileOrDie(QueryText(name), {}));
    }
  }
  gcx::EngineOptions dom;
  dom.mode = gcx::EngineMode::kNaiveDom;
  std::map<std::string, uint64_t> oracle;
  for (const auto& [name, i] : index) {
    gcx::CompiledQuery q = CompileOrDie(QueryText(name), dom);
    HashSink sink;
    std::ostream out(&sink);
    auto stats = gcx::Engine().Execute(q, p.doc, &out);
    if (!stats.ok()) {
      std::fprintf(stderr, "oracle %s failed: %s\n", name.c_str(),
                   stats.status().ToString().c_str());
      std::exit(1);
    }
    oracle[name] = sink.hash();
  }
  for (const char* name : spec.queries) {
    p.names.push_back(name);
    p.slots.push_back(&p.distinct[index[name]]);
    p.oracle.push_back(oracle[name]);
  }
  return p;
}

// ---------------------------------------------------------------------------
// Rounds

struct Round {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<gcx::ExecStats> per_query;  ///< per slot (empty on error)
  gcx::SharedScanStats shared;            ///< batch only
  std::string first_error;
};

void CheckOutput(const Prepared& p, size_t slot, const gcx::Status& status,
                 uint64_t hash, Round* round) {
  ++round->attempted;
  if (status.ok() && hash == p.oracle[slot]) return;
  ++round->failed;
  if (round->first_error.empty()) {
    round->first_error =
        p.names[slot] + ": " +
        (status.ok() ? std::string("output differs from the DOM oracle")
                     : status.ToString());
  }
}

Round RunRound(const Prepared& p) {
  Round round;
  round.per_query.resize(p.slots.size());
  if (!p.spec->batch) {
    gcx::Engine engine;
    for (size_t i = 0; i < p.slots.size(); ++i) {
      HashSink sink;
      std::ostream out(&sink);
      auto stats = engine.Execute(*p.slots[i], p.doc, &out);
      if (stats.ok()) round.per_query[i] = *stats;
      CheckOutput(p, i, stats.status(), sink.hash(), &round);
    }
    return round;
  }
  std::vector<HashSink> sinks(p.slots.size());
  std::vector<std::unique_ptr<std::ostream>> streams;
  std::vector<std::ostream*> outs;
  for (HashSink& sink : sinks) {
    streams.push_back(std::make_unique<std::ostream>(&sink));
    outs.push_back(streams.back().get());
  }
  auto stats = gcx::MultiQueryEngine().Execute(p.slots, p.doc, outs);
  if (stats.ok()) {
    round.per_query = stats->per_query;
    round.shared = stats->shared;
  }
  for (size_t i = 0; i < p.slots.size(); ++i) {
    CheckOutput(p, i, stats.status(), sinks[i].hash(), &round);
  }
  return round;
}

// ---------------------------------------------------------------------------
// Traced execution

/// A bench-side ExecContext wired like Engine::ExecuteStreaming's
/// StreamExecContext, except that the projector is fed events pushed from
/// the scanner here, so both calls can be timed. One pull in kTraceStride
/// is clocked; estimates scale the sampled time by pulls / sampled.
class TracedExecContext final : public gcx::ExecContext {
 public:
  TracedExecContext(const gcx::CompiledQuery& query, std::string_view doc,
                    const LayerClock& clock)
      : scanner_(std::make_unique<gcx::StringSource>(doc),
                 query.options().scanner, &tags_),
        projector_(&query.analyzed().projection, &query.analyzed().roles,
                   &tags_, /*scanner=*/nullptr, &buffer_),
        clock_(clock) {}

  gcx::BufferTree& buffer() override { return buffer_; }
  gcx::SymbolTable& tags() override { return tags_; }

  gcx::Result<bool> Pull() override {
    if (projector_.done()) return false;
    gcx::XmlEvent event;
    if (++pulls_ % kTraceStride != 0) {
      GCX_RETURN_IF_ERROR(scanner_.Next(&event));
      return projector_.ProcessEvent(event);
    }
    const uint64_t t0 = LayerClock::Now();
    GCX_RETURN_IF_ERROR(scanner_.Next(&event));
    const uint64_t t1 = LayerClock::Now();
    gcx::Result<bool> more = projector_.ProcessEvent(event);
    const uint64_t t2 = LayerClock::Now();
    scan_ticks_ += clock_.Interval(t0, t1);
    project_ticks_ += clock_.Interval(t1, t2);
    ++sampled_;
    return more;
  }

  uint64_t pulls() const { return pulls_; }
  uint64_t sampled() const { return sampled_; }
  double scan_estimate_ns() const { return Estimate(scan_ticks_); }
  double project_estimate_ns() const { return Estimate(project_ticks_); }

 private:
  double Estimate(int64_t sampled_ticks) const {
    if (sampled_ == 0) return 0;
    return clock_.ToNs(static_cast<double>(sampled_ticks) *
                       static_cast<double>(pulls_) /
                       static_cast<double>(sampled_));
  }

  gcx::SymbolTable tags_;
  gcx::BufferTree buffer_;
  gcx::XmlScanner scanner_;
  gcx::StreamProjector projector_;
  const LayerClock& clock_;
  uint64_t pulls_ = 0;
  uint64_t sampled_ = 0;
  int64_t scan_ticks_ = 0;
  int64_t project_ticks_ = 0;
};

/// Layer split of one traced execution (nanoseconds).
struct TracedRun {
  bool ok = false;
  uint64_t hash = 0;
  double wall_ns = 0;
  double scan_ns = 0;
  double project_ns = 0;
  double sink_ns = 0;
  double eval_self_ns = 0;
  uint64_t pulls = 0;
  uint64_t sink_calls = 0;
};

TracedRun RunTraced(const gcx::CompiledQuery& query, std::string_view doc,
                    const LayerClock& clock) {
  TracedRun run;
  HashSink sink(&clock);
  std::ostream out(&sink);
  const Clock::time_point start = Clock::now();
  TracedExecContext ctx(query, doc, clock);
  gcx::Status status;
  {
    gcx::XmlWriter writer(&out);
    gcx::Evaluator evaluator(&query.analyzed(), &ctx, &writer);
    status = evaluator.Run();
    writer.Flush();
  }
  run.wall_ns = static_cast<double>(Ns(Clock::now() - start));
  run.ok = status.ok();
  run.hash = sink.hash();
  run.scan_ns = ctx.scan_estimate_ns();
  run.project_ns = ctx.project_estimate_ns();
  run.sink_ns = sink.busy_ns();
  run.pulls = ctx.pulls();
  run.sink_calls = sink.calls();
  // Clock reads that no layer absorbed: three per sampled pull, two per
  // timed sink write.
  const double clock_ns =
      clock.cost_ns() *
      static_cast<double>(3 * ctx.sampled() + 2 * sink.calls());
  run.eval_self_ns = run.wall_ns - run.scan_ns - run.project_ns -
                     run.sink_ns - clock_ns;
  return run;
}

/// One Chrome trace-event span ("ph": "X").
struct Span {
  std::string name;
  uint64_t id = 0;
  double ts_us = 0;
  double dur_us = 0;
  double busy_ns = -1;  ///< children only
  uint64_t calls = 0;
};

// ---------------------------------------------------------------------------
// Metrics

enum class Scope {
  kEndToEnd,  ///< listed under BENCHMARK.json "end_to_end"
  kLayer,     ///< listed under BENCHMARK.json "per_layer"
  kExtra,     ///< reported beside them (sample count, raw figures)
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  Scope scope = Scope::kExtra;
  bool count = false;  ///< deterministic for a given seed
};

struct Report {
  std::string workload;
  uint64_t document_bytes = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool traced = false;
  bool traced_hash_match = true;
  std::vector<Metric> metrics;
  std::vector<Span> spans;

  bool correct() const { return failed == 0 && traced_hash_match; }
  void Add(const char* name, double value, const char* unit, Scope scope,
           bool count) {
    metrics.push_back({name, value, unit, scope, count});
  }
  const Metric* Find(const std::string& name) const {
    for (const Metric& m : metrics) {
      if (m.name == name) return &m;
    }
    return nullptr;
  }
  /// Counts a round's outputs; a failure is reported, never fatal.
  void Tally(const Round& round) {
    attempted += round.attempted;
    failed += round.failed;
    if (!round.first_error.empty()) {
      std::fprintf(stderr, "%s: %s\n", workload.c_str(),
                   round.first_error.c_str());
    }
  }
};

struct Phases {
  double window_s = 0;
  double ladder_s = 0;  ///< 0: skip the ladder and the traced pass
  double traced_s = 0;
};

/// Set-up as a caller pays it before the first execution: compiling the
/// workload's distinct queries cold (no query cache) and constructing its
/// engine. Document generation and the oracle are benchmark work and are
/// not part of it.
class SetupProbe {
 public:
  explicit SetupProbe(const Workload& spec) : batch_(spec.batch) {
    for (const char* name : spec.queries) {
      std::string_view text = QueryText(name);
      if (std::find(texts_.begin(), texts_.end(), text) == texts_.end()) {
        texts_.push_back(text);
      }
    }
  }

  /// Times one set-up into `setup_s` (seconds) and `compile_us` (per query).
  void Once(SampleWindow* setup_s, SampleWindow* compile_us) const {
    std::vector<gcx::CompiledQuery> compiled;
    const Clock::time_point t0 = Clock::now();
    for (std::string_view text : texts_) {
      compiled.push_back(CompileOrDie(text, {}));
    }
    const Clock::time_point t1 = Clock::now();
    if (batch_) {
      gcx::MultiQueryEngine engine;
      static_cast<void>(engine);
    } else {
      gcx::Engine engine;
      static_cast<void>(engine);
    }
    const Clock::time_point t2 = Clock::now();
    setup_s->Add(std::chrono::duration<double>(t2 - t0).count());
    compile_us->Add(Ms(t1 - t0) * 1e3 / static_cast<double>(texts_.size()));
  }

 private:
  bool batch_;
  std::vector<std::string_view> texts_;
};

/// Input MB one round reads: the document once per solo execution, once for
/// the whole batch.
double RoundMb(const Prepared& p) {
  const size_t reads = p.spec->batch ? 1 : p.slots.size();
  return static_cast<double>(p.doc.size() * reads) / kBytesPerMb;
}

/// Phase 3: the timed window. Adds the end-to-end metrics and returns the
/// window's measured round p50 in ms.
double MeasureWindow(const Prepared& p, double seconds, Report* report) {
  const double round_mb = RoundMb(p);
  // Set-up repetitions run between rounds, so they are spread over the
  // window like the rounds and see the same machine.
  const SetupProbe setup(*p.spec);
  SampleWindow latency_ms, cpu_ms_per_mb, setup_s, compile_us, reference_ms;
  latency_ms.Run(seconds, 1, [&] {
    reference_ms.Add(ReferenceKernelMs());
    for (int i = 0; i < kSetupRepsPerRound; ++i) {
      setup.Once(&setup_s, &compile_us);
    }
    const double cpu0 = CpuSeconds();
    const Clock::time_point t0 = Clock::now();
    const Round round = RunRound(p);
    const double ms = Ms(Clock::now() - t0);
    cpu_ms_per_mb.Add((CpuSeconds() - cpu0) * 1e3 / round_mb);
    report->Tally(round);
    return ms;
  });

  // Block quantiles at the reference speed (see ReferenceKernelMs).
  auto steady = [&reference_ms](const SampleWindow& w, double q) {
    return w.BlockQuantile(q, kBlocks, kAcross, &reference_ms) * kReferenceMs;
  };
  const double p50 = steady(latency_ms, 0.5);
  const Scope e2e = Scope::kEndToEnd;
  report->Add("throughput_mb_s", round_mb / (p50 / 1e3), "MB/s", e2e, false);
  report->Add("latency_p50_ms", p50, "ms", e2e, false);
  report->Add("latency_p90_ms", steady(latency_ms, 0.9), "ms", e2e, false);
  report->Add("cpu_ms_per_mb", steady(cpu_ms_per_mb, 0.5), "ms/MB", e2e,
              false);
  report->Add("setup_s", steady(setup_s, 0.5), "s", e2e, false);
  report->Add("latency_n", static_cast<double>(latency_ms.n()), "count",
              Scope::kExtra, false);
  // The same figures as measured, over the whole window.
  report->Add("raw.latency_p50_ms", latency_ms.p50(), "ms", Scope::kExtra,
              false);
  report->Add("raw.latency_p90_ms", latency_ms.p90(), "ms", Scope::kExtra,
              false);
  report->Add("raw.reference_ms", reference_ms.p50(), "ms", Scope::kExtra,
              false);
  report->Add("compile.us_per_query", compile_us.p50(), "us", Scope::kLayer,
              false);
  return latency_ms.p50();
}

/// The deterministic counts of one round, from the public stats structs.
/// Returns the events the round's projectors read.
uint64_t AddCounts(const Round& round, Report* report) {
  uint64_t peak_bytes = 0, nodes_peak = 0, arena_peak = 0, gc_runs = 0,
           gc_visited = 0, purged = 0, kept = 0, events_read = 0,
           dfa_states = 0, output_bytes = 0;
  for (const gcx::ExecStats& s : round.per_query) {
    peak_bytes = std::max(peak_bytes, s.peak_bytes);
    nodes_peak = std::max(nodes_peak, s.buffer.nodes_peak);
    arena_peak = std::max(arena_peak, s.buffer.text_arena_peak_bytes);
    gc_runs += s.buffer.gc_runs;
    gc_visited += s.buffer.gc_nodes_visited;
    purged += s.buffer.nodes_purged;
    kept += s.projector.elements_kept + s.projector.text_kept;
    events_read += s.projector.events_read;
    dfa_states += s.dfa_states;
    output_bytes += s.output_bytes;
  }
  auto add = [report](const char* name, double value, const char* unit,
                      Scope scope = Scope::kLayer) {
    report->Add(name, value, unit, scope, true);
  };
  auto d = [](uint64_t v) { return static_cast<double>(v); };
  add("peak_buffer_bytes", d(peak_bytes), "B", Scope::kEndToEnd);
  add("fail_ratio", Ratio(d(report->failed), d(report->attempted)), "ratio",
      Scope::kExtra);
  add("buffer.nodes_peak", d(nodes_peak), "count");
  add("buffer.gc_runs", d(gc_runs), "count");
  add("buffer.gc_nodes_visited", d(gc_visited), "count");
  add("buffer.gc_visits_per_purge", Ratio(d(gc_visited), d(purged)), "ratio");
  add("buffer.text_arena_peak_bytes", d(arena_peak), "B");
  add("projector.keep_ratio", Ratio(d(kept), d(events_read)), "ratio");
  add("projector.dfa_states", d(dfa_states), "count");
  add("writer.output_bytes", d(output_bytes), "B");
  add("batch.replay_log_peak_events", d(round.shared.replay_log_peak),
      "count");
  add("batch.events_demuxed", d(round.shared.events_demuxed), "count");
  add("batch.replay_arena_peak_bytes",
      d(round.shared.replay_arena_peak_bytes), "B");
  return events_read;
}

struct Ladder {
  double scan_ms = 0;    ///< L0 median: one pass of the scanner alone
  double filter_ms = 0;  ///< L1 median: scanner + merged-DFA prefilter
};

/// Phase 4: the untraced ladder, L0 and L1 alternated.
Ladder MeasureLadder(const Prepared& p, double seconds, Report* report) {
  const gcx::ScannerOptions options = p.distinct.front().options().scanner;
  uint64_t scan_events = 0, forwarded = 0, merged_states = 0;
  SampleWindow l0, l1;
  l0.Run(seconds, 3, [&] {
    Clock::time_point t0 = Clock::now();
    {
      gcx::XmlScanner scanner(std::make_unique<gcx::StringSource>(p.doc),
                              options);
      gcx::XmlEvent event;
      uint64_t events = 0;
      do {
        GCX_CHECK(scanner.Next(&event).ok());
        ++events;
      } while (event.kind != gcx::XmlEvent::Kind::kEndOfDocument);
      scan_events = events;
    }
    const double scan = Ms(Clock::now() - t0);
    t0 = Clock::now();
    {
      gcx::SymbolTable tags;
      std::vector<gcx::MergedDfaInput> inputs;
      for (const gcx::CompiledQuery* q : p.slots) {
        inputs.push_back({&q->analyzed().projection, &q->analyzed().roles});
      }
      gcx::MergedDfa dfa(inputs, &tags);
      gcx::ProjectedEventFilter filter(&dfa);
      gcx::XmlScanner scanner(std::make_unique<gcx::StringSource>(p.doc),
                              options, &tags);
      gcx::XmlEvent event;
      uint64_t kept_events = 0;
      do {
        GCX_CHECK(scanner.Next(&event).ok());
        auto action = filter.Apply(event);
        GCX_CHECK(action.ok());
        if (*action == gcx::ProjectedEventFilter::Action::kForward) {
          ++kept_events;
        }
      } while (event.kind != gcx::XmlEvent::Kind::kEndOfDocument);
      forwarded = kept_events;
      merged_states = dfa.num_states();
    }
    l1.Add(Ms(Clock::now() - t0));
    return scan;
  });
  const Ladder ladder{l0.p50(), l1.p50()};
  const double events = static_cast<double>(scan_events);
  report->Add("scanner.busy_ms", ladder.scan_ms, "ms", Scope::kLayer, false);
  report->Add("scanner.ns_per_event", Ratio(ladder.scan_ms * 1e6, events),
              "ns/event", Scope::kLayer, false);
  report->Add("scanner.events", events, "count", Scope::kLayer, true);
  report->Add("prefilter.busy_ms", ladder.filter_ms - ladder.scan_ms, "ms",
              Scope::kLayer, false);
  report->Add("prefilter.forward_ratio",
              Ratio(static_cast<double>(forwarded), events), "ratio",
              Scope::kLayer, true);
  report->Add("prefilter.merged_dfa_states",
              static_cast<double>(merged_states), "count", Scope::kLayer,
              true);
  return ladder;
}

/// Phase 5: the traced pass. Every query of the round runs solo, traced and
/// untraced in alternating order; per-layer figures are per round (summed
/// over its queries), medians over the traced rounds.
void MeasureTraced(const Prepared& p, double seconds, const LayerClock& clock,
                   const Ladder& ladder, double window_p50_ms,
                   uint64_t events_read, Report* report) {
  SampleWindow traced_ms, untraced_ms, project_ms, eval_ms, sink_ms,
      scan_est_ms;
  uint64_t pulls = 0;
  uint64_t span_id = 0;
  const Clock::time_point epoch = Clock::now();
  bool traced_first = false;
  traced_ms.Run(seconds, 2, [&] {
    double project = 0, eval = 0, sink = 0, traced = 0, untraced = 0;
    uint64_t round_pulls = 0;
    traced_first = !traced_first;
    for (size_t i = 0; i < p.slots.size(); ++i) {
      auto untraced_run = [&] {
        HashSink hs;
        std::ostream out(&hs);
        const Clock::time_point t0 = Clock::now();
        auto stats = gcx::Engine().Execute(*p.slots[i], p.doc, &out);
        untraced += Ms(Clock::now() - t0);
        Round check;
        CheckOutput(p, i, stats.status(), hs.hash(), &check);
        report->Tally(check);
        return hs.hash();
      };
      uint64_t untraced_hash = traced_first ? 0 : untraced_run();
      const double ts_us = static_cast<double>(Ns(Clock::now() - epoch)) / 1e3;
      const TracedRun run = RunTraced(*p.slots[i], p.doc, clock);
      if (traced_first) untraced_hash = untraced_run();
      if (!run.ok || run.hash != untraced_hash || run.hash != p.oracle[i]) {
        report->traced_hash_match = false;
      }
      project += run.project_ns / 1e6;
      sink += run.sink_ns / 1e6;
      eval += run.eval_self_ns / 1e6;
      traced += run.wall_ns / 1e6;
      scan_est_ms.Add(run.scan_ns / 1e6);
      round_pulls += run.pulls;

      // One root span per execution, one child per layer; the children
      // are laid end to end inside the root, each as long as its layer's
      // busy time.
      ++span_id;
      report->spans.push_back({p.spec->name + std::string("/") + p.names[i],
                               span_id, ts_us, run.wall_ns / 1e3, -1, 0});
      double child_ts = ts_us;
      auto child = [&](const char* layer, double busy_ns, uint64_t calls) {
        const double dur_us = std::max(0.0, busy_ns) / 1e3;
        report->spans.push_back(
            {layer, span_id, child_ts, dur_us, busy_ns, calls});
        child_ts += dur_us;
      };
      child("scanner", run.scan_ns, run.pulls);
      child("projector", run.project_ns, run.pulls);
      child("eval", run.eval_self_ns, 1);
      child("sink", run.sink_ns, run.sink_calls);
    }
    project_ms.Add(project);
    eval_ms.Add(eval);
    sink_ms.Add(sink);
    untraced_ms.Add(untraced);
    pulls = round_pulls;
    return traced;
  });

  const double project = project_ms.p50();
  const double eval = eval_ms.p50();
  const double sink = sink_ms.p50();
  const Scope layer = Scope::kLayer;
  report->Add("projector.busy_ms", project, "ms", layer, false);
  report->Add("projector.ns_per_event",
              Ratio(project * 1e6, static_cast<double>(events_read)),
              "ns/event", layer, false);
  report->Add("eval.self_ms", eval, "ms", layer, false);
  report->Add("eval.pulls", static_cast<double>(pulls), "count", layer, true);
  report->Add("writer.sink_ms", sink, "ms", layer, false);
  // Wall time of a round no traced layer accounts for, in measured ms like
  // the layers. On xmark_batch8 this is the demultiplexing cost: batch p50
  // - L1 - the 8 queries' projector, evaluator and sink time; on a solo mix
  // each execution scans once (L0).
  const double scans_ms =
      p.spec->batch ? ladder.filter_ms
                    : ladder.scan_ms * static_cast<double>(p.slots.size());
  report->Add("batch.demux_overhead_ms",
              window_p50_ms - scans_ms - project - eval - sink, "ms", layer,
              false);
  const double untraced_p50 = untraced_ms.p50();
  report->Add("trace.overhead_pct",
              Ratio(traced_ms.p50() - untraced_p50, untraced_p50) * 100, "%",
              layer, false);
  const double scan_est = scan_est_ms.p50();
  report->Add("trace.scan_agreement_pct",
              Ratio(std::min(scan_est, ladder.scan_ms),
                    std::max(scan_est, ladder.scan_ms)) * 100,
              "%", layer, false);
}

Report RunWorkload(const Workload& spec, uint64_t seed, double scale,
                   const Phases& phases, const LayerClock& clock) {
  Report report;
  report.workload = spec.name;
  const Prepared p = Prepare(spec, seed, scale);
  report.document_bytes = p.doc.size();

  // Warm-up. Every round is identical, so the counts come from the first.
  const Round first = RunRound(p);
  report.Tally(first);
  for (int i = 1; i < kWarmupRounds; ++i) report.Tally(RunRound(p));

  const double window_p50_ms = MeasureWindow(p, phases.window_s, &report);
  const uint64_t events_read = AddCounts(first, &report);
  if (phases.ladder_s <= 0) return report;
  report.traced = true;

  // Allocations per scanner event over one steady-state round.
  {
    gcx::bench::AllocCounterScope allocs;
    const Round round = RunRound(p);
    const uint64_t count = allocs.count();
    report.Tally(round);
    const uint64_t events =
        spec.batch ? round.shared.events_scanned : events_read;
    report.Add("alloc.per_event",
               Ratio(static_cast<double>(count), static_cast<double>(events)),
               "allocs/event", Scope::kLayer, true);
  }

  const Ladder ladder = MeasureLadder(p, phases.ladder_s, &report);
  MeasureTraced(p, phases.traced_s, clock, ladder, window_p50_ms, events_read,
                &report);
  return report;
}

// ---------------------------------------------------------------------------
// Output

std::string JsonNumber(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

const char* ScopeName(Scope scope) {
  switch (scope) {
    case Scope::kEndToEnd:
      return "end_to_end";
    case Scope::kLayer:
      return "per_layer";
    case Scope::kExtra:
      break;
  }
  return "extra";
}

std::string Compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

bool WriteFile(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
  out.close();
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  return true;
}

const char* Bool(bool b) { return b ? "true" : "false"; }

std::string BenchJson(const std::vector<Report>& reports, uint64_t seed,
                      double seconds, const std::string& mode) {
  std::ostringstream o;
  o << "{\n  \"benchmark\": \"bench_gcx\",\n  \"seed\": " << seed
    << ",\n  \"seconds\": " << JsonNumber(seconds) << ",\n  \"mode\": \""
    << mode << "\",\n  \"env\": {\"nproc\": "
    << std::thread::hardware_concurrency() << ", \"simd_backend\": \""
    << gcx::SimdBackendName(gcx::DispatchedScanOps().backend)
    << "\", \"compiler\": \"" << Compiler() << "\", \"build_type\": \""
    << BENCH_GCX_BUILD_TYPE << "\"},\n  \"workloads\": {";
  for (size_t w = 0; w < reports.size(); ++w) {
    const Report& r = reports[w];
    o << (w ? "," : "") << "\n    \"" << r.workload
      << "\": {\"document_bytes\": " << r.document_bytes
      << ", \"correct\": " << Bool(r.correct())
      << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
      << ", \"traced\": " << Bool(r.traced)
      << ", \"traced_hash_match\": " << Bool(r.traced_hash_match)
      << ", \"metrics\": {";
    for (size_t i = 0; i < r.metrics.size(); ++i) {
      const Metric& m = r.metrics[i];
      o << (i ? "," : "") << "\n      \"" << m.name
        << "\": {\"value\": " << JsonNumber(m.value) << ", \"unit\": \""
        << m.unit << "\", \"scope\": \"" << ScopeName(m.scope)
        << "\", \"kind\": \"" << (m.count ? "count" : "time") << "\"}";
    }
    o << "}}";
  }
  o << "\n  }\n}\n";
  return o.str();
}

std::string TraceJson(const Report& r) {
  std::ostringstream o;
  o << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
  for (size_t i = 0; i < r.spans.size(); ++i) {
    const Span& s = r.spans[i];
    o << (i ? ",\n" : "\n") << "{\"name\": \"" << s.name
      << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": "
      << JsonNumber(s.ts_us) << ", \"dur\": " << JsonNumber(s.dur_us)
      << ", \"args\": {\"id\": " << s.id;
    if (s.busy_ns >= 0) {
      o << ", \"busy_ns\": " << JsonNumber(s.busy_ns)
        << ", \"calls\": " << s.calls;
    }
    o << "}}";
  }
  o << "\n]}\n";
  return o.str();
}

/// The result object run.py relays as its last stdout line: the metrics of
/// one scope, named and with units as in BENCHMARK.json.
std::string ResultLine(const Report& r, Scope scope) {
  std::ostringstream o;
  o << "{\"correct\": " << Bool(r.correct())
    << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
    << ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : r.metrics) {
    if (m.scope != scope) continue;
    o << (first ? "" : ", ") << "\"" << m.name
      << "\": {\"value\": " << JsonNumber(m.value) << ", \"unit\": \""
      << m.unit << "\"}";
    first = false;
  }
  o << "}}";
  return o.str();
}

// ---------------------------------------------------------------------------
// Smoke check

/// Metric names listed under `key` ("end_to_end" / "per_layer") in a
/// BENCHMARK.json: the `"name"` members inside that key's array.
std::vector<std::string> BenchmarkMetricNames(const std::string& json,
                                              const std::string& key) {
  std::vector<std::string> names;
  const size_t at = json.find("\"" + key + "\"");
  if (at == std::string::npos) return names;
  const size_t open = json.find('[', at);
  const size_t close = json.find(']', open);
  if (open == std::string::npos || close == std::string::npos) return names;
  const std::string body = json.substr(open, close - open);
  static const std::regex kName("\"name\"\\s*:\\s*\"([^\"]+)\"");
  for (std::sregex_iterator it(body.begin(), body.end(), kName), end;
       it != end; ++it) {
    names.push_back((*it)[1]);
  }
  return names;
}

/// Runs every workload twice at 1/16 size with 0.5 s windows and checks the
/// invariants the benchmark relies on. Makes no wall-clock assertion.
int Smoke(const std::string& benchmark_json_path, const LayerClock& clock) {
  std::ifstream in(benchmark_json_path);
  std::stringstream text;
  text << in.rdbuf();
  std::vector<std::string> required =
      BenchmarkMetricNames(text.str(), "end_to_end");
  for (const std::string& name :
       BenchmarkMetricNames(text.str(), "per_layer")) {
    required.push_back(name);
  }
  int problems = 0;
  auto fail = [&problems](const std::string& what) {
    std::fprintf(stderr, "smoke: FAIL %s\n", what.c_str());
    ++problems;
  };
  if (required.empty()) fail("no metric names in " + benchmark_json_path);

  const Phases phases{0.5, 0.1, 0.1};
  for (const Workload& spec : Workloads()) {
    const Report a = RunWorkload(spec, 7, 1.0 / 16, phases, clock);
    const Report b = RunWorkload(spec, 7, 1.0 / 16, phases, clock);
    const std::string w = spec.name;
    for (const Report* r : {&a, &b}) {
      if (r->failed != 0) fail(w + ": fail_ratio != 0");
      if (!r->traced_hash_match) {
        fail(w + ": traced output hash differs from untraced");
      }
    }
    for (const std::string& name : required) {
      if (a.Find(name) == nullptr) fail(w + ": metric " + name + " missing");
    }
    for (const Metric& m : a.metrics) {
      const Metric* other = b.Find(m.name);
      if (m.count && (other == nullptr || other->value != m.value)) {
        fail(w + ": count " + m.name + " differs between two runs");
      }
    }
    std::printf("smoke: %s checked (%zu metrics)\n", w.c_str(),
                a.metrics.size());
  }
  if (problems > 0) return 1;
  std::printf("smoke: OK\n");
  return 0;
}

// ---------------------------------------------------------------------------

int Usage() {
  std::fprintf(stderr,
               "usage: bench_gcx [--workload NAME] [--seed N] [--seconds S] "
               "[--trace 0|1] [--out DIR]\n"
               "       bench_gcx --smoke --benchmark-json PATH\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) return Usage();
    arg = arg.substr(2);
    const size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      args[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (arg == "smoke") {
      args[arg] = "1";
    } else if (i + 1 < argc) {
      args[arg] = argv[++i];
    } else {
      return Usage();
    }
  }
  for (const auto& [key, value] : args) {
    if (key != "workload" && key != "seed" && key != "seconds" &&
        key != "trace" && key != "out" && key != "smoke" &&
        key != "benchmark-json") {
      return Usage();
    }
  }

  const LayerClock clock;
  if (args.count("smoke")) {
    if (!args.count("benchmark-json")) return Usage();
    return Smoke(args["benchmark-json"], clock);
  }

  const uint64_t seed =
      args.count("seed") ? std::strtoull(args["seed"].c_str(), nullptr, 10)
                         : 42;
  const double seconds =
      args.count("seconds") ? std::atof(args["seconds"].c_str()) : 20;
  if (!(seconds > 0)) return Usage();
  std::string mode = "full";
  Phases phases{seconds, seconds / 4, seconds / 4};
  if (args.count("trace")) {
    if (args["trace"] == "0") {
      mode = "end_to_end";
      phases = {seconds, 0, 0};
    } else if (args["trace"] == "1") {
      mode = "per_layer";
      phases = {seconds / 2, seconds / 4, seconds / 4};
    } else {
      return Usage();
    }
  }
  std::vector<const Workload*> selected;
  for (const Workload& w : Workloads()) {
    if (!args.count("workload") || args["workload"] == w.name) {
      selected.push_back(&w);
    }
  }
  if (selected.empty()) {
    std::fprintf(stderr, "unknown workload %s\n", args["workload"].c_str());
    return Usage();
  }
  const std::string out_dir = args.count("out") ? args["out"] + "/" : "";

  std::vector<Report> reports;
  for (const Workload* w : selected) {
    reports.push_back(RunWorkload(*w, seed, 1.0, phases, clock));
    const Report& r = reports.back();
    for (const Metric& m : r.metrics) {
      std::printf("%-13s %-30s %16.6f %s\n", r.workload.c_str(),
                  m.name.c_str(), m.value, m.unit.c_str());
    }
    std::fflush(stdout);
  }

  bool written = WriteFile(out_dir + "BENCH_gcx.json",
                           BenchJson(reports, seed, seconds, mode));
  for (const Report& r : reports) {
    if (r.traced) {
      written &= WriteFile(out_dir + "TRACE_gcx_" + r.workload + ".json",
                           TraceJson(r));
    }
  }
  if (!written) return 1;
  if (reports.size() == 1) {
    const Scope scope = mode == "per_layer" ? Scope::kLayer : Scope::kEndToEnd;
    std::printf("%s\n", ResultLine(reports.front(), scope).c_str());
  }
  return 0;
}
