// Sharded document execution: split one stored document at subtree
// boundaries and scan the shards on parallel workers.
//
// The streaming engines are scan-bound on selective queries — the scanner
// plus the merged-DFA prefilter touch every byte while the per-query
// pipelines see only the projected remainder. For a STORED document (bytes
// fully available, as in the admission controller's registered-content
// path) that scan is parallelizable: a cheap structural pre-pass
// (PlanShards) finds element-start boundaries that split the document into
// contiguous byte slices, and each slice is scanned by its own worker on a
// private SharedScanDemux (scanner + merged-DFA prefilter + replay log,
// core/multi_engine.cc) over one shared SymbolTable.
//
// Correctness model. Only the scan/prefilter phase (plus the evaluation of
// provably shard-local queries) is parallelized; the shard logs are spliced
// back in document order into one replay log, and the remaining per-query
// evaluators run serially over it exactly as in an unsharded batch, so
// outputs are byte-identical to the unsharded scan (evaluation order,
// buffer GC and output formatting are untouched). A worker reconstructs the
// stream context at its boundary by scanning synthetic wrappers: the slice
// is framed as
//
//     <a><b>  ...slice bytes...  </c></a>
//
// where <a><b> re-opens the element path entering the slice and </c></a>
// closes the path open at its end (the document is well-formed, so the
// framed slice is too). The wrapper events re-build both the scanner's
// balance stack and the prefilter's DFA frame stack — transitions are
// deterministic, so every skip decision matches what the unsharded scan
// decides at the same position. Filter-surviving wrappers are logged like
// any other event, so each shard log is a balanced stream by itself (what
// shard-local evaluation replays). The splice drops them by one count per
// seam: the log length when a shard's scanner has produced its entry
// path's start events. The same path closes the previous shard and the
// filter is deterministic, so that shard logged exactly as many exit
// wrappers. Boundaries sit only at element starts, so no text run, tag or
// entity is ever split.
//
// Failure model. PlanShards is purely lexical and never fails: a document
// it cannot shard safely (too small, structurally dubious, no usable
// boundaries) yields `sharded == false` and the caller falls back to the
// ordinary single scan — which also surfaces the exact scanner error for
// malformed input. A scan error inside a shard is reported from the
// earliest shard in document order, with document-accurate line numbers
// (ScannerOptions::start_line).

#ifndef GCX_CORE_SHARD_H_
#define GCX_CORE_SHARD_H_

#include <atomic>
#include <cstddef>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "xml/scanner.h"
#include "xpath/path.h"

namespace gcx {

/// Knobs for sharded execution.
struct ShardOptions {
  /// Requested number of shards; <= 1 disables sharding.
  size_t shards = 1;
  /// Documents smaller than shards * min_shard_bytes are not split (the
  /// planner pass and thread fan-out would cost more than they save).
  size_t min_shard_bytes = 64 * 1024;
  /// Boundaries are only placed at element starts at most this deep (the
  /// synthetic wrapper replays one start event per ancestor).
  size_t max_boundary_depth = 8;
  /// Worker threads; 0 = one per shard, capped at hardware concurrency.
  size_t threads = 0;
  /// Evaluate provably subtree-independent queries inside the shard
  /// workers (merging per-query results) instead of replaying a merged
  /// event log. Queries the classifier cannot prove independent keep the
  /// merge-and-replay path either way; false forces merge-and-replay for
  /// everything (test/bench seam).
  bool local_eval = true;
  /// Test seam: wraps the exact byte sequence a shard scans (synthetic
  /// prefix + slice + synthetic suffix) in a custom ByteSource — e.g. a
  /// would-block stall injector. Unset: an internal zero-copy source.
  std::function<std::unique_ptr<ByteSource>(std::string)> wrap_source;
};

/// One planned shard: the half-open byte range [begin, end) of the
/// document plus the element paths open at its edges (outermost first).
/// entry_path is empty only for the first shard (it starts at the document
/// head, prolog included); exit_path is empty only for the last.
struct ShardSlice {
  size_t begin = 0;
  size_t end = 0;
  int start_line = 1;  ///< 1-based document line of `begin`
  std::vector<std::string> entry_path;
  std::vector<std::string> exit_path;
};

struct ShardPlan {
  bool sharded = false;  ///< false: run the ordinary single scan instead
  std::vector<ShardSlice> slices;
};

/// Structural pre-pass splitting `doc` into up to `options.shards` slices
/// of roughly even size at element-start boundaries. Mirrors the scanner's
/// lexical rules (comments, CDATA, PIs, DOCTYPE, quoted attribute values)
/// and validates tag nesting along the way; any irregularity disables
/// sharding rather than failing. Candidate boundaries whose open-element
/// stack could complete one of `avoid_paths` at a prefix (see
/// analysis/shard_classifier.h) are skipped, so shard-local queries stay
/// eligible.
ShardPlan PlanShards(std::string_view doc, const ShardOptions& options,
                     const std::vector<RelativePath>& avoid_paths = {});

/// Shared fail-fast flag for one sharded run. A failing shard records its
/// index (CAS-min, so the EARLIEST failing shard in document order wins
/// among those that fail); shards strictly AFTER a recorded failure abort
/// their scan promptly. Shards before it always run to completion, so the
/// in-order status sweep reports exactly the error the single scan would.
struct ShardAbort {
  std::atomic<size_t> first_failed{std::numeric_limits<size_t>::max()};

  void Fail(size_t shard_index) {
    size_t seen = first_failed.load(std::memory_order_relaxed);
    while (shard_index < seen &&
           !first_failed.compare_exchange_weak(seen, shard_index,
                                               std::memory_order_relaxed)) {
    }
  }
  bool ShouldAbort(size_t shard_index) const {
    return first_failed.load(std::memory_order_relaxed) < shard_index;
  }
};

}  // namespace gcx

#endif  // GCX_CORE_SHARD_H_
