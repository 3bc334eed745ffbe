#include "core/shard.h"

#include <algorithm>
#include <utility>

#include "analysis/shard_classifier.h"

namespace gcx {

namespace {

bool IsSpace(char c) {
  return c == ' ' || c == '\t' || c == '\r' || c == '\n';
}

// Mirrors the scanner's NameCharTable; being stricter than the scanner is
// fine (the planner then declines to shard and the single scan decides).
bool IsNameStart(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' ||
         c == ':';
}

}  // namespace

ShardPlan PlanShards(std::string_view doc, const ShardOptions& options,
                     const std::vector<RelativePath>& avoid_paths) {
  ShardPlan plan;  // sharded == false until proven otherwise
  const size_t want = options.shards;
  if (want <= 1) return plan;
  if (doc.size() < want * std::max<size_t>(options.min_shard_bytes, 1)) {
    return plan;
  }

  struct Boundary {
    size_t pos = 0;
    int line = 1;
    std::vector<std::string> path;
  };
  std::vector<Boundary> boundaries;
  std::vector<std::string_view> stack;  // open element names, views into doc
  bool seen_root = false;

  size_t pos = 0;
  int line = 1;
  // Boundary k wants the first eligible element start at byte >= k/want of
  // the document, so slices come out roughly even.
  size_t next_target = 1;
  // Multiply before dividing: `size / want * k` truncates once per target,
  // which systematically shifts every target down and oversizes the final
  // slice on non-divisible sizes.
  auto target_pos = [&](size_t k) { return doc.size() * k / want; };

  // A candidate boundary is unsafe when re-opening its stack could complete
  // one of the avoid paths at a prefix — a shard-local query's match would
  // straddle the cut (see analysis/shard_classifier.h).
  auto boundary_safe = [&](const std::vector<std::string_view>& open) {
    for (const RelativePath& avoid : avoid_paths) {
      if (EntryPathCompletesPath(avoid, open)) return false;
    }
    return true;
  };

  // All consumption goes through bump_to so the line counter stays exact.
  auto bump_to = [&](size_t end) {
    for (; pos < end; ++pos) {
      if (doc[pos] == '\n') ++line;
    }
  };
  // Advances past `needle` (searching from `from`); false if absent.
  auto skip_past = [&](std::string_view needle, size_t from) {
    size_t at = doc.find(needle, from);
    if (at == std::string_view::npos) return false;
    bump_to(at + needle.size());
    return true;
  };

  while (pos < doc.size()) {
    char c = doc[pos];
    if (c != '<') {
      if (c == '\n') ++line;
      ++pos;
      continue;
    }
    if (pos + 1 >= doc.size()) return plan;  // dangling '<'
    char d = doc[pos + 1];
    if (d == '!') {
      if (doc.compare(pos, 4, "<!--") == 0) {
        if (!skip_past("-->", pos + 4)) return plan;
      } else if (doc.compare(pos, 9, "<![CDATA[") == 0) {
        if (!skip_past("]]>", pos + 9)) return plan;
      } else {
        // DOCTYPE: same bracket-depth rule as the scanner ('['/'<' nest,
        // ']' closes, '>' at depth zero ends the declaration).
        size_t p = pos + 2;
        int depth = 0;
        bool closed = false;
        for (; p < doc.size(); ++p) {
          char e = doc[p];
          if (e == '[' || e == '<') {
            ++depth;
          } else if (e == ']') {
            --depth;
          } else if (e == '>' && depth <= 0) {
            closed = true;
            ++p;
            break;
          }
        }
        if (!closed) return plan;
        bump_to(p);
      }
      continue;
    }
    if (d == '?') {
      if (!skip_past("?>", pos + 2)) return plan;
      continue;
    }
    if (d == '/') {
      size_t p = pos + 2;
      size_t name_begin = p;
      while (p < doc.size() && doc[p] != '>' && !IsSpace(doc[p])) ++p;
      std::string_view name = doc.substr(name_begin, p - name_begin);
      while (p < doc.size() && IsSpace(doc[p])) ++p;
      if (p >= doc.size() || doc[p] != '>') return plan;
      if (name.empty() || stack.empty() || stack.back() != name) {
        return plan;  // mismatched close: the scanner owns the error
      }
      stack.pop_back();
      bump_to(p + 1);
      continue;
    }
    // Element start. The candidate boundary is this '<': the element and
    // its whole subtree belong to the NEXT slice, so no token is split.
    if (!IsNameStart(d)) return plan;
    if (stack.empty() && seen_root) return plan;  // second root
    if (!stack.empty() && stack.size() <= options.max_boundary_depth &&
        boundaries.size() + 1 < want && pos >= target_pos(next_target) &&
        boundary_safe(stack)) {
      Boundary boundary;
      boundary.pos = pos;
      boundary.line = line;
      boundary.path.assign(stack.begin(), stack.end());
      boundaries.push_back(std::move(boundary));
      while (next_target < want && target_pos(next_target) <= pos) {
        ++next_target;
      }
    }
    size_t p = pos + 1;
    size_t name_begin = p;
    while (p < doc.size() && !IsSpace(doc[p]) && doc[p] != '>' &&
           doc[p] != '/') {
      ++p;
    }
    std::string_view name = doc.substr(name_begin, p - name_begin);
    if (name.empty()) return plan;
    bool empty_element = false;
    bool closed = false;
    while (p < doc.size()) {
      char e = doc[p];
      if (e == '>') {
        closed = true;
        ++p;
        break;
      }
      if (e == '/') {
        if (p + 1 < doc.size() && doc[p + 1] == '>') {
          empty_element = true;
          closed = true;
          p += 2;
          break;
        }
        return plan;  // stray '/': the scanner owns the error
      }
      if (e == '"' || e == '\'') {
        size_t quote_end = doc.find(e, p + 1);
        if (quote_end == std::string_view::npos) return plan;
        p = quote_end + 1;
        continue;
      }
      ++p;
    }
    if (!closed) return plan;
    seen_root = true;
    if (!empty_element) stack.push_back(name);
    bump_to(p);
  }

  if (!stack.empty() || !seen_root) return plan;  // unbalanced / no root
  if (boundaries.empty()) return plan;            // nowhere to split

  plan.slices.reserve(boundaries.size() + 1);
  for (size_t i = 0; i <= boundaries.size(); ++i) {
    ShardSlice slice;
    slice.begin = i == 0 ? 0 : boundaries[i - 1].pos;
    slice.end = i == boundaries.size() ? doc.size() : boundaries[i].pos;
    slice.start_line = i == 0 ? 1 : boundaries[i - 1].line;
    if (i > 0) slice.entry_path = boundaries[i - 1].path;
    if (i < boundaries.size()) slice.exit_path = boundaries[i].path;
    plan.slices.push_back(std::move(slice));
  }
  plan.sharded = true;
  return plan;
}

}  // namespace gcx
