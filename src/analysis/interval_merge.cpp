#include "analysis/interval_merge.h"

#include <algorithm>
#include <array>

namespace lumos::analysis {

namespace {

/// merge_runs picks the next interval by scanning the run heads, which
/// pays while runs are few (one per GPU lane of a rank); past this many it
/// sorts the concatenation instead.
constexpr std::size_t kMaxRunHeads = 16;

bool begins_before(const Interval& a, const Interval& b) {
  return a.first < b.first;
}

/// The in-place merge sweep over intervals sorted by begin: `w` is the
/// last merged interval; each element either extends it or is appended.
/// Returns the union length.
std::int64_t sweep_merge(std::vector<Interval>& intervals) {
  std::size_t w = 0;
  std::int64_t total = 0;
  for (std::size_t i = 1; i < intervals.size(); ++i) {
    if (intervals[i].first <= intervals[w].second) {
      intervals[w].second = std::max(intervals[w].second, intervals[i].second);
    } else {
      total += intervals[w].second - intervals[w].first;
      intervals[++w] = intervals[i];
    }
  }
  total += intervals[w].second - intervals[w].first;
  intervals.resize(w + 1);
  return total;
}

}  // namespace

std::int64_t merge_intervals(std::vector<Interval>& intervals) {
  if (intervals.empty()) return 0;
  std::sort(intervals.begin(), intervals.end());
  return sweep_merge(intervals);
}

std::int64_t merge_runs(std::span<Interval> intervals,
                        std::span<const std::size_t> run_ends,
                        std::vector<Interval>& out) {
  out.clear();
  // Cursor [next, end) of each non-empty run.
  std::array<std::pair<std::size_t, std::size_t>, kMaxRunHeads> heads;
  std::size_t live = 0;
  std::size_t begin = 0;
  for (const std::size_t end : run_ends) {
    if (begin == end) continue;
    if (live == kMaxRunHeads) {
      out.assign(intervals.begin(), intervals.end());
      return merge_intervals(out);
    }
    const std::span<Interval> run = intervals.subspan(begin, end - begin);
    if (!std::is_sorted(run.begin(), run.end(), begins_before)) {
      std::sort(run.begin(), run.end(), begins_before);
    }
    heads[live++] = {begin, end};
    begin = end;
  }

  // The merge sweep of sweep_merge, fed in begin order from the heads.
  std::int64_t total = 0;
  while (live > 0) {
    std::size_t pick = 0;
    for (std::size_t h = 1; h < live; ++h) {
      if (intervals[heads[h].first].first <
          intervals[heads[pick].first].first) {
        pick = h;
      }
    }
    const Interval iv = intervals[heads[pick].first];
    if (++heads[pick].first == heads[pick].second) heads[pick] = heads[--live];
    if (!out.empty() && iv.first <= out.back().second) {
      out.back().second = std::max(out.back().second, iv.second);
    } else {
      if (!out.empty()) total += out.back().second - out.back().first;
      out.push_back(iv);
    }
  }
  if (!out.empty()) total += out.back().second - out.back().first;
  return total;
}

std::vector<Interval> gather_intervals(std::span<const std::int64_t> ts,
                                       std::span<const std::int64_t> dur,
                                       std::span<const std::uint32_t> select,
                                       std::int64_t clamp_begin,
                                       std::int64_t clamp_end) {
  const bool clamp = clamp_end > clamp_begin;
  std::vector<Interval> out;
  out.reserve(select.size());
  for (const std::uint32_t i : select) {
    std::int64_t lo = ts[i];
    std::int64_t hi = lo + dur[i];
    if (clamp) {
      lo = std::max(lo, clamp_begin);
      hi = std::min(hi, clamp_end);
    }
    if (lo < hi) out.emplace_back(lo, hi);
  }
  return out;
}

}  // namespace lumos::analysis
