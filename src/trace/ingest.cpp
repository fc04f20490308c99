#include "trace/ingest.h"

#include <algorithm>
#include <charconv>
#include <filesystem>
#include <memory>
#include <string_view>
#include <system_error>
#include <utility>
#include <vector>

#include "io/mapped_file.h"
#include "io/parallel_for.h"
#include "trace/chrome_trace.h"
#include "trace/event_table.h"

namespace lumos::trace {

namespace {

namespace fs = std::filesystem;

/// Parses the numeric rank out of a matched filename segment. Returns false
/// when the segment between "<stem>_rank" and ".json" is not a plain
/// (optionally negative) integer — such files are not rank files.
bool parse_rank_segment(std::string_view segment, std::int64_t& rank) {
  if (segment.empty()) return false;
  const char* first = segment.data();
  const char* last = segment.data() + segment.size();
  const auto [ptr, ec] = std::from_chars(first, last, rank);
  return ec == std::errc{} && ptr == last;
}

}  // namespace

std::vector<RankFile> discover_rank_files(const std::string& prefix,
                                          std::size_t num_ranks) {
  const fs::path prefix_path(prefix);
  const fs::path dir = prefix_path.has_parent_path() ? prefix_path.parent_path()
                                                     : fs::path(".");
  const std::string stem = prefix_path.filename().string() + "_rank";
  constexpr std::string_view kExt = ".json";

  // One batched scan: match, parse the rank and stat the size per entry.
  // directory_iterator throws fs::filesystem_error on a missing/unreadable
  // dir; the error_code overload lets us surface it as a structured kind.
  std::error_code ec;
  fs::directory_iterator it(dir, ec);
  if (ec) {
    throw IngestError(IngestErrorKind::kMissingDirectory, dir.string(),
                      "chrome_trace: cannot read trace directory '" +
                          dir.string() + "' for prefix " + prefix + ": " +
                          ec.message());
  }
  std::vector<RankFile> files;
  for (const fs::directory_entry& entry : it) {
    const std::string name = entry.path().filename().string();
    if (name.size() <= stem.size() + kExt.size()) continue;
    if (name.compare(0, stem.size(), stem) != 0) continue;
    if (name.compare(name.size() - kExt.size(), kExt.size(), kExt) != 0) {
      continue;
    }
    std::int64_t rank = 0;
    const std::string_view segment(name.data() + stem.size(),
                                   name.size() - stem.size() - kExt.size());
    if (!parse_rank_segment(segment, rank)) continue;
    std::error_code size_ec;
    const std::uintmax_t bytes = entry.file_size(size_ec);
    files.push_back(RankFile{entry.path().string(), rank,
                             size_ec ? 0 : static_cast<std::uint64_t>(bytes)});
  }
  // Numeric rank order up front — workers are assigned ranks in canonical
  // order and the reader needs no post-ingest re-sort. (The old
  // lexicographic file sort put rank 10 before rank 2.)
  std::sort(files.begin(), files.end(),
            [](const RankFile& a, const RankFile& b) {
              if (a.rank != b.rank) return a.rank < b.rank;
              return a.path < b.path;
            });
  if (files.empty()) {
    throw IngestError(IngestErrorKind::kNoMatchingFiles, prefix,
                      "chrome_trace: no files matching " + prefix +
                          "_rank*.json");
  }
  if (num_ranks > 0 && files.size() != num_ranks) {
    throw IngestError(IngestErrorKind::kRankCountMismatch, prefix,
                      "chrome_trace: expected " + std::to_string(num_ranks) +
                          " rank files for " + prefix + ", found " +
                          std::to_string(files.size()));
  }
  return files;
}

namespace {

/// Parses one rank file into `trace` (whatever pools its EventTable is
/// bound to). The mapping lives for the parse only; every token is
/// interned into the pools before it returns.
void parse_rank_file(const RankFile& file, RankTrace& trace) {
  const io::MappedFile mapped = io::MappedFile::open(file.path);
  parse_rank_trace_json(mapped.view(), trace);
}

/// The merge step: re-homes a privately-parsed rank onto the cluster's
/// shared pools and appends it. Must be called in sorted-rank file order —
/// first-intern-order ids make that sequence reproduce the serial parse's
/// id assignment exactly (see ingest.h).
void merge_rank(ClusterTrace& cluster, RankTrace&& parsed) {
  RankTrace& dst = cluster.add_rank(parsed.rank);
  const std::shared_ptr<TracePools>& shared = cluster.shared_pools();
  const std::shared_ptr<TracePools>& priv = parsed.events.pools();
  const std::vector<std::uint32_t> name_map =
      shared->names.merge_from(priv->names);
  const std::vector<std::uint32_t> op_map = shared->ops.merge_from(priv->ops);
  const std::vector<std::uint32_t> group_map =
      shared->groups.merge_from(priv->groups);
  parsed.events.rebind_pools(shared, name_map, op_map, group_map);
  dst.events = std::move(parsed.events);
}

}  // namespace

ClusterTrace read_cluster_trace(const std::string& prefix,
                                std::size_t num_ranks, const IoOptions& io) {
  const std::vector<RankFile> files = discover_rank_files(prefix, num_ranks);
  const std::size_t workers =
      io::resolve_workers(io.ingest_workers, files.size());

  ClusterTrace trace;
  trace.ranks.reserve(files.size());

  if (workers <= 1) {
    // Serial path (one file, one core, or an explicit ingest_workers=1):
    // every rank interns straight into the shared pools, no merge needed.
    for (const RankFile& file : files) {
      parse_rank_file(file, trace.add_rank(0));
    }
    return trace;
  }

  // Fan the files over the pool. Workers share nothing mutable: each
  // parses into its own slot — a fresh RankTrace whose EventTable owns
  // private TracePools — through its own MappedFile.
  std::vector<RankTrace> parsed(files.size());
  io::parallel_for(files.size(), workers, [&](std::size_t i) {
    parse_rank_file(files[i], parsed[i]);
  });

  // Deterministic merge, single-threaded, in sorted-rank file order —
  // worker completion order cannot influence the shared pool's ids.
  for (RankTrace& rank : parsed) merge_rank(trace, std::move(rank));
  return trace;
}

}  // namespace lumos::trace
