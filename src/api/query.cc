#include "api/query.h"

#include <algorithm>

#include "util/hash.h"
#include "util/str.h"

namespace pcbl {
namespace api {

Status ValidateQuerySpec(const QuerySpec& spec) {
  if (spec.size_bound < 0) {
    return InvalidArgumentError(
        StrCat("size_bound must be non-negative, got ", spec.size_bound));
  }
  if (spec.time_limit_seconds < 0) {
    return InvalidArgumentError("time_limit_seconds must be non-negative");
  }
  if (spec.num_threads.has_value() && *spec.num_threads <= 0) {
    return InvalidArgumentError(
        StrCat("num_threads must be positive, got ", *spec.num_threads,
               " (zero worker threads cannot run a query)"));
  }
  if (spec.counting_cache_budget.has_value() &&
      *spec.counting_cache_budget < 0) {
    return InvalidArgumentError("counting_cache_budget must be >= 0");
  }
  if (spec.min_rows_per_morsel.has_value() &&
      *spec.min_rows_per_morsel < 0) {
    return InvalidArgumentError(
        "min_rows_per_morsel must be >= 0 (0 disables intra-subset "
        "parallelism)");
  }
  if (spec.kind == QuerySpec::Kind::kTrueCount && spec.pattern.empty()) {
    return InvalidArgumentError(
        "a true-count query needs at least one attr=value term");
  }
  if (spec.kind != QuerySpec::Kind::kTrueCount && !spec.pattern.empty()) {
    return InvalidArgumentError(
        "pattern terms are only meaningful on a true-count query");
  }
  if (spec.kind != QuerySpec::Kind::kLabelSearch && !spec.focus.empty()) {
    return InvalidArgumentError(
        "focus attributes are only meaningful on a label-search query");
  }
  if (spec.result_cache_budget.has_value() &&
      *spec.result_cache_budget < 0) {
    return InvalidArgumentError("result_cache_budget must be >= 0");
  }
  if (spec.use_result_cache.has_value() && !*spec.use_result_cache &&
      spec.result_cache_budget.has_value() &&
      *spec.result_cache_budget > 0) {
    return InvalidArgumentError(
        "conflicting result-cache flags: a disabled result cache cannot "
        "honour a positive byte budget");
  }
  return Status::Ok();
}

bool QuerySpecCacheable(const QuerySpec& spec) {
  return spec.time_limit_seconds == 0.0;
}

namespace {

// Two independently seeded lanes over the canonical field stream, the
// same construction (and for the same reason) as FingerprintTable's.
struct KeyLanes {
  uint64_t lo = 0x9216d5d98979fb1bULL;  // pi digits, further along
  uint64_t hi = 0xd1310ba698dfb5acULL;

  void Mix(uint64_t v) {
    lo = HashCombine(lo, v);
    hi = HashCombine(hi, v ^ 0x2ffd72dbd01adfb7ULL);
  }
  void MixString(const std::string& s) {
    Mix(s.size());
    for (char c : s) Mix(static_cast<uint64_t>(static_cast<uint8_t>(c)));
  }
};

}  // namespace

QueryResultKey CanonicalQueryKey(const QuerySpec& spec,
                                 const TableFingerprint& fingerprint) {
  KeyLanes lanes;
  lanes.Mix(fingerprint.lo);
  lanes.Mix(fingerprint.hi);
  lanes.Mix(static_cast<uint64_t>(spec.kind));
  switch (spec.kind) {
    case QuerySpec::Kind::kLabelSearch:
      lanes.Mix(static_cast<uint64_t>(spec.algorithm));
      lanes.Mix(static_cast<uint64_t>(spec.size_bound));
      lanes.Mix(static_cast<uint64_t>(spec.metric));
      lanes.Mix(spec.record_candidates ? 1 : 0);
      lanes.Mix(spec.focus.bits());
      break;
    case QuerySpec::Kind::kTrueCount: {
      // Terms sorted by (name, value): a pattern is a set, so two
      // orderings of the same terms must key identically.
      std::vector<std::pair<std::string, std::string>> terms =
          spec.pattern;
      std::sort(terms.begin(), terms.end());
      lanes.Mix(terms.size());
      for (const auto& [name, value] : terms) {
        lanes.MixString(name);
        lanes.MixString(value);
      }
      break;
    }
    case QuerySpec::Kind::kProfile:
      break;
  }
  return QueryResultKey{lanes.lo, lanes.hi};
}

int64_t ApproxQueryResultBytes(const QueryResult& result) {
  int64_t bytes = static_cast<int64_t>(sizeof(QueryResult)) + 64;
  // The label's PC set (keys + counts) plus its estimation accelerators
  // (encoded keys dominate; the per-attribute tables are schema-sized).
  const GroupCounts& pc = result.search.label.pattern_counts();
  bytes += pc.num_groups() *
           (static_cast<int64_t>(pc.key_width()) *
                static_cast<int64_t>(sizeof(ValueId)) +
            2 * static_cast<int64_t>(sizeof(int64_t)));
  bytes += static_cast<int64_t>(result.search.candidates.size()) *
           static_cast<int64_t>(sizeof(CandidateInfo));
  bytes += static_cast<int64_t>(result.pairs.size()) *
           static_cast<int64_t>(sizeof(PairwiseSize));
  return bytes;
}

}  // namespace api
}  // namespace pcbl
