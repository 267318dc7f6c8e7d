// `pcbl profile <data.csv>` — the data-profiling entry point: row count and
// per-attribute distinct counts, nulls, entropy, and modal values. This is
// the information an analyst inspects before choosing a label bound.
//
// `--pairs N` extends the profile with the pairwise label sizes |P_{i,j}|
// of every attribute pair, answered by a pcbl::api Session profile query
// (one parallel sizing batch through the dataset's shared counting
// service) — precisely the quantities that determine which subsets fit a
// bound B_s (the smallest pairs are the seeds of every within-bound
// label). The Dataset acquires its service from the process-wide
// registry (a re-profile of the same data sizes from the warm cache) and
// the registry's hit/miss/resident-bytes counters are reported with the
// pairs. `--threads` and `--cache-budget` configure the session exactly
// as in `pcbl build`; `--service-budget` bounds the registry's
// process-wide cache memory.
#include <algorithm>
#include <memory>
#include <ostream>
#include <vector>

#include "api/dataset.h"
#include "api/query.h"
#include "api/session.h"
#include "cli/commands.h"
#include "cli/common.h"
#include "harness/tablefmt.h"
#include "pattern/service_registry.h"
#include "relation/stats.h"
#include "util/str.h"

namespace pcbl {
namespace cli {

namespace {
constexpr char kUsage[] =
    "usage: pcbl profile <data.csv> [flags]\n"
    "\n"
    "Prints per-attribute statistics of a CSV dataset: distinct values,\n"
    "null count, Shannon entropy, and the most common value.\n"
    "\n"
    "flags:\n"
    "  --pairs N          also print the N smallest pairwise label sizes\n"
    "                     |P_S| over all attribute pairs (0 = all pairs);\n"
    "                     these are the candidate seeds of a bound-B_s\n"
    "                     label search\n"
    "  --threads N        worker threads for CSV parsing and the pairwise\n"
    "                     sizing batch (0 = all hardware threads)\n"
    "  --cache-budget N   engine memoization budget in cached group\n"
    "                     entries (0 disables memoization)\n"
    "  --service-budget N process-wide memory budget (bytes) on the\n"
    "                     counting-service registry's caches\n"
    "                     (0 = unbounded)\n"
    "  --no-result-cache  bypass the whole-query result tier for the\n"
    "                     pairwise sizing (results are identical either\n"
    "                     way)\n"
    "  --result-cache-budget N\n"
    "                     byte budget of the per-service result cache\n"
    "                     (0 = dedup only, cache nothing)\n"
    "  --kernel K         SIMD sizing-kernel ISA for the pairwise sizing:\n"
    "                     scalar, avx2, neon, or auto (default)\n"
    "  --min-rows-per-morsel N\n"
    "                     minimum rows per morsel for intra-subset\n"
    "                     parallel scans (0 disables)\n"
    "  --spill-dir DIR    warm-start spill directory: restores the\n"
    "                     dataset's cached PC sets before sizing and\n"
    "                     spills them back before exit (valid without\n"
    "                     --pairs — it configures the dataset itself)\n";
}  // namespace

int CmdProfile(const Args& args, std::ostream& out, std::ostream& err) {
  if (args.GetBool("help")) {
    out << kUsage;
    return kExitOk;
  }
  if (Status s = args.CheckKnown({"help", "pairs", "threads",
                                  "cache-budget", "service-budget",
                                  "no-result-cache", "result-cache-budget",
                                  "kernel", "min-rows-per-morsel",
                                  "spill-dir"});
      !s.ok()) {
    return FailWith(s, "profile", err);
  }
  if (Status s = args.RequirePositional(1, "pcbl profile <data.csv>");
      !s.ok()) {
    return FailWith(s, "profile", err);
  }
  auto flags = ParseServiceFlags(args);
  if (!flags.ok()) return FailWith(flags.status(), "profile", err);
  // --spill-dir is exempt from the require-pairs rule: it configures the
  // dataset's service (restore on acquire, spill on exit), which happens
  // whether or not the pairwise sizing runs.
  const bool sizing_flags_given =
      args.Has("threads") || args.Has("cache-budget") || args.Has("service-budget") ||
      args.Has("no-result-cache") || args.Has("result-cache-budget") ||
      args.Has("kernel") || args.Has("min-rows-per-morsel");
  if (!args.Has("pairs") && sizing_flags_given) {
    return FailWith(
        InvalidArgumentError("--threads/--cache-budget/"
                             "--service-budget/--no-result-cache/"
                             "--result-cache-budget/--kernel/"
                             "--min-rows-per-morsel require --pairs"),
        "profile", err);
  }
  auto pairs_limit = args.GetInt("pairs", 20);
  if (!pairs_limit.ok()) return FailWith(pairs_limit.status(), "profile", err);

  auto dataset =
      api::Dataset::FromCsvFile(args.positional()[0],
                                flags->ToDatasetOptions());
  if (!dataset.ok()) return FailWith(dataset.status(), "profile", err);
  const Table& table = dataset->table();

  out << args.positional()[0] << ": "
      << WithThousandsSeparators(table.num_rows()) << " rows, "
      << table.num_attributes() << " attributes\n\n";
  harness::TextTable grid(
      {"attribute", "distinct", "nulls", "entropy", "top value", "top count"});
  for (const AttributeSummary& a : SummarizeAttributes(table)) {
    grid.AddRowValues(a.name, a.distinct_values, a.null_count,
                      StrFormat("%.2f", a.entropy_bits), a.top_value,
                      a.top_count);
  }
  out << grid.ToMarkdown();

  if (!args.Has("pairs")) {
    // Even without the pairwise sizing the acquire may have warmed the
    // service from the spill; persist whatever is resident before exit.
    if (!flags->spill_dir.empty()) {
      ServiceRegistry::Global().SpillResident();
    }
    return kExitOk;
  }

  auto session = api::Session::Open(*dataset, flags->ToSessionOptions());
  if (!session.ok()) return FailWith(session.status(), "profile", err);
  const api::QueryResult query = (*session)->Run(api::QuerySpec::Profile());
  if (!query.status.ok()) return FailWith(query.status, "profile", err);

  std::vector<size_t> order(query.pairs.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return query.pairs[a].size < query.pairs[b].size;
  });
  const size_t limit = *pairs_limit > 0
                           ? std::min<size_t>(order.size(),
                                              static_cast<size_t>(*pairs_limit))
                           : order.size();
  out << "\npairwise label sizes (" << limit << " smallest of "
      << query.pairs.size() << " pairs, "
      << (*session)->options().num_threads << " threads)\n";
  harness::TextTable pair_grid({"pair", "|P_S|", "dense space"});
  for (size_t i = 0; i < limit; ++i) {
    const api::PairwiseSize& p = query.pairs[order[i]];
    const int64_t space =
        static_cast<int64_t>(table.DomainSize(p.attr_a)) *
        static_cast<int64_t>(table.DomainSize(p.attr_b));
    pair_grid.AddRowValues(
        StrCat(table.schema().name(p.attr_a), " x ",
               table.schema().name(p.attr_b)),
        p.size, space);
  }
  out << pair_grid.ToMarkdown();
  out << FormatSizingConfig(*flags);
  // Spill the warmed service back before the stats print so the line
  // already reflects the spilled bytes (docs/PERSISTENCE.md).
  if (!flags->spill_dir.empty()) {
    ServiceRegistry::Global().SpillResident();
  }
  out << FormatRegistryStats();
  return kExitOk;
}

}  // namespace cli
}  // namespace pcbl
