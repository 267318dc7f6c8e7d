// `pcbl estimate <label> --pattern "attr=value,..."` — answers a pattern
// count query from a saved label alone, exactly the consumer-side use the
// paper envisages (a judge asking "how many Hispanic women does this
// training set contain?" without access to the data). Routed through the
// pcbl::api façade: the label side via api/artifact.h, the data side via
// a Dataset/Session true-count query.
//
// With `--data <csv>` the command additionally computes the *true* count
// through the dataset's shared counting service — the Dataset acquires
// it from the process-wide registry, so repeated spot checks over the
// same data reuse one warm cache — and reports the estimation error plus
// the registry's hit/miss/resident-bytes counters. `--threads` and
// `--cache-budget` configure the session exactly as in `pcbl build`;
// `--service-budget` bounds the registry's process-wide cache memory.
#include <cmath>
#include <memory>
#include <ostream>
#include <utility>

#include "api/artifact.h"
#include "api/dataset.h"
#include "api/query.h"
#include "api/session.h"
#include "cli/commands.h"
#include "cli/common.h"
#include "pattern/service_registry.h"
#include "util/str.h"

namespace pcbl {
namespace cli {

namespace {
constexpr char kUsage[] =
    "usage: pcbl estimate <label.{json,bin}> --pattern \"a=x,b=y\" [flags]\n"
    "\n"
    "Estimates the count of the given attribute-value combination from the\n"
    "label (Definition 2.11). Attribute and value strings must match the\n"
    "labeled dataset's.\n"
    "\n"
    "flags:\n"
    "  --data FILE        also compute the true count from this CSV and\n"
    "                     report the estimation error\n"
    "  --threads N        worker threads that parse --data and run the\n"
    "                     counting service's true count (0 = all\n"
    "                     hardware threads)\n"
    "  --cache-budget N   engine memoization budget in cached group\n"
    "                     entries (0 disables memoization)\n"
    "  --service-budget N process-wide memory budget (bytes) on the\n"
    "                     counting-service registry's caches\n"
    "                     (0 = unbounded)\n"
    "  --no-result-cache  bypass the whole-query result tier for the\n"
    "                     true count (results are identical either way)\n"
    "  --result-cache-budget N\n"
    "                     byte budget of the per-service result cache\n"
    "                     (0 = dedup only, cache nothing)\n"
    "  --kernel K         SIMD sizing-kernel ISA for the true count:\n"
    "                     scalar, avx2, neon, or auto (default)\n"
    "  --min-rows-per-morsel N\n"
    "                     minimum rows per morsel for intra-subset\n"
    "                     parallel scans (0 disables)\n"
    "  --spill-dir DIR    warm-start spill directory for the true-count\n"
    "                     service: restores its cached PC sets before\n"
    "                     the query and spills them back before exit\n";
}  // namespace

int CmdEstimate(const Args& args, std::ostream& out, std::ostream& err) {
  if (args.GetBool("help")) {
    out << kUsage;
    return kExitOk;
  }
  if (Status s = args.CheckKnown({"help", "pattern", "data", "threads",
                                  "cache-budget",
                                  "service-budget", "no-result-cache",
                                  "result-cache-budget", "kernel",
                                  "min-rows-per-morsel", "spill-dir"});
      !s.ok()) {
    return FailWith(s, "estimate", err);
  }
  if (Status s = args.RequirePositional(
          1, "pcbl estimate <label> --pattern \"a=x,b=y\"");
      !s.ok()) {
    return FailWith(s, "estimate", err);
  }
  const std::string pattern_text = args.GetString("pattern");
  if (pattern_text.empty()) {
    return FailWith(InvalidArgumentError("--pattern is required"), "estimate",
                    err);
  }
  auto flags = ParseServiceFlags(args);
  if (!flags.ok()) return FailWith(flags.status(), "estimate", err);
  const std::string data_path = args.GetString("data");
  if (data_path.empty() && flags->any) {
    return FailWith(
        InvalidArgumentError("--threads/--cache-budget/"
                             "--service-budget/--no-result-cache/"
                             "--result-cache-budget/--kernel/"
                             "--min-rows-per-morsel require --data"),
        "estimate", err);
  }
  auto terms = ParseNamedPattern(pattern_text);
  if (!terms.ok()) return FailWith(terms.status(), "estimate", err);
  auto label = api::LoadLabelArtifact(args.positional()[0]);
  if (!label.ok()) return FailWith(label.status(), "estimate", err);
  const api::LabelArtifact artifact(std::move(*label));

  auto estimate = api::EstimateFromLabel(artifact, *terms);
  if (!estimate.ok()) return FailWith(estimate.status(), "estimate", err);

  const double share =
      artifact.total_rows() > 0
          ? *estimate / static_cast<double>(artifact.total_rows())
          : 0.0;
  out << "pattern:   " << pattern_text << "\n";
  out << StrFormat("estimate:  %.2f (~%lld of %lld rows, %s)\n", *estimate,
                   static_cast<long long>(std::llround(*estimate)),
                   static_cast<long long>(artifact.total_rows()),
                   PercentString(share).c_str());

  if (!data_path.empty()) {
    auto dataset =
        api::Dataset::FromCsvFile(data_path, flags->ToDatasetOptions());
    if (!dataset.ok()) return FailWith(dataset.status(), "estimate", err);
    auto session =
        api::Session::Open(*dataset, flags->ToSessionOptions());
    if (!session.ok()) return FailWith(session.status(), "estimate", err);
    const api::QueryResult query =
        (*session)->Run(api::QuerySpec::TrueCount(*terms));
    if (!query.status.ok()) return FailWith(query.status, "estimate", err);
    const int64_t actual = query.true_count;
    const double abs_err =
        std::abs(*estimate - static_cast<double>(actual));
    const double q_err =
        std::max(std::max(*estimate, 1.0),
                 std::max(static_cast<double>(actual), 1.0)) /
        std::min(std::max(*estimate, 1.0),
                 std::max(static_cast<double>(actual), 1.0));
    out << StrFormat("actual:    %lld (from %s)\n",
                     static_cast<long long>(actual), data_path.c_str());
    out << StrFormat("abs error: %.2f\n", abs_err);
    out << StrFormat("q-error:   %.2f\n", q_err);
    out << FormatSizingConfig(*flags);
    // Spill the warmed service back before the stats print so the line
    // already reflects the spilled bytes (docs/PERSISTENCE.md).
    if (!flags->spill_dir.empty()) {
      ServiceRegistry::Global().SpillResident();
    }
    out << FormatRegistryStats();
  }
  return kExitOk;
}

}  // namespace cli
}  // namespace pcbl
