// `pcbl build <data.csv>` — runs the optimal-label search (Algorithm 1 by
// default, the naive enumeration on request) and optionally writes the
// resulting portable label to disk. Wired through the pcbl::api façade:
// the dataset's counting service comes from the process-wide registry,
// so repeated builds (and concurrent sessions) over content-equal data
// share one warm cache.
#include <memory>
#include <ostream>
#include <string>

#include "api/dataset.h"
#include "api/query.h"
#include "api/session.h"
#include "cli/commands.h"
#include "cli/common.h"
#include "core/portable_label.h"
#include "pattern/service_registry.h"
#include "persist/spill_store.h"
#include "util/str.h"

namespace pcbl {
namespace cli {

namespace {
constexpr char kUsage[] =
    "usage: pcbl build <data.csv> [flags]\n"
    "\n"
    "Searches the optimal label (Definition 2.15) for the dataset.\n"
    "\n"
    "flags:\n"
    "  --bound N          label size bound B_s (default 100)\n"
    "  --algo A           topdown (Algorithm 1, default) or naive\n"
    "  --metric M         max-abs (default), mean-abs, max-q, mean-q\n"
    "  --focus A,B,C      rank labels against the patterns over these\n"
    "                     (e.g. sensitive) attributes instead of P_A\n"
    "                     (Definition 2.15's custom pattern set)\n"
    "  --time-limit SECS  cap candidate generation (0 = unlimited)\n"
    "  --threads N        worker threads for CSV parsing and candidate\n"
    "                     sizing/ranking (0 = all hardware threads;\n"
    "                     results are identical for any value)\n"
    "  --cache-budget N   engine memoization budget in cached group\n"
    "                     entries (0 disables memoization)\n"
    "  --service-budget N process-wide memory budget (bytes) on the\n"
    "                     counting-service registry's caches\n"
    "                     (0 = unbounded)\n"
    "  --no-result-cache  bypass the whole-query result tier (identical\n"
    "                     in-flight queries dedup, identical repeats\n"
    "                     answer from cache; results are identical\n"
    "                     either way)\n"
    "  --result-cache-budget N\n"
    "                     byte budget of the per-service result cache\n"
    "                     (0 = dedup only, cache nothing)\n"
    "  --kernel K         SIMD sizing-kernel ISA: scalar, avx2, neon, or\n"
    "                     auto (default: best available for this host;\n"
    "                     results are identical for any choice)\n"
    "  --min-rows-per-morsel N\n"
    "                     minimum rows per morsel when one subset scan\n"
    "                     splits across threads (0 disables intra-subset\n"
    "                     parallelism; results are identical)\n"
    "  --spill-dir DIR    warm-start spill directory: restores the\n"
    "                     counting service's cached PC sets before the\n"
    "                     search, answers an identical repeat build from\n"
    "                     the spilled label artifact, and spills both\n"
    "                     back before exit\n"
    "  --out FILE         save the portable label (JSON; see --binary)\n"
    "  --binary           save in the compact binary format instead\n"
    "  --name NAME        dataset display name stored in the label\n";

std::string BaseName(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}
}  // namespace

int CmdBuild(const Args& args, std::ostream& out, std::ostream& err) {
  if (args.GetBool("help")) {
    out << kUsage;
    return kExitOk;
  }
  if (Status s = args.CheckKnown({"help", "bound", "algo", "metric",
                                  "focus", "time-limit", "threads",
                                  "cache-budget",
                                  "service-budget", "no-result-cache",
                                  "result-cache-budget", "kernel",
                                  "min-rows-per-morsel", "spill-dir",
                                  "out", "binary", "name"});
      !s.ok()) {
    return FailWith(s, "build", err);
  }
  if (Status s = args.RequirePositional(1, "pcbl build <data.csv> [flags]");
      !s.ok()) {
    return FailWith(s, "build", err);
  }
  auto bound = args.GetInt("bound", 100);
  if (!bound.ok()) return FailWith(bound.status(), "build", err);
  auto time_limit = args.GetDouble("time-limit", 0.0);
  if (!time_limit.ok()) return FailWith(time_limit.status(), "build", err);
  auto flags = ParseServiceFlags(args);
  if (!flags.ok()) return FailWith(flags.status(), "build", err);
  auto metric = ParseMetric(args.GetString("metric", "max-abs"));
  if (!metric.ok()) return FailWith(metric.status(), "build", err);
  const std::string algo = ToLower(args.GetString("algo", "topdown"));
  if (algo != "topdown" && algo != "naive") {
    return FailWith(
        InvalidArgumentError("--algo expects topdown or naive"), "build",
        err);
  }

  auto dataset =
      api::Dataset::FromCsvFile(args.positional()[0],
                                flags->ToDatasetOptions());
  if (!dataset.ok()) return FailWith(dataset.status(), "build", err);
  const Table& table = dataset->table();

  api::QuerySpec spec = api::QuerySpec::LabelSearch(
      *bound, algo == "naive" ? api::QuerySpec::Algorithm::kNaive
                              : api::QuerySpec::Algorithm::kTopDown);
  spec.metric = *metric;
  spec.time_limit_seconds = *time_limit;

  // Definition 2.15's flexible pattern set: rank against the combinations
  // of the named (e.g. sensitive) attributes instead of P_A.
  std::string focus_desc = "P_A (all full patterns)";
  const std::string focus_flag = args.GetString("focus");
  if (!focus_flag.empty()) {
    std::vector<std::string> names;
    for (const std::string& raw : Split(focus_flag, ',')) {
      const std::string name(Trim(raw));
      if (name.empty()) continue;
      auto idx = table.schema().FindAttribute(name);
      if (!idx.ok()) return FailWith(idx.status(), "build", err);
      spec.focus.Set(*idx);
      names.push_back(name);
    }
    if (spec.focus.empty()) {
      return FailWith(InvalidArgumentError("--focus names no attributes"),
                      "build", err);
    }
    focus_desc = "patterns over {" + Join(names, ", ") + "}";
  }

  std::string label_name = args.GetString("name");
  if (label_name.empty()) label_name = BaseName(args.positional()[0]);
  const std::string out_path = args.GetString("out");

  // Warm-start artifact fast path (docs/PERSISTENCE.md): with
  // --spill-dir, a completed label for this exact (content, query) pair
  // may already be on disk — consume it without any search. A missing
  // or invalid record simply falls through to the cold path below.
  std::shared_ptr<persist::SpillStore> spill;
  QueryResultKey artifact_key{};
  if (!flags->spill_dir.empty() && api::QuerySpecCacheable(spec)) {
    spill = ServiceRegistry::Global().spill_store();
  }
  if (spill != nullptr) {
    artifact_key = api::CanonicalQueryKey(spec, dataset->fingerprint());
    if (auto bytes =
            spill->GetLabelArtifact(dataset->fingerprint(), artifact_key)) {
      auto portable = PortableLabelFromBinary(*bytes);
      if (portable.ok()) {
        out << "dataset:           " << args.positional()[0] << " ("
            << WithThousandsSeparators(table.num_rows()) << " rows, "
            << table.num_attributes() << " attributes)\n";
        std::vector<std::string> restored_attrs;
        for (int a : portable->label_attributes) {
          if (a >= 0 &&
              a < static_cast<int>(portable->attribute_names.size())) {
            restored_attrs.push_back(portable->attribute_names[a]);
          }
        }
        out << "label attributes:  "
            << (restored_attrs.empty() ? "(none within bound)"
                                       : Join(restored_attrs, ", "))
            << "\n";
        out << "label size |PC|:   " << portable->size() << "\n";
        out << "label artifact:    restored from spill (no search)\n";
        out << FormatRegistryStats();
        if (!out_path.empty()) {
          if (Status s =
                  SaveLabel(*portable, out_path, args.GetBool("binary"));
              !s.ok()) {
            return FailWith(s, "build", err);
          }
          out << "label written to:  " << out_path
              << (args.GetBool("binary") ? " (binary)" : " (JSON)") << "\n";
        }
        return kExitOk;
      }
    }
  }

  auto session = api::Session::Open(*dataset, flags->ToSessionOptions());
  if (!session.ok()) return FailWith(session.status(), "build", err);
  const api::QueryResult query = (*session)->Run(spec);
  if (!query.status.ok()) return FailWith(query.status, "build", err);
  const SearchResult& result = query.search;

  out << "dataset:           " << args.positional()[0] << " ("
      << WithThousandsSeparators(table.num_rows()) << " rows, "
      << table.num_attributes() << " attributes)\n";
  out << "algorithm:         " << (algo == "naive" ? "naive" : "top-down")
      << " (bound " << *bound << ", metric " << MetricName(spec.metric)
      << ")\n";
  std::vector<std::string> attr_names;
  for (int a : result.best_attrs.ToIndices()) {
    attr_names.push_back(table.schema().name(a));
  }
  out << "label attributes:  "
      << (attr_names.empty() ? "(none within bound)" : Join(attr_names, ", "))
      << "\n";
  out << "label size |PC|:   " << result.label.size() << "\n";
  out << "subsets examined:  " << result.stats.subsets_examined
      << (result.stats.timed_out ? " (time limit hit)" : "") << "\n";
  out << "candidate sizing:  " << result.stats.counting.direct_scans
      << " scans, " << result.stats.counting.rollups << " rollups, "
      << result.stats.counting.cache_hits << " cache hits ("
      << (*session)->options().num_threads << " threads)\n";
  out << StrFormat("search time:       %.3f s\n", result.stats.total_seconds);
  out << "error over " << focus_desc << ":\n"
      << FormatErrorReport(result.error, table.num_rows());
  out << FormatSizingConfig(*flags);
  out << FormatRegistryStats();

  if (!out_path.empty() || spill != nullptr) {
    const PortableLabel portable =
        MakePortable(result.label, table, label_name);
    if (!out_path.empty()) {
      if (Status s = SaveLabel(portable, out_path, args.GetBool("binary"));
          !s.ok()) {
        return FailWith(s, "build", err);
      }
      out << "label written to:  " << out_path
          << (args.GetBool("binary") ? " (binary)" : " (JSON)") << "\n";
    }
    if (spill != nullptr) {
      // Persist the finished artifact and the service's warm state, so
      // an identical rerun answers from disk and a different query over
      // the same content starts with warm PC sets.
      spill->PutLabelArtifact(dataset->fingerprint(), artifact_key,
                              ToBinary(portable));
      ServiceRegistry::Global().SpillResident();
      out << "label artifact:    spilled to " << flags->spill_dir << "\n";
    }
  }
  return kExitOk;
}

}  // namespace cli
}  // namespace pcbl
