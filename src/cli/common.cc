#include "cli/common.h"

#include <utility>

#include "pattern/counting_engine.h"
#include "pattern/kernel_dispatch.h"
#include "pattern/service_registry.h"
#include "relation/csv.h"
#include "util/str.h"

namespace pcbl {
namespace cli {

int FailWith(const Status& status, const std::string& command,
             std::ostream& err) {
  err << "pcbl " << command << ": " << status.ToString() << "\n";
  return status.code() == StatusCode::kInvalidArgument ? kExitUsage
                                                       : kExitError;
}

Result<Table> LoadCsvTable(const std::string& path) {
  return ReadCsvFile(path);
}

Result<PortableLabel> LoadLabelFile(const std::string& path) {
  return LoadLabel(path);
}

Result<std::vector<std::pair<std::string, std::string>>> ParseNamedPattern(
    const std::string& text) {
  std::vector<std::pair<std::string, std::string>> terms;
  for (const std::string& raw : Split(text, ',')) {
    const std::string term(Trim(raw));
    if (term.empty()) continue;
    const size_t eq = term.find('=');
    if (eq == std::string::npos || eq == 0) {
      return InvalidArgumentError(
          StrCat("pattern term \"", term, "\" is not attr=value"));
    }
    terms.emplace_back(std::string(Trim(term.substr(0, eq))),
                       std::string(Trim(term.substr(eq + 1))));
  }
  if (terms.empty()) {
    return InvalidArgumentError("pattern has no attr=value terms");
  }
  return terms;
}

api::SessionOptions ServiceFlags::ToSessionOptions() const {
  api::SessionOptions options;
  options.num_threads = static_cast<int>(threads);  // 0 = auto, as here
  options.counting_cache_budget = has_cache_budget ? cache_budget : -1;
  options.use_result_cache = !no_result_cache;
  options.result_cache_budget =
      has_result_cache_budget ? result_cache_budget : -1;
  options.min_rows_per_morsel = min_rows_per_morsel;
  return options;
}

api::DatasetOptions ServiceFlags::ToDatasetOptions() const {
  api::DatasetOptions options;
  options.service_memory_budget = service_budget;  // -1 = leave unchanged
  options.spill_directory = spill_dir;             // "" = leave unchanged
  options.num_threads = static_cast<int>(threads);  // 0 = auto, as here
  return options;
}

Result<ServiceFlags> ParseServiceFlags(const Args& args) {
  ServiceFlags flags;
  PCBL_ASSIGN_OR_RETURN(flags.threads, args.GetInt("threads", 0));
  flags.has_cache_budget = args.Has("cache-budget");
  if (flags.has_cache_budget) {
    PCBL_ASSIGN_OR_RETURN(flags.cache_budget,
                          args.GetInt("cache-budget", -1));
  }
  if (args.Has("service-budget")) {
    PCBL_ASSIGN_OR_RETURN(flags.service_budget,
                          args.GetInt("service-budget", 0));
    if (flags.service_budget < 0) {
      return InvalidArgumentError("--service-budget must be >= 0");
    }
  }
  flags.no_result_cache = args.GetBool("no-result-cache");
  flags.has_result_cache_budget = args.Has("result-cache-budget");
  if (flags.has_result_cache_budget) {
    PCBL_ASSIGN_OR_RETURN(flags.result_cache_budget,
                          args.GetInt("result-cache-budget", -1));
  }
  if (args.Has("min-rows-per-morsel")) {
    PCBL_ASSIGN_OR_RETURN(flags.min_rows_per_morsel,
                          args.GetInt("min-rows-per-morsel", -1));
    if (flags.min_rows_per_morsel < 0) {
      return InvalidArgumentError(
          "--min-rows-per-morsel must be >= 0 (0 disables intra-subset "
          "parallelism)");
    }
  }
  if (args.Has("spill-dir")) {
    flags.spill_dir = args.GetString("spill-dir", "");
    if (flags.spill_dir.empty()) {
      return InvalidArgumentError("--spill-dir needs a directory path");
    }
  }
  if (args.Has("kernel")) {
    // Applied process-globally right here: the kernel table is a
    // dispatch concern, not a per-session option, and
    // SetKernelIsaByName is the central validation point (unknown
    // names and host-unavailable ISAs fail before any data is read).
    PCBL_RETURN_IF_ERROR(
        counting::SetKernelIsaByName(args.GetString("kernel", "auto")));
  }
  flags.any = args.Has("threads") || args.Has("cache-budget") || args.Has("service-budget") ||
              args.Has("no-result-cache") ||
              args.Has("result-cache-budget") || args.Has("kernel") ||
              args.Has("min-rows-per-morsel") || args.Has("spill-dir");
  return flags;
}

std::string FormatRegistryStats() {
  const ServiceRegistryStats stats = ServiceRegistry::Global().stats();
  std::string line = StrFormat(
      "registry:  %lld hit%s, %lld miss%s, %lld service%s resident "
      "(%lld bytes resident, %lld evicted)",
      static_cast<long long>(stats.hits), stats.hits == 1 ? "" : "s",
      static_cast<long long>(stats.misses), stats.misses == 1 ? "" : "es",
      static_cast<long long>(stats.services),
      stats.services == 1 ? "" : "s",
      static_cast<long long>(stats.resident_bytes),
      static_cast<long long>(stats.evictions));
  // Queries that lost the race with eviction and were refused retryably:
  // only worth a word when it actually happened.
  if (stats.evicted_rejections > 0) {
    line += StrFormat(", %lld evicted-service rejection%s",
                      static_cast<long long>(stats.evicted_rejections),
                      stats.evicted_rejections == 1 ? "" : "s");
  }
  // The whole-query result tier, once it saw any traffic.
  if (stats.result_hits + stats.result_misses +
          stats.result_inflight_joins >
      0) {
    line += StrFormat(
        "; results: %lld hit%s, %lld miss%s, %lld join%s "
        "(%lld cached, %lld bytes)",
        static_cast<long long>(stats.result_hits),
        stats.result_hits == 1 ? "" : "s",
        static_cast<long long>(stats.result_misses),
        stats.result_misses == 1 ? "" : "es",
        static_cast<long long>(stats.result_inflight_joins),
        stats.result_inflight_joins == 1 ? "" : "s",
        static_cast<long long>(stats.result_entries),
        static_cast<long long>(stats.result_bytes));
  }
  // The append path, once any session grew a resident service.
  if (stats.append_requests > 0) {
    line += StrFormat(
        "; appends: %lld request%s in %lld group commit%s "
        "(%lld value%s interned)",
        static_cast<long long>(stats.append_requests),
        stats.append_requests == 1 ? "" : "s",
        static_cast<long long>(stats.append_batches),
        stats.append_batches == 1 ? "" : "s",
        static_cast<long long>(stats.interned_values),
        stats.interned_values == 1 ? "" : "s");
  }
  // The warm-start spill store, once it saw any traffic.
  if (stats.spill_hits + stats.spill_misses + stats.spill_rejects +
          stats.spills >
      0) {
    line += StrFormat(
        "; spill: %lld hit%s, %lld miss%s, %lld reject%s, "
        "%lld spilled (%lld bytes)",
        static_cast<long long>(stats.spill_hits),
        stats.spill_hits == 1 ? "" : "s",
        static_cast<long long>(stats.spill_misses),
        stats.spill_misses == 1 ? "" : "es",
        static_cast<long long>(stats.spill_rejects),
        stats.spill_rejects == 1 ? "" : "s",
        static_cast<long long>(stats.spills),
        static_cast<long long>(stats.spilled_bytes));
  }
  line += "\n";
  return line;
}

std::string FormatSizingConfig(const ServiceFlags& flags) {
  std::string morsels;
  if (flags.min_rows_per_morsel == 0) {
    morsels = "morsels off";
  } else if (flags.min_rows_per_morsel > 0) {
    morsels = StrFormat(
        "morsels >= %lld rows",
        static_cast<long long>(flags.min_rows_per_morsel));
  } else {
    morsels = StrFormat(
        "morsels >= %lld rows (default)",
        static_cast<long long>(CountingEngineOptions{}.min_rows_per_morsel));
  }
  return StrCat("sizing:    kernel ", counting::KernelDispatchDescription(),
                "; ", morsels, "\n");
}

Result<OptimizationMetric> ParseMetric(const std::string& name) {
  const std::string n = ToLower(name);
  if (n == "max-abs") return OptimizationMetric::kMaxAbsolute;
  if (n == "mean-abs") return OptimizationMetric::kMeanAbsolute;
  if (n == "max-q") return OptimizationMetric::kMaxQError;
  if (n == "mean-q") return OptimizationMetric::kMeanQError;
  return InvalidArgumentError(
      StrCat("unknown metric \"", name,
             "\" (expected max-abs, mean-abs, max-q, or mean-q)"));
}

std::string FormatErrorReport(const ErrorReport& report, int64_t total_rows) {
  std::string out;
  const double frac =
      total_rows > 0 ? report.max_abs / static_cast<double>(total_rows) : 0.0;
  out += StrFormat("  max abs error:   %.0f (%s of rows)\n", report.max_abs,
                   PercentString(frac).c_str());
  out += StrFormat("  mean abs error:  %.3f\n", report.mean_abs);
  out += StrFormat("  std abs error:   %.3f\n", report.std_abs);
  out += StrFormat("  max q-error:     %.1f\n", report.max_q);
  out += StrFormat("  mean q-error:    %.2f\n", report.mean_q);
  out += StrFormat("  patterns:        %lld of %lld evaluated%s\n",
                   static_cast<long long>(report.evaluated),
                   static_cast<long long>(report.total),
                   report.early_terminated ? " (early termination)" : "");
  return out;
}

}  // namespace cli
}  // namespace pcbl
