// `pcbl serve` — the out-of-process, multi-tenant label service
// (docs/SERVING.md). Loads a catalog of named CSV datasets, listens on
// a TCP or Unix-domain address, and answers wire-protocol queries
// (server/wire.h) until a client sends shutdown or the process is
// killed. Per-tenant engine/result budgets come from the shared service
// flag set; overload is shed with kResourceExhausted instead of queued.
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "cli/commands.h"
#include "cli/common.h"
#include "pattern/service_registry.h"
#include "server/catalog.h"
#include "server/server.h"
#include "util/str.h"

namespace pcbl {
namespace cli {

namespace {
constexpr char kUsage[] =
    "usage: pcbl serve --listen ADDR --catalog name=file.csv,... [flags]\n"
    "\n"
    "Serves label queries over a socket. ADDR is host:port (port 0 binds\n"
    "an ephemeral port, printed on startup) or unix:/path. Clients query\n"
    "with `pcbl query --connect ADDR --dataset NAME ...`; content-equal\n"
    "datasets share one warm counting service across tenants.\n"
    "\n"
    "flags:\n"
    "  --listen ADDR          listen address (default 127.0.0.1:0)\n"
    "  --catalog SPEC         comma-separated name=csv-path pairs served\n"
    "                         at startup (clients can register more)\n"
    "  --max-inflight N       server-wide concurrent-query ceiling\n"
    "                         (default 64)\n"
    "  --tenant-max-inflight N\n"
    "                         per-tenant in-flight quota; the N+1th\n"
    "                         concurrent query of one tenant is shed with\n"
    "                         ResourceExhausted (default 8)\n"
    "  --retry-after-ms N     backoff hint attached to shed replies\n"
    "                         (default 50)\n"
    "  --max-frame-bytes N    per-frame payload ceiling (default 64MiB)\n"
    "  --threads N            worker threads that parse each --catalog\n"
    "                         CSV (0 = all hardware threads); a CSV a\n"
    "                         client registers is parsed on its\n"
    "                         connection's thread\n"
    "  --service-budget N     process-wide registry memory budget (bytes)\n"
    "  --cache-budget N       per-tenant engine memoization budget\n"
    "  --result-cache-budget N\n"
    "                         per-tenant completed-result cache budget\n"
    "  --spill-dir DIR        warm-start spill directory: restores each\n"
    "                         dataset's cached PC sets on startup (the\n"
    "                         first post-restart query runs without full\n"
    "                         scans) and spills them back on shutdown\n"
    "  --verbose              per-request log lines on stderr\n";

Status BuildCatalog(const std::string& spec, server::Catalog* catalog,
                    std::vector<std::string>* names) {
  if (spec.empty()) return Status::Ok();
  for (const std::string& item : Split(spec, ',')) {
    const size_t eq = item.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 == item.size()) {
      return InvalidArgumentError(
          StrCat("--catalog entry '", item, "' is not name=path"));
    }
    const std::string name = item.substr(0, eq);
    PCBL_RETURN_IF_ERROR(catalog->AddFromCsvFile(name, item.substr(eq + 1)));
    names->push_back(name);
  }
  return Status::Ok();
}

}  // namespace

int CmdServe(const Args& args, std::ostream& out, std::ostream& err) {
  if (args.GetBool("help")) {
    out << kUsage;
    return kExitOk;
  }
  if (Status s = args.CheckKnown(
          {"help", "listen", "catalog", "max-inflight",
           "tenant-max-inflight", "retry-after-ms", "max-frame-bytes",
           "service-budget", "cache-budget", "result-cache-budget",
           "no-result-cache", "threads", "kernel",
           "min-rows-per-morsel", "spill-dir", "verbose"});
      !s.ok()) {
    return FailWith(s, "serve", err);
  }
  auto flags = ParseServiceFlags(args);
  if (!flags.ok()) return FailWith(flags.status(), "serve", err);
  // Applied up front (not just through each dataset's options) so
  // datasets clients register later warm-start too.
  if (!flags->spill_dir.empty()) {
    ServiceRegistry::Global().SetSpillDirectory(flags->spill_dir);
  }

  server::ServerOptions options;
  options.address = args.GetString("listen", "127.0.0.1:0");
  auto max_inflight = args.GetInt("max-inflight", options.max_inflight);
  if (!max_inflight.ok()) return FailWith(max_inflight.status(), "serve", err);
  auto tenant_inflight =
      args.GetInt("tenant-max-inflight", options.tenant_max_inflight);
  if (!tenant_inflight.ok()) {
    return FailWith(tenant_inflight.status(), "serve", err);
  }
  auto retry_after = args.GetInt("retry-after-ms", options.retry_after_ms);
  if (!retry_after.ok()) return FailWith(retry_after.status(), "serve", err);
  auto max_frame = args.GetInt("max-frame-bytes", options.max_frame_bytes);
  if (!max_frame.ok()) return FailWith(max_frame.status(), "serve", err);
  if (*max_inflight <= 0 || *tenant_inflight <= 0 || *max_frame <= 0) {
    return FailWith(
        InvalidArgumentError("--max-inflight, --tenant-max-inflight, and "
                             "--max-frame-bytes must be positive"),
        "serve", err);
  }
  options.max_inflight = static_cast<int>(*max_inflight);
  options.tenant_max_inflight = static_cast<int>(*tenant_inflight);
  options.retry_after_ms = *retry_after;
  options.max_frame_bytes = *max_frame;
  options.verbose = args.GetBool("verbose");
  if (flags->has_cache_budget) {
    options.tenant_counting_budget = flags->cache_budget;
  }
  if (flags->has_result_cache_budget) {
    options.tenant_result_budget = flags->result_cache_budget;
  }

  server::Catalog catalog(flags->ToDatasetOptions());
  std::vector<std::string> names;
  if (Status s = BuildCatalog(args.GetString("catalog"), &catalog, &names);
      !s.ok()) {
    return FailWith(s, "serve", err);
  }

  server::Server server(&catalog, options);
  if (Status s = server.Start(); !s.ok()) return FailWith(s, "serve", err);
  out << "pcbl serve: listening on " << server.bound_address() << "\n";
  if (names.empty()) {
    out << "catalog:    (empty — clients may register datasets)\n";
  } else {
    out << "catalog:    " << Join(names, ", ") << "\n";
  }
  out.flush();

  server.Wait();

  // Orderly shutdown: spill every warm service before the stats print,
  // so the next `pcbl serve --spill-dir` answers its first query from
  // the spill instead of full-table scans (and the registry line below
  // already shows the spilled bytes).
  if (!flags->spill_dir.empty()) {
    ServiceRegistry::Global().SpillResident();
  }

  // Final per-tenant accounting, the log an operator reads after drain.
  const server::wire::StatsReply stats = server.BuildStatsReply("");
  for (const auto& row : stats.tenants) {
    out << StrFormat(
        "tenant %s: queries=%lld shed=%lld errors=%lld sessions=%lld\n",
        row.tenant.c_str(), static_cast<long long>(row.queries),
        static_cast<long long>(row.shed),
        static_cast<long long>(row.errors),
        static_cast<long long>(row.sessions));
  }
  out << FormatRegistryStats();
  server.Stop();
  return kExitOk;
}

}  // namespace cli
}  // namespace pcbl
