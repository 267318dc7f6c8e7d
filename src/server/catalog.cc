#include "server/catalog.h"

#include <utility>

#include "relation/csv.h"
#include "util/str.h"

namespace pcbl {
namespace server {

Status Catalog::AddFromCsvFile(const std::string& name,
                               const std::string& path) {
  PCBL_ASSIGN_OR_RETURN(api::Dataset dataset,
                        api::Dataset::FromCsvFile(path, options_));
  return Insert(name, std::move(dataset)).status();
}

Status Catalog::Add(const std::string& name, api::Dataset dataset) {
  return Insert(name, std::move(dataset)).status();
}

Result<wire::RegisterReply> Catalog::RegisterCsvText(
    const std::string& name, const std::string& csv_text) {
  if (name.empty()) {
    return InvalidArgumentError("dataset name must not be empty");
  }
  // Parsed on the calling handler thread: registrations do not pass the
  // server's query admission, so parsing in parallel here would let
  // clients decide how many threads the server starts.
  CsvOptions csv;
  csv.num_threads = 1;
  PCBL_ASSIGN_OR_RETURN(Table table, ReadCsvString(csv_text, csv));
  PCBL_ASSIGN_OR_RETURN(api::Dataset dataset,
                        api::Dataset::FromTable(std::move(table), options_));
  return Insert(name, std::move(dataset));
}

Result<wire::RegisterReply> Catalog::Insert(const std::string& name,
                                            api::Dataset dataset) {
  std::lock_guard<std::mutex> lock(mu_);
  wire::RegisterReply reply;
  auto named = by_name_.find(name);
  if (named != by_name_.end()) {
    if (named->second.fingerprint() != dataset.fingerprint()) {
      return AlreadyExistsError(
          StrCat("dataset '", name,
                 "' is already registered with different content"));
    }
    // Idempotent re-registration of the same content.
    reply.fingerprint = named->second.fingerprint();
    reply.rows = named->second.num_rows();
    reply.shared_existing = true;
    return reply;
  }
  auto equal = by_fingerprint_.find(dataset.fingerprint());
  if (equal != by_fingerprint_.end()) {
    // Content-equal to an existing entry: the new name adopts that
    // entry's handle, so both names ride one warm service.
    const api::Dataset& shared = by_name_.at(equal->second);
    reply.fingerprint = shared.fingerprint();
    reply.rows = shared.num_rows();
    reply.shared_existing = true;
    by_name_.emplace(name, shared);
    return reply;
  }
  reply.fingerprint = dataset.fingerprint();
  reply.rows = dataset.num_rows();
  reply.shared_existing = false;
  by_fingerprint_.emplace(dataset.fingerprint(), name);
  by_name_.emplace(name, std::move(dataset));
  return reply;
}

Result<api::Dataset> Catalog::Lookup(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = by_name_.find(name);
  if (it == by_name_.end()) {
    return NotFoundError(StrCat("no dataset named '", name,
                                "' in the server catalog"));
  }
  return it->second;
}

std::vector<std::string> Catalog::Names() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(by_name_.size());
  for (const auto& [name, dataset] : by_name_) names.push_back(name);
  return names;
}

}  // namespace server
}  // namespace pcbl
