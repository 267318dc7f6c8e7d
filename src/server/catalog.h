// Catalog: the named datasets `pcbl serve` exposes.
//
// Every entry maps a client-visible name to an api::Dataset handle. On
// top of the name index the catalog keeps a second index keyed by the
// registry's 128-bit content fingerprint, so a registration whose CSV is
// content-equal to an existing entry — a second tenant uploading the
// same data under its own name — *shares the existing Dataset handle*
// (and therefore the same warm CountingService) instead of building a
// cold copy. The server's differential test asserts the consequence:
// two tenants over equal content perform one set of full-table scans
// between them.
//
// Thread-safe; registrations and lookups may race freely. Dataset
// construction (CSV parse + service acquire) runs outside the catalog
// lock — only the index insertion is serialized.
#ifndef PCBL_SERVER_CATALOG_H_
#define PCBL_SERVER_CATALOG_H_

#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "api/dataset.h"
#include "server/wire.h"
#include "util/status.h"

namespace pcbl {
namespace server {

class Catalog {
 public:
  /// `options` apply to every dataset the catalog builds (service
  /// budget, private service for tests).
  explicit Catalog(api::DatasetOptions options = {})
      : options_(options) {}

  Catalog(const Catalog&) = delete;
  Catalog& operator=(const Catalog&) = delete;

  /// Startup path of `pcbl serve --catalog name=path,...`.
  Status AddFromCsvFile(const std::string& name, const std::string& path);

  /// Adopts an already-built dataset under `name` (tests).
  Status Add(const std::string& name, api::Dataset dataset);

  /// Client registration from CSV text. Same name + same content is an
  /// idempotent success; same name + different content is
  /// kAlreadyExists; a new name over content-equal data shares the
  /// existing entry's Dataset (reply.shared_existing = true). The text
  /// is parsed on the calling thread alone.
  Result<wire::RegisterReply> RegisterCsvText(const std::string& name,
                                              const std::string& csv_text);

  /// kNotFound when no dataset has this name.
  Result<api::Dataset> Lookup(const std::string& name) const;

  /// Registered names, unordered.
  std::vector<std::string> Names() const;

 private:
  struct FingerprintHash {
    size_t operator()(const TableFingerprint& f) const {
      return static_cast<size_t>(f.lo ^ (f.hi * 0x9e3779b97f4a7c15ULL));
    }
  };

  // Inserts under the lock; resolves the share-or-conflict cases.
  Result<wire::RegisterReply> Insert(const std::string& name,
                                     api::Dataset dataset);

  const api::DatasetOptions options_;
  mutable std::mutex mu_;
  std::unordered_map<std::string, api::Dataset> by_name_;
  // fingerprint -> a name already serving that content.
  std::unordered_map<TableFingerprint, std::string, FingerprintHash>
      by_fingerprint_;
};

}  // namespace server
}  // namespace pcbl

#endif  // PCBL_SERVER_CATALOG_H_
