// Wire protocol of `pcbl serve` (docs/SERVING.md).
//
// Everything a client and the label server exchange is a *frame*: a
// fixed 12-byte header (magic, protocol version, message type, payload
// length) followed by a little-endian payload. The payload length is
// validated against a bounded maximum *before* any allocation, so a
// corrupt or hostile length can never drive a multi-gigabyte allocation
// (the same class of bug as the PR 1 corrupted-length fix in the binary
// label parser). Payload decoding goes through a sticky-error Reader
// whose every primitive is bounds-checked against the received bytes —
// a truncated or over-long payload decodes to kInvalidArgument, never
// to undefined behaviour.
//
// The request payloads serialize api::QuerySpec field-for-field
// (including the optional per-query overrides and the consumer-side
// PortableLabel of a true-count query) and the response payloads carry
// the full api::QueryResult — the label as a PortableLabel (strings,
// not dictionary codes, so the client needs no access to the data),
// the exact ErrorReport, the SearchStats, true counts, and profile
// pairs. Status codes — including the retryable kUnavailable of a
// registry-evicted service and the kResourceExhausted of an overload
// shed — map one-to-one onto the wire.
//
// Golden stability: the encoding is pinned by golden-buffer tests
// (tests/server_wire_test.cc). Extending the protocol means a new
// protocol version or appended optional fields, never a silent change
// to existing bytes.
#ifndef PCBL_SERVER_WIRE_H_
#define PCBL_SERVER_WIRE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "api/query.h"
#include "core/portable_label.h"
#include "core/search.h"
#include "pattern/service_registry.h"
#include "util/status.h"

namespace pcbl {
namespace server {
namespace wire {

/// "PCBW" read little-endian — distinct from the label format's "PCBL".
inline constexpr uint32_t kMagic = 0x57424350;
/// v2: registry stats grew the five warm-start spill counters
/// (spill_hits/misses/rejects, spills, spilled_bytes) — appended to the
/// kStats registry-stats block, which changes that reply's byte layout.
/// v3: the query spec lost its engine and scheduler switches (presence
/// bits 1 and 4), and a spec with an unknown presence bit or a thread
/// count outside [1, INT_MAX] is refused instead of misparsed.
inline constexpr uint16_t kProtocolVersion = 3;

/// Default ceiling on one frame's payload. A decoder never allocates
/// more than the configured maximum, whatever the length field claims.
inline constexpr int64_t kDefaultMaxFrameBytes = int64_t{64} << 20;

/// Frame header size on the wire.
inline constexpr int64_t kFrameHeaderBytes = 12;

/// Message types. Requests are even-numbered concepts with one generic
/// reply type: a reply's body shape is determined by the request that
/// elicited it (the protocol is strictly request/response per
/// connection, so there is never ambiguity).
enum class MessageType : uint16_t {
  kHello = 1,     ///< tenant handshake (optional but recommended)
  kQuery = 2,     ///< one api::QuerySpec against a named dataset
  kRegister = 3,  ///< register a dataset from CSV text
  kStats = 4,     ///< per-tenant + registry counters
  kShutdown = 5,  ///< ask the server to drain and exit
  kReply = 128,   ///< response to any of the above
};

// --- primitives -------------------------------------------------------------

/// Append-only little-endian encoder.
class Writer {
 public:
  void U8(uint8_t v) { bytes_.push_back(static_cast<char>(v)); }
  void U16(uint16_t v);
  void U32(uint32_t v);
  void U64(uint64_t v);
  void I64(int64_t v) { U64(static_cast<uint64_t>(v)); }
  void F64(double v);
  /// u32 length + raw bytes.
  void Str(std::string_view s);

  const std::string& bytes() const { return bytes_; }
  std::string Take() { return std::move(bytes_); }

 private:
  std::string bytes_;
};

/// Sticky-error bounds-checked decoder: the first out-of-bounds read
/// fails the reader and every later primitive returns zero/empty, so
/// decode functions read their whole shape and check ok() once. A
/// string length is validated against the *remaining* payload before
/// any allocation.
class Reader {
 public:
  explicit Reader(std::string_view data) : data_(data) {}

  uint8_t U8();
  uint16_t U16();
  uint32_t U32();
  uint64_t U64();
  int64_t I64() { return static_cast<int64_t>(U64()); }
  double F64();
  std::string Str();

  bool ok() const { return ok_; }
  int64_t remaining() const {
    return static_cast<int64_t>(data_.size() - pos_);
  }
  /// kInvalidArgument when a read overran or trailing bytes remain.
  Status Finish() const;

 private:
  bool Need(size_t n);

  std::string_view data_;
  size_t pos_ = 0;
  bool ok_ = true;
};

// --- frames -----------------------------------------------------------------

/// Wraps `payload` into one frame (header + payload).
std::string EncodeFrame(MessageType type, std::string_view payload);

/// Decoded frame header.
struct FrameHeader {
  MessageType type = MessageType::kReply;
  int64_t payload_bytes = 0;
};

/// Validates magic, version, and the payload length against
/// `max_frame_bytes` (kInvalidArgument on any mismatch — the caller
/// must not allocate before this returned ok). `header` must point at
/// kFrameHeaderBytes received bytes.
Result<FrameHeader> DecodeFrameHeader(const char* header,
                                      int64_t max_frame_bytes);

// --- status -----------------------------------------------------------------

void EncodeStatus(const Status& status, Writer* out);
/// Decodes into `*decoded`; the return value is the *decode-level*
/// outcome (kInvalidArgument on truncation or an unknown code), distinct
/// from the decoded status itself. (An out-param because Result<Status>
/// would be ambiguous.)
Status DecodeStatus(Reader& in, Status* decoded);

// --- requests ---------------------------------------------------------------

struct HelloRequest {
  std::string tenant;
};

struct QueryRequest {
  std::string tenant;
  std::string dataset;
  api::QuerySpec spec;
};

struct RegisterRequest {
  std::string tenant;
  std::string dataset;
  std::string csv_text;
};

struct StatsRequest {
  /// Empty = every tenant.
  std::string tenant;
};

void EncodeHelloRequest(const HelloRequest& request, Writer* out);
Result<HelloRequest> DecodeHelloRequest(Reader& in);

void EncodeQuerySpec(const api::QuerySpec& spec, Writer* out);
Result<api::QuerySpec> DecodeQuerySpec(Reader& in);

void EncodeQueryRequest(const QueryRequest& request, Writer* out);
Result<QueryRequest> DecodeQueryRequest(Reader& in);

void EncodeRegisterRequest(const RegisterRequest& request, Writer* out);
Result<RegisterRequest> DecodeRegisterRequest(Reader& in);

void EncodeStatsRequest(const StatsRequest& request, Writer* out);
Result<StatsRequest> DecodeStatsRequest(Reader& in);

// --- replies ----------------------------------------------------------------

/// Leads every reply payload. `status` covers the transport/admission
/// level (unknown dataset, shed, malformed request); the body that
/// follows is present iff status is OK. A kResourceExhausted shed
/// carries `retry_after_ms` as the server's backoff hint.
struct ReplyHeader {
  Status status;
  int64_t retry_after_ms = 0;
};

void EncodeReplyHeader(const ReplyHeader& header, Writer* out);
Result<ReplyHeader> DecodeReplyHeader(Reader& in);

struct HelloReply {
  uint16_t protocol_version = kProtocolVersion;
  std::string server;  ///< banner, e.g. "pcbl serve"
};

/// api::QueryResult detached from its table: the label travels as a
/// PortableLabel (value strings), so byte-identity against an
/// in-process session is a pure function of the result — asserted by
/// the server differential test.
struct WireSearchResult {
  uint64_t best_attrs_bits = 0;
  PortableLabel label;
  ErrorReport error;
  SearchStats stats;
  std::vector<CandidateInfo> candidates;
};

struct WireQueryResult {
  Status status;  ///< execution-time status of the query itself
  api::QuerySpec::Kind kind = api::QuerySpec::Kind::kLabelSearch;
  int64_t total_rows = 0;
  WireSearchResult search;          // kLabelSearch
  int64_t true_count = 0;           // kTrueCount
  std::optional<double> estimate;   // kTrueCount (label supplied)
  std::vector<api::PairwiseSize> pairs;  // kProfile
};

struct RegisterReply {
  TableFingerprint fingerprint;
  int64_t rows = 0;
  /// True when the content matched an existing catalog entry (the new
  /// name shares its warm service instead of building one).
  bool shared_existing = false;
};

/// One tenant's server-side counters plus the
/// ServiceRegistryStats-shaped fold of its datasets' services — the
/// server-side equivalent of the CLI `registry:` line.
struct TenantStatsRow {
  std::string tenant;
  int64_t queries = 0;    ///< executed (ok or query-level error)
  int64_t shed = 0;       ///< refused with kResourceExhausted
  int64_t errors = 0;     ///< executed but returned a non-ok status
  int64_t inflight = 0;   ///< executing right now
  int64_t sessions = 0;   ///< pooled sessions
  ServiceRegistryStats service;
};

struct StatsReply {
  std::vector<TenantStatsRow> tenants;
  ServiceRegistryStats registry;  ///< the process-wide registry's view
};

void EncodeHelloReply(const HelloReply& reply, Writer* out);
Result<HelloReply> DecodeHelloReply(Reader& in);

void EncodeQueryResult(const WireQueryResult& result, Writer* out);
Result<WireQueryResult> DecodeQueryResult(Reader& in);

void EncodeRegisterReply(const RegisterReply& reply, Writer* out);
Result<RegisterReply> DecodeRegisterReply(Reader& in);

void EncodeRegistryStats(const ServiceRegistryStats& stats, Writer* out);
Result<ServiceRegistryStats> DecodeRegistryStats(Reader& in);

void EncodeStatsReply(const StatsReply& reply, Writer* out);
Result<StatsReply> DecodeStatsReply(Reader& in);

/// Detaches an executed api::QueryResult from its table for the wire:
/// the search label (when present) becomes a PortableLabel over
/// `table`'s dictionaries. The same conversion on the in-process side
/// makes server and session results byte-comparable.
WireQueryResult ToWireResult(const api::QueryResult& result,
                             const Table& table);

}  // namespace wire
}  // namespace server
}  // namespace pcbl

#endif  // PCBL_SERVER_WIRE_H_
