#include "relation/csv.h"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <vector>

#include "relation/dictionary.h"
#include "util/logging.h"
#include "util/str.h"
#include "util/thread_pool.h"

namespace pcbl {
namespace {

// ReadCsvString splits no finer than this: a chunk should take much longer
// to parse than its thread takes to start.
constexpr size_t kMinChunkBytes = size_t{1} << 20;

// ReadCsvString makes up to this many chunks per worker. Workers take
// chunks as they finish one, so a worker on a busy core holds up the
// others by one small chunk rather than by its equal share.
constexpr size_t kChunksPerWorker = 4;

// ReadCsvFile's first read size for a file that reports no size.
constexpr size_t kReadBlockBytes = size_t{1} << 16;

int ResolveThreads(const CsvOptions& options) {
  return options.num_threads > 0 ? options.num_threads : DefaultThreadCount();
}

bool NeedsQuoting(std::string_view field, char sep) {
  for (char c : field) {
    if (c == sep || c == '"' || c == '\n' || c == '\r') return true;
  }
  return false;
}

void AppendQuoted(std::string& out, std::string_view field) {
  out.push_back('"');
  for (char c : field) {
    if (c == '"') out.push_back('"');
    out.push_back(c);
  }
  out.push_back('"');
}

// How tokenizing a record ended.
enum class Scan { kOk, kStrayQuote, kUnterminated };

Status ScanError(Scan scan, size_t offset) {
  if (scan == Scan::kStrayQuote) {
    return InvalidArgumentError(
        StrCat("stray quote inside unquoted field near offset ", offset));
  }
  return InvalidArgumentError("unterminated quoted field at end of input");
}

// Splits the records of text[.., end) into fields; `end` is the end of
// input for everything it tokenizes. Unquoted fields are views of the
// text; quoted ones are unescaped into a scratch buffer that the next
// field reuses.
class Tokenizer {
 public:
  Tokenizer(std::string_view text, size_t end, char separator)
      : data_(text.data()), end_(end), sep_(separator) {
    for (unsigned char c : {'"', '\n', '\r'}) special_[c] = true;
    special_[static_cast<unsigned char>(separator)] = true;
  }

  // Tokenizes the record at `pos` (< end), calling on_field(value) for
  // each field in order, and moves `pos` past the record's terminator (LF,
  // CR or CRLF) or to the end. On kStrayQuote, error_offset() is the
  // offset of the quote.
  template <typename OnField>
  Scan Record(size_t& pos, OnField&& on_field) {
    for (;;) {
      std::string_view value;
      size_t stop = 0;
      const Scan scan = Field(pos, &value, &stop);
      if (scan != Scan::kOk) return scan;
      on_field(value);
      if (stop == end_) {
        pos = end_;
        return Scan::kOk;
      }
      const char c = data_[stop];
      pos = stop + 1;
      if (c == sep_) continue;
      if (c == '\r' && pos < end_ && data_[pos] == '\n') ++pos;
      return Scan::kOk;
    }
  }

  size_t error_offset() const { return error_offset_; }

 private:
  // Tokenizes the field at `pos`; `stop` is the offset of the byte that
  // ended it (separator, CR, LF) or the end.
  Scan Field(size_t pos, std::string_view* value, size_t* stop) {
    if (pos < end_ && data_[pos] == '"') return QuotedField(pos, value, stop);
    size_t i = pos;
    while (i < end_ && !special_[static_cast<unsigned char>(data_[i])]) ++i;
    if (i < end_ && data_[i] == '"') {
      error_offset_ = i;
      return Scan::kStrayQuote;
    }
    *value = std::string_view(data_ + pos, i - pos);
    *stop = i;
    return Scan::kOk;
  }

  // A field that starts with a quote, unescaped into the scratch buffer:
  // escaped quotes become one, and bytes after the closing quote join the
  // field.
  Scan QuotedField(size_t pos, std::string_view* value, size_t* stop) {
    scratch_.clear();
    bool in_quotes = false;
    size_t i = pos;
    while (i < end_) {
      const char c = data_[i];
      if (in_quotes) {
        const void* q = std::memchr(data_ + i, '"', end_ - i);
        if (q == nullptr) return Scan::kUnterminated;
        const size_t qi =
            static_cast<size_t>(static_cast<const char*>(q) - data_);
        scratch_.append(data_ + i, qi - i);
        if (qi + 1 < end_ && data_[qi + 1] == '"') {
          scratch_.push_back('"');
          i = qi + 2;
        } else {
          in_quotes = false;
          i = qi + 1;
        }
      } else if (c == '"') {
        if (!scratch_.empty()) {
          error_offset_ = i;
          return Scan::kStrayQuote;
        }
        in_quotes = true;
        ++i;
      } else if (c == sep_ || c == '\r' || c == '\n') {
        break;
      } else {
        scratch_.push_back(c);
        ++i;
      }
    }
    if (in_quotes) return Scan::kUnterminated;
    *value = scratch_;
    *stop = i;
    return Scan::kOk;
  }

  const char* data_;
  size_t end_;
  char sep_;
  bool special_[256] = {};  // separator, quote, CR, LF
  std::string scratch_;
  size_t error_offset_ = 0;
};

// What one chunk's parse left: the first tokenizer error, the first
// record with the wrong field count, and per attribute its dictionary and
// NULL count.
struct ChunkResult {
  Scan scan = Scan::kOk;
  size_t error_offset = 0;
  int64_t ragged_record = -1;  // chunk-local record index
  size_t ragged_fields = 0;
  std::vector<Dictionary> dicts;  // chunk-local codes
  std::vector<int64_t> null_counts;
};

// Chunk boundaries over the records of text[begin, n): num_chunks + 1
// ascending offsets from begin to n, each other one just past a record
// terminator outside quotes. A quote toggles quoting, an escaped "" twice,
// so the quote count's parity says whether an offset is inside quotes.
std::vector<size_t> ChunkBoundaries(std::string_view text, size_t begin,
                                    int num_chunks, int workers) {
  const size_t n = text.size();
  const size_t k = static_cast<size_t>(num_chunks);
  std::vector<size_t> bounds(k + 1, n);
  bounds[0] = begin;
  if (k == 1) return bounds;
  std::vector<size_t> targets(k + 1, n);
  for (size_t j = 0; j < k; ++j) targets[j] = begin + (n - begin) * j / k;
  std::vector<int64_t> quotes(k);
  ParallelFor(static_cast<int64_t>(k), workers, [&](int64_t j) {
    const size_t s = static_cast<size_t>(j);
    quotes[s] = std::count(text.begin() + static_cast<ptrdiff_t>(targets[s]),
                           text.begin() + static_cast<ptrdiff_t>(targets[s + 1]),
                           '"');
  });
  bool in_quotes = false;
  for (size_t j = 1; j < k; ++j) {
    in_quotes ^= (quotes[j - 1] & 1) != 0;
    size_t i = targets[j];
    if (i <= bounds[j - 1]) {
      bounds[j] = bounds[j - 1];
      continue;
    }
    bool q = in_quotes;
    for (; i < n; ++i) {
      const char c = text[i];
      if (c == '"') {
        q = !q;
      } else if (!q && (c == '\n' || c == '\r')) {
        ++i;
        if (c == '\r' && i < n && text[i] == '\n') ++i;
        break;
      }
    }
    bounds[j] = i;
  }
  return bounds;
}

// Records in text[begin, end) as the tokenizer splits them, up to and
// including one that fails to tokenize (the parse writes its first fields
// before it stops there too).
int64_t CountRecords(std::string_view text, size_t begin, size_t end,
                     char separator) {
  const char* first = text.data() + begin;
  const char* last = text.data() + end;
  if (begin == end) return 0;
  if (separator != '\n' && std::memchr(first, '"', end - begin) == nullptr &&
      std::memchr(first, '\r', end - begin) == nullptr) {
    // Only LF ends a record here; a final record may lack it.
    return std::count(first, last, '\n') + (last[-1] == '\n' ? 0 : 1);
  }
  Tokenizer tokenizer(text, end, separator);
  int64_t records = 0;
  for (size_t pos = begin; pos < end;) {
    ++records;
    if (tokenizer.Record(pos, [](std::string_view) {}) != Scan::kOk) break;
  }
  return records;
}

}  // namespace

namespace internal {

Result<Table> ReadCsvChunks(std::string_view text, const CsvOptions& options,
                            int num_chunks) {
  if (text.empty()) {
    return InvalidArgumentError("CSV input has no header record");
  }
  const char sep = options.separator;
  const bool null_literal = options.null_literal;
  // Chunk boundaries assume only CR and LF end records outside quotes.
  if (sep == '"' || sep == '\n' || sep == '\r') num_chunks = 1;
  num_chunks = std::max(1, num_chunks);
  const int workers = std::min(num_chunks, ResolveThreads(options));

  std::vector<std::string> names;
  size_t header_end = 0;
  {
    Tokenizer tokenizer(text, text.size(), sep);
    const Scan scan = tokenizer.Record(
        header_end, [&](std::string_view v) { names.emplace_back(v); });
    if (scan != Scan::kOk) return ScanError(scan, tokenizer.error_offset());
  }
  // A bad header is reported only after the body tokenized cleanly, so
  // an invalid schema leaves nothing to encode.
  Result<TableBuilder> builder = TableBuilder::Create(names);
  const size_t num_attrs = names.size();
  const size_t encoded_attrs = builder.ok() ? num_attrs : 0;

  // Structural pass: record-aligned chunks and their row counts.
  const std::vector<size_t> bounds =
      ChunkBoundaries(text, header_end, num_chunks, workers);
  const size_t k = static_cast<size_t>(num_chunks);
  std::vector<int64_t> first_row(k + 1, 0);
  ParallelFor(num_chunks, workers, [&](int64_t c) {
    const size_t s = static_cast<size_t>(c);
    first_row[s + 1] = CountRecords(text, bounds[s], bounds[s + 1], sep);
  });
  for (size_t c = 0; c < k; ++c) first_row[c + 1] += first_row[c];
  const int64_t num_rows = first_row[k];

  // Zero-filled by the workers: first touches of fresh pages are slow.
  std::vector<std::vector<ValueId>> columns(encoded_attrs);
  ParallelFor(static_cast<int64_t>(encoded_attrs), workers, [&](int64_t a) {
    columns[static_cast<size_t>(a)].resize(static_cast<size_t>(num_rows));
  });

  // Each chunk writes chunk-local codes into its own rows.
  std::vector<ChunkResult> chunks(k);
  ParallelFor(num_chunks, workers, [&](int64_t c) {
    const size_t s = static_cast<size_t>(c);
    ChunkResult& out = chunks[s];
    out.dicts.resize(encoded_attrs);
    out.null_counts.assign(encoded_attrs, 0);
    std::vector<ValueId*> cells(encoded_attrs);
    for (size_t a = 0; a < encoded_attrs; ++a) cells[a] = columns[a].data();
    Tokenizer tokenizer(text, bounds[s + 1], sep);
    size_t pos = bounds[s];
    for (int64_t row = first_row[s]; pos < bounds[s + 1]; ++row) {
      PCBL_CHECK(row < first_row[s + 1]);
      size_t field = 0;
      const Scan scan = tokenizer.Record(pos, [&](std::string_view v) {
        if (field < encoded_attrs) {
          ValueId code;
          if (v.empty() || (null_literal && v == "NULL")) {
            code = kNullValue;
            ++out.null_counts[field];
          } else {
            code = out.dicts[field].Intern(v);
          }
          cells[field][row] = code;
        }
        ++field;
      });
      if (scan != Scan::kOk) {
        out.scan = scan;
        out.error_offset = tokenizer.error_offset();
        return;
      }
      if (field != num_attrs && out.ragged_record < 0) {
        out.ragged_record = row - first_row[s];
        out.ragged_fields = field;
      }
    }
  });

  // Errors in the order a serial parse meets them: the tokenizer's over
  // the whole input first, then the header's schema, then field counts.
  for (const ChunkResult& chunk : chunks) {
    if (chunk.scan != Scan::kOk) {
      return ScanError(chunk.scan, chunk.error_offset);
    }
  }
  if (!builder.ok()) return builder.status();
  for (size_t c = 0; c < k; ++c) {
    if (chunks[c].ragged_record >= 0) {
      return InvalidArgumentError(
          StrCat("record ", 1 + first_row[c] + chunks[c].ragged_record,
                 " has ", chunks[c].ragged_fields, " fields; expected ",
                 num_attrs));
    }
  }

  // Merge the chunk dictionaries in chunk order -- ids stay first-seen
  // over the whole file -- then recode each chunk's rows in place.
  std::vector<int64_t> null_counts(num_attrs, 0);
  std::vector<std::vector<std::vector<ValueId>>> recode(k);
  for (size_t c = 0; c < k; ++c) {
    recode[c].resize(num_attrs);
    for (size_t a = 0; a < num_attrs; ++a) {
      null_counts[a] += chunks[c].null_counts[a];
      const std::vector<std::string>& values = chunks[c].dicts[a].values();
      std::vector<ValueId> ids(values.size());
      bool identity = true;
      for (size_t v = 0; v < values.size(); ++v) {
        ids[v] = builder->InternValue(static_cast<int>(a), values[v]);
        identity = identity && ids[v] == v;
      }
      if (!identity) recode[c][a] = std::move(ids);
    }
  }
  ParallelFor(num_chunks, workers, [&](int64_t c) {
    const size_t s = static_cast<size_t>(c);
    for (size_t a = 0; a < num_attrs; ++a) {
      const std::vector<ValueId>& ids = recode[s][a];
      if (ids.empty()) continue;
      ValueId* cells = columns[a].data();
      for (int64_t r = first_row[s]; r < first_row[s + 1]; ++r) {
        const ValueId v = cells[r];
        cells[r] = v == kNullValue ? v : ids[v];
      }
    }
  });
  builder->AdoptColumns(std::move(columns), std::move(null_counts));
  return builder->Build();
}

}  // namespace internal

Result<Table> ReadCsvString(std::string_view text, const CsvOptions& options) {
  const size_t most = kChunksPerWorker *
                      static_cast<size_t>(std::max(1, ResolveThreads(options)));
  const size_t chunks =
      std::clamp<size_t>(text.size() / kMinChunkBytes, 1, most);
  return internal::ReadCsvChunks(text, options, static_cast<int>(chunks));
}

Result<Table> ReadCsvFile(const std::string& path, const CsvOptions& options) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return IOError(StrCat("cannot open '", path, "' for reading"));
  }
  // Reads to the end. The buffer starts one byte past the size the file
  // reports, so a regular file takes one read; pipes and files that
  // report no size grow it.
  std::error_code no_size;
  const uintmax_t size = std::filesystem::file_size(path, no_size);
  std::string buffer(no_size ? kReadBlockBytes : static_cast<size_t>(size) + 1,
                     '\0');
  size_t filled = 0;
  for (;;) {
    in.read(buffer.data() + filled,
            static_cast<std::streamsize>(buffer.size() - filled));
    filled += static_cast<size_t>(in.gcount());
    if (!in) break;
    buffer.resize(2 * buffer.size());
  }
  if (in.bad()) {
    return IOError(StrCat("error while reading '", path, "'"));
  }
  buffer.resize(filled);
  return ReadCsvString(buffer, options);
}

std::string WriteCsvString(const Table& table, const CsvOptions& options) {
  std::string out;
  for (int a = 0; a < table.num_attributes(); ++a) {
    if (a > 0) out.push_back(options.separator);
    const std::string& name = table.schema().name(a);
    if (NeedsQuoting(name, options.separator)) {
      AppendQuoted(out, name);
    } else {
      out.append(name);
    }
  }
  out.push_back('\n');
  for (int64_t r = 0; r < table.num_rows(); ++r) {
    for (int a = 0; a < table.num_attributes(); ++a) {
      if (a > 0) out.push_back(options.separator);
      ValueId v = table.value(r, a);
      if (IsNull(v)) continue;  // empty field
      const std::string& s = table.dictionary(a).GetString(v);
      if (s.empty() || s == "NULL" || NeedsQuoting(s, options.separator)) {
        AppendQuoted(out, s);
      } else {
        out.append(s);
      }
    }
    out.push_back('\n');
  }
  return out;
}

Status WriteCsvFile(const Table& table, const std::string& path,
                    const CsvOptions& options) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    return IOError(StrCat("cannot open '", path, "' for writing"));
  }
  out << WriteCsvString(table, options);
  if (!out) {
    return IOError(StrCat("error while writing '", path, "'"));
  }
  return Status::Ok();
}

}  // namespace pcbl
