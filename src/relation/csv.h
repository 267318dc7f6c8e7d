// RFC-4180-flavoured CSV reading/writing for Table.
//
// Supports quoted fields with embedded separators, escaped quotes ("")
// and newlines inside quotes. CRLF and a lone CR end a record like LF
// does. The first record is the header (attribute names). A field whose
// content is empty -- unquoted or quoted ("") -- reads as missing, and so
// does the content NULL (unquoted or quoted "NULL") unless
// CsvOptions::null_literal is off. A final line without a newline is a
// record; a trailing empty line is not.
//
// Reading is one pass from bytes to dictionary codes, split into chunks
// that end on record boundaries and parsed by up to
// CsvOptions::num_threads workers; the table is identical for any thread
// count (docs/DESIGN.md §3, "Ingest").
#ifndef PCBL_RELATION_CSV_H_
#define PCBL_RELATION_CSV_H_

#include <string>
#include <string_view>

#include "relation/table.h"
#include "util/status.h"

namespace pcbl {

/// CSV parsing/serialization options.
struct CsvOptions {
  char separator = ',';
  /// When true, a field whose content is NULL parses as missing.
  bool null_literal = true;
  /// Reading only: worker threads that parse chunks of the input. 0 =
  /// DefaultThreadCount(). Inputs too small to split use one chunk and
  /// start no thread.
  int num_threads = 0;
};

/// Parses CSV text (with header) into a Table.
Result<Table> ReadCsvString(std::string_view text,
                            const CsvOptions& options = {});

/// Reads a CSV file (with header) into a Table.
Result<Table> ReadCsvFile(const std::string& path,
                          const CsvOptions& options = {});

/// Serializes a table to CSV text (with header). Fields containing the
/// separator, quotes, or newlines are quoted; NULLs render as empty fields.
std::string WriteCsvString(const Table& table, const CsvOptions& options = {});

/// Writes a table to a CSV file.
Status WriteCsvFile(const Table& table, const std::string& path,
                    const CsvOptions& options = {});

namespace internal {

/// ReadCsvString with exactly `num_chunks` chunks (at least 1; chunks may
/// be empty), whatever the input's size, over up to
/// CsvOptions::num_threads workers. Exposed so tests can put chunk
/// boundaries on small inputs.
Result<Table> ReadCsvChunks(std::string_view text, const CsvOptions& options,
                            int num_chunks);

}  // namespace internal
}  // namespace pcbl

#endif  // PCBL_RELATION_CSV_H_
