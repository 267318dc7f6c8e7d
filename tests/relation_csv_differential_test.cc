// Differential and hostile-input tests of the chunked CSV reader.
//
// The reference is the serial reader the chunked one replaced: a record
// parser that builds one std::string per field, then a loop that feeds the
// records to TableBuilder. Every input goes through both, the chunked one
// at 1, 2, 3, 4 and 8 chunks; status code and message must match, and on
// success so must the schema, dictionaries, columns, NULL counts and
// fingerprint. Inputs are seeded and crowd quotes, escapes, separators,
// CR/LF/CRLF, blank lines and NULL/empty fields around chunk boundaries.
#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

#include "pattern/service_registry.h"
#include "relation/csv.h"
#include "util/rng.h"
#include "util/str.h"

namespace pcbl {
namespace {

// --- reference: the serial reader, as it was -----------------------------

Result<std::vector<std::vector<std::string>>> ReferenceParseCsvRecords(
    std::string_view text, const CsvOptions& options) {
  std::vector<std::vector<std::string>> records;
  std::vector<std::string> record;
  std::string field;
  bool in_quotes = false;
  bool field_was_quoted = false;
  bool any_field_in_record = false;

  auto end_field = [&]() {
    record.push_back(field);
    field.clear();
    field_was_quoted = false;
    any_field_in_record = true;
  };
  auto end_record = [&]() {
    end_field();
    records.push_back(std::move(record));
    record.clear();
    any_field_in_record = false;
  };

  size_t i = 0;
  const size_t n = text.size();
  while (i < n) {
    char c = text[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < n && text[i + 1] == '"') {
          field.push_back('"');
          i += 2;
        } else {
          in_quotes = false;
          ++i;
        }
      } else {
        field.push_back(c);
        ++i;
      }
      continue;
    }
    if (c == '"') {
      if (!field.empty()) {
        return InvalidArgumentError(
            StrCat("stray quote inside unquoted field near offset ", i));
      }
      in_quotes = true;
      field_was_quoted = true;
      ++i;
    } else if (c == options.separator) {
      end_field();
      ++i;
    } else if (c == '\r') {
      // Normalize CRLF and lone CR to record ends.
      if (i + 1 < n && text[i + 1] == '\n') ++i;
      end_record();
      ++i;
    } else if (c == '\n') {
      end_record();
      ++i;
    } else {
      field.push_back(c);
      ++i;
    }
  }
  if (in_quotes) {
    return InvalidArgumentError("unterminated quoted field at end of input");
  }
  // Flush a final record without trailing newline; skip a trailing empty
  // line (single empty unquoted field and nothing else).
  if (!field.empty() || field_was_quoted || any_field_in_record) {
    end_record();
  }
  return records;
}

Result<Table> ReferenceReadCsvString(std::string_view text,
                                     const CsvOptions& options) {
  PCBL_ASSIGN_OR_RETURN(auto records, ReferenceParseCsvRecords(text, options));
  if (records.empty()) {
    return InvalidArgumentError("CSV input has no header record");
  }
  PCBL_ASSIGN_OR_RETURN(TableBuilder builder,
                        TableBuilder::Create(std::move(records[0])));
  for (size_t r = 1; r < records.size(); ++r) {
    std::vector<std::string>& rec = records[r];
    if (static_cast<int>(rec.size()) != builder.num_attributes()) {
      return InvalidArgumentError(
          StrCat("record ", r, " has ", rec.size(), " fields; expected ",
                 builder.num_attributes()));
    }
    if (options.null_literal) {
      // AddRow already maps "" and "NULL" to missing.
      PCBL_RETURN_IF_ERROR(builder.AddRow(rec));
    } else {
      // Preserve the NULL literal as a regular value; only "" is missing.
      std::vector<ValueId> codes(rec.size());
      for (size_t a = 0; a < rec.size(); ++a) {
        codes[a] = rec[a].empty()
                       ? kNullValue
                       : builder.InternValue(static_cast<int>(a), rec[a]);
      }
      PCBL_RETURN_IF_ERROR(builder.AddRowCodes(codes));
    }
  }
  return builder.Build();
}

// --- comparison ------------------------------------------------------------

void ExpectSameTable(const Table& got, const Table& want) {
  ASSERT_EQ(got.schema().names(), want.schema().names());
  ASSERT_EQ(got.num_rows(), want.num_rows());
  for (int a = 0; a < want.num_attributes(); ++a) {
    EXPECT_EQ(got.dictionary(a).values(), want.dictionary(a).values())
        << "attribute " << a;
    EXPECT_EQ(got.column(a), want.column(a)) << "attribute " << a;
    EXPECT_EQ(got.NullCount(a), want.NullCount(a)) << "attribute " << a;
  }
  EXPECT_EQ(FingerprintTable(got), FingerprintTable(want));
}

// Reads `text` at `chunks` chunks and checks it against the reference.
// Returns the reference's status.
Status ExpectSameAsReference(std::string_view text, const CsvOptions& options,
                             int chunks) {
  Result<Table> want = ReferenceReadCsvString(text, options);
  Result<Table> got = internal::ReadCsvChunks(text, options, chunks);
  EXPECT_EQ(got.ok(), want.ok())
      << "got " << got.status() << ", want " << want.status();
  if (got.ok() != want.ok()) return want.status();
  if (!want.ok()) {
    EXPECT_EQ(got.status().code(), want.status().code());
    EXPECT_EQ(got.status().message(), want.status().message());
  } else {
    ExpectSameTable(*got, *want);
  }
  return want.status();
}

// --- seeded hostile inputs -------------------------------------------------

// The faults an input may carry, each at an early or a late record.
enum class Fault { kNone, kRagged, kStrayQuote, kUnterminated };

struct Shape {
  char separator = ',';
  bool null_literal = true;
  int attributes = 3;
  int records = 60;
  Fault early = Fault::kNone;
  Fault late = Fault::kNone;
};

const char* Terminator(Rng& rng) {
  static const char* const kTerminators[] = {"\n", "\r\n", "\r"};
  return kTerminators[rng.UniformInt(3)];
}

// One field's bytes: every quoting form the reader accepts, NULL and
// empty in plain and quoted form, values that share a decoded form.
std::string FieldBytes(Rng& rng, char sep) {
  switch (rng.UniformInt(15)) {
    case 0:
      return "";
    case 1:
      return "NULL";
    case 2:
      return "\"\"";
    case 3:
      return "\"NULL\"";
    case 4:
      return StrCat("\"x", std::string(1, sep), "y\"");
    case 5:
      return "\"he said \"\"hi\"\"\"";
    case 6:
      return "\"l1\nl2\"";
    case 7:
      return "\"l1\r\nl2\"";
    case 8:
      return "\"c\rd\"";
    case 9:
      return "\"ab\"cd";  // bytes after the closing quote join the field
    case 10:
      return "\"a\"";  // same value as the plain a
    case 11:
      return "\"\"\"\"";  // a lone quote
    case 12:
      return std::string(8 + rng.UniformInt(12),
                         static_cast<char>('k' + rng.UniformInt(4)));
    default: {
      static const char* const kPlain[] = {"a", "b", "xy", "0.23", "Ideal",
                                           "z9"};
      return kPlain[rng.UniformInt(6)];
    }
  }
}

std::string Record(Rng& rng, const Shape& shape, int fields) {
  std::string out;
  for (int f = 0; f < fields; ++f) {
    if (f > 0) out.push_back(shape.separator);
    out += FieldBytes(rng, shape.separator);
  }
  return out;
}

std::string FaultyRecord(Rng& rng, const Shape& shape, Fault fault) {
  switch (fault) {
    case Fault::kRagged:
      return Record(rng, shape, shape.attributes + (rng.UniformInt(2) ? 1 : -1));
    case Fault::kStrayQuote:
      return "fo\"o" + std::string(1, shape.separator) +
             Record(rng, shape, shape.attributes - 1);
    default:
      return Record(rng, shape, shape.attributes);
  }
}

std::string MakeInput(Rng& rng, const Shape& shape) {
  std::string out;
  for (int a = 0; a < shape.attributes; ++a) {
    if (a > 0) out.push_back(shape.separator);
    out += rng.UniformInt(4) == 0 ? StrCat("\"c", a, "\"") : StrCat("c", a);
  }
  out += Terminator(rng);
  const int early = 1 + static_cast<int>(rng.UniformInt(
                            static_cast<uint32_t>(shape.records / 8 + 1)));
  const int late = shape.records - static_cast<int>(rng.UniformInt(
                                       static_cast<uint32_t>(shape.records / 8 + 1)));
  for (int r = 1; r <= shape.records; ++r) {
    if (r == early && shape.early != Fault::kNone) {
      out += FaultyRecord(rng, shape, shape.early);
    } else if (r == late && shape.late == Fault::kUnterminated) {
      out += Record(rng, shape, shape.attributes - 1);
      out.push_back(shape.separator);
      out += "\"open to the end";
      return out;
    } else if (r == late && shape.late != Fault::kNone) {
      out += FaultyRecord(rng, shape, shape.late);
    } else if (shape.attributes == 1 && rng.UniformInt(10) == 0) {
      // A blank line: one empty field.
    } else {
      out += Record(rng, shape, shape.attributes);
    }
    // The final record may go without a terminator.
    if (r < shape.records || rng.UniformInt(3) != 0) out += Terminator(rng);
  }
  if (shape.attributes == 1 && rng.UniformInt(4) == 0) out += "\n";
  return out;
}

Shape RandomShape(Rng& rng) {
  static const Fault kFaults[] = {Fault::kNone, Fault::kRagged,
                                  Fault::kStrayQuote};
  Shape shape;
  shape.separator = rng.UniformInt(3) == 0 ? ';' : ',';
  shape.null_literal = rng.UniformInt(2) == 0;
  shape.attributes = 1 + static_cast<int>(rng.UniformInt(5));
  shape.records = 10 + static_cast<int>(rng.UniformInt(120));
  // Half the inputs are clean; the rest carry one or two faults.
  if (rng.UniformInt(2) == 0) {
    shape.early = kFaults[rng.UniformInt(3)];
    shape.late = rng.UniformInt(4) == 0 ? Fault::kUnterminated
                                        : kFaults[rng.UniformInt(3)];
  }
  return shape;
}

class CsvIngestDifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(CsvIngestDifferentialTest, SeededInputs) {
  const int chunks = GetParam();
  int clean = 0;
  for (uint64_t seed = 1; seed <= 400; ++seed) {
    SCOPED_TRACE(StrCat("seed ", seed, ", ", chunks, " chunks"));
    Rng rng(seed);
    const Shape shape = RandomShape(rng);
    const std::string text = MakeInput(rng, shape);
    CsvOptions options;
    options.separator = shape.separator;
    options.null_literal = shape.null_literal;
    clean += ExpectSameAsReference(text, options, chunks).ok() ? 1 : 0;
    if (HasFailure()) return;
  }
  // The generator must produce both outcomes in bulk.
  EXPECT_GT(clean, 40);
  EXPECT_LT(clean, 360);
}

TEST_P(CsvIngestDifferentialTest, FaultsEarlyAndLate) {
  const int chunks = GetParam();
  const Fault kFaults[] = {Fault::kNone, Fault::kRagged, Fault::kStrayQuote,
                           Fault::kUnterminated};
  uint64_t seed = 1000;
  for (Fault early : kFaults) {
    for (Fault late : kFaults) {
      if (early == Fault::kUnterminated) continue;  // only at the end
      for (int attributes : {1, 3}) {
        SCOPED_TRACE(StrCat("seed ", seed, ", ", chunks, " chunks"));
        Rng rng(seed++);
        Shape shape;
        shape.attributes = attributes;
        shape.records = 80;
        shape.early = early;
        shape.late = late;
        ExpectSameAsReference(MakeInput(rng, shape), CsvOptions{}, chunks);
      }
    }
  }
}

// Slides a run of tricky records across the chunk targets byte by byte:
// padding the first row by p bytes moves every target by about p/k bytes
// but the tricky run by p bytes.
TEST_P(CsvIngestDifferentialTest, BoundarySweep) {
  const int chunks = GetParam();
  const std::string tricky =
      "\"q,1\",\"l1\r\nl2\"\r\n"
      "\"\",NULL\r"
      "\"he said \"\"hi\"\"\",\"\"\n"
      "\"NULL\",\"c\rd\"\n"
      ",\r\n"
      "\"ab\"cd,\"\"\"\"\r";
  for (bool null_literal : {true, false}) {
    for (int pad = 0; pad < 2 * static_cast<int>(tricky.size()) + 16; ++pad) {
      SCOPED_TRACE(StrCat("pad ", pad, ", ", chunks, " chunks"));
      std::string text = "k,v\n" + std::string(pad + 1, 'p') + ",x\n";
      for (int i = 0; i < 4; ++i) text += tricky;
      text += "a,b\nc,d";
      CsvOptions options;
      options.null_literal = null_literal;
      ASSERT_TRUE(ExpectSameAsReference(text, options, chunks).ok());
      if (HasFailure()) return;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(SingleChunk, CsvIngestDifferentialTest,
                         ::testing::Values(1));
INSTANTIATE_TEST_SUITE_P(MultiChunk, CsvIngestDifferentialTest,
                         ::testing::Values(2, 3, 4, 8));

TEST(CsvIngestTest, EdgeInputsAtEveryChunkCount) {
  const std::vector<std::string> inputs = {
      "",        "\n",          "a",          "a\n",        "a\n\n",
      "a\r\n\r\n", "a,b",       "a,a\n1,2\n", "a,a\n\"x\n", "\"a\"\"",
      "a\nfo\"o\n", "a\n\"",   "a\n\"x\"y\"\n", "a,b\n1\n\"open",
      ",\n,\n",  "a\r\rb\r",    "\"a\nb\",c\r\n1,2"};
  for (const std::string& text : inputs) {
    for (int chunks : {1, 2, 3, 4, 8}) {
      SCOPED_TRACE(StrCat("input '", text, "', ", chunks, " chunks"));
      ExpectSameAsReference(text, CsvOptions{}, chunks);
    }
  }
}

TEST(CsvIngestTest, LargeInputAtEveryThreadCount) {
  // Over 4 MiB, so ReadCsvString itself cuts it into four chunks.
  Rng rng(7);
  std::string text = "id,cut,color\n";
  while (text.size() < (size_t{9} << 19)) {
    text += StrCat(rng.UniformInt(5000), ",", FieldBytes(rng, ','), ",c",
                   rng.UniformInt(7), "\n");
  }
  const Result<Table> want = ReferenceReadCsvString(text, CsvOptions{});
  ASSERT_TRUE(want.ok()) << want.status();
  for (int threads : {1, 2, 4}) {
    CsvOptions options;
    options.num_threads = threads;
    const Result<Table> got = ReadCsvString(text, options);
    ASSERT_TRUE(got.ok()) << got.status();
    ExpectSameTable(*got, *want);
  }
}

}  // namespace
}  // namespace pcbl
