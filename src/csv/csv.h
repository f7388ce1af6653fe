#ifndef LAKEKIT_CSV_CSV_H_
#define LAKEKIT_CSV_CSV_H_

#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"

namespace lakekit::csv {

/// Options for parsing CSV text.
struct ParseOptions {
  char delimiter = ',';
  /// When true the first record is treated as the header row.
  bool has_header = true;
};

/// A tokenized CSV file, column by column: the header (synthesized as
/// col0..colN when the file has none) and one field per record in each
/// column. A field is a view into the tokenized text, except a field that
/// quoting or a '\r' changed, which views the unescaped copy the grid owns
/// on the heap. Views stay valid while the text lives, also when the grid
/// is moved.
class FieldGrid {
 public:
  FieldGrid() = default;
  // A copy's fields would still view this grid's buffer.
  FieldGrid(const FieldGrid&) = delete;
  FieldGrid& operator=(const FieldGrid&) = delete;
  FieldGrid(FieldGrid&&) = default;
  FieldGrid& operator=(FieldGrid&&) = default;

  const std::vector<std::string>& header() const { return header_; }
  size_t num_columns() const { return header_.size(); }
  size_t num_records() const { return num_records_; }

  /// The fields of column `col`, one per record (the header excluded).
  std::span<const std::string_view> column(size_t col) const {
    return columns_[col];
  }
  std::string_view field(size_t record, size_t col) const {
    return columns_[col][record];
  }

  /// The unescaped fields' bytes: every field lies in the text or in here.
  std::string_view unescaped() const {
    return {unescaped_.data(), unescaped_.size()};
  }

 private:
  friend Result<FieldGrid> Tokenize(std::string_view text,
                                    const ParseOptions& options);

  std::vector<std::string> header_;
  std::vector<std::vector<std::string_view>> columns_;
  size_t num_records_ = 0;
  std::vector<char> unescaped_;
};

/// Tokenizes RFC-4180-style CSV: quoted fields may contain delimiters,
/// newlines and doubled quotes, text after a closing quote joins the field,
/// and a '\r' outside quotes is dropped. Corruption on an unterminated
/// quote, on empty input when a header is expected, and on a record whose
/// field count differs from the first record's (ragged files are how data
/// swamps start).
Result<FieldGrid> Tokenize(std::string_view text,
                           const ParseOptions& options = {});

/// A parsed CSV file with owned, string-valued records.
struct CsvData {
  std::vector<std::string> header;
  std::vector<std::vector<std::string>> records;
};

/// Tokenize, copied out into owned records.
Result<CsvData> Parse(std::string_view text, const ParseOptions& options = {});

/// Serializes records to CSV, quoting fields that require it.
std::string Write(const CsvData& data, char delimiter = ',');

/// Quotes a single field if it contains the delimiter, quotes or newlines.
std::string QuoteField(std::string_view field, char delimiter = ',');

}  // namespace lakekit::csv

#endif  // LAKEKIT_CSV_CSV_H_
