#include "csv/csv.h"

#include <algorithm>
#include <cstring>
#include <string>

namespace lakekit::csv {

namespace {

/// Reads the field at `p` one character at a time and appends its content
/// to `out`: the path for a field that quoting or a '\r' changed. Returns
/// where the field ends (at a delimiter, a '\n' or `end`), or nullptr when
/// a quote never closes.
const char* UnescapeField(const char* p, const char* end, char delim,
                          std::vector<char>& out) {
  bool started = false;
  bool in_quotes = false;
  while (p < end) {
    const char c = *p;
    if (in_quotes) {
      if (c != '"') {
        out.push_back(c);
        ++p;
      } else if (p + 1 < end && p[1] == '"') {
        out.push_back('"');
        p += 2;
      } else {
        in_quotes = false;
        ++p;
      }
    } else if (c == '"' && !started) {
      in_quotes = true;
      started = true;
      ++p;
    } else if (c == delim || c == '\n') {
      return p;
    } else {
      if (c != '\r') {
        out.push_back(c);
        started = true;
      }
      ++p;
    }
  }
  return in_quotes ? nullptr : p;
}

/// Skips the '\r's at `p` that no field keeps (a '\r' delimiter is kept).
const char* SkipCarriageReturns(const char* p, const char* end, char delim) {
  if (delim == '\r') return p;
  while (p < end && *p == '\r') ++p;
  return p;
}

}  // namespace

Result<FieldGrid> Tokenize(std::string_view text, const ParseOptions& options) {
  const char delim = options.delimiter;
  const char* p = text.data();
  const char* const end = p + text.size();
  FieldGrid grid;

  // Reads the field at p into *field and leaves p on its terminator; false
  // on an unterminated quote. A field is a view into the text when its
  // content is one run of it: unquoted with '\r's only at its ends, or
  // quoted without doubled quotes and followed by nothing but '\r's.
  // Anything else is unescaped into the grid's buffer, reserved at the
  // text's size on first use: an unescaped field is never longer than its
  // raw bytes, so the buffer never moves and earlier views stay valid.
  auto read_field = [&](std::string_view* field) {
    // '\r's before a field's first byte are dropped, also before a quote.
    const char* q = SkipCarriageReturns(p, end, delim);
    if (q < end && *q == '"') {
      const char* open = q + 1;
      const char* close = static_cast<const char*>(
          std::memchr(open, '"', static_cast<size_t>(end - open)));
      if (close == nullptr) return false;
      const char* t = close + 1;
      bool run = t == end || *t != '"';
      for (; run && t < end && *t != delim && *t != '\n'; ++t) {
        run = *t == '\r';
      }
      if (run) {
        *field = std::string_view(open, static_cast<size_t>(close - open));
        p = t;
        return true;
      }
    } else {
      const char* s = q;
      bool cr = false;
      for (; q < end && *q != delim && *q != '\n'; ++q) cr |= *q == '\r';
      const char* e = q;
      while (cr && e > s && e[-1] == '\r') --e;
      if (!cr || std::find(s, e, '\r') == e) {
        *field = std::string_view(s, static_cast<size_t>(e - s));
        p = q;
        return true;
      }
    }
    std::vector<char>& buf = grid.unescaped_;
    if (buf.capacity() == 0) buf.reserve(text.size());
    const size_t offset = buf.size();
    p = UnescapeField(p, end, delim, buf);
    if (p == nullptr) return false;
    *field = std::string_view(buf.data() + offset, buf.size() - offset);
    return true;
  };

  std::vector<std::string_view> first;  // the first record's fields
  size_t width = 0;                     // fields per record, from the first
  size_t records = 0;                   // records read, the header included
  Status ragged;
  // A record starts wherever more than dropped '\r's remain.
  while (SkipCarriageReturns(p, end, delim) < end) {
    size_t fields = 0;
    while (true) {
      std::string_view field;
      if (!read_field(&field)) {
        return Status::Corruption("CSV: unterminated quoted field");
      }
      if (records == 0) {
        first.push_back(field);
      } else if (fields < width) {
        grid.columns_[fields].push_back(field);
      }
      ++fields;
      if (p == end || *p != delim) break;
      ++p;
    }
    if (p < end) ++p;  // the '\n' ending the record
    if (records == 0) {
      width = fields;
      grid.columns_.resize(width);
      if (options.has_header) {
        grid.header_.assign(first.begin(), first.end());
      } else {
        for (size_t c = 0; c < width; ++c) {
          grid.header_.push_back("col" + std::to_string(c));
          grid.columns_[c].push_back(first[c]);
        }
      }
    } else if (fields != width && ragged.ok()) {
      ragged = Status::Corruption(
          "CSV: record " + std::to_string(records) + " has " +
          std::to_string(fields) + " fields, expected " +
          std::to_string(width));
    }
    ++records;
  }
  if (records == 0 && options.has_header) {
    return Status::Corruption("CSV: empty input but header expected");
  }
  LAKEKIT_RETURN_IF_ERROR(ragged);
  grid.num_records_ = records - (options.has_header ? 1 : 0);
  return grid;
}

Result<CsvData> Parse(std::string_view text, const ParseOptions& options) {
  LAKEKIT_ASSIGN_OR_RETURN(FieldGrid grid, Tokenize(text, options));
  CsvData out;
  out.header = grid.header();
  out.records.resize(grid.num_records());
  for (size_t r = 0; r < grid.num_records(); ++r) {
    out.records[r].reserve(grid.num_columns());
    for (size_t c = 0; c < grid.num_columns(); ++c) {
      out.records[r].emplace_back(grid.field(r, c));
    }
  }
  return out;
}

std::string QuoteField(std::string_view field, char delimiter) {
  bool needs_quotes = false;
  for (char c : field) {
    if (c == delimiter || c == '"' || c == '\n' || c == '\r') {
      needs_quotes = true;
      break;
    }
  }
  if (!needs_quotes) return std::string(field);
  std::string out = "\"";
  for (char c : field) {
    if (c == '"') out += "\"\"";
    else out.push_back(c);
  }
  out.push_back('"');
  return out;
}

std::string Write(const CsvData& data, char delimiter) {
  std::string out;
  auto write_record = [&](const std::vector<std::string>& rec) {
    for (size_t i = 0; i < rec.size(); ++i) {
      if (i > 0) out.push_back(delimiter);
      out += QuoteField(rec[i], delimiter);
    }
    out.push_back('\n');
  };
  write_record(data.header);
  for (const auto& rec : data.records) write_record(rec);
  return out;
}

}  // namespace lakekit::csv
