#ifndef LAKEKIT_INGEST_LOG_TEMPLATE_H_
#define LAKEKIT_INGEST_LOG_TEMPLATE_H_

#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace lakekit::ingest {

/// A recovered log record structure: literal tokens with "<*>" wildcards for
/// variable fields, e.g. "INFO user <*> logged in from <*>".
struct LogTemplate {
  std::vector<std::string> tokens;
  /// Number of input lines this template covers.
  size_t support = 0;

  /// Space-joined pattern string.
  std::string Pattern() const;

  /// Whether `line` matches this template (same token count; literals must
  /// equal, wildcards match anything).
  bool Matches(std::string_view line) const;
};

/// Tuning for template extraction.
struct LogTemplateOptions {
  /// A template must cover at least this fraction of input lines to survive
  /// (DATAMARAN's coverage-threshold assumption).
  double min_coverage = 0.01;
};

/// DATAMARAN-style unsupervised structure extraction from log files
/// (survey Sec. 5.1), in the paper's three steps:
///  1. candidate generation — each line yields a template by masking
///     digit-bearing tokens as variables, hashed into a counting table;
///  2. pruning — templates below the coverage threshold are dropped and the
///     rest ranked by a score favoring high support and more literals;
///  3. refinement — same-arity templates differing in a single position are
///     generalized and merged until fixpoint.
class LogTemplateExtractor {
 public:
  explicit LogTemplateExtractor(LogTemplateOptions options = {});

  /// Extracts templates from raw log text (one record per line), ordered by
  /// descending support.
  std::vector<LogTemplate> Extract(std::string_view log_text) const;

  /// Index of the first template in `templates` matching `line`.
  static std::optional<size_t> Match(const std::vector<LogTemplate>& templates,
                                     std::string_view line);

  /// Whitespace tokenization of one log line.
  static std::vector<std::string> TokenizeLine(std::string_view line);

  /// True when a token should be treated as a variable field (contains a
  /// digit, or is longer than 32 characters).
  static bool IsVariableToken(std::string_view token);

 private:
  LogTemplateOptions options_;
};

}  // namespace lakekit::ingest

#endif  // LAKEKIT_INGEST_LOG_TEMPLATE_H_
