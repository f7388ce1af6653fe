#include "ingest/log_template.h"

#include <algorithm>
#include <cctype>
#include <unordered_map>

#include "common/hash.h"
#include "common/string_util.h"
#include "text/dictionary.h"

namespace lakekit::ingest {

namespace {
constexpr std::string_view kWildcard = "<*>";
/// Cap on the number of emitted templates.
constexpr size_t kMaxTemplates = 64;
/// Number of refinement passes merging near-identical templates.
constexpr int kRefinementPasses = 3;
}  // namespace

std::string LogTemplate::Pattern() const {
  return Join(tokens, " ");
}

bool LogTemplate::Matches(std::string_view line) const {
  std::vector<std::string> line_tokens =
      LogTemplateExtractor::TokenizeLine(line);
  if (line_tokens.size() != tokens.size()) return false;
  for (size_t i = 0; i < tokens.size(); ++i) {
    if (tokens[i] != kWildcard && tokens[i] != line_tokens[i]) return false;
  }
  return true;
}

LogTemplateExtractor::LogTemplateExtractor(LogTemplateOptions options)
    : options_(options) {}

std::vector<std::string> LogTemplateExtractor::TokenizeLine(
    std::string_view line) {
  std::vector<std::string> tokens;
  std::string current;
  for (char c : line) {
    if (std::isspace(static_cast<unsigned char>(c))) {
      if (!current.empty()) {
        tokens.push_back(std::move(current));
        current.clear();
      }
    } else {
      current.push_back(c);
    }
  }
  if (!current.empty()) tokens.push_back(std::move(current));
  return tokens;
}

bool LogTemplateExtractor::IsVariableToken(std::string_view token) {
  if (token.size() > 32) return true;
  for (char c : token) {
    if (std::isdigit(static_cast<unsigned char>(c))) return true;
  }
  return false;
}

std::vector<LogTemplate> LogTemplateExtractor::Extract(
    std::string_view log_text) const {
  // Step 1: candidate generation into a counting hash table.
  std::unordered_map<std::string, LogTemplate> candidates;
  size_t num_lines = 0;
  size_t start = 0;
  while (start <= log_text.size()) {
    size_t end = log_text.find('\n', start);
    if (end == std::string_view::npos) end = log_text.size();
    std::string_view line = Trim(log_text.substr(start, end - start));
    if (!line.empty()) {
      ++num_lines;
      std::vector<std::string> tokens = TokenizeLine(line);
      for (std::string& t : tokens) {
        if (IsVariableToken(t)) t = std::string(kWildcard);
      }
      std::string key = Join(tokens, " ");
      auto [it, inserted] = candidates.try_emplace(key);
      if (inserted) it->second.tokens = std::move(tokens);
      ++it->second.support;
    }
    if (end == log_text.size()) break;
    start = end + 1;
  }
  if (num_lines == 0) return {};

  // Step 2: coverage-threshold pruning.
  const size_t min_support = std::max<size_t>(
      1, static_cast<size_t>(options_.min_coverage *
                             static_cast<double>(num_lines)));
  std::vector<LogTemplate> templates;
  for (auto& [key, tmpl] : candidates) {
    if (tmpl.support >= min_support) templates.push_back(std::move(tmpl));
  }

  // Step 3: refinement — merge same-arity templates differing in exactly one
  // position by generalizing that position.
  for (int pass = 0; pass < kRefinementPasses; ++pass) {
    bool merged_any = false;
    for (size_t i = 0; i < templates.size(); ++i) {
      for (size_t j = i + 1; j < templates.size(); ++j) {
        if (templates[i].tokens.size() != templates[j].tokens.size()) continue;
        size_t diff_pos = 0;
        int diffs = 0;
        for (size_t p = 0; p < templates[i].tokens.size() && diffs <= 1; ++p) {
          if (templates[i].tokens[p] != templates[j].tokens[p]) {
            diff_pos = p;
            ++diffs;
          }
        }
        if (diffs == 1) {
          templates[i].tokens[diff_pos] = std::string(kWildcard);
          templates[i].support += templates[j].support;
          templates.erase(templates.begin() + static_cast<ptrdiff_t>(j));
          --j;
          merged_any = true;
        }
      }
    }
    if (!merged_any) break;
  }
  // Re-deduplicate templates made identical by refinement.
  {
    // Pattern ids are first-seen positions in `deduped`.
    text::StringDictionary patterns;
    std::vector<LogTemplate> deduped;
    for (LogTemplate& t : templates) {
      const std::string key = t.Pattern();
      const uint32_t id = patterns.Intern(key, Fnv1a64(key));
      if (id == deduped.size()) {
        deduped.push_back(std::move(t));
      } else {
        deduped[id].support += t.support;
      }
    }
    templates = std::move(deduped);
  }

  // Rank: support first, then more literal tokens (specificity) as the
  // tiebreak — DATAMARAN's score favors structure that explains more data
  // with more fixed content.
  auto literal_count = [](const LogTemplate& t) {
    size_t literals = 0;
    for (const std::string& tok : t.tokens) {
      if (tok != kWildcard) ++literals;
    }
    return literals;
  };
  std::sort(templates.begin(), templates.end(),
            [&](const LogTemplate& a, const LogTemplate& b) {
              if (a.support != b.support) return a.support > b.support;
              return literal_count(a) > literal_count(b);
            });
  if (templates.size() > kMaxTemplates) {
    templates.resize(kMaxTemplates);
  }
  return templates;
}

std::optional<size_t> LogTemplateExtractor::Match(
    const std::vector<LogTemplate>& templates, std::string_view line) {
  for (size_t i = 0; i < templates.size(); ++i) {
    if (templates[i].Matches(line)) return i;
  }
  return std::nullopt;
}

}  // namespace lakekit::ingest
