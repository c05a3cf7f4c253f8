#include "stats/table.h"

#include <cstdio>
#include <sstream>

#include "common/assert.h"

namespace negotiator {

ConsoleTable::ConsoleTable(std::vector<std::string> headers)
    : headers_(std::move(headers)) {
  NEG_ASSERT(!headers_.empty(), "table needs headers");
}

void ConsoleTable::add_row(std::vector<std::string> cells) {
  NEG_ASSERT(cells.size() == headers_.size(), "row width mismatch");
  rows_.push_back(std::move(cells));
}

std::string ConsoleTable::to_string() const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    widths[c] = headers_[c].size();
    for (const auto& row : rows_) widths[c] = std::max(widths[c], row[c].size());
  }
  std::ostringstream os;
  auto emit_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      os << row[c];
      if (c + 1 < row.size()) {
        os << std::string(widths[c] - row[c].size() + 2, ' ');
      }
    }
    os << '\n';
  };
  emit_row(headers_);
  std::size_t total = 0;
  for (std::size_t c = 0; c < widths.size(); ++c) {
    total += widths[c] + (c + 1 < widths.size() ? 2 : 0);
  }
  os << std::string(total, '-') << '\n';
  for (const auto& row : rows_) emit_row(row);
  return os.str();
}

void ConsoleTable::print() const { std::fputs(to_string().c_str(), stdout); }

}  // namespace negotiator
