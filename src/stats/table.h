// Console table printer used by the benchmark harnesses to print
// paper-style rows with aligned columns.
#pragma once

#include <string>
#include <vector>

namespace negotiator {

class ConsoleTable {
 public:
  explicit ConsoleTable(std::vector<std::string> headers);

  void add_row(std::vector<std::string> cells);

  /// Renders with padded columns and a header separator.
  std::string to_string() const;
  void print() const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace negotiator
