#pragma once

/// \file table.hpp
/// Plain-text and CSV table rendering for the benchmark harnesses and the
/// CLI: every bench binary prints its paper-style rows through it.

#include <iosfwd>
#include <string>
#include <vector>

namespace flexopt {

/// Accumulates rows of string cells and renders them aligned (stdout) or as
/// CSV (files consumed by plotting scripts).
class Table {
 public:
  explicit Table(std::vector<std::string> header);

  /// Append one row; pads/truncates to the header width.
  void add_row(std::vector<std::string> cells);

  [[nodiscard]] std::size_t rows() const { return rows_.size(); }

  /// Render with column alignment and a header underline.
  void print(std::ostream& os) const;

  /// Render as RFC-4180-ish CSV (no quoting of embedded commas needed for
  /// our numeric content; asserts if a cell contains one).
  void write_csv(std::ostream& os) const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// printf-style float formatting helpers used by the benches.
std::string fmt_double(double v, int precision = 2);
std::string fmt_percent(double fraction, int precision = 1);

}  // namespace flexopt
