#include "common/csv.h"

#include <stdexcept>

#include "common/contract.h"

namespace memdis {

CsvWriter::CsvWriter(const std::string& path, const std::vector<std::string>& header)
    : file_(path), out_(&file_), columns_(header.size()) {
  if (!file_) throw std::runtime_error("CsvWriter: cannot open " + path);
  expects(columns_ > 0, "csv needs at least one column");
  write_row(header);
}

CsvWriter::CsvWriter(std::ostream& os, const std::vector<std::string>& header)
    : out_(&os), columns_(header.size()) {
  expects(columns_ > 0, "csv needs at least one column");
  write_row(header);
}

void CsvWriter::add_row(const std::vector<std::string>& row) {
  expects(row.size() == columns_, "csv row width mismatch");
  write_row(row);
  ++rows_;
}

void append_csv_field(std::string& out, std::string_view field) {
  if (field.find_first_of(",\"\n\r") == std::string_view::npos) {
    out += field;
    return;
  }
  out += '"';
  for (const char ch : field) {
    if (ch == '"') out += '"';
    out += ch;
  }
  out += '"';
}

void CsvWriter::write_row(const std::vector<std::string>& row) {
  std::string line;
  for (std::size_t i = 0; i < row.size(); ++i) {
    if (i > 0) line += ',';
    append_csv_field(line, row[i]);
  }
  line += '\n';
  out_->write(line.data(), static_cast<std::streamsize>(line.size()));
}

}  // namespace memdis
