#include "mcfs/core/instance_io.h"

#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>
#include <vector>

#include "mcfs/common/line_reader.h"

namespace mcfs {

namespace {

Status ImplausibleCount(const char* what, int64_t count, int64_t bytes) {
  std::ostringstream msg;
  msg << "header claims " << count << " " << what << " but the file has "
      << bytes << " bytes";
  return InvalidInputError(msg.str());
}

int64_t FileSizeBytes(std::ifstream& in) {
  const std::streampos current = in.tellg();
  in.seekg(0, std::ios::end);
  const std::streampos end = in.tellg();
  in.seekg(current);
  return end < 0 ? -1 : static_cast<int64_t>(end);
}

// "MCFS 1"-style magic/version line shared by both readers.
Status ExpectMagic(LineReader& reader, const std::string& magic) {
  std::string line;
  if (!reader.NextLine(&line)) {
    return InvalidInputError("empty file (expected \"" + magic +
                             " 1\" header)");
  }
  std::string found;
  int version = 0;
  if (!ParseFields(line, &found, &version) || found != magic ||
      version != 1) {
    return reader.ParseError("expected \"" + magic + " 1\", got \"" + line +
                             "\"");
  }
  return OkStatus();
}

}  // namespace

Status WriteInstance(const McfsInstance& instance, const std::string& path) {
  std::ofstream out(path);
  if (!out) return IoError("cannot open for writing: " + path);
  out << "MCFS 1\n";
  out << instance.m() << ' ' << instance.l() << ' ' << instance.k << '\n';
  for (const NodeId customer : instance.customers) out << customer << '\n';
  for (int j = 0; j < instance.l(); ++j) {
    out << instance.facility_nodes[j] << ' ' << instance.capacities[j]
        << '\n';
  }
  if (!out) return IoError("short write: " + path);
  return OkStatus();
}

StatusOr<McfsInstance> ReadInstance(const Graph* graph,
                                    const std::string& path) {
  MCFS_CHECK(graph != nullptr);
  std::ifstream in(path);
  if (!in) return IoError("cannot open: " + path);
  const int64_t bytes = FileSizeBytes(in);
  LineReader reader(in);
  MCFS_RETURN_IF_ERROR(ExpectMagic(reader, "MCFS"));

  std::string line;
  if (!reader.NextLine(&line)) {
    return reader.TruncatedError("\"<m> <l> <k>\" header");
  }
  int64_t m = 0;
  int64_t l = 0;
  int64_t k = 0;
  if (!ParseFields(line, &m, &l, &k) || m < 0 || l < 0 || k < 0) {
    return reader.ParseError("expected nonnegative \"<m> <l> <k>\", got \"" +
                             line + "\"");
  }
  if (bytes >= 0 && m > bytes) return ImplausibleCount("customers", m, bytes);
  if (bytes >= 0 && l > bytes) return ImplausibleCount("facilities", l, bytes);

  McfsInstance instance;
  instance.graph = graph;
  instance.k = static_cast<int>(k);
  instance.customers.reserve(static_cast<size_t>(m));
  for (int64_t i = 0; i < m; ++i) {
    if (!reader.NextLine(&line)) {
      return reader.TruncatedError(std::to_string(m) + " customer lines");
    }
    int64_t customer = 0;
    if (!ParseFields(line, &customer)) {
      return reader.ParseError("expected customer node id, got \"" + line +
                               "\"");
    }
    if (customer < 0 || customer >= graph->NumNodes()) {
      return reader.ParseError(
          "customer node " + std::to_string(customer) +
          " out of range [0, " + std::to_string(graph->NumNodes()) + ")");
    }
    instance.customers.push_back(static_cast<NodeId>(customer));
  }
  instance.facility_nodes.reserve(static_cast<size_t>(l));
  instance.capacities.reserve(static_cast<size_t>(l));
  for (int64_t j = 0; j < l; ++j) {
    if (!reader.NextLine(&line)) {
      return reader.TruncatedError(std::to_string(l) + " facility lines");
    }
    int64_t node = 0;
    int64_t capacity = 0;
    if (!ParseFields(line, &node, &capacity)) {
      return reader.ParseError("expected \"<facility node> <capacity>\", "
                               "got \"" + line + "\"");
    }
    if (node < 0 || node >= graph->NumNodes()) {
      return reader.ParseError(
          "facility node " + std::to_string(node) + " out of range [0, " +
          std::to_string(graph->NumNodes()) + ")");
    }
    if (capacity < 0) {
      return reader.ParseError("negative capacity " +
                               std::to_string(capacity));
    }
    instance.facility_nodes.push_back(static_cast<NodeId>(node));
    instance.capacities.push_back(static_cast<int>(capacity));
  }
  return instance;
}

Status WriteSolution(const McfsSolution& solution, const std::string& path) {
  std::ofstream out(path);
  if (!out) return IoError("cannot open for writing: " + path);
  out.precision(std::numeric_limits<double>::max_digits10);
  out << "MCFSSOL 1\n";
  out << solution.selected.size() << ' ' << solution.assignment.size()
      << ' ' << solution.objective << ' ' << (solution.feasible ? 1 : 0)
      << '\n';
  for (size_t s = 0; s < solution.selected.size(); ++s) {
    out << solution.selected[s]
        << (s + 1 == solution.selected.size() ? '\n' : ' ');
  }
  if (solution.selected.empty()) out << '\n';
  for (size_t i = 0; i < solution.assignment.size(); ++i) {
    out << solution.assignment[i] << ' ' << solution.distances[i] << '\n';
  }
  if (!out) return IoError("short write: " + path);
  return OkStatus();
}

StatusOr<McfsSolution> ReadSolution(const std::string& path) {
  std::ifstream in(path);
  if (!in) return IoError("cannot open: " + path);
  const int64_t bytes = FileSizeBytes(in);
  LineReader reader(in);
  MCFS_RETURN_IF_ERROR(ExpectMagic(reader, "MCFSSOL"));

  std::string line;
  if (!reader.NextLine(&line)) {
    return reader.TruncatedError(
        "\"<num_selected> <m> <objective> <feasible>\" header");
  }
  int64_t num_selected = 0;
  int64_t m = 0;
  double objective = 0.0;
  int feasible = 0;
  if (!ParseFields(line, &num_selected, &m, &objective, &feasible) ||
      num_selected < 0 || m < 0 || (feasible != 0 && feasible != 1) ||
      !std::isfinite(objective)) {
    return reader.ParseError(
        "expected \"<num_selected> <m> <objective> <feasible:0|1>\" with a "
        "finite objective, got \"" + line + "\"");
  }
  if (bytes >= 0 && num_selected > bytes) {
    return ImplausibleCount("selected facilities", num_selected, bytes);
  }
  if (bytes >= 0 && m > bytes) {
    return ImplausibleCount("assignments", m, bytes);
  }

  McfsSolution solution;
  solution.objective = objective;
  solution.feasible = feasible != 0;
  if (!reader.NextLine(&line)) {
    return reader.TruncatedError("selected-facilities line");
  }
  {
    std::istringstream fields(line);
    int64_t j = 0;
    while (fields >> j) {
      if (j < 0) {
        return reader.ParseError("negative selected facility index " +
                                 std::to_string(j));
      }
      solution.selected.push_back(static_cast<int>(j));
    }
    if (!fields.eof()) {
      return reader.ParseError("expected facility indices, got \"" + line +
                               "\"");
    }
    if (static_cast<int64_t>(solution.selected.size()) != num_selected) {
      return reader.ParseError(
          "expected " + std::to_string(num_selected) +
          " selected facilities, found " +
          std::to_string(solution.selected.size()));
    }
  }
  solution.assignment.reserve(static_cast<size_t>(m));
  solution.distances.reserve(static_cast<size_t>(m));
  for (int64_t i = 0; i < m; ++i) {
    if (!reader.NextLine(&line)) {
      return reader.TruncatedError(std::to_string(m) + " assignment lines");
    }
    int64_t assignment = 0;
    double distance = 0.0;
    if (!ParseFields(line, &assignment, &distance) || assignment < -1 ||
        !std::isfinite(distance) || distance < 0.0) {
      return reader.ParseError(
          "expected \"<assignment >= -1> <distance >= 0>\", got \"" + line +
          "\"");
    }
    solution.assignment.push_back(static_cast<int>(assignment));
    solution.distances.push_back(distance);
  }
  return solution;
}

}  // namespace mcfs
