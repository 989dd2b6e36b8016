#include "mcfs/graph/graph_io.h"

#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>

#include "mcfs/common/line_reader.h"

namespace mcfs {

namespace {

// Size of the file in bytes; -1 when it cannot be measured. Used to
// reject headers whose node/edge counts could not possibly fit in the
// file — every record costs at least two bytes ("0\n") — so a corrupt
// count fails with a typed error instead of a gigantic allocation.
int64_t FileSizeBytes(std::ifstream& in) {
  const std::streampos current = in.tellg();
  in.seekg(0, std::ios::end);
  const std::streampos end = in.tellg();
  in.seekg(current);
  return end < 0 ? -1 : static_cast<int64_t>(end);
}

Status ImplausibleCount(const char* what, int64_t count, int64_t bytes) {
  std::ostringstream msg;
  msg << "header claims " << count << " " << what << " but the file has "
      << bytes << " bytes";
  return InvalidInputError(msg.str());
}

}  // namespace

Status WriteGraph(const Graph& graph, const std::string& path) {
  std::ofstream out(path);
  if (!out) return IoError("cannot open for writing: " + path);
  out.precision(std::numeric_limits<double>::max_digits10);
  out << graph.NumNodes() << ' ' << graph.NumEdges() << ' '
      << (graph.has_coordinates() ? 1 : 0) << '\n';
  if (graph.has_coordinates()) {
    for (NodeId v = 0; v < graph.NumNodes(); ++v) {
      const Point& p = graph.coordinate(v);
      out << p.x << ' ' << p.y << '\n';
    }
  }
  for (NodeId u = 0; u < graph.NumNodes(); ++u) {
    for (const AdjEntry& e : graph.Neighbors(u)) {
      if (u < e.to) out << u << ' ' << e.to << ' ' << e.weight << '\n';
    }
  }
  if (!out) return IoError("short write: " + path);
  return OkStatus();
}

StatusOr<Graph> ReadGraph(const std::string& path) {
  std::ifstream in(path);
  if (!in) return IoError("cannot open: " + path);
  const int64_t bytes = FileSizeBytes(in);
  LineReader reader(in);
  std::string line;

  if (!reader.NextLine(&line)) {
    return InvalidInputError("empty graph file: " + path);
  }
  int64_t num_nodes = 0;
  int64_t num_edges = 0;
  int has_coords = 0;
  if (!ParseFields(line, &num_nodes, &num_edges, &has_coords) ||
      num_nodes < 0 || num_edges < 0 ||
      (has_coords != 0 && has_coords != 1)) {
    return reader.ParseError(
        "expected header \"<num_nodes> <num_edges> <has_coords:0|1>\", got "
        "\"" + line + "\"");
  }
  if (bytes >= 0 && num_nodes > bytes) {
    return ImplausibleCount("nodes", num_nodes, bytes);
  }
  if (bytes >= 0 && num_edges > bytes) {
    return ImplausibleCount("edges", num_edges, bytes);
  }

  GraphBuilder builder(static_cast<int>(num_nodes));
  if (has_coords == 1) {
    std::vector<Point> coords;
    coords.reserve(static_cast<size_t>(num_nodes));
    for (int64_t v = 0; v < num_nodes; ++v) {
      if (!reader.NextLine(&line)) {
        return reader.TruncatedError(std::to_string(num_nodes) +
                                     " coordinate lines");
      }
      Point p;
      if (!ParseFields(line, &p.x, &p.y) || !std::isfinite(p.x) ||
          !std::isfinite(p.y)) {
        return reader.ParseError("expected finite \"x y\", got \"" + line +
                                 "\"");
      }
      coords.push_back(p);
    }
    builder.SetCoordinates(std::move(coords));
  }
  for (int64_t i = 0; i < num_edges; ++i) {
    if (!reader.NextLine(&line)) {
      return reader.TruncatedError(std::to_string(num_edges) +
                                   " edge lines");
    }
    int64_t u = 0;
    int64_t v = 0;
    double w = 0.0;
    if (!ParseFields(line, &u, &v, &w)) {
      return reader.ParseError("expected edge \"u v weight\", got \"" +
                               line + "\"");
    }
    if (u < 0 || u >= num_nodes || v < 0 || v >= num_nodes) {
      return reader.ParseError("edge endpoint out of range [0, " +
                               std::to_string(num_nodes) + "): \"" + line +
                               "\"");
    }
    if (!std::isfinite(w) || w <= 0.0) {
      // Every Dijkstra variant assumes positive weights; reject here so
      // a negative / NaN length never reaches a search.
      return reader.ParseError(
          "edge weight must be finite and positive, got \"" + line + "\"");
    }
    builder.AddEdge(static_cast<NodeId>(u), static_cast<NodeId>(v), w);
  }
  return builder.Build();
}

}  // namespace mcfs
