#include "mcfs/serve/checkpoint.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

namespace mcfs {

namespace {

constexpr char kMagic[] = "MCFSCKPT";
constexpr int kVersion = 1;

// FNV-1a 64: tiny, dependency-free, and plenty to catch truncation and
// bit rot (this is an integrity check, not an adversarial MAC).
constexpr uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr uint64_t kFnvPrime = 1099511628211ULL;

uint64_t FnvAbsorb(uint64_t hash, const std::string& line) {
  for (const char c : line) {
    hash ^= static_cast<unsigned char>(c);
    hash *= kFnvPrime;
  }
  hash ^= static_cast<unsigned char>('\n');
  hash *= kFnvPrime;
  return hash;
}

// Doubles travel as raw IEEE-754 bit patterns: exact round trip, no
// locale or precision drift — the restored seed must replay warm
// answers byte-identical to the process that exported it.
std::string DoubleHex(double value) {
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(bits));
  return std::string(buffer);
}

bool HexDouble(const std::string& text, double* out) {
  if (text.size() != 16) return false;
  char* end = nullptr;
  const unsigned long long bits = std::strtoull(text.c_str(), &end, 16);
  if (end != text.c_str() + text.size()) return false;
  const uint64_t fixed = static_cast<uint64_t>(bits);
  std::memcpy(out, &fixed, sizeof(fixed));
  return true;
}

void WriteWarmSeed(std::ostringstream& out, const WarmSeed& seed) {
  out << "warmseed " << seed.customers.size() << " "
      << seed.facility_nodes.size() << "\n";
  for (const WarmSeedCustomer& customer : seed.customers) {
    out << "cust " << customer.node << " " << DoubleHex(customer.potential)
        << " " << customer.edges.size() << " " << customer.buffered.size()
        << " " << (customer.stream_exhausted ? 1 : 0) << " "
        << (customer.has_next ? 1 : 0) << " "
        << DoubleHex(customer.next_distance) << "\n";
    for (const WarmSeedEdge& edge : customer.edges) {
      out << "edge " << edge.facility_node << " " << DoubleHex(edge.weight)
          << " " << (edge.matched ? 1 : 0) << "\n";
    }
    for (const WarmSeedEdge& edge : customer.buffered) {
      out << "edge " << edge.facility_node << " " << DoubleHex(edge.weight)
          << " " << (edge.matched ? 1 : 0) << "\n";
    }
  }
  for (size_t j = 0; j < seed.facility_nodes.size(); ++j) {
    out << "fac " << seed.facility_nodes[j] << " "
        << DoubleHex(seed.facility_potentials[j]) << "\n";
  }
}

// Checksum-aware line reader: payload lines are absorbed into the FNV
// state as they are consumed, so by the time the checksum line appears
// the expected value is already on hand.
class CheckpointReader {
 public:
  explicit CheckpointReader(std::istream& in) : in_(in) {}

  bool Next(std::string* line) {
    if (!std::getline(in_, *line)) return false;
    ++line_number_;
    if (!line->empty() && line->back() == '\r') line->pop_back();
    return true;
  }

  bool NextPayload(std::string* line) {
    if (!Next(line)) return false;
    hash_ = FnvAbsorb(hash_, *line);
    return true;
  }

  int64_t line_number() const { return line_number_; }
  uint64_t hash() const { return hash_; }

  Status Error(const std::string& what) const {
    std::ostringstream msg;
    msg << "checkpoint line " << line_number_ << ": " << what;
    return IoError(msg.str());
  }

  Status Truncated(const std::string& expected) const {
    std::ostringstream msg;
    msg << "checkpoint truncated after line " << line_number_ << " (expected "
        << expected << ")";
    return IoError(msg.str());
  }

 private:
  std::istream& in_;
  int64_t line_number_ = 0;
  uint64_t hash_ = kFnvOffset;
};

Status ReadWarmSeed(CheckpointReader& reader, WarmSeed* seed) {
  std::string line;
  if (!reader.NextPayload(&line)) return reader.Truncated("warmseed header");
  std::istringstream header(line);
  std::string keyword;
  size_t num_customers = 0;
  size_t num_facilities = 0;
  if (!(header >> keyword >> num_customers >> num_facilities) ||
      keyword != "warmseed") {
    return reader.Error("expected 'warmseed <customers> <facilities>'");
  }
  // Counts are untrusted until the checksum line: every vector grows
  // record by record, so a garbled count is a malformed record, never a
  // giant allocation.
  for (size_t c = 0; c < num_customers; ++c) {
    if (!reader.NextPayload(&line)) return reader.Truncated("cust record");
    WarmSeedCustomer customer;
    std::istringstream cust(line);
    std::string potential_hex;
    std::string next_hex;
    size_t num_edges = 0;
    size_t num_buffered = 0;
    int exhausted = 0;
    int has_next = 0;
    if (!(cust >> keyword >> customer.node >> potential_hex >> num_edges >>
          num_buffered >> exhausted >> has_next >> next_hex) ||
        keyword != "cust" || !HexDouble(potential_hex, &customer.potential) ||
        !HexDouble(next_hex, &customer.next_distance)) {
      return reader.Error("malformed cust record");
    }
    customer.stream_exhausted = exhausted != 0;
    customer.has_next = has_next != 0;
    for (size_t e = 0; e < num_edges + num_buffered; ++e) {
      if (!reader.NextPayload(&line)) return reader.Truncated("edge record");
      WarmSeedEdge edge;
      std::istringstream es(line);
      std::string weight_hex;
      int matched = 0;
      if (!(es >> keyword >> edge.facility_node >> weight_hex >> matched) ||
          keyword != "edge" || !HexDouble(weight_hex, &edge.weight)) {
        return reader.Error("malformed edge record");
      }
      edge.matched = matched != 0;
      (e < num_edges ? customer.edges : customer.buffered).push_back(edge);
    }
    seed->customers.push_back(std::move(customer));
  }
  for (size_t j = 0; j < num_facilities; ++j) {
    if (!reader.NextPayload(&line)) return reader.Truncated("fac record");
    std::istringstream fac(line);
    NodeId node = -1;
    std::string potential_hex;
    double potential = 0.0;
    if (!(fac >> keyword >> node >> potential_hex) || keyword != "fac" ||
        !HexDouble(potential_hex, &potential)) {
      return reader.Error("malformed fac record");
    }
    seed->facility_nodes.push_back(node);
    seed->facility_potentials.push_back(potential);
  }
  return OkStatus();
}

}  // namespace

Status WriteServiceCheckpoint(const ServiceCheckpoint& checkpoint,
                              const std::string& path) {
  std::ostringstream payload;
  payload << kMagic << " " << kVersion << "\n";
  payload << "epoch " << checkpoint.epoch << "\n";
  payload << "catalog " << checkpoint.facility_nodes.size() << "\n";
  for (size_t j = 0; j < checkpoint.facility_nodes.size(); ++j) {
    payload << checkpoint.facility_nodes[j] << " " << checkpoint.capacities[j]
            << "\n";
  }
  payload << "tracked " << checkpoint.tracked_customers.size() << "\n";
  for (const NodeId node : checkpoint.tracked_customers) {
    payload << node << "\n";
  }
  payload << "seed " << (checkpoint.has_seed ? 1 : 0) << " "
          << checkpoint.seed_k << "\n";
  if (checkpoint.has_seed) {
    WriteWarmSeed(payload, checkpoint.seed.trajectory);
    WriteWarmSeed(payload, checkpoint.seed.final_assign);
  }

  const std::string body = payload.str();
  uint64_t hash = kFnvOffset;
  {
    // Absorb line by line (without the trailing '\n' the loop re-adds)
    // so writer and reader hash exactly the same byte stream.
    size_t start = 0;
    while (start < body.size()) {
      const size_t newline = body.find('\n', start);
      hash = FnvAbsorb(hash, body.substr(start, newline - start));
      start = newline + 1;
    }
  }
  std::ofstream file(path, std::ios::trunc);
  if (!file.is_open()) {
    return IoError("cannot open checkpoint file for writing: " + path);
  }
  char checksum[17];
  std::snprintf(checksum, sizeof(checksum), "%016llx",
                static_cast<unsigned long long>(hash));
  file << body << "checksum " << checksum << "\n";
  file.flush();
  if (!file.good()) {
    return IoError("short write to checkpoint file: " + path);
  }
  return OkStatus();
}

StatusOr<ServiceCheckpoint> ReadServiceCheckpoint(const std::string& path) {
  std::ifstream file(path);
  if (!file.is_open()) {
    return IoError("cannot open checkpoint file: " + path);
  }
  CheckpointReader reader(file);
  std::string line;
  if (!reader.NextPayload(&line)) {
    return IoError("checkpoint file is empty: " + path);
  }
  {
    std::istringstream header(line);
    std::string magic;
    int version = 0;
    if (!(header >> magic >> version) || magic != kMagic) {
      return reader.Error("not a checkpoint file (bad magic)");
    }
    if (version != kVersion) {
      return reader.Error("unsupported checkpoint version " +
                          std::to_string(version) + " (expected " +
                          std::to_string(kVersion) + ")");
    }
  }
  ServiceCheckpoint checkpoint;
  std::string keyword;
  if (!reader.NextPayload(&line)) return reader.Truncated("epoch record");
  {
    std::istringstream in(line);
    if (!(in >> keyword >> checkpoint.epoch) || keyword != "epoch") {
      return reader.Error("expected 'epoch <n>'");
    }
  }
  size_t catalog_size = 0;
  if (!reader.NextPayload(&line)) return reader.Truncated("catalog header");
  {
    std::istringstream in(line);
    if (!(in >> keyword >> catalog_size) || keyword != "catalog") {
      return reader.Error("expected 'catalog <l>'");
    }
  }
  // Counts grow the vectors record by record (see ReadWarmSeed).
  for (size_t j = 0; j < catalog_size; ++j) {
    if (!reader.NextPayload(&line)) return reader.Truncated("catalog record");
    std::istringstream in(line);
    NodeId node = -1;
    int capacity = 0;
    if (!(in >> node >> capacity)) {
      return reader.Error("malformed catalog record");
    }
    checkpoint.facility_nodes.push_back(node);
    checkpoint.capacities.push_back(capacity);
  }
  size_t tracked_size = 0;
  if (!reader.NextPayload(&line)) return reader.Truncated("tracked header");
  {
    std::istringstream in(line);
    if (!(in >> keyword >> tracked_size) || keyword != "tracked") {
      return reader.Error("expected 'tracked <m>'");
    }
  }
  for (size_t i = 0; i < tracked_size; ++i) {
    if (!reader.NextPayload(&line)) return reader.Truncated("tracked record");
    std::istringstream in(line);
    NodeId node = -1;
    if (!(in >> node)) {
      return reader.Error("malformed tracked customer record");
    }
    checkpoint.tracked_customers.push_back(node);
  }
  if (!reader.NextPayload(&line)) return reader.Truncated("seed header");
  {
    std::istringstream in(line);
    int has_seed = 0;
    if (!(in >> keyword >> has_seed >> checkpoint.seed_k) ||
        keyword != "seed") {
      return reader.Error("expected 'seed <has_seed> <k>'");
    }
    checkpoint.has_seed = has_seed != 0;
  }
  if (checkpoint.has_seed) {
    Status status = ReadWarmSeed(reader, &checkpoint.seed.trajectory);
    if (!status.ok()) return status;
    status = ReadWarmSeed(reader, &checkpoint.seed.final_assign);
    if (!status.ok()) return status;
  }
  // The payload hash is complete; the next line must carry it.
  const uint64_t expected = reader.hash();
  if (!reader.Next(&line)) return reader.Truncated("checksum record");
  {
    std::istringstream in(line);
    std::string checksum_hex;
    if (!(in >> keyword >> checksum_hex) || keyword != "checksum" ||
        checksum_hex.size() != 16) {
      return reader.Error("expected 'checksum <fnv64 hex>'");
    }
    char* end = nullptr;
    const unsigned long long stored =
        std::strtoull(checksum_hex.c_str(), &end, 16);
    if (end != checksum_hex.c_str() + checksum_hex.size()) {
      return reader.Error("malformed checksum value");
    }
    if (static_cast<uint64_t>(stored) != expected) {
      return reader.Error("checksum mismatch (file corrupted)");
    }
  }
  if (reader.Next(&line)) {
    return reader.Error("trailing data after checksum");
  }
  return checkpoint;
}

}  // namespace mcfs
