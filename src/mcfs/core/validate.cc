#include "mcfs/core/validate.h"

#include <algorithm>
#include <sstream>
#include <utility>

namespace mcfs {

namespace {

// The Theorem-3 accounting, shared by IsFeasible and DiagnoseInstance:
// one entry per component holding customers, in component order, with
// the component's capacities taken largest first against its demand.
// Reads the graph's stored labeling, so the work is request-sized:
// O(m + l log l + number of components).
std::vector<ComponentDiagnosis> AccountComponents(
    const McfsInstance& instance) {
  const ComponentLabeling& components = instance.graph->components();
  std::vector<int64_t> customers_in(components.num_components, 0);
  for (const NodeId c : instance.customers) {
    customers_in[components.component_of[c]]++;
  }
  // (component, capacity), grouped by component, largest capacity first.
  std::vector<std::pair<int, int>> caps;
  caps.reserve(instance.l());
  for (int j = 0; j < instance.l(); ++j) {
    caps.push_back({components.component_of[instance.facility_nodes[j]],
                    instance.capacities[j]});
  }
  std::sort(caps.begin(), caps.end(), [](const auto& a, const auto& b) {
    return a.first != b.first ? a.first < b.first : a.second > b.second;
  });
  std::vector<ComponentDiagnosis> accounts;
  size_t next = 0;
  for (int g = 0; g < components.num_components; ++g) {
    const size_t begin = next;
    while (next < caps.size() && caps[next].first == g) ++next;
    if (customers_in[g] == 0) continue;
    ComponentDiagnosis cd;
    cd.component = g;
    cd.customers = customers_in[g];
    cd.num_facilities = static_cast<int>(next - begin);
    int64_t remaining = cd.customers;
    for (size_t f = begin; f < next; ++f) {
      cd.capacity_sum += caps[f].second;
      if (remaining > 0) {
        remaining -= caps[f].second;
        ++cd.min_facilities_needed;
      }
    }
    if (remaining > 0) cd.min_facilities_needed = -1;
    accounts.push_back(cd);
  }
  return accounts;
}

}  // namespace

bool IsFeasible(const McfsInstance& instance) {
  int64_t required = 0;
  for (const ComponentDiagnosis& cd : AccountComponents(instance)) {
    if (cd.min_facilities_needed < 0) return false;
    required += cd.min_facilities_needed;
  }
  return required <= instance.k;
}

std::string ComponentDiagnosis::ToString() const {
  std::ostringstream out;
  out << "component " << component << ": " << customers << " customers, "
      << num_facilities << " facilities with total capacity "
      << capacity_sum;
  if (min_facilities_needed < 0) {
    out << " (short by " << customers - capacity_sum << ")";
  } else {
    out << " (needs " << min_facilities_needed << " facilities)";
  }
  return out.str();
}

std::string InstanceDiagnosis::ToString() const {
  std::ostringstream out;
  out << status.ToString();
  for (const std::string& problem : problems) out << "\n  " << problem;
  for (const ComponentDiagnosis& c : infeasible_components) {
    out << "\n  " << c.ToString();
  }
  out << "\n  demand " << total_demand << ", capacity " << total_capacity
      << ", facilities required " << required_facilities;
  return out.str();
}

InstanceDiagnosis DiagnoseInstance(const McfsInstance& instance) {
  InstanceDiagnosis diagnosis;
  diagnosis.total_demand = instance.m();

  // --- Structural checks (kInvalidInput). Collect every defect so a
  // caller sees the full list, not just the first.
  std::vector<std::string>& problems = diagnosis.problems;
  if (instance.graph == nullptr) {
    problems.push_back("instance has no graph attached");
  }
  if (instance.k < 0) {
    problems.push_back("negative facility budget k = " +
                       std::to_string(instance.k));
  }
  if (instance.capacities.size() != instance.facility_nodes.size()) {
    problems.push_back(
        std::to_string(instance.facility_nodes.size()) +
        " facility nodes but " + std::to_string(instance.capacities.size()) +
        " capacities");
  }
  const int num_nodes =
      instance.graph == nullptr ? 0 : instance.graph->NumNodes();
  for (int i = 0; i < instance.m(); ++i) {
    const NodeId c = instance.customers[i];
    if (c < 0 || c >= num_nodes) {
      problems.push_back("customer " + std::to_string(i) + " at node " +
                         std::to_string(c) + " out of range [0, " +
                         std::to_string(num_nodes) + ")");
    }
  }
  std::vector<bool> seen_facility_node(num_nodes, false);
  for (int j = 0; j < instance.l(); ++j) {
    const NodeId node = instance.facility_nodes[j];
    if (node < 0 || node >= num_nodes) {
      problems.push_back("facility " + std::to_string(j) + " at node " +
                         std::to_string(node) + " out of range [0, " +
                         std::to_string(num_nodes) + ")");
    } else if (seen_facility_node[node]) {
      problems.push_back("duplicate facility node " + std::to_string(node) +
                         " (facility " + std::to_string(j) + ")");
    } else {
      seen_facility_node[node] = true;
    }
    if (j < static_cast<int>(instance.capacities.size()) &&
        instance.capacities[j] < 0) {
      problems.push_back("facility " + std::to_string(j) +
                         " has negative capacity " +
                         std::to_string(instance.capacities[j]));
    }
  }
  if (!problems.empty()) {
    diagnosis.status = InvalidInputError(
        std::to_string(problems.size()) +
        " structural problem(s); first: " + problems.front());
    return diagnosis;
  }
  for (const int c : instance.capacities) diagnosis.total_capacity += c;

  // --- Feasibility (kInfeasible): IsFeasible's Theorem-3 accounting,
  // keeping the per-component evidence instead of a bare bool.
  for (const ComponentDiagnosis& cd : AccountComponents(instance)) {
    if (cd.min_facilities_needed < 0) {
      diagnosis.infeasible_components.push_back(cd);
    } else {
      diagnosis.required_facilities += cd.min_facilities_needed;
    }
  }
  if (!diagnosis.infeasible_components.empty()) {
    std::ostringstream msg;
    msg << diagnosis.infeasible_components.size()
        << " component(s) lack capacity for their customers; first: "
        << diagnosis.infeasible_components.front().ToString();
    diagnosis.status = InfeasibleError(msg.str());
    return diagnosis;
  }
  if (diagnosis.required_facilities > instance.k) {
    std::ostringstream msg;
    msg << "covering every component needs at least "
        << diagnosis.required_facilities << " facilities, budget k = "
        << instance.k;
    diagnosis.status = InfeasibleError(msg.str());
    return diagnosis;
  }
  diagnosis.status = OkStatus();
  return diagnosis;
}

Status ValidateInstance(const McfsInstance& instance) {
  return DiagnoseInstance(instance).status;
}

}  // namespace mcfs
