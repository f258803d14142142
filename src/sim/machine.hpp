// The simulated machine: N nodes, each with one analysis processor and a set
// of compute processors, joined by a Network.  This is the stand-in for the
// clusters the paper evaluates on (Piz-Daint, Summit, Sierra, DGX-1V pods);
// see DESIGN.md §2 for the substitution argument.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/check.hpp"
#include "common/types.hpp"
#include "sim/fault.hpp"
#include "sim/network.hpp"
#include "sim/processor.hpp"
#include "sim/reliable.hpp"
#include "sim/simulator.hpp"

namespace dcr::sim {

struct MachineConfig {
  std::size_t num_nodes = 1;
  std::size_t compute_procs_per_node = 1;  // "GPUs" (or cores) per node
  NetworkParams network;
};

struct MachineNode {
  NodeId id;
  std::unique_ptr<Processor> analysis;
  std::vector<std::unique_ptr<Processor>> compute;
};

class Machine {
 public:
  explicit Machine(const MachineConfig& config)
      : config_(config), network_(sim_, config.num_nodes, config.network) {
    DCR_CHECK(config.num_nodes >= 1);
    std::uint32_t next_proc = 0;
    nodes_.reserve(config.num_nodes);
    for (std::size_t n = 0; n < config.num_nodes; ++n) {
      MachineNode node;
      node.id = NodeId(static_cast<std::uint32_t>(n));
      node.analysis = std::make_unique<Processor>(sim_, ProcId(next_proc++), node.id,
                                                  ProcKind::Analysis);
      for (std::size_t p = 0; p < config.compute_procs_per_node; ++p) {
        node.compute.push_back(std::make_unique<Processor>(
            sim_, ProcId(next_proc++), node.id, ProcKind::Compute));
      }
      nodes_.push_back(std::move(node));
    }
  }

  const MachineConfig& config() const { return config_; }
  Simulator& sim() { return sim_; }
  Network& network() { return network_; }

  std::size_t num_nodes() const { return nodes_.size(); }
  std::size_t total_compute_procs() const {
    return nodes_.size() * config_.compute_procs_per_node;
  }

  MachineNode& node(NodeId id) {
    DCR_CHECK(id.value < nodes_.size());
    return nodes_[id.value];
  }
  Processor& analysis_proc(NodeId id) { return *node(id).analysis; }
  Processor& compute_proc(NodeId id, std::size_t idx) {
    auto& n = node(id);
    DCR_CHECK(idx < n.compute.size());
    return *n.compute[idx];
  }

  // Global compute-processor indexing, round-robin across nodes then slots.
  Processor& global_compute_proc(std::size_t global_idx) {
    const std::size_t per = config_.compute_procs_per_node;
    return compute_proc(NodeId(static_cast<std::uint32_t>(global_idx / per)),
                        global_idx % per);
  }

  // Enable fault injection for this machine: attach `plan` to the network and
  // every processor, arm its crash calendar, and install a reliable transport
  // so remote traffic survives drops.  `plan` must outlive the machine.
  void install_faults(FaultPlan& plan, ReliableParams reliable_params = {}) {
    DCR_CHECK(faults_ == nullptr) << "faults installed twice";
    faults_ = &plan;
    network_.attach_faults(&plan);
    for (auto& n : nodes_) {
      n.analysis->attach_faults(&plan);
      for (auto& p : n.compute) p->attach_faults(&plan);
    }
    reliable_ = std::make_unique<ReliableDelivery>(sim_, network_, reliable_params);
    reliable_->install();
    plan.arm(sim_);
  }

  FaultPlan* faults() { return faults_; }
  ReliableDelivery* reliable() { return reliable_.get(); }

  // Aggregate compute busy-time across the machine (for efficiency metrics).
  SimTime total_compute_busy() const {
    SimTime total = 0;
    for (const auto& n : nodes_) {
      for (const auto& p : n.compute) total += p->busy_time();
    }
    return total;
  }

 private:
  MachineConfig config_;
  Simulator sim_;
  Network network_;
  std::vector<MachineNode> nodes_;
  FaultPlan* faults_ = nullptr;            // not owned
  std::unique_ptr<ReliableDelivery> reliable_;
};

}  // namespace dcr::sim
