// Per-replica, per-partition health tracking for fault-tolerant routing.
//
// The store never trusts a storage unit that failed a read: a partition
// whose checksum mismatched (or whose read errored) is quarantined and
// withheld from routing until self-healing repair re-encodes it from a
// healthy replica (docs/robustness.md). The state machine per partition:
//
//   ok ──(read fault naming the partition)──> quarantined
//   quarantined ──(successful repair)──> ok
//
// Every execution path names the partitions that failed, so no
// intermediate "maybe bad" state exists. Quarantined partitions never
// serve queries. All methods are thread-safe; the per-replica
// quarantined count lets the routing hot path skip the partition-level
// check entirely for fully healthy replicas with one relaxed atomic load.
#ifndef BLOT_CORE_HEALTH_H_
#define BLOT_CORE_HEALTH_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

namespace blot {

enum class PartitionHealth : std::uint8_t { kOk, kQuarantined };

class HealthMap {
 public:
  struct Target {
    std::size_t replica = 0;
    std::size_t partition = 0;
  };
  struct Counts {
    std::size_t ok = 0;
    std::size_t quarantined = 0;
  };

  HealthMap() = default;
  HealthMap(const HealthMap&) = delete;
  HealthMap& operator=(const HealthMap&) = delete;

  // Registers a new replica with `num_partitions` all-ok partitions.
  void AddReplica(std::size_t num_partitions);
  // Re-registers replica `replica` after a full rebuild: all partitions
  // return to ok (the rebuild may change the partition count).
  void ResetReplica(std::size_t replica, std::size_t num_partitions);

  std::size_t NumReplicas() const;
  PartitionHealth Get(std::size_t replica, std::size_t partition) const;

  // Read fault: the partition is quarantined. Returns true if the state
  // changed (false if already quarantined).
  bool Quarantine(std::size_t replica, std::size_t partition);
  // Successful repair: back to ok.
  void MarkOk(std::size_t replica, std::size_t partition);

  // True when every partition of `replica` is ok — one relaxed atomic
  // load, no lock; the routing fast path.
  bool AllOk(std::size_t replica) const;

  bool AnyQuarantined(std::size_t replica,
                      const std::vector<std::size_t>& partitions) const;

  // Snapshot of every quarantined (replica, partition) pair — the repair
  // queue's view.
  std::vector<Target> Quarantined() const;
  std::size_t QuarantinedCount() const;
  Counts CountsFor(std::size_t replica) const;

 private:
  mutable std::mutex mutex_;
  std::vector<std::vector<PartitionHealth>> states_;
  // unhealthy_[r]: quarantined partitions of replica r.
  // shared_ptr-free stable storage: grown only under the mutex, read
  // lock-free by AllOk.
  std::vector<std::unique_ptr<std::atomic<std::size_t>>> unhealthy_;
};

}  // namespace blot

#endif  // BLOT_CORE_HEALTH_H_
