// Per-replica latency tracking: the routing signal for hedged reads and
// brownout deprioritization.
//
// HealthMap answers "is this copy *correct*"; LatencyMap answers "is
// this copy *fast*". Every execution attempt feeds its wall time and
// partition count back as an EWMA of milliseconds-per-partition-read,
// and two consumers read it:
//
//   * the hedging coordinator derives the per-query hedge threshold
//     from ExpectedMs(replica, predicted_partitions) — an attempt
//     running well past its own replica's recent norm is a straggler
//     worth racing;
//   * candidate ranking multiplies a replica's cost by
//     BrownoutPenalty() — a replica whose per-partition reads run far
//     slower than the fastest replica's is deprioritized (still
//     eligible, so it keeps serving when it is the only healthy copy)
//     without tripping the health machinery: slowness is not
//     corruption, and quarantining a slow-but-alive replica would
//     *reduce* the diversity the paper's recovery argument relies on.
//
// The penalty needs a minimum number of observations per replica and
// only kicks in past kBrownoutRatio. That ratio is meant to sit above
// honest speed differences between encodings, but it does not: per
// record, ROW-SNAPPY partitions decode about 20x faster than COL-LZMA
// ones (bench/micro_codec BM_DecodePartition, 16 vs 0.74 Mrec/s on a
// 4-vCPU x86-64 host). With partitions of equal record counts a healthy
// COL-LZMA replica reads about 25x slower per partition than a
// ROW-SNAPPY peer and is priced at kMaxPenalty, overriding the cost
// model just as a genuine brownout (injected or real latency faults, an
// order of magnitude and up) does.
//
// Internally synchronized; attempts observe concurrently from the
// serving layer's request workers.
#ifndef BLOT_CORE_LATENCY_MAP_H_
#define BLOT_CORE_LATENCY_MAP_H_

#include <cstdint>
#include <mutex>
#include <vector>

namespace blot {

class LatencyMap {
 public:
  struct Snapshot {
    double ewma_ms_per_partition = 0.0;
    std::uint64_t observations = 0;
  };

  // Registers the next replica (index = current replica count), keeping
  // the map index-aligned with the store's replica vector.
  void AddReplica();

  std::size_t NumReplicas() const;

  // Feeds one execution attempt: `partitions` actually scanned in
  // `attempt_ms` of wall time. Attempts that scanned nothing still count
  // as one partition so a zone-pruned-everything query cannot divide by
  // zero or record an infinite rate.
  void Observe(std::size_t replica, std::size_t partitions,
               double attempt_ms);

  // The EWMA-predicted wall time for `replica` to read `partitions`
  // partitions; 0 while the replica has fewer than kMinObservations
  // (callers fall back to their static threshold).
  double ExpectedMs(std::size_t replica, std::size_t partitions) const;

  // Routing multiplier >= 1: the ratio of this replica's per-partition
  // EWMA to the fastest warmed-up replica's, clamped to
  // [1, kMaxPenalty], and 1.0 until the ratio exceeds kBrownoutRatio —
  // honest encoding-speed differences stay invisible to routing.
  double BrownoutPenalty(std::size_t replica) const;

  Snapshot Get(std::size_t replica) const;

  // Observations needed before a replica's EWMA drives decisions.
  static constexpr std::uint64_t kMinObservations = 4;
  // Slowness ratio (vs the fastest replica) below which no penalty
  // applies.
  static constexpr double kBrownoutRatio = 4.0;
  // Penalty clamp: a browned-out replica is heavily deprioritized but
  // never priced out of serving as the last healthy copy.
  static constexpr double kMaxPenalty = 8.0;
  // EWMA smoothing factor (weight of the newest observation).
  static constexpr double kAlpha = 0.2;

 private:
  struct Cell {
    double ewma_ms_per_partition = 0.0;
    std::uint64_t observations = 0;
  };

  mutable std::mutex mutex_;
  std::vector<Cell> cells_;
};

}  // namespace blot

#endif  // BLOT_CORE_LATENCY_MAP_H_
