// Microbenchmarks for the compression substrate: throughput of each codec
// and layout on partition-sized blocks of taxi records. These back the
// ratio/speed frontier the encoding-scheme trade-off relies on: SNAPPY
// fastest, GZIP middle, LZMA slowest per byte in both directions.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <string>

#include "bench_common.h"
#include "gbench_capture.h"
#include "blot/encoding_scheme.h"

namespace blot {
namespace {

const Dataset& PartitionData() {
  static const Dataset dataset = [] {
    Dataset d = bench::MakeSample(50000);
    d.SortByTime();
    return d;
  }();
  return dataset;
}

void BM_Compress(benchmark::State& state, CodecKind kind) {
  const Bytes raw =
      SerializeRecords(PartitionData().records(), Layout::kRow);
  const Codec& codec = GetCodec(kind);
  for (auto _ : state) {
    Bytes compressed = codec.Compress(raw);
    benchmark::DoNotOptimize(compressed);
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations() * raw.size()));
}

// Besides its throughput, reports `decode_vs_fnv1a`: the speed of the
// decoder over that of a CPU-bound reference loop, FNV-1a (one serial
// multiply per byte), run on the decoded bytes in the same iteration
// with the timer paused. Timing the two back to back lets the ratio
// cancel a host whose speed drifts between runs; taking each loop's
// fastest iteration drops the ones a noisy neighbour slowed down.
void BM_Decompress(benchmark::State& state, CodecKind kind) {
  using Clock = std::chrono::steady_clock;
  const Bytes raw =
      SerializeRecords(PartitionData().records(), Layout::kRow);
  const Codec& codec = GetCodec(kind);
  const Bytes compressed = codec.Compress(raw);
  Clock::duration decode = Clock::duration::max();
  Clock::duration reference = Clock::duration::max();
  for (auto _ : state) {
    const Clock::time_point start = Clock::now();
    Bytes output = codec.Decompress(compressed);
    const Clock::time_point decoded = Clock::now();
    state.PauseTiming();
    benchmark::DoNotOptimize(Fnv1a64(output));
    reference = std::min(reference, Clock::now() - decoded);
    decode = std::min(decode, decoded - start);
    state.ResumeTiming();
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations() * raw.size()));
  state.counters["decode_vs_fnv1a"] =
      std::chrono::duration<double>(reference).count() /
      std::chrono::duration<double>(decode).count();
}

void BM_EncodePartition(benchmark::State& state, const char* scheme_name) {
  const EncodingScheme scheme = EncodingScheme::FromName(scheme_name);
  for (auto _ : state) {
    Bytes encoded = EncodePartition(PartitionData().records(), scheme);
    benchmark::DoNotOptimize(encoded);
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * PartitionData().size()));
}

void BM_DecodePartition(benchmark::State& state, const char* scheme_name) {
  const EncodingScheme scheme = EncodingScheme::FromName(scheme_name);
  const Bytes encoded = EncodePartition(PartitionData().records(), scheme);
  for (auto _ : state) {
    std::vector<Record> records = DecodePartition(encoded, scheme);
    benchmark::DoNotOptimize(records);
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * PartitionData().size()));
}

BENCHMARK_CAPTURE(BM_Compress, snappy, CodecKind::kSnappyLike);
BENCHMARK_CAPTURE(BM_Compress, gzip, CodecKind::kGzipLike);
BENCHMARK_CAPTURE(BM_Compress, lzma, CodecKind::kLzmaLike);
BENCHMARK_CAPTURE(BM_Decompress, snappy, CodecKind::kSnappyLike);
BENCHMARK_CAPTURE(BM_Decompress, gzip, CodecKind::kGzipLike);
BENCHMARK_CAPTURE(BM_Decompress, lzma, CodecKind::kLzmaLike);
BENCHMARK_CAPTURE(BM_EncodePartition, row_snappy, "ROW-SNAPPY");
BENCHMARK_CAPTURE(BM_EncodePartition, col_gzip, "COL-GZIP");
BENCHMARK_CAPTURE(BM_EncodePartition, col_lzma, "COL-LZMA");
// All seven encodings: EnvironmentModel::CpuBoundLocal takes its
// per-record scan costs from these.
BENCHMARK_CAPTURE(BM_DecodePartition, row_plain, "ROW-PLAIN");
BENCHMARK_CAPTURE(BM_DecodePartition, row_snappy, "ROW-SNAPPY");
BENCHMARK_CAPTURE(BM_DecodePartition, col_snappy, "COL-SNAPPY");
BENCHMARK_CAPTURE(BM_DecodePartition, row_gzip, "ROW-GZIP");
BENCHMARK_CAPTURE(BM_DecodePartition, col_gzip, "COL-GZIP");
BENCHMARK_CAPTURE(BM_DecodePartition, row_lzma, "ROW-LZMA");
BENCHMARK_CAPTURE(BM_DecodePartition, col_lzma, "COL-LZMA");

}  // namespace

namespace bench {
namespace {

// Tracked metrics for the CI perf tripwire: each codec's
// `decode_vs_fnv1a`, a throughput ratio between two loops of this same
// binary over the same bytes, so it holds across machines. A decoder
// that gets slower lowers its own ratio, and no ratio moves when another
// codec changes.
void DeriveTracked(const CaptureReporter& reporter, BenchReport& report) {
  for (const char* codec : {"gzip", "snappy", "lzma"}) {
    const double ratio = reporter.Counter(
        std::string("BM_Decompress/") + codec, "decode_vs_fnv1a");
    if (ratio > 0)
      report.Metric(std::string(codec) + "_decode_vs_fnv1a", ratio,
                    /*tracked=*/true);
  }
}

}  // namespace
}  // namespace bench
}  // namespace blot

int main(int argc, char** argv) {
  return blot::bench::RunAndReport(argc, argv, "micro_codec",
                                   "BENCH_codec.json",
                                   blot::bench::DeriveTracked);
}
