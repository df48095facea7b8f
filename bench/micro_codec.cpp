// Microbenchmarks for the compression substrate: throughput of each codec
// and layout on partition-sized blocks of taxi records. These back the
// ratio/speed frontier the encoding-scheme trade-off relies on: SNAPPY
// fastest, GZIP middle, LZMA slowest per byte in both directions.
#include <benchmark/benchmark.h>

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

void BM_Decompress(benchmark::State& state, CodecKind kind) {
  const Bytes raw =
      SerializeRecords(PartitionData().records(), Layout::kRow);
  const Codec& codec = GetCodec(kind);
  const Bytes compressed = codec.Compress(raw);
  for (auto _ : state) {
    Bytes output = codec.Decompress(compressed);
    benchmark::DoNotOptimize(output);
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations() * raw.size()));
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
BENCHMARK_CAPTURE(BM_DecodePartition, row_snappy, "ROW-SNAPPY");
BENCHMARK_CAPTURE(BM_DecodePartition, col_gzip, "COL-GZIP");
BENCHMARK_CAPTURE(BM_DecodePartition, col_lzma, "COL-LZMA");

}  // namespace

namespace bench {
namespace {

// Tracked metrics for the CI perf tripwire: throughput ratios between
// runs of this same binary, so they hold across machines. Both put the
// Gzip-class decoder against the Snappy-class one, the fastest point of
// the frontier; a drop means the middle codec's decode got slower.
void DeriveTracked(const CaptureReporter& reporter, BenchReport& report) {
  // Both runs process the same bytes (records), so the throughput ratio
  // is the inverse ratio of their per-iteration times.
  const auto throughput_ratio = [&](const char* name, const std::string& run,
                                    const std::string& reference) {
    const double run_ns = reporter.RealNs(run);
    const double reference_ns = reporter.RealNs(reference);
    if (run_ns > 0 && reference_ns > 0)
      report.Metric(name, reference_ns / run_ns, /*tracked=*/true);
  };
  throughput_ratio("gzip_vs_snappy_decode_mbps", "BM_Decompress/gzip",
                   "BM_Decompress/snappy");
  throughput_ratio("col_gzip_vs_row_snappy_decode_recps",
                   "BM_DecodePartition/col_gzip",
                   "BM_DecodePartition/row_snappy");
}

}  // namespace
}  // namespace bench
}  // namespace blot

int main(int argc, char** argv) {
  return blot::bench::RunAndReport(argc, argv, "micro_codec",
                                   "BENCH_codec.json",
                                   blot::bench::DeriveTracked);
}
