#include "simenv/environment.h"

#include "util/error.h"

namespace blot {

EnvironmentModel::EnvironmentModel(
    std::string name, std::map<std::string, ScanCostParams> params_by_encoding)
    : name_(std::move(name)),
      params_by_encoding_(std::move(params_by_encoding)) {
  for (const auto& [encoding, params] : params_by_encoding_) {
    require(params.scan_ms_per_krecord > 0 && params.extra_ms >= 0,
            "EnvironmentModel: non-positive parameters for " + encoding);
  }
}

EnvironmentModel EnvironmentModel::AmazonS3Emr() {
  // Table II, "Amazon S3 and EMR".
  return EnvironmentModel(
      "amazon-s3-emr",
      {
          {"ROW-PLAIN", {85.02, 32689}},
          {"ROW-SNAPPY", {90.24, 30187}},
          {"COL-SNAPPY", {56.98, 30518}},
          {"ROW-GZIP", {90.65, 28698}},
          {"COL-GZIP", {51.72, 28725}},
          {"ROW-LZMA", {54.39, 29029}},
          {"COL-LZMA", {38.69, 29609}},
      });
}

EnvironmentModel EnvironmentModel::LocalHadoop() {
  // Table II, "Local Hadoop Cluster".
  return EnvironmentModel(
      "local-hadoop",
      {
          {"ROW-PLAIN", {606.78, 5312}},
          {"ROW-SNAPPY", {598.84, 5316}},
          {"COL-SNAPPY", {175.75, 4150}},
          {"ROW-GZIP", {488.32, 5349}},
          {"COL-GZIP", {177.15, 4427}},
          {"ROW-LZMA", {265.41, 5244}},
          {"COL-LZMA", {159.98, 4551}},
      });
}

EnvironmentModel EnvironmentModel::CpuBoundLocal() {
  // ms per thousand records: the inverse of bench/micro_codec's
  // BM_DecodePartition records/s (median of five Release runs on a
  // 4-vCPU x86-64 host); ExtraTime is a couple of ms of open/seek per
  // storage unit.
  return EnvironmentModel(
      "cpu-bound-local",
      {
          {"ROW-PLAIN", {0.028, 2.0}},
          {"ROW-SNAPPY", {0.062, 2.0}},
          {"COL-SNAPPY", {0.061, 2.0}},
          {"ROW-GZIP", {0.25, 2.0}},
          {"COL-GZIP", {0.19, 2.0}},
          {"ROW-LZMA", {1.56, 2.0}},
          {"COL-LZMA", {1.35, 2.0}},
      });
}

const ScanCostParams& EnvironmentModel::Params(
    const EncodingScheme& scheme) const {
  const auto it = params_by_encoding_.find(scheme.Name());
  require(it != params_by_encoding_.end(),
          "EnvironmentModel " + name_ + ": unsupported encoding " +
              scheme.Name());
  return it->second;
}

bool EnvironmentModel::Supports(const EncodingScheme& scheme) const {
  return params_by_encoding_.contains(scheme.Name());
}

double EnvironmentModel::PartitionScanMs(const EncodingScheme& scheme,
                                         std::uint64_t records) const {
  const ScanCostParams& p = Params(scheme);
  return static_cast<double>(records) / 1000.0 * p.scan_ms_per_krecord +
         p.extra_ms;
}

}  // namespace blot
