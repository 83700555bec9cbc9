#include "core/synopsis_io.h"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "models/model_factory.h"

namespace dkf {
namespace {

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

std::string ReadWholeFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void WriteWholeFile(const std::string& path, const std::string& contents) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << contents;
}

TimeSeries DriftingStream(size_t n, uint64_t seed) {
  Rng rng(seed);
  TimeSeries series(1);
  double value = 0.0;
  double slope = 1.0;
  for (size_t i = 0; i < n; ++i) {
    if (i % 200 == 0) slope = rng.Uniform(-2.0, 2.0);
    value += slope;
    EXPECT_TRUE(series.Append(static_cast<double>(i), value).ok());
  }
  return series;
}

KfSynopsis BuildSample(uint64_t seed = 1) {
  ModelNoise noise;
  SynopsisOptions options;
  options.tolerance = 2.0;
  return KfSynopsis::Build(DriftingStream(800, seed),
                           MakeLinearModel(1, 1.0, noise).value(), options)
      .value();
}

TEST(SynopsisIoTest, RoundTripReplaysIdentically) {
  const KfSynopsis original = BuildSample();
  const std::string path = TempPath("synopsis_roundtrip.csv");
  ASSERT_TRUE(SaveSynopsis(original, path).ok());

  auto loaded_or = LoadSynopsis(path);
  ASSERT_TRUE(loaded_or.ok());
  const KfSynopsis& loaded = loaded_or.value();

  EXPECT_EQ(loaded.entries().size(), original.entries().size());
  EXPECT_EQ(loaded.original_size(), original.original_size());
  EXPECT_EQ(loaded.options().tolerance, original.options().tolerance);
  EXPECT_EQ(loaded.model().name, original.model().name);

  auto original_recon = original.Reconstruct().value();
  auto loaded_recon = loaded.Reconstruct().value();
  ASSERT_EQ(loaded_recon.size(), original_recon.size());
  for (size_t i = 0; i < original_recon.size(); ++i) {
    EXPECT_EQ(loaded_recon.value(i), original_recon.value(i))
        << "sample " << i;
    EXPECT_EQ(loaded_recon.timestamp(i), original_recon.timestamp(i));
  }
  std::remove(path.c_str());
}

TEST(SynopsisIoTest, TimeVaryingModelRefusesToSerialize) {
  ModelNoise noise;
  const StateModel sinusoidal =
      MakeSinusoidalModel(0.26, 0.0, 1.0, noise).value();
  TimeSeries series(1);
  double value = 0.0;
  for (int k = 0; k < 100; ++k) {
    value += std::cos(0.26 * k) * 5.0;
    ASSERT_TRUE(series.Append(static_cast<double>(k), value).ok());
  }
  SynopsisOptions options;
  options.tolerance = 2.0;
  auto synopsis_or = KfSynopsis::Build(series, sinusoidal, options);
  ASSERT_TRUE(synopsis_or.ok());
  EXPECT_EQ(SaveSynopsis(synopsis_or.value(),
                         TempPath("synopsis_timevarying.csv"))
                .code(),
            StatusCode::kUnimplemented);
}

TEST(SynopsisIoTest, LoadRejectsGarbage) {
  const std::string path = TempPath("synopsis_garbage.csv");
  FILE* f = std::fopen(path.c_str(), "w");
  std::fputs("not,a,synopsis\n", f);
  std::fclose(f);
  EXPECT_EQ(LoadSynopsis(path).status().code(),
            StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(SynopsisIoTest, LoadRejectsCorruptedEntryIndex) {
  const KfSynopsis original = BuildSample(2);
  const std::string path = TempPath("synopsis_corrupt.csv");
  ASSERT_TRUE(SaveSynopsis(original, path).ok());
  // Append an out-of-range entry.
  FILE* f = std::fopen(path.c_str(), "a");
  std::fputs("entry,999999,1.5\n", f);
  std::fclose(f);
  EXPECT_FALSE(LoadSynopsis(path).ok());
  std::remove(path.c_str());
}

TEST(SynopsisIoTest, SaveRejectsNonFiniteModel) {
  // FromParts checks that the model is instantiable, and filter creation
  // refuses a non-finite phi, H, Q or R, so a NaN process noise never
  // becomes a synopsis and cannot reach the save path.
  ModelNoise noise;
  StateModel model = MakeLinearModel(1, 1.0, noise).value();
  model.options.process_noise(0, 0) = std::numeric_limits<double>::quiet_NaN();
  SynopsisOptions options;
  options.tolerance = 1.0;
  const Status status =
      KfSynopsis::FromParts(model, options, {0.0, 1.0}, {{0, Vector{1.0}}})
          .status();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("non-finite"), std::string::npos)
      << status.message();
}

TEST(SynopsisIoTest, LoadRejectsNonFiniteModelValue) {
  const std::string path = TempPath("synopsis_nan_load.csv");
  ASSERT_TRUE(SaveSynopsis(BuildSample(3), path).ok());
  // Later rows win for repeated tags, so appending a poisoned
  // process_noise overrides the good one — as a hand-edited or
  // corrupted file would. strtod happily parses "nan"; the codec's
  // finiteness contract must not.
  FILE* f = std::fopen(path.c_str(), "a");
  std::fputs("process_noise,1,1,nan\n", f);
  std::fclose(f);
  const Status status = LoadSynopsis(path).status();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("non-finite"), std::string::npos)
      << status.message();
  std::remove(path.c_str());
}

TEST(SynopsisIoTest, LoadRejectsInfiniteEntryValue) {
  const std::string path = TempPath("synopsis_inf_entry.csv");
  ASSERT_TRUE(SaveSynopsis(BuildSample(4), path).ok());
  FILE* f = std::fopen(path.c_str(), "a");
  std::fputs("entry,1,inf\n", f);
  std::fclose(f);
  const Status status = LoadSynopsis(path).status();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("non-finite"), std::string::npos)
      << status.message();
  std::remove(path.c_str());
}

TEST(SynopsisIoTest, LoadRejectsTruncatedFile) {
  const std::string path = TempPath("synopsis_truncated.csv");
  ASSERT_TRUE(SaveSynopsis(BuildSample(5), path).ok());
  const std::string full = ReadWholeFile(path);
  // Sever the timestamps row mid-way: its declared element count then
  // exceeds the cells present, which must fail cleanly rather than
  // load a shorter stream.
  const size_t ts = full.find("\ntimestamps,");
  ASSERT_NE(ts, std::string::npos);
  WriteWholeFile(path, full.substr(0, ts + 30));
  EXPECT_FALSE(LoadSynopsis(path).ok());
  // Truncation inside the header row must read as "not a synopsis".
  WriteWholeFile(path, full.substr(0, 8));
  EXPECT_EQ(LoadSynopsis(path).status().code(),
            StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(SynopsisIoTest, LoadRejectsVersionMismatch) {
  const std::string path = TempPath("synopsis_version.csv");
  ASSERT_TRUE(SaveSynopsis(BuildSample(6), path).ok());
  std::string contents = ReadWholeFile(path);
  const std::string header = "dkf_synopsis,1";
  ASSERT_EQ(contents.compare(0, header.size(), header), 0);
  contents.replace(0, header.size(), "dkf_synopsis,99");
  WriteWholeFile(path, contents);
  const Status status = LoadSynopsis(path).status();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("unsupported synopsis version"),
            std::string::npos)
      << status.message();
  std::remove(path.c_str());
}

TEST(SynopsisIoTest, FromPartsValidation) {
  ModelNoise noise;
  const StateModel model = MakeLinearModel(1, 1.0, noise).value();
  SynopsisOptions options;
  options.tolerance = 1.0;

  // Bad tolerance.
  SynopsisOptions bad_tolerance;
  bad_tolerance.tolerance = 0.0;
  EXPECT_FALSE(
      KfSynopsis::FromParts(model, bad_tolerance, {0.0, 1.0}, {}).ok());
  // Empty timestamps.
  EXPECT_FALSE(KfSynopsis::FromParts(model, options, {}, {}).ok());
  // Non-increasing timestamps.
  EXPECT_FALSE(
      KfSynopsis::FromParts(model, options, {0.0, 0.0}, {}).ok());
  // Entry out of range.
  EXPECT_FALSE(KfSynopsis::FromParts(model, options, {0.0, 1.0},
                                     {{5, Vector{1.0}}})
                   .ok());
  // Entry width mismatch.
  EXPECT_FALSE(KfSynopsis::FromParts(model, options, {0.0, 1.0},
                                     {{0, Vector{1.0, 2.0}}})
                   .ok());
  // Out-of-order entries.
  EXPECT_FALSE(KfSynopsis::FromParts(
                   model, options, {0.0, 1.0, 2.0},
                   {{1, Vector{1.0}}, {0, Vector{2.0}}})
                   .ok());
  // Valid.
  EXPECT_TRUE(KfSynopsis::FromParts(model, options, {0.0, 1.0, 2.0},
                                    {{0, Vector{1.0}}, {2, Vector{2.0}}})
                  .ok());
}

}  // namespace
}  // namespace dkf
