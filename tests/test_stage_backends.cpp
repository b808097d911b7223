// Stage-backend tests: every lossless backend must round-trip the
// golden-corpus datasets within the bound, streams must stay thread-count
// invariant for the non-default backend (the default is locked byte-exactly
// by test_golden_streams.cpp), and an unknown entropy id in a stream must be
// a clean cliz::Error.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "fault_injection.hpp"
#include "src/common/parallel.hpp"
#include "src/common/rng.hpp"
#include "src/common/status.hpp"
#include "src/core/autotune.hpp"
#include "src/core/chunked.hpp"
#include "src/core/cliz.hpp"
#include "src/core/codec_context.hpp"
#include "src/core/stage_backends.hpp"
#include "src/lossless/lossless.hpp"
#include "src/metrics/metrics.hpp"
#include "tests/framed_fixture.hpp"

namespace cliz {
namespace {

constexpr double kEb = 1e-3;
constexpr float kFill = 9.96921e36f;

// --- the golden-corpus datasets (same generators as the golden locks) ----

NdArray<float> plain_field() {
  const Shape shape({40, 48});
  NdArray<float> a(shape);
  Rng rng(1001);
  for (std::size_t r = 0; r < 40; ++r) {
    for (std::size_t c = 0; c < 48; ++c) {
      const double v = 0.03 * static_cast<double>(r) -
                       0.015 * static_cast<double>(c) +
                       0.25 * static_cast<double>((r + c) % 9) +
                       0.05 * rng.uniform();
      a[r * 48 + c] = static_cast<float>(v);
    }
  }
  return a;
}

struct MaskedField {
  NdArray<float> data;
  MaskMap mask;
};

MaskedField masked_field() {
  const Shape shape({16, 12, 14});
  NdArray<float> data(shape);
  auto mask = MaskMap::all_valid(shape);
  Rng rng(2002);
  for (std::size_t i = 0; i < data.size(); ++i) {
    if (i % 13 == 0) {
      mask.mutable_data()[i] = 0;
      data[i] = kFill;
      continue;
    }
    const double v = 0.1 * static_cast<double>(i % 14) -
                     0.07 * static_cast<double>((i / 14) % 12) +
                     0.04 * rng.uniform();
    data[i] = static_cast<float>(v);
  }
  return {std::move(data), std::move(mask)};
}

NdArray<float> periodic_field() {
  const Shape shape({36, 10, 12});
  NdArray<float> a(shape);
  Rng rng(3003);
  for (std::size_t t = 0; t < 36; ++t) {
    const double season =
        0.1 * static_cast<double>((t % 6) * (11 - (t % 6)));
    for (std::size_t p = 0; p < 120; ++p) {
      const double v = season + 0.02 * static_cast<double>(p % 12) +
                       0.03 * rng.uniform();
      a[t * 120 + p] = static_cast<float>(v);
    }
  }
  return a;
}

NdArray<float> chunked_field() {
  const Shape shape({30, 12, 10});
  NdArray<float> a(shape);
  Rng rng(4004);
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double v = 0.05 * static_cast<double>(i % 120) -
                     0.002 * static_cast<double>(i / 120) +
                     0.03 * rng.uniform();
    a[i] = static_cast<float>(v);
  }
  return a;
}

PipelineConfig masked_config() {
  PipelineConfig c = PipelineConfig::defaults(3);
  c.dynamic_fitting = true;
  c.classify_bins = true;
  return c;
}

PipelineConfig periodic_config() {
  PipelineConfig c = PipelineConfig::defaults(3);
  c.period = 6;
  c.time_dim = 0;
  return c;
}

const LosslessBackend kAllBackends[] = {LosslessBackend::kLz,
                                        LosslessBackend::kStore};

ClizOptions options_for(LosslessBackend lossless) {
  ClizOptions o;
  o.lossless = lossless;
  return o;
}

// --- round trips ---------------------------------------------------------

TEST(StageBackends, AllPairsRoundTripGoldenCorpus) {
  const auto plain = plain_field();
  const auto mf = masked_field();
  const auto periodic = periodic_field();
  for (const LosslessBackend lossless : kAllBackends) {
    SCOPED_TRACE(std::string("lossless=") + lossless_backend_name(lossless));
    const ClizOptions opts = options_for(lossless);

    const auto plain_stream =
        ClizCompressor(PipelineConfig::defaults(2), opts).compress(plain, kEb);
    const auto plain_out = ClizCompressor::decompress(plain_stream);
    EXPECT_LE(error_stats(plain.flat(), plain_out.flat()).max_abs_error,
              kEb);

    const auto masked_stream = ClizCompressor(masked_config(), opts)
                                   .compress(mf.data, kEb, &mf.mask);
    const auto masked_out = ClizCompressor::decompress(masked_stream);
    EXPECT_LE(error_stats(mf.data.flat(), masked_out.flat(), &mf.mask)
                  .max_abs_error,
              kEb);
    for (std::size_t i = 0; i < masked_out.size(); ++i) {
      if (!mf.mask.valid(i)) {
        ASSERT_EQ(masked_out[i], kFill);
      }
    }

    const auto periodic_stream = ClizCompressor(periodic_config(), opts)
                                     .compress(periodic, kEb);
    const auto periodic_out = ClizCompressor::decompress(periodic_stream);
    EXPECT_LE(error_stats(periodic.flat(), periodic_out.flat()).max_abs_error,
              kEb);
  }
}

TEST(StageBackends, AllPairsRoundTripChunkedFrames) {
  const auto data = chunked_field();
  for (const LosslessBackend lossless : kAllBackends) {
    SCOPED_TRACE(std::string("lossless=") + lossless_backend_name(lossless));
    ChunkedOptions copts;
    copts.chunks = 4;
    copts.codec = options_for(lossless);
    const auto frame = chunked_compress(data, kEb,
                                        PipelineConfig::defaults(3), nullptr,
                                        copts);
    const auto out = chunked_decompress(frame);
    EXPECT_LE(error_stats(data.flat(), out.flat()).max_abs_error, kEb);
  }
}

TEST(StageBackends, DefaultOptionsReproduceDefaultBackends) {
  // ClizOptions{} must mean huffman + lz: the golden byte-identity locks in
  // test_golden_streams.cpp depend on the default constructor.
  EXPECT_EQ(ClizOptions{}.entropy, EntropyBackend::kHuffman);
  EXPECT_EQ(ClizOptions{}.lossless, LosslessBackend::kLz);
  const auto data = plain_field();
  EXPECT_EQ(ClizCompressor(PipelineConfig::defaults(2)).compress(data, kEb),
            ClizCompressor(PipelineConfig::defaults(2),
                           options_for(kAllBackends[0]))
                .compress(data, kEb));
}

// --- thread-count invariance ---------------------------------------------
// Mirror of GoldenStreams.StreamsAreThreadCountInvariant for the
// non-default lossless backend: work partitioning never depends on the
// worker count, whatever the backend.

struct ThreadCountGuard {
  int saved = hardware_threads();
  ~ThreadCountGuard() { set_thread_count(saved); }
};

TEST(StageBackends, StoreStreamsAreThreadCountInvariant) {
  const auto plain = plain_field();
  const auto mf = masked_field();
  const auto periodic = periodic_field();
  const ClizOptions opts = options_for(LosslessBackend::kStore);

  ThreadCountGuard guard;
  set_thread_count(1);
  const auto serial_plain =
      ClizCompressor(PipelineConfig::defaults(2), opts).compress(plain, kEb);
  const auto serial_masked = ClizCompressor(masked_config(), opts)
                                 .compress(mf.data, kEb, &mf.mask);
  const auto serial_periodic =
      ClizCompressor(periodic_config(), opts).compress(periodic, kEb);

  const int max_threads = std::max(4, guard.saved);
  for (const int threads : {2, max_threads}) {
    set_thread_count(threads);
    EXPECT_EQ(ClizCompressor(PipelineConfig::defaults(2), opts)
                  .compress(plain, kEb),
              serial_plain)
        << "plain store stream differs at " << threads << " thread(s)";
    EXPECT_EQ(ClizCompressor(masked_config(), opts)
                  .compress(mf.data, kEb, &mf.mask),
              serial_masked)
        << "masked store stream differs at " << threads << " thread(s)";
    EXPECT_EQ(ClizCompressor(periodic_config(), opts).compress(periodic, kEb),
              serial_periodic)
        << "periodic store stream differs at " << threads
        << " thread(s)";
  }
}

// --- unknown entropy id ------------------------------------------------

TEST(StageBackends, UnknownEntropyIdIsCleanError) {
  // The entropy byte is the first byte where the frozen framed fixture and
  // a serial re-encode of its input differ (bit 7 flags the retired framed
  // container).
  const auto entropy = framed_fixture::locate_entropy_byte();
  const auto& serial_raw = entropy.serial_raw;
  const std::size_t pos = entropy.pos;
  ASSERT_LT(pos, serial_raw.size());
  ASSERT_EQ(serial_raw[pos], 0x01u);  // (huffman id 0 << 1) | classified

  const auto expect_code = [&](const std::uint8_t* values, std::size_t n,
                               ErrorCode code) {
    for (const auto& fault : fault::byte_override_cases(
             serial_raw, pos, std::span<const std::uint8_t>(values, n))) {
      try {
        (void)ClizCompressor::decompress(lossless_compress(fault.bytes));
        ADD_FAILURE() << fault.label << ": decoded";
      } catch (const Error& e) {
        EXPECT_EQ(e.code(), code) << fault.label << ": " << e.what();
      }
    }
  };
  // Every id >= 2 in the id field (bits 1..6) is unknown to this build and
  // must be a clean kCorruptStream, classified or bit 7 notwithstanding.
  const std::uint8_t unknown[] = {4, 5, 6, 0x84, 0x85, 0x7E, 0xFE, 0xFF};
  expect_code(unknown, std::size(unknown), ErrorCode::kCorruptStream);
  // Id 1 is the retired tANS coder and bit 7 with id 0 the retired framed
  // container: both refused as unsupported before any table is read.
  const std::uint8_t retired[] = {2, 3, 0x82, 0x83, 0x80, 0x81};
  expect_code(retired, std::size(retired), ErrorCode::kUnsupported);
}

// --- store/RLE lossless backend ------------------------------------------

TEST(StageBackends, StoreBackendUsesRleWhenRunsPay) {
  std::vector<std::uint8_t> runs(4096, 7);
  for (std::size_t i = 1024; i < 2048; ++i) runs[i] = 42;
  const auto frame = lossless_compress(runs, LosslessBackend::kStore);
  EXPECT_EQ(lossless_frame_backend(frame), LosslessBackend::kStore);
  EXPECT_LT(frame.size(), runs.size() / 4);
  EXPECT_EQ(lossless_decompress(frame), runs);
}

TEST(StageBackends, StoreBackendFallsBackToStoredOnNoise) {
  Rng rng(31337);
  std::vector<std::uint8_t> noise(4096);
  for (auto& b : noise) b = static_cast<std::uint8_t>(rng.next_u64());
  const auto frame = lossless_compress(noise, LosslessBackend::kStore);
  // RLE would expand noise, so the frame is the stored fallback — which
  // reads back as the (shared) kLz container.
  EXPECT_EQ(lossless_frame_backend(frame), LosslessBackend::kLz);
  EXPECT_LE(frame.size(), noise.size() + 16);
  EXPECT_EQ(lossless_decompress(frame), noise);
}

TEST(StageBackends, RleFrameFaultsAreCleanErrors) {
  std::vector<std::uint8_t> runs(2048, 9);
  for (std::size_t i = 0; i < runs.size(); i += 100) runs[i] = 1;
  const auto frame = lossless_compress(runs, LosslessBackend::kStore);
  ASSERT_EQ(lossless_frame_backend(frame), LosslessBackend::kStore);
  for (const auto& fault : fault::bit_flip_cases(frame, 40, 515)) {
    try {
      const auto out = lossless_decompress(fault.bytes);
      // Undetected only if the decode reproduced the payload exactly
      // (flip landed in slack space).
      EXPECT_EQ(out, runs) << fault.label;
    } catch (const Error&) {
      // detected corruption
    }
  }
  for (const auto& fault : fault::truncation_cases(frame, 24)) {
    EXPECT_THROW((void)lossless_decompress(fault.bytes), Error)
        << fault.label;
  }
}

// --- autotune backend grid -----------------------------------------------

TEST(StageBackends, AutotuneRecordsDeterministicBackendChoice) {
  const auto data = periodic_field();
  AutotuneOptions opts;
  opts.sampling_rate = 0.2;
  const auto first = autotune(data, kEb, nullptr, opts);
  const auto second = autotune(data, kEb, nullptr, opts);
  ASSERT_EQ(first.backend_candidates.size(), 2u);
  EXPECT_EQ(first.backend_candidates[0].lossless, LosslessBackend::kLz);
  EXPECT_EQ(first.backend_candidates[1].lossless, LosslessBackend::kStore);
  EXPECT_EQ(first.best_lossless, second.best_lossless);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(first.backend_candidates[i].estimated_ratio,
              second.backend_candidates[i].estimated_ratio)
        << "grid trial " << i;
    EXPECT_GT(first.backend_candidates[i].estimated_ratio, 0.0);
  }
  // The winner is at least as good as the default, and the choice is
  // reproduced by compressing with the recorded backends.
  EXPECT_GE(std::max_element(first.backend_candidates.begin(),
                             first.backend_candidates.end(),
                             [](const BackendCandidate& a,
                                const BackendCandidate& b) {
                               return a.estimated_ratio < b.estimated_ratio;
                             })
                ->estimated_ratio,
            first.backend_candidates[0].estimated_ratio);
  ClizOptions copts;
  copts.lossless = first.best_lossless;
  const auto stream = ClizCompressor(first.best, copts).compress(data, kEb);
  const auto out = ClizCompressor::decompress(stream);
  EXPECT_LE(error_stats(data.flat(), out.flat()).max_abs_error, kEb);

  // The report keys the grid by lossless name and, with Huffman the only
  // entropy coder written as one payload, carries no entropy or framing
  // choice.
  EXPECT_FALSE(first.best_frame_passes);
  const std::string json = first.to_json();
  EXPECT_NE(json.find("\"backend_candidates\":{\"lz\":"), std::string::npos)
      << json;
  EXPECT_NE(json.find(",\"store\":"), std::string::npos) << json;
  EXPECT_EQ(json.find("entropy"), std::string::npos) << json;
  EXPECT_EQ(json.find("frame"), std::string::npos) << json;
}

TEST(StageBackends, AutotuneBackendGridCanBeDisabled) {
  const auto data = plain_field();
  AutotuneOptions opts;
  opts.sampling_rate = 0.2;
  opts.consider_backends = false;
  const auto result = autotune(data, kEb, nullptr, opts);
  EXPECT_TRUE(result.backend_candidates.empty());
  EXPECT_EQ(result.best_lossless, LosslessBackend::kLz);
}

// --- telemetry names -----------------------------------------------------

TEST(StageBackends, StatsNameBackendsFromTheEnumTables) {
  // StageStats renders the stored ids through the backend headers' name
  // tables (the ones the CLI parses), so each enum has one spelling.
  for (const PredictorBackend predictor :
       {PredictorBackend::kInterp, PredictorBackend::kLorenzo1,
        PredictorBackend::kLorenzo2, PredictorBackend::kRegression}) {
    for (const LosslessBackend lossless :
         {LosslessBackend::kLz, LosslessBackend::kStore}) {
      const std::string p = predictor_backend_name(predictor);
      const std::string l = lossless_backend_name(lossless);
      SCOPED_TRACE(p + "+" + l);
      ASSERT_EQ(parse_predictor_backend(p), predictor);
      ASSERT_EQ(parse_lossless_backend(l), lossless);
      StageStats st;
      st.predictor_backend = static_cast<std::uint8_t>(predictor);
      st.lossless_backend = static_cast<std::uint8_t>(lossless);
      const std::string json = st.to_json();
      EXPECT_NE(json.find("\"predictor_backend\":\"" + p + "\","),
                std::string::npos)
          << json;
      EXPECT_NE(json.find("\"lossless_backend\":\"" + l + "\","),
                std::string::npos)
          << json;
      // No entropy-coder or framing keys: Huffman is the only coder and
      // writes one payload.
      EXPECT_EQ(json.find("\"entropy"), std::string::npos) << json;
      EXPECT_EQ(json.find("\"frame"), std::string::npos) << json;
      const std::string text = st.to_text();
      EXPECT_EQ(text.find("framing"), std::string::npos) << text;
      EXPECT_NE(text.find("backends: predictor=" + p + " lossless=" + l +
                          " simd="),
                std::string::npos)
          << text;
    }
  }
  // Ids past the tables (a stream from a newer writer) render as unknown.
  StageStats st;
  st.predictor_backend = 0xFF;
  st.lossless_backend = 0xFF;
  EXPECT_NE(st.to_json().find("\"predictor_backend\":\"unknown\","),
            std::string::npos);
  EXPECT_NE(st.to_json().find("\"lossless_backend\":\"unknown\","),
            std::string::npos);
}

}  // namespace
}  // namespace cliz
