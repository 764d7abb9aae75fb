// Double-buffered chunk streaming (dataset::generate_population_chunked):
// the pool's workers generate chunk k+1 while the calling thread hands
// chunk k to the sink. The contracts pinned here:
//   - the concatenated chunks are byte-identical to the materialized
//     generate_scaled_population() for every thread count × chunk size,
//   - every sink call runs on the calling thread, in ascending first_index,
//   - a sink exception propagates only after every helper has finished
//     (the `parallel` label runs this under ThreadSanitizer, and
//     AddressSanitizer flags a helper touching the unwound frame).
// Runs under the `scale` and `parallel` ctest labels.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "dataset/generator.h"
#include "metrics/load_level.h"

namespace epserve::dataset {
namespace {

template <typename T>
void append_bytes(std::string& out, const T& value) {
  char bytes[sizeof(T)];
  std::memcpy(bytes, &value, sizeof(T));
  out.append(bytes, sizeof(T));
}

void append_string(std::string& out, const std::string& value) {
  append_bytes(out, value.size());
  out += value;
}

/// Every field of every record, doubles by bit pattern: two populations are
/// byte-identical iff their serializations are equal.
std::string population_bytes(std::span<const ServerRecord> records) {
  std::string out;
  for (const ServerRecord& r : records) {
    append_bytes(out, r.id);
    append_string(out, r.vendor);
    append_string(out, r.model);
    append_bytes(out, r.form_factor);
    append_bytes(out, r.nodes);
    append_bytes(out, r.chips);
    append_bytes(out, r.cores_per_chip);
    append_string(out, r.cpu_codename);
    append_bytes(out, r.memory_gb);
    append_bytes(out, r.hw_year);
    append_bytes(out, r.pub_year);
    append_bytes(out, r.curve.idle_watts());
    for (std::size_t i = 0; i < metrics::kNumLoadLevels; ++i) {
      append_bytes(out, r.curve.watts_at_level(i));
      append_bytes(out, r.curve.ops_at_level(i));
    }
  }
  return out;
}

ScaledConfig config_for(std::uint64_t servers, int threads) {
  ScaledConfig config;
  config.servers = servers;
  config.threads = threads;
  return config;
}

TEST(ChunkStream, ConcatenatedChunksEqualTheMaterializedPopulation) {
  // 65536-row chunks need more than one chunk to exercise both buffers;
  // the small chunk sizes cover many buffer flips on a smaller population.
  struct Case {
    std::size_t chunk;
    std::uint64_t servers;
  };
  for (const Case c : {Case{1, 600}, Case{7, 3001}, Case{65536, 70001}}) {
    const auto reference = generate_scaled_population(config_for(c.servers, 1));
    ASSERT_TRUE(reference.ok()) << reference.error().message;
    const std::string expected = population_bytes(reference.value());
    for (const int threads : {1, 2, 4, 8}) {
      std::vector<ServerRecord> streamed;
      const auto emitted = generate_population_chunked(
          config_for(c.servers, threads), c.chunk,
          [&streamed](std::span<const ServerRecord> chunk, std::uint64_t) {
            streamed.insert(streamed.end(), chunk.begin(), chunk.end());
          });
      ASSERT_TRUE(emitted.ok()) << emitted.error().message;
      EXPECT_EQ(emitted.value(), c.servers);
      EXPECT_TRUE(population_bytes(streamed) == expected)
          << "threads " << threads << " chunk " << c.chunk;
    }
  }
}

TEST(ChunkStream, SinkRunsOnTheCallingThreadInAscendingOrder) {
  constexpr std::uint64_t kServers = 500;
  constexpr std::size_t kChunk = 7;
  for (const int threads : {1, 2, 4, 8}) {
    std::vector<std::thread::id> sink_threads;
    std::vector<std::uint64_t> firsts;
    std::uint64_t expected_first = 0;
    const auto emitted = generate_population_chunked(
        config_for(kServers, threads), kChunk,
        [&](std::span<const ServerRecord> chunk, std::uint64_t first_index) {
          sink_threads.push_back(std::this_thread::get_id());
          firsts.push_back(first_index);
          EXPECT_EQ(first_index, expected_first);
          EXPECT_EQ(chunk.front().id, static_cast<int>(first_index) + 1);
          expected_first += chunk.size();
        });
    ASSERT_TRUE(emitted.ok()) << emitted.error().message;
    EXPECT_EQ(expected_first, kServers) << "threads " << threads;
    ASSERT_EQ(firsts.size(), (kServers + kChunk - 1) / kChunk);
    for (std::size_t k = 0; k < firsts.size(); ++k) {
      EXPECT_EQ(firsts[k], k * kChunk) << "threads " << threads;
      EXPECT_EQ(sink_threads[k], std::this_thread::get_id())
          << "threads " << threads << " chunk " << k;
    }
  }
}

TEST(ChunkStream, SinkExceptionPropagatesAfterHelpersFinish) {
  constexpr std::size_t kChunk = 4096;
  for (const int threads : {1, 2, 4, 8}) {
    std::vector<std::uint64_t> firsts;
    try {
      (void)generate_population_chunked(
          config_for(10 * kChunk, threads), kChunk,
          [&firsts](std::span<const ServerRecord>, std::uint64_t first_index) {
            firsts.push_back(first_index);
            if (first_index == 2 * kChunk) {
              throw std::runtime_error("sink rejects chunk 2");
            }
          });
      FAIL() << "expected the sink's exception, threads " << threads;
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "sink rejects chunk 2");
    }
    EXPECT_EQ(firsts, (std::vector<std::uint64_t>{0, kChunk, 2 * kChunk}))
        << "threads " << threads;
  }
  // The generator is reusable afterwards: nothing was left running.
  const auto after = generate_population_chunked(
      config_for(100, 4), 7, [](std::span<const ServerRecord>, std::uint64_t) {});
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.value(), 100u);
}

}  // namespace
}  // namespace epserve::dataset
