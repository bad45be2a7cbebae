// CampaignStore: sharded persistence round-trips, the record codec,
// torn-tail recovery, concurrent cross-process appends, the lease claim
// protocol, incremental refresh between live stores, compaction, and
// foreign-file tolerance.
#include "sweep/campaign_store.hpp"

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cfloat>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <sstream>
#include <string>
#include <thread>

#include "temp_dir.hpp"

namespace pdos::sweep {
namespace {

CachedPoint sample_point(double salt = 0.0) {
  CachedPoint p;
  p.c_psi = 0.123456789012345678 + salt;
  p.analytic_degradation = 0.25;
  p.analytic_gain = 0.5;
  p.shrew = true;
  p.baseline_goodput = 14095466.666666666;
  p.goodput = 7047733.3333333331 + salt;
  p.measured_degradation = 0.5;
  p.measured_gain = 0.25;
  p.utilization = 0.47;
  p.fairness = 0.93;
  p.timeouts = 321;
  p.fast_recoveries = 12;
  p.attack_packets = 98765;
  p.events = 1234567890123ull;
  return p;
}

/// A key landing in segment `seg` (top 4 bits) with low bits `low`.
std::uint64_t key_in_segment(unsigned seg, std::uint64_t low) {
  return (static_cast<std::uint64_t>(seg) << 60) | low;
}

TEST(CampaignStoreTest, MissThenHitAndReload) {
  TempDir dir;
  const CachedPoint stored = sample_point();
  {
    CampaignStore store(dir.path());
    CachedPoint out;
    EXPECT_FALSE(store.lookup_point(42, out));
    store.store_point(42, stored);
    store.store_baseline(43, 14095466.666666666);
    ASSERT_TRUE(store.lookup_point(42, out));
    EXPECT_EQ(store.size(), 2u);
  }
  CampaignStore reloaded(dir.path());
  CachedPoint out;
  ASSERT_TRUE(reloaded.lookup_point(42, out));
  // Bit-exact doubles: this is what makes replayed CSVs byte-identical.
  EXPECT_EQ(out.c_psi, stored.c_psi);
  EXPECT_EQ(out.goodput, stored.goodput);
  EXPECT_EQ(out.events, stored.events);
  double goodput = 0.0;
  ASSERT_TRUE(reloaded.lookup_baseline(43, goodput));
  EXPECT_EQ(goodput, 14095466.666666666);
}

TEST(CampaignStoreTest, ShardsByKeyPrefixAcrossSegmentFiles) {
  TempDir dir;
  CampaignStore store(dir.path());
  EXPECT_EQ(store.segments(), 16u);
  store.store_point(key_in_segment(0x0, 1), sample_point());
  store.store_point(key_in_segment(0xf, 1), sample_point());
  EXPECT_NE(store.segment_path(key_in_segment(0x0, 1)),
            store.segment_path(key_in_segment(0xf, 1)));
  EXPECT_TRUE(
      std::filesystem::exists(store.segment_path(key_in_segment(0x0, 1))));
  EXPECT_TRUE(
      std::filesystem::exists(store.segment_path(key_in_segment(0xf, 1))));
  // Segments not appended to are never created.
  EXPECT_FALSE(
      std::filesystem::exists(store.segment_path(key_in_segment(0x7, 1))));
}

TEST(CampaignStoreTest, TornTailIsSkippedAndRepairedOnAppend) {
  TempDir dir;
  const std::uint64_t key = key_in_segment(0x3, 7);
  std::string seg_path;
  {
    CampaignStore store(dir.path());
    store.store_point(key, sample_point());
    seg_path = store.segment_path(key);
  }
  {
    // A worker killed mid-write: partial record, no trailing newline.
    std::ofstream out(seg_path, std::ios::app);
    out << "P 3000000000000007 0.5 0.2";
  }
  {
    CampaignStore store(dir.path());
    CachedPoint out;
    ASSERT_TRUE(store.lookup_point(key, out));  // intact record survives
    EXPECT_EQ(store.size(), 1u);
    // Appending repairs the tail: the new record starts on a fresh line.
    store.store_point(key_in_segment(0x3, 8), sample_point(1.0));
  }
  CampaignStore reloaded(dir.path());
  CachedPoint out;
  EXPECT_TRUE(reloaded.lookup_point(key, out));
  ASSERT_TRUE(reloaded.lookup_point(key_in_segment(0x3, 8), out));
  EXPECT_EQ(out.goodput, sample_point(1.0).goodput);
  EXPECT_EQ(reloaded.size(), 2u);
}

/// Bit pattern of a double: -0.0 and 0.0 differ, as do NaN payloads.
std::uint64_t bits(double value) {
  std::uint64_t out = 0;
  std::memcpy(&out, &value, sizeof(out));
  return out;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// Cut `bytes` bytes off the end of the file at `path`.
void chop(const std::string& path, std::uintmax_t bytes) {
  std::filesystem::resize_file(path, std::filesystem::file_size(path) - bytes);
}

TEST(CampaignStoreTest, ExtremeValuesRoundTripBitExact) {
  TempDir dir;
  const double values[] = {std::numeric_limits<double>::denorm_min(),
                           DBL_MIN / 3.0,  // subnormal
                           DBL_MAX,
                           -0.0,
                           0.1,
                           1.0 / 3};
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  const auto point_of = [&](double v) {
    CachedPoint p;
    p.c_psi = p.analytic_degradation = p.analytic_gain = v;
    p.baseline_goodput = p.goodput = p.measured_degradation = v;
    p.measured_gain = p.utilization = p.fairness = v;
    p.timeouts = p.fast_recoveries = p.attack_packets = p.events = kMax;
    return p;
  };
  {
    CampaignStore store(dir.path());
    for (unsigned i = 0; i < std::size(values); ++i) {
      store.store_point(key_in_segment(i, 1), point_of(values[i]));
      store.store_baseline(key_in_segment(i, 2), values[i]);
    }
  }
  CampaignStore reloaded(dir.path());
  for (unsigned i = 0; i < std::size(values); ++i) {
    SCOPED_TRACE(values[i]);
    CachedPoint out;
    ASSERT_TRUE(reloaded.lookup_point(key_in_segment(i, 1), out));
    for (double field : {out.c_psi, out.analytic_degradation,
                         out.analytic_gain, out.baseline_goodput, out.goodput,
                         out.measured_degradation, out.measured_gain,
                         out.utilization, out.fairness}) {
      EXPECT_EQ(bits(field), bits(values[i]));
    }
    EXPECT_EQ(out.timeouts, kMax);
    EXPECT_EQ(out.fast_recoveries, kMax);
    EXPECT_EQ(out.attack_packets, kMax);
    EXPECT_EQ(out.events, kMax);
    double goodput = 1.0;
    ASSERT_TRUE(reloaded.lookup_baseline(key_in_segment(i, 2), goodput));
    EXPECT_EQ(bits(goodput), bits(values[i]));
  }
}

// Records in the %.17g layout stores have always been written in: they
// must keep loading, and new appends must write the same bytes.
TEST(CampaignStoreTest, ReadsAndWritesThePrintfLayout) {
  TempDir dir;
  const std::uint64_t point_key = key_in_segment(0x3, 9);
  const std::uint64_t baseline_key = key_in_segment(0x3, 10);
  const std::string records =
      "P 3000000000000009 0.12345678901234568 0.25 0.5 1 14095466.666666666 "
      "7047733.333333333 0.5 0.25 0.46999999999999997 0.93000000000000005 "
      "321 12 98765 1234567890123\n"
      "B 300000000000000a 14095466.666666666\n";
  std::string seg_path;
  {
    CampaignStore probe(dir.sub("old"));
    seg_path = probe.segment_path(point_key);
  }
  std::ofstream(seg_path) << "pdos-campaign-seg-v1\n" << records;

  CampaignStore store(dir.sub("old"));
  CachedPoint out;
  ASSERT_TRUE(store.lookup_point(point_key, out));
  const CachedPoint expected = sample_point();
  EXPECT_EQ(out.c_psi, expected.c_psi);
  EXPECT_EQ(out.analytic_degradation, expected.analytic_degradation);
  EXPECT_EQ(out.analytic_gain, expected.analytic_gain);
  EXPECT_EQ(out.shrew, expected.shrew);
  EXPECT_EQ(out.baseline_goodput, expected.baseline_goodput);
  EXPECT_EQ(out.goodput, expected.goodput);
  EXPECT_EQ(out.measured_degradation, expected.measured_degradation);
  EXPECT_EQ(out.measured_gain, expected.measured_gain);
  EXPECT_EQ(out.utilization, expected.utilization);
  EXPECT_EQ(out.fairness, expected.fairness);
  EXPECT_EQ(out.timeouts, expected.timeouts);
  EXPECT_EQ(out.fast_recoveries, expected.fast_recoveries);
  EXPECT_EQ(out.attack_packets, expected.attack_packets);
  EXPECT_EQ(out.events, expected.events);
  double goodput = 0.0;
  ASSERT_TRUE(store.lookup_baseline(baseline_key, goodput));
  EXPECT_EQ(goodput, 14095466.666666666);

  CampaignStore fresh(dir.sub("new"));
  fresh.store_point(point_key, expected);
  fresh.store_baseline(baseline_key, 14095466.666666666);
  EXPECT_EQ(slurp(fresh.segment_path(point_key)),
            "pdos-campaign-seg-v1\n" + records);
}

// A record torn inside its last number is a shorter, valid-looking number.
// The next append's tail repair must not turn it into a loadable line.
TEST(CampaignStoreTest, TornLastFieldIsNeverLoaded) {
  TempDir dir;
  const std::uint64_t b_intact = key_in_segment(0x3, 1);
  const std::uint64_t b_torn = key_in_segment(0x3, 2);
  const std::uint64_t b_after = key_in_segment(0x3, 3);
  const std::uint64_t p_intact = key_in_segment(0x5, 1);
  const std::uint64_t p_torn = key_in_segment(0x5, 2);
  const std::uint64_t p_after = key_in_segment(0x5, 3);
  std::string b_path;
  std::string p_path;
  {
    CampaignStore store(dir.path());
    store.store_baseline(b_intact, 1.0e7);
    store.store_baseline(b_torn, 14095466.666666666);
    store.store_point(p_intact, sample_point());
    store.store_point(p_torn, sample_point(1.0));
    b_path = store.segment_path(b_torn);
    p_path = store.segment_path(p_torn);
  }
  // Killed mid-write: "B <key> 1409546" and "P <key> ... 1234567890".
  chop(b_path, std::strlen("6.666666666\n"));
  chop(p_path, std::strlen("123\n"));
  {
    // Appending to each segment repairs its torn tail.
    CampaignStore store(dir.path());
    store.store_baseline(b_after, 2.0e7);
    store.store_point(p_after, sample_point(2.0));
  }
  CampaignStore reloaded(dir.path());
  double goodput = 0.0;
  CachedPoint out;
  EXPECT_FALSE(reloaded.lookup_baseline(b_torn, goodput)) << goodput;
  EXPECT_FALSE(reloaded.lookup_point(p_torn, out)) << out.events;
  ASSERT_TRUE(reloaded.lookup_baseline(b_intact, goodput));
  EXPECT_EQ(goodput, 1.0e7);
  ASSERT_TRUE(reloaded.lookup_baseline(b_after, goodput));
  EXPECT_EQ(goodput, 2.0e7);
  ASSERT_TRUE(reloaded.lookup_point(p_intact, out));
  EXPECT_EQ(out.events, sample_point().events);
  ASSERT_TRUE(reloaded.lookup_point(p_after, out));
  EXPECT_EQ(out.goodput, sample_point(2.0).goodput);
  EXPECT_EQ(reloaded.size(), 4u);
}

TEST(CampaignStoreTest, ConcurrentForkAppendsAllSurvive) {
  TempDir dir;
  constexpr int kChildren = 4;
  constexpr std::uint64_t kPerChild = 50;
  std::vector<pid_t> pids;
  for (int c = 0; c < kChildren; ++c) {
    const pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      CampaignStore store(dir.path());
      for (std::uint64_t i = 0; i < kPerChild; ++i) {
        // Every child hammers the SAME segments (keys differ only in low
        // bits), so appends genuinely contend on the flock.
        const std::uint64_t key = key_in_segment(
            static_cast<unsigned>(i % 4),
            (static_cast<std::uint64_t>(c) << 32) | i);
        store.store_point(key, sample_point(static_cast<double>(i)));
      }
      _exit(0);
    }
    pids.push_back(pid);
  }
  for (pid_t pid : pids) {
    int status = 0;
    ASSERT_EQ(waitpid(pid, &status, 0), pid);
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  }
  CampaignStore merged(dir.path());
  EXPECT_EQ(merged.size(), kChildren * kPerChild);
  CachedPoint out;
  for (int c = 0; c < kChildren; ++c) {
    for (std::uint64_t i = 0; i < kPerChild; ++i) {
      const std::uint64_t key = key_in_segment(
          static_cast<unsigned>(i % 4),
          (static_cast<std::uint64_t>(c) << 32) | i);
      ASSERT_TRUE(merged.lookup_point(key, out));
      EXPECT_EQ(out.goodput, sample_point(static_cast<double>(i)).goodput);
    }
  }
}

TEST(CampaignStoreTest, ClaimProtocolAcquireBusyDoneRelease) {
  TempDir dir;
  CampaignStore a(dir.path());
  CampaignStore b(dir.path());
  EXPECT_NE(a.owner(), b.owner());
  const std::uint64_t key = key_in_segment(0x5, 11);

  // Cold key: first claimant wins, the second sees a live foreign lease.
  EXPECT_EQ(a.claim_point(key), PointStore::ClaimStatus::kAcquired);
  EXPECT_EQ(b.claim_point(key), PointStore::ClaimStatus::kBusy);
  // Re-claiming our own lease is idempotent, not a deadlock.
  EXPECT_EQ(a.claim_point(key), PointStore::ClaimStatus::kAcquired);

  // The result supersedes the lease: the waiter's next claim reports done
  // and the record is loaded by the same scan.
  a.store_point(key, sample_point());
  EXPECT_EQ(b.claim_point(key), PointStore::ClaimStatus::kDone);
  CachedPoint out;
  EXPECT_TRUE(b.lookup_point(key, out));

  // Release frees a claim without a result.
  const std::uint64_t key2 = key_in_segment(0x5, 12);
  EXPECT_EQ(a.claim_point(key2), PointStore::ClaimStatus::kAcquired);
  a.release_point(key2);
  EXPECT_EQ(b.claim_point(key2), PointStore::ClaimStatus::kAcquired);

  // Baselines claim through the same protocol.
  const std::uint64_t key3 = key_in_segment(0x6, 13);
  EXPECT_EQ(a.claim_baseline(key3), PointStore::ClaimStatus::kAcquired);
  EXPECT_EQ(b.claim_baseline(key3), PointStore::ClaimStatus::kBusy);
  a.store_baseline(key3, 1.0e7);
  EXPECT_EQ(b.claim_baseline(key3), PointStore::ClaimStatus::kDone);
}

TEST(CampaignStoreTest, ExpiredLeaseIsReclaimable) {
  TempDir dir;
  CampaignStore crashed(dir.path(), /*lease_ttl_seconds=*/0.05);
  CampaignStore survivor(dir.path(), /*lease_ttl_seconds=*/0.05);
  const std::uint64_t key = key_in_segment(0x9, 21);
  EXPECT_EQ(crashed.claim_point(key), PointStore::ClaimStatus::kAcquired);
  EXPECT_EQ(survivor.claim_point(key), PointStore::ClaimStatus::kBusy);
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  // The "crashed" worker never stored a result; its lease aged out and the
  // key is claimable again — crash recovery with no fsck pass.
  EXPECT_EQ(survivor.claim_point(key), PointStore::ClaimStatus::kAcquired);
}

TEST(CampaignStoreTest, RefreshFoldsInPeerAppendsIncrementally) {
  TempDir dir;
  CampaignStore writer(dir.path());
  CampaignStore reader(dir.path());
  const std::uint64_t key = key_in_segment(0xa, 31);
  writer.store_point(key, sample_point());
  CachedPoint out;
  EXPECT_FALSE(reader.lookup_point(key, out));  // not scanned yet
  reader.refresh();
  ASSERT_TRUE(reader.lookup_point(key, out));
  EXPECT_EQ(out.goodput, sample_point().goodput);
  // Incremental: a second append lands after the reader's scan offset.
  const std::uint64_t key2 = key_in_segment(0xa, 32);
  writer.store_point(key2, sample_point(2.0));
  reader.refresh();
  ASSERT_TRUE(reader.lookup_point(key2, out));
  EXPECT_EQ(out.goodput, sample_point(2.0).goodput);
}

TEST(CampaignStoreTest, CompactDropsCoordinationRecordsKeepsResults) {
  TempDir dir;
  CampaignStore store(dir.path());
  const std::uint64_t done = key_in_segment(0xb, 41);
  const std::uint64_t abandoned = key_in_segment(0xb, 42);
  EXPECT_EQ(store.claim_point(done), PointStore::ClaimStatus::kAcquired);
  store.store_point(done, sample_point());
  EXPECT_EQ(store.claim_point(abandoned), PointStore::ClaimStatus::kAcquired);
  store.release_point(abandoned);
  const std::size_t dropped = store.compact();
  EXPECT_GE(dropped, 3u);  // both leases + the release

  // Same facts before and after, for this store and for a fresh load.
  CachedPoint out;
  EXPECT_TRUE(store.lookup_point(done, out));
  CampaignStore reloaded(dir.path());
  ASSERT_TRUE(reloaded.lookup_point(done, out));
  EXPECT_EQ(out.goodput, sample_point().goodput);
  EXPECT_EQ(reloaded.size(), 1u);
  // The live store survives its own compaction and can keep appending
  // (scan offsets reset cleanly despite the file shrinking).
  store.store_point(key_in_segment(0xb, 43), sample_point(3.0));
  CampaignStore again(dir.path());
  EXPECT_EQ(again.size(), 2u);
}

TEST(CampaignStoreTest, ForeignSegmentLoadsEmptyAndIsRewritten) {
  TempDir dir;
  const std::uint64_t key = key_in_segment(0x4, 51);
  std::string seg_path;
  {
    CampaignStore probe(dir.path());
    seg_path = probe.segment_path(key);
  }
  {
    std::ofstream out(seg_path);
    out << "not a campaign segment\nP ffff bogus\n";
  }
  CampaignStore store(dir.path());
  EXPECT_EQ(store.size(), 0u);
  store.store_point(key, sample_point());
  CampaignStore reloaded(dir.path());
  CachedPoint out;
  ASSERT_TRUE(reloaded.lookup_point(key, out));
  EXPECT_EQ(reloaded.size(), 1u);
  // The foreign content is gone, replaced by a valid header.
  std::ifstream in(seg_path);
  std::string first;
  std::getline(in, first);
  EXPECT_NE(first, "not a campaign segment");
}

}  // namespace
}  // namespace pdos::sweep
