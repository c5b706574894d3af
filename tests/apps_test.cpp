// Tests for the application models (schbench, workload mixes, batch app) and
// the real KV store.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "src/simcore/simulation.h"
#include "src/apps/batch_app.h"
#include "src/apps/kvstore.h"
#include "src/apps/schbench.h"
#include "src/apps/workloads.h"
#include "src/libos/percpu_engine.h"
#include "src/policies/cfs.h"
#include "src/policies/round_robin.h"

namespace skyloft {
namespace {

// ---- KvStore ----

TEST(KvStoreTest, SetGetDelete) {
  KvStore kv;
  EXPECT_TRUE(kv.Set("a", "1"));
  EXPECT_FALSE(kv.Set("a", "2"));  // overwrite
  EXPECT_EQ(kv.Get("a"), "2");
  EXPECT_EQ(kv.Get("missing"), std::nullopt);
  EXPECT_TRUE(kv.Delete("a"));
  EXPECT_FALSE(kv.Delete("a"));
  EXPECT_EQ(kv.Get("a"), std::nullopt);
  EXPECT_EQ(kv.Size(), 0u);
}

TEST(KvStoreTest, GrowsFromEmpty) {
  KvStore kv;
  for (int i = 0; i < 10'000; i++) {
    kv.Set("key" + std::to_string(i), std::to_string(i * 3));
  }
  EXPECT_EQ(kv.Size(), 10'000u);
  for (int i = 0; i < 10'000; i += 97) {
    EXPECT_EQ(kv.Get("key" + std::to_string(i)), std::to_string(i * 3));
  }
}

TEST(KvStoreTest, TombstoneReuse) {
  KvStore kv;
  for (int round = 0; round < 200; round++) {
    const std::string key = "k" + std::to_string(round % 5);
    kv.Set(key, "v");
    kv.Delete(key);
  }
  EXPECT_EQ(kv.Size(), 0u);
  kv.Set("final", "x");
  EXPECT_EQ(kv.Get("final"), "x");
}

TEST(KvStoreTest, ScanIsOrderedAndBounded) {
  KvStore kv;
  kv.Set("b", "2");
  kv.Set("a", "1");
  kv.Set("d", "4");
  kv.Set("c", "3");
  const auto result = kv.Scan("b", 2);
  ASSERT_EQ(result.size(), 2u);
  EXPECT_EQ(result[0].first, "b");
  EXPECT_EQ(result[1].first, "c");
}

TEST(KvStoreTest, ScanSkipsDeleted) {
  KvStore kv;
  kv.Set("a", "1");
  kv.Set("b", "2");
  kv.Delete("a");
  const auto result = kv.Scan("", 10);
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result[0].first, "b");
}

TEST(KvStoreTest, ScanAfterGrowAndDeleteMatchesOrderedModel) {
  // The ordered view is built by the first Scan and must be rebuilt after an
  // insert or a Delete; index growth keeps it.
  KvStore kv;
  std::map<std::string, std::string> model;
  const auto check = [&] {
    const auto result = kv.Scan("", 1000);
    ASSERT_EQ(result.size(), model.size());
    auto it = model.begin();
    for (const auto& [key, value] : result) {
      EXPECT_EQ(key, it->first);
      EXPECT_EQ(value, it->second);
      ++it;
    }
  };
  for (int i = 0; i < 10; i++) {
    kv.Set("key" + std::to_string(i), "v" + std::to_string(i));
    model["key" + std::to_string(i)] = "v" + std::to_string(i);
  }
  check();
  for (int i = 10; i < 300; i++) {  // grows the index 16 -> 512 buckets
    kv.Set("key" + std::to_string(i), "v" + std::to_string(i));
    model["key" + std::to_string(i)] = "v" + std::to_string(i);
  }
  check();
  for (int i = 0; i < 300; i += 3) {
    kv.Delete("key" + std::to_string(i));
    model.erase("key" + std::to_string(i));
  }
  kv.Set("key1", "overwritten");
  model["key1"] = "overwritten";
  check();
}

// Seeded random Set, overwrite, Delete, Get and Scan against a std::map
// model. A small key space makes keys come back after a Delete, so the run
// churns tombstones and looks up and scans swap-removed entries.
void ExpectMatchesModel(KvStore& kv, std::uint64_t seed, int ops, int key_space) {
  std::mt19937_64 rng(seed);
  std::map<std::string, std::string> model;
  for (int op = 0; op < ops; op++) {
    const std::string key = "k" + std::to_string(rng() % static_cast<std::uint64_t>(key_space));
    const std::uint64_t action = rng() % 8;
    if (action < 3) {
      const std::string value = "v" + std::to_string(op);
      ASSERT_EQ(kv.Set(key, value), model.insert_or_assign(key, value).second) << key;
    } else if (action < 5) {
      ASSERT_EQ(kv.Delete(key), model.erase(key) == 1) << key;
    } else if (action < 7) {
      const auto it = model.find(key);
      ASSERT_EQ(kv.Get(key), it == model.end() ? std::nullopt : std::optional(it->second)) << key;
    } else {
      const std::size_t limit = 1 + rng() % 20;
      const auto result = kv.Scan(key, limit);
      auto it = model.lower_bound(key);
      for (const auto& pair : result) {
        ASSERT_TRUE(it != model.end());
        ASSERT_EQ(pair.first, it->first);
        ASSERT_EQ(pair.second, it->second);
        ++it;
      }
      ASSERT_TRUE(result.size() == limit || it == model.end()) << "short scan from " << key;
    }
    ASSERT_EQ(kv.Size(), model.size());
  }
  const auto all = kv.Scan("", model.size() + 1);
  ASSERT_EQ(all.size(), model.size());
  EXPECT_TRUE(std::equal(all.begin(), all.end(), model.begin(), [](const auto& a, const auto& b) {
    return a.first == b.first && a.second == b.second;
  }));
}

TEST(KvStoreTest, MatchesModelGrownFromEmpty) {
  for (std::uint64_t seed = 1; seed <= 4; seed++) {
    KvStore kv;
    ExpectMatchesModel(kv, seed, 20'000, 50);
    KvStore wide;
    ExpectMatchesModel(wide, seed, 6'000, 2'000);
  }
}

TEST(KvStoreTest, MatchesModelReserved) {
  for (std::uint64_t seed = 11; seed <= 14; seed++) {
    KvStore kv;
    kv.Reserve(1'000);
    ExpectMatchesModel(kv, seed, 8'000, 1'000);
  }
}

TEST(KvStoreTest, SwapRemovedEntryStaysFindable) {
  KvStore kv;
  kv.Set("a", "1");
  kv.Set("b", "2");
  kv.Set("c", "3");
  ASSERT_EQ(kv.Scan("", 10).size(), 3u);  // builds the view
  // "a" is the first entry, so "c", the last, moves into its place.
  ASSERT_TRUE(kv.Delete("a"));
  EXPECT_EQ(kv.Get("c"), "3");
  ASSERT_NE(kv.Find("c"), nullptr);
  EXPECT_EQ(*kv.Find("c"), "3");
  using Pairs = std::vector<std::pair<std::string, std::string>>;
  EXPECT_EQ(kv.Scan("", 10), (Pairs{{"b", "2"}, {"c", "3"}}));
  EXPECT_FALSE(kv.Set("c", "33"));
  EXPECT_EQ(kv.Scan("c", 10), (Pairs{{"c", "33"}}));
  // Deleting the last entry moves nothing.
  ASSERT_TRUE(kv.Delete("c"));
  EXPECT_EQ(kv.Scan("", 10), (Pairs{{"b", "2"}}));
  EXPECT_EQ(kv.Find("c"), nullptr);
}

TEST(KvStoreTest, TombstoneChurnWithFreshKeys) {
  // Every round inserts a key never seen before and deletes it again, so
  // tombstones pile up until the index rebuilds itself at the same size.
  KvStore kv;
  kv.Set("stay", "s");
  for (int i = 0; i < 10'000; i++) {
    const std::string key = "fresh" + std::to_string(i);
    ASSERT_TRUE(kv.Set(key, "v"));
    ASSERT_TRUE(kv.Delete(key));
  }
  EXPECT_EQ(kv.Size(), 1u);
  EXPECT_EQ(kv.Get("stay"), "s");
  EXPECT_EQ(kv.Get("fresh9999"), std::nullopt);
}

TEST(KvStoreTest, ScanAfterIndexGrowthWithoutNewKey) {
  // Growing the index moves no entry, so the view built before it stays
  // valid and the next Scan reads it as it is.
  KvStore kv;
  for (int i = 0; i < 10; i++) {
    kv.Set("key" + std::to_string(i), "v" + std::to_string(i));
  }
  const auto before = kv.Scan("key3", 4);
  kv.Reserve(10'000);
  EXPECT_EQ(kv.Scan("key3", 4), before);
  ASSERT_EQ(before.size(), 4u);
  EXPECT_EQ(before[0].first, "key3");
  EXPECT_EQ(before[3].first, "key6");
  for (int i = 0; i < 10; i++) {
    EXPECT_EQ(kv.Get("key" + std::to_string(i)), "v" + std::to_string(i));
  }
}

// ---- Workload mixes ----

TEST(WorkloadsTest, DispersiveMixMatchesPaper) {
  const RequestMix mix = DispersiveMix();
  EXPECT_NEAR(MixMeanNs(mix), 53'980.0, 1.0);  // 99.5% x 4us + 0.5% x 10ms
}

TEST(WorkloadsTest, RocksdbMixMatchesPaper) {
  const RequestMix mix = RocksdbBimodalMix();
  // 0.5 * 0.95us + 0.5 * 591us = 295.975 us
  EXPECT_NEAR(MixMeanNs(mix), 295'975.0, 1.0);
}

TEST(WorkloadsTest, MemcachedMixIsLightTailed) {
  const RequestMix mix = MemcachedUsrMix();
  EXPECT_LT(MixMeanNs(mix), 1'100.0);
}

// ---- schbench model ----

struct SchbenchRig {
  explicit SchbenchRig(int cores, std::unique_ptr<SchedPolicy> p) : policy(std::move(p)) {
    MachineConfig mcfg;
    mcfg.num_cores = cores;
    machine = std::make_unique<Machine>(&sim, mcfg);
    chip = std::make_unique<UintrChip>(machine.get());
    kernel = std::make_unique<KernelSim>(machine.get(), chip.get());
    PerCpuEngineConfig cfg;
    for (int i = 0; i < cores; i++) {
      cfg.base.worker_cores.push_back(i);
    }
    cfg.timer_hz = 100'000;
    cfg.tick_path = TickPath::kUserTimer;
    engine = std::make_unique<PerCpuEngine>(machine.get(), chip.get(), kernel.get(),
                                            policy.get(), cfg);
    app = engine->CreateApp("schbench");
    engine->Start();
  }
  Simulation sim;
  std::unique_ptr<Machine> machine;
  std::unique_ptr<UintrChip> chip;
  std::unique_ptr<KernelSim> kernel;
  std::unique_ptr<SchedPolicy> policy;
  std::unique_ptr<PerCpuEngine> engine;
  App* app = nullptr;
};

TEST(SchbenchTest, UndersubscribedWakeupsAreFast) {
  SchbenchRig rig(4, std::make_unique<RoundRobinPolicy>(Micros(50)));
  SchbenchSim bench(rig.engine.get(), rig.app,
                    SchbenchOptions{.worker_threads = 4, .request_ns = Micros(100)});
  bench.Start();
  rig.sim.RunUntil(Millis(50));
  EXPECT_GT(bench.requests_completed(), 100u);
  // Free cores: wakeup latency is just the switch cost, far under 1 us.
  EXPECT_LT(bench.WakeupPercentileNs(0.99), Micros(1));
}

TEST(SchbenchTest, OversubscriptionRaisesWakeupLatency) {
  SchbenchRig rig(2, std::make_unique<RoundRobinPolicy>(Micros(50)));
  SchbenchSim bench(rig.engine.get(), rig.app,
                    SchbenchOptions{.worker_threads = 8, .request_ns = Micros(500)});
  bench.Start();
  rig.sim.RunUntil(Millis(100));
  // 4x oversubscribed: woken workers wait for slices of the runners.
  EXPECT_GT(bench.WakeupPercentileNs(0.99), Micros(20));
}

TEST(SchbenchTest, WorkersKeepCyclingForever) {
  SchbenchRig rig(2, std::make_unique<RoundRobinPolicy>(Micros(50)));
  SchbenchSim bench(rig.engine.get(), rig.app,
                    SchbenchOptions{.worker_threads = 2, .request_ns = Micros(100)});
  bench.Start();
  rig.sim.RunUntil(Millis(10));
  const auto early = bench.requests_completed();
  rig.sim.RunUntil(Millis(20));
  EXPECT_GT(bench.requests_completed(), early) << "message threads must keep waking workers";
}

// ---- Batch app driver ----

TEST(BatchAppTest, SoaksIdleCpu) {
  SchbenchRig rig(2, std::make_unique<CfsPolicy>(CfsParams{}));
  App* batch = rig.engine->CreateApp("batch", true);
  BatchAppDriver driver(rig.engine.get(), batch, BatchAppDriver::Options{.tasks = 2});
  driver.Start();
  rig.sim.RunUntil(Millis(5));
  rig.engine->ResetStats();
  rig.sim.RunUntil(Millis(50));
  // Machine otherwise idle: batch should own nearly all of it.
  EXPECT_GT(driver.CpuShare(), 0.9);
}

TEST(BatchAppTest, SharesUnderCfsWithForegroundWork) {
  SchbenchRig rig(2, std::make_unique<CfsPolicy>(CfsParams{Micros(12) + 500, Micros(50)}));
  App* batch = rig.engine->CreateApp("batch", true);
  BatchAppDriver driver(rig.engine.get(), batch, BatchAppDriver::Options{.tasks = 2});
  driver.Start();
  SchbenchSim fg(rig.engine.get(), rig.app,
                 SchbenchOptions{.worker_threads = 2, .request_ns = Micros(200)});
  fg.Start();
  rig.sim.RunUntil(Millis(5));
  rig.engine->ResetStats();
  rig.sim.RunUntil(Millis(50));
  const double share = driver.CpuShare();
  // CFS fair-shares: batch gets a real slice but not the whole machine.
  EXPECT_GT(share, 0.2);
  EXPECT_LT(share, 0.8);
  EXPECT_GT(fg.requests_completed(), 50u);
}

}  // namespace
}  // namespace skyloft
