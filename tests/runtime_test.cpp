// Tests for the host M:N user-level threading runtime: context switching,
// spawn/join, yield fairness, work stealing, park/unpark races, mutex and
// condition variable semantics, and signal-timer preemption.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <vector>

#include "src/runtime/sync.h"
#include "src/runtime/uthread.h"

namespace skyloft {
namespace {

TEST(RuntimeTest, MainFunctionRuns) {
  Runtime rt(RuntimeOptions{.workers = 1});
  bool ran = false;
  rt.Run([&] { ran = true; });
  EXPECT_TRUE(ran);
}

TEST(RuntimeTest, RunTwiceOnSameRuntime) {
  Runtime rt(RuntimeOptions{.workers = 1});
  int runs = 0;
  rt.Run([&] { runs++; });
  rt.Run([&] { runs++; });
  EXPECT_EQ(runs, 2);
}

TEST(RuntimeTest, SpawnAndJoin) {
  Runtime rt(RuntimeOptions{.workers = 1});
  int value = 0;
  rt.Run([&] {
    UThread* child = Runtime::Spawn([&] { value = 42; });
    Runtime::Join(child);
    EXPECT_EQ(value, 42);
  });
  EXPECT_EQ(value, 42);
}

TEST(RuntimeTest, SpawnManySequential) {
  Runtime rt(RuntimeOptions{.workers = 1});
  std::atomic<int> count{0};
  rt.Run([&] {
    std::vector<UThread*> children;
    for (int i = 0; i < 1000; i++) {
      children.push_back(Runtime::Spawn([&] { count.fetch_add(1); }));
    }
    for (UThread* c : children) {
      Runtime::Join(c);
    }
  });
  EXPECT_EQ(count.load(), 1000);
}

TEST(RuntimeTest, YieldInterleavesThreads) {
  Runtime rt(RuntimeOptions{.workers = 1});
  std::vector<int> order;
  rt.Run([&] {
    UThread* a = Runtime::Spawn([&] {
      for (int i = 0; i < 3; i++) {
        order.push_back(1);
        Runtime::Yield();
      }
    });
    UThread* b = Runtime::Spawn([&] {
      for (int i = 0; i < 3; i++) {
        order.push_back(2);
        Runtime::Yield();
      }
    });
    Runtime::Join(a);
    Runtime::Join(b);
  });
  // On one worker with FIFO queues, the two threads strictly alternate.
  ASSERT_EQ(order.size(), 6u);
  for (std::size_t i = 0; i + 2 < order.size(); i++) {
    EXPECT_NE(order[i], order[i + 1]) << "yield must round-robin";
  }
}

TEST(RuntimeTest, NestedSpawn) {
  Runtime rt(RuntimeOptions{.workers = 1});
  int depth_reached = 0;
  rt.Run([&] {
    std::function<void(int)> recurse = [&](int depth) {
      depth_reached = std::max(depth_reached, depth);
      if (depth < 10) {
        UThread* child = Runtime::Spawn([&recurse, depth] { recurse(depth + 1); });
        Runtime::Join(child);
      }
    };
    recurse(0);
  });
  EXPECT_EQ(depth_reached, 10);
}

TEST(RuntimeTest, JoinAlreadyFinishedThread) {
  Runtime rt(RuntimeOptions{.workers = 1});
  rt.Run([&] {
    UThread* child = Runtime::Spawn([] {});
    // Let the child run to completion first.
    for (int i = 0; i < 10; i++) {
      Runtime::Yield();
    }
    Runtime::Join(child);  // must not hang
  });
}

TEST(RuntimeTest, MultiWorkerSpawnStorm) {
  Runtime rt(RuntimeOptions{.workers = 4});
  std::atomic<int> count{0};
  rt.Run([&] {
    std::vector<UThread*> children;
    for (int i = 0; i < 2000; i++) {
      children.push_back(Runtime::Spawn([&] {
        count.fetch_add(1);
        Runtime::Yield();
        count.fetch_add(1);
      }));
    }
    for (UThread* c : children) {
      Runtime::Join(c);
    }
  });
  EXPECT_EQ(count.load(), 4000);
}

TEST(RuntimeTest, WorkStealingSpreadsLoad) {
  Runtime rt(RuntimeOptions{.workers = 4});
  std::atomic<int> count{0};
  // The children keep yielding until an idle worker has stolen work, for at
  // most 5 s. The window is wall time, not a yield count: on a loaded or
  // single-CPU host the sibling worker pthreads only run when the kernel
  // timeslices them in, and a fixed number of fast yields can end first.
  const auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  rt.Run([&] {
    std::vector<UThread*> children;
    for (int i = 0; i < 200; i++) {
      children.push_back(Runtime::Spawn([&] {
        for (int j = 0;
             j < 50 || (rt.steals() == 0 && std::chrono::steady_clock::now() < give_up); j++) {
          Runtime::Yield();
        }
        count.fetch_add(1);
      }));
    }
    for (UThread* c : children) {
      Runtime::Join(c);
    }
  });
  EXPECT_EQ(count.load(), 200);
  EXPECT_GT(rt.steals(), 0u) << "idle workers should have stolen work";
}

TEST(RuntimeTest, StackReuseAfterExit) {
  // Recycling uthreads must not corrupt state: run several generations.
  Runtime rt(RuntimeOptions{.workers = 2});
  std::atomic<int> count{0};
  rt.Run([&] {
    for (int gen = 0; gen < 20; gen++) {
      std::vector<UThread*> children;
      for (int i = 0; i < 50; i++) {
        children.push_back(Runtime::Spawn([&] {
          volatile char buf[2048];  // touch a chunk of stack
          buf[0] = 1;
          buf[2047] = 2;
          count.fetch_add(buf[0] + buf[2047]);  // 3 per child if stacks are intact
        }));
      }
      for (UThread* c : children) {
        Runtime::Join(c);
      }
    }
  });
  EXPECT_EQ(count.load(), 3000);  // 20 generations x 50 children x 3
}

// ---- Mutex ----

TEST(RuntimeSyncTest, MutexMutualExclusion) {
  Runtime rt(RuntimeOptions{.workers = 4});
  UthreadMutex mutex;
  int counter = 0;  // deliberately unsynchronized except by the mutex
  rt.Run([&] {
    std::vector<UThread*> children;
    for (int i = 0; i < 8; i++) {
      children.push_back(Runtime::Spawn([&] {
        for (int j = 0; j < 1000; j++) {
          UthreadMutexGuard guard(&mutex);
          counter++;
        }
      }));
    }
    for (UThread* c : children) {
      Runtime::Join(c);
    }
  });
  EXPECT_EQ(counter, 8000);
}

TEST(RuntimeSyncTest, MutexTryLock) {
  Runtime rt(RuntimeOptions{.workers = 1});
  UthreadMutex mutex;
  rt.Run([&] {
    EXPECT_TRUE(mutex.TryLock());
    EXPECT_FALSE(mutex.TryLock());
    mutex.Unlock();
    EXPECT_TRUE(mutex.TryLock());
    mutex.Unlock();
  });
}

TEST(RuntimeSyncTest, MutexBlocksAndWakes) {
  Runtime rt(RuntimeOptions{.workers = 1});
  UthreadMutex mutex;
  std::vector<int> order;
  rt.Run([&] {
    mutex.Lock();
    UThread* child = Runtime::Spawn([&] {
      mutex.Lock();  // blocks until the main thread unlocks
      order.push_back(2);
      mutex.Unlock();
    });
    Runtime::Yield();  // let the child block on the mutex
    order.push_back(1);
    mutex.Unlock();
    Runtime::Join(child);
  });
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

// A stale unpark token makes Park() return before any Unlock popped the
// waiter. Lock() must neither queue its waiter a second time (that aborted
// with "node already on a list") nor return with it still queued.
TEST(RuntimeSyncTest, ContendedLockWithStaleUnparkToken) {
  Runtime rt(RuntimeOptions{.workers = 1});
  UthreadMutex mutex;
  std::vector<int> order;
  rt.Run([&] {
    mutex.Lock();
    UThread* child = Runtime::Spawn([&] {
      Runtime::Unpark(Runtime::Current());  // plant a stale token
      mutex.Lock();  // contended: the first Park() returns at once
      order.push_back(2);
      mutex.Unlock();
    });
    Runtime::Yield();  // the child parks for real on its second pass
    order.push_back(1);
    mutex.Unlock();
    Runtime::Join(child);
    // The waiter list is empty again: an uncontended round trip still works
    // and a second contender is woken by the next Unlock.
    mutex.Lock();
    UThread* second = Runtime::Spawn([&] {
      mutex.Lock();
      order.push_back(3);
      mutex.Unlock();
    });
    Runtime::Yield();
    mutex.Unlock();
    Runtime::Join(second);
  });
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

// ---- Condition variable ----

TEST(RuntimeSyncTest, CondVarSignalWakesOne) {
  Runtime rt(RuntimeOptions{.workers = 1});
  UthreadMutex mutex;
  UthreadCondVar cv;
  bool ready = false;
  bool observed = false;
  rt.Run([&] {
    UThread* waiter = Runtime::Spawn([&] {
      mutex.Lock();
      while (!ready) {
        cv.Wait(&mutex);
      }
      observed = true;
      mutex.Unlock();
    });
    Runtime::Yield();  // waiter blocks on the cv
    mutex.Lock();
    ready = true;
    mutex.Unlock();
    cv.Signal();
    Runtime::Join(waiter);
  });
  EXPECT_TRUE(observed);
}

TEST(RuntimeSyncTest, CondVarBroadcastWakesAll) {
  Runtime rt(RuntimeOptions{.workers = 2});
  UthreadMutex mutex;
  UthreadCondVar cv;
  bool ready = false;
  std::atomic<int> woken{0};
  rt.Run([&] {
    std::vector<UThread*> waiters;
    for (int i = 0; i < 10; i++) {
      waiters.push_back(Runtime::Spawn([&] {
        mutex.Lock();
        while (!ready) {
          cv.Wait(&mutex);
        }
        mutex.Unlock();
        woken.fetch_add(1);
      }));
    }
    for (int i = 0; i < 20; i++) {
      Runtime::Yield();
    }
    mutex.Lock();
    ready = true;
    mutex.Unlock();
    cv.Broadcast();
    for (UThread* w : waiters) {
      Runtime::Join(w);
    }
  });
  EXPECT_EQ(woken.load(), 10);
}

TEST(RuntimeSyncTest, SignalWithNoWaitersIsNoop) {
  Runtime rt(RuntimeOptions{.workers = 1});
  UthreadCondVar cv;
  rt.Run([&] {
    cv.Signal();
    cv.Broadcast();
  });
}

// Same stale token, now in front of UthreadCondVar::Wait: the early return
// is a spurious wakeup, and the waiter must leave the list with it, so the
// next Signal reaches the uthread that is really waiting.
TEST(RuntimeSyncTest, CondVarWaitWithStaleUnparkToken) {
  Runtime rt(RuntimeOptions{.workers = 1});
  UthreadMutex mutex;
  UthreadCondVar cv;
  bool ready = false;
  int spurious = 0;
  bool woken = false;
  rt.Run([&] {
    UThread* early = Runtime::Spawn([&] {
      mutex.Lock();
      Runtime::Unpark(Runtime::Current());  // plant a stale token
      cv.Wait(&mutex);                      // returns without a Signal
      spurious++;
      mutex.Unlock();
    });
    Runtime::Join(early);
    UThread* waiter = Runtime::Spawn([&] {
      mutex.Lock();
      while (!ready) {
        cv.Wait(&mutex);
      }
      woken = true;
      mutex.Unlock();
    });
    Runtime::Yield();  // the waiter blocks on the cv
    mutex.Lock();
    ready = true;
    mutex.Unlock();
    cv.Signal();  // one Signal: it must not be spent on the departed waiter
    for (int i = 0; i < 10 && !woken; i++) {
      Runtime::Yield();
    }
    EXPECT_TRUE(woken);
    cv.Broadcast();  // unblocks the waiter if the Signal went astray
    Runtime::Join(waiter);
  });
  EXPECT_EQ(spurious, 1);
}

// Producer/consumer pipeline across workers.
TEST(RuntimeSyncTest, ProducerConsumerPipeline) {
  Runtime rt(RuntimeOptions{.workers = 2});
  UthreadMutex mutex;
  UthreadCondVar not_empty;
  UthreadCondVar not_full;
  std::vector<int> queue;
  constexpr std::size_t kCap = 4;
  constexpr int kItems = 500;
  long long sum = 0;
  rt.Run([&] {
    UThread* producer = Runtime::Spawn([&] {
      for (int i = 1; i <= kItems; i++) {
        mutex.Lock();
        while (queue.size() >= kCap) {
          not_full.Wait(&mutex);
        }
        queue.push_back(i);
        mutex.Unlock();
        not_empty.Signal();
      }
    });
    UThread* consumer = Runtime::Spawn([&] {
      for (int i = 0; i < kItems; i++) {
        mutex.Lock();
        while (queue.empty()) {
          not_empty.Wait(&mutex);
        }
        sum += queue.back();
        queue.pop_back();
        mutex.Unlock();
        not_full.Signal();
      }
    });
    Runtime::Join(producer);
    Runtime::Join(consumer);
  });
  EXPECT_EQ(sum, static_cast<long long>(kItems) * (kItems + 1) / 2);
}

// ---- Preemption ----

TEST(RuntimePreemptTest, CpuHogIsPreempted) {
  Runtime rt(RuntimeOptions{.workers = 1, .preempt_period_us = 2000});
  std::atomic<bool> hog_running{true};
  bool other_ran = false;
  rt.Run([&] {
    UThread* hog = Runtime::Spawn([&] {
      // Busy loop with no yields: only preemption lets anyone else run.
      volatile std::uint64_t x = 0;
      while (hog_running.load(std::memory_order_relaxed)) {
        x = x + 1;
      }
    });
    UThread* other = Runtime::Spawn([&] {
      other_ran = true;
      hog_running.store(false);
    });
    Runtime::Join(other);
    Runtime::Join(hog);
  });
  EXPECT_TRUE(other_ran) << "preemption must break the CPU hog's monopoly";
  EXPECT_GT(rt.preemptions(), 0u);
}

TEST(RuntimePreemptTest, PreemptionPreservesComputation) {
  Runtime rt(RuntimeOptions{.workers = 2, .preempt_period_us = 1000});
  std::atomic<long long> total{0};
  rt.Run([&] {
    std::vector<UThread*> children;
    for (int i = 0; i < 8; i++) {
      children.push_back(Runtime::Spawn([&] {
        long long local = 0;
        for (int j = 0; j < 2'000'000; j++) {
          local += j % 7;
        }
        total.fetch_add(local);
      }));
    }
    for (UThread* c : children) {
      Runtime::Join(c);
    }
  });
  long long expected_one = 0;
  for (int j = 0; j < 2'000'000; j++) {
    expected_one += j % 7;
  }
  EXPECT_EQ(total.load(), expected_one * 8);
}

// Allocator-heavy uthreads under an aggressive preemption timer. glibc's
// malloc keeps lockless per-pthread state (the tcache); preempting a uthread
// mid-allocation and running another uthread on the same pthread corrupts it
// unless the signal handler defers at unsafe PCs (the safe-point check).
// Without that check this test aborts within a few runs.
TEST(RuntimePreemptTest, PreemptionIsMallocSafe) {
  Runtime rt(RuntimeOptions{.workers = 2, .preempt_period_us = 500});
  std::atomic<long long> sum{0};
  // The children churn until the timer has tried at least once, for at most
  // 5 s: on a loaded host no signal may land in the ~8 ms the 20'000
  // iterations take.
  const auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  rt.Run([&] {
    std::vector<UThread*> children;
    for (int i = 0; i < 8; i++) {
      children.push_back(Runtime::Spawn([&, i] {
        long long local = 0;
        for (int j = 0; j < 20'000 || (rt.preemptions() + rt.preempt_deferrals() == 0 &&
                                       std::chrono::steady_clock::now() < give_up);
             j++) {
          // Churn the heap across size classes; no yields.
          std::string s = "key-" + std::to_string(i * 100'000 + j);
          std::vector<char> buf(static_cast<std::size_t>(j % 509 + 1), 'x');
          s += buf[buf.size() / 2];
          local += static_cast<long long>(s.size());
        }
        sum.fetch_add(local);
      }));
    }
    for (UThread* c : children) {
      Runtime::Join(c);
    }
  });
  EXPECT_GT(sum.load(), 0);
  // The timer must have actually tried: fired switches plus deferred signals.
  EXPECT_GT(rt.preemptions() + rt.preempt_deferrals(), 0u);
}

// Join under a fast preemption timer while its joinees exit on the same
// worker. A tick landing while Join held the runtime's wait lock used to
// queue the joiner behind uthreads that take that lock too (an exiting
// joinee, another joiner), blocking the only worker on it for good; the
// ctest timeout turns such a hang into a failure.
TEST(RuntimePreemptTest, JoinUnderPreemptionWhileJoineesExit) {
  Runtime rt(RuntimeOptions{.workers = 1, .preempt_period_us = 50});
  rt.SetQuantum(1);  // every tick that finds a waiting uthread preempts
  constexpr int kPairs = 100'000;
  constexpr std::size_t kWave = 64;
  std::atomic<int> finished{0};
  rt.Run([&] {
    std::vector<UThread*> joiners;
    for (int i = 0; i < kPairs; i++) {
      joiners.push_back(Runtime::Spawn([&] {
        UThread* child = Runtime::Spawn([&] { finished.fetch_add(1, std::memory_order_relaxed); });
        Runtime::Join(child);
      }));
      if (joiners.size() == kWave || i == kPairs - 1) {
        for (UThread* j : joiners) {
          Runtime::Join(j);
        }
        joiners.clear();
      }
    }
  });
  EXPECT_EQ(finished.load(), kPairs);
  EXPECT_GT(rt.preemptions(), 0u);
}

}  // namespace
}  // namespace skyloft
