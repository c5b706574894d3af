// Tests for the per-worker I/O engine cores (src/runtime/io_engine) and the
// WaitForReadable/WaitForWritable park/unpark primitives, over real loopback
// sockets and pipes. The readiness tests run on both backends — on a
// kIoUring engine every readiness handle sits in the epoll set behind the
// bridge poll — and so do the data-call tests, which epoll serves with
// syscalls and io_uring with completions:
//   - park/unpark racing concurrent readiness (edge-triggered latch contract)
//   - accept-batch overflow resupplying readiness via RelatchReadable
//   - peer reset (SO_LINGER 0 -> RST) landing mid-write
//   - peer hangup delivered while handler uthreads migrate across workers
//   - Interrupt() waking a parked waiter for shutdown
//   - Deregister with write interest still outstanding, then late writability
//   - more ready handles than one epoll batch, and a retire with no events
//   - the data calls: Recv/Send/Accept/RecvFrom/SendTo, short sends the
//     engine finishes, EOF and resets, and handlers stolen across workers;
//     buffer-ring exhaustion on io_uring
//   - the I/O-first round order: a readiness wakeup overtakes a yielding or
//     ticked uthread on both scheduler drivers
// Runs under TSan/ASan in CI; every cross-thread handoff here is a real
// data-race candidate.
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <functional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/base/metrics.h"
#include "src/base/trace.h"
#include "src/runtime/io_engine.h"
#include "src/runtime/sync.h"
#include "src/runtime/uthread.h"

namespace skyloft {
namespace {

struct TcpPair {
  int client = -1;  // blocking, plain OS-thread end
  int server = -1;  // registered with an engine by the test
};

// Establishes a loopback TCP pair with ordinary blocking sockets (runs on
// the test's main thread, before/outside the runtime).
TcpPair MakeTcpPair() {
  TcpPair pair;
  const int lfd = socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(lfd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  EXPECT_EQ(bind(lfd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  EXPECT_EQ(listen(lfd, 8), 0);
  socklen_t len = sizeof(addr);
  EXPECT_EQ(getsockname(lfd, reinterpret_cast<sockaddr*>(&addr), &len), 0);

  pair.client = socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(pair.client, 0);
  EXPECT_EQ(connect(pair.client, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  pair.server = accept(lfd, nullptr, nullptr);
  EXPECT_GE(pair.server, 0);
  close(lfd);
  return pair;
}

using Backend = IoEngineOptions::Backend;

RuntimeOptions IoOptions(int workers, Backend backend) {
  RuntimeOptions options;
  options.workers = workers;
  options.io_engine = true;
  options.io.backend = backend;
  return options;
}

// Readiness and data-call tests, one instance per backend.
class IoEngineTest : public ::testing::TestWithParam<Backend> {
 protected:
  RuntimeOptions Options(int workers) const { return IoOptions(workers, GetParam()); }
};

INSTANTIATE_TEST_SUITE_P(Backends, IoEngineTest,
                         ::testing::Values(Backend::kEpoll, Backend::kIoUring),
                         [](const ::testing::TestParamInfo<Backend>& info) {
                           return info.param == Backend::kIoUring ? "IoUring" : "Epoll";
                         });

// Tests of io_uring machinery with no epoll counterpart. They skip only where
// the kernel refuses io_uring, which leaves the engine on epoll.
class IoEngineCompletionTest : public ::testing::Test {
 protected:
  static RuntimeOptions Options(int workers) { return IoOptions(workers, Backend::kIoUring); }
};

// Runtime-aware join: spin on SleepFor so the worker keeps polling engines
// (std::thread::join on a uthread would block the worker pthread).
SKYLOFT_MAY_SWITCH void AwaitFlag(const std::atomic<bool>& flag) {
  while (!flag.load(std::memory_order_acquire)) {
    Runtime::SleepFor(500);
  }
}

TEST_P(IoEngineTest, RegisterSetsNonblockingAndDeregisterCloses) {
  Runtime rt(Options(1));
  TcpPair pair = MakeTcpPair();
  rt.Run([&] {
    IoEngine* engine = rt.io_engine(0);
    IoHandle* handle = engine->Register(pair.server);
    ASSERT_NE(handle, nullptr);
    EXPECT_EQ(handle->fd, pair.server);
    EXPECT_NE(fcntl(pair.server, F_GETFL) & O_NONBLOCK, 0);
    engine->Deregister(handle);
    // Deregister owns the close; by the next engine poll the fd is retired.
    // The close is immediate even though the handle free is deferred.
    EXPECT_EQ(fcntl(pair.server, F_GETFD), -1);
    EXPECT_EQ(errno, EBADF);
  });
  close(pair.client);
}

TEST_P(IoEngineTest, ParkUnparkUnderConcurrentReadiness) {
  constexpr std::size_t kTotal = 256 * 1024;
  Runtime rt(Options(2));
  TcpPair pair = MakeTcpPair();

  std::atomic<bool> reader_done{false};
  std::size_t received = 0;
  bool saw_eof = false;

  // Writer races readiness edges against the reader's park decisions: bursts
  // of varying sizes with occasional pauses, so some WaitForReadable calls
  // find the latch already set (fast path) and some must park.
  std::thread writer([&] {
    std::vector<char> chunk(4096, 'x');
    std::size_t sent = 0;
    unsigned rng = 12345;
    while (sent < kTotal) {
      rng = rng * 1664525u + 1013904223u;
      const std::size_t n = std::min(chunk.size() - (rng % 1024), kTotal - sent);
      ssize_t wrote = write(pair.client, chunk.data(), n);
      ASSERT_GT(wrote, 0);
      sent += static_cast<std::size_t>(wrote);
      if (rng % 7 == 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(rng % 300));
      }
    }
    close(pair.client);  // clean FIN: reader must observe EOF after the bytes
  });

  rt.Run([&] {
    IoEngine* engine = rt.io_engine(0);
    IoHandle* handle = engine->Register(pair.server);
    ASSERT_NE(handle, nullptr);
    Runtime::Spawn([&, handle] {
      char buf[2048];
      while (true) {
        WaitForReadable(handle);
        bool eof = false;
        while (true) {
          const ssize_t n = read(handle->fd, buf, sizeof(buf));
          if (n > 0) {
            received += static_cast<std::size_t>(n);
            continue;
          }
          if (n == 0) {
            eof = true;
          }
          break;  // EAGAIN: drained; re-park for the next edge
        }
        if (eof) {
          saw_eof = true;
          break;
        }
      }
      engine->Deregister(handle);
      reader_done.store(true, std::memory_order_release);
    });
    AwaitFlag(reader_done);
  });
  writer.join();
  EXPECT_EQ(received, kTotal);
  EXPECT_TRUE(saw_eof);
}

TEST_P(IoEngineTest, AcceptBatchOverflowRelatchesReadiness) {
  constexpr int kClients = 24;
  constexpr int kBatch = 4;  // far smaller than the backlog burst
  Runtime rt(Options(1));

  const int lfd = socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
  ASSERT_GE(lfd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(bind(lfd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  ASSERT_EQ(listen(lfd, kClients + 8), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(getsockname(lfd, reinterpret_cast<sockaddr*>(&addr), &len), 0);

  // All clients connect before the acceptor runs: one readiness edge must
  // carry the whole backlog across multiple capped batches.
  std::vector<int> clients;
  for (int i = 0; i < kClients; i++) {
    const int fd = socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    ASSERT_EQ(connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
    clients.push_back(fd);
  }

  int accepted = 0;
  int relatches = 0;
  rt.Run([&] {
    IoEngine* engine = rt.io_engine(0);
    IoHandle* handle = engine->Register(lfd);
    ASSERT_NE(handle, nullptr);
    while (accepted < kClients) {
      const unsigned ready = WaitForReadable(handle);
      ASSERT_EQ(ready & kIoError, 0u);
      int batch = 0;
      while (batch < kBatch) {
        const int fd = accept4(handle->fd, nullptr, nullptr, SOCK_NONBLOCK);
        if (fd < 0) {
          break;
        }
        close(fd);
        accepted++;
        batch++;
      }
      if (batch == kBatch) {
        // Batch cap hit with backlog left: restore the consumed edge or the
        // next WaitForReadable would sleep until a brand-new connection.
        IoEngine::RelatchReadable(handle);
        relatches++;
      }
    }
    engine->Deregister(handle);
  });
  EXPECT_EQ(accepted, kClients);
  EXPECT_GE(relatches, kClients / kBatch - 1);
  for (const int fd : clients) {
    close(fd);
  }
}

TEST_P(IoEngineTest, PeerResetMidWrite) {
  Runtime rt(Options(1));
  TcpPair pair = MakeTcpPair();
  // Shrink both directions so the writer hits EAGAIN (and parks) quickly.
  const int small = 8 * 1024;
  setsockopt(pair.server, SOL_SOCKET, SO_SNDBUF, &small, sizeof(small));
  setsockopt(pair.client, SOL_SOCKET, SO_RCVBUF, &small, sizeof(small));

  std::atomic<bool> writer_parked_once{false};
  std::atomic<bool> done{false};
  bool observed_reset = false;

  std::thread client([&] {
    // Let the server fill the pipe and park in WaitForWritable, then abort
    // the connection: SO_LINGER(0) close sends RST, not FIN.
    while (!writer_parked_once.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    linger lin{.l_onoff = 1, .l_linger = 0};
    setsockopt(pair.client, SOL_SOCKET, SO_LINGER, &lin, sizeof(lin));
    close(pair.client);
  });

  rt.Run([&] {
    IoEngine* engine = rt.io_engine(0);
    IoHandle* handle = engine->Register(pair.server);
    ASSERT_NE(handle, nullptr);
    Runtime::Spawn([&, handle] {
      const std::vector<char> chunk(64 * 1024, 'y');
      for (int i = 0; i < 4096 && !observed_reset; i++) {
        std::size_t off = 0;
        while (off < chunk.size()) {
          const ssize_t n = write(handle->fd, chunk.data() + off, chunk.size() - off);
          if (n > 0) {
            off += static_cast<std::size_t>(n);
            continue;
          }
          if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
            writer_parked_once.store(true, std::memory_order_release);
            const unsigned ready = WaitForWritable(handle);
            if ((ready & (kIoError | kIoHup)) != 0) {
              observed_reset = true;  // RST surfaced through the engine
              break;
            }
            continue;
          }
          // RST surfaced through the write itself.
          EXPECT_TRUE(errno == ECONNRESET || errno == EPIPE) << std::strerror(errno);
          observed_reset = true;
          break;
        }
      }
      engine->Deregister(handle);
      done.store(true, std::memory_order_release);
    });
    AwaitFlag(done);
  });
  client.join();
  EXPECT_TRUE(observed_reset);
}

TEST_P(IoEngineTest, HupDeliveredWhileHandlersMigrate) {
  // Handlers are registered with worker 0's engine but run (and migrate)
  // wherever stealing takes them; the engine's Unpark must chase them across
  // workers. EPOLLHUP/RDHUP from the peer close is the wakeup under test.
  constexpr int kConns = 8;
  Runtime rt(Options(2));
  std::vector<TcpPair> pairs;
  for (int i = 0; i < kConns; i++) {
    pairs.push_back(MakeTcpPair());
  }

  std::atomic<bool> all_done{false};
  std::atomic<int> eof_count{0};
  std::atomic<bool> close_now{false};

  std::thread closer([&] {
    while (!close_now.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    for (TcpPair& pair : pairs) {
      write(pair.client, "z", 1);  // one byte, then hangup
      close(pair.client);
    }
  });

  rt.Run([&] {
    IoEngine* engine = rt.io_engine(0);
    std::atomic<int> live{kConns};
    for (int i = 0; i < kConns; i++) {
      IoHandle* handle = engine->Register(pairs[static_cast<std::size_t>(i)].server);
      ASSERT_NE(handle, nullptr);
      Runtime::Spawn([&, handle] {
        char buf[64];
        bool eof = false;
        while (!eof) {
          WaitForReadable(handle);
          Runtime::Yield();  // invite migration between wakeup and drain
          while (true) {
            const ssize_t n = read(handle->fd, buf, sizeof(buf));
            if (n > 0) {
              continue;
            }
            if (n == 0) {
              eof = true;
            }
            break;
          }
        }
        engine->Deregister(handle);
        eof_count.fetch_add(1, std::memory_order_acq_rel);
        if (live.fetch_sub(1, std::memory_order_acq_rel) == 1) {
          all_done.store(true, std::memory_order_release);
        }
      });
    }
    // Churn uthreads keep both workers busy so the work stealer actually
    // migrates handlers instead of leaving them on their wakeup worker.
    for (int i = 0; i < 4; i++) {
      Runtime::Spawn([&] {
        while (!all_done.load(std::memory_order_acquire)) {
          Runtime::Yield();
        }
      });
    }
    close_now.store(true, std::memory_order_release);
    AwaitFlag(all_done);
  });
  closer.join();
  EXPECT_EQ(eof_count.load(), kConns);
}

TEST_P(IoEngineTest, InterruptWakesParkedWaiter) {
  Runtime rt(Options(1));
  TcpPair pair = MakeTcpPair();  // no traffic: the waiter can only be interrupted
  std::atomic<bool> done{false};
  unsigned observed = 0;
  rt.Run([&] {
    IoEngine* engine = rt.io_engine(0);
    IoHandle* handle = engine->Register(pair.server);
    ASSERT_NE(handle, nullptr);
    Runtime::Spawn([&, handle] {
      observed = WaitForReadable(handle);
      engine->Deregister(handle);
      done.store(true, std::memory_order_release);
    });
    Runtime::SleepFor(20'000);  // give the waiter time to park
    IoEngine::Interrupt(handle);
    AwaitFlag(done);
  });
  EXPECT_NE(observed & kIoError, 0u);
  close(pair.client);
}

TEST_P(IoEngineTest, InterruptedWriterDeregisterThenPeerDrain) {
  // A writer parked in WaitForWritable is woken by Interrupt — no
  // writability event is consumed — and deregisters its handle. When the
  // peer later drains the socket, the kernel reports writability against
  // whatever interest survived Deregister; it must never reach the freed
  // handle (ASan reports it if it does).
  Runtime rt(Options(1));
  TcpPair pair = MakeTcpPair();
  const int small = 8 * 1024;
  setsockopt(pair.server, SOL_SOCKET, SO_SNDBUF, &small, sizeof(small));
  setsockopt(pair.client, SOL_SOCKET, SO_RCVBUF, &small, sizeof(small));

  std::atomic<bool> blocked{false};
  std::atomic<bool> done{false};
  rt.Run([&] {
    IoEngine* engine = rt.io_engine(0);
    IoHandle* handle = engine->Register(pair.server);
    ASSERT_NE(handle, nullptr);
    Runtime::Spawn([&, handle] {
      const std::vector<char> chunk(64 * 1024, 'w');
      unsigned ready = 0;
      while ((ready & (kIoError | kIoHup)) == 0) {
        const ssize_t n = write(handle->fd, chunk.data(), chunk.size());
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
          blocked.store(true, std::memory_order_release);
          ready = WaitForWritable(handle);
          continue;
        }
        if (n < 0) {
          break;
        }
      }
      engine->Deregister(handle);
      done.store(true, std::memory_order_release);
    });
    AwaitFlag(blocked);
    Runtime::SleepFor(20'000);  // let the writer park with the poll pending
    IoEngine::Interrupt(handle);
    AwaitFlag(done);
    // Now drain the peer side: the send buffer empties and the kernel
    // reports writability against whatever interest survived Deregister.
    const int fl = fcntl(pair.client, F_GETFL, 0);
    ASSERT_EQ(fcntl(pair.client, F_SETFL, fl | O_NONBLOCK), 0);
    char buf[4096];
    while (read(pair.client, buf, sizeof(buf)) > 0) {
    }
    // Keep the engine polling long enough to reap any stale completion.
    Runtime::SleepFor(50'000);
  });
  close(pair.client);
}

TEST_P(IoEngineTest, RegisterKeepsModeOnBothBackends) {
  // A data mode is served by the engine on either backend, so the handle
  // keeps it and gets the engine's queues; a kReadiness handle has none.
  Runtime rt(Options(1));
  int sv[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  int pipefd[2];
  ASSERT_EQ(pipe(pipefd), 0);
  rt.Run([&] {
    IoEngine* engine = rt.io_engine(0);
    EXPECT_EQ(engine->completion(), engine->using_io_uring());
    if (!engine->completion()) {
      EXPECT_EQ(GetParam(), Backend::kEpoll) << "the kernel refused io_uring";
    }
    IoHandle* stream = engine->Register(sv[0], IoRegisterMode::kStream);
    ASSERT_NE(stream, nullptr);
    EXPECT_EQ(stream->mode, IoRegisterMode::kStream);
    EXPECT_NE(stream->queues, nullptr);
    IoHandle* pipe_handle = engine->Register(pipefd[0]);
    ASSERT_NE(pipe_handle, nullptr);
    EXPECT_EQ(pipe_handle->mode, IoRegisterMode::kReadiness);
    EXPECT_EQ(pipe_handle->queues, nullptr);
    engine->Deregister(stream);
    engine->Deregister(pipe_handle);
  });
  close(sv[1]);
  close(pipefd[1]);
}

TEST_P(IoEngineTest, MoreReadyHandlesThanOneBatchAllDelivered) {
  // 300 handles turn ready between two polls, more than one epoll_wait
  // batch (256). Epoll keeps the undelivered edges queued, but the io_uring
  // bridge posts one CQE per wakeup of the set, not per event: a drain that
  // stopped after one batch would strand the rest until an unrelated event.
  constexpr int kHandles = 300;
  Runtime rt(Options(1));
  std::vector<std::array<int, 2>> pairs(kHandles);
  for (std::array<int, 2>& sv : pairs) {
    ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, sv.data()), 0);
    ASSERT_EQ(write(sv[1], "x", 1), 1);
  }
  int latched = 0;
  rt.Run([&] {
    IoEngine* engine = rt.io_engine(0);
    // Let the worker idle once, so a kIoUring engine's bridge is armed and
    // the events below arrive through its CQEs.
    Runtime::SleepFor(5'000);
    // Register never switches, so the one worker cannot poll in between:
    // all 300 are ready before its next round.
    std::vector<IoHandle*> handles;
    for (std::array<int, 2>& sv : pairs) {
      handles.push_back(engine->Register(sv[0]));
      ASSERT_NE(handles.back(), nullptr);
    }
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(2);
    do {
      Runtime::SleepFor(1'000);
      latched = 0;
      for (IoHandle* handle : handles) {
        latched += (handle->ready.load(std::memory_order_acquire) & kIoReadable) != 0 ? 1 : 0;
      }
    } while (latched < kHandles && std::chrono::steady_clock::now() < deadline);
    for (IoHandle* handle : handles) {
      engine->Deregister(handle);
    }
  });
  EXPECT_EQ(latched, kHandles);
  for (std::array<int, 2>& sv : pairs) {
    close(sv[1]);
  }
}

// Live handles of an engine, counted from its DumpDebug lines.
int LiveHandles(IoEngine* engine) {
  char* text = nullptr;
  std::size_t len = 0;
  std::FILE* out = open_memstream(&text, &len);
  engine->DumpDebug(out);
  std::fclose(out);
  int n = 0;
  for (const char* p = text; (p = std::strstr(p, "\n  fd=")) != nullptr; p++) {
    n++;
  }
  std::free(text);
  return n;
}

TEST_P(IoEngineTest, DeregisteredHandleFreedWithoutFurtherEvents) {
  // The retire list advances on every Poll, not on an epoll event: a
  // deregistered readiness handle is freed even when the set stays quiet,
  // which on a kIoUring engine means no bridge CQE ever arrives again.
  Runtime rt(Options(1));
  int sv[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  int live_before = -1;
  int live_after = -1;
  rt.Run([&] {
    IoEngine* engine = rt.io_engine(0);
    IoHandle* handle = engine->Register(sv[0]);
    ASSERT_NE(handle, nullptr);
    // Consume the registration's own writability edge, so nothing is left
    // for the set to report once the handle is gone.
    EXPECT_NE(WaitForWritable(handle) & kIoWritable, 0u);
    live_before = LiveHandles(engine);
    engine->Deregister(handle);
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(2);
    do {
      Runtime::SleepFor(1'000);
      live_after = LiveHandles(engine);
    } while (live_after > 0 && std::chrono::steady_clock::now() < deadline);
  });
  EXPECT_EQ(live_before, 1);
  EXPECT_EQ(live_after, 0);
  close(sv[1]);
}

TEST_P(IoEngineTest, PipeReadinessWorks) {
  // The engines accept any pollable fd, not just sockets; the kv bench
  // parks on a pipe from its forked client process exactly like this.
  Runtime rt(Options(1));
  int pipefd[2];
  ASSERT_EQ(pipe(pipefd), 0);

  std::thread writer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    const char msg[] = "ping";
    ASSERT_EQ(write(pipefd[1], msg, sizeof(msg)), static_cast<ssize_t>(sizeof(msg)));
    close(pipefd[1]);
  });

  std::string got;
  std::atomic<bool> done{false};
  rt.Run([&] {
    IoEngine* engine = rt.io_engine(0);
    IoHandle* handle = engine->Register(pipefd[0]);
    ASSERT_NE(handle, nullptr);
    Runtime::Spawn([&, handle] {
      char buf[64];
      while (true) {
        WaitForReadable(handle);
        const ssize_t n = read(handle->fd, buf, sizeof(buf));
        if (n > 0) {
          got.assign(buf, static_cast<std::size_t>(n));
          continue;
        }
        if (n == 0) {
          break;
        }
      }
      engine->Deregister(handle);
      done.store(true, std::memory_order_release);
    });
    AwaitFlag(done);
  });
  writer.join();
  EXPECT_EQ(got, std::string("ping\0", 5));
}

// ---------------------------------------------------------------------------
// Data calls (Recv/Send/Accept/RecvFrom/SendTo) on both backends. An epoll
// engine makes the syscalls and finishes short sends from Poll on EPOLLOUT;
// an io_uring engine serves them from multishot completions, provided
// buffers and async sends. Where a test names a counter, it reads the one
// the backend's path increments.
// ---------------------------------------------------------------------------

// Reads a runtime io counter by unqualified name from the global registry
// (-1 when absent, e.g. a standalone engine with no stats wired).
std::int64_t IoCounterValue(const char* name) {
  const std::string suffix = std::string(".") + name;
  for (const MetricSample& s : MetricsRegistry::Global().Snapshot()) {
    if (s.name.size() >= suffix.size() &&
        s.name.compare(s.name.size() - suffix.size(), suffix.size(), suffix) == 0) {
      return static_cast<std::int64_t>(s.value);
    }
  }
  return -1;
}

// Recv's until nothing is left, appending the bytes to `sink` (if any).
// Returns the last result: kIoAgain, kIoEof or kIoReset. The buffer is
// smaller than an io_uring provided buffer, so segments are copied out in
// parts.
std::ptrdiff_t DrainRecvInto(IoEngine* engine, IoHandle* handle, std::string* sink) {
  char buf[1000];
  std::ptrdiff_t n;
  while ((n = engine->Recv(handle, buf, sizeof(buf))) > 0) {
    if (sink != nullptr) {
      sink->append(buf, static_cast<std::size_t>(n));
    }
  }
  return n;
}

// Parks until the engine has sent everything Send queued on `handle` (it
// latches kIoWritable when the queue drains).
SKYLOFT_MAY_SWITCH void AwaitSent(IoEngine* engine, IoHandle* handle) {
  while (engine->SendQueuedBytes(handle) > 0) {
    const unsigned w = WaitForWritable(handle);
    ASSERT_EQ(w & kIoError, 0u);
    if ((w & kIoWritable) == 0) {
      Runtime::Yield();  // a sticky hup: let the worker reap the send
    }
  }
}

std::string PatternBytes(std::size_t n, unsigned seed) {
  std::string s(n, '\0');
  for (std::size_t i = 0; i < n; i++) {
    seed = seed * 1664525u + 1013904223u;
    s[i] = static_cast<char>('a' + (seed >> 24) % 26);
  }
  return s;
}

TEST_P(IoEngineTest, DeregisteredStreamHandleIsFreed) {
  // Teardown accounting: on io_uring the handle is freed only when the
  // cancelled receive, both cancels and the open reference have all been
  // counted down, so a leaked count keeps it alive and a missing one frees
  // it early (ASan); on epoll the retire list frees it.
  Runtime rt(Options(1));
  TcpPair pair = MakeTcpPair();
  int live_after = -1;
  rt.Run([&] {
    IoEngine* engine = rt.io_engine(0);
    IoHandle* handle = engine->Register(pair.server, IoRegisterMode::kStream);
    ASSERT_NE(handle, nullptr);
    ASSERT_GE(engine->Send(handle, "bye"), 0);
    Runtime::SleepFor(1'000);  // the receive is armed and the send done
    engine->Deregister(handle);
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(2);
    do {
      Runtime::SleepFor(1'000);
      live_after = LiveHandles(engine);
    } while (live_after > 0 && std::chrono::steady_clock::now() < deadline);
  });
  EXPECT_EQ(live_after, 0);
  close(pair.client);
}

TEST_P(IoEngineTest, StreamEchoRoundTrip) {
  Runtime rt(Options(1));
  TcpPair pair = MakeTcpPair();
  const std::string msg = PatternBytes(5000, 7);
  std::thread client([&] {
    ASSERT_EQ(write(pair.client, msg.data(), msg.size()), static_cast<ssize_t>(msg.size()));
    std::string back;
    char buf[1024];
    while (back.size() < msg.size()) {
      const ssize_t n = read(pair.client, buf, sizeof(buf));
      ASSERT_GT(n, 0);
      back.append(buf, static_cast<std::size_t>(n));
    }
    EXPECT_EQ(back, msg);
    close(pair.client);
  });
  std::atomic<bool> done{false};
  rt.Run([&] {
    IoEngine* engine = rt.io_engine(0);
    IoHandle* handle = engine->Register(pair.server, IoRegisterMode::kStream);
    ASSERT_NE(handle, nullptr);
    Runtime::Spawn([&, handle] {
      std::string got;
      while (got.size() < msg.size()) {
        WaitForReadable(handle);
        ASSERT_EQ(DrainRecvInto(engine, handle, &got), kIoAgain);
      }
      EXPECT_EQ(got, msg);
      EXPECT_GE(engine->Send(handle, got), 0);
      AwaitSent(engine, handle);  // flush before teardown
      engine->Deregister(handle);
      done.store(true, std::memory_order_release);
    });
    AwaitFlag(done);
  });
  client.join();
}

TEST_P(IoEngineTest, ShortSendContinuation) {
  Runtime rt(Options(1));
  TcpPair pair = MakeTcpPair();
  // Tiny send buffer + a slow reader: the send completes short and the
  // engine must send the remainder (repeatedly) until drained — from the
  // send CQE on io_uring, from Poll on EPOLLOUT on epoll.
  const int sndbuf = 4096;
  ASSERT_EQ(setsockopt(pair.server, SOL_SOCKET, SO_SNDBUF, &sndbuf, sizeof(sndbuf)), 0);
  constexpr std::size_t kPayload = 1 << 20;
  const std::string payload = PatternBytes(kPayload, 99);
  const std::int64_t writes_before = IoCounterValue("sys_write");
  std::thread client([&] {
    std::string back;
    char buf[16 * 1024];
    while (back.size() < kPayload) {
      const ssize_t n = read(pair.client, buf, sizeof(buf));
      ASSERT_GT(n, 0);
      back.append(buf, static_cast<std::size_t>(n));
      if ((back.size() % (128 * 1024)) < sizeof(buf)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
    }
    EXPECT_EQ(back, payload);
    close(pair.client);
  });
  std::atomic<bool> done{false};
  rt.Run([&] {
    IoEngine* engine = rt.io_engine(0);
    IoHandle* handle = engine->Register(pair.server, IoRegisterMode::kStream);
    ASSERT_NE(handle, nullptr);
    Runtime::Spawn([&, handle] {
      // Two sends: the second queues behind the first's unsent remainder.
      const std::string_view half = std::string_view(payload).substr(0, kPayload / 2);
      EXPECT_GT(engine->Send(handle, half), 0) << "a 4 KiB socket buffer cannot take 512 KiB";
      EXPECT_GT(engine->SendQueuedBytes(handle), 0u);
      ASSERT_GT(engine->Send(handle, std::string_view(payload).substr(kPayload / 2)),
                static_cast<std::ptrdiff_t>(half.size()));
      AwaitSent(engine, handle);
      engine->Deregister(handle);
      done.store(true, std::memory_order_release);
    });
    AwaitFlag(done);
    if (!engine->completion()) {
      // The handler's send hit the full socket once; the rest went out from
      // Poll's flushes, each one more counted write.
      EXPECT_GT(IoCounterValue("sys_write"), writes_before + 2);
    }
  });
  client.join();
}

TEST_F(IoEngineCompletionTest, CompletionBufferRingExhaustionRearms) {
  // A 4 MiB flood against the engine's 2 MiB provided-buffer ring, with the
  // consumer asleep: the multishot recv MUST hit -ENOBUFS, park on the stall
  // list, and re-arm as the consumer recycles — all bytes still arrive, in
  // order.
  Runtime rt(Options(1));
  if (!rt.io_engine(0)->completion()) {
    GTEST_SKIP() << "the kernel refused io_uring; the engine runs epoll";
  }
  const std::int64_t exhaustions_before = IoCounterValue("buf_exhaustions");
  TcpPair pair = MakeTcpPair();
  constexpr std::size_t kTotal = 4 << 20;
  const std::string payload = PatternBytes(kTotal, 3);
  std::thread client([&] {
    std::size_t sent = 0;
    while (sent < kTotal) {
      const ssize_t n = write(pair.client, payload.data() + sent, kTotal - sent);
      ASSERT_GT(n, 0);
      sent += static_cast<std::size_t>(n);
    }
    close(pair.client);
  });
  std::atomic<bool> done{false};
  rt.Run([&] {
    IoEngine* engine = rt.io_engine(0);
    IoHandle* handle = engine->Register(pair.server, IoRegisterMode::kStream);
    ASSERT_NE(handle, nullptr);
    Runtime::Spawn([&, handle] {
      // Let the flood drain the ring dry before consuming anything.
      Runtime::SleepFor(50'000);
      std::string got;
      while (got.size() < kTotal) {
        const unsigned ready = WaitForReadable(handle);
        ASSERT_EQ(ready & kIoError, 0u);
        DrainRecvInto(engine, handle, &got);
      }
      EXPECT_EQ(got, payload);
      engine->Deregister(handle);
      done.store(true, std::memory_order_release);
    });
    AwaitFlag(done);
    EXPECT_GT(IoCounterValue("buf_exhaustions"), exhaustions_before);
  });
  client.join();
}

TEST_P(IoEngineTest, EchoUnderStealChurn) {
  // Multi-worker echo: handler uthreads migrate via work stealing while
  // their fds stay on the HOME engine, so Recv (and its buffer recycling on
  // io_uring), Send, and Poll's send flushes all cross workers. TSan is the
  // real assertion.
  Runtime rt(Options(2));
  constexpr int kConns = 4;
  constexpr int kRounds = 200;
  TcpPair pairs[kConns];
  for (TcpPair& pair : pairs) {
    pair = MakeTcpPair();
  }
  std::vector<std::thread> clients;
  for (int c = 0; c < kConns; c++) {
    clients.emplace_back([&, c] {
      unsigned rng = 1000u + static_cast<unsigned>(c);
      char buf[1024];
      for (int r = 0; r < kRounds; r++) {
        rng = rng * 1664525u + 1013904223u;
        const std::size_t n = 1 + rng % 600;
        const std::string msg = PatternBytes(n, rng);
        ASSERT_EQ(write(pairs[c].client, msg.data(), n), static_cast<ssize_t>(n));
        std::string back;
        while (back.size() < n) {
          const ssize_t m = read(pairs[c].client, buf, sizeof(buf));
          ASSERT_GT(m, 0);
          back.append(buf, static_cast<std::size_t>(m));
        }
        ASSERT_EQ(back, msg);
      }
      close(pairs[c].client);
    });
  }
  std::atomic<int> finished{0};
  rt.Run([&] {
    for (int c = 0; c < kConns; c++) {
      IoEngine* engine = rt.io_engine(c % 2);
      IoHandle* handle = engine->Register(pairs[c].server, IoRegisterMode::kStream);
      ASSERT_NE(handle, nullptr);
      Runtime::Spawn([&, engine, handle] {
        while (true) {
          WaitForReadable(handle);
          std::string chunk;
          const std::ptrdiff_t last = DrainRecvInto(engine, handle, &chunk);
          if (!chunk.empty()) {
            ASSERT_GE(engine->Send(handle, chunk), 0);
          }
          if (last != kIoAgain) {
            EXPECT_EQ(last, kIoEof);
            break;  // ping-pong protocol: nothing can be in flight by FIN
          }
        }
        engine->Deregister(handle);
        finished.fetch_add(1, std::memory_order_release);
      });
    }
    // Churn uthreads keep both runqueues busy so the steal path engages.
    std::atomic<int> churned{0};
    for (int i = 0; i < 4; i++) {
      Runtime::Spawn([&churned] {
        for (int k = 0; k < 20'000; k++) {
          Runtime::Yield();
        }
        churned.fetch_add(1, std::memory_order_release);
      });
    }
    while (finished.load(std::memory_order_acquire) < kConns ||
           churned.load(std::memory_order_acquire) < 4) {
      Runtime::SleepFor(500);
    }
  });
  for (std::thread& t : clients) {
    t.join();
  }
}

TEST_P(IoEngineTest, PeerResetMidSend) {
  // RST lands while sent bytes are still queued and a receive is pending:
  // Recv must report the failure (after waking the handler), the engine
  // must drop the send queue and refuse later sends, and teardown must not
  // leak ops or buffers (ASan).
  Runtime rt(Options(1));
  TcpPair pair = MakeTcpPair();
  const int sndbuf = 4096;
  ASSERT_EQ(setsockopt(pair.server, SOL_SOCKET, SO_SNDBUF, &sndbuf, sizeof(sndbuf)), 0);
  std::atomic<bool> queued{false};
  std::thread client([&] {
    // Never reads; aborts the connection once the server's queue is primed.
    while (!queued.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    linger lg{1, 0};
    ASSERT_EQ(setsockopt(pair.client, SOL_SOCKET, SO_LINGER, &lg, sizeof(lg)), 0);
    close(pair.client);  // RST
  });
  std::atomic<bool> done{false};
  std::ptrdiff_t last = kIoAgain;
  std::ptrdiff_t send_after_reset = 0;
  rt.Run([&] {
    IoEngine* engine = rt.io_engine(0);
    IoHandle* handle = engine->Register(pair.server, IoRegisterMode::kStream);
    ASSERT_NE(handle, nullptr);
    Runtime::Spawn([&, handle] {
      // Far more than sndbuf + rcvbuf: guaranteed still queued at the RST.
      ASSERT_GT(engine->Send(handle, PatternBytes(1 << 20, 13)), 0);
      queued.store(true, std::memory_order_release);
      while (last == kIoAgain) {
        WaitForReadable(handle);
        last = DrainRecvInto(engine, handle, nullptr);
      }
      // The failed send dropped the queue so teardown cannot wait on bytes
      // that can never leave.
      while (engine->SendQueuedBytes(handle) > 0) {
        Runtime::SleepFor(500);
      }
      send_after_reset = engine->Send(handle, "late");
      engine->Deregister(handle);
      done.store(true, std::memory_order_release);
    });
    AwaitFlag(done);
  });
  client.join();
  EXPECT_EQ(last, kIoReset);
  EXPECT_EQ(send_after_reset, kIoReset) << "a failed connection must refuse further sends";
}

TEST_P(IoEngineTest, EofDeliveredAfterData) {
  // Graceful FIN: every byte is read before Recv reports the EOF, even when
  // the handler first wakes after the FIN arrived.
  Runtime rt(Options(1));
  TcpPair pair = MakeTcpPair();
  constexpr std::size_t kTotal = 10 * 1024;
  const std::string payload = PatternBytes(kTotal, 21);
  std::thread client([&] {
    std::size_t sent = 0;
    while (sent < kTotal) {
      const ssize_t n = write(pair.client, payload.data() + sent, kTotal - sent);
      ASSERT_GT(n, 0);
      sent += static_cast<std::size_t>(n);
    }
    close(pair.client);  // immediate FIN behind the data
  });
  std::atomic<bool> done{false};
  rt.Run([&] {
    IoEngine* engine = rt.io_engine(0);
    IoHandle* handle = engine->Register(pair.server, IoRegisterMode::kStream);
    ASSERT_NE(handle, nullptr);
    Runtime::Spawn([&, handle] {
      std::string got;
      std::ptrdiff_t last = kIoAgain;
      while (last == kIoAgain) {
        const unsigned ready = WaitForReadable(handle);
        ASSERT_EQ(ready & kIoError, 0u);
        last = DrainRecvInto(engine, handle, &got);
      }
      EXPECT_EQ(last, kIoEof);
      EXPECT_EQ(got, payload);
      engine->Deregister(handle);
      done.store(true, std::memory_order_release);
    });
    AwaitFlag(done);
  });
  client.join();
}

TEST_P(IoEngineTest, AcceptQueuesConnections) {
  Runtime rt(Options(1));
  const int lfd = socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(lfd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(bind(lfd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  ASSERT_EQ(listen(lfd, 16), 0);
  socklen_t alen = sizeof(addr);
  ASSERT_EQ(getsockname(lfd, reinterpret_cast<sockaddr*>(&addr), &alen), 0);
  // Each backend counts its accepts in its own lane.
  const char* counter = rt.io_engine(0)->completion() ? "completion_accepts" : "sys_accept";
  const std::int64_t accepts_before = std::max<std::int64_t>(IoCounterValue(counter), 0);

  constexpr int kClients = 6;
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; c++) {
    clients.emplace_back([&, c] {
      const int fd = socket(AF_INET, SOCK_STREAM, 0);
      ASSERT_GE(fd, 0);
      ASSERT_EQ(connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
      const char byte = static_cast<char>('A' + c);
      ASSERT_EQ(write(fd, &byte, 1), 1);
      char reply = 0;
      ASSERT_EQ(read(fd, &reply, 1), 1);
      EXPECT_EQ(reply, byte);
      close(fd);
    });
  }
  std::atomic<bool> done{false};
  rt.Run([&] {
    IoEngine* engine = rt.io_engine(0);
    IoHandle* listener = engine->Register(lfd, IoRegisterMode::kListener);
    ASSERT_NE(listener, nullptr);
    Runtime::Spawn([&, listener] {
      std::atomic<int> served{0};
      int accepted = 0;
      while (accepted < kClients) {
        WaitForReadable(listener);
        int fd;
        while ((fd = engine->Accept(listener)) >= 0) {
          accepted++;
          EXPECT_NE(fcntl(fd, F_GETFL) & O_NONBLOCK, 0);
          IoHandle* conn = engine->Register(fd, IoRegisterMode::kStream);
          ASSERT_NE(conn, nullptr);
          Runtime::Spawn([&, conn] {
            std::string got;
            while (got.empty()) {
              WaitForReadable(conn);
              DrainRecvInto(engine, conn, &got);
            }
            ASSERT_GE(engine->Send(conn, got), 0);
            AwaitSent(engine, conn);  // one-byte echo, then tear down
            engine->Deregister(conn);
            served.fetch_add(1, std::memory_order_release);
          });
        }
      }
      while (served.load(std::memory_order_acquire) < kClients) {
        Runtime::SleepFor(500);
      }
      engine->Deregister(listener);
      done.store(true, std::memory_order_release);
    });
    AwaitFlag(done);
    EXPECT_GE(IoCounterValue(counter) - accepts_before, kClients);
  });
  for (std::thread& t : clients) {
    t.join();
  }
}

TEST_P(IoEngineTest, DatagramRoundTrip) {
  Runtime rt(Options(1));
  const int ufd = socket(AF_INET, SOCK_DGRAM, 0);
  ASSERT_GE(ufd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(bind(ufd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  socklen_t alen = sizeof(addr);
  ASSERT_EQ(getsockname(ufd, reinterpret_cast<sockaddr*>(&addr), &alen), 0);

  constexpr int kDatagrams = 20;
  std::thread client([&] {
    const int fd = socket(AF_INET, SOCK_DGRAM, 0);
    ASSERT_GE(fd, 0);
    for (int i = 0; i < kDatagrams; i++) {
      const std::string msg = "dgram-" + std::to_string(i);
      ASSERT_EQ(sendto(fd, msg.data(), msg.size(), 0, reinterpret_cast<sockaddr*>(&addr),
                       sizeof(addr)),
                static_cast<ssize_t>(msg.size()));
    }
    // Loopback UDP is lossless at this scale; echoes may arrive reordered.
    std::vector<bool> seen(kDatagrams, false);
    char buf[256];
    for (int i = 0; i < kDatagrams; i++) {
      const ssize_t n = recvfrom(fd, buf, sizeof(buf), 0, nullptr, nullptr);
      ASSERT_GT(n, 6);
      buf[n] = '\0';
      const int idx = std::atoi(buf + 6);
      ASSERT_GE(idx, 0);
      ASSERT_LT(idx, kDatagrams);
      EXPECT_FALSE(seen[idx]);
      seen[idx] = true;
    }
    close(fd);
  });
  std::atomic<bool> done{false};
  rt.Run([&] {
    IoEngine* engine = rt.io_engine(0);
    IoHandle* handle = engine->Register(ufd, IoRegisterMode::kDatagram);
    ASSERT_NE(handle, nullptr);
    Runtime::Spawn([&, handle] {
      int echoed = 0;
      char buf[256];
      while (echoed < kDatagrams) {
        WaitForReadable(handle);
        sockaddr_in peer{};
        std::ptrdiff_t n;
        while ((n = engine->RecvFrom(handle, buf, sizeof(buf), &peer)) >= 0) {
          ASSERT_TRUE(engine->SendTo(handle, peer,
                                     std::string_view(buf, static_cast<std::size_t>(n))));
          echoed++;
        }
      }
      engine->Deregister(handle);
      done.store(true, std::memory_order_release);
    });
    AwaitFlag(done);
  });
  client.join();
}

// ---------------------------------------------------------------------------
// Round order. After a uthread switches out, the worker polls its engine
// before it completes the uthread's action, so a handler woken by readiness
// is queued ahead of a yielder and is visible to the tick's preemption
// decision. Polling after the decision lets the running uthread keep the
// worker for one more batch unit or quantum.
// ---------------------------------------------------------------------------

std::int64_t MonotonicNowNs() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);  // the runtime tracer's clock
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

// One worker runs `busy` while a handler sits parked in WaitForReadable on a
// socketpair. Once `busy` has run for a while, an outside thread writes one
// byte and then calls `after_write`. The handler calls `on_run` first thing
// when it runs, then sets the flag `busy` polls to return. Returns the id of
// the uthread that ran `busy`.
std::uint64_t RaceArrivalAgainstBusy(RuntimeOptions options,
                                     const std::function<void(const std::atomic<bool>&)>& busy,
                                     const std::function<void()>& after_write,
                                     const std::function<void()>& on_run) {
  int sv[2];
  EXPECT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  options.workers = 1;
  options.io_engine = true;
  Runtime rt(options);
  std::atomic<bool> busy_started{false};
  std::atomic<bool> handler_ran{false};
  std::uint64_t busy_id = 0;
  std::thread writer([&] {
    while (!busy_started.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    const char byte = 'x';
    EXPECT_EQ(write(sv[1], &byte, 1), 1);
    after_write();
  });
  rt.Run([&] {
    IoEngine* engine = rt.io_engine(0);
    IoHandle* handle = engine->Register(sv[0]);
    UThread* handler = Runtime::Spawn([&, engine, handle] {
      WaitForReadable(handle);
      on_run();
      handler_ran.store(true, std::memory_order_release);
      engine->Deregister(handle);
    });
    // Let the handler park and the worker go idle once: the idle path
    // flushes the engine's deferred submissions, so the registration is
    // armed before the busy uthread keeps the worker from ever idling.
    Runtime::SleepFor(5'000);
    UThread* hog = Runtime::Spawn([&] {
      busy_started.store(true, std::memory_order_release);
      busy(handler_ran);
    });
    busy_id = hog->id;
    Runtime::Join(handler);
    Runtime::Join(hog);
  });
  writer.join();
  close(sv[1]);
  return busy_id;
}

// A batch uthread yields after every compute unit; the handler must run at
// the first yield after the write (the poll-after-requeue order gave 2).
void ExpectWakeupWithinOneYield(HostSchedOptions sched) {
  std::atomic<std::uint64_t> yields{0};
  std::uint64_t at_write = 0;
  std::uint64_t at_run = 0;
  RaceArrivalAgainstBusy(
      RuntimeOptions{.sched = sched},
      [&](const std::atomic<bool>& stop) {
        while (!stop.load(std::memory_order_acquire)) {
          volatile std::uint64_t x = 0;
          for (int i = 0; i < 200'000; i++) {
            x = x + 1;
          }
          yields.fetch_add(1, std::memory_order_relaxed);
          Runtime::Yield();
        }
      },
      [&] { at_write = yields.load(std::memory_order_relaxed); },
      [&] { at_run = yields.load(std::memory_order_relaxed); });
  EXPECT_LE(at_run - at_write, 1u) << "yields between the write and the handler running";
}

// A uthread that never yields holds the worker; the handler must run at the
// first preemption tick after the write (the poll-after-tick order gave 2).
// A tick is counted where the scheduler sees it: each one ends an occupancy
// span of the busy uthread, so the spans that end after the write are the
// ticks it took to hand the worker over.
void ExpectWakeupAtFirstTick(HostSchedOptions sched) {
  SchedTracer tracer(1 << 16);
  std::int64_t written_ns = 0;
  std::int64_t ran_ns = 0;
  const std::uint64_t busy_id = RaceArrivalAgainstBusy(
      RuntimeOptions{.preempt_period_us = 1000, .sched = sched, .tracer = &tracer},
      [&](const std::atomic<bool>& stop) {
        // Gives up after 5 s so a handler that never runs while the hog
        // holds the worker fails the tick count instead of hanging. The
        // clock (vDSO text, where a tick defers) is read once per 2^20 spins.
        const std::int64_t give_up = MonotonicNowNs() + 5'000'000'000;
        volatile std::uint64_t x = 0;  // executable text: a safe preemption point
        while (!stop.load(std::memory_order_relaxed)) {
          x = x + 1;
          if ((x & 0xFFFFF) == 0 && MonotonicNowNs() > give_up) {
            break;
          }
        }
      },
      [&] { written_ns = MonotonicNowNs(); }, [&] { ran_ns = MonotonicNowNs(); });
  int ticks = 0;
  for (const TraceEvent& e : tracer.Snapshot()) {
    const std::int64_t end = e.when + e.dur;
    if (e.type == TraceEventType::kRun && e.task_id == busy_id && end > written_ns &&
        end <= ran_ns) {
      ticks++;
    }
  }
  EXPECT_LE(ticks, 1) << "ticks between the write and the handler running";
}

TEST(IoEngineRoundOrderTest, ReadinessOvertakesYielderWs) {
  ExpectWakeupWithinOneYield(HostSchedOptions{});
}

TEST(IoEngineRoundOrderTest, ReadinessOvertakesYielderFifo) {
  ExpectWakeupWithinOneYield(HostSchedOptions{.policy = RuntimePolicy::kFifo});
}

TEST(IoEngineRoundOrderTest, ReadinessPreemptsAtFirstTickWs) {
  ExpectWakeupAtFirstTick(HostSchedOptions{});
}

// FIFO never preempts on a tick, so the tick case runs its sliced variant,
// round robin.
TEST(IoEngineRoundOrderTest, ReadinessPreemptsAtFirstTickRr) {
  ExpectWakeupAtFirstTick(HostSchedOptions{.policy = RuntimePolicy::kRoundRobin});
}

}  // namespace
}  // namespace skyloft
