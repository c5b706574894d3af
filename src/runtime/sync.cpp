#include "src/runtime/sync.h"

#include "src/base/compiler.h"
#include "src/base/logging.h"
#include "src/runtime/io_engine.h"

namespace skyloft {

namespace {

// Shared wait loop for both directions. `consume` is the latch bit this wait
// consumes (kIoReadable/kIoWritable); hup/error terminate either direction
// and stay latched.
SKYLOFT_MAY_SWITCH unsigned WaitForIo(IoHandle* handle, unsigned consume,
                                      std::atomic<UThread*>* waiter_slot) {
  const unsigned wake_mask = consume | kIoHup | kIoError;
  while (true) {
    unsigned ready = handle->ready.load(std::memory_order_acquire);
    if (ready & wake_mask) {
      handle->ready.fetch_and(~consume, std::memory_order_acq_rel);
      return ready;
    }
    // Publish ourselves, then re-check: the engine's DeliverReady latches ready
    // BEFORE exchanging the waiter slot, so either we see the latch here or
    // the engine sees us and unparks. A double-win (both happen) costs one
    // stale unpark token, which every Park loop tolerates.
    //
    // The publish is a seq_cst RMW, not a store plus a fence: the re-check
    // cannot be hoisted above it (StoreLoad reordering is legal even on x86,
    // and would let both sides miss each other), and if the engine's exchange
    // came first, ours reads it and so acquires the latch it released. Both
    // orders are ones ThreadSanitizer models; it does not model fences.
    waiter_slot->exchange(Runtime::Current(), std::memory_order_seq_cst);
    ready = handle->ready.load(std::memory_order_seq_cst);
    if (ready & wake_mask) {
      waiter_slot->store(nullptr, std::memory_order_release);
      handle->ready.fetch_and(~consume, std::memory_order_acq_rel);
      return ready;
    }
    Runtime::Park();
  }
}

}  // namespace

unsigned WaitForReadable(IoHandle* handle) {
  return WaitForIo(handle, kIoReadable, &handle->reader);
}

unsigned WaitForWritable(IoHandle* handle) {
  return WaitForIo(handle, kIoWritable, &handle->writer);
}

void UthreadMutex::SpinAcquire() {
  SpinBackoff backoff;
  while (wait_spin_.test_and_set(std::memory_order_acquire)) {
    backoff.Pause();
  }
}

void UthreadMutex::SpinRelease() { wait_spin_.clear(std::memory_order_release); }

bool UthreadMutex::TryLock() {
  bool expected = false;
  // seq_cst: the recheck in Lock() is one half of a store-load handshake
  // with Unlock() (see there); on x86 this is the same lock cmpxchg.
  return locked_.compare_exchange_strong(expected, true, std::memory_order_seq_cst);
}

void UthreadMutex::Lock() {
  if (TryLock()) {
    return;
  }
  Runtime::PreemptGuard guard;
  Waiter waiter;
  waiter.thread = Runtime::Current();
  // Park() may return on a stale unpark token (left by an earlier handoff
  // this uthread won without parking), so every pass may find `waiter` still
  // queued: publish it only when unlinked, and unlink it on every acquire.
  while (true) {
    SpinAcquire();
    if (TryLock()) {
      Unqueue(&waiter);
      SpinRelease();
      return;
    }
    if (!waiter.IsLinked()) {
      waiters_.PushBack(&waiter);
      waiter_count_.fetch_add(1, std::memory_order_seq_cst);
    }
    SpinRelease();
    // Recheck after publishing the waiter: an Unlock may have raced between
    // our failed TryLock and the publish, and seen zero waiters.
    if (TryLock()) {
      SpinAcquire();
      Unqueue(&waiter);
      SpinRelease();
      // If we were already popped, a stale unpark token is pending; Park()
      // consumers (all loops) tolerate the resulting spurious return.
      return;
    }
    Runtime::Park();
    // Woken by an Unlock handoff attempt (or a stale token): loop and race
    // for the lock.
  }
}

void UthreadMutex::Unqueue(Waiter* waiter) {
  if (waiter->IsLinked()) {
    waiters_.Remove(waiter);
    waiter_count_.fetch_sub(1, std::memory_order_release);
  }
}

void UthreadMutex::Unlock() {
  // Store-load handshake with Lock(), which publishes waiter_count_ and
  // then retries locked_: both sides are seq_cst, so either this load sees
  // the waiter or that retry sees the lock free. With release/acquire the
  // load could pass the store (x86 store buffering), both would miss, and
  // the waiter would park with nobody left to wake it.
  locked_.store(false, std::memory_order_seq_cst);
  if (waiter_count_.load(std::memory_order_seq_cst) == 0) {
    return;  // uncontended fast path: one store + one load
  }
  Runtime::PreemptGuard guard;
  SpinAcquire();
  // Read the thread under the spinlock: once it is released, the popped
  // waiter's owner may return from Lock() and reuse that stack slot.
  UThread* next = nullptr;
  if (Waiter* waiter = waiters_.PopFront(); waiter != nullptr) {
    waiter_count_.fetch_sub(1, std::memory_order_release);
    next = waiter->thread;
  }
  SpinRelease();
  if (next != nullptr) {
    Runtime::Unpark(next);
  }
}

void UthreadCondVar::SpinAcquire() {
  SpinBackoff backoff;
  while (wait_spin_.test_and_set(std::memory_order_acquire)) {
    backoff.Pause();
  }
}

void UthreadCondVar::SpinRelease() { wait_spin_.clear(std::memory_order_release); }

void UthreadCondVar::Wait(UthreadMutex* mutex) {
  Runtime::PreemptGuard guard;
  Waiter waiter;
  waiter.thread = Runtime::Current();
  SpinAcquire();
  waiters_.PushBack(&waiter);
  SpinRelease();
  mutex->Unlock();
  Runtime::Park();
  // A stale unpark token returns Park() before any Signal popped us: the
  // waiter lives on this frame, so it must leave the list before Wait does.
  // The caller sees a spurious wakeup, which its predicate loop absorbs.
  SpinAcquire();
  if (waiter.IsLinked()) {
    waiters_.Remove(&waiter);
  }
  SpinRelease();
  mutex->Lock();
}

// Both wakers read the waiter's thread under the spinlock: once it is
// released, a waiter that returned early may already have left Wait().
UThread* UthreadCondVar::PopWaiter() {
  SpinAcquire();
  Waiter* waiter = waiters_.PopFront();
  UThread* thread = waiter != nullptr ? waiter->thread : nullptr;
  SpinRelease();
  return thread;
}

void UthreadCondVar::Signal() {
  Runtime::PreemptGuard guard;
  if (UThread* thread = PopWaiter(); thread != nullptr) {
    Runtime::Unpark(thread);
  }
}

void UthreadCondVar::Broadcast() {
  Runtime::PreemptGuard guard;
  while (UThread* thread = PopWaiter()) {
    Runtime::Unpark(thread);
  }
}

}  // namespace skyloft
